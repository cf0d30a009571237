//! `perfbench` — see the library documentation and `README.md`.

use std::path::Path;
use std::process::ExitCode;

use scalefbp_perfbench::{parse_pairs, timed, traced, RunArgs, Workload};

/// `perfbench child --workload W --scan S --out O --ckpt D`: one timed
/// reconstruction in its own process (spawned by the timed run).
fn child(tokens: &[String]) -> Result<(), String> {
    let (mut workload, mut scan, mut out, mut ckpt) = (None, None, None, None);
    for (key, value) in parse_pairs(tokens)? {
        match key {
            "workload" => workload = Workload::parse(value),
            "scan" => scan = Some(Path::new(value)),
            "out" => out = Some(Path::new(value)),
            "ckpt" => ckpt = Some(Path::new(value)),
            other => return Err(format!("unknown child option --{other}")),
        }
    }
    match (workload, scan, out, ckpt) {
        (Some(w), Some(s), Some(o), Some(c)) => timed::child(w, s, o, c),
        _ => Err("child needs --workload, --scan, --out and --ckpt".into()),
    }
}

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if tokens.first().map(String::as_str) == Some("child") {
        child(&tokens[1..]).map(|()| None)
    } else {
        RunArgs::parse(&tokens)
            .and_then(|args| {
                if args.trace {
                    traced::run(&args)
                } else {
                    timed::run(&args)
                }
            })
            .map(Some)
    };
    match outcome {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
