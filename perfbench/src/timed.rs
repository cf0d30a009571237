//! The untraced end-to-end run (`--trace 0`).
//!
//! Each reconstruction runs in a child process of this binary, so
//! `peak_rss_mb` is the high-water mark of a process that did nothing but
//! reconstruct: input generation and the gate stay in the parent. The
//! child calls `scalefbp_cli::run(["reconstruct", …])`, timing it from the
//! scan read to the written volume (`recon_s`), then times the workload's
//! set-up calls a few times (`setup_s`). The parent gates every output
//! volume and keeps the timings only of reconstructions that pass.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use scalefbp::substrates::geom::compute_ab;
use scalefbp::substrates::iosim::format::{decode_projections, decode_volume, geometry_from_text};
use scalefbp::{FdkConfig, MetricsRegistry, OutOfCoreReconstructor, RankLayout};
use scalefbp_faults::NoFaults;

use crate::gate;
use crate::inputs::{prepare, sidecar_path};
use crate::report::{machine_json, median, result_line};
use crate::workload::{Workload, DIST_NC, DIST_NG, DIST_NR, ROI_SLAB};
use crate::RunArgs;

/// Upper bound on reconstructions per run, whatever `--seconds` allows.
const MAX_REPS: usize = 64;

/// Times the workload's set-up once: reading the scan and its sidecar,
/// `geometry_from_text` plus `decode_projections`, and building the config
/// and the driver — everything the program does before it filters the
/// first projection.
pub fn time_setup(workload: Workload, scan: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let text = std::fs::read_to_string(sidecar_path(scan)).map_err(|e| e.to_string())?;
    let geom = geometry_from_text(&text).map_err(|e| e.to_string())?;
    let projections = decode_projections(&std::fs::read(scan).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let cfg = FdkConfig::new(geom);
    match workload {
        Workload::Incore => {
            let exec = cfg
                .build_executor(Arc::new(NoFaults), 0, MetricsRegistry::new())
                .map_err(|e| e.to_string())?;
            black_box(exec);
        }
        Workload::OutOfCoreCkpt => {
            let rec = OutOfCoreReconstructor::with_observability(cfg, MetricsRegistry::new())
                .map_err(|e| e.to_string())?;
            black_box(rec);
        }
        Workload::Distributed => {
            black_box((cfg, RankLayout::new(DIST_NR, DIST_NG, DIST_NC)));
        }
        Workload::RoiEdge => {
            // The ROI driver's pre-filter work: the detector rows the
            // slab needs, copied out of the stack.
            let g = &cfg.geometry;
            let rows = compute_ab(g, ROI_SLAB.0, ROI_SLAB.1);
            black_box(projections.extract_window(rows.begin, rows.end, 0, g.np));
        }
    }
    black_box(projections);
    Ok(t.elapsed().as_secs_f64())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// The child process: one reconstruction through the CLI, then the set-up
/// samples. Prints `recon_s`, `peak_rss_mb` and one `setup_s` line per
/// sample.
pub fn child(workload: Workload, scan: &Path, out: &Path, ckpt: &Path) -> Result<(), String> {
    let tokens = workload.cli_tokens(scan, out, ckpt);
    let t = Instant::now();
    scalefbp_cli::run(tokens).map_err(|e| format!("reconstruct failed: {e}"))?;
    let recon_s = t.elapsed().as_secs_f64();
    // Read before the set-up samples, which allocate less but still some.
    let rss = peak_rss_mb()?;
    println!("recon_s {recon_s}");
    println!("peak_rss_mb {rss}");
    for _ in 0..workload.setup_reps() {
        println!("setup_s {}", time_setup(workload, scan)?);
    }
    Ok(())
}

/// What one child reported.
struct ChildReport {
    recon_s: f64,
    peak_rss_mb: f64,
    setup_s: Vec<f64>,
}

fn parse_child(stdout: &str) -> Result<ChildReport, String> {
    let mut report = ChildReport {
        recon_s: f64::NAN,
        peak_rss_mb: f64::NAN,
        setup_s: Vec::new(),
    };
    for line in stdout.lines() {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        let value: f64 = value
            .parse()
            .map_err(|_| format!("child printed a bad number: {line}"))?;
        match key {
            "recon_s" => report.recon_s = value,
            "peak_rss_mb" => report.peak_rss_mb = value,
            "setup_s" => report.setup_s.push(value),
            _ => {}
        }
    }
    if report.recon_s.is_nan() || report.peak_rss_mb.is_nan() || report.setup_s.is_empty() {
        return Err(format!("incomplete child report:\n{stdout}"));
    }
    Ok(report)
}

/// Runs one reconstruction in a child process and gates its output.
fn one_rep(
    exe: &Path,
    args: &RunArgs,
    scan: &Path,
    out: &Path,
    ckpt: &Path,
) -> Result<ChildReport, String> {
    let output = Command::new(exe)
        .arg("child")
        .args(["--workload", args.workload.name()])
        .arg("--scan")
        .arg(scan)
        .arg("--out")
        .arg(out)
        .arg("--ckpt")
        .arg(ckpt)
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    parse_child(&String::from_utf8_lossy(&output.stdout))
}

/// The `--trace 0` run: prepares the inputs, then reconstructs until
/// `--seconds` is used up (never starting a reconstruction expected to
/// overrun, but at least [`Workload::min_reps`] times), gating each
/// output. Returns the result line.
pub fn run(args: &RunArgs) -> Result<String, String> {
    let w = args.workload;
    let inputs = prepare(&args.data_dir, w, args.size, args.seed)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let work = args.data_dir.join("work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    println!(
        "{{\"machine\": {}, \"workload\": {{\"name\": \"{}\", \"seed\": {}, \"size\": {}, \
         \"input_mb\": {}, \"working_set_mb\": {}}}}}",
        machine_json(),
        w.name(),
        args.seed,
        args.size,
        inputs.scan_bytes as f64 / 1e6,
        w.working_set_bytes(&inputs.geom) as f64 / 1e6
    );

    let (mut recon, mut setup, mut rss, mut rmse) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    for rep in 0..MAX_REPS {
        let tag = format!("{}-{}-{rep}", w.name(), std::process::id());
        let out: PathBuf = work.join(format!("{tag}.sfbp"));
        let ckpt = work.join(format!("{tag}.ckpt"));
        let rep_start = Instant::now();
        attempted += 1;
        let verdict = one_rep(&exe, args, &inputs.scan, &out, &ckpt).and_then(|r| {
            let bytes = std::fs::read(&out).map_err(|e| format!("{}: {e}", out.display()))?;
            let vol = decode_volume(&bytes).map_err(|e| format!("output: {e}"))?;
            gate::check(
                w.gate(),
                &vol,
                &inputs.reference,
                &inputs.truth,
                gate::rmse_bound(args.size),
            )
            .map(|rmse_value| (r, rmse_value))
        });
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_dir_all(&ckpt);
        match verdict {
            Ok((r, rmse_value)) => {
                eprintln!(
                    "{} rep {rep}: recon {:.3} s, setup {:.4} s, peak RSS {:.1} MB, \
                     rmse {rmse_value:.5}",
                    w.name(),
                    r.recon_s,
                    median(&r.setup_s),
                    r.peak_rss_mb
                );
                recon.push(r.recon_s);
                setup.extend(r.setup_s);
                rss.push(r.peak_rss_mb);
                rmse.push(rmse_value);
            }
            Err(e) => {
                eprintln!("{} rep {rep} FAILED: {e}", w.name());
                failed += 1;
            }
        }
        let rep_s = rep_start.elapsed().as_secs_f64();
        if rep + 1 >= w.min_reps() && start.elapsed().as_secs_f64() + rep_s > args.seconds as f64 {
            break;
        }
    }
    if recon.is_empty() {
        return Err(format!("all {attempted} reconstructions failed the gate"));
    }
    Ok(result_line(
        failed == 0,
        attempted,
        failed,
        &[
            ("recon_s", median(&recon)),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", median(&rss)),
            ("rmse", median(&rmse)),
        ],
    ))
}
