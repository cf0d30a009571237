//! The reconstruction benchmark: scan container in, volume container out,
//! on four workloads, with a per-layer ledger from a separate traced run.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--size N] [--data-dir DIR]
//! ```
//!
//! `--trace 0` times whole `scalefbp reconstruct` invocations and prints
//! the end-to-end metrics; `--trace 1` prints the per-layer metrics. The
//! last stdout line is the JSON result. See `README.md` for the workloads,
//! the metrics and what each layer metric should move.

use std::path::PathBuf;

pub mod gate;
pub mod inputs;
pub mod report;
pub mod timed;
pub mod traced;
pub mod workload;

pub use workload::Workload;

/// Parsed arguments of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Volume edge of the scan (the workload's own size by default).
    pub size: usize,
    /// Where inputs, scratch outputs and traces live.
    pub data_dir: PathBuf,
}

/// `--key value` pairs of `tokens`, rejecting anything else.
pub fn parse_pairs(tokens: &[String]) -> Result<Vec<(&str, &str)>, String> {
    if !tokens.len().is_multiple_of(2) {
        return Err(format!("expected `--key value` pairs, got {tokens:?}"));
    }
    tokens
        .chunks(2)
        .map(|kv| match kv[0].strip_prefix("--") {
            Some(k) => Ok((k, kv[1].as_str())),
            None => Err(format!("expected an option, got `{}`", kv[0])),
        })
        .collect()
}

fn number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{key}: `{value}` is not a valid number"))
}

impl RunArgs {
    /// Parses the run's command line (without the program name).
    pub fn parse(tokens: &[String]) -> Result<RunArgs, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut size, mut data_dir) = (None, PathBuf::from(".bench_data"));
        for (key, value) in parse_pairs(tokens)? {
            match key {
                "workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "seed" => seed = Some(number(key, value)?),
                "seconds" => seconds = Some(number(key, value)?),
                "trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                    })
                }
                "size" => size = Some(number::<usize>(key, value)?),
                "data-dir" => data_dir = PathBuf::from(value),
                other => return Err(format!("unknown option --{other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let size = size.unwrap_or(workload.default_size());
        if size < 8 || !size.is_multiple_of(2) {
            return Err(format!("--size {size}: want an even edge of at least 8"));
        }
        Ok(RunArgs {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
            data_dir,
        })
    }
}
