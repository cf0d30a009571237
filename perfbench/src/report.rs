//! Metric names and units, the result line, and the machine record.

use std::fmt::Write as _;

use scalefbp::substrates::backproject::{detected_cpu_features, simd_backend};

/// End-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("recon_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rmse", "density"),
];

/// Per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("iosim.read_s", "s"),
    ("iosim.decode_s", "s"),
    ("iosim.decode_gbps", "GB/s"),
    ("iosim.in_mb", "MB"),
    ("iosim.encode_s", "s"),
    ("iosim.write_s", "s"),
    ("iosim.out_mb", "MB"),
    ("filter.s", "s"),
    ("filter.rows", "count"),
    ("filter.rows_per_s", "1/s"),
    ("backproject.s", "s"),
    ("backproject.updates", "count"),
    ("backproject.gups", "GUPS"),
    ("backproject.proj_mb", "MB"),
    ("exec.h2d_mb", "MB"),
    ("exec.launches", "count"),
    ("gpusim.model_s", "model-s"),
    ("outofcore.batches", "count"),
    ("outofcore.rows_loaded", "count"),
    ("outofcore.batch_wall_s", "s"),
    ("ckpt.saves", "count"),
    ("ckpt.mb", "MB"),
    ("ckpt.save_s", "s"),
    ("mpisim.bytes", "bytes"),
    ("mpisim.messages", "count"),
    ("net_mb", "MB"),
    ("distributed.rank_compute_s", "s"),
    ("distributed.wait_s", "s"),
    ("core.driver_s", "s"),
    ("core.other_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The unit of a metric named in [`END_TO_END`] or [`PER_LAYER`].
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The final stdout line: `correct`, `attempted`, `failed` and every
/// metric with its unit, in the given order.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = unit_of(name).expect("every reported metric is declared");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// Last-level cache size in bytes, from the kernel's CPU topology.
fn last_level_cache_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let (Ok(level), size) = (level.trim().parse::<u32>(), size.trim()) else {
            continue;
        };
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|k| k << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|m| m << 20)
        } else {
            size.parse::<u64>().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// The machine every result is read against, as a JSON object: logical
/// CPUs, the SIMD features and back-projection backend detected at run
/// time, and the last-level cache size.
pub fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<String> = detected_cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    let llc = last_level_cache_bytes().map_or("null".to_string(), |b| b.to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_features\": [{}], \"simd_backend\": \"{}\", \
         \"llc_bytes\": {llc}}}",
        features.join(", "),
        simd_backend().name()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_carries_units() {
        let line = result_line(true, 3, 0, &[("recon_s", 1.5), ("rmse", 0.01)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"recon_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"rmse\": {\"value\": 0.01, \"unit\": \"density\"}}}"
        );
    }
}
