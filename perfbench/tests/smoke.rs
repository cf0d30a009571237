//! Tiny-size smoke runs of every workload in both modes, the metric list
//! against `BENCHMARK.json`, and the correctness gate on corrupted volumes.

use std::path::{Path, PathBuf};
use std::process::Command;

use scalefbp::substrates::obs::{parse_json, JsonValue};
use scalefbp_perfbench::gate::{self, check, check_exact, rmse_bound};
use scalefbp_perfbench::inputs::{reference_volume, seeded_scan, truth_slab};
use scalefbp_perfbench::report::{END_TO_END, PER_LAYER};
use scalefbp_perfbench::workload::{ideal_geometry, GateKind};
use scalefbp_perfbench::Workload;

/// Edge of the smoke scans: small enough for seconds-long runs, large
/// enough for the phantom to reconstruct within the accuracy bound.
const SMOKE_SIZE: usize = 32;

fn data_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_bench(w: Workload, trace: bool, dir: &Path) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", w.name(), "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--size", &SMOKE_SIZE.to_string()])
        .arg("--data-dir")
        .arg(dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} failed: {}",
        w.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_json(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

fn assert_result(w: Workload, result: &JsonValue, metrics: &[(&str, &str)]) {
    let field = |k: &str| {
        result
            .get(k)
            .unwrap_or_else(|| panic!("{}: no {k}", w.name()))
    };
    assert_eq!(field("correct"), &JsonValue::Bool(true), "{}", w.name());
    assert!(field("attempted").as_u64().unwrap() >= 1);
    assert_eq!(field("failed").as_u64(), Some(0));
    let JsonValue::Object(reported) = field("metrics") else {
        panic!("{}: metrics is not an object", w.name());
    };
    assert_eq!(reported.len(), metrics.len(), "{}: metric count", w.name());
    for (name, unit) in metrics {
        let m = field("metrics")
            .get(name)
            .unwrap_or_else(|| panic!("{}: {name} missing", w.name()));
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(*unit));
        let v = m.get("value").and_then(JsonValue::as_f64);
        assert!(
            v.is_some_and(f64::is_finite),
            "{}: {name} = {v:?}",
            w.name()
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let dir = data_dir("smoke-e2e");
    for w in Workload::ALL {
        let result = run_bench(w, false, &dir);
        assert_result(w, &result, END_TO_END);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_a_valid_trace() {
    let dir = data_dir("smoke-trace");
    for w in Workload::ALL {
        let result = run_bench(w, true, &dir);
        assert_result(w, &result, PER_LAYER);
        let trace = dir.join("traces").join(format!("{}-s7.json", w.name()));
        let text = std::fs::read_to_string(&trace).expect("the trace is written");
        scalefbp::substrates::obs::validate_chrome_trace(&text).expect("a valid chrome trace");
    }
}

#[test]
fn benchmark_json_names_exactly_the_emitted_metrics_and_workloads() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), expect(END_TO_END));
    assert_eq!(names("per_layer"), expect(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

fn flip_bit(vol: &scalefbp::Volume, voxel: usize, bit: u32) -> scalefbp::Volume {
    let mut out = vol.clone();
    let v = &mut out.data_mut()[voxel];
    *v = f32::from_bits(v.to_bits() ^ (1 << bit));
    out
}

#[test]
fn gate_trips_on_one_flipped_bit() {
    let n = 16;
    let g = ideal_geometry(n);
    let p = seeded_scan(&g, 3);
    let reference = reference_volume(&g, &p, 0, g.nz);
    let truth = truth_slab(&g, 0, g.nz);
    let centre = reference.index(n / 2, n / 2, n / 2);

    check(
        GateKind::Bitwise,
        &reference,
        &reference,
        &truth,
        rmse_bound(n),
    )
    .unwrap();
    let lowest = flip_bit(&reference, centre, 0);
    assert!(check_exact(GateKind::Bitwise, &lowest, &reference).is_err());
    // One ULP is inside the distributed drift contract; an exponent bit is
    // not.
    check_exact(GateKind::Drift, &lowest, &reference).unwrap();
    let exponent = flip_bit(&reference, centre, 30);
    assert!(check_exact(GateKind::Drift, &exponent, &reference).is_err());
}

#[test]
fn gate_trips_on_a_consistent_but_wrong_answer() {
    let n = 16;
    let g = ideal_geometry(n);
    let reference = reference_volume(&g, &seeded_scan(&g, 3), 0, g.nz);
    let truth = truth_slab(&g, 0, g.nz);
    let mut scaled = reference.clone();
    for v in scaled.data_mut() {
        *v *= 1.5;
    }
    // Exact against itself, but far from the phantom.
    check_exact(GateKind::Bitwise, &scaled, &scaled).unwrap();
    let err = check(GateKind::Bitwise, &scaled, &scaled, &truth, rmse_bound(n)).unwrap_err();
    assert!(err.contains("RMSE"), "{err}");
    assert!(gate::central_rmse(&reference, &truth) < rmse_bound(n));
}

#[test]
fn slab_reference_matches_the_full_reference() {
    let g = ideal_geometry(16);
    let p = seeded_scan(&g, 5);
    let full = reference_volume(&g, &p, 0, g.nz);
    let slab = reference_volume(&g, &p, 0, 1);
    assert_eq!(slab.z_offset(), 0);
    let same = slab
        .slice(0)
        .iter()
        .zip(full.slice(0))
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "the ROI reference must equal slice 0 of the full one");
}
