//! The traced run (`--trace 1`): where the time of one reconstruction goes.
//!
//! First the CLI reconstructs the scan untraced, exactly as in the timed
//! run, and its output is gated. Then the benchmark reconstructs the same
//! scan again through the public functions of each layer, recording a
//! measured-clock span around every call from its own code (tracing inside
//! the program is not part of this benchmark):
//!
//! * `incore-128` replays the in-core driver: `build_executor` →
//!   `Executor::filter_stack` → `ProjectionMatrix::full_scan` →
//!   `Executor::backproject` → scale.
//! * `roi-edge-256` replays the ROI driver: `compute_ab` →
//!   `extract_window` → `FilterPipeline::filter_stack` →
//!   `backproject_parallel` → scale.
//! * `outofcore-ckpt-128` replays the out-of-core driver with a
//!   checkpoint every slab: `OutOfCoreReconstructor` planning →
//!   `Executor::filter_stack` → per slab of its plan, ring-buffer rows →
//!   `Executor::backproject_window` → scale → `CheckpointStore::save_slab`.
//!   The driver itself then runs once more, untimed by the ledger, for its
//!   public `OutOfCoreReport` and device counters.
//! * `distributed-2r-128` calls the fault-tolerant driver and reads its
//!   network counters, then times the filter and kernel over rank 0's
//!   projection range inside a `distributed.rank_compute` span.
//!
//! Every reconstruction in the run must equal the CLI's output bit for
//! bit. The spans are exported as a Chrome trace (checked with
//! `validate_chrome_trace`) and a per-layer table under
//! `<data-dir>/traces/`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use scalefbp::checkpoint::slab_to_bytes;
use scalefbp::substrates::backproject::{backproject_parallel, KernelStats, TextureWindow};
use scalefbp::substrates::exec::Executor;
use scalefbp::substrates::filter::FilterPipeline;
use scalefbp::substrates::geom::{compute_ab, ProjectionMatrix, VolumeDecomposition};
use scalefbp::substrates::iosim::format::{
    decode_projections, decode_volume, encode_volume, geometry_from_text,
};
use scalefbp::substrates::iosim::StorageEndpoint;
use scalefbp::substrates::obs::{chrome_trace_json, validate_chrome_trace, EventSink};
use scalefbp::{
    config_fingerprint, fault_tolerant_reconstruct_observed, CbctGeometry, CheckpointSpec,
    CheckpointStore, FdkConfig, FilterWindow, MetricsRegistry, OutOfCoreReconstructor,
    ProjectionStack, RankLayout, Volume,
};
use scalefbp_faults::{FaultPlan, NoFaults};

use crate::gate::{self, check_exact};
use crate::inputs::{prepare, sidecar_path};
use crate::report::{machine_json, result_line, PER_LAYER};
use crate::workload::{GateKind, Workload, DIST_NC, DIST_NG, DIST_NR};
use crate::RunArgs;

/// Rounding allowance, in seconds, when nested span totals are checked
/// against the span that encloses them.
const NESTING_EPS: f64 = 1e-6;

/// Measured-clock spans, kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    sink: EventSink,
    totals: RefCell<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            sink: EventSink::new(),
            totals: RefCell::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` as span `name` on `track`, adding its duration to the
    /// total of `name`. Spans on one track must not overlap; a span's
    /// children go on another track.
    pub fn span<T>(&self, track: &str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let (start_us, end_us) = (start.as_micros() as u64, end.as_micros() as u64);
        self.sink.span(0, track, name, start_us, end_us - start_us);
        *self.totals.borrow_mut().entry(name).or_default() += (end - start).as_secs_f64();
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.totals.borrow().get(name).copied().unwrap_or(0.0)
    }

    /// The spans as Chrome-trace JSON.
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.sink.events())
    }
}

/// Per-layer metric values, every [`PER_LAYER`] name starting at 0 (a
/// layer the workload does not exercise reports 0).
struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    fn new() -> Self {
        Ledger(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.contains_key(name), "undeclared metric {name}");
        self.0.insert(name, value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        let v = self.get(name);
        self.set(name, v + value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn scale(vol: &mut Volume, pipeline: &FilterPipeline) {
    let s = pipeline.backprojection_scale() as f32;
    for v in vol.data_mut() {
        *v *= s;
    }
}

fn bitwise_equal(a: &Volume, b: &Volume) -> bool {
    check_exact(GateKind::Bitwise, a, b).is_ok()
}

/// The in-core driver, call by call.
fn replay_incore(
    g: &CbctGeometry,
    p: &ProjectionStack,
    t: &Tracer,
    m: &mut Ledger,
) -> Result<Volume, String> {
    let cfg = FdkConfig::new(g.clone());
    cfg.validate().map_err(err)?;
    let exec = cfg
        .build_executor(Arc::new(NoFaults), 0, MetricsRegistry::new())
        .map_err(err)?;
    let pipeline = FilterPipeline::new(g, cfg.window);
    let mut filtered = p.clone();
    t.span("layer", "filter", || {
        exec.filter_stack(&pipeline, cfg.filter, &mut filtered)
    })
    .map_err(err)?;
    let mats = ProjectionMatrix::full_scan(g);
    let mut vol = Volume::zeros(g.nx, g.ny, g.nz);
    let stats = t
        .span("layer", "backproject", || {
            exec.backproject(cfg.kernel, &filtered, &mats, &mut vol)
        })
        .map_err(err)?;
    scale(&mut vol, &pipeline);

    m.set("filter.rows", (p.nv() * p.np()) as f64);
    m.set("backproject.updates", stats.updates as f64);
    m.set("backproject.proj_mb", stats.proj_bytes as f64 / 1e6);
    let c = exec.counters();
    m.set("exec.h2d_mb", c.h2d_bytes as f64 / 1e6);
    m.set("exec.launches", c.kernel_launches as f64);
    m.set("gpusim.model_s", c.transfer_secs + c.kernel_secs);
    Ok(vol)
}

/// The ROI driver (`fdk_reconstruct_slab`), call by call.
fn replay_roi(
    g: &CbctGeometry,
    p: &ProjectionStack,
    (z0, z1): (usize, usize),
    t: &Tracer,
    m: &mut Ledger,
) -> Result<Volume, String> {
    g.validate().map_err(err)?;
    let rows = compute_ab(g, z0, z1);
    let mut part = p.extract_window(rows.begin, rows.end, 0, g.np);
    let pipeline = FilterPipeline::new(g, FilterWindow::RamLak);
    t.span("layer", "filter", || pipeline.filter_stack(&mut part));
    let mats = ProjectionMatrix::full_scan(g);
    let mut slab = Volume::zeros_slab(g.nx, g.ny, z1 - z0, z0);
    let stats = t.span("layer", "backproject", || {
        backproject_parallel(&part, &mats, &mut slab)
    });
    scale(&mut slab, &pipeline);

    m.set("filter.rows", (part.nv() * part.np()) as f64);
    m.set("backproject.updates", stats.updates as f64);
    m.set("backproject.proj_mb", stats.proj_bytes as f64 / 1e6);
    Ok(slab)
}

/// The out-of-core driver with a checkpoint every slab, as the CLI runs it,
/// for its public report. Returns its volume.
fn drive_outofcore(
    g: &CbctGeometry,
    p: &ProjectionStack,
    ckpt: &Path,
    m: &mut Ledger,
) -> Result<Volume, String> {
    std::fs::create_dir_all(ckpt).map_err(err)?;
    let rec = OutOfCoreReconstructor::with_observability(
        FdkConfig::new(g.clone()),
        MetricsRegistry::new(),
    )
    .map_err(err)?;
    let endpoint = StorageEndpoint::local_nvme(Some(ckpt.to_path_buf()));
    let (vol, report) = rec
        .reconstruct_checkpointed(p, &endpoint, &CheckpointSpec::new("", 1))
        .map_err(err)?;

    m.set("outofcore.batches", report.batches.len() as f64);
    m.set(
        "outofcore.rows_loaded",
        report.batches.iter().map(|b| b.rows_loaded).sum::<usize>() as f64,
    );
    m.set(
        "outofcore.batch_wall_s",
        report.batches.iter().map(|b| b.wall_secs).sum(),
    );
    m.set("exec.h2d_mb", report.device.h2d_bytes as f64 / 1e6);
    m.set("exec.launches", report.device.kernel_launches as f64);
    m.set("gpusim.model_s", report.simulated_gpu_secs());
    Ok(vol)
}

/// The out-of-core driver with a checkpoint every slab, call by call: the
/// filter, then per slab of its plan the ring-buffer rows, the window
/// kernel, scaling and one durable checkpoint save.
fn replay_outofcore(
    g: &CbctGeometry,
    p: &ProjectionStack,
    ckpt: &Path,
    t: &Tracer,
    m: &mut Ledger,
) -> Result<Volume, String> {
    let cfg = FdkConfig::new(g.clone());
    let rec = OutOfCoreReconstructor::with_observability(cfg.clone(), MetricsRegistry::new())
        .map_err(err)?;
    let exec: &Arc<dyn Executor> = rec.executor();
    let pipeline = FilterPipeline::new(g, cfg.window);
    let mut filtered = p.clone();
    t.span("layer", "filter", || {
        exec.filter_stack(&pipeline, cfg.filter, &mut filtered)
    })
    .map_err(err)?;
    m.set("filter.rows", (p.nv() * p.np()) as f64);

    std::fs::create_dir_all(ckpt).map_err(err)?;
    let endpoint = StorageEndpoint::local_nvme(Some(ckpt.to_path_buf()));
    let mut store = CheckpointStore::create(
        &endpoint,
        Path::new(""),
        config_fingerprint(&cfg, "outofcore"),
    )
    .map_err(err)?;

    let mats = ProjectionMatrix::full_scan(g);
    let mut window = TextureWindow::new(rec.window_rows(), g.np, g.nu, 0);
    let mut vol = Volume::zeros(g.nx, g.ny, g.nz);
    let mut kernel = KernelStats::default();
    for (i, task) in rec.plan().tasks().iter().enumerate() {
        let r = if i == 0 { task.rows } else { task.new_rows };
        if !r.is_empty() {
            window.write_rows(filtered.rows_block(r.begin, r.end), r.begin, r.end);
        }
        let mut slab = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
        let stats = t
            .span("layer", "backproject", || {
                exec.backproject_window(cfg.kernel, &window, &mats, &mut slab)
            })
            .map_err(err)?;
        kernel.merge(&stats);
        scale(&mut slab, &pipeline);
        vol.paste_slab(&slab);
        let payload = slab_to_bytes(&slab);
        let (z0, z1) = (slab.z_offset(), slab.z_offset() + slab.nz());
        t.span("layer", "ckpt.save", || store.save_slab(z0, z1, &payload))
            .map_err(err)?;
        m.add("ckpt.saves", 1.0);
        m.add("ckpt.mb", payload.len() as f64 / 1e6);
    }
    m.set("backproject.updates", kernel.updates as f64);
    m.set("backproject.proj_mb", kernel.proj_bytes as f64 / 1e6);
    Ok(vol)
}

/// The fault-tolerant distributed driver, fault-free, as the CLI runs it.
fn drive_distributed(
    g: &CbctGeometry,
    p: &ProjectionStack,
    m: &mut Ledger,
) -> Result<Volume, String> {
    let out = fault_tolerant_reconstruct_observed(
        &FdkConfig::new(g.clone()),
        RankLayout::new(DIST_NR, DIST_NG, DIST_NC),
        p,
        &FaultPlan::none(),
        MetricsRegistry::new(),
    )
    .map_err(err)?;
    m.set("mpisim.bytes", out.network.bytes as f64);
    m.set("mpisim.messages", out.network.messages as f64);
    m.set("net_mb", out.network.bytes as f64 / 1e6);
    Ok(out.volume)
}

/// Times rank 0's share of the distributed work alone: for each batch of
/// its group, the projection window of its `RankLayout` range, filtered
/// and back-projected.
fn replay_rank0(
    g: &CbctGeometry,
    p: &ProjectionStack,
    t: &Tracer,
    m: &mut Ledger,
) -> Result<(), String> {
    let cfg = FdkConfig::new(g.clone());
    let exec = cfg
        .build_executor(Arc::new(NoFaults), 0, MetricsRegistry::new())
        .map_err(err)?;
    let pipeline = FilterPipeline::new(g, cfg.window);
    let mats = ProjectionMatrix::full_scan(g);
    let layout = RankLayout::new(DIST_NR, DIST_NG, DIST_NC);
    let a = layout.assignment(g, 0);
    let decomp = VolumeDecomposition::new(g, a.z_begin, a.z_end, a.nb);
    t.span(
        "replay",
        "distributed.rank_compute",
        || -> Result<(), String> {
            for task in decomp.tasks() {
                let mut part = p.extract_window(task.rows.begin, task.rows.end, a.s_begin, a.s_end);
                t.span("layer", "filter", || {
                    exec.filter_stack(&pipeline, cfg.filter, &mut part)
                })
                .map_err(err)?;
                let mut slab = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
                let stats = t
                    .span("layer", "backproject", || {
                        exec.backproject(cfg.kernel, &part, &mats[a.s_begin..a.s_end], &mut slab)
                    })
                    .map_err(err)?;
                m.add("filter.rows", (part.nv() * part.np()) as f64);
                m.add("backproject.updates", stats.updates as f64);
                m.add("backproject.proj_mb", stats.proj_bytes as f64 / 1e6);
            }
            Ok(())
        },
    )?;
    let c = exec.counters();
    m.set("exec.h2d_mb", c.h2d_bytes as f64 / 1e6);
    m.set("exec.launches", c.kernel_launches as f64);
    m.set("gpusim.model_s", c.transfer_secs + c.kernel_secs);
    Ok(())
}

/// The per-layer table written next to the trace.
fn table(w: Workload, seed: u64, m: &Ledger) -> String {
    let mut out = format!("per-layer ledger: {} seed {seed}\n", w.name());
    for (name, unit) in PER_LAYER {
        let _ = writeln!(out, "  {name:<28} {:>16.6} {unit}", m.get(name));
    }
    out
}

/// The `--trace 1` run. Returns the result line.
pub fn run(args: &RunArgs) -> Result<String, String> {
    let w = args.workload;
    let inputs = prepare(&args.data_dir, w, args.size, args.seed)?;
    println!("{{\"machine\": {}}}", machine_json());
    let work = args.data_dir.join("work");
    let traces = args.data_dir.join("traces");
    for d in [&work, &traces] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let tag = format!("{}-{}", w.name(), std::process::id());
    let cli_out = work.join(format!("{tag}-cli.sfbp"));
    let traced_out = work.join(format!("{tag}-traced.sfbp"));
    let cli_ckpt = work.join(format!("{tag}-cli.ckpt"));
    let traced_ckpt = work.join(format!("{tag}-traced.ckpt"));
    let replay_ckpt = work.join(format!("{tag}-replay.ckpt"));
    let result = traced_run(
        args,
        &inputs,
        [&cli_out, &traced_out],
        [&cli_ckpt, &traced_ckpt, &replay_ckpt],
        &traces,
    );
    for f in [&cli_out, &traced_out] {
        let _ = std::fs::remove_file(f);
    }
    for d in [&cli_ckpt, &traced_ckpt, &replay_ckpt] {
        let _ = std::fs::remove_dir_all(d);
    }
    result
}

fn traced_run(
    args: &RunArgs,
    inputs: &crate::inputs::Inputs,
    [cli_out, traced_out]: [&Path; 2],
    [cli_ckpt, traced_ckpt, replay_ckpt]: [&Path; 3],
    traces: &Path,
) -> Result<String, String> {
    let w = args.workload;
    // The run makes two reconstructions, the CLI's and the traced one;
    // each failure below is charged to one of them.
    let (mut cli_failures, mut traced_failures): (Vec<String>, Vec<String>) = (vec![], vec![]);

    // The untraced reconstruction, as the timed run makes it.
    let tokens = w.cli_tokens(&inputs.scan, cli_out, cli_ckpt);
    let start = Instant::now();
    scalefbp_cli::run(tokens).map_err(|e| format!("reconstruct failed: {e}"))?;
    let untraced_s = start.elapsed().as_secs_f64();
    let cli_vol = decode_volume(&std::fs::read(cli_out).map_err(err)?).map_err(err)?;
    if let Err(e) = gate::check(
        w.gate(),
        &cli_vol,
        &inputs.reference,
        &inputs.truth,
        gate::rmse_bound(args.size),
    ) {
        cli_failures.push(format!("CLI output: {e}"));
    }

    // The traced reconstruction.
    let t = Tracer::default();
    let mut m = Ledger::new();
    let sidecar = sidecar_path(&inputs.scan);
    let vol = t.span("run", "recon", || -> Result<Volume, String> {
        let (text, bytes) = t.span("pipeline", "iosim.read", || {
            (
                std::fs::read_to_string(&sidecar),
                std::fs::read(&inputs.scan),
            )
        });
        let (text, bytes) = (text.map_err(err)?, bytes.map_err(err)?);
        m.set("iosim.in_mb", (text.len() + bytes.len()) as f64 / 1e6);
        let (g, p) = t.span("pipeline", "iosim.decode", || {
            (geometry_from_text(&text), decode_projections(&bytes))
        });
        drop(bytes);
        let (g, p) = (g.map_err(err)?, p.map_err(err)?);
        let vol = t.span("pipeline", "core.driver", || match w {
            Workload::Incore => replay_incore(&g, &p, &t, &mut m),
            Workload::RoiEdge => replay_roi(&g, &p, w.z_range(g.nz), &t, &mut m),
            Workload::OutOfCoreCkpt => replay_outofcore(&g, &p, traced_ckpt, &t, &mut m),
            Workload::Distributed => drive_distributed(&g, &p, &mut m),
        })?;
        let encoded = t.span("pipeline", "iosim.encode", || encode_volume(&vol));
        t.span("pipeline", "iosim.write", || {
            std::fs::write(traced_out, &encoded)
        })
        .map_err(err)?;
        m.set("iosim.out_mb", encoded.len() as f64 / 1e6);
        Ok(vol)
    })?;
    if !bitwise_equal(&vol, &cli_vol) {
        traced_failures.push("the traced reconstruction differs from the CLI's output".into());
    }

    // The driver's own report, or rank 0's layer calls, on the same inputs.
    let text = std::fs::read_to_string(&sidecar).map_err(err)?;
    let g = geometry_from_text(&text).map_err(err)?;
    match w {
        Workload::OutOfCoreCkpt => {
            let p = decode_projections(&std::fs::read(&inputs.scan).map_err(err)?).map_err(err)?;
            let driver_vol = drive_outofcore(&g, &p, replay_ckpt, &mut m)?;
            if !bitwise_equal(&driver_vol, &cli_vol) {
                traced_failures
                    .push("the out-of-core driver's volume differs from the CLI's".into());
            }
        }
        Workload::Distributed => {
            let p = decode_projections(&std::fs::read(&inputs.scan).map_err(err)?).map_err(err)?;
            replay_rank0(&g, &p, &t, &mut m)?;
        }
        Workload::Incore | Workload::RoiEdge => {}
    }

    // The ledger.
    let driver = t.total("core.driver");
    let (filter, bp, ckpt) = (
        t.total("filter"),
        t.total("backproject"),
        t.total("ckpt.save"),
    );
    m.set("iosim.read_s", t.total("iosim.read"));
    m.set("iosim.decode_s", t.total("iosim.decode"));
    m.set(
        "iosim.decode_gbps",
        ratio(m.get("iosim.in_mb") / 1e3, t.total("iosim.decode")),
    );
    m.set("iosim.encode_s", t.total("iosim.encode"));
    m.set("iosim.write_s", t.total("iosim.write"));
    m.set("filter.s", filter);
    m.set("filter.rows_per_s", ratio(m.get("filter.rows"), filter));
    m.set("backproject.s", bp);
    m.set(
        "backproject.gups",
        ratio(m.get("backproject.updates") / 1e9, bp),
    );
    m.set("ckpt.save_s", ckpt);
    m.set("core.driver_s", driver);
    // The layer spans nest in the replayed driver, or, on the distributed
    // workload, in rank 0's compute, whose remainder against the driver
    // is `distributed.wait_s`. Either way `core.other_s` is the enclosing
    // span minus the layer spans inside it, so it cannot be negative.
    let enclosing = if w == Workload::Distributed {
        let rank = t.total("distributed.rank_compute");
        m.set("distributed.rank_compute_s", rank);
        m.set("distributed.wait_s", driver - rank);
        rank
    } else {
        driver
    };
    m.set("core.other_s", enclosing - filter - bp - ckpt);
    m.set("trace.overhead_s", t.total("recon") - untraced_s);

    if m.get("core.other_s") < -NESTING_EPS {
        traced_failures.push(format!(
            "layer spans ({:.3} s) exceed the span enclosing them ({enclosing:.3} s)",
            filter + bp + ckpt
        ));
    }

    let stem = format!("{}-s{}", w.name(), args.seed);
    let trace = t.chrome_json();
    let summary = validate_chrome_trace(&trace).map_err(|e| format!("exported trace: {e}"))?;
    let ledger = table(w, args.seed, &m);
    for (ext, text) in [("json", &trace), ("txt", &ledger)] {
        let path = traces.join(format!("{stem}.{ext}"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    eprint!("{ledger}");
    eprintln!(
        "chrome trace: {} spans on {} tracks → {}",
        summary.spans,
        summary.tracks,
        traces.join(format!("{stem}.json")).display()
    );
    for f in cli_failures.iter().chain(&traced_failures) {
        eprintln!("{} traced run FAILED: {f}", w.name());
    }

    let metrics: Vec<(&str, f64)> = PER_LAYER.iter().map(|(n, _)| (*n, m.get(n))).collect();
    let failed = [&cli_failures, &traced_failures]
        .iter()
        .filter(|f| !f.is_empty())
        .count() as u64;
    Ok(result_line(failed == 0, 2, failed, &metrics))
}
