//! Seeded, untimed input preparation.
//!
//! A workload's scan is a uniform ball plus a seeded noise floor, written
//! as a projection container and geometry sidecar with the program's own
//! `encode_projections` / `geometry_to_text`. The program sees only these
//! files. Next to each scan the benchmark caches the reference-kernel
//! volume of the same scan (the bitwise gate's expected answer), so the
//! three workloads sharing the 128 scan pay for it once per seed.

use std::fs;
use std::path::{Path, PathBuf};

use scalefbp::substrates::backproject::backproject_reference;
use scalefbp::substrates::filter::FilterPipeline;
use scalefbp::substrates::geom::{compute_ab, ProjectionMatrix};
use scalefbp::substrates::iosim::format::{
    decode_projections, decode_volume, encode_projections, encode_volume, geometry_from_text,
    geometry_to_text,
};
use scalefbp::substrates::phantom::{forward_project, uniform_ball, Phantom};
use scalefbp::{CbctGeometry, FilterWindow, ProjectionStack, Volume};

use crate::workload::{ideal_geometry, Workload};

/// Radius of the ball phantom as a fraction of the footprint radius, and
/// its density — the CLI's `simulate --phantom ball`.
const BALL_RADIUS_FRAC: f64 = 0.55;
const BALL_DENSITY: f32 = 1.0;

/// Half-width of the uniform noise floor, as a fraction of the peak line
/// integral.
pub const NOISE_FLOOR: f32 = 1e-3;

/// Seeded scans kept per scan size; older ones are deleted (a 256 scan is
/// a 226 MB container).
const KEEP_128: usize = 12;
const KEEP_256: usize = 2;

/// The prepared inputs of one workload at one seed.
pub struct Inputs {
    /// The projection container; its sidecar is `<scan>.geom`.
    pub scan: PathBuf,
    /// The geometry parsed back from the sidecar, as the program sees it.
    pub geom: CbctGeometry,
    /// The reference-kernel volume of the workload's slice range.
    pub reference: Volume,
    /// The rasterised phantom over the same slice range.
    pub truth: Volume,
    /// Size of the projection container in bytes.
    pub scan_bytes: u64,
}

/// The geometry sidecar path of a scan, as the CLI derives it.
pub fn sidecar_path(scan: &Path) -> PathBuf {
    let mut p = scan.as_os_str().to_owned();
    p.push(".geom");
    PathBuf::from(p)
}

/// A small deterministic generator (SplitMix64), so the inputs depend on
/// the seed argument and on nothing else.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric_unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }
}

fn ball(g: &CbctGeometry) -> Phantom {
    uniform_ball(g, BALL_RADIUS_FRAC, BALL_DENSITY)
}

/// The seeded scan of a size-`n` ideal geometry: analytic ball projections
/// plus a uniform noise floor of [`NOISE_FLOOR`] × the peak line integral.
pub fn seeded_scan(g: &CbctGeometry, seed: u64) -> ProjectionStack {
    let mut p = forward_project(g, &ball(g));
    let peak = p.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let amp = NOISE_FLOOR * peak;
    let mut rng = SplitMix64::new(seed);
    for v in p.data_mut() {
        *v += amp * rng.symmetric_unit();
    }
    p
}

/// The phantom rasterised over global slices `[z0, z1)` (the ground truth
/// of the `rmse` metric).
pub fn truth_slab(g: &CbctGeometry, z0: usize, z1: usize) -> Volume {
    let phantom = ball(g);
    let mut vol = Volume::zeros_slab(g.nx, g.ny, z1 - z0, z0);
    for k in 0..(z1 - z0) {
        let z = g.voxel_z(z0 + k);
        for j in 0..g.ny {
            let y = g.voxel_y(j);
            for i in 0..g.nx {
                *vol.get_mut(i, j, k) = phantom.density_at([g.voxel_x(i), y, z]);
            }
        }
    }
    vol
}

/// Threads the reference reconstruction runs on.
const REFERENCE_THREADS: usize = 2;

/// The reference-kernel reconstruction of global slices `[z0, z1)`, the
/// gate's expected answer. The projections are filtered as the drivers
/// filter them: the whole stack for the full volume, and for a slab only
/// the detector rows `compute_ab` selects, as the ROI driver does. The
/// serial reference kernel then runs on [`REFERENCE_THREADS`] z-slabs at
/// once; each voxel sums its projections in the same order either way, so
/// the volume is bitwise the single-threaded one.
pub fn reference_volume(g: &CbctGeometry, p: &ProjectionStack, z0: usize, z1: usize) -> Volume {
    let pipeline = FilterPipeline::new(g, FilterWindow::RamLak);
    let mut filtered = if (z0, z1) == (0, g.nz) {
        p.clone()
    } else {
        let rows = compute_ab(g, z0, z1);
        p.extract_window(rows.begin, rows.end, 0, g.np)
    };
    pipeline.filter_stack(&mut filtered);
    let mats = ProjectionMatrix::full_scan(g);

    let parts = REFERENCE_THREADS.min(z1 - z0);
    let bounds: Vec<(usize, usize)> = (0..parts)
        .map(|i| (z0 + (z1 - z0) * i / parts, z0 + (z1 - z0) * (i + 1) / parts))
        .collect();
    let slabs: Vec<Volume> = std::thread::scope(|s| {
        let workers: Vec<_> = bounds
            .iter()
            .map(|&(a, b)| {
                let (src, mats) = (&filtered, &mats);
                s.spawn(move || {
                    let mut slab = Volume::zeros_slab(g.nx, g.ny, b - a, a);
                    backproject_reference(src, mats, &mut slab);
                    slab
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference kernel thread panicked"))
            .collect()
    });

    let mut vol = Volume::zeros_slab(g.nx, g.ny, z1 - z0, z0);
    for slab in &slabs {
        vol.paste_slab(slab);
    }
    let scale = pipeline.backprojection_scale() as f32;
    for v in vol.data_mut() {
        *v *= scale;
    }
    vol
}

/// Writes `data` to `path` through a temporary name, so an interrupted
/// run never leaves a truncated cache entry behind.
fn write_atomic(path: &Path, data: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("partial");
    fs::write(&tmp, data).map_err(|e| format!("{}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Deletes all but the `keep` most recently used seed directories whose
/// names start with `prefix`.
fn prune(root: &Path, prefix: &str, keep: usize) {
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .filter_map(|e| {
            let used = fs::metadata(e.path().join("used")).ok()?.modified().ok()?;
            Some((used, e.path()))
        })
        .collect();
    dirs.sort();
    let excess = dirs.len().saturating_sub(keep);
    for (_, dir) in dirs.into_iter().take(excess) {
        let _ = fs::remove_dir_all(dir);
    }
}

/// Prepares (or reuses) the size-`n` scan of `seed` and the reference
/// volume and ground truth of `workload`'s slice range, under
/// `data_dir/inputs`.
pub fn prepare(data_dir: &Path, workload: Workload, n: usize, seed: u64) -> Result<Inputs, String> {
    let root = data_dir.join("inputs");
    let prefix = format!("ball-{n}-s");
    let dir = root.join(format!("{prefix}{seed}"));
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let scan = dir.join("scan.sfbp");
    let sidecar = sidecar_path(&scan);

    let fresh = !scan.exists() || !sidecar.exists();
    if fresh {
        let g = ideal_geometry(n);
        g.validate().map_err(|e| format!("geometry: {e}"))?;
        write_atomic(&sidecar, geometry_to_text(&g).as_bytes())?;
        write_atomic(&scan, &encode_projections(&seeded_scan(&g, seed)))?;
    }
    let text = fs::read_to_string(&sidecar).map_err(|e| format!("{}: {e}", sidecar.display()))?;
    let geom = geometry_from_text(&text).map_err(|e| format!("{}: {e}", sidecar.display()))?;
    let (z0, z1) = workload.z_range(geom.nz);

    let ref_path = dir.join(format!("reference-z{z0}-{z1}.sfbp"));
    let reference = match fs::read(&ref_path).ok().filter(|_| !fresh) {
        Some(bytes) => decode_volume(&bytes).map_err(|e| format!("{}: {e}", ref_path.display()))?,
        None => {
            let bytes = fs::read(&scan).map_err(|e| format!("{}: {e}", scan.display()))?;
            let p = decode_projections(&bytes).map_err(|e| format!("{}: {e}", scan.display()))?;
            drop(bytes);
            let v = reference_volume(&geom, &p, z0, z1);
            write_atomic(&ref_path, &encode_volume(&v))?;
            v
        }
    };
    let truth = truth_slab(&geom, z0, z1);
    let scan_bytes = fs::metadata(&scan)
        .map_err(|e| format!("{}: {e}", scan.display()))?
        .len();

    fs::write(dir.join("used"), b"").map_err(|e| format!("{}: {e}", dir.display()))?;
    prune(&root, &prefix, if n > 128 { KEEP_256 } else { KEEP_128 });
    Ok(Inputs {
        scan,
        geom,
        reference,
        truth,
        scan_bytes,
    })
}
