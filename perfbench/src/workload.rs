//! The four benchmark workloads: what the program is asked to do, how its
//! output is gated, and what its set-up covers.

use std::path::Path;

use scalefbp::CbctGeometry;

/// One set of inputs and CLI flags the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `reconstruct` with every CLI default on the ideal-128 scan.
    Incore,
    /// The same scan through `--mode outofcore` with a durable slab
    /// checkpoint after every batch.
    OutOfCoreCkpt,
    /// The same scan through `--mode distributed --nr 2 --ng 1`.
    Distributed,
    /// `reconstruct --slab 0:1` (one edge slice) on the ideal-256 scan.
    RoiEdge,
}

/// How a workload's output volume is checked against the reference-kernel
/// volume of the same scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateKind {
    /// Every voxel bit-identical.
    Bitwise,
    /// Within the reassociation drift contract of
    /// `backproject::contracts` (the distributed reduce sums per-rank
    /// partial volumes, which regroups the per-voxel f32 sum).
    Drift,
}

/// Ranks per group and groups of the distributed workload.
pub const DIST_NR: usize = 2;
/// Groups of the distributed workload.
pub const DIST_NG: usize = 1;
/// Batches per group, as the CLI's `RankLayout::new(nr, ng, 2)`.
pub const DIST_NC: usize = 2;

/// The slice range of the ROI workload: the first (edge) slice, whose cone
/// reaches the detector's last rows.
pub const ROI_SLAB: (usize, usize) = (0, 1);

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Incore,
        Workload::OutOfCoreCkpt,
        Workload::Distributed,
        Workload::RoiEdge,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Incore => "incore-128",
            Workload::OutOfCoreCkpt => "outofcore-ckpt-128",
            Workload::Distributed => "distributed-2r-128",
            Workload::RoiEdge => "roi-edge-256",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Volume edge `N` of the ideal scan the workload reads.
    pub fn default_size(self) -> usize {
        match self {
            Workload::RoiEdge => 256,
            _ => 128,
        }
    }

    /// The reconstructed slice range `[z0, z1)` of a size-`n` volume.
    pub fn z_range(self, n: usize) -> (usize, usize) {
        match self {
            Workload::RoiEdge => ROI_SLAB,
            _ => (0, n),
        }
    }

    /// How the output is gated against the reference-kernel volume.
    pub fn gate(self) -> GateKind {
        match self {
            Workload::Distributed => GateKind::Drift,
            _ => GateKind::Bitwise,
        }
    }

    /// The `scalefbp reconstruct` invocation of the workload: the scan, the
    /// output and the workload's own flags; everything else stays at the
    /// CLI default.
    pub fn cli_tokens(self, scan: &Path, out: &Path, ckpt_dir: &Path) -> Vec<String> {
        let mut tokens: Vec<String> = vec![
            "reconstruct".into(),
            "--scan".into(),
            scan.display().to_string(),
            "--out".into(),
            out.display().to_string(),
        ];
        let flags: Vec<String> = match self {
            Workload::Incore => vec![],
            Workload::OutOfCoreCkpt => vec![
                "--mode".into(),
                "outofcore".into(),
                "--checkpoint-dir".into(),
                ckpt_dir.display().to_string(),
                "--checkpoint-every".into(),
                "1".into(),
            ],
            Workload::Distributed => vec![
                "--mode".into(),
                "distributed".into(),
                "--nr".into(),
                DIST_NR.to_string(),
                "--ng".into(),
                DIST_NG.to_string(),
            ],
            Workload::RoiEdge => vec!["--slab".into(), format!("{}:{}", ROI_SLAB.0, ROI_SLAB.1)],
        };
        tokens.extend(flags);
        tokens
    }

    /// Set-up samples taken per reconstruction: five on the 128 scan
    /// (about 0.06 s each), one on the 226 MB ROI container (about 0.6 s,
    /// and its run makes five or more reconstructions).
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::RoiEdge => 1,
            _ => 5,
        }
    }

    /// Reconstructions a timed run makes even past `--seconds`, so that
    /// its median outvotes one slow reconstruction: three for the short
    /// workloads, one for the two that take 12–20 s each.
    pub fn min_reps(self) -> usize {
        match self {
            Workload::Distributed | Workload::RoiEdge => 3,
            Workload::Incore | Workload::OutOfCoreCkpt => 1,
        }
    }

    /// Computed (not measured) bytes the reconstruction holds at its peak:
    /// the container bytes and the decoded stack during decode, or later
    /// the stack, its filtered copy (the row window, for the ROI) and the
    /// output volume, whichever is larger.
    pub fn working_set_bytes(self, g: &CbctGeometry) -> u64 {
        let proj = (g.nv * g.np * g.nu * 4) as u64;
        let (z0, z1) = self.z_range(g.nz);
        let vol = (g.nx * g.ny * (z1 - z0) * 4) as u64;
        let filtered = match self {
            Workload::RoiEdge => {
                let rows = scalefbp::substrates::geom::compute_ab(g, z0, z1);
                ((rows.end - rows.begin) * g.np * g.nu * 4) as u64
            }
            _ => proj,
        };
        (2 * proj).max(proj + filtered + vol)
    }
}

/// The ideal cone-beam geometry of a size-`n` scan (`N_p = N_u = N_v =
/// 3n/2`), as `scalefbp simulate --ideal n` builds it.
pub fn ideal_geometry(n: usize) -> CbctGeometry {
    CbctGeometry::ideal(n, n * 3 / 2, n * 3 / 2, n * 3 / 2)
}
