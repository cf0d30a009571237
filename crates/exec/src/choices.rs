//! The dispatch enums shared by every driver: which back-projection
//! kernel, which filtering strategy, and which compute backend.
//!
//! These lived in `scalefbp::config` before the executor split; they
//! moved here so the executors can dispatch on them without a circular
//! dependency, and `scalefbp` re-exports them unchanged.

/// Which back-projection kernel the drivers run. The default is
/// [`Simd`](KernelChoice::Simd), the fastest bit-exact kernel.
///
/// All variants produce bit-identical volumes for the in-core and streaming
/// paths except [`Incremental`](KernelChoice::Incremental) and
/// [`SimdBatched`](KernelChoice::SimdBatched), whose reassociated f32
/// arithmetic drifts within the explicit bounds pinned in the backproject
/// crate's `contracts` module (see `docs/performance.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Algorithm 1 verbatim: the serial quadruple loop. Slow; the ground
    /// truth for equivalence testing.
    Reference,
    /// Register-accumulating slice-parallel kernel (Section 4.3.1).
    Parallel,
    /// The affine-increment kernel — fastest per-update arithmetic, *not*
    /// bit-identical. Streaming drivers fall back to the windowed kernel.
    Incremental,
    /// Cache-blocked hot path: `(i, j)` tiles with projection-outer
    /// iteration and hoisted row constants. Bit-identical to `Parallel`.
    Blocked,
    /// Explicit f32x8 SIMD over the blocked tiles (AVX2 with runtime
    /// detection, portable scalar twin otherwise). Bit-identical to
    /// `Parallel` on either backend. The default.
    #[default]
    Simd,
    /// The SIMD kernel with projection batching: `P` projections
    /// accumulate in a register partial per voxel pass. Fastest; drift vs
    /// `Parallel` is ULP-bounded, *not* bitwise.
    SimdBatched,
}

impl KernelChoice {
    /// All selectable kernels, in benchmark display order.
    pub const ALL: [KernelChoice; 6] = [
        KernelChoice::Reference,
        KernelChoice::Parallel,
        KernelChoice::Incremental,
        KernelChoice::Blocked,
        KernelChoice::Simd,
        KernelChoice::SimdBatched,
    ];

    /// Stable lowercase name (used in CLI flags and BENCH JSON).
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Reference => "reference",
            KernelChoice::Parallel => "parallel",
            KernelChoice::Incremental => "incremental",
            KernelChoice::Blocked => "blocked",
            KernelChoice::Simd => "simd",
            KernelChoice::SimdBatched => "simd-batched",
        }
    }
}

impl std::fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for KernelChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" => Ok(KernelChoice::Reference),
            "parallel" => Ok(KernelChoice::Parallel),
            "incremental" => Ok(KernelChoice::Incremental),
            "blocked" => Ok(KernelChoice::Blocked),
            "simd" => Ok(KernelChoice::Simd),
            "simd-batched" => Ok(KernelChoice::SimdBatched),
            other => Err(format!(
                "unknown kernel '{other}' (expected reference|parallel|incremental|blocked|simd|simd-batched)"
            )),
        }
    }
}

/// How the ramp-filtering stage is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FilterChoice {
    /// Weight+convolve, then a second scaling pass (the original shape).
    #[default]
    TwoPass,
    /// Single fused pass with the scale folded into the frequency response
    /// and zero per-row allocations. Matches TwoPass to a few f32 ULP.
    Fused,
}

impl FilterChoice {
    /// Stable lowercase name (used in CLI flags and BENCH JSON).
    pub fn name(self) -> &'static str {
        match self {
            FilterChoice::TwoPass => "two-pass",
            FilterChoice::Fused => "fused",
        }
    }
}

impl std::fmt::Display for FilterChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FilterChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "two-pass" | "twopass" => Ok(FilterChoice::TwoPass),
            "fused" => Ok(FilterChoice::Fused),
            other => Err(format!(
                "unknown filter mode '{other}' (expected two-pass|fused)"
            )),
        }
    }
}

/// Which executor backs the drivers' transfers and kernel launches.
///
/// `Sim` and `Cpu` run the identical host kernels — volumes are bitwise
/// equal across the two — and differ only in accounting: `Sim` charges
/// the `gpusim` cost model (capacity, modelled seconds, `gpu.*` time
/// counters), `Cpu` records the same byte/call counters with zero
/// modelled time. `WgpuStub` validates launch descriptors and buffer
/// lifetimes but cannot compute (see `docs/backends.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// The `gpusim` cost model: enforced capacity, modelled seconds,
    /// exact `gpu.*` accounting. The default — byte-identical to the
    /// pre-executor drivers.
    #[default]
    Sim,
    /// Native host execution: unlimited memory, zero modelled time,
    /// byte/call accounting only.
    Cpu,
    /// Descriptor/lifetime validation without compute — the seam a real
    /// wgpu backend plugs into.
    WgpuStub,
}

impl BackendChoice {
    /// All backends, in display order.
    pub const ALL: [BackendChoice; 3] = [
        BackendChoice::Sim,
        BackendChoice::Cpu,
        BackendChoice::WgpuStub,
    ];

    /// The two backends that actually compute volumes.
    pub const COMPUTE: [BackendChoice; 2] = [BackendChoice::Sim, BackendChoice::Cpu];

    /// Stable lowercase name (used in CLI flags and BENCH JSON).
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Sim => "sim",
            BackendChoice::Cpu => "cpu",
            BackendChoice::WgpuStub => "wgpu-stub",
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendChoice::Sim),
            "cpu" => Ok(BackendChoice::Cpu),
            "wgpu-stub" | "wgpustub" => Ok(BackendChoice::WgpuStub),
            other => Err(format!(
                "unknown backend '{other}' (expected sim|cpu|wgpu-stub)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in BackendChoice::ALL {
            assert_eq!(b.name().parse::<BackendChoice>().unwrap(), b);
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(
            "wgpustub".parse::<BackendChoice>(),
            Ok(BackendChoice::WgpuStub)
        );
        let err = "cuda".parse::<BackendChoice>().unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert_eq!(BackendChoice::default(), BackendChoice::Sim);
    }
}
