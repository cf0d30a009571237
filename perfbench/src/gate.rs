//! The correctness gate every reconstruction passes before its timings
//! count: exactness against the reference-kernel volume of the same scan,
//! then accuracy against the rasterised phantom.

use scalefbp::substrates::backproject::contracts::{
    DriftStats, DRIFT_SIGNIFICANCE, SIMD_BATCHED_REL_ABS_BOUND, SIMD_BATCHED_ULP_BOUND,
};
use scalefbp::Volume;

use crate::workload::GateKind;

fn same_shape(a: &Volume, b: &Volume) -> Result<(), String> {
    let shape = |v: &Volume| (v.nx(), v.ny(), v.nz(), v.z_offset());
    if shape(a) == shape(b) {
        Ok(())
    } else {
        Err(format!(
            "output shape {:?} differs from reference {:?} (nx, ny, nz, z_offset)",
            shape(a),
            shape(b)
        ))
    }
}

/// Checks `output` against `reference`: bit for bit, or within the
/// drift contract the reassociating kernels are held to (max ULP distance
/// over significant voxels and max deviation relative to the peak).
pub fn check_exact(kind: GateKind, output: &Volume, reference: &Volume) -> Result<(), String> {
    same_shape(output, reference)?;
    match kind {
        GateKind::Bitwise => {
            let differing = output
                .data()
                .iter()
                .zip(reference.data())
                .position(|(a, b)| a.to_bits() != b.to_bits());
            match differing {
                None => Ok(()),
                Some(i) => Err(format!(
                    "voxel {i} is {:e}, the reference kernel gives {:e}",
                    output.data()[i],
                    reference.data()[i]
                )),
            }
        }
        GateKind::Drift => {
            let d = DriftStats::measure(reference.data(), output.data(), DRIFT_SIGNIFICANCE);
            if d.within(SIMD_BATCHED_ULP_BOUND, SIMD_BATCHED_REL_ABS_BOUND) {
                Ok(())
            } else {
                Err(format!(
                    "drift outside the contract: {} ULP (bound {SIMD_BATCHED_ULP_BOUND}), \
                     |Δ|/peak {:e} (bound {SIMD_BATCHED_REL_ABS_BOUND:e})",
                    d.max_ulp_significant,
                    d.rel_abs()
                ))
            }
        }
    }
}

/// RMSE of `vol` against `truth` over the central region: the middle half
/// of each axis (all slices when the volume is a slab thinner than four).
pub fn central_rmse(vol: &Volume, truth: &Volume) -> f64 {
    let (nx, ny, nz) = (vol.nx(), vol.ny(), vol.nz());
    let (k0, k1) = if nz >= 4 {
        (nz / 4, nz - nz / 4)
    } else {
        (0, nz)
    };
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for k in k0..k1 {
        for j in ny / 4..ny - ny / 4 {
            for i in nx / 4..nx - nx / 4 {
                let d = (vol.get(i, j, k) - truth.get(i, j, k)) as f64;
                sum += d * d;
                n += 1;
            }
        }
    }
    (sum / n.max(1) as f64).sqrt()
}

/// Accuracy bound on the central-region RMSE of a size-`n` reconstruction
/// against the rasterised phantom: `1/√n`, since the partial-volume error
/// at the ball's surface shrinks with the voxel size. Measured: 0.029 at
/// 128³ and 0.022 on the 256 edge slice, about a third of the bound; a
/// density scaled by 1.5 exceeds it.
pub fn rmse_bound(n: usize) -> f64 {
    1.0 / (n as f64).sqrt()
}

/// The whole gate: exactness, then accuracy within `rmse_bound`. Returns
/// the central-region RMSE.
pub fn check(
    kind: GateKind,
    output: &Volume,
    reference: &Volume,
    truth: &Volume,
    rmse_bound: f64,
) -> Result<f64, String> {
    check_exact(kind, output, reference)?;
    same_shape(output, truth)?;
    let rmse = central_rmse(output, truth);
    if rmse.is_finite() && rmse <= rmse_bound {
        Ok(rmse)
    } else {
        Err(format!(
            "central RMSE {rmse} against the phantom exceeds {rmse_bound}"
        ))
    }
}
