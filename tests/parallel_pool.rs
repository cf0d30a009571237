//! The parallel-for behind every kernel, filter and phantom loop
//! (`par_chunks_mut(..).enumerate().for_each(..)` on the workspace's
//! thread pool), and the default kernel that runs on it.
//!
//! * **Pool**: every chunk is visited exactly once with its own index, for
//!   more chunks than workers, fewer chunks than workers, an empty slice
//!   and a short last chunk; a zero chunk size panics; a panic inside
//!   `for_each` reaches the caller; a nested call completes.
//! * **Default kernel**: bitwise equal to `reference` in-core and
//!   streamed, on a volume whose depth splits evenly neither into the
//!   SIMD kernel's z-slabs nor across the workers.

use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;
use scalefbp::{fdk_reconstruct_configured, FdkConfig, KernelChoice, OutOfCoreReconstructor};
use scalefbp_backproject::SimdTuning;
use scalefbp_geom::{CbctGeometry, Volume};
use scalefbp_gpusim::DeviceSpec;
use scalefbp_phantom::{forward_project, uniform_ball};

/// Fills each chunk of a `len`-element slice, split every `chunk`
/// elements, with its index, then checks the result and the call count.
fn check_coverage(len: usize, chunk: usize) {
    let mut v = vec![usize::MAX; len];
    let calls = AtomicUsize::new(0);
    v.par_chunks_mut(chunk).enumerate().for_each(|(i, c)| {
        calls.fetch_add(1, Ordering::Relaxed);
        let want = chunk.min(len - i * chunk);
        assert_eq!(c.len(), want, "chunk {i} of len {len} by {chunk}");
        c.fill(i);
    });
    let expect: Vec<usize> = (0..len).map(|x| x / chunk).collect();
    assert_eq!(v, expect, "len {len}, chunk {chunk}");
    assert_eq!(calls.into_inner(), len.div_ceil(chunk));
}

#[test]
fn pool_covers_more_chunks_than_workers() {
    let n = rayon::current_num_threads();
    check_coverage(64 * n + 5, 4);
    check_coverage(1000, 1);
}

#[test]
fn pool_covers_fewer_chunks_than_workers() {
    check_coverage(3, 8);
    check_coverage(9, 8);
}

#[test]
fn pool_leaves_an_empty_slice_alone() {
    check_coverage(0, 5);
}

#[test]
fn pool_hands_out_a_short_last_chunk() {
    check_coverage(17, 5);
}

#[test]
#[should_panic(expected = "chunk_size must not be zero")]
fn pool_rejects_a_zero_chunk_size() {
    let mut v = [0u8; 4];
    let _ = v.par_chunks_mut(0);
}

#[test]
fn pool_propagates_a_panic_to_the_caller() {
    let mut v = vec![0u32; 64];
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        v.par_chunks_mut(4).enumerate().for_each(|(i, _)| {
            if i == 7 {
                panic!("chunk seven failed");
            }
        });
    }))
    .expect_err("the panic must reach the caller");
    let msg = caught
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| caught.downcast_ref::<String>().map(String::as_str));
    assert_eq!(msg, Some("chunk seven failed"));
}

#[test]
fn pool_completes_nested_calls() {
    let (outer, inner) = (8, 16);
    let mut v = vec![0usize; outer * inner];
    v.par_chunks_mut(inner).enumerate().for_each(|(i, row)| {
        row.par_chunks_mut(3).enumerate().for_each(|(j, c)| {
            for (k, x) in c.iter_mut().enumerate() {
                *x = i * inner + j * 3 + k;
            }
        });
    });
    assert_eq!(v, (0..outer * inner).collect::<Vec<_>>());
}

fn assert_bitwise(a: &Volume, b: &Volume, what: &str) {
    assert_eq!(a.data().len(), b.data().len(), "{what}: size");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: voxel {i}: {x} vs {y}");
    }
}

#[test]
fn default_kernel_is_bitwise_reference_on_a_ragged_depth() {
    // A 16×16×7 volume, centred in the 16³ footprint.
    let mut g = CbctGeometry::ideal(16, 24, 32, 28);
    g.nz = 7;
    let zslab = SimdTuning::default().zslab;
    let workers = rayon::current_num_threads();
    assert!(g.nz % zslab != 0, "nz {} divides into {zslab}-slabs", g.nz);
    assert!(
        workers == 1 || g.nz % workers != 0,
        "nz {} divides over {workers} workers",
        g.nz
    );
    let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
    let default = FdkConfig::new(g.clone());
    assert_eq!(default.kernel, KernelChoice::Simd);
    let reference = default.clone().with_kernel(KernelChoice::Reference);

    let want = fdk_reconstruct_configured(&reference, &p).unwrap();
    let got = fdk_reconstruct_configured(&default, &p).unwrap();
    assert_bitwise(&got, &want, "in-core default vs reference");

    // A device that holds a third of the data forces several streamed
    // slabs through the windowed kernel.
    let device = DeviceSpec::tiny((g.projection_bytes() + g.volume_bytes()) as u64 / 3);
    let (streamed, report) = OutOfCoreReconstructor::new(default.with_device(device))
        .unwrap()
        .reconstruct(&p)
        .unwrap();
    assert!(report.batches.len() > 1, "expected several slabs");
    assert_bitwise(&streamed, &want, "out-of-core default vs reference");
}
