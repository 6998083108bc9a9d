//! SHOC `neuralnet` (`kernelFeedForward1`): a fully-connected layer.
//! Each thread computes one output neuron: `out[j] = f(sum_i in[i] *
//! weights[i][j])`.
//!
//! The weights matrix is the paper's Figure 6 target object, tested in
//! all five placements (G, C, S, T, 2T). The access structure makes the
//! ranking non-obvious:
//!
//! * `in[i]` is uniform across lanes — broadcast-friendly;
//! * `weights[i*OUT + j]` is coalesced across lanes (j = thread), so
//!   global/texture stream it well, but *constant* memory serializes the
//!   32 distinct words per access into 31 divergence replays — the
//!   instruction-replay effect the paper credits for beating \[7\] on NN_C;
//! * the matrix fills the entire 48 KiB of shared memory, so an `S`
//!   placement pays a large staging copy *and* caps occupancy at one
//!   block per SM — the effect PORPLE's latency-only model misses on
//!   NN_S (Figure 6).

use hms_trace::{KernelTrace, SymOp, WarpTrace};
use hms_types::{ArrayDef, DType, Geometry};

use crate::common::{addr, load, load_uniform, store, tid_preamble, warp_tids};
use crate::Scale;

/// Input and output layer widths: 64 x 192 floats = 48 KiB — exactly the
/// shared-memory capacity, and well inside constant memory's 64 KiB.
pub const INPUTS: u64 = 64;
pub const OUTPUTS: u64 = 192;

pub fn build(scale: Scale) -> KernelTrace {
    let (inputs, batches) = match scale {
        Scale::Test => (16u64, 1u32),
        Scale::Full => (INPUTS, 4u32),
    };
    let outputs = if scale == Scale::Test { 64 } else { OUTPUTS };
    // One thread per output neuron; batches repeat the layer for more
    // work (mini-batch forward passes).
    let threads = 64u32;
    let blocks = (outputs as u32 / threads).max(1) * batches;
    let geometry = Geometry::new(blocks, threads);
    let arrays = vec![
        ArrayDef::new_2d(0, "weights", DType::F32, outputs, inputs, false),
        ArrayDef::new_1d(1, "d_in", DType::F32, inputs, false),
        ArrayDef::new_1d(2, "d_out", DType::F32, outputs * u64::from(batches), true),
    ];
    let neurons_per_batch = outputs / u64::from(threads).min(outputs);
    let _ = neurons_per_batch;
    let mut warps = Vec::new();
    for block in 0..blocks {
        let batch = u64::from(block) / u64::from(outputs as u32 / threads).max(1);
        let j0 =
            (u64::from(block) % u64::from((outputs as u32 / threads).max(1))) * u64::from(threads);
        for warp in 0..geometry.warps_per_block() {
            let lanes: Vec<u64> = warp_tids(0, warp, threads).collect(); // j within block
            let mut ops = vec![tid_preamble()];
            for i in 0..inputs {
                // Uniform input activation.
                ops.push(addr(1));
                ops.push(load_uniform(1, i));
                // Weights row: coalesced over output neurons.
                let widx: Vec<u64> = lanes.iter().map(|&j| i * outputs + j0 + j).collect();
                ops.push(addr(0));
                ops.push(load(0, widx));
                ops.push(SymOp::WaitLoads);
                ops.push(SymOp::FpAlu(1)); // fma
            }
            ops.push(SymOp::Sfu(1)); // sigmoid
            let out: Vec<u64> = lanes.iter().map(|&j| batch * outputs + j0 + j).collect();
            ops.push(addr(2));
            ops.push(store(2, out));
            warps.push(WarpTrace { block, warp, ops });
        }
    }
    KernelTrace {
        name: "kernelFeedForward1".into(),
        arrays,
        geometry,
        warps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hms_types::{GpuConfig, MemorySpace, PlacementMap};

    #[test]
    fn weights_fill_shared_memory_at_full_scale() {
        let kt = build(Scale::Full);
        assert_eq!(kt.arrays[0].size_bytes(), 48 * 1024);
        // Shared placement is legal but exactly at capacity.
        let pm = PlacementMap::all_global(3).with(hms_types::ArrayId(0), MemorySpace::Shared);
        assert!(pm.validate(&kt.arrays, &GpuConfig::tesla_k80()).is_ok());
    }

    #[test]
    fn all_five_weight_placements_are_legal_at_full_scale() {
        let kt = build(Scale::Full);
        let cfg = GpuConfig::tesla_k80();
        for space in MemorySpace::ALL {
            let pm = kt.default_placement().with(hms_types::ArrayId(0), space);
            assert!(
                pm.validate(&kt.arrays, &cfg).is_ok(),
                "weights({space}) rejected"
            );
        }
    }

    #[test]
    fn input_reads_broadcast_and_weight_reads_coalesce() {
        let kt = build(Scale::Test);
        for op in &kt.warps[0].ops {
            if let SymOp::Access(m) = op {
                match m.array.0 {
                    1 => {
                        let first = m.idx[0];
                        assert!(m.idx.iter().all(|i| *i == first));
                    }
                    0 => {
                        let idx: Vec<u64> = m
                            .idx
                            .iter()
                            .flatten()
                            .map(|i| {
                                let hms_trace::ElemIdx::Lin(i) = i else {
                                    panic!()
                                };
                                *i
                            })
                            .collect();
                        assert!(idx.windows(2).all(|p| p[1] == p[0] + 1));
                    }
                    _ => {}
                }
            }
        }
    }
}
