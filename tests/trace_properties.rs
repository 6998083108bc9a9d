//! Property-based tests on the trace machinery (via the in-repo
//! `hms_stats::proptest_lite` harness): the rewrite/materialize
//! equivalence, coalescing invariants, and prediction sanity, under
//! randomized kernels and placements.
//!
//! Failing cases print an `HMS_PROPTEST_SEED=<seed>` replay line; see
//! the harness docs for the replay workflow.

use gpu_hms::cache::shared_conflict_passes;
use gpu_hms::prelude::*;
use gpu_hms::sim::copy::{shared_init_prologue, shared_writeback_epilogue};
use gpu_hms::trace::{coalesce, coalesce_into, ColumnarTrace, ElemIdx, MemRef, SymOp, WarpTrace};
use hms_stats::proptest_lite::{check, check_shrink, gen_where, shrink_vec, Config};
use hms_stats::rng::Rng;
use hms_types::{ArrayDef, ArrayId};

fn cfg() -> GpuConfig {
    GpuConfig::test_small()
}

fn arb_lane_idx(rng: &mut Rng) -> Vec<Option<ElemIdx>> {
    (0..32)
        .map(|_| {
            rng.gen_bool(0.5)
                .then(|| ElemIdx::Lin(rng.gen_range(0u64..256)))
        })
        .collect()
}

fn arb_op(rng: &mut Rng) -> SymOp {
    match rng.gen_range(0u32..5) {
        0 => SymOp::IntAlu(rng.gen_range(1u32..4) as u16),
        1 => SymOp::FpAlu(rng.gen_range(1u32..4) as u16),
        2 => {
            let a = rng.gen_range(0u32..2);
            SymOp::Access(MemRef::load(ArrayId(a), arb_lane_idx(rng)))
        }
        3 => SymOp::Access(MemRef::store(ArrayId(2), arb_lane_idx(rng))),
        _ => SymOp::WaitLoads,
    }
}

/// A random small kernel with 3 arrays and randomized accesses.
fn arb_kernel(rng: &mut Rng) -> KernelTrace {
    let blocks = rng.gen_range(1u32..4);
    let warps = (0..blocks)
        .map(|b| {
            let nops = rng.gen_range(1usize..12);
            WarpTrace {
                block: b,
                warp: 0,
                ops: (0..nops).map(|_| arb_op(rng)).collect(),
            }
        })
        .collect();
    KernelTrace {
        name: "prop".into(),
        arrays: vec![
            ArrayDef::new_1d(0, "a", DType::F32, 256, false),
            ArrayDef::new_2d(1, "b", DType::F64, 16, 16, false),
            ArrayDef::new_1d(2, "out", DType::F32, 256, true),
        ],
        geometry: Geometry::new(blocks, 32),
        warps,
    }
}

fn arb_placement(rng: &mut Rng) -> Vec<MemorySpace> {
    use MemorySpace::*;
    fn pick(rng: &mut Rng, opts: &[MemorySpace]) -> MemorySpace {
        opts[rng.gen_range(0..opts.len())]
    }
    vec![
        pick(rng, &[Global, Texture1D, Constant, Shared]),
        pick(rng, &[Global, Texture1D, Texture2D, Constant, Shared]),
        pick(rng, &[Global, Shared]),
    ]
}

/// A placement that validates against `kt`'s arrays (the
/// `prop_assume!`-replacement: regenerate until legal).
fn valid_placement(rng: &mut Rng, kt: &KernelTrace, cfg: &GpuConfig) -> PlacementMap {
    gen_where(
        rng,
        256,
        |rng| PlacementMap::from_spaces(arb_placement(rng)),
        |p| p.validate(&kt.arrays, cfg).is_ok(),
    )
}

/// rewrite(materialize(k, s), t) == materialize(k, t) for random kernels
/// and placement pairs — the SASSI-flow equivalence.
#[test]
fn rewrite_equals_materialize() {
    let cfg = cfg();
    check(
        "rewrite_equals_materialize",
        &Config::with_cases(64),
        |rng| {
            let kt = arb_kernel(rng);
            let s = valid_placement(rng, &kt, &cfg);
            let t = valid_placement(rng, &kt, &cfg);
            (kt, s, t)
        },
        |(kt, s, t)| {
            let sample = materialize(kt, s, &cfg).map_err(|e| e.to_string())?;
            let direct = materialize(kt, t, &cfg).map_err(|e| e.to_string())?;
            let rewritten = rewrite(&sample, t, &cfg).map_err(|e| e.to_string())?;
            if rewritten == direct {
                Ok(())
            } else {
                Err("rewrite(materialize(k,s), t) != materialize(k,t)".into())
            }
        },
    );
}

/// Simulation completes and conserves instruction counts for random
/// kernels: executed <= issued <= issue slots.
#[test]
fn simulation_instruction_accounting() {
    let cfg = cfg();
    check(
        "simulation_instruction_accounting",
        &Config::with_cases(64),
        |rng| {
            let kt = arb_kernel(rng);
            let s = valid_placement(rng, &kt, &cfg);
            (kt, s)
        },
        |(kt, s)| {
            let ct = materialize(kt, s, &cfg).map_err(|e| e.to_string())?;
            let r = simulate_default(&ct, &cfg).map_err(|e| e.to_string())?;
            let e = &r.events;
            if e.inst_executed > e.inst_issued {
                return Err(format!(
                    "executed {} > issued {}",
                    e.inst_executed, e.inst_issued
                ));
            }
            if e.inst_issued > e.issue_slots {
                return Err(format!(
                    "issued {} > slots {}",
                    e.inst_issued, e.issue_slots
                ));
            }
            let want = e.inst_executed + e.total_replays() - e.replay_double_width;
            if e.inst_issued != want {
                return Err(format!(
                    "issued {} != executed+replays {}",
                    e.inst_issued, want
                ));
            }
            // Row-buffer outcomes partition DRAM requests.
            let parts = e.row_buffer_hits + e.row_buffer_misses + e.row_buffer_conflicts;
            if e.dram_requests != parts {
                return Err(format!("dram {} != outcome sum {}", e.dram_requests, parts));
            }
            Ok(())
        },
    );
}

/// Coalescing invariants: transaction count bounded by active lanes
/// (+1 for straddle), aligned, sorted, deduplicated.
#[test]
fn coalescing_invariants() {
    check_shrink(
        "coalescing_invariants",
        &Config::with_cases(64),
        |rng| {
            let n = rng.gen_range(1usize..32);
            let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..100_000)).collect();
            let elem = if rng.gen_bool(0.5) { 4u64 } else { 8 };
            (addrs, elem)
        },
        |(addrs, elem)| shrink_vec(addrs).into_iter().map(|a| (a, *elem)).collect(),
        |(addrs, elem)| {
            if addrs.is_empty() {
                return Ok(());
            }
            let r = coalesce(addrs.iter().copied(), *elem, 128);
            if r.transactions.is_empty() {
                return Err("no transactions".into());
            }
            if r.transactions.len() > addrs.len() * 2 {
                return Err(format!(
                    "{} transactions for {} lanes",
                    r.transactions.len(),
                    addrs.len()
                ));
            }
            if r.replays as usize != r.transactions.len() - 1 {
                return Err(format!("replays {} != transactions-1", r.replays));
            }
            for w in r.transactions.windows(2) {
                if w[0] >= w[1] {
                    return Err("transactions not strictly sorted".into());
                }
            }
            for t in &r.transactions {
                if t % 128 != 0 {
                    return Err(format!("transaction {t} misaligned"));
                }
            }
            // Every byte touched is covered by some transaction.
            for &a in addrs {
                if !r
                    .transactions
                    .iter()
                    .any(|&t| a >= t && a + elem <= t + 256)
                {
                    return Err(format!("addr {a} not covered"));
                }
            }
            Ok(())
        },
    );
}

/// The per-bank bank-conflict count the stack-sorted
/// `shared_conflict_passes` replaced, kept here as its independent
/// oracle: per bank, collect the distinct words; the passes are the
/// largest such set (at least one for any active lane).
fn shared_conflict_passes_reference(lane_addrs: &[u64], banks: u32) -> u32 {
    if lane_addrs.is_empty() {
        return 0;
    }
    let banks = u64::from(banks.max(1));
    let mut per_bank: Vec<Vec<u64>> = vec![Vec::new(); banks as usize];
    for &a in lane_addrs {
        let word = a / 4;
        let bank = (word % banks) as usize;
        if !per_bank[bank].contains(&word) {
            per_bank[bank].push(word);
        }
    }
    per_bank
        .iter()
        .map(|w| w.len() as u32)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// `shared_conflict_passes` equals the per-bank reference on random lane
/// sets, broadcasts, all-same-bank strides, empty and wider-than-stack
/// (more than 64 lanes) accesses, for 1, 16 and 32 banks.
#[test]
fn shared_conflict_passes_match_per_bank_reference() {
    check_shrink(
        "shared_conflict_passes_match_per_bank_reference",
        &Config::with_cases(256),
        |rng| {
            let banks = [0u32, 1, 16, 32][rng.gen_range(0usize..4)];
            let lanes = match rng.gen_range(0u32..4) {
                0 => 0,
                1 => rng.gen_range(65usize..200),
                _ => rng.gen_range(1usize..=64),
            };
            let addrs: Vec<u64> = match rng.gen_range(0u32..4) {
                // Broadcast: every lane reads one word.
                0 => vec![rng.gen_range(0u64..4096); lanes],
                // All lanes on one bank, distinct or repeated words.
                1 => {
                    let bank = rng.gen_range(0u64..32);
                    (0..lanes)
                        .map(|_| (rng.gen_range(0u64..8) * 32 + bank) * 4)
                        .collect()
                }
                // Narrow range: many shared words and banks.
                2 => (0..lanes).map(|_| rng.gen_range(0u64..512)).collect(),
                _ => (0..lanes).map(|_| rng.gen_range(0u64..1 << 20)).collect(),
            };
            (addrs, banks)
        },
        |(addrs, banks)| shrink_vec(addrs).into_iter().map(|a| (a, *banks)).collect(),
        |(addrs, banks)| {
            let got = shared_conflict_passes(addrs, *banks);
            let want = shared_conflict_passes_reference(addrs, *banks);
            if got != want {
                return Err(format!("{got} passes, reference {want}"));
            }
            Ok(())
        },
    );
}

/// `coalesce_into` reproduces `coalesce` exactly — transactions and
/// replays — for 1/4/8/16-byte elements, straddling, duplicate and
/// empty lane sets, into a buffer left dirty by an earlier call.
#[test]
fn coalesce_into_matches_coalesce() {
    check_shrink(
        "coalesce_into_matches_coalesce",
        &Config::with_cases(256),
        |rng| {
            let elem = [1u64, 4, 8, 16][rng.gen_range(0usize..4)];
            let tx = [32u64, 128][rng.gen_range(0usize..2)];
            let n = rng.gen_range(0usize..40);
            let addrs: Vec<u64> = match rng.gen_range(0u32..3) {
                // Near transaction boundaries: elements straddle them.
                0 => (0..n)
                    .map(|_| {
                        (rng.gen_range(1u64..64) * tx).saturating_sub(rng.gen_range(0u64..elem + 1))
                    })
                    .collect(),
                // Narrow range: duplicates.
                1 => (0..n).map(|_| rng.gen_range(0u64..64)).collect(),
                _ => (0..n).map(|_| rng.gen_range(0u64..100_000)).collect(),
            };
            (addrs, elem, tx)
        },
        |(addrs, elem, tx)| {
            shrink_vec(addrs)
                .into_iter()
                .map(|a| (a, *elem, *tx))
                .collect()
        },
        |(addrs, elem, tx)| {
            let want = coalesce(addrs.iter().copied(), *elem, *tx);
            let mut out = vec![7, 3, 1 << 40];
            let replays = coalesce_into(addrs.iter().copied(), *elem, *tx, &mut out);
            if out != want.transactions || replays != want.replays {
                return Err(format!(
                    "coalesce_into gave {out:?} / {replays}, coalesce {:?} / {}",
                    want.transactions, want.replays
                ));
            }
            Ok(())
        },
    );
}

/// A random kernel whose arrays vary in size, element type, shape and
/// written/scratch flags, with several warps per block, and a legal
/// placement putting a random subset of them in shared memory — the
/// inputs of the staging copies.
fn arb_staging_case(rng: &mut Rng, cfg: &GpuConfig) -> (KernelTrace, PlacementMap) {
    let dtypes = [DType::F32, DType::F64, DType::I32, DType::I64];
    let n_arrays = rng.gen_range(1u32..5);
    let arrays: Vec<ArrayDef> = (0..n_arrays)
        .map(|i| {
            let dtype = dtypes[rng.gen_range(0usize..dtypes.len())];
            let written = rng.gen_bool(0.5);
            let def = if rng.gen_bool(0.3) {
                let w = rng.gen_range(1u64..40);
                let h = rng.gen_range(1u64..12);
                ArrayDef::new_2d(i, "m", dtype, w, h, written)
            } else {
                ArrayDef::new_1d(i, "v", dtype, rng.gen_range(1u64..400), written)
            };
            if rng.gen_bool(0.2) {
                def.scratch()
            } else {
                def
            }
        })
        .collect();
    let blocks = rng.gen_range(1u32..4);
    let warps_per_block = rng.gen_range(1u32..5);
    let kt = KernelTrace {
        name: "staging".into(),
        arrays,
        geometry: Geometry::new(blocks, warps_per_block * 32),
        warps: (0..blocks)
            .flat_map(|b| {
                (0..warps_per_block).map(move |w| WarpTrace {
                    block: b,
                    warp: w,
                    ops: vec![SymOp::IntAlu(1)],
                })
            })
            .collect(),
    };
    let pm = gen_where(
        rng,
        256,
        |rng| {
            PlacementMap::from_spaces(
                (0..n_arrays)
                    .map(|_| {
                        if rng.gen_bool(0.6) {
                            MemorySpace::Shared
                        } else {
                            MemorySpace::Global
                        }
                    })
                    .collect(),
            )
        },
        |p| p.validate(&kt.arrays, cfg).is_ok(),
    );
    (kt, pm)
}

/// Staging copies generated straight into the columnar arenas
/// (`push_staging`) encode the very columns `push_ops` builds from the
/// simulator's `shared_init_prologue` + `shared_writeback_epilogue`, for
/// every warp; and `rewind` to a mark taken before them restores the
/// body-only columns.
#[test]
fn in_arena_staging_matches_simulator_copies() {
    let cfg = cfg();
    check(
        "in_arena_staging_matches_simulator_copies",
        &Config::with_cases(128),
        |rng| arb_staging_case(rng, &cfg),
        |(kt, pm)| {
            let ct = materialize(kt, pm, &cfg).map_err(|e| e.to_string())?;
            let mut in_arena = ColumnarTrace::from_concrete(&ct);
            let mut via_instrs = ColumnarTrace::from_concrete(&ct);
            let mark = in_arena.mark();
            for w in &ct.warps {
                let got = in_arena.push_staging(w.block, w.warp, cfg.warp_size);
                let mut copies = shared_init_prologue(&ct, w.block, w.warp, &cfg);
                copies.extend(shared_writeback_epilogue(&ct, w.block, w.warp, &cfg));
                let want = via_instrs.push_ops(&copies);
                if got != want {
                    return Err(format!(
                        "warp ({}, {}): range {got:?}, simulator copies {want:?}",
                        w.block, w.warp
                    ));
                }
            }
            if in_arena != via_instrs {
                return Err("in-arena staging columns differ from push_ops".into());
            }
            in_arena.rewind(mark);
            if in_arena != ColumnarTrace::from_concrete(&ct) {
                return Err("rewind left appended ops behind".into());
            }
            Ok(())
        },
    );
}

/// Columnar decomposition is lossless on random kernels:
/// `to_concrete` reconstructs the materialized trace exactly, and every
/// op decodes back to its source `CInstr` through the per-op view.
#[test]
fn columnar_round_trip_is_exact() {
    let cfg = cfg();
    check(
        "columnar_round_trip_is_exact",
        &Config::with_cases(64),
        |rng| {
            let kt = arb_kernel(rng);
            let s = valid_placement(rng, &kt, &cfg);
            (kt, s)
        },
        |(kt, s)| {
            let ct = materialize(kt, s, &cfg).map_err(|e| e.to_string())?;
            let col = ColumnarTrace::from_concrete(&ct);
            if col.to_concrete() != ct {
                return Err("to_concrete() != source trace".into());
            }
            for (cw, w) in col.warps().iter().zip(&ct.warps) {
                if (cw.block, cw.warp) != (w.block, w.warp) {
                    return Err("warp identity drifted".into());
                }
                if cw.ops.len as usize != w.instrs.len() {
                    return Err(format!(
                        "op count drifted: {} columnar vs {} source",
                        cw.ops.len,
                        w.instrs.len()
                    ));
                }
                for (j, instr) in w.instrs.iter().enumerate() {
                    let idx = cw.ops.start + j as u32;
                    if col.op_to_instr(idx) != *instr {
                        return Err(format!("op {idx} decoded differently"));
                    }
                }
            }
            Ok(())
        },
    );
}

/// The columnar analysis walk produces a bit-identical `TraceAnalysis`
/// to the per-op reference walk on random kernels and placements — the
/// equivalence net's oracle, fuzzed (the registry-wide pinning lives in
/// `hms-core`'s unit tests).
#[test]
fn columnar_walk_matches_reference_on_random_kernels() {
    let cfg = cfg();
    check(
        "columnar_walk_matches_reference",
        &Config::with_cases(64),
        |rng| {
            let kt = arb_kernel(rng);
            let s = valid_placement(rng, &kt, &cfg);
            (kt, s)
        },
        |(kt, s)| {
            let ct = materialize(kt, s, &cfg).map_err(|e| e.to_string())?;
            let fast = gpu_hms::core::analysis::analyze(&ct, &cfg);
            let slow = gpu_hms::core::analysis::analyze_reference(&ct, &cfg);
            if fast != slow {
                return Err("columnar walk diverged from the reference walk".into());
            }
            // `PartialEq` on the analysis already compares the floats;
            // pin the derived f64s to the exact bit patterns too.
            if fast.mlp.to_bits() != slow.mlp.to_bits()
                || fast.warps_per_sm.to_bits() != slow.warps_per_sm.to_bits()
            {
                return Err("float fields differ in bit pattern".into());
            }
            Ok(())
        },
    );
}

/// `dump`/`load` round-trips random materialized traces exactly and
/// agrees with the columnar layout: serializing the columnar
/// reconstruction yields byte-identical text.
#[test]
fn serialize_round_trips_against_columnar_layout() {
    let cfg = cfg();
    check(
        "serialize_round_trips_against_columnar_layout",
        &Config::with_cases(48),
        |rng| {
            let kt = arb_kernel(rng);
            let s = valid_placement(rng, &kt, &cfg);
            (kt, s)
        },
        |(kt, s)| {
            let ct = materialize(kt, s, &cfg).map_err(|e| e.to_string())?;
            let text = gpu_hms::trace::dump(&ct);
            let back = gpu_hms::trace::load(&text, &cfg).map_err(|e| e.to_string())?;
            if back != ct {
                return Err("load(dump(t)) != t".into());
            }
            let via_columnar = ColumnarTrace::from_concrete(&ct).to_concrete();
            if gpu_hms::trace::dump(&via_columnar) != text {
                return Err("columnar reconstruction serializes differently".into());
            }
            Ok(())
        },
    );
}

/// The trace loader never panics on adversarial input: both raw
/// byte-soup documents from the `hms-faults` corpus and valid dumps
/// with hostile bytes spliced in must yield a parse or a typed error.
#[test]
fn trace_loader_survives_adversarial_byte_soup() {
    let cfg = cfg();
    let corpus = gpu_hms::faults::adversarial_json(0x5eed_7ace, 256);
    for doc in &corpus {
        let text = String::from_utf8_lossy(doc);
        if let Err(e) = gpu_hms::trace::load(&text, &cfg) {
            let _ = e.to_string(); // typed error, formats fine
        }
    }
    // Splice corpus bytes into an otherwise-valid dump: exercises the
    // parser states past the prologue.
    let mut rng = Rng::seed_from_u64(0x5eed_7ace);
    let kt = arb_kernel(&mut rng);
    let s = valid_placement(&mut rng, &kt, &cfg);
    let ct = materialize(&kt, &s, &cfg).expect("materializes");
    let good = gpu_hms::trace::dump(&ct);
    for doc in corpus.iter().take(128) {
        let cut = rng.gen_range(0u64..good.len() as u64 + 1) as usize;
        let mut hostile = good.as_bytes()[..cut].to_vec();
        hostile.extend_from_slice(doc);
        hostile.extend_from_slice(&good.as_bytes()[cut..]);
        let text = String::from_utf8_lossy(&hostile);
        if let Err(e) = gpu_hms::trace::load(&text, &cfg) {
            let _ = e.to_string();
        }
    }
}

/// Predictions are finite and positive for any legal target.
#[test]
fn predictions_are_finite() {
    let cfg = cfg();
    check(
        "predictions_are_finite",
        &Config::with_cases(64),
        |rng| {
            let kt = arb_kernel(rng);
            let s = valid_placement(rng, &kt, &cfg);
            let t = valid_placement(rng, &kt, &cfg);
            (kt, s, t)
        },
        |(kt, s, t)| {
            let profile = profile_sample(kt, s, &cfg).map_err(|e| e.to_string())?;
            let pred = Predictor::new(cfg.clone())
                .predict(&profile, t)
                .map_err(|e| e.to_string())?;
            if !pred.cycles.is_finite() {
                return Err(format!("non-finite cycles {}", pred.cycles));
            }
            if pred.cycles < 1.0 {
                return Err(format!("cycles {} < 1", pred.cycles));
            }
            if pred.t_comp < 0.0 || pred.t_mem < 0.0 {
                return Err(format!(
                    "negative component: {} / {}",
                    pred.t_comp, pred.t_mem
                ));
            }
            Ok(())
        },
    );
}
