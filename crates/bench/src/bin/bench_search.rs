//! Search micro-benchmark: the incremental engine vs the naive
//! rewrite-per-candidate path on a three-array placement search, with
//! the engine's observability counters, written to
//! `target/bench/BENCH_search.json` for CI to compare against the
//! committed baseline.
//!
//! Three timed passes:
//!
//! 1. **naive** — full rewrite + analysis per candidate;
//! 2. **engine cold** — the incremental engine from scratch, writing
//!    its skeletons into a fresh persistent cache directory;
//! 3. **engine warm** — a *new* engine (as after a process restart)
//!    reading the skeletons back from disk. This is the headline
//!    `engine_candidates_per_sec`, the steady-state serving rate.
//!
//! Every pass is asserted bit-identical to the naive ranking. Warm
//! passes are sub-millisecond, so each is taken as the best of three
//! runs — one scheduler preemption would otherwise swamp the number.
//!
//! A fourth **batch** scenario ranks 512 candidates of the synthetic
//! wide8 kernel (8 arrays, wide fan-out): many candidates per skeleton
//! group is where lane-batched replay amortizes best, and the `batch_*`
//! keys let CI track that separately from the narrow spmv search.
//!
//! ```text
//! cargo run -p hms-bench --release --bin bench_search [-- test]
//! ```

use std::time::Instant;

use hms_core::{profile_sample, Predictor, SearchRequest};
use hms_kernels::Scale;
use hms_serve::Json;
use hms_types::{ArrayId, GpuConfig};

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("test") => Scale::Test,
        _ => Scale::Full,
    };
    let cfg = GpuConfig::tesla_k80();
    let kt = hms_kernels::by_name("spmv", scale).expect("spmv");
    let sample = kt.default_placement();
    let profile = profile_sample(&kt, &sample, &cfg).expect("profiles");
    let predictor = Predictor::new(cfg.clone());
    let candidates: Vec<ArrayId> = kt
        .arrays
        .iter()
        .filter(|a| !a.written)
        .map(|a| a.id)
        .take(3)
        .collect();

    // Naive baseline: full rewrite + analysis per candidate.
    let space = hms_core::enumerate_placements(&kt.arrays, &sample, &candidates, &cfg, 4096);
    let t0 = Instant::now();
    let naive = hms_core::rank_placements_naive(&predictor, &profile, &space, 0).expect("ranks");
    let naive_secs = t0.elapsed().as_secs_f64();

    let assert_matches_naive = |ranked: &[hms_core::RankedPlacement], what: &str| {
        assert_eq!(naive.len(), ranked.len());
        for (a, b) in naive.iter().zip(ranked) {
            assert_eq!(
                a.predicted_cycles.to_bits(),
                b.predicted_cycles.to_bits(),
                "{what} diverged from naive"
            );
        }
    };

    // Incremental engine, exhaustive, cold persistent cache.
    let skel_dir = std::env::temp_dir().join(format!("hms-bench-skel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&skel_dir);
    let req = SearchRequest::new(&kt.arrays, &sample)
        .candidates(&candidates)
        .skeleton_cache(&skel_dir);
    let t0 = Instant::now();
    let cold = req.run(&predictor, &profile).expect("searches");
    let cold_secs = t0.elapsed().as_secs_f64();
    assert_matches_naive(&cold.ranked, "cold engine");

    // Warm restart: a fresh engine loads the skeletons back from disk.
    // Best of three runs; stats are deterministic, so keep the last.
    let mut engine_secs = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        outcome = Some(req.run(&predictor, &profile).expect("searches"));
        engine_secs = engine_secs.min(t0.elapsed().as_secs_f64());
    }
    let outcome = outcome.expect("three warm runs");
    assert_matches_naive(&outcome.ranked, "warm engine");
    assert_eq!(
        outcome.stats.skeletons_built, 0,
        "warm pass must not rebuild any skeleton"
    );
    assert!(
        outcome.stats.skeleton_disk_hits > 0,
        "warm pass must load skeletons from disk"
    );
    let _ = std::fs::remove_dir_all(&skel_dir);

    // Batch scenario: wide8 (7 read-only arrays feeding one output),
    // 512 candidates. One skeleton group covering hundreds of
    // candidates is the lane-batched replay's best case.
    let bkt = hms_kernels::by_name("wide8", scale).expect("wide8");
    let bsample = bkt.default_placement();
    let bprofile = profile_sample(&bkt, &bsample, &cfg).expect("profiles");
    let bskel = std::env::temp_dir().join(format!("hms-bench-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&bskel);
    let breq = SearchRequest::new(&bkt.arrays, &bsample)
        .read_only_candidates()
        .limit(512)
        .skeleton_cache(&bskel);
    let bcold = breq.run(&predictor, &bprofile).expect("searches");
    let mut batch_secs = f64::INFINITY;
    let mut batch = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        batch = Some(breq.run(&predictor, &bprofile).expect("searches"));
        batch_secs = batch_secs.min(t0.elapsed().as_secs_f64());
    }
    let batch = batch.expect("three batch runs");
    let _ = std::fs::remove_dir_all(&bskel);
    assert_eq!(
        batch.stats.skeletons_built, 0,
        "warm batch pass must not rebuild any skeleton"
    );
    assert!(
        batch.stats.batched_replays > 0,
        "batch pass must take the lane-batched path"
    );
    assert_eq!(bcold.ranked.len(), batch.ranked.len());
    for (a, b) in bcold.ranked.iter().zip(&batch.ranked) {
        assert_eq!(
            a.predicted_cycles.to_bits(),
            b.predicted_cycles.to_bits(),
            "warm batch ranking diverged from cold"
        );
    }
    // The full equivalence net lives in the test suite; the bench
    // re-checks against naive only at Test scale, where a 512-candidate
    // naive pass stays cheap.
    if matches!(scale, Scale::Test) {
        let bcands: Vec<ArrayId> = bkt
            .arrays
            .iter()
            .filter(|a| !a.written)
            .map(|a| a.id)
            .collect();
        let bspace = hms_core::enumerate_placements(&bkt.arrays, &bsample, &bcands, &cfg, 512);
        let bnaive =
            hms_core::rank_placements_naive(&predictor, &bprofile, &bspace, 0).expect("ranks");
        assert_eq!(bnaive.len(), batch.ranked.len());
        for (a, b) in bnaive.iter().zip(&batch.ranked) {
            assert_eq!(
                a.predicted_cycles.to_bits(),
                b.predicted_cycles.to_bits(),
                "batch engine diverged from naive"
            );
        }
    }

    let stats = &outcome.stats;
    let engine_cps = stats.candidates_evaluated as f64 / engine_secs.max(1e-9);
    let cold_cps = cold.stats.candidates_evaluated as f64 / cold_secs.max(1e-9);
    let naive_cps = naive.len() as f64 / naive_secs.max(1e-9);
    println!("search micro-benchmark (spmv, 3 read-only candidate arrays)");
    println!("  candidates:            {}", stats.candidates_evaluated);
    println!("  naive:                 {naive_secs:.3} s  ({naive_cps:.0} cand/s)");
    println!("  engine cold:           {cold_secs:.3} s  ({cold_cps:.0} cand/s)");
    println!("  engine warm:           {engine_secs:.3} s  ({engine_cps:.0} cand/s)");
    println!("  full rewrites (cold):  {}", cold.stats.full_rewrites);
    println!("  skeleton disk hits:    {}", stats.skeleton_disk_hits);
    println!(
        "  rewrite reduction:     {:.2}x",
        cold.stats.rewrite_reduction()
    );
    let batch_cps = batch.stats.candidates_evaluated as f64 / batch_secs.max(1e-9);
    println!(
        "batch scenario (wide8, {} candidates)",
        batch.stats.candidates_evaluated
    );
    println!("  engine warm:           {batch_secs:.3} s  ({batch_cps:.0} cand/s)");
    println!("  batched replays:       {}", batch.stats.batched_replays);
    println!("  peak lane width:       {}", batch.stats.lane_width);
    println!("  events streamed:       {}", batch.stats.events_streamed);

    // Escaping-correct JSON via the serve wire codec (the workspace has
    // no external serializer by design).
    let json = Json::Obj(vec![
        ("kernel".into(), Json::str("spmv")),
        (
            "candidate_arrays".into(),
            Json::Num(candidates.len() as f64),
        ),
        (
            "candidates".into(),
            Json::Num(stats.candidates_evaluated as f64),
        ),
        ("naive_secs".into(), Json::Num(naive_secs)),
        ("engine_cold_secs".into(), Json::Num(cold_secs)),
        ("engine_secs".into(), Json::Num(engine_secs)),
        ("naive_candidates_per_sec".into(), Json::Num(naive_cps)),
        ("engine_cold_candidates_per_sec".into(), Json::Num(cold_cps)),
        ("engine_candidates_per_sec".into(), Json::Num(engine_cps)),
        (
            "full_rewrites".into(),
            Json::Num(cold.stats.full_rewrites as f64),
        ),
        (
            "delta_cache_hits".into(),
            Json::Num(stats.delta_cache_hits as f64),
        ),
        (
            "skeleton_disk_hits".into(),
            Json::Num(stats.skeleton_disk_hits as f64),
        ),
        (
            "rewrite_reduction".into(),
            Json::Num(cold.stats.rewrite_reduction()),
        ),
        ("batch_kernel".into(), Json::str("wide8")),
        (
            "batch_candidates".into(),
            Json::Num(batch.stats.candidates_evaluated as f64),
        ),
        ("batch_secs".into(), Json::Num(batch_secs)),
        ("batch_candidates_per_sec".into(), Json::Num(batch_cps)),
        (
            "batch_batched_replays".into(),
            Json::Num(batch.stats.batched_replays as f64),
        ),
        (
            "batch_peak_lane_width".into(),
            Json::Num(batch.stats.lane_width as f64),
        ),
        (
            "batch_events_streamed".into(),
            Json::Num(batch.stats.events_streamed as f64),
        ),
    ])
    .encode_pretty();
    hms_bench::write_bench_json("BENCH_search.json", &json);
}
