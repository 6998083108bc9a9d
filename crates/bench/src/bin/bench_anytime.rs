//! Anytime-search benchmark: quality-vs-time curves for the beam,
//! successive-halving, and seeded local-search strategies on a wide
//! multi-array kernel, oracle-checked against the exhaustive optimum on
//! a down-sampled candidate set, written to
//! `target/bench/BENCH_anytime.json`.
//!
//! Two modes:
//!
//! * **full** (default) — everything: the oracle sandwich check, the
//!   deterministic gate gap, the 2-second-deadline contrast (every
//!   anytime strategy completes, exhaustive is cut short partial), and
//!   per-strategy quality-vs-time curves over wall-clock budgets.
//! * **gate** — the deterministic subset CI regresses on: the oracle
//!   check plus `gate_gap_upper_bound`, the beam strategy's reported
//!   gap at a pinned width with no deadline. The value is a pure
//!   function of the model, so a changed number is a changed engine,
//!   not a noisy machine.
//!
//! ```text
//! cargo run -p hms-bench --release --bin bench_anytime [-- gate]
//! ```

use std::time::{Duration, Instant};

use hms_core::{profile_sample, Predictor, SearchOutcome, SearchRequest, SearchStrategy};
use hms_kernels::Scale;
use hms_serve::Json;
use hms_types::{ArrayId, GpuConfig};

/// The kernel under test, run at full scale: per-candidate evaluation
/// is expensive enough there that exhaustive ranking of the read-only
/// space blows any interactive deadline while enumeration stays cheap —
/// exactly the regime the anytime strategies exist for.
const KERNEL: &str = "wide8";
/// Down-sampled candidate count for the exhaustive oracle.
const ORACLE_K: usize = 4;
/// Pinned beam width for the deterministic gate metric.
const GATE_BEAM_WIDTH: usize = 8;
/// Enumeration cap for the full-set runs. Deliberately below wide8's
/// whole legal space (~32k): exhaustively ranking 16k candidates at
/// full scale takes well over the deadline on one core, while the
/// anytime strategies finish comfortably inside it — and capping keeps
/// the enumeration phase itself cheap for every contender. Truncation
/// soundly widens the halving floor to the all-free bound.
const SPACE_LIMIT: usize = 16_000;
/// The deadline the acceptance criterion pins: anytime strategies must
/// complete inside it, exhaustive must not.
const DEADLINE: Duration = Duration::from_secs(2);

fn strategies() -> [(&'static str, SearchStrategy); 3] {
    [
        (
            "beam",
            SearchStrategy::Beam {
                width: GATE_BEAM_WIDTH,
            },
        ),
        ("successive_halving", SearchStrategy::SuccessiveHalving),
        (
            "local_search",
            SearchStrategy::LocalSearch {
                seed: SearchStrategy::DEFAULT_SEED,
            },
        ),
    ]
}

fn best_cycles(o: &SearchOutcome) -> f64 {
    o.ranked
        .first()
        .expect("non-empty ranking")
        .predicted_cycles
}

fn main() {
    let gate_only = std::env::args().nth(1).as_deref() == Some("gate");
    let cfg = GpuConfig::tesla_k80();
    let kt = hms_kernels::by_name(KERNEL, Scale::Full).expect(KERNEL);
    let sample = kt.default_placement();
    let profile = profile_sample(&kt, &sample, &cfg).expect("profiles");
    let predictor = Predictor::new(cfg.clone());
    let read_only: Vec<ArrayId> = kt
        .arrays
        .iter()
        .filter(|a| !a.written)
        .map(|a| a.id)
        .collect();

    // --- Oracle: exhaustive optimum on a down-sampled candidate set,
    // then every strategy must respect its own reported gap there.
    let oracle_ids: Vec<ArrayId> = read_only.iter().copied().take(ORACLE_K).collect();
    let oracle = SearchRequest::new(&kt.arrays, &sample)
        .candidates(&oracle_ids)
        .limit(SPACE_LIMIT)
        .run(&predictor, &profile)
        .expect("oracle search");
    assert!(!oracle.partial, "oracle must be complete");
    let optimum = best_cycles(&oracle);
    println!(
        "oracle ({KERNEL}, {ORACLE_K} candidate arrays): optimum {optimum:.0} cycles over {} placements",
        oracle.ranked.len()
    );
    let mut oracle_rows = Vec::new();
    for (name, strategy) in strategies() {
        let out = SearchRequest::new(&kt.arrays, &sample)
            .candidates(&oracle_ids)
            .limit(SPACE_LIMIT)
            .strategy(strategy)
            .run(&predictor, &profile)
            .expect("strategy search");
        let best = best_cycles(&out);
        let gap = out.stats.gap_upper_bound;
        assert!(
            best >= optimum - 1e-6,
            "{name}: best {best} beats the exhaustive optimum {optimum}"
        );
        assert!(
            best <= optimum * (1.0 + gap) + 1e-6,
            "{name}: best {best} outside optimum {optimum} x (1 + {gap})"
        );
        println!(
            "  {name:<20} best {best:>8.0}  gap bound {:>8.2}%  (optimum within bound)",
            gap * 100.0
        );
        oracle_rows.push(Json::Obj(vec![
            ("strategy".into(), Json::str(name)),
            ("best_cycles".into(), Json::Num(best)),
            ("gap_upper_bound".into(), Json::Num(gap)),
            (
                "optimum_within_bound".into(),
                Json::Bool(best <= optimum * (1.0 + gap) + 1e-6),
            ),
        ]));
    }

    // --- Gate metric: beam's reported gap on the full read-only set at
    // the pinned width, no deadline — deterministic on every machine.
    let full_req = || {
        SearchRequest::new(&kt.arrays, &sample)
            .candidates(&read_only)
            .limit(SPACE_LIMIT)
    };
    let gate = full_req()
        .strategy(SearchStrategy::Beam {
            width: GATE_BEAM_WIDTH,
        })
        .run(&predictor, &profile)
        .expect("gate search");
    assert!(!gate.partial);
    let gate_gap = gate.stats.gap_upper_bound;
    println!(
        "gate: beam width {GATE_BEAM_WIDTH} over {} read-only arrays -> best {:.0}, gap bound {:.2}%",
        read_only.len(),
        best_cycles(&gate),
        gate_gap * 100.0
    );

    let mut members = vec![
        ("kernel".into(), Json::str(KERNEL)),
        ("scale".into(), Json::str("full")),
        ("candidate_arrays".into(), Json::Num(read_only.len() as f64)),
        ("oracle_candidate_arrays".into(), Json::Num(ORACLE_K as f64)),
        ("oracle_optimum_cycles".into(), Json::Num(optimum)),
        ("oracle".into(), Json::Arr(oracle_rows)),
        ("gate_strategy".into(), Json::str("beam")),
        ("gate_beam_width".into(), Json::Num(GATE_BEAM_WIDTH as f64)),
        ("gate_gap_upper_bound".into(), Json::Num(gate_gap)),
    ];

    if !gate_only {
        // --- The acceptance contrast: at a 2 s deadline, exhaustive
        // over the full space is cut short (partial), while every
        // anytime strategy completes with a sound gap.
        let t0 = Instant::now();
        let exhaustive = full_req()
            .deadline(Some(Instant::now() + DEADLINE))
            .run(&predictor, &profile)
            .expect("deadlined exhaustive");
        let exhaustive_secs = t0.elapsed().as_secs_f64();
        assert!(
            exhaustive.partial,
            "exhaustive finished the whole {KERNEL} space inside {DEADLINE:?} — \
             widen the kernel or the space limit"
        );
        println!(
            "exhaustive at {DEADLINE:?}: PARTIAL after {exhaustive_secs:.2} s \
             ({} evaluated, best-so-far {:.0})",
            exhaustive.stats.candidates_evaluated,
            best_cycles(&exhaustive),
        );
        let mut contrast = vec![Json::Obj(vec![
            ("strategy".into(), Json::str("exhaustive")),
            ("partial".into(), Json::Bool(true)),
            ("elapsed_secs".into(), Json::Num(exhaustive_secs)),
            ("best_cycles".into(), Json::Num(best_cycles(&exhaustive))),
            (
                "gap_upper_bound".into(),
                Json::Num(exhaustive.stats.gap_upper_bound),
            ),
        ])];
        for (name, strategy) in strategies() {
            let t0 = Instant::now();
            let out = full_req()
                .strategy(strategy)
                .deadline(Some(Instant::now() + DEADLINE))
                .run(&predictor, &profile)
                .expect("deadlined strategy");
            let secs = t0.elapsed().as_secs_f64();
            assert!(!out.partial, "{name} did not complete inside {DEADLINE:?}");
            println!(
                "  {name:<20} complete in {secs:.2} s: best {:.0}, gap bound {:.2}%",
                best_cycles(&out),
                out.stats.gap_upper_bound * 100.0
            );
            contrast.push(Json::Obj(vec![
                ("strategy".into(), Json::str(name)),
                ("partial".into(), Json::Bool(false)),
                ("elapsed_secs".into(), Json::Num(secs)),
                ("best_cycles".into(), Json::Num(best_cycles(&out))),
                (
                    "gap_upper_bound".into(),
                    Json::Num(out.stats.gap_upper_bound),
                ),
            ]));
        }
        members.push(("deadline_contrast".into(), Json::Arr(contrast)));

        // --- Quality vs time: every strategy at increasing wall-clock
        // budgets. A strategy that finishes early holds its result; the
        // interesting column is the gap shrinking as the budget grows.
        let mut curves = Vec::new();
        for budget_ms in [100u64, 500, 2000] {
            for (name, strategy) in strategies() {
                let t0 = Instant::now();
                let out = full_req()
                    .strategy(strategy)
                    .deadline(Some(Instant::now() + Duration::from_millis(budget_ms)))
                    .run(&predictor, &profile)
                    .expect("budgeted strategy");
                let secs = t0.elapsed().as_secs_f64();
                curves.push(Json::Obj(vec![
                    ("strategy".into(), Json::str(name)),
                    ("budget_ms".into(), Json::Num(budget_ms as f64)),
                    ("elapsed_secs".into(), Json::Num(secs)),
                    ("partial".into(), Json::Bool(out.partial)),
                    ("best_cycles".into(), Json::Num(best_cycles(&out))),
                    (
                        "gap_upper_bound".into(),
                        Json::Num(out.stats.gap_upper_bound),
                    ),
                    (
                        "candidates_visited".into(),
                        Json::Num(out.stats.candidates_visited as f64),
                    ),
                ]));
            }
        }
        members.push(("quality_vs_time".into(), Json::Arr(curves)));
    }

    let json = Json::Obj(members).encode_pretty();
    hms_bench::write_bench_json("BENCH_anytime.json", &json);
}
