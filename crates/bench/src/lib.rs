//! # hms-bench
//!
//! The experiment harness: everything needed to regenerate every table
//! and figure of the paper's evaluation (see DESIGN.md's experiment
//! index), plus the `bench_search`, `bench_anytime` and `bench_serve`
//! regression gates. Per-layer timings come from the `perfbench`
//! package's traced run (`--trace 1`).
//!
//! * [`suite`] — the benchmark/placement suites of Table IV: each
//!   kernel's *sample* placement and its placement tests, split into the
//!   evaluation set and the `T_overlap` training set;
//! * [`runner`] — profile / measure / predict plumbing with
//!   `hms_stats::par` parallelism across placements;
//! * [`table`] — plain-text table rendering for the experiment binaries.
//!
//! Binaries (all under `--release`):
//!
//! | binary          | artifact                                     |
//! |-----------------|----------------------------------------------|
//! | `table1`        | Table I (cosine similarity of events)        |
//! | `alg1`          | Algorithm 1 (mapping detection + latencies)  |
//! | `fig4`          | Figure 4 (inter-arrival distributions, c_a)  |
//! | `fig5`          | Figure 5 (ours vs [7] prediction accuracy)   |
//! | `fig6`          | Figure 6 (ranking vs PORPLE)                 |
//! | `fig7`          | Figure 7 (instruction-counting ablation)     |
//! | `fig8`          | Figure 8 (queuing + address-mapping ablation)|
//! | `fig9`          | Figure 9 (queuing-alone ablation)            |
//! | `train_overlap` | Section V training setup diagnostics         |

pub mod hist;
pub mod mining;
pub mod runner;
pub mod suite;
pub mod table;

pub use hist::Histogram;
pub use mining::{mine_events, mine_events_paper, MinedEvent, PlacementStudy};
pub use runner::{measure, run_suite, trained_predictor, ExperimentResult, Harness};
pub use suite::{evaluation_suite, training_suite, PlacementTest};
pub use table::Table;

/// Write one `bench_*` result to `target/bench/<name>`, relative to the
/// working directory (the repository root under `scripts/ci.sh`), and
/// print the path. The committed `BENCH_*.json` files at the root are
/// the baselines CI compares against, so a run never overwrites them.
pub fn write_bench_json(name: &str, json: &str) {
    let dir = std::path::Path::new("target/bench");
    std::fs::create_dir_all(dir).expect("creates the bench output directory");
    let path = dir.join(name);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writes {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
