//! # hms-stats
//!
//! The statistics toolbox behind the paper's methodology:
//!
//! * **cosine similarity** — used in Section II-B to select the performance
//!   events most correlated with execution-time variation across data
//!   placements (threshold 0.94);
//! * **descriptive statistics** — mean, standard deviation and the
//!   coefficient of variation `c = sigma / tau` that drives the choice of a
//!   G/G/1 queue over M/M/1 (Section III-C3);
//! * **Kingman's approximation** for the mean waiting time of a G/G/1
//!   queue (Eq. 9–10);
//! * **ordinary least squares** — fits the `T_overlap` regression of
//!   Eq. 11;
//! * **distribution fitting** — exponential fit and empirical-CDF distance
//!   used to reproduce Figure 4's inter-arrival analysis;
//! * **rank statistics** — Spearman correlation and inversion counting for
//!   the PORPLE ranking comparison of Figure 6.
//!
//! Plus the workspace's hermetic-build substrates (no crates.io
//! dependencies anywhere in the graph):
//!
//! * [`rng`] — deterministic xoshiro256++ PRNG with SplitMix64 seeding,
//!   replacing `rand` for every workload generator and resampler;
//! * [`par`] — a scoped, work-stealing worker pool over
//!   `std::thread::scope`, replacing `rayon` in the experiment harness
//!   and the placement search;
//! * [`proptest_lite`] — a seeded property-test harness with
//!   shrink-by-bisection and failure-seed reporting, replacing
//!   `proptest` in the three property suites.

pub mod cosine;
pub mod descriptive;
pub mod distribution;
pub mod par;
pub mod proptest_lite;
pub mod queuing;
pub mod rank;
pub mod regression;
pub mod resample;
pub mod rng;

pub use cosine::cosine_similarity;
pub use descriptive::Summary;
pub use distribution::{exp_cdf_distance, fit_exponential_rate, Histogram};
pub use par::{max_threads, par_map};
pub use queuing::{kingman_waiting_time, GG1Inputs};
pub use rank::{rank_inversions, rank_of, spearman};
pub use regression::{LinearModel, OlsFit};
pub use resample::{bootstrap_mean_ci, percentile, Interval};
pub use rng::Rng;
