//! Anytime search strategies with reported optimality gaps.
//!
//! The paper's search is exhaustive over `5^k` placements; real kernels
//! have 6–10 arrays, where `5^10 ≈ 10M` candidates makes exhaustive
//! ranking impossible under any interactive deadline. The strategies in
//! this module trade coverage for time *explicitly*: each one returns
//! the usual [`SearchOutcome`](crate::search::SearchOutcome) plus a
//! **sound gap upper bound** in
//! [`EngineStats::gap_upper_bound`](crate::engine::EngineStats), so a
//! caller always knows how far from optimal the answer can be.
//!
//! # Gap semantics
//!
//! Every strategy derives a *floor* `F` — a proven lower bound on the
//! predicted cycles of the true optimum over the request's whole legal
//! space — and reports
//!
//! ```text
//! gap_upper_bound = max(best_found / F − 1, 0)
//! ```
//!
//! which guarantees `optimum ≤ best_found ≤ optimum × (1 + gap)`. The
//! floors come from the engine's monotone lower bound
//! (`Engine::lower_bound`), which never exceeds the model's
//! prediction for any completion of a partial assignment:
//!
//! * [`beam`] — the minimum bound over every prefix it *dropped* (and
//!   every leaf it could not evaluate before the deadline). If nothing
//!   was dropped the search was exhaustive and the gap is 0.
//! * [`halving`] — the minimum bound over every enumerated candidate it
//!   *retired unevaluated*, widened to the all-free floor only when
//!   enumeration itself was truncated by the request limit.
//! * [`local`] — the all-free floor (a stochastic search proves nothing
//!   about the space it never visited).
//!
//! Exhaustive search reports gap 0 when it completes; when a deadline
//! cuts it short, it falls back to the same floor construction so a
//! partial result still carries a sound bound.
//!
//! # Determinism contract
//!
//! Every strategy — exhaustive included — evaluates through one
//! driver, `Sweep`, and the driver alone owns the schedule. A request
//! with no deadline and no cancel flag hands each list to the engine in
//! one batch. An interruptible request evaluates each list in fixed
//! `CHUNK` chunks and polls the deadline and cancel flag **only between
//! chunks, never before the search's first result**. Results are
//! sorted stably and the gap is reported from the floor the strategy
//! lowered. So every returned prediction is bit-identical to what a
//! deadline-free run would have produced, at any worker count; a
//! deadline changes how far the search got, never the bits of what it
//! returns. [`local`] goes further: the
//! RNG stream is a pure function of the seed and consumes draws in an
//! order independent of scheduling, so the entire outcome is
//! bit-identical across `--threads 1/2/8`.

pub mod beam;
pub mod halving;
pub mod local;

use std::sync::atomic::Ordering;
use std::time::Instant;

use hms_types::{ArrayId, HmsError, MemorySpace, PlacementMap};

use crate::engine::Engine;
use crate::search::{RankedPlacement, SearchRequest};

/// Placements per evaluation chunk of an interruptible search. Constant
/// (never derived from the worker or core count), so the points where
/// a deadline can cut a search — and therefore the exact set of
/// placements a cut search evaluated — are machine- and thread-count
/// independent.
const CHUNK: usize = 64;

/// The one evaluation driver of a search: it owns the evaluation
/// schedule, the deadline and cancel checks, the accumulated results,
/// and the floor behind the reported gap. A strategy only decides what
/// to evaluate next and which floor covers what it skipped.
pub(crate) struct Sweep<'s, 'e> {
    pub(crate) engine: &'s Engine<'e>,
    pub(crate) req: &'s SearchRequest<'s>,
    ranked: Vec<RankedPlacement>,
    partial: bool,
    floor: f64,
}

impl<'s, 'e> Sweep<'s, 'e> {
    pub(crate) fn new(engine: &'s Engine<'e>, req: &'s SearchRequest<'s>) -> Self {
        Sweep {
            engine,
            req,
            ranked: Vec::new(),
            partial: false,
            floor: f64::INFINITY,
        }
    }

    /// Evaluate `list` in order and return the newly evaluated prefix.
    /// An uninterruptible request evaluates the whole list in one engine
    /// batch; an interruptible one evaluates `CHUNK`-sized chunks,
    /// checking for a cut between chunks once the search holds a result.
    /// A cut returns a short prefix, and later calls evaluate nothing
    /// more.
    pub(crate) fn evaluate(
        &mut self,
        list: &[PlacementMap],
    ) -> Result<&[RankedPlacement], HmsError> {
        let start = self.ranked.len();
        let interruptible = self.req.deadline.is_some() || self.req.cancel.is_some();
        let chunk_len = if interruptible {
            CHUNK
        } else {
            list.len().max(1)
        };
        for chunk in list.chunks(chunk_len) {
            if !self.ranked.is_empty() && self.interrupted() {
                break;
            }
            let batch = self.engine.evaluate_batch(chunk, self.req.threads)?;
            self.ranked.extend(batch);
        }
        Ok(&self.ranked[start..])
    }

    /// Has the deadline passed or the cancel flag been raised? A `true`
    /// answer is latched: the outcome is partial from then on. Asked
    /// only once the search holds a result, so a partial outcome always
    /// carries a real best-so-far prediction.
    fn interrupted(&mut self) -> bool {
        self.partial = self.partial
            || self
                .req
                .cancel
                .as_ref()
                .is_some_and(|c| c.load(Ordering::Relaxed))
            || self.req.deadline.is_some_and(|d| Instant::now() >= d);
        self.partial
    }

    /// Whether a deadline or cancel flag cut the search short.
    pub(crate) fn partial(&self) -> bool {
        self.partial
    }

    /// Cover candidates the search will never evaluate with `floor`, a
    /// sound lower bound on their predicted cycles.
    pub(crate) fn lower_floor(&mut self, floor: f64) {
        self.floor = self.floor.min(floor);
    }

    /// The ranking (ascending predicted cycles, stable on ties), the
    /// partial flag, and the gap of the best result over the floor. With
    /// nothing skipped the floor is the best result itself: gap 0.
    pub(crate) fn finish(self) -> (Vec<RankedPlacement>, bool, f64) {
        let mut ranked = self.ranked;
        ranked.sort_by(|a, b| a.predicted_cycles.total_cmp(&b.predicted_cycles));
        let best = ranked.first().map(|r| r.predicted_cycles);
        let floor = self.floor.min(best.unwrap_or(f64::INFINITY));
        (ranked, self.partial, gap_from_floor(best, floor))
    }
}

/// The gap implied by a best-found cost and a sound floor on the
/// optimum. `None` (no legal candidate evaluated) reports 0 — there is
/// nothing to bound.
fn gap_from_floor(best: Option<f64>, floor: f64) -> f64 {
    match best {
        Some(b) if floor > 0.0 && floor.is_finite() => (b / floor - 1.0).max(0.0),
        _ => 0.0,
    }
}

/// The partial-assignment template for a request: candidate arrays
/// free (`None`), everything else pinned to its base space.
pub(crate) fn template(req: &SearchRequest<'_>) -> Vec<Option<MemorySpace>> {
    (0..req.arrays.len())
        .map(|i| {
            let id = ArrayId(i as u32);
            if req.candidates.contains(&id) {
                None
            } else {
                Some(req.base.space(id))
            }
        })
        .collect()
}

/// The weakest sound floor: the bound with every candidate array free.
/// Valid for the whole legal space by the bound's monotonicity.
pub(crate) fn all_free_floor(engine: &Engine<'_>, req: &SearchRequest<'_>) -> f64 {
    engine.lower_bound(&template(req))
}

/// The complete-assignment vector of a fully placed candidate.
pub(crate) fn full_assignment(pm: &PlacementMap, n: usize) -> Vec<Option<MemorySpace>> {
    (0..n).map(|i| Some(pm.space(ArrayId(i as u32)))).collect()
}

/// Floor over a set of *unevaluated* complete candidates: the minimum
/// of their individual bounds, widened to the all-free floor when the
/// enumeration that produced them was `truncated` (candidates beyond
/// the request limit were never materialized, so only the free bound
/// covers them).
pub(crate) fn space_floor<'p>(
    engine: &Engine<'_>,
    req: &SearchRequest<'_>,
    unevaluated: impl Iterator<Item = &'p PlacementMap>,
    truncated: bool,
) -> f64 {
    let n = req.arrays.len();
    let mut floor = f64::INFINITY;
    for pm in unevaluated {
        floor = floor.min(engine.lower_bound(&full_assignment(pm, n)));
    }
    if truncated {
        floor = floor.min(all_free_floor(engine, req));
    }
    floor
}

#[cfg(test)]
mod tests {
    use hms_types::GpuConfig;

    use crate::predictor::Predictor;
    use crate::profile::profile_sample;
    use crate::search::{SearchRequest, SearchStrategy};

    fn setup() -> (Predictor, crate::profile::Profile, Vec<hms_types::ArrayDef>) {
        let cfg = GpuConfig::test_small();
        let kt = hms_kernels::by_name("vecadd", hms_kernels::Scale::Test).unwrap();
        let profile = profile_sample(&kt, &kt.default_placement(), &cfg).unwrap();
        (Predictor::new(cfg), profile, kt.arrays)
    }

    fn all_strategies() -> [SearchStrategy; 3] {
        [
            SearchStrategy::Beam { width: 4 },
            SearchStrategy::SuccessiveHalving,
            SearchStrategy::LocalSearch { seed: 7 },
        ]
    }

    #[test]
    fn every_strategy_respects_the_sandwich_bound() {
        let (predictor, profile, arrays) = setup();
        let base = profile.trace.placement.clone();
        let exact = SearchRequest::new(&arrays, &base)
            .run(&predictor, &profile)
            .unwrap();
        let optimum = exact.best().unwrap().predicted_cycles;
        for strategy in all_strategies() {
            let out = SearchRequest::new(&arrays, &base)
                .strategy(strategy)
                .run(&predictor, &profile)
                .unwrap();
            let best = out.best().expect("non-empty").predicted_cycles;
            let gap = out.stats.gap_upper_bound;
            assert!(gap >= 0.0 && gap.is_finite(), "{strategy:?}: gap {gap}");
            assert!(
                best >= optimum,
                "{strategy:?}: best {best} beats the exhaustive optimum {optimum}"
            );
            assert!(
                best <= optimum * (1.0 + gap) + 1e-6,
                "{strategy:?}: best {best} outside optimum {optimum} x (1 + {gap})"
            );
            assert_eq!(out.stats.strategy, strategy.name());
            assert!(out.stats.anytime());
            assert!(out.stats.candidates_visited > 0);
        }
    }

    #[test]
    fn wide_beam_is_exhaustive_with_zero_gap() {
        let (predictor, profile, arrays) = setup();
        let base = profile.trace.placement.clone();
        let exact = SearchRequest::new(&arrays, &base)
            .run(&predictor, &profile)
            .unwrap();
        // A beam wider than the whole space never drops a prefix: the
        // best must be the true optimum and the gap exactly 0.
        let out = SearchRequest::new(&arrays, &base)
            .strategy(SearchStrategy::Beam { width: 4096 })
            .run(&predictor, &profile)
            .unwrap();
        assert_eq!(out.stats.gap_upper_bound, 0.0);
        assert_eq!(
            out.best().unwrap().predicted_cycles.to_bits(),
            exact.best().unwrap().predicted_cycles.to_bits()
        );
    }

    #[test]
    fn local_search_is_bit_identical_across_worker_counts() {
        let (predictor, profile, arrays) = setup();
        let base = profile.trace.placement.clone();
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                SearchRequest::new(&arrays, &base)
                    .strategy(SearchStrategy::LocalSearch { seed: 99 })
                    .threads(threads)
                    .run(&predictor, &profile)
                    .unwrap()
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].ranked.len(), other.ranked.len());
            for (a, b) in runs[0].ranked.iter().zip(&other.ranked) {
                assert_eq!(a.placement, b.placement);
                assert_eq!(a.predicted_cycles.to_bits(), b.predicted_cycles.to_bits());
            }
            assert_eq!(
                runs[0].stats.gap_upper_bound.to_bits(),
                other.stats.gap_upper_bound.to_bits()
            );
        }
        // And a different seed is a different (but still valid) run.
        let reseeded = SearchRequest::new(&arrays, &base)
            .strategy(SearchStrategy::LocalSearch { seed: 100 })
            .run(&predictor, &profile)
            .unwrap();
        assert!(!reseeded.ranked.is_empty());
    }

    #[test]
    fn expired_deadline_cuts_every_strategy_without_panicking() {
        // Regression: a deadline landing mid-rung used to slice past the
        // evaluated prefix in successive halving.
        let cfg = GpuConfig::test_small();
        let kt = hms_kernels::by_name("wide4", hms_kernels::Scale::Test).unwrap();
        let profile = profile_sample(&kt, &kt.default_placement(), &cfg).unwrap();
        let predictor = Predictor::new(cfg);
        let base = profile.trace.placement.clone();
        for strategy in all_strategies() {
            let out = SearchRequest::new(&kt.arrays, &base)
                .strategy(strategy)
                .deadline(Some(std::time::Instant::now()))
                .run(&predictor, &profile)
                .unwrap();
            // At least one batch is always evaluated, and the gap stays
            // a sound finite bound even on the truncated run.
            assert!(!out.ranked.is_empty(), "{strategy:?}: empty ranking");
            assert!(
                out.stats.gap_upper_bound >= 0.0 && out.stats.gap_upper_bound.is_finite(),
                "{strategy:?}: bad gap {}",
                out.stats.gap_upper_bound
            );
        }
    }

    #[test]
    fn a_cut_sweep_evaluates_no_later_list() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        use crate::engine::Engine;
        use crate::search::enumerate_placements;

        // Once a cut is seen, lists handed over later are dropped, not
        // evaluated.
        let (predictor, profile, arrays) = setup();
        let base = profile.trace.placement.clone();
        let flag = Arc::new(AtomicBool::new(false));
        let req = SearchRequest::new(&arrays, &base)
            .read_only_candidates()
            .cancel_flag(Arc::clone(&flag));
        let space =
            enumerate_placements(&arrays, &base, &req.candidates, &predictor.cfg, req.limit);
        let (first, second) = space.split_at(space.len() / 2);
        assert!(!first.is_empty() && !second.is_empty());
        let engine = Engine::new(&predictor, &profile);
        let mut sweep = super::Sweep::new(&engine, &req);
        assert_eq!(sweep.evaluate(first).unwrap().len(), first.len());
        assert!(!sweep.partial());
        flag.store(true, Ordering::Relaxed);
        assert!(sweep.evaluate(second).unwrap().is_empty());
        assert!(sweep.partial());
        let (ranked, partial, _) = sweep.finish();
        assert!(partial);
        assert_eq!(ranked.len(), first.len());
    }

    #[test]
    fn strategy_parse_accepts_both_spellings_and_rejects_bad_knobs() {
        assert_eq!(
            SearchStrategy::parse("beam", Some(3), None).unwrap(),
            SearchStrategy::Beam { width: 3 }
        );
        assert_eq!(
            SearchStrategy::parse("beam", None, None).unwrap(),
            SearchStrategy::Beam {
                width: SearchStrategy::DEFAULT_BEAM_WIDTH
            }
        );
        assert_eq!(
            SearchStrategy::parse("halving", None, None).unwrap(),
            SearchStrategy::SuccessiveHalving
        );
        assert_eq!(
            SearchStrategy::parse("successive_halving", None, None).unwrap(),
            SearchStrategy::SuccessiveHalving
        );
        assert_eq!(
            SearchStrategy::parse("local", None, Some(5)).unwrap(),
            SearchStrategy::LocalSearch { seed: 5 }
        );
        // The branch-and-bound spellings name exhaustive search.
        for name in ["bnb", "branch_and_bound"] {
            assert_eq!(
                SearchStrategy::parse(name, None, None).unwrap(),
                SearchStrategy::Exhaustive
            );
            assert!(SearchStrategy::parse(name, Some(4), None).is_err());
        }
        assert!(SearchStrategy::parse("warp_drive", None, None).is_err());
        assert!(SearchStrategy::parse("beam", Some(0), None).is_err());
        assert!(SearchStrategy::parse("local", Some(4), None).is_err());
        assert!(SearchStrategy::parse("beam", None, Some(1)).is_err());
        assert!(SearchStrategy::parse("exhaustive", Some(4), None).is_err());
    }
}
