//! Placement-space enumeration and model-driven ranking.
//!
//! "In theory, to decide data placement of n data objects on m
//! programmable memory components there are m^n possible data
//! placements, subject to the limitation of memory capacities and
//! read/write properties." The models make exhausting that space cheap:
//! one profiled sample run, then one analytical evaluation per
//! candidate — and the incremental [`Engine`] makes each evaluation a
//! delta composition instead of a full trace rewrite.
//!
//! The entry point is [`SearchRequest`]: name the search space, pick a
//! [`SearchStrategy`], and [`SearchRequest::run`] returns a
//! [`SearchOutcome`] with the ranking plus the engine's observability
//! counters.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use hms_types::{ArrayDef, ArrayId, GpuConfig, HmsError, MemorySpace, PlacementMap};

use crate::engine::{Engine, EngineStats};
use crate::predictor::Predictor;
use crate::profile::Profile;
use crate::strategies::{space_floor, Sweep};

/// Enumerate every *legal* placement of `candidates` (other arrays stay
/// as in `base`), bounded by `limit` to keep pathological spaces in
/// check.
pub fn enumerate_placements(
    arrays: &[ArrayDef],
    base: &PlacementMap,
    candidates: &[ArrayId],
    cfg: &GpuConfig,
    limit: usize,
) -> Vec<PlacementMap> {
    let mut out = Vec::new();
    let spaces = MemorySpace::ALL;
    let mut stack: Vec<PlacementMap> = vec![base.clone()];
    for &array in candidates {
        let mut next = Vec::new();
        for pm in &stack {
            for space in spaces {
                let cand = pm.with(array, space);
                // Quick per-array legality; full validation below.
                if cand.validate(arrays, cfg).is_ok() {
                    next.push(cand);
                    if next.len() >= limit {
                        break;
                    }
                }
            }
            if next.len() >= limit {
                break;
            }
        }
        stack = next;
    }
    out.extend(stack);
    out.truncate(limit);
    // Deterministic order by the placements' short-name tuples. The
    // comparator walks the iterators directly — `sort_by_key` would
    // materialize a `Vec<String>` key on *every comparison*, which
    // dominated enumeration cost; elementwise `&str` comparison orders
    // identically to the old `Vec<String>` lexicographic key.
    out.sort_by(|a, b| {
        a.iter()
            .map(|(_, s)| s.short())
            .cmp(b.iter().map(|(_, s)| s.short()))
    });
    out.dedup();
    out
}

/// One ranked candidate.
#[derive(Debug, Clone)]
pub struct RankedPlacement {
    pub placement: PlacementMap,
    pub predicted_cycles: f64,
}

/// How [`SearchRequest::run`] covers the placement space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// Enumerate every legal placement (up to the limit) and rank all of
    /// them. The full ranking is bit-identical to the naive
    /// rewrite-per-candidate path for every worker count.
    #[default]
    Exhaustive,
    /// Anytime beam search over per-array placement prefixes: at each
    /// depth only the `width` prefixes with the smallest monotone lower
    /// bound survive. The gap bound comes from the cheapest dropped
    /// prefix (see [`strategies::beam`](crate::strategies::beam)).
    Beam {
        /// Surviving prefixes per depth (≥ 1).
        width: usize,
    },
    /// Anytime successive halving over skeleton groups: candidates that
    /// share a shared-memory skeleton form one arm; arms are advanced
    /// round-robin and the worse half is retired each rung (see
    /// [`strategies::halving`](crate::strategies::halving)).
    SuccessiveHalving,
    /// Anytime seeded genetic local search on `hms_stats::rng`: the seed
    /// fully determines the result, bit for bit, at any worker count
    /// (see [`strategies::local`](crate::strategies::local)).
    LocalSearch {
        /// RNG seed; the whole run is a pure function of it.
        seed: u64,
    },
}

impl SearchStrategy {
    /// Beam width used when the spelling `beam` carries no explicit
    /// width.
    pub const DEFAULT_BEAM_WIDTH: usize = 8;
    /// Seed used when the spelling `local` carries no explicit seed.
    pub const DEFAULT_SEED: u64 = 42;

    /// The strategy's wire name, as it appears in `--json` bodies,
    /// `/v1/search` responses, and [`EngineStats::strategy`].
    pub fn name(self) -> &'static str {
        match self {
            SearchStrategy::Exhaustive => "exhaustive",
            SearchStrategy::Beam { .. } => "beam",
            SearchStrategy::SuccessiveHalving => "successive_halving",
            SearchStrategy::LocalSearch { .. } => "local_search",
        }
    }

    /// True for the approximate anytime strategies — the ones that
    /// report a meaningful [`EngineStats::gap_upper_bound`].
    pub fn is_anytime(self) -> bool {
        matches!(
            self,
            SearchStrategy::Beam { .. }
                | SearchStrategy::SuccessiveHalving
                | SearchStrategy::LocalSearch { .. }
        )
    }

    /// Parse the CLI/wire spelling plus its optional knobs. Accepts the
    /// short and long spellings (`halving`/`successive_halving`,
    /// `local`/`local_search`), plus `bnb`/`branch_and_bound` as
    /// spellings of exhaustive search. Rejects knobs that do not apply
    /// to the named strategy, and rejects a zero beam width. The shared
    /// entry point for `hms search --strategy` and the `/v1/search`
    /// `strategy` member, so both surfaces accept exactly the same
    /// language.
    pub fn parse(name: &str, beam: Option<usize>, seed: Option<u64>) -> Result<Self, String> {
        let strategy = match name {
            "exhaustive" | "bnb" | "branch_and_bound" => SearchStrategy::Exhaustive,
            "beam" => SearchStrategy::Beam {
                width: beam.unwrap_or(Self::DEFAULT_BEAM_WIDTH),
            },
            "halving" | "successive_halving" => SearchStrategy::SuccessiveHalving,
            "local" | "local_search" => SearchStrategy::LocalSearch {
                seed: seed.unwrap_or(Self::DEFAULT_SEED),
            },
            other => {
                return Err(format!(
                    "unknown strategy `{other}` (expected beam|halving|local|bnb|exhaustive)"
                ))
            }
        };
        if beam.is_some() && !matches!(strategy, SearchStrategy::Beam { .. }) {
            return Err(format!("beam width only applies to `beam`, not `{name}`"));
        }
        if matches!(strategy, SearchStrategy::Beam { width: 0 }) {
            return Err("beam width must be at least 1".into());
        }
        if seed.is_some() && !matches!(strategy, SearchStrategy::LocalSearch { .. }) {
            return Err(format!("seed only applies to `local`, not `{name}`"));
        }
        Ok(strategy)
    }
}

/// A named-field description of one placement search: the arrays and
/// base placement, then optional candidates, limit, threads and strategy.
///
/// ```ignore
/// let outcome = SearchRequest::new(&kt.arrays, &base)
///     .candidates(&[ArrayId(0), ArrayId(1)])
///     .strategy(SearchStrategy::Beam { width: 8 })
///     .run(&predictor, &profile)?;
/// println!("{}", outcome.stats);
/// ```
#[derive(Debug, Clone)]
pub struct SearchRequest<'a> {
    pub(crate) arrays: &'a [ArrayDef],
    pub(crate) base: &'a PlacementMap,
    pub(crate) candidates: Vec<ArrayId>,
    pub(crate) limit: usize,
    pub(crate) threads: usize,
    pub(crate) strategy: SearchStrategy,
    pub(crate) deadline: Option<Instant>,
    pub(crate) skeleton_cache: Option<PathBuf>,
    pub(crate) cache_fs: Option<Arc<dyn crate::skelcache::CacheFs>>,
    pub(crate) cancel: Option<Arc<AtomicBool>>,
}

impl<'a> SearchRequest<'a> {
    /// A search over **all** arrays of the kernel, starting from `base`
    /// for anything not being varied. Defaults: `limit` 4096 legal
    /// placements, all-core evaluation, [`SearchStrategy::Exhaustive`].
    pub fn new(arrays: &'a [ArrayDef], base: &'a PlacementMap) -> Self {
        SearchRequest {
            arrays,
            base,
            candidates: arrays.iter().map(|a| a.id).collect(),
            limit: 4096,
            threads: 0,
            strategy: SearchStrategy::default(),
            deadline: None,
            skeleton_cache: None,
            cache_fs: None,
            cancel: None,
        }
    }

    /// Restrict the search to these arrays (others keep their `base`
    /// space).
    pub fn candidates(mut self, ids: &[ArrayId]) -> Self {
        self.candidates = ids.to_vec();
        self
    }

    /// Restrict the search to the kernel's read-only arrays — the ones
    /// with the full five-way space choice, where the search space (and
    /// the delta engine's leverage) is largest.
    pub fn read_only_candidates(mut self) -> Self {
        self.candidates = self
            .arrays
            .iter()
            .filter(|a| !a.written)
            .map(|a| a.id)
            .collect();
        self
    }

    /// Cap the number of legal placements enumerated.
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Worker threads for candidate evaluation (`0` = all cores). The
    /// outcome is identical for every worker count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Pick the coverage strategy.
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Persist engine skeletons under `dir` and reuse them across
    /// processes (see [`Engine::with_disk_cache`]). Rankings are
    /// bit-identical with a cold, warm, stale, or corrupt cache — a
    /// bad file only costs the rebuild it would have saved.
    pub fn skeleton_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.skeleton_cache = Some(dir.into());
        self
    }

    /// Like [`Self::skeleton_cache`], but every cache I/O goes through
    /// `fs` instead of the real filesystem — the injection seam the
    /// robustness tests drive with `hms_faults::FaultyFs`. Rankings stay
    /// bit-identical no matter what `fs` does to the bytes.
    pub fn skeleton_cache_fs(
        mut self,
        dir: impl Into<PathBuf>,
        fs: Arc<dyn crate::skelcache::CacheFs>,
    ) -> Self {
        self.skeleton_cache = Some(dir.into());
        self.cache_fs = Some(fs);
        self
    }

    /// Stop evaluating new candidates once `deadline` passes and return
    /// the best-so-far ranking flagged [`SearchOutcome::partial`]. With
    /// no deadline (the default) the evaluation schedule — and therefore
    /// the bit pattern of every prediction — is exactly the deadline-free
    /// path; the flag never changes results, only how many there are.
    pub fn deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Cooperative cancellation: when `flag` becomes `true` the search
    /// stops at the next batch boundary — the same points the deadline
    /// is checked at — and returns the best-so-far ranking flagged
    /// [`SearchOutcome::partial`]. The server's pool watchdog raises
    /// the flag on stalled compute slots; like the deadline, the flag
    /// never changes the bit pattern of any returned prediction, only
    /// how many there are.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Reject structurally nonsense searches before any model work:
    /// a zero candidate cap, a candidate id past the kernel's arrays, or
    /// the same array listed twice (the strategies' assignment vectors
    /// index by array id and would silently double-assign).
    pub fn validate(&self) -> Result<(), HmsError> {
        if self.limit == 0 {
            return Err(HmsError::InvalidInput(
                "search limit is 0; no placement can be ranked".into(),
            ));
        }
        let mut seen = vec![false; self.arrays.len()];
        for &id in &self.candidates {
            let Some(slot) = seen.get_mut(id.index()) else {
                return Err(HmsError::InvalidInput(format!(
                    "candidate array id {} out of range (kernel has {} arrays)",
                    id.index(),
                    self.arrays.len()
                )));
            };
            if *slot {
                return Err(HmsError::InvalidInput(format!(
                    "candidate array id {} listed twice",
                    id.index()
                )));
            }
            *slot = true;
        }
        Ok(())
    }

    /// Run the search through the incremental [`Engine`].
    pub fn run(&self, predictor: &Predictor, profile: &Profile) -> Result<SearchOutcome, HmsError> {
        self.validate()?;
        profile.validate(&predictor.cfg)?;
        let mut engine = Engine::new(predictor, profile);
        if let Some(dir) = &self.skeleton_cache {
            engine = match &self.cache_fs {
                Some(fs) => engine.with_disk_cache_fs(dir, Arc::clone(fs)),
                None => engine.with_disk_cache(dir),
            };
        }
        let mut sweep = Sweep::new(&engine, self);
        match self.strategy {
            SearchStrategy::Exhaustive => exhaustive(&mut sweep)?,
            SearchStrategy::Beam { width } => crate::strategies::beam::run(&mut sweep, width)?,
            SearchStrategy::SuccessiveHalving => crate::strategies::halving::run(&mut sweep)?,
            SearchStrategy::LocalSearch { seed } => {
                crate::strategies::local::run(&mut sweep, seed)?
            }
        }
        let (ranked, partial, gap) = sweep.finish();
        let mut stats = engine.stats();
        stats.strategy = self.strategy.name();
        stats.gap_upper_bound = gap;
        Ok(SearchOutcome {
            ranked,
            stats,
            partial,
        })
    }
}

/// A completed search: the ranking (ascending predicted cycles, best
/// first) plus the engine's observability counters.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    pub ranked: Vec<RankedPlacement>,
    pub stats: EngineStats,
    /// `true` when the search hit its [`SearchRequest::deadline`] or
    /// [`SearchRequest::cancel_flag`] before covering the whole space:
    /// `ranked` is the best-so-far prefix of the evaluation schedule,
    /// every entry still a real (bit-identical) prediction. Always
    /// `false` without a deadline or cancel flag.
    pub partial: bool,
}

impl SearchOutcome {
    /// The best placement found, if any candidate was legal.
    pub fn best(&self) -> Option<&RankedPlacement> {
        self.ranked.first()
    }
}

/// Rank every legal placement up to the request limit. A cut run is no
/// longer exact: the cheapest unevaluated candidate's bound covers what
/// it skipped.
fn exhaustive(sweep: &mut Sweep<'_, '_>) -> Result<(), HmsError> {
    let (engine, req) = (sweep.engine, sweep.req);
    let t0 = Instant::now();
    let space = enumerate_placements(
        req.arrays,
        req.base,
        &req.candidates,
        &engine.predictor().cfg,
        req.limit,
    );
    engine.bump(|s| {
        s.enumerate_nanos += t0.elapsed().as_nanos() as u64;
        s.candidates_enumerated += space.len() as u64;
    });
    let done = sweep.evaluate(&space)?.len();
    if sweep.partial() {
        let truncated = space.len() >= req.limit;
        sweep.lower_floor(space_floor(engine, req, space[done..].iter(), truncated));
    }
    Ok(())
}

/// The naive oracle: rank `candidates` with one full `rewrite` +
/// `analyze` per candidate, no delta reuse. Slow by design — this is
/// the ground truth the incremental engine is checked against, and the
/// baseline the search benchmarks measure speedups from.
///
/// The result is identical for every worker count: `par_map_steal`
/// reassembles in input order, and the final ordering is a *stable*
/// total sort on the predicted time, so ties keep enumeration order no
/// matter how the work was scheduled.
pub fn rank_placements_naive(
    predictor: &Predictor,
    profile: &Profile,
    candidates: &[PlacementMap],
    threads: usize,
) -> Result<Vec<RankedPlacement>, HmsError> {
    let predictions = hms_stats::par::par_map_steal(threads, candidates, |pm| {
        predictor.predict(profile, pm).map(|pred| RankedPlacement {
            placement: pm.clone(),
            predicted_cycles: pred.cycles,
        })
    });
    let mut ranked = Vec::with_capacity(candidates.len());
    for p in predictions {
        ranked.push(p?);
    }
    ranked.sort_by(|a, b| a.predicted_cycles.total_cmp(&b.predicted_cycles));
    Ok(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_sample;
    use hms_kernels::{vecadd, Scale};

    #[test]
    fn enumeration_respects_legality() {
        let cfg = GpuConfig::test_small();
        let kt = vecadd::build(Scale::Test);
        let base = kt.default_placement();
        // Candidate: array 2 ("v") is written -> only global/shared are
        // legal; 1-D shape forbids Texture2D anyway.
        let all = enumerate_placements(&kt.arrays, &base, &[ArrayId(2)], &cfg, 100);
        assert_eq!(all.len(), 2);
        for pm in &all {
            assert!(pm.validate(&kt.arrays, &cfg).is_ok());
        }
    }

    #[test]
    fn enumeration_is_combinatorial_over_candidates() {
        let cfg = GpuConfig::test_small();
        let kt = vecadd::build(Scale::Test);
        let base = kt.default_placement();
        // a and b are read-only 1-D arrays: legal spaces are G, T, C, S
        // (4 each) -> 16 combinations.
        let all = enumerate_placements(&kt.arrays, &base, &[ArrayId(0), ArrayId(1)], &cfg, 100);
        assert_eq!(all.len(), 16);
    }

    #[test]
    fn limit_caps_enumeration() {
        let cfg = GpuConfig::test_small();
        let kt = vecadd::build(Scale::Test);
        let base = kt.default_placement();
        let all = enumerate_placements(&kt.arrays, &base, &[ArrayId(0), ArrayId(1)], &cfg, 5);
        assert!(all.len() <= 5);
    }

    #[test]
    fn parallel_search_matches_single_threaded() {
        let cfg = GpuConfig::test_small();
        let kt = vecadd::build(Scale::Test);
        let base = kt.default_placement();
        let profile = profile_sample(&kt, &base, &cfg).unwrap();
        let predictor = Predictor::new(cfg.clone());
        let single = SearchRequest::new(&kt.arrays, &base)
            .threads(1)
            .run(&predictor, &profile)
            .unwrap();
        assert!(!single.ranked.is_empty());
        for threads in [2, 0] {
            let multi = SearchRequest::new(&kt.arrays, &base)
                .threads(threads)
                .run(&predictor, &profile)
                .unwrap();
            assert_eq!(single.ranked.len(), multi.ranked.len());
            for (a, b) in single.ranked.iter().zip(&multi.ranked) {
                assert_eq!(a.placement, b.placement);
                assert_eq!(
                    a.predicted_cycles.to_bits(),
                    b.predicted_cycles.to_bits(),
                    "prediction differs across thread counts"
                );
            }
        }
    }

    #[test]
    fn naive_ranking_matches_engine_run() {
        let cfg = GpuConfig::test_small();
        let kt = vecadd::build(Scale::Test);
        let base = kt.default_placement();
        let profile = profile_sample(&kt, &base, &cfg).unwrap();
        let predictor = Predictor::new(cfg.clone());
        let ids: Vec<ArrayId> = kt.arrays.iter().map(|a| a.id).collect();
        let new = SearchRequest::new(&kt.arrays, &base)
            .threads(1)
            .run(&predictor, &profile)
            .unwrap();
        let space = enumerate_placements(&kt.arrays, &base, &ids, &cfg, 4096);
        let naive = rank_placements_naive(&predictor, &profile, &space, 1).unwrap();
        assert_eq!(naive.len(), new.ranked.len());
        for (a, b) in naive.iter().zip(&new.ranked) {
            assert_eq!(a.placement, b.placement);
            assert_eq!(a.predicted_cycles.to_bits(), b.predicted_cycles.to_bits());
        }
    }

    #[test]
    fn validate_rejects_malformed_requests() {
        let cfg = GpuConfig::test_small();
        let kt = vecadd::build(Scale::Test);
        let base = kt.default_placement();
        let profile = profile_sample(&kt, &base, &cfg).unwrap();
        let predictor = Predictor::new(cfg);

        let zero = SearchRequest::new(&kt.arrays, &base).limit(0);
        assert!(matches!(
            zero.run(&predictor, &profile),
            Err(HmsError::InvalidInput(_))
        ));

        let dup = SearchRequest::new(&kt.arrays, &base).candidates(&[ArrayId(0), ArrayId(0)]);
        assert!(matches!(dup.validate(), Err(HmsError::InvalidInput(_))));

        let oob = SearchRequest::new(&kt.arrays, &base).candidates(&[ArrayId(99)]);
        let err = oob.validate().unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn deadline_yields_partial_best_so_far() {
        use std::collections::HashMap;
        use std::time::Duration;

        // A space wider than one 64-placement evaluation chunk, so an
        // interruptible run evaluates in several chunks and a cut can
        // land between them.
        let cfg = GpuConfig::test_small();
        let kt = hms_kernels::by_name("wide4", Scale::Test).unwrap();
        let base = kt.default_placement();
        let profile = profile_sample(&kt, &base, &cfg).unwrap();
        let predictor = Predictor::new(cfg);
        let exact = SearchRequest::new(&kt.arrays, &base)
            .run(&predictor, &profile)
            .unwrap();
        assert!(exact.ranked.len() > 64, "{} candidates", exact.ranked.len());
        let truth: HashMap<&PlacementMap, u64> = exact
            .ranked
            .iter()
            .map(|r| (&r.placement, r.predicted_cycles.to_bits()))
            .collect();
        let bits = |o: &SearchOutcome| -> Vec<(PlacementMap, u64)> {
            o.ranked
                .iter()
                .map(|r| (r.placement.clone(), r.predicted_cycles.to_bits()))
                .collect()
        };
        // The members of the `/v1/search` stats block.
        let wire = |s: &EngineStats| {
            (
                [
                    s.candidates_enumerated,
                    s.candidates_evaluated,
                    s.skeletons_built,
                    s.full_rewrites,
                    s.delta_cache_hits,
                    s.exact_fallbacks,
                    s.candidates_visited,
                ],
                s.rewrite_reduction().to_bits(),
                s.gap_upper_bound.to_bits(),
            )
        };

        for strategy in [
            SearchStrategy::Exhaustive,
            // Wider than one chunk, so the beam's leaves span several.
            SearchStrategy::Beam { width: 256 },
            SearchStrategy::SuccessiveHalving,
            SearchStrategy::LocalSearch { seed: 7 },
        ] {
            for threads in [1, 2] {
                let req = SearchRequest::new(&kt.arrays, &base)
                    .strategy(strategy)
                    .threads(threads);
                let free = req.run(&predictor, &profile).unwrap();
                assert!(!free.partial, "{strategy:?}");

                // A deadline that never fires and a cancel flag that is
                // never raised change nothing: same bits, same stats.
                let far = req
                    .clone()
                    .deadline(Some(Instant::now() + Duration::from_secs(3600)));
                let never = req.clone().cancel_flag(Arc::new(AtomicBool::new(false)));
                for timed in [far, never] {
                    let timed = timed.run(&predictor, &profile).unwrap();
                    assert!(!timed.partial, "{strategy:?} x{threads}");
                    assert_eq!(bits(&timed), bits(&free), "{strategy:?} x{threads}");
                    assert_eq!(
                        wire(&timed.stats),
                        wire(&free.stats),
                        "{strategy:?} x{threads}"
                    );
                }

                // An already-expired deadline still evaluates at least
                // one result, flags the outcome, and every entry it
                // returns is the deadline-free prediction, bit for bit.
                let cut = req
                    .clone()
                    .deadline(Some(Instant::now()))
                    .run(&predictor, &profile)
                    .unwrap();
                assert!(cut.partial, "{strategy:?} x{threads}");
                assert!(!cut.ranked.is_empty(), "{strategy:?} x{threads}");
                // The cut stopped the evaluation early, not after the
                // last chunk.
                assert!(
                    cut.ranked.len() < free.ranked.len(),
                    "{strategy:?} x{threads}"
                );
                for r in &cut.ranked {
                    assert_eq!(
                        Some(&r.predicted_cycles.to_bits()),
                        truth.get(&r.placement),
                        "{strategy:?} x{threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn search_stats_report_delta_economy() {
        let cfg = GpuConfig::test_small();
        let kt = vecadd::build(Scale::Test);
        let base = kt.default_placement();
        let profile = profile_sample(&kt, &base, &cfg).unwrap();
        let predictor = Predictor::new(cfg);
        let outcome = SearchRequest::new(&kt.arrays, &base)
            .read_only_candidates()
            .run(&predictor, &profile)
            .unwrap();
        // Two read-only candidates -> 16 placements over 4 skeletons.
        assert_eq!(outcome.stats.candidates_evaluated, 16);
        assert_eq!(outcome.stats.full_rewrites, 4);
        assert!(outcome.stats.rewrite_reduction() >= 4.0);
        assert_eq!(outcome.stats.exact_fallbacks, 0);
    }

    #[test]
    fn ranking_orders_by_prediction() {
        let cfg = GpuConfig::test_small();
        let kt = vecadd::build(Scale::Test);
        let base = kt.default_placement();
        let profile = profile_sample(&kt, &base, &cfg).unwrap();
        let candidates = enumerate_placements(&kt.arrays, &base, &[ArrayId(0)], &cfg, 100);
        let predictor = Predictor::new(cfg);
        let ranked = Engine::new(&predictor, &profile)
            .rank(&candidates, 0)
            .unwrap();
        assert_eq!(ranked.len(), candidates.len());
        for w in ranked.windows(2) {
            assert!(w[0].predicted_cycles <= w[1].predicted_cycles);
        }
    }
}
