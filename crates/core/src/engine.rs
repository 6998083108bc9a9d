//! Incremental placement-search engine: delta evaluation, memoization,
//! and branch-and-bound support for the placement search.
//!
//! The naive search pipeline re-runs `rewrite` + `analyze` for every
//! candidate placement, even though most of the work is identical
//! between candidates. Two structural facts make incremental evaluation
//! possible:
//!
//! 1. **The walk skeleton depends only on the shared-memory set.** The
//!    analysis walk's block-to-SM assignment, occupancy, staging
//!    prologue/epilogue, warp interleaving, and every placement-invariant
//!    counter (`mem_instrs`, waits, MLP, syncs, shared/local traffic)
//!    are functions of *which arrays sit in shared memory* — never of
//!    the global/texture/constant choice for the rest. The engine
//!    therefore performs **one** exact `rewrite` + recorded `analyze`
//!    per distinct shared set (a `Skeleton`) and replays the recorded
//!    event stream for every other candidate sharing it.
//!
//! 2. **Per-access outcomes are stateless per `(array, space, base)`.**
//!    Coalescing, constant-word dedup, and texture-line dedup depend
//!    only on the lane element indices (recovered once from the sample
//!    trace via [`hms_trace::recover_elem_indices`]), the target space's
//!    layout, and the allocator base — not on cache state. The engine
//!    memoizes them per `(array, space, base, stride)` and composes a
//!    candidate's [`TraceAnalysis`] by re-running only the *stateful*
//!    models (texture/constant caches, L2, DRAM stream) over the
//!    composed access sequence.
//!
//! The composition is **bit-identical** to the direct path by
//! construction: the stateful caches expose the same entry points the
//! walk uses ([`hms_cache::TextureCache::access_lines`],
//! [`hms_cache::ConstantCache::access_words`]), and every skeleton
//! self-checks by replaying its own canonical placement and comparing
//! the full `TraceAnalysis` (exact `PartialEq`) against the direct
//! result. A skeleton that fails the self-check is *poisoned* and its
//! candidates silently take the exact `rewrite`+`analyze` fallback, so
//! correctness never depends on the delta machinery.
//!
//! For branch-and-bound pruning the engine also precomputes a **monotone
//! lower bound** on the predicted time of any completion of a partial
//! assignment (see `Engine::lower_bound`): a `T_comp` floor from
//! placement-invariant issue slots plus per-space stateless-replay and
//! addressing floors, and a `T_mem` floor from per-space hit-latency
//! floors — combined through the overlap model's
//! [`ToverlapModel::max_ratio`](crate::toverlap::ToverlapModel::max_ratio)
//! ceiling. Every quantity in the bound can only grow when staging or
//! cache misses are added, so no subtree containing the true optimum is
//! ever pruned.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use hms_cache::{ConstantCache, L2Cache, L2Source, TextureCache};
use hms_trace::{
    addr_calc_instrs, coalesce_into, element_offset, recover_elem_indices, rewrite, CInstr, ElemIdx,
};
use hms_types::{ArrayId, DType, GpuConfig, HmsError, MemorySpace, PlacementMap};

use crate::analysis::{
    analyze_observed, l2_fill, AnalysisOptions, TraceAnalysis, WalkEvent, WalkObserver,
};
use crate::predictor::{Prediction, Predictor};
use crate::profile::Profile;
use crate::search::RankedPlacement;
use crate::tcomp::effective_throughput;

/// Search observability counters, exposed through
/// [`SearchOutcome`](crate::search::SearchOutcome) and `hms search
/// --stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Distinct walk skeletons built (one exact rewrite + recorded
    /// analysis each).
    pub skeletons_built: u64,
    /// Whole-trace `rewrite` + `analyze` runs: skeleton builds plus
    /// exact fallbacks. The headline economy metric — compare against
    /// `candidates_evaluated`.
    pub full_rewrites: u64,
    /// Candidate evaluations composed from memoized deltas instead of a
    /// full rewrite.
    pub delta_cache_hits: u64,
    /// Candidates that fell back to the exact path (poisoned skeleton).
    pub exact_fallbacks: u64,
    /// `(array, space, base)` delta-memo tables built.
    pub memo_tables_built: u64,
    /// Skeletons loaded from the persistent on-disk cache (each one a
    /// full rewrite + recorded analysis *not* paid).
    pub skeleton_disk_hits: u64,
    /// Disk-cache lookups that missed (absent, stale, or corrupt file —
    /// all trigger a silent rebuild).
    pub skeleton_disk_misses: u64,
    /// Skeletons persisted to the on-disk cache.
    pub skeleton_disk_writes: u64,
    /// Stranded `*.tmp` files swept when the disk cache was opened
    /// (leftovers of writers that died mid-store — see the
    /// [`skelcache`](crate::skelcache) temp-file hygiene notes).
    pub skeleton_disk_tmp_swept: u64,
    /// Legal candidates produced by enumeration (exhaustive) or visited
    /// as branch-and-bound leaves.
    pub candidates_enumerated: u64,
    /// Candidates actually evaluated by the model.
    pub candidates_evaluated: u64,
    /// Completions skipped by the lower bound. Counted via per-array
    /// standalone legality, so jointly-illegal completions inflate the
    /// number slightly; it is an upper estimate of work avoided.
    pub candidates_pruned: u64,
    /// Prefix subtrees cut by the bound.
    pub subtrees_pruned: u64,
    /// Wall time preparing skeletons and delta memos.
    pub prepare_nanos: u64,
    /// Wall time enumerating candidates.
    pub enumerate_nanos: u64,
    /// Wall time evaluating candidates (model math + ranking).
    pub evaluate_nanos: u64,
    /// Candidates *considered* by an anytime strategy — prefixes scored
    /// by the lower bound, arms advanced by successive halving, genomes
    /// proposed by local search — whether or not they reached the model.
    /// Exact strategies leave this 0.
    pub candidates_visited: u64,
    /// Sound upper bound on the relative optimality gap of the best
    /// returned placement: `best <= optimum * (1 + gap_upper_bound)`.
    /// 0 for exact strategies that ran to completion; see
    /// [`strategies`](crate::strategies) for how each strategy derives
    /// its bound.
    pub gap_upper_bound: f64,
    /// Lane-batched replay passes: each one streams a skeleton's event
    /// column once for a whole batch of candidates. Compare against
    /// `delta_cache_hits` (lanes replayed) for the batching factor.
    pub batched_replays: u64,
    /// Widest lane batch replayed so far (a gauge, not a sum): how many
    /// candidates shared one event-stream pass at peak.
    pub lane_width: u64,
    /// Skeleton events decoded across all batched replays. Without
    /// batching this grows per *candidate*; with it, per *batch* — the
    /// ratio `events_streamed / delta_cache_hits` is the per-candidate
    /// decode cost batching saves.
    pub events_streamed: u64,
    /// Wire name of the strategy that produced this snapshot (see
    /// [`SearchStrategy::name`](crate::search::SearchStrategy::name));
    /// empty for snapshots taken outside a search.
    pub strategy: &'static str,
}

impl EngineStats {
    /// Candidates evaluated per full trace rewrite — the factor the
    /// incremental engine saves over the naive search (≥ 5x on a
    /// 3-array search is the working target).
    pub fn rewrite_reduction(&self) -> f64 {
        self.candidates_evaluated as f64 / self.full_rewrites.max(1) as f64
    }

    /// Whether `strategy` names one of the anytime approximate
    /// strategies — the ones whose `candidates_visited` /
    /// `gap_upper_bound` carry meaning (and appear on the wire).
    pub fn anytime(&self) -> bool {
        matches!(
            self.strategy,
            "beam" | "successive_halving" | "local_search"
        )
    }

    /// Fraction of the (estimated) candidate space skipped by pruning.
    pub fn prune_rate(&self) -> f64 {
        let total = self.candidates_pruned + self.candidates_evaluated;
        if total == 0 {
            0.0
        } else {
            self.candidates_pruned as f64 / total as f64
        }
    }

    /// Fold another stats snapshot into this one: counters and stage
    /// timings add, the `lane_width` and `gap_upper_bound` gauges keep
    /// their peak, and the accumulator's own `strategy` label stays.
    /// The one fold for cumulative engine totals: the advisory server's
    /// `/metrics` (which adds two anytime-only rules on top, see
    /// `hms_serve::metrics::Metrics::on_engine_stats`), sweep harnesses,
    /// and branch-and-bound's per-flush tally.
    pub fn accumulate(&mut self, other: &EngineStats) {
        self.skeletons_built += other.skeletons_built;
        self.full_rewrites += other.full_rewrites;
        self.delta_cache_hits += other.delta_cache_hits;
        self.exact_fallbacks += other.exact_fallbacks;
        self.memo_tables_built += other.memo_tables_built;
        self.skeleton_disk_hits += other.skeleton_disk_hits;
        self.skeleton_disk_misses += other.skeleton_disk_misses;
        self.skeleton_disk_writes += other.skeleton_disk_writes;
        self.skeleton_disk_tmp_swept += other.skeleton_disk_tmp_swept;
        self.candidates_enumerated += other.candidates_enumerated;
        self.candidates_evaluated += other.candidates_evaluated;
        self.candidates_pruned += other.candidates_pruned;
        self.subtrees_pruned += other.subtrees_pruned;
        self.prepare_nanos += other.prepare_nanos;
        self.enumerate_nanos += other.enumerate_nanos;
        self.evaluate_nanos += other.evaluate_nanos;
        self.candidates_visited += other.candidates_visited;
        self.batched_replays += other.batched_replays;
        // Peak gauge, like the gap bound below.
        self.lane_width = self.lane_width.max(other.lane_width);
        self.events_streamed += other.events_streamed;
        // A cumulative total keeps the *worst* gap seen; the strategy
        // name is per-search, so the accumulator's own label wins.
        self.gap_upper_bound = self.gap_upper_bound.max(other.gap_upper_bound);
    }

    /// Candidates evaluated per second of evaluation wall time.
    pub fn candidates_per_sec(&self) -> f64 {
        if self.evaluate_nanos == 0 {
            0.0
        } else {
            self.candidates_evaluated as f64 / (self.evaluate_nanos as f64 / 1e9)
        }
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "search engine stats:")?;
        if !self.strategy.is_empty() {
            writeln!(f, "  strategy                {:>10}", self.strategy)?;
        }
        if self.anytime() {
            writeln!(
                f,
                "  candidates visited      {:>10}",
                self.candidates_visited
            )?;
            writeln!(
                f,
                "  gap upper bound         {:>12.2}%",
                self.gap_upper_bound * 100.0
            )?;
        }
        writeln!(
            f,
            "  candidates enumerated   {:>10}",
            self.candidates_enumerated
        )?;
        writeln!(
            f,
            "  candidates evaluated    {:>10}",
            self.candidates_evaluated
        )?;
        writeln!(
            f,
            "  candidates pruned (est) {:>10}",
            self.candidates_pruned
        )?;
        writeln!(f, "  subtrees pruned         {:>10}", self.subtrees_pruned)?;
        writeln!(f, "  skeletons built         {:>10}", self.skeletons_built)?;
        writeln!(f, "  full trace rewrites     {:>10}", self.full_rewrites)?;
        writeln!(f, "  delta-composed evals    {:>10}", self.delta_cache_hits)?;
        writeln!(f, "  exact fallbacks         {:>10}", self.exact_fallbacks)?;
        writeln!(
            f,
            "  delta memo tables       {:>10}",
            self.memo_tables_built
        )?;
        writeln!(
            f,
            "  skeleton disk hits      {:>10}",
            self.skeleton_disk_hits
        )?;
        writeln!(
            f,
            "  skeleton disk misses    {:>10}",
            self.skeleton_disk_misses
        )?;
        if self.skeleton_disk_tmp_swept > 0 {
            writeln!(
                f,
                "  skeleton temps swept    {:>10}",
                self.skeleton_disk_tmp_swept
            )?;
        }
        if self.batched_replays > 0 {
            writeln!(f, "  batched replays         {:>10}", self.batched_replays)?;
            writeln!(f, "  peak lane width         {:>10}", self.lane_width)?;
            writeln!(f, "  events streamed         {:>10}", self.events_streamed)?;
        }
        writeln!(
            f,
            "  rewrite reduction       {:>13.2}x",
            self.rewrite_reduction()
        )?;
        writeln!(
            f,
            "  prune rate              {:>12.1}%",
            self.prune_rate() * 100.0
        )?;
        writeln!(
            f,
            "  prepare / enumerate / evaluate  {:.2} ms / {:.2} ms / {:.2} ms",
            self.prepare_nanos as f64 / 1e6,
            self.enumerate_nanos as f64 / 1e6,
            self.evaluate_nanos as f64 / 1e6,
        )
    }
}

/// Hard cap on replay lanes per batch: each lane carries its own L2 /
/// texture / constant model state (~hundreds of KiB on real configs),
/// so unbounded widths would trade cache locality for decode savings.
const MAX_LANE_WIDTH: usize = 64;

/// Event-kind codes of the skeleton's recorded stream.
pub(crate) const EV_ADVANCE: u8 = 0;
pub(crate) const EV_ADDR_CALC: u8 = 1;
pub(crate) const EV_BODY: u8 = 2;
pub(crate) const EV_STAGING_GLOBAL: u8 = 3;
pub(crate) const EV_L2_PROBE: u8 = 4;

/// One recorded walk event as a fixed-size record; the replay loop
/// streams over a flat `Vec<EventRec>` (plus the shared transaction
/// arena) instead of chasing per-event heap payloads.
///
/// Field use per kind:
///
/// | kind             | `flag`     | `arr`  | `x`        | `tx..tx+tx_len` |
/// |------------------|------------|--------|------------|-----------------|
/// | `EV_ADVANCE`     | –          | –      | slot count | –               |
/// | `EV_ADDR_CALC`   | –          | array  | ref count  | –               |
/// | `EV_BODY`        | –          | array  | ordinal    | –               |
/// | `EV_STAGING_GLOBAL` | is_store | –     | replays    | transactions    |
/// | `EV_L2_PROBE`    | is_store   | –      | address    | –               |
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventRec {
    pub kind: u8,
    pub flag: u8,
    pub sm: u16,
    pub arr: u32,
    pub x: u64,
    pub tx: u32,
    pub tx_len: u32,
}

/// The recorded walk of one shared-memory set.
#[derive(Debug)]
pub(crate) struct Skeleton {
    /// Placement-invariant counters copied from the canonical analysis;
    /// placement-dependent fields zeroed (recomputed at replay).
    pub(crate) consts: TraceAnalysis,
    pub(crate) events: Vec<EventRec>,
    /// Arena of staging-copy transaction addresses, referenced by
    /// `EV_STAGING_GLOBAL` records.
    pub(crate) tx_arena: Vec<u64>,
    /// Per-array `(offchip_base, block_stride)` under this skeleton's
    /// allocator (meaningless for arrays inside the shared set, which
    /// never appear as `Body` events).
    pub(crate) bases: Vec<(u64, u64)>,
    /// Self-check failed (or recording hit an inconsistency): all
    /// candidates of this shared set take the exact path.
    pub(crate) poisoned: bool,
}

/// One candidate lane of a batched replay: the full per-candidate model
/// state (stateful caches, per-SM position, and the output accumulator).
/// Lanes are mutually independent — each performs exactly the operation
/// sequence the per-candidate replay would, which is what makes the
/// lane-batched path bit-identical by construction.
struct LaneState {
    l2: L2Cache,
    const_caches: Vec<ConstantCache>,
    tex_caches: Vec<TextureCache>,
    sm_pos: Vec<u64>,
    /// The accumulating `TraceAnalysis`; reused across replays so the
    /// DRAM stream keeps its capacity (no per-replay allocation).
    out: TraceAnalysis,
    /// Per-array index of this lane's space in `MemorySpace::ALL` order.
    space_of: Vec<u8>,
    /// Per-array addressing expansion per `AddrCalc` count unit under
    /// this lane's placement.
    addr_n: Vec<u64>,
    /// Scratch for the texture/constant caches' missed-line output
    /// (cleared by [`TextureCache::access_lines_into`] /
    /// [`ConstantCache::access_words_into`] on every call) — keeps the
    /// per-body-event miss list off the heap.
    missed: Vec<u64>,
}

impl LaneState {
    fn new(cfg: &GpuConfig) -> Self {
        let num_sms = cfg.num_sms as usize;
        LaneState {
            l2: L2Cache::new(cfg.l2_cache),
            const_caches: (0..num_sms)
                .map(|_| ConstantCache::new(cfg.const_cache))
                .collect(),
            tex_caches: (0..num_sms)
                .map(|_| TextureCache::new(cfg.tex_cache))
                .collect(),
            sm_pos: vec![0; num_sms],
            out: TraceAnalysis::default(),
            space_of: Vec::new(),
            addr_n: Vec::new(),
            missed: Vec::new(),
        }
    }

    /// Return the model state to just-constructed and load the
    /// skeleton's placement-invariant constants, all without touching
    /// the heap: the caches generation-reset and the output's DRAM
    /// stream keeps its buffers (the skeleton's `consts.dram` is empty
    /// by construction, so the clone below allocates nothing).
    fn reset(&mut self, consts: &TraceAnalysis) {
        self.l2.reset();
        for c in &mut self.const_caches {
            c.reset();
        }
        for c in &mut self.tex_caches {
            c.reset();
        }
        self.sm_pos.fill(0);
        self.space_of.clear();
        self.addr_n.clear();
        let mut dram = std::mem::take(&mut self.out.dram);
        dram.clear();
        self.out = consts.clone();
        self.out.dram = dram;
    }
}

/// Per-thread replay state: W candidate lanes plus the shared
/// per-`(array, space)` memo table. The stateful cache models dominate
/// the allocation cost (~hundreds of KiB per lane when built fresh);
/// keeping them thread-local and generation-resetting them
/// ([`SetAssocCache::reset`](hms_cache::SetAssocCache)) makes a warm
/// batched replay allocation-free.
struct ReplayScratch {
    lanes: Vec<LaneState>,
    /// Memo handle per `(array, space)` (flat `array * 5 + space_idx`),
    /// resolved lazily once per batch — lanes sharing a space for the
    /// active array share the memo row.
    memo_slots: Vec<Option<Arc<MemoRow>>>,
}

impl ReplayScratch {
    fn new(cfg: &GpuConfig) -> Self {
        ReplayScratch {
            lanes: vec![LaneState::new(cfg)],
            memo_slots: Vec::new(),
        }
    }

    /// Was this scratch built for an identical machine shape? A thread
    /// may serve engines with different configs over its lifetime.
    fn matches(&self, cfg: &GpuConfig) -> bool {
        self.lanes.first().is_none_or(|lane| {
            lane.sm_pos.len() == cfg.num_sms as usize
                && *lane.l2.geometry() == cfg.l2_cache
                && lane
                    .const_caches
                    .first()
                    .is_none_or(|c| *c.geometry() == cfg.const_cache)
                && lane
                    .tex_caches
                    .first()
                    .is_none_or(|c| *c.geometry() == cfg.tex_cache)
        })
    }

    /// Grow to `width` lanes and reset every model to just-constructed;
    /// the memo table is cleared (or grown) to `n_arrays * 5` slots.
    fn reset(&mut self, width: usize, n_arrays: usize, cfg: &GpuConfig, consts: &TraceAnalysis) {
        while self.lanes.len() < width {
            self.lanes.push(LaneState::new(cfg));
        }
        for lane in &mut self.lanes[..width] {
            lane.reset(consts);
        }
        let slots = n_arrays * 5;
        if self.memo_slots.len() != slots {
            self.memo_slots.clear();
            self.memo_slots.resize(slots, None);
        } else {
            for m in &mut self.memo_slots {
                *m = None;
            }
        }
    }
}

thread_local! {
    static REPLAY_SCRATCH: RefCell<Option<ReplayScratch>> = const { RefCell::new(None) };
}

/// Per-access shape recovered once from the sample trace.
#[derive(Debug)]
struct AccessShape {
    block: u32,
    is_store: bool,
    elem_bytes: u8,
    idx: Vec<Option<ElemIdx>>,
}

/// Which memory system one memoized access drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoKind {
    /// No active lanes: the access advances the position but touches no
    /// memory system.
    Empty,
    Global,
    Tex,
    Const,
}

/// Memoized stateless outcome of one access under one `(space, base)`:
/// the kind plus a span into the row's shared address arena. `Copy`, so
/// the base-shift that concretizes a cached base-0 row into a
/// `(base, stride)` row is two flat buffer copies — no per-access heap
/// allocation (the old per-outcome `Vec`s made that a deep clone).
#[derive(Debug, Clone, Copy)]
struct MemoItem {
    kind: MemoKind,
    /// Global only: is this a store (dirties L2 lines).
    is_store: bool,
    /// Global only: stateless divergence replays.
    replays: u32,
    /// Span of this access's addresses in [`MemoRow::addrs`]:
    /// coalesced transactions (global), sorted deduplicated lines
    /// (texture), or sorted deduplicated words (constant).
    start: u32,
    len: u32,
}

/// One `(array, space, base, stride)` memo: per-access items over one
/// concatenated address arena.
#[derive(Debug, Clone)]
struct MemoRow {
    items: Vec<MemoItem>,
    addrs: Vec<u64>,
}

impl MemoRow {
    /// The address span of item `ord`.
    #[inline]
    fn span(&self, item: &MemoItem) -> &[u64] {
        &self.addrs[item.start as usize..(item.start + item.len) as usize]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    array: ArrayId,
    space: MemorySpace,
    base: u64,
    stride: u64,
}

/// Index of `space` in [`MemorySpace::ALL`] order.
fn space_idx(space: MemorySpace) -> usize {
    match space {
        MemorySpace::Global => 0,
        MemorySpace::Texture1D => 1,
        MemorySpace::Texture2D => 2,
        MemorySpace::Constant => 3,
        MemorySpace::Shared => 4,
    }
}

/// Everything an [`Engine`] derives purely from `(sample trace, GPU
/// config, model options)` — no placement enters any of it. Computed on
/// the first `Engine::new` for a given `(profile, predictor shape)` and
/// cached *inside the [`Profile`]* (see [`StaticsCache`]), so repeated
/// engine construction over the same profile — the serving advisor, the
/// warm benchmark pass, every search request — skips the whole sample
/// scan, the sample analysis, and the kernel fingerprint.
///
/// Placement-*derived* state (skeletons, per-base memo tables) stays
/// per-engine / on disk: caching it here would let one engine's search
/// warm another's measurements.
pub(crate) struct EngineStatics {
    dtypes: Vec<DType>,
    /// Per array, its body accesses in sample-trace order.
    access_info: Vec<Vec<AccessShape>>,
    /// Per warp, in trace order: per-body-instruction `(array, ordinal)`.
    warp_body_map: Vec<WarpBody>,
    lb: LbStatics,
    /// Sample-trace analysis, shared across predictions by the
    /// non-detailed model variants (computed once instead of per call).
    sample_analysis: Option<TraceAnalysis>,
    /// [`crate::skelcache::kernel_hash`] of `(trace, cfg)` — the disk
    /// cache's fingerprint, precomputed so `with_disk_cache` does not
    /// re-serialize the trace on every engine construction.
    kernel_fingerprint: u64,
    /// Base-0 delta-memo rows keyed `(array, space, block_stride)`.
    /// Every allocator base is `OFFCHIP_ALIGN`-aligned, which the
    /// transaction size, texture line, and constant word all divide —
    /// so a concrete `(base, stride)` row is the base-0 row with `base`
    /// added to every address, bit-exactly (see `Engine::build_memo`).
    base_rows: Mutex<HashMap<(ArrayId, u8, u64), Arc<MemoRow>>>,
}

/// One warp's body accesses: for each body instruction, the accessed
/// array and the access's ordinal among that array's accesses (`None`
/// for non-memory instructions). The walk of any rewrite of the sample
/// visits warps in the sample's order, so the recorder indexes these by
/// warp position and checks `(block, warp)` instead of hashing it.
#[derive(Debug)]
struct WarpBody {
    block: u32,
    warp: u32,
    slots: Vec<Option<(ArrayId, u32)>>,
}

/// Key identifying one statics entry: the machine + model shape the
/// statics were derived under. The overlap model enters only through
/// `max_ratio` (the lower bound's `rmax`), so its clamp ceiling is the
/// whole key contribution.
#[derive(Debug, Clone, PartialEq)]
struct StaticsKey {
    cfg: GpuConfig,
    options: crate::predictor::ModelOptions,
    rmax_bits: u64,
}

/// Interior-mutable statics cache carried by [`Profile`]. A handful of
/// `(config, options)` shapes per profile at most, so a linear scan
/// beats hashing the whole `GpuConfig`.
#[derive(Default)]
pub struct StaticsCache(Mutex<Vec<(StaticsKey, Arc<EngineStatics>)>>);

impl StaticsCache {
    fn get_or_build(
        &self,
        key: StaticsKey,
        build: impl FnOnce() -> EngineStatics,
    ) -> Arc<EngineStatics> {
        let mut slot = lock_cache(&self.0);
        if let Some((_, st)) = slot.iter().find(|(k, _)| *k == key) {
            return st.clone();
        }
        let st = Arc::new(build());
        slot.push((key, st.clone()));
        st
    }
}

impl Clone for StaticsCache {
    /// A clone starts empty: the statics are pure functions of the
    /// profile's trace, and a cloned profile may be about to mutate its
    /// trace (the validation tests do exactly that). Rebuilding costs
    /// one sample scan; inheriting stale statics could cost correctness.
    fn clone(&self) -> Self {
        StaticsCache::default()
    }
}

impl std::fmt::Debug for StaticsCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = lock_cache(&self.0).len();
        write!(f, "StaticsCache({n} entries)")
    }
}

/// Placement-invariant quantities behind the branch-and-bound lower
/// bound. Every term either equals or under-approximates its
/// counterpart in the real model for *any* completion of a partial
/// assignment.
#[derive(Debug)]
struct LbStatics {
    detailed: bool,
    /// Body issue slots excluding addressing expansion (ALU + syncs +
    /// memory + local); staging only adds to this.
    body_fixed_executed: u64,
    body_mem_instrs: u64,
    body_wait_events: u64,
    /// Per array: addressing expansion per space (already scaled by the
    /// trace's AddrCalc counts).
    expansion: Vec<[u64; 5]>,
    /// Per array: exact stateless replays per space (global divergence,
    /// constant divergence, shared conflicts; texture 0). Stateful
    /// replay causes (cache misses) only add to these.
    stateless_replays: Vec<[u64; 5]>,
    /// Per array: non-empty body accesses.
    body_requests: Vec<u64>,
    /// Per array: minima over that array's standalone-legal spaces.
    free_expansion: Vec<u64>,
    free_replays: Vec<u64>,
    free_floor: Vec<f64>,
    /// Standalone-legal spaces per array (a superset of jointly-legal).
    legal_spaces: Vec<Vec<MemorySpace>>,
    /// Per-space AMAT hit-latency floor.
    floor_lat: [f64; 5],
    /// Floor for any staging access the completion might add.
    c_min: f64,
    /// Throughput at the maximum (shared-free) occupancy: the fastest
    /// any completion can issue.
    thr_min: f64,
    active_sms: f64,
    total_warps: f64,
    waves_min: f64,
    w_serial_lb: f64,
    other_replays: u64,
    inst_executed_sample: u64,
    rmax: f64,
}

/// The incremental evaluation engine. Create once per `(predictor,
/// profile)` pair; skeletons and delta memos accumulate across calls.
pub struct Engine<'a> {
    predictor: &'a Predictor,
    profile: &'a Profile,
    /// Shared placement-invariant derivations of the sample trace —
    /// cached inside the profile, so re-constructing an engine over the
    /// same `(profile, config, options)` costs one cache probe.
    st: Arc<EngineStatics>,
    skeletons: Mutex<HashMap<Vec<bool>, Arc<Skeleton>>>,
    memos: Mutex<HashMap<MemoKey, Arc<MemoRow>>>,
    /// Observability counters. A leaf lock: no other lock is ever
    /// taken while it is held (see [`bump`](Self::bump)).
    counters: Mutex<EngineStats>,
    /// Fault-injection hook: when set, every skeleton built afterwards
    /// is poisoned, forcing the exact-fallback path. Exercised by the
    /// chaos suite to prove degradation is invisible in the output.
    inject_poison: AtomicBool,
    /// Lane width for batched replays; 0 = autosize per skeleton group.
    lane_width: AtomicU64,
    /// Optional persistent skeleton cache (see [`crate::skelcache`]).
    disk: Option<crate::skelcache::DiskCache>,
}

/// Lock one of the engine's caches or its counters, recovering from a
/// poisoned mutex: a panicking worker can only have left a cache
/// mid-insert of an `Arc` value, which the `HashMap` either holds or
/// doesn't, or the counters between two plain additions — every such
/// state is valid, so the data is safe to keep using.
fn lock_cache<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl EngineStatics {
    /// Scan the sample trace once: recover per-access element indices,
    /// assign per-array ordinals, and precompute the lower-bound
    /// statics, the sample analysis, and the disk-cache fingerprint.
    fn build(predictor: &Predictor, profile: &Profile) -> Self {
        let cfg = &predictor.cfg;
        let trace = &profile.trace;
        let n = trace.arrays.len();

        let mut access_info: Vec<Vec<AccessShape>> = (0..n).map(|_| Vec::new()).collect();
        let mut warp_body_map = Vec::with_capacity(trace.warps.len());
        let mut body_fixed_executed = 0u64;
        let mut body_syncs = 0u64;
        let mut body_mem_instrs = 0u64;
        let mut body_wait_events = 0u64;
        let mut addrcalc_total = vec![0u64; n];
        for w in &trace.warps {
            let mut per_instr = Vec::with_capacity(w.instrs.len());
            let mut outstanding = 0u32;
            for instr in &w.instrs {
                let mut slot = None;
                match instr {
                    CInstr::Alu { count, .. } => body_fixed_executed += u64::from(*count),
                    CInstr::SyncThreads => {
                        body_fixed_executed += 1;
                        body_syncs += 1;
                    }
                    CInstr::WaitLoads => {
                        if outstanding > 0 {
                            body_wait_events += 1;
                            outstanding = 0;
                        }
                    }
                    CInstr::AddrCalc { array, count } => {
                        addrcalc_total[array.index()] += u64::from(*count);
                    }
                    CInstr::Local { is_store, .. } => {
                        body_fixed_executed += 1;
                        body_mem_instrs += 1;
                        if !is_store {
                            outstanding += 1;
                        }
                    }
                    CInstr::Mem(m) => {
                        body_fixed_executed += 1;
                        body_mem_instrs += 1;
                        if !m.is_store {
                            outstanding += 1;
                        }
                        let ai = m.array.index();
                        slot = Some((m.array, access_info[ai].len() as u32));
                        access_info[ai].push(AccessShape {
                            block: w.block,
                            is_store: m.is_store,
                            elem_bytes: m.elem_bytes,
                            idx: recover_elem_indices(trace, w.block, m, cfg),
                        });
                    }
                }
                per_instr.push(slot);
            }
            warp_body_map.push(WarpBody {
                block: w.block,
                warp: w.warp,
                slots: per_instr,
            });
        }

        // Per-array, per-space stateless floors. Offsets are computed at
        // base 0: coalescing, word counts, and bank patterns are all
        // invariant under the allocator's aligned base shifts.
        let mut expansion = vec![[0u64; 5]; n];
        let mut stateless_replays = vec![[0u64; 5]; n];
        let mut body_requests = vec![0u64; n];
        let mut legal_spaces: Vec<Vec<MemorySpace>> = vec![Vec::new(); n];
        let all_global = PlacementMap::all_global(n);
        // Reused per-access scratch: offsets and transactions / words.
        let (mut offs, mut granules) = (Vec::new(), Vec::new());
        for (i, arr) in trace.arrays.iter().enumerate() {
            for space in MemorySpace::ALL {
                expansion[i][space_idx(space)] =
                    u64::from(addr_calc_instrs(space, arr.dtype)) * addrcalc_total[i];
                if all_global
                    .with(ArrayId(i as u32), space)
                    .validate(&trace.arrays, cfg)
                    .is_ok()
                {
                    legal_spaces[i].push(space);
                }
            }
            for acc in &access_info[i] {
                offs.clear();
                offs.extend(
                    acc.idx
                        .iter()
                        .flatten()
                        .map(|&ix| element_offset(arr, MemorySpace::Global, ix, cfg)),
                );
                if offs.is_empty() {
                    continue;
                }
                body_requests[i] += 1;
                let replays = coalesce_into(
                    offs.iter().copied(),
                    u64::from(acc.elem_bytes),
                    cfg.transaction_bytes,
                    &mut granules,
                );
                stateless_replays[i][space_idx(MemorySpace::Global)] += u64::from(replays);
                hms_cache::granules_into(&offs, 4, &mut granules);
                stateless_replays[i][space_idx(MemorySpace::Constant)] += granules.len() as u64 - 1;
                stateless_replays[i][space_idx(MemorySpace::Shared)] += u64::from(
                    hms_cache::shared_conflict_passes(&offs, cfg.shared_banks).saturating_sub(1),
                );
            }
        }
        let floor_lat = [
            cfg.l2_hit_lat as f64,
            cfg.tex_hit_lat as f64,
            cfg.tex_hit_lat as f64,
            cfg.const_hit_lat as f64,
            cfg.shared_lat as f64,
        ];
        let mins = |f: &dyn Fn(MemorySpace) -> f64, legal: &[MemorySpace]| -> f64 {
            legal.iter().map(|&s| f(s)).fold(f64::INFINITY, f64::min)
        };
        let mut free_expansion = vec![0u64; n];
        let mut free_replays = vec![0u64; n];
        let mut free_floor = vec![0.0f64; n];
        for i in 0..n {
            let legal = &legal_spaces[i];
            if legal.is_empty() {
                continue;
            }
            free_expansion[i] = legal
                .iter()
                .map(|&s| expansion[i][space_idx(s)])
                .min()
                .unwrap_or(0);
            free_replays[i] = legal
                .iter()
                .map(|&s| stateless_replays[i][space_idx(s)])
                .min()
                .unwrap_or(0);
            free_floor[i] = mins(&|s| floor_lat[space_idx(s)], legal);
        }

        // Occupancy extremes: with zero shared usage the SM packs the
        // most blocks, issuing fastest and draining the grid in the
        // fewest waves — both floors for any completion.
        let g = &trace.geometry;
        let blocks = g.grid_blocks as usize;
        let wpb = g.warps_per_block().max(1);
        let by_warps = (cfg.max_warps_per_sm / wpb).max(1) as usize;
        let bps_max = by_warps.min(cfg.max_blocks_per_sm as usize);
        let active_sms = (cfg.num_sms as usize).min(blocks).max(1);
        let wps_max = f64::from(wpb) * (bps_max.min(blocks.div_ceil(active_sms))) as f64;
        let thr_min = effective_throughput(cfg, wps_max.max(1.0));
        let waves_min = blocks
            .div_ceil((cfg.num_sms as usize * bps_max).max(1))
            .max(1) as f64;
        let active_sms_f = active_sms as f64;
        let total_warps = g.total_warps().max(1) as f64;

        let lb = LbStatics {
            detailed: predictor.options.detailed_instr,
            body_fixed_executed,
            body_mem_instrs,
            body_wait_events,
            expansion,
            stateless_replays,
            body_requests,
            free_expansion,
            free_replays,
            free_floor,
            legal_spaces,
            floor_lat,
            c_min: (cfg.l2_hit_lat as f64).min(cfg.shared_lat as f64),
            thr_min,
            active_sms: active_sms_f,
            total_warps,
            waves_min,
            w_serial_lb: body_syncs as f64 / active_sms_f * cfg.avg_inst_lat as f64,
            other_replays: profile.other_replays(),
            inst_executed_sample: profile.events.inst_executed,
            rmax: predictor.overlap.max_ratio(),
        };

        let sample_analysis = if predictor.options.detailed_instr {
            None
        } else {
            Some(crate::analysis::analyze(&profile.trace, cfg))
        };

        EngineStatics {
            dtypes: trace.arrays.iter().map(|a| a.dtype).collect(),
            access_info,
            warp_body_map,
            lb,
            sample_analysis,
            kernel_fingerprint: crate::skelcache::kernel_hash(trace, cfg),
            base_rows: Mutex::new(HashMap::new()),
        }
    }
}

impl<'a> Engine<'a> {
    /// Create an engine over `(predictor, profile)`. The sample-trace
    /// scan behind it is cached in the profile (see `EngineStatics`),
    /// so repeated construction over the same profile is cheap.
    pub fn new(predictor: &'a Predictor, profile: &'a Profile) -> Self {
        let key = StaticsKey {
            cfg: predictor.cfg.clone(),
            options: predictor.options,
            rmax_bits: predictor.overlap.max_ratio().to_bits(),
        };
        let st = profile
            .statics
            .get_or_build(key, || EngineStatics::build(predictor, profile));
        Engine {
            predictor,
            profile,
            st,
            skeletons: Mutex::new(HashMap::new()),
            memos: Mutex::new(HashMap::new()),
            counters: Mutex::new(EngineStats::default()),
            inject_poison: AtomicBool::new(false),
            lane_width: AtomicU64::new(0),
            disk: None,
        }
    }

    /// Attach a persistent on-disk skeleton cache rooted at `dir` (see
    /// the [`skelcache`](crate::skelcache) module docs for the file
    /// format and invalidation rules). Every load is gated by the
    /// format version, a kernel fingerprint, a payload checksum, and
    /// structural validation; any failure silently rebuilds — a stale
    /// or corrupt cache can cost a rewrite, never a wrong prediction.
    pub fn with_disk_cache(self, dir: &Path) -> Self {
        self.with_disk_cache_fs(dir, Arc::new(crate::skelcache::RealFs))
    }

    /// [`with_disk_cache`](Self::with_disk_cache) on an injected
    /// filesystem — the chaos suite's entry point for disk faults
    /// (ENOSPC, torn writes, bit-rot, rename failure). Opening sweeps
    /// stranded temp files; the count lands in
    /// [`EngineStats::skeleton_disk_tmp_swept`].
    pub fn with_disk_cache_fs(
        mut self,
        dir: &Path,
        fs: Arc<dyn crate::skelcache::CacheFs>,
    ) -> Self {
        // The kernel fingerprint was computed (and cached) with the
        // statics — attaching a disk cache costs no trace serialization.
        let cache = crate::skelcache::DiskCache::with_fs(dir, self.st.kernel_fingerprint, fs);
        self.bump(|s| s.skeleton_disk_tmp_swept += cache.swept());
        self.disk = Some(cache);
        self
    }

    /// The predictor this engine evaluates with.
    pub fn predictor(&self) -> &Predictor {
        self.predictor
    }

    /// Force every skeleton built from now on to be poisoned, so each
    /// candidate takes the exact `rewrite`+`analyze` fallback. Set it
    /// **before** the first evaluation — already-cached healthy
    /// skeletons keep serving. A deterministic stand-in for the real
    /// poisoning trigger (a failed self-check), used by the chaos suite
    /// to assert the fallback is bit-identical to the delta path.
    pub fn inject_poison(&self, on: bool) {
        self.inject_poison.store(on, Ordering::Relaxed);
    }

    /// Fix the lane width of batched replays (`0` = autosize per
    /// skeleton group, the default). Any width yields bit-identical
    /// results — the knob trades decode amortization against per-lane
    /// cache-model memory, and exists mostly for the equivalence suite
    /// and benchmarks.
    pub fn set_lane_width(&self, width: u64) {
        self.lane_width
            .store(width.min(MAX_LANE_WIDTH as u64), Ordering::Relaxed);
    }

    /// Lane width one skeleton group of `group_len` candidates splits
    /// into, given `threads` evaluation workers. Autosizing favors full
    /// groups (maximum decode amortization) but splits a group that
    /// would otherwise leave workers idle.
    fn unit_width(&self, group_len: usize, threads: usize) -> usize {
        let fixed = self.lane_width.load(Ordering::Relaxed) as usize;
        if fixed > 0 {
            return fixed.min(MAX_LANE_WIDTH);
        }
        if threads <= 1 {
            group_len.clamp(1, MAX_LANE_WIDTH)
        } else {
            group_len.div_ceil(threads).clamp(1, MAX_LANE_WIDTH)
        }
    }

    /// The profiled sample this engine searches from.
    pub fn profile(&self) -> &Profile {
        self.profile
    }

    /// Snapshot of the engine's observability counters. The per-search
    /// `strategy` and `gap_upper_bound` stay at their defaults; they are
    /// filled in by `SearchRequest::run` on its outcome's copy.
    pub fn stats(&self) -> EngineStats {
        *lock_cache(&self.counters)
    }

    /// Apply `f` to the counters under their lock. The closure must only
    /// do arithmetic on the counters: the stats lock is a leaf, so no
    /// other lock may be taken while it is held.
    pub(crate) fn bump(&self, f: impl FnOnce(&mut EngineStats)) {
        f(&mut lock_cache(&self.counters));
    }

    fn shared_key(&self, pm: &PlacementMap) -> Vec<bool> {
        (0..self.st.dtypes.len())
            .map(|i| pm.space(ArrayId(i as u32)) == MemorySpace::Shared)
            .collect()
    }

    /// Fetch (or build) the delta memo for `(array, space)` under the
    /// given allocator bases.
    fn get_memo(&self, array: ArrayId, space: MemorySpace, bases: (u64, u64)) -> Arc<MemoRow> {
        let key = MemoKey {
            array,
            space,
            base: bases.0,
            stride: bases.1,
        };
        if let Some(m) = lock_cache(&self.memos).get(&key) {
            return m.clone();
        }
        let built = Arc::new(self.build_memo(array, space, bases));
        // Count only winning inserts: losing a build race must not make
        // the observability counters depend on the worker count. The
        // memo lock is released before the count is bumped.
        let (row, won) = match lock_cache(&self.memos).entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (e.get().clone(), false),
            std::collections::hash_map::Entry::Vacant(v) => (v.insert(built).clone(), true),
        };
        if won {
            self.bump(|s| s.memo_tables_built += 1);
        }
        row
    }

    /// Build the memo row for `(array, space)` under concrete allocator
    /// `bases = (b0, stride)`. When `b0` is a multiple of every granule
    /// the stateless math rounds to (transaction, texture line,
    /// constant word), the row equals the shared base-0 row with `b0`
    /// added to every address — bit-exactly: `floor((a + b0)/g)*g =
    /// floor(a/g)*g + b0` whenever `g | b0`, a uniform shift preserves
    /// sort order and dedup structure, and coalescing groups by
    /// address-over-transaction quotients which all shift together. The
    /// allocator's `OFFCHIP_ALIGN` guarantees the alignment in
    /// practice; the guard keeps any other allocator on the direct
    /// path.
    fn build_memo(&self, array: ArrayId, space: MemorySpace, bases: (u64, u64)) -> MemoRow {
        let cfg = &self.predictor.cfg;
        let b0 = bases.0;
        let aligned = b0.is_multiple_of(cfg.transaction_bytes)
            && b0.is_multiple_of(cfg.tex_cache.line_bytes)
            && b0.is_multiple_of(4);
        if !aligned {
            return self.build_memo_at(array, space, bases);
        }
        let row0 = self.base_row(array, space, bases.1);
        if b0 == 0 {
            return (*row0).clone();
        }
        MemoRow {
            items: row0.items.clone(),
            addrs: row0.addrs.iter().map(|a| a + b0).collect(),
        }
    }

    /// Fetch (or build) the shared base-0 row for `(array, space,
    /// stride)` from the profile-level statics cache. The row is a pure
    /// function of the sample trace and the config — every skeleton
    /// whose allocator lands the array at the same block stride reuses
    /// it, whatever the base.
    fn base_row(&self, array: ArrayId, space: MemorySpace, stride: u64) -> Arc<MemoRow> {
        let key = (array, space_idx(space) as u8, stride);
        if let Some(r) = lock_cache(&self.st.base_rows).get(&key) {
            return r.clone();
        }
        let built = Arc::new(self.build_memo_at(array, space, (0, stride)));
        lock_cache(&self.st.base_rows)
            .entry(key)
            .or_insert(built)
            .clone()
    }

    fn build_memo_at(&self, array: ArrayId, space: MemorySpace, bases: (u64, u64)) -> MemoRow {
        let cfg = &self.predictor.cfg;
        let arr = &self.profile.trace.arrays[array.index()];
        let tex_line = cfg.tex_cache.line_bytes;
        let accesses = &self.st.access_info[array.index()];
        let mut row = MemoRow {
            items: Vec::with_capacity(accesses.len()),
            addrs: Vec::new(),
        };
        let empty = MemoItem {
            kind: MemoKind::Empty,
            is_store: false,
            replays: 0,
            start: 0,
            len: 0,
        };
        // Reused per-access scratch: the lanes' addresses and their
        // transactions / lines / words.
        let (mut lanes, mut granules) = (Vec::new(), Vec::new());
        for acc in accesses {
            let base = bases.0 + bases.1 * u64::from(acc.block);
            lanes.clear();
            lanes.extend(
                acc.idx
                    .iter()
                    .flatten()
                    .map(|&ix| base + element_offset(arr, space, ix, cfg)),
            );
            if lanes.is_empty() {
                row.items.push(empty);
                continue;
            }
            let start = row.addrs.len() as u32;
            let (kind, is_store, replays) = match space {
                MemorySpace::Global => {
                    let replays = coalesce_into(
                        lanes.iter().copied(),
                        u64::from(acc.elem_bytes),
                        cfg.transaction_bytes,
                        &mut granules,
                    );
                    (MemoKind::Global, acc.is_store, replays)
                }
                MemorySpace::Texture1D | MemorySpace::Texture2D => {
                    hms_cache::granules_into(&lanes, tex_line, &mut granules);
                    (MemoKind::Tex, false, 0)
                }
                MemorySpace::Constant => {
                    hms_cache::granules_into(&lanes, 4, &mut granules);
                    (MemoKind::Const, false, 0)
                }
                // Shared-placed arrays never appear as Body events;
                // an empty outcome keeps the replay total-safe.
                MemorySpace::Shared => {
                    row.items.push(empty);
                    continue;
                }
            };
            row.addrs.extend_from_slice(&granules);
            row.items.push(MemoItem {
                kind,
                is_store,
                replays,
                start,
                len: granules.len() as u32,
            });
        }
        row
    }

    /// Get (or load from disk, or build recording one full rewrite)
    /// the skeleton for the shared set of `canonical`.
    fn skeleton_for(&self, canonical: &PlacementMap) -> Arc<Skeleton> {
        let key = self.shared_key(canonical);
        if let Some(s) = lock_cache(&self.skeletons).get(&key) {
            return s.clone();
        }
        let built = self.load_or_build(canonical, &key);
        lock_cache(&self.skeletons)
            .entry(key)
            .or_insert(built)
            .clone()
    }

    /// Probe the persistent cache (when configured), falling back to a
    /// full build; healthy fresh builds are written back. Does not
    /// touch the in-memory skeleton map.
    fn load_or_build(&self, canonical: &PlacementMap, key: &[bool]) -> Arc<Skeleton> {
        let Some(disk) = &self.disk else {
            return Arc::new(self.build_skeleton(canonical));
        };
        if let Some(skel) = disk.load(key) {
            if self.skeleton_is_plausible(&skel) {
                self.bump(|s| s.skeleton_disk_hits += 1);
                return Arc::new(skel);
            }
        }
        self.bump(|s| s.skeleton_disk_misses += 1);
        let built = Arc::new(self.build_skeleton(canonical));
        if !built.poisoned && disk.store(key, &built) {
            self.bump(|s| s.skeleton_disk_writes += 1);
        }
        built
    }

    /// Structural validation of a deserialized skeleton against this
    /// engine's trace: every record must decode to in-bounds indices.
    /// Defense in depth behind the checksum — a file that passes the
    /// header checks but indexes out of range is treated as a miss
    /// rather than a panic source.
    fn skeleton_is_plausible(&self, skel: &Skeleton) -> bool {
        let n = self.st.dtypes.len();
        let num_sms = u64::from(self.predictor.cfg.num_sms);
        if skel.bases.len() != n || skel.poisoned {
            return false;
        }
        skel.events.iter().all(|ev| {
            if ev.kind > EV_L2_PROBE || u64::from(ev.sm) >= num_sms {
                return false;
            }
            match ev.kind {
                EV_ADDR_CALC => (ev.arr as usize) < n,
                EV_BODY => {
                    (ev.arr as usize) < n
                        && (ev.x as usize) < self.st.access_info[ev.arr as usize].len()
                }
                EV_STAGING_GLOBAL => {
                    u64::from(ev.tx) + u64::from(ev.tx_len) <= skel.tx_arena.len() as u64
                }
                _ => true,
            }
        })
    }

    /// Resolve one skeleton per group (building the missing ones in
    /// parallel) and warm every `(array, space, base)` memo the group
    /// members will need — sequentially, so the parallel evaluation
    /// pass only reads. Returns skeletons aligned with `groups`.
    fn prepare_groups(
        &self,
        candidates: &[PlacementMap],
        groups: &[(Vec<bool>, Vec<usize>)],
        threads: usize,
    ) -> Vec<Arc<Skeleton>> {
        let t0 = Instant::now();
        let missing: Vec<(&Vec<bool>, &PlacementMap)> = {
            let cache = lock_cache(&self.skeletons);
            groups
                .iter()
                .filter(|(key, _)| !cache.contains_key(key))
                .map(|(key, members)| (key, &candidates[members[0]]))
                .collect()
        };
        let built = hms_stats::par::par_map_steal(threads, &missing, |(key, pm)| {
            self.load_or_build(pm, key)
        });
        {
            let mut cache = lock_cache(&self.skeletons);
            for ((key, _), skel) in missing.iter().zip(built) {
                cache.entry((*key).clone()).or_insert(skel);
            }
        }
        let skels: Vec<Arc<Skeleton>> = {
            let cache = lock_cache(&self.skeletons);
            groups
                .iter()
                .map(|(key, _)| cache.get(key).expect("group prepared").clone())
                .collect()
        };
        for ((_, members), skel) in groups.iter().zip(&skels) {
            if skel.poisoned {
                continue;
            }
            for i in 0..self.st.dtypes.len() {
                if self.st.access_info[i].is_empty() {
                    continue;
                }
                // Distinct spaces across the group's members, as a
                // 5-bit set — one memo fetch per (array, space).
                let mut seen = 0u8;
                for &ci in members {
                    let space = candidates[ci].space(ArrayId(i as u32));
                    if space == MemorySpace::Shared {
                        continue;
                    }
                    let bit = 1u8 << space_idx(space);
                    if seen & bit == 0 {
                        seen |= bit;
                        self.get_memo(ArrayId(i as u32), space, skel.bases[i]);
                    }
                }
            }
        }
        self.bump(|s| s.prepare_nanos += t0.elapsed().as_nanos() as u64);
        skels
    }

    fn build_skeleton(&self, canonical: &PlacementMap) -> Skeleton {
        let cfg = &self.predictor.cfg;
        self.bump(|s| {
            s.skeletons_built += 1;
            s.full_rewrites += 1;
        });
        let n = self.st.dtypes.len();
        let poisoned_skeleton = || Skeleton {
            consts: TraceAnalysis::default(),
            events: Vec::new(),
            tx_arena: Vec::new(),
            bases: vec![(0, 0); n],
            poisoned: true,
        };
        if self.inject_poison.load(Ordering::Relaxed) {
            return poisoned_skeleton();
        }
        let Ok(rewritten) = rewrite(&self.profile.trace, canonical, cfg) else {
            return poisoned_skeleton();
        };
        let mut rec = Recorder {
            map: &self.st.warp_body_map,
            events: Vec::new(),
            tx_arena: Vec::new(),
            last_advance: vec![None; cfg.num_sms as usize],
            ok: true,
        };
        let canonical_analysis =
            analyze_observed(&rewritten, cfg, AnalysisOptions::default(), &mut rec);
        if !rec.ok {
            return poisoned_skeleton();
        }
        let bases: Vec<(u64, u64)> = (0..n)
            .map(|i| {
                let id = ArrayId(i as u32);
                if canonical.space(id) == MemorySpace::Shared {
                    (0, 0)
                } else {
                    let b0 = rewritten.alloc.base(id, 0, canonical);
                    let stride = if rewritten.geometry.grid_blocks > 1 {
                        rewritten.alloc.base(id, 1, canonical) - b0
                    } else {
                        0
                    };
                    (b0, stride)
                }
            })
            .collect();
        let mut consts = canonical_analysis.clone();
        consts.executed = 0;
        consts.replay_global_divergence = 0;
        consts.replay_const_miss = 0;
        consts.replay_const_divergence = 0;
        consts.global_requests = 0;
        consts.global_transactions = 0;
        consts.tex_requests = 0;
        consts.tex_transactions = 0;
        consts.tex_misses = 0;
        consts.const_requests = 0;
        consts.const_transactions = 0;
        consts.const_misses = 0;
        consts.l2_transactions = 0;
        consts.l2_misses = 0;
        consts.l2_writebacks = 0;
        consts.dram.clear();
        let skel = Skeleton {
            consts,
            events: rec.events,
            tx_arena: rec.tx_arena,
            bases,
            poisoned: false,
        };
        // Self-check: replaying the canonical placement must reproduce
        // the direct analysis bit for bit. A mismatch poisons the
        // skeleton — its candidates silently use the exact path.
        if self.replay(&skel, canonical) != canonical_analysis {
            return Skeleton {
                poisoned: true,
                ..skel
            };
        }
        skel
    }

    /// Event-major lane-batched replay: stream the skeleton's event
    /// column **once** while updating `targets.len()` candidate lanes
    /// simultaneously, calling `sink(lane_index, &analysis)` per lane
    /// when the stream ends. Placement-invariant events (`EV_ADVANCE`,
    /// `EV_STAGING_GLOBAL` and its transaction walk, `EV_L2_PROBE`) are
    /// decoded once and broadcast to every lane; `EV_ADDR_CALC` and
    /// `EV_BODY` dispatch per lane on that lane's space for the active
    /// array, with the memo row resolved once per `(array, space)` and
    /// shared by every lane placing the array there. Each lane carries
    /// fully independent model state and performs exactly the operation
    /// sequence the per-candidate replay would — bit-identity for every
    /// lane width falls out by construction.
    fn replay_batch_with(
        &self,
        skel: &Skeleton,
        targets: &[&PlacementMap],
        mut sink: impl FnMut(usize, &TraceAnalysis),
    ) {
        let cfg = &self.predictor.cfg;
        let n_arrays = self.st.dtypes.len();
        let width = targets.len();
        debug_assert!(width <= MAX_LANE_WIDTH);
        self.bump(|s| {
            s.batched_replays += 1;
            s.events_streamed += skel.events.len() as u64;
            s.lane_width = s.lane_width.max(width as u64);
        });
        REPLAY_SCRATCH.with(|cell| {
            let mut slot = cell.borrow_mut();
            let scratch = match slot.as_mut() {
                Some(s) if s.matches(cfg) => s,
                _ => {
                    *slot = Some(ReplayScratch::new(cfg));
                    slot.as_mut().unwrap()
                }
            };
            scratch.reset(width, n_arrays, cfg, &skel.consts);
            let ReplayScratch { lanes, memo_slots } = scratch;
            let lanes = &mut lanes[..width];
            for (lane, pm) in lanes.iter_mut().zip(targets) {
                for i in 0..n_arrays {
                    let space = pm.space(ArrayId(i as u32));
                    lane.space_of.push(space_idx(space) as u8);
                    lane.addr_n
                        .push(u64::from(addr_calc_instrs(space, self.st.dtypes[i])));
                }
            }
            // Placement-invariant progress is accumulated once in shared
            // bases rather than per lane: `lane.sm_pos` holds only the
            // lane-dependent offset contributed by address-calculation
            // events, so the effective position is `pos_base[sm] +
            // lane.sm_pos[sm]` and EV_ADVANCE costs O(1) instead of
            // O(lanes). u64 addition is associative, so totals stay
            // bit-identical to the unsplit accumulation.
            let mut executed_base = 0u64;
            let mut pos_base = vec![0u64; self.predictor.cfg.num_sms as usize];
            for ev in &skel.events {
                let sm = ev.sm as usize;
                match ev.kind {
                    EV_ADVANCE => {
                        executed_base += ev.x;
                        pos_base[sm] += ev.x;
                    }
                    EV_ADDR_CALC => {
                        let ai = ev.arr as usize;
                        for lane in lanes.iter_mut() {
                            let n = lane.addr_n[ai] * ev.x;
                            lane.out.executed += n;
                            lane.sm_pos[sm] += n;
                        }
                    }
                    EV_STAGING_GLOBAL => {
                        executed_base += 1;
                        pos_base[sm] += 1;
                        let base = pos_base[sm];
                        let txs = &skel.tx_arena[ev.tx as usize..(ev.tx + ev.tx_len) as usize];
                        for lane in lanes.iter_mut() {
                            lane.out.global_requests += 1;
                            lane.out.global_transactions += u64::from(ev.tx_len);
                            lane.out.replay_global_divergence += ev.x;
                            let pos = base + lane.sm_pos[sm];
                            for &t in txs {
                                l2_fill(
                                    &mut lane.l2,
                                    &mut lane.out,
                                    t,
                                    L2Source::Global,
                                    pos,
                                    ev.sm as u32,
                                    ev.flag != 0,
                                );
                            }
                        }
                    }
                    EV_L2_PROBE => {
                        let base = pos_base[sm];
                        for lane in lanes.iter_mut() {
                            l2_fill(
                                &mut lane.l2,
                                &mut lane.out,
                                ev.x,
                                L2Source::Global,
                                base + lane.sm_pos[sm],
                                ev.sm as u32,
                                ev.flag != 0,
                            );
                        }
                    }
                    _ => {
                        // EV_BODY
                        let ai = ev.arr as usize;
                        let ord = ev.x as usize;
                        executed_base += 1;
                        pos_base[sm] += 1;
                        let base = pos_base[sm];
                        for lane in lanes.iter_mut() {
                            let si = lane.space_of[ai] as usize;
                            let memo = memo_slots[ai * 5 + si].get_or_insert_with(|| {
                                self.get_memo(ArrayId(ev.arr), MemorySpace::ALL[si], skel.bases[ai])
                            });
                            let pos = base + lane.sm_pos[sm];
                            let item = memo.items[ord];
                            match item.kind {
                                MemoKind::Empty => {}
                                MemoKind::Global => {
                                    lane.out.global_requests += 1;
                                    lane.out.global_transactions += u64::from(item.len);
                                    lane.out.replay_global_divergence += u64::from(item.replays);
                                    for &t in memo.span(&item) {
                                        l2_fill(
                                            &mut lane.l2,
                                            &mut lane.out,
                                            t,
                                            L2Source::Global,
                                            pos,
                                            ev.sm as u32,
                                            item.is_store,
                                        );
                                    }
                                }
                                MemoKind::Tex => {
                                    let (transactions, misses) = lane.tex_caches[sm]
                                        .access_lines_into(memo.span(&item), &mut lane.missed);
                                    lane.out.tex_requests += 1;
                                    lane.out.tex_transactions += u64::from(transactions);
                                    lane.out.tex_misses += u64::from(misses);
                                    for line in &lane.missed {
                                        l2_fill(
                                            &mut lane.l2,
                                            &mut lane.out,
                                            *line,
                                            L2Source::Texture,
                                            pos,
                                            ev.sm as u32,
                                            false,
                                        );
                                    }
                                }
                                MemoKind::Const => {
                                    let (transactions, misses) = lane.const_caches[sm]
                                        .access_words_into(memo.span(&item), &mut lane.missed);
                                    lane.out.const_requests += 1;
                                    lane.out.const_transactions += u64::from(transactions);
                                    lane.out.const_misses += u64::from(misses);
                                    lane.out.replay_const_divergence += u64::from(transactions - 1);
                                    lane.out.replay_const_miss += u64::from(misses);
                                    for line in &lane.missed {
                                        l2_fill(
                                            &mut lane.l2,
                                            &mut lane.out,
                                            *line,
                                            L2Source::Constant,
                                            pos,
                                            ev.sm as u32,
                                            false,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
            for (li, lane) in lanes.iter_mut().enumerate() {
                lane.out.executed += executed_base;
                lane.out.l2_transactions = lane.l2.transactions();
                lane.out.l2_misses = lane.l2.misses();
                lane.out.l2_writebacks = lane.l2.writebacks();
                sink(li, &lane.out);
            }
        });
    }

    /// Batched replay returning owned analyses, one per target, in
    /// input order. The hot search path goes through
    /// [`replay_batch_with`](Self::replay_batch_with) instead to skip
    /// the per-lane clone.
    pub(crate) fn replay_batch(
        &self,
        skel: &Skeleton,
        targets: &[&PlacementMap],
    ) -> Vec<TraceAnalysis> {
        let mut out = Vec::with_capacity(targets.len());
        self.replay_batch_with(skel, targets, |_, a| out.push(a.clone()));
        out
    }

    /// Single-candidate replay: a one-lane batch.
    fn replay(&self, skel: &Skeleton, target: &PlacementMap) -> TraceAnalysis {
        self.replay_batch(skel, &[target]).pop().expect("one lane")
    }

    /// Predict `target`'s execution time through the incremental path
    /// (exact fallback when the shared set's skeleton is poisoned).
    /// Bit-identical to [`Predictor::predict`].
    pub fn predict(&self, target: &PlacementMap) -> Result<Prediction, HmsError> {
        target.validate(&self.profile.trace.arrays, &self.predictor.cfg)?;
        let skel = self.skeleton_for(target);
        if skel.poisoned {
            self.bump(|s| {
                s.exact_fallbacks += 1;
                s.full_rewrites += 1;
            });
            return self.predictor.predict(self.profile, target);
        }
        let analysis = self.replay(&skel, target);
        self.bump(|s| s.delta_cache_hits += 1);
        let pred = self.predictor.predict_prepared(
            self.profile,
            analysis,
            self.st.sample_analysis.as_ref(),
        );
        if pred.cycles.is_finite() {
            Ok(pred)
        } else {
            Err(HmsError::NonFinitePrediction {
                cycles: pred.cycles,
                t_comp: pred.t_comp,
                t_mem: pred.t_mem,
                t_overlap: pred.t_overlap,
            })
        }
    }

    /// Evaluate and rank `candidates` (ascending predicted time, stable
    /// on ties). Bit-identical to the naive
    /// [`rank_placements_naive`](crate::search::rank_placements_naive)
    /// for every worker count.
    pub fn rank(
        &self,
        candidates: &[PlacementMap],
        threads: usize,
    ) -> Result<Vec<RankedPlacement>, HmsError> {
        let mut ranked = self.evaluate_batch(candidates, threads)?;
        ranked.sort_by(|a, b| a.predicted_cycles.total_cmp(&b.predicted_cycles));
        Ok(ranked)
    }

    /// Evaluate `candidates` in input order (no sort): group them by
    /// shared-memory set, prepare each group's skeleton and memos, then
    /// feed lane batches to `threads` workers — each batch streams its
    /// skeleton's event column once for all its lanes. Workers steal
    /// whole units across skeleton groups; results reassemble by input
    /// index, so the output is bit-identical for any worker count and
    /// any lane width. So are the counters of work done per candidate or
    /// per skeleton (rewrites, skeletons, delta hits, fallbacks, memo
    /// tables, evaluations). `batched_replays`, `events_streamed` and
    /// `lane_width` follow the lane width, which autosizing derives from
    /// the worker count.
    pub(crate) fn evaluate_batch(
        &self,
        candidates: &[PlacementMap],
        threads: usize,
    ) -> Result<Vec<RankedPlacement>, HmsError> {
        let mut groups: Vec<(Vec<bool>, Vec<usize>)> = Vec::new();
        {
            let mut group_of: HashMap<Vec<bool>, usize> = HashMap::new();
            for (i, pm) in candidates.iter().enumerate() {
                let key = self.shared_key(pm);
                if let Some(&g) = group_of.get(&key) {
                    groups[g].1.push(i);
                } else {
                    group_of.insert(key.clone(), groups.len());
                    groups.push((key, vec![i]));
                }
            }
        }
        let skels = self.prepare_groups(candidates, &groups, threads);
        let t0 = Instant::now();
        let mut units: Vec<(usize, &[usize])> = Vec::new();
        for (g, (_, members)) in groups.iter().enumerate() {
            let width = self.unit_width(members.len(), threads);
            for chunk in members.chunks(width) {
                units.push((g, chunk));
            }
        }
        let per_unit = hms_stats::par::par_map_steal(threads, &units, |&(g, chunk)| {
            self.evaluate_unit(&skels[g], candidates, chunk)
        });
        let mut slots: Vec<Option<Result<f64, HmsError>>> = Vec::new();
        slots.resize_with(candidates.len(), || None);
        for unit in per_unit {
            for (ci, r) in unit {
                slots[ci] = Some(r);
            }
        }
        let mut ranked = Vec::with_capacity(candidates.len());
        for (i, slot) in slots.into_iter().enumerate() {
            let cycles = slot.expect("every candidate evaluated")?;
            ranked.push(RankedPlacement {
                placement: candidates[i].clone(),
                predicted_cycles: cycles,
            });
        }
        self.bump(|s| {
            s.candidates_evaluated += candidates.len() as u64;
            s.evaluate_nanos += t0.elapsed().as_nanos() as u64;
        });
        Ok(ranked)
    }

    /// Evaluate one lane batch: validate each member (the same check
    /// [`predict`](Self::predict) runs), replay the valid lanes in one
    /// event-stream pass, and turn each lane's borrowed analysis into
    /// cycles without cloning it. A poisoned skeleton routes the whole
    /// unit through the per-candidate exact path.
    fn evaluate_unit(
        &self,
        skel: &Skeleton,
        candidates: &[PlacementMap],
        chunk: &[usize],
    ) -> Vec<(usize, Result<f64, HmsError>)> {
        let mut out = Vec::with_capacity(chunk.len());
        if skel.poisoned {
            for &ci in chunk {
                let pm = &candidates[ci];
                let r = pm
                    .validate(&self.profile.trace.arrays, &self.predictor.cfg)
                    .and_then(|()| {
                        self.bump(|s| {
                            s.exact_fallbacks += 1;
                            s.full_rewrites += 1;
                        });
                        self.predictor.predict(self.profile, pm).map(|p| p.cycles)
                    });
                out.push((ci, r));
            }
            return out;
        }
        let mut lanes: Vec<&PlacementMap> = Vec::with_capacity(chunk.len());
        let mut lane_ci: Vec<usize> = Vec::with_capacity(chunk.len());
        for &ci in chunk {
            let pm = &candidates[ci];
            match pm.validate(&self.profile.trace.arrays, &self.predictor.cfg) {
                Ok(()) => {
                    lanes.push(pm);
                    lane_ci.push(ci);
                }
                Err(e) => out.push((ci, Err(e))),
            }
        }
        if lanes.is_empty() {
            return out;
        }
        self.bump(|s| s.delta_cache_hits += lanes.len() as u64);
        self.replay_batch_with(skel, &lanes, |li, analysis| {
            let (cycles, t_comp, t_mem, t_overlap) = self.predictor.predict_parts(
                self.profile,
                analysis,
                self.st.sample_analysis.as_ref(),
            );
            let r = if cycles.is_finite() {
                Ok(cycles)
            } else {
                Err(HmsError::NonFinitePrediction {
                    cycles,
                    t_comp,
                    t_mem,
                    t_overlap,
                })
            };
            out.push((lane_ci[li], r));
        });
        out
    }

    /// Standalone-legal spaces for each array (superset of the jointly
    /// legal spaces) — drives branch-and-bound enumeration.
    pub(crate) fn legal_spaces(&self, array: ArrayId) -> &[MemorySpace] {
        &self.st.lb.legal_spaces[array.index()]
    }

    /// Monotone lower bound on the predicted cycles of **any** legal
    /// completion of a partial assignment (`None` = free array; fixed
    /// arrays carry `Some(space)`).
    ///
    /// `T >= T_comp + (1 - max_ratio) x T_mem`, with `T_comp` floored by
    /// the body's placement-invariant issue slots, per-space stateless
    /// replays and addressing expansion (free arrays take their minimum
    /// over standalone-legal spaces) at maximum-occupancy throughput,
    /// and `T_mem` floored by the body wait chain at minimum waves times
    /// an AMAT floor built from per-space hit latencies (staging can
    /// only pull AMAT toward `c_min`, never below `min(A/B, c_min)`).
    /// A `1 - 1e-9` discount absorbs float-rounding asymmetry between
    /// the bound's and the model's operation order.
    pub(crate) fn lower_bound(&self, spaces: &[Option<MemorySpace>]) -> f64 {
        let lb = &self.st.lb;
        let mut amat_num = 0.0f64;
        let mut issued = lb.body_fixed_executed + lb.other_replays;
        for (i, s) in spaces.iter().enumerate() {
            match s {
                Some(sp) => {
                    let k = space_idx(*sp);
                    issued += lb.expansion[i][k] + lb.stateless_replays[i][k];
                    amat_num += lb.body_requests[i] as f64 * lb.floor_lat[k];
                }
                None => {
                    issued += lb.free_expansion[i] + lb.free_replays[i];
                    amat_num += lb.body_requests[i] as f64 * lb.free_floor[i];
                }
            }
        }
        let inst_per_warp = if lb.detailed {
            issued as f64 / lb.total_warps
        } else {
            lb.inst_executed_sample as f64 / lb.total_warps
        };
        let tc = inst_per_warp * lb.total_warps / lb.active_sms * lb.thr_min + lb.w_serial_lb;
        let amat = if lb.body_mem_instrs == 0 {
            0.0
        } else {
            (amat_num / lb.body_mem_instrs as f64).min(lb.c_min)
        };
        let tm = lb.body_wait_events as f64 / lb.total_warps * lb.waves_min * amat;
        (tc + (1.0 - lb.rmax) * tm).max(1.0) * (1.0 - 1e-9)
    }
}

/// Records [`WalkEvent`]s into the skeleton's replayable stream: body
/// accesses resolve to `(array, ordinal)` through the per-warp body map
/// (indexed by warp position, identity-checked), staging transactions
/// are copied from the walk's own coalescing, and adjacent same-SM
/// advances merge.
struct Recorder<'e> {
    map: &'e [WarpBody],
    events: Vec<EventRec>,
    tx_arena: Vec<u64>,
    /// Index of the last `Advance` per SM, merge target for runs.
    last_advance: Vec<Option<usize>>,
    ok: bool,
}

impl Recorder<'_> {
    fn advance(&mut self, sm: usize, n: u64) {
        if let Some(i) = self.last_advance[sm] {
            let e = &mut self.events[i];
            if e.kind == EV_ADVANCE {
                e.x += n;
                return;
            }
        }
        self.last_advance[sm] = Some(self.events.len());
        self.events.push(EventRec {
            kind: EV_ADVANCE,
            flag: 0,
            sm: sm as u16,
            arr: 0,
            x: n,
            tx: 0,
            tx_len: 0,
        });
    }
}

impl WalkObserver for Recorder<'_> {
    fn event(&mut self, ev: WalkEvent<'_>) {
        match ev {
            WalkEvent::Advance { sm, n } => self.advance(sm, n),
            WalkEvent::AddrCalc { sm, array, count } => {
                self.last_advance[sm] = None;
                self.events.push(EventRec {
                    kind: EV_ADDR_CALC,
                    flag: 0,
                    sm: sm as u16,
                    arr: array.0,
                    x: u64::from(count),
                    tx: 0,
                    tx_len: 0,
                });
            }
            WalkEvent::LocalFill { sm, addr, is_store } => {
                self.last_advance[sm] = None;
                self.events.push(EventRec {
                    kind: EV_L2_PROBE,
                    flag: u8::from(is_store),
                    sm: sm as u16,
                    arr: 0,
                    x: addr,
                    tx: 0,
                    tx_len: 0,
                });
            }
            WalkEvent::Body {
                sm,
                warp_idx,
                block,
                warp,
                body_idx,
                array: ev_array,
            } => match self
                .map
                .get(warp_idx)
                .filter(|w| (w.block, w.warp) == (block, warp))
                .and_then(|w| w.slots.get(body_idx))
                .copied()
                .flatten()
            {
                Some((array, ordinal)) => {
                    debug_assert_eq!(array, ev_array);
                    self.last_advance[sm] = None;
                    self.events.push(EventRec {
                        kind: EV_BODY,
                        flag: 0,
                        sm: sm as u16,
                        arr: array.0,
                        x: u64::from(ordinal),
                        tx: 0,
                        tx_len: 0,
                    });
                }
                None => self.ok = false,
            },
            WalkEvent::StagingGlobal {
                sm,
                is_store,
                replays,
                transactions,
            } => {
                self.last_advance[sm] = None;
                let tx = self.tx_arena.len() as u32;
                self.tx_arena.extend_from_slice(transactions);
                self.events.push(EventRec {
                    kind: EV_STAGING_GLOBAL,
                    flag: u8::from(is_store),
                    sm: sm as u16,
                    arr: 0,
                    x: u64::from(replays),
                    tx,
                    tx_len: transactions.len() as u32,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_sample;
    use crate::search::enumerate_placements;
    use hms_kernels::Scale;

    fn setup(name: &str) -> (Predictor, Profile, Vec<hms_types::ArrayDef>) {
        let cfg = GpuConfig::test_small();
        let kt = hms_kernels::by_name(name, Scale::Test).expect("kernel exists");
        let profile = profile_sample(&kt, &kt.default_placement(), &cfg).unwrap();
        (Predictor::new(cfg), profile, kt.arrays)
    }

    #[test]
    fn engine_matches_naive_predictor_bitwise() {
        let (predictor, profile, arrays) = setup("vecadd");
        let base = profile.trace.placement.clone();
        let ids: Vec<ArrayId> = arrays.iter().map(|a| a.id).collect();
        let cands = enumerate_placements(&arrays, &base, &ids, &predictor.cfg, 4096);
        let engine = Engine::new(&predictor, &profile);
        for pm in &cands {
            let fast = engine.predict(pm).unwrap();
            let slow = predictor.predict(&profile, pm).unwrap();
            assert_eq!(
                fast.cycles.to_bits(),
                slow.cycles.to_bits(),
                "divergence for {pm:?}"
            );
            assert_eq!(fast.analysis, slow.analysis, "analysis drift for {pm:?}");
        }
        let stats = engine.stats();
        assert_eq!(stats.exact_fallbacks, 0, "no skeleton may fail self-check");
        assert!(stats.skeletons_built < cands.len() as u64);
    }

    #[test]
    fn skeletons_are_shared_per_shared_set() {
        let (predictor, profile, arrays) = setup("vecadd");
        let base = profile.trace.placement.clone();
        // a and b are read-only: 4 spaces each; one skeleton per shared
        // subset of {a, b} = 4 skeletons for 16 candidates.
        let cands = enumerate_placements(
            &arrays,
            &base,
            &[ArrayId(0), ArrayId(1)],
            &predictor.cfg,
            4096,
        );
        assert_eq!(cands.len(), 16);
        let engine = Engine::new(&predictor, &profile);
        let ranked = engine.rank(&cands, 1).unwrap();
        assert_eq!(ranked.len(), 16);
        let stats = engine.stats();
        assert_eq!(stats.skeletons_built, 4);
        assert_eq!(stats.full_rewrites, 4);
        assert_eq!(stats.delta_cache_hits, 16); // self-check replays bypass predict()
        assert!(stats.rewrite_reduction() >= 4.0);
    }

    #[test]
    fn injected_poison_degrades_to_exact_path_bit_identically() {
        let (predictor, profile, arrays) = setup("vecadd");
        let base = profile.trace.placement.clone();
        let ids: Vec<ArrayId> = arrays.iter().map(|a| a.id).collect();
        let cands = enumerate_placements(&arrays, &base, &ids, &predictor.cfg, 4096);

        let healthy = Engine::new(&predictor, &profile);
        let ranked = healthy.rank(&cands, 1).unwrap();

        let faulted = Engine::new(&predictor, &profile);
        faulted.inject_poison(true);
        let ranked_faulted = faulted.rank(&cands, 1).unwrap();

        assert_eq!(ranked.len(), ranked_faulted.len());
        for (a, b) in ranked.iter().zip(&ranked_faulted) {
            assert_eq!(a.placement, b.placement);
            assert_eq!(
                a.predicted_cycles.to_bits(),
                b.predicted_cycles.to_bits(),
                "poisoned fallback diverged for {:?}",
                a.placement
            );
        }
        let stats = faulted.stats();
        assert_eq!(stats.exact_fallbacks, cands.len() as u64);
        assert_eq!(stats.delta_cache_hits, 0);

        // Recovery: toggling injection off lets fresh skeletons build,
        // but the poisoned ones already cached keep falling back.
        faulted.inject_poison(false);
        let again = faulted.rank(&cands, 1).unwrap();
        assert_eq!(again.len(), ranked.len());
    }

    #[test]
    fn lower_bound_never_exceeds_true_prediction() {
        for name in ["vecadd", "spmv", "stencil2d"] {
            let (predictor, profile, arrays) = setup(name);
            let base = profile.trace.placement.clone();
            let ids: Vec<ArrayId> = arrays.iter().map(|a| a.id).collect();
            let cands = enumerate_placements(&arrays, &base, &ids, &predictor.cfg, 256);
            let engine = Engine::new(&predictor, &profile);
            let free = vec![None; arrays.len()];
            let lb_all_free = engine.lower_bound(&free);
            for pm in &cands {
                let pred = engine.predict(pm).unwrap();
                let assigned: Vec<Option<MemorySpace>> = (0..arrays.len())
                    .map(|i| Some(pm.space(ArrayId(i as u32))))
                    .collect();
                let lb = engine.lower_bound(&assigned);
                assert!(
                    lb <= pred.cycles,
                    "{name}: bound {lb} exceeds prediction {} for {pm:?}",
                    pred.cycles
                );
                assert!(
                    lb_all_free <= lb + 1e-9,
                    "{name}: freeing arrays must not raise the bound"
                );
            }
        }
    }
}
