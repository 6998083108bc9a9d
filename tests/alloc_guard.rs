//! Allocation guard for the cold skeleton-build path.
//!
//! A shared-memory placement makes every block stage the array from
//! global memory (paper Section III-B), so the analysis walk of such a
//! placement visits thousands of synthesized copy ops. The walk
//! generates those copies in place and coalesces, bank-sorts and probes
//! through reused scratch, and the engine's recorder and memo builder
//! reuse the walk's transactions and their own scratch, so the heap
//! traffic of `analyze` and of a cold `Engine::rank` grows with the
//! machine (per-SM caches) and with warps, never with memory ops.
//!
//! This binary counts every heap allocation (fresh blocks and
//! reallocations) through a counting global allocator, which affects
//! this test binary only, and bounds both windows by `FIXED + PER_WARP
//! * warps` for every Test-scale kernel with an array in shared memory.
//! A cold rank also rewrites the sample trace into a `ConcreteTrace`,
//! whose representation owns one lane vector per body memory op; that
//! rewrite's allocations are counted separately, through the same public
//! `rewrite` call on the same inputs, and excluded from the rank window.
//!
//! Everything runs in one `#[test]` so no other test thread allocates
//! while a window is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gpu_hms::prelude::*;
use hms_core::analysis::analyze;
use hms_trace::{materialize, rewrite};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Allocations any window may make regardless of size (the per-SM
/// caches, the analysis result, the skeleton's columns).
const FIXED: u64 = 300;
/// Allocations per warp (cursor and per-warp bookkeeping growth).
const PER_WARP: u64 = 2;

#[test]
fn cold_build_allocations_grow_with_warps_not_memory_ops() {
    let cfg = GpuConfig::test_small();
    let predictor = Predictor::new(cfg.clone());
    let mut staging_heavy = 0;
    for spec in registry() {
        let kt = (spec.build)(Scale::Test);
        let base = kt.default_placement();
        // The first array that may live in shared memory.
        let Some(shared) = kt
            .arrays
            .iter()
            .map(|a| base.with(a.id, MemorySpace::Shared))
            .find(|pm| pm.validate(&kt.arrays, &cfg).is_ok())
        else {
            continue;
        };
        let ct = materialize(&kt, &shared, &cfg).unwrap();
        let (analysis, walk) = allocations(|| analyze(&ct, &cfg));
        let mem_ops = analysis.mem_instrs;
        let warps = ct.warps.len() as u64;

        let profile = profile_sample(&kt, &base, &cfg).unwrap();
        let (_, rewrite_allocs) = allocations(|| rewrite(&profile.trace, &shared, &cfg).unwrap());
        // Construction builds the per-profile statics (one sample
        // scan) outside the window.
        let engine = Engine::new(&predictor, &profile);
        let (ranked, rank) = allocations(|| engine.rank(std::slice::from_ref(&shared), 1));
        ranked.unwrap();
        let stats = engine.stats();
        assert_eq!(stats.skeletons_built, 1, "{}: rank was not cold", spec.name);
        assert_eq!(stats.exact_fallbacks, 0, "{}: skeleton poisoned", spec.name);
        let rank = rank - rewrite_allocs;

        let bound = FIXED + PER_WARP * warps;
        println!(
            "{}: {mem_ops} memory ops, {warps} warps: analyze {walk}, \
             cold rank {rank} (+{rewrite_allocs} rewrite); bound {bound}",
            spec.name
        );
        assert!(
            walk <= bound,
            "{}: analyze made {walk} allocations for {warps} warps, {mem_ops} memory ops \
             (bound {bound})",
            spec.name
        );
        assert!(
            rank <= bound,
            "{}: a cold rank made {rank} allocations besides the rewrite for {warps} warps, \
             {mem_ops} memory ops (bound {bound})",
            spec.name
        );
        if mem_ops > 8 * bound {
            staging_heavy += 1;
        }
    }
    // The bound must bite: some kernels walk far more memory ops than
    // the bound allows allocations.
    assert!(
        staging_heavy >= 3,
        "only {staging_heavy} staging-heavy kernels"
    );
}
