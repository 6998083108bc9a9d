//! Seeded workload inputs. Everything a run feeds the program is made
//! here from `--seed`: the same seed gives the same inputs, and the
//! program sees only what these functions return.

use std::collections::{HashMap, HashSet};

use hms_kernels::Scale;
use hms_stats::rng::Rng;
use hms_trace::KernelTrace;
use hms_types::{GpuConfig, MemorySpace, PlacementMap};

/// Independent streams of one seed, so adding draws to one input does
/// not shift another.
fn rng(seed: u64, stream: u64) -> Rng {
    Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `k` distinct indices below `n`, seeded, in ascending order.
pub fn subset(seed: u64, stream: u64, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    rng(seed, stream).shuffle(&mut idx);
    idx.truncate(k.min(n));
    idx.sort_unstable();
    idx
}

// ---------------------------------------------------------------------
// search-wide
// ---------------------------------------------------------------------

/// Array counts of the synthetic wide kernels searched (`wide6`…`wide10`).
pub const WIDE_ARRAYS: [usize; 5] = [6, 7, 8, 9, 10];
/// Searches per wide kernel in one run's rotation.
pub const WIDE_SPECS_PER_KERNEL: usize = 2;
/// Legal placements enumerated per search: hundreds, so every skeleton
/// group is wide enough for lane-batched replay.
pub const WIDE_LIMIT: usize = 512;

/// One exhaustive search of the search-wide rotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideSpec {
    /// `wideN` arity.
    pub arrays: usize,
    /// Order of the kernel's read-only arrays as search candidates. The
    /// enumeration cap keeps a different slice of the space per order.
    pub order: Vec<usize>,
}

impl WideSpec {
    pub fn kernel_name(&self) -> String {
        format!("wide{}", self.arrays)
    }
}

/// The search-wide rotation: every wide kernel, each with seeded
/// candidate orders, in a seeded sequence.
pub fn wide_specs(seed: u64) -> Vec<WideSpec> {
    let mut r = rng(seed, 1);
    let mut specs = Vec::new();
    for &n in &WIDE_ARRAYS {
        for _ in 0..WIDE_SPECS_PER_KERNEL {
            // wideN: n - 1 read-only inputs and one written output.
            let mut order: Vec<usize> = (0..n - 1).collect();
            r.shuffle(&mut order);
            specs.push(WideSpec { arrays: n, order });
        }
    }
    r.shuffle(&mut specs);
    specs
}

// ---------------------------------------------------------------------
// search-suite
// ---------------------------------------------------------------------

/// Every Table IV registry kernel, in a seeded walk order.
pub fn suite_order(seed: u64) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = hms_kernels::registry().iter().map(|k| k.name).collect();
    rng(seed, 2).shuffle(&mut names);
    names
}

// ---------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------

/// The tenants the server is spawned with.
pub const TENANTS: [&str; 2] = ["k80", "c2050"];
/// Kernels (Test scale) that predicts draw from.
pub const PREDICT_KERNELS: [&str; 8] = [
    "spmv",
    "md",
    "vecadd",
    "neuralnet",
    "s3d",
    "triad",
    "wide6",
    "wide8",
];
/// Kernels (Test scale) that cold searches and bursts draw from.
pub const SEARCH_KERNELS: [&str; 4] = ["md", "bfs", "s3d", "triad"];
/// Distinct hot predict bodies, answered from the caches after warm-up.
pub const HOT_BODIES: usize = 16;

/// What a request is for, by the layer meant to answer it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A repeated predict, answered by the raw-request memo and caches.
    Hot,
    /// A never-seen predict: parsed, predicted on the worker pool.
    ColdPredict,
    /// A never-seen search: runs the engine on the worker pool.
    ColdSearch,
    /// One copy of a byte-identical cold search sent on every
    /// connection at once: single-flight coalesces the copies.
    Burst,
}

/// Target share of requests (bursts count every copy).
pub const SHARES: [(Kind, f64); 4] = [
    (Kind::Hot, 0.80),
    (Kind::ColdPredict, 0.12),
    (Kind::ColdSearch, 0.04),
    (Kind::Burst, 0.04),
];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub kind: Kind,
    pub path: &'static str,
    pub body: String,
}

/// One scheduling slot: one request, or a burst of identical copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub req: Req,
    pub copies: usize,
}

/// The seeded serve-mixed request stream.
pub struct ServeMix {
    rng: Rng,
    burst: usize,
    weights: [f64; 4],
    hot: Vec<Req>,
    kernels: HashMap<&'static str, KernelTrace>,
    seen: HashSet<String>,
    searches: u64,
}

impl ServeMix {
    /// `burst` is the number of copies per burst (one per connection).
    pub fn new(seed: u64, burst: usize) -> ServeMix {
        let mut kernels = HashMap::new();
        for name in PREDICT_KERNELS {
            kernels.insert(
                name,
                hms_kernels::by_name(name, Scale::Test).expect("known kernel"),
            );
        }
        // Op probabilities that give the per-request targets: a burst
        // slot sends `burst` requests.
        let mut weights = [0.0; 4];
        for (i, (kind, share)) in SHARES.iter().enumerate() {
            weights[i] = if *kind == Kind::Burst {
                share / burst as f64
            } else {
                *share
            };
        }
        let total: f64 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w /= total);
        let mut mix = ServeMix {
            rng: rng(seed, 3),
            burst: burst.max(1),
            weights,
            hot: Vec::new(),
            kernels,
            seen: HashSet::new(),
            searches: 0,
        };
        mix.hot = (0..HOT_BODIES)
            .map(|_| Req {
                kind: Kind::Hot,
                ..mix.fresh_predict()
            })
            .collect();
        mix
    }

    pub fn hot(&self) -> &[Req] {
        &self.hot
    }

    /// The next scheduling slot.
    pub fn next_op(&mut self) -> Op {
        let x = self.rng.gen_f64();
        let mut acc = 0.0;
        let mut pick = SHARES.len() - 1;
        for (i, w) in self.weights.iter().enumerate() {
            acc += w;
            if x < acc {
                pick = i;
                break;
            }
        }
        match SHARES[pick].0 {
            Kind::Hot => {
                let i = self.rng.gen_range(0..self.hot.len());
                Op {
                    req: self.hot[i].clone(),
                    copies: 1,
                }
            }
            Kind::ColdPredict => Op {
                req: self.fresh_predict(),
                copies: 1,
            },
            Kind::ColdSearch => Op {
                req: self.fresh_search(Kind::ColdSearch),
                copies: 1,
            },
            Kind::Burst => Op {
                req: self.fresh_search(Kind::Burst),
                copies: self.burst,
            },
        }
    }

    fn tenant(&mut self) -> &'static str {
        TENANTS[self.rng.gen_range(0..TENANTS.len())]
    }

    /// A predict of a never-requested legal placement.
    fn fresh_predict(&mut self) -> Req {
        loop {
            let tenant = self.tenant();
            let name = PREDICT_KERNELS[self.rng.gen_range(0..PREDICT_KERNELS.len())];
            let kt = &self.kernels[name];
            let mut pm = kt.default_placement();
            let mut moves = Vec::new();
            for a in kt.arrays.iter().filter(|a| !a.written) {
                let space = MemorySpace::ALL[self.rng.gen_range(0..MemorySpace::ALL.len())];
                pm = pm.with(a.id, space);
                moves.push(format!("\"{}\":\"{}\"", a.name, space.short()));
            }
            if !legal(kt, &pm, tenant) {
                continue;
            }
            let body = format!(
                "{{\"kernel\":\"{name}\",\"scale\":\"test\",\"config\":\"{tenant}\",\"placement\":{{{}}}}}",
                moves.join(",")
            );
            if self.seen.insert(body.clone()) {
                return Req {
                    kind: Kind::ColdPredict,
                    path: "/v1/predict",
                    body,
                };
            }
        }
    }

    /// A search no earlier request asked: `top` differs every time, so
    /// no response cache can answer it.
    fn fresh_search(&mut self, kind: Kind) -> Req {
        let tenant = self.tenant();
        let name = SEARCH_KERNELS[self.rng.gen_range(0..SEARCH_KERNELS.len())];
        self.searches += 1;
        let body = format!(
            "{{\"kernel\":\"{name}\",\"scale\":\"test\",\"config\":\"{tenant}\",\"top\":{}}}",
            1000 + self.searches
        );
        Req {
            kind,
            path: "/v1/search",
            body,
        }
    }
}

fn legal(kt: &KernelTrace, pm: &PlacementMap, tenant: &str) -> bool {
    let cfg = hms_serve::preset(tenant).expect("tenant preset");
    pm.validate(&kt.arrays, &cfg).is_ok()
}

/// The GPU configuration a tenant name stands for.
pub fn tenant_config(tenant: &str) -> GpuConfig {
    hms_serve::preset(tenant).expect("tenant preset")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64, n: usize) -> Vec<Op> {
        let mut mix = ServeMix::new(seed, 2);
        (0..n).map(|_| mix.next_op()).collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(wide_specs(7), wide_specs(7));
        assert_eq!(suite_order(7), suite_order(7));
        assert_eq!(subset(7, 9, 100, 10), subset(7, 9, 100, 10));
        assert_eq!(ops(7, 500), ops(7, 500));
        assert_eq!(ServeMix::new(7, 2).hot(), ServeMix::new(7, 2).hot());
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        assert_ne!(wide_specs(7), wide_specs(8));
        assert_ne!(suite_order(7), suite_order(8));
        assert_ne!(subset(7, 9, 100, 10), subset(8, 9, 100, 10));
        assert_ne!(ops(7, 500), ops(8, 500));
        assert_ne!(ServeMix::new(7, 2).hot(), ServeMix::new(8, 2).hot());
    }

    #[test]
    fn every_seed_covers_every_kernel_equally() {
        for seed in [1, 2, 3] {
            let specs = wide_specs(seed);
            for n in WIDE_ARRAYS {
                let mine: Vec<&WideSpec> = specs.iter().filter(|s| s.arrays == n).collect();
                assert_eq!(mine.len(), WIDE_SPECS_PER_KERNEL);
                for s in mine {
                    let mut o = s.order.clone();
                    o.sort_unstable();
                    assert_eq!(o, (0..n - 1).collect::<Vec<_>>());
                }
            }
            let mut names = suite_order(seed);
            names.sort_unstable();
            assert_eq!(names.len(), 19);
            names.dedup();
            assert_eq!(names.len(), 19);
        }
    }

    #[test]
    fn serve_shares_match_their_targets() {
        let n = 20_000;
        let mut requests: HashMap<Kind, usize> = HashMap::new();
        let mut total = 0;
        let mut cold = HashSet::new();
        for op in ops(11, n) {
            *requests.entry(op.req.kind).or_default() += op.copies;
            total += op.copies;
            if op.req.kind != Kind::Hot {
                // Cold bodies never repeat, so no cache can answer them.
                assert!(cold.insert(op.req.body.clone()), "cold body repeated");
            }
        }
        for (kind, target) in SHARES {
            let share = requests[&kind] as f64 / total as f64;
            assert!(
                (share - target).abs() < 0.01,
                "{kind:?}: share {share:.4} vs target {target}"
            );
        }
    }

    #[test]
    fn generated_predicts_are_legal_for_their_tenant() {
        let mut mix = ServeMix::new(5, 2);
        for _ in 0..200 {
            let op = mix.next_op();
            if op.req.path == "/v1/predict" {
                let v = hms_serve::decode(&op.req.body).unwrap();
                let q = hms_serve::wire::v1::PredictRequest::from_json(&v).unwrap();
                let tenant = q.config.clone().unwrap();
                let advisor = hms_serve::Advisor::new(
                    tenant_config(&tenant),
                    hms_core::Predictor::new(tenant_config(&tenant)),
                );
                let kt = advisor.kernel(&q.kernel, q.scale).unwrap();
                advisor.resolve_placement(&kt, &q.moves).unwrap();
            }
        }
    }
}
