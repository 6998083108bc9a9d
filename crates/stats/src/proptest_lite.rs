//! A minimal in-repo property-testing harness.
//!
//! Replaces `proptest` for the workspace's three property suites so the
//! default build is hermetic. It keeps the three properties that made
//! those suites worth having:
//!
//! 1. **seeded case generation** — every case draws its input from a
//!    [`Rng`](crate::rng::Rng) seeded by `SplitMix64(base_seed, index)`,
//!    so a failing case is reproducible from its printed seed alone, no
//!    persistence files needed;
//! 2. **shrinking by bisection** — on failure the harness asks the
//!    caller's shrinker for simpler candidates (halves, chunk deletions,
//!    element simplifications — see [`shrink_vec`]) and recurses on the
//!    first one that still fails, reporting a (locally) minimal input;
//! 3. **failure-seed reporting** — the panic message carries the case
//!    seed and the `HMS_PROPTEST_SEED` / `HMS_PROPTEST_CASES` overrides
//!    that replay exactly that input.
//!
//! ```no_run
//! use hms_stats::proptest_lite::{check, Config};
//!
//! check("sum_is_commutative", &Config::default(), |rng| {
//!     let a = rng.gen_range(0u64..1000);
//!     let b = rng.gen_range(0u64..1000);
//!     (a, b)
//! }, |&(a, b)| {
//!     if a + b == b + a { Ok(()) } else { Err("addition broke".into()) }
//! });
//! ```
//!
//! Generators are plain closures over `&mut Rng` — no strategy
//! combinator DSL. `prop_assume`-style filtering is a loop in the
//! generator (regenerate until valid); the harness bounds nothing there,
//! so keep acceptance rates high.

use crate::rng::{splitmix64, Rng};

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of cases to run (`HMS_PROPTEST_CASES` overrides).
    pub cases: u32,
    /// Base seed; each case `i` derives `splitmix64(base ^ i)`
    /// (`HMS_PROPTEST_SEED` overrides, and pins `cases` to 1 unless
    /// `HMS_PROPTEST_CASES` is also set).
    pub seed: u64,
    /// Cap on shrink iterations (each iteration tries every candidate of
    /// the current witness once).
    pub max_shrink_iters: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            seed: 0x484D_5350,
            max_shrink_iters: 200,
        }
    }
}

impl Config {
    /// A config running `cases` cases with the default seed.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Resolved (seed, cases) after environment overrides.
fn resolve(cfg: &Config) -> (u64, u32, bool) {
    match env_u64("HMS_PROPTEST_SEED") {
        Some(seed) => {
            let cases = env_u64("HMS_PROPTEST_CASES").map(|c| c as u32).unwrap_or(1);
            (seed, cases, true)
        }
        None => {
            let cases = env_u64("HMS_PROPTEST_CASES")
                .map(|c| c as u32)
                .unwrap_or(cfg.cases);
            (cfg.seed, cases, false)
        }
    }
}

/// Run `prop` on `cases` generated inputs; panic with a reproducible
/// report on the first failure. No shrinking — see [`check_shrink`].
pub fn check<T, G, P>(name: &str, cfg: &Config, gen: G, prop: P)
where
    T: std::fmt::Debug,
    G: Fn(&mut Rng) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    check_shrink(name, cfg, gen, |_| Vec::new(), prop);
}

/// [`check`] with a shrinker: on failure, `shrink` proposes simpler
/// variants of the witness and the harness recurses on the first variant
/// that still fails, up to `cfg.max_shrink_iters` rounds.
pub fn check_shrink<T, G, S, P>(name: &str, cfg: &Config, gen: G, shrink: S, prop: P)
where
    T: std::fmt::Debug,
    G: Fn(&mut Rng) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> Result<(), String>,
{
    let (base_seed, cases, seed_pinned) = resolve(cfg);
    for i in 0..cases {
        // With a pinned seed, replay it exactly; otherwise derive an
        // independent stream per case so one seed reproduces one case.
        let case_seed = if seed_pinned && cases == 1 {
            base_seed
        } else {
            let mut s = base_seed ^ u64::from(i);
            splitmix64(&mut s)
        };
        let mut rng = Rng::seed_from_u64(case_seed);
        let input = gen(&mut rng);
        if let Err(msg) = prop(&input) {
            let (witness, final_msg, rounds) =
                shrink_failure(input, msg, &shrink, &prop, cfg.max_shrink_iters);
            panic!(
                "property '{name}' failed (case {i}/{cases}, seed {case_seed:#018x}, \
                 {rounds} shrink rounds)\n  failure: {final_msg}\n  minimal witness: \
                 {witness:#?}\n  replay: HMS_PROPTEST_SEED={case_seed} cargo test {name}"
            );
        }
    }
}

/// Greedy shrink loop: repeatedly move to the first failing candidate.
fn shrink_failure<T, S, P>(
    mut witness: T,
    mut msg: String,
    shrink: &S,
    prop: &P,
    max_iters: u32,
) -> (T, String, u32)
where
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> Result<(), String>,
{
    let mut rounds = 0;
    'outer: for _ in 0..max_iters {
        for cand in shrink(&witness) {
            if let Err(m) = prop(&cand) {
                witness = cand;
                msg = m;
                rounds += 1;
                continue 'outer;
            }
        }
        break;
    }
    (witness, msg, rounds)
}

/// Bisection-style shrink candidates for a vector input, simplest first:
/// the two halves, then the vector with one quarter-chunk deleted, then
/// single-element deletions (only for short vectors, to bound the
/// candidate count).
pub fn shrink_vec<T: Clone>(v: &[T]) -> Vec<Vec<T>> {
    let n = v.len();
    let mut out = Vec::new();
    if n <= 1 {
        return out;
    }
    out.push(v[..n / 2].to_vec());
    out.push(v[n / 2..].to_vec());
    let quarter = (n / 4).max(1);
    if quarter < n {
        let mut start = 0;
        while start < n {
            let end = (start + quarter).min(n);
            if (start, end) != (0, n) {
                let mut w = Vec::with_capacity(n - (end - start));
                w.extend_from_slice(&v[..start]);
                w.extend_from_slice(&v[end..]);
                out.push(w);
            }
            start = end;
        }
    }
    if n <= 16 {
        for i in 0..n {
            let mut w = v.to_vec();
            w.remove(i);
            out.push(w);
        }
    }
    out
}

/// Generate-until-accepted helper for `prop_assume`-style constraints.
/// Panics after `limit` rejections (a generator that can't hit its
/// constraint is a bug, not a skip).
pub fn gen_where<T>(
    rng: &mut Rng,
    limit: u32,
    gen: impl Fn(&mut Rng) -> T,
    accept: impl Fn(&T) -> bool,
) -> T {
    for _ in 0..limit {
        let x = gen(rng);
        if accept(&x) {
            return x;
        }
    }
    panic!("gen_where: no accepted value in {limit} attempts");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        check(
            "counts_cases",
            &Config::with_cases(17),
            |rng| rng.gen_range(0u64..100),
            |_| {
                counter.set(counter.get() + 1);
                Ok(())
            },
        );
        assert_eq!(counter.get(), 17);
    }

    #[test]
    fn failing_property_reports_seed_and_witness() {
        let result = std::panic::catch_unwind(|| {
            check(
                "finds_big_values",
                &Config::with_cases(64),
                |rng| rng.gen_range(0u64..1000),
                |&x| {
                    if x < 900 {
                        Ok(())
                    } else {
                        Err(format!("{x} too big"))
                    }
                },
            );
        });
        let msg = *result
            .expect_err("property must fail")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("finds_big_values"), "message: {msg}");
        assert!(msg.contains("HMS_PROPTEST_SEED="), "message: {msg}");
        assert!(msg.contains("too big"), "message: {msg}");
    }

    #[test]
    fn generation_is_deterministic_per_config() {
        let collect = |seed: u64| {
            let vals = std::cell::RefCell::new(Vec::new());
            check(
                "collects",
                &Config {
                    cases: 10,
                    seed,
                    ..Config::default()
                },
                |rng| rng.gen_range(0u64..u64::MAX / 2),
                |&x| {
                    vals.borrow_mut().push(x);
                    Ok(())
                },
            );
            vals.into_inner()
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn shrinking_minimizes_vector_witnesses() {
        // Property: no element is >= 100. Failure witness should shrink
        // to a single offending element.
        let result = std::panic::catch_unwind(|| {
            check_shrink(
                "shrinks_to_one",
                &Config::with_cases(64),
                |rng| {
                    let n = rng.gen_range(1usize..40);
                    (0..n).map(|_| rng.gen_range(0u64..128)).collect::<Vec<_>>()
                },
                |v| shrink_vec(v),
                |v| {
                    if v.iter().all(|&x| x < 100) {
                        Ok(())
                    } else {
                        Err("element >= 100".into())
                    }
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        // The minimal witness is one element, printed on its own lines.
        let witness_block = msg
            .split("minimal witness:")
            .nth(1)
            .expect("witness in message");
        let elements = witness_block
            .split("replay:")
            .next()
            .unwrap()
            .matches(',')
            .count();
        assert!(elements <= 1, "witness not minimal: {msg}");
    }

    #[test]
    fn shrink_vec_candidates_are_strictly_smaller() {
        let v: Vec<u32> = (0..20).collect();
        for cand in shrink_vec(&v) {
            assert!(cand.len() < v.len());
        }
        assert!(shrink_vec::<u32>(&[]).is_empty());
        assert!(shrink_vec(&[1u32]).is_empty());
    }

    #[test]
    fn gen_where_filters() {
        let mut rng = Rng::seed_from_u64(2);
        let x = gen_where(&mut rng, 1000, |r| r.gen_range(0u64..100), |&x| x % 7 == 0);
        assert_eq!(x % 7, 0);
    }
}
