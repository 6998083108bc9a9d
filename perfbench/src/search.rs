//! The two closed-loop search workloads: one caller runs
//! `SearchRequest::run` back to back and waits for each result.
//!
//! * **search-wide** — exhaustive searches over the synthetic wide
//!   kernels (hundreds of candidates per search) with the skeleton disk
//!   cache warmed in set-up: lane-batched replay and the cache, DRAM and
//!   queuing models do nearly all the work.
//! * **search-suite** — every Table IV kernel in a seeded order, each a
//!   cold search into an empty skeleton directory followed by a
//!   warm-restart search: trace rewrite, analysis, skeleton build and
//!   skeleton cache write/load dominate. A trained predictor also
//!   predicts every Table IV evaluation placement, checked against the
//!   simulator.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hms_bench::{runner, Harness};
use hms_core::{
    profile_sample, rank_placements_naive, Engine, EngineStats, ModelOptions, Predictor, Profile,
    RankedPlacement, SearchRequest,
};
use hms_kernels::Scale;
use hms_trace::KernelTrace;
use hms_types::{ArrayId, GpuConfig, MemorySpace, PlacementMap};

use crate::inputs::{self, WideSpec, WIDE_ARRAYS, WIDE_LIMIT};
use crate::layers::{self, Probe, ProbeKernel};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::{latency_metrics, metric, Args, Digest, Metric, Report};

/// One kernel with its profiled sample placement.
pub struct Kernel {
    /// The name the kernel is looked up by (`KernelTrace::name` is the
    /// CUDA kernel's own).
    pub name: String,
    pub kt: KernelTrace,
    pub sample: PlacementMap,
    pub profile: Profile,
    pub profile_ms: f64,
}

impl Kernel {
    pub fn load(name: &str, scale: Scale, cfg: &GpuConfig, spans: &mut Spans) -> Kernel {
        let kt = spans.span("kernels.build", 0, |_| {
            hms_kernels::by_name(name, scale).expect("benchmark kernels exist")
        });
        let sample = kt.default_placement();
        let t0 = Instant::now();
        let profile = spans.span("sim.profile_sample", 0, |_| {
            profile_sample(&kt, &sample, cfg).expect("sample placements profile")
        });
        Kernel {
            name: name.to_string(),
            profile_ms: t0.elapsed().as_secs_f64() * 1e3,
            kt,
            sample,
            profile,
        }
    }

    fn read_only(&self) -> Vec<ArrayId> {
        self.kt
            .arrays
            .iter()
            .filter(|a| !a.written)
            .map(|a| a.id)
            .collect()
    }
}

/// What a timed loop of searches measured.
#[derive(Default)]
struct Loop {
    times_ms: Vec<f64>,
    candidates: u64,
    host_s: f64,
    wall_s: f64,
    stats: EngineStats,
    failed: u64,
    bytes_written: u64,
    mismatches: Vec<String>,
}

impl Loop {
    /// Time one search; `check` compares its ranking with the expected.
    fn search(
        &mut self,
        spans: &mut Spans,
        request: u64,
        run: impl FnOnce() -> Result<hms_core::SearchOutcome, hms_types::HmsError>,
    ) -> Option<Vec<RankedPlacement>> {
        let t0 = Instant::now();
        let out = spans.span("engine.search", request, |_| run());
        let dt = t0.elapsed().as_secs_f64();
        self.times_ms.push(dt * 1e3);
        self.host_s += dt;
        match out {
            Ok(o) => {
                self.candidates += o.stats.candidates_evaluated;
                self.stats.accumulate(&o.stats);
                Some(o.ranked)
            }
            Err(e) => {
                self.failed += 1;
                self.mismatches.push(format!("search failed: {e}"));
                None
            }
        }
    }

    fn expect_same(&mut self, what: &str, got: &[RankedPlacement], want: &[RankedPlacement]) {
        if !same_ranking(got, want) {
            self.mismatches.push(format!("{what}: ranking differs"));
        }
    }

    /// The end-to-end metrics of a closed loop.
    fn e2e(&self) -> Vec<Metric> {
        let s = Summary::of(&self.times_ms).expect("at least one search");
        let mut out = vec![metric(
            "cand_per_s",
            "cand/s",
            self.candidates as f64 / self.host_s,
            self.times_ms.len(),
        )];
        out.extend(latency_metrics("search_ms", &s));
        out
    }

    /// Searches completed per second by the one caller (printed only).
    fn rate(&self) -> Metric {
        metric(
            "searches_per_s",
            "1/s",
            self.times_ms.len() as f64 / self.wall_s,
            self.times_ms.len(),
        )
    }
}

fn same_ranking(a: &[RankedPlacement], b: &[RankedPlacement]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.predicted_cycles.to_bits() == y.predicted_cycles.to_bits()
                && x.placement == y.placement
        })
}

/// Predicted-cycle bits of `placements` from the naive oracle must match
/// the engine's ranking.
fn check_naive(
    predictor: &Predictor,
    profile: &Profile,
    ranked: &[RankedPlacement],
    pick: &[usize],
    what: &str,
    mismatches: &mut Vec<String>,
) -> usize {
    let chosen: Vec<PlacementMap> = pick.iter().map(|&i| ranked[i].placement.clone()).collect();
    let naive = match rank_placements_naive(predictor, profile, &chosen, 0) {
        Ok(n) => n,
        Err(e) => {
            mismatches.push(format!("{what}: naive oracle failed: {e}"));
            return 0;
        }
    };
    for n in &naive {
        let engine = ranked.iter().find(|r| r.placement == n.placement);
        if engine.map(|r| r.predicted_cycles.to_bits()) != Some(n.predicted_cycles.to_bits()) {
            mismatches.push(format!("{what}: engine differs from rank_placements_naive"));
        }
    }
    naive.len()
}

fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("creates skeleton directory");
    dir.to_path_buf()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Mean relative error (%) of `predictor` against the simulator over
/// `(kernel, sample profile, target)` triples; adds every prediction to
/// `digest`.
fn model_error_pct(
    predictor: &Predictor,
    points: &[(&KernelTrace, &Profile, PlacementMap)],
    digest: &mut Digest,
    mismatches: &mut Vec<String>,
) -> f64 {
    let cfg = &predictor.cfg;
    let mut errs = Vec::new();
    for (kt, profile, target) in points {
        let pred = predictor.predict(profile, target);
        let sim = hms_trace::materialize(kt, target, cfg)
            .map_err(|e| e.to_string())
            .and_then(|t| hms_sim::simulate_default(&t, cfg).map_err(|e| e.to_string()));
        match (pred, sim) {
            (Ok(p), Ok(s)) if s.cycles > 0 => {
                digest.add(p.cycles);
                errs.push((p.cycles - s.cycles as f64).abs() / s.cycles as f64);
            }
            _ => mismatches.push(format!("{}: prediction or simulation failed", kt.name)),
        }
    }
    100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Engine counters of a loop, as the per-layer metrics name them.
fn engine_layer_metrics(lp: &Loop, out: &mut Vec<Metric>) {
    let s = &lp.stats;
    let n = lp.times_ms.len();
    out.push(metric(
        "engine.skeletons_built",
        "count",
        s.skeletons_built as f64,
        n,
    ));
    out.push(metric(
        "engine.rewrite_reduction",
        "ratio",
        s.rewrite_reduction(),
        n,
    ));
    out.push(metric(
        "engine.events_per_cand",
        "events",
        s.events_streamed as f64 / s.delta_cache_hits.max(1) as f64,
        n,
    ));
    out.push(metric(
        "engine.lane_width_peak",
        "lanes",
        s.lane_width as f64,
        n,
    ));
    out.push(metric(
        "engine.exact_fallbacks",
        "count",
        s.exact_fallbacks as f64,
        n,
    ));
    out.push(metric(
        "skelcache.disk_hits",
        "count",
        s.skeleton_disk_hits as f64,
        n,
    ));
    out.push(metric(
        "skelcache.disk_misses",
        "count",
        s.skeleton_disk_misses as f64,
        n,
    ));
    out.push(metric(
        "skelcache.bytes_written",
        "bytes",
        lp.bytes_written as f64,
        n,
    ));
}

/// Traced-minus-untraced search latency, as a share of untraced.
fn overhead(untraced: &Loop, traced: &Loop) -> Metric {
    let u = crate::stats::median(&untraced.times_ms);
    let t = crate::stats::median(&traced.times_ms);
    metric(
        "tracing.overhead_pct",
        "%",
        100.0 * (t - u) / u,
        traced.times_ms.len(),
    )
}

// ---------------------------------------------------------------------
// search-wide
// ---------------------------------------------------------------------

struct Wide {
    predictor: Predictor,
    /// Indexed like [`WIDE_ARRAYS`].
    kernels: Vec<Kernel>,
    dirs: Vec<PathBuf>,
    specs: Vec<WideSpec>,
    /// Candidate array ids per spec.
    candidates: Vec<Vec<ArrayId>>,
    /// The cold (pre-warm) ranking of each spec: every later search of
    /// the spec must reproduce it bit for bit.
    reference: Vec<Vec<RankedPlacement>>,
}

impl Wide {
    fn kernel_of(&self, spec: usize) -> usize {
        let n = self.specs[spec].arrays;
        WIDE_ARRAYS
            .iter()
            .position(|&a| a == n)
            .expect("wide arity")
    }

    fn request(&self, spec: usize) -> SearchRequest<'_> {
        let k = &self.kernels[self.kernel_of(spec)];
        SearchRequest::new(&k.kt.arrays, &k.sample)
            .candidates(&self.candidates[spec])
            .limit(WIDE_LIMIT)
            .skeleton_cache(&self.dirs[self.kernel_of(spec)])
    }
}

fn setup_wide(args: &Args, spans: &mut Spans) -> Wide {
    let cfg = GpuConfig::tesla_k80();
    let predictor = Predictor::new(cfg.clone());
    let kernels: Vec<Kernel> = WIDE_ARRAYS
        .iter()
        .map(|n| Kernel::load(&format!("wide{n}"), Scale::Full, &cfg, spans))
        .collect();
    let dirs = WIDE_ARRAYS
        .iter()
        .map(|n| fresh_dir(&args.work.join(format!("wide{n}"))))
        .collect();
    let specs = inputs::wide_specs(args.seed);
    let mut wide = Wide {
        predictor,
        kernels,
        dirs,
        candidates: Vec::new(),
        reference: Vec::new(),
        specs,
    };
    for spec in 0..wide.specs.len() {
        let ro = wide.kernels[wide.kernel_of(spec)].read_only();
        let ids = wide.specs[spec].order.iter().map(|&i| ro[i]).collect();
        wide.candidates.push(ids);
    }
    // Pre-warm: one cold search per spec writes its skeletons to disk.
    for spec in 0..wide.specs.len() {
        let k = &wide.kernels[wide.kernel_of(spec)];
        let ranked = spans.span("engine.prewarm", spec as u64, |_| {
            wide.request(spec)
                .run(&wide.predictor, &k.profile)
                .expect("pre-warm search succeeds")
                .ranked
        });
        wide.reference.push(ranked);
    }
    wide
}

/// Rotations over every spec until the window has passed. In a traced
/// run every other rotation records spans, so the traced and untraced
/// searches interleave and the tracing overhead is not confused with
/// drift over the run. Returns the untraced and the traced searches.
fn wide_loop(w: &Wide, window: std::time::Duration, spans: &mut Spans) -> [Loop; 2] {
    let trace = spans.enabled;
    let mut loops = [Loop::default(), Loop::default()];
    let t0 = Instant::now();
    let mut pass = 0;
    while t0.elapsed() < window {
        let traced = trace && pass % 2 == 1;
        spans.enabled = traced;
        let lp = &mut loops[usize::from(traced)];
        let tp = Instant::now();
        spans.span("bench.pass", pass, |spans| {
            for spec in 0..w.specs.len() {
                let k = &w.kernels[w.kernel_of(spec)];
                let req = w.request(spec);
                let request = pass * w.specs.len() as u64 + spec as u64;
                if let Some(ranked) =
                    lp.search(spans, request, || req.run(&w.predictor, &k.profile))
                {
                    lp.expect_same("warm search vs pre-warm", &ranked, &w.reference[spec]);
                }
            }
        });
        lp.wall_s += tp.elapsed().as_secs_f64();
        pass += 1;
    }
    spans.enabled = trace;
    loops
}

pub fn run_wide(args: &Args, start: Instant) -> Report {
    let mut spans = Spans::new(args.trace);
    let (w, first_s) = crate::first_setup(start, || setup_wide(args, &mut spans));
    let mut report = Report::default();
    let [lp, tr] = wide_loop(&w, args.window(), &mut spans);

    // Output checks: a seeded subset of specs against the naive oracle.
    let mut mismatches = lp.mismatches.clone();
    let mut checked = 0;
    for (j, spec) in inputs::subset(args.seed, 10, w.specs.len(), 3)
        .into_iter()
        .enumerate()
    {
        let ranked = &w.reference[spec];
        let pick = inputs::subset(args.seed, 11 + j as u64, ranked.len(), 8);
        let k = &w.kernels[w.kernel_of(spec)];
        checked += check_naive(
            &w.predictor,
            &k.profile,
            ranked,
            &pick,
            &format!("{} search", w.specs[spec].kernel_name()),
            &mut mismatches,
        );
    }

    // Digest over every spec's ranking, in an order independent of the
    // rotation.
    let mut digest = Digest::default();
    let mut order: Vec<usize> = (0..w.specs.len()).collect();
    order.sort_by_key(|&s| (w.specs[s].arrays, w.specs[s].order.clone()));
    for s in order {
        w.reference[s]
            .iter()
            .for_each(|r| digest.add(r.predicted_cycles));
    }
    // Model error on the searched kernels: every read-only array moved
    // to texture where legal, predicted from the sample and simulated.
    let points: Vec<(&KernelTrace, &Profile, PlacementMap)> = w
        .kernels
        .iter()
        .map(|k| (&k.kt, &k.profile, texture_target(k, &w.predictor.cfg)))
        .collect();
    let err = model_error_pct(&w.predictor, &points, &mut digest, &mut mismatches);
    let err_n = points.len();

    report.attempted = (lp.times_ms.len() + tr.times_ms.len() + checked + err_n) as u64;
    report.failed = lp.failed + tr.failed;
    mismatches.extend(tr.mismatches.iter().cloned());
    report.mismatches = mismatches;
    report.digest = digest.0;
    if args.trace {
        let mut m = Vec::new();
        engine_layer_metrics(&tr, &mut m);
        m.push(overhead(&lp, &tr));
        let probe = Probe {
            predictor: &w.predictor,
            kernels: w
                .kernels
                .iter()
                .zip(&w.dirs)
                .map(|(k, dir)| ProbeKernel::new(k, &w.predictor.cfg, Some(dir), WIDE_LIMIT))
                .collect(),
            scale: Scale::Full,
            requests: Vec::new(),
            responses: Vec::new(),
            train_ms: None,
        };
        spans.span("bench.probe", 0, |spans| {
            layers::run(&probe, spans, &mut m);
            crate::serve::probe_server(&probe, spans, &mut m);
        });
        layers::self_times(&spans, args, &mut m);
        report.metrics = m;
    } else {
        report.metrics.extend(lp.e2e());
        report
            .metrics
            .push(metric("model_err_pct", "%", err, err_n));
        report.info.extend([
            metric("peak_rss_mb", "MB", crate::peak_rss_mb(), 1),
            lp.rate(),
        ]);
        drop(w);
        let setup = crate::setup_metric(first_s, || setup_wide(args, &mut Spans::new(false)));
        report.metrics.insert(0, setup);
    }
    report
}

/// Each read-only array moved to texture, where the placement stays
/// legal — a seed-independent accuracy target.
fn texture_target(k: &Kernel, cfg: &GpuConfig) -> PlacementMap {
    let mut pm = k.sample.clone();
    for id in k.read_only() {
        let next = pm.with(id, MemorySpace::Texture1D);
        if next.validate(&k.kt.arrays, cfg).is_ok() {
            pm = next;
        }
    }
    pm
}

// ---------------------------------------------------------------------
// search-suite
// ---------------------------------------------------------------------

struct Suite {
    predictor: Predictor,
    /// In the seeded walk order.
    kernels: Vec<Kernel>,
    /// Time to fit `T_overlap` on the profiled training set.
    train_ms: f64,
}

fn setup_suite(args: &Args, spans: &mut Spans) -> Suite {
    let h = Harness::paper();
    // Train first and drop the training profiles before loading the
    // searched kernels, so the two never share the peak.
    let training = spans.span("sim.training_profiles", 0, |_| {
        runner::training_profiles(&h)
    });
    let t0 = Instant::now();
    let mut predictor = Predictor::with_options(h.cfg.clone(), ModelOptions::full());
    spans.span("toverlap.train", 0, |_| {
        predictor
            .train(&training)
            .expect("enough training placements")
    });
    let train_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(training);
    let kernels: Vec<Kernel> = inputs::suite_order(args.seed)
        .into_iter()
        .map(|name| Kernel::load(name, Scale::Full, &h.cfg, spans))
        .collect();
    // The engine's per-profile statics are built once and cached in the
    // profile; build them now, so every timed cold search starts from
    // the same state: a warm profile and an empty skeleton directory.
    for k in &kernels {
        spans.span("engine.statics", 0, |_| Engine::new(&predictor, &k.profile));
    }
    Suite {
        predictor,
        kernels,
        train_ms,
    }
}

/// Seconds one walk over the suite takes on a two-core Intel Xeon virtual
/// machine: `--seconds` buys this many whole walks.
const SUITE_WALK_S: f64 = 1.75;

/// Whole walks over every kernel: a fixed number for a given
/// `--seconds`, so every run and every commit times the same searches
/// and the percentiles of different runs describe the same sample. In a
/// traced run every other walk records spans (see [`wide_loop`]).
fn suite_loop(
    s: &Suite,
    args: &Args,
    reference: &mut Vec<Option<Vec<RankedPlacement>>>,
    spans: &mut Spans,
) -> [Loop; 2] {
    let trace = spans.enabled;
    let mut loops = [Loop::default(), Loop::default()];
    reference.resize(s.kernels.len(), None);
    let walks = (args.seconds / SUITE_WALK_S).round().max(1.0) as u64;
    for walk in 0..walks {
        let traced = trace && walk % 2 == 1;
        spans.enabled = traced;
        let lp = &mut loops[usize::from(traced)];
        let t0 = Instant::now();
        spans.span("bench.pass", walk, |spans| {
            for (i, k) in s.kernels.iter().enumerate() {
                let dir = fresh_dir(&args.work.join(format!("suite-{walk}-{i}")));
                let req = SearchRequest::new(&k.kt.arrays, &k.sample)
                    .read_only_candidates()
                    .skeleton_cache(&dir);
                let request = walk * s.kernels.len() as u64 + i as u64;
                let cold = lp.search(spans, request, || req.run(&s.predictor, &k.profile));
                lp.bytes_written += dir_bytes(&dir);
                // Warm restart: a new engine over the skeletons just written.
                let warm = lp.search(spans, request, || req.run(&s.predictor, &k.profile));
                let _ = std::fs::remove_dir_all(&dir);
                if let (Some(cold), Some(warm)) = (cold, warm) {
                    lp.expect_same(&format!("{} warm vs cold", k.name), &warm, &cold);
                    match &reference[i] {
                        Some(r) => lp.expect_same(&format!("{} vs first walk", k.name), &cold, r),
                        None => reference[i] = Some(cold),
                    }
                }
            }
        });
        lp.wall_s += t0.elapsed().as_secs_f64();
    }
    spans.enabled = trace;
    loops
}

pub fn run_suite(args: &Args, start: Instant) -> Report {
    let mut spans = Spans::new(args.trace);
    let (s, first_s) = crate::first_setup(start, || setup_suite(args, &mut spans));
    let mut report = Report::default();
    let mut reference = Vec::new();
    let [lp, tr] = suite_loop(&s, args, &mut reference, &mut spans);

    // Output checks: a seeded subset of kernels against the naive oracle.
    let mut mismatches = lp.mismatches.clone();
    let mut checked = 0;
    for (j, i) in inputs::subset(args.seed, 20, s.kernels.len(), 4)
        .into_iter()
        .enumerate()
    {
        let ranked = reference[i].as_deref().unwrap_or_default();
        let pick = inputs::subset(args.seed, 21 + j as u64, ranked.len(), 4);
        let k = &s.kernels[i];
        checked += check_naive(
            &s.predictor,
            &k.profile,
            ranked,
            &pick,
            &format!("{} search", k.name),
            &mut mismatches,
        );
    }

    // Digest over every kernel's ranking, in registry order.
    let mut digest = Digest::default();
    for spec in hms_kernels::registry() {
        if let Some(i) = s.kernels.iter().position(|k| k.name == spec.name) {
            for r in reference[i].iter().flatten() {
                digest.add(r.predicted_cycles);
            }
        }
    }
    // Figure 5: the trained predictor on every Table IV evaluation
    // placement, against the simulator.
    let h = Harness::paper();
    let suite = hms_bench::evaluation_suite();
    let eval: Vec<(KernelTrace, Profile, PlacementMap)> = suite
        .iter()
        .map(|t| {
            let kt = t.kernel(h.scale);
            let target = t.target_placement(&kt);
            (kt, runner::profile(&h, t), target)
        })
        .collect();
    let points: Vec<(&KernelTrace, &Profile, PlacementMap)> =
        eval.iter().map(|(k, p, t)| (k, p, t.clone())).collect();
    let err = model_error_pct(&s.predictor, &points, &mut digest, &mut mismatches);
    let err_n = points.len();
    drop(points);
    drop(eval);

    report.attempted = (lp.times_ms.len() + tr.times_ms.len() + checked + err_n) as u64;
    report.failed = lp.failed + tr.failed;
    mismatches.extend(tr.mismatches.iter().cloned());
    report.mismatches = mismatches;
    report.digest = digest.0;
    if args.trace {
        let mut m = Vec::new();
        engine_layer_metrics(&tr, &mut m);
        m.push(overhead(&lp, &tr));
        let probe = Probe {
            predictor: &s.predictor,
            kernels: s
                .kernels
                .iter()
                .map(|k| ProbeKernel::new(k, &s.predictor.cfg, None, 4096))
                .collect(),
            scale: Scale::Full,
            requests: Vec::new(),
            responses: Vec::new(),
            train_ms: Some(s.train_ms),
        };
        spans.span("bench.probe", 0, |spans| {
            layers::run(&probe, spans, &mut m);
            crate::serve::probe_server(&probe, spans, &mut m);
        });
        layers::self_times(&spans, args, &mut m);
        report.metrics = m;
    } else {
        report.metrics.extend(lp.e2e());
        report
            .metrics
            .push(metric("model_err_pct", "%", err, err_n));
        report.info.extend([
            metric("peak_rss_mb", "MB", crate::peak_rss_mb(), 1),
            lp.rate(),
        ]);
        drop(s);
        let setup = crate::setup_metric(first_s, || setup_suite(args, &mut Spans::new(false)));
        report.metrics.insert(0, setup);
    }
    report
}
