//! Per-layer timings for the traced run. Each probe calls one layer's
//! public API from the benchmark's own code, inside a span, on inputs
//! taken from the workload itself: its kernels, its candidate
//! placements, the traces they materialize to, the analyses of those
//! traces, and its wire requests and responses.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hms_cache::{ConstantCache, L2Cache, L2Source, TextureCache};
use hms_core::{enumerate_placements, Engine, Predictor, Profile, TraceAnalysis};
use hms_kernels::Scale;
use hms_serve::wire::v1::{PredictRequest, RankRequest};
use hms_serve::{Advisor, Effort, Json};
use hms_stats::GG1Inputs;
use hms_trace::{CInstr, ConcreteTrace, KernelTrace};
use hms_types::{GpuConfig, MemorySpace, PlacementMap};

use crate::search::Kernel;
use crate::spans::Spans;
use crate::{metric, Args, Metric};

/// Every layer a span can be charged to, in report order.
pub const LAYERS: [&str; 16] = [
    "bench",
    "kernels",
    "trace",
    "analysis",
    "sim",
    "toverlap",
    "engine",
    "skelcache",
    "cache",
    "dram",
    "tmem",
    "stats",
    "http",
    "wire",
    "api",
    "serve",
];

/// Where a traced run writes its spans, relative to the directory the
/// benchmark runs from.
pub const SPANS_DIR: &str = ".perfbench_spans";

/// Each probe repeats until this much time has passed (and at least
/// [`MIN_REPS`] times, unless one repetition alone exceeds [`MAX_PROBE`]).
const MIN_PROBE: Duration = Duration::from_millis(200);
const MAX_PROBE: Duration = Duration::from_secs(2);
const MIN_REPS: usize = 3;

/// One kernel of the workload and the part of its placement space the
/// probes draw targets from.
pub struct ProbeKernel<'a> {
    /// The name the kernel is looked up by.
    pub name: &'a str,
    pub kt: &'a KernelTrace,
    pub profile: &'a Profile,
    pub profile_ms: f64,
    pub space: Vec<PlacementMap>,
    /// A skeleton directory the workload already warmed, if any.
    pub warm_dir: Option<&'a PathBuf>,
}

impl<'a> ProbeKernel<'a> {
    /// The first `limit` legal placements of `k`'s read-only arrays
    /// under `cfg`.
    pub fn new(
        k: &'a Kernel,
        cfg: &GpuConfig,
        warm_dir: Option<&'a PathBuf>,
        limit: usize,
    ) -> Self {
        let ro: Vec<_> =
            k.kt.arrays
                .iter()
                .filter(|a| !a.written)
                .map(|a| a.id)
                .collect();
        ProbeKernel {
            name: &k.name,
            kt: &k.kt,
            profile: &k.profile,
            profile_ms: k.profile_ms,
            space: enumerate_placements(&k.kt.arrays, &k.sample, &ro, cfg, limit),
            warm_dir,
        }
    }

    /// Probe targets: the placements with the most texture and the most
    /// constant arrays (so every cache model sees traffic), and the
    /// middle of the space.
    fn targets(&self) -> Vec<PlacementMap> {
        let count = |pm: &PlacementMap, s: MemorySpace| pm.iter().filter(|(_, x)| *x == s).count();
        let mut out = Vec::new();
        for s in [MemorySpace::Texture1D, MemorySpace::Constant] {
            if let Some(pm) = self.space.iter().max_by_key(|pm| count(pm, s)) {
                out.push(pm.clone());
            }
        }
        if let Some(pm) = self.space.get(self.space.len() / 2) {
            out.push(pm.clone());
        }
        out.dedup();
        out
    }
}

/// The workload inputs the probes run on.
pub struct Probe<'a> {
    pub predictor: &'a Predictor,
    pub kernels: Vec<ProbeKernel<'a>>,
    pub scale: Scale,
    /// Wire requests the workload sent, as `(path, body)`; when empty
    /// the probes derive them from the kernels.
    pub requests: Vec<(String, String)>,
    /// Response bodies the workload received.
    pub responses: Vec<String>,
    /// `T_overlap` training time measured in set-up, if the workload
    /// trains.
    pub train_ms: Option<f64>,
}

impl Probe<'_> {
    /// Wire requests: the workload's own, or a predict per probe target
    /// and a search per kernel.
    pub fn requests(&self) -> Vec<(String, String)> {
        if !self.requests.is_empty() {
            return self.requests.clone();
        }
        let mut out = Vec::new();
        for k in &self.kernels {
            for t in k.targets() {
                out.push((
                    "/v1/predict".to_string(),
                    predict_body(k.name, k.kt, &t, self.scale),
                ));
            }
            out.push((
                "/v1/search".to_string(),
                format!(
                    "{{\"kernel\":\"{}\",\"scale\":\"{}\",\"top\":5}}",
                    k.name,
                    self.scale.as_str()
                ),
            ));
        }
        out
    }
}

/// A `/v1/predict` body naming every array's space in `pm`.
pub fn predict_body(name: &str, kt: &KernelTrace, pm: &PlacementMap, scale: Scale) -> String {
    let moves: Vec<String> = pm
        .iter()
        .map(|(id, s)| format!("\"{}\":\"{}\"", kt.arrays[id.index()].name, s.short()))
        .collect();
    format!(
        "{{\"kernel\":\"{}\",\"scale\":\"{}\",\"placement\":{{{}}}}}",
        name,
        scale.as_str(),
        moves.join(",")
    )
}

/// Repeat `f` (one repetition returns the units of work it did) inside
/// spans named `name`; returns the median ns per unit and the number of
/// repetitions.
fn per_unit(spans: &mut Spans, name: &'static str, mut f: impl FnMut() -> u64) -> (f64, usize) {
    let mut per = Vec::new();
    let t0 = Instant::now();
    loop {
        let t = Instant::now();
        let units = spans.span(name, per.len() as u64, |_| f());
        per.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
        let spent = t0.elapsed();
        if (spent >= MIN_PROBE && per.len() >= MIN_REPS) || spent >= MAX_PROBE {
            break;
        }
    }
    (crate::stats::median(&per), per.len())
}

fn ops(t: &ConcreteTrace) -> u64 {
    t.warps.iter().map(|w| w.instrs.len() as u64).sum()
}

/// Per-warp-access address streams of one trace, by cache model.
#[derive(Default)]
struct Streams {
    /// 32-byte sectors of every off-chip access, with the path it took.
    l2: Vec<(u64, L2Source)>,
    /// Sorted, line-aligned texture lines per warp access.
    tex: Vec<Vec<u64>>,
    /// Sorted, word-aligned constant words per warp access.
    constant: Vec<Vec<u64>>,
}

impl Streams {
    fn add(&mut self, t: &ConcreteTrace, cfg: &GpuConfig) {
        let line = cfg.tex_cache.line_bytes;
        for w in &t.warps {
            for i in &w.instrs {
                let CInstr::Mem(m) = i else { continue };
                let source = match m.space {
                    MemorySpace::Global => L2Source::Global,
                    MemorySpace::Texture1D | MemorySpace::Texture2D => L2Source::Texture,
                    MemorySpace::Constant => L2Source::Constant,
                    MemorySpace::Shared => continue,
                };
                let aligned = |g: u64| {
                    let mut v: Vec<u64> = m.active_addrs().map(|a| a / g * g).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                self.l2.extend(aligned(32).into_iter().map(|a| (a, source)));
                match source {
                    L2Source::Texture => self.tex.push(aligned(line)),
                    L2Source::Constant => self.constant.push(aligned(4)),
                    L2Source::Global => {}
                }
            }
        }
    }
}

/// Run every layer probe and append its metrics.
pub fn run(p: &Probe, spans: &mut Spans, out: &mut Vec<Metric>) {
    let cfg = &p.predictor.cfg;
    let targets: Vec<(usize, PlacementMap)> = p
        .kernels
        .iter()
        .enumerate()
        .flat_map(|(i, k)| k.targets().into_iter().map(move |t| (i, t)))
        .collect();

    // hms-trace: materialize from the kernel, rewrite from the sample.
    let (ns, reps) = per_unit(spans, "trace.materialize", || {
        targets
            .iter()
            .map(|(i, t)| {
                ops(&black_box(
                    hms_trace::materialize(p.kernels[*i].kt, t, cfg).expect("legal target"),
                ))
            })
            .sum()
    });
    out.push(metric("trace.materialize_ns_per_op", "ns", ns, reps));
    let mut rewritten = Vec::new();
    let (ns, reps) = per_unit(spans, "trace.rewrite", || {
        rewritten = targets
            .iter()
            .map(|(i, t)| {
                hms_trace::rewrite(&p.kernels[*i].profile.trace, t, cfg).expect("legal target")
            })
            .collect();
        rewritten.iter().map(ops).sum()
    });
    out.push(metric("trace.rewrite_ns_per_op", "ns", ns, reps));

    // hms-core::analysis on the rewritten targets.
    let mut analyses: Vec<TraceAnalysis> = Vec::new();
    let (ns, reps) = per_unit(spans, "analysis.analyze", || {
        analyses = rewritten
            .iter()
            .map(|t| hms_core::analyze(t, cfg))
            .collect();
        rewritten.iter().map(ops).sum()
    });
    out.push(metric("analysis.analyze_ns_per_op", "ns", ns, reps));

    // hms-sim: one simulation per kernel; profiling times from set-up.
    let mut per_instr = Vec::new();
    for (j, (i, _)) in targets.iter().enumerate() {
        if j > 0 && targets[j - 1].0 == *i {
            continue;
        }
        let t0 = Instant::now();
        let r = spans.span("sim.simulate", j as u64, |_| {
            hms_sim::simulate_default(&rewritten[j], cfg)
        });
        if let Ok(r) = r {
            per_instr.push(t0.elapsed().as_nanos() as f64 / r.events.inst_executed.max(1) as f64);
        }
    }
    out.push(metric(
        "sim.ns_per_warp_instr",
        "ns",
        crate::stats::median(&per_instr),
        per_instr.len(),
    ));
    let profile_ms: Vec<f64> = p.kernels.iter().map(|k| k.profile_ms).collect();
    out.push(metric(
        "profile.sample_ms",
        "ms",
        crate::stats::median(&profile_ms),
        profile_ms.len(),
    ));

    toverlap_probe(p, spans, out);
    engine_probe(p, spans, out);

    // hms-cache: replay the targets' own address streams.
    let mut streams = Streams::default();
    rewritten.iter().for_each(|t| streams.add(t, cfg));
    let mut l2_hits = 0u64;
    let (ns, reps) = per_unit(spans, "cache.l2", || {
        let mut l2 = L2Cache::new(cfg.l2_cache);
        l2_hits = streams
            .l2
            .iter()
            .filter(|(a, s)| l2.access(*a, *s).is_hit())
            .count() as u64;
        streams.l2.len() as u64
    });
    out.push(metric("cache.l2_ns_per_access", "ns", ns, reps));
    out.push(metric(
        "cache.l2_hit_ratio",
        "ratio",
        ratio(l2_hits, streams.l2.len()),
        streams.l2.len(),
    ));
    let lines: usize = streams.tex.iter().map(Vec::len).sum();
    let mut tex_misses = 0u64;
    let (ns, reps) = per_unit(spans, "cache.texture", || {
        let mut tex = TextureCache::new(cfg.tex_cache);
        streams.tex.iter().for_each(|l| drop(tex.access_lines(l)));
        tex_misses = tex.misses();
        lines as u64
    });
    out.push(metric("cache.tex_ns_per_line", "ns", ns, reps));
    out.push(metric(
        "cache.tex_hit_ratio",
        "ratio",
        ratio(lines as u64 - tex_misses, lines),
        lines,
    ));
    let words: usize = streams.constant.iter().map(Vec::len).sum();
    let (ns, reps) = per_unit(spans, "cache.constant", || {
        let mut c = ConstantCache::new(cfg.const_cache);
        streams
            .constant
            .iter()
            .for_each(|w| drop(c.access_words(w)));
        words as u64
    });
    out.push(metric("cache.const_ns_per_word", "ns", ns, reps));

    // hms-dram and tmem on the analyses' DRAM request streams.
    let plan = hms_dram::AddressMapping::k80_like(cfg.dram.total_banks()).plan();
    let addrs: u64 = analyses.iter().map(|a| a.dram.len() as u64).sum();
    let (ns, reps) = per_unit(spans, "dram.decode", || {
        let mut acc = 0u64;
        for a in &analyses {
            for &x in a.dram.addrs() {
                acc = acc.wrapping_add(u64::from(plan.decode(x).bank));
            }
        }
        black_box(acc);
        addrs
    });
    out.push(metric("dram.decode_ns_per_addr", "ns", ns, reps));
    let (ns, reps) = per_unit(spans, "tmem.dram_estimate", || {
        for (a, (i, _)) in analyses.iter().zip(&targets) {
            black_box(hms_core::tmem::dram_estimate(
                p.kernels[*i].profile,
                a,
                cfg,
                p.predictor.options.queuing,
            ));
        }
        addrs
    });
    out.push(metric("tmem.dram_estimate_ns_per_req", "ns", ns, reps));

    // hms-stats: Kingman over the per-bank arrival streams, and the cost
    // of one parallel map over a search's worth of units.
    let queues = bank_queues(&analyses, &plan, cfg);
    let (ns, reps) = per_unit(spans, "stats.kingman", || {
        for _ in 0..1000 {
            for q in &queues {
                black_box(hms_stats::kingman_waiting_time(black_box(q)));
            }
        }
        1000 * queues.len() as u64
    });
    out.push(metric("stats.kingman_ns_per_call", "ns", ns, reps));
    let units: Vec<u64> = (0..64).collect();
    let (ns, reps) = per_unit(spans, "stats.par_map", || {
        for _ in 0..20 {
            black_box(hms_stats::par::par_map_steal(0, &units, |x| x + 1));
        }
        20
    });
    out.push(metric("stats.par_spawn_us_per_call", "us", ns / 1e3, reps));

    let responses = api_probe(p, spans, out);
    wire_probe(p, &responses, spans, out);
}

fn ratio(part: u64, whole: usize) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// G/G/1 inputs per DRAM bank, from the stamped request positions.
fn bank_queues(
    analyses: &[TraceAnalysis],
    plan: &hms_dram::DecodePlan,
    cfg: &GpuConfig,
) -> Vec<GG1Inputs> {
    let banks = cfg.dram.total_banks() as usize;
    let mut out = Vec::new();
    for a in analyses {
        let mut arrivals: Vec<Vec<u64>> = vec![Vec::new(); banks];
        for (&x, &pos) in a.dram.addrs().iter().zip(a.dram.positions()) {
            arrivals[plan.decode(x).bank as usize % banks].push(pos);
        }
        for mut arr in arrivals.into_iter().filter(|v| v.len() > 2) {
            arr.sort_unstable();
            let gaps: Vec<f64> = arr.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            out.push(GG1Inputs {
                mean_interarrival: mean.max(1.0),
                cv_interarrival: var.sqrt() / mean.max(1.0),
                mean_service: cfg.dram.miss_cycles as f64,
                cv_service: 0.5,
            });
        }
    }
    out
}

/// `T_overlap` training: as timed in set-up, or on the Table IV training
/// set at Test scale when the workload trains none.
fn toverlap_probe(p: &Probe, spans: &mut Spans, out: &mut Vec<Metric>) {
    if let Some(ms) = p.train_ms {
        out.push(metric("toverlap.train_ms", "ms", ms, 1));
        return;
    }
    let h = hms_bench::Harness {
        cfg: p.predictor.cfg.clone(),
        scale: Scale::Test,
    };
    let training = spans.span("sim.training_profiles", 0, |_| {
        hms_bench::runner::training_profiles(&h)
    });
    let (ns, reps) = per_unit(spans, "toverlap.train", || {
        let mut pr = Predictor::new(h.cfg.clone());
        pr.train(&training).expect("enough training placements");
        black_box(pr);
        1
    });
    out.push(metric("toverlap.train_ms", "ms", ns / 1e6, reps));
}

/// Engine cold and warm ranking, and skeleton disk loads against an
/// in-memory warm rank over the same space.
fn engine_probe(p: &Probe, spans: &mut Spans, out: &mut Vec<Metric>) {
    let work = PathBuf::from(crate::WORK_DIR).join(format!("probe-{}", std::process::id()));
    let mut cold_ms = Vec::new();
    let mut load_ms = Vec::new();
    let mut warm_ns = 0.0;
    let mut warm_cands = 0u64;
    for (i, k) in p.kernels.iter().enumerate() {
        let engine = Engine::new(p.predictor, k.profile);
        let t0 = Instant::now();
        let cold = spans.span("engine.rank_cold", i as u64, |_| engine.rank(&k.space, 0));
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if cold.is_err() {
            continue;
        }
        let t0 = Instant::now();
        let _ = spans.span("engine.rank_warm", i as u64, |_| engine.rank(&k.space, 0));
        warm_ns += t0.elapsed().as_nanos() as f64;
        warm_cands += k.space.len() as u64;

        let dir = match k.warm_dir {
            Some(d) => d.clone(),
            None => {
                let d = work.join(format!("k{i}"));
                let _ = std::fs::create_dir_all(&d);
                let _ = Engine::new(p.predictor, k.profile)
                    .with_disk_cache(&d)
                    .rank(&k.space, 0);
                d
            }
        };
        let restarted = Engine::new(p.predictor, k.profile).with_disk_cache(&dir);
        let t0 = Instant::now();
        let _ = spans.span("skelcache.load", i as u64, |_| restarted.rank(&k.space, 0));
        let from_disk = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let _ = spans.span("engine.rank_warm", i as u64, |_| {
            restarted.rank(&k.space, 0)
        });
        load_ms.push(from_disk - t0.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&work);
    out.push(metric(
        "engine.cold_rank_ms",
        "ms",
        crate::stats::median(&cold_ms),
        cold_ms.len(),
    ));
    out.push(metric(
        "engine.warm_ns_per_cand",
        "ns",
        warm_ns / warm_cands.max(1) as f64,
        p.kernels.len(),
    ));
    out.push(metric(
        "skelcache.load_ms",
        "ms",
        crate::stats::median(&load_ms),
        load_ms.len(),
    ));
}

/// `Advisor` calls on the workload's own kernels: a predict that has to
/// build and profile the kernel (miss), one whose profile is cached
/// (hit), and a ranked search. Returns the response bodies.
fn api_probe(p: &Probe, spans: &mut Spans, out: &mut Vec<Metric>) -> Vec<Json> {
    let cfg = p.predictor.cfg.clone();
    let mut bodies = Vec::new();
    let (mut miss, mut hit, mut rank) = (Vec::new(), Vec::new(), Vec::new());
    let reqs = p.requests();
    let predicts: Vec<PredictRequest> = reqs
        .iter()
        .filter(|(path, _)| path == "/v1/predict")
        .filter_map(|(_, b)| PredictRequest::from_json(&hms_serve::decode(b).ok()?).ok())
        .take(6)
        .collect();
    for (i, q) in predicts.iter().enumerate() {
        let tenant_cfg = q
            .config
            .as_deref()
            .map_or(cfg.clone(), crate::inputs::tenant_config);
        let advisor = Advisor::new(tenant_cfg.clone(), Predictor::new(tenant_cfg));
        for (samples, name) in [
            (&mut miss, "api.predict_miss"),
            (&mut hit, "api.predict_hit"),
        ] {
            let t0 = Instant::now();
            let r = spans.span(name, i as u64, |_| {
                advisor.predict(q, &mut Effort::default())
            });
            samples.push(t0.elapsed().as_secs_f64());
            if let Ok((body, _)) = r {
                bodies.push(body);
            }
        }
    }
    // Rank the smallest searched kernel, so the probe stays short.
    let searches: Vec<RankRequest> = reqs
        .iter()
        .filter(|(path, _)| path == "/v1/search")
        .filter_map(|(_, b)| RankRequest::from_json(&hms_serve::decode(b).ok()?, true).ok())
        .collect();
    let smallest = searches.iter().min_by_key(|q| {
        p.kernels
            .iter()
            .find(|k| k.name == q.kernel)
            .map_or(0, |k| k.space.len())
    });
    if let Some(q) = smallest {
        let tenant_cfg = q
            .config
            .as_deref()
            .map_or(cfg.clone(), crate::inputs::tenant_config);
        let advisor = Advisor::new(tenant_cfg.clone(), Predictor::new(tenant_cfg));
        for i in 0..MIN_REPS {
            let t0 = Instant::now();
            let r = spans.span("api.rank", i as u64, |_| {
                advisor.rank(q, true, None, &mut Effort::default())
            });
            rank.push(t0.elapsed().as_secs_f64());
            if let Ok((body, _)) = r {
                bodies.push(body);
            }
        }
    }
    let med = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(v)
        }
    };
    out.push(metric(
        "api.predict_miss_ms",
        "ms",
        med(&miss) * 1e3,
        miss.len(),
    ));
    out.push(metric(
        "api.predict_hit_us",
        "us",
        med(&hit) * 1e6,
        hit.len(),
    ));
    out.push(metric("api.rank_ms", "ms", med(&rank) * 1e3, rank.len()));
    bodies
}

/// HTTP framing of the workload's requests, and the wire codec on its
/// request and response bodies.
fn wire_probe(p: &Probe, responses: &[Json], spans: &mut Spans, out: &mut Vec<Metric>) {
    let raw: Vec<Vec<u8>> = p
        .requests()
        .iter()
        .map(|(path, body)| crate::serve::render_request(path, body))
        .collect();
    let (ns, reps) = per_unit(spans, "http.parse", || {
        for r in &raw {
            match hms_serve::http::parse_request_bytes(black_box(r)) {
                hms_serve::http::Parse::Complete { consumed, .. } => assert_eq!(consumed, r.len()),
                _ => panic!("benchmark request does not parse"),
            }
        }
        raw.len() as u64
    });
    out.push(metric("http.parse_ns_per_req", "ns", ns, reps));

    let mut texts: Vec<String> = p.requests().into_iter().map(|(_, b)| b).collect();
    texts.extend(p.responses.iter().cloned());
    texts.extend(responses.iter().map(Json::encode_pretty));
    let bytes: u64 = texts.iter().map(|t| t.len() as u64).sum();
    let (ns, reps) = per_unit(spans, "wire.decode", || {
        for t in &texts {
            black_box(hms_serve::decode(black_box(t)).expect("benchmark bodies decode"));
        }
        bytes
    });
    out.push(metric("wire.decode_ns_per_byte", "ns", ns, reps));
    let values: Vec<Json> = texts
        .iter()
        .map(|t| hms_serve::decode(t).expect("decodes"))
        .collect();
    let mut encoded = 0u64;
    let (ns, reps) = per_unit(spans, "wire.encode", || {
        encoded = values
            .iter()
            .map(|v| black_box(v.encode_pretty()).len() as u64)
            .sum();
        encoded
    });
    out.push(metric("wire.encode_ns_per_byte", "ns", ns, reps));
}

/// Each layer's total self time over the run's spans, and the spans
/// themselves written out next to the run's other files.
pub fn self_times(spans: &Spans, args: &Args, out: &mut Vec<Metric>) {
    let by = spans.self_ms_by_layer();
    for layer in LAYERS {
        let n = spans.spans().iter().filter(|s| s.layer() == layer).count();
        out.push(metric(
            &format!("self_ms.{layer}"),
            "ms",
            by.get(layer).copied().unwrap_or(0.0),
            n,
        ));
    }
    let dir = Path::new(SPANS_DIR);
    let file = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, spans.dump())) {
        Ok(()) => println!(
            "# spans: {} written to {}",
            spans.spans().len(),
            file.display()
        ),
        Err(e) => println!("# spans: {} not written: {e}", spans.spans().len()),
    }
}
