//! Server observability: counters and latency histograms, rendered in
//! the Prometheus text exposition format at `GET /metrics`.
//!
//! Request-path counters and histograms are fixed-shape atomics — no
//! allocation or lock on the request path. The engine totals are one
//! [`EngineStats`] behind a mutex, folded once per search the server
//! runs. Rendering iterates in a fixed order, so the exposition is
//! deterministic modulo the counter values themselves. The metrics the
//! acceptance criteria lean on:
//!
//! * `hms_prediction_cache_{hits,misses}_total` and
//!   `hms_profile_cache_{hits,misses}_total` — a warm repeat query must
//!   hit the former without missing the latter;
//! * `hms_simulations_total` / `hms_predictions_computed_total` — must
//!   *not* advance on a warm hit (no re-simulation, no re-rewrite);
//! * `hms_engine_*` — cumulative [`EngineStats`] from every search the
//!   server actually ran, including the engine's stage timings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use hms_core::EngineStats;

/// The routes the server distinguishes in its per-route metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Predict,
    Advise,
    Search,
    Kernels,
    Metrics,
    Healthz,
    Readyz,
    Other,
}

impl Route {
    pub const ALL: [Route; 8] = [
        Route::Predict,
        Route::Advise,
        Route::Search,
        Route::Kernels,
        Route::Metrics,
        Route::Healthz,
        Route::Readyz,
        Route::Other,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Route::Predict => "predict",
            Route::Advise => "advise",
            Route::Search => "search",
            Route::Kernels => "kernels",
            Route::Metrics => "metrics",
            Route::Healthz => "healthz",
            Route::Readyz => "readyz",
            Route::Other => "other",
        }
    }

    fn index(self) -> usize {
        Route::ALL.iter().position(|r| *r == self).expect("in ALL")
    }
}

/// Status classes tracked per route (the exact codes the server emits).
const STATUSES: [u16; 10] = [200, 400, 404, 405, 408, 413, 429, 500, 503, 504];

/// Upper bounds (microseconds) of the latency histogram buckets, plus an
/// implicit `+Inf`. Spans cache-hit microseconds to full-scale
/// simulation seconds.
const BUCKET_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 500_000, 1_000_000,
    5_000_000,
];

#[derive(Default)]
struct Histogram {
    buckets: [AtomicU64; BUCKET_US.len()],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        for (i, &ub) in BUCKET_US.iter().enumerate() {
            if us <= ub {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }
}

/// All server metrics. One instance per server, shared by `Arc`.
#[derive(Default)]
pub struct Metrics {
    requests: [AtomicU64; Route::ALL.len()],
    responses: [[AtomicU64; STATUSES.len()]; Route::ALL.len()],
    latency: [Histogram; Route::ALL.len()],
    pub prediction_cache_hits: AtomicU64,
    pub prediction_cache_misses: AtomicU64,
    pub search_cache_hits: AtomicU64,
    pub search_cache_misses: AtomicU64,
    pub profile_cache_hits: AtomicU64,
    pub profile_cache_misses: AtomicU64,
    /// Sample simulations actually run (profile-cache misses end here).
    pub simulations: AtomicU64,
    /// Predictions actually computed (prediction-cache misses end here).
    pub predictions_computed: AtomicU64,
    /// Requests refused with 503 because the accept queue was full.
    pub shed: AtomicU64,
    /// Requests refused with 504 because their deadline passed.
    pub deadline_exceeded: AtomicU64,
    /// Connections currently queued waiting for a worker.
    pub queue_depth: AtomicU64,
    /// Requests currently being handled by workers.
    pub inflight: AtomicU64,
    /// Readiness state as `/readyz` reports it: 0 = ready, 1 = degraded
    /// (shedding), 2 = draining (shutdown in progress).
    pub ready_state: AtomicU64,
    /// Requests that hit the cumulative read deadline (slowloris /
    /// stalled peers answered 408).
    pub read_timeouts: AtomicU64,
    /// Requests answered by joining another identical in-flight request
    /// (single-flight followers — they cost zero model work).
    pub coalesced_requests: AtomicU64,
    /// Cold requests that led a single-flight computation.
    pub singleflight_leaders: AtomicU64,
    /// Connections currently registered with the event loops.
    pub open_connections: AtomicU64,
    /// Requests refused with 429 by a tenant's token-bucket quota.
    pub admission_rejected: AtomicU64,
    /// Stalled compute slots the watchdog force-claimed (answered 504).
    pub watchdog_cancels: AtomicU64,
    /// Search responses served with a downgraded strategy (stamped
    /// `"degraded": true` on the wire).
    pub degraded_responses: AtomicU64,
    /// Current degradation-ladder level: 0 = normal, 1 = capped at beam
    /// search, 2 = capped at local search.
    pub degradation_level: AtomicU64,
    /// Circuit-breaker state of the most recently evaluated tenant:
    /// 0 = closed, 1 = half-open, 2 = open.
    pub breaker_state: AtomicU64,
    /// Cumulative engine counters of every search the server ran.
    engine: Mutex<EngineStats>,
    /// `f64::to_bits` of the most recent anytime search's reported gap
    /// upper bound (a gauge: last value wins, exact searches don't
    /// touch it — unlike the running max `accumulate` keeps).
    last_gap_bits: AtomicU64,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    pub fn on_request(&self, route: Route) {
        self.requests[route.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_response(&self, route: Route, status: u16, latency: Duration) {
        if let Some(si) = STATUSES.iter().position(|&s| s == status) {
            self.responses[route.index()][si].fetch_add(1, Ordering::Relaxed);
        }
        self.latency[route.index()].observe(latency);
    }

    /// Fold one search's engine counters into the cumulative totals
    /// with [`EngineStats::accumulate`], stage timings included. Two
    /// rules `accumulate` does not have: only anytime searches add to
    /// `candidates_visited`, and the gap gauge is the most recent
    /// anytime search's bound, not the running max.
    pub fn on_engine_stats(&self, s: &EngineStats) {
        let mut folded = *s;
        if s.anytime() {
            self.last_gap_bits
                .store(s.gap_upper_bound.to_bits(), Ordering::Relaxed);
        } else {
            folded.candidates_visited = 0;
        }
        self.engine_totals().accumulate(&folded);
    }

    /// Lock the engine totals, recovering from a poisoned mutex: the
    /// lock only ever guards plain additions, so any state is valid.
    fn engine_totals(&self) -> MutexGuard<'_, EngineStats> {
        self.engine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Render the Prometheus text exposition.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        let e = *self.engine_totals();
        let v = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let g = |out: &mut String, name: &str, help: &str, kind: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        };

        g(
            &mut out,
            "hms_requests_total",
            "Requests received, by route.",
            "counter",
        );
        for r in Route::ALL {
            out.push_str(&format!(
                "hms_requests_total{{route=\"{}\"}} {}\n",
                r.label(),
                self.requests[r.index()].load(Ordering::Relaxed)
            ));
        }

        g(
            &mut out,
            "hms_responses_total",
            "Responses sent, by route and status.",
            "counter",
        );
        for r in Route::ALL {
            for (si, &status) in STATUSES.iter().enumerate() {
                let n = self.responses[r.index()][si].load(Ordering::Relaxed);
                if n > 0 {
                    out.push_str(&format!(
                        "hms_responses_total{{route=\"{}\",status=\"{status}\"}} {n}\n",
                        r.label()
                    ));
                }
            }
        }

        g(
            &mut out,
            "hms_request_duration_seconds",
            "Request handling latency.",
            "histogram",
        );
        for r in Route::ALL {
            let h = &self.latency[r.index()];
            let count = h.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut cumulative = 0u64;
            for (i, &ub) in BUCKET_US.iter().enumerate() {
                cumulative += h.buckets[i].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "hms_request_duration_seconds_bucket{{route=\"{}\",le=\"{}\"}} {cumulative}\n",
                    r.label(),
                    ub as f64 / 1e6,
                ));
            }
            out.push_str(&format!(
                "hms_request_duration_seconds_bucket{{route=\"{}\",le=\"+Inf\"}} {count}\n",
                r.label()
            ));
            out.push_str(&format!(
                "hms_request_duration_seconds_sum{{route=\"{}\"}} {}\n",
                r.label(),
                h.sum_us.load(Ordering::Relaxed) as f64 / 1e6,
            ));
            out.push_str(&format!(
                "hms_request_duration_seconds_count{{route=\"{}\"}} {count}\n",
                r.label()
            ));
        }

        let counters: [(&str, &str, u64); 28] = [
            (
                "hms_prediction_cache_hits_total",
                "Predict queries answered from the prediction cache.",
                v(&self.prediction_cache_hits),
            ),
            (
                "hms_prediction_cache_misses_total",
                "Predict queries that had to run the model.",
                v(&self.prediction_cache_misses),
            ),
            (
                "hms_search_cache_hits_total",
                "Advise/search queries answered from the result cache.",
                v(&self.search_cache_hits),
            ),
            (
                "hms_search_cache_misses_total",
                "Advise/search queries that had to run the engine.",
                v(&self.search_cache_misses),
            ),
            (
                "hms_profile_cache_hits_total",
                "Sample profiles reused from cache.",
                v(&self.profile_cache_hits),
            ),
            (
                "hms_profile_cache_misses_total",
                "Sample profiles that had to be simulated.",
                v(&self.profile_cache_misses),
            ),
            (
                "hms_simulations_total",
                "Sample simulations actually run.",
                v(&self.simulations),
            ),
            (
                "hms_predictions_computed_total",
                "Predictions actually computed (cache misses).",
                v(&self.predictions_computed),
            ),
            (
                "hms_shed_total",
                "Requests refused with 503 because the queue was full.",
                v(&self.shed),
            ),
            (
                "hms_deadline_exceeded_total",
                "Requests refused with 504 past their deadline.",
                v(&self.deadline_exceeded),
            ),
            (
                "hms_read_timeouts_total",
                "Requests answered 408: not fully received within the read deadline.",
                v(&self.read_timeouts),
            ),
            (
                "hms_coalesced_requests_total",
                "Requests answered by joining an identical in-flight computation.",
                v(&self.coalesced_requests),
            ),
            (
                "hms_singleflight_leaders_total",
                "Cold requests that led a single-flight computation.",
                v(&self.singleflight_leaders),
            ),
            (
                "hms_admission_rejected_total",
                "Requests refused with 429 by a tenant quota.",
                v(&self.admission_rejected),
            ),
            (
                "hms_watchdog_cancels_total",
                "Stalled compute slots force-claimed by the pool watchdog.",
                v(&self.watchdog_cancels),
            ),
            (
                "hms_degraded_responses_total",
                "Search responses served with a ladder-downgraded strategy.",
                v(&self.degraded_responses),
            ),
            (
                "hms_engine_full_rewrites_total",
                "Whole-trace rewrite+analyze runs across all searches.",
                e.full_rewrites,
            ),
            (
                "hms_engine_delta_cache_hits_total",
                "Candidates composed from memoized deltas.",
                e.delta_cache_hits,
            ),
            (
                "hms_engine_skeletons_built_total",
                "Distinct walk skeletons built.",
                e.skeletons_built,
            ),
            (
                "hms_engine_exact_fallbacks_total",
                "Candidates that fell back to the exact path.",
                e.exact_fallbacks,
            ),
            (
                "hms_engine_candidates_evaluated_total",
                "Candidates evaluated by the model.",
                e.candidates_evaluated,
            ),
            (
                "hms_engine_candidates_visited_total",
                "Partial assignments scored by anytime strategies.",
                e.candidates_visited,
            ),
            (
                "hms_engine_skeleton_disk_hits_total",
                "Skeletons loaded from the persistent cache.",
                e.skeleton_disk_hits,
            ),
            (
                "hms_engine_skeleton_disk_misses_total",
                "Persistent-cache probes that fell back to a rebuild.",
                e.skeleton_disk_misses,
            ),
            (
                "hms_engine_skeleton_disk_writes_total",
                "Healthy skeletons persisted to disk.",
                e.skeleton_disk_writes,
            ),
            (
                "hms_engine_skeleton_tmp_swept_total",
                "Stale skeleton temp files swept at cache open.",
                e.skeleton_disk_tmp_swept,
            ),
            (
                "hms_engine_batched_replays_total",
                "Event-major lane-batched replay passes.",
                e.batched_replays,
            ),
            (
                "hms_engine_events_streamed_total",
                "Skeleton events streamed by batched replays.",
                e.events_streamed,
            ),
        ];
        for (name, help, n) in counters {
            g(&mut out, name, help, "counter");
            out.push_str(&format!("{name} {n}\n"));
        }

        let stage_seconds: [(&str, &str, u64); 3] = [
            (
                "hms_engine_prepare_seconds_total",
                "Wall time preparing skeletons and delta memos.",
                e.prepare_nanos,
            ),
            (
                "hms_engine_enumerate_seconds_total",
                "Wall time enumerating candidates.",
                e.enumerate_nanos,
            ),
            (
                "hms_engine_evaluate_seconds_total",
                "Wall time evaluating candidates.",
                e.evaluate_nanos,
            ),
        ];
        for (name, help, nanos) in stage_seconds {
            g(&mut out, name, help, "counter");
            out.push_str(&format!("{name} {}\n", nanos as f64 / 1e9));
        }

        let gauges: [(&str, &str, u64); 7] = [
            (
                "hms_queue_depth",
                "Jobs waiting for a worker.",
                v(&self.queue_depth),
            ),
            (
                "hms_open_connections",
                "Connections currently registered with the event loops.",
                v(&self.open_connections),
            ),
            (
                "hms_inflight_requests",
                "Requests currently being handled.",
                v(&self.inflight),
            ),
            (
                "hms_ready_state",
                "Readiness: 0=ready, 1=degraded (shedding), 2=draining.",
                v(&self.ready_state),
            ),
            (
                "hms_degradation_level",
                "Degradation ladder: 0=normal, 1=beam cap, 2=local-search cap.",
                v(&self.degradation_level),
            ),
            (
                "hms_breaker_state",
                "Circuit breaker: 0=closed, 1=half-open, 2=open.",
                v(&self.breaker_state),
            ),
            (
                "hms_engine_lane_width",
                "Peak replay lane width observed across all searches.",
                e.lane_width,
            ),
        ];
        for (name, help, n) in gauges {
            g(&mut out, name, help, "gauge");
            out.push_str(&format!("{name} {n}\n"));
        }
        g(
            &mut out,
            "hms_engine_gap_upper_bound",
            "Reported optimality-gap upper bound of the most recent anytime search.",
            "gauge",
        );
        out.push_str(&format!(
            "hms_engine_gap_upper_bound {}\n",
            f64::from_bits(v(&self.last_gap_bits))
        ));
        out
    }

    /// Parse a single counter value back out of a rendered exposition —
    /// test/bench helper, not a full Prometheus parser. Labelled series
    /// need the full `name{labels}` string.
    pub fn scrape_counter(exposition: &str, series: &str) -> Option<f64> {
        exposition.lines().find_map(|l| {
            let rest = l.strip_prefix(series)?;
            let rest = rest.strip_prefix(' ')?;
            rest.trim().parse().ok()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_core_series() {
        let m = Metrics::new();
        m.on_request(Route::Predict);
        m.on_response(Route::Predict, 200, Duration::from_micros(120));
        m.prediction_cache_hits.fetch_add(3, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("hms_requests_total{route=\"predict\"} 1"));
        assert!(text.contains("hms_responses_total{route=\"predict\",status=\"200\"} 1"));
        assert!(text.contains("hms_prediction_cache_hits_total 3"));
        assert!(
            text.contains("hms_request_duration_seconds_bucket{route=\"predict\",le=\"+Inf\"} 1")
        );
        assert!(text.contains("# TYPE hms_request_duration_seconds histogram"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.on_response(Route::Search, 200, Duration::from_micros(60));
        m.on_response(Route::Search, 200, Duration::from_micros(60_000));
        let text = m.render();
        // 60 us lands in le=0.0001; both land in le=0.1.
        assert!(
            text.contains("hms_request_duration_seconds_bucket{route=\"search\",le=\"0.0001\"} 1")
        );
        assert!(text.contains("hms_request_duration_seconds_bucket{route=\"search\",le=\"0.1\"} 2"));
        assert!(text.contains("hms_request_duration_seconds_count{route=\"search\"} 2"));
    }

    #[test]
    fn engine_stats_accumulate() {
        let m = Metrics::new();
        let s = EngineStats {
            full_rewrites: 4,
            delta_cache_hits: 12,
            candidates_evaluated: 16,
            ..EngineStats::default()
        };
        m.on_engine_stats(&s);
        m.on_engine_stats(&s);
        let text = m.render();
        assert!(text.contains("hms_engine_full_rewrites_total 8"));
        assert!(text.contains("hms_engine_delta_cache_hits_total 24"));
        assert!(text.contains("hms_engine_candidates_evaluated_total 32"));
    }

    #[test]
    fn batched_replay_counters_accumulate_and_lane_width_is_peak() {
        let m = Metrics::new();
        let wide = EngineStats {
            batched_replays: 3,
            lane_width: 16,
            events_streamed: 900,
            ..EngineStats::default()
        };
        let narrow = EngineStats {
            batched_replays: 1,
            lane_width: 2,
            events_streamed: 100,
            ..EngineStats::default()
        };
        m.on_engine_stats(&wide);
        m.on_engine_stats(&narrow);
        let text = m.render();
        assert!(text.contains("hms_engine_batched_replays_total 4"));
        assert!(text.contains("hms_engine_events_streamed_total 1000"));
        // High-water gauge: the narrower follow-up search must not
        // lower it.
        assert!(text.contains("hms_engine_lane_width 16"));
        assert!(text.contains("# TYPE hms_engine_lane_width gauge"));
    }

    #[test]
    fn anytime_stats_feed_visited_counter_and_gap_gauge() {
        let m = Metrics::new();
        // Exact searches leave both series untouched.
        let exact = EngineStats {
            strategy: "exhaustive",
            candidates_visited: 99,
            gap_upper_bound: 0.5,
            ..EngineStats::default()
        };
        m.on_engine_stats(&exact);
        let text = m.render();
        assert!(text.contains("hms_engine_candidates_visited_total 0"));
        assert!(text.contains("hms_engine_gap_upper_bound 0\n"));
        // Anytime searches accumulate visits; the gauge is last-wins.
        let beam = EngineStats {
            strategy: "beam",
            candidates_visited: 10,
            gap_upper_bound: 0.25,
            ..EngineStats::default()
        };
        m.on_engine_stats(&beam);
        m.on_engine_stats(&beam);
        let text = m.render();
        assert!(text.contains("hms_engine_candidates_visited_total 20"));
        assert_eq!(
            Metrics::scrape_counter(&text, "hms_engine_gap_upper_bound"),
            Some(0.25)
        );
        // Last anytime search wins, not the running max `accumulate`
        // keeps: a looser earlier bound and a later exact search leave
        // the gauge at the most recent anytime bound.
        let loose = EngineStats {
            gap_upper_bound: 0.5,
            ..beam
        };
        m.on_engine_stats(&loose);
        m.on_engine_stats(&beam);
        m.on_engine_stats(&exact);
        let text = m.render();
        assert_eq!(
            Metrics::scrape_counter(&text, "hms_engine_gap_upper_bound"),
            Some(0.25)
        );
        assert!(text.contains("hms_engine_candidates_visited_total 40"));
    }

    #[test]
    fn stage_timings_are_exported_as_seconds_counters() {
        let m = Metrics::new();
        let text = m.render();
        assert!(text.contains("# TYPE hms_engine_prepare_seconds_total counter"));
        assert!(text.contains("hms_engine_evaluate_seconds_total 0\n"));
        let s = EngineStats {
            prepare_nanos: 1_500_000,
            enumerate_nanos: 250_000,
            evaluate_nanos: 2_000_000_000,
            ..EngineStats::default()
        };
        m.on_engine_stats(&s);
        m.on_engine_stats(&s);
        let text = m.render();
        for (series, seconds) in [
            ("hms_engine_prepare_seconds_total", 0.003),
            ("hms_engine_enumerate_seconds_total", 0.0005),
            ("hms_engine_evaluate_seconds_total", 4.0),
        ] {
            assert!(text.contains(&format!("# TYPE {series} counter")));
            assert_eq!(Metrics::scrape_counter(&text, series), Some(seconds));
        }
    }

    #[test]
    fn scrape_counter_reads_back() {
        let m = Metrics::new();
        m.simulations.fetch_add(7, Ordering::Relaxed);
        m.on_request(Route::Advise);
        let text = m.render();
        assert_eq!(
            Metrics::scrape_counter(&text, "hms_simulations_total"),
            Some(7.0)
        );
        assert_eq!(
            Metrics::scrape_counter(&text, "hms_requests_total{route=\"advise\"}"),
            Some(1.0)
        );
        assert_eq!(Metrics::scrape_counter(&text, "hms_nope"), None);
    }
}
