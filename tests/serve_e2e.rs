//! End-to-end tests for the advisory server: a real listener on an
//! ephemeral port, real TCP clients, and assertions over both the
//! response bodies and the `/metrics` counters that prove the caching
//! claims (a warm repeat query re-runs neither the simulator nor the
//! trace-rewrite engine).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use gpu_hms::core::Predictor;
use gpu_hms::serve::{
    Advisor, ConfigRegistry, Ctx, Handler, Metrics, Outcome, Response as HandlerResponse,
    ServerConfig,
};
use gpu_hms::types::GpuConfig;

mod common;
use common::Client;

fn advisor(cfg: GpuConfig) -> Advisor {
    Advisor::new(cfg.clone(), Predictor::new(cfg))
}

fn test_server(mutate: impl FnOnce(ServerConfig) -> ServerConfig) -> gpu_hms::serve::ServerHandle {
    let registry = ConfigRegistry::new("default", advisor(GpuConfig::test_small()));
    mutate(ServerConfig::new().bind("127.0.0.1:0").workers(2))
        .spawn(registry)
        .expect("binds ephemeral port")
}

/// Per-read timeout of every test connection.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn counter(c: &mut Client, series: &str) -> f64 {
    let text = c.get("/metrics").body;
    Metrics::scrape_counter(&text, series).unwrap_or_else(|| panic!("no series {series}"))
}

const PREDICT: &str = r#"{"kernel":"vecadd","scale":"test","moves":[{"array":"a","space":"T"}]}"#;

#[test]
fn healthz_kernels_and_not_found() {
    let h = test_server(|c| c);
    let mut c = Client::connect(h.addr(), READ_TIMEOUT);
    let r = c.get("/healthz");
    assert_eq!((r.status, r.body.as_str()), (200, "ok\n"));

    let r = c.get("/v1/kernels?scale=test");
    assert_eq!(r.status, 200);
    assert!(
        r.body.contains("\"spmv\""),
        "registry missing spmv: {}",
        r.body
    );
    assert!(r.body.contains("\"scale\": \"test\""));
    let full = c.get("/v1/kernels");
    assert_eq!(full.status, 200);
    assert!(full.body.contains("\"scale\": \"full\""));
    // A repeat is answered from the response cache: the same bytes, and
    // no new single-flight computation. The key is the parsed scale, so
    // other spellings of the same query hit it too.
    let leaders = counter(&mut c, "hms_singleflight_leaders_total");
    for (target, first) in [
        ("/v1/kernels?scale=test", &r),
        ("/v1/kernels?scale=test&x=1", &r),
        ("/v1/kernels?scale=full", &full),
    ] {
        let again = c.get(target);
        assert_eq!(again.status, 200);
        assert_eq!(again.body, first.body, "cached body diverged for {target}");
    }
    assert_eq!(
        counter(&mut c, "hms_singleflight_leaders_total"),
        leaders,
        "a repeat /v1/kernels rebuilt the registry"
    );
    assert_eq!(c.get("/v1/kernels?scale=medium").status, 400);

    assert_eq!(c.get("/v1/nope").status, 404);
    // Wrong method on a real endpoint is 405, not 404.
    assert_eq!(c.get("/v1/predict").status, 405);
    assert_eq!(c.post("/healthz", "").status, 405);
    h.shutdown();
}

#[test]
fn predict_warm_cache_skips_model_work() {
    let h = test_server(|c| c);
    let mut c = Client::connect(h.addr(), READ_TIMEOUT);

    let r1 = c.post("/v1/predict", PREDICT);
    assert_eq!(r1.status, 200, "{}", r1.body);
    assert!(r1.body.contains("\"predicted_cycles\""));
    assert_eq!(counter(&mut c, "hms_simulations_total"), 1.0);
    assert_eq!(counter(&mut c, "hms_prediction_cache_misses_total"), 1.0);
    assert_eq!(counter(&mut c, "hms_predictions_computed_total"), 1.0);

    // Warm repeat: byte-identical body, cache hit, and *no* new model
    // work — the simulation and prediction counters stay flat.
    let r2 = c.post("/v1/predict", PREDICT);
    assert_eq!(r2.status, 200);
    assert_eq!(r1.body, r2.body, "cached body diverged");
    assert_eq!(counter(&mut c, "hms_prediction_cache_hits_total"), 1.0);
    assert_eq!(counter(&mut c, "hms_simulations_total"), 1.0);
    assert_eq!(counter(&mut c, "hms_predictions_computed_total"), 1.0);

    // `placement` spelling of the same target placement also hits: the
    // cache key is the resolved placement, not the request text.
    let r3 = c.post(
        "/v1/predict",
        r#"{"kernel":"vecadd","scale":"test","placement":{"a":"T"}}"#,
    );
    assert_eq!(r3.status, 200);
    assert_eq!(r1.body, r3.body);
    assert_eq!(counter(&mut c, "hms_prediction_cache_hits_total"), 2.0);
    h.shutdown();
}

#[test]
fn search_warm_cache_skips_engine_work() {
    let h = test_server(|c| c);
    let mut c = Client::connect(h.addr(), READ_TIMEOUT);
    let body = r#"{"kernel":"vecadd","scale":"test","top":3}"#;

    let r1 = c.post("/v1/search", body);
    assert_eq!(r1.status, 200, "{}", r1.body);
    assert!(r1.body.contains("\"stats\""));
    assert!(!r1.body.contains("nanos"), "wall-clock leaked into body");
    let evaluated = counter(&mut c, "hms_engine_candidates_evaluated_total");
    assert!(evaluated > 0.0);

    // A byte-identical repeat and a member-reordered spelling of the
    // same query both hit: the cache key is the parsed request.
    let reordered = r#"{"top":3,"scale":"test","kernel":"vecadd"}"#;
    for (hits, repeat) in [(1.0, body), (2.0, reordered)] {
        let r2 = c.post("/v1/search", repeat);
        assert_eq!(r2.status, 200);
        assert_eq!(r1.body, r2.body);
        assert_eq!(counter(&mut c, "hms_search_cache_hits_total"), hits);
        // Engine counters flat: the repeat ran no rewrites, no evaluation.
        assert_eq!(
            counter(&mut c, "hms_engine_candidates_evaluated_total"),
            evaluated
        );
    }

    // Advise shares the ranking path but not the search cache entry
    // (no stats block), and never accepts search knobs.
    let r = c.post(
        "/v1/advise",
        r#"{"kernel":"vecadd","scale":"test","top":3}"#,
    );
    assert_eq!(r.status, 200);
    assert!(!r.body.contains("\"stats\""));
    let r = c.post(
        "/v1/advise",
        r#"{"kernel":"vecadd","scale":"test","prune":true}"#,
    );
    assert_eq!(r.status, 400);
    h.shutdown();
}

#[test]
fn client_errors_are_4xx() {
    let h = test_server(|c| c);
    let mut c = Client::connect(h.addr(), READ_TIMEOUT);
    // Malformed JSON.
    let r = c.post("/v1/predict", "{not json");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("invalid JSON"));
    // Unknown kernel.
    let r = c.post(
        "/v1/predict",
        r#"{"kernel":"ghost","moves":[{"array":"a","space":"T"}]}"#,
    );
    assert_eq!(r.status, 404);
    // Unknown field.
    let r = c.post("/v1/predict", r#"{"kernel":"vecadd","movez":[]}"#);
    assert_eq!(r.status, 400);
    // Illegal placement: written array into read-only constant memory.
    let r = c.post(
        "/v1/predict",
        r#"{"kernel":"vecadd","scale":"test","placement":{"v":"C"}}"#,
    );
    assert_eq!(r.status, 400);
    assert!(r.body.contains("read-only"), "{}", r.body);
    h.shutdown();
}

#[test]
fn zero_deadline_rejects_model_queries_but_not_probes() {
    let h = test_server(|c| c.deadline(Duration::ZERO));
    let mut c = Client::connect(h.addr(), READ_TIMEOUT);
    // Liveness and metrics stay reachable on a saturated deadline.
    assert_eq!(c.get("/healthz").status, 200);
    assert_eq!(c.get("/metrics").status, 200);
    let r = c.post("/v1/predict", PREDICT);
    assert_eq!(r.status, 504, "{}", r.body);
    assert!(r.body.contains("deadline"));
    assert!(counter(&mut c, "hms_deadline_exceeded_total") >= 1.0);
    h.shutdown();
}

#[test]
fn zero_queue_sheds_with_503() {
    let h = test_server(|c| c.queue_depth(0));
    // Every connection is refused before reaching a worker.
    let mut c = Client::connect(h.addr(), READ_TIMEOUT);
    let r = c.read_response().expect("shed response");
    assert_eq!(r.status, 503, "{}", r.body);
    assert!(r.body.contains("overloaded"));
    h.shutdown();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let h = test_server(|c| c);
    let addr = h.addr();
    let bodies: Vec<String> = std::thread::scope(|s| {
        (0..4)
            .map(|_| {
                s.spawn(move || {
                    let mut c = Client::connect(addr, READ_TIMEOUT);
                    let mut last = String::new();
                    for _ in 0..20 {
                        let r = c.post("/v1/predict", PREDICT);
                        assert_eq!(r.status, 200);
                        last = r.body;
                    }
                    last
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect()
    });
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "clients saw different bodies for the same query"
    );
    // 80 requests, exactly one simulation.
    let mut c = Client::connect(addr, READ_TIMEOUT);
    assert_eq!(counter(&mut c, "hms_simulations_total"), 1.0);
    h.shutdown();
}

#[test]
fn graceful_shutdown_closes_the_port() {
    let h = test_server(|c| c);
    let addr = h.addr();
    let mut c = Client::connect(addr, READ_TIMEOUT);
    assert_eq!(c.post("/v1/predict", PREDICT).status, 200);
    h.shutdown(); // joins every thread; in-flight work already drained
    std::thread::sleep(Duration::from_millis(50));
    // New connections must now fail (or be closed without a response).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(stream) => {
            let mut buf = [0u8; 1];
            let mut s = stream;
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = write!(s, "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
            assert!(
                matches!(s.read(&mut buf), Ok(0) | Err(_)),
                "server still answering after shutdown"
            );
        }
    }
}

/// Worker-stage handler that records every `compute` call and parks
/// long enough for concurrent identical requests to pile onto the
/// leader's flight instead of racing it to the cache.
struct SlowEcho {
    computes: Arc<AtomicU64>,
    park: Duration,
    coalesce: bool,
}

impl Handler for SlowEcho {
    fn poll(&self, _ctx: &Ctx<'_>, _req: &gpu_hms::serve::http::Request) -> Outcome {
        Outcome::Compute {
            coalesce: self.coalesce,
        }
    }

    fn compute(&self, _ctx: &Ctx<'_>, req: &gpu_hms::serve::http::Request) -> HandlerResponse {
        self.computes.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.park);
        HandlerResponse::json(
            200,
            format!("{{\"echo\": {}}}\n", String::from_utf8_lossy(&req.body)),
        )
    }
}

#[test]
fn single_flight_coalesces_concurrent_identical_requests() {
    const CLIENTS: usize = 8;
    let computes = Arc::new(AtomicU64::new(0));
    let handler = Arc::new(SlowEcho {
        computes: Arc::clone(&computes),
        park: Duration::from_millis(600),
        coalesce: true,
    });
    let h = test_server(|c| c.route("POST", "/v1/slow", handler));
    let addr = h.addr();

    // All clients release together; the leader's compute parks for
    // 600 ms, so every follower joins the in-progress flight.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let bodies: Vec<String> = std::thread::scope(|s| {
        (0..CLIENTS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut c = Client::connect(addr, READ_TIMEOUT);
                    barrier.wait();
                    let r = c.post("/v1/slow", "7");
                    assert_eq!(r.status, 200, "{}", r.body);
                    r.body
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect()
    });

    assert!(
        bodies.iter().all(|b| b == &bodies[0]),
        "coalesced followers saw different bodies"
    );
    assert_eq!(
        computes.load(Ordering::SeqCst),
        1,
        "single-flight must run the handler exactly once"
    );
    let mut c = Client::connect(addr, READ_TIMEOUT);
    assert_eq!(counter(&mut c, "hms_singleflight_leaders_total"), 1.0);
    assert_eq!(
        counter(&mut c, "hms_coalesced_requests_total"),
        (CLIENTS - 1) as f64,
        "every non-leader must be counted as coalesced"
    );
    h.shutdown();
}

#[test]
fn handlers_can_opt_out_of_coalescing() {
    const CLIENTS: usize = 4;
    let computes = Arc::new(AtomicU64::new(0));
    let handler = Arc::new(SlowEcho {
        computes: Arc::clone(&computes),
        park: Duration::from_millis(100),
        coalesce: false,
    });
    let h = test_server(|c| c.workers(CLIENTS).route("POST", "/v1/slow", handler));
    let addr = h.addr();
    let barrier = Arc::new(Barrier::new(CLIENTS));
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let mut c = Client::connect(addr, READ_TIMEOUT);
                barrier.wait();
                assert_eq!(c.post("/v1/slow", "7").status, 200);
            });
        }
    });
    assert_eq!(
        computes.load(Ordering::SeqCst),
        CLIENTS as u64,
        "an uncoalesced handler must compute every request independently"
    );
    let mut c = Client::connect(addr, READ_TIMEOUT);
    assert_eq!(counter(&mut c, "hms_coalesced_requests_total"), 0.0);
    h.shutdown();
}

#[test]
fn tenants_never_share_cache_entries() {
    // Two tenants: the default small machine and a C2050-class one
    // (different core clock, so every latency constant differs). The
    // same kernel + placement must be predicted per-tenant, on the
    // tenant's own machine model, with fully separate caches.
    let registry = ConfigRegistry::new("default", advisor(GpuConfig::test_small()))
        .with("c2050", advisor(GpuConfig::tesla_c2050()));
    let h = ServerConfig::new()
        .bind("127.0.0.1:0")
        .workers(2)
        .spawn(registry)
        .expect("binds ephemeral port");
    let mut c = Client::connect(h.addr(), READ_TIMEOUT);

    const PREDICT_C2050: &str = r#"{"kernel":"vecadd","scale":"test","config":"c2050","moves":[{"array":"a","space":"T"}]}"#;

    let small = c.post("/v1/predict", PREDICT);
    assert_eq!(small.status, 200, "{}", small.body);
    let c2050 = c.post("/v1/predict", PREDICT_C2050);
    assert_eq!(c2050.status, 200, "{}", c2050.body);
    assert_ne!(
        small.body, c2050.body,
        "different machines must predict differently"
    );
    assert!(
        !c2050.body.contains("config"),
        "responses must not echo the tenant: {}",
        c2050.body
    );
    assert_eq!(counter(&mut c, "hms_predictions_computed_total"), 2.0);
    assert_eq!(counter(&mut c, "hms_prediction_cache_misses_total"), 2.0);

    // Warm repeats hit each tenant's own cache; no cross-tenant reuse,
    // no new model work.
    let small2 = c.post("/v1/predict", PREDICT);
    let c2050_2 = c.post("/v1/predict", PREDICT_C2050);
    assert_eq!(small.body, small2.body);
    assert_eq!(c2050.body, c2050_2.body);
    assert_eq!(counter(&mut c, "hms_prediction_cache_hits_total"), 2.0);
    assert_eq!(counter(&mut c, "hms_predictions_computed_total"), 2.0);

    // Naming the default tenant explicitly is byte-identical to
    // omitting `config` — same tenant, same cache entry.
    let named = c.post(
        "/v1/predict",
        r#"{"kernel":"vecadd","scale":"test","config":"default","moves":[{"array":"a","space":"T"}]}"#,
    );
    assert_eq!(named.status, 200);
    assert_eq!(small.body, named.body);
    assert_eq!(counter(&mut c, "hms_predictions_computed_total"), 2.0);

    // Unknown tenants are a client error, and list what exists.
    let r = c.post(
        "/v1/predict",
        r#"{"kernel":"vecadd","scale":"test","config":"h100","moves":[{"array":"a","space":"T"}]}"#,
    );
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("unknown config"), "{}", r.body);
    h.shutdown();
}
