//! Chaos suite: a seed-replayable fault matrix committed against a live
//! advisory server, plus the degradation guarantees around it.
//!
//! Every case is drawn from a [`FaultPlan`] expanded from one seed
//! (`HMS_CHAOS_SEED` overrides the default), so a CI failure prints a
//! one-line replay recipe. The invariants, per DESIGN.md §11:
//!
//! * every committed fault ends in its documented outcome (4xx/5xx or a
//!   clean close) — never a hung worker ([`FaultOutcome::TimedOut`]);
//! * after *every* fault the process still answers `/healthz` with the
//!   exact bytes `ok\n` — faults cost one connection, never the server;
//! * with faults disabled, predictions are byte-identical before and
//!   after the storm — degradation machinery is invisible when idle.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use gpu_hms::core::{CacheFs, Predictor};
use gpu_hms::faults::{
    FaultClient, FaultOutcome, FaultPlan, FaultyFs, FsFault, ResourceFaultKind, ResourceFaultPlan,
};
use gpu_hms::serve::api::Effort;
use gpu_hms::serve::http::Request;
use gpu_hms::serve::wire::v1::RankRequest;
use gpu_hms::serve::{
    decode, ready_state, Advisor, ConfigRegistry, Ctx, Handler, Json, Metrics, Outcome, ReadyState,
    Response, ServerConfig,
};
use gpu_hms::types::GpuConfig;

mod common;
use common::{Client, Reply};

/// The pinned default plan seed; `HMS_CHAOS_SEED=<n>` replays any other.
const DEFAULT_SEED: u64 = 0x00C1_A005;

fn chaos_seed() -> u64 {
    std::env::var("HMS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

fn advisor() -> Advisor {
    let cfg = GpuConfig::test_small();
    Advisor::new(cfg.clone(), Predictor::new(cfg))
}

fn chaos_server() -> gpu_hms::serve::ServerHandle {
    ServerConfig::new()
        .bind("127.0.0.1:0")
        .workers(2)
        // Short enough that a slowloris trickle hits the cumulative
        // read deadline within one case, long enough that a normal
        // request never does.
        .read_deadline(Duration::from_millis(250))
        .spawn(ConfigRegistry::new("default", advisor()))
        .expect("binds ephemeral port")
}

/// Per-read timeout of every probe connection.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

const PREDICT: &str = r#"{"kernel":"vecadd","scale":"test","moves":[{"array":"a","space":"T"}]}"#;

#[test]
fn fault_matrix_is_survived_with_documented_outcomes() {
    let seed = chaos_seed();
    let plan = FaultPlan::from_seed(seed, 8);
    let h = chaos_server();
    let addr = h.addr();

    // Baseline prediction before any fault is committed.
    let Reply {
        status,
        body: baseline,
    } = Client::connect(addr, READ_TIMEOUT).post("/v1/predict", PREDICT);
    assert_eq!(status, 200, "{baseline}");

    let mut client = FaultClient::new(addr);
    client.read_timeout = Duration::from_secs(5);
    client.trickle_delay = Duration::from_millis(40);
    let mut saw_408 = false;
    for case in &plan.cases {
        let outcome = client.commit(*case, "/v1/predict", PREDICT.as_bytes());
        assert!(
            outcome.satisfies(case.kind),
            "fault `{}` ended in undocumented outcome {outcome:?}\n  {}",
            case.kind.label(),
            case.replay_line(seed)
        );
        saw_408 |= outcome == FaultOutcome::Status(408);
        // The cardinal invariant: one poisoned connection never takes
        // the process (or a worker) with it. A hung worker pool would
        // stall this probe past its 10 s timeout.
        let Reply { status, body } = Client::connect(addr, READ_TIMEOUT).get("/healthz");
        assert_eq!(
            (status, body.as_str()),
            (200, "ok\n"),
            "liveness lost after `{}`\n  {}",
            case.kind.label(),
            case.replay_line(seed)
        );
    }

    // Every slowloris that earned its 408 is visible to the operator.
    if saw_408 {
        let Reply { body: text, .. } = Client::connect(addr, READ_TIMEOUT).get("/metrics");
        let timeouts = Metrics::scrape_counter(&text, "hms_read_timeouts_total")
            .expect("read-timeout series exists");
        assert!(timeouts >= 1.0, "408s answered but not counted");
    }

    // With faults off the wire again, the model output is bit-identical
    // to the pre-chaos baseline: nothing degraded stays degraded.
    let Reply {
        status,
        body: after,
    } = Client::connect(addr, READ_TIMEOUT).post("/v1/predict", PREDICT);
    assert_eq!(status, 200);
    assert_eq!(baseline, after, "prediction bytes drifted across chaos");
    h.shutdown();
}

#[test]
fn distinct_seeds_give_distinct_but_replayable_schedules() {
    let a = FaultPlan::from_seed(1, 8);
    let b = FaultPlan::from_seed(1, 8);
    let c = FaultPlan::from_seed(2, 8);
    assert_eq!(a, b, "same seed must replay the same schedule");
    assert_ne!(a.cases, c.cases, "different seeds should differ");
}

#[test]
fn readiness_is_distinct_from_liveness() {
    let h = chaos_server();
    let mut p = Client::connect(h.addr(), READ_TIMEOUT);

    // Healthy: ready, and the gauge agrees with the endpoint.
    let Reply { status, body } = p.get("/readyz");
    assert_eq!((status, body.as_str()), (200, "ready\n"));
    let Reply { body: text, .. } = p.get("/metrics");
    assert_eq!(
        Metrics::scrape_counter(&text, "hms_ready_state"),
        Some(0.0),
        "gauge disagrees with /readyz"
    );
    // Liveness body is part of the wire contract — byte-exact.
    let Reply { status, body } = p.get("/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // The classification function behind /readyz, on the states a live
    // test cannot park a real server in without racing the acceptor.
    assert_eq!(ready_state(false, 0, 8), ReadyState::Ready);
    assert_eq!(ready_state(false, 8, 8), ReadyState::Degraded);
    assert_eq!(ready_state(false, 9, 8), ReadyState::Degraded);
    assert_eq!(ready_state(true, 0, 8), ReadyState::Draining);
    // Draining wins over a full queue: shutdown is the stronger fact.
    assert_eq!(ready_state(true, 8, 8), ReadyState::Draining);
    h.shutdown();
}

/// A compute job that ignores the cooperative cancel flag and parks for
/// `park` — the wedged-task image. Bounded (it always returns) so the
/// server can still join its workers at shutdown; the watchdog's
/// force-claim answers the waiter long before the park ends.
struct Wedge {
    park: Duration,
}

impl Handler for Wedge {
    fn poll(&self, _ctx: &Ctx<'_>, _req: &Request) -> Outcome {
        Outcome::Compute {
            coalesce: false,
            charge: None,
        }
    }

    fn compute(&self, _ctx: &Ctx<'_>, _req: &Request) -> Response {
        std::thread::sleep(self.park);
        Response::text(200, "late\n")
    }
}

/// One `/v1/search` answer under storm: either exact (no `degraded`
/// member at all) or `degraded: true` with a finite, non-negative
/// `gap_upper_bound`. Anything else — and any 5xx — fails the storm.
fn assert_exact_or_degraded(status: u16, body: &str, when: &str) -> Option<(f64, f64)> {
    assert!(
        status < 500,
        "{when}: in-quota /v1/search answered {status}: {body}"
    );
    assert_eq!(status, 200, "{when}: {body}");
    let v = decode(body).expect("search body is JSON");
    let best = v
        .get("ranked")
        .and_then(Json::as_arr)
        .and_then(|r| r.first())
        .and_then(|e| e.get("predicted_cycles"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{when}: no best candidate in {body}"));
    match v.get("degraded") {
        None => {
            assert!(
                v.get("gap_upper_bound").is_none(),
                "{when}: gap without degraded flag"
            );
            None
        }
        Some(d) => {
            assert_eq!(d.as_bool(), Some(true), "{when}: degraded must be `true`");
            let gap = v
                .get("gap_upper_bound")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{when}: degraded without a gap bound"));
            assert!(
                gap.is_finite() && gap >= 0.0,
                "{when}: unsound gap bound {gap}"
            );
            Some((best, gap))
        }
    }
}

/// The resource-fault storm: every disk, pool, and clock fault from a
/// pinned seed-replayable schedule, committed against one live server,
/// with the tentpole guarantees asserted after every case — liveness,
/// zero 5xx for in-quota `/v1/search` (exact or gap-bounded degraded),
/// byte-identical predictions once the storm clears, and monotone
/// ladder recovery back to a non-degraded `/readyz`.
#[test]
fn resource_storm_degrades_gracefully_and_recovers() {
    let seed = chaos_seed();
    let plan = ResourceFaultPlan::from_seed(seed, 8);
    let dir = std::env::temp_dir().join(format!("hms-chaos-storm-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = Arc::new(FaultyFs::new(seed));

    let cfg = GpuConfig::test_small();
    let advisor = Advisor::new(cfg.clone(), Predictor::new(cfg))
        .with_skeleton_cache_fs(&dir, Arc::clone(&fs) as Arc<dyn CacheFs>);
    let sweep = Duration::from_millis(20);
    let h = ServerConfig::new()
        .bind("127.0.0.1:0")
        .workers(2)
        .deadline(Duration::from_secs(5))
        // Generous quota: the storm's probe traffic is always in-quota,
        // so every 429 would be a bug.
        .quota(64, 1000)
        // One watchdog kill opens the breaker — the ladder must engage
        // visibly during the storm, and recover monotonically after it.
        .breaker(1, Duration::from_millis(150))
        .watchdog_interval(sweep)
        .stall_timeout(Duration::from_millis(60))
        .route(
            "POST",
            "/v1/wedge",
            Arc::new(Wedge {
                park: Duration::from_millis(400),
            }),
        )
        .spawn(ConfigRegistry::new("default", advisor))
        .expect("binds ephemeral port");
    let addr = h.addr();

    // Pre-storm baselines for the byte-identity check at the end.
    let Reply {
        status,
        body: predict_before,
    } = Client::connect(addr, READ_TIMEOUT).post("/v1/predict", PREDICT);
    assert_eq!(status, 200, "{predict_before}");
    const BASELINE_SEARCH: &str = r#"{"kernel":"vecadd","scale":"test","top":2}"#;
    let Reply {
        status,
        body: search_before,
    } = Client::connect(addr, READ_TIMEOUT).post("/v1/search", BASELINE_SEARCH);
    assert_eq!(status, 200, "{search_before}");
    assert_exact_or_degraded(status, &search_before, "pre-storm baseline");

    // Distinct cold queries per case (never repeating the baseline), so
    // each storm search exercises the engine + faulty disk, not the
    // rank cache.
    let storm_query = |i: usize| {
        let kernel = if i.is_multiple_of(2) {
            "vecadd"
        } else {
            "spmv"
        };
        format!(r#"{{"kernel":"{kernel}","scale":"test","top":{}}}"#, 3 + i)
    };
    // Queries issued degraded during the storm, to be re-run exact
    // afterwards for the gap-soundness check.
    let mut degraded_probes: Vec<(String, f64, f64)> = Vec::new();
    let mut saw_watchdog_kill = false;

    for (i, case) in plan.cases.iter().enumerate() {
        let when = format!("case {i} `{}`", case.kind.label());
        match case.kind.fs_fault() {
            // Disk faults: committed through the injected cache fs
            // under a live cold search.
            Some(mode) => {
                fs.set(mode);
                let q = storm_query(i);
                let Reply { status, body } =
                    Client::connect(addr, READ_TIMEOUT).post("/v1/search", &q);
                if let Some((best, gap)) = assert_exact_or_degraded(status, &body, &when) {
                    degraded_probes.push((q, best, gap));
                }
                fs.set(FsFault::None);
            }
            None => match case.kind {
                ResourceFaultKind::PoolStall => {
                    // Wedge one worker; the concurrent search must keep
                    // being answered by the rest of the pool while the
                    // watchdog force-claims the wedged slot with a 504.
                    let wedged = std::thread::scope(|s| {
                        let t = s.spawn(|| {
                            let r = Client::connect(addr, READ_TIMEOUT).post("/v1/wedge", "{}");
                            (r.status, r.body)
                        });
                        std::thread::sleep(Duration::from_millis(10));
                        let q = storm_query(i);
                        let Reply { status, body } =
                            Client::connect(addr, READ_TIMEOUT).post("/v1/search", &q);
                        if let Some((best, gap)) = assert_exact_or_degraded(status, &body, &when) {
                            degraded_probes.push((q, best, gap));
                        }
                        t.join().expect("wedge probe")
                    });
                    assert_eq!(
                        wedged.0,
                        504,
                        "a wedged task must be force-claimed, got {}: {}\n  {}",
                        wedged.0,
                        wedged.1,
                        case.replay_line(seed)
                    );
                    saw_watchdog_kill = true;
                    assert!(
                        h.degradation_level() >= 1,
                        "{when}: a watchdog kill must engage the ladder"
                    );
                }
                ResourceFaultKind::ClockSkew => {
                    // Skew the deadline clock far past the budget: the
                    // search must downgrade (never 504) and stamp its
                    // gap on the wire.
                    h.set_clock_skew(case.skew());
                    let q = storm_query(i);
                    let Reply { status, body } =
                        Client::connect(addr, READ_TIMEOUT).post("/v1/search", &q);
                    let (best, gap) = assert_exact_or_degraded(status, &body, &when)
                        .unwrap_or_else(|| {
                            panic!("{when}: a skewed-out search served exact? {body}")
                        });
                    degraded_probes.push((q, best, gap));
                    h.set_clock_skew(Duration::ZERO);
                }
                _ => unreachable!("disk kinds are handled above"),
            },
        }
        // The cardinal invariant, after every committed case.
        let Reply { status, body } = Client::connect(addr, READ_TIMEOUT).get("/healthz");
        assert_eq!(
            (status, body.as_str()),
            (200, "ok\n"),
            "liveness lost after {when}\n  {}",
            case.replay_line(seed)
        );
    }

    // Storm over: all faults cleared above. Monotone ladder recovery —
    // the level never climbs while draining back to 0, and it reaches 0
    // (a breaker needs one observed success to close, which the probe
    // search provides).
    let recovery_deadline = Instant::now() + Duration::from_secs(5);
    let mut last = u8::MAX;
    let mut attempt = 0usize;
    loop {
        let lvl = h.degradation_level();
        assert!(
            lvl <= last,
            "ladder went back up during recovery: {last} -> {lvl}"
        );
        last = lvl;
        if lvl == 0 {
            break;
        }
        // A *cold* probe: cache hits are answered in the poll stage and
        // never reach the breaker, so only a computed success can close
        // a half-open breaker.
        attempt += 1;
        let q = format!(
            r#"{{"kernel":"vecadd","scale":"test","top":{}}}"#,
            100 + attempt
        );
        let Reply { status, .. } = Client::connect(addr, READ_TIMEOUT).post("/v1/search", &q);
        assert_eq!(status, 200);
        assert!(
            Instant::now() < recovery_deadline,
            "ladder never recovered to level 0"
        );
        std::thread::sleep(sweep);
    }
    // Non-degraded readiness within a watchdog sweep of reaching 0.
    std::thread::sleep(sweep);
    let Reply { status, body } = Client::connect(addr, READ_TIMEOUT).get("/readyz");
    assert_eq!(
        (status, body.as_str()),
        (200, "ready\n"),
        "readiness still degraded after the storm"
    );

    // Byte-identity across the storm: the same predict query answers
    // with the exact same bytes it did before any fault was committed.
    let Reply {
        status,
        body: predict_after,
    } = Client::connect(addr, READ_TIMEOUT).post("/v1/predict", PREDICT);
    assert_eq!(status, 200);
    assert_eq!(
        predict_before, predict_after,
        "prediction bytes drifted across the resource storm"
    );
    let Reply {
        status,
        body: search_after,
    } = Client::connect(addr, READ_TIMEOUT).post("/v1/search", BASELINE_SEARCH);
    assert_eq!(status, 200);
    assert_eq!(
        search_before, search_after,
        "search bytes drifted across the resource storm"
    );

    // Gap soundness: re-run every query that answered degraded, now
    // exact (degraded bodies are never cached, so this recomputes), and
    // check the documented contract `best <= optimum * (1 + gap)`.
    for (q, degraded_best, gap) in &degraded_probes {
        let Reply { status, body } = Client::connect(addr, READ_TIMEOUT).post("/v1/search", q);
        assert_eq!(status, 200, "{body}");
        let v = decode(&body).expect("exact rerun is JSON");
        assert!(
            v.get("degraded").is_none(),
            "post-storm rerun still degraded: {body}"
        );
        let optimum = v
            .get("ranked")
            .and_then(Json::as_arr)
            .and_then(|r| r.first())
            .and_then(|e| e.get("predicted_cycles"))
            .and_then(Json::as_f64)
            .expect("exact rerun has a best candidate");
        assert!(
            *degraded_best >= optimum * (1.0 - 1e-9),
            "degraded answer beat the optimum? {degraded_best} < {optimum} for {q}"
        );
        assert!(
            *degraded_best <= optimum * (1.0 + gap) * (1.0 + 1e-9),
            "unsound gap bound: best {degraded_best}, optimum {optimum}, gap {gap} for {q}"
        );
    }

    // A watchdog kill (if the plan scheduled one) is operator-visible.
    if saw_watchdog_kill {
        let Reply { body: text, .. } = Client::connect(addr, READ_TIMEOUT).get("/metrics");
        let kills = Metrics::scrape_counter(&text, "hms_watchdog_cancels_total")
            .expect("watchdog series exists");
        assert!(kills >= 1.0, "watchdog 504s answered but not counted");
    }

    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Quota exhaustion is an admission decision (429), never a 5xx, and
/// warm cache hits stay free — only cold requests spend tokens.
#[test]
fn quota_exhaustion_is_a_429_and_cache_hits_stay_free() {
    let h = ServerConfig::new()
        .bind("127.0.0.1:0")
        .workers(1)
        // One token, no refill: exactly one cold search is in quota.
        .quota(1, 0)
        .spawn(ConfigRegistry::new("default", advisor()))
        .expect("binds");
    let mut p = Client::connect(h.addr(), READ_TIMEOUT);

    // An unknown kernel is a 404 that costs no model work, so it spends
    // no token either.
    let Reply { status, body } = p.post("/v1/search", r#"{"kernel":"ghost","scale":"test"}"#);
    assert_eq!(status, 404, "{body}");

    let first = r#"{"kernel":"vecadd","scale":"test","top":1}"#;
    let Reply { status, body } = p.post("/v1/search", first);
    assert_eq!(status, 200, "{body}");

    // Second cold query: the bucket is empty.
    let Reply { status, body } =
        p.post("/v1/search", r#"{"kernel":"spmv","scale":"test","top":1}"#);
    assert_eq!(
        status, 429,
        "expected quota rejection, got {status}: {body}"
    );

    // The first query again: a cache hit, served without a token.
    let Reply { status, .. } = p.post("/v1/search", first);
    assert_eq!(status, 200, "cache hits must not consume quota");

    // Rejections are counted for the operator.
    let Reply { body: text, .. } = p.get("/metrics");
    let rejected = Metrics::scrape_counter(&text, "hms_admission_rejected_total")
        .expect("admission series exists");
    assert!(rejected >= 1.0);
    h.shutdown();
}

/// Quota pays for computations, not requests: a herd of byte-identical
/// cold searches coalesces onto one flight, and only its leader spends a
/// token.
#[test]
fn coalesced_followers_spend_no_quota() {
    const CLIENTS: usize = 8;
    let h = ServerConfig::new()
        .bind("127.0.0.1:0")
        .workers(1)
        // One token, no refill: the herd's one computation is in quota.
        .quota(1, 0)
        .spawn(ConfigRegistry::new("default", advisor()))
        .expect("binds");
    let addr = h.addr();
    // Cold and Full scale, so the leader computes long enough for every
    // follower to join its flight.
    let search = r#"{"kernel":"spmv","top":1}"#;
    let barrier = Barrier::new(CLIENTS);
    let bodies: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut c = Client::connect(addr, Duration::from_secs(120));
                    barrier.wait();
                    let Reply { status, body } = c.post("/v1/search", search);
                    assert_eq!(status, 200, "{body}");
                    body
                })
            })
            .collect();
        workers.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert!(bodies.iter().all(|b| b == &bodies[0]));
    let Reply { body: text, .. } = Client::connect(addr, READ_TIMEOUT).get("/metrics");
    let rejected = Metrics::scrape_counter(&text, "hms_admission_rejected_total")
        .expect("admission series exists");
    assert_eq!(rejected, 0.0);
    h.shutdown();
}

#[test]
fn deadline_partial_flag_reaches_the_wire_format() {
    // Advisor::rank *is* the server's body builder (byte-identity is the
    // serve crate's core claim), so asserting on it asserts the wire.
    let adv = advisor();
    let q = RankRequest {
        kernel: "spmv".into(),
        scale: gpu_hms::kernels::Scale::Test,
        top: 3,
        prune: false,
        threads: 1,
        config: None,
        strategy: None,
        seed: None,
        beam: None,
    };
    let mut effort = Effort::default();
    // The deadline is checked between 64-candidate chunks, so the space
    // must span more than one for a cut to land.
    let (body, _) = adv.rank(&q, true, None, &mut effort).expect("full rank");
    let total = body.get("ranked_total").and_then(Json::as_f64).unwrap();
    assert!(total > 64.0, "{total} candidates");
    let (body, outcome) = adv
        .rank(&q, true, Some(Instant::now()), &mut effort)
        .expect("partial rank succeeds");
    assert!(outcome.partial);
    assert!(!outcome.ranked.is_empty(), "partial must carry best-so-far");
    assert_eq!(body.get("partial").and_then(Json::as_bool), Some(true));
    assert!(body.encode_pretty().contains("\"partial\": true"));

    // Unbounded: the member is absent, keeping finished responses
    // byte-identical to the pre-deadline wire format.
    let (body, outcome) = adv.rank(&q, true, None, &mut effort).expect("full rank");
    assert!(!outcome.partial);
    assert!(body.get("partial").is_none());
    assert!(!body.encode_pretty().contains("partial"));
}
