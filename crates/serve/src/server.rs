//! The event-driven placement-advisory server (DESIGN.md §13).
//!
//! Architecture:
//!
//! * **shard event loops** — each shard owns a nonblocking clone of the
//!   listener and drives hundreds of connections with a `poll(2)`-based
//!   readiness loop ([`crate::poller`]): accept, read, incremental
//!   HTTP parse ([`crate::conn`]), route. Warm requests — cache hits,
//!   probes, metrics — are answered *inline on the loop thread*; only
//!   cold model work leaves it;
//! * **a bounded worker pool** — cold requests become jobs in a bounded
//!   queue. When pending jobs reach `queue_depth`, new connections are
//!   shed at accept with `503`, so a saturated server degrades
//!   predictably instead of queueing without bound;
//! * **single-flight coalescing** — concurrent byte-identical cold
//!   requests share one computation: the first becomes the leader (one
//!   job), the rest park as followers and are answered from the
//!   leader's response ([`crate::singleflight`]). A thundering herd of
//!   N identical searches costs one engine run, visible as
//!   `hms_coalesced_requests_total`;
//! * **one response cache** — a sharded LRU of encoded bodies keyed by
//!   the parsed request's canonical form; the worker loop is its only
//!   writer, after the watchdog claim check;
//! * **multi-tenant registry** — requests carry an optional `config`
//!   member naming a GPU configuration ([`crate::registry`]); each
//!   tenant gets its own advisor, and the tenant is part of every
//!   cache key, so two tenants can never serve each other's bytes;
//! * **deadlines** — per-request (`504` before any model stage that
//!   would finish past the deadline) and cumulative read
//!   (slowloris peers answered `408` by the loop's sweep);
//! * **graceful shutdown** — a flag flipped by
//!   [`ServerHandle::shutdown`] or SIGINT/SIGTERM (see
//!   [`crate::signal`]). Shards stop accepting, in-flight jobs drain
//!   (answered `connection: close`), then everything joins and the
//!   port closes.
//!
//! The endpoint logic itself lives behind the [`crate::handlers`]
//! two-stage [`Handler`] trait; this module is the machinery that
//! schedules it.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::admission::{degradation_level, BreakerState, CircuitBreaker, TokenBucket};
use crate::cache::ShardedLru;
use crate::conn::{Conn, FillResult};
use crate::handlers::{self, BodyKey, Ctx, Handler, Outcome, Response};
use crate::http::{write_response, HttpError, Request};
use crate::metrics::{Metrics, Route};
use crate::poller::{Interest, Poller, Waker};
use crate::registry::ConfigRegistry;
use crate::singleflight::{FlightKey, FlightTable, Join};
use crate::wire::v1::error_body;

/// How the event loops pace themselves when nothing is ready: the tick
/// bounds slowloris-sweep granularity and shutdown latency.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Server tunables — a builder mirrored by `hms serve`'s flags.
///
/// ```no_run
/// use hms_serve::{registry::ConfigRegistry, server::ServerConfig, Advisor};
/// # fn advisor() -> Advisor { unimplemented!() }
/// let handle = ServerConfig::new()
///     .bind("127.0.0.1:0")
///     .workers(2)
///     .deadline(std::time::Duration::from_secs(5))
///     .spawn(ConfigRegistry::new("k80", advisor()))
///     .unwrap();
/// println!("listening on {}", handle.addr());
/// ```
#[derive(Clone)]
pub struct ServerConfig {
    bind: String,
    workers: usize,
    shards: usize,
    cache_entries: usize,
    deadline: Duration,
    queue_depth: usize,
    read_deadline: Duration,
    quota: Option<(u64, u64)>,
    breaker_failures: u32,
    breaker_cooldown: Duration,
    watchdog_interval: Duration,
    stall_timeout: Option<Duration>,
    routes: Vec<(String, String, Arc<dyn Handler>)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:0".into(),
            workers: 0,
            shards: 0,
            cache_entries: 4096,
            deadline: Duration::from_millis(10_000),
            queue_depth: 128,
            read_deadline: Duration::from_millis(10_000),
            quota: None,
            breaker_failures: 5,
            breaker_cooldown: Duration::from_millis(500),
            watchdog_interval: Duration::from_millis(100),
            stall_timeout: None,
            routes: Vec::new(),
        }
    }
}

impl ServerConfig {
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Bind address; port 0 picks an ephemeral port (returned by
    /// [`ServerHandle::addr`]).
    pub fn bind(mut self, addr: impl Into<String>) -> Self {
        self.bind = addr.into();
        self
    }

    /// Worker threads for cold model work (0 = one per core, min 2).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Event-loop shards, each with its own accept loop (0 = auto: one
    /// shard per ~8 cores — a single poll loop saturates a small
    /// machine, extra shards only pay off when accept itself is hot).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Response bodies the server caches at most, all routes and
    /// tenants together (at least 1).
    pub fn cache_entries(mut self, n: usize) -> Self {
        self.cache_entries = n;
        self
    }

    /// Per-request deadline. Queries that can't start (or reach their
    /// next model stage) in time are refused with 504.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = d;
        self
    }

    /// Pending cold jobs before new connections are shed with 503 at
    /// accept. 0 sheds everything (useful for tests).
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    /// Cumulative budget for *receiving* one request, measured from its
    /// first byte; past it the request is answered 408 and the
    /// connection closed (slowloris defense).
    pub fn read_deadline(mut self, d: Duration) -> Self {
        self.read_deadline = d;
        self
    }

    /// Per-tenant token-bucket quota: `burst` requests of headroom,
    /// refilled at `per_sec` requests per second. Out-of-quota cold
    /// requests are refused with 429 before any model work. Default:
    /// no quota.
    pub fn quota(mut self, burst: u64, per_sec: u64) -> Self {
        self.quota = Some((burst, per_sec));
        self
    }

    /// Per-tenant circuit breaker: `failures` consecutive server-side
    /// failures (5xx, watchdog kills) open it; `cooldown` later it goes
    /// half-open. An open breaker never rejects — it forces searches
    /// down the degradation ladder instead.
    pub fn breaker(mut self, failures: u32, cooldown: Duration) -> Self {
        self.breaker_failures = failures;
        self.breaker_cooldown = cooldown;
        self
    }

    /// How often the pool watchdog sweeps for stalled compute slots.
    pub fn watchdog_interval(mut self, d: Duration) -> Self {
        self.watchdog_interval = d;
        self
    }

    /// How long a compute slot may run before the watchdog intervenes:
    /// past `d` it raises the slot's cooperative cancel flag (the search
    /// returns best-so-far, flagged partial); past `2 * d` it
    /// force-claims the slot, answers its waiters 504, and spawns a
    /// replacement worker. Defaults to twice the request deadline plus
    /// 250 ms of grace: a deadline-honoring search legitimately runs
    /// right up to the deadline plus encode overhead, and only jobs
    /// that badly overshoot it are stalled.
    pub fn stall_timeout(mut self, d: Duration) -> Self {
        self.stall_timeout = Some(d);
        self
    }

    /// Mount a custom [`Handler`] at `method path` alongside the
    /// built-in advisory endpoints (counted under the `other` route
    /// label). Built-ins win ties.
    pub fn route(
        mut self,
        method: impl Into<String>,
        path: impl Into<String>,
        handler: Arc<dyn Handler>,
    ) -> Self {
        self.routes.push((method.into(), path.into(), handler));
        self
    }

    /// Bind, spawn the shard event loops and worker pool, and return
    /// immediately. Tenant 0 of `registry` is the default config.
    pub fn spawn(self, registry: ConfigRegistry) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&self.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        let workers = if self.workers == 0 {
            avail.max(2)
        } else {
            self.workers
        };
        let shards = if self.shards == 0 {
            (avail / 8).clamp(1, 4)
        } else {
            self.shards
        };
        let mut inboxes = Vec::with_capacity(shards);
        for _ in 0..shards {
            inboxes.push(Inbox {
                completions: Mutex::new(Vec::new()),
                waker: Waker::new()?,
            });
        }
        let admission: Vec<TenantAdmission> = (0..registry.len())
            .map(|_| TenantAdmission {
                bucket: self
                    .quota
                    .map(|(burst, per_sec)| TokenBucket::new(burst, per_sec)),
                breaker: CircuitBreaker::new(self.breaker_failures, self.breaker_cooldown),
            })
            .collect();
        // No more shards than entries, so the shards' equal slices sum
        // to at most `cache_entries`.
        let entries = self.cache_entries.max(1);
        let shared = Arc::new(Shared {
            registry,
            metrics: Arc::new(Metrics::new()),
            cache: ShardedLru::new(entries, entries.min(8)),
            jobs: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            jobs_pending: AtomicU64::new(0),
            flights: FlightTable::new(),
            shutdown: AtomicBool::new(false),
            deadline: self.deadline,
            read_deadline: self.read_deadline,
            queue_depth: self.queue_depth,
            inboxes,
            router: Router::new(self.routes),
            admission,
            skew_millis: AtomicU64::new(0),
            watchdog: Watchdog::default(),
            stall_timeout: self
                .stall_timeout
                .unwrap_or(self.deadline * 2 + Duration::from_millis(250)),
            workers,
        });
        let mut threads = Vec::with_capacity(shards + workers);
        // Thread spawning can fail (resource exhaustion); surface it as
        // the io::Result the caller already handles instead of
        // panicking, after unwinding whatever was spawned.
        let fail = |shared: &Arc<Shared>, threads: Vec<std::thread::JoinHandle<()>>, e| {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.job_ready.notify_all();
            for inbox in &shared.inboxes {
                inbox.waker.wake();
            }
            for t in threads {
                let _ = t.join();
            }
            Err(e)
        };
        for i in 0..shards {
            let l = match listener.try_clone() {
                Ok(l) => l,
                Err(e) => return fail(&shared, threads, e),
            };
            let s = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("hms-shard-{i}"))
                .spawn(move || shard_loop(i, l, s))
            {
                Ok(t) => threads.push(t),
                Err(e) => return fail(&shared, threads, e),
            }
        }
        for i in 0..workers {
            let s = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("hms-worker-{i}"))
                .spawn(move || worker_loop(s))
            {
                Ok(t) => threads.push(t),
                Err(e) => return fail(&shared, threads, e),
            }
        }
        {
            let s = Arc::clone(&shared);
            let interval = self.watchdog_interval;
            match std::thread::Builder::new()
                .name("hms-watchdog".into())
                .spawn(move || watchdog_loop(s, interval))
            {
                Ok(t) => threads.push(t),
                Err(e) => return fail(&shared, threads, e),
            }
        }
        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

/// What `/readyz` reports (and `hms_ready_state` exposes as a gauge):
/// liveness (`/healthz`) says the process can answer; readiness says it
/// is worth sending real traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyState {
    /// Accepting and serving normally.
    Ready,
    /// Alive but shedding: the job queue is at capacity, new
    /// connections are being refused with 503.
    Degraded,
    /// Shutdown requested: draining in-flight work, not accepting.
    Draining,
}

impl ReadyState {
    /// The numeric gauge value for `hms_ready_state`.
    pub fn gauge(self) -> u64 {
        match self {
            ReadyState::Ready => 0,
            ReadyState::Degraded => 1,
            ReadyState::Draining => 2,
        }
    }
}

/// Pure readiness classification, separated from the server so tests
/// can pin the mapping: draining wins over degraded, and a queue at (or
/// over, including a zero-depth queue) capacity is degraded.
pub fn ready_state(shutdown: bool, queue_len: usize, queue_depth: usize) -> ReadyState {
    if shutdown {
        ReadyState::Draining
    } else if queue_len >= queue_depth {
        ReadyState::Degraded
    } else {
        ReadyState::Ready
    }
}

/// Who gets a completed job's response, and where they're parked.
/// The `gen` check makes a reused connection slot immune to stale
/// completions for its previous occupant.
#[derive(Clone)]
pub(crate) struct Waiter {
    shard: usize,
    conn: usize,
    gen: u64,
    route: Route,
    wants_close: bool,
    arrived: Instant,
}

/// A finished response on its way back to a shard's event loop.
struct Completion {
    waiter: Waiter,
    status: u16,
    content_type: &'static str,
    body: Arc<String>,
}

/// Per-shard channel from the worker pool back to the event loop.
struct Inbox {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

/// One cold request queued for the worker pool.
struct Job {
    handler: Arc<dyn Handler>,
    req: Request,
    /// Present when this job leads a single-flight (its completion
    /// answers every parked follower).
    key: Option<FlightKey>,
    waiter: Waiter,
}

enum RouteMatch<'a> {
    Found(&'a RouteEntry),
    MethodNotAllowed(Route),
    NotFound,
}

struct RouteEntry {
    method: &'static str,
    path: &'static str,
    route: Route,
    handler: Arc<dyn Handler>,
    /// Custom mount (owned strings) — checked after built-ins.
    custom: Option<(String, String)>,
}

struct Router {
    entries: Vec<RouteEntry>,
}

impl Router {
    fn new(custom: Vec<(String, String, Arc<dyn Handler>)>) -> Router {
        let builtin = |method, path, route, handler: Arc<dyn Handler>| RouteEntry {
            method,
            path,
            route,
            handler,
            custom: None,
        };
        let mut entries = vec![
            builtin(
                "GET",
                "/healthz",
                Route::Healthz,
                Arc::new(handlers::Healthz),
            ),
            builtin("GET", "/readyz", Route::Readyz, Arc::new(handlers::Readyz)),
            builtin(
                "GET",
                "/metrics",
                Route::Metrics,
                Arc::new(handlers::MetricsEndpoint),
            ),
            builtin(
                "GET",
                "/v1/kernels",
                Route::Kernels,
                Arc::new(handlers::Kernels),
            ),
            builtin(
                "POST",
                "/v1/predict",
                Route::Predict,
                Arc::new(handlers::Predict),
            ),
            builtin(
                "POST",
                "/v1/advise",
                Route::Advise,
                Arc::new(handlers::Rank { search: false }),
            ),
            builtin(
                "POST",
                "/v1/search",
                Route::Search,
                Arc::new(handlers::Rank { search: true }),
            ),
        ];
        for (method, path, handler) in custom {
            entries.push(RouteEntry {
                method: "",
                path: "",
                route: Route::Other,
                handler,
                custom: Some((method, path)),
            });
        }
        Router { entries }
    }

    fn find(&self, method: &str, path: &str) -> RouteMatch<'_> {
        let mut path_hit = None;
        for e in &self.entries {
            let (m, p) = match &e.custom {
                Some((m, p)) => (m.as_str(), p.as_str()),
                None => (e.method, e.path),
            };
            if p == path {
                if m == method {
                    return RouteMatch::Found(e);
                }
                path_hit = Some(e.route);
            }
        }
        match path_hit {
            Some(route) => RouteMatch::MethodNotAllowed(route),
            None => RouteMatch::NotFound,
        }
    }
}

/// Per-tenant admission state: the optional request quota plus the
/// circuit breaker feeding the degradation ladder.
pub(crate) struct TenantAdmission {
    pub(crate) bucket: Option<TokenBucket>,
    pub(crate) breaker: CircuitBreaker,
}

/// One registered compute slot the watchdog is watching.
struct ActiveSlot {
    started: Instant,
    /// Cooperative cancel: the search checks this at batch boundaries.
    cancel: Arc<AtomicBool>,
    /// Who answers the waiters — worker and watchdog race on a CAS;
    /// exactly one side wins and delivers.
    claimed: Arc<AtomicBool>,
    key: Option<FlightKey>,
    waiter: Waiter,
}

/// The pool watchdog's slot registry. Workers register before running a
/// handler's compute stage and deregister after; the sweep cancels (and
/// eventually force-claims) anything that overstays.
#[derive(Default)]
pub(crate) struct Watchdog {
    slots: Mutex<HashMap<u64, ActiveSlot>>,
    next_id: AtomicU64,
    /// Replacement workers spawned for wedged slots — capped at the
    /// configured pool size so a pathological storm can't fork-bomb.
    replacements: AtomicU64,
}

impl Watchdog {
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, ActiveSlot>> {
        self.slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn register(&self, slot: ActiveSlot) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.lock().insert(id, slot);
        id
    }

    fn deregister(&self, id: u64) {
        self.lock().remove(&id);
    }
}

/// Everything the shards, workers, and handle share.
pub(crate) struct Shared {
    pub(crate) registry: ConfigRegistry,
    pub(crate) metrics: Arc<Metrics>,
    /// The response cache: canonical request → encoded body. Handlers
    /// read it; only [`worker_loop`] writes it.
    pub(crate) cache: ShardedLru<BodyKey, Arc<String>>,
    jobs: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    /// Mirror of the job-queue length, readable without the lock (the
    /// accept path's shed check and `/readyz`).
    jobs_pending: AtomicU64,
    flights: FlightTable<Waiter>,
    shutdown: AtomicBool,
    pub(crate) deadline: Duration,
    read_deadline: Duration,
    queue_depth: usize,
    inboxes: Vec<Inbox>,
    router: Router,
    /// Per-tenant admission state, indexed like the registry.
    pub(crate) admission: Vec<TenantAdmission>,
    /// Injected forward skew on the deadline clock, in milliseconds —
    /// the chaos suite's clock-skew fault. Skew eats deadline budget
    /// (degrading searches); it never trips the 504 wall-clock check.
    skew_millis: AtomicU64,
    pub(crate) watchdog: Watchdog,
    stall_timeout: Duration,
    /// Configured worker-pool size (caps watchdog replacements).
    workers: usize,
}

impl Shared {
    /// How far ahead the (possibly skewed) deadline clock runs.
    pub(crate) fn skew_ahead(&self) -> Duration {
        Duration::from_millis(self.skew_millis.load(Ordering::Relaxed))
    }

    /// The degradation-ladder level for one request of tenant `idx`
    /// with `remaining` deadline budget left (already net of skew).
    /// Refreshes the `hms_degradation_level` and `hms_breaker_state`
    /// gauges.
    pub(crate) fn ladder_level(&self, tenant: usize, remaining: Option<Duration>) -> u8 {
        let breaker = self.admission[tenant].breaker.state();
        let level = degradation_level(
            self.jobs_pending.load(Ordering::SeqCst) as usize,
            self.queue_depth,
            breaker,
            remaining,
            self.deadline,
        );
        self.metrics
            .breaker_state
            .store(breaker.gauge(), Ordering::Relaxed);
        self.metrics
            .degradation_level
            .store(u64::from(level), Ordering::Relaxed);
        level
    }

    /// The server-wide ladder level `/readyz` and `/metrics` report:
    /// the worst tenant's breaker, the shared queue, and the skewed
    /// clock's drain on a fresh request's budget.
    pub(crate) fn server_ladder_level(&self) -> u8 {
        let breaker = self
            .admission
            .iter()
            .map(|a| a.breaker.state())
            .max_by_key(|s| s.gauge())
            .unwrap_or(BreakerState::Closed);
        let remaining = self.deadline.saturating_sub(self.skew_ahead());
        let level = degradation_level(
            self.jobs_pending.load(Ordering::SeqCst) as usize,
            self.queue_depth,
            breaker,
            Some(remaining),
            self.deadline,
        );
        self.metrics
            .breaker_state
            .store(breaker.gauge(), Ordering::Relaxed);
        self.metrics
            .degradation_level
            .store(u64::from(level), Ordering::Relaxed);
        level
    }
}

/// Take the job-queue lock, recovering from poisoning: a worker that
/// panicked while holding it must not take the whole server down — the
/// queue carries no invariant a panic can break.
fn lock_jobs(shared: &Shared) -> MutexGuard<'_, VecDeque<Job>> {
    shared
        .jobs
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Classify the server's current readiness and mirror it into the
/// `hms_ready_state` gauge.
pub(crate) fn current_ready_state(shared: &Shared) -> ReadyState {
    let state = ready_state(
        shared.shutdown.load(Ordering::SeqCst),
        shared.jobs_pending.load(Ordering::SeqCst) as usize,
        shared.queue_depth,
    );
    shared
        .metrics
        .ready_state
        .store(state.gauge(), Ordering::Relaxed);
    state
}

/// A running server: its bound address plus the levers to observe and
/// stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry (the same numbers `/metrics` renders).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The tenant names this server answers for (index 0 = default).
    pub fn tenants(&self) -> Vec<String> {
        self.shared
            .registry
            .names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Skew the deadline clock `ahead` into the future — the chaos
    /// suite's clock-skew fault. Skewed time drains every request's
    /// deadline budget (forcing searches down the degradation ladder)
    /// without ever tripping the wall-clock 504 check; `Duration::ZERO`
    /// restores normal time.
    pub fn set_clock_skew(&self, ahead: Duration) {
        self.shared.skew_millis.store(
            ahead.as_millis().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// The server-wide degradation-ladder level right now (0 = normal,
    /// 1 = beam cap, 2 = local-search cap). Also refreshes the
    /// `hms_degradation_level` gauge.
    pub fn degradation_level(&self) -> u8 {
        self.shared.server_ladder_level()
    }

    /// Ask the server to stop without blocking. Idempotent.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.job_ready.notify_all();
        for inbox in &self.shared.inboxes {
            inbox.waker.wake();
        }
    }

    /// Whether a shutdown has been requested (by [`Self::request_shutdown`]
    /// or a signal).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Stop accepting, drain queued and in-flight requests, join every
    /// thread. The port is closed when this returns.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Refuse one connection with 503 (job queue full). The stream is still
/// blocking here — accepted sockets don't inherit the listener's
/// nonblocking flag on every platform, and a bounded blocking write is
/// fine off the hot path.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let body = error_body("server overloaded: request queue is full");
    let _ = write_response(&mut stream, 503, "application/json", body.as_bytes(), true);
}

/// Fan a finished response out to every waiter of `key` (or just
/// `waiter` when uncoalesced) — shared by the worker pool and the
/// watchdog's force-claim path, so exactly one of them ever answers a
/// given job.
fn deliver(shared: &Shared, key: Option<&FlightKey>, waiter: &Waiter, resp: &Response) {
    let m = &shared.metrics;
    let waiters = match key {
        Some(key) => {
            m.singleflight_leaders.fetch_add(1, Ordering::Relaxed);
            let ws = shared.flights.complete(key);
            if ws.len() > 1 {
                m.coalesced_requests
                    .fetch_add((ws.len() - 1) as u64, Ordering::Relaxed);
            }
            ws
        }
        None => vec![waiter.clone()],
    };
    fan_out(shared, waiters, resp);
}

/// Queue `resp` for every waiter on its shard's event loop.
fn fan_out(shared: &Shared, waiters: Vec<Waiter>, resp: &Response) {
    for w in waiters {
        let inbox = &shared.inboxes[w.shard];
        inbox
            .completions
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(Completion {
                waiter: w,
                status: resp.status,
                content_type: resp.content_type,
                body: Arc::clone(&resp.body),
            });
        inbox.waker.wake();
    }
}

/// Worker: drain cold jobs, run the handler's compute stage, store a
/// cacheable response, fan it out to every coalesced waiter.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock_jobs(&shared);
            loop {
                if let Some(j) = q.pop_front() {
                    let len = q.len() as u64;
                    shared.jobs_pending.store(len, Ordering::SeqCst);
                    shared.metrics.queue_depth.store(len, Ordering::Relaxed);
                    break Some(j);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = match shared.job_ready.wait_timeout(q, Duration::from_millis(100)) {
                    Ok((guard, _timeout)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        let Some(job) = job else {
            return; // shutdown with an empty queue
        };
        let m = Arc::clone(&shared.metrics);
        m.inflight.fetch_add(1, Ordering::Relaxed);
        let cancel = Arc::new(AtomicBool::new(false));
        let claimed = Arc::new(AtomicBool::new(false));
        let slot_id = shared.watchdog.register(ActiveSlot {
            started: Instant::now(),
            cancel: Arc::clone(&cancel),
            claimed: Arc::clone(&claimed),
            key: job.key.clone(),
            waiter: job.waiter.clone(),
        });
        let ctx = Ctx {
            shared: shared.as_ref(),
            arrived: job.waiter.arrived,
            cancel: Some(cancel),
        };
        // A panicking handler answers 500 and the server keeps serving;
        // the shared state it can reach is all panic-tolerant (atomics,
        // poison-recovering locks).
        let mut resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            job.handler.compute(&ctx, &job.req)
        }))
        .unwrap_or_else(|_| Response::error(500, "internal error: handler panicked"));
        m.inflight.fetch_sub(1, Ordering::Relaxed);
        shared.watchdog.deregister(slot_id);
        if claimed
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            // The watchdog already force-claimed this slot and answered
            // its waiters 504; the late result is dropped uncached so a
            // stall can never poison the cache.
            continue;
        }
        // The response cache's one write site.
        if let Some(key) = resp.cache.take() {
            shared.cache.insert(key, Arc::clone(&resp.body));
        }
        deliver(&shared, job.key.as_ref(), &job.waiter, &resp);
    }
}

/// The pool watchdog: every `interval`, sweep the registered compute
/// slots. Past the stall timeout a slot gets its cooperative cancel
/// flag raised (anytime searches return best-so-far, flagged partial);
/// past twice the timeout the slot is force-claimed — its waiters are
/// answered 504, the breaker records the failure, and a replacement
/// worker is spawned (capped at the pool size) because the wedged
/// thread may never come back.
fn watchdog_loop(shared: Arc<Shared>, interval: Duration) {
    let interval = interval.max(Duration::from_millis(1));
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        let stall = shared.stall_timeout;
        let mut kill: Vec<(u64, Option<FlightKey>, Waiter)> = Vec::new();
        {
            let mut slots = shared.watchdog.lock();
            for (id, slot) in slots.iter() {
                let age = slot.started.elapsed();
                if age > stall {
                    slot.cancel.store(true, Ordering::Relaxed);
                }
                if age > stall.saturating_mul(2)
                    && slot
                        .claimed
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    kill.push((*id, slot.key.clone(), slot.waiter.clone()));
                }
            }
            for (id, _, _) in &kill {
                slots.remove(id);
            }
        }
        for (_, key, waiter) in kill {
            shared
                .metrics
                .watchdog_cancels
                .fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            // Every tenant's breaker sees the stall: the watchdog can't
            // know which tenant wedged the slot, and a stalled pool
            // starves all of them equally.
            for adm in &shared.admission {
                adm.breaker.on_failure();
            }
            let resp = Response::error(504, "compute stalled; cancelled by the pool watchdog");
            deliver(&shared, key.as_ref(), &waiter, &resp);
            let n = shared.watchdog.replacements.load(Ordering::Relaxed);
            if (n as usize) < shared.workers {
                let s = Arc::clone(&shared);
                if std::thread::Builder::new()
                    .name(format!("hms-worker-r{n}"))
                    .spawn(move || worker_loop(s))
                    .is_ok()
                {
                    shared.watchdog.replacements.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// A connection slot in a shard's slab. `gen` bumps on reap so a
/// completion addressed to a previous occupant is recognizably stale.
struct Slot {
    gen: u64,
    conn: Option<Conn>,
}

/// What each poll-set index refers back to.
#[derive(Clone, Copy)]
enum Target {
    WakerRx,
    Listener,
    Conn(usize),
}

/// One shard: an accept + event loop driving its share of connections.
fn shard_loop(shard: usize, listener: TcpListener, shared: Arc<Shared>) {
    let mut poller = Poller::new();
    let mut slots: Vec<Slot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut interests: Vec<Interest> = Vec::new();
    let mut targets: Vec<Target> = Vec::new();
    let inbox = &shared.inboxes[shard];
    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        if draining && slots.iter().all(|s| s.conn.is_none()) {
            return; // every connection drained; dropping the listener clone
        }

        interests.clear();
        targets.clear();
        interests.push(Interest::new(inbox.waker.receiver()));
        targets.push(Target::WakerRx);
        if !draining {
            interests.push(Interest::new(&listener));
            targets.push(Target::Listener);
        }
        for (i, slot) in slots.iter().enumerate() {
            if let Some(conn) = &slot.conn {
                let mut it = Interest::new(conn.stream());
                it.read = conn.wants_read();
                it.write = conn.wants_write();
                interests.push(it);
                targets.push(Target::Conn(i));
            }
        }

        if poller.wait(&mut interests, POLL_TICK).is_err() {
            // Only unrecoverable poll errors land here (EINTR is eaten
            // by the poller); don't spin on them.
            std::thread::sleep(Duration::from_millis(5));
        }

        for (it, target) in interests.iter().zip(&targets) {
            match *target {
                Target::WakerRx => {
                    if it.readable {
                        inbox.waker.drain();
                    }
                }
                Target::Listener => {
                    if it.readable {
                        accept_burst(&shared, &listener, &mut slots, &mut free);
                    }
                }
                Target::Conn(i) => {
                    let gen = slots[i].gen;
                    let Some(conn) = slots[i].conn.as_mut() else {
                        continue;
                    };
                    if it.readable {
                        // Read before honoring a hangup: a FIN can ride
                        // behind valid final requests.
                        match conn.fill() {
                            FillResult::Data | FillResult::Eof => {
                                process_conn(&shared, shard, i, gen, conn);
                            }
                            FillResult::Idle => {}
                        }
                    } else if it.failed {
                        conn.dead = true;
                    }
                    if it.writable && conn.wants_write() {
                        conn.flush();
                    }
                }
            }
        }

        // Deliver completed cold requests back onto their connections.
        let completions = std::mem::take(
            &mut *inbox
                .completions
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        for c in completions {
            let w = c.waiter;
            // The request *was* served even if its connection died
            // while it computed; the latency series should say so.
            shared
                .metrics
                .on_response(w.route, c.status, w.arrived.elapsed());
            let Some(slot) = slots.get_mut(w.conn) else {
                continue;
            };
            if slot.gen != w.gen {
                continue; // slot was reaped and reused; response is stale
            }
            let Some(conn) = slot.conn.as_mut() else {
                continue;
            };
            let close = w.wants_close || shared.shutdown.load(Ordering::SeqCst);
            enqueue_response(conn, c.status, c.content_type, c.body.as_bytes(), close);
            conn.busy = false;
            conn.flush();
            if !close {
                // Pipelined requests parked behind the busy flag.
                process_conn(&shared, shard, w.conn, w.gen, conn);
            }
        }

        // Slowloris sweep: a request that has been arriving for longer
        // than the read deadline is answered 408 and the peer cut off.
        for slot in slots.iter_mut() {
            let Some(conn) = slot.conn.as_mut() else {
                continue;
            };
            if conn.busy || conn.close_after_flush || conn.dead {
                continue;
            }
            if let Some(t0) = conn.first_byte_at {
                if t0.elapsed() > shared.read_deadline {
                    shared.metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
                    read_error(&shared, conn, 408, "request read deadline exceeded");
                }
            }
            if draining && !conn.busy && conn.first_byte_at.is_none() && !conn.wants_write() {
                // Idle keep-alive connection during drain: close it so
                // the shard can exit (mid-request peers keep their
                // read-deadline window).
                conn.dead = true;
            }
        }

        // Reap finished connections; bump `gen` so any in-flight
        // completion for the old occupant is dropped on arrival.
        for (i, slot) in slots.iter_mut().enumerate() {
            if let Some(conn) = &slot.conn {
                if conn.reapable() {
                    slot.conn = None;
                    slot.gen += 1;
                    free.push(i);
                    shared
                        .metrics
                        .open_connections
                        .fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Accept until the listener runs dry, shedding when the job queue is
/// at capacity.
fn accept_burst(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.jobs_pending.load(Ordering::SeqCst) as usize >= shared.queue_depth {
                    shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
                    shed(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let conn = Conn::new(stream);
                match free.pop() {
                    Some(i) => slots[i].conn = Some(conn),
                    None => slots.push(Slot {
                        gen: 0,
                        conn: Some(conn),
                    }),
                }
                shared
                    .metrics
                    .open_connections
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Serialize a response onto the connection's write buffer.
fn enqueue_response(conn: &mut Conn, status: u16, content_type: &str, body: &[u8], close: bool) {
    let mut bytes = Vec::with_capacity(body.len() + 128);
    // Writing to a Vec cannot fail.
    let _ = write_response(&mut bytes, status, content_type, body, close);
    conn.enqueue(&bytes);
    if close {
        conn.close_after_flush = true;
    }
}

/// Answer a request that failed before routing (unreadable, trickled,
/// oversized) and account for it: these responses belong in
/// `hms_responses_total` too — an operator watching a slowloris attack
/// sees the 408s, not a silent loop.
fn read_error(shared: &Shared, conn: &mut Conn, status: u16, msg: &str) {
    shared
        .metrics
        .on_response(Route::Other, status, Duration::ZERO);
    enqueue_response(
        conn,
        status,
        "application/json",
        error_body(msg).as_bytes(),
        true,
    );
    conn.flush();
}

/// Parse and dispatch every complete request buffered on `conn`,
/// stopping at the first one that goes cold (busy) or closes it.
fn process_conn(shared: &Arc<Shared>, shard: usize, idx: usize, gen: u64, conn: &mut Conn) {
    loop {
        if conn.busy || conn.close_after_flush {
            break;
        }
        match conn.next_request() {
            None => break,
            Some(Err(e)) => {
                match e {
                    HttpError::Malformed(m) => {
                        read_error(shared, conn, 400, &format!("malformed request: {m}"))
                    }
                    HttpError::TooLarge(what) => {
                        read_error(shared, conn, 413, &format!("{what} too large"))
                    }
                    // Reset mid-request: nobody left to answer.
                    _ => conn.dead = true,
                }
                break;
            }
            Some(Ok(req)) => handle_request(shared, shard, idx, gen, conn, req),
        }
    }
    conn.flush();
}

/// Take one token of `tenant`'s quota; tenants without one always
/// admit.
fn admits(shared: &Shared, tenant: usize) -> bool {
    shared.admission[tenant]
        .bucket
        .as_ref()
        .is_none_or(|bucket| bucket.try_take())
}

/// Route one request: answer warm outcomes inline, dispatch cold ones
/// to the worker pool (joining an existing flight when an identical
/// request is already computing).
fn handle_request(
    shared: &Arc<Shared>,
    shard: usize,
    idx: usize,
    gen: u64,
    conn: &mut Conn,
    req: Request,
) {
    let arrived = Instant::now();
    let m = &shared.metrics;
    let shutting_down = shared.shutdown.load(Ordering::SeqCst);
    match shared.router.find(&req.method, req.path()) {
        RouteMatch::Found(entry) => {
            m.on_request(entry.route);
            let ctx = Ctx {
                shared: shared.as_ref(),
                arrived,
                cancel: None,
            };
            match entry.handler.poll(&ctx, &req) {
                Outcome::Ready(resp) => {
                    let close = req.wants_close() || shutting_down;
                    m.on_response(entry.route, resp.status, arrived.elapsed());
                    enqueue_response(
                        conn,
                        resp.status,
                        resp.content_type,
                        resp.body.as_bytes(),
                        close,
                    );
                }
                Outcome::Compute { coalesce, charge } => {
                    let waiter = Waiter {
                        shard,
                        conn: idx,
                        gen,
                        route: entry.route,
                        wants_close: req.wants_close(),
                        arrived,
                    };
                    conn.busy = true;
                    let key = coalesce.then(|| FlightKey::new(&req.target, &req.body));
                    let leads = match &key {
                        Some(k) => matches!(shared.flights.join(k, waiter.clone()), Join::Lead),
                        None => true,
                    };
                    // Only a computation spends quota, so only its leader
                    // pays. A refused leader lands its flight with the
                    // 429, so no joiner is left waiting.
                    let refused = leads && charge.is_some_and(|t| !admits(shared, t));
                    if refused {
                        let waiters = match &key {
                            Some(k) => shared.flights.complete(k),
                            None => vec![waiter],
                        };
                        m.admission_rejected
                            .fetch_add(waiters.len() as u64, Ordering::Relaxed);
                        let resp =
                            Response::error(429, "quota exhausted for this config; retry later");
                        fan_out(shared, waiters, &resp);
                    } else if leads {
                        let handler = Arc::clone(&entry.handler);
                        let mut q = lock_jobs(shared);
                        q.push_back(Job {
                            handler,
                            req,
                            key,
                            waiter,
                        });
                        let len = q.len() as u64;
                        shared.jobs_pending.store(len, Ordering::SeqCst);
                        m.queue_depth.store(len, Ordering::Relaxed);
                        drop(q);
                        shared.job_ready.notify_one();
                    }
                }
            }
        }
        RouteMatch::MethodNotAllowed(route) => {
            m.on_request(route);
            let close = req.wants_close() || shutting_down;
            m.on_response(route, 405, arrived.elapsed());
            enqueue_response(
                conn,
                405,
                "application/json",
                error_body(&format!("method {} not allowed here", req.method)).as_bytes(),
                close,
            );
        }
        RouteMatch::NotFound => {
            m.on_request(Route::Other);
            let close = req.wants_close() || shutting_down;
            m.on_response(Route::Other, 404, arrived.elapsed());
            enqueue_response(
                conn,
                404,
                "application/json",
                error_body(&format!("no such endpoint `{}`", req.path())).as_bytes(),
                close,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    use std::sync::mpsc;

    use hms_core::Predictor;
    use hms_kernels::Scale;
    use hms_types::GpuConfig;

    use crate::api::Advisor;

    fn registry() -> ConfigRegistry {
        let cfg = GpuConfig::test_small();
        ConfigRegistry::new("default", Advisor::new(cfg.clone(), Predictor::new(cfg)))
    }

    /// POST `body` on a fresh connection; the response's status code.
    fn post(addr: SocketAddr, path: &str, body: &str) -> u16 {
        let mut s = TcpStream::connect(addr).expect("connects");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write!(
            s,
            "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
        reply[9..12].parse().expect("status line")
    }

    #[test]
    fn cache_entries_bounds_the_bodies_held() {
        const N: usize = 4;
        let h = ServerConfig::new()
            .workers(1)
            .cache_entries(N)
            .spawn(registry())
            .expect("binds");
        // Three times N distinct cacheable answers, over every cached
        // endpoint shape: searches and advises differing in `top`, and
        // predicts of different placements.
        let mut requests = Vec::new();
        for top in 1..=N {
            let q = format!(r#"{{"kernel":"vecadd","scale":"test","top":{top}}}"#);
            requests.push(("/v1/search", q.clone()));
            requests.push(("/v1/advise", q));
        }
        for (a, b) in [("T", "G"), ("G", "T"), ("T", "T"), ("C", "G")] {
            let q = format!(
                r#"{{"kernel":"vecadd","scale":"test","placement":{{"a":"{a}","b":"{b}"}}}}"#
            );
            requests.push(("/v1/predict", q));
        }
        assert!(requests.len() > 2 * N);
        for (path, body) in &requests {
            assert_eq!(post(h.addr(), path, body), 200, "{path} {body}");
            let held = h.shared.cache.len();
            assert!(held <= N, "{held} bodies cached with cache_entries({N})");
        }
        assert!(!h.shared.cache.is_empty());
        h.shutdown();
    }

    /// A cacheable handler whose compute wedges until released.
    struct Wedged {
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl Handler for Wedged {
        fn poll(&self, _ctx: &Ctx<'_>, _req: &Request) -> Outcome {
            Outcome::Compute {
                coalesce: true,
                charge: None,
            }
        }

        fn compute(&self, _ctx: &Ctx<'_>, _req: &Request) -> Response {
            let _ = self.release.lock().unwrap().recv();
            Response::json(200, "{}").cache_as(BodyKey::Kernels(Scale::Test))
        }
    }

    #[test]
    fn a_force_claimed_result_is_dropped_uncached() {
        let (release, rx) = mpsc::channel();
        let h = ServerConfig::new()
            .workers(1)
            .stall_timeout(Duration::from_millis(20))
            .watchdog_interval(Duration::from_millis(5))
            .route(
                "POST",
                "/wedged",
                Arc::new(Wedged {
                    release: Mutex::new(rx),
                }),
            )
            .spawn(registry())
            .expect("binds");
        // The watchdog force-claims the wedged slot and answers 504.
        assert_eq!(post(h.addr(), "/wedged", ""), 504);
        // Un-wedge the worker; shutdown joins it, so by then it has
        // lost the claim and dropped its late result.
        release.send(()).unwrap();
        let shared = Arc::clone(&h.shared);
        h.shutdown();
        assert!(
            shared.cache.is_empty(),
            "a stalled result reached the cache"
        );
    }
}
