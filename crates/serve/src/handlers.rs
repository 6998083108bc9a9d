//! Typed endpoint handlers: the [`Handler`] trait every route
//! implements, plus the built-in advisory endpoints.
//!
//! A handler splits each request into two stages matched to the
//! event-driven server's two kinds of thread:
//!
//! * [`Handler::poll`] runs **on the event loop** and must stay cheap:
//!   answer from static state or a cache ([`Outcome::Ready`]), or ask
//!   for the slow path ([`Outcome::Compute`]). Warm traffic — the
//!   overwhelming majority for an advisory service — never leaves the
//!   loop thread, which is what makes high-connection throughput
//!   possible on small machines.
//! * [`Handler::compute`] runs **on a worker thread** and may block on
//!   model work (sample simulation, engine search). Identical
//!   concurrent requests are single-flighted by the server before
//!   `compute` runs, so a thundering herd costs one evaluation.
//!
//! The [`Ctx`] passed to both stages carries the request's arrival
//! time, the server deadline, metrics, and the multi-tenant registry.
//! The built-ins share one response cache keyed by a canonical form of
//! the parsed request: `poll` looks it up and `compute` re-checks it,
//! but neither writes it — a response names the entry it fills and the
//! worker loop stores it once the watchdog can no longer claim the job.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hms_core::SearchStrategy;
use hms_kernels::Scale;
use hms_trace::KernelTrace;
use hms_types::MemorySpace;

use crate::admission::{apply_cap, strategy_cap};
use crate::api::{named_placement, Advisor, ApiError, Effort};
use crate::http::Request;
use crate::metrics::Metrics;
use crate::server::{current_ready_state, ReadyState, Shared};
use crate::wire::v1::{error_body, PredictRequest, RankRequest};
use crate::wire::{decode, Json};

/// One finished response.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    /// Shared so an N-way coalesced response is encoded once.
    pub body: Arc<String>,
    /// The response-cache entry this body fills, stored by the worker
    /// loop after the watchdog claim check. Only deterministic 200s
    /// (never partial or degraded rankings) name one.
    pub(crate) cache: Option<BodyKey>,
}

impl Response {
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: Arc::new(body.into()),
            cache: None,
        }
    }

    /// A JSON 200 whose body is already shared (cache hits).
    pub fn json_shared(body: Arc<String>) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body,
            cache: None,
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain",
            body: Arc::new(body.into()),
            cache: None,
        }
    }

    /// The standard `{"error": msg}` body.
    pub fn error(status: u16, msg: &str) -> Response {
        Response::json(status, error_body(msg))
    }

    /// Name the response-cache entry this body fills.
    pub(crate) fn cache_as(mut self, key: BodyKey) -> Response {
        self.cache = Some(key);
        self
    }
}

/// The one response-cache key: a parsed request reduced to what can
/// change its response bytes. Model options and overlap training are
/// fixed per tenant (a tenant's advisor never changes after spawn), so
/// the tenant index stands in for them — and keeps two tenants from
/// ever sharing an entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum BodyKey {
    /// `GET /v1/kernels` — the registry is tenant-independent.
    Kernels(Scale),
    /// `POST /v1/predict`, on the *resolved* placement so `moves` and
    /// an equivalent `placement` object share an entry.
    Predict {
        tenant: usize,
        kernel: String,
        scale: Scale,
        placement: Vec<(String, MemorySpace)>,
    },
    /// `POST /v1/advise` (no stats block) and `POST /v1/search`. The
    /// strategy is the resolved one, knobs included; threads stay out
    /// because rankings are thread-invariant.
    Rank {
        tenant: usize,
        kernel: String,
        scale: Scale,
        top: usize,
        strategy: SearchStrategy,
        include_stats: bool,
    },
}

/// What [`Handler::poll`] decided.
pub enum Outcome {
    /// Answer now, on the event loop.
    Ready(Response),
    /// Dispatch to the worker pool ([`Handler::compute`] runs there).
    /// With `coalesce`, concurrent identical requests (same target +
    /// body bytes) share one `compute` — only set it for handlers whose
    /// response is a pure function of the request. `charge` names the
    /// tenant whose quota pays for the computation: only the request
    /// that leads it spends a token (a coalesced joiner spends none),
    /// and an out-of-quota leader answers its whole flight 429.
    Compute {
        coalesce: bool,
        charge: Option<usize>,
    },
}

/// Per-request context handed to both handler stages.
pub struct Ctx<'a> {
    pub(crate) shared: &'a Shared,
    pub(crate) arrived: Instant,
    /// The pool watchdog's cooperative cancel flag for this compute
    /// slot (`None` on the event-loop poll stage).
    pub(crate) cancel: Option<Arc<AtomicBool>>,
}

impl Ctx<'_> {
    /// When the request was parsed off the socket — the deadline anchor.
    pub fn arrived(&self) -> Instant {
        self.arrived
    }

    /// The server's per-request deadline.
    pub fn deadline(&self) -> Duration {
        self.shared.deadline
    }

    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Current readiness (also refreshes the `hms_ready_state` gauge).
    pub fn ready_state(&self) -> ReadyState {
        current_ready_state(self.shared)
    }

    /// Resolve an optional `config` member to a tenant index (`None` =
    /// default tenant). The error is safe to echo in a 400.
    pub fn resolve_config(&self, name: Option<&str>) -> Result<usize, String> {
        self.shared.registry.resolve(name)
    }

    /// The advisor of a resolved tenant.
    pub fn advisor(&self, tenant: usize) -> &Arc<Advisor> {
        self.shared.registry.advisor(tenant)
    }

    /// The watchdog's cooperative cancel flag for this compute slot.
    pub fn cancel_flag(&self) -> Option<Arc<AtomicBool>> {
        self.cancel.as_ref().map(Arc::clone)
    }

    /// Refuse with 504 if the request is already past its deadline —
    /// checked before (and between) expensive stages, so work a dead
    /// client will never see is not started.
    pub fn check_deadline(&self) -> Result<(), Response> {
        if self.arrived.elapsed() > self.shared.deadline {
            self.shared
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            Err(Response::error(
                504,
                &format!(
                    "deadline exceeded ({} ms)",
                    self.shared.deadline.as_millis()
                ),
            ))
        } else {
            Ok(())
        }
    }

    /// The cached response body for `key`, if any.
    fn cached(&self, key: &BodyKey) -> Option<Arc<String>> {
        self.shared.cache.get(key)
    }
}

/// One endpoint. Implementations must be cheap in `poll` (it runs on
/// the event loop) and may block in `compute` (it runs on a worker).
pub trait Handler: Send + Sync {
    fn poll(&self, ctx: &Ctx<'_>, req: &Request) -> Outcome;

    /// The slow path. Only called after `poll` returned
    /// [`Outcome::Compute`]; the default is a loud 500 so a handler
    /// that forgets to implement it fails visibly, not silently.
    fn compute(&self, _ctx: &Ctx<'_>, _req: &Request) -> Response {
        Response::error(500, "endpoint has no compute stage")
    }
}

/// Decode a POST body as JSON, mapping failures to ready-made 400s.
fn parse_body(req: &Request) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    decode(text).map_err(|e| Response::error(400, &format!("invalid JSON: {e}")))
}

/// Map an [`ApiError`] to its response (400/404/500 per classification).
fn api_error(e: ApiError) -> Response {
    let status = match &e {
        ApiError::BadRequest(_) => 400,
        ApiError::UnknownKernel(_) => 404,
        ApiError::Model(_) => 500,
    };
    Response::error(status, &e.to_string())
}

/// The 404 a worker would answer for a kernel name nothing can build,
/// decided from the name alone so it spends no quota or worker slot.
fn unknown_kernel(name: &str) -> Option<Response> {
    (!hms_kernels::is_known(name)).then(|| api_error(ApiError::UnknownKernel(name.to_string())))
}

/// Parse `?scale=` (default full) for `GET /v1/kernels`.
fn query_scale(req: &Request) -> Result<Scale, String> {
    match req.target.split_once('?') {
        None => Ok(Scale::Full),
        Some((_, qs)) => {
            for pair in qs.split('&') {
                if let Some(v) = pair.strip_prefix("scale=") {
                    return Scale::parse(v).ok_or_else(|| format!("unknown scale `{v}`"));
                }
            }
            Ok(Scale::Full)
        }
    }
}

fn count_effort(m: &Metrics, e: &Effort) {
    if e.simulated {
        m.simulations.fetch_add(1, Ordering::Relaxed);
        m.profile_cache_misses.fetch_add(1, Ordering::Relaxed);
    }
    if e.profile_hit {
        m.profile_cache_hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// Feed a finished compute's outcome to the tenant's circuit breaker:
/// 5xx responses count as failures (watchdog kills are fed by the
/// watchdog itself), a 200 as success. Client errors say nothing about
/// the server's health and leave the breaker alone.
fn feed_breaker(ctx: &Ctx<'_>, tenant: usize, resp: &Response) {
    let breaker = &ctx.shared.admission[tenant].breaker;
    if resp.status >= 500 {
        breaker.on_failure();
    } else if resp.status == 200 {
        breaker.on_success();
    }
}

/// `GET /healthz` — liveness, nothing else.
pub(crate) struct Healthz;

impl Handler for Healthz {
    fn poll(&self, _ctx: &Ctx<'_>, _req: &Request) -> Outcome {
        Outcome::Ready(Response::text(200, "ok\n"))
    }
}

/// `GET /readyz` — readiness, distinct from liveness.
pub(crate) struct Readyz;

impl Handler for Readyz {
    fn poll(&self, ctx: &Ctx<'_>, _req: &Request) -> Outcome {
        let (status, body) = match ctx.ready_state() {
            // A degraded ladder still answers 200: the server serves
            // every request, just with cheaper, gap-bounded strategies.
            // The body says so, and `hms_degradation_level` gauges it.
            ReadyState::Ready => match ctx.shared.server_ladder_level() {
                0 => (200, "ready\n".to_string()),
                lvl => (200, format!("ready (degraded level {lvl})\n")),
            },
            ReadyState::Degraded => (503, "degraded: request queue at capacity\n".to_string()),
            ReadyState::Draining => (503, "draining: shutdown in progress\n".to_string()),
        };
        Outcome::Ready(Response::text(status, body))
    }
}

/// `GET /metrics` — Prometheus text exposition.
pub(crate) struct MetricsEndpoint;

impl Handler for MetricsEndpoint {
    fn poll(&self, ctx: &Ctx<'_>, _req: &Request) -> Outcome {
        // Refresh the readiness and ladder gauges so a scrape sees the
        // same state `/readyz` would report right now.
        ctx.ready_state();
        ctx.shared.server_ladder_level();
        Outcome::Ready(Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: Arc::new(ctx.metrics().render()),
            cache: None,
        })
    }
}

/// `GET /v1/kernels` — the registry listing. Building every kernel
/// trace is bounded but not event-loop cheap, so it computes.
pub(crate) struct Kernels;

impl Handler for Kernels {
    fn poll(&self, ctx: &Ctx<'_>, req: &Request) -> Outcome {
        let scale = match query_scale(req) {
            Ok(s) => s,
            Err(e) => return Outcome::Ready(Response::error(400, &e)),
        };
        match ctx.cached(&BodyKey::Kernels(scale)) {
            Some(body) => Outcome::Ready(Response::json_shared(body)),
            None => Outcome::Compute {
                coalesce: true,
                charge: None,
            },
        }
    }

    fn compute(&self, ctx: &Ctx<'_>, req: &Request) -> Response {
        let scale = match query_scale(req) {
            Ok(s) => s,
            Err(e) => return Response::error(400, &e),
        };
        // The kernel registry is tenant-independent; the default
        // advisor's view is everyone's view.
        Response::json(200, ctx.advisor(0).kernels_body(scale).encode_pretty())
            .cache_as(BodyKey::Kernels(scale))
    }
}

/// `POST /v1/predict`.
pub(crate) struct Predict;

impl Predict {
    /// Parse + resolve the parts both stages need.
    fn query(&self, ctx: &Ctx<'_>, req: &Request) -> Result<(PredictRequest, usize), Response> {
        let v = parse_body(req)?;
        let q = PredictRequest::from_json(&v).map_err(api_error)?;
        let tenant = ctx
            .resolve_config(q.config.as_deref())
            .map_err(|e| Response::error(400, &e))?;
        Ok((q, tenant))
    }

    /// The cache key, on the placement resolved against `kt`'s arrays.
    fn key(
        advisor: &Advisor,
        tenant: usize,
        q: &PredictRequest,
        kt: &KernelTrace,
    ) -> Result<BodyKey, ApiError> {
        let resolved = advisor.resolve_placement(kt, &q.moves)?;
        Ok(BodyKey::Predict {
            tenant,
            kernel: q.kernel.clone(),
            scale: q.scale,
            placement: named_placement(kt, &resolved).0,
        })
    }
}

impl Handler for Predict {
    fn poll(&self, ctx: &Ctx<'_>, req: &Request) -> Outcome {
        if let Err(resp) = ctx.check_deadline() {
            return Outcome::Ready(resp);
        }
        let (q, tenant) = match self.query(ctx, req) {
            Ok(parts) => parts,
            Err(resp) => return Outcome::Ready(resp),
        };
        // The key needs the kernel trace, and a cold trace build is
        // worker-pool work: only an already-built trace is looked up.
        let advisor = ctx.advisor(tenant);
        if let Some(kt) = advisor.cached_kernel(&q.kernel, q.scale) {
            let key = match Self::key(advisor, tenant, &q, &kt) {
                Ok(key) => key,
                Err(e) => return Outcome::Ready(api_error(e)),
            };
            if let Some(body) = ctx.cached(&key) {
                ctx.metrics()
                    .prediction_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                return Outcome::Ready(Response::json_shared(body));
            }
        } else if let Some(resp) = unknown_kernel(&q.kernel) {
            return Outcome::Ready(resp);
        }
        // Only cold requests consume quota, and only the one that leads
        // the computation; warm cache hits above stay free.
        Outcome::Compute {
            coalesce: true,
            charge: Some(tenant),
        }
    }

    fn compute(&self, ctx: &Ctx<'_>, req: &Request) -> Response {
        if let Err(resp) = ctx.check_deadline() {
            return resp;
        }
        let (q, tenant) = match self.query(ctx, req) {
            Ok(parts) => parts,
            Err(resp) => return resp,
        };
        let resp = self.compute_for(ctx, &q, tenant);
        feed_breaker(ctx, tenant, &resp);
        resp
    }
}

impl Predict {
    /// The tenant-resolved slow path; split out so `compute` can feed
    /// the tenant's breaker with whatever this returns.
    fn compute_for(&self, ctx: &Ctx<'_>, q: &PredictRequest, tenant: usize) -> Response {
        let m = ctx.metrics();
        let advisor = ctx.advisor(tenant);
        let key = match advisor
            .kernel(&q.kernel, q.scale)
            .and_then(|kt| Self::key(advisor, tenant, q, &kt))
        {
            Ok(key) => key,
            Err(e) => return api_error(e),
        };
        // The coalescing window only covers byte-identical requests; an
        // equivalent spelling (`moves` vs `placement`) may have filled
        // the cache since `poll` looked.
        if let Some(body) = ctx.cached(&key) {
            m.prediction_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Response::json_shared(body);
        }
        m.prediction_cache_misses.fetch_add(1, Ordering::Relaxed);
        if let Err(resp) = ctx.check_deadline() {
            return resp;
        }
        let mut effort = Effort::default();
        let (body, _pred) = match advisor.predict(q, &mut effort) {
            Ok(out) => out,
            Err(e) => return api_error(e),
        };
        count_effort(m, &effort);
        m.predictions_computed.fetch_add(1, Ordering::Relaxed);
        Response::json(200, body.encode_pretty()).cache_as(key)
    }
}

/// `POST /v1/advise` (`search: false`) and `POST /v1/search`
/// (`search: true` — search knobs allowed, stats block included).
pub(crate) struct Rank {
    pub(crate) search: bool,
}

impl Rank {
    fn query(&self, ctx: &Ctx<'_>, req: &Request) -> Result<(RankRequest, usize), Response> {
        let v = parse_body(req)?;
        let q = RankRequest::from_json(&v, self.search).map_err(api_error)?;
        let tenant = ctx
            .resolve_config(q.config.as_deref())
            .map_err(|e| Response::error(400, &e))?;
        Ok((q, tenant))
    }

    /// The requested strategy. Infallible here: `query()` already
    /// parsed the request, and parsing rejects every unresolvable
    /// strategy combination.
    fn strategy(q: &RankRequest) -> SearchStrategy {
        q.resolve_strategy()
            .expect("strategy validated at the parse edge")
    }

    fn key(&self, tenant: usize, q: &RankRequest) -> BodyKey {
        BodyKey::Rank {
            tenant,
            kernel: q.kernel.clone(),
            scale: q.scale,
            top: q.top,
            strategy: Self::strategy(q),
            include_stats: self.search,
        }
    }
}

impl Handler for Rank {
    fn poll(&self, ctx: &Ctx<'_>, req: &Request) -> Outcome {
        if let Err(resp) = ctx.check_deadline() {
            return Outcome::Ready(resp);
        }
        let (q, tenant) = match self.query(ctx, req) {
            Ok(parts) => parts,
            Err(resp) => return Outcome::Ready(resp),
        };
        if let Some(body) = ctx.cached(&self.key(tenant, &q)) {
            ctx.metrics()
                .search_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Outcome::Ready(Response::json_shared(body));
        }
        if let Some(resp) = unknown_kernel(&q.kernel) {
            return Outcome::Ready(resp);
        }
        // Only cold requests consume quota, and only the one that leads
        // the computation; warm cache hits above stay free.
        Outcome::Compute {
            coalesce: true,
            charge: Some(tenant),
        }
    }

    fn compute(&self, ctx: &Ctx<'_>, req: &Request) -> Response {
        if let Err(resp) = ctx.check_deadline() {
            return resp;
        }
        let (q, tenant) = match self.query(ctx, req) {
            Ok(parts) => parts,
            Err(resp) => return resp,
        };
        let resp = self.compute_for(ctx, &q, tenant);
        feed_breaker(ctx, tenant, &resp);
        resp
    }
}

impl Rank {
    /// The tenant-resolved slow path, with the degradation ladder in
    /// front of the engine: under pressure the requested strategy is
    /// downgraded (never upgraded) to the ladder's cap, and the
    /// response is stamped `"degraded": true` with the gap bound the
    /// cheaper strategy actually achieved. Degraded answers stay
    /// bit-deterministic — the downgraded strategy is itself
    /// deterministic — and are never cached.
    fn compute_for(&self, ctx: &Ctx<'_>, q: &RankRequest, tenant: usize) -> Response {
        let m = ctx.metrics();
        let key = self.key(tenant, q);
        if let Some(body) = ctx.cached(&key) {
            m.search_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Response::json_shared(body);
        }
        m.search_cache_misses.fetch_add(1, Ordering::Relaxed);
        if let Err(resp) = ctx.check_deadline() {
            return resp;
        }
        let mut effort = Effort::default();
        // The search stops at the request deadline and returns
        // best-so-far flagged `"partial": true` instead of timing out
        // with nothing. Injected clock skew drains the budget here —
        // degrading or truncating the search — but never feeds the
        // wall-clock 504 check above, so a skewed clock cannot turn
        // in-quota traffic into 5xx.
        let budget = ctx.shared.deadline.saturating_sub(ctx.shared.skew_ahead());
        let deadline = Some(ctx.arrived + budget);
        let remaining = budget.saturating_sub(ctx.arrived.elapsed());
        let level = ctx.shared.ladder_level(tenant, Some(remaining));
        let (effective, degraded) = apply_cap(Self::strategy(q), strategy_cap(level));
        let (body, outcome) = match ctx.advisor(tenant).rank_capped(
            q,
            self.search,
            deadline,
            degraded.then_some(effective),
            ctx.cancel_flag(),
            &mut effort,
        ) {
            Ok(out) => out,
            Err(e) => return api_error(e),
        };
        count_effort(m, &effort);
        m.on_engine_stats(&outcome.stats);
        if degraded {
            m.degraded_responses.fetch_add(1, Ordering::Relaxed);
        }
        let resp = Response::json(200, body.encode_pretty());
        // Partial or degraded rankings reflect this request's pressure,
        // not the query — caching either would pin an approximation as
        // the answer forever.
        if !outcome.partial && !degraded {
            resp.cache_as(key)
        } else {
            resp
        }
    }
}
