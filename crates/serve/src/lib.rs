//! # hms-serve — placement-advisory server
//!
//! A zero-dependency (std-only) HTTP/1.1 service that answers the
//! paper's core question — *given a kernel and a candidate placement,
//! how long will it run?* — over the network, so placement decisions
//! can be made by tooling that doesn't link the model:
//!
//! * `POST /v1/predict` — predicted `T`, `T_comp`, `T_mem`, `T_overlap`
//!   (Eq. 1) for one kernel + scale + placement;
//! * `POST /v1/advise` — top-k placements, ranked;
//! * `POST /v1/search` — ranked placements plus the incremental
//!   engine's deterministic counters;
//! * `GET /v1/kernels` — the built-in kernel registry;
//! * `GET /metrics` — Prometheus text exposition (request counts,
//!   latency histograms, cache hit rates, engine counters);
//! * `GET /healthz` — liveness;
//! * `GET /readyz` — readiness, distinct from liveness: 503 with a
//!   reason while shedding (queue at capacity) or draining (shutdown).
//!
//! Everything is built from `std::net` + `std::thread` + a `poll(2)`
//! binding ([`poller`] — std already links libc): a hand-rolled
//! escaping-correct JSON codec ([`wire`]), an HTTP/1.1 reader/writer
//! with strict limits ([`http`]), one sharded LRU ([`cache`]) of
//! response bodies keyed by the parsed request and its tenant,
//! sharded event loops feeding a bounded worker pool through two-stage
//! [`Handler`]s ([`server`], [`handlers`]), single-flight coalescing
//! of concurrent identical requests ([`singleflight`]), a multi-tenant
//! GPU-config registry ([`registry`]), and signal-driven graceful
//! shutdown ([`signal`]).
//!
//! The same response-body builders back the CLI's `--json` mode
//! ([`api`]), so `hms predict --json ...` and `POST /v1/predict` are
//! byte-identical by construction — asserted by the integration tests.

pub mod admission;
pub mod api;
pub mod cache;
pub mod conn;
pub mod handlers;
pub mod http;
pub mod metrics;
pub mod poller;
pub mod registry;
pub mod server;
pub mod signal;
pub mod singleflight;
pub mod wire;

pub use admission::{
    apply_cap, degradation_level, strategy_cap, BreakerState, CircuitBreaker, TokenBucket,
};
pub use api::{Advisor, ApiError, Effort};
pub use cache::ShardedLru;
pub use handlers::{Ctx, Handler, Outcome, Response};
pub use metrics::{Metrics, Route};
pub use registry::{preset, ConfigRegistry, PRESET_NAMES};
pub use server::{ready_state, ReadyState, ServerConfig, ServerHandle};
pub use wire::{decode, Json, WireError};
