//! # gpu-hms
//!
//! Performance modeling for optimal data placement on GPUs with
//! heterogeneous memory systems — a full reproduction of Huang & Li,
//! *"Performance Modeling for Optimal Data Placement on GPU with
//! Heterogeneous Memory Systems"* (IEEE CLUSTER 2017), built as a pure
//! Rust workspace with a simulated Tesla-K80-class machine as the
//! evaluation substrate.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`types`] — memory spaces, placements, machine configuration;
//! * [`stats`] — cosine similarity, OLS/stepwise regression, Kingman
//!   G/G/1 queuing, distribution analysis;
//! * [`dram`] — the GDDR5 model with row buffers, per-bank queues, and
//!   the paper's Algorithm-1 address-mapping detection;
//! * [`cache`] — L2 / constant / texture cache and shared-memory bank
//!   models;
//! * [`trace`] — kernel traces, addressing-mode tables, placement
//!   rewriting;
//! * [`kernels`] — the Table IV benchmark workloads;
//! * [`sim`] — the cycle-level execution simulator ("measured" ground
//!   truth);
//! * [`core`] — the paper's contribution: the `T = T_comp + T_mem −
//!   T_overlap` predictor, baselines, ablations, and placement search;
//! * [`serve`] — the placement-advisory HTTP server (std-only):
//!   event-driven readiness loops over `poll(2)`, single-flight
//!   coalescing, a multi-tenant GPU-config registry, JSON wire codec,
//!   one sharded response cache, Prometheus metrics (`hms serve`);
//! * [`faults`] — seed-replayable deterministic fault injection
//!   (slowloris, truncation, resets, adversarial JSON corpus) used by
//!   the chaos suite and the serving benchmark.
//!
//! ## Quick start
//!
//! ```
//! use gpu_hms::prelude::*;
//!
//! // A kernel, its conventional all-global placement, and the machine.
//! let cfg = GpuConfig::test_small();
//! let kernel = gpu_hms::kernels::vecadd::build(Scale::Test);
//! let sample = kernel.default_placement();
//!
//! // Profile the sample placement once (the paper's single profiled run).
//! let profile = profile_sample(&kernel, &sample, &cfg).unwrap();
//!
//! // Predict a target placement without running it.
//! let target = sample
//!     .with(ArrayId(0), MemorySpace::Texture1D)
//!     .with(ArrayId(1), MemorySpace::Texture1D);
//! let predictor = Predictor::new(cfg.clone());
//! let prediction = predictor.predict(&profile, &target).unwrap();
//! assert!(prediction.cycles > 0.0);
//! ```

pub use hms_cache as cache;
pub use hms_core as core;
pub use hms_dram as dram;
pub use hms_faults as faults;
pub use hms_kernels as kernels;
pub use hms_serve as serve;
pub use hms_sim as sim;
pub use hms_stats as stats;
pub use hms_trace as trace;
pub use hms_types as types;

/// The commonly-used names, one `use` away.
pub mod prelude {
    pub use hms_core::{
        enumerate_placements, profile_sample, Engine, EngineStats, ModelOptions, Prediction,
        Predictor, Profile, QueuingMode, SearchOutcome, SearchRequest, SearchStrategy,
        ToverlapModel,
    };
    pub use hms_faults::{FaultClient, FaultKind, FaultPlan};
    pub use hms_kernels::{by_name, registry, Scale};
    pub use hms_serve::{
        Advisor, ConfigRegistry, Handler, Json, Metrics, Outcome, Response, ServerConfig,
        ServerHandle,
    };
    pub use hms_sim::{simulate, simulate_default, EventSet, SimOptions, SimResult};
    pub use hms_trace::{materialize, rewrite, KernelTrace};
    pub use hms_types::{
        ArrayDef, ArrayId, DType, Geometry, GpuConfig, HmsError, MemorySpace, PlacementMap,
    };
}
