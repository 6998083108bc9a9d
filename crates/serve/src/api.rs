//! The advisory API: query types, JSON parsing, and response-body
//! building — shared verbatim by the HTTP server and the CLI's `--json`
//! mode, which is what makes their outputs byte-identical: both sides
//! call exactly the same body builder and exactly the same encoder.
//!
//! The [`Advisor`] owns the model state a long-lived service amortizes:
//! the machine config, the predictor, a kernel-build cache, and the
//! profiled-sample cache (one simulation per `(kernel, scale)`, ever).
//! Response-level caching (predictions, search results) is layered on
//! top by the server and deliberately *not* here, so the CLI path stays
//! a pure function of the query.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hms_core::{profile_sample, Prediction, Predictor, Profile, SearchRequest, SearchStrategy};
use hms_kernels::{by_name, registry, Scale};
use hms_trace::KernelTrace;
use hms_types::{GpuConfig, HmsError, MemorySpace, PlacementMap};

use crate::cache::ShardedLru;
use crate::wire::v1::{
    PlacementV1, PredictRequest, PredictResponse, RankRequest, RankResponse, RankedEntry,
};
use crate::wire::Json;

/// An API failure, classified the way the transport needs it (HTTP
/// status / CLI exit code).
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The query itself is invalid (unparseable JSON, unknown field,
    /// unknown array, illegal placement) — HTTP 400, CLI exit 2.
    BadRequest(String),
    /// The named kernel does not exist — HTTP 404, CLI exit 2.
    UnknownKernel(String),
    /// The model failed on a valid query (non-finite prediction,
    /// numerical failure) — HTTP 500, CLI exit 1.
    Model(HmsError),
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::BadRequest(m) => write!(f, "bad request: {m}"),
            ApiError::UnknownKernel(k) => write!(f, "unknown kernel `{k}`"),
            ApiError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<HmsError> for ApiError {
    /// Classify a model-layer error: placement-validation failures are
    /// the client's fault, everything else is the model's.
    fn from(e: HmsError) -> Self {
        match e {
            HmsError::ArrayCountMismatch { .. }
            | HmsError::ReadOnlyPlacement { .. }
            | HmsError::CapacityExceeded { .. }
            | HmsError::Texture2DNeeds2D { .. }
            | HmsError::InvalidInput(_) => ApiError::BadRequest(e.to_string()),
            other => ApiError::Model(other),
        }
    }
}

/// The long-lived model state behind every advisory query.
pub struct Advisor {
    pub cfg: GpuConfig,
    pub predictor: Predictor,
    kernels: Mutex<HashMap<(String, Scale), Arc<KernelTrace>>>,
    profiles: ShardedLru<(String, Scale), Arc<Profile>>,
    /// When set, search engines persist their skeletons here so a
    /// restarted server warm-starts instead of re-recording walks.
    skeleton_cache: Option<std::path::PathBuf>,
    /// When set, skeleton-cache I/O goes through this filesystem — the
    /// fault-injection seam the chaos tests drive with a `FaultyFs`.
    skeleton_fs: Option<Arc<dyn hms_core::CacheFs>>,
}

/// What serving one query cost — the hooks the server turns into
/// metrics. The CLI ignores it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effort {
    /// A sample simulation ran (profile-cache miss).
    pub simulated: bool,
    /// The profile came from cache.
    pub profile_hit: bool,
}

impl Advisor {
    /// An advisor over `cfg` and `predictor` with a default-sized
    /// profile cache (64 `(kernel, scale)` entries — the full registry at
    /// both scales fits with room to spare).
    pub fn new(cfg: GpuConfig, predictor: Predictor) -> Self {
        Advisor {
            cfg,
            predictor,
            kernels: Mutex::new(HashMap::new()),
            profiles: ShardedLru::new(64, 8),
            skeleton_cache: None,
            skeleton_fs: None,
        }
    }

    /// Persist engine skeletons under `dir` across queries *and*
    /// process restarts. Responses are byte-identical with or without
    /// the cache (stale/corrupt entries silently rebuild), so this is
    /// purely a latency knob for the first search after a restart.
    pub fn with_skeleton_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.skeleton_cache = Some(dir.into());
        self
    }

    /// Like [`Self::with_skeleton_cache`], but with an injected cache
    /// filesystem. The chaos suite hands in a fault-injecting
    /// implementation to prove disk corruption (ENOSPC, torn writes,
    /// bit-rot, failed renames) never changes a response byte.
    pub fn with_skeleton_cache_fs(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        fs: Arc<dyn hms_core::CacheFs>,
    ) -> Self {
        self.skeleton_cache = Some(dir.into());
        self.skeleton_fs = Some(fs);
        self
    }

    /// Build (or reuse) the kernel trace for `(name, scale)`.
    pub fn kernel(&self, name: &str, scale: Scale) -> Result<Arc<KernelTrace>, ApiError> {
        let key = (name.to_string(), scale);
        // A worker that panicked while holding the cache lock can only
        // have left a complete map behind (insert-or-read of immutable
        // `Arc`s), so a poisoned mutex is safe to keep using.
        if let Some(kt) = self
            .kernels
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(&key)
        {
            return Ok(Arc::clone(kt));
        }
        let kt = by_name(name, scale).ok_or_else(|| ApiError::UnknownKernel(name.to_string()))?;
        let kt = Arc::new(kt);
        self.kernels
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .entry(key)
            .or_insert_with(|| Arc::clone(&kt));
        Ok(kt)
    }

    /// The already-built kernel trace for `(name, scale)`, if any. The
    /// event loop's warm fast path peeks here so a cold trace build
    /// never runs on a loop thread — only workers call [`Self::kernel`].
    pub fn cached_kernel(&self, name: &str, scale: Scale) -> Option<Arc<KernelTrace>> {
        self.kernels
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(&(name.to_string(), scale))
            .map(Arc::clone)
    }

    /// The profiled sample placement for `(kernel, scale)` — one
    /// simulation ever per key, then served from the LRU underneath the
    /// response cache.
    pub fn profile(
        &self,
        kt: &KernelTrace,
        scale: Scale,
        effort: &mut Effort,
    ) -> Result<Arc<Profile>, ApiError> {
        let key = (kt.name.clone(), scale);
        if let Some(p) = self.profiles.get(&key) {
            effort.profile_hit = true;
            return Ok(p);
        }
        let p = Arc::new(profile_sample(kt, &kt.default_placement(), &self.cfg)?);
        effort.simulated = true;
        self.profiles.insert(key, Arc::clone(&p));
        Ok(p)
    }

    /// Resolve a query's named moves against the kernel's arrays.
    pub fn resolve_placement(
        &self,
        kt: &KernelTrace,
        moves: &[(String, MemorySpace)],
    ) -> Result<PlacementMap, ApiError> {
        let mut pm = kt.default_placement();
        for (name, space) in moves {
            let Some(idx) = kt.arrays.iter().position(|a| &a.name == name) else {
                return Err(ApiError::BadRequest(format!(
                    "kernel `{}` has no array `{name}`; arrays: {}",
                    kt.name,
                    kt.arrays
                        .iter()
                        .map(|a| a.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            };
            pm = pm.with(kt.arrays[idx].id, *space);
        }
        pm.validate(&kt.arrays, &self.cfg)?;
        Ok(pm)
    }

    /// Serve one predict query: body plus the prediction itself (the
    /// server caches the body; callers wanting numbers read the
    /// [`Prediction`]).
    pub fn predict(
        &self,
        q: &PredictRequest,
        effort: &mut Effort,
    ) -> Result<(Json, Prediction), ApiError> {
        let kt = self.kernel(&q.kernel, q.scale)?;
        let target = self.resolve_placement(&kt, &q.moves)?;
        let profile = self.profile(&kt, q.scale, effort)?;
        let pred = self.predictor.predict(&profile, &target)?;
        let body = PredictResponse {
            kernel: q.kernel.clone(),
            scale: q.scale,
            placement: named_placement(&kt, &target),
            predicted_cycles: pred.cycles,
            t_comp: pred.t_comp,
            t_mem: pred.t_mem,
            t_overlap: pred.t_overlap,
            sample_measured_cycles: profile.measured_cycles as f64,
        };
        Ok((body.to_json(), pred))
    }

    /// Serve one advise/search query: ranked read-only placements. The
    /// body carries the ranking (and, for `/v1/search`, the engine's
    /// deterministic counters); wall-clock timings stay out so identical
    /// queries produce identical bytes.
    ///
    /// `deadline` bounds the search itself: past it, the best-so-far
    /// ranking is returned with a `"partial": true` member. The member
    /// is *omitted* when the search completed, so finished responses are
    /// byte-identical whether or not a deadline was set.
    pub fn rank(
        &self,
        q: &RankRequest,
        include_stats: bool,
        deadline: Option<Instant>,
        effort: &mut Effort,
    ) -> Result<(Json, hms_core::SearchOutcome), ApiError> {
        self.rank_capped(q, include_stats, deadline, None, None, effort)
    }

    /// [`Self::rank`] with the degradation-ladder and watchdog hooks
    /// the server needs:
    ///
    /// * `downgrade` — run this strategy *instead of* the requested one
    ///   (the ladder's cap) and stamp the response `"degraded": true`
    ///   with the gap upper bound actually achieved. `None` runs the
    ///   request as asked, byte-identical to [`Self::rank`].
    /// * `cancel` — a cooperative cancellation flag; the pool watchdog
    ///   raises it on stalled slots and the search returns best-so-far
    ///   flagged partial instead of wedging the worker.
    pub fn rank_capped(
        &self,
        q: &RankRequest,
        include_stats: bool,
        deadline: Option<Instant>,
        downgrade: Option<SearchStrategy>,
        cancel: Option<Arc<AtomicBool>>,
        effort: &mut Effort,
    ) -> Result<(Json, hms_core::SearchOutcome), ApiError> {
        let kt = self.kernel(&q.kernel, q.scale)?;
        let profile = self.profile(&kt, q.scale, effort)?;
        let sample = kt.default_placement();
        let strategy = match downgrade {
            Some(cap) => cap,
            None => q.resolve_strategy()?,
        };
        let mut req = SearchRequest::new(&kt.arrays, &sample)
            .read_only_candidates()
            .strategy(strategy)
            .threads(q.threads)
            .deadline(deadline);
        if let Some(flag) = cancel {
            req = req.cancel_flag(flag);
        }
        if let Some(dir) = &self.skeleton_cache {
            req = match &self.skeleton_fs {
                Some(fs) => req.skeleton_cache_fs(dir.clone(), Arc::clone(fs)),
                None => req.skeleton_cache(dir.clone()),
            };
        }
        let outcome = req.run(&self.predictor, &profile)?;
        let body = RankResponse {
            kernel: q.kernel.clone(),
            scale: q.scale,
            strategy: strategy.name(),
            ranked_total: outcome.ranked.len(),
            ranked: outcome
                .ranked
                .iter()
                .take(q.top)
                .map(|r| RankedEntry {
                    placement: named_placement(&kt, &r.placement),
                    predicted_cycles: r.predicted_cycles,
                })
                .collect(),
            partial: outcome.partial,
            degraded: downgrade.map(|_| outcome.stats.gap_upper_bound),
            stats: include_stats.then_some(outcome.stats),
        };
        Ok((body.to_json(), outcome))
    }

    /// The `GET /v1/kernels` body: every registered kernel with its
    /// arrays at `scale`. The traces come from (and land in) the kernel
    /// cache that predict and search read.
    pub fn kernels_body(&self, scale: Scale) -> Json {
        let kernels: Vec<Json> = registry()
            .into_iter()
            .map(|spec| {
                let kt = self
                    .kernel(spec.name, scale)
                    .expect("registry kernels resolve by name");
                let arrays: Vec<Json> = kt
                    .arrays
                    .iter()
                    .map(|a| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(&a.name)),
                            ("elements".into(), Json::Num(a.dims.elements() as f64)),
                            ("written".into(), Json::Bool(a.written)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::str(spec.name)),
                    ("warps".into(), Json::Num(kt.geometry.total_warps() as f64)),
                    ("arrays".into(), Json::Arr(arrays)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("scale".into(), Json::str(scale.as_str())),
            ("kernels".into(), Json::Arr(kernels)),
        ])
    }
}

/// `array name -> space` in array-id order — the placement spelling
/// every response uses (and the placement in a predict cache key).
pub(crate) fn named_placement(kt: &KernelTrace, pm: &PlacementMap) -> PlacementV1 {
    PlacementV1(
        pm.iter()
            .map(|(id, space)| {
                let name = kt
                    .arrays
                    .get(id.index())
                    .map_or_else(|| format!("#{}", id.0), |a| a.name.clone());
                (name, space)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode;

    fn advisor() -> Advisor {
        let cfg = GpuConfig::test_small();
        Advisor::new(cfg.clone(), Predictor::new(cfg))
    }

    #[test]
    fn predict_query_parses_moves_and_placement() {
        let v =
            decode(r#"{"kernel":"spmv","scale":"test","moves":[{"array":"d_vec","space":"T"}]}"#)
                .unwrap();
        let q = PredictRequest::from_json(&v).unwrap();
        assert_eq!(q.kernel, "spmv");
        assert_eq!(q.scale, Scale::Test);
        assert_eq!(q.moves, vec![("d_vec".into(), MemorySpace::Texture1D)]);

        let v = decode(r#"{"kernel":"vecadd","placement":{"a":"C","b":"T"}}"#).unwrap();
        let q = PredictRequest::from_json(&v).unwrap();
        assert_eq!(q.scale, Scale::Full);
        assert_eq!(q.moves.len(), 2);
    }

    #[test]
    fn queries_reject_junk() {
        for body in [
            r#"{"moves":[]}"#,                                          // no kernel
            r#"{"kernel":"spmv"}"#,                                     // no moves
            r#"{"kernel":"spmv","scale":"huge","moves":[]}"#,           // bad scale
            r#"{"kernel":"spmv","movez":[]}"#,                          // typo field
            r#"{"kernel":"spmv","moves":[{"array":"x","space":"Q"}]}"#, // bad space
            r#"[1,2]"#,                                                 // not an object
        ] {
            let v = decode(body).unwrap();
            assert!(
                matches!(PredictRequest::from_json(&v), Err(ApiError::BadRequest(_))),
                "accepted {body}"
            );
        }
        let v = decode(r#"{"kernel":"spmv","prune":true}"#).unwrap();
        assert!(
            RankRequest::from_json(&v, false).is_err(),
            "advise took prune"
        );
        assert!(RankRequest::from_json(&v, true).is_ok());
    }

    #[test]
    fn predict_body_shape_and_profile_cache() {
        let a = advisor();
        let q = PredictRequest {
            kernel: "vecadd".into(),
            scale: Scale::Test,
            moves: vec![("a".into(), MemorySpace::Texture1D)],
            config: None,
        };
        let mut e1 = Effort::default();
        let (body, pred) = a.predict(&q, &mut e1).unwrap();
        assert!(e1.simulated && !e1.profile_hit);
        assert_eq!(body.get("kernel").and_then(Json::as_str), Some("vecadd"));
        assert_eq!(
            body.get("placement")
                .and_then(|p| p.get("a"))
                .and_then(Json::as_str),
            Some("T")
        );
        assert_eq!(
            body.get("predicted_cycles").and_then(Json::as_f64),
            Some(pred.cycles)
        );
        // Same kernel again: profile must come from cache.
        let mut e2 = Effort::default();
        let (body2, _) = a.predict(&q, &mut e2).unwrap();
        assert!(!e2.simulated && e2.profile_hit);
        assert_eq!(body.encode_pretty(), body2.encode_pretty());
    }

    #[test]
    fn unknown_kernel_and_unknown_array() {
        let a = advisor();
        let mut e = Effort::default();
        let q = PredictRequest {
            kernel: "nope".into(),
            scale: Scale::Test,
            moves: vec![("a".into(), MemorySpace::Constant)],
            config: None,
        };
        assert!(matches!(
            a.predict(&q, &mut e),
            Err(ApiError::UnknownKernel(_))
        ));
        let q = PredictRequest {
            kernel: "vecadd".into(),
            scale: Scale::Test,
            moves: vec![("ghost".into(), MemorySpace::Constant)],
            config: None,
        };
        assert!(matches!(
            a.predict(&q, &mut e),
            Err(ApiError::BadRequest(_))
        ));
        // Illegal placement (written array into constant) is a 400-class
        // error, not a model failure.
        let q = PredictRequest {
            kernel: "vecadd".into(),
            scale: Scale::Test,
            moves: vec![("v".into(), MemorySpace::Constant)],
            config: None,
        };
        assert!(matches!(
            a.predict(&q, &mut e),
            Err(ApiError::BadRequest(_))
        ));
    }

    #[test]
    fn rank_bodies_are_deterministic_and_thread_invariant() {
        let a = advisor();
        let q = RankRequest {
            kernel: "vecadd".into(),
            scale: Scale::Test,
            top: 3,
            prune: false,
            threads: 1,
            config: None,
            strategy: None,
            seed: None,
            beam: None,
        };
        let mut e = Effort::default();
        let (b1, outcome) = a.rank(&q, true, None, &mut e).unwrap();
        let q2 = RankRequest {
            threads: 2,
            ..q.clone()
        };
        let (b2, _) = a.rank(&q2, true, None, &mut e).unwrap();
        assert_eq!(b1.encode_pretty(), b2.encode_pretty());
        assert!(outcome.stats.candidates_evaluated > 0);
        // Finished searches never carry the partial marker.
        assert!(!outcome.partial);
        assert!(b1.get("partial").is_none());
        let ranked = b1.get("ranked").and_then(Json::as_arr).unwrap();
        assert_eq!(ranked.len(), 3);
        // Stats block excludes wall-clock fields.
        let s = b1.get("stats").and_then(Json::as_obj).unwrap();
        assert!(s
            .iter()
            .all(|(k, _)| !k.contains("nanos") && !k.contains("secs")));
    }

    #[test]
    fn anytime_strategy_rank_reports_gap_in_body() {
        let a = advisor();
        let q = RankRequest {
            kernel: "vecadd".into(),
            scale: Scale::Test,
            top: 3,
            prune: false,
            threads: 1,
            config: None,
            strategy: Some("beam".into()),
            seed: None,
            beam: Some(4),
        };
        let mut e = Effort::default();
        let (body, outcome) = a.rank(&q, true, None, &mut e).unwrap();
        assert_eq!(body.get("strategy").and_then(Json::as_str), Some("beam"));
        let stats = body.get("stats").expect("search carries stats");
        assert!(stats.get("candidates_visited").is_some());
        let gap = stats
            .get("gap_upper_bound")
            .and_then(Json::as_f64)
            .expect("anytime stats carry the gap");
        assert!(gap >= 0.0 && gap.is_finite());
        assert_eq!(outcome.stats.strategy, "beam");
        // The anytime members never leak into an exact-strategy body.
        let exact = RankRequest {
            strategy: None,
            beam: None,
            ..q
        };
        let (body, _) = a.rank(&exact, true, None, &mut e).unwrap();
        let text = body.encode_pretty();
        assert!(!text.contains("candidates_visited"));
        assert!(!text.contains("gap_upper_bound"));
    }

    #[test]
    fn expired_deadline_marks_body_partial() {
        let a = advisor();
        let q = RankRequest {
            kernel: "spmv".into(),
            scale: Scale::Test,
            top: 3,
            prune: false,
            threads: 1,
            config: None,
            strategy: None,
            seed: None,
            beam: None,
        };
        let mut e = Effort::default();
        // The deadline is checked between 64-candidate chunks, so the
        // space must span more than one for a cut to land.
        let (_, full) = a.rank(&q, true, None, &mut e).unwrap();
        assert!(full.ranked.len() > 64, "{} candidates", full.ranked.len());
        let deadline = Some(Instant::now()); // already expired
        let (body, outcome) = a.rank(&q, true, deadline, &mut e).unwrap();
        assert!(outcome.partial);
        assert_eq!(body.get("partial").and_then(Json::as_bool), Some(true));
        // Best-so-far is never empty: at least one chunk was evaluated.
        assert!(!outcome.ranked.is_empty());
        // A generous deadline completes and produces the exact same
        // bytes as no deadline at all.
        let far = Some(Instant::now() + std::time::Duration::from_secs(3600));
        let (b_far, o_far) = a.rank(&q, true, far, &mut e).unwrap();
        let (b_none, _) = a.rank(&q, true, None, &mut e).unwrap();
        assert!(!o_far.partial);
        assert_eq!(b_far.encode_pretty(), b_none.encode_pretty());
    }

    #[test]
    fn kernels_body_lists_registry() {
        let a = advisor();
        let body = a.kernels_body(Scale::Test);
        let kernels = body.get("kernels").and_then(Json::as_arr).unwrap();
        assert_eq!(kernels.len(), registry().len());
        assert!(kernels
            .iter()
            .any(|k| k.get("name").and_then(Json::as_str) == Some("spmv")));
        // The listing built its traces into the shared kernel cache.
        for spec in registry() {
            assert!(
                a.cached_kernel(spec.name, Scale::Test).is_some(),
                "{}",
                spec.name
            );
        }
    }
}
