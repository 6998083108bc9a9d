//! The comparison models of the paper's evaluation.
//!
//! * [`SimKimModel`] — a model in the style of Sim et al. \[7\] (itself
//!   built on Hong & Kim \[6\]): executed-instruction counts (no replays,
//!   no addressing-mode difference), a constant microbenchmark-measured
//!   DRAM latency, and the MWP/CWP formulation for the
//!   computation/memory overlap instead of a trained Eq. 11. This is the
//!   "\[7\]" line in Figure 5.
//! * [`PorpleModel`] — a latency-oriented model in the style of
//!   PORPLE \[4\]: it scores a placement by summing per-space memory
//!   latencies weighted by request counts, with no instruction modeling,
//!   no queuing, and no overlap term. "The model aims to rank
//!   performance of different data placements instead of predicting
//!   execution time" — the Figure 6 comparison.

use hms_trace::rewrite;
use hms_types::{GpuConfig, HmsError, PlacementMap};

use crate::analysis::{analyze, TraceAnalysis};
use crate::profile::Profile;
use crate::tcomp::effective_throughput;

/// A Sim-et-al.-style \[7\] predictor.
#[derive(Debug, Clone)]
pub struct SimKimModel {
    pub cfg: GpuConfig,
}

impl SimKimModel {
    pub fn new(cfg: GpuConfig) -> Self {
        SimKimModel { cfg }
    }

    /// Predict cycles for `target` from the sample `profile`.
    pub fn predict(&self, profile: &Profile, target: &PlacementMap) -> Result<f64, HmsError> {
        let trace = rewrite(&profile.trace, target, &self.cfg)?;
        let analysis = analyze(&trace, &self.cfg);
        Ok(self.predict_from_analysis(profile, &analysis))
    }

    pub fn predict_from_analysis(&self, profile: &Profile, analysis: &TraceAnalysis) -> f64 {
        let cfg = &self.cfg;
        let total_warps = analysis.total_warps.max(1) as f64;
        let active_sms = f64::from(analysis.active_sms.max(1));
        let n = analysis.warps_per_sm.max(1.0);

        // Executed instructions only — the sample's count, since [7]
        // does not model the issued-instruction difference between
        // placements.
        let inst_per_warp = profile.events.inst_executed as f64 / total_warps;
        let t_comp = inst_per_warp * total_warps / active_sms * effective_throughput(cfg, n);

        // Constant memory latency: one microbenchmark number for every
        // off-chip access (the assumption the paper's Section III-C
        // argues against).
        let mem_lat = cfg.l2_hit_lat as f64
            + (cfg.dram.miss_cycles + cfg.dram.burst_cycles) as f64
                * if analysis.l2_transactions > 0 {
                    analysis.l2_misses as f64 / analysis.l2_transactions as f64
                } else {
                    0.0
                };
        let mem_instrs_per_warp = analysis.mem_instrs as f64 / total_warps;
        let mwp = (mem_lat / cfg.dram.burst_cycles as f64).max(1.0).min(n);
        let t_mem = mem_instrs_per_warp * total_warps / active_sms / mwp.max(1.0) * mem_lat;

        // Hong & Kim overlap: if CWP >= MWP the kernel is memory bound
        // and computation hides under memory; otherwise compute bound.
        let comp_per_warp = inst_per_warp * effective_throughput(cfg, n);
        let mem_per_warp = mem_instrs_per_warp * mem_lat;
        let cwp = if comp_per_warp > 0.0 {
            ((mem_per_warp + comp_per_warp) / comp_per_warp).min(n)
        } else {
            n
        };
        let overlap = if cwp >= mwp {
            // Memory bound: most computation overlaps with memory.
            t_comp * (1.0 - 1.0 / mwp.max(1.0))
        } else {
            // Compute bound: memory hides under computation.
            t_mem * (1.0 - 1.0 / cwp.max(1.0))
        };
        (t_comp + t_mem - overlap).max(1.0)
    }
}

/// A PORPLE-style latency-oriented scorer.
#[derive(Debug, Clone)]
pub struct PorpleModel {
    pub cfg: GpuConfig,
}

impl PorpleModel {
    pub fn new(cfg: GpuConfig) -> Self {
        PorpleModel { cfg }
    }

    /// Score `target` (lower = predicted faster). The score is a pure
    /// memory-latency sum: per-space requests x per-space nominal
    /// latency, with cache hits estimated from the trace analysis. No
    /// occupancy effects, no staging costs, no instruction modeling —
    /// the blind spots that make it misrank NN_S in Figure 6.
    pub fn score(&self, profile: &Profile, target: &PlacementMap) -> Result<f64, HmsError> {
        let trace = rewrite(&profile.trace, target, &self.cfg)?;
        // PORPLE reasons from the kernel-body access stream only: it has
        // no concept of the shared-memory staging copies, so the
        // analysis excludes them (one of its Figure 6 blind spots).
        let analysis = crate::analysis::analyze_with(
            &trace,
            &self.cfg,
            crate::analysis::AnalysisOptions {
                include_staging: false,
            },
        );
        Ok(self.score_from_analysis(&analysis))
    }

    pub fn score_from_analysis(&self, analysis: &TraceAnalysis) -> f64 {
        let cfg = &self.cfg;
        let dram = (cfg.dram.miss_cycles + cfg.dram.burst_cycles) as f64;
        let l2 = cfg.l2_hit_lat as f64;
        // Off-chip paths: per-space request counts weighted by hit path
        // latency + miss path latency.
        let global = analysis.global_transactions as f64 * l2;
        let tex =
            analysis.tex_requests as f64 * cfg.tex_hit_lat as f64 + analysis.tex_misses as f64 * l2;
        let konst = analysis.const_requests as f64 * cfg.const_hit_lat as f64
            + analysis.const_misses as f64 * l2;
        let shared = analysis.shared_requests as f64 * cfg.shared_lat as f64;
        let dram_part = analysis.dram.len() as f64 * dram;
        global + tex + konst + shared + dram_part
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_sample;
    use hms_kernels::{neuralnet, vecadd, Scale};
    use hms_types::ArrayId;
    use hms_types::MemorySpace;

    fn cfg() -> GpuConfig {
        GpuConfig::test_small()
    }

    #[test]
    fn simkim_predicts_positive_time() {
        let cfg = cfg();
        let kt = vecadd::build(Scale::Test);
        let pm = kt.default_placement();
        let profile = profile_sample(&kt, &pm, &cfg).unwrap();
        let pred = SimKimModel::new(cfg).predict(&profile, &pm).unwrap();
        assert!(pred > 0.0);
    }

    #[test]
    fn simkim_is_blind_to_addressing_mode_changes() {
        // [7] uses the sample's executed-instruction count, so moving an
        // array to texture memory changes its T_comp not at all — the
        // deficiency our model fixes.
        let cfg = cfg();
        let kt = vecadd::build(Scale::Test);
        let pm = kt.default_placement();
        let profile = profile_sample(&kt, &pm, &cfg).unwrap();
        let model = SimKimModel::new(cfg.clone());
        let t = pm
            .with(ArrayId(0), MemorySpace::Texture1D)
            .with(ArrayId(1), MemorySpace::Texture1D);
        let a_g = analyze(&profile.trace, &cfg);
        let a_t = analyze(&rewrite(&profile.trace, &t, &cfg).unwrap(), &cfg);
        // Memory side may differ, but the instruction side is fixed:
        // verify by comparing compute-only inputs.
        assert!(a_t.executed < a_g.executed);
        let _ = model; // the executed delta above is what SimKim ignores
    }

    #[test]
    fn porple_scores_rank_obvious_cases() {
        // For uniform broadcast reads, constant placement scores better
        // than global under PORPLE (it sees the cheap constant path).
        let cfg = cfg();
        let kt = hms_kernels::convolution::build_rows(Scale::Test);
        let pm = kt.default_placement();
        let profile = profile_sample(&kt, &pm, &cfg).unwrap();
        let model = PorpleModel::new(cfg);
        let g = model.score(&profile, &pm).unwrap();
        let c = model
            .score(&profile, &pm.with(ArrayId(1), MemorySpace::Constant))
            .unwrap();
        assert!(c < g, "constant {c} should score below global {g}");
    }

    #[test]
    fn porple_ignores_shared_staging_cost() {
        // PORPLE's blind spot: a shared placement of the full weights
        // matrix scores *well* because the per-access latency is small,
        // even though staging + occupancy collapse make it slow on the
        // machine. This is the NN_S failure of Figure 6.
        let cfg = cfg();
        let kt = neuralnet::build(Scale::Test);
        let pm = kt.default_placement();
        let profile = profile_sample(&kt, &pm, &cfg).unwrap();
        let model = PorpleModel::new(cfg);
        let g = model.score(&profile, &pm).unwrap();
        let s = model
            .score(&profile, &pm.with(ArrayId(0), MemorySpace::Shared))
            .unwrap();
        assert!(s < g, "PORPLE must (wrongly) prefer shared here");
    }
}
