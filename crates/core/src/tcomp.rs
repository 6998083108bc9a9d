//! The computation-cost model `T_comp` (paper Eq. 2, 3, 13–16).
//!
//! ```text
//! T_comp = (#inst x #total_warps / #active_SMs) x
//!              Effective_instruction_throughput + W_serial        (2)
//! ```
//!
//! `#inst` is the number of *issued* instructions per warp — executed
//! instructions (with the addressing-mode expansion of the target
//! placement) plus instruction replays. Replays decompose per Eq. 3:
//! causes (1)–(4) are recomputed for the target by the trace analysis;
//! causes (5)–(10) are carried over from the sample profile.

use hms_types::GpuConfig;

use crate::analysis::TraceAnalysis;
use crate::profile::Profile;

/// Result of the `T_comp` model, in cycles, with its intermediate terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcompResult {
    pub cycles: f64,
    /// Issued instructions per warp (Eq. 2's `#inst`).
    pub inst_per_warp: f64,
    /// Cycles per issued instruction (Eq. 13).
    pub effective_throughput: f64,
    /// Serialization overhead (Eq. 16).
    pub w_serial: f64,
}

/// Effective instruction throughput in cycles per instruction (Eq. 13),
/// driven by inter-thread ILP (Eq. 14–15).
///
/// Deviation from the printed Eq. 15 (documented in DESIGN.md): the
/// ceiling `ITILP_max` is scaled by the SM's dual-issue width so that a
/// fully-occupied SM reaches `1/issue_width` cycles per instruction —
/// the paper's K80 shares the same property through its
/// `Effective_instruction_throughput` calibration.
pub fn effective_throughput(cfg: &GpuConfig, warps_per_sm: f64) -> f64 {
    let lat = cfg.avg_inst_lat as f64;
    let issue_cycles_per_warp_inst = f64::from(cfg.warp_size) / f64::from(cfg.simd_width);
    let itilp_max = lat * f64::from(cfg.issue_width) / issue_cycles_per_warp_inst;
    let itilp = (cfg.warp_ilp * warps_per_sm).min(itilp_max).max(1.0);
    lat / itilp
}

/// Compute `T_comp` for a target placement.
///
/// `detailed_instr` selects the paper's detailed issued-instruction
/// counting; when false (the "baseline" of Figure 7 and the \[7\]-style
/// model), the *sample* placement's executed-instruction count is used
/// unchanged and replays are ignored.
pub fn tcomp(
    profile: &Profile,
    analysis: &TraceAnalysis,
    cfg: &GpuConfig,
    detailed_instr: bool,
) -> TcompResult {
    let total_warps = analysis.total_warps.max(1) as f64;
    let inst_per_warp = if detailed_instr {
        // Eq. 3: target replays = sample replays - sample_(1-4) + target_(1-4),
        // where the sample terms fold into `other_replays()`.
        let issued = analysis.executed + analysis.replays_1_to_4() + profile.other_replays();
        issued as f64 / total_warps
    } else {
        profile.events.inst_executed as f64 / total_warps
    };

    let throughput = effective_throughput(cfg, analysis.warps_per_sm.max(1.0));
    let active_sms = f64::from(analysis.active_sms.max(1));

    // Eq. 16: W_serial = O_sync + O_SFU + O_CFdiv, assumed equal between
    // placements; the sync term is the only one our machine exposes.
    let syncs_per_sm = analysis.sync_count as f64 / active_sms;
    let w_serial = syncs_per_sm * cfg.avg_inst_lat as f64;

    let cycles = inst_per_warp * total_warps / active_sms * throughput + w_serial;
    TcompResult {
        cycles,
        inst_per_warp,
        effective_throughput: throughput,
        w_serial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::profile::profile_sample;
    use hms_kernels::{vecadd, Scale};
    use hms_trace::materialize;
    use hms_types::{ArrayId, MemorySpace};

    #[test]
    fn throughput_saturates_with_occupancy() {
        let cfg = GpuConfig::tesla_k80();
        let low = effective_throughput(&cfg, 1.0);
        let high = effective_throughput(&cfg, 32.0);
        assert!(low > high);
        // Saturated: dual issue reaches 0.5 cycles/instruction.
        assert!((high - 0.5).abs() < 1e-9);
        // One warp: latency/ILP = 9/3 = 3 cycles per instruction.
        assert!((low - 3.0).abs() < 1e-9);
    }

    #[test]
    fn texture_targets_need_fewer_instructions() {
        let cfg = GpuConfig::test_small();
        let kt = vecadd::build(Scale::Test);
        let sample = kt.default_placement();
        let p = profile_sample(&kt, &sample, &cfg).unwrap();
        let target = sample
            .with(ArrayId(0), MemorySpace::Texture1D)
            .with(ArrayId(1), MemorySpace::Texture1D);
        let a_g = analyze(&materialize(&kt, &sample, &cfg).unwrap(), &cfg);
        let a_t = analyze(&materialize(&kt, &target, &cfg).unwrap(), &cfg);
        let g = tcomp(&p, &a_g, &cfg, true);
        let t = tcomp(&p, &a_t, &cfg, true);
        assert!(t.inst_per_warp < g.inst_per_warp);
        assert!(t.cycles < g.cycles);
    }

    #[test]
    fn baseline_counting_ignores_placement() {
        let cfg = GpuConfig::test_small();
        let kt = vecadd::build(Scale::Test);
        let sample = kt.default_placement();
        let p = profile_sample(&kt, &sample, &cfg).unwrap();
        let target = sample.with(ArrayId(0), MemorySpace::Texture1D);
        let a_t = analyze(&materialize(&kt, &target, &cfg).unwrap(), &cfg);
        let detailed = tcomp(&p, &a_t, &cfg, true);
        let baseline = tcomp(&p, &a_t, &cfg, false);
        // Baseline keeps the sample's instruction count.
        assert!(baseline.inst_per_warp > detailed.inst_per_warp);
    }

    #[test]
    fn tcomp_tracks_simulated_compute_time_for_compute_kernel() {
        // md5hash is almost pure compute: T_comp alone should land within
        // a factor of two of the measured time.
        let cfg = GpuConfig::test_small();
        let kt = hms_kernels::md5hash::build(Scale::Test);
        let sample = kt.default_placement();
        let p = profile_sample(&kt, &sample, &cfg).unwrap();
        let a = analyze(&p.trace, &cfg);
        let t = tcomp(&p, &a, &cfg, true);
        let measured = p.measured_cycles as f64;
        assert!(
            t.cycles > measured * 0.4 && t.cycles < measured * 2.5,
            "tcomp {} vs measured {measured}",
            t.cycles
        );
    }
}
