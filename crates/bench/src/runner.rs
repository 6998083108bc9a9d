//! Experiment plumbing: profile samples, measure targets, predict with
//! every model variant, in parallel across placements.

use hms_core::{ModelOptions, Predictor, Profile, SimKimModel};
use hms_kernels::Scale;
use hms_sim::{simulate, SimOptions};
use hms_stats::par::par_map;
use hms_trace::materialize;
use hms_types::{GpuConfig, PlacementMap};

use crate::suite::{training_suite, PlacementTest};

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct Harness {
    pub cfg: GpuConfig,
    pub scale: Scale,
}

impl Harness {
    /// The configuration every experiment binary uses: the K80 machine
    /// at full workload scale.
    pub fn paper() -> Self {
        Harness {
            cfg: GpuConfig::tesla_k80(),
            scale: Scale::Full,
        }
    }

    /// A fast configuration for tests.
    pub fn test() -> Self {
        Harness {
            cfg: GpuConfig::test_small(),
            scale: Scale::Test,
        }
    }
}

/// Simulate ("measure") a kernel under a placement; returns cycles.
pub fn measure(h: &Harness, test: &PlacementTest, pm: &PlacementMap) -> u64 {
    let kt = test.kernel(h.scale);
    let ct = materialize(&kt, pm, &h.cfg).expect("suite placements validate");
    simulate(&ct, &h.cfg, &SimOptions::default())
        .expect("simulation completes")
        .cycles
}

/// Profile the sample placement of one test.
pub fn profile(h: &Harness, test: &PlacementTest) -> Profile {
    let kt = test.kernel(h.scale);
    let pm = test.sample_placement(&kt);
    hms_core::profile_sample(&kt, &pm, &h.cfg).expect("sample profiles")
}

/// Profile every placement of the Table IV training suite. Each training
/// placement is profiled as *its own* sample: the training set teaches
/// the ratio model, it never sees the evaluation kernels (Table IV keeps
/// the two sets disjoint).
pub fn training_profiles(h: &Harness) -> Vec<Profile> {
    par_map(&training_suite(), |t| {
        let kt = t.kernel(h.scale);
        let pm = t.target_placement(&kt);
        hms_core::profile_sample(&kt, &pm, &h.cfg).expect("training placement profiles")
    })
}

/// Build a predictor with `options` and train its `T_overlap` model on
/// pre-computed training profiles (the ablation binaries share one
/// profile set across model variants).
pub fn predictor_with(h: &Harness, options: ModelOptions, profiles: &[Profile]) -> Predictor {
    let mut predictor = Predictor::with_options(h.cfg.clone(), options);
    predictor
        .train(profiles)
        .expect("enough training placements");
    predictor
}

/// Build the ablation variants with a *fixed neutral* `T_overlap`
/// (the untrained 0.5 ratio) shared by every variant.
///
/// Using a trained overlap would let the regression absorb each
/// variant's bias — its `T_comp/T_mem` regime feature responds to the
/// very quantities the ablation removes — masking the component's
/// contribution. With the overlap pinned, prediction differences between
/// variants isolate the analytic `T_comp`/`T_mem` machinery, which is
/// what Figures 7–9 measure.
pub fn ablation_predictors(
    h: &Harness,
    variants: &[(&'static str, ModelOptions)],
    profiles: &[Profile],
) -> Vec<(&'static str, Predictor)> {
    let _ = profiles;
    variants
        .iter()
        .map(|(name, o)| (*name, Predictor::with_options(h.cfg.clone(), *o)))
        .collect()
}

/// Train the `T_overlap` model on the Table IV training suite and return
/// a full-model predictor (plus the training profiles for reuse).
pub fn trained_predictor(h: &Harness, options: ModelOptions) -> (Predictor, Vec<Profile>) {
    let profiles = training_profiles(h);
    let predictor = predictor_with(h, options, &profiles);
    (predictor, profiles)
}

/// Outcome of one evaluation point under one model.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub label: &'static str,
    pub measured_cycles: u64,
    pub predicted_cycles: f64,
}

impl ExperimentResult {
    /// Predicted time normalized by measured time (Figure 5's y-axis).
    pub fn normalized(&self) -> f64 {
        self.predicted_cycles / self.measured_cycles as f64
    }

    /// Relative prediction error `|pred - meas| / meas`.
    pub fn error(&self) -> f64 {
        (self.normalized() - 1.0).abs()
    }
}

/// Run `predictor` over the whole suite: for each test, profile the
/// sample, predict the target, and measure the target for comparison.
pub fn run_suite(
    h: &Harness,
    predictor: &Predictor,
    suite: &[PlacementTest],
) -> Vec<ExperimentResult> {
    par_map(suite, |t| {
        let kt = t.kernel(h.scale);
        let target = t.target_placement(&kt);
        let prof = profile(h, t);
        let pred = predictor
            .predict(&prof, &target)
            .expect("prediction succeeds");
        let measured = measure(h, t, &target);
        ExperimentResult {
            label: t.label,
            measured_cycles: measured,
            predicted_cycles: pred.cycles,
        }
    })
}

/// Run the \[7\]-style baseline over the suite.
pub fn run_suite_simkim(h: &Harness, suite: &[PlacementTest]) -> Vec<ExperimentResult> {
    let model = SimKimModel::new(h.cfg.clone());
    par_map(suite, |t| {
        let kt = t.kernel(h.scale);
        let target = t.target_placement(&kt);
        let prof = profile(h, t);
        let pred = model.predict(&prof, &target).expect("prediction succeeds");
        let measured = measure(h, t, &target);
        ExperimentResult {
            label: t.label,
            measured_cycles: measured,
            predicted_cycles: pred,
        }
    })
}

/// Arithmetic-mean relative error over a result set (the paper's 9.9%
/// headline metric for the full model).
pub fn mean_error(results: &[ExperimentResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|r| r.error()).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::evaluation_suite;

    #[test]
    fn measure_and_profile_roundtrip() {
        let h = Harness::test();
        let suite = evaluation_suite();
        let t = &suite[0];
        let kt = t.kernel(h.scale);
        let cycles = measure(&h, t, &t.sample_placement(&kt));
        assert!(cycles > 0);
        let prof = profile(&h, t);
        assert_eq!(prof.measured_cycles, cycles);
    }

    #[test]
    fn experiment_result_metrics() {
        let r = ExperimentResult {
            label: "x",
            measured_cycles: 1000,
            predicted_cycles: 1100.0,
        };
        assert!((r.normalized() - 1.1).abs() < 1e-12);
        assert!((r.error() - 0.1).abs() < 1e-12);
        let under = ExperimentResult {
            label: "y",
            measured_cycles: 1000,
            predicted_cycles: 800.0,
        };
        assert!((under.error() - 0.2).abs() < 1e-12);
        assert!((mean_error(&[r, under]) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn trained_predictor_smoke() {
        let h = Harness::test();
        let (p, profiles) = trained_predictor(&h, ModelOptions::full());
        assert!(p.overlap.is_trained());
        assert!(profiles.len() >= 30);
    }
}
