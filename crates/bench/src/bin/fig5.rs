//! **Figure 5**: prediction accuracy of the full model vs the
//! Sim-et-al.-style \[7\] baseline over the evaluation suite.
//!
//! The paper reports 9.9% average error for its model and a 17.6%
//! average accuracy improvement over \[7\], with the largest gains on
//! NN_C / SCAN_2 (instruction replays) and Reduction_2 (row-buffer
//! misses).
//!
//! ```text
//! cargo run -p hms-bench --release --bin fig5
//! ```

use hms_bench::runner::{mean_error, run_suite, run_suite_simkim};
use hms_bench::{evaluation_suite, trained_predictor, Harness, Table};
use hms_core::ModelOptions;

fn main() {
    let h = Harness::paper();
    let suite = evaluation_suite();
    eprintln!("training T_overlap on the Table IV training suite...");
    let (predictor, profiles) = trained_predictor(&h, ModelOptions::full());
    eprintln!(
        "trained on {} placements (R^2 = {:.3})\n",
        profiles.len(),
        predictor.overlap.r_squared.unwrap_or(f64::NAN)
    );

    let ours = run_suite(&h, &predictor, &suite);
    let simkim = run_suite_simkim(&h, &suite);

    println!("Figure 5: predicted performance normalized by measured performance");
    println!("(1.000 = perfect prediction)\n");
    let mut table = Table::new(&[
        "benchmark",
        "measured cyc",
        "ours",
        "ours err",
        "[7]",
        "[7] err",
    ]);
    for (o, s) in ours.iter().zip(&simkim) {
        assert_eq!(o.label, s.label);
        table.row(vec![
            o.label.into(),
            o.measured_cycles.to_string(),
            format!("{:.3}", o.normalized()),
            format!("{:.1}%", o.error() * 100.0),
            format!("{:.3}", s.normalized()),
            format!("{:.1}%", s.error() * 100.0),
        ]);
    }
    println!("{}", table.render());

    let ours_err = mean_error(&ours);
    let simkim_err = mean_error(&simkim);
    // Bootstrap 95% CIs over the 14 evaluation points.
    let errs =
        |rs: &[hms_bench::ExperimentResult]| -> Vec<f64> { rs.iter().map(|r| r.error()).collect() };
    let ci_ours = hms_stats::bootstrap_mean_ci(&errs(&ours), 0.95, 4000, 5).expect("non-empty");
    let ci_simkim = hms_stats::bootstrap_mean_ci(&errs(&simkim), 0.95, 4000, 5).expect("non-empty");
    println!(
        "average prediction error: ours {:.1}% (95% CI {:.1}-{:.1}%)  |  [7]-style {:.1}% (95% CI {:.1}-{:.1}%)",
        ours_err * 100.0,
        ci_ours.lo * 100.0,
        ci_ours.hi * 100.0,
        simkim_err * 100.0,
        ci_simkim.lo * 100.0,
        ci_simkim.hi * 100.0
    );
    println!(
        "accuracy improvement over [7]: {:.1} percentage points",
        (simkim_err - ours_err) * 100.0
    );
    println!("\npaper: ours 9.9% average error; 17.6% average improvement over [7].");
}
