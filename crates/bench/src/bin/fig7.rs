//! **Figure 7**: the impact of detailed instruction counting (addressing
//! -mode difference + instruction replays) on modeling accuracy.
//!
//! "Introducing the detailed instruction counting improves modeling
//! accuracy by 17% on average ... fft_1, NN_S, and bfs_2 \[show\] 142%,
//! 106%, and 67% difference in modeling accuracy."
//!
//! ```text
//! cargo run -p hms-bench --release --bin fig7
//! ```

use hms_bench::runner::{ablation_predictors, mean_error, run_suite, training_profiles};
use hms_bench::{evaluation_suite, Harness, Table};
use hms_core::ModelOptions;

fn main() {
    let h = Harness::paper();
    let suite = evaluation_suite();
    eprintln!("training T_overlap variants...");
    let profiles = training_profiles(&h);
    let predictors = ablation_predictors(
        &h,
        &[
            ("baseline", ModelOptions::baseline()),
            ("+instr", ModelOptions::baseline_plus_instr()),
        ],
        &profiles,
    );
    let r_base = run_suite(&h, &predictors[0].1, &suite);
    let r_instr = run_suite(&h, &predictors[1].1, &suite);

    println!("Figure 7: baseline vs baseline + instruction replay & addressing-mode counting");
    println!("(predicted / measured; 1.000 is perfect)\n");
    let mut table = Table::new(&[
        "benchmark",
        "baseline",
        "base err",
        "+instr counting",
        "+instr err",
        "delta",
    ]);
    for (b, i) in r_base.iter().zip(&r_instr) {
        table.row(vec![
            b.label.into(),
            format!("{:.3}", b.normalized()),
            format!("{:.1}%", b.error() * 100.0),
            format!("{:.3}", i.normalized()),
            format!("{:.1}%", i.error() * 100.0),
            format!("{:+.1}pp", (b.error() - i.error()) * 100.0),
        ]);
    }
    println!("{}", table.render());
    let eb = mean_error(&r_base);
    let ei = mean_error(&r_instr);
    println!(
        "average error: baseline {:.1}%  ->  +instr counting {:.1}%",
        eb * 100.0,
        ei * 100.0
    );
    println!(
        "improvement: {:.1} percentage points (paper: ~17% average improvement)",
        (eb - ei) * 100.0
    );
}
