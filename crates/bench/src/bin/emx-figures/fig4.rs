//! Regenerates Fig. 4: relative accuracy of the macro-model across four
//! custom-instruction choices for the Reed–Solomon application.
//!
//! The paper's claim is not absolute accuracy here but *tracking*: "the
//! energy estimates returned by both these approaches are comparable,
//! while the two profiles track one another. Thus, good relative accuracy
//! is achieved." Rank agreement across the design points is what an
//! energy-aware custom-instruction selection loop needs.

use emx_regress::stats;
use emx_workloads::reed_solomon::RsConfig;

pub fn run() {
    let c = emx_bench::characterize_default();

    println!("Fig. 4 — RS(15,11) codec energy under four custom-instruction choices\n");
    println!(
        "{:<8} {:>14} {:>14} {:>9} {:>10}",
        "config", "estimate (uJ)", "reference (uJ)", "err (%)", "cycles"
    );
    let mut estimates = Vec::new();
    let mut references = Vec::new();
    for cfg in RsConfig::ALL {
        let w = cfg.workload();
        let row = emx_bench::evaluate(&c.model, &w);
        println!(
            "{:<8} {:>14.3} {:>14.3} {:>+9.1} {:>10}",
            cfg.name(),
            row.estimate.as_microjoules(),
            row.reference.as_microjoules(),
            row.error_percent,
            row.cycles
        );
        estimates.push(row.estimate.as_picojoules());
        references.push(row.reference.as_picojoules());
    }

    let rho = stats::spearman(&estimates, &references);
    let r = stats::pearson(&estimates, &references);
    println!("\nprofile tracking: Spearman rank correlation = {rho:.3}, Pearson = {r:.4}");
    println!("(paper: the macro-model and WattWatcher profiles track one another)");
}
