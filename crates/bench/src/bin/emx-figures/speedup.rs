//! Regenerates the paper's speedup claim (§V): once the macro-model is
//! built, estimating an application's energy takes "only a few seconds …
//! while the average time taken by WattWatcher … is several hours (an
//! average speedup of three orders of magnitude)".
//!
//! Here both paths are in-process simulators rather than a fast ISS vs a
//! commercial RTL simulation farm, so the measured ratio reflects the
//! cost gap between statistics-only simulation + a dot product and
//! full activity-trace generation + per-block switching-energy
//! integration. The *shape* of the claim — macro-model estimation is
//! orders of magnitude cheaper, enabling in-loop design-space
//! exploration — is the reproduced result; see EXPERIMENTS.md for the
//! honest quantitative comparison.

use std::time::Instant;

use emx_rtlpower::RtlEnergyEstimator;
use emx_sim::ProcConfig;

pub fn run() {
    let c = emx_bench::characterize_default();
    let apps = emx_workloads::apps::all();
    let estimator = RtlEnergyEstimator::new();

    println!("Estimation-time comparison over the ten Table II applications\n");
    println!(
        "{:<18} {:>14} {:>14} {:>9}",
        "application", "macro-model", "RTL reference", "speedup"
    );

    let mut total_fast = 0.0f64;
    let mut total_slow = 0.0f64;
    for w in &apps {
        // Warm-up + best-of-3 to de-noise.
        let mut fast = f64::INFINITY;
        let mut slow = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            let est = c
                .model
                .estimate(w.program(), w.ext(), ProcConfig::default())
                .expect("estimation runs");
            std::hint::black_box(est.energy);
            fast = fast.min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            let rep = estimator
                .estimate(w.program(), w.ext(), ProcConfig::default())
                .expect("reference runs");
            std::hint::black_box(rep.total);
            slow = slow.min(t.elapsed().as_secs_f64());
        }
        total_fast += fast;
        total_slow += slow;
        println!(
            "{:<18} {:>12.3} ms {:>12.3} ms {:>8.1}x",
            w.name(),
            fast * 1e3,
            slow * 1e3,
            slow / fast
        );
    }
    println!(
        "\ntotal: {:.3} ms vs {:.3} ms — average speedup {:.0}x",
        total_fast * 1e3,
        total_slow * 1e3,
        total_slow / total_fast
    );
    println!("paper: ~1000x (seconds vs hours, against a commercial RTL flow)");
}
