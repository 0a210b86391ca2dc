//! Robustness sweep: the macro-model methodology is not tied to one base
//! configuration. Re-characterize on several micro-architectural variants
//! (cache geometry, miss penalties, branch cost) and check that Table II
//! accuracy holds on each — the characterization flow, not the specific
//! coefficient values, is the reproducible artifact.

use emx_core::{Characterizer, ModelSpec};
use emx_regress::stats;
use emx_rtlpower::RtlEnergyEstimator;
use emx_sim::{CacheConfig, ProcConfig};

fn sweep_point(label: &str, config: ProcConfig) {
    let workloads = emx_workloads::suite::full_training_suite();
    let cases = emx_workloads::suite::training_cases(&workloads);
    let c = match Characterizer::new(config.clone())
        .with_spec(ModelSpec::paper())
        .characterize(&cases)
    {
        Ok(c) => c,
        Err(e) => {
            println!("{label:<34} characterization failed: {e}");
            return;
        }
    };

    let estimator = RtlEnergyEstimator::new();
    let mut errors = Vec::new();
    for w in emx_workloads::apps::all() {
        let est = c
            .model
            .estimate(w.program(), w.ext(), config.clone())
            .expect("estimates");
        let reference = estimator
            .estimate(w.program(), w.ext(), config.clone())
            .expect("reference runs");
        errors.push(est.energy.percent_error_vs(reference.total));
    }
    println!(
        "{label:<34} fit rms {:>5.2}%   app mean |err| {:>5.2}%   app max |err| {:>5.2}%",
        c.fit.rms_percent_error(),
        stats::mean_abs(&errors),
        stats::max_abs(&errors)
    );
}

pub fn run() {
    println!("Micro-architecture sweep: characterize + evaluate per configuration\n");

    sweep_point("T1040 default (16K 4-way, p=14)", ProcConfig::default());

    let two_kb = CacheConfig {
        sets: 32,
        ways: 2,
        line_bytes: 32,
    };
    sweep_point(
        "small caches (2K 2-way)",
        ProcConfig {
            icache: two_kb,
            dcache: two_kb,
            ..ProcConfig::default()
        },
    );

    sweep_point(
        "slow memory (p=40)",
        ProcConfig {
            icache_miss_penalty: 40,
            dcache_miss_penalty: 40,
            uncached_fetch_penalty: 30,
            ..ProcConfig::default()
        },
    );

    sweep_point(
        "deeper pipeline (taken=5, jump=3)",
        ProcConfig {
            branch_taken_cycles: 5,
            jump_cycles: 3,
            ..ProcConfig::default()
        },
    );
}
