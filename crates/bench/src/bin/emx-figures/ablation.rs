//! Ablation studies A1–A5 (see DESIGN.md): quantifies each design choice
//! of the paper's macro-model by re-running characterization with the
//! choice removed and measuring Table II accuracy.

use emx_core::{ArithGranularity, Characterization, Characterizer, ModelSpec};
use emx_sim::ProcConfig;
use emx_workloads::suite;

fn evaluate_spec(label: &str, spec: ModelSpec) {
    print_row(label, &emx_bench::characterize_with_spec(spec));
}

/// One row: the fit and the Table II accuracy of `c`'s model.
fn print_row(label: &str, c: &Characterization) {
    let rows = emx_bench::table2_rows(&c.model);
    let s = emx_bench::summarize(&rows);
    println!(
        "{label:<44} fit rms {:>5.2}%   app mean |err| {:>5.1}%   app max |err| {:>5.1}%",
        c.fit.rms_percent_error(),
        s.mean_abs,
        s.max_abs
    );
}

pub fn run() {
    println!("Ablation studies (Table II accuracy under template variants)\n");

    evaluate_spec("paper template (hybrid, 21 vars)", ModelSpec::paper());

    // A1: drop the structural variables — the conventional
    // instruction-level-only macro-model the paper argues is insufficient
    // for extensible processors.
    evaluate_spec(
        "A1: instruction-level only (no structural)",
        ModelSpec {
            structural: false,
            ..ModelSpec::paper()
        },
    );

    // A2: drop the custom→base side-effect variable n_CI.
    evaluate_spec(
        "A2: without the n_CI side-effect variable",
        ModelSpec {
            ci_side_effect: false,
            ..ModelSpec::paper()
        },
    );

    // A3: replace the clustered arithmetic class with per-functional-unit
    // variables ("such a clustering is convenient and later seen to be
    // accurate" — how much does finer granularity buy?).
    evaluate_spec(
        "A3: per-unit arithmetic granularity (25 vars)",
        ModelSpec {
            arith: ArithGranularity::PerUnit,
            ..ModelSpec::paper()
        },
    );

    // A4: drop the f(C) bit-width complexity weighting of the structural
    // variables (raw activation counts instead).
    evaluate_spec(
        "A4: without f(C) bit-width weighting",
        ModelSpec {
            width_complexity: false,
            ..ModelSpec::paper()
        },
    );

    // A5: suite diversity — characterize on the kernels alone (without
    // the calibration pairs), and on a deliberately narrowed suite.
    println!();
    let kernels = suite::characterization_suite();
    print_row(
        "A5a: kernels only (no calibration pairs)",
        &emx_bench::characterize_workloads(&kernels, ModelSpec::paper()),
    );
    {
        // Narrow suite: drop whole program families. The paper requires
        // the suite to "cover the instruction space" and "all the custom
        // hardware library components"; a suite without, e.g., the
        // uncached and cache-thrashing programs leaves columns of the
        // design matrix identically zero and the normal equations
        // singular — the regression itself reports the coverage gap.
        let mut narrow = suite::full_training_suite();
        narrow.retain(|w| {
            w.name().starts_with("tie_") || w.name() == "matmul" || w.name().starts_with("cal_")
        });
        let cases = suite::training_cases(&narrow);
        match Characterizer::new(ProcConfig::default()).characterize(&cases) {
            Ok(c) => print_row("A5b: narrowed suite (custom kernels + cal)", &c),
            Err(e) => println!(
                "{:<44} cannot characterize: {e} (coverage gap — the paper's diversity requirement)",
                "A5b: narrowed suite (custom kernels + cal)"
            ),
        }
    }
}
