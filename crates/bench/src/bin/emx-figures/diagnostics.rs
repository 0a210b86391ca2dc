//! Suite-quality diagnostics: variance-inflation factors and leave-one-out
//! cross-validation of the characterization dataset.
//!
//! These quantify *why* the training suite is shaped the way it is (see
//! EXPERIMENTS.md): high VIF names macro-model variables the suite leaves
//! nearly collinear, and LOO errors approximate held-out application
//! accuracy far better than the in-fit residuals of Fig. 3 do.
//!
//! With `--report <report.json>` (a file written by `emx-characterize
//! --report`, schema `emx.characterize-report/1`) the subcommand first
//! replays that run's per-phase timings and per-case fitting errors, so
//! the in-fit residuals can be read side by side with the LOO errors
//! computed below.

use emx_core::{Characterizer, EmxError, ModelSpec};
use emx_obs::doc;
use emx_obs::json::Value;
use emx_regress::diagnostics::{leave_one_out, variance_inflation};
use emx_regress::FitOptions;
use emx_sim::ProcConfig;

/// Prints the phase timings and per-case errors recorded in a
/// `emx.characterize-report/1` JSON file.
fn print_report(path: &str) -> Result<(), EmxError> {
    let text = std::fs::read_to_string(path).map_err(|e| EmxError::io(path, &e))?;
    let doc = doc::open(&text, "emx.characterize-report/1")
        .map_err(|e| EmxError::parse("characterize.report", format!("`{path}`: {e}")))?;

    println!("Characterization report ({path})\n");
    if let Some(timing) = doc.get("timing_us") {
        let us = |key: &str| timing.get(key).and_then(Value::as_u64).unwrap_or(0);
        println!(
            "  phases: ISS {} ms, reference {} ms, solve {} µs — speedup {:.0}×",
            us("iss_simulate") / 1000,
            us("reference_estimate") / 1000,
            us("solve"),
            doc.get("speedup").and_then(Value::as_f64).unwrap_or(0.0),
        );
    }
    if let Some(fit) = doc.get("fit") {
        let pct = |key: &str| fit.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        println!(
            "  fit: R^2 = {:.5}, rms = {:.2}%, max |err| = {:.2}%\n",
            pct("r_squared"),
            pct("rms_percent_error"),
            pct("max_abs_percent_error"),
        );
    }
    for case in doc.get("cases").and_then(Value::as_array).unwrap_or(&[]) {
        println!(
            "  {:<16} {:>9} cycles  ISS {:>7} µs  reference {:>9} µs  in-fit {:>+7.2}%",
            case.get("name").and_then(Value::as_str).unwrap_or("?"),
            case.get("cycles").and_then(Value::as_u64).unwrap_or(0),
            case.get("iss_us").and_then(Value::as_u64).unwrap_or(0),
            case.get("reference_us")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            case.get("percent_error")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
        );
    }
    println!();
    Ok(())
}

/// Replays each report in `reports`, then runs the suite diagnostics.
pub fn run(reports: &[String]) -> Result<(), EmxError> {
    for path in reports {
        print_report(path)?;
    }
    suite_diagnostics();
    Ok(())
}

fn suite_diagnostics() {
    let workloads = emx_workloads::suite::full_training_suite();
    let cases = emx_workloads::suite::training_cases(&workloads);
    let characterizer = Characterizer::new(ProcConfig::default()).with_spec(ModelSpec::paper());
    let dataset = characterizer
        .build_dataset(&cases)
        .expect("training suite simulates");

    println!("Variance-inflation factors (collinearity of each variable)\n");
    let vif = variance_inflation(&dataset).expect("enough samples");
    for (name, v) in dataset.names().iter().zip(&vif) {
        let flag = if *v > 30.0 {
            "  <-- weakly identified"
        } else {
            ""
        };
        println!("  {name:<16} VIF = {v:>8.1}{flag}");
    }

    println!("\nLeave-one-out cross-validation (held-out prediction per program)\n");
    match leave_one_out(&dataset, FitOptions::default()) {
        Ok(report) => {
            for s in &report.samples {
                println!(
                    "  {:<16} observed {:>9.2} uJ  predicted {:>9.2} uJ  {:>+7.2}%",
                    s.label,
                    s.observed * 1e-6,
                    s.predicted * 1e-6,
                    s.percent
                );
            }
            for label in &report.sole_sources {
                println!("  {label:<16} sole signal source for some variable — not predictable");
            }
            println!(
                "\n  LOO rms = {:.2}%   LOO max |err| = {:.2}%",
                report.rms_percent, report.max_abs_percent
            );
            println!("  (compare: Table II application mean |err| ≈ 4%)");
        }
        Err(e) => println!(
            "  leave-one-out failed: {e} (a sample is the sole source of signal for some variable)"
        ),
    }
}
