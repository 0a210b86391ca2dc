//! `emx-characterize`: run the one-time characterization flow over the
//! built-in training suite and write the fitted macro-model to a text
//! file, ready for `emx-run --model`.
//!
//! ```sh
//! emx-characterize model.txt
//! emx-characterize model.txt --report report.json   # + per-phase timings,
//!                                                   #   per-case fit errors
//! emx-run program.s --tie ext.tie --model model.txt # instant estimates
//! ```
//!
//! The report (schema `emx.characterize-report/1`) records wall-clock
//! time per phase (ISS simulation, reference estimation, least-squares
//! solve), the measured ISS-vs-reference speedup, and one entry per
//! training case with its cycles, timings and signed fitting error —
//! `emx-figures diagnostics --report` consumes it.
//!
//! Before writing the model, the suite's design matrix is gated by the
//! `emx-coverage` excitation analyzer: an ill-conditioned suite (a
//! sole-source variable, collinear columns, an excessive condition
//! number) would produce coefficients that fit the suite but extrapolate
//! badly, so characterization **refuses** (exit 1) rather than emit a
//! silently fragile model. `--skip-coverage-check` bypasses the gate for
//! deliberate experiments with reduced suites.

use std::process::ExitCode;

use emx::core::cli::{self, Args};
use emx::core::{Characterizer, EmxError, ErrorKind};
use emx::coverage::{analyze, Thresholds};
use emx::obs::Collector;
use emx::sim::ProcConfig;
use emx::workloads::suite;

const USAGE: &str =
    "usage: emx-characterize <model-output.txt> [--report <out.json>] [--skip-coverage-check]";

fn run(path: &str, report_path: Option<&str>, skip_coverage: bool) -> Result<(), EmxError> {
    println!("characterizing the emx base processor over the built-in training suite…");
    let workloads = suite::full_training_suite();
    let cases = suite::training_cases(&workloads);
    let mut obs = Collector::disabled();
    let (result, report, dataset) = Characterizer::new(ProcConfig::default())
        .characterize_with_dataset(&cases, &mut obs)
        .map_err(|e| EmxError::from(e).context("characterization failed"))?;

    if skip_coverage {
        println!("suite coverage gate: skipped (--skip-coverage-check)");
    } else {
        let analysis = analyze(&dataset, &Thresholds::default()).map_err(|e| {
            EmxError::new(
                ErrorKind::Model,
                "characterize.coverage",
                format!("coverage analysis failed: {e}"),
            )
        })?;
        if analysis.passes() {
            println!(
                "suite coverage gate: ok ({} cases, condition number {:.1})",
                analysis.cases, analysis.condition_number
            );
        } else {
            for failure in analysis.failures() {
                eprintln!("coverage gap: {failure}");
            }
            return Err(EmxError::new(
                ErrorKind::Model,
                "characterize.coverage",
                format!(
                    "training suite is ill-conditioned ({} gap(s)); a model fitted from it \
                     would extrapolate badly — fix the suite (see `emx-validate --coverage`) \
                     or pass --skip-coverage-check",
                    analysis.failures().len()
                ),
            ));
        }
    }

    println!(
        "fitted {} coefficients over {} programs: R^2 = {:.5}, rms = {:.2}%, max = {:.2}%",
        result.model.coefficients().len(),
        result.fit.sample_errors().len(),
        result.fit.r_squared(),
        result.fit.rms_percent_error(),
        result.fit.max_abs_percent_error(),
    );
    println!(
        "phases: ISS {} ms, reference {} ms, solve {} µs — suite-wide ISS speedup {:.0}×",
        report.simulate_micros / 1000,
        report.reference_micros / 1000,
        report.solve_micros,
        report.speedup,
    );
    std::fs::write(path, result.model.to_text()).map_err(|e| EmxError::io(path, &e))?;
    println!("model written to {path}");

    if let Some(report_path) = report_path {
        let mut text = report.to_json().to_string();
        text.push('\n');
        std::fs::write(report_path, text).map_err(|e| EmxError::io(report_path, &e))?;
        println!("report written to {report_path}");
    }
    Ok(())
}

fn parse_args(args: &mut Args) -> Result<(String, Option<String>, bool), EmxError> {
    let mut model_path = None;
    let mut report_path = None;
    let mut skip_coverage = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--report" => report_path = Some(args.value("a file path")?),
            "--skip-coverage-check" => skip_coverage = true,
            _ => args.positional(&mut model_path, arg)?,
        }
    }
    let model_path = model_path.ok_or_else(|| args.usage())?;
    Ok((model_path, report_path, skip_coverage))
}

fn main() -> ExitCode {
    cli::main(
        "emx-characterize",
        USAGE,
        parse_args,
        |(path, report, skip)| run(path, report.as_deref(), *skip),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, Option<String>, bool), EmxError> {
        parse_args(&mut Args::new(USAGE, args.iter().map(|s| (*s).to_owned())))
    }

    #[test]
    fn parses_model_path_and_optional_report() {
        assert_eq!(
            parse(&["m.txt"]).unwrap(),
            ("m.txt".to_owned(), None, false)
        );
        assert_eq!(
            parse(&["m.txt", "--report", "r.json"]).unwrap(),
            ("m.txt".to_owned(), Some("r.json".to_owned()), false)
        );
        assert_eq!(
            parse(&["m.txt", "--skip-coverage-check"]).unwrap(),
            ("m.txt".to_owned(), None, true)
        );
    }

    #[test]
    fn rejects_bad_input() {
        for args in [
            &[][..],
            &["--report", "r.json"],
            &["m.txt", "--report"],
            &["m.txt", "extra"],
            &["m.txt", "--bogus"],
        ] {
            match parse(args) {
                Err(e) => assert_eq!(e.exit_code(), 2, "{args:?} must be a usage error"),
                Ok(_) => panic!("{args:?} must be rejected"),
            }
        }
    }
}
