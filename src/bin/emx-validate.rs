//! `emx-validate`: validate the energy macro-model — cross-validation
//! over the training suite, differential fuzzing against the RTL-level
//! reference, and DSE cache-consistency checks, aggregated into a
//! versioned `emx.validate-report/1` document with a golden-report
//! accuracy gate for CI.
//!
//! ```sh
//! emx-validate                                     # LOO cross-validation + fuzz + cache check
//! emx-validate --folds 5                           # 5-fold instead of leave-one-out
//! emx-validate --fuzz 500 --seed 42                # bigger campaign, explicit seed
//! emx-validate --json report.json                  # write the report document
//! emx-validate --check tests/golden/validate-report.json
//! emx-validate --check golden.json --epsilon 1.0   # looser gate
//! emx-validate --coverage                          # + suite-conditioning gate
//! emx-validate --coverage-json coverage.json       # write emx.coverage-report/1
//! emx-validate --chrome-trace t.json               # per-fold trace lanes
//! ```
//!
//! The report is a pure function of the flags: no timings, so two runs
//! with the same seed produce byte-identical documents (CI relies on
//! this). `--check` exits 1 when accuracy regressed beyond the epsilon
//! against the golden report.

use std::process::ExitCode;

use emx::core::cli::{self, Args};
use emx::core::{Characterizer, EmxError, EnergyMacroModel, ErrorKind};
use emx::coverage::{self, Thresholds};
use emx::obs::{ChromeTraceWriter, Collector};
use emx::regress::{FitMethod, FitOptions};
use emx::sim::ProcConfig;
use emx::validate::{self, FoldScheme, FuzzConfig};
use emx::workloads::suite;

struct Options {
    scheme: FoldScheme,
    fuzz_cases: usize,
    seed: u64,
    tolerance: f64,
    jobs: usize,
    model_path: Option<String>,
    json_path: Option<String>,
    check_path: Option<String>,
    epsilon: f64,
    chrome_trace: Option<String>,
    skip_cache_check: bool,
    coverage: bool,
    coverage_json: Option<String>,
}

const USAGE: &str = "usage: emx-validate [--folds <k|loo>] [--fuzz <n>] [--seed <u64>] \
                     [--tolerance <percent>] [--jobs <n>] [--model <model.txt>] \
                     [--json <out.json>] [--check <golden.json>] [--epsilon <pp>] \
                     [--coverage] [--coverage-json <out.json>] \
                     [--chrome-trace <out.json>] [--skip-cache-check]";

fn parse_args(args: &mut Args) -> Result<Options, EmxError> {
    let defaults = FuzzConfig::default();
    let mut options = Options {
        scheme: FoldScheme::LeaveOneOut,
        fuzz_cases: defaults.cases,
        seed: defaults.seed,
        tolerance: defaults.tolerance_percent,
        jobs: 0,
        model_path: None,
        json_path: None,
        check_path: None,
        epsilon: 0.5,
        chrome_trace: None,
        skip_cache_check: false,
        coverage: false,
        coverage_json: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--folds" => {
                let v = args.value("`loo` or a fold count")?;
                options.scheme = if v == "loo" {
                    FoldScheme::LeaveOneOut
                } else {
                    let k: usize = v
                        .parse()
                        .map_err(|_| args.error(format_args!("bad --folds value `{v}`")))?;
                    if k < 2 {
                        return Err(
                            args.error(format_args!("fold count must be at least 2, got {k}"))
                        );
                    }
                    FoldScheme::KFold(k)
                };
            }
            "--fuzz" => options.fuzz_cases = args.number("a case count (0 disables)")?,
            "--seed" => options.seed = args.number("a number")?,
            "--tolerance" => {
                let t: f64 = args.number("a percentage")?;
                if !t.is_finite() || t <= 0.0 {
                    return Err(args.error(format_args!(
                        "tolerance must be finite and positive, got {t}"
                    )));
                }
                options.tolerance = t;
            }
            "--jobs" => options.jobs = args.number("a number")?,
            "--model" => options.model_path = Some(args.value("a file path")?),
            "--json" => options.json_path = Some(args.value("a file path")?),
            "--check" => options.check_path = Some(args.value("a golden report path")?),
            "--epsilon" => {
                let e: f64 = args.number("a number")?;
                if !e.is_finite() || e < 0.0 {
                    return Err(args.error(format_args!(
                        "epsilon must be finite and non-negative, got {e}"
                    )));
                }
                options.epsilon = e;
            }
            "--chrome-trace" => options.chrome_trace = Some(args.value("a file path")?),
            "--skip-cache-check" => options.skip_cache_check = true,
            "--coverage" => options.coverage = true,
            "--coverage-json" => {
                // Writing the report implies running the analysis.
                options.coverage = true;
                options.coverage_json = Some(args.value("a file path")?);
            }
            other => return Err(args.unexpected(other)),
        }
    }
    Ok(options)
}

fn run(options: &Options) -> Result<(), EmxError> {
    // Read the golden first: a missing or malformed golden must fail
    // before we spend minutes simulating.
    let golden = match &options.check_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| EmxError::io(path, &e))?;
            Some(
                validate::parse(&text)
                    .map_err(|e| EmxError::parse("validate.golden", e).context(path))?,
            )
        }
        None => None,
    };

    let mut obs = Collector::new();

    // Steps 1–7 once: the per-case design-matrix rows and reference
    // energies power both the per-fold refits and the full fit.
    println!("simulating the training suite ({} runs)…", {
        suite::full_training_suite().len()
    });
    let span = obs.begin("validate.dataset");
    let workloads = suite::full_training_suite();
    let cases = suite::training_cases(&workloads);
    let characterizer = Characterizer::new(ProcConfig::default());
    let dataset = characterizer
        .build_dataset(&cases)
        .map_err(|e| EmxError::from(e).context("training-suite simulation failed"))?;
    obs.end(span);

    // Stage 0: suite-conditioning gate (--coverage). Runs on the same
    // dataset the folds refit, so what it certifies is exactly what the
    // cross-validation exercises.
    let coverage = if options.coverage {
        let analysis = coverage::analyze(&dataset, &Thresholds::default()).map_err(|e| {
            EmxError::new(
                ErrorKind::Model,
                "validate.coverage",
                format!("coverage analysis failed: {e}"),
            )
        })?;
        println!(
            "\nsuite coverage: {} cases, condition number {:.1} (max {:.1}), {}",
            analysis.cases,
            analysis.condition_number,
            analysis.thresholds.max_condition_number,
            if analysis.passes() {
                "no gaps".to_owned()
            } else {
                format!("{} gap(s)", analysis.failures().len())
            }
        );
        for failure in analysis.failures() {
            eprintln!("emx-validate: coverage gap: {failure}");
        }
        if let Some(path) = &options.coverage_json {
            let mut text = coverage::report::to_json(&analysis).to_string();
            text.push('\n');
            std::fs::write(path, text).map_err(|e| EmxError::io(path, &e))?;
            println!("coverage report written to {path}");
        }
        Some(analysis)
    } else {
        None
    };

    let fit_options = FitOptions {
        method: FitMethod::Qr,
        ridge: 0.0,
    };

    // Stage 1: cross-validation.
    let xval =
        validate::cross_validate(&dataset, options.scheme, fit_options, &mut obs).map_err(|e| {
            EmxError::new(
                ErrorKind::Model,
                "validate.regression",
                format!("cross-validation failed: {e}"),
            )
        })?;
    println!(
        "\ncross-validation ({}, {} folds, {} ridge fallback(s)):",
        xval.scheme, xval.folds, xval.ridge_folds
    );
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>9}",
        "group", "cases", "mean |%|", "max |%|", "R²"
    );
    for g in &xval.groups {
        println!(
            "{:<10} {:>6} {:>10.3} {:>10.3} {:>9.5}",
            g.name, g.cases, g.mean_abs_percent, g.max_abs_percent, g.r_squared
        );
    }

    // The model the remaining stages exercise: loaded from disk, or fitted
    // on the full dataset (no extra simulation).
    let model = match &options.model_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| EmxError::io(path, &e))?;
            EnergyMacroModel::from_text(&text).map_err(|e| EmxError::from(e).context(path))?
        }
        None => {
            let fit = dataset.fit(fit_options).map_err(|e| {
                EmxError::new(
                    ErrorKind::Model,
                    "validate.regression",
                    format!("full fit failed: {e}"),
                )
            })?;
            EnergyMacroModel::new(*characterizer.spec(), fit.coefficients().to_vec())
        }
    };

    // Stage 2: differential fuzzing.
    let fuzz = if options.fuzz_cases > 0 {
        let config = FuzzConfig {
            seed: options.seed,
            cases: options.fuzz_cases,
            tolerance_percent: options.tolerance,
            ..FuzzConfig::default()
        };
        let outcome = validate::run_fuzz(&model, &config, &mut obs);
        println!(
            "\nfuzz: {} cases (seed {}), max |error| {:.3}%, mean |error| {:.3}%, tolerance {}%",
            outcome.cases,
            options.seed,
            outcome.max_abs_percent,
            outcome.mean_abs_percent,
            outcome.tolerance_percent
        );
        for v in &outcome.violations {
            eprintln!(
                "emx-validate: tolerance violation (case {}):\n{}",
                v.case_index, v.report
            );
        }
        Some(outcome)
    } else {
        println!("\nfuzz: skipped (--fuzz 0)");
        None
    };

    // Stage 3: DSE cache consistency.
    let cache = if options.skip_cache_check {
        println!("cache consistency: skipped (--skip-cache-check)");
        None
    } else {
        let c = validate::check_cache_consistency(&model, options.jobs, &mut obs);
        println!(
            "cache consistency: {} candidates, {}",
            c.candidates,
            if c.byte_identical {
                "byte-identical across cold/round-tripped/warm"
            } else {
                "MISMATCH"
            }
        );
        for m in &c.mismatches {
            eprintln!("emx-validate: cache mismatch: {m}");
        }
        Some(c)
    };

    let summary = validate::summarize(
        &xval,
        fuzz.as_ref().map(|f| (f, options.seed)),
        cache.as_ref(),
    );

    if let Some(path) = &options.json_path {
        let mut text = validate::to_json(&summary, Some(&xval)).to_string();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| EmxError::io(path, &e))?;
        println!("report written to {path}");
    }

    if let Some(path) = &options.chrome_trace {
        let mut text = ChromeTraceWriter::new("emx-validate").to_string(&obs);
        text.push('\n');
        std::fs::write(path, text).map_err(|e| EmxError::io(path, &e))?;
        println!("Chrome trace written to {path} (load at ui.perfetto.dev)");
    }

    // Hard failures that gate regardless of --check: a coverage gap, a
    // fuzz violation or a cache mismatch means the suite, the model or
    // the cache is broken *now*.
    if let Some(c) = &coverage {
        if !c.passes() {
            return Err(EmxError::new(
                ErrorKind::Model,
                "validate.coverage",
                format!(
                    "training suite is ill-conditioned: {} gap(s) against the default \
                     thresholds",
                    c.failures().len()
                ),
            ));
        }
    }
    if let Some(f) = &fuzz {
        if !f.violations.is_empty() {
            return Err(EmxError::new(
                ErrorKind::Model,
                "validate.fuzz",
                format!(
                    "{} of {} fuzz case(s) exceeded the {}% tolerance",
                    f.violations.len(),
                    f.cases,
                    f.tolerance_percent
                ),
            ));
        }
    }
    if let Some(c) = &cache {
        if !c.byte_identical {
            return Err(EmxError::new(
                ErrorKind::Cache,
                "validate.cache",
                format!("{} cache mismatch(es)", c.mismatches.len()),
            ));
        }
    }

    if let Some(golden) = &golden {
        let regressions = validate::compare(&summary, golden, options.epsilon);
        if regressions.is_empty() {
            println!(
                "golden check passed (epsilon {} pp, {})",
                options.epsilon,
                options.check_path.as_deref().unwrap_or_default()
            );
        } else {
            for r in &regressions {
                eprintln!("emx-validate: accuracy regression: {r}");
            }
            return Err(EmxError::new(
                ErrorKind::Model,
                "validate.regression",
                format!(
                    "{} accuracy regression(s) vs golden (epsilon {} pp)",
                    regressions.len(),
                    options.epsilon
                ),
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::main("emx-validate", USAGE, parse_args, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, EmxError> {
        parse_args(&mut Args::new(USAGE, args.iter().map(|s| (*s).to_owned())))
    }

    #[test]
    fn parses_defaults() {
        let o = opts(&[]).unwrap();
        assert_eq!(o.scheme, FoldScheme::LeaveOneOut);
        assert_eq!(o.fuzz_cases, FuzzConfig::default().cases);
        assert_eq!(o.seed, FuzzConfig::default().seed);
        assert_eq!(o.epsilon, 0.5);
        assert!(o.check_path.is_none());
        assert!(!o.skip_cache_check);
        assert!(!o.coverage);
        assert!(o.coverage_json.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let o = opts(&[
            "--folds",
            "5",
            "--fuzz",
            "300",
            "--seed",
            "42",
            "--tolerance",
            "12.5",
            "--jobs",
            "4",
            "--model",
            "m.txt",
            "--json",
            "r.json",
            "--check",
            "g.json",
            "--epsilon",
            "1.25",
            "--chrome-trace",
            "t.json",
            "--skip-cache-check",
            "--coverage-json",
            "c.json",
        ])
        .unwrap();
        assert_eq!(o.scheme, FoldScheme::KFold(5));
        assert_eq!(o.fuzz_cases, 300);
        assert_eq!(o.seed, 42);
        assert_eq!(o.tolerance, 12.5);
        assert_eq!(o.jobs, 4);
        assert_eq!(o.model_path.as_deref(), Some("m.txt"));
        assert_eq!(o.json_path.as_deref(), Some("r.json"));
        assert_eq!(o.check_path.as_deref(), Some("g.json"));
        assert_eq!(o.epsilon, 1.25);
        assert_eq!(o.chrome_trace.as_deref(), Some("t.json"));
        assert!(o.skip_cache_check);
        assert!(o.coverage, "--coverage-json implies --coverage");
        assert_eq!(o.coverage_json.as_deref(), Some("c.json"));
    }

    #[test]
    fn coverage_flag_alone_enables_the_gate() {
        let o = opts(&["--coverage"]).unwrap();
        assert!(o.coverage);
        assert!(o.coverage_json.is_none());
    }

    #[test]
    fn folds_loo_is_leave_one_out() {
        assert_eq!(
            opts(&["--folds", "loo"]).unwrap().scheme,
            FoldScheme::LeaveOneOut
        );
    }

    #[test]
    fn rejects_bad_input() {
        for args in [
            &["--folds"][..],
            &["--folds", "1"],
            &["--folds", "many"],
            &["--fuzz", "-3"],
            &["--seed", "x"],
            &["--tolerance", "0"],
            &["--tolerance", "nan"],
            &["--epsilon", "-1"],
            &["--jobs", "many"],
            &["--bogus"],
            &["stray"],
        ] {
            match opts(args) {
                Err(e) => assert_eq!(e.exit_code(), 2, "{args:?} must be a usage error"),
                Ok(_) => panic!("{args:?} must be rejected"),
            }
        }
    }
}
