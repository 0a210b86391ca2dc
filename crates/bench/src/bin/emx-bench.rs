//! `emx-bench`: headless benchmark runner with versioned snapshots and
//! noise-aware regression gating.
//!
//! ```sh
//! emx-bench                                # run every suite, print stats
//! emx-bench lstsq --samples 5              # substring filter, small budget
//! emx-bench --list                         # print benchmark names, run nothing
//! emx-bench --json BENCH.json              # + write an emx.bench-report/1 snapshot
//! emx-bench --baseline BENCH_OLD.json      # run, then gate against a snapshot
//! emx-bench --baseline A.json --compare B.json
//!                                          # pure file-vs-file comparison (no run)
//! emx-bench --baseline A.json --threshold 25
//! emx-bench --baseline A.json --warn-only  # report regressions, exit 0
//! ```
//!
//! The regression gate uses the noise-aware rule from DESIGN.md §14: a
//! benchmark regresses only when its current p50 climbs above the
//! baseline's p90 *and* the p50 delta exceeds the threshold (default
//! 10 %). When the two reports' environment fingerprints differ (other
//! than the git revision), the comparison is printed but never fails —
//! cross-machine numbers are context, not a gate.

use std::process::ExitCode;

use emx_bench::compare::{self, DEFAULT_THRESHOLD_PCT};
use emx_bench::harness::{print_line, Bench, BenchOptions};
use emx_bench::report::{BenchReport, Environment, PhaseEntry};
use emx_bench::suites;
use emx_core::cli::{self, Args};
use emx_core::EmxError;
use emx_obs::Collector;
use emx_sim::{Interp, ProcConfig};

struct Options {
    bench: BenchOptions,
    json: Option<String>,
    baseline: Option<String>,
    compare: Option<String>,
    threshold_pct: f64,
    warn_only: bool,
}

const USAGE: &str = "usage: emx-bench [FILTER] [--list] [--samples <n>] \
                     [--json <out.json>] [--baseline <snapshot.json>] \
                     [--compare <snapshot.json>] [--threshold <pct>] \
                     [--warn-only]";

fn parse_args(args: &mut Args) -> Result<Options, EmxError> {
    let mut options = Options {
        bench: BenchOptions::default(),
        json: None,
        baseline: None,
        compare: None,
        threshold_pct: DEFAULT_THRESHOLD_PCT,
        warn_only: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => options.json = Some(args.value("a path")?),
            "--baseline" => options.baseline = Some(args.value("a path")?),
            "--compare" => options.compare = Some(args.value("a path")?),
            "--threshold" => options.threshold_pct = args.number("a value")?,
            "--warn-only" => options.warn_only = true,
            _ => options.bench.read(args, arg)?,
        }
    }
    if options.compare.is_some() && options.baseline.is_none() {
        return Err(args.error("--compare requires --baseline"));
    }
    Ok(options)
}

fn load_report(path: &str) -> Result<BenchReport, EmxError> {
    let text = std::fs::read_to_string(path).map_err(|e| EmxError::io(path, &e))?;
    BenchReport::parse(&text).map_err(|e| EmxError::parse("bench.report", format!("`{path}`: {e}")))
}

/// Runs the ISS phase-attribution section: one profiled run per
/// simulator workload, filtered like any benchmark under the pseudo
/// group `phase/`.
fn phase_entries(options: &Options) -> Result<Vec<PhaseEntry>, EmxError> {
    let mut entries = Vec::new();
    for w in suites::simulator_workloads() {
        let name = format!("phase/{}", w.name());
        if options.bench.list {
            print_line(&name);
            continue;
        }
        if let Some(f) = &options.bench.filter {
            if !name.contains(f.as_str()) {
                continue;
            }
        }
        let mut collector = Collector::new();
        let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
        let (_, profile) = sim
            .run_profiled(emx_bench::MAX_CYCLES, &mut collector)
            .map_err(|e| {
                EmxError::internal("bench.phase", format!("workload `{name}` failed: {e}"))
            })?;
        print_line(format_args!("\n{name} ({} instructions)", profile.steps()));
        print_line(&profile);
        entries.push(PhaseEntry {
            workload: w.name().to_owned(),
            profile,
        });
    }
    Ok(entries)
}

fn gate(
    baseline: &BenchReport,
    current: &BenchReport,
    options: &Options,
) -> Result<ExitCode, EmxError> {
    let mismatches = baseline.environment.mismatches(&current.environment);
    let comparison = compare::compare(baseline, current, options.threshold_pct);
    print!("\n{}", compare::format_table(&comparison));
    if comparison.passed() {
        return Ok(ExitCode::SUCCESS);
    }
    if !mismatches.is_empty() {
        eprintln!(
            "warning: environment differs from baseline ({}); regressions reported but not gated",
            mismatches.join(", ")
        );
        return Ok(ExitCode::SUCCESS);
    }
    if options.warn_only {
        eprintln!("warning: regressions found (--warn-only, not gating)");
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "error: {} benchmark(s) regressed beyond the noise band (threshold {}%)",
        comparison.regressions().count(),
        options.threshold_pct
    );
    Ok(ExitCode::from(1))
}

fn run(options: &Options) -> Result<ExitCode, EmxError> {
    // Pure file-vs-file mode: no benchmarks run, fully deterministic.
    if let (Some(base_path), Some(cur_path)) = (&options.baseline, &options.compare) {
        let baseline = load_report(base_path)?;
        let current = load_report(cur_path)?;
        return gate(&baseline, &current, options);
    }

    let mut bench = Bench::with_options(options.bench.clone());
    suites::all(&mut bench);
    let phases = phase_entries(options)?;
    let records = bench.finish();
    if options.bench.list {
        return Ok(ExitCode::SUCCESS);
    }

    let report = BenchReport::new(Environment::capture(), &records, phases);
    if let Some(path) = &options.json {
        std::fs::write(path, report.to_text()).map_err(|e| EmxError::io(path, &e))?;
        print_line(format_args!("\nbench report written to {path}"));
    }

    match &options.baseline {
        None => Ok(ExitCode::SUCCESS),
        Some(path) => {
            let baseline = load_report(path)?;
            gate(&baseline, &report, options)
        }
    }
}

// A failed regression gate exits 1 through `run`'s own exit code.
fn main() -> ExitCode {
    cli::main("emx-bench", USAGE, parse_args, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, EmxError> {
        parse_args(&mut Args::new(USAGE, args.iter().map(|s| (*s).to_owned())))
    }

    #[test]
    fn parses_the_full_surface() {
        let o = opts(&[
            "lstsq",
            "--samples",
            "5",
            "--json",
            "out.json",
            "--baseline",
            "base.json",
            "--threshold",
            "25",
            "--warn-only",
        ])
        .unwrap();
        assert_eq!(o.bench.filter.as_deref(), Some("lstsq"));
        assert_eq!(o.bench.samples, Some(5));
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert_eq!(o.baseline.as_deref(), Some("base.json"));
        assert_eq!(o.threshold_pct, 25.0);
        assert!(o.warn_only);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for args in [
            vec!["--frobnicate"],
            vec!["--samples"],
            vec!["--samples", "one"],
            vec!["--samples", "1"],
            vec!["--threshold", "fast"],
            vec!["a", "b"],
            vec!["--compare", "x.json"],
        ] {
            match opts(&args) {
                Ok(_) => panic!("{args:?} must be rejected"),
                Err(e) => assert_eq!(e.exit_code(), 2, "{args:?} must be a usage error"),
            }
        }
    }
}
