//! A small, registry-free benchmark harness.
//!
//! The bench targets in `benches/` use this instead of criterion so the
//! workspace keeps zero registry dependencies (`cargo build --offline`
//! must work on machines with no crates.io access — see
//! `crates/proptest` for the same story on the test side).
//!
//! The measurement loop is deliberately simple: per benchmark it
//! auto-calibrates an inner iteration count so one *sample* takes at
//! least `MIN_SAMPLE_NANOS` (2 ms), collects `sample_size` samples, and
//! reports min / p50 / p90 / mean per iteration out of an
//! [`emx_obs::Histogram`] — the same log-linear histogram the
//! observability layer uses, so quantization error is bounded at ~6 %.
//! Measured distributions are also retained as [`BenchRecord`]s, which
//! `emx-bench` serializes into `emx.bench-report/1` snapshots.
//!
//! Run with `cargo bench -p emx-bench [filter]`; only benchmarks whose
//! `group/id` name contains the filter substring execute. `--list`
//! prints the names without running anything; `--samples N` overrides
//! every group's sample count.

use std::fmt::Display;
use std::hint::black_box;
use std::io::{ErrorKind, Write};
use std::time::Instant;

use emx_core::cli::Args;
use emx_core::EmxError;
use emx_obs::Histogram;

/// Minimum wall-clock time of one sample, in nanoseconds. Short
/// closures are batched until a sample crosses this threshold.
const MIN_SAMPLE_NANOS: u64 = 2_000_000;

/// Default number of samples per benchmark.
const DEFAULT_SAMPLES: usize = 20;

/// Parsed command-line options for a bench binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchOptions {
    /// Substring filter on `group/id` names.
    pub filter: Option<String>,
    /// Print benchmark names without running anything.
    pub list: bool,
    /// Override every group's sample count.
    pub samples: Option<usize>,
}

/// The usage line of a bench target's command line.
const USAGE: &str =
    "usage: cargo bench -p emx-bench [--bench <suite>] -- [FILTER] [--list] [--samples <n>]";

impl BenchOptions {
    /// Parses a bench target's command line: one positional substring
    /// filter, `--list`, `--samples N`. Cargo's own `--bench` marker is
    /// ignored.
    ///
    /// # Errors
    ///
    /// A usage error naming the first unknown flag, missing or bad value,
    /// or extra positional argument.
    pub fn parse(args: &mut Args) -> Result<BenchOptions, EmxError> {
        let mut opts = BenchOptions::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                // Passed by `cargo bench` to every bench target.
                "--bench" => {}
                _ => opts.read(args, arg)?,
            }
        }
        Ok(opts)
    }

    /// Reads `arg`, the flag `args` just yielded, as one of the bench
    /// options; `emx-bench` calls this for every flag it does not own.
    ///
    /// # Errors
    ///
    /// A usage error for `--samples` without a number of at least 2, an
    /// unknown flag, or a second positional filter.
    pub fn read(&mut self, args: &mut Args, arg: String) -> Result<(), EmxError> {
        match arg.as_str() {
            "--list" => self.list = true,
            "--samples" => {
                let n: usize = args.number("a value")?;
                if n < 2 {
                    return Err(args.error("--samples must be at least 2"));
                }
                self.samples = Some(n);
            }
            _ => args.positional(&mut self.filter, arg)?,
        }
        Ok(())
    }
}

/// One measured benchmark: identity, shape of the measurement, and the
/// per-iteration latency distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Group name (first component of `group/id`).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Samples collected.
    pub samples: usize,
    /// Inner iterations batched per sample.
    pub iters_per_sample: u64,
    /// Declared elements processed per iteration, if any.
    pub throughput_elements: Option<u64>,
    /// Per-iteration latency histogram, in nanoseconds.
    pub hist: Histogram,
}

impl BenchRecord {
    /// The full `group/id` name.
    pub fn full_name(&self) -> String {
        format!("{}/{}", self.group, self.id)
    }
}

/// Writes `line` and a newline to stdout. When stdout is a pipe whose
/// reader has gone (`--list | head -3`), the process stops quietly with
/// status 0, where `println!` would panic.
///
/// # Panics
///
/// Panics on any other stdout write error.
pub fn print_line(line: impl Display) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// Top-level state for one bench binary: options, run counts, and the
/// measured records.
pub struct Bench {
    options: BenchOptions,
    ran: usize,
    skipped: usize,
    records: Vec<BenchRecord>,
}

impl Bench {
    /// Builds the harness from the command line; prints the error and the
    /// usage line and exits with code 2 on a malformed one.
    pub fn from_args(suite: &str) -> Self {
        let options = BenchOptions::parse(&mut Args::new(USAGE, std::env::args().skip(1)))
            .unwrap_or_else(|e| {
                eprintln!("{}", e.message());
                std::process::exit(e.exit_code().into());
            });
        if !options.list {
            print_line(format_args!("suite: {suite}"));
        }
        Bench::with_options(options)
    }

    /// Builds the harness from pre-parsed options (used by `emx-bench`,
    /// which owns its own command line).
    pub fn with_options(options: BenchOptions) -> Self {
        Bench {
            options,
            ran: 0,
            skipped: 0,
            records: Vec::new(),
        }
    }

    /// Opens a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            bench: self,
            name: name.to_owned(),
            sample_size: DEFAULT_SAMPLES,
            throughput: None,
        }
    }

    /// Prints the run/skip tally and hands back the measured records.
    /// Call last in `main`.
    pub fn finish(self) -> Vec<BenchRecord> {
        if !self.options.list {
            print_line(format_args!(
                "\n{} benchmark(s) run, {} filtered out",
                self.ran, self.skipped
            ));
        }
        self.records
    }

    fn selected(&self, full_name: &str) -> bool {
        self.options
            .filter
            .as_deref()
            .is_none_or(|f| full_name.contains(f))
    }

    /// `true` if a benchmark named `full_name` would actually execute
    /// (selected by the filter and not in `--list` mode). Suites use
    /// this to skip expensive setup for benchmarks that will not run.
    pub fn will_measure(&self, full_name: &str) -> bool {
        !self.options.list && self.selected(full_name)
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    sample_size: usize,
    throughput: Option<u64>,
}

impl Group<'_> {
    /// Sets the number of samples collected per benchmark (overridden
    /// by `--samples`).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declares that each iteration processes `elements` items, adding
    /// an elements-per-second figure to the report. Applies to the
    /// *next* `bench` call only.
    pub fn throughput_elements(&mut self, elements: u64) -> &mut Self {
        self.throughput = Some(elements);
        self
    }

    /// `true` if `id` in this group would actually execute; see
    /// [`Bench::will_measure`].
    pub fn will_measure(&self, id: &str) -> bool {
        self.bench.will_measure(&format!("{}/{}", self.name, id))
    }

    /// Measures `f`, reporting per-iteration latency statistics.
    pub fn bench<T>(&mut self, id: &str, mut f: impl FnMut() -> T) {
        let full_name = format!("{}/{}", self.name, id);
        let throughput = self.throughput.take();
        if self.bench.options.list {
            print_line(&full_name);
            return;
        }
        if !self.bench.selected(&full_name) {
            self.bench.skipped += 1;
            return;
        }
        self.bench.ran += 1;
        let sample_size = self.bench.options.samples.unwrap_or(self.sample_size);

        // Warm up once (pays lazy one-time setup inside the closure),
        // then calibrate: batch iterations until one sample is long
        // enough for the clock to resolve it well.
        black_box(f());
        let once = time_nanos(|| {
            black_box(f());
        });
        let iters_per_sample = (MIN_SAMPLE_NANOS / once.max(1)).clamp(1, 1_000_000);

        let mut hist = Histogram::new();
        for _ in 0..sample_size {
            let elapsed = time_nanos(|| {
                for _ in 0..iters_per_sample {
                    black_box(f());
                }
            });
            hist.record(elapsed / iters_per_sample);
        }

        let mut line = format!(
            "{full_name:<40} p50 {:>10}  p90 {:>10}  mean {:>10}  min {:>10}  ({} samples × {} iters)",
            fmt_nanos(hist.percentile(50.0)),
            fmt_nanos(hist.percentile(90.0)),
            fmt_nanos(hist.mean() as u64),
            fmt_nanos(hist.min()),
            sample_size,
            iters_per_sample,
        );
        if let Some(elements) = throughput {
            let per_sec = elements as f64 / (hist.percentile(50.0).max(1) as f64 / 1e9);
            line.push_str(&format!("  {:.1} Melem/s", per_sec / 1e6));
        }
        print_line(&line);

        self.bench.records.push(BenchRecord {
            group: self.name.clone(),
            id: id.to_owned(),
            samples: sample_size,
            iters_per_sample,
            throughput_elements: throughput,
            hist,
        });
    }

    /// Ends the group (provided for symmetry; dropping works too).
    pub fn finish(self) {}
}

fn time_nanos(f: impl FnOnce()) -> u64 {
    let start = Instant::now();
    f();
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Renders a nanosecond count with an adaptive unit.
pub fn fmt_nanos(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns} ns"),
        10_000..=9_999_999 => format!("{:.1} µs", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1} ms", ns as f64 / 1e6),
        _ => format!("{:.2} s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_with(options: BenchOptions) -> Bench {
        Bench::with_options(options)
    }

    #[test]
    fn unit_formatting_scales() {
        assert_eq!(fmt_nanos(512), "512 ns");
        assert_eq!(fmt_nanos(25_300), "25.3 µs");
        assert_eq!(fmt_nanos(18_000_000), "18.0 ms");
        assert_eq!(fmt_nanos(12_000_000_000), "12.00 s");
    }

    #[test]
    fn filter_matches_substrings() {
        let b = bench_with(BenchOptions {
            filter: Some("iss/mat".into()),
            ..BenchOptions::default()
        });
        assert!(b.selected("iss/matmul"));
        assert!(!b.selected("pipeline/matmul"));
        let unfiltered = bench_with(BenchOptions::default());
        assert!(unfiltered.selected("anything"));
    }

    #[test]
    fn bench_runs_and_records() {
        let mut b = bench_with(BenchOptions {
            samples: Some(2),
            ..BenchOptions::default()
        });
        let mut g = b.group("g");
        g.throughput_elements(7);
        let mut calls = 0u64;
        g.bench("noop", || calls += 1);
        g.finish();
        assert!(calls > 0);
        let records = b.finish();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].full_name(), "g/noop");
        assert_eq!(records[0].samples, 2);
        assert_eq!(records[0].throughput_elements, Some(7));
        assert_eq!(records[0].hist.count(), 2);
    }

    #[test]
    fn list_mode_runs_nothing() {
        let mut b = bench_with(BenchOptions {
            list: true,
            ..BenchOptions::default()
        });
        assert!(!b.will_measure("g/expensive"));
        let mut g = b.group("g");
        assert!(!g.will_measure("expensive"));
        let mut calls = 0u64;
        g.bench("expensive", || calls += 1);
        g.finish();
        assert_eq!(calls, 0);
        assert!(b.finish().is_empty());
    }

    fn parse(args: &[&str]) -> Result<BenchOptions, EmxError> {
        BenchOptions::parse(&mut Args::new(USAGE, args.iter().map(|s| (*s).to_owned())))
    }

    #[test]
    fn options_parse_recognizes_flags() {
        let opts = parse(&["--bench", "lstsq", "--samples", "5", "--list"]).unwrap();
        assert_eq!(
            opts,
            BenchOptions {
                filter: Some("lstsq".into()),
                list: true,
                samples: Some(5),
            }
        );
    }

    #[test]
    fn options_parse_rejects_garbage() {
        for bad in [
            &["--frobnicate"][..],
            &["--samples"],
            &["--samples", "zero"],
            &["--samples", "1"],
            &["a", "b"],
        ] {
            let e = parse(bad).expect_err("rejected");
            assert_eq!(e.exit_code(), 2, "{bad:?} must be a usage error");
            assert!(e.message().ends_with(USAGE), "{bad:?}: {}", e.message());
        }
    }
}
