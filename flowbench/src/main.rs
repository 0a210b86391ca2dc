//! `emx-flowbench`: end-to-end flow benchmark for the emx estimation
//! pipeline.
//!
//! ```sh
//! cargo --config 'build.rustflags=["-Cllvm-args=-align-all-functions=6"]' \
//!     run --release --offline --manifest-path flowbench/Cargo.toml -- \
//!     --workload characterize --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation runs one workload in-process: it sets up (training
//! suite plus one characterization, and the workload's own state) a few
//! times, timing each, then runs the workload's operation in closed
//! loop for `--seconds`, checking every output. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Any failed check makes the exit
//! code 1. See flowbench/README.md.

mod characterize;
mod explore;
mod flows;
mod heap;
mod measure;
mod serve;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use emx_obs::ChromeTraceWriter;

use flows::{closed_loop, Base, Phase};
use measure::{median, quantile, Rng, Tracer};

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

const USAGE: &str =
    "usage: emx-flowbench --workload <characterize|explore-cold|explore-warm|serve> \
                     --seed <n> --seconds <n> --trace <0|1> [--chrome-trace <out.json>]";

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Characterize,
    ExploreCold,
    ExploreWarm,
    Serve,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    chrome_trace: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut chrome_trace) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "characterize" => Workload::Characterize,
                    "explore-cold" => Workload::ExploreCold,
                    "explore-warm" => Workload::ExploreWarm,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--chrome-trace" => chrome_trace = Some(PathBuf::from(value()?)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        chrome_trace,
    })
}

/// A private directory under the working directory for every file the
/// run writes, removed when the run ends.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> Result<TempDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(".flowbench-tmp").join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(".flowbench-tmp");
    }
}

/// The per-layer metrics, with units, in report order. `BENCHMARK.json`
/// lists the same names.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.suite_build_ms", "ms"),
    ("core.build_dataset_ms", "ms"),
    ("rtlpower.estimate_ms", "ms"),
    ("rtlpower.minst_per_s", "Minst/s"),
    ("sim.run_ms", "ms"),
    ("sim.minst_per_s", "Minst/s"),
    ("regress.fit_ms", "ms"),
    ("coverage.analyze_ms", "ms"),
    ("core.heldout_macro_ms", "ms"),
    ("rtlpower.heldout_ms", "ms"),
    ("core.macro_speedup", "x"),
    ("discover.discover_ms", "ms"),
    ("discover.candidates", "count"),
    ("discover.report_write_ms", "ms"),
    ("discover.report_parse_ms", "ms"),
    ("discover.candidate_space_ms", "ms"),
    ("dse.enumerate_ms", "ms"),
    ("dse.enumerated", "count"),
    ("dse.survivors", "count"),
    ("dse.explore_ms", "ms"),
    ("dse.extract_ms", "ms"),
    ("dse.extractions", "count"),
    ("dse.price_ms", "ms"),
    ("dse.pricings", "count"),
    ("dse.cache_hit_ratio", "ratio"),
    ("dse.cache_save_ms", "ms"),
    ("dse.cache_bytes", "bytes"),
    ("dse.report_render_ms", "ms"),
    ("obs.json_write_mb_per_s", "MB/s"),
    ("dse.cache_load_ms", "ms"),
    ("obs.json_parse_mb_per_s", "MB/s"),
    ("obs.json_parse_2x_ratio", "x"),
    ("serve.request_encode_ms", "ms"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.response_decode_ms", "ms"),
    ("serve.direct_hit_us", "us"),
    ("serve.direct_miss_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_size", "count"),
    ("serve.server_p50_ms", "ms"),
    ("serve.cache_misses", "count"),
    ("bench.traced_op_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// The workload's prepared state, kept until the timed phase ends.
enum State {
    Characterize,
    Explore(Box<explore::Setup>),
    Serve(serve::Setup),
}

fn setup_once(workload: Workload, tr: &mut Tracer, dir: &Path) -> Result<(Base, State), String> {
    let base = flows::characterize_base(tr)?;
    let state = match workload {
        Workload::Characterize => State::Characterize,
        Workload::ExploreCold | Workload::ExploreWarm => {
            State::Explore(Box::new(explore::setup(&base, dir)?))
        }
        Workload::Serve => State::Serve(serve::setup(&base)?),
    };
    Ok((base, state))
}

fn teardown(state: State) -> Result<(), String> {
    match state {
        State::Serve(setup) => serve::teardown(setup),
        State::Characterize | State::Explore(_) => Ok(()),
    }
}

/// The timed phase: untraced for `--trace 0`; for `--trace 1` an
/// untraced half (the reference for tracing overhead) and a traced half.
/// Returns the whole phase and the untraced operation times.
fn timed_phase(
    args: &Args,
    base: &Base,
    state: &State,
    tr: &mut Tracer,
) -> Result<(Phase, Vec<f64>), String> {
    let halves: Vec<(bool, f64)> = if args.trace {
        vec![(false, args.seconds / 2.0), (true, args.seconds / 2.0)]
    } else {
        vec![(false, args.seconds)]
    };
    let mut rngs = serve::client_rngs(args.seed);
    let mut total = Phase::default();
    let mut untraced = Vec::new();
    for (traced, seconds) in halves {
        tr.set_enabled(traced);
        let phase = match (args.workload, state) {
            (Workload::Characterize, _) => closed_loop(
                &mut characterize::Characterize::new(base),
                tr,
                "characterize",
                seconds,
            ),
            (Workload::ExploreCold, State::Explore(setup)) => {
                closed_loop(&mut explore::Cold::new(setup), tr, "explore-cold", seconds)
            }
            (Workload::ExploreWarm, State::Explore(setup)) => {
                closed_loop(&mut explore::Warm { setup }, tr, "explore-warm", seconds)
            }
            (Workload::Serve, State::Serve(setup)) if traced => {
                let before = serve::Stats::fetch(setup)?;
                let phase = serve::timed(setup, &mut rngs, tr, seconds);
                let after = serve::Stats::fetch(setup)?;
                serve::record_stats(tr, &before, &after, phase.attempted);
                phase
            }
            (Workload::Serve, State::Serve(setup)) => serve::timed(setup, &mut rngs, tr, seconds),
            _ => unreachable!("set-up matches the workload"),
        };
        if !traced {
            untraced.extend_from_slice(&phase.samples_ms);
        }
        total.merge(phase);
    }
    Ok((total, untraced))
}

/// Probes of the traced run that sit outside the timed operations.
fn probes(args: &Args, base: &Base, state: &State, tr: &mut Tracer) -> Result<(), String> {
    flows::probe_engines(tr, &base.suite)?;
    match state {
        State::Explore(setup) => explore::probe_codec(tr, setup),
        State::Serve(setup) => serve::probe_direct(tr, setup, &mut Rng::new(args.seed)),
        State::Characterize => Ok(()),
    }
}

/// JSON has no NaN or infinity; a figure divided by an empty layer's
/// zero time prints as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let dir = TempDir::create()?;
    let mut tr = Tracer::new(args.trace);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, state)) = prepared.take() {
            teardown(state)?;
        }
        // The last set-up is the one the timed phase runs on; with
        // tracing, it is recorded.
        tr.set_enabled(args.trace && rep + 1 == SETUP_REPS);
        let start = Instant::now();
        prepared = Some(setup_once(args.workload, &mut tr, &dir.0)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (base, state) = prepared.expect("SETUP_REPS is at least 1");

    let timed = timed_phase(args, &base, &state, &mut tr);
    let probed = match &timed {
        Ok(_) if args.trace => {
            tr.set_enabled(true);
            probes(args, &base, &state, &mut tr)
        }
        _ => Ok(()),
    };
    teardown(state)?;
    let (phase, untraced_ms) = timed?;
    probed?;

    let ops = phase.samples_ms.len().max(1) as f64;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        report_layers(args, &mut tr, &untraced_ms, &dir.0)?;
        for &(name, unit) in PER_LAYER {
            metrics.push((name, tr.figure(name), unit));
        }
    } else {
        let samples = &phase.samples_ms;
        metrics.push(("setup_s", median(&setup_s), "s"));
        metrics.push(("op_ms", median(samples), "ms"));
        metrics.push((
            "throughput_per_s",
            phase.samples_ms.len() as f64 / phase.wall_s,
            "1/s",
        ));
        metrics.push(("cpu_ms_per_op", phase.cpu_s * 1e3 / ops, "ms"));
        metrics.push(("peak_heap_mb", heap::peak_bytes() as f64 / 1e6, "MB"));
        eprintln!(
            "flowbench: {} operations in {:.2} s, p10/p50/p90 {:.3}/{:.3}/{:.3} ms; set-ups {:?} s",
            phase.samples_ms.len(),
            phase.wall_s,
            quantile(samples, 0.1),
            quantile(samples, 0.5),
            quantile(samples, 0.9),
            setup_s
        );
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let correct = phase.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        phase.attempted,
        phase.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// Derives the traced run's summary figures, prints the per-layer table
/// and writes the Chrome trace.
fn report_layers(
    args: &Args,
    tr: &mut Tracer,
    untraced_ms: &[f64],
    dir: &Path,
) -> Result<(), String> {
    let (op_ms, layers) = tr.layer_table();
    let attributed: f64 = layers.iter().map(|(_, ms)| ms).sum();
    let traced: Vec<f64> = tr.ops.iter().map(|op| op.total_ms).collect();
    let overhead = 100.0 * (median(&traced) / median(untraced_ms) - 1.0);
    tr.add("bench.traced_op_ms", op_ms);
    tr.add("bench.unattributed_ms", op_ms - attributed);
    tr.add("bench.trace_overhead_pct", overhead);
    let macro_ms = tr.figure("core.heldout_macro_ms");
    if macro_ms > 0.0 {
        let speedup = tr.figure("rtlpower.heldout_ms") / macro_ms;
        tr.add("core.macro_speedup", speedup);
    }
    if args.workload == Workload::Serve {
        let overhead_ms = median(untraced_ms) - tr.figure("serve.direct_hit_us") / 1e3;
        tr.add("serve.overhead_ms", overhead_ms);
        tr.add("serve.p99_ms", quantile(untraced_ms, 0.99));
    }

    println!(
        "traced operations: {} (mean {op_ms:.3} ms); untraced median {:.3} ms; overhead {overhead:+.1}%",
        tr.ops.len(),
        median(untraced_ms)
    );
    println!("{:<32} {:>12} {:>8}", "layer", "ms/op", "share");
    for (name, ms) in &layers {
        println!("{name:<32} {ms:>12.4} {:>7.1}%", 100.0 * ms / op_ms);
    }
    let rest = op_ms - attributed;
    println!(
        "{:<32} {rest:>12.4} {:>7.1}%",
        "unattributed_ms",
        100.0 * rest / op_ms
    );
    println!("{:<32} {op_ms:>12.4} {:>7.1}%", "total", 100.0);

    let path = args
        .chrome_trace
        .clone()
        .unwrap_or_else(|| dir.join("trace.json"));
    let text = ChromeTraceWriter::new("emx-flowbench").to_string(tr.collector());
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("emx-flowbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("emx-flowbench: {e}");
            ExitCode::from(1)
        }
    }
}
