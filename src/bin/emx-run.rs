//! `emx-run`: assemble and execute an emx assembly program, optionally on
//! an extended processor defined in a `.tie` file, and report execution
//! statistics and energy.
//!
//! ```sh
//! emx-run program.s                        # run, print stats
//! emx-run program.s --tie ext.tie          # with a custom extension
//! emx-run program.s --energy               # + reference energy report
//! emx-run program.s --profile 256          # + power-over-time windows
//! emx-run program.s --disasm               # print the program and exit
//! emx-run program.s --trace                # per-instruction execution trace
//! emx-run program.s --model model.txt      # instant macro-model estimate
//!                                          #   (model from emx-characterize)
//! emx-run program.s --stats-json out.json  # ExecStats as stable JSON
//! emx-run program.s --chrome-trace t.json  # Chrome/Perfetto trace of the
//!                                          #   run (phases + counter series)
//! emx-run program.s --max-cycles 1000000
//! ```
//!
//! With both `--model` and `--energy` (or `--profile`), a speedup summary
//! compares the macro-model's wall time against the RTL-level reference
//! flow — the paper's §V claim, measured live.

use std::process::ExitCode;
use std::time::Instant;

use emx::core::cli::{self, Args};
use emx::core::EmxError;
use emx::obs::{ChromeTraceWriter, Collector};
use emx::prelude::*;
use emx::sim::observe::CounterTraceSink;
use emx::sim::{ActivitySink, InstRecord};
use emx::tie::lang::parse_extension;

struct Options {
    program_path: String,
    tie_path: Option<String>,
    model_path: Option<String>,
    energy: bool,
    profile: Option<u64>,
    disasm: bool,
    trace: bool,
    stats_json: Option<String>,
    chrome_trace: Option<String>,
    max_cycles: u64,
}

const USAGE: &str = "usage: emx-run <program.s> [--tie <ext.tie>] [--energy] \
                     [--model <model.txt>] \
                     [--profile <window-cycles>] [--disasm] [--trace] \
                     [--stats-json <out.json>] [--chrome-trace <out.json>] \
                     [--max-cycles <n>]";

fn parse_args(args: &mut Args) -> Result<Options, EmxError> {
    let mut program_path = None;
    let mut options = Options {
        program_path: String::new(),
        tie_path: None,
        model_path: None,
        energy: false,
        profile: None,
        disasm: false,
        trace: false,
        stats_json: None,
        chrome_trace: None,
        max_cycles: 1_000_000_000,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tie" => options.tie_path = Some(args.value("a file path")?),
            "--model" => options.model_path = Some(args.value("a file path")?),
            "--energy" => options.energy = true,
            "--disasm" => options.disasm = true,
            "--trace" => options.trace = true,
            "--stats-json" => options.stats_json = Some(args.value("a file path")?),
            "--chrome-trace" => options.chrome_trace = Some(args.value("a file path")?),
            "--profile" => {
                let w: u64 = args.number("a window size")?;
                if w == 0 {
                    return Err(args.error("window size must be nonzero"));
                }
                options.profile = Some(w);
            }
            "--max-cycles" => options.max_cycles = args.number("a number")?,
            _ => args.positional(&mut program_path, arg)?,
        }
    }
    options.program_path = program_path.ok_or_else(|| args.usage())?;
    Ok(options)
}

/// Forwards each activity record to two sinks (human trace + counters).
struct Tee<'a, A: ActivitySink, B: ActivitySink>(&'a mut A, &'a mut B);

impl<A: ActivitySink, B: ActivitySink> ActivitySink for Tee<'_, A, B> {
    fn record(&mut self, r: &InstRecord<'_>) {
        self.0.record(r);
        self.1.record(r);
    }
}

fn elapsed_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn run(options: &Options) -> Result<(), EmxError> {
    // The collector is enabled only when a Chrome trace was requested, so
    // the default path stays allocation-free.
    let mut obs = if options.chrome_trace.is_some() {
        Collector::new()
    } else {
        Collector::disabled()
    };

    let span = obs.begin("assemble");
    let ext = match &options.tie_path {
        Some(path) => {
            let src = std::fs::read_to_string(path).map_err(|e| EmxError::io(path, &e))?;
            parse_extension(&src).map_err(|e| EmxError::from(e).context(path))?
        }
        None => ExtensionSet::empty(),
    };
    let src = std::fs::read_to_string(&options.program_path)
        .map_err(|e| EmxError::io(&options.program_path, &e))?;
    let mut asm = Assembler::new();
    ext.register_mnemonics(&mut asm);
    let program = asm
        .assemble(&src)
        .map_err(|e| EmxError::parse("parse.asm", format!("{}: {e}", options.program_path)))?;
    obs.end(span);

    if options.disasm {
        print!("{program}");
        return Ok(());
    }

    let mut sim = Interp::new(&program, &ext, ProcConfig::default());
    let span = obs.begin("iss-simulate");
    let sim_error = |e: emx::sim::SimError| EmxError::from(e).context("simulation failed");
    let result = if options.trace {
        let mut tracer = emx::sim::trace::Tracer::new();
        let result = if obs.is_enabled() {
            let mut counters = CounterTraceSink::new(&mut obs, 1024);
            let mut tee = Tee(&mut tracer, &mut counters);
            let result = sim.run_with_sink(&mut tee, options.max_cycles);
            counters.finish();
            result.map_err(sim_error)?
        } else {
            sim.run_with_sink(&mut tracer, options.max_cycles)
                .map_err(sim_error)?
        };
        println!("{}\n", tracer.to_text());
        if tracer.is_truncated() {
            println!(
                "(trace limited to {} lines; {} instructions suppressed)\n",
                tracer.lines().len(),
                tracer.suppressed_lines()
            );
        }
        result
    } else if obs.is_enabled() {
        let mut counters = CounterTraceSink::new(&mut obs, 1024);
        let result = sim.run_with_sink(&mut counters, options.max_cycles);
        counters.finish();
        result.map_err(sim_error)?
    } else {
        sim.run(options.max_cycles).map_err(sim_error)?
    };
    obs.end(span);
    obs.add("iss.instructions", result.stats.inst_count as f64);
    obs.add("iss.total_cycles", result.stats.total_cycles as f64);

    println!("{}", result.stats);
    println!("registers:");
    for r in Reg::all() {
        let v = sim.state().reg(r);
        if v != 0 {
            println!("  {r:<4} = 0x{v:08x} ({v})");
        }
    }

    // Phase attribution: where the ISS itself spends host time. Re-runs
    // the simulation with the phase recorder active (the normal run
    // above stays on the uninstrumented fast path).
    if options.profile.is_some() {
        let span = obs.begin("iss-phase-profile");
        let mut profiled = Interp::new(&program, &ext, ProcConfig::default());
        let profile = if obs.is_enabled() {
            profiled
                .run_profiled(options.max_cycles, &mut obs)
                .map_err(sim_error)?
                .1
        } else {
            let mut local = Collector::new();
            profiled
                .run_profiled(options.max_cycles, &mut local)
                .map_err(sim_error)?
                .1
        };
        obs.end(span);
        println!("\nISS phase breakdown (host time):\n{profile}");
    }

    let mut model_micros = None;
    if let Some(path) = &options.model_path {
        let text = std::fs::read_to_string(path).map_err(|e| EmxError::io(path, &e))?;
        let model = emx::core::EnergyMacroModel::from_text(&text)
            .map_err(|e| EmxError::from(e).context(path))?;
        let started = Instant::now();
        let span = obs.begin("macro-model-estimate");
        let estimate = model
            .estimate(&program, &ext, ProcConfig::default())
            .map_err(|e| EmxError::from(e).context("macro-model estimation failed"))?;
        obs.end(span);
        model_micros = Some(elapsed_micros(started));
        println!(
            "\nmacro-model estimate: {} ({:.1} mW at 187 MHz)",
            estimate.energy,
            estimate
                .energy
                .average_power_mw(estimate.stats.total_cycles, 187.0)
        );
    }

    let mut reference_micros = None;
    if options.energy || options.profile.is_some() {
        let estimator = RtlEnergyEstimator::new();
        let config = ProcConfig::default();
        let energy_error =
            |e: emx::sim::SimError| EmxError::from(e).context("energy estimation failed");
        let started = Instant::now();
        if let Some(window) = options.profile {
            let (report, profile) = estimator
                .estimate_profiled(&program, &ext, config, window)
                .map_err(energy_error)?;
            reference_micros = Some(elapsed_micros(started));
            profile.export_to(&mut obs);
            println!("\nenergy breakdown:\n{}", report.breakdown);
            println!(
                "average power {:.1} mW, peak window power {:.1} mW (187 MHz, {window}-cycle windows)",
                report.average_power_mw(187.0),
                profile.peak_power_mw(187.0)
            );
        } else {
            let report = estimator
                .estimate_traced(&program, &ext, config, u64::from(u32::MAX), &mut obs)
                .map_err(energy_error)?;
            reference_micros = Some(elapsed_micros(started));
            println!("\nenergy breakdown:\n{}", report.breakdown);
            println!(
                "average power {:.1} mW at 187 MHz",
                report.average_power_mw(187.0)
            );
        }
    }

    if let (Some(model_us), Some(reference_us)) = (model_micros, reference_micros) {
        println!(
            "\nspeedup: macro-model {model_us} µs vs RTL reference {reference_us} µs → {:.0}×",
            reference_us as f64 / model_us.max(1) as f64
        );
    }

    if let Some(path) = &options.stats_json {
        let mut text = result.stats.to_json().to_string();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| EmxError::io(path, &e))?;
        println!("\nstats JSON written to {path}");
    }

    if let Some(path) = &options.chrome_trace {
        let mut text = ChromeTraceWriter::new("emx-run").to_string(&obs);
        text.push('\n');
        std::fs::write(path, text).map_err(|e| EmxError::io(path, &e))?;
        println!("\nChrome trace written to {path} (load at ui.perfetto.dev)");
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::main("emx-run", USAGE, parse_args, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, EmxError> {
        parse_args(&mut Args::new(USAGE, args.iter().map(|s| (*s).to_owned())))
    }

    #[test]
    fn parses_minimal_invocation() {
        let o = opts(&["prog.s"]).unwrap();
        assert_eq!(o.program_path, "prog.s");
        assert!(!o.energy);
        assert!(o.tie_path.is_none());
        assert!(o.stats_json.is_none());
        assert!(o.chrome_trace.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let o = opts(&[
            "p.s",
            "--tie",
            "x.tie",
            "--model",
            "m.txt",
            "--energy",
            "--trace",
            "--profile",
            "256",
            "--stats-json",
            "s.json",
            "--chrome-trace",
            "t.json",
            "--max-cycles",
            "42",
        ])
        .unwrap();
        assert_eq!(o.tie_path.as_deref(), Some("x.tie"));
        assert_eq!(o.model_path.as_deref(), Some("m.txt"));
        assert!(o.energy);
        assert!(o.trace);
        assert_eq!(o.profile, Some(256));
        assert_eq!(o.stats_json.as_deref(), Some("s.json"));
        assert_eq!(o.chrome_trace.as_deref(), Some("t.json"));
        assert_eq!(o.max_cycles, 42);
    }

    #[test]
    fn rejects_bad_input() {
        for args in [
            &[][..],
            &["p.s", "--bogus"],
            &["p.s", "--profile", "0"],
            &["p.s", "--profile", "xyz"],
            &["p.s", "--stats-json"],
            &["p.s", "--chrome-trace"],
            &["p.s", "extra.s"],
        ] {
            match opts(args) {
                Err(e) => assert_eq!(e.exit_code(), 2, "{args:?} must be a usage error"),
                Ok(_) => panic!("{args:?} must be rejected"),
            }
        }
    }
}
