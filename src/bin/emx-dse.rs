//! `emx-dse`: explore a custom-instruction design space with the
//! macro-model fast path — enumerate candidate extension subsets under an
//! area budget, evaluate them in parallel with a content-addressed
//! estimation cache, and report the energy/performance Pareto front.
//!
//! ```sh
//! emx-dse --workload reed-solomon                  # full search
//! emx-dse --budget 800                             # area-constrained
//! emx-dse --jobs 4                                 # 4 worker threads
//! emx-dse --cache dse-cache.json                   # reuse across runs
//! emx-dse --model model.txt                        # skip characterization
//! emx-dse --json report.json                       # emx.dse-report/1
//! emx-dse --chrome-trace t.json                    # per-worker trace lanes
//! emx-dse --shard 2/3 --emit-shard s2.json         # evaluate one shard
//! emx-dse --merge s1.json s2.json s3.json \
//!         --json merged.json --cache warm.json     # recombine shards
//! emx-dse --candidates discover.json --top 6       # discovered space
//! ```
//!
//! The report JSON is a pure function of the search inputs: identical
//! across `--jobs` settings and cache warmth (timings and cache counters
//! live in the observability outputs instead).
//!
//! Sharding partitions the enumeration deterministically by mask range:
//! `--shard i/N` evaluates the i-th of N disjoint sub-spaces and
//! `--emit-shard` writes an `emx.dse-shard-report/1` artifact (rows,
//! failures, cache delta, `evaluated`/`reused` counters, partition
//! fingerprint). `--merge` recombines a complete set of shard artifacts
//! into an `emx.dse-report/1` byte-identical to the single-process
//! report, and `--cache` in merge mode folds the shard deltas into one
//! warm cache file — so the next model refit re-prices without
//! re-simulating.
//!
//! `--candidates` ingests an `emx.discover-report/1` artifact written by
//! `emx-discover` and explores the space of its top `--top` candidates
//! instead of a named hand-written space: the `base` point is the
//! unmodified workload, and every other subset rewrites the program with
//! the selected discovered instructions before pricing.

use std::process::ExitCode;

use emx::core::cli::{self, Args};
use emx::core::{Characterizer, EmxError};
use emx::dse::{self, CandidateSpace, EstimationCache, ShardSpec};
use emx::obs::{ChromeTraceWriter, Collector};
use emx::sim::ProcConfig;
use emx::workloads::suite;

struct Options {
    workload: Option<String>,
    budget: Option<f64>,
    jobs: usize,
    cache_path: Option<String>,
    model_path: Option<String>,
    json_path: Option<String>,
    chrome_trace: Option<String>,
    shard: Option<ShardSpec>,
    emit_shard: Option<String>,
    merge: Vec<String>,
    candidates: Option<String>,
    top: usize,
}

const USAGE: &str = "usage: emx-dse [--workload <name>] [--budget <net-equivalents>] \
                     [--jobs <n>] [--cache <file.json>] [--model <model.txt>] \
                     [--json <out.json>] [--chrome-trace <out.json>] \
                     [--shard <i/N>] [--emit-shard <out.json>] \
                     [--candidates <discover.json>] [--top <n>] \
                     | emx-dse --merge <shard.json>... [--json <out.json>] \
                     [--cache <file.json>]";

fn parse_args(args: &mut Args) -> Result<Options, EmxError> {
    let mut options = Options {
        workload: None,
        budget: None,
        jobs: 0,
        cache_path: None,
        model_path: None,
        json_path: None,
        chrome_trace: None,
        shard: None,
        emit_shard: None,
        merge: Vec::new(),
        candidates: None,
        top: 6,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => options.workload = Some(args.value("a space name")?),
            "--candidates" => options.candidates = Some(args.value("a report file")?),
            "--top" => {
                options.top = args.number("a number")?;
                if options.top == 0 {
                    return Err(args.error("--top must be at least 1"));
                }
            }
            "--budget" => {
                let b: f64 = args.number("a number")?;
                if !b.is_finite() || b < 0.0 {
                    return Err(args.error(format_args!(
                        "budget must be finite and non-negative, got {b}"
                    )));
                }
                options.budget = Some(b);
            }
            "--jobs" => options.jobs = args.number("a number")?,
            "--cache" => options.cache_path = Some(args.value("a file path")?),
            "--model" => options.model_path = Some(args.value("a file path")?),
            "--json" => options.json_path = Some(args.value("a file path")?),
            "--chrome-trace" => options.chrome_trace = Some(args.value("a file path")?),
            "--shard" => {
                let s = args.value("i/N")?;
                options.shard = Some(ShardSpec::parse(&s).map_err(|_| {
                    args.error(format_args!(
                        "bad shard `{s}`: expected i/N with 1 <= i <= N"
                    ))
                })?);
            }
            "--emit-shard" => options.emit_shard = Some(args.value("a file path")?),
            "--merge" => {
                // Greedy: every following non-flag argument is a shard
                // report file.
                options.merge.extend(args.operands());
                if options.merge.is_empty() {
                    return Err(args.error("--merge needs at least one shard report file"));
                }
            }
            other => return Err(args.unexpected(other)),
        }
    }
    if !options.merge.is_empty()
        && (options.shard.is_some()
            || options.emit_shard.is_some()
            || options.model_path.is_some()
            || options.budget.is_some()
            || options.candidates.is_some())
    {
        return Err(args.error(
            "--merge cannot be combined with --shard, --emit-shard, --model, --budget or \
             --candidates",
        ));
    }
    if options.candidates.is_some() && options.workload.is_some() {
        return Err(args.error("--candidates names its own workload; drop --workload"));
    }
    Ok(options)
}

/// Merge mode: recombine shard reports into the single-process report
/// and fold their cache deltas into one warm cache. No model, no
/// simulation — the shards already carry priced rows.
fn run_merge(options: &Options) -> Result<(), EmxError> {
    let mut reports = Vec::new();
    for path in &options.merge {
        let text = std::fs::read_to_string(path).map_err(|e| EmxError::io(path, &e))?;
        reports.push(dse::ShardReport::parse(&text, path)?);
    }
    let outcome = dse::merge(reports)?;
    println!(
        "merged {} shard(s): {} candidates, {} failed; {} extraction(s) evaluated, {} reused",
        outcome.shards,
        outcome.inputs.candidates.len(),
        outcome.inputs.failed.len(),
        outcome.evaluated,
        outcome.reused,
    );

    if let Some(path) = &options.cache_path {
        let (mut cache, recovery) = EstimationCache::load_or_recover(path)?;
        if let Some(recovery) = recovery {
            eprintln!("emx-dse: warning: cache recovered: {recovery}");
        }
        cache.absorb(outcome.cache_delta);
        cache.save(path)?;
        println!("cache written to {path} ({} entries)", cache.len());
    }

    if let Some(path) = &options.json_path {
        let mut text = dse::report::render(&outcome.inputs).to_string();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| EmxError::io(path, &e))?;
        println!("report written to {path}");
    }
    Ok(())
}

fn run(options: &Options) -> Result<(), EmxError> {
    if !options.merge.is_empty() {
        return run_merge(options);
    }
    let space = match &options.candidates {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| EmxError::io(path, &e))?;
            let report = emx::discover::report::Report::parse(&text)
                .map_err(|e| EmxError::parse("discover.report", e).context(path))?;
            emx::discover::bridge::candidate_space(&report, options.top)
                .map_err(|e| EmxError::parse("discover.candidates", e).context(path))?
        }
        None => {
            let name = options.workload.as_deref().unwrap_or("reed-solomon");
            CandidateSpace::by_name(name).ok_or_else(|| {
                EmxError::usage(format!(
                    "unknown workload `{name}` (available: {})",
                    CandidateSpace::names().join(", ")
                ))
            })?
        }
    };

    let mut obs = Collector::new();

    let model = match &options.model_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| EmxError::io(path, &e))?;
            emx::core::EnergyMacroModel::from_text(&text)
                .map_err(|e| EmxError::from(e).context(path))?
        }
        None => {
            println!("no --model given: characterizing the base processor once…");
            let span = obs.begin("dse.characterize");
            let workloads = suite::full_training_suite();
            let cases = suite::training_cases(&workloads);
            let result = Characterizer::new(ProcConfig::default())
                .characterize(&cases)
                .map_err(|e| EmxError::from(e).context("characterization failed"))?;
            obs.end(span);
            result.model
        }
    };

    // A damaged cache file must never abort a search: quarantine it, keep
    // whatever entries survived, and run (at worst) cold.
    let mut cache = match &options.cache_path {
        Some(path) => {
            let (cache, recovery) = EstimationCache::load_or_recover(path)?;
            if let Some(recovery) = recovery {
                eprintln!("emx-dse: warning: cache recovered: {recovery}");
            }
            cache
        }
        None => EstimationCache::new(),
    };

    // Snapshot the cache keys so --emit-shard can ship exactly the
    // extractions this run added.
    let baseline = options.emit_shard.as_ref().map(|_| cache.key_set());
    let shard = options.shard.unwrap_or(dse::shard::FULL);

    let out = dse::explore_shard_with(
        &model,
        &space,
        options.budget,
        &ProcConfig::default(),
        options.jobs,
        &mut cache,
        &mut obs,
        shard,
    )
    .map_err(|e| EmxError::from(e).context("exploration failed"))?;

    println!(
        "space `{}`: {} subsets enumerated, {} over budget, {} dominated, {} evaluated",
        out.space_name,
        out.enumeration.enumerated,
        out.enumeration.over_budget,
        out.enumeration.pruned,
        out.points.len(),
    );
    if !shard.is_full() {
        println!(
            "shard {shard}: {} of {} surviving candidate(s), partition {:016x}",
            out.enumeration.candidates.len(),
            out.survivors_total,
            out.partition_fingerprint,
        );
    }
    println!(
        "incremental: {} extraction(s) evaluated, {} reused from cache ({} entries)",
        out.evaluated,
        out.reused,
        cache.len(),
    );
    println!(
        "\n{:<16} {:<24} {:>10} {:>12} {:>12} {:>8}",
        "candidate", "workload", "area", "energy", "cycles", "pareto"
    );
    for (i, (c, p)) in out
        .enumeration
        .candidates
        .iter()
        .zip(&out.points)
        .enumerate()
    {
        println!(
            "{:<16} {:<24} {:>10.1} {:>12} {:>12} {:>8}",
            c.name,
            c.workload.name(),
            c.area,
            p.energy.to_string(),
            p.cycles,
            if out.pareto.contains(&i) { "*" } else { "" }
        );
    }
    if !out.failed.is_empty() {
        eprintln!(
            "emx-dse: warning: {} candidate(s) failed to evaluate (search completed over survivors):",
            out.failed.len()
        );
        for f in &out.failed {
            eprintln!("  {}: {} [{}]", f.name, f.error, f.error.code());
        }
    }
    if let Some(i) = out.best_energy {
        println!("\nlowest energy: {}", out.points[i].name);
    }
    if let Some(i) = out.best_edp {
        println!("lowest energy-delay product: {}", out.points[i].name);
    }

    if let Some(path) = &options.cache_path {
        // A clean cache (nothing evaluated) is not rewritten.
        cache.save(path)?;
        println!("cache up to date in {path}");
    }

    let options_table: Vec<(String, f64)> = space
        .options()
        .iter()
        .map(|o| (o.name.clone(), o.area()))
        .collect();

    if let Some(path) = &options.emit_shard {
        let delta = match &baseline {
            Some(keys) => cache.delta_since(keys),
            None => EstimationCache::new(),
        };
        let report = dse::ShardReport::from_exploration(&out, &options_table, delta);
        let mut text = report.to_json().to_string();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| EmxError::io(path, &e))?;
        println!("shard report written to {path}");
    }

    if let Some(path) = &options.json_path {
        let mut text = dse::report::to_json(&out, &options_table).to_string();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| EmxError::io(path, &e))?;
        println!("report written to {path}");
    }

    if let Some(path) = &options.chrome_trace {
        let mut text = ChromeTraceWriter::new("emx-dse").to_string(&obs);
        text.push('\n');
        std::fs::write(path, text).map_err(|e| EmxError::io(path, &e))?;
        println!("Chrome trace written to {path} (load at ui.perfetto.dev)");
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::main("emx-dse", USAGE, parse_args, run)
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
        assert_eq!(o.workload, None);
        assert_eq!(o.candidates, None);
        assert_eq!(o.top, 6);
        assert_eq!(o.budget, None);
        assert_eq!(o.jobs, 0);
        assert!(o.cache_path.is_none());
        assert!(o.model_path.is_none());
        assert!(o.json_path.is_none());
        assert!(o.chrome_trace.is_none());
        assert!(o.shard.is_none());
        assert!(o.emit_shard.is_none());
        assert!(o.merge.is_empty());
    }

    #[test]
    fn parses_shard_and_merge_flags() {
        let o = opts(&["--shard", "2/3", "--emit-shard", "s2.json"]).unwrap();
        let shard = o.shard.unwrap();
        assert_eq!((shard.index(), shard.count()), (2, 3));
        assert_eq!(o.emit_shard.as_deref(), Some("s2.json"));

        // --merge greedily takes every following non-flag argument.
        let o = opts(&["--merge", "a.json", "b.json", "--json", "out.json"]).unwrap();
        assert_eq!(o.merge, ["a.json", "b.json"]);
        assert_eq!(o.json_path.as_deref(), Some("out.json"));
    }

    #[test]
    fn rejects_bad_shards_and_merge_combinations() {
        for args in [
            &["--shard", "3/2"][..],
            &["--shard", "0/0"],
            &["--shard", "1"],
            &["--shard", "a/b"],
            &["--shard"],
            &["--merge"],
            &["--merge", "--json", "r.json"],
            &["--merge", "a.json", "--shard", "1/2"],
            &["--merge", "a.json", "--emit-shard", "s.json"],
            &["--merge", "a.json", "--model", "m.txt"],
            &["--merge", "a.json", "--budget", "800"],
        ] {
            match opts(args) {
                Err(e) => assert_eq!(e.exit_code(), 2, "{args:?} must be a usage error"),
                Ok(_) => panic!("{args:?} must be rejected"),
            }
        }
    }

    #[test]
    fn parses_all_flags() {
        let o = opts(&[
            "--workload",
            "reed-solomon",
            "--budget",
            "800.5",
            "--jobs",
            "4",
            "--cache",
            "c.json",
            "--model",
            "m.txt",
            "--json",
            "r.json",
            "--chrome-trace",
            "t.json",
        ])
        .unwrap();
        assert_eq!(o.budget, Some(800.5));
        assert_eq!(o.jobs, 4);
        assert_eq!(o.cache_path.as_deref(), Some("c.json"));
        assert_eq!(o.model_path.as_deref(), Some("m.txt"));
        assert_eq!(o.json_path.as_deref(), Some("r.json"));
        assert_eq!(o.chrome_trace.as_deref(), Some("t.json"));
    }

    #[test]
    fn parses_candidates_flags() {
        let o = opts(&["--candidates", "d.json", "--top", "4"]).unwrap();
        assert_eq!(o.candidates.as_deref(), Some("d.json"));
        assert_eq!(o.top, 4);
    }

    #[test]
    fn rejects_bad_candidates_combinations() {
        for args in [
            &["--candidates"][..],
            &["--top"],
            &["--top", "0"],
            &["--top", "lots"],
            &["--candidates", "d.json", "--workload", "reed-solomon"],
            &["--merge", "a.json", "--candidates", "d.json"],
        ] {
            match opts(args) {
                Err(e) => assert_eq!(e.exit_code(), 2, "{args:?} must be a usage error"),
                Ok(_) => panic!("{args:?} must be rejected"),
            }
        }
    }

    #[test]
    fn rejects_bad_input() {
        for args in [
            &["--budget"][..],
            &["--budget", "-1"],
            &["--budget", "nan"],
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
