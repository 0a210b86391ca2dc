//! `emx-discover`: mine a workload for custom-instruction candidates.
//!
//! Replays the workload once through the micro-op ISS to weight its
//! basic blocks, lifts each block to a def-use DAG, enumerates every
//! legal convex pattern (two GPR read ports, one visible GPR def at the
//! anchor, no memory/control members), synthesizes each into compilable
//! TIE text, and ranks the deduplicated candidates by estimated dynamic
//! cycles saved. The result is the versioned `emx.discover-report/1`
//! artifact that `emx-dse --candidates` ingests as a design space.
//!
//! ```sh
//! emx-discover --workload rs1 --json discover.json   # mine Reed–Solomon
//! emx-discover --workload accumulate                 # table only
//! emx-discover --workload rs1 --jobs 4               # parallel mining
//! emx-discover --workload rs1 --max-nodes 4          # smaller patterns
//! ```
//!
//! The report is byte-identical across runs and `--jobs` values: mining
//! partitions by basic block and merges in block order, and every later
//! stage (dedup, ranking, naming) is ordered by canonical pattern text.

use std::process::ExitCode;

use emx::core::cli::{self, Args};
use emx::core::EmxError;
use emx::discover::mine::MineConfig;
use emx::discover::{discover, DiscoverConfig, DiscoverError};
use emx::workloads::registry;

struct Options {
    workload: String,
    json_path: Option<String>,
    jobs: usize,
    max_nodes: usize,
    max_cycles: u64,
    selfcheck: bool,
}

const USAGE: &str = "usage: emx-discover [--workload <name>] [--json <out.json>] \
                     [--jobs <n>] [--max-nodes <n>] [--max-cycles <n>] [--no-selfcheck]";

fn parse_args(args: &mut Args) -> Result<Options, EmxError> {
    let defaults = DiscoverConfig::default();
    let mut options = Options {
        workload: "rs1".to_owned(),
        json_path: None,
        jobs: 1,
        max_nodes: defaults.mine.max_nodes,
        max_cycles: defaults.max_cycles,
        selfcheck: true,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => options.workload = args.value("a workload name")?,
            "--json" => options.json_path = Some(args.value("a file path")?),
            "--jobs" => {
                options.jobs = args.number("a number")?;
                if options.jobs == 0 {
                    return Err(args.error("--jobs must be at least 1"));
                }
            }
            "--max-nodes" => {
                options.max_nodes = args.number("a number")?;
                if options.max_nodes == 0 {
                    return Err(args.error("--max-nodes must be at least 1"));
                }
            }
            "--max-cycles" => options.max_cycles = args.number("a number")?,
            "--no-selfcheck" => options.selfcheck = false,
            other => return Err(args.unexpected(other)),
        }
    }
    Ok(options)
}

fn run(options: &Options) -> Result<(), EmxError> {
    let workload = registry::by_name(&options.workload).ok_or_else(|| {
        EmxError::usage(format!(
            "unknown workload `{}` (available: {})",
            options.workload,
            registry::names().join(", ")
        ))
    })?;
    let config = DiscoverConfig {
        mine: MineConfig {
            max_nodes: options.max_nodes,
            ..MineConfig::default()
        },
        max_cycles: options.max_cycles,
        jobs: options.jobs,
        selfcheck: options.selfcheck,
    };
    let report = discover(&workload, &config).map_err(|e| match e {
        DiscoverError::UnknownWorkload(name) => {
            EmxError::usage(format!("unknown workload `{name}`"))
        }
        DiscoverError::Report(msg) => EmxError::parse("discover.report", msg),
        e @ (DiscoverError::Sim(_) | DiscoverError::Internal(_)) => {
            EmxError::internal("discover.pipeline", e.to_string())
        }
    })?;

    let f = &report.funnel;
    println!(
        "workload `{}`: {} block(s), {} set(s) enumerated, {} legal, {} unique candidate(s)",
        report.workload,
        f.blocks,
        f.enumerated,
        report.legal,
        report.candidates.len(),
    );
    println!(
        "rejected: {} non-convex, {} ports, {} ordering, {} dead, {} synthesis, {} self-check",
        f.rejected_convex,
        f.rejected_io,
        f.rejected_order,
        f.rejected_dead,
        f.rejected_synth,
        f.rejected_check,
    );
    if f.capped_blocks > 0 {
        eprintln!(
            "emx-discover: warning: {} block(s) hit the enumeration cap; \
             results there are truncated",
            f.capped_blocks
        );
    }
    println!(
        "\n{:<6} {:>14} {:>8} {:>10} {:>6} {:>10} {:>6}",
        "name", "saved_cycles", "latency", "area", "ops", "weight", "sites"
    );
    for c in &report.candidates {
        println!(
            "{:<6} {:>14} {:>8} {:>10.1} {:>6} {:>10} {:>6}",
            c.name,
            c.saved_cycles_est,
            c.latency,
            c.area,
            c.op_nodes,
            c.weight,
            c.sites.len(),
        );
    }

    if let Some(path) = &options.json_path {
        let mut text = report.to_json().to_string();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| EmxError::io(path, &e))?;
        println!("\nreport written to {path}");
        println!("next: emx-dse --candidates {path} --json dse.json");
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::main("emx-discover", USAGE, parse_args, run)
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
        assert_eq!(o.workload, "rs1");
        assert!(o.json_path.is_none());
        assert_eq!(o.jobs, 1);
        assert_eq!(o.max_nodes, MineConfig::default().max_nodes);
        assert!(o.selfcheck);
    }

    #[test]
    fn parses_all_flags() {
        let o = opts(&[
            "--workload",
            "accumulate",
            "--json",
            "d.json",
            "--jobs",
            "4",
            "--max-nodes",
            "4",
            "--max-cycles",
            "1000000",
            "--no-selfcheck",
        ])
        .unwrap();
        assert_eq!(o.workload, "accumulate");
        assert_eq!(o.json_path.as_deref(), Some("d.json"));
        assert_eq!(o.jobs, 4);
        assert_eq!(o.max_nodes, 4);
        assert_eq!(o.max_cycles, 1_000_000);
        assert!(!o.selfcheck);
    }

    #[test]
    fn rejects_bad_input() {
        for args in [
            &["--jobs"][..],
            &["--jobs", "0"],
            &["--jobs", "many"],
            &["--max-nodes", "0"],
            &["--max-cycles", "soon"],
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
