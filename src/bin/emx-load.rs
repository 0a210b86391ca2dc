//! `emx-load`: load generator for a running `emx-serve` instance.
//!
//! ```sh
//! emx-load --addr 127.0.0.1:8392                       # 4 workers, 1 s
//! emx-load --addr $ADDR --concurrency 8 --duration-ms 2000
//! emx-load --addr $ADDR --app gcd --app des            # app mix
//! emx-load --addr $ADDR --json report.json --shutdown  # CI smoke shape
//! ```
//!
//! Workers hammer `POST /v1/estimate` over keep-alive connections until
//! the deadline, then the merged measurements are printed (and
//! optionally written) as a versioned `emx.load-report/1` document:
//! request count, error count, sustained RPS, and latency percentiles
//! (p50/p90/p99). A nonzero error count fails the run with exit code 1
//! so scripts can gate on it directly; `--shutdown` additionally drains
//! the server when the burst completes.

use std::process::ExitCode;

use emx::core::cli::{self, Args};
use emx::core::EmxError;
use emx::obs::json::Value;
use emx::serve::{run_load, LoadConfig};

struct Options {
    config: LoadConfig,
    json_out: Option<String>,
}

const USAGE: &str = "usage: emx-load --addr <host:port> [--concurrency <n>] \
                     [--duration-ms <n>] [--app <name>]... [--json <out.json>] \
                     [--shutdown]";

fn parse_args(args: &mut Args) -> Result<Options, EmxError> {
    let mut addr = None;
    let mut config = LoadConfig::default();
    let mut apps: Vec<String> = vec![];
    let mut json_out = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(args.value("host:port")?),
            "--concurrency" => {
                config.concurrency = args.number("a count")?;
                if config.concurrency == 0 {
                    return Err(args.error("--concurrency must be nonzero"));
                }
            }
            "--duration-ms" => config.duration_ms = args.number("a count")?,
            "--app" => apps.push(args.value("a name")?),
            "--json" => json_out = Some(args.value("a path")?),
            "--shutdown" => config.shutdown_after = true,
            other => return Err(args.unexpected(other)),
        }
    }
    config.addr = addr.ok_or_else(|| args.error("--addr is required"))?;
    if !apps.is_empty() {
        config.apps = apps;
    }
    Ok(Options { config, json_out })
}

fn run(options: &Options) -> Result<(), EmxError> {
    let report = run_load(&options.config)?;
    emx::serve::loadgen::validate_report(&report)
        .map_err(|why| EmxError::internal("load.bad_report", why))?;
    let text = format!("{report}\n");
    print!("{text}");
    if let Some(path) = &options.json_out {
        std::fs::write(path, &text).map_err(|e| EmxError::io(path, &e))?;
    }
    let errors = report.get("errors").and_then(Value::as_u64).unwrap_or(0);
    if errors > 0 {
        let requests = report.get("requests").and_then(Value::as_u64).unwrap_or(0);
        return Err(EmxError::new(
            emx::core::ErrorKind::Io,
            "load.request_errors",
            format!("{errors} of {requests} requests failed"),
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::main("emx-load", USAGE, parse_args, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, EmxError> {
        parse_args(&mut Args::new(USAGE, args.iter().map(|s| (*s).to_owned())))
    }

    #[test]
    fn parses_full_flag_set() {
        let o = opts(&[
            "--addr",
            "127.0.0.1:9000",
            "--concurrency",
            "8",
            "--duration-ms",
            "250",
            "--app",
            "gcd",
            "--app",
            "des",
            "--json",
            "out.json",
            "--shutdown",
        ])
        .unwrap();
        assert_eq!(o.config.addr, "127.0.0.1:9000");
        assert_eq!(o.config.concurrency, 8);
        assert_eq!(o.config.duration_ms, 250);
        assert_eq!(o.config.apps, ["gcd", "des"]);
        assert_eq!(o.json_out.as_deref(), Some("out.json"));
        assert!(o.config.shutdown_after);
    }

    #[test]
    fn default_app_mix_survives_when_unset() {
        let o = opts(&["--addr", "127.0.0.1:9000"]).unwrap();
        assert_eq!(o.config.apps, ["gcd", "ins_sort"]);
        assert!(!o.config.shutdown_after);
    }

    #[test]
    fn rejects_bad_input() {
        for args in [
            &[][..],
            &["--addr"],
            &["--concurrency", "0"],
            &["--concurrency", "lots", "--addr", "x"],
            &["--bogus", "--addr", "x"],
        ] {
            match opts(args) {
                Err(e) => assert_eq!(e.exit_code(), 2, "{args:?} must be a usage error"),
                Ok(_) => panic!("{args:?} must be rejected"),
            }
        }
    }
}
