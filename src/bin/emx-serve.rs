//! `emx-serve`: the estimation flow as a long-running service.
//!
//! ```sh
//! emx-serve                                  # model.txt, 127.0.0.1:8392
//! emx-serve --addr 127.0.0.1:0               # ephemeral port (printed)
//! emx-serve --model model.txt --cache c.json # crash-safe shared cache
//! emx-serve --workers 4 --jobs 2             # pool sizes
//! emx-serve --addr-file addr.txt             # write host:port for scripts
//! emx-serve --chrome-trace trace.json        # request-lane trace at exit
//! ```
//!
//! Endpoints (JSON over HTTP/1.1, see `docs/SCHEMAS.md`):
//! `GET /healthz`, `GET /v1/stats`, `POST /v1/estimate`, `POST /v1/dse`,
//! `GET /v1/characterize-report`, `POST /v1/shutdown`. Concurrent
//! estimate requests are micro-batched into shared
//! `dse::evaluate_batch` calls; `POST /v1/shutdown` drains in-flight
//! work, flushes the cache, and exits 0.

use std::process::ExitCode;

use emx::core::cli::{self, Args};
use emx::core::EmxError;
use emx::serve::{CharacterizeMode, ServeConfig, Server};

struct Options {
    addr: String,
    model_path: String,
    workers: usize,
    jobs: usize,
    cache_path: Option<String>,
    queue_depth: usize,
    max_body_bytes: usize,
    addr_file: Option<String>,
    chrome_trace: Option<String>,
    calibration_suite: bool,
}

const USAGE: &str = "usage: emx-serve [--addr <host:port>] [--model <model.txt>] \
                     [--workers <n>] [--jobs <n>] [--cache <file.json>] \
                     [--queue-depth <n>] [--max-body-bytes <n>] \
                     [--addr-file <path>] [--chrome-trace <out.json>] \
                     [--calibration-suite]";

fn parse_args(args: &mut Args) -> Result<Options, EmxError> {
    let mut options = Options {
        addr: "127.0.0.1:8392".to_owned(),
        model_path: "model.txt".to_owned(),
        workers: 0,
        jobs: 0,
        cache_path: None,
        queue_depth: 64,
        max_body_bytes: 1024 * 1024,
        addr_file: None,
        chrome_trace: None,
        calibration_suite: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => options.addr = args.value("host:port")?,
            "--model" => options.model_path = args.value("a file path")?,
            "--cache" => options.cache_path = Some(args.value("a file path")?),
            "--addr-file" => options.addr_file = Some(args.value("a file path")?),
            "--chrome-trace" => options.chrome_trace = Some(args.value("a file path")?),
            "--workers" => options.workers = args.number("a count")?,
            "--jobs" => options.jobs = args.number("a count")?,
            "--queue-depth" => {
                options.queue_depth = args.number("a count")?;
                if options.queue_depth == 0 {
                    return Err(args.error("--queue-depth must be nonzero"));
                }
            }
            "--max-body-bytes" => options.max_body_bytes = args.number("a count")?,
            "--calibration-suite" => options.calibration_suite = true,
            other => return Err(args.unexpected(other)),
        }
    }
    Ok(options)
}

fn run(options: &Options) -> Result<(), EmxError> {
    let text = std::fs::read_to_string(&options.model_path)
        .map_err(|e| EmxError::io(&options.model_path, &e))?;
    let model = emx::core::EnergyMacroModel::from_text(&text)
        .map_err(|e| EmxError::from(e).context(&options.model_path))?;

    let mut config = ServeConfig {
        addr: options.addr.clone(),
        workers: options.workers,
        queue_depth: options.queue_depth,
        cache_path: options.cache_path.clone(),
        chrome_trace: options.chrome_trace.clone(),
        characterize: if options.calibration_suite {
            CharacterizeMode::Calibration
        } else {
            CharacterizeMode::Full
        },
        ..ServeConfig::default()
    };
    config.limits.max_body_bytes = options.max_body_bytes;
    config.batch.jobs = options.jobs;

    let server = Server::bind(model, config)?;
    let addr = server.local_addr();
    // Stdout is line-buffered: scripts scrape this line for the port.
    println!("emx-serve: listening on {addr}");
    if let Some(path) = &options.addr_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| EmxError::io(path, &e))?;
    }

    let summary = server.run()?;
    println!(
        "emx-serve: drained: {} requests ({} errors) over {} connections, \
         {} batches, {} cache entries",
        summary.requests,
        summary.errors,
        summary.connections,
        summary.batches,
        summary.cache_entries
    );
    Ok(())
}

fn main() -> ExitCode {
    cli::main("emx-serve", USAGE, parse_args, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, EmxError> {
        parse_args(&mut Args::new(USAGE, args.iter().map(|s| (*s).to_owned())))
    }

    #[test]
    fn parses_defaults_and_flags() {
        let o = opts(&[]).unwrap();
        assert_eq!(o.addr, "127.0.0.1:8392");
        assert_eq!(o.model_path, "model.txt");
        assert!(o.cache_path.is_none());

        let o = opts(&[
            "--addr",
            "127.0.0.1:0",
            "--model",
            "m.txt",
            "--workers",
            "4",
            "--jobs",
            "2",
            "--cache",
            "c.json",
            "--queue-depth",
            "16",
            "--max-body-bytes",
            "4096",
            "--addr-file",
            "a.txt",
            "--chrome-trace",
            "t.json",
            "--calibration-suite",
        ])
        .unwrap();
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.workers, 4);
        assert_eq!(o.jobs, 2);
        assert_eq!(o.cache_path.as_deref(), Some("c.json"));
        assert_eq!(o.queue_depth, 16);
        assert_eq!(o.max_body_bytes, 4096);
        assert_eq!(o.addr_file.as_deref(), Some("a.txt"));
        assert_eq!(o.chrome_trace.as_deref(), Some("t.json"));
        assert!(o.calibration_suite);
    }

    #[test]
    fn rejects_bad_input() {
        for args in [
            &["--bogus-flag"][..],
            &["--addr"],
            &["--workers", "many"],
            &["--queue-depth", "0"],
            &["positional"],
        ] {
            match opts(args) {
                Err(e) => assert_eq!(e.exit_code(), 2, "{args:?} must be a usage error"),
                Ok(_) => panic!("{args:?} must be rejected"),
            }
        }
    }
}
