//! The load generator behind `emx-load`: concurrent keep-alive workers
//! hammering `/v1/estimate`, merged into one `emx.load-report/1`
//! summary (latency percentiles, sustained RPS, error counts) so
//! service performance is measurable PR-over-PR like the bench
//! snapshots.

use std::time::{Duration, Instant};

use emx_core::EmxError;
use emx_obs::json::Value;
use emx_obs::Histogram;

use crate::client::HttpClient;
use crate::wire;

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// How long to keep sending, in milliseconds. `0` sends nothing
    /// (useful with [`LoadConfig::shutdown_after`] as a pure shutdown
    /// client).
    pub duration_ms: u64,
    /// Application names to cycle through.
    pub apps: Vec<String>,
    /// POST `/v1/shutdown` once the burst completes.
    pub shutdown_after: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            concurrency: 4,
            duration_ms: 1000,
            apps: vec!["gcd".to_owned(), "ins_sort".to_owned()],
            shutdown_after: false,
        }
    }
}

/// What one worker measured.
struct WorkerOutcome {
    latency: Histogram,
    requests: u64,
    errors: u64,
}

fn worker(config: &LoadConfig, deadline: Instant, lane: usize) -> Result<WorkerOutcome, EmxError> {
    let mut client = HttpClient::new(config.addr.clone());
    let mut latency = Histogram::new();
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut next_app = lane; // stagger app choice across workers
    while Instant::now() < deadline {
        let app = &config.apps[next_app % config.apps.len()];
        next_app += 1;
        let body = wire::estimate_request(app);
        let started = Instant::now();
        let outcome = client.post_json("/v1/estimate", &body);
        let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        requests += 1;
        latency.record(elapsed);
        match outcome {
            Ok((200, doc)) if doc.get("status").and_then(Value::as_str) == Some("ok") => {}
            Ok(_) => errors += 1,
            Err(e) => {
                // A connection that never works is an input error (bad
                // address), not a measured service error: fail fast on
                // the very first request, count errors afterwards.
                if requests == 1 {
                    return Err(EmxError::io(&config.addr, &e));
                }
                errors += 1;
            }
        }
    }
    Ok(WorkerOutcome {
        latency,
        requests,
        errors,
    })
}

/// Runs the load and builds the `emx.load-report/1` document.
///
/// # Errors
///
/// An empty `apps` list (usage error), an unreachable server (input
/// error) and worker thread loss (internal). Request-level failures are
/// *not* errors here — they are counted in the report's `errors` field;
/// the caller decides whether a nonzero count fails the run.
pub fn run_load(config: &LoadConfig) -> Result<Value, EmxError> {
    if config.apps.is_empty() {
        return Err(EmxError::usage("the load needs at least one app"));
    }
    let concurrency = config.concurrency.max(1);
    let started = Instant::now();
    let deadline = started + Duration::from_millis(config.duration_ms);
    let outcomes: Vec<Result<WorkerOutcome, EmxError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency)
            .map(|lane| s.spawn(move || worker(config, deadline, lane)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(EmxError::internal(
                        "load.worker_lost",
                        "a load worker panicked",
                    ))
                })
            })
            .collect()
    });
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);

    let mut latency = Histogram::new();
    let mut requests = 0u64;
    let mut errors = 0u64;
    for outcome in outcomes {
        let outcome = outcome?;
        latency.merge(&outcome.latency);
        requests += outcome.requests;
        errors += outcome.errors;
    }

    if config.shutdown_after {
        let response = crate::client::request_once(&config.addr, "POST", "/v1/shutdown", None)
            .map_err(|e| EmxError::io(&config.addr, &e).context("shutdown request"))?;
        if response.status != 200 {
            return Err(EmxError::new(
                emx_core::ErrorKind::Io,
                "load.shutdown_refused",
                format!("shutdown request answered {}", response.status),
            ));
        }
    }

    let mut doc = Value::object();
    doc.set("schema", wire::LOAD_REPORT_SCHEMA);
    doc.set("concurrency", concurrency as u64);
    doc.set("duration_ms", elapsed_ms);
    doc.set("requests", requests);
    doc.set("errors", errors);
    doc.set(
        "rps",
        if elapsed_ms == 0 {
            0.0
        } else {
            requests as f64 * 1000.0 / elapsed_ms as f64
        },
    );
    let mut lat = Value::object();
    lat.set("count", latency.count());
    lat.set("min", latency.min());
    lat.set("p50", latency.percentile(50.0));
    lat.set("p90", latency.percentile(90.0));
    lat.set("p99", latency.percentile(99.0));
    lat.set("max", latency.max());
    lat.set("mean", latency.mean());
    doc.set("latency_us", lat);
    Ok(doc)
}

/// Asserts the fields tooling relies on are present in `report`.
/// Exposed for the binary's self-check and the tests.
pub fn validate_report(report: &Value) -> Result<(), String> {
    if report.get("schema").and_then(Value::as_str) != Some(wire::LOAD_REPORT_SCHEMA) {
        return Err(format!(
            "report schema must be {}",
            wire::LOAD_REPORT_SCHEMA
        ));
    }
    for field in ["concurrency", "duration_ms", "requests", "errors"] {
        if report.get(field).and_then(Value::as_u64).is_none() {
            return Err(format!("report field `{field}` missing or not an integer"));
        }
    }
    if report.get("rps").and_then(Value::as_f64).is_none() {
        return Err("report field `rps` missing".to_owned());
    }
    let Some(latency) = report.get("latency_us") else {
        return Err("report field `latency_us` missing".to_owned());
    };
    for field in ["count", "min", "p50", "p90", "p99", "max"] {
        if latency.get(field).and_then(Value::as_u64).is_none() {
            return Err(format!("latency field `{field}` missing"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_app_list_is_a_usage_error_not_a_panic() {
        let config = LoadConfig {
            addr: "127.0.0.1:9".to_owned(),
            apps: Vec::new(),
            ..LoadConfig::default()
        };
        let e = run_load(&config).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
    }
}
