//! The service itself: listener, bounded connection queue, worker pool,
//! request routing, and graceful shutdown.
//!
//! Threading model:
//!
//! * the **accept thread** (the caller of [`Server::run`]) pulls
//!   connections off the listener into a bounded queue — when the queue
//!   is full it answers `503` with a typed error document instead of
//!   letting the backlog grow without bound,
//! * a fixed pool of **connection workers** pops the queue and speaks
//!   keep-alive HTTP/1.1, one connection at a time per worker; reads
//!   use a short poll window, and a connection that sits idle while
//!   other connections wait in the queue is handed back within one
//!   window rather than pinning its worker — idle keep-alive clients
//!   cannot starve new traffic even with a single-worker pool, and the
//!   hand-off adds at most ~5 ms, not a long poll. Each request is
//!   instrumented as a span on its worker's [`Track::Request`] lane
//!   with latencies recorded into the shared `serve.latency_us`
//!   histogram,
//! * one **batching thread** (see [`crate::batch`]) coalesces all
//!   estimate traffic into shared [`emx_dse::evaluate_batch`] calls
//!   over the process-wide [`SharedEstimationCache`].
//!
//! Shutdown (`POST /v1/shutdown`) is graceful by construction: the flag
//! flips, a self-connection wakes the blocking accept, already-queued
//! connections are still served (with `connection: close`), the batch
//! thread drains its pending jobs, and the cache is flushed one last
//! time before [`Server::run`] returns.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use emx_core::{Characterizer, EmxError, EnergyMacroModel};
use emx_dse::{CandidateSpace, EnumeratedCandidate, SharedEstimationCache};
use emx_obs::json::Value;
use emx_obs::{ChromeTraceWriter, Collector, Track};
use emx_sim::ProcConfig;
use emx_tie::lang::parse_extension;
use emx_tie::ExtensionSet;
use emx_workloads::{suite, Workload};

use crate::batch::{BatchConfig, Batcher};
use crate::http::{self, FrameError, Limits, Request};
use crate::wire::{self, ServeRequest, WireError};

/// Which training suite the lazy characterize-report endpoint runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CharacterizeMode {
    /// The full training suite (the production default; one-time cost on
    /// the first request, memoized afterwards).
    Full,
    /// The small single-event calibration set — cheap enough for tests,
    /// deliberately too small to determine all 21 coefficients.
    Calibration,
}

/// Service configuration. `Default` binds an ephemeral localhost port.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Connection workers (0 = one per core, capped at 8).
    pub workers: usize,
    /// Bounded pending-connection queue depth; overflow answers `503`.
    pub queue_depth: usize,
    /// HTTP framing limits.
    pub limits: Limits,
    /// Micro-batching tuning.
    pub batch: BatchConfig,
    /// Crash-safe cache persistence path. Loaded (with recovery) at
    /// startup, flushed after every batch and once more at shutdown.
    pub cache_path: Option<String>,
    /// Suite behind `GET /v1/characterize-report`.
    pub characterize: CharacterizeMode,
    /// Chrome trace written at shutdown, if set.
    pub chrome_trace: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            queue_depth: 64,
            limits: Limits::default(),
            batch: BatchConfig::default(),
            cache_path: None,
            characterize: CharacterizeMode::Full,
            chrome_trace: None,
        }
    }
}

/// What one completed service run did, derived from the final
/// observability counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSummary {
    /// Requests answered (including error responses).
    pub requests: u64,
    /// Requests answered with an error envelope.
    pub errors: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Micro-batches evaluated.
    pub batches: u64,
    /// Entries in the estimation cache at shutdown.
    pub cache_entries: usize,
}

fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One accepted connection: buffered read half plus write half. Kept as
/// a unit so an idle keep-alive connection can be pushed back onto the
/// queue (buffered-but-unparsed pipelined bytes included) instead of
/// pinning a worker — with a small pool, a handful of idle clients must
/// not starve new connections.
struct Conn {
    reader: std::io::BufReader<TcpStream>,
    writer: TcpStream,
}

/// Everything the worker threads share.
struct Shared {
    model: Arc<EnergyMacroModel>,
    cache: SharedEstimationCache,
    config: ServeConfig,
    addr: SocketAddr,
    apps: Vec<Workload>,
    obs: Arc<Mutex<Collector>>,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<Conn>>,
    queue_cv: Condvar,
    /// Memoized characterize-report JSON (or its typed failure).
    report: Mutex<Option<Result<Value, WireError>>>,
}

/// A bound-but-not-yet-running service instance.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and loads (or recovers) the persisted cache.
    ///
    /// # Errors
    ///
    /// Binding failures and unrecoverable cache corruption, as
    /// [`EmxError`] (both input-class, exit code 1).
    pub fn bind(model: EnergyMacroModel, config: ServeConfig) -> Result<Server, EmxError> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| EmxError::io(&config.addr, &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| EmxError::io(&config.addr, &e))?;
        let cache = match &config.cache_path {
            Some(path) => {
                let (cache, recovery) = SharedEstimationCache::load_or_recover(path)
                    .map_err(|e| EmxError::parse("cache.corrupt", e.to_string()).with_source(e))?;
                if let Some(recovery) = recovery {
                    eprintln!("emx-serve: warning: cache recovered: {recovery}");
                }
                cache
            }
            None => SharedEstimationCache::default(),
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                model: Arc::new(model),
                cache,
                addr,
                apps: emx_workloads::apps::all(),
                // Span events are kept only for the Chrome trace: they
                // grow with every request.
                obs: Arc::new(Mutex::new(if config.chrome_trace.is_some() {
                    Collector::new()
                } else {
                    Collector::metrics_only()
                })),
                shutdown: AtomicBool::new(false),
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                report: Mutex::new(None),
                config,
            }),
        })
    }

    /// The bound address (useful with an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves until a `POST /v1/shutdown` arrives, then drains in-flight
    /// work, flushes the cache, and returns the run's summary.
    ///
    /// # Errors
    ///
    /// Only shutdown-path failures (final cache flush, trace write);
    /// per-connection and per-request failures are answered on the wire
    /// and counted, never returned.
    pub fn run(self) -> Result<ServeSummary, EmxError> {
        let shared = &*self.shared;
        let workers = resolve_workers(shared.config.workers);
        let mut batcher = Batcher::spawn(
            Arc::clone(&shared.model),
            shared.cache.clone(),
            shared.config.cache_path.clone(),
            shared.config.batch.clone(),
            Arc::clone(&shared.obs),
        );

        std::thread::scope(|s| {
            let batcher = &batcher;
            for k in 0..workers {
                s.spawn(move || {
                    while let Some(conn) = pop_connection(shared) {
                        if let Some(idle) = serve_connection(k as u32, conn, shared, batcher) {
                            requeue_connection(idle, shared);
                        }
                    }
                });
            }

            for stream in self.listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                enqueue_connection(stream, shared);
            }
            // Wake every worker blocked on an empty queue.
            shared.queue_cv.notify_all();
        });
        batcher.drain();

        if let Some(path) = &shared.config.cache_path {
            shared
                .cache
                .save(path)
                .map_err(|e| EmxError::new(emx_core::ErrorKind::Io, "io.file", e.to_string()))?;
        }
        let obs = lock_recovering(&shared.obs);
        if let Some(path) = &shared.config.chrome_trace {
            let mut text = ChromeTraceWriter::new("emx-serve").to_string(&obs);
            text.push('\n');
            std::fs::write(path, text).map_err(|e| EmxError::io(path, &e))?;
        }
        Ok(ServeSummary {
            requests: obs.counter("serve.requests") as u64,
            errors: obs.counter("serve.errors") as u64,
            connections: obs.counter("serve.connections") as u64,
            batches: obs.counter("serve.batches") as u64,
            cache_entries: shared.cache.len(),
        })
    }
}

/// 0 = one worker per core, capped at 8 (connection workers mostly wait
/// on the batcher; more lanes than cores buys nothing).
fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map_or(2, |n| n.get())
            .min(8)
    } else {
        workers
    }
}

/// Read-timeout window for worker reads. A worker blocked in a read on
/// an idle keep-alive connection cannot be interrupted when new work
/// arrives, so this window *is* the bound on how long queued work waits
/// behind an idle connection — with a small pool that bound is the
/// service's tail latency. 5 ms keeps it invisible next to request
/// latencies while an idle connection still costs its worker only a few
/// hundred timed-out reads per second.
const READ_POLL: Duration = Duration::from_millis(5);

/// Wall-clock budget for one request from its first byte: a slow but
/// live client gets 10 s, and a client that trickles bytes to dodge the
/// read timeout cannot pin its worker for longer.
const REQUEST_BUDGET: Duration = Duration::from_secs(10);

fn enqueue_connection(stream: TcpStream, shared: &Shared) {
    lock_recovering(&shared.obs).add("serve.connections", 1.0);
    // Short read timeouts keep idle keep-alive connections responsive to
    // shutdown (and requeueable) without a dedicated poll thread.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let conn = Conn {
        reader: std::io::BufReader::new(read_half),
        writer: stream,
    };
    let mut queue = lock_recovering(&shared.queue);
    if queue.len() >= shared.config.queue_depth {
        drop(queue);
        lock_recovering(&shared.obs).add("serve.rejected", 1.0);
        let mut conn = conn;
        let body =
            wire::error_envelope("serve.overloaded", "request queue is full; retry").to_string();
        let _ = http::write_response(&mut conn.writer, 503, body.as_bytes(), false);
        return;
    }
    queue.push_back(conn);
    drop(queue);
    shared.queue_cv.notify_one();
}

/// Puts an idle (but still open) connection back at the end of the
/// queue so the worker can serve whoever is waiting behind it. Bypasses
/// the depth limit: the connection is already accepted and answering it
/// `503` now would be a lie.
fn requeue_connection(conn: Conn, shared: &Shared) {
    let mut queue = lock_recovering(&shared.queue);
    queue.push_back(conn);
    drop(queue);
    shared.queue_cv.notify_one();
}

/// Pops the next pending connection, blocking until one arrives or the
/// service is shutting down *and* the queue is drained — queued
/// connections accepted before shutdown are still served.
fn pop_connection(shared: &Shared) -> Option<Conn> {
    let mut queue = lock_recovering(&shared.queue);
    loop {
        if let Some(stream) = queue.pop_front() {
            return Some(stream);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let (guard, _) = shared
            .queue_cv
            .wait_timeout(queue, Duration::from_millis(250))
            .unwrap_or_else(PoisonError::into_inner);
        queue = guard;
    }
}

/// Serves requests off one connection until it goes idle, closes, or
/// fails. Returns `Some(conn)` when the connection is merely idle and
/// should be requeued for fairness; `None` when it is finished.
fn serve_connection(lane: u32, conn: Conn, shared: &Shared, batcher: &Batcher) -> Option<Conn> {
    let Conn {
        mut reader,
        mut writer,
    } = conn;

    let _ = reader.get_ref().set_read_timeout(Some(READ_POLL));

    loop {
        match http::read_request(&mut reader, &shared.config.limits, REQUEST_BUDGET) {
            Ok(request) => {
                let mut local = lock_recovering(&shared.obs).fork();
                let span = local.begin_on(
                    format!("{} {}", request.method, request.target),
                    Track::Request(lane),
                );
                let started = Instant::now();
                let outcome = route(&request, shared, batcher, &mut local);
                local.end(span);
                let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                local.record("serve.latency_us", elapsed);
                local.add("serve.requests", 1.0);
                let (status, body) = match outcome {
                    Ok((kind, result)) => (200, wire::ok_envelope(kind, result)),
                    Err(e) => {
                        local.add("serve.errors", 1.0);
                        (e.status, wire::error_envelope(e.code, &e.message))
                    }
                };
                lock_recovering(&shared.obs).absorb(local);
                let keep = !shared.shutdown.load(Ordering::SeqCst);
                let body = body.to_string();
                if http::write_response(&mut writer, status, body.as_bytes(), keep).is_err() {
                    return None;
                }
                if !keep {
                    return None;
                }
            }
            Err(FrameError::Closed) => return None,
            Err(FrameError::IdleTimeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return None;
                }
                // Idle, not broken. Hand it back only when someone is
                // actually waiting — requeueing to an empty queue would
                // just churn — otherwise keep listening; queued work
                // arriving later is noticed within one poll window.
                if !lock_recovering(&shared.queue).is_empty() {
                    return Some(Conn { reader, writer });
                }
            }
            Err(e) => {
                // Framing failed: the byte stream can no longer be
                // trusted, so answer with a typed document and close —
                // never drop the connection silently.
                lock_recovering(&shared.obs).add("serve.errors", 1.0);
                if e.responds() {
                    let body = wire::error_envelope(e.code(), &e.to_string()).to_string();
                    let _ = http::write_response(&mut writer, e.status(), body.as_bytes(), false);
                }
                return None;
            }
        }
    }
}

/// Routes one request to its handler. `Ok` carries the response kind
/// and result document; `Err` becomes a typed error envelope.
fn route(
    request: &Request,
    shared: &Shared,
    batcher: &Batcher,
    obs: &mut Collector,
) -> Result<(&'static str, Value), WireError> {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => {
            let mut result = Value::object();
            result.set("ok", true);
            Ok(("health", result))
        }
        ("GET", "/v1/stats") => Ok(("stats", stats_document(shared))),
        ("POST", "/v1/estimate") => match wire::parse_request(&request.body)? {
            ServeRequest::Estimate { app, program, tie } => estimate(
                shared,
                batcher,
                app.as_deref(),
                program.as_deref(),
                tie.as_deref(),
            ),
            _ => Err(WireError::new(
                400,
                "serve.kind_mismatch",
                "/v1/estimate only accepts `estimate` requests",
            )),
        },
        ("POST", "/v1/dse") => match wire::parse_request(&request.body)? {
            ServeRequest::Dse { workload, budget } => dse(shared, &workload, budget, obs),
            _ => Err(WireError::new(
                400,
                "serve.kind_mismatch",
                "/v1/dse only accepts `dse` requests",
            )),
        },
        ("GET" | "POST", "/v1/characterize-report") => characterize_report(shared, obs),
        ("POST", "/v1/shutdown") => {
            initiate_shutdown(shared);
            let mut result = Value::object();
            result.set("draining", true);
            Ok(("shutdown", result))
        }
        (
            _,
            "/healthz"
            | "/v1/stats"
            | "/v1/estimate"
            | "/v1/dse"
            | "/v1/characterize-report"
            | "/v1/shutdown",
        ) => Err(WireError::new(
            405,
            "serve.method_not_allowed",
            format!("method {} is not supported here", request.method),
        )),
        (_, target) => Err(WireError::new(
            404,
            "serve.not_found",
            format!("no such endpoint `{target}`"),
        )),
    }
}

fn estimate(
    shared: &Shared,
    batcher: &Batcher,
    app: Option<&str>,
    program: Option<&str>,
    tie: Option<&str>,
) -> Result<(&'static str, Value), WireError> {
    let (name, workload) = match (app, program) {
        (Some(app), _) => {
            let workload = shared
                .apps
                .iter()
                .find(|w| w.name() == app)
                .cloned()
                .ok_or_else(|| {
                    WireError::new(
                        422,
                        "serve.unknown_app",
                        format!(
                            "unknown application `{app}` (available: {})",
                            shared
                                .apps
                                .iter()
                                .map(Workload::name)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )
                })?;
            (app.to_owned(), workload)
        }
        (None, Some(source)) => {
            let ext = match tie {
                Some(tie_source) => parse_extension(tie_source).map_err(|e| {
                    WireError::new(422, "parse.tie", format!("inline tie source: {e}"))
                })?,
                None => ExtensionSet::empty(),
            };
            let workload = Workload::try_assemble("inline", "inline request", ext, source, vec![])
                .map_err(|e| WireError::new(422, "parse.asm", format!("inline program: {e}")))?;
            ("inline".to_owned(), workload)
        }
        (None, None) => unreachable!("parse_request enforces app xor program"),
    };

    let candidate = EnumeratedCandidate {
        name: name.clone(),
        mask: 0,
        options: vec![],
        area: 0.0,
        workload,
    };
    let reply = batcher.submit(candidate);
    let point = reply.recv_timeout(Duration::from_secs(120)).map_err(|_| {
        WireError::new(
            500,
            "serve.batch_lost",
            "the evaluation batch did not answer in time",
        )
    })??;
    Ok((
        "estimate",
        wire::estimate_result(&name, point.energy_pj, point.cycles),
    ))
}

fn dse(
    shared: &Shared,
    workload: &str,
    budget: Option<f64>,
    obs: &mut Collector,
) -> Result<(&'static str, Value), WireError> {
    let space = CandidateSpace::by_name(workload).ok_or_else(|| {
        WireError::new(
            422,
            "serve.unknown_space",
            format!(
                "unknown candidate space `{workload}` (available: {})",
                CandidateSpace::names().join(", ")
            ),
        )
    })?;
    let exploration = {
        let mut cache = shared.cache.lock();
        emx_dse::explore(
            &shared.model,
            &space,
            budget,
            &ProcConfig::default(),
            shared.config.batch.jobs,
            &mut cache,
            obs,
        )
        .map_err(|e| WireError::new(422, "serve.dse_failed", format!("{e} [{}]", e.code())))?
    };
    if let Some(path) = &shared.config.cache_path {
        let _ = shared.cache.save(path);
    }
    let options: Vec<(String, f64)> = space
        .options()
        .iter()
        .map(|o| (o.name.clone(), o.area()))
        .collect();
    Ok(("dse", emx_dse::report::to_json(&exploration, &options)))
}

fn characterize_report(
    shared: &Shared,
    obs: &mut Collector,
) -> Result<(&'static str, Value), WireError> {
    let mut memo = lock_recovering(&shared.report);
    if memo.is_none() {
        let workloads = match shared.config.characterize {
            CharacterizeMode::Full => suite::full_training_suite(),
            CharacterizeMode::Calibration => suite::calibration_programs(),
        };
        let cases = suite::training_cases(&workloads);
        let outcome = Characterizer::new(ProcConfig::default())
            .characterize_instrumented(&cases, obs)
            .map(|(_, report)| report.to_json())
            .map_err(|e| {
                let e = EmxError::from(e);
                WireError::new(500, e.code(), e.message().to_owned())
            });
        *memo = Some(outcome);
    }
    match memo.as_ref().expect("memo was just populated") {
        Ok(doc) => Ok(("characterize-report", doc.clone())),
        Err(e) => Err(e.clone()),
    }
}

/// Counters, histogram summaries, and cache occupancy as a JSON result.
fn stats_document(shared: &Shared) -> Value {
    let obs = lock_recovering(&shared.obs);
    let mut counters = Value::object();
    for (name, value) in obs.counters() {
        counters.set(name, *value);
    }
    let mut histograms = Value::object();
    for (name, hist) in obs.histograms() {
        let mut summary = Value::object();
        summary.set("count", hist.count());
        summary.set("min", hist.min());
        summary.set("p50", hist.percentile(50.0));
        summary.set("p90", hist.percentile(90.0));
        summary.set("p99", hist.percentile(99.0));
        summary.set("max", hist.max());
        summary.set("mean", hist.mean());
        histograms.set(name, summary);
    }
    drop(obs);
    let mut result = Value::object();
    result.set("counters", counters);
    result.set("histograms", histograms);
    result.set("cache_entries", shared.cache.len() as u64);
    result
}

/// Flips the shutdown flag and wakes everything that might be blocked:
/// the accept loop (via a self-connection) and the queue condvar.
fn initiate_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.queue_cv.notify_all();
    // The listener blocks in accept(); a throwaway local connection gets
    // it to re-check the flag. Failure is harmless — the accept loop
    // also wakes on the next real connection.
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(250));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs 2 × 10 estimates against a server and returns how many span
    /// events its collector retained after each round of 10.
    fn retained_events(chrome_trace: Option<String>) -> [usize; 2] {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../model.txt"))
            .expect("committed model.txt at the repo root");
        let model = EnergyMacroModel::from_text(&text).expect("parse committed model");
        let config = ServeConfig {
            characterize: CharacterizeMode::Calibration,
            chrome_trace,
            ..ServeConfig::default()
        };
        let server = Server::bind(model, config).expect("bind ephemeral port");
        let shared = Arc::clone(&server.shared);
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().expect("clean shutdown"));

        let mut client = crate::HttpClient::new(addr.clone());
        let mut retained = [0; 2];
        for count in &mut retained {
            for _ in 0..10 {
                let (status, _) = client
                    .post_json("/v1/estimate", &wire::estimate_request("gcd"))
                    .expect("estimate");
                assert_eq!(status, 200);
            }
            *count = lock_recovering(&shared.obs).events().len();
        }
        crate::request_once(&addr, "POST", "/v1/shutdown", None).expect("shutdown");
        assert_eq!(handle.join().expect("server thread").requests, 21);
        retained
    }

    #[test]
    fn span_events_are_kept_only_for_a_chrome_trace() {
        assert_eq!(retained_events(None), [0, 0]);

        let path =
            std::env::temp_dir().join(format!("emx-serve-trace-{}.json", std::process::id()));
        let [first, second] = retained_events(Some(path.to_string_lossy().into_owned()));
        assert!(first > 0 && second > first, "{first} then {second}");
        let trace = std::fs::read_to_string(&path).expect("trace written at shutdown");
        let _ = std::fs::remove_file(&path);
        assert!(
            trace.contains("\"POST /v1/estimate\""),
            "request spans in the trace"
        );
        assert!(
            trace.contains("\"request-0\""),
            "request lanes in the trace"
        );
    }

    #[test]
    fn worker_resolution_caps_auto() {
        assert!(resolve_workers(0) >= 1);
        assert!(resolve_workers(0) <= 8);
        assert_eq!(resolve_workers(3), 3);
    }
}
