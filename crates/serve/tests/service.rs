//! End-to-end behaviour of the in-process service: response
//! determinism against the one-shot estimation path, typed
//! application-level errors, the DSE and characterize endpoints, cache
//! persistence across graceful restarts, and a loadgen round trip.

use std::sync::Arc;

use emx_core::EnergyMacroModel;
use emx_obs::json::Value;
use emx_serve::{
    request_once, wire, CharacterizeMode, HttpClient, LoadConfig, ServeConfig, ServeSummary, Server,
};
use emx_sim::ProcConfig;

fn test_model() -> EnergyMacroModel {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../model.txt"))
        .expect("committed model.txt at the repo root");
    EnergyMacroModel::from_text(&text).expect("parse committed model")
}

/// Unique temp path that cleans up after itself.
struct Scratch(String);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        Scratch(format!(
            "{}/emx-serve-test-{}-{tag}.json",
            std::env::temp_dir().display(),
            std::process::id()
        ))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        for suffix in ["", ".tmp", ".corrupt"] {
            let _ = std::fs::remove_file(format!("{}{suffix}", self.0));
        }
    }
}

fn start_with(config: ServeConfig) -> (String, std::thread::JoinHandle<ServeSummary>) {
    let server = Server::bind(test_model(), config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("clean shutdown"));
    (addr, handle)
}

fn start() -> (String, std::thread::JoinHandle<ServeSummary>) {
    start_with(ServeConfig {
        characterize: CharacterizeMode::Calibration,
        ..ServeConfig::default()
    })
}

fn stop(addr: &str, handle: std::thread::JoinHandle<ServeSummary>) -> ServeSummary {
    let response = request_once(addr, "POST", "/v1/shutdown", None).expect("shutdown request");
    assert_eq!(response.status, 200);
    handle.join().expect("server thread")
}

fn estimate_bytes(client: &mut HttpClient, body: &Value) -> (u16, Vec<u8>) {
    let text = body.to_string();
    let response = client
        .request("POST", "/v1/estimate", Some(text.as_bytes()))
        .expect("estimate request");
    (response.status, response.body)
}

#[test]
fn estimate_responses_are_byte_identical_to_the_one_shot_path() {
    let (addr, handle) = start();
    let mut client = HttpClient::new(&addr);

    let body = wire::estimate_request("gcd");
    let (status, cold) = estimate_bytes(&mut client, &body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&cold));
    let (status, warm) = estimate_bytes(&mut client, &body);
    assert_eq!(status, 200);
    assert_eq!(
        cold, warm,
        "a cache-warm response must be byte-identical to the cold one"
    );

    // The exact bytes the one-shot path produces for the same inputs,
    // through the same deterministic JSON writer.
    let model = Arc::new(test_model());
    let apps = emx_workloads::apps::all();
    let gcd = apps.iter().find(|w| w.name() == "gcd").unwrap();
    let direct = model
        .estimate(gcd.program(), gcd.ext(), ProcConfig::default())
        .unwrap();
    let expected = wire::ok_envelope(
        "estimate",
        wire::estimate_result(
            "gcd",
            direct.energy.as_picojoules(),
            direct.stats.total_cycles,
        ),
    )
    .to_string();
    assert_eq!(
        String::from_utf8_lossy(&cold),
        expected,
        "service response must match the one-shot estimate byte for byte"
    );

    stop(&addr, handle);
}

#[test]
fn inline_programs_estimate_and_bad_inputs_get_typed_errors() {
    let (addr, handle) = start();
    let mut client = HttpClient::new(&addr);

    let mut body = Value::object();
    body.set("schema", "emx.serve-request/1");
    body.set("kind", "estimate");
    body.set(
        "program",
        ".text\nmovi a2, 3\nloop:\naddi a2, a2, -1\nbnez a2, loop\nhalt",
    );
    let (status, doc) = client.post_json("/v1/estimate", &body).unwrap();
    assert_eq!(status, 200, "{doc}");
    let result = doc.get("result").expect("result document");
    assert_eq!(
        result.get("workload").and_then(Value::as_str),
        Some("inline")
    );
    assert!(result.get("energy_pj").and_then(Value::as_f64).unwrap() > 0.0);
    assert!(result.get("cycles").and_then(Value::as_u64).unwrap() > 0);

    let error_code = |doc: &Value| {
        doc.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .map(str::to_owned)
            .unwrap_or_else(|| panic!("no error code in {doc}"))
    };

    // Bad assembly: a typed input error, not a dead worker.
    let mut bad = Value::object();
    bad.set("schema", "emx.serve-request/1");
    bad.set("kind", "estimate");
    bad.set("program", "not an instruction at all");
    let (status, doc) = client.post_json("/v1/estimate", &bad).unwrap();
    assert_eq!(status, 422, "{doc}");
    assert_eq!(error_code(&doc), "parse.asm");

    let (status, doc) = client
        .post_json("/v1/estimate", &wire::estimate_request("no_such_app"))
        .unwrap();
    assert_eq!(status, 422);
    assert_eq!(error_code(&doc), "serve.unknown_app");

    // An estimate body on the DSE endpoint: kind mismatch.
    let (status, doc) = client
        .post_json("/v1/dse", &wire::estimate_request("gcd"))
        .unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_code(&doc), "serve.kind_mismatch");

    // The server survived all of that.
    let (status, doc) = client.post_json("/v1/estimate", &body).unwrap();
    assert_eq!(status, 200, "{doc}");

    stop(&addr, handle);
}

/// A body nested far deeper than any `emx.*` document is a typed 400,
/// not a stack overflow that takes the whole server down.
#[test]
fn deeply_nested_body_is_a_typed_error_and_the_server_survives() {
    let (addr, handle) = start();
    let mut client = HttpClient::new(&addr);

    let body = vec![b'['; 64 * 1024];
    let response = client
        .request("POST", "/v1/estimate", Some(&body))
        .expect("estimate request");
    assert_eq!(response.status, 400);
    let doc = Value::parse(std::str::from_utf8(&response.body).unwrap()).expect("JSON envelope");
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("serve.bad_json"),
        "{doc}"
    );

    let response = HttpClient::new(&addr)
        .request("GET", "/healthz", None)
        .expect("healthz after the deep body");
    assert_eq!(response.status, 200);

    stop(&addr, handle);
}

#[test]
fn dse_endpoint_runs_a_budgeted_search() {
    let (addr, handle) = start();
    let mut client = HttpClient::new(&addr);

    // Budget 0: only the zero-area base candidate survives enumeration,
    // which keeps this an endpoint test rather than a full search.
    let mut body = Value::object();
    body.set("schema", "emx.serve-request/1");
    body.set("kind", "dse");
    body.set("workload", "reed-solomon");
    body.set("budget", 0.0);
    let (status, doc) = client.post_json("/v1/dse", &body).unwrap();
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("dse"));
    let result = doc.get("result").expect("result document");
    assert_eq!(
        result.get("schema").and_then(Value::as_str),
        Some("emx.dse-report/1")
    );

    let mut unknown = Value::object();
    unknown.set("schema", "emx.serve-request/1");
    unknown.set("kind", "dse");
    unknown.set("workload", "no-such-space");
    let (status, doc) = client.post_json("/v1/dse", &unknown).unwrap();
    assert_eq!(status, 422);
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("serve.unknown_space")
    );

    stop(&addr, handle);
}

#[test]
fn characterize_report_endpoint_answers_and_memoizes() {
    let (addr, handle) = start();
    let mut client = HttpClient::new(&addr);

    // Calibration mode runs the small single-event suite, which is
    // deliberately too small to determine all coefficients — the
    // endpoint must surface that as a typed error, not a hang or crash.
    // (Full mode returns the real report; that path is exercised by the
    // one-shot emx-characterize tests.)
    let first = client
        .request("GET", "/v1/characterize-report", None)
        .unwrap();
    let second = client
        .request("GET", "/v1/characterize-report", None)
        .unwrap();
    assert_eq!(first.status, second.status);
    assert_eq!(
        first.body, second.body,
        "the memoized report must not change between requests"
    );
    let doc = first.json().unwrap();
    match first.status {
        200 => assert_eq!(
            doc.get("result")
                .and_then(|r| r.get("schema"))
                .and_then(Value::as_str),
            Some("emx.characterize-report/1"),
            "{doc}"
        ),
        500 => assert!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .is_some(),
            "{doc}"
        ),
        other => panic!("unexpected status {other}: {doc}"),
    }

    stop(&addr, handle);
}

#[test]
fn stats_endpoint_reports_counters_and_histograms() {
    let (addr, handle) = start();
    let mut client = HttpClient::new(&addr);

    let (status, _) = client
        .post_json("/v1/estimate", &wire::estimate_request("gcd"))
        .unwrap();
    assert_eq!(status, 200);

    let response = client.request("GET", "/v1/stats", None).unwrap();
    assert_eq!(response.status, 200);
    let doc = response.json().unwrap();
    let result = doc.get("result").expect("result document");
    let counters = result.get("counters").expect("counters object");
    assert!(
        counters
            .get("serve.requests")
            .and_then(Value::as_f64)
            .unwrap()
            >= 1.0
    );
    assert!(
        counters
            .get("serve.batches")
            .and_then(Value::as_f64)
            .unwrap()
            >= 1.0
    );
    let latency = result
        .get("histograms")
        .and_then(|h| h.get("serve.latency_us"))
        .expect("latency histogram");
    assert!(latency.get("count").and_then(Value::as_u64).unwrap() >= 1);
    assert!(result.get("cache_entries").and_then(Value::as_u64).unwrap() >= 1);

    stop(&addr, handle);
}

#[test]
fn cache_persists_across_graceful_restart_with_identical_answers() {
    let scratch = Scratch::new("restart-cache");
    let config = || ServeConfig {
        characterize: CharacterizeMode::Calibration,
        cache_path: Some(scratch.0.clone()),
        ..ServeConfig::default()
    };

    let (addr, handle) = start_with(config());
    let mut client = HttpClient::new(&addr);
    let body = wire::estimate_request("ins_sort");
    let (status, first) = estimate_bytes(&mut client, &body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&first));
    drop(client);
    let summary = stop(&addr, handle);
    assert!(summary.cache_entries >= 1);
    assert!(
        std::path::Path::new(&scratch.0).exists(),
        "graceful shutdown must leave the persisted cache behind"
    );

    // Fresh process-equivalent: a new server over the same cache file
    // answers from the warm cache, byte-identically.
    let (addr, handle) = start_with(config());
    let mut client = HttpClient::new(&addr);
    let (status, warm) = estimate_bytes(&mut client, &body);
    assert_eq!(status, 200);
    assert_eq!(
        first, warm,
        "a restarted server must answer from the persisted cache with identical bytes"
    );
    stop(&addr, handle);
}

#[test]
fn idle_keepalive_connection_does_not_add_poll_latency_to_others() {
    // Regression test for the requeued-idle-connection tail: with one
    // worker, an idle keep-alive client used to pin the worker in a
    // fixed 250 ms read, so every request on another connection could
    // queue for up to 250 ms behind it. The worker must instead notice
    // queued work within one short poll window (~5 ms).
    let (addr, handle) = start_with(ServeConfig {
        characterize: CharacterizeMode::Calibration,
        workers: 1,
        ..ServeConfig::default()
    });

    // The idle client: connects, proves the server is warm with one
    // request, then goes quiet while holding its connection open.
    let mut idle = HttpClient::new(&addr);
    let response = idle.request("GET", "/healthz", None).expect("warm-up");
    assert_eq!(response.status, 200);

    // The active client: sequential requests on a second connection,
    // each of which contends with the idle connection for the worker.
    let mut active = HttpClient::new(&addr);
    let mut worst = std::time::Duration::ZERO;
    for _ in 0..30 {
        let started = std::time::Instant::now();
        let response = active.request("GET", "/healthz", None).expect("request");
        assert_eq!(response.status, 200);
        worst = worst.max(started.elapsed());
    }

    // Each request needs at most a couple of poll windows (one for the
    // worker to abandon the idle connection, one to pick this one up)
    // plus routing time. 100 ms leaves ample scheduler headroom on a
    // loaded machine while still failing clearly against a 250 ms poll.
    assert!(
        worst < std::time::Duration::from_millis(100),
        "worst request latency {worst:?} behind an idle keep-alive \
         connection; the worker is sleeping through queued work"
    );

    drop(idle);
    stop(&addr, handle);
}

#[test]
fn load_generator_round_trip_is_error_free() {
    let (addr, handle) = start();

    let report = emx_serve::run_load(&LoadConfig {
        addr: addr.clone(),
        concurrency: 3,
        duration_ms: 300,
        apps: vec!["gcd".to_owned(), "ins_sort".to_owned()],
        shutdown_after: true,
    })
    .expect("load run");
    emx_serve::loadgen::validate_report(&report).expect("well-formed report");
    assert_eq!(
        report.get("errors").and_then(Value::as_u64),
        Some(0),
        "{report}"
    );
    assert!(report.get("requests").and_then(Value::as_u64).unwrap() > 0);
    assert!(
        report
            .get("latency_us")
            .unwrap()
            .get("p99")
            .and_then(Value::as_u64)
            >= report
                .get("latency_us")
                .unwrap()
                .get("p50")
                .and_then(Value::as_u64)
    );

    // --shutdown drained the server; run() returns without another POST.
    let summary = handle.join().expect("server thread");
    assert!(summary.requests > 0);
    assert!(summary.batches >= 1);
}
