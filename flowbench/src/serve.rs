//! `serve`: an in-process `emx-serve` with two workers, driven by two
//! keep-alive connections sending `/v1/estimate` in closed loop.
//!
//! Traffic comes in rounds. A round names each Table II application
//! once, in an order drawn from the seed, and slips in one inline
//! program at a seeded position. Applications are cache hits after
//! set-up; every inline program is new to the server, so it is a cache
//! miss that costs one ISS pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

use emx_core::{EmxError, EnergyMacroModel};
use emx_dse::{evaluate_batch, EnumeratedCandidate, EstimationCache};
use emx_obs::json::Value;
use emx_obs::Collector;
use emx_serve::{request_once, BatchConfig, HttpClient, ServeConfig, ServeSummary, Server};
use emx_sim::ProcConfig;
use emx_tie::ExtensionSet;
use emx_workloads::{apps, Workload};

use crate::flows::{report_failure, Base, Phase};
use crate::measure::{median, ms_since, process_cpu_s, Rng, Tracer};

/// Connections, each one client thread in closed loop.
const CLIENTS: u32 = 2;
/// Server connection workers.
const WORKERS: usize = 2;
/// Batch evaluation threads.
const JOBS: usize = 2;

/// The request schema `emx-serve` speaks.
const REQUEST_SCHEMA: &str = "emx.serve-request/1";

pub struct Setup {
    addr: String,
    server: Option<JoinHandle<Result<ServeSummary, EmxError>>>,
    model: EnergyMacroModel,
    apps: Vec<Workload>,
    /// One-shot `EnergyMacroModel::estimate` of each app: (pJ, cycles).
    direct: Vec<(f64, u64)>,
    /// Inline programs handed out so far; each gets a fresh id.
    next_inline: AtomicU64,
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        batch: BatchConfig {
            jobs: JOBS,
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn direct_estimate(model: &EnergyMacroModel, w: &Workload) -> Result<(f64, u64), String> {
    let e = model
        .estimate(w.program(), w.ext(), ProcConfig::default())
        .map_err(|e| format!("{}: {e}", w.name()))?;
    Ok((e.energy.as_picojoules(), e.stats.total_cycles))
}

/// Starts the server, computes the direct estimates, and sends every
/// application once so later app requests are cache hits.
pub fn setup(base: &Base) -> Result<Setup, String> {
    let server = Server::bind(base.model.clone(), config()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let apps = apps::all();
    let direct = apps
        .iter()
        .map(|w| direct_estimate(&base.model, w))
        .collect::<Result<Vec<_>, _>>();
    let mut setup = Setup {
        addr,
        server: Some(handle),
        model: base.model.clone(),
        apps,
        direct: Vec::new(),
        next_inline: AtomicU64::new(0),
    };
    // From here on, a failure must still stop the server.
    let warmed = direct.and_then(|direct| {
        setup.direct = direct;
        let mut client = HttpClient::new(setup.addr.clone());
        for i in 0..setup.apps.len() {
            let body = app_request(setup.apps[i].name()).to_string();
            let answer = send(&mut client, &body)?;
            check_answer(&answer, setup.apps[i].name(), setup.direct[i])?;
        }
        Ok(())
    });
    match warmed {
        Ok(()) => Ok(setup),
        Err(e) => {
            let _ = teardown(setup);
            Err(e)
        }
    }
}

/// Shuts the server down and waits for it to end.
pub fn teardown(mut setup: Setup) -> Result<(), String> {
    let reply = request_once(&setup.addr, "POST", "/v1/shutdown", None);
    let joined = match setup.server.take() {
        Some(handle) => handle
            .join()
            .map_err(|_| "the server thread panicked".to_owned())?,
        None => return Ok(()),
    };
    reply.map_err(|e| format!("shutdown: {e}"))?;
    joined.map(|_| ()).map_err(|e| format!("server: {e}"))
}

fn app_request(app: &str) -> Value {
    let mut doc = Value::object();
    doc.set("schema", REQUEST_SCHEMA);
    doc.set("kind", "estimate");
    doc.set("app", app);
    doc
}

fn inline_request(source: &str) -> Value {
    let mut doc = Value::object();
    doc.set("schema", REQUEST_SCHEMA);
    doc.set("kind", "estimate");
    doc.set("program", source);
    doc
}

/// A base-ISA loop whose trip count and constants come from `rng`; the
/// `id` immediate makes every program distinct, hence a cache miss that
/// costs one ISS pass of 12k–18k instructions.
fn inline_program(rng: &mut Rng, id: u64) -> String {
    let trips = rng.range(2_000, 3_000);
    let (k1, k2) = (rng.range(1, 30000), rng.range(1, 30000));
    format!(
        "movi a2, {trips}\nmovi a3, {k1}\nmovi a4, {k2}\nmovi a5, {id}\n\
         l: add a3, a3, a2\nxor a4, a4, a3\nmul a6, a4, a5\nadd a7, a7, a6\n\
         addi a2, a2, -1\nbnez a2, l\nhalt\n"
    )
}

/// The `result` of an ok estimate envelope, or why there is none.
struct Answer {
    workload: String,
    energy_pj: f64,
    cycles: u64,
}

fn send(client: &mut HttpClient, body: &str) -> Result<Answer, String> {
    let response = client
        .request("POST", "/v1/estimate", Some(body.as_bytes()))
        .map_err(|e| format!("request: {e}"))?;
    let doc = response.json().map_err(|e| format!("response: {e}"))?;
    answer(response.status, &doc)
}

fn answer(status: u16, doc: &Value) -> Result<Answer, String> {
    if status != 200 || doc.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("status {status}: {doc}"));
    }
    let result = doc.get("result").ok_or("envelope without a result")?;
    Ok(Answer {
        workload: result
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned(),
        energy_pj: result
            .get("energy_pj")
            .and_then(Value::as_f64)
            .ok_or("result without energy_pj")?,
        cycles: result
            .get("cycles")
            .and_then(Value::as_u64)
            .ok_or("result without cycles")?,
    })
}

fn check_answer(answer: &Answer, name: &str, direct: (f64, u64)) -> Result<(), String> {
    if answer.workload != name || (answer.energy_pj, answer.cycles) != direct {
        return Err(format!(
            "{name}: served ({} pJ, {} cycles) for `{}`, direct estimate ({} pJ, {} cycles)",
            answer.energy_pj, answer.cycles, answer.workload, direct.0, direct.1
        ));
    }
    Ok(())
}

/// An inline program the server answered, checked after the timed phase.
struct Served {
    source: String,
    energy_pj: f64,
    cycles: u64,
}

/// One client connection in closed loop for `seconds`, in whole rounds.
fn client_loop(
    setup: &Setup,
    rng: &mut Rng,
    tr: &mut Tracer,
    seconds: f64,
    inline: &Mutex<Vec<Served>>,
) -> Phase {
    let mut phase = Phase::default();
    let mut client = HttpClient::new(setup.addr.clone());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let mut order: Vec<Option<usize>> = (0..setup.apps.len()).map(Some).collect();
        rng.shuffle(&mut order);
        let at = rng.range(0, order.len() as u64) as usize;
        order.insert(at, None);
        for slot in order {
            let (doc, source) = match slot {
                Some(i) => (app_request(setup.apps[i].name()), None),
                None => {
                    let id = setup.next_inline.fetch_add(1, Ordering::Relaxed) + 1;
                    let source = inline_program(rng, id);
                    (inline_request(&source), Some(source))
                }
            };
            tr.begin_op("serve.estimate");
            let op_start = Instant::now();
            let body = tr.layer("serve.request_encode_ms", || doc.to_string());
            let response = tr.layer("serve.roundtrip_ms", || {
                client.request("POST", "/v1/estimate", Some(body.as_bytes()))
            });
            let parsed = tr.layer("serve.response_decode_ms", || {
                response.map(|r| (r.status, r.json()))
            });
            let ms = ms_since(op_start);
            tr.end_op(ms);
            phase.attempted += 1;
            let verdict = match parsed {
                Ok((status, Ok(doc))) => answer(status, &doc),
                Ok((_, Err(e))) | Err(e) => Err(e.to_string()),
            }
            .and_then(|a| match (slot, source) {
                (Some(i), _) => check_answer(&a, setup.apps[i].name(), setup.direct[i]),
                (None, Some(source)) => {
                    inline
                        .lock()
                        .expect("no client panics while holding the inline log")
                        .push(Served {
                            source,
                            energy_pj: a.energy_pj,
                            cycles: a.cycles,
                        });
                    Ok(())
                }
                (None, None) => unreachable!("inline slots carry their source"),
            });
            match verdict {
                Ok(()) => phase.samples_ms.push(ms),
                Err(e) => {
                    phase.failed += 1;
                    report_failure(phase.failed, &e);
                }
            }
        }
    }
    phase
}

/// Runs both clients for `seconds` and then checks every inline answer
/// against a direct estimate of the same program.
pub fn timed(setup: &Setup, rngs: &mut [Rng], tr: &mut Tracer, seconds: f64) -> Phase {
    let inline = Mutex::new(Vec::new());
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let mut children: Vec<Tracer> = (0..CLIENTS).map(|lane| tr.child(lane)).collect();
    let phases: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = children
            .iter_mut()
            .zip(rngs.iter_mut())
            .map(|(child, rng)| {
                let inline = &inline;
                s.spawn(move || client_loop(setup, rng, child, seconds, inline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    for child in children {
        tr.absorb(child);
    }
    let mut total = Phase::default();
    for phase in phases {
        total.merge(phase);
    }
    total.wall_s = wall_s;
    total.cpu_s = cpu_s;

    let served = inline
        .into_inner()
        .expect("no client panics while holding the inline log");
    for s in &served {
        let verdict =
            Workload::try_assemble("inline", "", ExtensionSet::empty(), &s.source, vec![])
                .map_err(|e| e.to_string())
                .and_then(|w| direct_estimate(&setup.model, &w))
                .and_then(|direct| {
                    let answer = Answer {
                        workload: "inline".to_owned(),
                        energy_pj: s.energy_pj,
                        cycles: s.cycles,
                    };
                    check_answer(&answer, "inline", direct)
                });
        if let Err(e) = verdict {
            total.failed += 1;
            report_failure(total.failed, &e);
        }
    }
    total
}

/// One seeded generator per client.
pub fn client_rngs(seed: u64) -> Vec<Rng> {
    (0..CLIENTS)
        .map(|lane| Rng::new(seed.wrapping_mul(0x100).wrapping_add(u64::from(lane))))
        .collect()
}

/// Counters and the latency histogram from `GET /v1/stats`.
pub struct Stats {
    doc: Value,
}

impl Stats {
    pub fn fetch(setup: &Setup) -> Result<Stats, String> {
        let response = request_once(&setup.addr, "GET", "/v1/stats", None)
            .map_err(|e| format!("stats: {e}"))?;
        let doc = response.json().map_err(|e| format!("stats: {e}"))?;
        let doc = doc
            .get("result")
            .cloned()
            .ok_or("stats envelope without a result")?;
        Ok(Stats { doc })
    }

    fn counter(&self, name: &str) -> f64 {
        self.doc
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }

    fn latency_p50_us(&self) -> f64 {
        self.doc
            .get("histograms")
            .and_then(|h| h.get("serve.latency_us"))
            .and_then(|h| h.get("p50"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }
}

/// Server-side figures of a traced phase of `requests` estimates.
pub fn record_stats(tr: &mut Tracer, before: &Stats, after: &Stats, requests: u64) {
    let batches = after.counter("serve.batches") - before.counter("serve.batches");
    tr.add("serve.batches", batches);
    tr.add("serve.batch_size", requests as f64 / batches.max(1.0));
    tr.add("serve.server_p50_ms", after.latency_p50_us() / 1e3);
    tr.add(
        "serve.cache_misses",
        after.counter("dse.cache.misses") - before.counter("dse.cache.misses"),
    );
}

/// The work behind one request, called in-process: pricing a cached
/// application (a hit) and simulating a fresh inline program (a miss),
/// each through the same `evaluate_batch` the server's batcher calls.
pub fn probe_direct(tr: &mut Tracer, setup: &Setup, rng: &mut Rng) -> Result<(), String> {
    let config = ProcConfig::default();
    let candidate = |w: Workload| EnumeratedCandidate {
        name: w.name().to_owned(),
        mask: 0,
        options: vec![],
        area: 0.0,
        workload: w,
    };
    let apps: Vec<EnumeratedCandidate> = setup.apps.iter().cloned().map(candidate).collect();
    let mut cache = EstimationCache::new();
    let mut obs = Collector::disabled();
    evaluate_batch(&setup.model, &apps, &config, JOBS, &mut cache, &mut obs);

    let mut hits_us = Vec::new();
    for round in 0..50 {
        for app in &apps {
            let start = Instant::now();
            let out = evaluate_batch(
                &setup.model,
                std::slice::from_ref(app),
                &config,
                JOBS,
                &mut cache,
                &mut obs,
            );
            hits_us.push(ms_since(start) * 1e3);
            if out.reused != 1 {
                return Err(format!(
                    "probe round {round}: {} was not a cache hit",
                    app.name
                ));
            }
        }
    }
    let mut misses_ms = Vec::new();
    for i in 0..20 {
        let source = inline_program(rng, 30_000 + i);
        let w = Workload::try_assemble("inline", "", ExtensionSet::empty(), &source, vec![])
            .map_err(|e| e.to_string())?;
        let batch = [candidate(w)];
        let start = Instant::now();
        let out = evaluate_batch(&setup.model, &batch, &config, JOBS, &mut cache, &mut obs);
        misses_ms.push(ms_since(start));
        if out.evaluated != 1 {
            return Err("probe: an inline program was not a cache miss".to_owned());
        }
    }
    tr.add("serve.direct_hit_us", median(&hits_us));
    tr.add("serve.direct_miss_ms", median(&misses_ms));
    Ok(())
}
