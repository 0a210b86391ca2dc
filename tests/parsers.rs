//! Parser robustness: every `emx.*` document reader, the HTTP framer in
//! front of the service's wire reader, and the TIE-language front end
//! answer mutated input with a typed error and never panic.
//!
//! Each reader starts from a valid seed document, taken from its own
//! writer or from a committed artifact. Every case mutates the seed in
//! one of four ways: a truncation, a few byte flips, one value swapped
//! for a value of another type (for TIE source, one number swapped for
//! an out-of-range number or a name), or a run of `[` deep enough to
//! overflow a stack without the JSON nesting cap. The input must then either
//! parse or come back as an `Err`; a panic fails the test and names
//! the reader, the mutation and the case. The generator is seeded and
//! the case count is fixed, so a failure reproduces exactly.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use emx::coverage::{
    CoverageAnalysis, Gap, GapKind, PairCorrelation, Thresholds, VariableExcitation,
};
use emx::discover::mine::{Funnel, MineConfig};
use emx::discover::report::{Candidate, Report, Site};
use emx::dse::report::{ReportCandidate, ReportFailure};
use emx::dse::{CacheEntry, EstimationCache, ShardReport, ShardSpec};
use emx::isa::DynClass;
use emx::obs::json::Value;
use emx::obs::Histogram;
use emx::serve::http::{read_request, Limits};
use emx::serve::wire;
use emx::sim::{ExecStats, Phase, PhaseProfile, PhaseRecorder};
use emx::tie::lang::parse_extension;
use emx_bench::report::BenchReport;
use proptest::test_runner::TestRng;

/// Generator seed; change it to explore other mutations.
const SEED: u64 = 0x5eed_0016;
/// Cases per reader and mutation kind.
const CASES: usize = 150;

/// A reader under test: its name, a valid seed and the call itself,
/// reduced to "parsed" (`Ok`) or "refused" (`Err`).
struct Reader {
    name: &'static str,
    seed: Vec<u8>,
    read: fn(&[u8]) -> Result<(), String>,
}

/// Text readers take `&str`; mutated bytes that are not UTF-8 are read
/// lossily, as a file read with `read_to_string` would have refused them.
fn text(bytes: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(bytes)
}

fn value(bytes: &[u8]) -> Result<Value, String> {
    Value::parse(&text(bytes)).map_err(|e| e.to_string())
}

fn stats() -> ExecStats {
    let mut s = ExecStats::new(2);
    s.inst_count = 1234;
    s.total_cycles = 5678;
    s.class_counts[DynClass::Load.index()] = 100;
    s.class_cycles[DynClass::Load.index()] = 250;
    s.custom_counts = vec![3, 9];
    s.struct_activity[0] = 1.5;
    s.opcode_cycles[emx::isa::Opcode::ALL[0].index()] = 42;
    s
}

fn histogram() -> Histogram {
    let mut h = Histogram::new();
    for v in [0u64, 3, 900, 65_536, u64::MAX] {
        h.record(v);
    }
    h
}

fn cache() -> EstimationCache {
    let mut cache = EstimationCache::new();
    cache.insert(7, CacheEntry { stats: stats() });
    cache.insert(
        0xdead_beef,
        CacheEntry {
            stats: ExecStats::new(0),
        },
    );
    cache
}

fn discover_report() -> Report {
    Report {
        workload: "reed_solomon_rs1".to_owned(),
        config: MineConfig::default(),
        max_cycles: 1_000_000,
        funnel: Funnel {
            blocks: 7,
            enumerated: 100,
            ..Funnel::default()
        },
        legal: 79,
        candidates: vec![Candidate {
            name: "ci1".to_owned(),
            tie: "extension ci1 { inst ci1(g0: gpr(32), out d: gpr) { d = g0; } }".to_owned(),
            latency: 1,
            area: 123.5,
            op_nodes: 2,
            base_cost: 3,
            weight: 400,
            saved_cycles_est: 800,
            sites: vec![Site {
                members: vec![10, 12, 13],
                rs: 2,
                rt: 3,
                rd: 5,
                weight: 400,
            }],
        }],
    }
}

fn coverage_analysis() -> CoverageAnalysis {
    CoverageAnalysis {
        cases: 40,
        variables: vec![VariableExcitation {
            name: "beta_ucf".into(),
            nonzero_cases: 1,
            column_norm: 4.0,
            vif: f64::INFINITY,
        }],
        pairs: vec![PairCorrelation {
            a: "alpha_A".into(),
            b: "beta_icm".into(),
            abs_r: 0.91,
        }],
        condition_number: 812.0,
        gaps: vec![
            Gap {
                variable: "beta_ucf".into(),
                kind: GapKind::UnderExcited { nonzero_cases: 1 },
            },
            Gap {
                variable: "beta_icm".into(),
                kind: GapKind::Collinear {
                    partner: "alpha_A".into(),
                    abs_r: 0.96,
                },
            },
            Gap {
                variable: "gamma_CI".into(),
                kind: GapKind::Inflated { vif: 44.0 },
            },
        ],
        thresholds: Thresholds::default(),
    }
}

fn shard_report() -> ShardReport {
    ShardReport {
        shard: ShardSpec::new(1, 2).expect("valid shard"),
        partition_fingerprint: 0x00c0_ffee,
        workload: "reed-solomon".to_owned(),
        budget: Some(500.0),
        options: vec![("gf16".to_owned(), 120.5)],
        enumerated: 2,
        over_budget: 0,
        pruned: 0,
        survivors_total: 2,
        evaluated: 1,
        reused: 0,
        candidates: vec![ReportCandidate {
            name: "base+gf16".to_owned(),
            mask: 1,
            options: vec!["gf16".to_owned()],
            workload: "rs_gf16".to_owned(),
            area: 120.5,
            energy_pj: 1.0e6,
            cycles: 5678,
        }],
        failed: vec![ReportFailure {
            name: "base".to_owned(),
            code: "sim.cycle_limit".to_owned(),
            message: "ran out of cycles".to_owned(),
        }],
        cache_delta: cache(),
        source_name: "seed".to_owned(),
    }
}

/// TIE source using every declaration, parameter kind and numeric field
/// the language has. TIE text reaches the program from outside it
/// (`emx-run --tie`, `emx-serve` inline `tie`, `emx-dse --candidates`).
const TIE_SEED: &str = "extension seed {
    state acc : 40;
    table sq[4] : 8 = { 0, 1, 4, 0x9 };
    inst f(a: gpr(8), k: imm(6), acc: state(acc), out d: gpr, out n: state(acc)) latency 5 {
        s = sq[a];
        t : 9 = s + k * 3;
        n = mac(a, t, acc);
        d = pack(t, slice(acc, 8, 4), 9) ^ ~mux(ltu(a, 7), t, 0b11);
    }
    inst g(a: gpr, out d: gpr) {
        d : 32 = (a << 2) | (a >> 30);
    }
}";

fn readers() -> Vec<Reader> {
    let mut phases = PhaseProfile::new();
    phases.add(Phase::Execute, 700);
    phases.retire();
    let request_body = wire::estimate_request("gcd").to_string();
    vec![
        Reader {
            name: "ExecStats::from_json",
            seed: stats().to_json().to_string().into_bytes(),
            read: |b| {
                ExecStats::from_json(&value(b)?)
                    .map(drop)
                    .map_err(|e| e.to_string())
            },
        },
        Reader {
            name: "PhaseProfile::from_json",
            seed: phases.to_json().to_string().into_bytes(),
            read: |b| {
                PhaseProfile::from_json(&value(b)?)
                    .map(drop)
                    .map_err(|e| e.to_string())
            },
        },
        Reader {
            name: "Histogram::from_json",
            seed: histogram().to_json().to_string().into_bytes(),
            read: |b| {
                Histogram::from_json(&value(b)?)
                    .map(drop)
                    .map_err(|e| e.to_string())
            },
        },
        Reader {
            name: "BenchReport::parse",
            seed: include_bytes!("../BENCH_2026-08-09b.json").to_vec(),
            read: |b| BenchReport::parse(&text(b)).map(drop),
        },
        Reader {
            name: "discover Report::parse",
            seed: discover_report().to_json().to_string().into_bytes(),
            read: |b| Report::parse(&text(b)).map(drop),
        },
        Reader {
            name: "coverage report::parse",
            seed: emx::coverage::report::to_json(&coverage_analysis())
                .to_string()
                .into_bytes(),
            read: |b| emx::coverage::report::parse(&text(b)).map(drop),
        },
        Reader {
            name: "validate report::parse",
            seed: include_bytes!("golden/validate-report.json").to_vec(),
            read: |b| emx::validate::report::parse(&text(b)).map(drop),
        },
        Reader {
            name: "ShardReport::parse",
            seed: shard_report().to_json().to_string().into_bytes(),
            read: |b| {
                ShardReport::parse(&text(b), "mutated.json")
                    .map(drop)
                    .map_err(|e| e.to_string())
            },
        },
        Reader {
            name: "EstimationCache::salvage_json_text",
            seed: cache().to_json().to_string().into_bytes(),
            read: |b| {
                EstimationCache::salvage_json_text(&text(b))
                    .map(drop)
                    .map_err(|e| e.to_string())
            },
        },
        Reader {
            name: "wire::parse_request",
            seed: request_body.clone().into_bytes(),
            read: |b| wire::parse_request(b).map(drop).map_err(|e| e.to_string()),
        },
        Reader {
            name: "http::read_request + wire::parse_request",
            seed: format!(
                "POST /v1/estimate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{request_body}",
                request_body.len()
            )
            .into_bytes(),
            read: |b| {
                let budget = std::time::Duration::from_secs(10);
                let request = read_request(&mut Cursor::new(b), &Limits::default(), budget)
                    .map_err(|e| e.to_string())?;
                wire::parse_request(&request.body)
                    .map(drop)
                    .map_err(|e| e.to_string())
            },
        },
        Reader {
            name: "tie::lang::parse_extension",
            seed: TIE_SEED.as_bytes().to_vec(),
            read: |b| {
                parse_extension(&text(b))
                    .map(drop)
                    .map_err(|e| e.to_string())
            },
        },
    ]
}

/// Derives one mutated input from a seed.
type Mutation = fn(&mut TestRng, &[u8]) -> Vec<u8>;

/// Bytes that steer a flip towards JSON and HTTP structure.
const FLIPS: &[u8] = b"{}[]\",:0123456789-.eE+ntfu\\\r\n \x00\xff";

fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn truncate(rng: &mut TestRng, seed: &[u8]) -> Vec<u8> {
    seed[..below(rng, seed.len())].to_vec()
}

fn flip(rng: &mut TestRng, seed: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..=below(rng, 4) {
        let at = below(rng, bytes.len());
        bytes[at] = FLIPS[below(rng, FLIPS.len())];
    }
    bytes
}

fn nodes(v: &Value) -> usize {
    1 + match v {
        Value::Arr(items) => items.iter().map(nodes).sum(),
        Value::Obj(entries) => entries.iter().map(|(_, v)| nodes(v)).sum(),
        _ => 0,
    }
}

/// The `n`th node of `v` in pre-order.
fn nth_node<'v>(v: &'v mut Value, n: &mut usize) -> Option<&'v mut Value> {
    if *n == 0 {
        return Some(v);
    }
    *n -= 1;
    match v {
        Value::Arr(items) => items.iter_mut().find_map(|c| nth_node(c, n)),
        Value::Obj(entries) => entries.iter_mut().find_map(|(_, c)| nth_node(c, n)),
        _ => None,
    }
}

/// One value of the seed, swapped for a value of another type. The
/// HTTP framer's seed is not JSON; its body is swapped instead. TIE
/// source is not JSON either; see [`swap_number`].
fn swap_type(rng: &mut TestRng, seed: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(seed);
    let (head, body) = match text.find("\r\n\r\n") {
        Some(end) => text.split_at(end + 4),
        None => ("", &*text),
    };
    let Ok(mut doc) = Value::parse(body) else {
        return swap_number(rng, &text);
    };
    let mut n = below(rng, nodes(&doc));
    let node = nth_node(&mut doc, &mut n).expect("node index in range");
    *node = match below(rng, 8) {
        0 => Value::Null,
        1 => Value::Num(-1.0),
        2 => Value::Num(300.0),
        3 => Value::Num(1.0e300),
        4 => Value::Num(0.5),
        5 => Value::Str("emx".to_owned()),
        6 => Value::Arr(vec![Value::Null]),
        _ => Value::object(),
    };
    let swapped = doc.to_string();
    let head = head.replace(
        &format!("Content-Length: {}", body.len()),
        &format!("Content-Length: {}", swapped.len()),
    );
    format!("{head}{swapped}").into_bytes()
}

/// What replaces a number of TIE source: widths, positions and latencies
/// out of every range the language accepts, a number past `u64`, and a
/// name.
const NUMBER_SWAPS: [&str; 7] = [
    "0",
    "65",
    "257",
    "264",
    "18446744073709551616",
    "0x1_0000_0000",
    "w",
];

/// The byte ranges of the number tokens of a source text.
fn number_tokens(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !word(bytes[i - 1])))
        .map(|at| {
            let end = (at..bytes.len()).find(|&i| !word(bytes[i]));
            (at, end.unwrap_or(bytes.len()))
        })
        .collect()
}

/// `text` with the bytes `at..end` replaced by `with`.
fn splice(text: &str, (at, end): (usize, usize), with: &str) -> Vec<u8> {
    [
        &text.as_bytes()[..at],
        with.as_bytes(),
        &text.as_bytes()[end..],
    ]
    .concat()
}

/// One number of a source text swapped for one of [`NUMBER_SWAPS`].
fn swap_number(rng: &mut TestRng, text: &str) -> Vec<u8> {
    let tokens = number_tokens(text);
    let token = tokens[below(rng, tokens.len())];
    splice(text, token, NUMBER_SWAPS[below(rng, NUMBER_SWAPS.len())])
}

/// A run of `[` deep enough to overflow a thread's stack without the
/// JSON nesting cap, spliced in at a random byte.
fn deepen(rng: &mut TestRng, seed: &[u8]) -> Vec<u8> {
    let at = below(rng, seed.len() + 1);
    [&seed[..at], &[b'['; 50_000][..], &seed[at..]].concat()
}

/// Where `input` departs from `seed`, with 80 bytes of context.
fn around_change(seed: &[u8], input: &[u8]) -> String {
    let at = seed
        .iter()
        .zip(input)
        .position(|(a, b)| a != b)
        .unwrap_or(seed.len().min(input.len()));
    let window = &input[at.saturating_sub(40)..input.len().min(at + 40)];
    format!(
        "{} bytes, first change at byte {at}: {:?}",
        input.len(),
        String::from_utf8_lossy(window)
    )
}

#[test]
fn every_reader_answers_mutated_input_with_a_typed_error() {
    let mutations: [(&str, Mutation); 4] = [
        ("truncation", truncate),
        ("byte flips", flip),
        ("type swap", swap_type),
        ("deep nesting", deepen),
    ];
    let mut rng = TestRng::new(SEED);
    let mut panics = Vec::new();
    for reader in readers() {
        assert_eq!(
            (reader.read)(&reader.seed),
            Ok(()),
            "{}: the seed document must parse",
            reader.name
        );
        for (kind, mutate) in mutations {
            let mut refused = 0;
            for case in 0..CASES {
                let input = mutate(&mut rng, &reader.seed);
                match catch_unwind(AssertUnwindSafe(|| (reader.read)(&input))) {
                    Ok(Ok(())) => {}
                    Ok(Err(_)) => refused += 1,
                    Err(_) => panics.push(format!(
                        "{} panicked on {kind} case {case} (seed {SEED:#x}): {}",
                        reader.name,
                        around_change(&reader.seed, &input)
                    )),
                }
            }
            // A mutation that every reader shrugs off tests nothing.
            assert!(refused > 0, "{}: no {kind} case was refused", reader.name);
        }
    }
    assert!(
        panics.is_empty(),
        "{} panics:\n{}",
        panics.len(),
        panics.join("\n")
    );
}

/// Every number of the TIE seed, swapped in turn for every entry of
/// [`NUMBER_SWAPS`]: the front end answers each with `Ok` or a typed
/// error. The random campaign above samples these cases; this one
/// covers them all.
#[test]
fn tie_front_end_survives_every_number_swap() {
    let mut refused = 0;
    for token in number_tokens(TIE_SEED) {
        for swap in NUMBER_SWAPS {
            let input = splice(TIE_SEED, token, swap);
            let text = String::from_utf8(input).expect("ASCII splice");
            match catch_unwind(|| parse_extension(&text)) {
                Ok(result) => refused += usize::from(result.is_err()),
                Err(_) => panic!("parse_extension panicked on `{swap}` at byte {}", token.0),
            }
        }
    }
    assert!(refused > 0, "no swapped number was refused");
}
