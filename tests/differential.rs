//! ISS golden corpus: the simulator must reproduce, byte for byte, the
//! frozen outputs in `golden/iss-corpus.jsonl` — the run outcome (or
//! typed error), the `ExecStats`, the architectural state and the full
//! per-instruction activity stream.
//!
//! The corpus was recorded from the legacy single-step interpreter
//! before it was retired, so it is an oracle that shares no code with
//! the engine it checks. Each case runs twice: once on the statistics
//! fast path (`Interp::run`, no activity records) and once streaming
//! records into a digesting sink (`Interp::run_with_sink`); both must
//! match the corpus.
//!
//! Cases, one JSON object per line:
//! * every committed workload — the 63-program training suite and the
//!   Table II applications — at a full budget, with the complete
//!   `emx.exec-stats/1` document;
//! * the characterization suite under starved cycle budgets (3, 17,
//!   101, 997), cut off mid-flight by `CycleLimit`;
//! * 64 generated loop programs with random ALU/memory bodies, drawn
//!   from a fixed `TestRng` seed, each at a full and a starved budget;
//! * directed error paths: a fall off the text segment, an unaligned
//!   load and a spin into the cycle limit;
//! * directed per-opcode programs pinning record details the workloads
//!   may not reach (conditional moves that do not write, sign-extending
//!   loads, sub-word stores, `callx`).
//!
//! After a deliberate change to ISS semantics, regenerate with
//! `cargo test --release --test differential -- --ignored
//! regenerate_iss_corpus` and review the diff (tests/README.md).

use std::collections::BTreeMap;

use emx::isa::Reg;
use emx::obs::json::Value;
use emx::sim::{
    ActivitySink, ExecStats, InstKind, InstRecord, Interp, ProcConfig, RunResult, SimError,
};
use emx::workloads::{suite, Workload};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const BUDGET: u64 = u32::MAX as u64;
const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/iss-corpus.jsonl");

/// Seed of the generated-program cases. Changing it (or the generator)
/// changes the programs, which the recorded source digests catch.
const GENERATED_SEED: u64 = 0x15_5c0d_e5ee_d017;
const GENERATED_CASES: usize = 64;

// ---------------------------------------------------------------------
// Digests: word-wise, every step a bijection of the running state, so a
// single differing word always changes the result.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(buf));
        }
    }

    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

fn stats_digest(stats: &ExecStats) -> String {
    // Destructured so a new field is a compile error here, not a gap.
    let ExecStats {
        class_cycles,
        class_counts,
        icache_misses,
        dcache_misses,
        uncached_fetches,
        interlocks,
        ci_gpr_cycles,
        custom_cycles,
        custom_counts,
        struct_activity,
        struct_activations,
        opcode_cycles,
        total_cycles,
        inst_count,
    } = stats;
    let mut d = Digest::new();
    d.words(class_cycles.iter().chain(class_counts).copied());
    d.words([
        *icache_misses,
        *dcache_misses,
        *uncached_fetches,
        *interlocks,
        *ci_gpr_cycles,
        *custom_cycles,
        custom_counts.len() as u64,
    ]);
    d.words(custom_counts.iter().copied());
    d.words(
        struct_activity
            .iter()
            .chain(struct_activations)
            .map(|x| x.to_bits()),
    );
    d.word(opcode_cycles.len() as u64);
    d.words(opcode_cycles.iter().copied());
    d.words([*total_cycles, *inst_count]);
    d.hex()
}

/// An activity sink that folds every field of every record into a
/// digest.
struct RecordDigest(Digest);

impl ActivitySink for RecordDigest {
    fn record(&mut self, r: &InstRecord<'_>) {
        let d = &mut self.0;
        d.words([u64::from(r.pc), u64::from(r.word)]);
        match r.kind {
            InstKind::Base(class, unit) => d.words([0, class.index() as u64, unit as u64]),
            InstKind::Custom(id) => d.words([1, u64::from(id.0)]),
        }
        d.words([u64::from(r.operand_a), u64::from(r.operand_b)]);
        match r.result {
            Some((reg, v)) => d.words([1, reg.index() as u64, u64::from(v)]),
            None => d.word(0),
        }
        d.words([
            u64::from(r.cycles),
            u64::from(r.stall_cycles),
            u64::from(r.flush_cycles),
            u64::from(r.fetch_hit),
            u64::from(r.fetch_uncached),
        ]);
        match r.mem {
            Some(m) => d.words([
                1,
                u64::from(m.addr),
                u64::from(m.size),
                u64::from(m.write),
                u64::from(m.value),
                u64::from(m.hit),
                u64::from(m.writeback),
                u64::from(m.uncached),
            ]),
            None => d.word(0),
        }
        match r.custom {
            Some(c) => {
                d.words([
                    1,
                    u64::from(c.id.0),
                    u64::from(c.latency),
                    u64::from(c.uses_gpr),
                    c.node_values.len() as u64,
                ]);
                d.words(c.node_values.iter().copied());
            }
            None => d.word(0),
        }
    }
}

// ---------------------------------------------------------------------
// Cases and observations
// ---------------------------------------------------------------------

struct Case {
    id: String,
    workload: Workload,
    budget: u64,
    /// Record the complete `emx.exec-stats/1` document, not a digest.
    full_stats: bool,
    /// Digest of the generated assembly source (generated cases only).
    source: Option<String>,
}

impl Case {
    fn new(id: String, workload: Workload, budget: u64, full_stats: bool) -> Self {
        Case {
            id,
            workload,
            budget,
            full_stats,
            source: None,
        }
    }
}

fn committed_cases() -> Vec<Case> {
    let mut cases: Vec<Case> = suite::full_training_suite()
        .into_iter()
        .map(|w| Case::new(format!("suite/{}", w.name()), w, BUDGET, true))
        .collect();
    cases.extend(
        emx::workloads::apps::all()
            .into_iter()
            .map(|w| Case::new(format!("app/{}", w.name()), w, BUDGET, true)),
    );
    cases
}

fn starved_cases() -> Vec<Case> {
    suite::characterization_suite()
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            // Budgets spread from "dies in the prologue" to "dies deep in
            // the loop", varying per program so cut points differ.
            let budget = [3, 17, 101, 997][i % 4];
            Case::new(format!("starved/{}@{budget}", w.name()), w, budget, false)
        })
        .collect()
}

fn generated_cases() -> Vec<Case> {
    let mut rng = TestRng::new(GENERATED_SEED);
    let mut cases = Vec::new();
    for i in 0..GENERATED_CASES {
        let seeds = proptest::collection::vec(-1000i32..1000, 10).generate(&mut rng);
        let body = proptest::collection::vec(body_op(), 1..24).generate(&mut rng);
        let iters = (1u32..24).generate(&mut rng);
        let starved = (5u64..400).generate(&mut rng);
        let (src, w) = loop_program(&seeds, &body, iters);
        let mut d = Digest::new();
        d.bytes(src.as_bytes());
        for (id, budget) in [
            (format!("generated/{i}"), BUDGET),
            (format!("generated/{i}@{starved}"), starved),
        ] {
            cases.push(Case {
                source: Some(d.hex()),
                ..Case::new(id, w.clone(), budget, false)
            });
        }
    }
    cases
}

fn error_cases() -> Vec<Case> {
    [
        ("fall-off-text", "nop\nnop\n"),
        ("unaligned-load", "movi a2, 1\nl32i a3, 0(a2)\nhalt"),
        ("spin", "l: j l\n"),
    ]
    .into_iter()
    .map(|(name, src)| {
        let w = Workload::try_assemble(
            name,
            "directed error path",
            emx::tie::ExtensionSet::empty(),
            src,
            vec![],
        )
        .expect("error-path source assembles");
        Case::new(format!("error/{name}@100"), w, 100, false)
    })
    .collect()
}

/// Directed programs that pin per-opcode record semantics the workloads
/// may never exercise: conditional moves that do and do not write,
/// sign-extending loads (the record keeps the raw memory value), stores
/// (the record keeps the full `rt`), calls writing the link register,
/// computed jumps and every branch shape.
fn semantics_cases() -> Vec<Case> {
    [
        (
            "arithmetic",
            "movi a2, 7\nmovi a3, -3\nadd a4, a2, a3\nsub a5, a2, a3\nmul a6, a2, a3\n\
             neg a7, a3\nabs a8, a3\nclz a9, a2\nmax a10, a2, a3\nminu a11, a2, a3\nhalt",
        ),
        (
            "shifts",
            "movi a2, 0x80000001\nslli a3, a2, 1\nsrli a4, a2, 1\nsrai a5, a2, 1\n\
             rori a6, a2, 1\nmovi a7, 4\nsll a8, a2, a7\nhalt",
        ),
        (
            "mul-variants",
            "movi a2, 0x10000\nmovi a3, 0x10000\nmulh a4, a2, a3\nmuluh a5, a2, a3\n\
             movi a6, -2\nmovi a7, 3\nmul16s a8, a6, a7\nmul16u a9, a6, a7\nhalt",
        ),
        (
            "extui-sext",
            "movi a2, 0x12345678\nextui a3, a2, 8, 12\nmovi a4, 0x80\nsext8 a5, a4\n\
             movi a6, 0x8000\nsext16 a7, a6\nhalt",
        ),
        (
            "conditional-moves",
            "movi a2, 5\nmovi a3, 0\nmovi a6, -1\nmovi a4, 99\n\
             moveqz a4, a2, a3\nmoveqz a4, a2, a2\nmovnez a4, a2, a3\nmovnez a4, a2, a2\n\
             movltz a4, a2, a6\nmovltz a4, a2, a2\nmovgez a4, a2, a6\nmovgez a4, a2, a2\nhalt",
        ),
        (
            "memory",
            ".data\nbuf: .space 16\n.text\nmovi a2, buf\nmovi a3, 0x1234abcd\n\
             s32i a3, 0(a2)\nl32i a4, 0(a2)\nl16ui a5, 0(a2)\nl16si a6, 0(a2)\nl16si a6, 2(a2)\n\
             l8ui a7, 3(a2)\ns8i a3, 8(a2)\nl8si a8, 8(a2)\ns16i a3, 12(a2)\nl8ui a9, 8(a2)\nhalt",
        ),
        (
            "calls",
            "movi a2, 1\ncall fn\nmovi a4, fn2\ncallx a4\nmovi a5, 7\nhalt\n\
             fn: movi a3, 6\nret\nfn2: movi a3, 8\nret",
        ),
        (
            "computed-jump",
            "movi a2, tgt\njx a2\nmovi a3, 1\nhalt\ntgt: movi a3, 2\nhalt",
        ),
        (
            "branches",
            "movi a2, 0\nbeqz a2, yes\nnop\nyes: bnez a2, no\nhalt\nno: nop\nhalt",
        ),
        (
            "mask-branches",
            "movi a2, 0b1110\nmovi a3, 0b0110\nmovi a4, 0\n\
             ball a2, a3, t1\nj end\nt1: addi a4, a4, 1\n\
             bany a2, a3, t2\nj end\nt2: addi a4, a4, 1\n\
             movi a5, 0b0001\nbnone a2, a5, t3\nj end\nt3: addi a4, a4, 1\n\
             end: halt",
        ),
        (
            "l32r",
            ".data\nk: .word 0xcafef00d\n.text\nl32r a2, k\nhalt",
        ),
    ]
    .into_iter()
    .map(|(name, src)| {
        let w = Workload::try_assemble(
            name,
            "directed instruction semantics",
            emx::tie::ExtensionSet::empty(),
            src,
            vec![],
        )
        .expect("semantics source assembles");
        Case::new(format!("semantics/{name}"), w, BUDGET, false)
    })
    .collect()
}

fn all_cases() -> Vec<Case> {
    let mut cases = committed_cases();
    cases.extend(starved_cases());
    cases.extend(generated_cases());
    cases.extend(error_cases());
    cases.extend(semantics_cases());
    cases
}

/// Runs `case` and renders what it did as one corpus line. With
/// `records`, the run streams activity records into a digest; without,
/// it takes the statistics fast path and the line has no `records`.
fn observe(case: &Case, records: bool) -> Value {
    let w = &case.workload;
    let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
    let mut sink = RecordDigest(Digest::new());
    let run: Result<RunResult, SimError> = if records {
        sim.run_with_sink(&mut sink, case.budget)
    } else {
        sim.run(case.budget)
    };

    let mut line = Value::object();
    line.set("case", case.id.as_str());
    if let Some(source) = &case.source {
        line.set("source", source.as_str());
    }
    line.set(
        "outcome",
        match &run {
            Ok(r) => format!("ok halted={}", r.halted),
            Err(e) => format!("{e:?}"),
        },
    );
    // Partial statistics count too: an error must leave exactly the
    // counters the reference left.
    let stats = sim.stats();
    if case.full_stats {
        line.set("stats", stats.to_json());
    } else {
        line.set("stats", stats_digest(stats));
    }
    let state = sim.state();
    line.set("pc", state.pc());
    let mut regs = Digest::new();
    regs.words(Reg::all().map(|r| u64::from(state.reg(r))));
    line.set("regs", regs.hex());
    let mut ext = Digest::new();
    ext.words(state.ext_state().iter().copied());
    line.set("ext_state", ext.hex());
    let mut mem = Digest::new();
    for (base, bytes) in state.mem.pages() {
        // An all-zero page reads exactly like an untouched one.
        if bytes.iter().any(|&b| b != 0) {
            mem.word(u64::from(base));
            mem.bytes(bytes);
        }
    }
    line.set("mem", mem.hex());
    if records {
        line.set("records", sink.0.hex());
    }
    line
}

/// One line of JSON: the writer pretty-prints, and no string in a
/// corpus line holds a newline, so joining the trimmed lines is exact.
fn one_line(v: &Value) -> String {
    v.to_string().lines().map(str::trim_start).collect()
}

fn load_corpus() -> BTreeMap<String, Value> {
    let text = std::fs::read_to_string(CORPUS).expect("the ISS corpus is committed");
    text.lines()
        .map(|line| {
            let v = Value::parse(line).expect("corpus line parses");
            let id = v
                .get("case")
                .and_then(Value::as_str)
                .expect("case id")
                .to_owned();
            (id, v)
        })
        .collect()
}

/// Checks every case against the corpus, on both the fast path and the
/// activity-streaming path, naming the first field that differs.
fn assert_matches_corpus(cases: &[Case]) {
    let corpus = load_corpus();
    for case in cases {
        let golden = corpus
            .get(&case.id)
            .unwrap_or_else(|| panic!("{}: no corpus line (regenerate?)", case.id));
        if let Some(source) = &case.source {
            assert_eq!(
                golden.get("source").and_then(Value::as_str),
                Some(source.as_str()),
                "{}: the program generator drifted from the one the corpus was recorded with",
                case.id
            );
        }
        for records in [false, true] {
            let seen = observe(case, records);
            let path = if records { "run_with_sink" } else { "run" };
            for (field, value) in seen.as_object().expect("observation is an object") {
                let want = golden.get(field).map(one_line);
                assert_eq!(
                    Some(one_line(value)),
                    want,
                    "{}: `{field}` differs from the corpus on {path}",
                    case.id
                );
            }
        }
    }
}

/// Writes the corpus from the current engine. Run it only after a
/// deliberate change to ISS semantics, then review the diff.
#[test]
#[ignore = "rewrites tests/golden/iss-corpus.jsonl"]
fn regenerate_iss_corpus() {
    let mut text = String::new();
    for case in all_cases() {
        text.push_str(&one_line(&observe(&case, true)));
        text.push('\n');
    }
    std::fs::write(CORPUS, text).expect("corpus written");
}

/// The corpus holds exactly the cases this file generates: none missing,
/// none stale, and the committed set has not shrunk.
#[test]
fn corpus_covers_exactly_the_generated_cases() {
    let cases = all_cases();
    let ids: Vec<&str> = cases.iter().map(|c| c.id.as_str()).collect();
    let corpus = load_corpus();
    let recorded: Vec<&str> = corpus.keys().map(String::as_str).collect();
    let mut expected = ids.clone();
    expected.sort_unstable();
    expected.dedup();
    assert_eq!(expected.len(), ids.len(), "case ids must be unique");
    assert_eq!(recorded, expected);
    assert!(
        committed_cases().len() >= 63 + 10,
        "the committed corpus shrank"
    );
}

/// Every committed workload — the full 63-program training suite plus
/// the Table II applications — reproduces the legacy engine's
/// `ExecStats`, state and activity stream exactly.
#[test]
fn micro_op_engine_matches_legacy_on_every_committed_workload() {
    assert_matches_corpus(&committed_cases());
}

/// A starved cycle budget turns most suite programs into `CycleLimit`
/// errors mid-flight; the partial execution must match too.
#[test]
fn starved_cycle_budgets_match_the_corpus() {
    assert_matches_corpus(&starved_cases());
}

/// Generated loop programs match to completion and under a starved
/// budget that cuts them off mid-loop (including mid-interlock and
/// mid-miss).
#[test]
fn generated_programs_match_the_corpus() {
    assert_matches_corpus(&generated_cases());
}

/// Errors leave the recorded partial statistics and state: invalid pc,
/// unaligned access, and the cycle limit.
#[test]
fn error_paths_match_the_corpus() {
    assert_matches_corpus(&error_cases());
}

/// Directed per-opcode programs match, records included.
#[test]
fn instruction_semantics_match_the_corpus() {
    assert_matches_corpus(&semantics_cases());
}

/// Record-stream laws at suite scale: one record per retired
/// instruction, and the per-record cycles, stalls and fetch misses add up
/// to the run's statistics, on every committed workload.
#[test]
fn record_stream_adds_up_to_the_stats_on_every_committed_workload() {
    for case in committed_cases() {
        let w = &case.workload;
        let (mut records, mut cycles, mut stalls) = (0u64, 0u64, 0u64);
        let (mut misses, mut icache_misses, mut uncached) = (0u64, 0u64, 0u64);
        let mut sink = |r: &InstRecord<'_>| {
            records += 1;
            cycles += u64::from(r.cycles);
            stalls += u64::from(r.stall_cycles);
            misses += u64::from(!r.fetch_hit);
            icache_misses += u64::from(!r.fetch_hit && !r.fetch_uncached);
            uncached += u64::from(r.fetch_uncached);
        };
        let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
        let stats = sim
            .run_with_sink(&mut sink, BUDGET)
            .expect("committed workload halts")
            .stats;
        let id = &case.id;
        assert_eq!(
            records, stats.inst_count,
            "{id}: one record per instruction"
        );
        assert_eq!(cycles, stats.total_cycles, "{id}: record cycles");
        assert_eq!(stalls, stats.interlocks, "{id}: record stalls");
        assert_eq!(
            misses,
            stats.icache_misses + stats.uncached_fetches,
            "{id}: fetch misses"
        );
        assert_eq!(icache_misses, stats.icache_misses, "{id}: icache misses");
        assert_eq!(uncached, stats.uncached_fetches, "{id}: uncached fetches");
    }
}

/// Phase-counter neutrality at suite scale: enabling the phase profiler
/// (which forces the instrumented path) must not change any statistic,
/// and the profile must account for exactly the retired instructions.
#[test]
fn phase_profiling_is_stats_neutral_across_the_suite() {
    // Every 5th program keeps this cheap while still crossing base,
    // calibration, width-variant and directed programs plus TIE
    // extensions of several shapes.
    for w in suite::full_training_suite().iter().step_by(5) {
        let config = ProcConfig::default();
        let mut plain = Interp::new(w.program(), w.ext(), config.clone());
        let plain_stats = plain.run(BUDGET).expect("suite program halts").stats;

        let mut collector = emx::obs::Collector::new();
        let mut profiled = Interp::new(w.program(), w.ext(), config);
        let (run, profile) = profiled
            .run_profiled(BUDGET, &mut collector)
            .expect("suite program halts under profiling");
        assert_eq!(
            run.stats,
            plain_stats,
            "{}: profiling changed stats",
            w.name()
        );
        assert_eq!(
            profile.steps(),
            plain_stats.inst_count,
            "{}: profile step count",
            w.name()
        );
    }
}

// ---------------------------------------------------------------------
// Generated loop programs with ALU and memory bodies. The generator only
// emits well-formed instructions; malformed encodings are the
// assembler's tests' concern, not the engine's.
// ---------------------------------------------------------------------

/// One random body instruction. Register operands stay in a2..=a11
/// (initialized by the prologue), the memory base in a12 points at a
/// 32-byte scratch buffer, and the loop counter lives in a13.
#[derive(Debug, Clone)]
enum BodyOp {
    Alu {
        op: &'static str,
        d: u8,
        s: u8,
        t: u8,
    },
    AluImm {
        d: u8,
        s: u8,
        imm: i32,
    },
    Load {
        d: u8,
        off: u32,
    },
    Store {
        s: u8,
        off: u32,
    },
    Skip {
        s: u8,
    },
}

impl BodyOp {
    fn emit(&self, line: usize) -> String {
        match *self {
            BodyOp::Alu { op, d, s, t } => format!("{op} a{d}, a{s}, a{t}"),
            BodyOp::AluImm { d, s, imm } => format!("addi a{d}, a{s}, {imm}"),
            BodyOp::Load { d, off } => format!("l32i a{d}, {off}(a12)"),
            BodyOp::Store { s, off } => format!("s32i a{s}, {off}(a12)"),
            // A forward branch over one nop: taken or untaken depending
            // on the (random) register contents at this point.
            BodyOp::Skip { s } => format!("beqz a{s}, sk{line}\nnop\nsk{line}:"),
        }
    }
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    let alu_ops = select(vec![
        "add", "sub", "and", "or", "xor", "mul", "slt", "sltu", "min", "maxu", "sll", "srl", "sra",
    ]);
    // One flat tuple of every field a variant might need, then a
    // weighted tag picks the variant (the vendored proptest has no
    // `prop_oneof!`).
    (
        (0u8..10, alu_ops, -128i32..128),
        (2u8..=11, 2u8..=11, 2u8..=11, 0u32..8),
    )
        .prop_map(|((tag, op, imm), (d, s, t, off))| match tag {
            0..=3 => BodyOp::Alu { op, d, s, t },
            4 | 5 => BodyOp::AluImm { d, s, imm },
            6 | 7 => BodyOp::Load { d, off: off * 4 },
            8 => BodyOp::Store { s, off: off * 4 },
            _ => BodyOp::Skip { s },
        })
}

/// Assembles a counted loop around the generated body; returns the
/// source with the workload.
fn loop_program(seeds: &[i32], body: &[BodyOp], iters: u32) -> (String, Workload) {
    let mut src = String::from(".data\nbuf: .word 11, 22, 33, 44, 55, 66, 77, 88\n.text\n");
    for (i, seed) in seeds.iter().enumerate() {
        src.push_str(&format!("movi a{}, {seed}\n", i + 2));
    }
    src.push_str(&format!("movi a12, buf\nmovi a13, {iters}\nloop:\n"));
    for (i, op) in body.iter().enumerate() {
        src.push_str(&op.emit(i));
        src.push('\n');
    }
    src.push_str("addi a13, a13, -1\nbnez a13, loop\nhalt\n");
    let w = Workload::try_assemble(
        "generated",
        "generated loop program",
        emx::tie::ExtensionSet::empty(),
        &src,
        vec![],
    )
    .expect("generated source assembles");
    (src, w)
}

proptest! {
    /// The stats document of a generated program round-trips exactly —
    /// ties the corpus to the persisted-extraction representation the
    /// DSE cache relies on.
    #[test]
    fn generated_program_stats_round_trip_json(
        seeds in proptest::collection::vec(-50i32..50, 10),
        body in proptest::collection::vec(body_op(), 1..12),
        iters in 1u32..8,
    ) {
        let (_, w) = loop_program(&seeds, &body, iters);
        let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
        let stats = sim.run(BUDGET).expect("halts").stats;
        prop_assert_eq!(ExecStats::from_json(&stats.to_json()), Ok(stats));
    }
}
