//! Differential suite for the micro-op interpreter: the pre-decoded
//! fast path (`Interp::run`) must be **observationally identical** to
//! the legacy single-step interpreter (`Interp::run_legacy`) — same
//! `ExecStats` to the last counter, same architectural state, same
//! typed error at the same instruction — across every committed
//! workload and across randomized programs.
//!
//! The unit tests in `emx-sim` prove agreement on directed micro-cases
//! (interlocks, flush accounting, error paths); this suite closes the
//! gap at scale: all 63 training programs (25 kernels + 9 calibration
//! pairs + 6 width variants + 23 directed cases), the Table II
//! applications, and proptest-generated loops with random ALU/memory
//! bodies under both generous and starved cycle budgets.

use emx::isa::Reg;
use emx::sim::{ExecStats, Interp, ProcConfig, RunResult, SimError};
use emx::workloads::{suite, Workload};

const BUDGET: u64 = u32::MAX as u64;

/// Runs one workload on both engines and asserts byte-identical
/// observable behaviour: the run result (or error), the statistics, and
/// the architectural state.
fn assert_engines_agree(w: &Workload, budget: u64) {
    let config = ProcConfig::default();
    let mut fast = Interp::new(w.program(), w.ext(), config.clone());
    let fast_run: Result<RunResult, SimError> = fast.run(budget);
    let mut slow = Interp::new(w.program(), w.ext(), config);
    let slow_run = slow.run_legacy(budget);

    match (&fast_run, &slow_run) {
        (Ok(f), Ok(s)) => {
            assert_eq!(f.stats, s.stats, "{}: stats diverge", w.name());
            assert_eq!(f.halted, s.halted, "{}: halt status diverges", w.name());
        }
        (Err(f), Err(s)) => assert_eq!(f, s, "{}: errors diverge", w.name()),
        _ => panic!(
            "{}: one engine failed where the other succeeded: fast={fast_run:?} legacy={slow_run:?}",
            w.name()
        ),
    }
    // Partial stats and state must agree even on the error paths.
    assert_eq!(fast.stats(), slow.stats(), "{}: partial stats", w.name());
    assert_eq!(fast.state().pc(), slow.state().pc(), "{}: pc", w.name());
    for r in 0..16u8 {
        assert_eq!(
            fast.state().reg(Reg::new(r)),
            slow.state().reg(Reg::new(r)),
            "{}: register a{r}",
            w.name()
        );
    }
}

/// The acceptance property for the engine swap: every committed
/// workload — the full 63-program training suite plus the Table II
/// applications — produces byte-identical `ExecStats` on both engines.
#[test]
fn micro_op_engine_matches_legacy_on_every_committed_workload() {
    let mut all = suite::full_training_suite();
    all.extend(emx::workloads::apps::all());
    assert!(all.len() >= 63 + 5, "the committed corpus shrank");
    for w in &all {
        assert_engines_agree(w, BUDGET);
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

/// A starved cycle budget turns most suite programs into `CycleLimit`
/// errors mid-flight; the engines must agree on the partial execution
/// too, for every budget shape.
#[test]
fn engines_agree_under_starved_cycle_budgets() {
    for (i, w) in suite::characterization_suite().iter().enumerate() {
        // Budgets spread from "dies in the prologue" to "dies deep in
        // the loop", varying per program so cut points differ.
        let budget = [3, 17, 101, 997][i % 4];
        assert_engines_agree(w, budget);
    }
}

// ---------------------------------------------------------------------
// Randomized differential: generated loop programs with ALU and memory
// bodies. The generator only emits well-formed instructions; malformed
// encodings are the assembler's tests' concern, not the engines'.
// ---------------------------------------------------------------------

use proptest::prelude::*;

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

/// Assembles a counted loop around the generated body.
fn loop_program(seeds: &[i32], body: &[BodyOp], iters: u32) -> Workload {
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
    Workload::try_assemble(
        "generated",
        "proptest differential program",
        emx::tie::ExtensionSet::empty(),
        &src,
        vec![],
    )
    .expect("generated source assembles")
}

proptest! {
    /// Any generated loop program behaves identically on both engines,
    /// both to completion and under a starved budget that cuts it off
    /// mid-loop (including mid-interlock and mid-miss).
    #[test]
    fn engines_agree_on_generated_programs(
        seeds in proptest::collection::vec(-1000i32..1000, 10),
        body in proptest::collection::vec(body_op(), 1..24),
        iters in 1u32..24,
        starved_budget in 5u64..400,
    ) {
        let w = loop_program(&seeds, &body, iters);
        assert_engines_agree(&w, BUDGET);
        assert_engines_agree(&w, starved_budget);
    }

    /// The stats documents of both engines round-trip identically —
    /// ties the differential guarantee to the persisted-extraction
    /// representation the DSE cache relies on.
    #[test]
    fn generated_program_stats_round_trip_json(
        seeds in proptest::collection::vec(-50i32..50, 10),
        body in proptest::collection::vec(body_op(), 1..12),
        iters in 1u32..8,
    ) {
        let w = loop_program(&seeds, &body, iters);
        let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
        let stats = sim.run(BUDGET).expect("halts").stats;
        prop_assert_eq!(ExecStats::from_json(&stats.to_json()), Ok(stats));
    }
}
