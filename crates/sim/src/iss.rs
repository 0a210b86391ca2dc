use emx_isa::{Program, Reg};
use emx_tie::ExtensionSet;

use crate::phase::{NullPhases, PhaseProfile};
use crate::record::{ActivitySink, NullSink};
use crate::{Cache, CoreState, ExecStats, ProcConfig, SimError};

/// Result of a completed simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The gathered execution statistics.
    pub stats: ExecStats,
    /// `true` if the program reached `halt` (always true on `Ok`; kept for
    /// symmetry with partial-run extensions).
    pub halted: bool,
}

/// The functional instruction-set simulator (the paper's "instruction set
/// simulation" step).
///
/// Executes a program on a base-plus-extension processor configuration,
/// modeling exactly the micro-architectural effects the macro-model
/// variables observe: per-class cycles, I/D-cache misses, uncached
/// fetches, pipeline interlocks, custom-instruction latencies and GPR
/// coupling, and the dynamic resource usage of the custom hardware.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Interp<'a> {
    pub(crate) program: &'a Program,
    pub(crate) ext: &'a ExtensionSet,
    pub(crate) config: ProcConfig,
    pub(crate) state: CoreState,
    pub(crate) icache: Cache,
    pub(crate) dcache: Cache,
    pub(crate) stats: ExecStats,
    /// Destination of the previous instruction's delayed result (load,
    /// multiply or custom), which stalls a reader for one cycle.
    pub(crate) hazard: Option<Reg>,
}

impl<'a> Interp<'a> {
    /// Creates a simulator at the program's entry point.
    pub fn new(program: &'a Program, ext: &'a ExtensionSet, config: ProcConfig) -> Self {
        Interp {
            program,
            ext,
            state: CoreState::new(program, ext),
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            stats: ExecStats::new(ext.len()),
            config,
            hazard: None,
        }
    }

    /// The architectural state (registers, memory, custom state).
    pub fn state(&self) -> &CoreState {
        &self.state
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The processor configuration in use.
    pub fn config(&self) -> &ProcConfig {
        &self.config
    }

    /// Runs until `halt`, or until `max_cycles` simulated cycles have
    /// elapsed.
    ///
    /// This is the statistics fast path: the micro-op engine (see the
    /// `uop` module) with no activity records and no phase timing.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] if the budget is exhausted, plus any
    /// execution error ([`SimError::InvalidPc`], [`SimError::Unaligned`],
    /// …).
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, SimError> {
        crate::uop::run::<_, _, false>(self, max_cycles, &mut NullSink, &mut NullPhases, &mut [])
    }

    /// Runs like [`Interp::run`] while counting retired executions of
    /// each static instruction into `counts`, indexed like
    /// `Program::text`. `counts` is resized to the program length; a
    /// caller-provided buffer lets repeated runs reuse one allocation.
    ///
    /// This is the observation hook behind
    /// [`observe::exec_counts`](crate::observe::exec_counts), which
    /// custom-instruction discovery uses to weight basic blocks by how
    /// often they executed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Interp::run`]; on error, `counts` covers the
    /// instructions retired before the error fired.
    pub fn run_with_exec_counts(
        &mut self,
        max_cycles: u64,
        counts: &mut Vec<u64>,
    ) -> Result<RunResult, SimError> {
        counts.clear();
        counts.resize(self.program.len(), 0);
        crate::uop::run::<_, _, true>(self, max_cycles, &mut NullSink, &mut NullPhases, counts)
    }

    /// Runs like [`Interp::run`] while streaming one activity record per
    /// retired instruction into `sink`: fetched encoding, operand and
    /// result buses, cache behaviour, stall and flush cycles and
    /// custom-datapath node values. This is the trace the RTL-level
    /// energy estimator integrates; the statistics are identical to
    /// [`Interp::run`]'s.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use emx_isa::asm::Assembler;
    /// use emx_sim::{InstRecord, Interp, ProcConfig};
    /// use emx_tie::ExtensionSet;
    ///
    /// let program = Assembler::new().assemble("movi a2, 3\nhalt")?;
    /// let ext = ExtensionSet::empty();
    /// let mut cycles = 0u64;
    /// let mut sink = |r: &InstRecord<'_>| cycles += u64::from(r.cycles);
    /// let mut sim = Interp::new(&program, &ext, ProcConfig::default());
    /// let run = sim.run_with_sink(&mut sink, 1_000)?;
    /// assert_eq!(cycles, run.stats.total_cycles);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`Interp::run`].
    pub fn run_with_sink<S: ActivitySink>(
        &mut self,
        sink: &mut S,
        max_cycles: u64,
    ) -> Result<RunResult, SimError> {
        crate::uop::run::<_, _, false>(self, max_cycles, sink, &mut NullPhases, &mut [])
    }

    /// Runs with phase profiling enabled and folds the result into
    /// `collector` (as `iss.phase.*` counters) when it is enabled.
    ///
    /// A disabled collector selects the un-instrumented fast path — the
    /// returned profile is then empty, and the run is bit-identical to
    /// [`Interp::run`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Interp::run`].
    pub fn run_profiled(
        &mut self,
        max_cycles: u64,
        collector: &mut emx_obs::Collector,
    ) -> Result<(RunResult, PhaseProfile), SimError> {
        if !collector.is_enabled() {
            let run = self.run(max_cycles)?;
            return Ok((run, PhaseProfile::new()));
        }
        let mut profile = PhaseProfile::new();
        let run =
            crate::uop::run::<_, _, false>(self, max_cycles, &mut NullSink, &mut profile, &mut [])?;
        profile.export_to(collector);
        Ok((run, profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstRecord;
    use emx_isa::asm::Assembler;
    use emx_isa::DynClass;

    fn sim(src: &str) -> (ExecStats, u32) {
        let program = Assembler::new().assemble(src).unwrap();
        let ext = ExtensionSet::empty();
        let mut interp = Interp::new(&program, &ext, ProcConfig::default());
        let run = interp.run(10_000_000).unwrap();
        let a2 = interp.state().reg(Reg::new(2));
        (run.stats, a2)
    }

    #[test]
    fn counts_classes() {
        let (stats, _) =
            sim("movi a2, 3\nmovi a3, 0\nl: addi a3, a3, 1\naddi a2, a2, -1\nbnez a2, l\nhalt");
        // movi×2 + (addi,addi)×3 = 8 arithmetic instructions.
        assert_eq!(stats.count_of(DynClass::Arithmetic), 8);
        assert_eq!(stats.count_of(DynClass::BranchTaken), 2);
        assert_eq!(stats.count_of(DynClass::BranchUntaken), 1);
        // halt counts as one jump-class instruction at 1 cycle.
        assert_eq!(stats.count_of(DynClass::Jump), 1);
        assert_eq!(stats.cycles_of(DynClass::Jump), 1);
        // Taken branches occupy 3 cycles each by default.
        assert_eq!(stats.cycles_of(DynClass::BranchTaken), 6);
    }

    #[test]
    fn load_use_interlock_detected() {
        let (with, _) =
            sim(".data\nv: .word 5\n.text\nmovi a2, v\nl32i a3, 0(a2)\nadd a4, a3, a3\nhalt");
        let (without, _) =
            sim(".data\nv: .word 5\n.text\nmovi a2, v\nl32i a3, 0(a2)\nnop\nadd a4, a3, a3\nhalt");
        assert_eq!(with.interlocks, 1);
        assert_eq!(without.interlocks, 0);
    }

    #[test]
    fn mul_result_interlock() {
        let (stats, _) = sim("movi a2, 3\nmovi a3, 4\nmul a4, a2, a3\nadd a5, a4, a4\nhalt");
        assert_eq!(stats.interlocks, 1);
        let (stats2, _) = sim("movi a2, 3\nmovi a3, 4\nmul a4, a2, a3\nadd a5, a2, a3\nhalt");
        assert_eq!(stats2.interlocks, 0);
    }

    #[test]
    fn icache_misses_counted() {
        // 6 instructions fit in a single 32-byte line starting at 0.
        let (stats, _) = sim("nop\nnop\nnop\nnop\nnop\nhalt");
        assert_eq!(stats.icache_misses, 1);
        assert_eq!(stats.uncached_fetches, 0);
    }

    #[test]
    fn uncached_fetch_counted() {
        let (stats, _) = sim(".uncached\nnop\nnop\nhalt");
        assert_eq!(stats.uncached_fetches, 3);
        assert_eq!(stats.icache_misses, 0);
        // Each uncached fetch costs its penalty on top of the base cycle.
        let cfg = ProcConfig::default();
        assert_eq!(
            stats.total_cycles,
            3 + 3 * u64::from(cfg.uncached_fetch_penalty)
        );
    }

    #[test]
    fn dcache_misses_counted() {
        // Two loads from the same line: one miss, one hit.
        let (stats, _) =
            sim(".data\nv: .word 1, 2\n.text\nmovi a2, v\nl32i a3, 0(a2)\nl32i a4, 4(a2)\nhalt");
        assert_eq!(stats.dcache_misses, 1);
    }

    #[test]
    fn cycle_limit_enforced() {
        let program = Assembler::new().assemble("l: j l\n").unwrap();
        let ext = ExtensionSet::empty();
        let mut interp = Interp::new(&program, &ext, ProcConfig::default());
        assert_eq!(interp.run(100), Err(SimError::CycleLimit(100)));
    }

    #[test]
    fn total_cycles_decompose() {
        let (stats, _) = sim("movi a2, 2\nl: addi a2, a2, -1\nbnez a2, l\nhalt");
        let cfg = ProcConfig::default();
        let expected = stats.base_class_cycles()
            + stats.icache_misses * u64::from(cfg.icache_miss_penalty)
            + stats.dcache_misses * u64::from(cfg.dcache_miss_penalty)
            + stats.uncached_fetches * u64::from(cfg.uncached_fetch_penalty)
            + stats.interlocks
            + stats.custom_cycles;
        assert_eq!(stats.total_cycles, expected);
    }

    #[test]
    fn sink_sees_every_instruction() {
        let program = Assembler::new()
            .assemble("movi a2, 1\nadd a3, a2, a2\nhalt")
            .unwrap();
        let ext = ExtensionSet::empty();
        let mut interp = Interp::new(&program, &ext, ProcConfig::default());
        let mut seen = Vec::new();
        let mut sink = |r: &InstRecord<'_>| seen.push((r.pc, r.cycles));
        interp.run_with_sink(&mut sink, 1_000).unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[1].0, 4);
    }

    #[test]
    fn profiled_run_attributes_time_and_matches_plain_stats() {
        let src = "movi a2, 50\nmovi a3, 0\nl: add a3, a3, a2\naddi a2, a2, -1\nbnez a2, l\nhalt";
        let program = Assembler::new().assemble(src).unwrap();
        let ext = ExtensionSet::empty();

        let mut plain = Interp::new(&program, &ext, ProcConfig::default());
        let plain_stats = plain.run(1_000_000).unwrap().stats;

        let mut collector = emx_obs::Collector::new();
        let mut profiled = Interp::new(&program, &ext, ProcConfig::default());
        let (run, profile) = profiled.run_profiled(1_000_000, &mut collector).unwrap();
        assert_eq!(run.stats, plain_stats);
        assert_eq!(profile.steps(), plain_stats.inst_count);
        // Every retired instruction crosses all five checkpoints, so
        // some time must have been attributed overall.
        assert!(profile.total_ns() > 0);
        assert_eq!(
            collector.counter("iss.phase.steps"),
            plain_stats.inst_count as f64
        );

        // A disabled collector selects the fast path: identical stats,
        // empty profile, nothing recorded.
        let mut off = emx_obs::Collector::disabled();
        let mut fast = Interp::new(&program, &ext, ProcConfig::default());
        let (run, profile) = fast.run_profiled(1_000_000, &mut off).unwrap();
        assert_eq!(run.stats, plain_stats);
        assert_eq!(profile, PhaseProfile::new());
        assert!(off.counters().is_empty());
    }

    #[test]
    fn zero_cost_branch_config_does_not_underflow() {
        // Regression: flush_cycles was computed as `cost - 1`, which
        // panicked in debug builds when branch_taken_cycles or
        // jump_cycles was configured to 0. The sinked path is the one
        // that materializes flush_cycles.
        let src = "movi a2, 2\nl: addi a2, a2, -1\nbnez a2, l\nj done\ndone: halt";
        let program = Assembler::new().assemble(src).unwrap();
        let ext = ExtensionSet::empty();
        let config = ProcConfig {
            branch_taken_cycles: 0,
            jump_cycles: 0,
            ..ProcConfig::default()
        };
        let mut flushes = Vec::new();
        let mut sink = |r: &InstRecord<'_>| flushes.push(r.flush_cycles);
        let mut interp = Interp::new(&program, &ext, config.clone());
        let run = interp.run_with_sink(&mut sink, 10_000).unwrap();
        assert!(run.halted);
        assert!(flushes.iter().all(|&f| f == 0));
        // The micro-op fast path accepts the same config and agrees.
        let mut fast = Interp::new(&program, &ext, config);
        assert_eq!(fast.run(10_000).unwrap().stats, run.stats);
    }

    #[test]
    fn stats_match_between_fast_and_sinked_runs() {
        let src = "movi a2, 50\nmovi a3, 0\nl: add a3, a3, a2\naddi a2, a2, -1\nbnez a2, l\nhalt";
        let program = Assembler::new().assemble(src).unwrap();
        let ext = ExtensionSet::empty();
        let mut fast = Interp::new(&program, &ext, ProcConfig::default());
        let fast_stats = fast.run(1_000_000).unwrap().stats;
        let mut slow = Interp::new(&program, &ext, ProcConfig::default());
        let mut sink = |_: &InstRecord<'_>| {};
        let slow_stats = slow.run_with_sink(&mut sink, 1_000_000).unwrap().stats;
        assert_eq!(fast_stats, slow_stats);
    }

    #[test]
    fn record_cycles_sum_to_total() {
        let program = Assembler::new()
            .assemble(
                ".data\nv: .word 1,2,3,4\n.text\nmovi a2, v\nmovi a3, 4\nmovi a5, 0\n\
                 l: l32i a4, 0(a2)\nadd a5, a5, a4\naddi a2, a2, 4\naddi a3, a3, -1\n\
                 bnez a3, l\nhalt",
            )
            .unwrap();
        let ext = ExtensionSet::empty();
        let mut sum = 0u64;
        let mut stalls = 0u64;
        let mut sink = |r: &InstRecord<'_>| {
            sum += u64::from(r.cycles);
            stalls += u64::from(r.stall_cycles);
        };
        let mut sim = Interp::new(&program, &ext, ProcConfig::default());
        let run = sim.run_with_sink(&mut sink, 100_000).unwrap();
        assert_eq!(sum, run.stats.total_cycles);
        assert_eq!(stalls, run.stats.interlocks);
        assert_eq!(sim.state().reg(Reg::new(5)), 10);
    }

    #[test]
    fn fetch_flags_in_records() {
        let program = Assembler::new().assemble("nop\nnop\nhalt").unwrap();
        let ext = ExtensionSet::empty();
        let mut hits = Vec::new();
        let mut sink = |r: &InstRecord<'_>| hits.push(r.fetch_hit);
        Interp::new(&program, &ext, ProcConfig::default())
            .run_with_sink(&mut sink, 1_000)
            .unwrap();
        // First fetch misses the cold cache, the rest of the line hits.
        assert_eq!(hits, vec![false, true, true]);
    }

    // ---- instruction semantics, observed through `Interp::run` ---------------

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn run_to_halt(src: &str) -> Result<CoreState, Box<dyn std::error::Error>> {
        let program = Assembler::new().assemble(src)?;
        let ext = ExtensionSet::empty();
        let mut sim = Interp::new(&program, &ext, ProcConfig::default());
        sim.run(100_000)?;
        Ok(sim.state().clone())
    }

    /// Runs `src` to its first error and returns it.
    fn run_to_error(src: &str) -> Result<SimError, Box<dyn std::error::Error>> {
        let program = Assembler::new().assemble(src)?;
        let ext = ExtensionSet::empty();
        let mut sim = Interp::new(&program, &ext, ProcConfig::default());
        match sim.run(100_000) {
            Ok(_) => Err("program halted".into()),
            Err(e) => Ok(e),
        }
    }

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn arithmetic_semantics() -> TestResult {
        let s = run_to_halt(
            "movi a2, 7\nmovi a3, -3\nadd a4, a2, a3\nsub a5, a2, a3\nmul a6, a2, a3\n\
             neg a7, a3\nabs a8, a3\nclz a9, a2\nmax a10, a2, a3\nminu a11, a2, a3\nhalt",
        )?;
        assert_eq!(s.reg(r(4)), 4);
        assert_eq!(s.reg(r(5)), 10);
        assert_eq!(s.reg(r(6)) as i32, -21);
        assert_eq!(s.reg(r(7)), 3);
        assert_eq!(s.reg(r(8)), 3);
        assert_eq!(s.reg(r(9)), 29);
        assert_eq!(s.reg(r(10)), 7);
        assert_eq!(s.reg(r(11)), 7); // unsigned: -3 is huge
        Ok(())
    }

    #[test]
    fn shift_semantics() -> TestResult {
        let s = run_to_halt(
            "movi a2, 0x80000001\nslli a3, a2, 1\nsrli a4, a2, 1\nsrai a5, a2, 1\n\
             rori a6, a2, 1\nmovi a7, 4\nsll a8, a2, a7\nhalt",
        )?;
        assert_eq!(s.reg(r(3)), 2);
        assert_eq!(s.reg(r(4)), 0x4000_0000);
        assert_eq!(s.reg(r(5)), 0xc000_0000);
        assert_eq!(s.reg(r(6)), 0xc000_0000);
        assert_eq!(s.reg(r(8)), 0x10);
        Ok(())
    }

    #[test]
    fn mul_variants() -> TestResult {
        let s = run_to_halt(
            "movi a2, 0x10000\nmovi a3, 0x10000\nmulh a4, a2, a3\nmuluh a5, a2, a3\n\
             movi a6, -2\nmovi a7, 3\nmul16s a8, a6, a7\nmul16u a9, a6, a7\nhalt",
        )?;
        assert_eq!(s.reg(r(4)), 1);
        assert_eq!(s.reg(r(5)), 1);
        assert_eq!(s.reg(r(8)) as i32, -6);
        assert_eq!(s.reg(r(9)), 0xfffe * 3);
        Ok(())
    }

    #[test]
    fn extui_and_sext() -> TestResult {
        let s = run_to_halt(
            "movi a2, 0x12345678\nextui a3, a2, 8, 12\nmovi a4, 0x80\nsext8 a5, a4\n\
             movi a6, 0x8000\nsext16 a7, a6\nhalt",
        )?;
        assert_eq!(s.reg(r(3)), 0x456);
        assert_eq!(s.reg(r(5)), 0xffff_ff80);
        assert_eq!(s.reg(r(7)), 0xffff_8000);
        Ok(())
    }

    #[test]
    fn conditional_moves() -> TestResult {
        let s = run_to_halt(
            "movi a2, 5\nmovi a3, 0\nmovi a4, 99\nmoveqz a4, a2, a3\n\
             movi a5, 99\nmovnez a5, a2, a3\nmovi a6, -1\nmovi a7, 99\nmovltz a7, a2, a6\nhalt",
        )?;
        assert_eq!(s.reg(r(4)), 5); // a3 == 0 → moved
        assert_eq!(s.reg(r(5)), 99); // a3 == 0 → not moved
        assert_eq!(s.reg(r(7)), 5); // a6 < 0 → moved
        Ok(())
    }

    #[test]
    fn memory_round_trip() -> TestResult {
        let s = run_to_halt(
            ".data\nbuf: .space 16\n.text\nmovi a2, buf\nmovi a3, 0x1234abcd\n\
             s32i a3, 0(a2)\nl32i a4, 0(a2)\nl16ui a5, 0(a2)\nl16si a6, 2(a2)\n\
             l8ui a7, 3(a2)\ns8i a3, 8(a2)\nl8si a8, 8(a2)\nhalt",
        )?;
        assert_eq!(s.reg(r(4)), 0x1234_abcd);
        assert_eq!(s.reg(r(5)), 0xabcd);
        assert_eq!(s.reg(r(6)), 0x1234);
        assert_eq!(s.reg(r(7)), 0x12);
        assert_eq!(s.reg(r(8)), 0xffff_ffcd);
        Ok(())
    }

    #[test]
    fn unaligned_access_faults() -> TestResult {
        assert_eq!(
            run_to_error("movi a2, 1\nl32i a3, 0(a2)\nhalt")?,
            SimError::Unaligned { addr: 1, size: 4 }
        );
        Ok(())
    }

    #[test]
    fn calls_and_returns() -> TestResult {
        let s = run_to_halt("movi a2, 1\ncall fn\nmovi a4, 7\nhalt\nfn: movi a3, 6\nret")?;
        assert_eq!(s.reg(r(3)), 6);
        assert_eq!(s.reg(r(4)), 7);
        Ok(())
    }

    #[test]
    fn computed_jump() -> TestResult {
        let s = run_to_halt("movi a2, tgt\njx a2\nmovi a3, 1\nhalt\ntgt: movi a3, 2\nhalt")?;
        assert_eq!(s.reg(r(3)), 2);
        Ok(())
    }

    #[test]
    fn branch_taken_and_untaken() -> TestResult {
        let program = Assembler::new()
            .assemble("movi a2, 0\nbeqz a2, yes\nnop\nyes: bnez a2, no\nhalt\nno: nop\nhalt")?;
        let ext = ExtensionSet::empty();
        let mut classes = Vec::new();
        let mut sink = |rec: &InstRecord<'_>| {
            if let crate::InstKind::Base(class, _) = rec.kind {
                classes.push(class);
            }
        };
        Interp::new(&program, &ext, ProcConfig::default()).run_with_sink(&mut sink, 1_000)?;
        // beqz on zero is taken (skipping the nop); bnez on zero is not.
        assert_eq!(classes[1], DynClass::BranchTaken);
        assert_eq!(classes[2], DynClass::BranchUntaken);
        Ok(())
    }

    #[test]
    fn mask_branches() -> TestResult {
        let s = run_to_halt(
            "movi a2, 0b1110\nmovi a3, 0b0110\nmovi a4, 0\n\
             ball a2, a3, t1\nj end\nt1: addi a4, a4, 1\n\
             bany a2, a3, t2\nj end\nt2: addi a4, a4, 1\n\
             movi a5, 0b0001\nbnone a2, a5, t3\nj end\nt3: addi a4, a4, 1\n\
             end: halt",
        )?;
        assert_eq!(s.reg(r(4)), 3);
        Ok(())
    }

    #[test]
    fn invalid_pc_detected() -> TestResult {
        assert_eq!(run_to_error("nop\nnop\n")?, SimError::InvalidPc(8));
        Ok(())
    }

    #[test]
    fn l32r_reads_literal() -> TestResult {
        let s = run_to_halt(".data\nk: .word 0xcafef00d\n.text\nl32r a2, k\nhalt")?;
        assert_eq!(s.reg(r(2)), 0xcafe_f00d);
        Ok(())
    }
}
