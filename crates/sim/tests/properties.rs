//! Property-based tests for the simulator substrates: memory, caches and
//! the executor against a Rust oracle.

use proptest::prelude::*;

use emx_hwlib::{DfGraph, PrimOp};
use emx_isa::asm::Assembler;
use emx_isa::DynClass;
use emx_sim::{Cache, CacheConfig, ExecStats, Interp, Memory, ProcConfig};
use emx_tie::{ExtensionBuilder, ExtensionSet, InputBind, OutputBind};

/// One custom instruction, `cadd rd, rs, rt`, reading both GPR operands.
fn cadd_ext() -> ExtensionSet {
    let mut ext = ExtensionBuilder::new("cadd");
    let mut g = DfGraph::new();
    let a = g.input("a", 32);
    let b = g.input("b", 32);
    let sum = g.node(PrimOp::Add, 32, &[a, b]).expect("graph");
    g.output(sum);
    ext.instruction("cadd", g)
        .expect("inst")
        .bind_input(InputBind::GprS)
        .expect("bind")
        .bind_input(InputBind::GprT)
        .expect("bind")
        .bind_output(OutputBind::Gpr)
        .expect("bind");
    ext.build().expect("compiles")
}

fn run_stats(ext: &ExtensionSet, src: &str) -> ExecStats {
    let mut asm = Assembler::new();
    ext.register_mnemonics(&mut asm);
    let program = asm.assemble(src).expect("assembles");
    let mut sim = Interp::new(&program, ext, ProcConfig::default());
    sim.run(1_000_000).expect("halts").stats
}

proptest! {
    #[test]
    fn memory_round_trips_any_width(addr in 0u32..0xffff_fff0, v in any::<u32>()) {
        let mut m = Memory::new();
        m.write_u32(addr, v);
        prop_assert_eq!(m.read_u32(addr), v);
        m.write_u16(addr, v as u16);
        prop_assert_eq!(m.read_u16(addr), v as u16);
        m.write_u8(addr, v as u8);
        prop_assert_eq!(m.read_u8(addr), v as u8);
    }

    #[test]
    fn memory_bytes_compose_words(addr in (0u32..0xffff_0000).prop_map(|a| a & !3), v in any::<u32>()) {
        // Little-endian consistency between byte and word views.
        let mut m = Memory::new();
        m.write_u32(addr, v);
        let bytes = v.to_le_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            prop_assert_eq!(m.read_u8(addr + i as u32), b);
        }
    }

    #[test]
    fn cache_hits_after_fill(addrs in proptest::collection::vec(0u32..0x10_0000, 1..64)) {
        let mut c = Cache::new(CacheConfig::paper_default());
        for &a in &addrs {
            c.access(a, false);
            prop_assert!(c.probe(a), "just-filled line must be resident");
            prop_assert!(c.access(a, false).hit, "immediate re-access must hit");
        }
    }

    #[test]
    fn cache_set_occupancy_bounded(addrs in proptest::collection::vec(0u32..0x40_0000, 1..256)) {
        // For any access pattern, at most `ways` of the lines mapping to
        // one set can be simultaneously resident.
        let cfg = CacheConfig { sets: 4, ways: 2, line_bytes: 16 };
        let mut c = Cache::new(cfg);
        for &a in &addrs {
            c.access(a, a % 3 == 0);
        }
        for set in 0..cfg.sets {
            let resident = addrs
                .iter()
                .filter(|&&a| (a / cfg.line_bytes) % cfg.sets == set)
                .map(|&a| a / cfg.line_bytes)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .filter(|&line| c.probe(line * cfg.line_bytes))
                .count();
            prop_assert!(resident <= cfg.ways as usize, "set {set}: {resident} resident");
        }
    }

    #[test]
    fn executor_matches_alu_oracle(a in any::<i32>(), b in any::<i32>()) {
        // Run a straight-line program through the full stack and compare
        // every result against native Rust arithmetic.
        let src = format!(
            "movi a2, {a}\nmovi a3, {b}\nadd a4, a2, a3\nsub a5, a2, a3\n\
             and a6, a2, a3\nor a7, a2, a3\nxor a8, a2, a3\nmul a9, a2, a3\n\
             slt a12, a2, a3\nsltu a13, a2, a3\nmin a14, a2, a3\nmaxu a15, a2, a3\nhalt"
        );
        let program = Assembler::new().assemble(&src).expect("assembles");
        let ext = ExtensionSet::empty();
        let mut sim = Interp::new(&program, &ext, ProcConfig::default());
        sim.run(1_000).expect("halts");
        let r = |i: u8| sim.state().reg(emx_isa::Reg::new(i));
        let (ua, ub) = (a as u32, b as u32);
        prop_assert_eq!(r(4), ua.wrapping_add(ub));
        prop_assert_eq!(r(5), ua.wrapping_sub(ub));
        prop_assert_eq!(r(6), ua & ub);
        prop_assert_eq!(r(7), ua | ub);
        prop_assert_eq!(r(8), ua ^ ub);
        prop_assert_eq!(r(9), ua.wrapping_mul(ub));
        prop_assert_eq!(r(12), u32::from(a < b));
        prop_assert_eq!(r(13), u32::from(ua < ub));
        prop_assert_eq!(r(14), a.min(b) as u32);
        prop_assert_eq!(r(15), ua.max(ub));
    }

    #[test]
    fn shift_semantics_match_oracle(v in any::<u32>(), sh in 0u32..32) {
        let src = format!(
            "movi a2, {v}\nmovi a3, {sh}\nsll a4, a2, a3\nsrl a5, a2, a3\n\
             sra a6, a2, a3\nror a7, a2, a3\nhalt",
            v = v as i32
        );
        let program = Assembler::new().assemble(&src).expect("assembles");
        let ext = ExtensionSet::empty();
        let mut sim = Interp::new(&program, &ext, ProcConfig::default());
        sim.run(1_000).expect("halts");
        let r = |i: u8| sim.state().reg(emx_isa::Reg::new(i));
        prop_assert_eq!(r(4), v << sh);
        prop_assert_eq!(r(5), v >> sh);
        prop_assert_eq!(r(6), ((v as i32) >> sh) as u32);
        prop_assert_eq!(r(7), v.rotate_right(sh));
    }

    #[test]
    fn total_cycles_decompose_for_any_loop(iters in 1u32..60, stride in 1u32..40) {
        // The cycle-accounting identity must hold for arbitrary loops:
        // total = Σ class cycles + per-event penalties + interlocks.
        let src = format!(
            "movi a2, {iters}\nmovi a3, 0x40000\nl:\nl32i a4, 0(a3)\nadd a5, a4, a4\n\
             addi a3, a3, {step}\naddi a2, a2, -1\nbnez a2, l\nhalt",
            step = stride * 4
        );
        let program = Assembler::new().assemble(&src).expect("assembles");
        let ext = ExtensionSet::empty();
        let cfg = ProcConfig::default();
        let mut sim = Interp::new(&program, &ext, cfg.clone());
        let stats = sim.run(10_000_000).expect("halts").stats;
        let expected = stats.base_class_cycles()
            + stats.icache_misses * u64::from(cfg.icache_miss_penalty)
            + stats.dcache_misses * u64::from(cfg.dcache_miss_penalty)
            + stats.uncached_fetches * u64::from(cfg.uncached_fetch_penalty)
            + stats.interlocks
            + stats.custom_cycles;
        prop_assert_eq!(stats.total_cycles, expected);
    }

    #[test]
    fn inserted_nops_count_as_arithmetic_only(
        body in proptest::collection::vec((0u8..6, 2u8..=7, 2u8..=7, 2u8..=7), 1..32),
        slots in proptest::collection::vec(0usize..64, 0..12),
    ) {
        // Metamorphic law: k `nop`s inserted anywhere in straight-line
        // code raise the arithmetic class by exactly k instructions and
        // k cycles, and leave every other class count and every custom
        // count unchanged (interlocks and misses may move; classes not).
        let mut lines: Vec<String> = body
            .iter()
            .map(|&(tag, d, s, t)| match tag {
                0 => format!("add a{d}, a{s}, a{t}"),
                1 => format!("mul a{d}, a{s}, a{t}"),
                2 => format!("l32i a{d}, {}(a8)", 4 * s),
                3 => format!("s32i a{s}, {}(a8)", 4 * t),
                4 => format!("cadd a{d}, a{s}, a{t}"),
                _ => format!("addi a{d}, a{s}, {t}"),
            })
            .collect();
        let program = |lines: &[String]| {
            format!(
                ".data\nbuf: .space 64\n.text\nmovi a8, buf\n{}\nhalt\n",
                lines.join("\n")
            )
        };
        let ext = cadd_ext();
        let before = run_stats(&ext, &program(&lines));
        for &slot in &slots {
            lines.insert(slot % (lines.len() + 1), "nop".to_owned());
        }
        let after = run_stats(&ext, &program(&lines));

        let k = slots.len() as u64;
        let arith = DynClass::Arithmetic;
        prop_assert_eq!(after.count_of(arith), before.count_of(arith) + k);
        prop_assert_eq!(after.cycles_of(arith), before.cycles_of(arith) + k);
        for class in DynClass::ALL.into_iter().filter(|&c| c != arith) {
            prop_assert_eq!(after.count_of(class), before.count_of(class));
        }
        prop_assert_eq!(&after.custom_counts, &before.custom_counts);
        prop_assert_eq!(after.custom_cycles, before.custom_cycles);
    }
}
