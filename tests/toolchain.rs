//! Cross-crate integration tests for the toolchain below the energy
//! flow: assembler → extension compiler → simulator, exercised together
//! through the facade crate.

use emx::prelude::*;

/// Assembles and runs a base-ISA program to halt; returns the simulator.
fn run_base(src: &str) -> Interp<'static> {
    // Leak program/ext so the simulator can borrow them for 'static in a
    // test helper (fine for test lifetime).
    let program: &'static Program =
        Box::leak(Box::new(Assembler::new().assemble(src).expect("assembles")));
    let ext: &'static ExtensionSet = Box::leak(Box::new(ExtensionSet::empty()));
    let mut sim = Interp::new(program, ext, ProcConfig::default());
    sim.run(10_000_000).expect("halts");
    sim
}

#[test]
fn assembler_to_simulator_round_trip() {
    let sim = run_base(
        ".data\nsquares: .space 40\n.text\n\
         movi a2, 0\nloop:\nmul a3, a2, a2\nslli a4, a2, 2\nmovi a5, squares\n\
         add a4, a4, a5\ns32i a3, 0(a4)\naddi a2, a2, 1\nblti a2, 10, loop\nhalt",
    );
    let base = 0x0004_0000;
    for k in 0..10u32 {
        assert_eq!(sim.state().mem.read_u32(base + 4 * k), k * k);
    }
}

#[test]
fn extension_pipeline_end_to_end() {
    // Build an extension, register mnemonics, assemble, execute, and
    // check both the architectural result and the resource accounting.
    let mut ext = ExtensionBuilder::new("swap16");
    let mut g = DfGraph::new();
    let a = g.input("a", 32);
    let lo = g.node(PrimOp::Slice { lsb: 0 }, 16, &[a]).expect("graph");
    let hi = g.node(PrimOp::Slice { lsb: 16 }, 16, &[a]).expect("graph");
    let out = g
        .node(PrimOp::Pack { lsb: 16 }, 32, &[hi, lo])
        .expect("graph");
    g.output(out);
    ext.instruction("hswap", g)
        .expect("inst")
        .bind_input(InputBind::GprS)
        .expect("bind")
        .bind_output(OutputBind::Gpr)
        .expect("bind");
    let ext = ext.build().expect("compiles");

    let mut asm = Assembler::new();
    ext.register_mnemonics(&mut asm);
    let program = asm
        .assemble("movi a2, 0x12345678\nhswap a3, a2\nhalt")
        .expect("assembles");

    let mut sim = Interp::new(&program, &ext, ProcConfig::default());
    let run = sim.run(1_000).expect("halts");
    assert_eq!(sim.state().reg(Reg::new(3)), 0x5678_1234);
    assert_eq!(run.stats.custom_counts, vec![1]);
    assert!(run.stats.struct_activity[Category::LogicMux.index()] > 0.0);
    assert_eq!(
        run.stats.ci_gpr_cycles,
        u64::from(ext.by_name("hswap").expect("exists").latency())
    );
}

#[test]
fn custom_state_persists_across_instructions() {
    let mut ext = ExtensionBuilder::new("counter");
    let cnt = ext.state("cnt", 32).expect("state");

    let mut g = DfGraph::new();
    let c_in = g.input("cnt", 32);
    let one = g.constant(1, 32).expect("graph");
    let inc = g.node(PrimOp::Add, 32, &[c_in, one]).expect("graph");
    g.output(inc);
    ext.instruction("tick", g)
        .expect("inst")
        .bind_input(InputBind::State(cnt))
        .expect("bind")
        .bind_output(OutputBind::State(cnt))
        .expect("bind");

    let mut g = DfGraph::new();
    let c_in = g.input("cnt", 32);
    g.output(c_in);
    ext.instruction("rdtick", g)
        .expect("inst")
        .bind_input(InputBind::State(cnt))
        .expect("bind")
        .bind_output(OutputBind::Gpr)
        .expect("bind");
    let ext = ext.build().expect("compiles");
    assert_eq!(cnt.index(), 0);
    assert_eq!(ext.states()[cnt.index()].name(), "cnt");

    let mut asm = Assembler::new();
    ext.register_mnemonics(&mut asm);
    let program = asm
        .assemble("movi a2, 5\nl:\ntick\naddi a2, a2, -1\nbnez a2, l\nrdtick a3\nhalt")
        .expect("assembles");
    let mut sim = Interp::new(&program, &ext, ProcConfig::default());
    sim.run(10_000).expect("halts");
    assert_eq!(sim.state().reg(Reg::new(3)), 5);
    assert_eq!(sim.state().ext_state()[0], 5);
}

#[test]
fn workload_suite_is_self_checking() {
    // Every workload with checks must pass them; every workload must halt
    // within its budget on the default configuration.
    let mut all = emx::workloads::suite::full_training_suite();
    all.extend(emx::workloads::apps::all());
    all.extend(emx::workloads::reed_solomon::all_configs());
    for w in &all {
        let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
        let run = sim
            .run(200_000_000)
            .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
        assert!(run.halted);
        w.verify(sim.state()).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn every_emitted_schema_is_documented() {
    // Every versioned schema string that appears in source must have a
    // section in docs/SCHEMAS.md — the doc is the contract consumers
    // parse against, so an undocumented schema is a release bug. Only
    // `/1` strings are collected: higher versions in the tree are
    // deliberately-bogus fixtures for version-mismatch tests.
    fn scan(dir: &std::path::Path, found: &mut std::collections::BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                scan(&path, found);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source");
                let bytes = text.as_bytes();
                let mut at = 0;
                while let Some(pos) = text[at..].find("emx.") {
                    let start = at + pos;
                    let mut end = start + 4;
                    while end < bytes.len()
                        && (bytes[end].is_ascii_lowercase() || bytes[end] == b'-')
                    {
                        end += 1;
                    }
                    let name_end = end;
                    if end < bytes.len() && bytes[end] == b'/' {
                        end += 1;
                        while end < bytes.len() && bytes[end].is_ascii_digit() {
                            end += 1;
                        }
                    }
                    if name_end > start + 4 && end > name_end + 1 && &text[name_end..end] == "/1" {
                        found.insert(text[start..end].to_owned());
                    }
                    at = end.max(start + 4);
                }
            }
        }
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut schemas = std::collections::BTreeSet::new();
    scan(&root.join("src"), &mut schemas);
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            scan(&src, &mut schemas);
        }
    }
    assert!(
        schemas.len() >= 6,
        "schema scan broke: only found {schemas:?}"
    );

    let doc = std::fs::read_to_string(root.join("docs/SCHEMAS.md")).expect("docs/SCHEMAS.md");
    let undocumented: Vec<_> = schemas
        .iter()
        .filter(|schema| !doc.contains(schema.as_str()))
        .collect();
    assert!(
        undocumented.is_empty(),
        "schemas missing from docs/SCHEMAS.md: {undocumented:?}"
    );
}

#[test]
fn uncached_programs_pay_the_fetch_penalty() {
    let cached = run_base("movi a2, 100\nl:\naddi a2, a2, -1\nbnez a2, l\nhalt");
    let uncached = run_base(".uncached\nmovi a2, 100\nl:\naddi a2, a2, -1\nbnez a2, l\nhalt");
    let c = cached.stats().total_cycles;
    let u = uncached.stats().total_cycles;
    assert!(u > 3 * c, "uncached {u} vs cached {c}");
    assert_eq!(uncached.stats().icache_misses, 0);
    assert!(uncached.stats().uncached_fetches > 200);
}

/// The per-application rows EXPERIMENTS.md quotes for Table II and
/// Fig. 4 are the numbers `emx-figures` prints, as committed in
/// `golden/figures/` (which CI compares with the binary's output). For a
/// row `| name | n | n | … |`, the golden line starting with `name` must
/// print the row's first `count` numbers: estimate and reference, and
/// for Table II the error too.
#[test]
fn experiments_quotes_the_figure_goldens() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let numbers = |line: &str, count: usize| -> Vec<f64> {
        line.replace('−', "-")
            .split(|c: char| c.is_whitespace() || c == '|')
            .filter_map(|t| t.parse::<f64>().ok())
            .take(count)
            .collect()
    };
    for (section, golden, count) in [("## Table II", "table2", 3), ("## Fig. 4", "fig4", 2)] {
        let path = root.join(format!("tests/golden/figures/{golden}.txt"));
        let golden = std::fs::read_to_string(&path).expect("figure golden");
        let rows = doc
            .split(section)
            .nth(1)
            .expect("section present")
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'));
        let mut checked = 0;
        for row in rows {
            let name = row.split('|').nth(1).unwrap_or("").trim();
            let printed = golden
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name));
            if let Some(line) = printed {
                assert_eq!(
                    numbers(row, count),
                    numbers(line, count),
                    "EXPERIMENTS.md {section}, row `{name}`"
                );
                checked += 1;
            }
        }
        assert!(
            checked >= 4,
            "{section}: only {checked} rows matched the golden"
        );
    }
}
