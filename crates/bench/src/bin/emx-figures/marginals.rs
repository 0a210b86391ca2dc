//! Controlled-pair measurement of marginal event costs in the reference
//! model: program pairs that differ in exactly one event kind isolate
//! that event's true energy (the ground truth the fitted Table I
//! coefficients should approach). Useful when auditing the suite or the
//! substrate parameters.
use emx_isa::asm::Assembler;
use emx_rtlpower::RtlEnergyEstimator;
use emx_sim::{Interp, ProcConfig};
use emx_tie::ExtensionSet;

fn measure(src: &str) -> (f64, emx_sim::ExecStats) {
    let p = Assembler::new().assemble(src).unwrap();
    let ext = ExtensionSet::empty();
    let mut sim = Interp::new(&p, &ext, ProcConfig::default());
    let stats = sim.run(100_000_000).unwrap().stats;
    let e = RtlEnergyEstimator::new()
        .estimate(&p, &ext, ProcConfig::default())
        .unwrap()
        .total
        .as_picojoules();
    (e, stats)
}

pub fn run() {
    // Interlock pair: same instructions, hazard broken by reordering.
    let with = ".data\nv: .word 3, 4\n.text\nmovi a2, 2000\nmovi a3, v\nl:\n\
                l32i a4, 0(a3)\nadd a5, a4, a4\nl32i a6, 4(a3)\nadd a7, a6, a6\n\
                addi a2, a2, -1\nbnez a2, l\nhalt";
    let without = ".data\nv: .word 3, 4\n.text\nmovi a2, 2000\nmovi a3, v\nl:\n\
                l32i a4, 0(a3)\nl32i a6, 4(a3)\nadd a5, a4, a4\nadd a7, a6, a6\n\
                addi a2, a2, -1\nbnez a2, l\nhalt";
    let (e1, s1) = measure(with);
    let (e2, s2) = measure(without);
    println!("interlocks: {} vs {}", s1.interlocks, s2.interlocks);
    println!("cycles:     {} vs {}", s1.total_cycles, s2.total_cycles);
    println!(
        "marginal interlock cost = {:.1} pJ",
        (e1 - e2) / (s1.interlocks as f64 - s2.interlocks as f64)
    );

    // Untaken branch pair: padding with untaken branches vs nops.
    let with = "movi a2, 2000\nmovi a3, 5\nl:\nbeqi a3, 9, x\nbnei a3, 5, x\nblti a3, 0, x\n\
                add a4, a3, a3\naddi a2, a2, -1\nbnez a2, l\nx: halt";
    let without = "movi a2, 2000\nmovi a3, 5\nl:\nnop\nnop\nnop\n\
                add a4, a3, a3\naddi a2, a2, -1\nbnez a2, l\nx: halt";
    let (e1, s1) = measure(with);
    let (e2, s2) = measure(without);
    let bu1 = s1.class_cycles[emx_isa::DynClass::BranchUntaken.index()];
    let bu2 = s2.class_cycles[emx_isa::DynClass::BranchUntaken.index()];
    println!("\nuntaken cycles: {bu1} vs {bu2}");
    println!(
        "marginal untaken-vs-nop cost = {:.1} pJ (nop itself ~?)",
        (e1 - e2) / (bu1 as f64 - bu2 as f64)
    );

    // Jump pair.
    let with = "movi a2, 2000\nl:\nj s1\ns1:\nj s2\ns2:\nadd a4, a2, a2\naddi a2, a2, -1\nbnez a2, l\nhalt";
    let without = "movi a2, 2000\nl:\nnop\nnop\nadd a4, a2, a2\naddi a2, a2, -1\nbnez a2, l\nhalt";
    let (e1, s1) = measure(with);
    let (e2, s2) = measure(without);
    let j1 = s1.class_cycles[emx_isa::DynClass::Jump.index()];
    let j2 = s2.class_cycles[emx_isa::DynClass::Jump.index()];
    println!("\njump cycles: {j1} vs {j2}");
    println!(
        "marginal jump-cycle cost = {:.1} pJ/cycle",
        (e1 - e2) / (j1 as f64 - j2 as f64)
    );
}
