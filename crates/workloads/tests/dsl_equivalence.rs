//! Differential tests: independently written TIE sources must behave
//! identically to the library definitions in `exts` — same architectural
//! results and same per-execution resource accounting, so the energy flow
//! cannot tell them apart.

use emx_tie::lang::parse_extension;
use emx_workloads::{exts, gf};

#[test]
fn dsl_mac16_matches_builder_mac16() {
    let dsl = parse_extension(
        "extension mac16 {
            state acc : 40;
            inst mac(a: gpr(16), b: gpr(16), acc_in: state(acc), out acc_out: state(acc)) {
                acc_out = mac(a, b, acc_in);
            }
            inst rdacc(acc_in: state(acc), out d: gpr) {
                d = slice(acc_in, 0, 32);
            }
            inst clracc(out acc_out: state(acc)) {
                acc_out : 40 = 0;
            }
        }",
    )
    .expect("parses");
    let built = exts::mac16();

    // Same instruction inventory and latencies.
    assert_eq!(dsl.len(), built.len());
    for inst in &built {
        let other = dsl.by_name(inst.name()).expect("same mnemonics");
        assert_eq!(other.latency(), inst.latency(), "{}", inst.name());
        assert_eq!(other.signature(), inst.signature(), "{}", inst.name());
        assert_eq!(
            other.resource_vector(),
            inst.resource_vector(),
            "{} resources",
            inst.name()
        );
    }

    // Same architectural behaviour over a data sweep.
    let mut s1 = dsl.initial_state();
    let mut s2 = built.initial_state();
    for k in 0..200u32 {
        let (a, b) = (k.wrapping_mul(2654435761) & 0xffff, (k * 77 + 13) & 0xffff);
        dsl.by_name("mac")
            .expect("exists")
            .execute(a, b, 0, &mut s1)
            .expect("runs");
        built
            .by_name("mac")
            .expect("exists")
            .execute(a, b, 0, &mut s2)
            .expect("runs");
    }
    assert_eq!(s1, s2);
    let r1 = dsl
        .by_name("rdacc")
        .expect("exists")
        .execute(0, 0, 0, &mut s1)
        .expect("runs");
    let r2 = built
        .by_name("rdacc")
        .expect("exists")
        .execute(0, 0, 0, &mut s2)
        .expect("runs");
    assert_eq!(r1.gpr, r2.gpr);
}

#[test]
fn dsl_gfmul_matches_builder_gfmul() {
    let log: Vec<String> = gf::log_table().iter().map(|v| v.to_string()).collect();
    let exp: Vec<String> = gf::exp_table().iter().map(|v| v.to_string()).collect();
    let dsl = parse_extension(&format!(
        "extension gf16 {{
            table logt[16] : 4 = {{ {} }};
            table expt[32] : 4 = {{ {} }};
            inst gfmul(a: gpr(4), b: gpr(4), out d: gpr) {{
                la = logt[a];
                lb = logt[b];
                s : 5 = la + lb;
                p = expt[s];
                nz = redor(a) & redor(b);
                d : 4 = mux(nz, p, 0);
            }}
        }}",
        log.join(", "),
        exp.join(", ")
    ))
    .expect("parses");
    let built = exts::gf16();

    let d = dsl.by_name("gfmul").expect("exists");
    let b = built.by_name("gfmul").expect("exists");
    assert_eq!(d.resource_vector(), b.resource_vector());
    assert_eq!(d.latency(), b.latency());

    let mut s1 = dsl.initial_state();
    let mut s2 = built.initial_state();
    for x in 0..16u32 {
        for y in 0..16u32 {
            let r1 = d.execute(x, y, 0, &mut s1).expect("runs").gpr;
            let r2 = b.execute(x, y, 0, &mut s2).expect("runs").gpr;
            assert_eq!(r1, r2, "{x}⊗{y}");
            assert_eq!(r1.map(|v| v as u8), Some(gf::mul(x as u8, y as u8)));
        }
    }
}

#[test]
fn dsl_extension_runs_through_the_full_energy_flow() {
    // A DSL-defined extension must be estimable exactly like a built one.
    use emx_isa::asm::Assembler;
    use emx_rtlpower::RtlEnergyEstimator;
    use emx_sim::ProcConfig;

    let ext = parse_extension(
        "extension sad {
            state total : 32;
            inst sadacc(a: gpr, b: gpr, t_in: state(total), out t_out: state(total)) {
                lt = ltu(a, b);
                d1 = a - b;
                d2 = b - a;
                ad = mux(lt, d2, d1);
                t_out : 32 = t_in + ad;
            }
            inst rdsad(t_in: state(total), out d: gpr) {
                d = t_in;
            }
        }",
    )
    .expect("parses");

    let mut asm = Assembler::new();
    ext.register_mnemonics(&mut asm);
    let program = asm
        .assemble(
            "movi a2, 50\nmovi a3, 1000\nmovi a4, 977\nloop:\nsadacc a3, a4\n\
             addi a3, a3, 3\naddi a4, a4, 5\naddi a2, a2, -1\nbnez a2, loop\n\
             rdsad a5\nhalt",
        )
        .expect("assembles");

    let report = RtlEnergyEstimator::new()
        .estimate(&program, &ext, ProcConfig::default())
        .expect("estimates");
    assert!(report.breakdown.custom.as_picojoules() > 0.0);
    assert!(report.stats.custom_counts.iter().sum::<u64>() == 51);
}
