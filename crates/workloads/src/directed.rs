//! Directed training-case generator: loop programs synthesized to excite
//! chosen macro-model variable *pairs* at chosen intensity ratios.
//!
//! The hand-written characterization suite gives every variable signal,
//! but `emx-coverage`'s excitation analyzer shows where that signal is
//! thin: sole-source variables (one program away from a singular fold),
//! weakly-excited structural categories, and column pairs that only ever
//! move in lockstep. This module closes those gaps mechanically. Each
//! generated workload is a small LCG-scrambled loop whose body interleaves
//! a **primary** stimulus block (exciting the gap variable) with a
//! **partner** block at a contrasting repeat ratio — the pairwise covering
//! design of `emx_coverage::plan`:
//!
//! * repeating a primary across several partners breaks sole-source
//!   columns without creating a new lockstep pair,
//! * contrasting ratios ((3,1) vs (1,3)) against a *correlated* partner
//!   add exactly the rows where the two columns move differently,
//! * custom-hardware stimuli instantiate minimal single-category
//!   extensions at an index-selected bit-width, so each directed case
//!   also probes a different point on the complexity axis `f(C)`. Each
//!   is a TIE snippet at that width; a case splices its stimuli's
//!   snippets into one `extension` block for `emx_tie::lang`.
//!
//! Two variables are realized as whole-program shapes rather than blocks:
//! `beta_ucf` moves the program into the uncached fetch region, and
//! `beta_icm` builds a loop body larger than the I-cache *out of partner
//! blocks* (which is what decorrelates I-cache misses from plain
//! arithmetic — the original suite's only I-cache program had a purely
//! arithmetic body).
//!
//! The generator is string-keyed by template-variable name, so
//! `emx-coverage` (which knows names, not simulators) can drive it
//! without a dependency in either direction.

use emx_tie::lang::parse_extension;
use emx_tie::ExtensionSet;

use crate::Workload;

/// One variable's stimulus: assembly block(s) plus optional custom
/// hardware.
struct Stimulus {
    /// Short tag used in the workload name.
    tag: &'static str,
    /// Lines emitted once per loop iteration, before any block.
    loop_setup: &'static str,
    /// The block body; `@` is replaced by a unique instance id so label
    /// definitions stay distinct across repeats.
    block: &'static str,
    /// The TIE declarations (state, table, instructions) of this
    /// stimulus's hardware at the given operand width, spliced into the
    /// case's `extension` block.
    ext: Option<fn(u8) -> String>,
    /// Whether the block calls the shared `dirsub` leaf.
    uses_sub: bool,
}

/// `inst NAME(a: gpr(W), b: gpr(W), out d: gpr) { BODY }`: the shape of
/// most stimuli, two `w`-bit GPR operands and one GPR result.
fn two_in(name: &str, w: u8, body: &str) -> String {
    format!("inst {name}(a: gpr({w}), b: gpr({w}), out d: gpr) {{ {body} }}\n")
}

/// The stimulus catalogue, keyed by template-variable name. Register
/// discipline: `a2` loop counter, `a3` LCG value, `a6`/`a7` per-iteration
/// operands, `a10`/`a11` LCG constants, `a12` always zero (branch
/// helper), `a13` data buffer, `a15` D-miss stride pointer; blocks write
/// only `a4`, `a5`, `a8`, `a9`, `a14`.
fn stimulus(var: &str) -> Option<Stimulus> {
    let s = match var {
        "alpha_A" => Stimulus {
            tag: "arith",
            loop_setup: "",
            block: "add a4, a3, a6\nxor a5, a4, a3\nsub a8, a4, a6\nadd a9, a5, a8\n",
            ext: None,
            uses_sub: false,
        },
        "alpha_L" => Stimulus {
            tag: "load",
            loop_setup: "",
            block: "l32i a4, 0(a13)\nl32i a5, 4(a13)\nl32i a8, 8(a13)\nl32i a9, 12(a13)\n",
            ext: None,
            uses_sub: false,
        },
        "alpha_S" => Stimulus {
            tag: "store",
            loop_setup: "",
            block: "s32i a6, 0(a13)\ns32i a3, 4(a13)\ns32i a6, 8(a13)\n",
            ext: None,
            uses_sub: false,
        },
        "alpha_J" => Stimulus {
            tag: "jump",
            loop_setup: "",
            block: "call dirsub\nj dj@\ndj@:\n",
            ext: None,
            uses_sub: true,
        },
        "alpha_Bt" => Stimulus {
            tag: "brt",
            loop_setup: "",
            block: "beqz a12, dt@a\ndt@a:\nbeqz a12, dt@b\ndt@b:\nbeqz a12, dt@c\ndt@c:\n",
            ext: None,
            uses_sub: false,
        },
        "alpha_Bu" => Stimulus {
            tag: "bru",
            loop_setup: "",
            block: "bnez a12, dend\nbnez a12, dend\nbnez a12, dend\n",
            ext: None,
            uses_sub: false,
        },
        "beta_dcm" => Stimulus {
            tag: "dcm",
            loop_setup: "extui a4, a3, 3, 9\nslli a4, a4, 7\nmovi a15, 0x40000\nadd a15, a15, a4\n",
            block: "l32i a5, 0(a15)\ns32i a5, 64(a15)\naddi a15, a15, 128\n",
            ext: None,
            uses_sub: false,
        },
        "beta_ilk" => Stimulus {
            tag: "ilk",
            loop_setup: "",
            block: "l32i a4, 0(a13)\nadd a5, a4, a4\nl32i a8, 4(a13)\nadd a9, a8, a8\n",
            ext: None,
            uses_sub: false,
        },
        "gamma_CI" => Stimulus {
            tag: "ci",
            loop_setup: "",
            block: "dgadd a4, a3, a6\ndgadd a5, a4, a6\n",
            // GPR-coupled custom add: γ_CI signal with only adder/cmp
            // hardware.
            ext: Some(|w| two_in("dgadd", w, &format!("d : {} = a + b;", (w + 1).min(32)))),
            uses_sub: false,
        },
        "delta_mult" => Stimulus {
            tag: "mul",
            loop_setup: "",
            block: "ddmul a4, a3, a6\nddmul a5, a4, a6\n",
            ext: Some(|w| two_in("ddmul", w, &format!("d : {} = a * b;", (2 * w).min(32)))),
            uses_sub: false,
        },
        "delta_addcmp" => Stimulus {
            tag: "add",
            loop_setup: "",
            block: "ddadd a4, a3, a6\nddadd a5, a4, a6\n",
            ext: Some(|w| {
                let body = format!("m : {w} = minu(a, b); d : {} = m + b;", (w + 1).min(32));
                two_in("ddadd", w, &body)
            }),
            uses_sub: false,
        },
        "delta_logmux" => Stimulus {
            tag: "log",
            loop_setup: "",
            block: "ddxor a4, a3, a6\nddxor a5, a4, a6\n",
            ext: Some(|w| two_in("ddxor", w, &format!("x : {w} = a ^ b; d : {w} = x & a;"))),
            uses_sub: false,
        },
        "delta_shift" => Stimulus {
            tag: "shf",
            loop_setup: "andi a7, a3, 7\n",
            block: "ddshl a4, a3, a7\nddshl a5, a4, a7\n",
            ext: Some(|w| {
                let w = w.max(8);
                format!("inst ddshl(a: gpr({w}), b: gpr(5), out d: gpr) {{ d : {w} = a << b; }}\n")
            }),
            uses_sub: false,
        },
        "delta_creg" => Stimulus {
            tag: "crg",
            loop_setup: "",
            block: "ddspin\nddspin\nddspin\n",
            // State-only spin: custom-register traffic with *zero* γ_CI
            // (no GPR binding), which is what separates δ_creg from the
            // GPR-coupling coefficient. The state is kept wide (≥ 48
            // bits) so the *modeled* per-execution register energy
            // dominates the constant fetch/decode/control overhead that,
            // for a GPR-free instruction, no template variable captures —
            // with a narrow state that unmodeled overhead is a large
            // fraction of the case's energy and the fit degrades.
            ext: Some(|w| {
                let w = 48 + (w % 16);
                format!(
                    "state dspin_s : {w};\n\
                     inst ddspin(s: state(dspin_s), out next: state(dspin_s)) {{ \
                     one : {w} = 1; next : {w} = s + one; }}\n"
                )
            }),
            uses_sub: false,
        },
        "delta_tie_mult" => Stimulus {
            tag: "tmu",
            loop_setup: "",
            block: "ddtmu a4, a3, a6\nddtmu a5, a4, a6\n",
            ext: Some(|w| {
                let p = (2 * w).min(32);
                two_in("ddtmu", w, &format!("d : {p} = tmul(a, b);"))
            }),
            uses_sub: false,
        },
        "delta_tie_mac" => Stimulus {
            tag: "tma",
            loop_setup: "",
            block: "ddtma a4, a3, a6\nddtma a5, a4, a6\n",
            ext: Some(|w| {
                let p = (2 * w).min(32);
                two_in("ddtma", w, &format!("z : {p} = 0; d : {p} = mac(a, b, z);"))
            }),
            uses_sub: false,
        },
        "delta_tie_add" => Stimulus {
            tag: "tad",
            loop_setup: "",
            block: "ddta a4, a3, a6\nddta a5, a4, a6\n",
            ext: Some(|w| {
                let body = format!("c : {w} = 3; d : {} = add3(a, b, c);", (w + 2).min(32));
                two_in("ddta", w, &body)
            }),
            uses_sub: false,
        },
        "delta_tie_csa" => Stimulus {
            tag: "csa",
            loop_setup: "",
            block: "ddcs a4, a3, a6\nddcc a5, a3, a6\n",
            ext: Some(|w| {
                let body = |f: &str| format!("c : {w} = 5; d : {w} = {f}(a, b, c);");
                two_in("ddcs", w, &body("csa_sum")) + &two_in("ddcc", w, &body("csa_carry"))
            }),
            uses_sub: false,
        },
        "delta_table" => Stimulus {
            tag: "tbl",
            loop_setup: "andi a7, a3, 63\n",
            block: "ddtlu a4, a7\nddtlu a5, a4\n",
            // 64-entry table at the index-selected output width.
            ext: Some(|w| {
                let out = w.clamp(4, 16);
                let entries: Vec<String> = (0..64u64)
                    .map(|i| ((i * 37 + u64::from(w) * 11) % (1 << out)).to_string())
                    .collect();
                format!(
                    "table ddtab[64] : {out} = {{ {} }};\n\
                     inst ddtlu(a: gpr(6), out d: gpr) {{ d : {out} = ddtab[a]; }}\n",
                    entries.join(", ")
                )
            }),
            uses_sub: false,
        },
        _ => return None,
    };
    Some(s)
}

/// Operand width for index-varied custom hardware, cycling through the
/// complexity axis.
fn width_for(index: usize) -> u8 {
    [8, 16, 24, 12, 32][index % 5]
}

/// Compiles the merged extension for up to two stimuli (empty when
/// neither needs hardware); a stimulus shared by both is declared once.
fn build_ext(name: &str, width: u8, stims: [&Stimulus; 2]) -> ExtensionSet {
    let mut parts: Vec<String> = Vec::new();
    for tie in stims.iter().filter_map(|s| s.ext) {
        let part = tie(width);
        if !parts.contains(&part) {
            parts.push(part);
        }
    }
    if parts.is_empty() {
        return ExtensionSet::empty();
    }
    let src = format!("extension {name} {{\n{}}}", parts.concat());
    parse_extension(&src).unwrap_or_else(|e| panic!("directed extension `{name}`: {e}"))
}

/// Expands `block` `repeats` times with unique label ids.
fn expand_blocks(block: &str, repeats: u32, next_id: &mut u32) -> String {
    let mut out = String::new();
    for _ in 0..repeats {
        out.push_str(&block.replace('@', &next_id.to_string()));
        *next_id += 1;
    }
    out
}

/// Synthesizes the directed workload for one
/// `emx_coverage::CaseSpec`-shaped request: excite `primary` and
/// `partner` at intensity ratio `weights`, with `index` varying the data
/// seed, iteration count, and custom-hardware width across otherwise
/// identical requests.
///
/// Returns `None` when either variable name is unknown, when
/// `primary == partner`, or when the partner is one of the two
/// whole-program shapes (`beta_icm`, `beta_ucf`) — those can only lead.
pub fn synthesize(
    primary: &str,
    partner: &str,
    weights: (u32, u32),
    index: usize,
) -> Option<Workload> {
    if primary == partner || matches!(partner, "beta_icm" | "beta_ucf") {
        return None;
    }
    let partner_stim = stimulus(partner)?;
    let width = width_for(index);
    let seed = 0x9e37 + 0x61 * index as u32;
    let (w0, w1) = (weights.0.max(1), weights.1.max(1));

    // Whole-program shapes first.
    if primary == "beta_icm" {
        // A loop body larger than the 16 KB I-cache built from partner
        // blocks: every iteration refetches the whole body from memory,
        // so n_icm scales with a *partner-shaped* instruction mix.
        let name = format!("dir_icm_{}_{}{}i{}", partner_stim.tag, w0, w1, index);
        let ext = build_ext(&name, width, [&partner_stim, &partner_stim]);
        let mut body = String::new();
        let mut id = 0;
        let block_lines = partner_stim.block.matches('\n').count().max(1) as u32;
        let instances = (4600 / block_lines).max(1) + 220 * w1;
        body.push_str(&expand_blocks(partner_stim.block, instances, &mut id));
        let src = format!(
            ".data\ndbuf: .space 64\n.text\n\
             movi a10, 1664525\nmovi a11, 1013904223\n\
             movi a2, {iters}\nmovi a3, {seed}\nmovi a12, 0\nmovi a13, dbuf\n\
             loop:\nmul a3, a3, a10\nadd a3, a3, a11\nextui a6, a3, 5, 12\n\
             {setup}{body}addi a2, a2, -1\nbnez a2, loop\ndend:\nhalt\n{sub}",
            iters = 3 + w0,
            setup = partner_stim.loop_setup,
            sub = if partner_stim.uses_sub {
                "dirsub: ret\n"
            } else {
                ""
            },
        );
        let desc = format!("directed: I-cache-sized body of {partner} blocks ({w0}:{w1})");
        return Some(Workload::assemble(&name, &desc, ext, &src, vec![]));
    }

    let uncached = primary == "beta_ucf";
    if uncached {
        // Whole program in the uncached fetch region: n_ucf scales with a
        // partner-shaped mix instead of one fixed checksum kernel.
        let name = format!("dir_ucf_{}_{}{}i{}", partner_stim.tag, w0, w1, index);
        let ext = build_ext(&name, width, [&partner_stim, &partner_stim]);
        let mut id = 0;
        let body = expand_blocks(partner_stim.block, w1, &mut id);
        let src = format!(
            ".uncached\n.data\ndbuf: .space 64\n.text\n\
             movi a10, 1664525\nmovi a11, 1013904223\n\
             movi a2, {iters}\nmovi a3, {seed}\nmovi a12, 0\nmovi a13, dbuf\n\
             loop:\nmul a3, a3, a10\nadd a3, a3, a11\nextui a6, a3, 5, 12\n\
             {setup}{body}addi a2, a2, -1\nbnez a2, loop\ndend:\nhalt\n{sub}",
            iters = 90 + 30 * w0,
            setup = partner_stim.loop_setup,
            sub = if partner_stim.uses_sub {
                "dirsub: ret\n"
            } else {
                ""
            },
        );
        let desc = format!("directed: uncached fetch of {partner} blocks ({w0}:{w1})");
        return Some(Workload::assemble(&name, &desc, ext, &src, vec![]));
    }

    let primary_stim = stimulus(primary)?;
    let iters = 300 + 60 * ((index as u32) % 5);
    let name = format!(
        "dir_{}_{}_{}{}i{}",
        primary_stim.tag, partner_stim.tag, w0, w1, index
    );

    let ext = build_ext(&name, width, [&primary_stim, &partner_stim]);
    let mut id = 0;
    let mut body = expand_blocks(primary_stim.block, w0, &mut id);
    body.push_str(&expand_blocks(partner_stim.block, w1, &mut id));

    let mut setup = String::from(primary_stim.loop_setup);
    if partner_stim.loop_setup != primary_stim.loop_setup {
        setup.push_str(partner_stim.loop_setup);
    }
    let uses_sub = primary_stim.uses_sub || partner_stim.uses_sub;

    let src = format!(
        ".data\ndbuf: .space 64\n.text\n\
         movi a10, 1664525\nmovi a11, 1013904223\n\
         movi a2, {iters}\nmovi a3, {seed}\nmovi a12, 0\nmovi a13, dbuf\n\
         loop:\nmul a3, a3, a10\nadd a3, a3, a11\nextui a6, a3, 5, 12\n\
         {setup}{body}addi a2, a2, -1\nbnez a2, loop\ndend:\nhalt\n{sub}",
        sub = if uses_sub { "dirsub: ret\n" } else { "" },
    );
    let desc = format!("directed: {primary} vs {partner} at {w0}:{w1}");
    Some(Workload::assemble(&name, &desc, ext, &src, vec![]))
}

/// Realizes a list of (primary, partner, weights) specs, numbering them
/// by position (the number feeds the width/seed variation) and skipping
/// specs the generator cannot realize.
pub fn realize(specs: &[(&str, &str, (u32, u32))]) -> Vec<Workload> {
    specs
        .iter()
        .enumerate()
        .filter_map(|(i, (p, q, w))| synthesize(p, q, *w, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_sim::{Interp, ProcConfig};

    fn stats_of(w: &Workload) -> emx_sim::ExecStats {
        let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
        let run = sim
            .run(80_000_000)
            .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
        assert!(run.halted, "{} did not halt", w.name());
        run.stats
    }

    #[test]
    fn unknown_variables_are_declined() {
        assert!(synthesize("no_such_var", "alpha_A", (1, 1), 0).is_none());
        assert!(synthesize("alpha_A", "no_such_var", (1, 1), 0).is_none());
        assert!(synthesize("alpha_A", "alpha_A", (1, 1), 0).is_none());
        assert!(synthesize("delta_mult", "beta_icm", (1, 1), 0).is_none());
    }

    #[test]
    fn every_block_variable_synthesizes_and_halts() {
        for var in [
            "alpha_A",
            "alpha_L",
            "alpha_S",
            "alpha_J",
            "alpha_Bt",
            "alpha_Bu",
            "beta_dcm",
            "beta_ilk",
            "gamma_CI",
            "delta_mult",
            "delta_addcmp",
            "delta_logmux",
            "delta_shift",
            "delta_creg",
            "delta_tie_mult",
            "delta_tie_mac",
            "delta_tie_add",
            "delta_tie_csa",
            "delta_table",
        ] {
            let partner = if var == "alpha_A" {
                "alpha_L"
            } else {
                "alpha_A"
            };
            let w = synthesize(var, partner, (3, 1), 1)
                .unwrap_or_else(|| panic!("{var} must synthesize"));
            stats_of(&w);
        }
    }

    #[test]
    fn primary_stimulus_excites_its_variable() {
        // Spot-check the structural stimuli: the primary's category must
        // be active, at a rate that scales with the weight ratio.
        let w = synthesize("delta_shift", "alpha_L", (3, 1), 0).unwrap();
        let stats = stats_of(&w);
        let shifter = emx_hwlib::Category::Shifter.index();
        assert!(stats.struct_activity[shifter] > 0.0);

        let w = synthesize("delta_tie_mult", "alpha_A", (2, 2), 2).unwrap();
        let stats = stats_of(&w);
        let tmul = emx_hwlib::Category::TieMult.index();
        assert!(stats.struct_activity[tmul] > 0.0);
    }

    #[test]
    fn creg_stimulus_has_no_gpr_coupling() {
        // The δ_creg spin instruction must not count as a GPR-coupled
        // custom cycle — that independence is its whole purpose.
        let w = synthesize("delta_creg", "alpha_S", (3, 1), 0).unwrap();
        let stats = stats_of(&w);
        let creg = emx_hwlib::Category::CustomReg.index();
        assert!(stats.struct_activity[creg] > 0.0);
        assert_eq!(stats.ci_gpr_cycles, 0);
    }

    #[test]
    fn ucf_and_icm_shapes_produce_their_events() {
        let w = synthesize("beta_ucf", "alpha_A", (2, 2), 0).unwrap();
        let stats = stats_of(&w);
        assert!(stats.uncached_fetches > 100, "{}", stats.uncached_fetches);

        let w = synthesize("beta_icm", "alpha_L", (1, 3), 0).unwrap();
        let stats = stats_of(&w);
        assert!(stats.icache_misses > 100, "{}", stats.icache_misses);
    }

    #[test]
    fn weights_shift_the_stimulus_ratio() {
        let heavy = stats_of(&synthesize("delta_mult", "alpha_L", (3, 1), 0).unwrap());
        let light = stats_of(&synthesize("delta_mult", "alpha_L", (1, 3), 0).unwrap());
        let mult = emx_hwlib::Category::Multiplier.index();
        let ratio_heavy = heavy.struct_activity[mult] / heavy.class_cycles[1].max(1) as f64;
        let ratio_light = light.struct_activity[mult] / light.class_cycles[1].max(1) as f64;
        assert!(
            ratio_heavy > 2.0 * ratio_light,
            "{ratio_heavy} vs {ratio_light}"
        );
    }

    #[test]
    fn realize_numbers_cases_and_skips_invalid_specs() {
        let specs: [(&str, &str, (u32, u32)); 3] = [
            ("delta_mult", "alpha_A", (3, 1)),
            ("bogus", "alpha_A", (1, 1)),
            ("delta_mult", "alpha_A", (3, 1)),
        ];
        let out = realize(&specs);
        assert_eq!(out.len(), 2);
        // Same spec, different index → different name and width.
        assert_ne!(out[0].name(), out[1].name());
    }
}
