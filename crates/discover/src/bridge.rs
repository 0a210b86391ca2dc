//! From report to design space: rewriting workloads and feeding `emx-dse`.
//!
//! The bridge closes the discovery loop. Given a parsed
//! [`Report`] and the base workload it was mined
//! from, [`apply`] produces a *derived* workload in which each selected
//! candidate's sites are collapsed — the fused instructions are deleted
//! and the site's anchor is replaced by one custom-instruction slot —
//! and [`candidate_space`] wraps the top candidates as an
//! [`emx_dse::CandidateSpace`] so the existing explorer prices every
//! subset of discovered instructions exactly like hand-written ones.
//!
//! # Rewrite soundness
//!
//! Site legality (checked at mining time, see [`crate::mine`]) makes the
//! per-site rewrite semantics-preserving: every value a non-member reads
//! is still produced at or before the point it is read, and the pattern's
//! only visible GPR def is the anchor's. Composing *disjoint* sites is
//! then also sound — elided member defs are, by construction, never
//! consumed outside their own pattern, so relocating them to their anchor
//! cannot change what another site reads. The claimer enforces
//! disjointness: sites are claimed greedily in candidate rank order and a
//! site is skipped if any member is already claimed.
//!
//! One hazard survives by design: a program that materializes a *text*
//! address (jump table, computed call) would break when compaction moves
//! code. Direct jumps, calls, branches, the entry point and text-range
//! symbols are all remapped; `l32r` literals live in the data segment and
//! are untouched; but an address cooked into data words cannot be found
//! statically. The discovery pipeline therefore re-simulates every
//! reported candidate's rewritten workload and drops any that fails
//! functional verification (see `rejected_check` in the funnel).

use std::collections::BTreeMap;
use std::rc::Rc;

use emx_dse::{CandidateSpace, DesignOption, Selection, MAX_OPTIONS};
use emx_isa::{layout, CustomSlot, Format, Inst, Program, Reg};
use emx_tie::lang::parse_extension;
use emx_tie::ExtensionSet;
use emx_workloads::Workload;

use crate::report::{Candidate, Report, Site};

/// Does this base-instruction format carry a *code* target that must be
/// remapped when instructions are deleted? (`l32r`'s target is a data
/// address; `jx`/`callx`/`ret` compute their target at run time.)
fn has_code_target(format: Format) -> bool {
    matches!(
        format,
        Format::Target | Format::BranchRr | Format::BranchRz | Format::BranchRi
    )
}

/// Rewrites `base` by applying the given candidates' sites.
///
/// Sites are claimed greedily in the order `picked` lists them (rank
/// order, when called from [`candidate_space`]); overlapping sites lose
/// to earlier claims. Non-anchor members are deleted, anchors become
/// custom slots, and all surviving code targets, the entry point and
/// text-segment symbols are remapped to the compacted layout. The
/// extension sets of the surviving original instructions and the applied
/// candidates are composed into one set (states unify by name).
///
/// Returns `base.clone()` when no site of any candidate applies.
///
/// # Errors
///
/// Returns a message when a site references instructions outside the
/// program, a candidate's TIE source fails to parse, or composition
/// fails (duplicate mnemonic / conflicting state widths).
pub fn apply(base: &Workload, picked: &[&Candidate]) -> Result<Workload, String> {
    let sets = picked
        .iter()
        .map(|cand| {
            parse_extension(&cand.tie)
                .map_err(|e| format!("candidate `{}` failed to parse: {e}", cand.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let parsed: Vec<(&Candidate, &ExtensionSet)> = picked.iter().copied().zip(&sets).collect();
    rewrite(base, &parsed)
}

/// Greedy non-overlapping site claiming over a `len`-instruction
/// program: walks the tagged candidates in order and claims every site
/// none of whose members an earlier claim took. Returns each claimed
/// site with its candidate's tag. [`rewrite`] applies exactly these
/// sites, and a discovered space's dominance key is the set of
/// candidates that claim at least one, so the two cannot disagree about
/// which sites apply.
fn claim<'c>(
    len: usize,
    picked: impl IntoIterator<Item = (usize, &'c Candidate)>,
) -> Result<Vec<(usize, &'c Site)>, String> {
    let mut occupied = vec![false; len];
    let mut claims = Vec::new();
    for (tag, cand) in picked {
        for site in &cand.sites {
            if site.members.is_empty() || site.members.iter().any(|&m| m >= len) {
                return Err(format!(
                    "candidate `{}` has a site outside the {len}-instruction program",
                    cand.name
                ));
            }
            if site.members.iter().any(|&m| occupied[m]) {
                continue;
            }
            for &m in &site.members {
                occupied[m] = true;
            }
            claims.push((tag, site));
        }
    }
    Ok(claims)
}

/// [`apply`] over candidates whose TIE sources are already parsed: each
/// candidate comes with its compiled extension set.
fn rewrite(base: &Workload, picked: &[(&Candidate, &ExtensionSet)]) -> Result<Workload, String> {
    let program = base.program();
    let text = program.text();
    let n = text.len();

    let applications = claim(n, picked.iter().map(|&(cand, _)| cand).enumerate())?;
    if applications.is_empty() {
        return Ok(base.clone());
    }

    let mut keep = vec![true; n];
    let mut anchor_of: BTreeMap<usize, (usize, &Site)> = BTreeMap::new();
    for &(ci, site) in &applications {
        let (anchor, elided) = site.members.split_last().expect("sites are non-empty");
        for &m in elided {
            keep[m] = false;
        }
        anchor_of.insert(*anchor, (ci, site));
    }

    // Which of the base extension's instructions survive the rewrite.
    let mut orig_names: Vec<String> = Vec::new();
    for (i, inst) in text.iter().enumerate() {
        if !keep[i] || anchor_of.contains_key(&i) {
            continue;
        }
        if let Inst::Custom(c) = inst {
            let spec = base
                .ext()
                .get(c.id)
                .ok_or_else(|| format!("program uses unknown custom id {}", c.id))?;
            if !orig_names.iter().any(|s| s == spec.name()) {
                orig_names.push(spec.name().to_owned());
            }
        }
    }
    orig_names.sort();

    // Compose one extension set from the applied candidates.
    let applied: Vec<(&Candidate, &ExtensionSet)> = {
        let mut seen: Vec<usize> = applications.iter().map(|&(ci, _)| ci).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.into_iter().map(|ci| picked[ci]).collect()
    };
    let suffix: String = applied
        .iter()
        .map(|(cand, _)| format!("+{}", cand.name))
        .collect();
    let orig_name_refs: Vec<&str> = orig_names.iter().map(String::as_str).collect();
    let cand_name_slices: Vec<[&str; 1]> = applied
        .iter()
        .map(|(cand, _)| [cand.name.as_str()])
        .collect();
    let mut picks: Vec<(&ExtensionSet, &[&str])> = vec![(base.ext(), &orig_name_refs)];
    for (&(_, set), names) in applied.iter().zip(&cand_name_slices) {
        picks.push((set, names));
    }
    let composed = ExtensionSet::compose(format!("{}{suffix}", base.name()), &picks)
        .map_err(|e| format!("extension composition failed: {e}"))?;
    let id_of = |name: &str| {
        composed
            .by_name(name)
            .map(|i| i.id())
            .ok_or_else(|| format!("`{name}` missing from composed extension set"))
    };

    // Compacted index of the first retained instruction at or after `i`.
    let mut prefix = vec![0usize; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + usize::from(keep[i]);
    }
    let text_base = program.text_base();
    let remap_addr = |addr: u32| -> Result<u32, String> {
        let off = addr.wrapping_sub(text_base);
        let idx = (off / layout::INST_BYTES) as usize;
        if !off.is_multiple_of(layout::INST_BYTES) || idx >= n {
            return Err(format!("code target 0x{addr:x} outside the text segment"));
        }
        Ok(text_base + (prefix[idx] as u32) * layout::INST_BYTES)
    };

    let mut new_text: Vec<Inst> = Vec::with_capacity(prefix[n]);
    for (i, inst) in text.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        if let Some(&(ci, site)) = anchor_of.get(&i) {
            new_text.push(Inst::Custom(CustomSlot {
                id: id_of(&picked[ci].0.name)?,
                rd: Reg::new(site.rd),
                rs: Reg::new(site.rs),
                rt: Reg::new(site.rt),
                imm: 0,
            }));
            continue;
        }
        new_text.push(match inst {
            Inst::Base(b) => {
                let mut b = *b;
                if has_code_target(b.op.format()) {
                    b.target = remap_addr(b.target)?;
                }
                Inst::Base(b)
            }
            Inst::Custom(c) => {
                let name = base.ext().get(c.id).expect("checked above").name();
                Inst::Custom(CustomSlot {
                    id: id_of(name)?,
                    ..*c
                })
            }
        });
    }

    let text_end = text_base + (n as u32) * layout::INST_BYTES;
    let entry = remap_addr(program.entry())?;
    let symbols: BTreeMap<String, u32> = program
        .symbols()
        .iter()
        .map(|(name, &addr)| {
            let addr = if addr >= text_base && addr < text_end && addr % layout::INST_BYTES == 0 {
                remap_addr(addr)?
            } else {
                addr
            };
            Ok((name.clone(), addr))
        })
        .collect::<Result<_, String>>()?;

    let rewritten = Program::new(
        new_text,
        text_base,
        program.data().to_vec(),
        program.data_base(),
        entry,
        symbols,
    );
    Ok(Workload::from_parts(
        format!("{}{suffix}", base.name()),
        format!(
            "{} with discovered instructions{suffix}",
            base.description()
        ),
        rewritten,
        composed,
        base.checks().to_vec(),
    ))
}

/// Builds an [`emx_dse::CandidateSpace`] from a report's top candidates.
///
/// The space's options are the report's first `top` candidates (capped
/// at [`MAX_OPTIONS`]), each parsed once into its option's extension set;
/// its resolver rewrites the base workload with exactly the selected
/// subset, claiming sites in rank order and composing from those parsed
/// sets, so enumerating `2^top` subsets parses no TIE source again. Its
/// dominance key is the bitmask of the selected candidates that claim at
/// least one site (the same claim the rewrite makes): the rewritten
/// workload's name lists exactly those candidates, so the enumerator
/// rewrites only the subsets that survive pruning. The
/// explorer's `base` point is the unmodified workload, so the discovered
/// space prices the hand-written extension configuration as-is alongside
/// every discovered subset.
///
/// # Errors
///
/// Returns a message when the report's workload is not in the registry,
/// a candidate's TIE source fails to parse, or any single candidate
/// fails to apply cleanly (pre-validated here so the resolver closure
/// cannot fail later).
pub fn candidate_space(report: &Report, top: usize) -> Result<CandidateSpace, String> {
    let base = emx_workloads::registry::by_name(&report.workload)
        .ok_or_else(|| format!("unknown workload `{}`", report.workload))?;
    let chosen: Vec<Candidate> = report
        .candidates
        .iter()
        .take(top.min(MAX_OPTIONS))
        .cloned()
        .collect();

    let mut options = Vec::with_capacity(chosen.len());
    for cand in &chosen {
        let ext = parse_extension(&cand.tie)
            .map_err(|e| format!("candidate `{}` failed to parse: {e}", cand.name))?;
        // Pre-validate: every single-candidate rewrite must succeed, so
        // the (infallible) resolver below can only hit the multi-select
        // compose path, which cannot fail for same-origin candidates.
        rewrite(&base, &[(cand, &ext)])?;
        options.push(DesignOption {
            name: cand.name.clone(),
            ext,
        });
    }

    // The selected candidates in rank order, with their ranks. Options
    // are declared in rank order, so rank `i` is option bit `i`.
    fn selected<'c>(
        chosen: &'c [Candidate],
        sel: &Selection<'_>,
    ) -> impl Iterator<Item = (usize, &'c Candidate)> {
        let mask = sel.mask();
        chosen
            .iter()
            .enumerate()
            .filter(move |&(i, _)| mask & (1 << i) != 0)
    }
    let chosen = Rc::new(chosen);
    let len = base.program().len();
    let key = {
        let chosen = Rc::clone(&chosen);
        move |sel: &Selection<'_>| {
            claim(len, selected(&chosen, sel))
                .expect("pre-validated candidate failed to apply")
                .into_iter()
                .fold(0u64, |key, (rank, _)| key | 1 << rank)
        }
    };
    let space_name = format!("discovered:{}", report.workload);
    Ok(CandidateSpace::new(space_name, options, key, move |sel| {
        let picked: Vec<(&Candidate, &ExtensionSet)> = selected(&chosen, sel)
            .zip(sel.options())
            .map(|((_, cand), option)| (cand, &option.ext))
            .collect();
        rewrite(&base, &picked).expect("pre-validated candidate failed to apply")
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Site;
    use emx_sim::{Interp, ProcConfig};

    fn run_and_verify(w: &Workload) {
        let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
        let r = sim.run(50_000_000).expect("workload simulates");
        assert!(r.halted, "workload must halt");
        w.verify(sim.state()).unwrap();
    }

    /// A candidate that fuses `x*y` then `+z` into one instruction, with
    /// a hand-placed site over a tiny synthetic workload.
    fn muladd_candidate(members: Vec<usize>, rs: u8, rt: u8, rd: u8) -> Candidate {
        Candidate {
            name: "ci1".to_owned(),
            tie: "extension ci1 {\n    inst ci1(g0: gpr(32), g1: gpr(32), out d: gpr) {\n        \
                  v0 : 32 = g0 * g1;\n        v1 : 32 = v0 + g0;\n        d = v1;\n    }\n}\n"
                .to_owned(),
            latency: 2,
            area: 0.0,
            op_nodes: 2,
            base_cost: 2,
            weight: 1,
            saved_cycles_est: 0,
            sites: vec![Site {
                members,
                rs,
                rt,
                rd,
                weight: 1,
            }],
        }
    }

    fn tiny_workload() -> Workload {
        // a2 = 7, a3 = 5; a4 = a2*a3; a5 = a4+a2; store a5.
        Workload::assemble(
            "tiny",
            "mul-add micro-benchmark",
            ExtensionSet::empty(),
            "    .text\n    movi a2, 7\n    movi a3, 5\n    \
             mul a4, a2, a3\n    add a5, a4, a2\n    movi a6, 0x40000\n    s32i a5, 0(a6)\n    halt\n",
            vec![emx_workloads::MemCheck {
                addr: 0x40000,
                expected: 42,
            }],
        )
    }

    #[test]
    fn apply_rewrites_and_preserves_semantics() {
        let base = tiny_workload();
        let cand = muladd_candidate(vec![2, 3], 2, 3, 5);
        let w = apply(&base, &[&cand]).unwrap();
        assert_eq!(w.program().len(), base.program().len() - 1);
        assert_eq!(w.name(), "tiny+ci1");
        run_and_verify(&w);
    }

    #[test]
    fn apply_remaps_branch_targets_past_deleted_members() {
        // Loop twice over the fused pair; the backward branch target must
        // survive compaction.
        let base = Workload::assemble(
            "loopy",
            "looped mul-add",
            ExtensionSet::empty(),
            "    .text\n    movi a2, 7\n    movi a3, 5\n    \
             movi a7, 2\nloop:\n    mul a4, a2, a3\n    add a5, a4, a2\n    addi a7, a7, -1\n    \
             bnez a7, loop\n    movi a6, 0x40000\n    s32i a5, 0(a6)\n    halt\n",
            vec![emx_workloads::MemCheck {
                addr: 0x40000,
                expected: 42,
            }],
        );
        let cand = muladd_candidate(vec![3, 4], 2, 3, 5);
        let w = apply(&base, &[&cand]).unwrap();
        run_and_verify(&w);
    }

    #[test]
    fn apply_with_no_candidates_returns_the_base() {
        let base = tiny_workload();
        let w = apply(&base, &[]).unwrap();
        assert_eq!(w.name(), "tiny");
        assert_eq!(w.program().len(), base.program().len());
    }

    #[test]
    fn overlapping_sites_lose_to_earlier_claims() {
        let base = tiny_workload();
        let a = muladd_candidate(vec![2, 3], 2, 3, 5);
        let mut b = muladd_candidate(vec![3, 4], 4, 2, 5);
        b.name = "ci2".to_owned();
        b.tie = b.tie.replace("ci1", "ci2");
        let w = apply(&base, &[&a, &b]).unwrap();
        // Only `a` applies; `b`'s site shares member 3.
        assert_eq!(w.name(), "tiny+ci1");
        run_and_verify(&w);
    }
}
