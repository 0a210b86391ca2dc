//! Lowering mined patterns into TIE-language extensions.
//!
//! Each legal [`SitePattern`] is emitted as a single-instruction
//! `extension` in the `tie::lang` surface syntax and compiled with the
//! ordinary TIE compiler, so a discovered candidate gets its latency,
//! resource vector and Eq.-4 area through exactly the same pipeline as a
//! hand-written extension. Operations are printed by
//! `lang::print_node` and the extension is laid out by `lang::layout`,
//! the printer's own pieces; this module only chooses names.
//!
//! The emission is *width-exact*: every dataflow node is produced by one
//! pinned assignment (`vK : W = …;`), and references at matching width
//! elaborate as pure aliases. A pattern consisting of one custom
//! instruction therefore synthesizes to a graph isomorphic to the
//! original — identical latency, resource vector, and area — which is
//! what makes the `gf16`/`mac16` ground-truth rediscovery checks exact
//! rather than approximate.
//!
//! The canonical text (emitted under the placeholder name [`CANON_NAME`])
//! doubles as the dedup key: the emission walks members in index order
//! and names parameters, wires and tables in first-use order, so two
//! isomorphic patterns mined at different sites produce byte-identical
//! canonical text.

use std::collections::HashMap;

use emx_hwlib::{LookupTable, NodeDesc, PrimOp};
use emx_isa::{Inst, Opcode};
use emx_tie::{lang, ExtensionSet};

use crate::dag::{BlockDag, Def, Src};
use crate::mine::{ExternalInput, SitePattern};

/// Placeholder instruction/extension name used for canonical emission.
pub const CANON_NAME: &str = "cand";

/// A pattern lowered and compiled as a TIE extension.
#[derive(Debug, Clone)]
pub struct Synthesized {
    /// Canonical TIE text (extension and instruction named
    /// [`CANON_NAME`]) — also the isomorphism dedup key.
    pub tie: String,
    /// Compiler-derived latency in cycles.
    pub latency: u8,
    /// Eq.-4-derived area in net-equivalents ([`emx_dse::area_cost`]).
    pub area: f64,
    /// Combinational component count of the compiled graph.
    pub op_nodes: usize,
}

/// Rewrites a canonical TIE text to use `name` for the extension and its
/// instruction (the inverse of emitting under [`CANON_NAME`]).
pub fn rename(canonical: &str, name: &str) -> String {
    canonical
        .replacen(
            &format!("extension {CANON_NAME} {{"),
            &format!("extension {name} {{"),
            1,
        )
        .replacen(&format!("inst {CANON_NAME}("), &format!("inst {name}("), 1)
}

struct Emitter<'a> {
    dag: &'a BlockDag,
    ext: &'a ExtensionSet,
    /// `(member, out)` → value/param name, for in-pattern producers.
    val: HashMap<(usize, usize), String>,
    /// External GPR source → parameter name (linear: a pattern has at
    /// most two GPR inputs).
    externals: Vec<(Src, String)>,
    /// State name → input parameter name.
    state_params: Vec<(String, String)>,
    /// name → bit width, for alias-vs-coerce decisions.
    width: HashMap<String, u8>,
    /// Deduped tables in first-use order.
    tables: Vec<(Vec<u64>, u8)>,
    stmts: Vec<String>,
    next_v: usize,
}

impl Emitter<'_> {
    fn fresh(&mut self, width: u8) -> String {
        let name = format!("v{}", self.next_v);
        self.next_v += 1;
        self.width.insert(name.clone(), width);
        name
    }

    fn stmt(&mut self, width: u8, expr: &str) -> String {
        let name = self.fresh(width);
        self.stmts.push(format!("{name} : {width} = {expr};"));
        name
    }

    /// Value name for one member operand: an in-pattern producer's value
    /// or an external input's parameter. External state sources resolve
    /// by state *name* — the pattern reads the architectural state value
    /// at the anchor, whoever produced it.
    fn src_name(&self, src: &Src) -> Result<&str, String> {
        if let Src::Node { node, out } = src {
            if let Some(name) = self.val.get(&(*node, *out)) {
                return Ok(name);
            }
            if let Def::State(n) = &self.dag.nodes[*node].defs[*out] {
                return self.state_param(n);
            }
        }
        if let Src::LiveState(n) = src {
            return self.state_param(n);
        }
        self.externals
            .iter()
            .find(|(s, _)| s == src)
            .map(|(_, n)| n.as_str())
            .ok_or_else(|| "operand resolves to neither a member nor an input".to_owned())
    }

    fn state_param(&self, state: &str) -> Result<&str, String> {
        self.state_params
            .iter()
            .find(|(n, _)| n == state)
            .map(|(_, p)| p.as_str())
            .ok_or_else(|| format!("state `{state}` has no input parameter"))
    }

    /// Operand name for a register source of a base member.
    fn reg_name(&self, m: usize, k: usize) -> Result<&str, String> {
        self.src_name(&self.dag.nodes[m].ops[k])
    }

    /// Binds a fresh `width`-bit name to `op` over `args` (value names or
    /// literals); `tables` are the tables a lookup indexes.
    fn node(
        &mut self,
        op: PrimOp,
        width: u8,
        args: &[String],
        tables: &[LookupTable],
    ) -> Result<String, String> {
        let name = self.fresh(width);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let table = |i: usize| self.table_name(tables[i].entries(), tables[i].width());
        let stmt = lang::print_node(&name, op, width, &args, table).map_err(|e| e.message)?;
        self.stmts.push(stmt);
        Ok(name)
    }

    fn emit_base(&mut self, m: usize) -> Result<(), String> {
        let Inst::Base(b) = &self.dag.nodes[m].inst else {
            unreachable!("emit_base on a custom node");
        };
        let reg = |e: &Self, k: usize| e.reg_name(m, k).map(str::to_owned);
        let imm = b.imm as u32;
        // `op(rs, rt)` and `op(rs, constant)`.
        let regs = |e: &Self, op| Ok::<_, String>((op, 32, vec![reg(e, 0)?, reg(e, 1)?]));
        let with =
            |e: &Self, op, k: u32| Ok::<_, String>((op, 32, vec![reg(e, 0)?, k.to_string()]));
        let name = match b.op {
            Opcode::Mov => reg(self, 0)?, // pure wiring: alias the source
            Opcode::Movi => self.stmt(32, &imm.to_string()),
            op => {
                let (prim, width, args) = match op {
                    Opcode::Mul16u => {
                        let slice = PrimOp::Slice { lsb: 0 };
                        let lo_x = self.node(slice, 16, &[reg(self, 0)?], &[])?;
                        let lo_y = self.node(slice, 16, &[reg(self, 1)?], &[])?;
                        (PrimOp::Mul, 32, vec![lo_x, lo_y])
                    }
                    Opcode::Add => regs(self, PrimOp::Add)?,
                    Opcode::Sub => regs(self, PrimOp::Sub)?,
                    Opcode::And => regs(self, PrimOp::And)?,
                    Opcode::Or => regs(self, PrimOp::Or)?,
                    Opcode::Xor => regs(self, PrimOp::Xor)?,
                    Opcode::Sltu => regs(self, PrimOp::CmpLtu)?,
                    Opcode::Mul => regs(self, PrimOp::Mul)?,
                    Opcode::Addi => with(self, PrimOp::Add, imm)?,
                    Opcode::Addmi => with(self, PrimOp::Add, imm << 8)?,
                    Opcode::Andi => with(self, PrimOp::And, imm)?,
                    Opcode::Ori => with(self, PrimOp::Or, imm)?,
                    Opcode::Xori => with(self, PrimOp::Xor, imm)?,
                    Opcode::Sltiu => with(self, PrimOp::CmpLtu, imm)?,
                    Opcode::Slli => with(self, PrimOp::Shl, imm & 31)?,
                    Opcode::Srli => with(self, PrimOp::Shr, imm & 31)?,
                    Opcode::Extui => {
                        let field = PrimOp::Slice {
                            lsb: (imm & 31) as u8,
                        };
                        let len = u32::from(b.len).clamp(1, 32) as u8;
                        (field, len, vec![reg(self, 0)?])
                    }
                    Opcode::Neg => (PrimOp::Sub, 32, vec!["0".to_owned(), reg(self, 0)?]),
                    Opcode::Not => (PrimOp::Not, 32, vec![reg(self, 0)?]),
                    other => return Err(format!("`{other}` has no TIE lowering")),
                };
                self.node(prim, width, &args, &[])?
            }
        };
        self.val.insert((m, 0), name);
        Ok(())
    }

    /// Inline-expands a custom member's compiled graph, node by node.
    fn emit_custom(&mut self, m: usize) -> Result<(), String> {
        let Inst::Custom(slot) = &self.dag.nodes[m].inst else {
            unreachable!("emit_custom on a base node");
        };
        let spec = self
            .ext
            .get(slot.id)
            .ok_or_else(|| format!("unknown custom id {}", slot.id))?;
        let g = spec.graph();
        // Graph-node index → value name.
        let mut local: HashMap<usize, String> = HashMap::new();
        let mut next_input = 0usize;
        for id in g.ids() {
            match g.node_desc(id) {
                NodeDesc::Input { width, .. } => {
                    let k = next_input;
                    next_input += 1;
                    let name = match &self.dag.nodes[m].ops[k] {
                        Src::Imm(v) => {
                            // Bake the encoding immediate in as a constant.
                            let masked = emx_hwlib::mask(*v as u64, width);
                            self.stmt(width, &masked.to_string())
                        }
                        src => {
                            let from = self.src_name(src)?.to_owned();
                            self.coerce(&from, width)
                        }
                    };
                    local.insert(id.index(), name);
                }
                NodeDesc::Const { value, width } => {
                    let name = self.stmt(width, &value.to_string());
                    local.insert(id.index(), name);
                }
                NodeDesc::Op { op, width, inputs } => {
                    let args: Vec<String> =
                        inputs.iter().map(|i| local[&i.index()].clone()).collect();
                    let name = self.node(op, width, &args, g.tables())?;
                    local.insert(id.index(), name);
                }
            }
        }
        // Map the member's outputs (in `output_binds` order) to the names
        // of the graph's designated output nodes.
        for (out, oid) in g.output_ids().iter().enumerate() {
            self.val.insert((m, out), local[&oid.index()].clone());
        }
        Ok(())
    }

    /// References `src` at `want` bits: a pure alias at equal width, or a
    /// pinned alias statement (a zero-lsb slice) otherwise.
    fn coerce(&mut self, src: &str, want: u8) -> String {
        if self.width[src] == want {
            src.to_owned()
        } else {
            let n = self.fresh(want);
            self.stmts.push(format!("{n} : {want} = {src};"));
            n
        }
    }

    fn table_name(&mut self, entries: &[u64], width: u8) -> String {
        let pos = self
            .tables
            .iter()
            .position(|(e, w)| e == entries && *w == width)
            .unwrap_or_else(|| {
                self.tables.push((entries.to_vec(), width));
                self.tables.len() - 1
            });
        format!("t{pos}")
    }
}

/// Emits the pattern as TIE-language text under `name`.
///
/// # Errors
///
/// Returns a message when the pattern contains an instruction the TIE
/// surface language cannot express (the miner's `allowed` predicate
/// should prevent this; an error here is counted as `rejected_synth`).
pub fn emit_tie(
    dag: &BlockDag,
    p: &SitePattern,
    ext: &ExtensionSet,
    name: &str,
) -> Result<String, String> {
    let mut em = Emitter {
        dag,
        ext,
        val: HashMap::new(),
        externals: Vec::new(),
        state_params: Vec::new(),
        width: HashMap::new(),
        tables: Vec::new(),
        stmts: Vec::new(),
        next_v: 0,
    };

    // Parameters, in pattern-input order. GPR params are named g0/g1 and
    // bind the rs/rt operand buses in declaration order; state params
    // are s0, s1, …
    let state_width = |n: &str| -> Result<u8, String> {
        ext.states()
            .iter()
            .find(|s| s.name() == n)
            .map(|s| s.width())
            .ok_or_else(|| format!("unknown state `{n}`"))
    };
    let mut params: Vec<String> = Vec::new();
    let mut used_states: Vec<String> = Vec::new();
    let mut gi = 0usize;
    let mut si = 0usize;
    for input in &p.inputs {
        match input {
            ExternalInput::Gpr(src) => {
                let w = gpr_param_width(dag, p, ext, src)?;
                let pname = format!("g{gi}");
                gi += 1;
                params.push(format!("{pname}: gpr({w})"));
                em.width.insert(pname.clone(), w);
                em.externals.push((src.clone(), pname));
            }
            ExternalInput::State(sname) => {
                let pname = format!("s{si}");
                si += 1;
                params.push(format!("{pname}: state({sname})"));
                em.width.insert(pname.clone(), state_width(sname)?);
                em.state_params.push((sname.clone(), pname));
                if !used_states.contains(sname) {
                    used_states.push(sname.clone());
                }
            }
        }
    }
    for (sname, ..) in &p.state_outputs {
        if !used_states.contains(sname) {
            used_states.push(sname.clone());
        }
    }
    if p.gpr_output.is_some() {
        params.push("out d: gpr".to_owned());
    }
    for (oi, (sname, ..)) in p.state_outputs.iter().enumerate() {
        params.push(format!("out o{oi}: state({sname})"));
    }

    // Emit the members in index order.
    for &m in &p.members {
        match &dag.nodes[m].inst {
            Inst::Base(_) => em.emit_base(m)?,
            Inst::Custom(_) => em.emit_custom(m)?,
        }
    }

    // Output drives (aliases).
    let mut tail: Vec<String> = Vec::new();
    if p.gpr_output.is_some() {
        let anchor = *p.members.last().expect("non-empty pattern");
        let out_idx = dag.nodes[anchor]
            .defs
            .iter()
            .position(|d| matches!(d, Def::Gpr(_)))
            .ok_or_else(|| "anchor has no GPR def".to_owned())?;
        tail.push(format!("d = {};", em.val[&(anchor, out_idx)]));
    }
    for (oi, (_, member, out)) in p.state_outputs.iter().enumerate() {
        tail.push(format!("o{oi} = {};", em.val[&(*member, *out)]));
    }

    let states = used_states
        .iter()
        .map(|s| Ok((s.as_str(), state_width(s)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let tables: Vec<(&[u64], u8)> = em.tables.iter().map(|(e, w)| (e.as_slice(), *w)).collect();
    let stmts = em.stmts.into_iter().chain(tail).collect();
    let inst = (format!("{name}({})", params.join(", ")), stmts);
    Ok(lang::layout(name, &states, &tables, &[inst]))
}

/// Width to declare for an external GPR parameter: the widest width any
/// member consumes it at (32 whenever a base instruction reads it;
/// narrower only when every consumer is a custom-graph input).
fn gpr_param_width(
    dag: &BlockDag,
    p: &SitePattern,
    ext: &ExtensionSet,
    src: &Src,
) -> Result<u8, String> {
    let mut w = 0u8;
    for &m in &p.members {
        for (k, op) in dag.nodes[m].ops.iter().enumerate() {
            if op != src {
                continue;
            }
            let need = match &dag.nodes[m].inst {
                Inst::Base(_) => 32,
                Inst::Custom(slot) => {
                    let spec = ext
                        .get(slot.id)
                        .ok_or_else(|| format!("unknown custom id {}", slot.id))?;
                    let g = spec.graph();
                    g.width(g.input_ids()[k])
                }
            };
            w = w.max(need);
        }
    }
    if w == 0 {
        return Err("external GPR input is never consumed".to_owned());
    }
    Ok(w)
}

/// Emits, compiles and measures one pattern.
///
/// # Errors
///
/// Returns a message when emission or TIE compilation fails; callers
/// count these in the funnel as `rejected_synth`.
pub fn synthesize(
    dag: &BlockDag,
    p: &SitePattern,
    ext: &ExtensionSet,
) -> Result<Synthesized, String> {
    let tie = emit_tie(dag, p, ext, CANON_NAME)?;
    let set = lang::parse_extension(&tie).map_err(|e| e.to_string())?;
    let inst = set
        .by_name(CANON_NAME)
        .ok_or_else(|| "compiled extension lost its instruction".to_owned())?;
    Ok(Synthesized {
        latency: inst.latency(),
        op_nodes: inst.graph().op_nodes().len(),
        area: emx_dse::area_cost(&set),
        tie,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_isa::asm::Assembler;
    use emx_tie::ExtensionSet;

    use crate::mine::{mine_block, Funnel, MineConfig};

    fn mine(src: &str, ext: &ExtensionSet) -> (BlockDag, Vec<SitePattern>) {
        let mut asm = Assembler::new();
        ext.register_mnemonics(&mut asm);
        let p = asm.assemble(src).unwrap();
        let blocks = crate::cfg::basic_blocks(&p, ext, &vec![1; p.len()]);
        let dag = crate::dag::build(&p, ext, &blocks[0]);
        let mut funnel = Funnel::default();
        let found = mine_block(&dag, &MineConfig::default(), &mut funnel);
        (dag, found)
    }

    #[test]
    fn fused_base_chain_computes_the_same_function() {
        let ext = ExtensionSet::empty();
        let (dag, found) = mine("and a4, a2, a3\nxor a5, a4, a3\ns32i a5, 0(a1)\nhalt", &ext);
        let p = found.iter().find(|p| p.members == vec![0, 1]).unwrap();
        let s = synthesize(&dag, p, &ext).unwrap();
        let set = lang::parse_extension(&s.tie).unwrap();
        let inst = set.by_name(CANON_NAME).unwrap();
        let mut st = set.initial_state();
        let got = inst.execute(0xffff_00ff, 0x0f0f_0f0f, 0, &mut st).unwrap();
        assert_eq!(got.gpr, Some((0xffff_00ff & 0x0f0f_0f0f) ^ 0x0f0f_0f0f));
    }

    #[test]
    fn gfmul_identity_pattern_is_isomorphic_to_gf16() {
        let ext = emx_workloads::exts::gf16();
        let (dag, found) = mine("gfmul a4, a2, a3\ns32i a4, 0(a1)\nhalt", &ext);
        let p = found.iter().find(|p| p.members == vec![0]).unwrap();
        let s = synthesize(&dag, p, &ext).unwrap();
        let hand = ext.by_name("gfmul").unwrap();
        let mined = lang::parse_extension(&s.tie).unwrap();
        let inst = mined.by_name(CANON_NAME).unwrap();
        assert_eq!(inst.latency(), hand.latency());
        assert_eq!(inst.resource_vector(), hand.resource_vector());
        assert_eq!(s.area, emx_dse::area_cost(&ext));
        // Same function, too.
        let mut st = mined.initial_state();
        for a in 0..16u32 {
            for b in 0..16u32 {
                let got = inst.execute(a, b, 0, &mut st).unwrap().gpr;
                let want = u64::from(emx_workloads::gf::mul(a as u8, b as u8));
                assert_eq!(got, Some(want), "gf16 {a}*{b}");
            }
        }
    }

    #[test]
    fn mac_identity_pattern_matches_mac16() {
        let ext = emx_workloads::exts::mac16();
        let (dag, found) = mine("mac a2, a3\nhalt", &ext);
        let p = found.iter().find(|p| p.members == vec![0]).unwrap();
        let s = synthesize(&dag, p, &ext).unwrap();
        let hand = ext.by_name("mac").unwrap();
        let mined = lang::parse_extension(&s.tie).unwrap();
        let inst = mined.by_name(CANON_NAME).unwrap();
        assert_eq!(inst.latency(), hand.latency());
        assert_eq!(inst.resource_vector(), hand.resource_vector());
    }

    #[test]
    fn rename_swaps_both_name_sites() {
        let t =
            "extension cand {\n    inst cand(g0: gpr(32), out d: gpr) {\n        d = g0;\n    }\n}";
        let r = rename(t, "ci1");
        assert!(r.contains("extension ci1 {"));
        assert!(r.contains("inst ci1(g0"));
        assert!(!r.contains("cand"));
    }
}
