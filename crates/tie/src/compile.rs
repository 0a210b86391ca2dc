use std::collections::BTreeMap;

use emx_hwlib::{Category, DfGraph, GraphError, OpNodeInfo, PrimOp};
use emx_isa::asm::{Assembler, CustomSignature};
use emx_isa::{CustomId, Opcode};

use crate::spec::{InputBind, OutputBind, StateId, StateReg};
use crate::TieError;

/// Logic levels the compiler budgets per pipeline cycle when deriving
/// instruction latency from the graph's critical path.
const LEVELS_PER_CYCLE: f64 = 2.0;

/// Critical-path weight of one primitive, in logic levels.
fn levels(op: PrimOp) -> f64 {
    match op.category() {
        Category::Multiplier | Category::TieMult | Category::TieMac => 3.0,
        Category::Shifter => 1.2,
        Category::AdderCmp | Category::TieAdd => 1.0,
        Category::Table => 1.0,
        Category::TieCsa => 0.5,
        Category::LogicMux => 0.4,
        Category::CustomReg => 0.0,
    }
}

#[derive(Debug, Clone)]
struct PendingInst {
    name: String,
    graph: DfGraph,
    inputs: Vec<InputBind>,
    outputs: Vec<OutputBind>,
    latency_override: Option<u8>,
}

/// Builds an extension set: declare state registers, add instructions,
/// then [`ExtensionBuilder::build`] to run the TIE compiler.
#[derive(Debug, Clone)]
pub struct ExtensionBuilder {
    name: String,
    states: Vec<StateReg>,
    insts: Vec<PendingInst>,
}

impl ExtensionBuilder {
    /// Creates a builder for an extension named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ExtensionBuilder {
            name: name.into(),
            states: Vec::new(),
            insts: Vec::new(),
        }
    }

    /// Declares a custom state register and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`TieError::DuplicateStateName`] on a repeated name.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=64`.
    pub fn state(&mut self, name: impl Into<String>, width: u8) -> Result<StateId, TieError> {
        let name = name.into();
        assert!(
            (1..=64).contains(&width),
            "state width {width} outside 1..=64"
        );
        if self.states.iter().any(|s| s.name == name) {
            return Err(TieError::DuplicateStateName(name));
        }
        self.states.push(StateReg { name, width });
        Ok(StateId(self.states.len() - 1))
    }

    /// Starts a new custom instruction over `graph`; bind its operands with
    /// the returned [`InstBuilder`].
    ///
    /// # Errors
    ///
    /// Returns [`TieError::BadInstName`] for names that are not valid
    /// identifiers or collide with base-ISA mnemonics, and
    /// [`TieError::DuplicateInstName`] for repeats within the extension.
    pub fn instruction(
        &mut self,
        name: impl Into<String>,
        graph: DfGraph,
    ) -> Result<InstBuilder<'_>, TieError> {
        let name = name.into();
        if !is_identifier(&name) || Opcode::from_mnemonic(&name).is_some() {
            return Err(TieError::BadInstName(name));
        }
        if self.insts.iter().any(|i| i.name == name) {
            return Err(TieError::DuplicateInstName(name));
        }
        self.insts.push(PendingInst {
            name,
            graph,
            inputs: Vec::new(),
            outputs: Vec::new(),
            latency_override: None,
        });
        let index = self.insts.len() - 1;
        Ok(InstBuilder { ext: self, index })
    }

    /// Runs the TIE compiler: validates every instruction, derives
    /// latencies and resource vectors, and produces the [`ExtensionSet`].
    ///
    /// # Errors
    ///
    /// Returns the first [`TieError`] found (binding counts, duplicate or
    /// unknown bindings, width mismatches, zero latency overrides).
    pub fn build(self) -> Result<ExtensionSet, TieError> {
        let mut compiled = Vec::with_capacity(self.insts.len());
        for (index, pending) in self.insts.into_iter().enumerate() {
            compiled.push(compile_inst(pending, CustomId(index as u16), &self.states)?);
        }
        Ok(ExtensionSet {
            name: self.name,
            states: self.states,
            insts: compiled,
        })
    }
}

/// Binds the operands of one pending instruction. Obtained from
/// [`ExtensionBuilder::instruction`].
#[derive(Debug)]
pub struct InstBuilder<'a> {
    ext: &'a mut ExtensionBuilder,
    index: usize,
}

impl InstBuilder<'_> {
    fn pending(&mut self) -> &mut PendingInst {
        &mut self.ext.insts[self.index]
    }

    /// Binds the next graph input (in input-declaration order).
    ///
    /// # Errors
    ///
    /// Returns [`TieError::InputBindingCount`] if more bindings are given
    /// than the graph has inputs, [`TieError::UnknownState`] /
    /// [`TieError::StateWidthMismatch`] for bad state bindings, and
    /// [`TieError::PortTooWide`] if a GPR/imm binding drives a port wider
    /// than 32 bits.
    pub fn bind_input(&mut self, bind: InputBind) -> Result<&mut Self, TieError> {
        let states = self.ext.states.clone();
        let p = self.pending();
        let signature = p.graph.input_signature();
        if p.inputs.len() >= signature.len() {
            return Err(TieError::InputBindingCount {
                inst: p.name.clone(),
                expected: signature.len(),
                got: p.inputs.len() + 1,
            });
        }
        let (_, port_width) = signature[p.inputs.len()].clone();
        match bind {
            InputBind::GprS | InputBind::GprT | InputBind::Imm => {
                if port_width > 32 {
                    return Err(TieError::PortTooWide {
                        inst: p.name.clone(),
                        width: port_width,
                    });
                }
            }
            InputBind::State(id) => {
                let state = states.get(id.index()).ok_or(TieError::UnknownState {
                    inst: p.name.clone(),
                    index: id.index(),
                })?;
                if state.width != port_width {
                    return Err(TieError::StateWidthMismatch {
                        inst: p.name.clone(),
                        state: state.name.clone(),
                        state_width: state.width,
                        port_width,
                    });
                }
            }
        }
        p.inputs.push(bind);
        Ok(self)
    }

    /// Binds the next graph output (in output-declaration order).
    ///
    /// # Errors
    ///
    /// Returns [`TieError::OutputBindingCount`] on overflow,
    /// [`TieError::DuplicateBinding`] for a second GPR write or a repeated
    /// state write, plus the state-validation errors of
    /// [`InstBuilder::bind_input`].
    pub fn bind_output(&mut self, bind: OutputBind) -> Result<&mut Self, TieError> {
        let states = self.ext.states.clone();
        let p = self.pending();
        let n_outputs = p.graph.output_count();
        if p.outputs.len() >= n_outputs {
            return Err(TieError::OutputBindingCount {
                inst: p.name.clone(),
                expected: n_outputs,
                got: p.outputs.len() + 1,
            });
        }
        match bind {
            OutputBind::Gpr => {
                if p.outputs.iter().any(|o| o.writes_gpr()) {
                    return Err(TieError::DuplicateBinding {
                        inst: p.name.clone(),
                        binding: "GPR write",
                    });
                }
            }
            OutputBind::State(id) => {
                let state = states.get(id.index()).ok_or(TieError::UnknownState {
                    inst: p.name.clone(),
                    index: id.index(),
                })?;
                if p.outputs.contains(&OutputBind::State(id)) {
                    return Err(TieError::DuplicateBinding {
                        inst: p.name.clone(),
                        binding: "state write",
                    });
                }
                // Width check against the producing node happens in build();
                // here we can check directly since outputs are positional.
                let _ = state;
            }
        }
        p.outputs.push(bind);
        Ok(self)
    }

    /// Overrides the compiler-derived latency (cycles, ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns [`TieError::ZeroLatency`] for `cycles == 0`.
    pub fn latency(&mut self, cycles: u8) -> Result<&mut Self, TieError> {
        let p = self.pending();
        if cycles == 0 {
            return Err(TieError::ZeroLatency {
                inst: p.name.clone(),
            });
        }
        p.latency_override = Some(cycles);
        Ok(self)
    }
}

/// `true` when `name` is one identifier: a letter or `_`, then letters,
/// digits and `_`.
pub(crate) fn is_identifier(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The latency the compiler derives from the critical path through
/// `graph`'s `op_nodes`, in cycles (≥ 1), when the designer gives none.
pub(crate) fn derived_latency(graph: &DfGraph, op_nodes: &[OpNodeInfo]) -> u8 {
    let mut depth = vec![0.0f64; graph.node_count()];
    let mut max_depth = 0.0f64;
    for info in op_nodes {
        let input_depth = info
            .inputs
            .iter()
            .map(|i| depth[i.index()])
            .fold(0.0f64, f64::max);
        let d = input_depth + levels(info.op);
        depth[info.id.index()] = d;
        max_depth = max_depth.max(d);
    }
    ((max_depth / LEVELS_PER_CYCLE).ceil() as u8).max(1)
}

fn compile_inst(
    pending: PendingInst,
    id: CustomId,
    states: &[StateReg],
) -> Result<CompiledInst, TieError> {
    let PendingInst {
        name,
        graph,
        inputs,
        outputs,
        latency_override,
    } = pending;

    if inputs.len() != graph.input_count() {
        return Err(TieError::InputBindingCount {
            inst: name,
            expected: graph.input_count(),
            got: inputs.len(),
        });
    }
    if outputs.len() != graph.output_count() {
        return Err(TieError::OutputBindingCount {
            inst: name,
            expected: graph.output_count(),
            got: outputs.len(),
        });
    }
    // `GprT` without `GprS` would leave the assembler's positional operand
    // scheme ambiguous.
    let has_s = inputs.contains(&InputBind::GprS);
    let has_t = inputs.contains(&InputBind::GprT);
    if has_t && !has_s {
        return Err(TieError::DuplicateBinding {
            inst: name,
            binding: "GprT without GprS",
        });
    }

    let op_nodes = graph.op_nodes();
    let latency = latency_override.unwrap_or_else(|| derived_latency(&graph, &op_nodes));

    // Per-execution resource vector over the ten categories: combinational
    // components contribute f(C) per activation; custom-register reads and
    // writes contribute f(width) each.
    let mut resources = [0.0f64; 10];
    let mut resource_counts = [0.0f64; 10];
    for info in &op_nodes {
        resources[info.category.index()] += info.complexity();
        resource_counts[info.category.index()] += 1.0;
    }
    let mut state_accesses = 0usize;
    for bind in &inputs {
        if let InputBind::State(sid) = bind {
            let w = states[sid.index()].width;
            resources[Category::CustomReg.index()] += Category::CustomReg.complexity(w, 0);
            resource_counts[Category::CustomReg.index()] += 1.0;
            state_accesses += 1;
        }
    }
    for bind in &outputs {
        if let OutputBind::State(sid) = bind {
            let w = states[sid.index()].width;
            resources[Category::CustomReg.index()] += Category::CustomReg.complexity(w, 0);
            resource_counts[Category::CustomReg.index()] += 1.0;
            state_accesses += 1;
        }
    }

    let uses_gpr = has_s || has_t || outputs.iter().any(|o| o.writes_gpr());
    // Decoder / bypass / interlock control overhead scales with the size of
    // the custom datapath (the TIE compiler generates this logic).
    let control_complexity = 1.0 + 0.08 * op_nodes.len() as f64 + 0.15 * state_accesses as f64;

    Ok(CompiledInst {
        name,
        id,
        graph,
        inputs,
        outputs,
        latency,
        uses_gpr,
        resources,
        resource_counts,
        control_complexity,
    })
}

/// Result of executing one custom instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomExecOutcome {
    /// Value written to the GPR destination, if the instruction writes one.
    pub gpr: Option<u64>,
    /// Value of every dataflow node (for switching-energy analysis).
    pub node_values: Vec<u64>,
    /// State registers read: `(id, value)`.
    pub state_reads: Vec<(StateId, u64)>,
    /// State registers written: `(id, old, new)`.
    pub state_writes: Vec<(StateId, u64, u64)>,
}

/// A custom instruction after TIE compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledInst {
    name: String,
    id: CustomId,
    graph: DfGraph,
    inputs: Vec<InputBind>,
    outputs: Vec<OutputBind>,
    latency: u8,
    uses_gpr: bool,
    resources: [f64; 10],
    resource_counts: [f64; 10],
    control_complexity: f64,
}

impl CompiledInst {
    /// Assembly mnemonic.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Identifier within the extension set.
    pub fn id(&self) -> CustomId {
        self.id
    }

    /// Execution latency in cycles (≥ 1).
    pub fn latency(&self) -> u8 {
        self.latency
    }

    /// `true` if the instruction reads or writes the base register file —
    /// the executions counted by the macro-model's side-effect variable
    /// `n_CI`.
    pub fn uses_gpr(&self) -> bool {
        self.uses_gpr
    }

    /// Per-execution activation of each hardware-library category,
    /// pre-weighted by the complexity function `f(C)` (indexed by
    /// [`Category::index`]).
    pub fn resource_vector(&self) -> &[f64; 10] {
        &self.resources
    }

    /// Raw per-execution component activations per category, without the
    /// `f(C)` complexity weighting (for ablation studies of the bit-width
    /// model).
    pub fn resource_counts(&self) -> &[f64; 10] {
        &self.resource_counts
    }

    /// Relative size of the auto-generated decoder/bypass/interlock control
    /// logic for this instruction.
    pub fn control_complexity(&self) -> f64 {
        self.control_complexity
    }

    /// The underlying dataflow graph.
    pub fn graph(&self) -> &DfGraph {
        &self.graph
    }

    /// Input bindings, in graph-input order.
    pub fn input_binds(&self) -> &[InputBind] {
        &self.inputs
    }

    /// Output bindings, in graph-output order.
    pub fn output_binds(&self) -> &[OutputBind] {
        &self.outputs
    }

    /// Operand signature for the assembler.
    pub fn signature(&self) -> CustomSignature {
        CustomSignature {
            gpr_reads: u8::from(self.inputs.contains(&InputBind::GprS))
                + u8::from(self.inputs.contains(&InputBind::GprT)),
            writes_gpr: self.outputs.iter().any(|o| o.writes_gpr()),
            has_imm: self.inputs.contains(&InputBind::Imm),
        }
    }

    /// Executes the instruction.
    ///
    /// `rs`/`rt` are the GPR operand values, `imm` the immediate field, and
    /// `state` the extension's state vector (updated in place).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`]s from graph evaluation (these indicate an
    /// internal inconsistency, since compilation validated the bindings).
    ///
    /// # Panics
    ///
    /// Panics if `state` is shorter than the extension's state vector.
    pub fn execute(
        &self,
        rs: u32,
        rt: u32,
        imm: i32,
        state: &mut [u64],
    ) -> Result<CustomExecOutcome, GraphError> {
        let mut state_reads = Vec::new();
        let input_values: Vec<u64> = self
            .inputs
            .iter()
            .map(|bind| match bind {
                InputBind::GprS => u64::from(rs),
                InputBind::GprT => u64::from(rt),
                InputBind::Imm => imm as u32 as u64,
                InputBind::State(id) => {
                    let v = state[id.index()];
                    state_reads.push((*id, v));
                    v
                }
            })
            .collect();
        let result = self.graph.eval(&input_values)?;
        let mut gpr = None;
        let mut state_writes = Vec::new();
        for (bind, &value) in self.outputs.iter().zip(result.outputs()) {
            match bind {
                OutputBind::Gpr => gpr = Some(value),
                OutputBind::State(id) => {
                    let old = state[id.index()];
                    state[id.index()] = value;
                    state_writes.push((*id, old, value));
                }
            }
        }
        Ok(CustomExecOutcome {
            gpr,
            node_values: result.node_values().to_vec(),
            state_reads,
            state_writes,
        })
    }

    /// Allocation-free execution for the simulator hot path.
    ///
    /// Evaluates the instruction into the reusable `values` buffer (one
    /// entry per dataflow node, readable afterwards for switching-energy
    /// analysis), updates `state` in place, and returns the GPR result if
    /// the instruction writes one.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`]s from graph evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `state` is shorter than the extension's state vector or
    /// the instruction has more than 16 inputs.
    pub fn execute_into(
        &self,
        rs: u32,
        rt: u32,
        imm: i32,
        state: &mut [u64],
        values: &mut Vec<u64>,
    ) -> Result<Option<u64>, GraphError> {
        let mut input_values = [0u64; 16];
        assert!(
            self.inputs.len() <= 16,
            "custom instruction with >16 inputs"
        );
        for (slot, bind) in input_values.iter_mut().zip(&self.inputs) {
            *slot = match bind {
                InputBind::GprS => u64::from(rs),
                InputBind::GprT => u64::from(rt),
                InputBind::Imm => imm as u32 as u64,
                InputBind::State(id) => state[id.index()],
            };
        }
        self.graph
            .eval_into(&input_values[..self.inputs.len()], values)?;
        let mut gpr = None;
        for (bind, &out_id) in self.outputs.iter().zip(self.graph.output_ids()) {
            let value = values[out_id.index()];
            match bind {
                OutputBind::Gpr => gpr = Some(value),
                OutputBind::State(id) => state[id.index()] = value,
            }
        }
        Ok(gpr)
    }
}

/// A compiled extension: custom state registers plus custom instructions.
///
/// This is the paper's "enhanced processor" configuration artifact: the
/// simulator executes it directly, the assembler imports its mnemonics,
/// and the energy estimators read its resource descriptions.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtensionSet {
    name: String,
    states: Vec<StateReg>,
    insts: Vec<CompiledInst>,
}

impl ExtensionSet {
    /// The empty extension set (a pure base-processor configuration).
    pub fn empty() -> Self {
        ExtensionSet {
            name: "base".to_owned(),
            states: Vec::new(),
            insts: Vec::new(),
        }
    }

    /// Extension name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared state registers.
    pub fn states(&self) -> &[StateReg] {
        &self.states
    }

    /// Number of custom instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the set holds no custom instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Looks an instruction up by id.
    pub fn get(&self, id: CustomId) -> Option<&CompiledInst> {
        self.insts.get(id.0 as usize)
    }

    /// Looks an instruction up by mnemonic.
    pub fn by_name(&self, name: &str) -> Option<&CompiledInst> {
        self.insts.iter().find(|i| i.name == name)
    }

    /// Iterates over the compiled instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, CompiledInst> {
        self.insts.iter()
    }

    /// Initial (zero) state vector for simulation.
    pub fn initial_state(&self) -> Vec<u64> {
        vec![0; self.states.len()]
    }

    /// Registers every instruction's mnemonic with an assembler.
    pub fn register_mnemonics(&self, assembler: &mut Assembler) {
        for inst in &self.insts {
            assembler.register_custom(inst.name.clone(), inst.id, inst.signature());
        }
    }

    /// Total instantiated custom-hardware complexity per category
    /// (for leakage modeling): the *union* of all instructions' component
    /// instances plus the state registers.
    pub fn instantiated_complexity(&self) -> [f64; 10] {
        let mut total = [0.0f64; 10];
        for inst in &self.insts {
            for info in inst.graph.op_nodes() {
                total[info.category.index()] += info.complexity();
            }
            total[Category::CustomReg.index()] += 0.0; // states counted below
        }
        for s in &self.states {
            total[Category::CustomReg.index()] += Category::CustomReg.complexity(s.width, 0);
        }
        total
    }

    /// Aggregate decoder/control complexity of the extension.
    pub fn control_complexity(&self) -> f64 {
        self.insts.iter().map(|i| i.control_complexity).sum()
    }

    /// Builds a new extension set from selected instructions of existing
    /// sets, re-running the TIE compiler over their graphs.
    ///
    /// `picks` lists `(source set, instruction names to keep)`; the new
    /// set contains the picked instructions in listing order, so their
    /// [`CustomId`]s are their positions in that order (resolve them with
    /// [`ExtensionSet::by_name`]). State registers are unified **by
    /// name**: two picked instructions whose sources both declare a state
    /// `acc` of the same width share one `acc` in the composed set. This
    /// is what lets a discovered instruction that accumulates into `acc`
    /// coexist with the hand-written `rdacc` that reads it.
    ///
    /// # Errors
    ///
    /// [`TieError::DuplicateInstName`] if two picks share a mnemonic,
    /// [`TieError::DuplicateStateName`] if two sources declare states of
    /// the same name but different widths, and any compile error the
    /// original instruction would raise (none, in practice, since the
    /// graphs and bindings were already compiled once).
    pub fn compose(
        name: impl Into<String>,
        picks: &[(&ExtensionSet, &[&str])],
    ) -> Result<ExtensionSet, TieError> {
        let mut builder = ExtensionBuilder::new(name);
        // Composed state name → (id, width). First reference declares.
        let mut state_ids: BTreeMap<String, (StateId, u8)> = BTreeMap::new();
        let declare = |builder: &mut ExtensionBuilder,
                       state_ids: &mut BTreeMap<String, (StateId, u8)>,
                       src: &StateReg|
         -> Result<StateId, TieError> {
            if let Some(&(id, width)) = state_ids.get(&src.name) {
                if width != src.width {
                    return Err(TieError::DuplicateStateName(src.name.clone()));
                }
                return Ok(id);
            }
            let id = builder.state(src.name.clone(), src.width)?;
            state_ids.insert(src.name.clone(), (id, src.width));
            Ok(id)
        };
        for (source, names) in picks {
            for inst_name in *names {
                let inst = source
                    .by_name(inst_name)
                    .unwrap_or_else(|| panic!("compose: `{inst_name}` not in source set"));
                let mut b = builder.instruction(inst.name.clone(), inst.graph.clone())?;
                for bind in &inst.inputs {
                    let bind = match bind {
                        InputBind::State(sid) => InputBind::State(declare(
                            b.ext,
                            &mut state_ids,
                            &source.states[sid.index()],
                        )?),
                        other => *other,
                    };
                    b.bind_input(bind)?;
                }
                for bind in &inst.outputs {
                    let bind = match bind {
                        OutputBind::State(sid) => OutputBind::State(declare(
                            b.ext,
                            &mut state_ids,
                            &source.states[sid.index()],
                        )?),
                        other => *other,
                    };
                    b.bind_output(bind)?;
                }
                b.latency(inst.latency)?;
            }
        }
        builder.build()
    }
}

impl<'a> IntoIterator for &'a ExtensionSet {
    type Item = &'a CompiledInst;
    type IntoIter = std::slice::Iter<'a, CompiledInst>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_hwlib::LookupTable;

    /// Builds `mac` (a*b+acc → acc, 16×16 over a 40-bit accumulator) and
    /// `rdacc` (acc low 32 bits → GPR).
    fn mac_extension() -> ExtensionSet {
        let mut ext = ExtensionBuilder::new("mac16");
        let acc = ext.state("acc", 40).unwrap();

        let mut g = DfGraph::new();
        let a = g.input("a", 16);
        let b = g.input("b", 16);
        let acc_in = g.input("acc", 40);
        let mac = g.node(PrimOp::TieMac, 40, &[a, b, acc_in]).unwrap();
        g.output(mac);
        ext.instruction("mac", g)
            .unwrap()
            .bind_input(InputBind::GprS)
            .unwrap()
            .bind_input(InputBind::GprT)
            .unwrap()
            .bind_input(InputBind::State(acc))
            .unwrap()
            .bind_output(OutputBind::State(acc))
            .unwrap();

        let mut g2 = DfGraph::new();
        let acc_in = g2.input("acc", 40);
        let k = g2.constant(0, 6).unwrap();
        let low = g2.node(PrimOp::Shr, 32, &[acc_in, k]).unwrap();
        g2.output(low);
        ext.instruction("rdacc", g2)
            .unwrap()
            .bind_input(InputBind::State(acc))
            .unwrap()
            .bind_output(OutputBind::Gpr)
            .unwrap();

        ext.build().unwrap()
    }

    #[test]
    fn mac_extension_compiles_and_executes() {
        let set = mac_extension();
        assert_eq!(set.len(), 2);
        let mac = set.by_name("mac").unwrap();
        assert!(mac.uses_gpr()); // reads rs/rt
        assert_eq!(mac.signature().gpr_reads, 2);
        assert!(!mac.signature().writes_gpr);

        let mut state = set.initial_state();
        mac.execute(100, 200, 0, &mut state).unwrap();
        mac.execute(3, 4, 0, &mut state).unwrap();
        assert_eq!(state[0], 20012);

        let rd = set.by_name("rdacc").unwrap();
        let out = rd.execute(0, 0, 0, &mut state).unwrap();
        assert_eq!(out.gpr, Some(20012));
        assert_eq!(out.state_reads, vec![(StateId(0), 20012)]);
    }

    #[test]
    fn latency_derivation() {
        let set = mac_extension();
        // TieMac = 3 levels → ceil(3/2) = 2 cycles.
        assert_eq!(set.by_name("mac").unwrap().latency(), 2);
        // A single shift: 1.2 levels → 1 cycle.
        assert_eq!(set.by_name("rdacc").unwrap().latency(), 1);
    }

    #[test]
    fn latency_override() {
        let mut ext = ExtensionBuilder::new("x");
        let mut g = DfGraph::new();
        let a = g.input("a", 8);
        let n = g.node(PrimOp::Not, 8, &[a]).unwrap();
        g.output(n);
        ext.instruction("inv", g)
            .unwrap()
            .bind_input(InputBind::GprS)
            .unwrap()
            .bind_output(OutputBind::Gpr)
            .unwrap()
            .latency(4)
            .unwrap();
        let set = ext.build().unwrap();
        assert_eq!(set.by_name("inv").unwrap().latency(), 4);
    }

    #[test]
    fn resource_vector_counts_categories() {
        let set = mac_extension();
        let mac = set.by_name("mac").unwrap();
        let rv = mac.resource_vector();
        // TIE mac instance of operand width 16: f = (16/32)² = 0.25.
        assert!((rv[Category::TieMac.index()] - 0.25).abs() < 1e-12);
        // acc read + acc write: 2 × f(40) = 2 × 40/32.
        assert!((rv[Category::CustomReg.index()] - 2.0 * 40.0 / 32.0).abs() < 1e-12);
        assert_eq!(rv[Category::Multiplier.index()], 0.0);
    }

    #[test]
    fn validation_errors() {
        // Unbound input at build time.
        let mut ext = ExtensionBuilder::new("bad");
        let mut g = DfGraph::new();
        g.input("a", 8);
        let ab = g.input("b", 8);
        g.output(ab);
        ext.instruction("i1", g)
            .unwrap()
            .bind_input(InputBind::GprS)
            .unwrap();
        assert!(matches!(
            ext.build(),
            Err(TieError::InputBindingCount {
                expected: 2,
                got: 1,
                ..
            })
        ));

        // Base-mnemonic collision.
        let mut ext = ExtensionBuilder::new("bad2");
        assert!(matches!(
            ext.instruction("add", DfGraph::new()),
            Err(TieError::BadInstName(_))
        ));

        // Unknown state.
        let mut ext = ExtensionBuilder::new("bad3");
        let mut g = DfGraph::new();
        let a = g.input("a", 8);
        g.output(a);
        let mut b = ext.instruction("i2", g).unwrap();
        assert!(matches!(
            b.bind_input(InputBind::State(StateId(5))),
            Err(TieError::UnknownState { index: 5, .. })
        ));

        // Width mismatch on a state binding.
        let mut ext = ExtensionBuilder::new("bad4");
        let s = ext.state("s", 16).unwrap();
        let mut g = DfGraph::new();
        let a = g.input("a", 8);
        g.output(a);
        let mut b = ext.instruction("i3", g).unwrap();
        assert!(matches!(
            b.bind_input(InputBind::State(s)),
            Err(TieError::StateWidthMismatch {
                state_width: 16,
                port_width: 8,
                ..
            })
        ));

        // Port wider than the operand bus.
        let mut ext = ExtensionBuilder::new("bad5");
        let mut g = DfGraph::new();
        let a = g.input("a", 48);
        g.output(a);
        let mut b = ext.instruction("i4", g).unwrap();
        assert!(matches!(
            b.bind_input(InputBind::GprS),
            Err(TieError::PortTooWide { width: 48, .. })
        ));

        // Two GPR writes.
        let mut ext = ExtensionBuilder::new("bad6");
        let mut g = DfGraph::new();
        let a = g.input("a", 8);
        g.output(a);
        g.output(a);
        let mut b = ext.instruction("i5", g).unwrap();
        b.bind_input(InputBind::GprS).unwrap();
        b.bind_output(OutputBind::Gpr).unwrap();
        assert!(matches!(
            b.bind_output(OutputBind::Gpr),
            Err(TieError::DuplicateBinding {
                binding: "GPR write",
                ..
            })
        ));

        // Duplicate names.
        let mut ext = ExtensionBuilder::new("bad7");
        assert!(ext.state("s", 8).is_ok());
        assert!(matches!(
            ext.state("s", 8),
            Err(TieError::DuplicateStateName(_))
        ));
    }

    #[test]
    fn table_instruction() {
        let mut ext = ExtensionBuilder::new("tab");
        let mut g = DfGraph::new();
        let a = g.input("a", 8);
        let t = g.add_table(LookupTable::new((0..16).map(|i| i * i).collect(), 8).unwrap());
        let o = g
            .node(PrimOp::TableLookup { table_index: t }, 8, &[a])
            .unwrap();
        g.output(o);
        ext.instruction("sq", g)
            .unwrap()
            .bind_input(InputBind::GprS)
            .unwrap()
            .bind_output(OutputBind::Gpr)
            .unwrap();
        let set = ext.build().unwrap();
        let sq = set.by_name("sq").unwrap();
        let mut st = set.initial_state();
        assert_eq!(sq.execute(7, 0, 0, &mut st).unwrap().gpr, Some(49));
        assert!(sq.resource_vector()[Category::Table.index()] > 0.0);
    }

    #[test]
    fn empty_set() {
        let set = ExtensionSet::empty();
        assert!(set.is_empty());
        assert_eq!(set.initial_state(), Vec::<u64>::new());
        assert_eq!(set.get(CustomId(0)), None);
    }

    #[test]
    fn instantiated_complexity_includes_states() {
        let set = mac_extension();
        let total = set.instantiated_complexity();
        assert!((total[Category::CustomReg.index()] - 40.0 / 32.0).abs() < 1e-12);
        assert!(total[Category::TieMac.index()] > 0.0);
        assert!(set.control_complexity() > 2.0);
    }

    #[test]
    fn mnemonic_registration() {
        let set = mac_extension();
        let mut asm = Assembler::new();
        set.register_mnemonics(&mut asm);
        let p = asm.assemble("mac a2, a3\nrdacc a4\nhalt\n").unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn gprt_requires_gprs() {
        let mut ext = ExtensionBuilder::new("bad8");
        let mut g = DfGraph::new();
        let a = g.input("a", 8);
        g.output(a);
        ext.instruction("i6", g)
            .unwrap()
            .bind_input(InputBind::GprT)
            .unwrap()
            .bind_output(OutputBind::Gpr)
            .unwrap();
        assert!(ext.build().is_err());
    }
}
