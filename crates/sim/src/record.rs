//! Per-instruction activity records — the simulator's equivalent of the
//! RTL simulation traces the paper feeds to its commercial power
//! estimator.

use emx_isa::op::ExecUnit;
use emx_isa::{CustomId, DynClass, Inst, Reg};

/// Classification of a retired instruction for energy purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstKind {
    /// A base-ISA instruction: its dynamic class and EX-stage unit.
    Base(DynClass, ExecUnit),
    /// A custom (extension) instruction.
    Custom(CustomId),
}

/// A data-memory access annotated with cache behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address.
    pub addr: u32,
    /// Access size in bytes.
    pub size: u32,
    /// `true` for stores.
    pub write: bool,
    /// Value loaded or stored.
    pub value: u32,
    /// `true` if the access hit in the data cache.
    pub hit: bool,
    /// `true` if a dirty line was written back on the fill.
    pub writeback: bool,
    /// `true` if the access bypassed the cache (uncached region).
    pub uncached: bool,
}

/// Custom-datapath activity of one custom-instruction execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomActivity<'a> {
    /// Which custom instruction executed.
    pub id: CustomId,
    /// Its latency in cycles.
    pub latency: u8,
    /// `true` if it read or wrote the base register file.
    pub uses_gpr: bool,
    /// Value of every dataflow node during this execution, indexed by
    /// [`emx_hwlib::NodeId::index`]. Borrowed from the simulator's scratch
    /// buffer — valid only during the [`ActivitySink::record`] call.
    pub node_values: &'a [u64],
}

/// The full activity of one retired instruction, at pipeline-stage
/// granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstRecord<'a> {
    /// Instruction address.
    pub pc: u32,
    /// Fetched 32-bit encoding (for fetch/decode switching energy).
    pub word: u32,
    /// The decoded instruction.
    pub inst: Inst,
    /// Classification.
    pub kind: InstKind,
    /// Operand bus A value (first register read).
    pub operand_a: u32,
    /// Operand bus B value (second register read / store data).
    pub operand_b: u32,
    /// Result-bus writeback, if any.
    pub result: Option<(Reg, u32)>,
    /// Total cycles this instruction occupied the machine, including all
    /// penalties.
    pub cycles: u32,
    /// Cycles of interlock stall included in `cycles`.
    pub stall_cycles: u32,
    /// Flushed bubble cycles included in `cycles` (taken branches, jumps).
    pub flush_cycles: u32,
    /// `true` if the instruction fetch hit the I-cache (meaningless when
    /// `fetch_uncached`).
    pub fetch_hit: bool,
    /// `true` if the fetch bypassed the I-cache (uncached region).
    pub fetch_uncached: bool,
    /// Data-memory access, if any.
    pub mem: Option<MemAccess>,
    /// Custom-datapath activity, if this was a custom instruction.
    pub custom: Option<CustomActivity<'a>>,
}

/// Consumer of the ISS activity stream ([`crate::Interp::run_with_sink`]).
///
/// The reference energy estimator implements this; tests use it to capture
/// traces. Records borrow from simulator-internal buffers, so a sink that
/// needs to keep data must copy it out.
pub trait ActivitySink {
    /// `false` for sinks that ignore records; lets the simulator skip
    /// building them entirely.
    const ACTIVE: bool = true;

    /// Called once per retired instruction, in program order.
    fn record(&mut self, record: &InstRecord<'_>);
}

/// A sink that discards everything (used by the fast ISS path; the
/// optimizer removes the calls entirely).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ActivitySink for NullSink {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn record(&mut self, _record: &InstRecord<'_>) {}
}

impl<F: FnMut(&InstRecord<'_>)> ActivitySink for F {
    fn record(&mut self, record: &InstRecord<'_>) {
        self(record)
    }
}
