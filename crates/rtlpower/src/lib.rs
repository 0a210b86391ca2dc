//! RTL-level reference energy estimation for extended emx processors.
//!
//! In the paper, the dependent variable of the regression — the "true"
//! energy of each test program — is measured by simulating the synthesized
//! RTL of the extended processor in ModelSim and feeding the traces to a
//! commercial RTL power estimator (Sente WattWatcher). Both tools are
//! proprietary, so this crate provides the substitute: a **structural,
//! per-activity energy integrator** that walks the per-instruction
//! activity stream of [`emx_sim::Interp::run_with_sink`] and charges
//! every hardware block of the processor for what it did each cycle:
//!
//! * clock tree and pipeline registers (every cycle, including stalls),
//! * instruction fetch + I-cache arrays, with Hamming-distance switching
//!   on the fetched encoding; miss line-fill bursts; uncached accesses,
//! * decoder, register-file read/write ports, operand/result buses
//!   (per-bit switching),
//! * per-unit EX-stage energy (adder / logic / barrel shifter / 2-cycle
//!   multiplier / bypass), operand-dependent,
//! * D-cache reads/writes/misses/dirty write-backs,
//! * every custom-hardware component instance (via
//!   [`emx_hwlib::HwEnergyParams`]): data-dependent switching between
//!   consecutive activations, custom-register accesses, auto-generated
//!   TIE decoder/control overhead, leakage of instantiated custom logic,
//!   and the idle coupling of shared-operand-bus datapaths (the paper's
//!   Fig. 1 side effects).
//!
//! The result is deliberately *richer* than the 21-variable macro-model —
//! data-dependence, per-op differences within a class, line dirtiness —
//! so regression against it produces realistic, non-zero fitting errors,
//! exactly as regression against WattWatcher does in the paper.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use emx_isa::asm::Assembler;
//! use emx_rtlpower::RtlEnergyEstimator;
//! use emx_sim::ProcConfig;
//! use emx_tie::ExtensionSet;
//!
//! let program = Assembler::new().assemble("movi a2, 41\naddi a2, a2, 1\nhalt")?;
//! let ext = ExtensionSet::empty();
//! let report = RtlEnergyEstimator::new().estimate(&program, &ext, ProcConfig::default())?;
//! assert!(report.total.as_picojoules() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod energy;
mod estimator;
pub mod gates;
mod params;

pub use energy::{Energy, EnergyBreakdown};
pub use estimator::{EnergyReport, PowerProfile, RtlEnergyEstimator};
pub use params::BaseEnergyParams;
