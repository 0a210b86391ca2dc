//! # emx — energy macro-models for extensible processors
//!
//! A from-scratch Rust reproduction of *"Energy Estimation for Extensible
//! Processors"* (Fei, Ravi, Raghunathan, Jha — DATE 2003): a regression
//! energy macro-model that, after characterizing a base processor
//! **once**, estimates the energy of applications running with **any**
//! custom instruction-set extensions using nothing but fast
//! instruction-set simulation — no synthesis, no RTL power simulation —
//! which is what makes energy-aware custom-instruction selection
//! practical inside an ASIP design loop.
//!
//! This facade crate re-exports the whole system:
//!
//! | crate | role |
//! |-------|------|
//! | [`isa`] | 32-bit base ISA (~80 instructions), programs, assembler |
//! | [`hwlib`] | custom hardware primitive library (10 categories), dataflow graphs |
//! | [`tie`] | custom-instruction (TIE-like) specs, compiler, extension sets |
//! | [`sim`] | micro-op ISS with caches: statistics fast path and per-instruction pipeline activity stream |
//! | [`rtlpower`] | RTL-level reference energy estimator (net-level integration) |
//! | [`regress`] | dense least squares (QR + pseudo-inverse), fit statistics |
//! | [`core`] | **the paper**: macro-model template, characterization, estimation |
//! | [`workloads`] | characterization suite, Table II applications, RS(15,11) codec |
//! | [`dse`] | design-space exploration: enumeration, cached parallel evaluation, Pareto search |
//! | [`discover`] | automatic custom-instruction discovery: DAG mining, TIE synthesis, candidate reports |
//! | [`serve`] | long-running estimation service: HTTP/1.1 endpoints, micro-batching, load generator |
//! | [`validate`] | cross-validation, differential fuzzing, golden accuracy gates |
//! | [`coverage`] | calibration-suite coverage: excitation analysis, conditioning gates, case planning |
//! | [`obs`] | observability: spans, counters, histograms, Chrome trace export |
//!
//! # Quickstart
//!
//! ```no_run
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use emx::core::Characterizer;
//! use emx::sim::ProcConfig;
//! use emx::workloads::suite;
//!
//! // 1. Characterize the extensible processor once (steps 1–8).
//! let suite = suite::full_training_suite();
//! let cases = suite::training_cases(&suite);
//! let result = Characterizer::new(ProcConfig::default()).characterize(&cases)?;
//!
//! // 2. Estimate any application with any extensions (steps 9–11).
//! let app = emx::workloads::apps::accumulate();
//! let estimate = result.model.estimate(app.program(), app.ext(), ProcConfig::default())?;
//! println!("{}", estimate.energy);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use emx_core as core;
pub use emx_coverage as coverage;
pub use emx_discover as discover;
pub use emx_dse as dse;
pub use emx_hwlib as hwlib;
pub use emx_isa as isa;
pub use emx_obs as obs;
pub use emx_regress as regress;
pub use emx_rtlpower as rtlpower;
pub use emx_serve as serve;
pub use emx_sim as sim;
pub use emx_tie as tie;
pub use emx_validate as validate;
pub use emx_workloads as workloads;

/// The most commonly used items, for glob import in examples and tools.
pub mod prelude {
    pub use emx_core::{
        Characterization, Characterizer, EnergyMacroModel, ModelSpec, TrainingCase,
    };
    pub use emx_dse::{CandidateSpace, DesignPoint, EstimationCache};
    pub use emx_hwlib::{Category, DfGraph, PrimOp};
    pub use emx_isa::asm::Assembler;
    pub use emx_isa::{Program, Reg};
    pub use emx_rtlpower::{Energy, RtlEnergyEstimator};
    pub use emx_sim::{Interp, ProcConfig};
    pub use emx_tie::{ExtensionBuilder, ExtensionSet, InputBind, OutputBind};
    pub use emx_workloads::Workload;
}
