//! Energy macro-models for extensible processors.
//!
//! This crate is the reproduction's primary contribution — the methodology
//! of *"Energy Estimation for Extensible Processors"* (Fei, Ravi,
//! Raghunathan, Jha; DATE 2003):
//!
//! > "Our solution … is an energy macro-model suitably parameterized to
//! > estimate the energy consumption of a processor instance that
//! > incorporates **any** custom instruction extensions."
//!
//! The macro-model is a linear template (Eq. 2–4 of the paper) over
//! **21 variables** drawn from two domains:
//!
//! * **instruction-level** (the fixed base core): per-class cycles
//!   `n_A, n_L, n_S, n_J, n_Bt, n_Bu`; non-ideal events `n_icm, n_dcm,
//!   n_ucf, n_ilk`; and the custom→base side-effect variable `n_CI`,
//! * **structural** (the customizable hardware): per-category active
//!   cycles of the ten hardware-library component classes, weighted by
//!   the bit-width complexity `f(C)`.
//!
//! The workflow has two halves, mirroring Fig. 2 of the paper:
//!
//! 1. **Characterization (steps 1–8)** — [`Characterizer::characterize`]
//!    runs each test program through instruction-set simulation (for the
//!    independent variables) and through the RTL-level reference
//!    estimator on its extended processor (for the dependent variable),
//!    then fits the energy coefficients by least squares
//!    (pseudo-inverse, Eq. 5). Done **once** per base processor.
//! 2. **Estimation (steps 9–11)** — [`EnergyMacroModel::estimate`] needs
//!    only fast instruction-set simulation plus dynamic resource-usage
//!    analysis; the custom processor is *never synthesized*. This is what
//!    makes the methodology three orders of magnitude faster than RTL
//!    power estimation and therefore usable inside an ASIP design-space
//!    exploration loop.
//!
//! Ablation hooks ([`ModelSpec`]) allow dropping the structural
//! variables, the side-effect variable, the `f(C)` weighting, or the
//! instruction clustering, to quantify each design choice of the paper.
//!
//! # Example
//!
//! ```no_run
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use emx_core::{Characterizer, TrainingCase};
//! use emx_isa::asm::Assembler;
//! use emx_sim::ProcConfig;
//! use emx_tie::ExtensionSet;
//!
//! let ext = ExtensionSet::empty();
//! let programs: Vec<(String, emx_isa::Program)> = /* diverse suite */
//! #    vec![];
//! let cases: Vec<TrainingCase<'_>> = programs
//!     .iter()
//!     .map(|(name, p)| TrainingCase { name, program: p, ext: &ext })
//!     .collect();
//! let result = Characterizer::new(ProcConfig::default()).characterize(&cases)?;
//! println!("RMS fitting error: {:.1}%", result.fit.rms_percent_error());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod characterize;
pub mod cli;
pub mod error;
mod io;
mod model;
mod vars;

pub use characterize::{
    CaseReport, Characterization, CharacterizeReport, Characterizer, TrainingCase,
};
pub use error::{CoreError, EmxError, ErrorKind};
pub use io::ParseModelError;
pub use model::{EnergyEstimate, EnergyMacroModel};
pub use vars::{ArithGranularity, ModelSpec};

pub use emx_rtlpower::Energy;
