//! Custom hardware primitive library for the emx extensible processor.
//!
//! Custom (TIE-like) instructions are built from a library of hardware
//! primitives. The paper classifies that library into ten component
//! categories for its *structural* macro-model variables (Section IV-B.1):
//! multiplier; adder/subtractor/comparator; bit-wise logic / reduction
//! logic / multiplexer; shifter; custom register; and the specialized TIE
//! modules `TIE_mult`, `TIE_mac`, `TIE_add`, `TIE_csa` and `table`.
//!
//! This crate provides:
//!
//! * [`Category`] — the ten categories with their bit-width complexity
//!   functions `f(C)` (linear for most components, quadratic for
//!   multipliers, entries × width for tables),
//! * [`PrimOp`] — the concrete operations a datapath node can perform, each
//!   mapped to its category, with full evaluation semantics,
//! * [`DfGraph`] — acyclic dataflow graphs over primitives: the
//!   intermediate representation in which custom instructions are
//!   described, validated, scheduled and *executed* by the simulator,
//! * [`HwEnergyParams`] — per-category switching/leakage energy parameters
//!   used by the RTL-level reference estimator (the ground truth against
//!   which the macro-model is regressed).
//!
//! # Example
//!
//! A multiply–accumulate datapath `out = a*b + c`:
//!
//! ```
//! use emx_hwlib::{DfGraph, PrimOp};
//!
//! let mut g = DfGraph::new();
//! let a = g.input("a", 16);
//! let b = g.input("b", 16);
//! let c = g.input("c", 32);
//! let prod = g.node(PrimOp::Mul, 32, &[a, b]).unwrap();
//! let sum = g.node(PrimOp::Add, 32, &[prod, c]).unwrap();
//! g.output(sum);
//! let r = g.eval(&[3, 5, 7]).unwrap();
//! assert_eq!(r.outputs(), &[22]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod category;
mod dot;
mod energy;
mod graph;
mod prim;
mod table;

pub use category::Category;
pub use energy::HwEnergyParams;
pub use graph::{DfGraph, EvalResult, GraphError, NodeDesc, NodeId, OpNodeInfo};
pub use prim::{mask, sext, PrimOp};
pub use table::{LookupTable, TableError};
