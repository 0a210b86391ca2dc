//! Structured observability for the emx pipeline.
//!
//! The paper's central claim is a *performance* claim — macro-model
//! estimation is orders of magnitude faster than RTL power simulation —
//! and this crate is the substrate that lets the rest of the workspace
//! prove it with data instead of prose. It provides:
//!
//! * [`Collector`] — an explicitly-passed (never global) event collector
//!   with wall-clock spans, instants, cumulative counters, time-series
//!   samples on a simulated-time track, and log-linear [`Histogram`]s.
//!   A [`Collector::disabled`] collector is a guaranteed no-op that
//!   never allocates, so instrumented hot paths (the ISS inner loop,
//!   the net-level energy integrator) cost nothing when tracing is off.
//! * [`ChromeTraceWriter`] — exports a collector as Chrome
//!   `trace_event` JSON, loadable in Perfetto or `about://tracing`.
//!   Spans appear on the *host* (wall-clock) track; per-window
//!   simulation counters (IPC, cache misses, energy) appear on the
//!   *simulated time* track where one microsecond equals one cycle.
//! * [`json`] — a minimal self-contained JSON value type with a writer
//!   and a recursive-descent parser, used for every machine-readable
//!   report in the workspace (`emx-run --stats-json`,
//!   `emx-characterize --report`, the Chrome trace itself).
//! * [`doc`] — the one reader every `emx.*` document parser goes
//!   through: the `schema` envelope check and typed field access whose
//!   errors name the failing path (`$.runs[1].cycles: …`).
//!
//! # Example
//!
//! ```
//! use emx_obs::{ChromeTraceWriter, Collector};
//!
//! let mut c = Collector::new();
//! let phase = c.begin("simulate");
//! c.add("instructions", 1700.0);
//! c.sample_at("ipc", 1_000, 0.93);
//! c.end(phase);
//!
//! let trace = ChromeTraceWriter::new("demo").to_json(&c);
//! assert!(trace.get("traceEvents").unwrap().as_array().unwrap().len() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod collector;
pub mod doc;
mod hist;
pub mod json;

pub use chrome::ChromeTraceWriter;
pub use collector::{Collector, Event, EventKind, SpanId, SpanRecord, Track};
pub use hist::Histogram;
