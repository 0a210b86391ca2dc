//! # emx-dse — design-space exploration on top of the macro-model
//!
//! The paper's one-time hybrid characterization exists to make energy
//! evaluation cheap enough to sit *inside* a design-space exploration
//! loop. This crate is that loop:
//!
//! * [`space`] — candidate generation: power sets of TIE extension units
//!   under an area budget (net-equivalents derived from the RTL power
//!   library's component sizes), with dominance pruning before any
//!   evaluation,
//! * [`extract`] — the simulate-once / price-many split: one ISS run
//!   extracts a candidate's template-variable counts, and a pure dot
//!   product prices them under any fitted model,
//! * [`cache`] — a content-addressed extraction cache keyed by the hash
//!   of (extraction semantics, program, extension set, processor
//!   config), with optional JSON persistence across CLI invocations —
//!   a refitted model re-prices the warm cache instead of going cold,
//! * [`engine`] — a deterministic parallel batch evaluator over a shared
//!   work queue (`std::thread` scoped workers) plus the search driver,
//! * [`point`] — design points, Pareto front extraction and energy-delay
//!   ranking (absorbed from the former `core::dse`),
//! * [`shard`] — deterministic mask-range partitioning of the
//!   enumeration across worker processes, with a partition fingerprint
//!   that identifies which shards belong together,
//! * [`mod@merge`] — the per-shard `emx.dse-shard-report/1` artifact and
//!   the all-or-nothing merge of K shards back into a report
//!   byte-identical to the single-process one, folding the shards'
//!   cache deltas into one warm [`EstimationCache`],
//! * [`report`] — the stable `emx.dse-report/1` schema,
//! * [`error`] — the typed failure taxonomy ([`DseError`], [`CacheError`])
//!   that keeps failures *contained*: a bad candidate, a poisoned lock or
//!   a corrupt cache file costs that candidate or file, never the search,
//! * [`fault`] — injectable misbehaving estimators and IO shims for
//!   proving the containment contract in tests.
//!
//! # Example
//!
//! ```no_run
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let model: emx_core::EnergyMacroModel = unimplemented!();
//! use emx_dse::{explore, CandidateSpace, EstimationCache};
//! use emx_obs::Collector;
//! use emx_sim::ProcConfig;
//!
//! let space = CandidateSpace::reed_solomon();
//! let mut cache = EstimationCache::new();
//! let mut obs = Collector::new();
//! let out = explore(
//!     &model,
//!     &space,
//!     None,
//!     &ProcConfig::default(),
//!     0, // one worker per core
//!     &mut cache,
//!     &mut obs,
//! )?;
//! for &i in &out.pareto {
//!     let p = &out.points[i];
//!     println!("{}: {} in {} cycles", p.name, p.energy, p.cycles);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod error;
pub mod extract;
pub mod fault;
pub mod merge;
pub mod point;
pub mod report;
pub mod shard;
pub mod space;

pub use cache::{
    candidate_key, content_fingerprint, model_fingerprint, CacheEntry, CacheRecovery, CacheSalvage,
    EstimationCache, SharedEstimationCache,
};
pub use engine::{
    evaluate_batch, evaluate_batch_with, explore, explore_shard_with, explore_with, resolve_jobs,
    BatchResult, CandidateEstimator, Exploration, FailedCandidate,
};
pub use error::{CacheError, DseError};
pub use extract::{extract_counts, extraction_fingerprint, price, EXTRACTION_SCHEMA};
pub use merge::{merge, MergeOutcome, ShardReport, SHARD_SCHEMA};
pub use point::{pareto_front, rank_by_edp, DesignPoint};
pub use shard::{partition_fingerprint, EstimatorFingerprints, ShardSpec};
pub use space::{
    area_cost, CandidateSpace, DesignOption, EnumeratedCandidate, Enumeration, Selection,
    MAX_OPTIONS,
};
