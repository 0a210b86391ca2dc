//! The `emx.dse-shard-report/1` artifact and the byte-deterministic
//! merge of K shards back into one `emx.dse-report/1`.
//!
//! A shard run (see [`crate::shard`]) evaluates one mask range of the
//! space and writes a **shard report**: its evaluated rows, its
//! contained failures, the extraction-cache delta it produced, the
//! `evaluated`/`reused` counters, and the partition fingerprint that
//! identifies which partition of which search it belongs to. [`merge`]
//! recombines K such artifacts:
//!
//! * it refuses whole on any defect — a truncated file, a foreign
//!   schema, a fingerprint conflict, a missing or duplicated shard
//!   index, or rows that do not add up to the partition's survivor
//!   count all yield a typed [`DseError`] and **no** output (a partial
//!   merge would masquerade as a complete search);
//! * on success it rebuilds the [`ReportInputs`] of the equivalent
//!   single-process run — candidates re-sorted into global
//!   ascending-mask order, failures re-sorted by name — so rendering
//!   them through [`crate::report::render`] is byte-identical to the
//!   report one process would have written;
//! * the shard cache deltas fold into one [`EstimationCache`], ready
//!   for the existing atomic-save/salvage machinery, which is what
//!   makes the *next* refit incremental: re-exploring over the merged
//!   cache re-prices every candidate without a single new ISS pass.

use emx_obs::doc::{self, Doc, DocError};
use emx_obs::json::Value;

use crate::cache::EstimationCache;
use crate::engine::Exploration;
use crate::error::DseError;
use crate::report::{self, ReportCandidate, ReportFailure, ReportInputs};
use crate::shard::ShardSpec;

/// The per-shard document schema.
pub const SHARD_SCHEMA: &str = "emx.dse-shard-report/1";

/// One shard's contribution to a partitioned search — everything the
/// merge needs to reconstruct the single-process outcome.
#[derive(Debug)]
pub struct ShardReport {
    /// Which shard of the partition this is.
    pub shard: ShardSpec,
    /// The partition fingerprint all sibling shards must share.
    pub partition_fingerprint: u64,
    /// Name of the explored space.
    pub workload: String,
    /// The area budget applied, if any.
    pub budget: Option<f64>,
    /// The space's option table (name/area pairs, declaration order).
    pub options: Vec<(String, f64)>,
    /// Subsets walked by the full enumeration (global, not per shard).
    pub enumerated: usize,
    /// Subsets dropped for exceeding the budget (global).
    pub over_budget: usize,
    /// Subsets dropped as dominated (global).
    pub pruned: usize,
    /// Global survivor count of the full enumeration — what the shards'
    /// evaluated plus failed rows must sum to.
    pub survivors_total: usize,
    /// Extractions this shard actually simulated (cache misses).
    pub evaluated: usize,
    /// Candidates this shard priced from cached extractions.
    pub reused: usize,
    /// This shard's evaluated rows, in ascending-mask order.
    pub candidates: Vec<ReportCandidate>,
    /// This shard's contained failures, sorted by name.
    pub failed: Vec<ReportFailure>,
    /// The extraction-cache entries this shard's run added.
    pub cache_delta: EstimationCache,
    /// Where this report came from (file path), for error messages.
    /// Not serialized.
    pub source_name: String,
}

impl ShardReport {
    /// Captures a shard exploration as a report, given the space's
    /// option table and the cache delta the run produced (see
    /// [`EstimationCache::delta_since`]).
    pub fn from_exploration(
        exploration: &Exploration,
        options: &[(String, f64)],
        cache_delta: EstimationCache,
    ) -> ShardReport {
        let inputs = report::inputs(exploration, options);
        ShardReport {
            shard: exploration.shard,
            partition_fingerprint: exploration.partition_fingerprint,
            workload: inputs.workload,
            budget: inputs.budget,
            options: inputs.options,
            enumerated: inputs.enumerated,
            over_budget: inputs.over_budget,
            pruned: inputs.pruned,
            survivors_total: exploration.survivors_total,
            evaluated: exploration.evaluated,
            reused: exploration.reused,
            candidates: inputs.candidates,
            failed: inputs.failed,
            cache_delta,
            source_name: "<memory>".to_owned(),
        }
    }

    /// Serializes the shard report. Like the main report, the document
    /// is byte-deterministic: independent of `--jobs`, dependent on
    /// cache warmth only through the honest `evaluated`/`reused`
    /// counters and the delta itself.
    pub fn to_json(&self) -> Value {
        let mut doc = Value::object();
        doc.set("schema", SHARD_SCHEMA);
        let mut shard = Value::object();
        shard.set("index", u64::from(self.shard.index()));
        shard.set("count", u64::from(self.shard.count()));
        doc.set("shard", shard);
        // Hex text: a u64 hash does not survive the JSON number type.
        doc.set(
            "partition_fingerprint",
            format!("{:016x}", self.partition_fingerprint),
        );
        doc.set("workload", self.workload.as_str());
        match self.budget {
            Some(b) => doc.set("budget", b),
            None => doc.set("budget", Value::Null),
        }
        let mut opts = Value::array();
        for (name, area) in &self.options {
            let mut o = Value::object();
            o.set("name", name.as_str());
            o.set("area", *area);
            opts.push(o);
        }
        doc.set("options", opts);
        doc.set("enumerated", self.enumerated as u64);
        doc.set("over_budget", self.over_budget as u64);
        doc.set("pruned", self.pruned as u64);
        doc.set("survivors", self.survivors_total as u64);
        doc.set("evaluated", self.evaluated as u64);
        doc.set("reused", self.reused as u64);

        let mut candidates = Value::array();
        for c in &self.candidates {
            let mut v = Value::object();
            v.set("name", c.name.as_str());
            v.set("mask", c.mask as u64);
            let mut names = Value::array();
            for o in &c.options {
                names.push(o.as_str());
            }
            v.set("options", names);
            v.set("workload", c.workload.as_str());
            v.set("area", c.area);
            v.set("energy_pj", c.energy_pj);
            v.set("cycles", c.cycles);
            candidates.push(v);
        }
        doc.set("candidates", candidates);

        let mut failed = Value::array();
        for f in &self.failed {
            let mut v = Value::object();
            v.set("name", f.name.as_str());
            v.set("code", f.code.as_str());
            v.set("error", f.message.as_str());
            failed.push(v);
        }
        doc.set("failed_candidates", failed);

        // The delta rides along as a complete `emx.dse-cache/2`
        // document, so the merge reads it with the cache's own reader.
        doc.set("cache_delta", self.cache_delta.to_json());
        doc
    }

    /// Parses a shard report, naming `source_name` (the file path) in
    /// any error.
    ///
    /// # Errors
    ///
    /// [`DseError::ShardSchemaMismatch`] for a foreign `schema`;
    /// [`DseError::ShardReportCorrupt`] for anything else wrong with
    /// the document — unparseable JSON (a truncated write), missing or
    /// mistyped fields, an invalid shard index, a damaged cache delta.
    pub fn parse(text: &str, source_name: &str) -> Result<ShardReport, DseError> {
        let corrupt = |e: DocError| DseError::ShardReportCorrupt {
            source_name: source_name.to_owned(),
            detail: e.to_string(),
        };
        let value = doc::open(text, SHARD_SCHEMA).map_err(|e| match e {
            DocError::Schema { found, .. } => DseError::ShardSchemaMismatch {
                source_name: source_name.to_owned(),
                found: found.unwrap_or_else(|| "<missing>".to_owned()),
            },
            e => corrupt(e),
        })?;
        Self::read(Doc::root(&value), source_name).map_err(corrupt)
    }

    fn read(doc: Doc, source_name: &str) -> Result<ShardReport, DocError> {
        let shard = doc.field("shard")?;
        let fingerprint = doc.field("partition_fingerprint")?;
        let mut options = Vec::new();
        for o in doc.field("options")?.items()? {
            options.push((o.field("name")?.str()?.to_owned(), o.field("area")?.f64()?));
        }
        let mut candidates = Vec::new();
        for c in doc.field("candidates")?.items()? {
            candidates.push(ReportCandidate {
                name: c.field("name")?.str()?.to_owned(),
                mask: c.field("mask")?.uint()?,
                options: c
                    .field("options")?
                    .items()?
                    .map(|o| o.str().map(str::to_owned))
                    .collect::<Result<_, _>>()?,
                workload: c.field("workload")?.str()?.to_owned(),
                area: c.field("area")?.f64()?,
                energy_pj: c.field("energy_pj")?.f64()?,
                cycles: c.field("cycles")?.u64()?,
            });
        }
        let mut failed = Vec::new();
        for f in doc.field("failed_candidates")?.items()? {
            failed.push(ReportFailure {
                name: f.field("name")?.str()?.to_owned(),
                code: f.field("code")?.str()?.to_owned(),
                message: f.field("error")?.str()?.to_owned(),
            });
        }
        let delta = doc.field("cache_delta")?;
        let (cache_delta, salvage) = EstimationCache::salvage(delta)?;
        if let Some(bad) = salvage.skipped.first() {
            return Err(delta.error(format_args!("bad entry: {bad}")));
        }
        Ok(ShardReport {
            shard: ShardSpec::new(shard.field("index")?.uint()?, shard.field("count")?.uint()?)
                .map_err(|e| shard.error(e))?,
            partition_fingerprint: u64::from_str_radix(fingerprint.str()?, 16)
                .map_err(|_| fingerprint.error("expected a hexadecimal fingerprint"))?,
            workload: doc.field("workload")?.str()?.to_owned(),
            budget: doc
                .field("budget")?
                .nullable()
                .map(|b| b.f64())
                .transpose()?,
            options,
            enumerated: doc.field("enumerated")?.uint()?,
            over_budget: doc.field("over_budget")?.uint()?,
            pruned: doc.field("pruned")?.uint()?,
            survivors_total: doc.field("survivors")?.uint()?,
            evaluated: doc.field("evaluated")?.uint()?,
            reused: doc.field("reused")?.uint()?,
            candidates,
            failed,
            cache_delta,
            source_name: source_name.to_owned(),
        })
    }
}

/// The successful recombination of a complete partition.
#[derive(Debug)]
pub struct MergeOutcome {
    /// The reconstructed single-process report inputs — render with
    /// [`crate::report::render`] for the byte-identical
    /// `emx.dse-report/1`.
    pub inputs: ReportInputs,
    /// All shard cache deltas folded into one cache.
    pub cache_delta: EstimationCache,
    /// Total extractions simulated across the shards.
    pub evaluated: usize,
    /// Total candidates priced from cached extractions.
    pub reused: usize,
    /// How many shards were merged.
    pub shards: u32,
}

/// Merges a complete set of shard reports. All-or-nothing: any defect
/// in any input yields a typed error and no output.
///
/// # Errors
///
/// * [`DseError::ShardFingerprintMismatch`] — inputs from different
///   partitions (space, budget, model, simulator, or shard count).
/// * [`DseError::ShardDuplicate`] / [`DseError::ShardMissing`] — the
///   index set is not exactly `1..=count`.
/// * [`DseError::ShardReportCorrupt`] — no inputs at all, or rows that
///   do not sum to the partition's survivor count (a report produced by
///   a damaged or hand-edited flow).
pub fn merge(reports: Vec<ShardReport>) -> Result<MergeOutcome, DseError> {
    let first = reports
        .first()
        .ok_or_else(|| DseError::ShardReportCorrupt {
            source_name: "<merge>".to_owned(),
            detail: "no shard reports given".to_owned(),
        })?;
    let (fingerprint, count) = (first.partition_fingerprint, first.shard.count());
    for r in &reports {
        if r.partition_fingerprint != fingerprint {
            return Err(DseError::ShardFingerprintMismatch {
                expected: format!("{fingerprint:016x}"),
                found: format!("{:016x}", r.partition_fingerprint),
                source_name: r.source_name.clone(),
            });
        }
    }
    // Fingerprint equality implies equal shard counts (the count is
    // hashed), so index coverage is the only set property left to check.
    let mut seen = vec![false; count as usize];
    for r in &reports {
        let slot = &mut seen[(r.shard.index() - 1) as usize];
        if *slot {
            return Err(DseError::ShardDuplicate {
                index: r.shard.index(),
                count,
            });
        }
        *slot = true;
    }
    if let Some(absent) = seen.iter().position(|&s| !s) {
        return Err(DseError::ShardMissing {
            index: absent as u32 + 1,
            count,
        });
    }

    let rows: usize = reports
        .iter()
        .map(|r| r.candidates.len() + r.failed.len())
        .sum();
    if rows != first.survivors_total {
        return Err(DseError::ShardReportCorrupt {
            source_name: "<merge>".to_owned(),
            detail: format!(
                "shards carry {rows} rows but the partition has {} survivors",
                first.survivors_total
            ),
        });
    }

    let mut reports = reports;
    reports.sort_by_key(|r| r.shard.index());
    let mut inputs = ReportInputs {
        workload: reports[0].workload.clone(),
        budget: reports[0].budget,
        options: reports[0].options.clone(),
        enumerated: reports[0].enumerated,
        over_budget: reports[0].over_budget,
        pruned: reports[0].pruned,
        failed: Vec::new(),
        candidates: Vec::new(),
    };
    let mut cache_delta = EstimationCache::new();
    let (mut evaluated, mut reused) = (0usize, 0usize);
    for r in reports {
        inputs.candidates.extend(r.candidates);
        inputs.failed.extend(r.failed);
        evaluated += r.evaluated;
        reused += r.reused;
        cache_delta.absorb(r.cache_delta);
    }
    // Shards arrive in index order, i.e. already in ascending-mask
    // order; the sorts restate the single-process invariants exactly.
    inputs.candidates.sort_by_key(|c| c.mask);
    inputs.failed.sort_by(|a, b| a.name.cmp(&b.name));

    Ok(MergeOutcome {
        inputs,
        cache_delta,
        evaluated,
        reused,
        shards: count,
    })
}
