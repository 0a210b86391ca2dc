//! Typed errors for the exploration engine.
//!
//! The design goal is *failure containment*: a design-space search runs
//! unattended for hours, so one bad candidate, one poisoned lock or one
//! corrupt cache file must fail **small** — the affected candidate or file
//! — never the whole session. Every variant here records enough context
//! (candidate name, file path, entry key) to diagnose the failure from a
//! report alone, and every variant maps onto the workspace-wide
//! [`EmxError`] taxonomy with a stable machine-readable code.

use std::error::Error;
use std::fmt;

use emx_core::{error::sim_error_code, EmxError, ErrorKind};
use emx_obs::doc::DocError;
use emx_sim::SimError;

/// Why one persisted cache file could not be used as-is.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheError {
    /// The file exists but could not be read.
    Io(String),
    /// The file is not valid JSON (often: a write cut short by a crash).
    Corrupt(String),
    /// The file parses but declares a different schema than
    /// [`crate::cache::SCHEMA`] (e.g. a pre-migration `emx.dse-cache/1`
    /// file, whose priced entries cannot be re-priced).
    SchemaMismatch(String),
    /// One entry inside an otherwise valid document is malformed.
    BadEntry(String),
    /// The recovered file could not be quarantined or rewritten.
    WriteFailed(String),
}

/// A cache document that fails to read: a foreign `schema` tag is a
/// [`CacheError::SchemaMismatch`], anything else [`CacheError::Corrupt`].
impl From<DocError> for CacheError {
    fn from(e: DocError) -> Self {
        match e {
            DocError::Syntax(e) => CacheError::Corrupt(e.to_string()),
            DocError::Schema { found, .. } => CacheError::SchemaMismatch(format!("{found:?}")),
            e @ DocError::Field { .. } => CacheError::Corrupt(e.to_string()),
        }
    }
}

impl CacheError {
    /// The stable machine code for this failure.
    pub fn code(&self) -> &'static str {
        match self {
            CacheError::Io(_) => "cache.io",
            CacheError::Corrupt(_) => "cache.corrupt",
            CacheError::SchemaMismatch(_) => "cache.schema_mismatch",
            CacheError::BadEntry(_) => "cache.bad_entry",
            CacheError::WriteFailed(_) => "cache.write_failed",
        }
    }
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(m) => write!(f, "cache file unreadable: {m}"),
            CacheError::Corrupt(m) => write!(f, "cache file corrupt: {m}"),
            CacheError::SchemaMismatch(m) => write!(f, "cache schema mismatch: {m}"),
            CacheError::BadEntry(m) => write!(f, "malformed cache entry: {m}"),
            CacheError::WriteFailed(m) => write!(f, "cache write failed: {m}"),
        }
    }
}

impl Error for CacheError {}

/// Errors from candidate enumeration and batch evaluation.
#[derive(Debug)]
#[non_exhaustive]
pub enum DseError {
    /// The candidate space has more options than the enumerator can
    /// address: `2^options` subsets would exceed the enumerable width.
    SpaceTooLarge {
        /// Number of design options in the space.
        options: usize,
        /// Largest supported option count.
        max: usize,
    },
    /// A worker's estimate of one candidate returned a simulation error.
    /// Contained: only this candidate is lost.
    WorkerFailed {
        /// The candidate being evaluated.
        candidate: String,
        /// The underlying simulator error.
        source: SimError,
    },
    /// A worker panicked while evaluating one candidate. The panic was
    /// caught; only this candidate is lost.
    WorkerPanicked {
        /// The candidate being evaluated.
        candidate: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A persisted cache file could not be used (see [`CacheError`]).
    Cache(CacheError),
    /// A shard request does not describe a valid partition: the index is
    /// outside `1..=count` or the count is zero.
    ShardInvalid {
        /// The requested 1-based shard index.
        index: u32,
        /// The requested shard count.
        count: u32,
    },
    /// A shard report file is not a well-formed
    /// `emx.dse-shard-report/1` document (often: a write cut short).
    /// The merge refuses whole — a partial merge is never produced.
    ShardReportCorrupt {
        /// Which file (or in-memory source) was damaged.
        source_name: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A shard report declares a different schema than
    /// [`crate::merge::SHARD_SCHEMA`].
    ShardSchemaMismatch {
        /// Which file declared it.
        source_name: String,
        /// The schema it declared.
        found: String,
    },
    /// Two shard reports carry different partition fingerprints — they
    /// come from different spaces, budgets, models, or shard counts and
    /// must not be merged.
    ShardFingerprintMismatch {
        /// Fingerprint of the first report (hex).
        expected: String,
        /// The conflicting fingerprint (hex).
        found: String,
        /// Which file carried the conflicting fingerprint.
        source_name: String,
    },
    /// The merge input covers only part of the partition: shard `index`
    /// of `count` has no report.
    ShardMissing {
        /// The absent 1-based shard index.
        index: u32,
        /// The partition's shard count.
        count: u32,
    },
    /// Two merge inputs claim the same shard index.
    ShardDuplicate {
        /// The duplicated 1-based shard index.
        index: u32,
        /// The partition's shard count.
        count: u32,
    },
}

impl DseError {
    /// The stable machine code for this failure (mirrors
    /// [`EmxError::code`]).
    pub fn code(&self) -> &'static str {
        match self {
            DseError::SpaceTooLarge { .. } => "space.too_large",
            DseError::WorkerFailed { source, .. } => sim_error_code(source),
            DseError::WorkerPanicked { .. } => "worker.panicked",
            DseError::Cache(e) => e.code(),
            DseError::ShardInvalid { .. } => "shard.invalid",
            DseError::ShardReportCorrupt { .. } => "shard.report_corrupt",
            DseError::ShardSchemaMismatch { .. } => "shard.schema_mismatch",
            DseError::ShardFingerprintMismatch { .. } => "shard.fingerprint_mismatch",
            DseError::ShardMissing { .. } => "shard.missing",
            DseError::ShardDuplicate { .. } => "shard.duplicate",
        }
    }
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::SpaceTooLarge { options, max } => write!(
                f,
                "candidate space has {options} options; at most {max} are enumerable"
            ),
            DseError::WorkerFailed { candidate, source } => {
                write!(f, "evaluating `{candidate}` failed: {source}")
            }
            DseError::WorkerPanicked { candidate, message } => {
                write!(f, "worker panicked evaluating `{candidate}`: {message}")
            }
            DseError::Cache(e) => write!(f, "{e}"),
            DseError::ShardInvalid { index, count } => write!(
                f,
                "invalid shard {index}/{count}: expected 1 <= index <= count"
            ),
            DseError::ShardReportCorrupt {
                source_name,
                detail,
            } => write!(f, "shard report `{source_name}` corrupt: {detail}"),
            DseError::ShardSchemaMismatch { source_name, found } => write!(
                f,
                "shard report `{source_name}` declares schema `{found}`, \
                 expected `{}`",
                crate::merge::SHARD_SCHEMA
            ),
            DseError::ShardFingerprintMismatch {
                expected,
                found,
                source_name,
            } => write!(
                f,
                "shard report `{source_name}` has partition fingerprint \
                 {found}, conflicting with {expected}: shards come from \
                 different spaces, budgets, models, or shard counts"
            ),
            DseError::ShardMissing { index, count } => {
                write!(f, "merge input is missing shard {index}/{count}")
            }
            DseError::ShardDuplicate { index, count } => {
                write!(
                    f,
                    "merge input has more than one report for shard {index}/{count}"
                )
            }
        }
    }
}

impl Error for DseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DseError::WorkerFailed { source, .. } => Some(source),
            DseError::Cache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CacheError> for DseError {
    fn from(e: CacheError) -> Self {
        DseError::Cache(e)
    }
}

impl From<CacheError> for EmxError {
    fn from(e: CacheError) -> Self {
        EmxError::new(ErrorKind::Cache, e.code(), e.to_string()).with_source(e)
    }
}

impl From<DseError> for EmxError {
    fn from(e: DseError) -> Self {
        let kind = match &e {
            DseError::SpaceTooLarge { .. } => ErrorKind::Space,
            DseError::WorkerFailed { .. } | DseError::WorkerPanicked { .. } => ErrorKind::Worker,
            DseError::Cache(_) => ErrorKind::Cache,
            // A bad `i/N` request is a usage error (exit 2); bad or
            // inconsistent merge *input files* are data errors (exit 1).
            DseError::ShardInvalid { .. } => ErrorKind::Usage,
            DseError::ShardReportCorrupt { .. } | DseError::ShardSchemaMismatch { .. } => {
                ErrorKind::Parse
            }
            DseError::ShardFingerprintMismatch { .. }
            | DseError::ShardMissing { .. }
            | DseError::ShardDuplicate { .. } => ErrorKind::Space,
        };
        EmxError::new(kind, e.code(), e.to_string()).with_source(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_kind_mapped() {
        let e = DseError::SpaceTooLarge {
            options: 99,
            max: 24,
        };
        assert_eq!(e.code(), "space.too_large");
        let u: EmxError = e.into();
        assert_eq!(u.kind(), ErrorKind::Space);
        assert_eq!(u.exit_code(), 1);

        let e = DseError::WorkerPanicked {
            candidate: "gf16".into(),
            message: "boom".into(),
        };
        assert_eq!(e.code(), "worker.panicked");
        let u: EmxError = e.into();
        assert_eq!(u.kind(), ErrorKind::Worker);
        assert_eq!(u.exit_code(), 3);

        let e = DseError::WorkerFailed {
            candidate: "base".into(),
            source: SimError::CycleLimit(7),
        };
        assert_eq!(e.code(), "sim.cycle_limit");
        assert!(std::error::Error::source(&e).is_some());

        let e: DseError = CacheError::SchemaMismatch("other/1".into()).into();
        assert_eq!(e.code(), "cache.schema_mismatch");
        let u: EmxError = e.into();
        assert_eq!(u.kind(), ErrorKind::Cache);
    }
}
