//! The `emx.bench-report/1` snapshot: a machine-readable record of one
//! headless benchmark run.
//!
//! A report carries an environment fingerprint (so comparisons across
//! machines can be flagged), per-benchmark latency statistics with the
//! full log-linear histogram (so later tooling can ask new percentile
//! questions of old snapshots), and the ISS per-phase host-time
//! breakdown. Emission is deterministic modulo the measured timings:
//! same records in, same bytes out.

use std::process::Command;

use emx_obs::doc::{self, Doc, DocError};
use emx_obs::json::Value;
use emx_obs::Histogram;
use emx_sim::PhaseProfile;

use crate::harness::BenchRecord;

/// Schema identifier of the report document.
pub const SCHEMA: &str = "emx.bench-report/1";

/// Fingerprint of the machine and build that produced a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Environment {
    /// `rustc --version` output (or `"unknown"`).
    pub rustc: String,
    /// Host triple approximation: `<arch>-<os>`.
    pub target: String,
    /// Logical CPUs available (0 when undetectable).
    pub cpu_count: u64,
    /// `"release"` or `"debug"`.
    pub opt_level: String,
    /// Short git revision of the working tree (or `"unknown"`).
    /// Excluded from mismatch gating: a baseline is *supposed* to come
    /// from an older revision than the run compared against it.
    pub git_rev: String,
}

impl Environment {
    /// Captures the current environment.
    pub fn capture() -> Environment {
        Environment {
            rustc: first_line("rustc", &["--version"]),
            target: format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS),
            cpu_count: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
            opt_level: if cfg!(debug_assertions) {
                "debug".to_owned()
            } else {
                "release".to_owned()
            },
            git_rev: first_line("git", &["rev-parse", "--short=12", "HEAD"]),
        }
    }

    /// Names of fingerprint fields that differ between `self` and
    /// `other`, ignoring `git_rev` (see its doc). Empty means the two
    /// reports are comparable without a cross-machine caveat.
    pub fn mismatches(&self, other: &Environment) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.rustc != other.rustc {
            out.push("rustc");
        }
        if self.target != other.target {
            out.push("target");
        }
        if self.cpu_count != other.cpu_count {
            out.push("cpu_count");
        }
        if self.opt_level != other.opt_level {
            out.push("opt_level");
        }
        out
    }

    fn to_json(&self) -> Value {
        let mut doc = Value::object();
        doc.set("rustc", self.rustc.as_str());
        doc.set("target", self.target.as_str());
        doc.set("cpu_count", self.cpu_count);
        doc.set("opt_level", self.opt_level.as_str());
        doc.set("git_rev", self.git_rev.as_str());
        doc
    }

    fn from_json(doc: &Doc) -> Result<Environment, DocError> {
        Ok(Environment {
            rustc: doc.field("rustc")?.str()?.to_owned(),
            target: doc.field("target")?.str()?.to_owned(),
            cpu_count: doc.field("cpu_count")?.u64()?,
            opt_level: doc.field("opt_level")?.str()?.to_owned(),
            git_rev: doc.field("git_rev")?.str()?.to_owned(),
        })
    }
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One benchmark's measured statistics inside a report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Full `group/id` name.
    pub name: String,
    /// Samples collected.
    pub samples: u64,
    /// Inner iterations batched per sample.
    pub iters_per_sample: u64,
    /// Declared elements processed per iteration, if any.
    pub throughput_elements: Option<u64>,
    /// Fastest per-iteration sample, nanoseconds.
    pub min_ns: u64,
    /// Median per-iteration latency, nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile per-iteration latency, nanoseconds.
    pub p90_ns: u64,
    /// Mean per-iteration latency, nanoseconds.
    pub mean_ns: f64,
    /// The full per-iteration latency distribution.
    pub hist: Histogram,
}

impl BenchEntry {
    /// Summarizes a harness record into a report entry.
    pub fn from_record(record: &BenchRecord) -> BenchEntry {
        BenchEntry {
            name: record.full_name(),
            samples: record.samples as u64,
            iters_per_sample: record.iters_per_sample,
            throughput_elements: record.throughput_elements,
            min_ns: record.hist.min(),
            p50_ns: record.hist.percentile(50.0),
            p90_ns: record.hist.percentile(90.0),
            mean_ns: record.hist.mean(),
            hist: record.hist.clone(),
        }
    }

    fn to_json(&self) -> Value {
        let mut doc = Value::object();
        doc.set("name", self.name.as_str());
        doc.set("samples", self.samples);
        doc.set("iters_per_sample", self.iters_per_sample);
        if let Some(elements) = self.throughput_elements {
            doc.set("throughput_elements", elements);
        }
        doc.set("min_ns", self.min_ns);
        doc.set("p50_ns", self.p50_ns);
        doc.set("p90_ns", self.p90_ns);
        doc.set("mean_ns", self.mean_ns);
        doc.set("hist", self.hist.to_json());
        doc
    }

    fn from_json(doc: &Doc) -> Result<BenchEntry, DocError> {
        Ok(BenchEntry {
            name: doc.field("name")?.str()?.to_owned(),
            samples: doc.field("samples")?.u64()?,
            iters_per_sample: doc.field("iters_per_sample")?.u64()?,
            throughput_elements: doc
                .opt("throughput_elements")?
                .map(|n| n.u64())
                .transpose()?,
            min_ns: doc.field("min_ns")?.u64()?,
            p50_ns: doc.field("p50_ns")?.u64()?,
            p90_ns: doc.field("p90_ns")?.u64()?,
            mean_ns: doc.field("mean_ns")?.f64()?,
            hist: Histogram::from_json(doc.field("hist")?)?,
        })
    }
}

/// The ISS per-phase host-time breakdown for one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEntry {
    /// Workload name.
    pub workload: String,
    /// Accumulated per-phase times.
    pub profile: PhaseProfile,
}

/// A full `emx.bench-report/1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Machine/build fingerprint.
    pub environment: Environment,
    /// Per-benchmark statistics, in run order.
    pub benchmarks: Vec<BenchEntry>,
    /// ISS phase breakdowns, in run order.
    pub phases: Vec<PhaseEntry>,
}

impl BenchReport {
    /// Assembles a report from harness records and phase breakdowns.
    pub fn new(
        environment: Environment,
        records: &[BenchRecord],
        phases: Vec<PhaseEntry>,
    ) -> BenchReport {
        BenchReport {
            environment,
            benchmarks: records.iter().map(BenchEntry::from_record).collect(),
            phases,
        }
    }

    /// Looks up a benchmark entry by its full name.
    pub fn benchmark(&self, name: &str) -> Option<&BenchEntry> {
        self.benchmarks.iter().find(|b| b.name == name)
    }

    /// The report as a deterministic JSON document.
    pub fn to_json(&self) -> Value {
        let mut doc = Value::object();
        doc.set("schema", SCHEMA);
        doc.set("environment", self.environment.to_json());
        let mut benchmarks = Value::array();
        for entry in &self.benchmarks {
            benchmarks.push(entry.to_json());
        }
        doc.set("benchmarks", benchmarks);
        let mut phases = Value::array();
        for entry in &self.phases {
            let mut p = Value::object();
            p.set("workload", entry.workload.as_str());
            p.set("profile", entry.profile.to_json());
            phases.push(p);
        }
        doc.set("phases", phases);
        doc
    }

    /// Serialized report text (one trailing newline, per the repo's
    /// schema conventions).
    pub fn to_text(&self) -> String {
        let mut text = self.to_json().to_string();
        text.push('\n');
        text
    }

    /// Parses report text.
    ///
    /// # Errors
    ///
    /// A description of the first syntax error, schema mismatch, or
    /// missing field.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let value = doc::open(text, SCHEMA)?;
        let doc = Doc::root(&value);
        let benchmarks = doc
            .field("benchmarks")?
            .items()?
            .map(|b| BenchEntry::from_json(&b))
            .collect::<Result<_, _>>()?;
        let mut phases = Vec::new();
        for p in doc.field("phases")?.items()? {
            phases.push(PhaseEntry {
                workload: p.field("workload")?.str()?.to_owned(),
                profile: PhaseProfile::from_json(p.field("profile")?)?,
            });
        }
        Ok(BenchReport {
            environment: Environment::from_json(&doc.field("environment")?)?,
            benchmarks,
            phases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_report() -> BenchReport {
        let mut hist = Histogram::new();
        for v in [900u64, 1000, 1000, 1100, 2000] {
            hist.record(v);
        }
        let record = BenchRecord {
            group: "iss".into(),
            id: "matmul".into(),
            samples: 5,
            iters_per_sample: 3,
            throughput_elements: Some(1234),
            hist,
        };
        let mut profile = PhaseProfile::new();
        {
            use emx_sim::PhaseRecorder;
            profile.add(emx_sim::Phase::Execute, 700);
            profile.add(emx_sim::Phase::Fetch, 300);
            profile.retire();
        }
        BenchReport::new(
            Environment {
                rustc: "rustc 1.80.0".into(),
                target: "x86_64-linux".into(),
                cpu_count: 8,
                opt_level: "release".into(),
                git_rev: "abc123def456".into(),
            },
            &[record],
            vec![PhaseEntry {
                workload: "matmul".into(),
                profile,
            }],
        )
    }

    #[test]
    fn round_trip_is_exact() {
        let report = sample_report();
        let back = BenchReport::parse(&report.to_text()).unwrap();
        assert_eq!(back, report);
        // Emission is deterministic: same report, same bytes.
        assert_eq!(back.to_text(), report.to_text());
    }

    #[test]
    fn entry_statistics_come_from_the_histogram() {
        let report = sample_report();
        let entry = report.benchmark("iss/matmul").unwrap();
        assert_eq!(entry.min_ns, entry.hist.min());
        assert_eq!(entry.p50_ns, entry.hist.percentile(50.0));
        assert_eq!(entry.p90_ns, entry.hist.percentile(90.0));
        assert!(entry.p50_ns <= entry.p90_ns);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let text = sample_report()
            .to_text()
            .replace(SCHEMA, "emx.bench-report/2");
        let err = BenchReport::parse(&text).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn parse_rejects_syntax_and_missing_fields() {
        assert!(BenchReport::parse("not json").is_err());
        assert!(BenchReport::parse("{}").is_err());
        let text = sample_report().to_text().replace("\"benchmarks\"", "\"b\"");
        assert!(BenchReport::parse(&text).is_err());
    }

    #[test]
    fn environment_mismatch_ignores_git_rev() {
        let a = sample_report().environment;
        let mut b = a.clone();
        b.git_rev = "ffffffffffff".into();
        assert!(a.mismatches(&b).is_empty());
        b.cpu_count = 4;
        b.rustc = "rustc 1.81.0".into();
        assert_eq!(a.mismatches(&b), vec!["rustc", "cpu_count"]);
    }
}
