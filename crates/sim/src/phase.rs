//! Phase-attribution profiling for the ISS hot path.
//!
//! The micro-op engine behind [`Interp`](crate::Interp) walks five fixed
//! sections per retired instruction — decode (the pre-decoded table
//! lookup), fetch, execute, data memory, and observation (statistics
//! totals and the activity record). A [`PhaseRecorder`] attributes host
//! wall-clock time to each section so the bench report can show *where*
//! simulator time goes, not just how much there is.
//!
//! The design mirrors [`ActivitySink`](crate::ActivitySink): the
//! recorder is a generic parameter with a `const ACTIVE` flag, so the
//! disabled path ([`NullPhases`]) compiles to the exact instruction
//! stream the un-instrumented simulator had — no `Instant::now()`
//! calls, no branches, nothing for the neutrality test to measure.

use std::fmt;
use std::time::Instant;

use emx_obs::doc::{Doc, DocError};
use emx_obs::json::Value;
use emx_obs::Collector;

/// One section of the ISS per-instruction loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Instruction fetch: I-cache lookup / uncached-fetch accounting.
    Fetch,
    /// Instruction lookup in the pre-decoded micro-op table.
    Decode,
    /// Architectural execution plus per-class cycle accounting, interlock
    /// detection and hazard bookkeeping.
    Execute,
    /// Data-memory access and D-cache simulation.
    Memory,
    /// Statistics totals and the activity record.
    Observe,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 5] = [
        Phase::Fetch,
        Phase::Decode,
        Phase::Execute,
        Phase::Memory,
        Phase::Observe,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lower-case name, used as the JSON key and counter suffix.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Fetch => "fetch",
            Phase::Decode => "decode",
            Phase::Execute => "execute",
            Phase::Memory => "memory",
            Phase::Observe => "observe",
        }
    }

    /// Dense index into [`Phase::ALL`].
    pub fn index(self) -> usize {
        match self {
            Phase::Fetch => 0,
            Phase::Decode => 1,
            Phase::Execute => 2,
            Phase::Memory => 3,
            Phase::Observe => 4,
        }
    }
}

/// Consumer of per-phase host-time attributions.
///
/// Mirrors [`ActivitySink`](crate::ActivitySink): implementations with
/// `ACTIVE = false` guarantee the simulator takes zero timestamps.
pub trait PhaseRecorder {
    /// `false` for recorders that ignore attributions; lets the
    /// simulator skip reading the clock entirely.
    const ACTIVE: bool = true;

    /// Attributes `nanos` of host time to `phase`.
    fn add(&mut self, phase: Phase, nanos: u64);

    /// Called once per retired instruction, after its last phase.
    fn retire(&mut self) {}
}

/// A recorder that discards everything; the compiler removes both the
/// calls and the surrounding clock reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPhases;

impl PhaseRecorder for NullPhases {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn add(&mut self, _phase: Phase, _nanos: u64) {}
}

/// Accumulated per-phase host time over a profiled run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    ns: [u64; Phase::COUNT],
    steps: u64,
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Host nanoseconds attributed to `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.ns[phase.index()]
    }

    /// Total attributed host nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Retired instructions observed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Share of total attributed time spent in `phase`, in percent
    /// (0 when nothing was attributed).
    pub fn percent(&self, phase: Phase) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            100.0 * self.nanos(phase) as f64 / total as f64
        }
    }

    /// Folds the profile into `collector` as monotone counters named
    /// `iss.phase.<name>_ns` plus `iss.phase.steps`.
    pub fn export_to(&self, collector: &mut Collector) {
        for phase in Phase::ALL {
            collector.add(
                format!("iss.phase.{}_ns", phase.name()),
                self.nanos(phase) as f64,
            );
        }
        collector.add("iss.phase.steps", self.steps as f64);
    }

    /// Deterministic JSON object: `{"steps": n, "total_ns": n,
    /// "fetch_ns": n, ..., "observe_ns": n}`.
    pub fn to_json(&self) -> Value {
        let mut obj = vec![
            ("steps".to_owned(), Value::Num(self.steps as f64)),
            ("total_ns".to_owned(), Value::Num(self.total_ns() as f64)),
        ];
        for phase in Phase::ALL {
            obj.push((
                format!("{}_ns", phase.name()),
                Value::Num(self.nanos(phase) as f64),
            ));
        }
        Value::Obj(obj)
    }

    /// Parses a document produced by [`PhaseProfile::to_json`], given as
    /// a [`Value`] or as a [`Doc`] inside a larger document.
    ///
    /// # Errors
    ///
    /// A [`DocError`] naming the first missing or malformed field.
    pub fn from_json<'a, 'p>(doc: impl Into<Doc<'a, 'p>>) -> Result<Self, DocError> {
        let doc = doc.into();
        let mut profile = PhaseProfile {
            steps: doc.field("steps")?.u64()?,
            ..PhaseProfile::default()
        };
        for phase in Phase::ALL {
            profile.ns[phase.index()] = doc.field(&format!("{}_ns", phase.name()))?.u64()?;
        }
        Ok(profile)
    }
}

impl PhaseRecorder for PhaseProfile {
    #[inline(always)]
    fn add(&mut self, phase: Phase, nanos: u64) {
        self.ns[phase.index()] += nanos;
    }

    #[inline(always)]
    fn retire(&mut self) {
        self.steps += 1;
    }
}

impl fmt::Display for PhaseProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<10} {:>14} {:>7}", "phase", "host ns", "share")?;
        for phase in Phase::ALL {
            writeln!(
                f,
                "{:<10} {:>14} {:>6.1}%",
                phase.name(),
                self.nanos(phase),
                self.percent(phase)
            )?;
        }
        write!(
            f,
            "{:<10} {:>14} {:>6.1}%",
            "total",
            self.total_ns(),
            if self.total_ns() == 0 { 0.0 } else { 100.0 }
        )
    }
}

/// Advances the lap clock: attributes the time since `*last` to
/// `phase` and restarts the lap. Compiles to nothing when the recorder
/// is inactive.
#[inline(always)]
pub(crate) fn lap<P: PhaseRecorder>(phases: &mut P, phase: Phase, last: &mut Option<Instant>) {
    if P::ACTIVE {
        let now = Instant::now();
        if let Some(prev) = *last {
            phases.add(phase, now.duration_since(prev).as_nanos() as u64);
        }
        *last = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_all_order() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
    }

    #[test]
    fn percentages_sum_to_hundred() {
        let mut p = PhaseProfile::new();
        p.add(Phase::Fetch, 10);
        p.add(Phase::Execute, 60);
        p.add(Phase::Observe, 30);
        p.retire();
        let sum: f64 = Phase::ALL.iter().map(|&ph| p.percent(ph)).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert_eq!(p.total_ns(), 100);
        assert_eq!(p.steps(), 1);
    }

    #[test]
    fn json_round_trip() {
        let mut p = PhaseProfile::new();
        for (i, phase) in Phase::ALL.iter().enumerate() {
            p.add(*phase, (i as u64 + 1) * 1000);
        }
        p.retire();
        p.retire();
        let text = p.to_json().to_string();
        let doc = Value::parse(&text).unwrap();
        assert_eq!(PhaseProfile::from_json(&doc).unwrap(), p);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let doc = Value::parse(r#"{"steps": 1, "total_ns": 0}"#).unwrap();
        let err = PhaseProfile::from_json(&doc).unwrap_err().to_string();
        assert!(err.contains("fetch_ns"), "{err}");
    }

    #[test]
    fn export_writes_counters() {
        let mut p = PhaseProfile::new();
        p.add(Phase::Memory, 42);
        p.retire();
        let mut c = Collector::new();
        p.export_to(&mut c);
        assert_eq!(c.counter("iss.phase.memory_ns"), 42.0);
        assert_eq!(c.counter("iss.phase.steps"), 1.0);
        assert_eq!(c.counter("iss.phase.fetch_ns"), 0.0);
    }
}
