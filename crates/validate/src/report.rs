//! The `emx.validate-report/1` document: serialization, parsing, and the
//! golden-report accuracy gate.
//!
//! The report intentionally contains **no timings, hostnames, or
//! absolute paths** — for a fixed seed and workload suite it is
//! byte-stable across reruns, which is what lets CI `cmp` two runs to
//! prove determinism and diff a fresh report against the committed
//! golden.
//!
//! The gate is *one-sided*: a report only fails against the golden when
//! accuracy got **worse** beyond the epsilon — better numbers always
//! pass, so routine model improvements never require a lockstep golden
//! update (regenerate the golden when convenient; see DESIGN.md §12).

use emx_obs::doc::{self, Doc};
use emx_obs::json::Value;

use crate::cachecheck::CacheConsistency;
use crate::fuzz::FuzzOutcome;
use crate::xval::CrossValidation;

/// Schema identifier embedded in, and required of, every report.
pub const SCHEMA: &str = "emx.validate-report/1";

/// Per-variable-group accuracy numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Group name (`overall`, `alpha`, `beta`, `gamma_CI`, `delta`).
    pub name: String,
    /// Held-out cases attributed to the group.
    pub cases: u64,
    /// Mean absolute percent error over those cases.
    pub mean_abs_percent: f64,
    /// Worst absolute percent error over those cases.
    pub max_abs_percent: f64,
    /// Coefficient of determination of predicted vs observed energy.
    pub r_squared: f64,
}

/// Differential-fuzzing summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzSummary {
    /// Base seed of the campaign.
    pub seed: u64,
    /// Cases run.
    pub cases: u64,
    /// Tolerance used, in percent.
    pub tolerance_percent: f64,
    /// Tolerance violations found.
    pub violations: u64,
    /// Largest |percent error| across all cases.
    pub max_abs_percent: f64,
    /// Mean |percent error| across all cases.
    pub mean_abs_percent: f64,
}

/// DSE cache-consistency summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSummary {
    /// Candidates evaluated three ways.
    pub candidates: u64,
    /// Whether all passes were byte-identical.
    pub byte_identical: bool,
}

/// The comparable content of a validation report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSummary {
    /// Fold-scheme label (`loo` or `kfold-<k>`).
    pub scheme: String,
    /// Number of folds refit.
    pub folds: u64,
    /// Folds that needed the ridge fallback.
    pub ridge_folds: u64,
    /// Per-group accuracy, `overall` first.
    pub groups: Vec<GroupSummary>,
    /// Fuzzing summary, when the campaign ran.
    pub fuzz: Option<FuzzSummary>,
    /// Cache-consistency summary, when the check ran.
    pub cache: Option<CacheSummary>,
}

/// Assembles a summary from the validation stages' native results.
pub fn summarize(
    xval: &CrossValidation,
    fuzz: Option<(&FuzzOutcome, u64)>,
    cache: Option<&CacheConsistency>,
) -> ReportSummary {
    ReportSummary {
        scheme: xval.scheme.clone(),
        folds: xval.folds as u64,
        ridge_folds: xval.ridge_folds as u64,
        groups: xval
            .groups
            .iter()
            .map(|g| GroupSummary {
                name: g.name.clone(),
                cases: g.cases as u64,
                mean_abs_percent: g.mean_abs_percent,
                max_abs_percent: g.max_abs_percent,
                r_squared: g.r_squared,
            })
            .collect(),
        fuzz: fuzz.map(|(f, seed)| FuzzSummary {
            seed,
            cases: f.cases as u64,
            tolerance_percent: f.tolerance_percent,
            violations: f.violations.len() as u64,
            max_abs_percent: f.max_abs_percent,
            mean_abs_percent: f.mean_abs_percent,
        }),
        cache: cache.map(|c| CacheSummary {
            candidates: c.candidates as u64,
            byte_identical: c.byte_identical,
        }),
    }
}

/// Renders the full report document (summary plus optional per-case
/// prediction detail for human inspection).
pub fn to_json(summary: &ReportSummary, xval: Option<&CrossValidation>) -> Value {
    let mut doc = Value::object();
    doc.set("schema", SCHEMA);

    let mut cv = Value::object();
    cv.set("scheme", summary.scheme.as_str());
    cv.set("folds", summary.folds as f64);
    cv.set("ridge_folds", summary.ridge_folds as f64);
    let mut groups = Value::array();
    for g in &summary.groups {
        let mut o = Value::object();
        o.set("name", g.name.as_str());
        o.set("cases", g.cases as f64);
        o.set("mean_abs_percent", g.mean_abs_percent);
        o.set("max_abs_percent", g.max_abs_percent);
        o.set("r_squared", g.r_squared);
        groups.push(o);
    }
    cv.set("groups", groups);
    if let Some(xval) = xval {
        let mut preds = Value::array();
        for p in &xval.predictions {
            let mut o = Value::object();
            o.set("name", p.name.as_str());
            o.set("fold", p.fold as f64);
            o.set("observed_pj", p.observed);
            o.set("predicted_pj", p.predicted);
            o.set("percent_error", p.percent_error);
            preds.push(o);
        }
        cv.set("predictions", preds);
    }
    doc.set("cross_validation", cv);

    match &summary.fuzz {
        Some(f) => {
            let mut o = Value::object();
            o.set("seed", f.seed as f64);
            o.set("cases", f.cases as f64);
            o.set("tolerance_percent", f.tolerance_percent);
            o.set("violations", f.violations as f64);
            o.set("max_abs_percent", f.max_abs_percent);
            o.set("mean_abs_percent", f.mean_abs_percent);
            doc.set("fuzz", o);
        }
        None => doc.set("fuzz", Value::Null),
    }
    match &summary.cache {
        Some(c) => {
            let mut o = Value::object();
            o.set("candidates", c.candidates as f64);
            o.set("byte_identical", c.byte_identical);
            doc.set("cache_consistency", o);
        }
        None => doc.set("cache_consistency", Value::Null),
    }
    doc
}

/// Parses a report document back into its comparable summary.
///
/// Rejects unknown schema versions outright: a gate that silently
/// compares across schema changes would pass on vacuous matches.
pub fn parse(text: &str) -> Result<ReportSummary, String> {
    let value = doc::open(text, SCHEMA)?;
    let doc = Doc::root(&value);
    let cv = doc.field("cross_validation")?;
    let mut groups = Vec::new();
    for g in cv.field("groups")?.items()? {
        groups.push(GroupSummary {
            name: g.field("name")?.str()?.to_owned(),
            cases: g.field("cases")?.u64()?,
            mean_abs_percent: g.field("mean_abs_percent")?.f64()?,
            max_abs_percent: g.field("max_abs_percent")?.f64()?,
            r_squared: g.field("r_squared")?.f64()?,
        });
    }
    let fuzz = match doc.opt("fuzz")? {
        None => None,
        Some(f) => Some(FuzzSummary {
            seed: f.field("seed")?.u64()?,
            cases: f.field("cases")?.u64()?,
            tolerance_percent: f.field("tolerance_percent")?.f64()?,
            violations: f.field("violations")?.u64()?,
            max_abs_percent: f.field("max_abs_percent")?.f64()?,
            mean_abs_percent: f.field("mean_abs_percent")?.f64()?,
        }),
    };
    let cache = match doc.opt("cache_consistency")? {
        None => None,
        Some(c) => Some(CacheSummary {
            candidates: c.field("candidates")?.u64()?,
            byte_identical: c.field("byte_identical")?.bool()?,
        }),
    };
    Ok(ReportSummary {
        scheme: cv.field("scheme")?.str()?.to_owned(),
        folds: cv.field("folds")?.u64()?,
        ridge_folds: cv.field("ridge_folds")?.u64()?,
        groups,
        fuzz,
        cache,
    })
}

/// Compares `current` against `golden` with slack `epsilon` (percentage
/// points for error metrics, `epsilon / 100` for R²). Returns the list of
/// regressions — empty means the gate passes.
///
/// One-sided: improvements never fail, and extra groups or newly enabled
/// stages in `current` never fail. Only metrics the golden records can
/// regress.
pub fn compare(current: &ReportSummary, golden: &ReportSummary, epsilon: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    if current.scheme != golden.scheme {
        regressions.push(format!(
            "fold scheme changed: `{}` vs golden `{}` (accuracy numbers are not comparable)",
            current.scheme, golden.scheme
        ));
        return regressions;
    }
    for g in &golden.groups {
        let Some(c) = current.groups.iter().find(|c| c.name == g.name) else {
            regressions.push(format!("group `{}` disappeared from the report", g.name));
            continue;
        };
        if c.mean_abs_percent > g.mean_abs_percent + epsilon {
            regressions.push(format!(
                "group `{}`: mean abs error {:.3}% exceeds golden {:.3}% + {epsilon}pp",
                g.name, c.mean_abs_percent, g.mean_abs_percent
            ));
        }
        if c.max_abs_percent > g.max_abs_percent + epsilon {
            regressions.push(format!(
                "group `{}`: max abs error {:.3}% exceeds golden {:.3}% + {epsilon}pp",
                g.name, c.max_abs_percent, g.max_abs_percent
            ));
        }
        if c.r_squared < g.r_squared - epsilon / 100.0 {
            regressions.push(format!(
                "group `{}`: R² {:.5} fell below golden {:.5} - {}",
                g.name,
                c.r_squared,
                g.r_squared,
                epsilon / 100.0
            ));
        }
    }
    if let Some(gf) = &golden.fuzz {
        match &current.fuzz {
            None => regressions.push("fuzz stage disappeared from the report".to_owned()),
            Some(cf) => {
                if cf.violations > gf.violations {
                    regressions.push(format!(
                        "fuzz violations rose: {} vs golden {}",
                        cf.violations, gf.violations
                    ));
                }
                if cf.max_abs_percent > gf.max_abs_percent + epsilon {
                    regressions.push(format!(
                        "fuzz max abs error {:.3}% exceeds golden {:.3}% + {epsilon}pp",
                        cf.max_abs_percent, gf.max_abs_percent
                    ));
                }
            }
        }
    }
    if let Some(gc) = &golden.cache {
        match &current.cache {
            None => regressions.push("cache-consistency stage disappeared".to_owned()),
            Some(cc) => {
                if gc.byte_identical && !cc.byte_identical {
                    regressions.push("DSE cache is no longer byte-identical".to_owned());
                }
            }
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReportSummary {
        ReportSummary {
            scheme: "loo".into(),
            folds: 40,
            ridge_folds: 2,
            groups: vec![
                GroupSummary {
                    name: "overall".into(),
                    cases: 40,
                    mean_abs_percent: 3.5,
                    max_abs_percent: 9.1,
                    r_squared: 0.992,
                },
                GroupSummary {
                    name: "gamma_CI".into(),
                    cases: 12,
                    mean_abs_percent: 4.0,
                    max_abs_percent: 8.0,
                    r_squared: 0.99,
                },
            ],
            fuzz: Some(FuzzSummary {
                seed: 7,
                cases: 200,
                tolerance_percent: 25.0,
                violations: 0,
                max_abs_percent: 11.0,
                mean_abs_percent: 4.2,
            }),
            cache: Some(CacheSummary {
                candidates: 16,
                byte_identical: true,
            }),
        }
    }

    #[test]
    fn json_round_trip_preserves_the_summary() {
        let s = sample();
        let text = to_json(&s, None).to_string();
        assert_eq!(parse(&text).expect("parses"), s);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut doc = to_json(&sample(), None);
        doc.set("schema", "emx.validate-report/999");
        let err = parse(&doc.to_string()).expect_err("must reject");
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let s = sample();
        assert!(compare(&s, &s, 0.5).is_empty());
    }

    #[test]
    fn improvements_pass_one_sided() {
        let golden = sample();
        let mut better = golden.clone();
        better.groups[0].mean_abs_percent = 1.0;
        better.groups[0].r_squared = 0.999;
        better.fuzz.as_mut().expect("set").max_abs_percent = 2.0;
        assert!(compare(&better, &golden, 0.5).is_empty());
    }

    #[test]
    fn regressions_beyond_epsilon_fail() {
        let golden = sample();
        let mut worse = golden.clone();
        worse.groups[0].mean_abs_percent += 0.6;
        let regressions = compare(&worse, &golden, 0.5);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("mean abs error"));

        // Within epsilon: passes.
        let mut jitter = golden.clone();
        jitter.groups[0].mean_abs_percent += 0.4;
        assert!(compare(&jitter, &golden, 0.5).is_empty());
    }

    #[test]
    fn new_fuzz_violations_fail() {
        let golden = sample();
        let mut worse = golden.clone();
        worse.fuzz.as_mut().expect("set").violations = 1;
        let regressions = compare(&worse, &golden, 0.5);
        assert!(regressions.iter().any(|r| r.contains("violations rose")));
    }

    #[test]
    fn cache_breakage_fails() {
        let golden = sample();
        let mut worse = golden.clone();
        worse.cache.as_mut().expect("set").byte_identical = false;
        assert!(!compare(&worse, &golden, 0.5).is_empty());
    }

    #[test]
    fn scheme_mismatch_is_not_comparable() {
        let golden = sample();
        let mut other = golden.clone();
        other.scheme = "kfold-5".into();
        let regressions = compare(&other, &golden, 0.5);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("not comparable"));
    }
}
