//! The `emx.coverage-report/1` document: serialization and parsing.
//!
//! Like the validate report, the document is a pure function of the suite
//! — no timings, hostnames, or absolute paths — so two runs over the same
//! suite are byte-identical and CI can `cmp` them to prove determinism.
//!
//! Infinite values (a singular condition number, an exactly-collinear
//! VIF) serialize as JSON `null`, since JSON has no `Infinity` literal;
//! [`parse`] maps `null` back to `f64::INFINITY`.

use emx_obs::doc::{self, Doc, DocError};
use emx_obs::json::Value;

use crate::analyze::{
    CoverageAnalysis, Gap, GapKind, PairCorrelation, Thresholds, VariableExcitation,
};

/// Schema identifier embedded in, and required of, every report.
pub const SCHEMA: &str = "emx.coverage-report/1";

fn set_finite_or_null(doc: &mut Value, key: &str, value: f64) {
    if value.is_finite() {
        doc.set(key, value);
    } else {
        doc.set(key, Value::Null);
    }
}

/// Renders the analysis as an `emx.coverage-report/1` document.
pub fn to_json(analysis: &CoverageAnalysis) -> Value {
    let mut doc = Value::object();
    doc.set("schema", SCHEMA);
    doc.set("cases", analysis.cases as f64);
    set_finite_or_null(&mut doc, "condition_number", analysis.condition_number);
    doc.set("pass", analysis.passes());

    let mut th = Value::object();
    th.set(
        "min_nonzero_cases",
        analysis.thresholds.min_nonzero_cases as f64,
    );
    th.set(
        "max_pair_correlation",
        analysis.thresholds.max_pair_correlation,
    );
    th.set(
        "max_condition_number",
        analysis.thresholds.max_condition_number,
    );
    th.set("max_vif", analysis.thresholds.max_vif);
    doc.set("thresholds", th);

    let mut vars = Value::array();
    for v in &analysis.variables {
        let mut o = Value::object();
        o.set("name", v.name.as_str());
        o.set("nonzero_cases", v.nonzero_cases as f64);
        o.set("column_norm", v.column_norm);
        set_finite_or_null(&mut o, "vif", v.vif);
        vars.push(o);
    }
    doc.set("variables", vars);

    let mut pairs = Value::array();
    for p in &analysis.pairs {
        let mut o = Value::object();
        o.set("a", p.a.as_str());
        o.set("b", p.b.as_str());
        o.set("abs_r", p.abs_r);
        pairs.push(o);
    }
    doc.set("pairs", pairs);

    let mut gaps = Value::array();
    for g in &analysis.gaps {
        let mut o = Value::object();
        o.set("variable", g.variable.as_str());
        o.set("reason", g.reason());
        match &g.kind {
            GapKind::UnderExcited { nonzero_cases } => {
                o.set("nonzero_cases", *nonzero_cases as f64);
            }
            GapKind::Collinear { partner, abs_r } => {
                o.set("partner", partner.as_str());
                o.set("abs_r", *abs_r);
            }
            GapKind::Inflated { vif } => o.set("vif", *vif),
        }
        gaps.push(o);
    }
    doc.set("gaps", gaps);
    doc
}

/// Parses a coverage report back into a [`CoverageAnalysis`].
///
/// Rejects unknown schema versions outright, for the same reason the
/// validate gate does: comparing across schema changes would pass on
/// vacuous matches. The recorded `pass` flag is not trusted — callers
/// should re-derive it from [`CoverageAnalysis::passes`].
pub fn parse(text: &str) -> Result<CoverageAnalysis, String> {
    let value = doc::open(text, SCHEMA)?;
    let doc = Doc::root(&value);
    let th = doc.field("thresholds")?;
    let mut variables = Vec::new();
    for v in doc.field("variables")?.items()? {
        variables.push(VariableExcitation {
            name: v.field("name")?.str()?.to_owned(),
            nonzero_cases: v.field("nonzero_cases")?.uint()?,
            column_norm: v.field("column_norm")?.f64()?,
            vif: finite_or_null(&v.field("vif")?)?,
        });
    }
    let mut pairs = Vec::new();
    for p in doc.field("pairs")?.items()? {
        pairs.push(PairCorrelation {
            a: p.field("a")?.str()?.to_owned(),
            b: p.field("b")?.str()?.to_owned(),
            abs_r: p.field("abs_r")?.f64()?,
        });
    }
    let mut gaps = Vec::new();
    for g in doc.field("gaps")?.items()? {
        let reason = g.field("reason")?;
        let kind = match reason.str()? {
            "under-excited" => GapKind::UnderExcited {
                nonzero_cases: g.field("nonzero_cases")?.uint()?,
            },
            "collinear" => GapKind::Collinear {
                partner: g.field("partner")?.str()?.to_owned(),
                abs_r: g.field("abs_r")?.f64()?,
            },
            "inflated" => GapKind::Inflated {
                vif: finite_or_null(&g.field("vif")?)?,
            },
            other => {
                return Err(reason
                    .error(format_args!("unknown gap reason `{other}`"))
                    .into())
            }
        };
        gaps.push(Gap {
            variable: g.field("variable")?.str()?.to_owned(),
            kind,
        });
    }
    Ok(CoverageAnalysis {
        cases: doc.field("cases")?.uint()?,
        variables,
        pairs,
        condition_number: finite_or_null(&doc.field("condition_number")?)?,
        gaps,
        thresholds: Thresholds {
            min_nonzero_cases: th.field("min_nonzero_cases")?.uint()?,
            max_pair_correlation: th.field("max_pair_correlation")?.f64()?,
            max_condition_number: th.field("max_condition_number")?.f64()?,
            max_vif: th.field("max_vif")?.f64()?,
        },
    })
}

/// The inverse of [`set_finite_or_null`]: `null` reads as infinity.
fn finite_or_null(doc: &Doc) -> Result<f64, DocError> {
    doc.nullable().map_or(Ok(f64::INFINITY), |n| n.f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoverageAnalysis {
        CoverageAnalysis {
            cases: 40,
            variables: vec![
                VariableExcitation {
                    name: "alpha_A".into(),
                    nonzero_cases: 40,
                    column_norm: 123.5,
                    vif: 3.2,
                },
                VariableExcitation {
                    name: "beta_ucf".into(),
                    nonzero_cases: 1,
                    column_norm: 4.0,
                    vif: f64::INFINITY,
                },
            ],
            pairs: vec![PairCorrelation {
                a: "alpha_A".into(),
                b: "beta_icm".into(),
                abs_r: 0.91,
            }],
            condition_number: 812.0,
            gaps: vec![
                Gap {
                    variable: "beta_ucf".into(),
                    kind: GapKind::UnderExcited { nonzero_cases: 1 },
                },
                Gap {
                    variable: "beta_icm".into(),
                    kind: GapKind::Collinear {
                        partner: "alpha_A".into(),
                        abs_r: 0.96,
                    },
                },
                Gap {
                    variable: "gamma_CI".into(),
                    kind: GapKind::Inflated { vif: 44.0 },
                },
            ],
            thresholds: Thresholds::default(),
        }
    }

    #[test]
    fn json_round_trip_preserves_the_analysis() {
        let a = sample();
        let text = to_json(&a).to_string();
        assert_eq!(parse(&text).expect("parses"), a);
    }

    #[test]
    fn infinite_condition_number_round_trips_as_null() {
        let mut a = sample();
        a.condition_number = f64::INFINITY;
        // An exactly collinear variable no other gap names is reported
        // as inflated with an infinite VIF.
        a.gaps[2].kind = GapKind::Inflated { vif: f64::INFINITY };
        let text = to_json(&a).to_string();
        assert!(text.contains("\"condition_number\": null"), "{text}");
        let back = parse(&text).expect("parses");
        assert!(back.condition_number.is_infinite());
        assert_eq!(back.gaps[2].kind, GapKind::Inflated { vif: f64::INFINITY });
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut doc = to_json(&sample());
        doc.set("schema", "emx.coverage-report/999");
        let err = parse(&doc.to_string()).expect_err("must reject");
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = sample();
        assert_eq!(to_json(&a).to_string(), to_json(&a).to_string());
    }
}
