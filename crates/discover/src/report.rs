//! The versioned `emx.discover-report/1` artifact.
//!
//! A discovery run serializes to one JSON document: the workload it was
//! mined from, the mining configuration, the enumeration funnel (what
//! was enumerated and why candidates were dropped), and the ranked
//! candidate list. Each candidate carries its complete TIE-language
//! source, its compiled metrics (latency, Eq.-4 area, component count)
//! and every concrete site it can be applied at — everything `emx-dse
//! --candidates` needs to rebuild the design space without re-mining.
//!
//! The document is fully deterministic: candidates are ranked by
//! (estimated saved cycles, canonical text), sites by text index, and
//! the writer emits keys in a fixed order, so byte-identical runs
//! produce byte-identical reports.

use emx_isa::Reg;
use emx_obs::doc::{self, Doc, DocError};
use emx_obs::json::Value;

use crate::mine::{Funnel, MineConfig};

/// Schema identifier of the report artifact.
pub const SCHEMA: &str = "emx.discover-report/1";

/// One concrete application site of a candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Absolute text indices of the fused instructions, ascending. The
    /// last member is the anchor the custom instruction replaces.
    pub members: Vec<usize>,
    /// First GPR operand register (`rs`) at this site.
    pub rs: u8,
    /// Second GPR operand register (`rt`); 0 when unused.
    pub rt: u8,
    /// Destination register (`rd`); 0 when the pattern writes no GPR.
    pub rd: u8,
    /// Dynamic execution count of the site's block.
    pub weight: u64,
}

impl Site {
    /// The anchor instruction index (the site's last member).
    pub fn anchor(&self) -> usize {
        *self.members.last().expect("sites are non-empty")
    }
}

/// One ranked discovered candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Rank-derived name (`ci1`, `ci2`, …) — also the TIE mnemonic.
    pub name: String,
    /// Complete TIE-language extension source for this candidate.
    pub tie: String,
    /// Compiler-derived latency in cycles.
    pub latency: u8,
    /// Eq.-4-derived area in net-equivalents.
    pub area: f64,
    /// Combinational components in the compiled graph.
    pub op_nodes: usize,
    /// Cycles one pattern execution costs on the base machine (sum of
    /// member costs).
    pub base_cost: u64,
    /// Summed dynamic weight over all sites.
    pub weight: u64,
    /// Estimated dynamic cycles saved: `weight × (base_cost − latency)`
    /// summed per site.
    pub saved_cycles_est: u64,
    /// Every site the candidate applies at, ascending by anchor.
    pub sites: Vec<Site>,
}

/// A full discovery run, ready for serialization.
#[derive(Debug, Clone)]
pub struct Report {
    /// Full name of the mined workload (e.g. `reed_solomon_rs1`).
    pub workload: String,
    /// Mining limits the run used.
    pub config: MineConfig,
    /// Simulation budget used for the counting replay.
    pub max_cycles: u64,
    /// Enumeration/drop counters.
    pub funnel: Funnel,
    /// Legal patterns found (pre-dedup).
    pub legal: u64,
    /// Ranked candidates (post-dedup).
    pub candidates: Vec<Candidate>,
}

impl Report {
    /// Serializes the report to its canonical JSON document.
    pub fn to_json(&self) -> Value {
        let mut root = Value::object();
        root.set("schema", SCHEMA);
        root.set("workload", self.workload.as_str());

        let mut config = Value::object();
        config.set("max_nodes", self.config.max_nodes);
        config.set("max_gpr_inputs", self.config.max_gpr_inputs);
        config.set("block_cap", self.config.block_cap);
        config.set("max_cycles", self.max_cycles);
        root.set("config", config);

        let mut funnel = Value::object();
        funnel.set("blocks", self.funnel.blocks);
        funnel.set("enumerated", self.funnel.enumerated);
        funnel.set("rejected_convex", self.funnel.rejected_convex);
        funnel.set("rejected_io", self.funnel.rejected_io);
        funnel.set("rejected_order", self.funnel.rejected_order);
        funnel.set("rejected_dead", self.funnel.rejected_dead);
        funnel.set("rejected_synth", self.funnel.rejected_synth);
        funnel.set("rejected_check", self.funnel.rejected_check);
        funnel.set("capped_blocks", self.funnel.capped_blocks);
        funnel.set("legal", self.legal);
        funnel.set("unique", self.candidates.len());
        root.set("funnel", funnel);

        let mut list = Value::array();
        for c in &self.candidates {
            let mut jc = Value::object();
            jc.set("name", c.name.as_str());
            jc.set("tie", c.tie.as_str());
            jc.set("latency", u64::from(c.latency));
            jc.set("area", c.area);
            jc.set("op_nodes", c.op_nodes);
            jc.set("base_cost", c.base_cost);
            jc.set("weight", c.weight);
            jc.set("saved_cycles_est", c.saved_cycles_est);
            let mut sites = Value::array();
            for s in &c.sites {
                let mut js = Value::object();
                let mut members = Value::array();
                for &m in &s.members {
                    members.push(m);
                }
                js.set("members", members);
                js.set("anchor", s.anchor());
                js.set("rs", u64::from(s.rs));
                js.set("rt", u64::from(s.rt));
                js.set("rd", u64::from(s.rd));
                js.set("weight", s.weight);
                sites.push(js);
            }
            jc.set("sites", sites);
            list.push(jc);
        }
        root.set("candidates", list);
        root
    }

    /// Parses a serialized report, validating the schema tag, every
    /// register index against the base register file and every integer
    /// against the range of its field.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path of the missing or malformed
    /// field.
    pub fn parse(text: &str) -> Result<Report, String> {
        let value = doc::open(text, SCHEMA)?;
        let doc = Doc::root(&value);
        let config = doc.field("config")?;
        let funnel = doc.field("funnel")?;
        let mut candidates = Vec::new();
        for c in doc.field("candidates")?.items()? {
            let mut sites = Vec::new();
            for s in c.field("sites")?.items()? {
                let members_doc = s.field("members")?;
                let members = members_doc
                    .items()?
                    .map(|m| m.uint())
                    .collect::<Result<Vec<usize>, _>>()?;
                if members.is_empty() {
                    return Err(members_doc.error("expected at least one member").into());
                }
                sites.push(Site {
                    members,
                    rs: register(&s.field("rs")?)?,
                    rt: register(&s.field("rt")?)?,
                    rd: register(&s.field("rd")?)?,
                    weight: s.field("weight")?.u64()?,
                });
            }
            candidates.push(Candidate {
                name: c.field("name")?.str()?.to_owned(),
                tie: c.field("tie")?.str()?.to_owned(),
                latency: c.field("latency")?.uint()?,
                area: c.field("area")?.f64()?,
                op_nodes: c.field("op_nodes")?.uint()?,
                base_cost: c.field("base_cost")?.u64()?,
                weight: c.field("weight")?.u64()?,
                saved_cycles_est: c.field("saved_cycles_est")?.u64()?,
                sites,
            });
        }
        Ok(Report {
            workload: doc.field("workload")?.str()?.to_owned(),
            config: MineConfig {
                max_nodes: config.field("max_nodes")?.uint()?,
                max_gpr_inputs: config.field("max_gpr_inputs")?.uint()?,
                block_cap: config.field("block_cap")?.uint()?,
            },
            max_cycles: config.field("max_cycles")?.u64()?,
            funnel: Funnel {
                blocks: funnel.field("blocks")?.u64()?,
                enumerated: funnel.field("enumerated")?.u64()?,
                rejected_convex: funnel.field("rejected_convex")?.u64()?,
                rejected_io: funnel.field("rejected_io")?.u64()?,
                rejected_order: funnel.field("rejected_order")?.u64()?,
                rejected_dead: funnel.field("rejected_dead")?.u64()?,
                rejected_synth: funnel.field("rejected_synth")?.u64()?,
                rejected_check: funnel.field("rejected_check")?.u64()?,
                capped_blocks: funnel.field("capped_blocks")?.u64()?,
            },
            legal: funnel.field("legal")?.u64()?,
            candidates,
        })
    }
}

/// A site's register operand: an index into the base register file.
fn register(doc: &Doc) -> Result<u8, DocError> {
    match doc.uint().ok().and_then(Reg::try_new) {
        Some(reg) => Ok(reg.index() as u8),
        None => Err(doc.error(format_args!(
            "expected register index < {}",
            Reg::all().count()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            workload: "reed_solomon_rs1".to_owned(),
            config: MineConfig::default(),
            max_cycles: 1_000_000,
            funnel: Funnel {
                blocks: 7,
                enumerated: 100,
                rejected_convex: 5,
                rejected_io: 10,
                rejected_order: 3,
                rejected_dead: 2,
                rejected_synth: 1,
                rejected_check: 0,
                capped_blocks: 0,
            },
            legal: 79,
            candidates: vec![Candidate {
                name: "ci1".to_owned(),
                tie: "extension ci1 { inst ci1(g0: gpr(32), out d: gpr) { d = g0; } }".to_owned(),
                latency: 1,
                area: 123.5,
                op_nodes: 2,
                base_cost: 3,
                weight: 400,
                saved_cycles_est: 800,
                sites: vec![Site {
                    members: vec![10, 12, 13],
                    rs: 2,
                    rt: 3,
                    rd: 5,
                    weight: 400,
                }],
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let text = r.to_json().to_string();
        let back = Report::parse(&text).unwrap();
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.funnel.enumerated, r.funnel.enumerated);
        assert_eq!(back.legal, r.legal);
        assert_eq!(back.candidates.len(), 1);
        assert_eq!(back.candidates[0].tie, r.candidates[0].tie);
        assert_eq!(back.candidates[0].sites, r.candidates[0].sites);
        assert_eq!(back.candidates[0].sites[0].anchor(), 13);
        // Serialization is stable byte-for-byte.
        assert_eq!(Report::parse(&text).unwrap().to_json().to_string(), text);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let mut v = sample().to_json();
        v.set("schema", "emx.other/9");
        let err = Report::parse(&v.to_string()).unwrap_err();
        assert!(err.contains("emx.discover-report/1"));
    }

    #[test]
    fn parse_rejects_missing_fields() {
        assert!(Report::parse("{}").is_err());
        assert!(Report::parse("not json").is_err());
    }
}
