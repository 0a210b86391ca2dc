use std::fmt;

use emx_isa::DynClass;
use emx_obs::doc::{Doc, DocError};
use emx_obs::json::Value;

/// Execution statistics gathered by instruction-set simulation — the raw
/// material of the macro-model's independent variables (steps 6/7 and 9/10
/// of the paper's flow).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecStats {
    /// Cycles spent by each dynamic base-instruction class
    /// (`n_A, n_L, n_S, n_J, n_Bt, n_Bu`), indexed by
    /// [`DynClass::index`]. Includes the pipeline cycles architecturally
    /// attributed to the class (e.g. taken-branch flush bubbles) but not
    /// stall/miss penalties, which have their own variables.
    pub class_cycles: [u64; 6],
    /// Dynamic instruction count per class.
    pub class_counts: [u64; 6],
    /// Instruction-cache misses (`n_icm`).
    pub icache_misses: u64,
    /// Data-cache misses (`n_dcm`), including uncached data accesses.
    pub dcache_misses: u64,
    /// Uncached instruction fetches (`n_ucf`).
    pub uncached_fetches: u64,
    /// Pipeline interlocks (`n_ilk`): load-use, multiplier-use and
    /// custom-result hazards, one stall cycle each.
    pub interlocks: u64,
    /// Cycles spent by custom instructions that access the general-purpose
    /// register file (`n_CI`, the base-processor side-effect variable).
    pub ci_gpr_cycles: u64,
    /// Total cycles spent by custom instructions (whether or not they
    /// touch the GPR file).
    pub custom_cycles: u64,
    /// Executions of each custom instruction, indexed by
    /// [`emx_isa::CustomId`] value.
    pub custom_counts: Vec<u64>,
    /// Structural activity per hardware-library category: the accumulated
    /// `Σ_j f(C_ij) · activations(i,j)` of Eq. (4), indexed by
    /// [`emx_hwlib::Category::index`]. This is the output of the dynamic
    /// resource-usage analysis.
    pub struct_activity: [f64; 10],
    /// Raw (complexity-unweighted) component activations per category —
    /// kept alongside [`ExecStats::struct_activity`] so ablation studies
    /// can quantify the value of the `f(C)` bit-width weighting.
    pub struct_activations: [f64; 10],
    /// Cycles attributed to each base opcode, indexed by
    /// [`emx_isa::Opcode::index`] — enables finer-than-class model
    /// granularity in ablation studies.
    pub opcode_cycles: Vec<u64>,
    /// Total cycles, including all penalties.
    pub total_cycles: u64,
    /// Total retired instructions.
    pub inst_count: u64,
}

impl ExecStats {
    /// Creates zeroed statistics sized for an extension set with
    /// `num_custom` instructions.
    pub fn new(num_custom: usize) -> Self {
        ExecStats {
            custom_counts: vec![0; num_custom],
            opcode_cycles: vec![0; emx_isa::Opcode::ALL.len()],
            ..Default::default()
        }
    }

    /// Cycles attributed to one dynamic class.
    pub fn cycles_of(&self, class: DynClass) -> u64 {
        self.class_cycles[class.index()]
    }

    /// Dynamic count of one class.
    pub fn count_of(&self, class: DynClass) -> u64 {
        self.class_counts[class.index()]
    }

    /// Sum of all per-class cycles (base instructions only).
    pub fn base_class_cycles(&self) -> u64 {
        self.class_cycles.iter().sum()
    }

    /// Serializes the statistics as JSON with a stable, versioned schema
    /// (`emx-run --stats-json` emits exactly this document).
    ///
    /// Schema `emx.exec-stats/1`:
    ///
    /// ```text
    /// {
    ///   "schema": "emx.exec-stats/1",
    ///   "instructions": u64,            // total retired instructions
    ///   "total_cycles": u64,            // including all penalties
    ///   "classes": {                    // one entry per dynamic class,
    ///     "arithmetic":     { "count": u64, "cycles": u64 },
    ///     "load":           { ... },    // keys are DynClass names:
    ///     ...                           // arithmetic, load, store, jump,
    ///   },                              // branch-taken, branch-untaken
    ///   "icache_misses": u64,           // n_icm
    ///   "dcache_misses": u64,           // n_dcm (incl. uncached data)
    ///   "uncached_fetches": u64,        // n_ucf
    ///   "interlocks": u64,              // n_ilk
    ///   "ci_gpr_cycles": u64,           // n_CI
    ///   "custom_cycles": u64,
    ///   "custom_counts": [u64, ...],    // indexed by CustomId
    ///   "structural": {                 // one entry per hwlib category
    ///     "multiplier": { "activity": f64, "activations": f64 },
    ///     ...                           // keys are Category names
    ///   },
    ///   "opcode_cycles": { "add": u64, ... }  // nonzero opcodes only
    /// }
    /// ```
    ///
    /// Additions will bump the schema suffix; existing keys never change
    /// meaning within a version.
    pub fn to_json(&self) -> Value {
        let mut doc = Value::object();
        doc.set("schema", "emx.exec-stats/1");
        doc.set("instructions", self.inst_count);
        doc.set("total_cycles", self.total_cycles);

        let mut classes = Value::object();
        for class in DynClass::ALL {
            let mut entry = Value::object();
            entry.set("count", self.count_of(class));
            entry.set("cycles", self.cycles_of(class));
            classes.set(&class.to_string(), entry);
        }
        doc.set("classes", classes);

        doc.set("icache_misses", self.icache_misses);
        doc.set("dcache_misses", self.dcache_misses);
        doc.set("uncached_fetches", self.uncached_fetches);
        doc.set("interlocks", self.interlocks);
        doc.set("ci_gpr_cycles", self.ci_gpr_cycles);
        doc.set("custom_cycles", self.custom_cycles);
        doc.set(
            "custom_counts",
            Value::from(
                self.custom_counts
                    .iter()
                    .map(|&n| Value::from(n))
                    .collect::<Vec<Value>>(),
            ),
        );

        let mut structural = Value::object();
        for category in emx_hwlib::Category::ALL {
            let mut entry = Value::object();
            entry.set("activity", self.struct_activity[category.index()]);
            entry.set("activations", self.struct_activations[category.index()]);
            structural.set(&category.to_string(), entry);
        }
        doc.set("structural", structural);

        let mut opcodes = Value::object();
        for opcode in emx_isa::Opcode::ALL {
            let cycles = self.opcode_cycles[opcode.index()];
            if cycles > 0 {
                opcodes.set(opcode.mnemonic(), cycles);
            }
        }
        doc.set("opcode_cycles", opcodes);
        doc
    }

    /// Parses a document written by [`ExecStats::to_json`] back into
    /// statistics, from a [`Value`] or a [`Doc`] inside a larger
    /// document (a cache entry).
    ///
    /// The round trip is **exact**: `obs::json` prints floats in
    /// shortest-round-trip form and every counter fits `f64` losslessly
    /// under the 2³²-cycle simulation budget, so
    /// `ExecStats::from_json(&s.to_json()) == Ok(s)`. The DSE
    /// extraction cache relies on this to re-price persisted counts
    /// byte-identically to a fresh simulation.
    ///
    /// # Errors
    ///
    /// A [`DocError`] when the schema differs or a required field is
    /// missing or malformed.
    pub fn from_json<'a, 'p>(doc: impl Into<Doc<'a, 'p>>) -> Result<ExecStats, DocError> {
        let doc = doc.into();
        doc.schema("emx.exec-stats/1")?;
        let mut s = ExecStats::new(0);
        s.inst_count = doc.field("instructions")?.u64()?;
        s.total_cycles = doc.field("total_cycles")?.u64()?;
        let classes = doc.field("classes")?;
        for class in DynClass::ALL {
            let name = class.to_string();
            let entry = classes.field(&name)?;
            s.class_counts[class.index()] = entry.field("count")?.u64()?;
            s.class_cycles[class.index()] = entry.field("cycles")?.u64()?;
        }
        s.icache_misses = doc.field("icache_misses")?.u64()?;
        s.dcache_misses = doc.field("dcache_misses")?.u64()?;
        s.uncached_fetches = doc.field("uncached_fetches")?.u64()?;
        s.interlocks = doc.field("interlocks")?.u64()?;
        s.ci_gpr_cycles = doc.field("ci_gpr_cycles")?.u64()?;
        s.custom_cycles = doc.field("custom_cycles")?.u64()?;
        s.custom_counts = doc
            .field("custom_counts")?
            .items()?
            .map(|n| n.u64())
            .collect::<Result<_, _>>()?;
        let structural = doc.field("structural")?;
        for category in emx_hwlib::Category::ALL {
            let name = category.to_string();
            let entry = structural.field(&name)?;
            s.struct_activity[category.index()] = entry.field("activity")?.f64()?;
            s.struct_activations[category.index()] = entry.field("activations")?.f64()?;
        }
        let opcodes = doc.field("opcode_cycles")?;
        for opcode in emx_isa::Opcode::ALL {
            if let Some(cycles) = opcodes.opt(opcode.mnemonic())? {
                s.opcode_cycles[opcode.index()] = cycles.u64()?;
            }
        }
        Ok(s)
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instructions: {}", self.inst_count)?;
        writeln!(f, "cycles:       {}", self.total_cycles)?;
        for class in DynClass::ALL {
            writeln!(
                f,
                "  {:<16} {:>10} insts {:>10} cycles",
                class.to_string(),
                self.count_of(class),
                self.cycles_of(class)
            )?;
        }
        writeln!(f, "  icache misses   {:>10}", self.icache_misses)?;
        writeln!(f, "  dcache misses   {:>10}", self.dcache_misses)?;
        writeln!(f, "  uncached fetch  {:>10}", self.uncached_fetches)?;
        writeln!(f, "  interlocks      {:>10}", self.interlocks)?;
        writeln!(
            f,
            "  custom cycles   {:>10} (GPR-coupled: {})",
            self.custom_cycles, self.ci_gpr_cycles
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_construction() {
        let s = ExecStats::new(3);
        assert_eq!(s.custom_counts, vec![0, 0, 0]);
        assert_eq!(s.total_cycles, 0);
        assert_eq!(s.base_class_cycles(), 0);
    }

    #[test]
    fn class_accessors() {
        let mut s = ExecStats::new(0);
        s.class_cycles[DynClass::Load.index()] = 7;
        s.class_counts[DynClass::Load.index()] = 5;
        assert_eq!(s.cycles_of(DynClass::Load), 7);
        assert_eq!(s.count_of(DynClass::Load), 5);
        assert_eq!(s.base_class_cycles(), 7);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let mut s = ExecStats::new(2);
        s.inst_count = 1234;
        s.total_cycles = 5678;
        s.class_counts[DynClass::Load.index()] = 100;
        s.class_cycles[DynClass::Load.index()] = 250;
        s.icache_misses = 7;
        s.custom_counts = vec![3, 9];
        s.struct_activity[0] = 1.5;
        s.opcode_cycles[emx_isa::Opcode::ALL[0].index()] = 42;

        let text = s.to_json().to_string();
        let doc = Value::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("emx.exec-stats/1")
        );
        assert_eq!(doc.get("instructions").and_then(Value::as_u64), Some(1234));
        assert_eq!(doc.get("total_cycles").and_then(Value::as_u64), Some(5678));
        let load = doc.get("classes").unwrap().get("load").unwrap();
        assert_eq!(load.get("count").and_then(Value::as_u64), Some(100));
        assert_eq!(load.get("cycles").and_then(Value::as_u64), Some(250));
        assert_eq!(
            doc.get("custom_counts")
                .and_then(Value::as_array)
                .map(|a| a.len()),
            Some(2)
        );
        // Every dynamic class and every structural category is present.
        for class in DynClass::ALL {
            assert!(doc
                .get("classes")
                .unwrap()
                .get(&class.to_string())
                .is_some());
        }
        for category in emx_hwlib::Category::ALL {
            assert!(doc
                .get("structural")
                .unwrap()
                .get(&category.to_string())
                .is_some());
        }
    }

    #[test]
    fn from_json_round_trip_is_exact() {
        // A stats value with every field group populated, including
        // non-integral structural activity, must survive the JSON round
        // trip bit-for-bit — the extraction cache's core invariant.
        let mut s = ExecStats::new(3);
        s.inst_count = 987_654;
        s.total_cycles = 1_234_567;
        for (i, c) in s.class_counts.iter_mut().enumerate() {
            *c = 11 * (i as u64 + 1);
        }
        for (i, c) in s.class_cycles.iter_mut().enumerate() {
            *c = 17 * (i as u64 + 1);
        }
        s.icache_misses = 41;
        s.dcache_misses = 42;
        s.uncached_fetches = 43;
        s.interlocks = 44;
        s.ci_gpr_cycles = 45;
        s.custom_cycles = 46;
        s.custom_counts = vec![5, 0, 7];
        for (i, a) in s.struct_activity.iter_mut().enumerate() {
            *a = 0.1 + i as f64 / 3.0; // deliberately non-representable
        }
        for (i, a) in s.struct_activations.iter_mut().enumerate() {
            *a = i as f64 * 7.0;
        }
        s.opcode_cycles[0] = 9;
        s.opcode_cycles[emx_isa::Opcode::ALL.len() - 1] = 3;

        let text = s.to_json().to_string();
        let doc = Value::parse(&text).expect("valid JSON");
        assert_eq!(ExecStats::from_json(&doc), Ok(s));
    }

    #[test]
    fn from_json_rejects_foreign_and_malformed_documents() {
        let other = Value::parse("{\"schema\":\"emx.exec-stats/2\"}").unwrap();
        assert!(ExecStats::from_json(&other).is_err());
        // Dropping a required field fails the parse instead of zeroing
        // a counter silently.
        let mut doc = ExecStats::new(0).to_json();
        doc.set("interlocks", Value::Null);
        assert!(ExecStats::from_json(&doc).is_err());
    }

    #[test]
    fn display_mentions_all_classes() {
        let s = ExecStats::new(0);
        let text = s.to_string();
        for class in DynClass::ALL {
            assert!(text.contains(&class.to_string()));
        }
    }
}
