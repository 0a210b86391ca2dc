//! Candidate enumeration: power sets of extension units under an area
//! budget, with dominance pruning before any evaluation.
//!
//! A [`CandidateSpace`] is a list of *design options* — independent
//! hardware units from the TIE extension library — plus a resolver that
//! maps any subset of them to the application workload the software would
//! actually be compiled to (which custom instructions the codec can use).
//! Enumeration walks every subset, drops those over the area budget, and
//! prunes *dominated* subsets: two subsets that resolve to the same
//! workload execute identically, so only the cheapest (by area, then
//! option count, then enumeration order) can ever be worth building.
//!
//! Resolving is the expensive step (assembling or rewriting a program),
//! so the walk prunes on a cheap *key* that names the resolved workload
//! without building it, and resolves only the survivors.

use std::collections::hash_map::{Entry, HashMap};

use emx_hwlib::Category;
use emx_tie::ExtensionSet;
use emx_workloads::reed_solomon::RsConfig;
use emx_workloads::{exts, Workload};

use crate::error::DseError;

/// Largest option count [`CandidateSpace::enumerate`] will walk: `2^24`
/// subsets (~16M) is the most an exhaustive pass can visit in reasonable
/// time, and it keeps every mask comfortably inside `usize` on all
/// supported targets. Larger spaces get a typed [`DseError::SpaceTooLarge`]
/// instead of a silently truncated walk.
pub const MAX_OPTIONS: usize = 24;

/// Area cost of one extension set, in *net-equivalents*: each structural
/// category's instantiated complexity `f(C)` (the paper's Eq. 4 scaling)
/// weighted by the per-bit net count of that component class in the RTL
/// power library (`rtlpower::gates` — 64 nets/bit for a multiplier, 4 for
/// an adder, 3 for logic, 5 for a shifter), times the 32-bit reference
/// width. Decode/control logic rides on the logic weight.
pub fn area_cost(ext: &ExtensionSet) -> f64 {
    // One weight per `Category::ALL` slot: [Multiplier, AdderCmp,
    // LogicMux, Shifter, CustomReg, TieMult, TieMac, TieAdd, TieCsa,
    // Table]. The specialized TIE modules reuse the weight of the
    // library component they are assembled from.
    const NETS_PER_BIT: [f64; 10] = [64.0, 4.0, 3.0, 5.0, 1.0, 64.0, 64.0, 4.0, 4.0, 2.0];
    const LOGIC_NETS: f64 = 3.0;
    const REF_WIDTH: f64 = 32.0;
    debug_assert_eq!(Category::ALL.len(), NETS_PER_BIT.len());
    let f = ext.instantiated_complexity();
    // fold from +0.0, not `sum()`: the empty set must cost 0.0, not -0.0.
    let datapath = f
        .iter()
        .zip(NETS_PER_BIT)
        .fold(0.0f64, |acc, (x, w)| acc + x * w);
    REF_WIDTH * (datapath + LOGIC_NETS * ext.control_complexity())
}

/// One independently selectable hardware unit.
#[derive(Debug, Clone)]
pub struct DesignOption {
    /// Short display name (`gf16`, `rswide`, …).
    pub name: String,
    /// The compiled extension unit.
    pub ext: ExtensionSet,
}

impl DesignOption {
    /// Area cost of this unit (see [`area_cost`]).
    pub fn area(&self) -> f64 {
        area_cost(&self.ext)
    }
}

/// A subset of the space's options, as seen by the key and the resolver.
#[derive(Debug, Clone, Copy)]
pub struct Selection<'a> {
    mask: usize,
    options: &'a [&'a DesignOption],
}

impl Selection<'_> {
    /// The selection bitmask over the space's options (bit *i* = option
    /// *i*).
    pub fn mask(&self) -> usize {
        self.mask
    }

    /// Does any selected unit provide custom instruction `mnemonic`?
    pub fn has_inst(&self, mnemonic: &str) -> bool {
        self.options
            .iter()
            .any(|o| o.ext.by_name(mnemonic).is_some())
    }

    /// The selected options.
    pub fn options(&self) -> &[&DesignOption] {
        self.options
    }
}

type KeyFn = Box<dyn Fn(&Selection<'_>) -> u64>;
type ResolveFn = Box<dyn Fn(&Selection<'_>) -> Workload>;

/// An enumerable family of candidate configurations for one application.
pub struct CandidateSpace {
    name: String,
    options: Vec<DesignOption>,
    key: KeyFn,
    resolve: ResolveFn,
}

/// One surviving candidate: a selection of options plus the workload the
/// application resolves to under that selection.
#[derive(Debug, Clone)]
pub struct EnumeratedCandidate {
    /// Display name: `+`-joined option names, or `base` for the empty set.
    pub name: String,
    /// Selection bitmask over the space's options (bit *i* = option *i*).
    /// `usize` wide so every mask of a [`MAX_OPTIONS`]-option space is
    /// representable; a narrower type would silently alias subsets.
    pub mask: usize,
    /// Names of the selected options, in declaration order.
    pub options: Vec<String>,
    /// Summed area cost of the selected units.
    pub area: f64,
    /// The application workload this selection resolves to.
    pub workload: Workload,
}

/// The outcome of [`CandidateSpace::enumerate`].
#[derive(Debug)]
pub struct Enumeration {
    /// Surviving candidates, in ascending-mask order.
    pub candidates: Vec<EnumeratedCandidate>,
    /// Subsets walked (2^options).
    pub enumerated: usize,
    /// Subsets dropped for exceeding the area budget.
    pub over_budget: usize,
    /// Subsets dropped as dominated (same resolved workload, no cheaper).
    pub pruned: usize,
}

impl CandidateSpace {
    /// Builds a space from options, a key and a resolver. The resolver
    /// maps any selection to the workload the application would be
    /// compiled to; the key names that workload without building it.
    ///
    /// The contract between the two: for any selections `a` and `b`,
    /// `key(a) == key(b)` exactly when `resolve(a).name() ==
    /// resolve(b).name()`. [`CandidateSpace::enumerate`] prunes dominated
    /// selections on the key and calls the resolver only for the
    /// survivors, so the key must be cheap next to a resolve, and a key
    /// that breaks the contract merges (or splits) candidates wrongly.
    pub fn new(
        name: impl Into<String>,
        options: Vec<DesignOption>,
        key: impl Fn(&Selection<'_>) -> u64 + 'static,
        resolve: impl Fn(&Selection<'_>) -> Workload + 'static,
    ) -> Self {
        CandidateSpace {
            name: name.into(),
            options,
            key: Box::new(key),
            resolve: Box::new(resolve),
        }
    }

    /// The space's name (`reed-solomon`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The selectable options, in declaration order.
    pub fn options(&self) -> &[DesignOption] {
        &self.options
    }

    /// Names of the built-in spaces, for CLI listings.
    pub fn names() -> &'static [&'static str] {
        &["reed-solomon"]
    }

    /// Looks up a built-in space by name.
    pub fn by_name(name: &str) -> Option<CandidateSpace> {
        match name {
            "reed-solomon" => Some(Self::reed_solomon()),
            _ => None,
        }
    }

    /// The paper's Fig. 4 study as a searchable space: the GF(16)
    /// multiplier, the GF MAC unit, the four-way syndrome unit, and the
    /// combined RS unit are free choices; the resolver picks the best
    /// codec variant the selected instructions support.
    pub fn reed_solomon() -> CandidateSpace {
        let options = vec![
            DesignOption {
                name: "gf16".to_owned(),
                ext: exts::gf16(),
            },
            DesignOption {
                name: "gf16mac".to_owned(),
                ext: exts::gf16_mac(),
            },
            DesignOption {
                name: "rswide".to_owned(),
                ext: exts::rs_wide(),
            },
            DesignOption {
                name: "rsfull".to_owned(),
                ext: exts::rs_full(),
            },
        ];
        // The codec needs `gfmul` everywhere (encoder feedback taps); the
        // syndrome loop then uses the best unit available. All 2^4
        // selections collapse onto the four variants, so the variant is
        // the key and only four selections are ever assembled.
        fn config(sel: &Selection<'_>) -> RsConfig {
            if sel.has_inst("gfmul") && sel.has_inst("synstep") {
                RsConfig::Rs3
            } else if sel.has_inst("gfmac") {
                RsConfig::Rs2
            } else if sel.has_inst("gfmul") {
                RsConfig::Rs1
            } else {
                RsConfig::Rs0
            }
        }
        CandidateSpace::new(
            "reed-solomon",
            options,
            |sel| config(sel) as u64,
            |sel| config(sel).workload(),
        )
    }

    /// The options selected by `mask`, in declaration order.
    fn selected(&self, mask: usize) -> Vec<&DesignOption> {
        (0..self.options.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| &self.options[i])
            .collect()
    }

    /// The dominance key of the selection `mask` (see
    /// [`CandidateSpace::new`] for its contract with the resolver).
    pub fn key(&self, mask: usize) -> u64 {
        (self.key)(&Selection {
            mask,
            options: &self.selected(mask),
        })
    }

    /// The workload the selection `mask` resolves to.
    pub fn resolve(&self, mask: usize) -> Workload {
        (self.resolve)(&Selection {
            mask,
            options: &self.selected(mask),
        })
    }

    /// Walks every subset of the options, applies the optional area
    /// `budget` (a candidate at exactly the budget survives; only strictly
    /// larger areas are dropped), prunes dominated selections by key, and
    /// resolves each survivor, once, to its effective workload.
    ///
    /// # Errors
    ///
    /// [`DseError::SpaceTooLarge`] when the space has more than
    /// [`MAX_OPTIONS`] options — `2^n` subsets would exceed the enumerable
    /// width, and truncating the walk would silently skip candidates.
    pub fn enumerate(&self, budget: Option<f64>) -> Result<Enumeration, DseError> {
        let n = self.options.len();
        if n > MAX_OPTIONS {
            return Err(DseError::SpaceTooLarge {
                options: n,
                max: MAX_OPTIONS,
            });
        }
        let total = 1usize << n;
        // The cheapest (mask, area) per key.
        let mut cheapest: HashMap<u64, (usize, f64)> = HashMap::new();
        let mut over_budget = 0usize;
        let mut pruned = 0usize;

        for mask in 0..total {
            let selected = self.selected(mask);
            let area = selected.iter().fold(0.0f64, |acc, o| acc + o.area());
            if budget.is_some_and(|b| area > b) {
                over_budget += 1;
                continue;
            }
            let key = self.key(mask);
            // Dominance: same resolved workload ⇒ identical execution, so
            // only the cheapest build matters. Ties break toward fewer
            // units, then earlier enumeration order — deterministic.
            match cheapest.entry(key) {
                Entry::Occupied(mut slot) => {
                    let (best_mask, best_area) = *slot.get();
                    // Areas that differ only by accumulated rounding (the
                    // same hardware summed in a different order) count as
                    // equal, so the tie-break stays physical.
                    let tolerance = 1e-9 * best_area.abs().max(1.0);
                    let better = if (area - best_area).abs() <= tolerance {
                        mask.count_ones() < best_mask.count_ones()
                    } else {
                        area < best_area
                    };
                    if better {
                        slot.insert((mask, area));
                    }
                    pruned += 1;
                }
                Entry::Vacant(slot) => {
                    slot.insert((mask, area));
                }
            }
        }
        let mut survivors: Vec<(usize, f64)> = cheapest.into_values().collect();
        survivors.sort_by_key(|&(mask, _)| mask);
        let candidates = survivors
            .into_iter()
            .map(|(mask, area)| {
                let selected = self.selected(mask);
                EnumeratedCandidate {
                    name: if selected.is_empty() {
                        "base".to_owned()
                    } else {
                        selected
                            .iter()
                            .map(|o| o.name.as_str())
                            .collect::<Vec<_>>()
                            .join("+")
                    },
                    mask,
                    options: selected.iter().map(|o| o.name.clone()).collect(),
                    area,
                    workload: self.resolve(mask),
                }
            })
            .collect();
        Ok(Enumeration {
            candidates,
            enumerated: total,
            over_budget,
            pruned,
        })
    }
}

impl std::fmt::Debug for CandidateSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CandidateSpace")
            .field("name", &self.name)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_cost_is_positive_and_monotone_in_content() {
        assert_eq!(area_cost(&ExtensionSet::empty()), 0.0);
        let gf16 = area_cost(&exts::gf16());
        let gf16_mac = area_cost(&exts::gf16_mac());
        assert!(gf16 > 0.0);
        // The MAC unit contains a multiplier plus state: strictly bigger.
        assert!(gf16_mac > gf16, "{gf16_mac} !> {gf16}");
    }

    #[test]
    fn rs_space_enumerates_to_the_four_paper_configs() -> Result<(), DseError> {
        let space = CandidateSpace::reed_solomon();
        let e = space.enumerate(None)?;
        assert_eq!(e.enumerated, 16);
        assert_eq!(e.over_budget, 0);
        assert_eq!(e.candidates.len(), 4);
        assert_eq!(e.pruned, 12);
        let names: Vec<&str> = e.candidates.iter().map(|c| c.workload.name()).collect();
        assert_eq!(
            names,
            [
                "reed_solomon_rs0",
                "reed_solomon_rs1",
                "reed_solomon_rs2",
                "reed_solomon_rs3"
            ]
        );
        // The base candidate carries no hardware.
        assert_eq!(e.candidates[0].name, "base");
        assert_eq!(e.candidates[0].area, 0.0);
        // rs3 resolves to a single-unit build, not a redundant pair.
        assert_eq!(e.candidates[3].options, ["rsfull"]);
        Ok(())
    }

    #[test]
    fn budget_excludes_expensive_candidates() -> Result<(), DseError> {
        let space = CandidateSpace::reed_solomon();
        let unbounded = space.enumerate(None)?;
        let costliest = unbounded
            .candidates
            .iter()
            .map(|c| c.area)
            .fold(0.0f64, f64::max);
        let e = space.enumerate(Some(costliest / 2.0))?;
        assert!(e.over_budget > 0);
        assert!(e.candidates.len() < unbounded.candidates.len());
        // The base candidate (zero area) always survives a non-negative budget.
        assert!(e.candidates.iter().any(|c| c.name == "base"));
        for c in &e.candidates {
            assert!(c.area <= costliest / 2.0);
        }
        Ok(())
    }

    #[test]
    fn budget_boundary_is_inclusive() -> Result<(), DseError> {
        // A candidate at *exactly* the budget must survive; only strictly
        // larger areas count as over budget.
        let space = CandidateSpace::reed_solomon();
        let gf16_area = space.options()[0].area();
        let at_budget = space.enumerate(Some(gf16_area))?;
        assert!(
            at_budget
                .candidates
                .iter()
                .any(|c| (c.area - gf16_area).abs() < 1e-12),
            "candidate with area == budget must survive"
        );
        // Shave the budget below that area: the same candidate now counts
        // in over_budget instead.
        let under = space.enumerate(Some(gf16_area * (1.0 - 1e-6)))?;
        assert!(under.over_budget > at_budget.over_budget);
        assert!(!under
            .candidates
            .iter()
            .any(|c| (c.area - gf16_area).abs() < 1e-12));
        Ok(())
    }

    #[test]
    fn redundant_pairs_are_pruned_by_dominance() -> Result<(), DseError> {
        // {gf16, rswide} resolves to rs3 like {rsfull}, at no less area —
        // it must never survive next to it.
        let space = CandidateSpace::reed_solomon();
        let e = space.enumerate(None)?;
        let rs3: Vec<&EnumeratedCandidate> = e
            .candidates
            .iter()
            .filter(|c| c.workload.name() == "reed_solomon_rs3")
            .collect();
        assert_eq!(rs3.len(), 1);
        Ok(())
    }

    #[test]
    fn oversized_spaces_get_a_typed_error_not_a_truncated_walk() {
        let options = (0..MAX_OPTIONS + 1)
            .map(|i| DesignOption {
                name: format!("opt{i}"),
                ext: ExtensionSet::empty(),
            })
            .collect();
        let space = CandidateSpace::new("too-big", options, |_| 0, |_| RsConfig::Rs0.workload());
        match space.enumerate(None) {
            Err(DseError::SpaceTooLarge { options, max }) => {
                assert_eq!(options, MAX_OPTIONS + 1);
                assert_eq!(max, MAX_OPTIONS);
            }
            other => panic!("expected SpaceTooLarge, got {other:?}"),
        }
    }
}
