//! Property-based tests for the Pareto front and the shard partition: the
//! structural guarantees a search driver relies on when it presents "the
//! trade-off curve" to a designer, and the disjoint/complete/ordered
//! contract the merge step relies on when it recombines shard artifacts.
//!
//! The small integer grids are deliberate — they force duplicate points
//! and single-axis ties, the cases where dominance logic usually breaks.
//! The synthetic candidate spaces are equally deliberate: random option
//! counts, budgets and resolver collision patterns exercise sharding over
//! enumerations whose survivor lists have holes in arbitrary places.
//! The same spaces check the key-then-resolve enumerator against a
//! reference that resolves every subset and prunes by resolved name.

use std::sync::OnceLock;

use proptest::prelude::*;

use emx_dse::EstimatorFingerprints;
use emx_dse::{pareto_front, partition_fingerprint, CandidateSpace, DesignPoint, ShardSpec};
use emx_dse::{DesignOption, EnumeratedCandidate};
use emx_rtlpower::Energy;
use emx_sim::ProcConfig;
use emx_tie::ExtensionSet;
use emx_workloads::{exts, Workload};

fn build(pairs: &[(u64, u64)]) -> Vec<DesignPoint> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(energy, cycles))| DesignPoint {
            name: format!("p{i}"),
            energy: Energy::from_picojoules(energy as f64),
            cycles,
        })
        .collect()
}

/// `a` is at least as good as `b` on both axes.
fn weakly_dominates(a: &DesignPoint, b: &DesignPoint) -> bool {
    a.cycles <= b.cycles && a.energy.as_picojoules() <= b.energy.as_picojoules()
}

fn pairs_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..8, 0u64..8), 0..24)
}

/// Same-length point list and shuffle keys, for the permutation property.
fn pairs_and_keys() -> impl Strategy<Value = (Vec<(u64, u64)>, Vec<u64>)> {
    (0usize..24).prop_flat_map(|n| {
        (
            proptest::collection::vec((0u64..8, 0u64..8), n),
            proptest::collection::vec(any::<u64>(), n),
        )
    })
}

proptest! {
    #[test]
    fn front_members_are_mutually_non_dominating(pairs in pairs_strategy()) {
        let points = build(&pairs);
        let front = pareto_front(&points);
        for (k, &i) in front.iter().enumerate() {
            for &j in &front[k + 1..] {
                prop_assert!(
                    !weakly_dominates(&points[i], &points[j]),
                    "{} dominates fellow front member {}", points[i].name, points[j].name
                );
                prop_assert!(
                    !weakly_dominates(&points[j], &points[i]),
                    "{} dominates fellow front member {}", points[j].name, points[i].name
                );
            }
        }
    }

    #[test]
    fn excluded_points_are_dominated_by_the_front(pairs in pairs_strategy()) {
        let points = build(&pairs);
        let front = pareto_front(&points);
        // Weak dominance, not strict: of two identical points exactly one
        // survives, and the survivor only *weakly* dominates its twin.
        for (i, p) in points.iter().enumerate() {
            if front.contains(&i) {
                continue;
            }
            prop_assert!(
                front.iter().any(|&f| weakly_dominates(&points[f], p)),
                "excluded {} is dominated by no front member", p.name
            );
        }
        // Non-empty input always yields a non-empty front.
        prop_assert_eq!(front.is_empty(), points.is_empty());
    }

    #[test]
    fn front_is_deterministic_under_permutation((pairs, keys) in pairs_and_keys()) {
        let points = build(&pairs);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let permuted: Vec<DesignPoint> = order.iter().map(|&i| points[i].clone()).collect();

        // The front as a *value set* must not depend on input order (the
        // indices do, so compare (cycles, energy) pairs).
        let values = |pts: &[DesignPoint], front: &[usize]| -> Vec<(u64, f64)> {
            let mut v: Vec<(u64, f64)> = front
                .iter()
                .map(|&i| (pts[i].cycles, pts[i].energy.as_picojoules()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            v
        };
        let a = values(&points, &pareto_front(&points));
        let b = values(&permuted, &pareto_front(&permuted));
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Shard partition properties.
// ---------------------------------------------------------------------------

/// Real compiled extension units, cycled across synthetic options so every
/// option has a genuine nonzero area. Compiled once per process.
fn ext_pool() -> &'static [ExtensionSet] {
    static POOL: OnceLock<Vec<ExtensionSet>> = OnceLock::new();
    POOL.get_or_init(|| {
        vec![
            exts::gf16(),
            exts::gf16_mac(),
            exts::rs_wide(),
            exts::rs_full(),
        ]
    })
}

/// Trivial distinct workloads for the synthetic resolvers. Only the names
/// matter (dominance pruning compares resolved workload names); nothing
/// here is ever simulated.
fn workload_pool() -> &'static [Workload] {
    static POOL: OnceLock<Vec<Workload>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..32)
            .map(|i| {
                Workload::assemble(
                    format!("wl{i:02}"),
                    "synthetic shard-property workload",
                    ExtensionSet::empty(),
                    "movi a2, 7\n",
                    vec![],
                )
            })
            .collect()
    })
}

/// A space with `n` options whose resolver collapses the `2^n` subsets
/// onto `classes` distinct workloads — `classes == 2^n` means no pruning,
/// `classes == 1` prunes everything down to the base candidate, and values
/// in between punch irregular holes into the survivor list.
fn synthetic_space(n: usize, classes: usize) -> CandidateSpace {
    let options: Vec<DesignOption> = (0..n)
        .map(|i| DesignOption {
            name: format!("o{i}"),
            ext: ext_pool()[i % ext_pool().len()].clone(),
        })
        .collect();
    CandidateSpace::new(
        "synthetic",
        options,
        move |sel| (sel.mask() % classes) as u64,
        move |sel| workload_pool()[sel.mask() % classes].clone(),
    )
}

/// One survivor as a comparable row: every field, with the area as bits.
type Row = (usize, String, Vec<String>, u64, String);

/// The survivor list as comparable rows.
fn rows(candidates: &[EnumeratedCandidate]) -> Vec<Row> {
    candidates
        .iter()
        .map(|c| {
            (
                c.mask,
                c.name.clone(),
                c.options.clone(),
                c.area.to_bits(),
                c.workload.name().to_owned(),
            )
        })
        .collect()
}

/// Random (option count, resolver collision classes, budget selector):
/// the inputs every shard-partition property quantifies over.
fn space_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..=5, 1usize..=6, 0usize..=4)
}

fn budget_for(space: &CandidateSpace, selector: usize) -> Option<f64> {
    if selector == 0 {
        return None;
    }
    let total: f64 = space.options().iter().map(|o| o.area()).sum();
    Some(total * selector as f64 / 4.0)
}

proptest! {
    #[test]
    fn shards_partition_the_enumeration_exactly((n, classes, sel) in space_strategy()) {
        let space = synthetic_space(n, classes);
        let budget = budget_for(&space, sel);
        let full = space.enumerate(budget).expect("n <= MAX_OPTIONS");
        let expected = rows(&full.candidates);

        for k in 1..=8u32 {
            let mut per_shard: Vec<Vec<Row>> = Vec::new();
            for i in 1..=k {
                let shard = ShardSpec::new(i, k).expect("1 <= i <= k");
                // Each shard re-enumerates the full space and restricts,
                // exactly as a worker process does.
                let mut e = space.enumerate(budget).expect("n <= MAX_OPTIONS");
                emx_dse::shard::restrict(&mut e, shard);
                per_shard.push(rows(&e.candidates));
            }

            // Pairwise disjoint by mask.
            for a in 0..per_shard.len() {
                for b in a + 1..per_shard.len() {
                    for (mask, ..) in &per_shard[a] {
                        prop_assert!(
                            !per_shard[b].iter().any(|(m, ..)| m == mask),
                            "mask {mask:#x} owned by both shard {} and {} of {k}",
                            a + 1, b + 1
                        );
                    }
                }
            }

            // Within each shard the order matches the global order (both
            // are ascending-mask, so ascending within the shard suffices
            // together with the concatenation check below).
            for shard_rows in &per_shard {
                prop_assert!(
                    shard_rows.windows(2).all(|w| w[0].0 < w[1].0),
                    "shard rows out of ascending-mask order: {shard_rows:?}"
                );
            }

            // Concatenating shards in index order reproduces the full
            // enumeration — nothing lost, nothing invented, same order.
            let concat: Vec<Row> =
                per_shard.into_iter().flatten().collect();
            prop_assert_eq!(concat, expected.clone(), "k = {}", k);
        }
    }

    #[test]
    fn partition_fingerprints_bind_siblings_and_separate_partitions(
        (n, classes, sel) in space_strategy()
    ) {
        const EXTRACT_FP: u64 = 0xE17A_AC71_0000_0001;
        const PRICE_FP: u64 = 0x9B1C_ED00_0000_0002;
        const FPS: EstimatorFingerprints =
            EstimatorFingerprints { extraction: EXTRACT_FP, pricing: PRICE_FP };
        let space = synthetic_space(n, classes);
        let budget = budget_for(&space, sel);
        let options: Vec<(String, f64)> = space
            .options()
            .iter()
            .map(|o| (o.name.clone(), o.area()))
            .collect();
        let config = ProcConfig::default();

        let mut fp_by_k = Vec::new();
        for k in 1..=8u32 {
            // Every sibling computes the fingerprint from its own (full,
            // pre-restriction) enumeration; all must agree.
            let fps: Vec<u64> = (1..=k)
                .map(|_| {
                    let e = space.enumerate(budget).expect("n <= MAX_OPTIONS");
                    partition_fingerprint(
                        space.name(), budget, &options, &e, k,
                        FPS, &config,
                    )
                })
                .collect();
            prop_assert!(
                fps.windows(2).all(|w| w[0] == w[1]),
                "siblings of {k} disagree: {fps:?}"
            );
            fp_by_k.push(fps[0]);
        }

        // Different shard counts are different partitions.
        for a in 0..fp_by_k.len() {
            for b in a + 1..fp_by_k.len() {
                prop_assert_ne!(fp_by_k[a], fp_by_k[b]);
            }
        }

        // A refitted model (different pricing semantics) is a different
        // partition even over the identical enumeration.
        let e = space.enumerate(budget).expect("n <= MAX_OPTIONS");
        let base = partition_fingerprint(
            space.name(), budget, &options, &e, 3, FPS, &config,
        );
        let refit = partition_fingerprint(
            space.name(), budget, &options, &e, 3,
            EstimatorFingerprints { pricing: PRICE_FP ^ 1, ..FPS }, &config,
        );
        prop_assert_ne!(base, refit);
    }
}

// ---------------------------------------------------------------------------
// Enumeration oracle.
// ---------------------------------------------------------------------------

/// The enumerator without keys: resolve every subset within the budget,
/// and prune by the resolved workload's name. Returns the survivors in
/// ascending-mask order plus the `over_budget` and `pruned` counts.
fn reference_enumerate(
    space: &CandidateSpace,
    budget: Option<f64>,
) -> (Vec<EnumeratedCandidate>, usize, usize) {
    let n = space.options().len();
    let mut survivors: Vec<EnumeratedCandidate> = Vec::new();
    let (mut over_budget, mut pruned) = (0, 0);
    for mask in 0..1usize << n {
        let selected: Vec<&DesignOption> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| &space.options()[i])
            .collect();
        let area = selected.iter().fold(0.0f64, |acc, o| acc + o.area());
        if budget.is_some_and(|b| area > b) {
            over_budget += 1;
            continue;
        }
        let options: Vec<String> = selected.iter().map(|o| o.name.clone()).collect();
        let candidate = EnumeratedCandidate {
            name: if options.is_empty() {
                "base".to_owned()
            } else {
                options.join("+")
            },
            mask,
            options,
            area,
            workload: space.resolve(mask),
        };
        match survivors
            .iter_mut()
            .find(|c| c.workload.name() == candidate.workload.name())
        {
            Some(existing) => {
                let tolerance = 1e-9 * existing.area.abs().max(1.0);
                let better = if (candidate.area - existing.area).abs() <= tolerance {
                    candidate.options.len() < existing.options.len()
                } else {
                    candidate.area < existing.area
                };
                if better {
                    *existing = candidate;
                }
                pruned += 1;
            }
            None => survivors.push(candidate),
        }
    }
    survivors.sort_by_key(|c| c.mask);
    (survivors, over_budget, pruned)
}

proptest! {
    #[test]
    fn keyed_enumeration_matches_resolving_every_subset(
        n in 0usize..=6,
        classes in 1usize..=32,
        sel in 0usize..=4,
    ) {
        let space = synthetic_space(n, classes);
        let budget = budget_for(&space, sel);
        let got = space.enumerate(budget).expect("n <= MAX_OPTIONS");
        let (expected, over_budget, pruned) = reference_enumerate(&space, budget);
        prop_assert_eq!(got.enumerated, 1usize << n);
        prop_assert_eq!(rows(&got.candidates), rows(&expected));
        prop_assert_eq!(got.over_budget, over_budget);
        prop_assert_eq!(got.pruned, pruned);
    }
}
