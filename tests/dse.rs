//! Integration tests for the design-space exploration engine: the
//! acceptance properties the `emx-dse` CLI is sold on — a report that is
//! a pure function of the search inputs (identical across worker counts),
//! a cache that makes warm reruns free without changing results, and a
//! shard/merge path whose recombined report is byte-identical to the
//! single-process one while re-exploration over the merged cache prices
//! everything without a single new ISS pass.
//!
//! Characterization is expensive, so the fitted model is shared through a
//! once-cell like `end_to_end.rs`.

use std::sync::OnceLock;

use emx::core::{Characterization, Characterizer, EnergyMacroModel};
use emx::dse::fault::CountingEstimator;
use emx::dse::{self, CandidateSpace, DesignOption, EstimationCache, ShardSpec};
use emx::obs::Collector;
use emx::sim::ProcConfig;
use emx::validate::{fuzz, FuzzConfig};
use emx::workloads::{exts, suite, Workload};

fn characterization() -> &'static Characterization {
    static MODEL: OnceLock<Characterization> = OnceLock::new();
    MODEL.get_or_init(|| {
        let workloads = suite::full_training_suite();
        let cases = suite::training_cases(&workloads);
        Characterizer::new(ProcConfig::default())
            .characterize(&cases)
            .expect("training suite characterizes")
    })
}

fn report_text(jobs: usize, cache: &mut EstimationCache, obs: &mut Collector) -> String {
    let space = CandidateSpace::reed_solomon();
    let out = dse::explore(
        &characterization().model,
        &space,
        None,
        &ProcConfig::default(),
        jobs,
        cache,
        obs,
    )
    .expect("exploration succeeds");
    let options: Vec<(String, f64)> = space
        .options()
        .iter()
        .map(|o| (o.name.clone(), o.area()))
        .collect();
    dse::report::to_json(&out, &options).to_string()
}

#[test]
fn report_is_byte_identical_across_job_counts() {
    let serial = report_text(1, &mut EstimationCache::new(), &mut Collector::disabled());
    for jobs in [2, 4] {
        let parallel = report_text(
            jobs,
            &mut EstimationCache::new(),
            &mut Collector::disabled(),
        );
        assert_eq!(serial, parallel, "--jobs {jobs} changed the report");
    }
}

#[test]
fn warm_cache_rerun_hits_and_matches() {
    let mut cache = EstimationCache::new();
    let mut obs = Collector::new();
    let cold = report_text(2, &mut cache, &mut obs);
    assert_eq!(obs.counter("dse.cache.hits"), 0.0);
    let misses = obs.counter("dse.cache.misses");
    assert!(misses > 0.0);
    assert_eq!(cache.len() as f64, misses);

    // Round-trip through the JSON persistence, as `--cache` does.
    let mut warm_cache =
        EstimationCache::from_json_text(&cache.to_json().to_string()).expect("cache round-trips");
    let warm = report_text(2, &mut warm_cache, &mut obs);
    assert!(
        obs.counter("dse.cache.hits") > 0.0,
        "warm rerun must hit the cache"
    );
    assert_eq!(obs.counter("dse.cache.misses"), misses, "no new misses");
    assert_eq!(cold, warm, "cache warmth changed the report");
}

#[test]
fn report_schema_is_stable_and_complete() {
    let text = report_text(1, &mut EstimationCache::new(), &mut Collector::disabled());
    let doc = emx::obs::json::Value::parse(&text).expect("report parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(dse::report::SCHEMA)
    );
    assert_eq!(
        doc.get("workload").and_then(|v| v.as_str()),
        Some("reed-solomon")
    );
    let candidates = doc
        .get("candidates")
        .and_then(|v| v.as_array())
        .expect("candidates array");
    assert_eq!(candidates.len(), 4, "four paper configurations survive");
    for c in candidates {
        assert!(c.get("name").and_then(|v| v.as_str()).is_some());
        assert!(c.get("energy_pj").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert!(c.get("cycles").and_then(|v| v.as_u64()).unwrap() > 0);
    }
    let pareto = doc
        .get("pareto")
        .and_then(|v| v.as_array())
        .expect("pareto array");
    assert!(!pareto.is_empty(), "the front is never empty");
    let failed = doc
        .get("failed_candidates")
        .and_then(|v| v.as_array())
        .expect("failed_candidates array");
    assert!(failed.is_empty(), "a healthy run reports no failures");
    // The base candidate exists and every delta is measured against it:
    // its own deltas are exactly zero.
    let base = candidates
        .iter()
        .find(|c| c.get("name").and_then(|v| v.as_str()) == Some("base"))
        .expect("base candidate");
    assert_eq!(
        base.get("delta_energy_pct").and_then(|v| v.as_f64()),
        Some(0.0)
    );
    assert_eq!(
        base.get("delta_cycles_pct").and_then(|v| v.as_f64()),
        Some(0.0)
    );
}

#[test]
fn budget_prunes_but_preserves_the_base() {
    let mut obs = Collector::disabled();
    let space = CandidateSpace::reed_solomon();
    let out = dse::explore(
        &characterization().model,
        &space,
        Some(0.0),
        &ProcConfig::default(),
        1,
        &mut EstimationCache::new(),
        &mut obs,
    )
    .expect("exploration succeeds");
    // A zero budget excludes all hardware; only the base ISA survives.
    assert_eq!(out.points.len(), 1);
    assert_eq!(out.points[0].name, "base");
    assert_eq!(out.base, Some(0));
    assert!(out.enumeration.over_budget > 0);
}

// ---------------------------------------------------------------------------
// Sharded exploration and the merge contract.
// ---------------------------------------------------------------------------

fn options_table(space: &CandidateSpace) -> Vec<(String, f64)> {
    space
        .options()
        .iter()
        .map(|o| (o.name.clone(), o.area()))
        .collect()
}

/// Runs shard `i/k` of the Reed-Solomon search in a process-equivalent
/// way — its own cache seeded from `warm` (or empty) — and returns the
/// serialized `emx.dse-shard-report/1` text plus the exploration.
fn run_shard(
    index: u32,
    count: u32,
    jobs: usize,
    warm: Option<&str>,
) -> (String, dse::Exploration) {
    let space = CandidateSpace::reed_solomon();
    let mut cache = match warm {
        Some(text) => EstimationCache::from_json_text(text).expect("warm cache parses"),
        None => EstimationCache::new(),
    };
    let baseline = cache.key_set();
    let out = dse::explore_shard_with(
        &characterization().model,
        &space,
        None,
        &ProcConfig::default(),
        jobs,
        &mut cache,
        &mut Collector::disabled(),
        ShardSpec::new(index, count).expect("valid shard"),
    )
    .expect("shard exploration succeeds");
    let report = dse::ShardReport::from_exploration(
        &out,
        &options_table(&space),
        cache.delta_since(&baseline),
    );
    (report.to_json().to_string(), out)
}

#[test]
fn sharded_merge_is_byte_identical_to_single_process() {
    let single = report_text(2, &mut EstimationCache::new(), &mut Collector::disabled());
    for k in [2u32, 3] {
        for jobs in [1usize, 2] {
            // Cold: every shard starts from an empty cache, round-trips
            // its report through the serialized artifact exactly as
            // `--emit-shard` + `--merge` do.
            let texts: Vec<String> = (1..=k).map(|i| run_shard(i, k, jobs, None).0).collect();
            let reports: Vec<dse::ShardReport> = texts
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    dse::ShardReport::parse(t, &format!("shard-{}", i + 1))
                        .expect("shard report round-trips")
                })
                .collect();
            let outcome = dse::merge(reports).expect("complete partition merges");
            assert_eq!(outcome.shards, k);
            assert_eq!(outcome.reused, 0, "cold shards have nothing to reuse");
            assert_eq!(outcome.evaluated, 4, "all four survivors simulated");
            let merged = dse::report::render(&outcome.inputs).to_string();
            assert_eq!(single, merged, "k={k} jobs={jobs}: cold merge diverged");

            // Warm: rerun every shard over the merged cache delta — no
            // shard may simulate anything, and the merge must still be
            // byte-identical.
            let warm_text = outcome.cache_delta.to_json().to_string();
            let mut warm_reports = Vec::new();
            for i in 1..=k {
                let (text, out) = run_shard(i, k, jobs, Some(&warm_text));
                assert_eq!(out.evaluated, 0, "warm shard {i}/{k} must not simulate");
                assert_eq!(out.reused, out.points.len(), "warm shard {i}/{k} reuse");
                warm_reports.push(dse::ShardReport::parse(&text, "warm").expect("round-trips"));
            }
            let outcome = dse::merge(warm_reports).expect("warm partition merges");
            assert_eq!(outcome.evaluated, 0);
            assert_eq!(outcome.reused, 4);
            let warm_merged = dse::report::render(&outcome.inputs).to_string();
            assert_eq!(
                single, warm_merged,
                "k={k} jobs={jobs}: warm merge diverged"
            );
        }
    }
}

#[test]
fn refit_over_warm_merged_cache_reprices_without_simulating() {
    // Build the warm cache the production way: two cold shards, merged.
    let reports: Vec<dse::ShardReport> = (1..=2u32)
        .map(|i| dse::ShardReport::parse(&run_shard(i, 2, 1, None).0, "shard").expect("parses"))
        .collect();
    let outcome = dse::merge(reports).expect("partition merges");
    let warm_text = outcome.cache_delta.to_json().to_string();

    // A refit: same model spec, different coefficients. Extraction
    // semantics are untouched, so the warm cache must satisfy every
    // candidate; pricing changes, so the energies must move.
    let model = &characterization().model;
    let refit = EnergyMacroModel::new(
        *model.spec(),
        model.coefficients().iter().map(|c| c * 1.25).collect(),
    );
    let space = CandidateSpace::reed_solomon();
    let counting = CountingEstimator::new(&refit);
    let mut warm = EstimationCache::from_json_text(&warm_text).expect("merged cache parses");
    let out = dse::explore_with(
        &counting,
        &space,
        None,
        &ProcConfig::default(),
        2,
        &mut warm,
        &mut Collector::disabled(),
    )
    .expect("refit exploration succeeds");

    assert_eq!(
        counting.extractions(),
        0,
        "a refit performs zero ISS passes"
    );
    assert_eq!(counting.pricings(), 4, "every candidate is re-priced");
    assert_eq!(out.evaluated, 0);
    assert_eq!(out.reused, 4);

    // The refit genuinely changed pricing — and with it the partition
    // identity, so stale shard artifacts can never merge with new ones.
    let mut warm = EstimationCache::from_json_text(&warm_text).expect("merged cache parses");
    let orig = dse::explore(
        model,
        &space,
        None,
        &ProcConfig::default(),
        2,
        &mut warm,
        &mut Collector::disabled(),
    )
    .expect("original exploration succeeds");
    assert_ne!(out.partition_fingerprint, orig.partition_fingerprint);
    for (r, o) in out.points.iter().zip(&orig.points) {
        assert_eq!(r.cycles, o.cycles, "a refit never changes cycle counts");
        assert!(
            (r.energy.as_picojoules() - o.energy.as_picojoules()).abs() > 1e-9,
            "{}: refit left the energy unchanged",
            r.name
        );
    }
}

/// A two-option space whose resolver picks workloads from a fixed pool by
/// subset — the smallest space where editing *one* pool entry changes
/// exactly one candidate's extraction.
fn pool_space(pool: Vec<Workload>) -> CandidateSpace {
    assert_eq!(pool.len(), 4);
    let options = vec![
        DesignOption {
            name: "a".to_owned(),
            ext: exts::gf16(),
        },
        DesignOption {
            name: "b".to_owned(),
            ext: exts::gf16_mac(),
        },
    ];
    // Option `a` is bit 0 and `b` bit 1, so the mask is the pool index.
    CandidateSpace::new(
        "pool",
        options,
        |sel| sel.mask() as u64,
        move |sel| pool[sel.mask()].clone(),
    )
}

#[test]
fn single_extension_change_reevaluates_only_the_missing_candidate() {
    let cal = suite::calibration_programs();
    assert!(cal.len() >= 5, "pool test needs five distinct programs");
    let model = &characterization().model;
    let mut cache = EstimationCache::new();

    // v1: four subsets, four distinct workloads — all simulate cold.
    let v1 = pool_space(cal[0..4].to_vec());
    let out = dse::explore(
        model,
        &v1,
        None,
        &ProcConfig::default(),
        1,
        &mut cache,
        &mut Collector::disabled(),
    )
    .expect("v1 exploration succeeds");
    assert_eq!(out.evaluated, 4);
    assert_eq!(out.reused, 0);

    // v2: one subset resolves to a new workload; only that candidate
    // misses the warm cache.
    let mut pool = cal[0..4].to_vec();
    pool[2] = cal[4].clone();
    let v2 = pool_space(pool);
    let counting = CountingEstimator::new(model);
    let out = dse::explore_with(
        &counting,
        &v2,
        None,
        &ProcConfig::default(),
        1,
        &mut cache,
        &mut Collector::disabled(),
    )
    .expect("v2 exploration succeeds");
    assert_eq!(
        counting.extractions(),
        1,
        "only the changed candidate simulates"
    );
    assert_eq!(out.evaluated, 1);
    assert_eq!(out.reused, 3);
    assert_eq!(counting.pricings(), 4, "all four candidates still priced");
}

/// The `Debug` form of every built-in extension set, pinned by
/// fingerprint. `candidate_key` hashes this same form, so a set that
/// changes structure — or merely its `Debug` text — would also turn every
/// persisted DSE cache cold.
#[test]
fn builtin_extension_sets_keep_their_fingerprints() {
    let pinned: [(&str, emx::tie::ExtensionSet, u64); 20] = [
        ("mac16", exts::mac16(), 0xe201c25bd9fea0aa),
        ("mac8", exts::mac8(), 0x31dcc78a50d12b5f),
        ("mac16x2", exts::mac16x2(), 0x546f1c4c8e6068b5),
        ("gf16", exts::gf16(), 0xbcc858f06d1768de),
        ("gf16_mac", exts::gf16_mac(), 0xe615bdd50ce72644),
        ("rs_wide", exts::rs_wide(), 0x2f114ced7f10b04c),
        ("rs_full", exts::rs_full(), 0xd814a86676e360a5),
        ("dsp16", exts::dsp16(), 0xb4076cbf77bb47fb),
        ("csa_mult", exts::csa_mult(), 0x1c21a97d3105ab62),
        ("tmul16", exts::tmul16(), 0xb35b70b79f40cdd5),
        ("wide64", exts::wide64(), 0xd05013fd21ed32bb),
        ("simd4", exts::simd4(), 0x144ac46c83cacb7e),
        ("sortpair", exts::sortpair(), 0xc577b53c0dd4de88),
        ("blend8", exts::blend8(), 0x2957c3f3060cd272),
        ("sbox12", exts::sbox12(), 0x0c11b5f786ce75a4),
        ("tie_alu", exts::tie_alu(), 0xb6f92b98e1f562e7),
        ("mul32c", exts::mul32c(), 0x0d92c5dc2b1b9799),
        ("bigtable", exts::bigtable(), 0x156cd836d596e0ed),
        ("absdiff_ext", exts::absdiff_ext(), 0x5aab792c89fd76e7),
        ("line_ext", exts::line_ext(), 0xfc00901ed22eae1a),
    ];
    for (name, set, fingerprint) in pinned {
        let debug = format!("{set:?}");
        assert_eq!(
            dse::content_fingerprint(debug.as_bytes()),
            fingerprint,
            "exts::{name} changed its Debug form"
        );
    }
}

/// The `Debug` form of each directed training case's extension set,
/// pinned by fingerprint in `suite::directed_programs` order. These sets
/// feed the fitted model (`model.txt`), so a changed form is a changed
/// training suite. Cases without custom hardware carry the empty set.
#[test]
fn directed_extension_sets_keep_their_fingerprints() {
    let pinned: [(&str, u64); 23] = [
        ("dir_ucf_arith_31i0", 0xa2fe71a157f8d729),
        ("dir_ucf_load_13i1", 0xa2fe71a157f8d729),
        ("dir_ucf_shf_22i2", 0xb9b1db76913d01b4),
        ("dir_shf_load_31i3", 0xf41541d513dc43d8),
        ("dir_shf_store_13i4", 0x5d77ac672abeba6c),
        ("dir_tmu_arith_31i5", 0x0043b3f20d779680),
        ("dir_tmu_load_13i6", 0x385307dd5183d165),
        ("dir_mul_store_31i7", 0x5bc4c9c264bf26a0),
        ("dir_mul_brt_13i8", 0x27fae9bc0df2046d),
        ("dir_tma_arith_22i9", 0x841e56056e283d17),
        ("dir_tad_bru_31i10", 0xb827548c57d8372d),
        ("dir_csa_load_31i11", 0xd2db7e311acf76c9),
        ("dir_tbl_arith_31i12", 0xf583dc2d75bda992),
        ("dir_tbl_store_13i13", 0x124f6b695787e785),
        ("dir_icm_load_13i14", 0xa2fe71a157f8d729),
        ("dir_icm_store_13i15", 0xa2fe71a157f8d729),
        ("dir_ci_crg_31i16", 0x33ce85e63c5124e4),
        ("dir_crg_arith_31i17", 0x30aaaa150b36dddc),
        ("dir_crg_log_13i18", 0x5195d705790c6fe3),
        ("dir_log_arith_31i19", 0x07c00676ba042b47),
        ("dir_dcm_arith_31i20", 0xa2fe71a157f8d729),
        ("dir_dcm_store_13i21", 0xa2fe71a157f8d729),
        ("dir_dcm_ilk_22i22", 0xa2fe71a157f8d729),
    ];
    let directed = suite::directed_programs();
    assert_eq!(directed.len(), pinned.len());
    for (w, (name, fingerprint)) in directed.iter().zip(pinned) {
        assert_eq!(w.name(), name);
        let debug = format!("{:?}", w.ext());
        assert_eq!(
            dse::content_fingerprint(debug.as_bytes()),
            fingerprint,
            "directed case {name} changed its extension's Debug form"
        );
    }
}

/// The `Debug` forms of every fuzz case's extension set in the default
/// campaign and in CI's second-seed campaign, one fingerprint per
/// campaign over the forms joined by newlines. These sets decide the
/// fuzz figures of `golden/validate-report.json`.
#[test]
fn fuzz_extension_sets_keep_their_fingerprints() {
    let default = FuzzConfig::default();
    let pinned = [
        (default.clone(), 0x15fc7d060c532859),
        (
            FuzzConfig {
                seed: 20_260_807,
                cases: 250,
                ..default
            },
            0xdd3c1aaf8809acac,
        ),
    ];
    for (config, fingerprint) in pinned {
        let mut all = String::new();
        for i in 0..config.cases {
            all.push_str(&format!("{:?}\n", fuzz::build(&config.case(i)).ext));
        }
        assert_eq!(
            dse::content_fingerprint(all.as_bytes()),
            fingerprint,
            "a fuzz case of seed {} changed its extension's Debug form",
            config.seed
        );
    }
}
