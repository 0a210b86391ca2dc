//! End-to-end discovery pipeline tests: ground truth against the
//! hand-written extensions, byte-determinism, and the dse bridge.

use emx_discover::{bridge, discover, report::Report, DiscoverConfig};
use emx_sim::{Interp, ProcConfig};
use emx_tie::lang::parse_extension;
use emx_workloads::registry;

fn discover_rs1(jobs: usize) -> Report {
    let w = registry::by_name("rs1").expect("rs1 registered");
    let config = DiscoverConfig {
        jobs,
        ..DiscoverConfig::default()
    };
    discover(&w, &config).expect("discovery succeeds")
}

/// Does `cand` compile to a graph isomorphic to `hand` (same latency,
/// same resource vector, same function over the probe set)?
fn matches_hand(
    cand: &emx_discover::report::Candidate,
    hand: &emx_tie::CompiledInst,
    probe: impl Fn(u32, u32) -> u64,
) -> bool {
    let set = parse_extension(&cand.tie).expect("candidate parses");
    let inst = set.by_name(&cand.name).expect("candidate inst");
    if inst.latency() != hand.latency() || inst.resource_vector() != hand.resource_vector() {
        return false;
    }
    let mut st = set.initial_state();
    for a in 0..16u32 {
        for b in 0..16u32 {
            let got = inst.execute(a, b, 0, &mut st).unwrap().gpr;
            if got != Some(probe(a, b)) {
                return false;
            }
        }
    }
    true
}

#[test]
fn rediscovers_gf16_on_its_native_workload() {
    let report = discover_rs1(1);
    assert!(!report.candidates.is_empty(), "rs1 yields candidates");
    let hand = emx_workloads::exts::gf16();
    let gfmul = hand.by_name("gfmul").unwrap();
    let hit = report
        .candidates
        .iter()
        .find(|c| {
            matches_hand(c, gfmul, |a, b| {
                u64::from(emx_workloads::gf::mul(a as u8, b as u8))
            })
        })
        .expect("some candidate is isomorphic to hand-written gfmul");
    // The identity rediscovery prices identically to the hand design.
    assert_eq!(hit.latency, gfmul.latency());
    let set = parse_extension(&hit.tie).unwrap();
    assert_eq!(emx_dse::area_cost(&set), emx_dse::area_cost(&hand));
}

#[test]
fn rediscovers_mac16_on_the_accumulate_workload() {
    let w = registry::by_name("accumulate").unwrap();
    let report = discover(&w, &DiscoverConfig::default()).unwrap();
    let hand = emx_workloads::exts::mac16();
    let mac = hand.by_name("mac").unwrap();
    // `mac` writes state, not a GPR; compare structure only.
    let hit = report.candidates.iter().find(|c| {
        let set = parse_extension(&c.tie).expect("candidate parses");
        let inst = set.by_name(&c.name).expect("candidate inst");
        inst.latency() == mac.latency() && inst.resource_vector() == mac.resource_vector()
    });
    assert!(hit.is_some(), "a candidate matches the hand-written mac");
}

#[test]
fn reports_are_byte_identical_across_runs_and_jobs() {
    let a = discover_rs1(1).to_json().to_string();
    let b = discover_rs1(1).to_json().to_string();
    let c = discover_rs1(4).to_json().to_string();
    let d = discover_rs1(3).to_json().to_string();
    assert_eq!(a, b, "same run twice");
    assert_eq!(a, c, "jobs=4 matches jobs=1");
    assert_eq!(a, d, "jobs=3 matches jobs=1");
}

#[test]
fn report_json_round_trips() {
    let report = discover_rs1(1);
    let text = report.to_json().to_string();
    let back = Report::parse(&text).expect("report parses back");
    assert_eq!(back.to_json().to_string(), text);
}

/// `text` with the value of the first `"key": …` replaced by `value`.
fn with_first(text: &str, key: &str, value: &str) -> String {
    let start = text.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    let end = start + text[start..].find([',', '\n']).expect("value ends");
    format!("{}{value}{}", &text[..start], &text[end..])
}

#[test]
fn parse_rejects_out_of_range_registers_and_fields_by_path() {
    let text = discover_rs1(1).to_json().to_string();
    for (key, value, want) in [
        (
            "rs",
            "16",
            "$.candidates[0].sites[0].rs: expected register index < 16",
        ),
        (
            "rs",
            "300",
            "$.candidates[0].sites[0].rs: expected register index < 16",
        ),
        (
            "rt",
            "-1",
            "$.candidates[0].sites[0].rt: expected register index < 16",
        ),
        (
            "rd",
            "\"a3\"",
            "$.candidates[0].sites[0].rd: expected register index < 16",
        ),
        (
            "latency",
            "300",
            "$.candidates[0].latency: expected an unsigned integer that fits u8",
        ),
    ] {
        let err = Report::parse(&with_first(&text, key, value)).unwrap_err();
        assert_eq!(err, want, "{key} = {value}");
    }
}

#[test]
fn bridge_applies_top_candidates_and_preserves_function() {
    let report = discover_rs1(1);
    let base = registry::by_name("rs1").unwrap();
    for cand in report.candidates.iter().take(4) {
        let w = bridge::apply(&base, &[cand]).expect("apply succeeds");
        let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
        let r = sim.run(50_000_000).expect("rewritten workload simulates");
        assert!(r.halted);
        w.verify(sim.state())
            .unwrap_or_else(|e| panic!("`{}` broke the workload: {e}", cand.name));
    }
}

#[test]
fn candidate_space_base_point_is_the_unmodified_workload() {
    let report = discover_rs1(1);
    let space = bridge::candidate_space(&report, 6).expect("space builds");
    let enumerated = space.enumerate(None).expect("enumerates");
    let base = enumerated
        .candidates
        .iter()
        .find(|c| c.name == "base")
        .expect("space has a base point");
    let rs1 = registry::by_name("rs1").unwrap();
    assert_eq!(base.workload.program().len(), rs1.program().len());
}

#[test]
fn parsed_once_space_resolves_like_a_fresh_apply() {
    let report = discover_rs1(1);
    let space = bridge::candidate_space(&report, 8).expect("space builds");
    let enumerated = space.enumerate(None).expect("enumerates");
    assert_eq!(enumerated.enumerated, 256);
    assert_eq!(enumerated.candidates.len(), 108);
    let base = registry::by_name("rs1").unwrap();
    let names = |w: &emx_workloads::Workload| -> Vec<String> {
        w.ext().iter().map(|i| i.name().to_owned()).collect()
    };
    for survivor in &enumerated.candidates {
        // The survivor's options in rank order, each TIE parsed here.
        let picked: Vec<&emx_discover::report::Candidate> = report
            .candidates
            .iter()
            .filter(|c| survivor.options.contains(&c.name))
            .collect();
        assert_eq!(picked.len(), survivor.options.len(), "{}", survivor.name);
        let area = picked.iter().fold(0.0f64, |acc, c| {
            acc + emx_dse::area_cost(&parse_extension(&c.tie).expect("candidate parses"))
        });
        let fresh = bridge::apply(&base, &picked).expect("apply succeeds");
        let resolved = &survivor.workload;
        assert_eq!(resolved.name(), fresh.name(), "{}", survivor.name);
        assert_eq!(resolved.program(), fresh.program(), "{}", survivor.name);
        assert_eq!(names(resolved), names(&fresh), "{}", survivor.name);
        assert_eq!(survivor.area, area, "{}", survivor.name);
    }
}

#[test]
fn discovered_keys_name_exactly_the_resolved_workloads() {
    let report = discover_rs1(1);
    let space = bridge::candidate_space(&report, 8).expect("space builds");
    let mut name_of_key = std::collections::BTreeMap::new();
    let mut key_of_name = std::collections::BTreeMap::new();
    for mask in 0..256 {
        let key = space.key(mask);
        let name = space.resolve(mask).name().to_owned();
        // Distinct keys ⇔ distinct resolved names: each side maps to one
        // value of the other.
        assert_eq!(
            name_of_key.entry(key).or_insert_with(|| name.clone()),
            &name,
            "mask {mask:#x}: key {key:#x} names two workloads"
        );
        assert_eq!(
            key_of_name.entry(name.clone()).or_insert(key),
            &key,
            "mask {mask:#x}: `{name}` has two keys"
        );
    }
    assert_eq!(name_of_key.len(), 108);
}

/// The cache key as it was first defined, with the Debug forms built as
/// strings: on-disk caches stay warm only while `candidate_key` hashes
/// exactly these bytes.
fn formatted_key(fp: u64, w: &emx_workloads::Workload, config: &ProcConfig) -> u64 {
    let program = w.program();
    let mut bytes = fp.to_le_bytes().to_vec();
    for v in [program.text_base(), program.data_base(), program.entry()] {
        bytes.extend(v.to_le_bytes());
    }
    for inst in program.text() {
        bytes.extend(emx_isa::encode(inst).to_le_bytes());
    }
    bytes.extend(program.data());
    bytes.extend(format!("{:?}", w.ext()).as_bytes());
    bytes.extend(format!("{config:?}").as_bytes());
    emx_dse::content_fingerprint(&bytes)
}

#[test]
fn cache_keys_hash_the_formatted_debug_forms() {
    let config = ProcConfig::default();
    let fp = 0x0123_4567_89ab_cdef;
    let report = discover_rs1(1);
    let space = bridge::candidate_space(&report, 8).expect("space builds");
    // Every option selected: the largest discovered composite.
    let composite = space.resolve(0xff);
    assert!(composite.ext().len() > 1, "a composite of several units");
    let mut workloads = emx_dse::CandidateSpace::reed_solomon()
        .enumerate(None)
        .expect("enumerates")
        .candidates
        .into_iter()
        .map(|c| c.workload)
        .collect::<Vec<_>>();
    assert_eq!(workloads.len(), 4);
    workloads.push(composite);
    for w in &workloads {
        assert_eq!(
            emx_dse::candidate_key(fp, w.program(), w.ext(), &config),
            formatted_key(fp, w, &config),
            "{}",
            w.name()
        );
    }
}
