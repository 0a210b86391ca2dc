//! The TIE printer and parser are inverse: `tie::lang::print` writes any
//! extension set the library, the training suite, the fuzzer or
//! discovery produces as source that `parse_extension` compiles back to
//! the same set, down to its `Debug` form (which `candidate_key` hashes).
//!
//! Exclusions: none. What the language cannot say — `MulS` and `Sar`,
//! which have no surface form — occurs in none of these sets; `print`
//! refuses it with a typed error (unit tests in `tie::lang`).

use emx::discover::{discover, DiscoverConfig};
use emx::tie::lang::{parse_extension, print};
use emx::tie::ExtensionSet;
use emx::validate::{fuzz, FuzzConfig};
use emx::workloads::{apps, exts, registry, suite};

/// Asserts `parse(print(set))` has `set`'s `Debug` form; `what` names the
/// set in a failure.
fn round_trips(what: &str, set: &ExtensionSet) {
    let text = print(set).unwrap_or_else(|e| panic!("{what}: print refused: {e}"));
    let back = parse_extension(&text)
        .unwrap_or_else(|e| panic!("{what}: printed source does not parse: {e}\n{text}"));
    assert_eq!(
        format!("{back:?}"),
        format!("{set:?}"),
        "{what}: printed source compiles to a different set\n{text}"
    );
}

#[test]
fn builtin_extension_sets_round_trip() {
    for (name, set) in [
        ("mac16", exts::mac16()),
        ("mac8", exts::mac8()),
        ("mac16x2", exts::mac16x2()),
        ("gf16", exts::gf16()),
        ("gf16_mac", exts::gf16_mac()),
        ("rs_wide", exts::rs_wide()),
        ("rs_full", exts::rs_full()),
        ("dsp16", exts::dsp16()),
        ("csa_mult", exts::csa_mult()),
        ("tmul16", exts::tmul16()),
        ("wide64", exts::wide64()),
        ("simd4", exts::simd4()),
        ("sortpair", exts::sortpair()),
        ("blend8", exts::blend8()),
        ("sbox12", exts::sbox12()),
        ("tie_alu", exts::tie_alu()),
        ("mul32c", exts::mul32c()),
        ("bigtable", exts::bigtable()),
        ("absdiff_ext", exts::absdiff_ext()),
        ("line_ext", exts::line_ext()),
    ] {
        round_trips(name, &set);
    }
}

#[test]
fn training_suite_extension_sets_round_trip() {
    for w in suite::full_training_suite() {
        round_trips(w.name(), w.ext());
    }
}

#[test]
fn fuzz_extension_sets_round_trip() {
    let default = FuzzConfig::default();
    let second = FuzzConfig {
        seed: 20_260_807,
        cases: 250,
        ..default.clone()
    };
    for config in [default, second] {
        for i in 0..config.cases {
            let built = fuzz::build(&config.case(i));
            round_trips(&format!("fuzz seed {} case {i}", config.seed), &built.ext);
        }
    }
}

#[test]
fn discovered_candidates_round_trip() {
    let mut workloads = vec![registry::by_name("rs1").expect("rs1 registered")];
    workloads.extend(apps::all());
    let mut candidates = 0;
    for w in &workloads {
        let report = discover(w, &DiscoverConfig::default()).expect("discovery succeeds");
        for cand in &report.candidates {
            let set = parse_extension(&cand.tie).expect("candidate parses");
            round_trips(&format!("{} {}", w.name(), cand.name), &set);
            candidates += 1;
        }
    }
    assert!(
        candidates >= workloads.len(),
        "only {candidates} candidates"
    );
}
