//! The benchmark suites as library functions over the harness.
//!
//! Each `benches/*.rs` target is a thin wrapper around one function
//! here, and `emx-bench` runs [`all`] of them headlessly to produce an
//! `emx.bench-report/1` snapshot. Expensive setup (characterization,
//! instruction-count pre-measures, cache warming) is gated on
//! [`Bench::will_measure`] or deferred into the bench closures, so
//! `--list` and narrow filters stay cheap.

use std::cell::OnceCell;
use std::hint::black_box;

use emx_dse::{CandidateSpace, EstimationCache};
use emx_obs::Collector;
use emx_regress::solve::{normal_equations_lstsq, qr_lstsq};
use emx_regress::Matrix;
use emx_rtlpower::RtlEnergyEstimator;
use emx_sim::{InstRecord, Interp, ProcConfig};
use emx_workloads::Workload;

use crate::harness::Bench;
use crate::MAX_CYCLES;

/// A suite registration function: registers its benches on the harness.
pub type SuiteFn = fn(&mut Bench);

/// Every suite, in report order: name plus registration function.
pub const SUITES: &[(&str, SuiteFn)] = &[
    ("simulators", simulators),
    ("estimation", estimation),
    ("regression", regression),
    ("dse", dse),
];

/// Registers every suite on `bench`.
pub fn all(bench: &mut Bench) {
    for (_, suite) in SUITES {
        suite(bench);
    }
}

fn pick(names: &[&str]) -> Vec<Workload> {
    emx_workloads::suite::characterization_suite()
        .into_iter()
        .filter(|w| names.contains(&w.name()))
        .collect()
}

/// The workloads the simulator suites (and the phase-profiling section
/// of the bench report) exercise: two base-ISA kernels and one
/// custom-instruction kernel.
pub fn simulator_workloads() -> Vec<Workload> {
    pick(&["matmul", "crc32", "tie_mac_fir", "tie_syn"])
}

/// ISS throughput on the statistics fast path (`iss/*`) vs the same
/// engine streaming activity records (`pipeline_trace/*`), per workload
/// class.
pub fn simulators(bench: &mut Bench) {
    let workloads = simulator_workloads();

    let mut group = bench.group("iss");
    for w in &workloads {
        // Pre-measure instruction count for throughput reporting; only
        // worth paying when this benchmark will actually run.
        if group.will_measure(w.name()) {
            let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
            let insts = sim.run(MAX_CYCLES).expect("runs").stats.inst_count;
            group.throughput_elements(insts);
        }
        group.bench(w.name(), || {
            let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
            black_box(sim.run(MAX_CYCLES).expect("runs").stats.total_cycles)
        });
    }
    group.finish();

    let mut group = bench.group("pipeline_trace");
    for w in &workloads {
        group.bench(w.name(), || {
            let mut records = 0u64;
            let mut sink = |_: &InstRecord<'_>| records += 1;
            let mut sim = Interp::new(w.program(), w.ext(), ProcConfig::default());
            sim.run_with_sink(&mut sink, MAX_CYCLES).expect("runs");
            black_box(records)
        });
    }
    group.finish();
}

/// The paper's speedup claim (§V): macro-model estimation (fast ISS +
/// dot product) vs the RTL-level reference flow, per application, plus
/// the one-time characterization cost.
pub fn estimation(bench: &mut Bench) {
    // Characterization is by far the most expensive setup in any suite;
    // build it lazily on first use (the harness's warm-up call pays it
    // outside the timed region).
    let characterization = OnceCell::new();
    let model = || {
        &characterization
            .get_or_init(crate::characterize_default)
            .model
    };
    let estimator = RtlEnergyEstimator::new();
    let apps = emx_workloads::apps::all();

    let mut group = bench.group("estimation");
    group.sample_size(10);
    for w in &apps {
        group.bench(&format!("macro_model/{}", w.name()), || {
            let est = model()
                .estimate(w.program(), w.ext(), ProcConfig::default())
                .expect("estimation runs");
            black_box(est.energy)
        });
        group.bench(&format!("rtl_reference/{}", w.name()), || {
            let rep = estimator
                .estimate(w.program(), w.ext(), ProcConfig::default())
                .expect("reference runs");
            black_box(rep.total)
        });
    }
    group.finish();

    // The one-time cost of building the macro-model (steps 1–8); done
    // once per base processor, amortized over every later estimate.
    let mut group = bench.group("characterization");
    group.sample_size(10);
    group.bench("full_flow", || black_box(crate::characterize_default()));
    group.finish();
}

/// Deterministic pseudo-random design matrix shaped like the
/// characterization problem (`samples × 21`).
fn design(samples: usize, vars: usize) -> (Matrix, Vec<f64>) {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let x = Matrix::from_fn(samples, vars, |_, _| next() * 1000.0);
    let c_true: Vec<f64> = (0..vars).map(|i| 50.0 + 10.0 * i as f64).collect();
    let mut y = x.mul_vec(&c_true).expect("shapes match");
    for v in &mut y {
        *v *= 1.0 + 0.02 * (next() - 0.5);
    }
    (x, y)
}

/// The regression kernel: the paper highlights that "construction and
/// use of regression models are efficient" — the least-squares solve
/// over the whole characterization suite is microseconds.
pub fn regression(bench: &mut Bench) {
    let mut group = bench.group("lstsq");
    for &samples in &[25usize, 40, 100] {
        let (x, y) = design(samples, 21);
        group.bench(&format!("qr/{samples}"), || {
            black_box(qr_lstsq(&x, &y).expect("solves"))
        });
        group.bench(&format!("pseudo_inverse/{samples}"), || {
            black_box(normal_equations_lstsq(&x, &y, 0.0).expect("solves"))
        });
    }
    group.finish();
}

/// The design-space exploration engine: a full search over the
/// Reed–Solomon space with a cold estimation cache (every candidate
/// pays an ISS run) vs a warm one (every candidate is a hash lookup).
/// The Melem/s figure is candidates per second.
pub fn dse(bench: &mut Bench) {
    let mut group = bench.group("dse");
    group.sample_size(10);

    let run_cold = group.will_measure("explore/cold_cache");
    let run_warm = group.will_measure("explore/warm_cache");
    if !run_cold && !run_warm {
        // Register the names (for `--list` and the skip tally) without
        // paying for characterization or cache warming.
        group.bench("explore/cold_cache", || ());
        group.bench("explore/warm_cache", || ());
        group.finish();
        return;
    }

    let model = crate::characterize_default().model;
    let space = CandidateSpace::reed_solomon();
    let candidates = space
        .enumerate(None)
        .expect("reed-solomon space enumerates")
        .candidates
        .len() as u64;

    group.throughput_elements(candidates);
    group.bench("explore/cold_cache", || {
        let mut cache = EstimationCache::new();
        let out = emx_dse::explore(
            &model,
            &space,
            None,
            &ProcConfig::default(),
            1,
            &mut cache,
            &mut Collector::disabled(),
        )
        .expect("exploration runs");
        black_box(out.points.len())
    });

    let mut warm = EstimationCache::new();
    if run_warm {
        emx_dse::explore(
            &model,
            &space,
            None,
            &ProcConfig::default(),
            1,
            &mut warm,
            &mut Collector::disabled(),
        )
        .expect("exploration runs");
    }
    group.throughput_elements(candidates);
    group.bench("explore/warm_cache", || {
        let out = emx_dse::explore(
            &model,
            &space,
            None,
            &ProcConfig::default(),
            1,
            &mut warm,
            &mut Collector::disabled(),
        )
        .expect("exploration runs");
        black_box(out.points.len())
    });

    group.finish();
}
