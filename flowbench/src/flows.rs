//! What every workload shares: the one-time characterization a user
//! pays on a new processor configuration, the closed-loop runner, and
//! the engine probes of the traced run.

use std::time::Instant;

use emx_core::{Characterizer, EnergyMacroModel};
use emx_regress::{FitMethod, FitOptions};
use emx_rtlpower::RtlEnergyEstimator;
use emx_sim::{Interp, ProcConfig};
use emx_workloads::{suite, Workload};

use crate::measure::{ms_since, process_cpu_s, Tracer};

/// The fit `Characterizer::new` uses: QR, no ridge.
pub fn fit_options() -> FitOptions {
    FitOptions {
        method: FitMethod::Qr,
        ridge: 0.0,
    }
}

/// The training suite and the macro-model fitted over it.
pub struct Base {
    pub suite: Vec<Workload>,
    pub model: EnergyMacroModel,
}

/// Builds the 63-program training suite and characterizes the base
/// processor once: ISS plus RTL reference per program, then the fit.
pub fn characterize_base(tr: &mut Tracer) -> Result<Base, String> {
    let suite = tr.layer("workloads.suite_build_ms", suite::full_training_suite);
    let characterizer = Characterizer::new(ProcConfig::default());
    let cases = suite::training_cases(&suite);
    let dataset = tr
        .layer("core.build_dataset_ms", || {
            characterizer.build_dataset(&cases)
        })
        .map_err(|e| format!("characterization: {e}"))?;
    let fit = tr
        .layer("regress.fit_ms", || dataset.fit(fit_options()))
        .map_err(|e| format!("characterization fit: {e}"))?;
    let model = EnergyMacroModel::new(*characterizer.spec(), fit.coefficients().to_vec());
    drop(cases);
    Ok(Base { suite, model })
}

/// Times the two simulation engines the dataset build drives, each over
/// the whole training suite: the ISS (`Interp::run`) and the RTL
/// reference (`RtlEnergyEstimator::estimate`).
pub fn probe_engines(tr: &mut Tracer, suite: &[Workload]) -> Result<(), String> {
    let config = ProcConfig::default();
    let reference = RtlEnergyEstimator::new();
    let (mut sim_ms, mut rtl_ms, mut insts) = (0.0, 0.0, 0u64);
    for w in suite {
        let start = Instant::now();
        let run = Interp::new(w.program(), w.ext(), config.clone())
            .run(u64::from(u32::MAX))
            .map_err(|e| format!("{}: {e}", w.name()))?;
        sim_ms += ms_since(start);
        insts += run.stats.inst_count;
        let start = Instant::now();
        reference
            .estimate(w.program(), w.ext(), config.clone())
            .map_err(|e| format!("{}: {e}", w.name()))?;
        rtl_ms += ms_since(start);
    }
    let minst = insts as f64 / 1e6;
    tr.add("sim.run_ms", sim_ms);
    tr.add("sim.minst_per_s", minst / (sim_ms / 1e3));
    tr.add("rtlpower.estimate_ms", rtl_ms);
    tr.add("rtlpower.minst_per_s", minst / (rtl_ms / 1e3));
    Ok(())
}

/// One workload's operation, split into the timed part and the output
/// checks that follow it untimed.
pub trait Flow {
    type Output;
    fn run(&mut self, tr: &mut Tracer) -> Result<Self::Output, String>;
    fn check(&mut self, out: Self::Output) -> Result<(), String>;
}

/// What one timed phase observed.
#[derive(Default)]
pub struct Phase {
    pub samples_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.samples_ms.extend(other.samples_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// Reports a failed operation on stderr, the first few times.
pub fn report_failure(failed: u64, what: &str) {
    if failed <= 5 {
        eprintln!("flowbench: failed operation: {what}");
    }
}

/// Runs `flow` back to back for `seconds`: closed loop, one operation
/// in flight, the last one started before the deadline run to its end.
/// Wall and CPU time are summed over the operations alone, so the
/// checks between them count in neither.
pub fn closed_loop<F: Flow>(
    flow: &mut F,
    tr: &mut Tracer,
    name: &'static str,
    seconds: f64,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        tr.begin_op(name);
        let cpu0 = process_cpu_s();
        let op_start = Instant::now();
        let out = flow.run(tr);
        let ms = ms_since(op_start);
        phase.cpu_s += process_cpu_s() - cpu0;
        phase.wall_s += ms / 1e3;
        tr.end_op(ms);
        phase.attempted += 1;
        match out.and_then(|out| flow.check(out)) {
            Ok(()) => phase.samples_ms.push(ms),
            Err(e) => {
                phase.failed += 1;
                report_failure(phase.failed, &e);
            }
        }
    }
    phase
}
