//! `characterize`: the one-time characterization flow of
//! `emx-characterize`, then the ten held-out Table II applications
//! priced by the fitted macro-model and by the RTL reference.

use emx_core::{Characterizer, EnergyMacroModel, TrainingCase};
use emx_coverage::{analyze, Thresholds};
use emx_regress::Dataset;
use emx_rtlpower::RtlEnergyEstimator;
use emx_sim::{Interp, ProcConfig};
use emx_workloads::{apps, suite, Workload};

use crate::flows::{fit_options, Base, Flow};
use crate::measure::Tracer;

/// Largest relative distance between a held-out macro estimate and its
/// RTL reference that still counts as a correct estimate.
const HELDOUT_TOLERANCE: f64 = 0.30;

/// Largest ‖Xᵀ(y − Xβ)‖ / ‖Xᵀy‖ a least-squares solution may leave.
const NORMAL_EQUATIONS_TOLERANCE: f64 = 1e-9;

pub struct Characterize<'a> {
    cases: Vec<TrainingCase<'a>>,
    apps: Vec<Workload>,
}

pub struct Output {
    dataset: Dataset,
    coverage_passes: bool,
    coefficients: Vec<f64>,
    /// Per held-out app: (name, macro-model pJ, RTL reference pJ).
    heldout: Vec<(String, f64, f64)>,
}

impl<'a> Characterize<'a> {
    pub fn new(base: &'a Base) -> Self {
        Characterize {
            cases: suite::training_cases(&base.suite),
            apps: apps::all(),
        }
    }
}

impl Flow for Characterize<'_> {
    type Output = Output;

    fn run(&mut self, tr: &mut Tracer) -> Result<Output, String> {
        let config = ProcConfig::default();
        let characterizer = Characterizer::new(config.clone());
        let dataset = tr
            .layer("core.build_dataset_ms", || {
                characterizer.build_dataset(&self.cases)
            })
            .map_err(|e| format!("dataset: {e}"))?;
        let analysis = tr
            .layer("coverage.analyze_ms", || {
                analyze(&dataset, &Thresholds::default())
            })
            .map_err(|e| format!("coverage: {e}"))?;
        let fit = tr
            .layer("regress.fit_ms", || dataset.fit(fit_options()))
            .map_err(|e| format!("fit: {e}"))?;
        let model = EnergyMacroModel::new(*characterizer.spec(), fit.coefficients().to_vec());

        let reference = RtlEnergyEstimator::new();
        let mut heldout = Vec::with_capacity(self.apps.len());
        for app in &self.apps {
            let estimate = tr
                .layer("core.heldout_macro_ms", || {
                    model.estimate(app.program(), app.ext(), config.clone())
                })
                .map_err(|e| format!("{}: macro estimate: {e}", app.name()))?;
            let measured = tr
                .layer("rtlpower.heldout_ms", || {
                    reference.estimate(app.program(), app.ext(), config.clone())
                })
                .map_err(|e| format!("{}: RTL reference: {e}", app.name()))?;
            heldout.push((
                app.name().to_owned(),
                estimate.energy.as_picojoules(),
                measured.total.as_picojoules(),
            ));
        }
        Ok(Output {
            dataset,
            coverage_passes: analysis.passes(),
            coefficients: fit.coefficients().to_vec(),
            heldout,
        })
    }

    fn check(&mut self, out: Output) -> Result<(), String> {
        if !out.coverage_passes {
            return Err("the training suite fails the coverage gate".to_owned());
        }
        let residual = normal_equations_residual(&out.dataset, &out.coefficients);
        if residual.is_nan() || residual > NORMAL_EQUATIONS_TOLERANCE {
            return Err(format!(
                "fit violates the normal equations: |X'(y - Xb)| / |X'y| = {residual:e}"
            ));
        }
        for (name, macro_pj, rtl_pj) in &out.heldout {
            let error = (macro_pj - rtl_pj).abs() / rtl_pj;
            if error.is_nan() || error > HELDOUT_TOLERANCE {
                return Err(format!(
                    "{name}: macro estimate {macro_pj:.0} pJ is {:.1}% off the RTL reference \
                     {rtl_pj:.0} pJ",
                    100.0 * error
                ));
            }
        }
        for app in &self.apps {
            let mut sim = Interp::new(app.program(), app.ext(), ProcConfig::default());
            sim.run(u64::from(u32::MAX))
                .map_err(|e| format!("{}: {e}", app.name()))?;
            app.verify(sim.state()).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// ‖Xᵀ(y − Xβ)‖ / ‖Xᵀy‖, computed here from the design matrix with
/// plain loops. A least-squares β zeroes the numerator (the normal
/// equations), whatever solver produced it.
fn normal_equations_residual(dataset: &Dataset, beta: &[f64]) -> f64 {
    let x = dataset.design_matrix();
    let y = dataset.dependent();
    let mut gradient = vec![0.0; x.cols()];
    let mut xty = vec![0.0; x.cols()];
    for (i, &yi) in y.iter().enumerate() {
        let row = x.row(i);
        let fitted: f64 = row.iter().zip(beta).map(|(a, b)| a * b).sum();
        let residual = yi - fitted;
        for (j, &xij) in row.iter().enumerate() {
            gradient[j] += xij * residual;
            xty[j] += xij * yi;
        }
    }
    let norm = |v: &[f64]| v.iter().map(|a| a * a).sum::<f64>().sqrt();
    norm(&gradient) / norm(&xty)
}
