//! `explore-cold` and `explore-warm`: the discover → explore loop of
//! `emx-discover --workload rs1 --json` followed by
//! `emx-dse --candidates … --top 8 --jobs 2 --cache …`, from scratch and
//! over a persisted cache.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use emx_core::EnergyMacroModel;
use emx_discover::bridge::candidate_space;
use emx_discover::report::Report;
use emx_discover::{discover, DiscoverConfig};
use emx_dse::{CandidateEstimator, CandidateSpace, EstimationCache, Exploration};
use emx_obs::json::Value;
use emx_obs::Collector;
use emx_rtlpower::Energy;
use emx_sim::{ExecStats, ProcConfig, SimError};
use emx_tie::ExtensionSet;
use emx_workloads::{registry, Workload};

use crate::flows::{Base, Flow};
use crate::measure::{ms_since, Tracer};

/// The workload discovery mines.
const WORKLOAD: &str = "rs1";
/// Candidates of the discover report that span the design space.
const TOP: usize = 8;
/// Subsets that survive dominance pruning of the top-8 space.
const SURVIVORS: usize = 108;
/// Discovery and extraction threads. With two, the operation's wall time
/// measured whether the host's second vCPU was free: on a shared 2-vCPU
/// VM it moved between 134 and 214 ms from run to run while the CPU time
/// per operation stayed within 174–203 ms.
const JOBS: usize = 1;

/// Everything both explore workloads set up: the model, the discover
/// report on disk, the cache a cold exploration saved, the cold report
/// as the reference, and a direct estimate of the unmodified workload.
pub struct Setup {
    model: EnergyMacroModel,
    rs1: Workload,
    dir: PathBuf,
    report_path: PathBuf,
    cache_path: PathBuf,
    dse_report_path: PathBuf,
    reference_report: String,
    /// `EnergyMacroModel::estimate` of unmodified `rs1`: (pJ, cycles).
    base_direct: (f64, u64),
}

fn discover_config() -> DiscoverConfig {
    DiscoverConfig {
        jobs: JOBS,
        ..DiscoverConfig::default()
    }
}

fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str()
        .ok_or_else(|| format!("{} is not UTF-8", path.display()))
}

fn options_table(space: &CandidateSpace) -> Vec<(String, f64)> {
    space
        .options()
        .iter()
        .map(|o| (o.name.clone(), o.area()))
        .collect()
}

fn render(out: &Exploration, space: &CandidateSpace) -> String {
    let mut text = emx_dse::report::to_json(out, &options_table(space)).to_string();
    text.push('\n');
    text
}

pub fn setup(base: &Base, dir: &Path) -> Result<Setup, String> {
    let rs1 = registry::by_name(WORKLOAD).ok_or("rs1 is not in the workload registry")?;
    let report = discover(&rs1, &discover_config()).map_err(|e| format!("discover: {e}"))?;
    let mut text = report.to_json().to_string();
    text.push('\n');
    let report_path = dir.join("discover.json");
    std::fs::write(&report_path, &text).map_err(|e| format!("discover report: {e}"))?;
    let parsed = Report::parse(&text)?;
    let space = candidate_space(&parsed, TOP)?;
    let mut cache = EstimationCache::new();
    let config = ProcConfig::default();
    let out = emx_dse::explore_with(
        &base.model,
        &space,
        None,
        &config,
        JOBS,
        &mut cache,
        &mut Collector::disabled(),
    )
    .map_err(|e| format!("explore: {e}"))?;
    let cache_path = dir.join("cache.json");
    cache
        .save(path_str(&cache_path)?)
        .map_err(|e| format!("cache save: {e}"))?;
    let direct = base
        .model
        .estimate(rs1.program(), rs1.ext(), config)
        .map_err(|e| format!("direct estimate of rs1: {e}"))?;
    Ok(Setup {
        model: base.model.clone(),
        reference_report: render(&out, &space),
        base_direct: (direct.energy.as_picojoules(), direct.stats.total_cycles),
        rs1,
        report_path,
        cache_path,
        dse_report_path: dir.join("dse.json"),
        dir: dir.to_owned(),
    })
}

/// Forwards to the macro-model and times its two halves; both
/// fingerprints pass through, so cache keys do not change.
struct TimedEstimator<'a> {
    model: &'a EnergyMacroModel,
    extract_ns: AtomicU64,
    extractions: AtomicU64,
    price_ns: AtomicU64,
    pricings: AtomicU64,
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl CandidateEstimator for TimedEstimator<'_> {
    fn extract(
        &self,
        program: &emx_isa::Program,
        ext: &ExtensionSet,
        config: ProcConfig,
    ) -> Result<ExecStats, SimError> {
        let start = Instant::now();
        let out = self.model.extract(program, ext, config);
        self.extract_ns
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        self.extractions.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn price(&self, stats: &ExecStats) -> (Energy, u64) {
        let start = Instant::now();
        let out = self.model.price(stats);
        self.price_ns
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        self.pricings.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn fingerprint(&self) -> u64 {
        self.model.fingerprint()
    }

    fn pricing_fingerprint(&self) -> u64 {
        self.model.pricing_fingerprint()
    }
}

/// `explore_with` over the bare model, or over the timing wrapper when
/// tracing, with the sub-layer figures recorded on `tr`.
fn explore(
    tr: &mut Tracer,
    model: &EnergyMacroModel,
    space: &CandidateSpace,
    cache: &mut EstimationCache,
) -> Result<Exploration, String> {
    let config = ProcConfig::default();
    if !tr.enabled() {
        return tr
            .layer("dse.explore_ms", || {
                emx_dse::explore_with(
                    model,
                    space,
                    None,
                    &config,
                    JOBS,
                    cache,
                    &mut Collector::disabled(),
                )
            })
            .map_err(|e| format!("explore: {e}"));
    }
    let timed = TimedEstimator {
        model,
        extract_ns: AtomicU64::new(0),
        extractions: AtomicU64::new(0),
        price_ns: AtomicU64::new(0),
        pricings: AtomicU64::new(0),
    };
    let mut obs = Collector::new();
    let out = tr
        .layer("dse.explore_ms", || {
            emx_dse::explore_with(&timed, space, None, &config, JOBS, cache, &mut obs)
        })
        .map_err(|e| format!("explore: {e}"))?;
    let enumerate_us: u64 = obs
        .spans()
        .iter()
        .filter(|s| s.name == "dse.enumerate")
        .map(|s| s.dur_us)
        .sum();
    let ns = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    tr.add("dse.enumerate_ms", enumerate_us as f64 / 1e3);
    tr.add("dse.enumerated", out.enumeration.enumerated as f64);
    tr.add("dse.survivors", out.survivors_total as f64);
    tr.add("dse.extract_ms", ns(&timed.extract_ns) / 1e6);
    tr.add("dse.extractions", ns(&timed.extractions));
    tr.add("dse.price_ms", ns(&timed.price_ns) / 1e6);
    tr.add("dse.pricings", ns(&timed.pricings));
    let lookups = (out.reused + out.evaluated).max(1);
    tr.add("dse.cache_hit_ratio", out.reused as f64 / lookups as f64);
    Ok(out)
}

/// What one explore operation produced, for the checks.
pub struct Output {
    exploration: Exploration,
    rendered: String,
}

fn render_and_save(
    tr: &mut Tracer,
    setup: &Setup,
    out: Exploration,
    space: &CandidateSpace,
    cache: &EstimationCache,
    cache_path: &Path,
) -> Result<Output, String> {
    let rendered = tr.layer("dse.report_render_ms", || {
        let text = render(&out, space);
        std::fs::write(&setup.dse_report_path, &text).map(|()| text)
    });
    let rendered = rendered.map_err(|e| format!("dse report: {e}"))?;
    let cache_path = path_str(cache_path)?;
    tr.layer("dse.cache_save_ms", || cache.save(cache_path))
        .map_err(|e| format!("cache save: {e}"))?;
    if tr.enabled() {
        let bytes = std::fs::metadata(cache_path).map_or(0, |m| m.len());
        tr.add("dse.cache_bytes", bytes as f64);
    }
    Ok(Output {
        exploration: out,
        rendered,
    })
}

/// Checks shared by both explore workloads: no failed candidate, the
/// expected ISS passes, the reference report byte for byte, Pareto
/// dominance recomputed here, and the base point against a direct
/// estimate.
fn check_exploration(setup: &Setup, out: &Output, expected_evaluated: usize) -> Result<(), String> {
    let x = &out.exploration;
    if !x.failed.is_empty() {
        return Err(format!(
            "{} candidate(s) failed to evaluate",
            x.failed.len()
        ));
    }
    if x.points.len() != SURVIVORS || x.evaluated != expected_evaluated {
        return Err(format!(
            "expected {SURVIVORS} points and {expected_evaluated} extraction(s), got {} and {}",
            x.points.len(),
            x.evaluated
        ));
    }
    if out.rendered != setup.reference_report {
        return Err("the DSE report differs from the cold reference report".to_owned());
    }
    check_pareto(x)?;
    let base = x
        .base
        .ok_or("the zero-hardware base candidate is missing")?;
    let point = &x.points[base];
    if (point.energy.as_picojoules(), point.cycles) != setup.base_direct {
        return Err(format!(
            "base point ({} pJ, {} cycles) differs from the direct estimate of {} ({} pJ, {} cycles)",
            point.energy.as_picojoules(),
            point.cycles,
            setup.rs1.name(),
            setup.base_direct.0,
            setup.base_direct.1
        ));
    }
    Ok(())
}

/// Every reported Pareto point must be non-dominated, and every
/// non-dominated point must be reported (or equal one that is).
fn check_pareto(x: &Exploration) -> Result<(), String> {
    let key = |i: usize| (x.points[i].energy.as_picojoules(), x.points[i].cycles);
    let dominated = |i: usize| {
        let (e, c) = key(i);
        (0..x.points.len()).any(|j| {
            let (ej, cj) = key(j);
            ej <= e && cj <= c && (ej < e || cj < c)
        })
    };
    for &i in &x.pareto {
        if dominated(i) {
            return Err(format!("Pareto point {} is dominated", x.points[i].name));
        }
    }
    for i in 0..x.points.len() {
        if !dominated(i) && !x.pareto.iter().any(|&p| key(p) == key(i)) {
            return Err(format!(
                "non-dominated point {} is not on the front",
                x.points[i].name
            ));
        }
    }
    Ok(())
}

/// Reads the discover report back and builds the top-8 space.
fn space_from_report(tr: &mut Tracer, path: &Path) -> Result<CandidateSpace, String> {
    let report = tr
        .layer("discover.report_parse_ms", || {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            Report::parse(&text)
        })
        .map_err(|e| format!("discover report: {e}"))?;
    tr.layer("discover.candidate_space_ms", || {
        candidate_space(&report, TOP)
    })
}

pub struct Cold<'a> {
    pub setup: &'a Setup,
    report_path: PathBuf,
    cache_path: PathBuf,
}

impl<'a> Cold<'a> {
    pub fn new(setup: &'a Setup) -> Self {
        Cold {
            setup,
            report_path: setup.dir.join("discover-cold.json"),
            cache_path: setup.dir.join("cache-cold.json"),
        }
    }
}

impl Flow for Cold<'_> {
    type Output = Output;

    fn run(&mut self, tr: &mut Tracer) -> Result<Output, String> {
        let report = tr
            .layer("discover.discover_ms", || {
                discover(&self.setup.rs1, &discover_config())
            })
            .map_err(|e| format!("discover: {e}"))?;
        tr.add("discover.candidates", report.candidates.len() as f64);
        tr.layer("discover.report_write_ms", || {
            let mut text = report.to_json().to_string();
            text.push('\n');
            std::fs::write(&self.report_path, text)
        })
        .map_err(|e| format!("discover report: {e}"))?;
        let space = space_from_report(tr, &self.report_path)?;
        let mut cache = EstimationCache::new();
        let out = explore(tr, &self.setup.model, &space, &mut cache)?;
        render_and_save(tr, self.setup, out, &space, &cache, &self.cache_path)
    }

    fn check(&mut self, out: Output) -> Result<(), String> {
        check_exploration(self.setup, &out, SURVIVORS)
    }
}

pub struct Warm<'a> {
    pub setup: &'a Setup,
}

impl Flow for Warm<'_> {
    type Output = Output;

    fn run(&mut self, tr: &mut Tracer) -> Result<Output, String> {
        let space = space_from_report(tr, &self.setup.report_path)?;
        let cache_path = path_str(&self.setup.cache_path)?;
        let mut cache = tr
            .layer("dse.cache_load_ms", || EstimationCache::load(cache_path))
            .map_err(|e| format!("cache load: {e}"))?;
        let out = explore(tr, &self.setup.model, &space, &mut cache)?;
        render_and_save(tr, self.setup, out, &space, &cache, &self.setup.cache_path)
    }

    fn check(&mut self, out: Output) -> Result<(), String> {
        check_exploration(self.setup, &out, 0)
    }
}

/// The JSON codec's throughput on the persisted cache document: parse
/// of the file's text, then write of the parsed document. The parse is
/// repeated on a document holding the cache twice; the time ratio reads
/// about 2 for a linear parser and about 4 for a quadratic one.
pub fn probe_codec(tr: &mut Tracer, setup: &Setup) -> Result<(), String> {
    let text = std::fs::read_to_string(&setup.cache_path).map_err(|e| format!("cache: {e}"))?;
    let parse_ms = |text: &str| {
        let start = Instant::now();
        Value::parse(text)
            .map(|doc| (doc, ms_since(start)))
            .map_err(|e| format!("cache: {e}"))
    };
    let (doc, once_ms) = parse_ms(&text)?;
    tr.add(
        "obs.json_parse_mb_per_s",
        text.len() as f64 / 1e6 / (once_ms / 1e3),
    );
    let (_, twice_ms) = parse_ms(&format!("[{}, {}]", text.trim_end(), text.trim_end()))?;
    tr.add("obs.json_parse_2x_ratio", twice_ms / once_ms);
    let start = Instant::now();
    let written = doc.to_string();
    let ms = ms_since(start);
    tr.add(
        "obs.json_write_mb_per_s",
        written.len() as f64 / 1e6 / (ms / 1e3),
    );
    Ok(())
}
