//! End-to-end tests of the `emx-bench` binary: exit-code contract,
//! snapshot validity, self-comparison, and the regression gate against
//! a doctored (artificially fast) baseline.

use std::path::PathBuf;
use std::process::{Command, Output};

use emx_bench::report::BenchReport;

fn emx_bench(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_emx-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emx-bench-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn list_prints_names_and_runs_nothing() {
    let dir = temp_dir("list");
    let out = emx_bench(&["--list"], &dir);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "iss/matmul",
        "estimation/macro_model/gcd",
        "characterization/full_flow",
        "lstsq/qr/25",
        "dse/explore/cold_cache",
        "phase/crc32",
    ] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
    // --list is instant, so it must not have measured anything.
    assert!(!stdout.contains("p50"), "{stdout}");
}

/// `emx-bench --list | head -1`: the reader takes one line and goes
/// away. Later writes then fail with `BrokenPipe`, which must end the
/// process quietly rather than in a panic. The listing fits the pipe
/// buffer, so a second run whose pipe has no reader from the start makes
/// sure a write does fail.
#[test]
fn list_into_a_closed_pipe_stops_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = temp_dir("pipe");
    let spawn = |stdout: Stdio| {
        Command::new(env!("CARGO_BIN_EXE_emx-bench"))
            .arg("--list")
            .current_dir(&dir)
            .stdout(stdout)
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs")
    };
    let (reader, writer) = std::io::pipe().expect("pipe");
    let child = spawn(writer.into());
    let mut first = String::new();
    BufReader::new(reader)
        .read_line(&mut first)
        .expect("one line");
    assert!(first.contains('/'), "{first:?}");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let closed = spawn(writer.into());
    for child in [child, closed] {
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{:?}: {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let dir = temp_dir("usage");
    for args in [
        &["--frobnicate"][..],
        &["--samples"][..],
        &["--samples", "one"][..],
        &["--compare", "x.json"][..],
        &["a", "b"][..],
    ] {
        let out = emx_bench(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn missing_baseline_file_is_an_input_error() {
    let dir = temp_dir("missing");
    let out = emx_bench(
        &["--baseline", "no-such.json", "--compare", "no-such.json"],
        &dir,
    );
    assert_eq!(out.status.code(), Some(1));
}

/// One real (tiny) run drives the full snapshot surface: schema-valid
/// JSON with environment, statistics, histogram buckets, and a phase
/// breakdown; clean self-comparison; and a regression verdict against
/// a baseline doctored to look 4× faster.
#[test]
fn snapshot_compare_and_gate_work_end_to_end() {
    let dir = temp_dir("snapshot");
    let snapshot = dir.join("smoke.json");
    let out = emx_bench(&["matmul", "--samples", "3", "--json", "smoke.json"], &dir);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The snapshot parses under the schema and carries everything the
    // report promises.
    let text = std::fs::read_to_string(&snapshot).unwrap();
    assert!(text.contains("emx.bench-report/1"));
    let report = BenchReport::parse(&text).expect("snapshot is schema-valid");
    assert!(report.environment.cpu_count > 0);
    assert_ne!(report.environment.opt_level, "");
    let entry = report.benchmark("iss/matmul").expect("filtered bench ran");
    assert_eq!(entry.samples, 3);
    assert!(entry.p50_ns > 0 && entry.p50_ns <= entry.p90_ns);
    assert!(
        entry.hist.buckets().count() > 0,
        "histogram buckets present"
    );
    assert_eq!(entry.hist.count(), 3);
    let phase = report
        .phases
        .iter()
        .find(|p| p.workload == "matmul")
        .expect("phase breakdown present");
    assert!(phase.profile.total_ns() > 0);
    assert!(phase.profile.steps() > 0);

    // Self-comparison is deterministic and clean.
    let out = emx_bench(
        &["--baseline", "smoke.json", "--compare", "smoke.json"],
        &dir,
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("0 regressed"), "{stdout}");

    // Doctor a baseline that claims to be 4× faster: the current run
    // then sits far above its p90 band and must fail the gate.
    let mut doctored = report.clone();
    for entry in &mut doctored.benchmarks {
        entry.min_ns /= 4;
        entry.p50_ns /= 4;
        entry.p90_ns /= 4;
        entry.mean_ns /= 4.0;
    }
    std::fs::write(dir.join("doctored.json"), doctored.to_text()).unwrap();
    let out = emx_bench(
        &["--baseline", "doctored.json", "--compare", "smoke.json"],
        &dir,
    );
    assert_eq!(out.status.code(), Some(1), "4× slowdown must gate");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // --warn-only downgrades the same comparison to exit 0.
    let out = emx_bench(
        &[
            "--baseline",
            "doctored.json",
            "--compare",
            "smoke.json",
            "--warn-only",
        ],
        &dir,
    );
    assert!(out.status.success());

    // A cross-machine baseline (different fingerprint) warns instead of
    // gating, even with real regressions.
    let mut foreign = doctored.clone();
    foreign.environment.cpu_count += 64;
    std::fs::write(dir.join("foreign.json"), foreign.to_text()).unwrap();
    let out = emx_bench(
        &["--baseline", "foreign.json", "--compare", "smoke.json"],
        &dir,
    );
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("environment differs"), "{stderr}");
}

fn emx_figures(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_emx-figures"));
    command.args(args);
    command
}

#[test]
fn figures_usage_errors_exit_two() {
    for args in [
        &[][..],
        &["no-such-figure"][..],
        &["--help"][..],
        &["table1", "extra"][..],
        &["diagnostics", "--report"][..],
        &["diagnostics", "--bogus"][..],
    ] {
        let out = emx_figures(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: emx-figures"), "{args:?}: {stderr}");
    }
}

#[test]
fn figures_missing_report_is_an_input_error() {
    let out = emx_figures(&["diagnostics", "--report", "/nonexistent/emx-report.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn table1_prints_identical_bytes_on_two_runs() {
    // Both runs at once: each characterizes the suite from scratch.
    let runs: Vec<_> = (0..2)
        .map(|_| {
            emx_figures(&["table1"])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("binary runs")
        })
        .collect();
    let outputs: Vec<Output> = runs
        .into_iter()
        .map(|run| run.wait_with_output().expect("binary finishes"))
        .collect();
    for out in &outputs {
        assert!(out.status.success());
    }
    let table = String::from_utf8(outputs[0].stdout.clone()).unwrap();
    assert!(
        table.starts_with("Table I — energy coefficients"),
        "{table}"
    );
    assert!(table.contains("alpha_A"), "{table}");
    assert_eq!(outputs[0].stdout, outputs[1].stdout);
}
