//! The shared CLI exit-code contract, enforced end to end on the real
//! binaries: **2** = the command line itself was malformed, **1** = an
//! input file or gate failed, **3** = internal error (covered by unit
//! tests on `ErrorKind::exit_code`, since a healthy build has no
//! reachable internal error to trigger — see tests/README.md).
//!
//! Every table entry runs a binary with representative bad input and
//! asserts on the process's real exit status, so a refactor that breaks
//! `main`'s error plumbing (e.g. returning `Err` straight out of `main`,
//! which exits 1 for everything) fails here even when the unit tests on
//! `parse_args` still pass.

use std::process::Command;

struct Case {
    bin: &'static str,
    args: &'static [&'static str],
    expect: i32,
    why: &'static str,
}

const CASES: &[Case] = &[
    // usage errors: exit 2
    Case {
        bin: env!("CARGO_BIN_EXE_emx-run"),
        args: &["--bogus-flag"],
        expect: 2,
        why: "unknown flag is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-characterize"),
        args: &[],
        expect: 2,
        why: "missing required model path is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-dse"),
        args: &["--budget", "nan"],
        expect: 2,
        why: "non-numeric budget is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-dse"),
        args: &["--shard", "3/2"],
        expect: 2,
        why: "shard index above the count is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-dse"),
        args: &["--shard", "0/0"],
        expect: 2,
        why: "zero-way shard partition is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-dse"),
        args: &["--merge"],
        expect: 2,
        why: "--merge without shard report files is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-validate"),
        args: &["--folds", "1"],
        expect: 2,
        why: "fold count below 2 is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-serve"),
        args: &["--bogus-flag"],
        expect: 2,
        why: "unknown flag is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-serve"),
        args: &["--queue-depth", "0"],
        expect: 2,
        why: "zero queue depth is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-load"),
        args: &[],
        expect: 2,
        why: "missing required --addr is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-load"),
        args: &["--addr", "127.0.0.1:9", "--concurrency", "0"],
        expect: 2,
        why: "zero concurrency is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-discover"),
        args: &["--bogus-flag"],
        expect: 2,
        why: "unknown flag is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-discover"),
        args: &["--workload", "no-such-workload"],
        expect: 2,
        why: "unknown workload name is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-discover"),
        args: &["--jobs", "0"],
        expect: 2,
        why: "zero worker count is a usage error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-dse"),
        args: &["--candidates", "d.json", "--workload", "reed-solomon"],
        expect: 2,
        why: "--candidates and --workload conflict is a usage error",
    },
    // bad input: exit 1
    Case {
        bin: env!("CARGO_BIN_EXE_emx-run"),
        args: &["/nonexistent/emx-no-such-program.s"],
        expect: 1,
        why: "missing program file is an input error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-dse"),
        args: &["--model", "/nonexistent/emx-no-such-model.txt"],
        expect: 1,
        why: "missing model file is an input error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-dse"),
        args: &["--merge", "/nonexistent/emx-no-such-shard.json"],
        expect: 1,
        why: "missing shard report file is an input error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-validate"),
        args: &["--check", "/nonexistent/emx-no-such-golden.json"],
        expect: 1,
        why: "missing golden report is an input error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-characterize"),
        args: &["/nonexistent-dir/model.txt"],
        expect: 1,
        why: "unwritable model output path is an input error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-serve"),
        args: &["--model", "/nonexistent/emx-no-such-model.txt"],
        expect: 1,
        why: "missing model file is an input error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-dse"),
        args: &["--candidates", "/nonexistent/emx-no-such-discover.json"],
        expect: 1,
        why: "missing discover report file is an input error",
    },
    Case {
        bin: env!("CARGO_BIN_EXE_emx-discover"),
        args: &[
            "--workload",
            "rs1",
            "--json",
            "/nonexistent-dir/discover.json",
        ],
        expect: 1,
        why: "unwritable report output path is an input error",
    },
    // Port 9 (discard) is unassigned on loopback in CI containers: the
    // very first request fails to connect, which emx-load reports as an
    // input error (bad address) rather than a measured service error.
    Case {
        bin: env!("CARGO_BIN_EXE_emx-load"),
        args: &["--addr", "127.0.0.1:9", "--duration-ms", "100"],
        expect: 1,
        why: "unreachable server is an input error",
    },
];

#[test]
fn every_cli_honors_the_shared_exit_code_contract() {
    for case in CASES {
        let out = Command::new(case.bin)
            .args(case.args)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {}: {e}", case.bin));
        let code = out.status.code().expect("process not killed by signal");
        assert_eq!(
            code,
            case.expect,
            "{} {:?}: {} (expected {}, got {})\nstderr: {}",
            case.bin,
            case.args,
            case.why,
            case.expect,
            code,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// `--help` and an unknown flag are usage errors on every CLI: each one
/// reads its command line through the shared `emx_core::cli` layer.
#[test]
fn help_and_unknown_flags_exit_two_on_every_cli() {
    for bin in [
        env!("CARGO_BIN_EXE_emx-run"),
        env!("CARGO_BIN_EXE_emx-characterize"),
        env!("CARGO_BIN_EXE_emx-dse"),
        env!("CARGO_BIN_EXE_emx-discover"),
        env!("CARGO_BIN_EXE_emx-validate"),
        env!("CARGO_BIN_EXE_emx-serve"),
        env!("CARGO_BIN_EXE_emx-load"),
    ] {
        for arg in ["--help", "--no-such-flag"] {
            let out = Command::new(bin).arg(arg).output().expect("spawns");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {arg}: {stderr}");
            assert!(stderr.contains("usage: emx-"), "{bin} {arg}: {stderr}");
        }
    }
}

/// A minimal but complete `emx.dse-shard-report/1` document: empty rows,
/// empty cache delta — enough to parse, so the *merge* check under test
/// is the one that fires.
fn minimal_shard_report(index: u32, count: u32, fingerprint: &str) -> String {
    format!(
        concat!(
            "{{\"schema\":\"emx.dse-shard-report/1\",",
            "\"shard\":{{\"index\":{index},\"count\":{count}}},",
            "\"partition_fingerprint\":\"{fp}\",",
            "\"workload\":\"reed-solomon\",\"budget\":null,\"options\":[],",
            "\"enumerated\":0,\"over_budget\":0,\"pruned\":0,\"survivors\":0,",
            "\"evaluated\":0,\"reused\":0,\"candidates\":[],\"failed_candidates\":[],",
            "\"cache_delta\":{{\"schema\":\"emx.dse-cache/2\",\"entries\":{{}}}}}}"
        ),
        index = index,
        count = count,
        fp = fingerprint,
    )
}

/// Merging artifacts whose partition fingerprints conflict is an *input*
/// failure (exit 1), not a usage error: the command line was fine, the
/// files do not belong together.
#[test]
fn merging_conflicting_partitions_exits_one() {
    let dir = std::env::temp_dir();
    let a = dir.join(format!("emx-exit-shard-a-{}.json", std::process::id()));
    let b = dir.join(format!("emx-exit-shard-b-{}.json", std::process::id()));
    std::fs::write(&a, minimal_shard_report(1, 2, "00000000000000aa")).expect("write a");
    std::fs::write(&b, minimal_shard_report(2, 2, "00000000000000bb")).expect("write b");

    let out = Command::new(env!("CARGO_BIN_EXE_emx-dse"))
        .args(["--merge", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("spawns");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);

    assert_eq!(
        out.status.code(),
        Some(1),
        "fingerprint conflict must exit 1\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fingerprint"),
        "stderr must name the conflict: {stderr}"
    );
}

/// A discover report that exists but does not carry the expected schema
/// is an *input* failure (exit 1): the flag was used correctly, the file
/// is not an `emx.discover-report/1` artifact.
#[test]
fn malformed_discover_report_exits_one() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("emx-exit-discover-{}.json", std::process::id()));
    std::fs::write(&path, "{\"schema\":\"not-a-discover-report\"}").expect("write report");

    let out = Command::new(env!("CARGO_BIN_EXE_emx-dse"))
        .args(["--candidates", path.to_str().unwrap()])
        .output()
        .expect("spawns");
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        out.status.code(),
        Some(1),
        "wrong schema must exit 1\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A discover report whose site names a register outside the register
/// file is an input failure (exit 1) caught when the report is read, not
/// a panic (exit 101) when the bridge rewrites the workload.
#[test]
fn discover_report_with_an_out_of_range_register_exits_one() {
    let rs1 = emx::workloads::registry::by_name("rs1").expect("rs1 registered");
    let report = emx::discover::discover(&rs1, &emx::discover::DiscoverConfig::default())
        .expect("discovery succeeds");
    let text = report.to_json().to_string();
    let start = text.find("\"rs\": ").expect("a site") + "\"rs\": ".len();
    let end = start + text[start..].find(',').expect("rs value ends");
    let path = std::env::temp_dir().join(format!("emx-exit-register-{}.json", std::process::id()));
    std::fs::write(&path, format!("{}300{}", &text[..start], &text[end..])).expect("write report");

    let model = concat!(env!("CARGO_MANIFEST_DIR"), "/model.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_emx-dse"))
        .args(["--candidates", path.to_str().unwrap(), "--top", "1"])
        .args(["--model", model, "--json", "/dev/null"])
        .output()
        .expect("spawns");
    let _ = std::fs::remove_file(&path);

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("$.candidates[0].sites[0].rs"),
        "stderr must name the field: {stderr}"
    );
}

/// Fast-failure guarantee: input errors that are checkable up front
/// (missing golden, missing model) must exit before any simulation runs,
/// so CI failures are cheap. A generous wall-clock bound catches a
/// regression to fail-late without being flaky.
#[test]
fn checkable_input_errors_fail_fast() {
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_emx-validate"),
            &["--check", "/nonexistent/g.json"][..],
        ),
        (
            env!("CARGO_BIN_EXE_emx-dse"),
            &["--model", "/nonexistent/m.txt"][..],
        ),
        (
            env!("CARGO_BIN_EXE_emx-serve"),
            &["--model", "/nonexistent/m.txt"][..],
        ),
    ] {
        let started = std::time::Instant::now();
        let out = Command::new(bin).args(args).output().expect("spawns");
        assert_eq!(out.status.code(), Some(1));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "{bin} {args:?} took {:?}; it must fail before simulating",
            started.elapsed()
        );
    }
}
