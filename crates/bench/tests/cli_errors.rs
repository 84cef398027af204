//! Bad bench command lines exit with status 2 and a typed message
//! before any campaign runs, the checkers' `--check` reads any artifact,
//! `monitor --check` checks each file in its role, and
//! old traces still pass `tracedump --check`.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn assert_usage_error(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(message), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "ran anyway: {:?}", out.stdout);
}

#[test]
fn inconsistent_campaign_knobs_exit_2() {
    let resources = env!("CARGO_BIN_EXE_resources");
    assert_usage_error(
        &run(resources, &["2000", "--snapshot-budget", "10"]),
        "snapshot_mem_budget must be at least 1024 bytes",
    );
    assert_usage_error(
        &run(resources, &["2000", "--solver-budget", "0"]),
        "solver budget must be nonzero",
    );
    assert_usage_error(
        &run(env!("CARGO_BIN_EXE_table2"), &["0"]),
        "max_vectors must be at least 1",
    );
}

#[test]
fn unknown_and_malformed_flags_exit_2() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    assert_usage_error(
        &run(table1, &["--portfolio", "2", "2000"]),
        "unknown flag `--portfolio`",
    );
    assert_usage_error(
        &run(table1, &["2000", "--solver-budget", "lots"]),
        "bad value `lots` for --solver-budget",
    );
    assert_usage_error(
        &run(table1, &["--settle-mode", "compiled"]),
        "unknown flag `--settle-mode`",
    );
}

#[test]
fn bad_positional_arguments_exit_2() {
    let index = "for the benchmark index (0 to 3)";
    for (bin, args, message) in [
        (env!("CARGO_BIN_EXE_resources"), &["200", "9"][..], "`9`"),
        (env!("CARGO_BIN_EXE_fig4a"), &["200", "7"], "`7`"),
        (env!("CARGO_BIN_EXE_fig4a"), &["100", "x"], "`x`"),
        (env!("CARGO_BIN_EXE_fig4b"), &["100", "3", "4"], "`4`"),
        (env!("CARGO_BIN_EXE_speedup"), &["200", "9"], "`9`"),
        (env!("CARGO_BIN_EXE_covreport"), &["200", "9"], "`9`"),
        (env!("CARGO_BIN_EXE_ablation"), &["200", "9"], "`9`"),
    ] {
        assert_usage_error(&run(bin, args), &format!("bad value {message} {index}"));
    }
    assert_usage_error(
        &run(env!("CARGO_BIN_EXE_fig4b"), &["100", "often"]),
        "bad value `often` for the run count",
    );
    for bin in [
        env!("CARGO_BIN_EXE_solverscope"),
        env!("CARGO_BIN_EXE_budgetbench"),
    ] {
        assert_usage_error(&run(bin, &["50", "0"]), "solver budget must be nonzero");
    }
    assert_usage_error(
        &run(env!("CARGO_BIN_EXE_budgetbench"), &["50", "lots"]),
        "bad value `lots` for the solver budget",
    );
}

#[test]
fn malformed_jobs_exit_2() {
    let solverscope = env!("CARGO_BIN_EXE_solverscope");
    let report = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/solverscope.json"
    );
    assert_usage_error(
        &run(solverscope, &["--check", "--jobs", "lots", report]),
        "bad value `lots` for --jobs",
    );
    assert_usage_error(
        &run(solverscope, &["--check", "-jfoo", report]),
        "bad value `foo` for -j",
    );
    assert_usage_error(
        &run(solverscope, &["--check", report, "-j"]),
        "`-j` needs a value",
    );
}

fn results(name: &str) -> String {
    format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn checkers_without_files_or_with_bad_flags_exit_2() {
    let dir = std::env::temp_dir().join(format!("symbfuzz-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    std::fs::write(&trace, "{\"t\":0,\"task\":0,\"kind\":\"FullReset\"}\n").unwrap();
    let trace = trace.to_str().unwrap();
    let missing = "missing a file after `--check`";
    for (bin, args, message) in [
        (env!("CARGO_BIN_EXE_covreport"), &["--check"][..], missing),
        (env!("CARGO_BIN_EXE_solverscope"), &["--check"], missing),
        (env!("CARGO_BIN_EXE_tracedump"), &["--check"], missing),
        (
            env!("CARGO_BIN_EXE_tracedump"),
            &[trace, "--chek"],
            "unknown flag `--chek`",
        ),
        (
            env!("CARGO_BIN_EXE_monitor"),
            &["--bogus"],
            "unknown flag `--bogus`",
        ),
        (
            env!("CARGO_BIN_EXE_monitor"),
            &["--top", "lots"],
            "bad value `lots` for --top",
        ),
        // The viewers run no campaign: the campaign binaries' shared
        // flags are unknown to them.
        (
            env!("CARGO_BIN_EXE_monitor"),
            &["--once", "--jobs", "2"],
            "unknown flag `--jobs`",
        ),
        (
            env!("CARGO_BIN_EXE_tracedump"),
            &[trace, "--solver-budget", "5"],
            "unknown flag `--solver-budget`",
        ),
    ] {
        assert_usage_error(&run(bin, args), message);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracedump_trace_out_leaves_the_trace_alone() {
    let dir = std::env::temp_dir().join(format!("symbfuzz-cli-trace-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let line = "{\"t\":0,\"task\":0,\"kind\":\"FullReset\"}\n";
    std::fs::write(&path, line).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_tracedump"),
        &["--trace-out", path.to_str().unwrap()],
    );
    let kept = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_usage_error(&out, "unknown flag `--trace-out`");
    assert_eq!(kept, line);
}

#[test]
fn retired_check_bench_flag_exits_2() {
    let results_dir = results("");
    assert_usage_error(
        &run(
            env!("CARGO_BIN_EXE_solverscope"),
            &["--check-bench", &results_dir],
        ),
        "unknown flag `--check-bench`",
    );
}

#[test]
fn every_check_reads_any_artifact() {
    for (bin, file) in [
        (env!("CARGO_BIN_EXE_solverscope"), "BENCH_budget.json"),
        (env!("CARGO_BIN_EXE_covreport"), "status.json"),
        (env!("CARGO_BIN_EXE_tracedump"), "flight.jsonl"),
    ] {
        let out = run(bin, &["--check", &results(file)]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{bin} {file}: {stdout}");
        assert!(stdout.ends_with("schema OK\n"), "{stdout}");
    }
    let out = run(
        env!("CARGO_BIN_EXE_monitor"),
        &[
            "--check",
            "--status",
            &results("status.json"),
            "--flight",
            &results("flight.jsonl"),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("samples, schema OK"), "{stdout}");
    // `monitor` checks each file in its role: swapped paths fail.
    let out = run(
        env!("CARGO_BIN_EXE_monitor"),
        &[
            "--check",
            "--status",
            &results("flight.jsonl"),
            "--flight",
            &results("status.json"),
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("flight.jsonl"), "{stderr}");
}
