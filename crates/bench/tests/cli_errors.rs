//! Bad bench command lines exit with status 2 and a typed message
//! before any campaign runs, and old traces still pass
//! `tracedump --check`.

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

#[test]
fn tracedump_checks_pre_change_solver_cache_lines() {
    let dir = std::env::temp_dir().join(format!("symbfuzz-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("old_trace.jsonl");
    std::fs::write(
        &path,
        "{\"t\":1,\"task\":0,\"kind\":\"SolverCache\",\"bitblast_cache_hits\":30,\
         \"bitblast_cache_misses\":10,\"session_reuse_milli\":800,\"portfolio_races\":5,\
         \"portfolio_wins\":[3,2]}\n",
    )
    .unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_tracedump"),
        &[path.to_str().unwrap(), "--check"],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
