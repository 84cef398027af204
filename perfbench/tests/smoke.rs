//! `perfbench run --smoke`: every workload at its tiny size, untraced
//! and traced, end to end through the binary.

use perfbench::schema::ResultSet;
use perfbench::spec::Spec;
use std::process::Command;
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_perfbench");

#[test]
fn smoke_run_measures_every_workload_in_both_modes() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let started = Instant::now();
    let status = Command::new(EXE)
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        .status()
        .expect("perfbench runs");
    let elapsed = started.elapsed();
    assert!(status.success(), "smoke run failed: {status}");
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < Duration::from_secs(10),
            "smoke run took {elapsed:?}"
        );
    }

    let set = ResultSet::from_json(&std::fs::read_to_string(&out).expect("results written"))
        .expect("results parse");
    let spec = Spec::load();
    assert_eq!(set.runs.len(), 2 * spec.workloads.len());
    for run in &set.runs {
        assert!(
            run.correct,
            "{} failed {} of {}",
            run.workload, run.failed, run.attempted
        );
        let names: Vec<&str> = run.metrics.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = spec
            .metrics(run.traced)
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, declared, "{} traced={}", run.workload, run.traced);
        assert!(!run.counts.is_empty());
    }
}

#[test]
fn workload_mode_ends_with_the_summary_line() {
    let out = Command::new(EXE)
        .args("--workload bug_hunt --seed 7 --seconds 0 --trace 0 --smoke".split(' '))
        .output()
        .expect("perfbench runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("output");
    let v: serde::Value = serde_json::from_str(last).expect("last line is JSON");
    assert_eq!(v.field("correct").ok(), Some(&serde::Value::Bool(true)));
    let metrics = v.field("metrics").expect("metrics");
    for m in &Spec::load().end_to_end {
        let entry = metrics.field(&m.name).expect("every end-to-end metric");
        assert_eq!(
            entry.field("unit").ok(),
            Some(&serde::Value::Str(m.unit.clone()))
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_summary() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload bug_hunt --seed 1 --seconds -1 --trace 0",
        "--workload bug_hunt --seed x --seconds 1 --trace 0",
        "--workload bug_hunt --seed 1 --seconds 1 --trace 2",
        "--workload bug_hunt --seed 1 --seconds 1",
        "compare only-one.json",
    ] {
        let out = Command::new(EXE)
            .args(args.split(' '))
            .output()
            .expect("perfbench runs");
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(out.stdout.is_empty(), "{args}");
    }
}
