//! Generates the solver-introspection report: runs introspected
//! SymbFuzz campaigns on the solver-hostile factoring lock and the
//! processor control, writes the joined report JSON and a
//! self-contained HTML page under `results/`, and prints the Markdown
//! summary. All artifacts are byte-identical at any `--jobs` count.
//!
//! Usage:
//!
//! * `solverscope [max_vectors] [solver_budget] [--jobs N]
//!   [--log-level LEVEL]` — generate `results/solverscope.json` and
//!   `results/solverscope.html`.
//! * `solverscope --check FILE...` — validate existing scope-report
//!   JSON artifacts against the schema; exits non-zero on the first
//!   violation.
//! * `solverscope --check-bench DIR` — schema-check every
//!   `BENCH_*.json` under `DIR` (throughput rows, finite ratios);
//!   exits non-zero on the first violation.

use std::process::ExitCode;
use symbfuzz_bench::render::save_json;
use symbfuzz_bench::solverscope::{
    build_scope_report, render_scope_html, render_scope_markdown, validate_bench_artifact,
    validate_scope_report,
};
use symbfuzz_bench::{exit_usage, flush_trace, parse_bench_args};
use symbfuzz_telemetry::info;

fn check_files(paths: &[String]) -> ExitCode {
    let mut ok = true;
    for p in paths {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("solverscope: cannot read {p}: {e}");
                ok = false;
                continue;
            }
        };
        match validate_scope_report(&text) {
            Ok(r) => println!("{p}: scope report schema OK ({} designs)", r.designs.len()),
            Err(e) => {
                eprintln!("solverscope: {p}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check_bench_dir(dir: &str) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("solverscope: cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        eprintln!("solverscope: no BENCH_*.json under {dir}");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for name in &names {
        let path = format!("{dir}/{name}");
        let stem = name.trim_end_matches(".json");
        let res = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| validate_bench_artifact(stem, &text));
        match res {
            Ok(()) => println!("{path}: schema OK"),
            Err(e) => {
                eprintln!("solverscope: {path}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = parse_bench_args(&["--check", "--check-bench"]);
    let check = args.take_switch("--check");
    let check_bench = args
        .take_value("--check-bench")
        .unwrap_or_else(|e| exit_usage(&e));
    if let Some(dir) = check_bench {
        return check_bench_dir(&dir);
    }
    if check {
        return check_files(&args.rest);
    }
    let max_vectors = args.vectors(0, 1_000);
    let solver_budget = args.solver_budget(1, 500);
    let report = build_scope_report(&args.config, max_vectors, solver_budget, args.jobs);
    save_json("solverscope", &report).expect("write results/solverscope.json");
    std::fs::write("results/solverscope.html", render_scope_html(&report))
        .expect("write results/solverscope.html");
    println!("{}", render_scope_markdown(&report));
    info!("wrote results/solverscope.json and results/solverscope.html");
    flush_trace();
    ExitCode::SUCCESS
}
