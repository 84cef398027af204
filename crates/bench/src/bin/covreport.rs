//! Generates the coverage-provenance report: runs all five strategies
//! on one processor benchmark, writes each campaign's covmap artifact,
//! the joined report JSON and a self-contained HTML page under
//! `results/`, and prints the Markdown summary. All artifacts are
//! byte-identical at any `--jobs` count.
//!
//! Usage:
//!
//! * `covreport [budget] [bench_index] [--jobs N] [--trace PATH]
//!   [--log-level LEVEL] [--trace-out PATH]` — generate. `--trace`
//!   joins an existing JSONL campaign trace (schema-checked) into the
//!   report's cross-check section; `--trace-out` records this run.
//! * `covreport --check FILE...` — validate existing report / covmap
//!   JSON artifacts against their schemas; exits non-zero on the first
//!   violation.

use std::process::ExitCode;
use symbfuzz_bench::covreport::{
    build_report, render_html, render_markdown, trace_mechanism_counts, validate_covmap,
    validate_report,
};
use symbfuzz_bench::experiments::resource_profile;
use symbfuzz_bench::render::save_json;
use symbfuzz_bench::trace::parse_trace;
use symbfuzz_bench::{exit_usage, flush_trace, parse_bench_args};
use symbfuzz_designs::processor_benchmarks;
use symbfuzz_telemetry::info;

fn check_files(paths: &[String]) -> ExitCode {
    let mut ok = true;
    for p in paths {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("covreport: cannot read {p}: {e}");
                ok = false;
                continue;
            }
        };
        // Reports carry a `strategies` list; covmaps a `fuzzer` stamp.
        let res = if text.contains("\"strategies\"") {
            validate_report(&text).map(|_| "report")
        } else {
            validate_covmap(&text).map(|_| "covmap")
        };
        match res {
            Ok(kind) => println!("{p}: {kind} schema OK"),
            Err(e) => {
                eprintln!("covreport: {p}: {e}");
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
    let mut args = parse_bench_args(&["--check", "--trace"]);
    let check = args.take_switch("--check");
    let trace_path = args
        .take_value("--trace")
        .unwrap_or_else(|e| exit_usage(&e));
    if check {
        return check_files(&args.rest);
    }
    let budget = args.vectors(0, 5_000);
    let bench = args.bench_index(1, 0);
    let name = processor_benchmarks()[bench].name;
    let results = resource_profile(&args.config, bench, budget, args.jobs);
    let mut report = build_report(name, budget, &results);
    if let Some(path) = trace_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("covreport: cannot read trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match parse_trace(&text) {
            Ok(records) => report.trace = trace_mechanism_counts(&records),
            Err(e) => {
                eprintln!("covreport: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (strategy, r) in &results {
        let slug: String = strategy
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        save_json(&format!("covmap_{name}_{slug}"), &r.covmap).expect("write covmap JSON");
    }
    save_json(&format!("covreport_{name}"), &report).expect("write report JSON");
    std::fs::write(
        format!("results/covreport_{name}.html"),
        render_html(&report),
    )
    .expect("write report HTML");
    println!("{}", render_markdown(&report));
    info!(
        "wrote results/covreport_{name}.json, results/covreport_{name}.html and {} covmaps",
        results.len()
    );
    flush_trace();
    ExitCode::SUCCESS
}
