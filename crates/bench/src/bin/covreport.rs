//! Generates the coverage-provenance report: runs all five strategies
//! on one processor benchmark, writes each campaign's covmap artifact,
//! the joined report JSON and a self-contained HTML page under
//! `results/`, and prints the Markdown summary. All artifacts are
//! byte-identical at any `--jobs` count.
//!
//! Usage:
//!
//! * `covreport [budget] [bench_index] [--jobs N] [--trace PATH]
//!   [--log-level LEVEL] [--trace-out PATH] [--sample-every N]
//!   [--flight-out PATH] [--status-out PATH]` — generate. `--trace`
//!   joins an existing JSONL campaign trace (schema-checked) into the
//!   report's cross-check section; `--trace-out` records this run.
//! * `covreport --check FILE...` — validate existing artifacts (report,
//!   covmap or any other `results/` file) through
//!   [`symbfuzz_bench::schema::check_file`]; exits non-zero when one
//!   fails.

use std::path::Path;
use std::process::ExitCode;
use symbfuzz_bench::covreport::{
    build_report, render_html, render_markdown, trace_mechanism_counts,
};
use symbfuzz_bench::experiments::resource_profile;
use symbfuzz_bench::render::save_json;
use symbfuzz_bench::schema::{check_files, parse_trace, read_checked};
use symbfuzz_bench::{exit_usage, parse_bench_args};
use symbfuzz_designs::processor_benchmarks;
use symbfuzz_telemetry::info;

fn main() -> ExitCode {
    let mut args = parse_bench_args(&["--check", "--trace"]);
    let check = args.take_switch("--check");
    let trace_path = args
        .take_value("--trace")
        .unwrap_or_else(|e| exit_usage(&e));
    if check {
        return check_files("covreport", &args.rest);
    }
    let budget = args.vectors(0, 5_000);
    let bench = args.bench_index(1, 0);
    let name = processor_benchmarks()[bench].name;
    let results = resource_profile(&args.config, &args.outputs, bench, budget, args.jobs);
    args.outputs
        .finish()
        .expect("write the flight artifacts and the trace");
    let mut report = build_report(name, budget, &results);
    if let Some(path) = trace_path {
        match read_checked(Path::new(&path), parse_trace) {
            Ok(records) => report.trace = trace_mechanism_counts(&records),
            Err(e) => {
                eprintln!("covreport: {e}");
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
    ExitCode::SUCCESS
}
