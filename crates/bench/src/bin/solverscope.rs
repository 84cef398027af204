//! Generates the solver-introspection report: runs introspected
//! SymbFuzz campaigns on the solver-hostile factoring lock and the
//! processor control, writes the joined report JSON and a
//! self-contained HTML page under `results/`, and prints the Markdown
//! summary. All artifacts are byte-identical at any `--jobs` count.
//!
//! Usage:
//!
//! * `solverscope [max_vectors] [solver_budget] [--jobs N]
//!   [--log-level LEVEL] [--trace-out PATH] [--sample-every N]
//!   [--flight-out PATH] [--status-out PATH]` — generate
//!   `results/solverscope.json` and `results/solverscope.html`.
//! * `solverscope --check FILE...` — validate existing artifacts (scope
//!   reports, `results/BENCH_*.json` or any other `results/` file)
//!   through [`symbfuzz_bench::schema::check_file`]; exits non-zero
//!   when one fails.

use std::process::ExitCode;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::save_json;
use symbfuzz_bench::schema::check_files;
use symbfuzz_bench::solverscope::{build_scope_report, render_scope_html, render_scope_markdown};
use symbfuzz_telemetry::info;

fn main() -> ExitCode {
    let mut args = parse_bench_args(&["--check"]);
    if args.take_switch("--check") {
        return check_files("solverscope", &args.rest);
    }
    let max_vectors = args.vectors(0, 1_000);
    let solver_budget = args.solver_budget(1, 500);
    let report = build_scope_report(
        &args.config,
        &args.outputs,
        max_vectors,
        solver_budget,
        args.jobs,
    );
    save_json("solverscope", &report).expect("write results/solverscope.json");
    std::fs::write("results/solverscope.html", render_scope_html(&report))
        .expect("write results/solverscope.html");
    println!("{}", render_scope_markdown(&report));
    info!("wrote results/solverscope.json and results/solverscope.html");
    args.outputs
        .finish()
        .expect("write the flight artifacts and the trace");
    ExitCode::SUCCESS
}
