//! Renders a `--trace-out` JSONL campaign trace: validates every
//! record against the telemetry schema, then prints a per-phase time
//! table, the per-campaign summary table from the `Summary` record
//! every campaign ends with (compiled-settle fast-path hit rate and
//! frame-cache hit rate), the per-goal solver cost table with
//! p50/p90/p99 per-call conflict quantiles (when the trace has
//! `GoalSolveCost` records from an introspected campaign) and the
//! coverage/stagnation/bug timeline.
//!
//! Usage: `tracedump <trace.jsonl> [--json]` or
//! `tracedump --check FILE...`
//!
//! With `--json` the validated records are re-emitted as canonical
//! JSONL: a trace the campaign wrote comes back byte for byte. With
//! `--check` each file, trace or any other `results/` artifact, is
//! only validated ([`symbfuzz_bench::schema::check_file`]). A schema or
//! syntax violation exits non-zero in every mode; a bad command line,
//! including any of the campaign binaries' shared flags, exits 2.

use std::path::Path;
use std::process::ExitCode;
use symbfuzz_bench::schema::{check_files, parse_trace, read_checked};
use symbfuzz_bench::trace::{goal_cost_table, phase_table, summary_table, timeline};
use symbfuzz_bench::{exit_usage, parse_viewer_args, ArgError};

fn main() -> ExitCode {
    let mut args = parse_viewer_args(&["--check", "--json"]);
    if args.take_switch("--check") {
        return check_files("tracedump", &args.rest);
    }
    let json_mode = args.take_switch("--json");
    let Some(path) = args.rest.first() else {
        exit_usage(&ArgError::Missing("the trace file".into()));
    };
    let records = match read_checked(Path::new(path), parse_trace) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("tracedump: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json_mode {
        for r in &records {
            println!("{}", r.to_json());
        }
        return ExitCode::SUCCESS;
    }
    let tasks = records.iter().map(|r| r.task).max().map_or(0, |m| m + 1);
    println!(
        "# Trace `{path}` — {} records from {tasks} task(s)\n",
        records.len()
    );
    println!("## Phase breakdown\n");
    println!("{}", phase_table(&records));
    let summary = summary_table(&records);
    if !summary.is_empty() {
        println!("## Campaign summaries\n");
        println!("{summary}");
    }
    let costs = goal_cost_table(&records);
    if !costs.is_empty() {
        println!("## Per-goal solver cost\n");
        println!("{costs}");
    }
    println!("## Timeline\n");
    print!("{}", timeline(&records));
    ExitCode::SUCCESS
}
