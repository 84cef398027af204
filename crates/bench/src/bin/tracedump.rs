//! Renders a `--trace-out` JSONL campaign trace: validates every
//! record against the telemetry schema, then prints a per-phase time
//! table, the compiled-settle fast-path hit rate (when the trace has
//! `Metrics` records), the per-goal solver cost table with p50/p90/p99
//! per-call conflict quantiles (when the trace has `GoalSolveCost`
//! records from an introspected campaign), the bitblast-cache hit
//! rate (when the trace has `SolverCache` records from an incremental
//! campaign) and the
//! coverage/stagnation/bug timeline.
//!
//! Usage: `tracedump <trace.jsonl> [--check] [--json]`
//!
//! With `--check` the trace is only validated (no rendering); with
//! `--json` the validated records are re-emitted as canonical JSONL
//! (machine-readable, schema-identical to the input). A schema or
//! syntax violation exits non-zero in every mode.

use std::process::ExitCode;
use symbfuzz_bench::trace::{
    goal_cost_table, parse_trace, phase_table, settle_mix_table, solver_cache_table, timeline,
    to_json_lines,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_only = args.iter().any(|a| a == "--check");
    let json_mode = args.iter().any(|a| a == "--json");
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: tracedump <trace.jsonl> [--check] [--json]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracedump: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let records = match parse_trace(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tracedump: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if records.is_empty() {
        // An empty (or whitespace-only) trace is evidence of a broken
        // producer — a campaign that wrote nothing, or a truncated
        // copy — never a healthy run, so `--check` must not bless it.
        eprintln!("tracedump: {path}: no records (empty or truncated trace)");
        return ExitCode::FAILURE;
    }
    if check_only {
        println!("{path}: {} records, schema OK", records.len());
        return ExitCode::SUCCESS;
    }
    if json_mode {
        print!("{}", to_json_lines(&records));
        return ExitCode::SUCCESS;
    }
    let tasks = records.iter().map(|r| r.task).max().map_or(0, |m| m + 1);
    println!(
        "# Trace `{path}` — {} records from {tasks} task(s)\n",
        records.len()
    );
    println!("## Phase breakdown\n");
    println!("{}", phase_table(&records));
    let mix = settle_mix_table(&records);
    if !mix.is_empty() {
        println!("## Compiled-settle fast path\n");
        println!("{mix}");
    }
    let costs = goal_cost_table(&records);
    if !costs.is_empty() {
        println!("## Per-goal solver cost\n");
        println!("{costs}");
    }
    let cache = solver_cache_table(&records);
    if !cache.is_empty() {
        println!("## Solver cache\n");
        println!("{cache}");
    }
    println!("## Timeline\n");
    print!("{}", timeline(&records));
    ExitCode::SUCCESS
}
