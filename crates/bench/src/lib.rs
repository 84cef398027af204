//! Experiment harness: regenerates every table and figure of the
//! SymbFuzz paper's evaluation (§5).
//!
//! Each experiment is a pure function returning a structured result
//! plus a Markdown rendering; the `src/bin/*` binaries print the
//! Markdown and drop a JSON copy under `results/`. The per-experiment
//! index lives in the repository's `DESIGN.md`; paper-vs-measured
//! numbers are recorded in `EXPERIMENTS.md`.
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1` | Table 1 — bugs detected by SymbFuzz with vectors-to-detection |
//! | `table2` | Table 2 — detection matrix across the four fuzzers |
//! | `table3` | Table 3 — benchmark statistics (LoC, CFG, equations, constraints) |
//! | `fig4a` | Figure 4a — coverage vs input vectors, five strategies |
//! | `fig4b` | Figure 4b — coverage variance across repeated runs |
//! | `speedup` | §5.3 — time-to-coverage speed-up vs UVM random |
//! | `resources` | §5.2 — relative memory/CPU profile + merged telemetry |
//! | `ablation` | §5.5.1 — mechanism ablation (checkpoints, solver depth, solver) |
//! | `budgetbench` | coverage vs per-solve conflict budget on the factoring lock |
//! | `tracedump` | renders / re-emits (`--json`, byte for byte) a `--trace-out` JSONL campaign trace |
//! | `covreport` | coverage-provenance report: covmaps + joined JSON + self-contained HTML |
//! | `monitor` | live dashboard / Prometheus export over `status.json` + `flight.jsonl` |
//! | `solverscope` | solver introspection: CDCL cost ranking, exhaustion blame sets, restart timelines |
//!
//! Every `results/` artifact is read and checked in one place,
//! [`schema`]: one `serde_json` reader, every checker and every
//! back-compat rule for old files. `tracedump --check`,
//! `covreport --check` and `solverscope --check` take any artifact
//! (traces, flight streams, heartbeats, reports, covmaps,
//! `BENCH_*.json`) through [`schema::check_file`]; `monitor --check`
//! runs the heartbeat and flight checkers on its `--status`/`--flight`
//! pair.
//!
//! Every binary but the read-only viewers `tracedump` and `monitor`
//! accepts a `--jobs N` (or `-j N`) flag that fans independent
//! campaigns across a scoped-thread pool; reports are
//! byte-identical for any job count (Table 3's wall-clock `latency_s`
//! excepted), so parallelism is purely a wall-clock optimisation.
//! They also accept `--log-level LEVEL` (stderr verbosity),
//! `--trace-out PATH` (stream a wall-clock JSONL campaign trace, see
//! [`trace`]), `--solver-budget N` (per-solve conflict ceiling with
//! graceful degradation to random mutation), `--solve-wall-ms N`
//! (per-solve wall-clock ceiling; non-deterministic), the flight
//! recorder's `--sample-every N` / `--flight-out PATH` /
//! `--status-out PATH` (see [`monitor`]), `--snapshot-budget BYTES`
//! and `--introspect`; all are handled by
//! [`args::parse_bench_args`], which folds the campaign knobs into one
//! validated [`FuzzConfigBuilder`](symbfuzz_core::FuzzConfigBuilder)
//! and exits with status 2 on a bad command line. Positional arguments
//! (budgets, benchmark indexes) are checked the same way through the
//! [`BenchArgs`] accessors before any campaign starts.
//!
//! Every campaign of every experiment runs through one runner,
//! [`run_campaign`], with the run's [`Outputs`]: the opened
//! `--trace-out` writer and the `--flight-out` / `--status-out` paths,
//! carried on [`BenchArgs::outputs`]. Each campaign closes its trace
//! with one `Summary` record, and once the pool has drained every
//! campaign binary calls [`Outputs::finish`], which writes the merged
//! `flight.jsonl` and `status.json` in task order, byte-identical at
//! any `--jobs`. The crate keeps no process-global state.
//!
//! Apart from Table 3's latency column and the flight-recorder and
//! introspection on-vs-off A/B in `resources`, this crate times
//! nothing: performance is measured by the repository's `perfbench/`
//! package, with repeated runs, spreads and per-layer costs.
//!
//! # Examples
//!
//! ```
//! use symbfuzz_bench::experiments::{self, Outputs};
//! use symbfuzz_core::FuzzConfig;
//! // A miniature Table 2 on the first two bugs only (fast), 2 workers,
//! // writing no trace or flight artifacts.
//! let m = experiments::detection_matrix(&FuzzConfig::builder(), &Outputs::default(), 2, 4_000, 2);
//! assert_eq!(m.rows.len(), 2);
//! assert!(m.rows.iter().all(|r| r.symbfuzz));
//! ```

pub mod args;
pub mod covreport;
pub mod experiments;
pub mod monitor;
pub mod pool;
pub mod render;
pub mod schema;
pub mod solverscope;
pub mod trace;

pub use args::{
    exit_usage, parse_bench_args, parse_viewer_args, split_bench_args, ArgError, BenchArgs,
};
pub use covreport::{
    build_report, render_html, render_markdown, trace_mechanism_counts, BugReport, ChainLink,
    CovReport, MechanismCount, StrategyReport, COVREPORT_VERSION,
};
pub use experiments::{
    ablation, budget_profile, coverage_race, detection_matrix, run_campaign, solverscope_profile,
    table1_rows, table3_rows, variance_profile, BudgetProfileRow, DetectionRow, Outputs,
    RaceResult, ScopeProfileResult, Table1Row, Table3Row, VariancePoint,
};
pub use monitor::{parse_prometheus, render_dashboard, render_prometheus};
pub use pool::{default_jobs, run_pool};
pub use solverscope::{
    build_scope_report, conflict_quantiles, render_scope_html, render_scope_markdown, ScopeReport,
    SCOPEREPORT_VERSION,
};
pub use trace::{goal_cost_table, phase_table, summary_table, timeline};
