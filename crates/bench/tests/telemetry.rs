//! Cross-layer telemetry acceptance tests: merge determinism across
//! job counts, JSONL schema round-trips, and phase-time accounting
//! under a wall clock.

use std::sync::Arc;
use std::time::Instant;
use symbfuzz_bench::experiments::{resource_profile, Outputs};
use symbfuzz_bench::schema::parse_line;
use symbfuzz_bench::trace::phase_table;
use symbfuzz_core::{CampaignResult, FuzzConfig, PropertySpec, Strategy, SymbFuzz, TelemetryBlock};
use symbfuzz_netlist::elaborate_src;
use symbfuzz_telemetry::{BufferSink, Collector, Phase, SolveStatus, PHASE_RECORD};

/// A two-step combination lock: random fuzzing stalls in state 0, so a
/// short campaign exercises stagnation, symbolic episodes, SMT solves,
/// rollbacks and finally the planted bug — every event kind.
const LOCK: &str = "
    module lock(input clk, input rst_n, input [15:0] code,
                output logic [1:0] st, output logic open);
      always_ff @(posedge clk or negedge rst_n) begin
        if (!rst_n) st <= 2'd0;
        else begin
          case (st)
            2'd0: if (code == 16'hBEEF) st <= 2'd1;
            2'd1: if (code == 16'hCAFE) st <= 2'd2; else st <= 2'd0;
            default: st <= 2'd2;
          endcase
        end
      end
      always_comb open = st == 2'd2;
    endmodule";

fn lock_fuzzer(max_vectors: u64) -> SymbFuzz {
    let design = Arc::new(elaborate_src(LOCK, "lock").unwrap());
    let props = vec![PropertySpec::assertion_only("never_open", "open == 1'b0")];
    let config = FuzzConfig {
        interval: 32,
        threshold: 1,
        max_vectors,
        ..FuzzConfig::default()
    };
    SymbFuzz::new(design, Strategy::SymbFuzz, config, &props).unwrap()
}

/// The tentpole acceptance: merged metrics snapshots (and the whole
/// campaign report embedding them) are byte-identical at any `--jobs`.
#[test]
fn merged_telemetry_is_byte_identical_across_job_counts() {
    let serial = resource_profile(&FuzzConfig::builder(), &Outputs::default(), 1, 2_000, 1);
    let wide = resource_profile(&FuzzConfig::builder(), &Outputs::default(), 1, 2_000, 4);
    let merge = |rows: &[(String, CampaignResult)]| {
        let mut merged = TelemetryBlock::default();
        for (_, r) in rows {
            merged.merge(&r.telemetry);
        }
        merged
    };
    let merged_serial = merge(&serial);
    let merged_wide = merge(&wide);
    assert_eq!(
        serde_json::to_string(&merged_serial).unwrap(),
        serde_json::to_string(&merged_wide).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&wide).unwrap()
    );
    // The merged block saw real work from all five strategies.
    let snap = merged_serial.to_snapshot();
    assert_eq!(snap.counter("vectors"), 5 * 2_000);
    assert!(snap.counter("sim_steps") >= snap.counter("vectors"));
}

/// Every JSONL line a traced campaign streams passes the schema
/// parser, and the stream covers at least six event kinds plus phase
/// spans — the PR's "rich trace" acceptance.
#[test]
fn traced_campaign_round_trips_through_schema_parser() {
    let mut fuzzer = lock_fuzzer(20_000);
    let sink = BufferSink::new();
    let handle = sink.handle();
    fuzzer.telemetry().set_sink(Box::new(sink));
    let result = fuzzer.run();
    let lines = handle.lines();
    assert!(lines.len() > 50, "only {} trace lines", lines.len());
    let mut kinds = std::collections::BTreeSet::new();
    for line in &lines {
        let rec = parse_line(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        if rec.kind != PHASE_RECORD.kind {
            kinds.insert(rec.kind.clone());
        }
    }
    assert!(
        kinds.len() >= 6,
        "expected >= 6 distinct event kinds, got {kinds:?}"
    );
    // The report's bug list agrees with what streamed out.
    let streamed_bugs = lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"BugFired\""))
        .count();
    assert_eq!(streamed_bugs, result.bugs.len());
    // And the rendered phase table accounts for every phase span.
    let records: Vec<_> = lines.iter().map(|l| parse_line(l).unwrap()).collect();
    let table = phase_table(&records);
    assert!(table.contains("| mutate |"));
    assert!(table.contains("100.0%"));
}

/// Under a wall clock, nested phase self-times sum to no more than the
/// campaign's elapsed time — and a traced campaign accounts for most
/// of it (the acceptance budget is ≥95%; the test uses a safety margin
/// for noisy CI machines).
#[test]
fn phase_self_times_sum_within_wall_time() {
    let mut fuzzer = lock_fuzzer(20_000);
    let collector = Arc::new(Collector::monotonic());
    fuzzer.install_telemetry(Arc::clone(&collector));
    let start = Instant::now();
    fuzzer.run();
    let wall = start.elapsed().as_micros() as u64;
    let snap = collector.snapshot();
    let accounted = snap.phase_total_micros();
    assert!(
        accounted <= wall,
        "phases sum to {accounted}µs > wall {wall}µs"
    );
    assert!(
        accounted * 10 >= wall * 7,
        "phases cover only {accounted}/{wall}µs (< 70%)"
    );
    for p in Phase::ALL {
        assert!(
            snap.phases
                .iter()
                .any(|s| s.phase == p.name() && s.count > 0),
            "phase {} never closed a span",
            p.name()
        );
    }
}

/// The solve-status vocabulary is the conflict ceiling and the wall
/// deadline on top of the three verdicts, and the trace checker
/// rejects a record carrying any other ceiling.
#[test]
fn solve_status_serials_are_the_two_budget_ceilings() {
    assert_eq!(
        SolveStatus::SERIALS,
        [
            "sat",
            "unsat",
            "skipped",
            "unknown:conflicts",
            "unknown:wall_clock"
        ]
    );
    let goal = |status: &str| {
        format!(
            r#"{{"t":1,"task":0,"kind":"GoalSolveCost","register":"st","value":3,"status":"{status}","depth":4,"calls":3,"conflicts":9,"learned":2,"restarts":0,"hist":[1,2]}}"#
        )
    };
    for status in SolveStatus::SERIALS {
        parse_line(&goal(status)).unwrap_or_else(|e| panic!("`{status}` rejected: {e}"));
    }
    let err = parse_line(&goal("unknown:term_nodes")).unwrap_err();
    assert!(err.contains("status"), "{err}");
    let exhausted = r#"{"t":1,"task":0,"kind":"BudgetExhausted","reason":"unroll_depth","level":0,"conflicts":0,"decisions":0,"propagations":0}"#;
    assert!(parse_line(exhausted).is_err());
}
