//! Every experiment entry point runs its campaigns through the one
//! runner: traced into a buffer, each campaign closes with exactly one
//! `Summary` record, and the merged `flight.jsonl` and `status.json`
//! that `Outputs::finish` writes check clean and, untraced, are
//! byte-identical at `--jobs 1` and `--jobs 4`. (A traced campaign
//! samples a wall clock, so its flight files carry wall-clock times.)

use std::path::Path;
use std::sync::{Arc, Mutex};
use symbfuzz_bench::experiments::*;
use symbfuzz_bench::schema::{check_flight, check_status, parse_trace};
use symbfuzz_core::{FuzzConfig, FuzzConfigBuilder};
use symbfuzz_telemetry::SUMMARY_RECORD;

type Entry<'a> = Box<dyn Fn(&Outputs, usize) + 'a>;

/// Runs `entry` on `jobs` workers with flight/status paths under `dir`
/// and, when `traced`, a trace buffer; returns the trace and both
/// merged files.
fn run(entry: &Entry, dir: &Path, jobs: usize, traced: bool) -> (String, String, String) {
    let trace = Arc::new(Mutex::new(Vec::<u8>::new()));
    let mut out = Outputs::default();
    if traced {
        out.trace_to(trace.clone());
    }
    out.flight_out = Some(dir.join("flight.jsonl"));
    out.status_out = Some(dir.join("status.json"));
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    entry(&out, jobs);
    out.finish().unwrap();
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
    let trace = String::from_utf8(trace.lock().unwrap().clone()).unwrap();
    (trace, read("flight.jsonl"), read("status.json"))
}

#[test]
fn every_entry_point_traces_one_summary_per_campaign_and_merges_across_jobs() {
    let base: &FuzzConfigBuilder = &FuzzConfig::builder().sample_every(100);
    // (entry point, campaigns it runs, the call)
    let entries: Vec<(&str, usize, Entry)> = vec![
        (
            "table1_rows",
            14,
            Box::new(|o, j| drop(table1_rows(base, o, 300, j))),
        ),
        (
            "detection_matrix",
            13,
            Box::new(|o, j| {
                // SymbFuzz finds bug 1 on its first seed; the three
                // baselines cannot see it and run all four.
                let m = detection_matrix(base, o, 1, 200, j);
                assert_eq!(m.missed(), (0, 1, 1, 1), "{m:?}");
            }),
        ),
        (
            "table3_rows",
            4,
            Box::new(|o, j| drop(table3_rows(base, o, 300, j))),
        ),
        (
            "coverage_race",
            5,
            Box::new(|o, j| drop(coverage_race(base, o, 0, 300, 7, j))),
        ),
        (
            "variance_profile",
            10,
            Box::new(|o, j| drop(variance_profile(base, o, 1, 300, 2, j))),
        ),
        (
            "speedup",
            5,
            Box::new(|o, j| drop(speedup(base, o, 0, 300, j))),
        ),
        (
            "budget_profile",
            3,
            Box::new(|o, j| drop(budget_profile(base, o, &[200], 200, j))),
        ),
        (
            "solverscope_profile",
            6,
            Box::new(|o, j| drop(solverscope_profile(base, o, 200, 200, j))),
        ),
        (
            "resource_profile",
            5,
            Box::new(|o, j| drop(resource_profile(base, o, 0, 300, j))),
        ),
        (
            "ablation",
            4,
            Box::new(|o, j| drop(ablation(base, o, 0, 300, j))),
        ),
    ];
    let root = std::env::temp_dir().join(format!("symbfuzz-outputs-{}", std::process::id()));
    for (name, campaigns, entry) in &entries {
        let dir = root.join(name);
        // Traced: one summary per campaign, and the files check.
        let (trace, flight, status) = run(entry, &dir, 4, true);
        let records = parse_trace(&trace).unwrap_or_else(|e| panic!("{name}: {e}"));
        let summaries = records
            .iter()
            .filter(|r| r.kind == SUMMARY_RECORD.kind)
            .count();
        assert_eq!(summaries, *campaigns, "{name}");
        // Untraced: the merged files are byte-identical across --jobs.
        let serial = run(entry, &dir, 1, false);
        let wide = run(entry, &dir, 4, false);
        for (flight, status) in [(&flight, &status), (&serial.1, &serial.2)] {
            check_flight(flight).unwrap_or_else(|e| panic!("{name} flight: {e}"));
            check_status(status).unwrap_or_else(|e| panic!("{name} status: {e}"));
        }
        assert!(
            (serial.1, serial.2) == (wide.1, wide.2),
            "{name}: merged files differ by --jobs"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
