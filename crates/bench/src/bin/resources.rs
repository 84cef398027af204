//! Regenerates the §5.2 resource-profile comparison, the merged
//! campaign telemetry, and the flight-recorder overhead benchmark
//! (`results/BENCH_telemetry.json`).
//!
//! Usage: `resources [budget] [bench_index] [--jobs N]
//! [--log-level LEVEL] [--trace-out PATH] [--sample-every N]
//! [--flight-out PATH] [--status-out PATH]`.
//!
//! The overhead benchmark runs the same SymbFuzz campaign per
//! processor benchmark twice — recorder off, then recorder on — and
//! reports vectors/sec for each plus the on/off throughput ratio
//! (acceptance: geomean ≥ 0.95, i.e. ≤ 5 % overhead). A second A/B
//! pass measures solver introspection the same way (off vs
//! `solver_introspection(true)`, same acceptance bar) and lands as
//! `introspection_rows` / `geomean_introspection_ratio`. perfbench
//! never turns the recorder or introspection on, so these two passes
//! are the only measurement of their cost. Earlier contents of
//! `BENCH_telemetry.json` are preserved under the `history` key. The
//! timed campaigns of both A/B passes run bare, outside the bench
//! runner: no trace, no flight artifacts. With `--sample-every` the
//! resource-profile campaigns record flight samples, merged after the
//! pool into the canonical `--flight-out` / `--status-out` artifacts
//! (byte-identical at any `--jobs`), as in every campaign binary.

use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;
use std::time::Instant;
use symbfuzz_bench::experiments::resource_profile;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_resources, save_json};
use symbfuzz_bench::schema::bench_telemetry_history;
use symbfuzz_core::{FuzzConfig, Strategy, SymbFuzz, TelemetryBlock};
use symbfuzz_designs::processor_benchmarks;
use symbfuzz_telemetry::info;

/// One design's recorder-off vs recorder-on throughput measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SamplingRow {
    design: String,
    /// Input vectors per timed campaign.
    budget: u64,
    /// Recorder interval of the sampled run (vectors).
    sample_every: u64,
    /// Vectors/sec with the flight recorder off.
    vectors_per_sec_off: f64,
    /// Vectors/sec with the recorder + profilers on.
    vectors_per_sec_on: f64,
    /// on / off — 1.0 means free, ≥ 0.95 is the acceptance bar.
    ratio: f64,
    /// Samples the recorder captured in the timed run.
    flight_samples: u64,
}

/// Wall-clock vectors/sec of one campaign; `sample_every` arms the
/// recorder and both profilers, `introspect` arms the solver-scope
/// tracing.
fn throughput(
    bench_index: usize,
    budget: u64,
    sample_every: Option<u64>,
    introspect: bool,
) -> (f64, u64) {
    let b = &processor_benchmarks()[bench_index];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    let mut cfg = FuzzConfig::builder()
        .interval(100)
        .threshold(2)
        .max_vectors(budget)
        .seed(0xCAB);
    if let Some(every) = sample_every {
        cfg = cfg.sample_every(every);
    }
    if introspect {
        cfg = cfg.solver_introspection(true);
    }
    let config = cfg.build().expect("overhead config is consistent");
    let mut fuzzer = SymbFuzz::new(Arc::clone(&design), Strategy::SymbFuzz, config, &props)
        .expect("properties compile");
    let start = Instant::now();
    let result = fuzzer.run();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (result.vectors as f64 / secs, result.flight.len() as u64)
}

fn main() {
    let args = parse_bench_args(&[]);
    let budget = args.vectors(0, 20_000);
    let bench = args.bench_index(1, 0);
    let rows = resource_profile(&args.config, &args.outputs, bench, budget, args.jobs);
    args.outputs
        .finish()
        .expect("write the flight artifacts and the trace");
    println!("# §5.2 — resource profile\n");
    println!("{}", render_resources(&rows));
    let mut merged = TelemetryBlock::default();
    for (_, r) in &rows {
        merged.merge(&r.telemetry);
    }
    let snap = merged.to_snapshot();
    info!(
        "telemetry: {} vectors, {} solver calls, {} event kinds observed",
        snap.counter("vectors"),
        snap.counter("solver_calls"),
        snap.distinct_event_kinds()
    );
    save_json("resources", &rows).expect("write results/resources.json");

    // Recorder overhead A/B: same campaign, recorder off vs on.
    let every = args.config.current().sample_every.unwrap_or(100);
    let mut sampling_rows = Vec::new();
    println!("## Flight-recorder overhead ({budget} vectors per campaign)\n");
    println!("| Design | off vec/s | on vec/s | ratio | samples |");
    println!("|---|---|---|---|---|");
    for (i, b) in processor_benchmarks().iter().enumerate() {
        let (off, _) = throughput(i, budget, None, false);
        let (on, samples) = throughput(i, budget, Some(every), false);
        let row = SamplingRow {
            design: b.name.to_string(),
            budget,
            sample_every: every,
            vectors_per_sec_off: off,
            vectors_per_sec_on: on,
            ratio: on / off,
            flight_samples: samples,
        };
        println!(
            "| {} | {:.0} | {:.0} | {:.3} | {} |",
            row.design, off, on, row.ratio, samples
        );
        sampling_rows.push(row);
    }
    let geomean = (sampling_rows.iter().map(|r| r.ratio.ln()).sum::<f64>()
        / sampling_rows.len() as f64)
        .exp();
    println!(
        "\ngeomean on/off throughput ratio: {geomean:.3} across {} designs \
         (acceptance: ≥ 0.95, i.e. ≤ 5% recorder overhead)",
        sampling_rows.len()
    );

    // Solver-introspection overhead A/B: same campaign, introspection
    // off vs on (recorder off in both arms, so only the solver scope
    // is measured).
    let mut introspection_rows = Vec::new();
    println!("\n## Solver-introspection overhead ({budget} vectors per campaign)\n");
    println!("| Design | off vec/s | on vec/s | ratio |");
    println!("|---|---|---|---|");
    for (i, b) in processor_benchmarks().iter().enumerate() {
        let (off, _) = throughput(i, budget, None, false);
        let (on, _) = throughput(i, budget, None, true);
        let row = SamplingRow {
            design: b.name.to_string(),
            budget,
            sample_every: 0,
            vectors_per_sec_off: off,
            vectors_per_sec_on: on,
            ratio: on / off,
            flight_samples: 0,
        };
        println!(
            "| {} | {:.0} | {:.0} | {:.3} |",
            row.design, off, on, row.ratio
        );
        introspection_rows.push(row);
    }
    let geomean_introspection = (introspection_rows.iter().map(|r| r.ratio.ln()).sum::<f64>()
        / introspection_rows.len() as f64)
        .exp();
    println!(
        "\ngeomean on/off throughput ratio: {geomean_introspection:.3} across {} designs \
         (introspection is opt-in; the on-arm pays for per-failure core extraction)",
        introspection_rows.len()
    );

    // Zero-cost-when-off check: this build's introspection-off
    // throughput against the newest recorded rows (acceptance: geomean
    // ≥ 0.95, i.e. the dormant instrumentation costs nothing).
    let history = std::fs::read_to_string("results/BENCH_telemetry.json")
        .map(|text| bench_telemetry_history(&text))
        .unwrap_or_default();
    let off_vs_history = history.iter().rev().find_map(|h| {
        let Ok(Value::Array(rows)) = h.field("rows") else {
            return None;
        };
        let ratios: Vec<f64> = introspection_rows
            .iter()
            .filter_map(|r| {
                rows.iter().find_map(|row| {
                    match (row.field("design"), row.field("vectors_per_sec_off")) {
                        (Ok(Value::Str(d)), Ok(Value::Num(v))) if *d == r.design && *v > 0.0 => {
                            Some((r.vectors_per_sec_off / *v).ln())
                        }
                        _ => None,
                    }
                })
            })
            .collect();
        if ratios.is_empty() {
            None
        } else {
            Some((ratios.iter().sum::<f64>() / ratios.len() as f64).exp())
        }
    });
    match off_vs_history {
        Some(r) => println!(
            "\ngeomean introspection-off vs recorded baseline: {r:.3} \
             (acceptance: ≥ 0.95, i.e. no cost when off)"
        ),
        None => println!("\nno recorded baseline rows to compare the off-arm against"),
    }
    let out = Value::Object(vec![
        ("rows".into(), sampling_rows.to_value()),
        ("geomean_sampling_ratio".into(), Value::Num(geomean)),
        ("introspection_rows".into(), introspection_rows.to_value()),
        (
            "geomean_introspection_ratio".into(),
            Value::Num(geomean_introspection),
        ),
        (
            "geomean_introspection_off_vs_history".into(),
            off_vs_history.map_or(Value::Null, Value::Num),
        ),
        ("telemetry".into(), merged.to_value()),
        ("history".into(), Value::Array(history)),
    ]);
    save_json("BENCH_telemetry", &out).expect("write results/BENCH_telemetry.json");
}
