//! Ablation study for the §5.5.1 design choices:
//!
//! * full SymbFuzz (checkpoints + SMT guidance);
//! * no checkpoints — guidance solves from reset only;
//! * shallow solving — one-cycle dependency equations only;
//! * no solver — coverage-guided random (feedback without guidance).
//!
//! Usage: `ablation [budget] [bench_index] [--jobs N]
//! [--log-level LEVEL] [--trace-out PATH]` (defaults 30000, 0).

use std::sync::Arc;
use symbfuzz_bench::experiments::attach_telemetry;
use symbfuzz_bench::pool::run_pool;
use symbfuzz_bench::render::save_json;
use symbfuzz_bench::{flush_trace, parse_bench_args};
use symbfuzz_core::{CampaignResult, FuzzConfig, Strategy, SymbFuzz};
use symbfuzz_designs::processor_benchmarks;

fn main() {
    let args = parse_bench_args(&[]);
    let budget = args.vectors(0, 30_000);
    let bench = args.bench_index(1, 0);
    let b = &processor_benchmarks()[bench];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();

    let base = FuzzConfig {
        interval: 100,
        threshold: 2,
        max_vectors: budget,
        seed: 0xAB1A7E,
        ..FuzzConfig::default()
    };
    let variants: Vec<(&str, FuzzConfig)> = vec![
        ("full SymbFuzz", base.clone()),
        (
            "no checkpoints",
            FuzzConfig {
                use_checkpoints: false,
                ..base.clone()
            },
        ),
        (
            "shallow solver (depth 1)",
            FuzzConfig {
                solve_depth: 1,
                ..base.clone()
            },
        ),
        (
            "no solver",
            FuzzConfig {
                use_solver: false,
                ..base.clone()
            },
        ),
    ];

    let results: Vec<(String, CampaignResult)> =
        run_pool(&variants, args.jobs, |task, (name, cfg)| {
            let mut fuzzer =
                SymbFuzz::new(Arc::clone(&design), Strategy::SymbFuzz, cfg.clone(), &props)
                    .expect("properties compile");
            attach_telemetry(&mut fuzzer, task);
            (name.to_string(), fuzzer.run())
        });

    println!("# Ablation on `{}` — {budget} vectors each\n", b.name);
    println!("| Variant | nodes | edges | coverage points | solver calls | rollbacks |");
    println!("|---|---|---|---|---|---|");
    for (name, r) in &results {
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            name,
            r.nodes,
            r.edges,
            r.coverage_points,
            r.resources.solver_calls,
            r.resources.rollbacks
        );
    }
    save_json("ablation", &results).expect("write results/ablation.json");
    flush_trace();
}
