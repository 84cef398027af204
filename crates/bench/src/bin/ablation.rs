//! Ablation study for the §5.5.1 design choices:
//!
//! * full SymbFuzz (checkpoints + SMT guidance);
//! * no checkpoints — guidance solves from reset only;
//! * shallow solving — one-cycle dependency equations only;
//! * no solver — coverage-guided random (feedback without guidance).
//!
//! Usage: `ablation [budget] [bench_index] [--jobs N]
//! [--log-level LEVEL] [--trace-out PATH] [--sample-every N]
//! [--flight-out PATH] [--status-out PATH]` plus the campaign flags,
//! which every arm runs under (defaults 30000, 0).

use symbfuzz_bench::experiments::ablation;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::save_json;
use symbfuzz_designs::processor_benchmarks;

fn main() {
    let args = parse_bench_args(&[]);
    let budget = args.vectors(0, 30_000);
    let bench = args.bench_index(1, 0);
    let results = ablation(&args.config, &args.outputs, bench, budget, args.jobs);
    let name = processor_benchmarks()[bench].name;
    println!("# Ablation on `{name}` — {budget} vectors each\n");
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
    args.outputs
        .finish()
        .expect("write the flight artifacts and the trace");
}
