//! Regenerates Table 3: benchmark statistics (LoC, CFG size,
//! dependency equations, constraints, latency).
//! Usage: `table3 [budget] [--jobs N] [--log-level LEVEL]
//! [--trace-out PATH] [--sample-every N] [--flight-out PATH]
//! [--status-out PATH]` (default 20000). Note that the `latency_s`
//! column is wall-clock, so it varies with `--jobs`.

use symbfuzz_bench::experiments::table3_rows;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_table3, save_json};

fn main() {
    let args = parse_bench_args(&[]);
    let budget = args.vectors(0, 20_000);
    let rows = table3_rows(&args.config, &args.outputs, budget, args.jobs);
    println!("# Table 3 — benchmark details (campaign budget {budget})\n");
    println!("{}", render_table3(&rows));
    save_json("table3", &rows).expect("write results/table3.json");
    args.outputs
        .finish()
        .expect("write the flight artifacts and the trace");
}
