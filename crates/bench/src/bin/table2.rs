//! Regenerates Table 2: the detection matrix across all four fuzzers.
//! Usage: `table2 [budget] [--jobs N] [--log-level LEVEL]
//! [--trace-out PATH] [--sample-every N] [--flight-out PATH]
//! [--status-out PATH]` (default 30000).

use symbfuzz_bench::experiments::detection_matrix;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_table2, save_json};

fn main() {
    let args = parse_bench_args(&[]);
    let budget = args.vectors(0, 30_000);
    let m = detection_matrix(&args.config, &args.outputs, 14, budget, args.jobs);
    println!("# Table 2 — bug detection by fuzzer (budget {budget}; paper value in parens)\n");
    println!("{}", render_table2(&m));
    save_json("table2", &m).expect("write results/table2.json");
    args.outputs
        .finish()
        .expect("write the flight artifacts and the trace");
}
