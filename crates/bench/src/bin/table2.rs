//! Regenerates Table 2: the detection matrix across all four fuzzers.
//! Usage: `table2 [budget] [--jobs N] [--log-level LEVEL]
//! [--trace-out PATH]` (default 30000).

use symbfuzz_bench::experiments::detection_matrix;
use symbfuzz_bench::render::{render_table2, save_json};
use symbfuzz_bench::{flush_trace, parse_bench_args};

fn main() {
    let args = parse_bench_args(&[]);
    let budget = args.vectors(0, 30_000);
    let m = detection_matrix(&args.config, 14, budget, args.jobs);
    println!("# Table 2 — bug detection by fuzzer (budget {budget}; paper value in parens)\n");
    println!("{}", render_table2(&m));
    save_json("table2", &m).expect("write results/table2.json");
    flush_trace();
}
