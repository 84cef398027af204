//! Regenerates Figure 4b: coverage variance across repeated runs in the
//! mid-campaign window. Usage: `fig4b [budget] [runs] [bench_index]
//! [--jobs N] [--log-level LEVEL] [--trace-out PATH] [--sample-every N]
//! [--flight-out PATH] [--status-out PATH]`.

use symbfuzz_bench::experiments::variance_profile;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_fig4b_csv, save_json};

fn main() {
    let args = parse_bench_args(&[]);
    let budget = args.vectors(0, 10_000);
    let runs: u64 = args.pos(1, "the run count", 4);
    let bench = args.bench_index(2, 0);
    let pts = variance_profile(&args.config, &args.outputs, bench, budget, runs, args.jobs);
    println!("# Figure 4b — coverage variance over {runs} runs\n");
    print!("{}", render_fig4b_csv(&pts));
    save_json("fig4b", &pts).expect("write results/fig4b.json");
    args.outputs
        .finish()
        .expect("write the flight artifacts and the trace");
}
