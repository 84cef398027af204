//! Regenerates the §5.3 convergence comparison (the paper's 6.8×
//! speed-up of SymbFuzz over UVM random testing).
//! Usage: `speedup [budget] [bench_index] [--jobs N]
//! [--log-level LEVEL] [--trace-out PATH] [--sample-every N]
//! [--flight-out PATH] [--status-out PATH]`.

use symbfuzz_bench::experiments::speedup;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_speedup, save_json};

fn main() {
    let args = parse_bench_args(&[]);
    let budget = args.vectors(0, 40_000);
    let bench = args.bench_index(1, 0);
    let s = speedup(&args.config, &args.outputs, bench, budget, args.jobs);
    println!("# §5.3 — time-to-coverage speed-up\n");
    println!("{}", render_speedup(&s));
    save_json("speedup", &s).expect("write results/speedup.json");
    args.outputs
        .finish()
        .expect("write the flight artifacts and the trace");
}
