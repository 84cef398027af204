//! Regenerates Figure 4a: coverage vs input vectors for all five
//! strategies. Usage: `fig4a [budget] [bench_index] [--jobs N]
//! [--log-level LEVEL] [--trace-out PATH] [--sample-every N]
//! [--flight-out PATH] [--status-out PATH]` (defaults 40000, 0).

use symbfuzz_bench::experiments::coverage_race;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_fig4a_csv, save_json};
use symbfuzz_telemetry::info;

fn main() {
    let args = parse_bench_args(&[]);
    let budget = args.vectors(0, 40_000);
    let bench = args.bench_index(1, 0);
    let race = coverage_race(&args.config, &args.outputs, bench, budget, 0x46A, args.jobs);
    println!(
        "# Figure 4a — coverage vs input vectors on `{}`\n",
        race.design
    );
    print!("{}", render_fig4a_csv(&race));
    info!("final coverage:");
    for (name, series) in &race.curves {
        info!(
            "  {:12} {}",
            name,
            series.last().map(|s| s.coverage).unwrap_or(0)
        );
    }
    save_json("fig4a", &race).expect("write results/fig4a.json");
    args.outputs
        .finish()
        .expect("write the flight artifacts and the trace");
}
