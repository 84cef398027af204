//! Coverage vs per-solve conflict budget on the factoring lock, the
//! `ibex_like` control and the goal-dense fabric (`EXPERIMENTS.md`,
//! "Coverage vs solver budget").
//!
//! Usage: `budgetbench [max_vectors] [budget...] [--jobs N]
//! [--log-level LEVEL] [--trace-out PATH]` — default 1 000 vectors at
//! 500 / 2 000 / 10 000 conflicts. `budgetbench --smoke` runs one tiny
//! ceiling (CI: proves a budget-exhausted campaign terminates cleanly).

use symbfuzz_bench::experiments::budget_profile;
use symbfuzz_bench::render::{render_budget_profile, save_json};
use symbfuzz_bench::{flush_trace, parse_bench_args};

fn main() {
    let mut args = parse_bench_args(&["--smoke"]);
    if args.take_switch("--smoke") {
        let rows = budget_profile(&args.config, &[500], 300, args.jobs);
        println!("{}", render_budget_profile(&rows));
        assert!(
            rows.iter()
                .any(|r| r.design == "hard_factor" && r.budget_exhaustions >= 1),
            "smoke run never exhausted its solver budget: {rows:?}"
        );
        println!("budget smoke OK: campaign degraded gracefully and terminated");
        return;
    }
    let max_vectors = args.vectors(0, 1_000);
    let budgets: Vec<u64> = if args.rest.len() > 1 {
        (1..args.rest.len())
            .map(|n| args.solver_budget(n, 0))
            .collect()
    } else {
        vec![500, 2_000, 10_000]
    };
    let rows = budget_profile(&args.config, &budgets, max_vectors, args.jobs);
    println!("# Coverage vs solver budget ({max_vectors} vectors)\n");
    println!("{}", render_budget_profile(&rows));
    save_json("BENCH_budget", &rows).expect("write results/BENCH_budget.json");
    flush_trace();
}
