//! Coverage vs per-solve conflict budget on the factoring lock, the
//! `ibex_like` control and the goal-dense fabric (`EXPERIMENTS.md`,
//! "Coverage vs solver budget").
//!
//! Usage: `budgetbench [max_vectors] [budget...] [--jobs N]
//! [--log-level LEVEL] [--trace-out PATH] [--sample-every N]
//! [--flight-out PATH] [--status-out PATH]` — default 1 000 vectors at
//! 500 / 2 000 / 10 000 conflicts. `budgetbench --smoke` runs one tiny
//! ceiling (CI: proves a budget-exhausted campaign terminates cleanly).

use symbfuzz_bench::experiments::budget_profile;
use symbfuzz_bench::parse_bench_args;
use symbfuzz_bench::render::{render_budget_profile, save_json};

fn main() {
    let mut args = parse_bench_args(&["--smoke"]);
    let smoke = args.take_switch("--smoke");
    let (max_vectors, budgets) = if smoke {
        (300, vec![500])
    } else if args.rest.len() > 1 {
        let budgets = (1..args.rest.len()).map(|n| args.solver_budget(n, 0));
        (args.vectors(0, 1_000), budgets.collect())
    } else {
        (args.vectors(0, 1_000), vec![500, 2_000, 10_000])
    };
    let rows = budget_profile(
        &args.config,
        &args.outputs,
        &budgets,
        max_vectors,
        args.jobs,
    );
    args.outputs
        .finish()
        .expect("write the flight artifacts and the trace");
    if smoke {
        println!("{}", render_budget_profile(&rows));
        assert!(
            rows.iter()
                .any(|r| r.design == "hard_factor" && r.budget_exhaustions >= 1),
            "smoke run never exhausted its solver budget: {rows:?}"
        );
        println!("budget smoke OK: campaign degraded gracefully and terminated");
        return;
    }
    println!("# Coverage vs solver budget ({max_vectors} vectors)\n");
    println!("{}", render_budget_profile(&rows));
    save_json("BENCH_budget", &rows).expect("write results/BENCH_budget.json");
}
