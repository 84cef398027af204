//! Snapshot-tree benchmark: the copy-on-write store's fork/enter cost
//! against legacy deep-copy snapshots, plus a campaign A/B measuring
//! what nearest-ancestor re-entry saves over full reset-and-replay
//! under a tight snapshot byte budget. Emits
//! `results/BENCH_snapshot.json`.
//!
//! Usage: `snapbench [vectors] [--smoke] [--snapshot-budget N]
//! [--log-level LEVEL]` (default 20000 campaign vectors; `--smoke`
//! drops to 2000 and skips the timed microbench loops' warm-up).
//!
//! The campaign A/B forces snapshot-cache misses by shrinking the
//! store budget (default 4 KiB here, not the 64 MiB campaign
//! default): evictions make rollbacks miss, and the A/B compares how
//! many cycles each arm then replays. Acceptance: ancestor re-entry
//! replays at least 5× fewer cycles per rollback than the
//! full-replay arm on `ibex_like`.

use serde::{Serialize, Value};
use std::sync::Arc;
use std::time::Instant;
use symbfuzz_bench::render::save_json;
use symbfuzz_bench::{exit_usage, split_bench_args};
use symbfuzz_core::{FuzzConfig, FuzzConfigBuilder, Strategy, SymbFuzz};
use symbfuzz_designs::processor_benchmarks;
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::Design;
use symbfuzz_sim::{Reentry, Simulator};
use symbfuzz_telemetry::set_log_level;

/// Fork/enter microbenchmark against the deep-copy baseline.
#[derive(Debug, Clone, Serialize)]
struct MicroRow {
    design: String,
    /// State bytes per full snapshot (two u64 planes per signal).
    state_bytes: u64,
    /// Forks per second into a copy-on-write store (chained parents).
    fork_per_sec: f64,
    /// Enters per second from the store.
    enter_per_sec: f64,
    /// Deep-copy snapshots per second (legacy baseline).
    deep_snapshot_per_sec: f64,
    /// Deep-copy restores per second (legacy baseline).
    deep_restore_per_sec: f64,
    /// Pages copied across the fork chain.
    pages_copied: u64,
    /// Pages shared with a tree parent across the fork chain.
    pages_shared: u64,
    /// Copy-on-write sharing ratio ×1000 (logical / unique bytes).
    sharing_milli: u64,
}

/// One campaign arm of the re-entry A/B.
#[derive(Debug, Clone, Serialize)]
struct CampaignArm {
    ancestor_reentry: bool,
    vectors: u64,
    coverage_points: u64,
    rollbacks: u64,
    full_resets: u64,
    snapshot_restores: u64,
    replayed_cycles: u64,
    snapshot_evictions: u64,
    /// Mean cycles replayed per rollback (0 when no rollbacks ran).
    replayed_per_rollback: f64,
    steps_per_sec: f64,
}

fn timed<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// Walks the simulator `cycles` steps with a deterministic input walk.
fn walk(sim: &mut Simulator, width: u32, cycles: u64, state: &mut u64) {
    for _ in 0..cycles {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        sim.apply_input_word(&LogicVec::from_u64(width.min(64), *state));
        sim.step();
    }
}

fn microbench(design: &Arc<Design>, iters: u64) -> MicroRow {
    let mut sim = Simulator::new(Arc::clone(design));
    sim.reenter(Reentry::FullReset { cycles: 2 });
    let width = design.fuzz_width().max(1);
    let mut state = 0xBEEFu64;
    walk(&mut sim, width, 200, &mut state);

    // Chained forks: each fork's parent is the previous fork, with a
    // short walk in between, so sharing reflects a realistic tree.
    let mut store = sim.snapshot_store(u64::MAX);
    let mut parent = None;
    let fork_per_sec = timed(iters, || {
        walk(&mut sim, width, 4, &mut state);
        parent = Some(sim.fork(&mut store, parent).id);
    });
    let last = parent.expect("at least one fork ran");
    let enter_per_sec = timed(iters, || {
        sim.enter(&store, last);
    });

    // Deep-copy baseline: the pre-CoW checkpoint (now removed from the
    // simulator) was a full clone of the value table, so measure that
    // memory traffic directly for the contrast row.
    let deep_snapshot_per_sec = timed(iters, || {
        std::hint::black_box(sim.values().to_vec());
    });
    let snap = sim.values().to_vec();
    let mut scratch = sim.values().to_vec();
    let deep_restore_per_sec = timed(iters, || {
        scratch.clone_from(&snap);
        std::hint::black_box(scratch.len());
    });

    MicroRow {
        design: design.name.clone(),
        state_bytes: store.state_bytes(),
        fork_per_sec,
        enter_per_sec,
        deep_snapshot_per_sec,
        deep_restore_per_sec,
        pages_copied: store.pages_copied_total(),
        pages_shared: store.pages_shared_total(),
        sharing_milli: store.sharing_milli(),
    }
}

fn campaign_arm(
    base: &FuzzConfigBuilder,
    design: &Arc<Design>,
    props: &[symbfuzz_core::PropertySpec],
    vectors: u64,
    ancestor: bool,
) -> CampaignArm {
    let config = base
        .clone()
        .interval(100)
        .threshold(2)
        .max_vectors(vectors)
        .seed(0x5A9B)
        .use_ancestor_reentry(ancestor)
        .build()
        .expect("snapbench config is consistent");
    let mut fuzzer = SymbFuzz::new(Arc::clone(design), Strategy::SymbFuzz, config, props)
        .expect("properties must compile");
    let start = Instant::now();
    let result = fuzzer.run();
    let secs = start.elapsed().as_secs_f64();
    let counter = |n: &str| {
        result
            .telemetry
            .counters
            .iter()
            .find(|(k, _)| k == n)
            .map_or(0, |(_, v)| *v)
    };
    let rollbacks = result.resources.rollbacks;
    let replayed = counter("replayed_cycles");
    CampaignArm {
        ancestor_reentry: ancestor,
        vectors: result.vectors,
        coverage_points: result.coverage_points,
        rollbacks,
        full_resets: result.resources.full_resets,
        snapshot_restores: counter("snapshot_restores"),
        replayed_cycles: replayed,
        snapshot_evictions: result.resources.snapshot_evictions,
        replayed_per_rollback: if rollbacks == 0 {
            0.0
        } else {
            replayed as f64 / rollbacks as f64
        },
        steps_per_sec: result.resources.cycles as f64 / secs.max(1e-9),
    }
}

fn main() {
    // Tight enough to force evictions (and therefore rollback misses)
    // on ibex_like, whose full state is only ~400 bytes; the campaign
    // default is 64 MiB.
    let tight = FuzzConfig::builder().snapshot_mem_budget(4 * 1024);
    let mut args = split_bench_args(std::env::args().skip(1), tight, &["--smoke"])
        .unwrap_or_else(|e| exit_usage(&e));
    set_log_level(args.log_level);
    let smoke = args.take_switch("--smoke");
    let vectors = args.vectors(0, if smoke { 2_000 } else { 20_000 });
    let iters: u64 = if smoke { 200 } else { 2_000 };
    let budget_bytes = args.config.current().snapshot_mem_budget;

    let ibex = &processor_benchmarks()[0];
    let design = ibex.design().expect("benchmark elaborates");
    let props = ibex.property_specs();

    println!("# Snapshot store — fork/enter vs deep copy ({iters} iterations)\n");
    let micro = microbench(&design, iters);
    println!(
        "| {} | fork {:.0}/s | enter {:.0}/s | deep snap {:.0}/s | deep restore {:.0}/s \
         | sharing {:.2}× |",
        micro.design,
        micro.fork_per_sec,
        micro.enter_per_sec,
        micro.deep_snapshot_per_sec,
        micro.deep_restore_per_sec,
        micro.sharing_milli as f64 / 1000.0
    );

    println!(
        "\n# Re-entry A/B — {} vectors, {budget_bytes}-byte snapshot budget\n",
        vectors
    );
    let on = campaign_arm(&args.config, &design, &props, vectors, true);
    let off = campaign_arm(&args.config, &design, &props, vectors, false);
    for arm in [&on, &off] {
        println!(
            "| ancestor={} | rollbacks {} | replayed {} | per-rollback {:.1} \
             | evictions {} | full resets {} | {:.0} steps/s |",
            arm.ancestor_reentry,
            arm.rollbacks,
            arm.replayed_cycles,
            arm.replayed_per_rollback,
            arm.snapshot_evictions,
            arm.full_resets,
            arm.steps_per_sec
        );
    }
    assert_eq!(
        (on.vectors, on.coverage_points),
        (off.vectors, off.coverage_points),
        "the A/B arms must reach identical coverage"
    );
    let savings = if on.replayed_per_rollback > 0.0 {
        off.replayed_per_rollback / on.replayed_per_rollback
    } else {
        f64::INFINITY
    };
    println!(
        "\nmean cycles replayed per re-entry: {:.1} → {:.1} ({savings:.1}× less; \
         acceptance: ≥5× on ibex_like)",
        off.replayed_per_rollback, on.replayed_per_rollback
    );

    let out = Value::Object(vec![
        ("micro".into(), vec![micro].to_value()),
        ("campaign_vectors".into(), Value::Num(vectors as f64)),
        (
            "snapshot_budget_bytes".into(),
            Value::Num(budget_bytes as f64),
        ),
        ("ancestor_on".into(), on.to_value()),
        ("ancestor_off".into(), off.to_value()),
        (
            "replay_savings_ratio".into(),
            Value::Num(if savings.is_finite() { savings } else { -1.0 }),
        ),
    ]);
    save_json("BENCH_snapshot", &out).expect("write results/BENCH_snapshot.json");
}
