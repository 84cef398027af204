//! A/B acceptance for the snapshot-tree scheduler: nearest-ancestor
//! re-entry must be *coverage-equivalent* to the legacy
//! reset-plus-full-replay path it replaces (`use_ancestor_reentry:
//! false` replicates the pre-snapshot-tree fuzzer exactly), while the
//! cost columns — replayed cycles, full resets — are precisely where
//! the two arms are allowed to differ. Also pins down determinism of
//! byte-budgeted (evicting) campaigns, including at `--jobs 1` vs
//! `--jobs 4`.

use std::sync::Arc;
use symbfuzz_core::{CampaignResult, FuzzConfig, PropertySpec, Strategy, SymbFuzz};
use symbfuzz_designs::processor_benchmarks;
use symbfuzz_netlist::Design;

const BUDGET_BYTES: u64 = 4 * 1024; // tight: forces evictions on ibex_like

fn run_arm(
    design: &Arc<Design>,
    props: &[PropertySpec],
    strategy: Strategy,
    ancestor: bool,
) -> CampaignResult {
    let config = FuzzConfig {
        interval: 100,
        threshold: 2,
        max_vectors: 4_000,
        seed: 0x51AB,
        snapshot_mem_budget: BUDGET_BYTES,
        use_ancestor_reentry: ancestor,
        ..FuzzConfig::default()
    };
    let mut fuzzer =
        SymbFuzz::new(Arc::clone(design), strategy, config, props).expect("properties compile");
    fuzzer.run()
}

/// The bug list modulo detection *cycle*: re-entering through a
/// snapshot skips the replay cycles the legacy arm burns, so absolute
/// cycle stamps legitimately differ while everything identifying the
/// bug must not.
fn bug_keys(r: &CampaignResult) -> Vec<(String, u64, Option<u64>, String)> {
    r.bugs
        .iter()
        .map(|b| (b.property.clone(), b.vectors, b.node, b.mechanism.clone()))
        .collect()
}

/// Acceptance: campaign-equivalence of the two re-entry arms on
/// `ibex_like`, across all five strategies.
///
/// The four baselines never roll back, so their entire serialized
/// results must be byte-identical. SymbFuzz rolls back constantly:
/// there the coverage semantics (vectors, points, node/edge sets,
/// series, bugs, solver outcomes) must match while the resource
/// accounting shows the ancestor arm replaying strictly fewer cycles.
#[test]
fn ancestor_reentry_is_campaign_equivalent_to_full_replay() {
    let b = &processor_benchmarks()[0];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    for strategy in Strategy::all() {
        let on = run_arm(&design, &props, strategy, true);
        let off = run_arm(&design, &props, strategy, false);
        if strategy == Strategy::SymbFuzz {
            assert_eq!(on.vectors, off.vectors, "vectors");
            assert_eq!(on.coverage_points, off.coverage_points, "coverage");
            assert_eq!(on.nodes, off.nodes, "nodes");
            assert_eq!(on.edges, off.edges, "edges");
            assert_eq!(on.node_coverage_ratio, off.node_coverage_ratio);
            assert_eq!(on.edge_coverage_ratio, off.edge_coverage_ratio);
            assert_eq!(on.series, off.series, "coverage series");
            assert_eq!(on.solve_outcomes, off.solve_outcomes, "solver outcomes");
            assert_eq!(bug_keys(&on), bug_keys(&off), "bugs");
            assert_eq!(on.resources.rollbacks, off.resources.rollbacks);
            // The whole point of the tree: a rollback whose target was
            // evicted re-enters the nearest live ancestor (and then
            // re-caches the target) instead of replaying the full path
            // from reset, forever, like the legacy arm does.
            assert!(
                off.resources.full_resets > on.resources.full_resets,
                "legacy arm should full-reset more ({} vs {})",
                off.resources.full_resets,
                on.resources.full_resets
            );
            let replayed = |r: &CampaignResult| {
                r.telemetry
                    .counters
                    .iter()
                    .find(|(k, _)| k == "replayed_cycles")
                    .map_or(0, |(_, v)| *v)
            };
            assert!(
                replayed(&off) > replayed(&on),
                "legacy arm should replay more cycles ({} vs {})",
                replayed(&off),
                replayed(&on)
            );
        } else {
            // Baselines never call the re-entry scheduler: the knob
            // must be completely inert, byte for byte.
            assert_eq!(
                serde_json::to_string(&on).unwrap(),
                serde_json::to_string(&off).unwrap(),
                "{} diverged under an inert knob",
                strategy.name()
            );
        }
    }
}

/// A byte-budgeted campaign (evictions firing) is a pure function of
/// its config: two runs produce byte-identical reports, and the store
/// respects its budget.
#[test]
fn budgeted_eviction_campaign_is_deterministic() {
    let b = &processor_benchmarks()[0];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    let first = run_arm(&design, &props, Strategy::SymbFuzz, true);
    let second = run_arm(&design, &props, Strategy::SymbFuzz, true);
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap(),
        "budgeted campaign must be deterministic"
    );
    assert!(
        first.resources.snapshot_evictions > 0,
        "budget of {BUDGET_BYTES} bytes should evict on ibex_like"
    );
    assert!(first.resources.peak_snapshot_bytes > 0);
    // The peak is recorded after each fork's eviction pass, which
    // drains the store back inside its byte budget (or down to a
    // single snapshot, far smaller than the budget here).
    assert!(
        first.resources.peak_snapshot_bytes <= BUDGET_BYTES,
        "peak {} exceeds budget {}",
        first.resources.peak_snapshot_bytes,
        BUDGET_BYTES
    );
    // Sharing must actually happen for the ratio gauge to mean
    // anything: logical bytes strictly exceed unique bytes.
    assert!(
        first.resources.snapshot_pages_shared > 0,
        "tree forks should share unchanged pages"
    );
}

/// Full campaign reports — snapshot counters included — are
/// byte-identical at `--jobs 1` vs `--jobs 4`.
#[test]
fn budgeted_campaigns_are_byte_identical_across_job_counts() {
    use symbfuzz_bench::experiments::{resource_profile, Outputs};
    let base = FuzzConfig::builder().snapshot_mem_budget(BUDGET_BYTES);
    let serial = resource_profile(&base, &Outputs::default(), 0, 1_500, 1);
    let wide = resource_profile(&base, &Outputs::default(), 0, 1_500, 4);
    for ((n1, r1), (n4, r4)) in serial.iter().zip(&wide) {
        assert_eq!(n1, n4);
        assert_eq!(
            serde_json::to_string(r1).unwrap(),
            serde_json::to_string(r4).unwrap(),
            "{n1} campaign differs between job counts"
        );
    }
}
