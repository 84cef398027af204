//! The per-goal solver record end to end: introspected campaigns fill
//! one row per `(register, value)` goal, the rows' tallies add up,
//! pool merges are deterministic, and reports written before the
//! record was unified still load.

use symbfuzz_core::{
    CampaignResult, FuzzConfig, PropertySpec, SolverProfileBlock, Strategy, SymbFuzz,
};

/// One short introspected campaign against the factoring lock, where
/// every goal is a semiprime instance that exhausts a small budget.
fn introspected_campaign(seed: u64) -> CampaignResult {
    let (prop, expr) = symbfuzz_designs::HARD_FACTOR_PROPERTY;
    let config = FuzzConfig::builder()
        .interval(100)
        .threshold(1)
        .max_vectors(600)
        .seed(seed)
        .solver_budget(300)
        .escalation_cap(1)
        .solver_introspection(true)
        .build()
        .unwrap();
    let mut fuzzer = SymbFuzz::new(
        symbfuzz_designs::hard_factor(),
        Strategy::SymbFuzz,
        config,
        &[PropertySpec::assertion_only(prop, expr)],
    )
    .unwrap();
    fuzzer.run()
}

fn json(block: &SolverProfileBlock) -> String {
    serde_json::to_string(block).unwrap()
}

#[test]
fn introspected_campaigns_fill_one_consistent_record_per_goal() {
    let a = introspected_campaign(0xB0D6E7).solver_profile;
    let b = introspected_campaign(0xB0D6E7 + 7919).solver_profile;
    for block in [&a, &b] {
        assert!(block.total_attempts > 0, "no goal was attempted");
        assert_eq!(block.check(), Ok(()));
        for g in &block.goals {
            assert_eq!(g.sat + g.unsat + g.exhausted, g.attempts, "{g:?}");
            if g.attempts == 0 {
                continue;
            }
            let i = g.introspection.as_ref().unwrap_or_else(|| {
                panic!(
                    "attempted goal {}={} has no introspection",
                    g.register, g.value
                )
            });
            // Every traced conflict learns a clause; the budget count
            // adds at most one unlearned, proof-ending conflict per
            // exact-depth call.
            assert!(i.learned <= g.conflicts, "{g:?}");
            assert!(g.conflicts <= i.learned + g.solver_calls, "{g:?}");
        }
        let attempts: u64 = block.goals.iter().map(|g| g.attempts).sum();
        assert_eq!(attempts, block.total_attempts);
    }

    // Folding B into A is a pure function of the two blocks, and
    // matches the pool's fold from an empty block in task order.
    let fold = || {
        let mut acc = a.clone();
        acc.merge(&b);
        acc
    };
    assert_eq!(json(&fold()), json(&fold()));
    let mut pooled = SolverProfileBlock::default();
    pooled.merge(&a);
    pooled.merge(&b);
    assert_eq!(json(&pooled), json(&fold()));
    assert_eq!(pooled.total_attempts, a.total_attempts + b.total_attempts);
    assert_eq!(pooled.check(), Ok(()));
}

/// A campaign report as written before the per-goal record was
/// unified: profile rows sorted hardest-first, introspection rows in a
/// separate `solver_scope` block in first-attempt order.
const PRE_CHANGE_REPORT: &str = r#"{
  "fuzzer": "SymbFuzz", "design": "lock", "vectors": 600, "coverage_points": 3,
  "nodes": 2, "edges": 1, "node_coverage_ratio": 0.5, "edge_coverage_ratio": 0.1,
  "bugs": [], "series": [],
  "resources": {"cycles": 600, "solver_calls": 3, "peak_snapshots": 1,
    "peak_state_bytes": 64, "rollbacks": 2, "full_resets": 1},
  "solve_outcomes": [["sat", 0], ["unsat", 1]],
  "telemetry": {"counters": [], "gauges": [], "events": [], "phases": []},
  "covmap": {"version": 1, "fuzzer": "SymbFuzz", "design": "lock", "nodes": [],
    "edges": [], "goals": [], "frontier": []},
  "flight": [], "vm_profile": null,
  "solver_profile": {
    "goals": [
      {"register": "st", "value": 2, "attempts": 2, "sat": 0, "unsat": 0,
       "exhausted": 2, "neg_cache_hits": 4, "conflicts": 90, "decisions": 200,
       "propagations": 900, "solver_calls": 4, "deepest_unroll": 4,
       "escalations": [0, 1]},
      {"register": "st", "value": 1, "attempts": 1, "sat": 0, "unsat": 1,
       "exhausted": 0, "neg_cache_hits": 0, "conflicts": 5, "decisions": 9,
       "propagations": 40, "solver_calls": 2, "deepest_unroll": 2,
       "escalations": [0]}
    ],
    "total_attempts": 3, "total_neg_cache_hits": 4
  },
  "solver_scope": {
    "version": 1,
    "goals": [
      {"register": "st", "value": 1, "attempts": 1, "conflicts": 4, "learned": 4,
       "restarts": 0, "learned_size_hist": [0,1,3,0,0,0,0,0,0,0,0,0],
       "lbd_hist": [0,4,0,0,0,0,0,0,0,0,0,0],
       "call_conflict_hist": [1,1,0,0,0,0,0,0,0,0,0,0], "restart_timeline": [],
       "conflict_depth_sum": 8, "conflict_depth_max": 3,
       "hot_signals": [["code", 1000]], "blame": ["st"], "sketch": [3, 5, 9],
       "depth": 2},
      {"register": "st", "value": 2, "attempts": 2, "conflicts": 88, "learned": 88,
       "restarts": 1, "learned_size_hist": [0,0,80,8,0,0,0,0,0,0,0,0],
       "lbd_hist": [0,40,48,0,0,0,0,0,0,0,0,0],
       "call_conflict_hist": [0,0,2,2,0,0,0,0,0,0,0,0], "restart_timeline": [64],
       "conflict_depth_sum": 400, "conflict_depth_max": 9,
       "hot_signals": [["code", 1000], ["st", 310]], "blame": ["st"],
       "sketch": [3, 5, 11], "depth": 4}
    ],
    "affinity": [[1000, 500], [500, 1000]],
    "mean_adjacent_affinity_milli": 500
  },
  "solver_cache": null
}"#;

#[test]
fn pre_change_reports_load_with_rows_joined_by_goal() {
    let r: CampaignResult = serde_json::from_str(PRE_CHANGE_REPORT).unwrap();
    let p = &r.solver_profile;
    // Rows take the scope block's first-attempt order.
    let keys: Vec<(&str, u64)> = p
        .goals
        .iter()
        .map(|g| (g.register.as_str(), g.value))
        .collect();
    assert_eq!(keys, vec![("st", 1), ("st", 2)]);
    // Each row keeps its profile tallies and gains its own scope row.
    let st2 = &p.goals[1];
    assert_eq!((st2.conflicts, st2.neg_cache_hits), (90, 4));
    assert_eq!(st2.escalations, vec![0, 1]);
    let i = st2.introspection.as_ref().unwrap();
    assert_eq!((i.learned, i.restarts), (88, 1));
    assert_eq!(i.restart_timeline, vec![64]);
    assert_eq!(
        p.goals[0].introspection.as_ref().unwrap().blame,
        vec!["st".to_string()]
    );
    // Totals carry over. The retired sketch, depth and affinity keys
    // are ignored.
    assert_eq!((p.total_attempts, p.total_neg_cache_hits), (3, 4));
    assert_eq!(p.check(), Ok(()));
    // The upgraded report round-trips in the new shape.
    let again: CampaignResult = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
    assert_eq!(again, r);
}
