//! The four workloads: what each runs, how a trial is seeded, and the
//! set-up path every trial pays.

use std::sync::Arc;
use symbfuzz_core::{CampaignResult, FuzzConfig, PropertySpec, Strategy, SymbFuzz};
use symbfuzz_designs::{
    bug_benchmarks, processor_benchmarks, GOAL_FABRIC_PROPERTY, GOAL_FABRIC_RTL,
};

/// Constructions timed before the first campaign trial, so the
/// `setup_s` median rests on enough samples even when a run holds only
/// a dozen trials.
pub(crate) const EXTRA_SETUPS: usize = 21;

/// One design a workload fuzzes.
#[derive(Debug, Clone)]
pub(crate) struct Source {
    /// Design (or, for bug hunts, bug) name.
    pub(crate) name: &'static str,
    /// RTL source text.
    pub(crate) rtl: &'static str,
    /// Top module.
    pub(crate) top: &'static str,
    /// Properties checked every cycle.
    pub(crate) props: Vec<PropertySpec>,
    /// The properties hold on this design, so any firing is a failure.
    pub(crate) must_hold: bool,
    /// For bug hunts, the property whose firing ends the trial.
    pub(crate) target: Option<&'static str>,
}

/// How a trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `SymbFuzz::run` to the vector budget.
    Campaign,
    /// `SymbFuzz::run_until_bug` from cold start, capped at the budget.
    BugHunt,
}

/// A workload definition.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub(crate) name: &'static str,
    /// Trial kind.
    pub(crate) kind: Kind,
    /// Designs, cycled through trial by trial.
    pub(crate) sources: Vec<Source>,
    /// Vector budget (campaigns) or detection cap (bug hunts).
    pub(crate) vectors: u64,
    /// Per-solve conflict ceiling, with escalation capped at one level.
    pub(crate) solver_budget: Option<u64>,
}

impl Workload {
    /// The campaign configuration of one trial: the harness's
    /// `interval(100).threshold(2)` plus the workload's budgets.
    pub(crate) fn config(&self, seed: u64) -> FuzzConfig {
        let mut b = FuzzConfig::builder()
            .interval(100)
            .threshold(2)
            .max_vectors(self.vectors)
            .seed(seed);
        if let Some(conflicts) = self.solver_budget {
            b = b.solver_budget(conflicts).escalation_cap(1);
        }
        b.build().expect("workload configurations are valid")
    }

    /// Trials per round: one per design.
    pub(crate) fn round(&self) -> u64 {
        self.sources.len() as u64
    }

    /// The design and campaign seed of trial `i` of a run seeded `base`:
    /// designs cycle, and round `r` uses seed `base + r`.
    pub(crate) fn trial(&self, i: u64, base: u64) -> (&Source, u64) {
        let n = self.round();
        (&self.sources[(i % n) as usize], base.wrapping_add(i / n))
    }
}

/// Parses, elaborates and constructs one campaign: the set-up a user
/// pays before the first vector.
pub(crate) fn build(src: &Source, config: FuzzConfig) -> SymbFuzz {
    let file = symbfuzz_hdl::parse(src.rtl).expect("benchmark RTL parses");
    let design =
        Arc::new(symbfuzz_netlist::elaborate(&file, src.top).expect("benchmark RTL elaborates"));
    SymbFuzz::new(design, Strategy::SymbFuzz, config, &src.props)
        .expect("benchmark properties compile")
}

fn processor(index: usize) -> Source {
    let b = &processor_benchmarks()[index];
    Source {
        name: b.name,
        rtl: b.rtl,
        top: b.top,
        props: b.property_specs(),
        must_hold: true,
        target: None,
    }
}

/// Every workload, at full size or at the tiny `--smoke` size.
pub(crate) fn all(smoke: bool) -> Vec<Workload> {
    let size = |full: u64, tiny: u64| if smoke { tiny } else { full };
    let (fabric_prop, fabric_expr) = GOAL_FABRIC_PROPERTY;
    let bugs = bug_benchmarks()
        .into_iter()
        .map(|b| Source {
            name: b.name,
            rtl: b.rtl,
            top: b.top,
            props: vec![b.property_spec()],
            must_hold: false,
            target: Some(b.name),
        })
        .collect();
    vec![
        Workload {
            name: "ibex_campaign",
            kind: Kind::Campaign,
            sources: vec![processor(0)],
            vectors: size(100_000, 2_000),
            solver_budget: None,
        },
        Workload {
            name: "cva6_campaign",
            kind: Kind::Campaign,
            sources: vec![processor(1)],
            vectors: size(30_000, 2_000),
            solver_budget: None,
        },
        Workload {
            name: "fabric_campaign",
            kind: Kind::Campaign,
            sources: vec![Source {
                name: "goalfabric",
                rtl: GOAL_FABRIC_RTL,
                top: "goalfabric",
                props: vec![PropertySpec::assertion_only(fabric_prop, fabric_expr)],
                must_hold: false,
                target: None,
            }],
            vectors: size(50_000, 3_000),
            solver_budget: Some(20_000),
        },
        Workload {
            name: "bug_hunt",
            kind: Kind::BugHunt,
            sources: bugs,
            vectors: 20_000,
            solver_budget: None,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
    all(smoke).into_iter().find(|w| w.name == name)
}

/// Checks a finished campaign's invariants: the whole budget was
/// consumed, coverage points are nodes plus edges, the covmap agrees,
/// and no property that must hold fired.
pub(crate) fn campaign_ok(src: &Source, budget: u64, r: &CampaignResult) -> bool {
    r.vectors == budget
        && r.coverage_points == r.nodes + r.edges
        && r.covmap.nodes.len() as u64 == r.nodes
        && r.covmap.edges.len() as u64 == r.edges
        && (!src.must_hold || r.bugs.is_empty())
}

/// The work counts a campaign reports exactly: pure functions of the
/// seed, so two runs of one seed must read the same.
pub(crate) fn exact_counts(r: &CampaignResult) -> Vec<(String, u64)> {
    let counter = |name: &str| {
        r.telemetry
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let goal_sat = r.covmap.goals.iter().filter(|g| g.status == "sat").count() as u64;
    [
        ("fuzz.vectors", r.vectors),
        ("fuzz.coverage_points", r.coverage_points),
        ("sim.steps", counter("sim_steps")),
        ("sim.settle_fast_path", counter("settle_fast_path")),
        ("sim.settle_escapes", counter("settle_escapes")),
        ("sim.snapshot_restores", counter("snapshot_restores")),
        (
            "sim.snapshot_pages_copied",
            r.resources.snapshot_pages_copied,
        ),
        ("sim.replayed_cycles", counter("replayed_cycles")),
        ("symexec.solver_calls", counter("solver_calls")),
        ("smt.sat_vars", counter("sat_vars")),
        ("smt.sat_clauses", counter("sat_clauses")),
        ("smt.sat_conflicts", counter("sat_conflicts")),
        ("smt.sat_decisions", counter("sat_decisions")),
        ("smt.budget_exhaustions", counter("budget_exhaustions")),
        ("fuzz.goal_attempts", r.covmap.goals.len() as u64),
        ("fuzz.goal_sat", goal_sat),
        ("fuzz.neg_cache_hits", counter("neg_cache_hits")),
        ("fuzz.rollbacks", r.resources.rollbacks),
        ("fuzz.full_resets", r.resources.full_resets),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

/// Adds `more` into `acc`, count by count (for bug hunts, whose first
/// round spans fourteen campaigns).
pub(crate) fn add_counts(acc: &mut Vec<(String, u64)>, more: Vec<(String, u64)>) {
    if acc.is_empty() {
        *acc = more;
        return;
    }
    for ((_, a), (_, m)) in acc.iter_mut().zip(more) {
        *a += m;
    }
}
