//! History-independence of the warm frame chain, goal by goal.
//!
//! Every engine solves on one warm frame chain per start state (the
//! frame cache, [`SymbolicEngine::cache_stats`]). The chain is only an
//! optimisation if the engine's history is *unobservable* in its
//! verdicts: a long-lived engine must give the same Sat / Unsat /
//! Unknown-reason verdict for every `(state, goal, depth)` query as a
//! never-queried clone of it — the same code with no history — and the
//! same shortest plan length on Sat (models may legitimately differ:
//! warm sessions carry learned clauses that steer CDCL to a different
//! witness). That must hold across start-state switches too, each of
//! which drops the one warm session and seeds a cold one.
//!
//! Swept deterministically over the toy ALU, the goal-dense fabric and
//! a Table-1 bug benchmark, then property-tested on the toy ALU with
//! proptest-chosen states and goal values.

use std::sync::Arc;
use symbfuzz_designs::{bug_benchmarks, goal_fabric, toy_alu};
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::{Design, SignalId};
use symbfuzz_sim::{Reentry, Simulator};
use symbfuzz_smt::Budget;
use symbfuzz_symexec::{ReachOutcome, SymbolicEngine};

/// The part of a state the solver sees (and the frame cache keys on).
fn registers(design: &Design, state: &[LogicVec]) -> Vec<LogicVec> {
    design
        .signals
        .iter()
        .zip(state)
        .filter(|(s, _)| s.is_register)
        .map(|(_, v)| v.clone())
        .collect()
}

/// Deterministic input-word generator (64-bit LCG, chunked to width).
fn next_word(width: u32, state: &mut u64) -> LogicVec {
    let mut out = LogicVec::zeros(0);
    let mut remaining = width;
    while remaining > 0 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let take = remaining.min(64);
        out = LogicVec::concat(&LogicVec::from_u64(take, *state), &out);
        remaining -= take;
    }
    out
}

/// Reachable states to pose goals from: the post-reset state plus
/// snapshots after a few cycles of deterministic random stimulus.
fn sample_states(design: &Arc<Design>, seed: u64) -> Vec<Vec<LogicVec>> {
    let mut sim = Simulator::new(Arc::clone(design));
    sim.reenter(Reentry::FullReset { cycles: 2 });
    let mut states = vec![sim.values().to_vec()];
    let width = design.fuzz_width();
    let mut lcg = seed;
    for cycle in 0..5u32 {
        let word = next_word(width, &mut lcg);
        sim.apply_input_word(&word);
        sim.step();
        if cycle == 1 || cycle == 4 {
            states.push(sim.values().to_vec());
        }
    }
    states
}

/// Narrow registers make good goals: wide ones (the fabric's 24-bit
/// product) turn a verdict check into a multiplier-UNSAT endurance run.
fn goal_registers(design: &Arc<Design>, max_width: u32, cap: usize) -> Vec<SignalId> {
    let mut regs: Vec<SignalId> = design
        .signals
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_register && s.width <= max_width)
        .map(|(i, _)| SignalId(i as u32))
        .collect();
    regs.truncate(cap);
    regs
}

/// Poses one query to the long-lived `warm` engine and to a fresh clone
/// of the never-queried `pristine` one, and asserts verdict (and, on
/// Sat, shortest-plan-length) equality.
fn assert_same_verdict(
    pristine: &SymbolicEngine,
    warm: &SymbolicEngine,
    state: &[LogicVec],
    goal: (SignalId, LogicVec),
    max_steps: u32,
    budget: &Budget,
    what: &str,
) {
    let name = &pristine.design().signal(goal.0).name;
    let (f, _) = pristine
        .clone()
        .solve_reach_profiled(state, &[(goal.0, goal.1.clone())], max_steps, budget)
        .unwrap_or_else(|e| panic!("{what}: never-queried solve of {name} failed: {e}"));
    let (w, _) = warm
        .solve_reach_profiled(state, &[(goal.0, goal.1.clone())], max_steps, budget)
        .unwrap_or_else(|e| panic!("{what}: warm solve of {name} failed: {e}"));
    assert_eq!(
        f.status(),
        w.status(),
        "{what}: verdict diverges on goal {name} == {:?}",
        goal.1.to_u64()
    );
    if let (ReachOutcome::Reached(fs), ReachOutcome::Reached(ws)) = (&f, &w) {
        assert_eq!(
            fs.len(),
            ws.len(),
            "{what}: shortest plan length diverges on goal {name}"
        );
    }
}

/// Full deterministic sweep of one design: every sampled state crossed
/// with every goal, under an unlimited budget at bounds 3 and 1.
fn sweep_design(design: Arc<Design>, label: &str) -> SymbolicEngine {
    let pristine = SymbolicEngine::new(Arc::clone(&design));
    let warm = pristine.clone();
    let states = sample_states(&design, 0x5EED ^ label.len() as u64);
    let regs = goal_registers(&design, 8, 5);
    assert!(!regs.is_empty(), "{label}: no narrow registers to target");
    let unlimited = Budget::unlimited();
    for (si, state) in states.iter().enumerate() {
        for &reg in &regs {
            let w = design.signal(reg).width;
            let mut values = vec![0u64, 1, (1u64 << w.min(63)) - 1];
            values.dedup();
            for v in values {
                let goal = (reg, LogicVec::from_u64(w, v));
                assert_same_verdict(
                    &pristine,
                    &warm,
                    state,
                    goal.clone(),
                    3,
                    &unlimited,
                    &format!("{label} state {si} unlimited"),
                );
                assert_same_verdict(
                    &pristine,
                    &warm,
                    state,
                    goal,
                    1,
                    &unlimited,
                    &format!("{label} state {si} depth-1"),
                );
            }
        }
    }
    warm
}

#[test]
fn warm_matches_never_queried_on_toy_alu() {
    let warm = sweep_design(toy_alu(), "toy_alu");
    let stats = warm.cache_stats();
    assert!(stats.goals > 0, "cache never consulted: {stats:?}");
    assert!(
        stats.reused_goals > 0,
        "no goal ever reused a warm session: {stats:?}"
    );
    assert!(
        stats.frame_hits > 0,
        "no frame ever reused a warm unroll: {stats:?}"
    );
}

#[test]
fn warm_matches_never_queried_on_goal_fabric() {
    let warm = sweep_design(goal_fabric(), "goalfabric");
    let stats = warm.cache_stats();
    assert!(stats.reused_goals > 0, "fabric sweep never warm: {stats:?}");
}

#[test]
fn warm_matches_never_queried_on_bug_benchmark() {
    let bug = &bug_benchmarks()[0];
    let design = bug.design().expect("bug benchmark elaborates");
    sweep_design(design, bug.name);
}

#[test]
fn warm_matches_never_queried_when_start_states_alternate() {
    // State-minor order: consecutive queries come from different start
    // states, so each switch drops the warm session and the next query
    // blasts its whole frame chain afresh. Verdicts must still match.
    let design = toy_alu();
    let pristine = SymbolicEngine::new(Arc::clone(&design));
    let warm = pristine.clone();
    let states = sample_states(&design, 0x5EED);
    let budget = Budget::unlimited();
    let mut prev: Option<Vec<LogicVec>> = None;
    let mut switches = 0u32;
    for reg in goal_registers(&design, 8, 5) {
        let w = design.signal(reg).width;
        for v in [0u64, 1, (1u64 << w.min(63)) - 1] {
            let goal = [(reg, LogicVec::from_u64(w, v))];
            for (si, state) in states.iter().enumerate() {
                let misses = warm.cache_stats().frame_misses;
                let (f, _) = pristine
                    .clone()
                    .solve_reach_profiled(state, &goal, 3, &budget)
                    .unwrap();
                let (w_out, stats) = warm.solve_reach_profiled(state, &goal, 3, &budget).unwrap();
                assert_eq!(f.status(), w_out.status(), "state {si}, goal {v}");
                let regs = registers(&design, state);
                if prev.as_ref().is_some_and(|p| *p != regs) {
                    switches += 1;
                    assert_eq!(
                        warm.cache_stats().frame_misses - misses,
                        u64::from(stats.deepest_unroll),
                        "state {si}: the switch kept warm frames"
                    );
                }
                prev = Some(regs);
            }
        }
    }
    assert!(switches > 0, "the sampled states never differ");
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Arbitrary stimulus seeds and goal values on the toy ALU:
        /// the warm engine's verdict always matches a never-queried
        /// clone's.
        #[test]
        fn toy_alu_verdicts_match(seed in any::<u64>(), raw in any::<u64>(), depth in 1u32..4) {
            let design = toy_alu();
            let pristine = SymbolicEngine::new(Arc::clone(&design));
            let warm = pristine.clone();
            let states = sample_states(&design, seed);
            let regs = goal_registers(&design, 8, 4);
            let budget = Budget::unlimited();
            for state in &states {
                for &reg in &regs {
                    let w = design.signal(reg).width;
                    let v = raw & ((1u64 << w.min(63)) - 1);
                    let goal = (reg, LogicVec::from_u64(w, v));
                    assert_same_verdict(
                        &pristine, &warm, state, goal, depth, &budget, "proptest",
                    );
                }
            }
        }
    }
}
