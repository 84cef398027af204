//! Soundness oracle for the symbolic engine's image memo.
//!
//! The first time the engine's depth schedule proves a single-target
//! goal unreachable, it probes once whether any state and input,
//! resets inactive, produce the value in one clock edge, and if some
//! state does, whether any state that does not already hold it does.
//! The memo keeps one of two verdicts that answer later queries without
//! a solve:
//!
//! - *dead*: no state produces the value, so no query from any start
//!   can reach it;
//! - *held-only*: only a state that already holds the value produces
//!   it, so no query from a start whose register holds another, fully
//!   defined value can reach it (1-induction on `register != value`).
//!
//! On every shipped design this poses each value of each small control
//! register from the post-reset state at depth 1, under a conflict
//! ceiling, then poses each `Unreachable` one again: an `Unreachable`
//! that ran no solve is a memo-answered value, dead or held-only from
//! the post-reset state. Seeded stimulus from reset must then never
//! drive a control register to such a value.
//!
//! Only clock edges whose pre-state registers are all known are
//! checked. On an `X` state the four-state simulator can take branches
//! the two-state equations cannot; that mismatch is a separate, known
//! gap between solver and simulator, not part of this check.

use std::sync::Arc;
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::{classify_registers, Design, SignalId};
use symbfuzz_sim::{Reentry, Simulator};
use symbfuzz_smt::Budget;
use symbfuzz_symexec::{ReachOutcome, SymbolicEngine};

/// Control registers up to this width have every value posed.
const MAX_WIDTH: u32 = 4;

/// Per-query conflict ceiling while looking for dead values.
const CEILING: u64 = 200;

/// Clock edges of seeded stimulus per design, with a reset every
/// `RESET_EVERY` of them.
const CYCLES: u32 = 3_000;
const RESET_EVERY: u32 = 250;

/// The processors, peripherals, the 14 Table-1 bugs, goalfabric,
/// toy_alu and hard_factor.
fn shipped() -> Vec<(String, Arc<Design>)> {
    let mut out = Vec::new();
    let benches = symbfuzz_designs::processor_benchmarks()
        .into_iter()
        .chain(symbfuzz_designs::peripheral_benchmarks());
    for b in benches {
        out.push((
            b.name.to_string(),
            b.design().expect("benchmark elaborates"),
        ));
    }
    for b in symbfuzz_designs::bug_benchmarks() {
        let name = format!("bug{:02}_{}", b.id, b.name);
        out.push((name, b.design().expect("bug benchmark elaborates")));
    }
    out.push(("goalfabric".into(), symbfuzz_designs::goal_fabric()));
    out.push(("toy_alu".into(), symbfuzz_designs::toy_alu()));
    out.push(("hard_factor".into(), symbfuzz_designs::hard_factor()));
    out
}

/// 64-bit LCG step.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// A `width`-bit word of seeded stimulus.
fn word(width: u32, seed: &mut u64) -> LogicVec {
    let mut out = LogicVec::zeros(0);
    let mut remaining = width;
    while remaining > 0 {
        let take = remaining.min(53);
        out = LogicVec::concat(&LogicVec::from_u64(take, lcg(seed)), &out);
        remaining -= take;
    }
    out
}

/// The values of `design`'s small control registers that the engine's
/// memo answers from the post-reset state: dead, or held-only with the
/// register holding another value after reset.
fn dead_values(design: &Arc<Design>) -> Vec<(SignalId, LogicVec)> {
    let engine = SymbolicEngine::new(Arc::clone(design));
    let mut sim = Simulator::new(Arc::clone(design));
    sim.reenter(Reentry::FullReset { cycles: 2 });
    let budget = Budget::unlimited().with_conflicts(CEILING);
    let mut dead = Vec::new();
    for reg in classify_registers(design).control {
        let w = design.signal(reg).width;
        if w > MAX_WIDTH {
            continue;
        }
        for v in 0..1u64 << w {
            let goal = [(reg, LogicVec::from_u64(w, v))];
            let pose = || {
                engine
                    .solve_reach_profiled(sim.values(), &goal, 1, &budget)
                    .expect("goal is posable")
            };
            if pose().0 != ReachOutcome::Unreachable {
                continue;
            }
            let (again, stats) = pose();
            assert_eq!(again, ReachOutcome::Unreachable, "a repeated query changed");
            if stats.solver_calls == 0 {
                dead.extend(goal);
            }
        }
    }
    dead
}

#[test]
fn values_declared_dead_are_never_observed() {
    let mut designs_with_dead = 0;
    let mut checked_edges = 0u64;
    let mut memo_answered = Vec::new();
    for (i, (name, design)) in shipped().into_iter().enumerate() {
        let dead = dead_values(&design);
        if dead.is_empty() {
            continue;
        }
        designs_with_dead += 1;
        memo_answered.extend(
            dead.iter()
                .map(|(reg, v)| (name.clone(), design.signal(*reg).name.clone(), v.to_u64())),
        );
        let mut seed = 0xDEAD ^ i as u64;
        let mut sim = Simulator::new(Arc::clone(&design));
        for cycle in 0..CYCLES {
            if cycle % RESET_EVERY == 0 {
                sim.reenter(Reentry::FullReset { cycles: 1 });
            }
            let known = design.registers().all(|r| !sim.get(r).has_unknown());
            sim.apply_input_word(&word(design.fuzz_width(), &mut seed));
            sim.step();
            if !known {
                continue;
            }
            checked_edges += 1;
            for (reg, value) in &dead {
                assert_ne!(
                    sim.get(*reg),
                    value,
                    "{name}: `{}` = {:?} was declared dead but holds after cycle {cycle}",
                    design.signal(*reg).name,
                    value.to_u64()
                );
            }
        }
    }
    assert!(designs_with_dead > 0, "no design has a dead value");
    // No cva6_like arm writes exception state 3; only the flush hold
    // keeps it, so it is held-only, not dead.
    let held_only = ("cva6_like".to_string(), "exc_state".to_string(), Some(3));
    assert!(
        memo_answered.contains(&held_only),
        "cva6_like exc_state = 3 was not memo-answered: {memo_answered:?}"
    );
    assert!(
        checked_edges > 0,
        "no clock edge started from a known state"
    );
}

#[test]
fn image_probes_spend_inside_the_query_budget() {
    // hard_factor's lock leaves st = 0 only when two 20-bit inputs
    // multiply to a 40-bit semiprime, and from st = 2 it holds st.
    let design = symbfuzz_designs::hard_factor();
    let engine = SymbolicEngine::new(Arc::clone(&design));
    let st = design.signal_by_name("st").expect("hard_factor has st");
    let ceiling = 300;
    let budget = Budget::unlimited().with_conflicts(ceiling);
    let state = |v: u64| {
        let mut s: Vec<LogicVec> = design
            .signals
            .iter()
            .map(|s| LogicVec::zeros(s.width))
            .collect();
        s[st.index()] = LogicVec::from_u64(2, v);
        s
    };
    let one = [(st, LogicVec::from_u64(2, 1))];
    // From st = 2 the goal folds to false, but the probe's free start
    // state makes it the factoring instance: it runs out of budget.
    let (outcome, first) = engine
        .solve_reach_profiled(&state(2), &one, 1, &budget)
        .expect("goal is posable");
    assert_eq!(outcome, ReachOutcome::Unreachable);
    assert_eq!(first.solver_calls, 2, "one schedule solve and the probe");
    assert!(
        first.spent.conflicts > 0 && first.spent.conflicts <= ceiling,
        "{:?}",
        first.spent
    );
    // Undecided means live: the next query runs the schedule again.
    let (outcome, again) = engine
        .solve_reach_profiled(&state(2), &one, 1, &budget)
        .expect("goal is posable");
    assert_eq!(outcome, ReachOutcome::Unreachable);
    assert_eq!(again.solver_calls, 1, "{again:?}");
    // No query, probe included, spends past the ceiling.
    for from in 0..4 {
        for to in 0..4 {
            let goal = [(st, LogicVec::from_u64(2, to))];
            let (_, stats) = engine
                .solve_reach_profiled(&state(from), &goal, 2, &budget)
                .expect("goal is posable");
            assert!(
                stats.spent.conflicts <= ceiling,
                "st {from} -> {to}: {stats:?}"
            );
        }
    }
}
