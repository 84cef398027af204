//! Solve-path oracle: every way the symbolic engine answers a
//! reachability query must agree, and every plan it returns must work
//! on the simulator.
//!
//! Every engine keeps one frame chain warm per start state; an
//! introspecting twin also traces the search and probes failing goals
//! for a blame set. The reference is a *never-queried* engine: a clone
//! of a fresh engine taken before its first query, which runs the same
//! code with no history. Over a fixed-seed slice of the shipped
//! designs:
//!
//! - under an unlimited budget, at the full bound and at depth 1, from
//!   every start state, both engines reach a never-queried clone's
//!   verdict, so neither the warm chain's history nor the image memo
//!   changes one;
//! - under every limit (goalfabric also under a conflict ceiling), the
//!   introspecting engine returns its untraced twin's outcome, model
//!   included, and the same `spent` / `solver_calls` /
//!   `deepest_unroll`;
//! - every `Reached` plan, replayed in the simulator from the
//!   post-reset state it was solved from, lands the target. As in
//!   perfbench's model check, an `X` result is counted and a wrong
//!   known value fails;
//! - a never-queried engine's first query is exactly the depth
//!   schedule's verdict, so it checks the image memo: a memo answer
//!   (`Unreachable` with no solver call) must be the never-queried
//!   verdict too, under every limit. The memo answers a goal whose
//!   value is *dead* (no state produces it in one clock edge) from any
//!   start, and one whose value is *held-only* (only a state already
//!   holding it produces it) from a start whose register is fully
//!   defined and holds another value; from any other start a held-only
//!   goal runs the depth schedule, and a *live* goal always does. So no
//!   goal that either engine reached from a start whose register held
//!   another, fully defined value may ever be memo-answered.
//!
//! A never-reset start state, whose registers are `X`, is used for
//! verdict agreement only: its plans assume values the simulator does
//! not hold. The exhaustive sweep of warm engines against never-queried
//! clones lives in `crates/bench/tests/solver_equiv.rs`.

use std::collections::HashSet;
use std::sync::Arc;
use symbfuzz_designs::{bug_benchmarks, goal_fabric, processor_benchmarks, toy_alu};
use symbfuzz_logic::{Bit, LogicVec};
use symbfuzz_netlist::{classify_registers, Design, SignalId};
use symbfuzz_sim::{Reentry, Simulator};
use symbfuzz_smt::Budget;
use symbfuzz_symexec::{ReachOutcome, ReachStats, SymbolicEngine};

/// Deepest unroll any query may use.
const MAX_STEPS: u32 = 3;

/// One query's limits: its unroll bound and its budget.
type Limit = (u32, Budget);

/// What the replays saw and how many queries the image memo
/// answered, summed over a design.
#[derive(Default)]
struct Tally {
    replays: u32,
    x_results: u32,
    memo_answers: u32,
}

/// Whether the engine answered from its image memo: a dead goal runs
/// no solve.
fn memo_answer((outcome, stats): &(ReachOutcome, ReachStats)) -> bool {
    *outcome == ReachOutcome::Unreachable && stats.solver_calls == 0
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

/// Post-reset simulators to solve from: right after reset, and after a
/// few cycles of seeded stimulus when that changed some register.
fn reset_starts(design: &Arc<Design>, seed: u64) -> Vec<Simulator> {
    let mut sim = Simulator::new(Arc::clone(design));
    sim.reenter(Reentry::FullReset { cycles: 2 });
    let mut starts = vec![sim.clone()];
    let mut seed = seed;
    for _ in 0..4 {
        sim.apply_input_word(&word(design.fuzz_width(), &mut seed));
        sim.step();
    }
    if design.registers().any(|r| sim.get(r) != starts[0].get(r)) {
        starts.push(sim);
    }
    starts
}

/// The first `registers` control registers of at most 8 bits, each with
/// the values 0 (often only reachable through a reset, which plans must
/// not use) and 1 and one seeded value.
fn goals(design: &Design, registers: usize, seed: u64) -> Vec<(SignalId, LogicVec)> {
    let mut seed = seed;
    let mut goals = Vec::new();
    let regs = classify_registers(design).control;
    for reg in regs
        .into_iter()
        .filter(|&r| design.signal(r).width <= 8)
        .take(registers)
    {
        let w = design.signal(reg).width;
        let mask = (1u64 << w) - 1;
        let mut values = vec![0, 1, lcg(&mut seed) & mask];
        values.sort_unstable();
        values.dedup();
        goals.extend(values.into_iter().map(|v| (reg, LogicVec::from_u64(w, v))));
    }
    goals
}

fn query(
    e: &SymbolicEngine,
    state: &[LogicVec],
    goal: &(SignalId, LogicVec),
    (max_steps, budget): &Limit,
) -> (ReachOutcome, ReachStats) {
    e.solve_reach_profiled(state, std::slice::from_ref(goal), *max_steps, budget)
        .unwrap_or_else(|err| panic!("goal is posable: {err}"))
}

/// The traced twin must have done exactly the untraced engine's work.
fn assert_twins(
    what: &str,
    untraced: &(ReachOutcome, ReachStats),
    traced: &(ReachOutcome, ReachStats),
) {
    assert_eq!(
        untraced.0, traced.0,
        "{what}: introspection changed the outcome"
    );
    let receipt = |s: &ReachStats| (s.spent, s.solver_calls, s.deepest_unroll);
    assert_eq!(
        receipt(&untraced.1),
        receipt(&traced.1),
        "{what}: introspection changed the work"
    );
    assert!(untraced.1.scope.is_none(), "{what}: untraced scope");
    assert!(
        traced.1.scope.is_some(),
        "{what}: traced engine lost its scope"
    );
}

/// Replays `plan` from `start` and checks the goal register.
fn replay(
    what: &str,
    design: &Design,
    start: &Simulator,
    goal: &(SignalId, LogicVec),
    outcome: &ReachOutcome,
    tally: &mut Tally,
) {
    let ReachOutcome::Reached(plan) = outcome else {
        return;
    };
    let mut sim = start.clone();
    for step in plan {
        sim.apply_input_word(&step.to_word(design));
        sim.step();
    }
    tally.replays += 1;
    let got = sim.get(goal.0);
    if got.has_unknown() {
        tally.x_results += 1;
    } else {
        assert_eq!(
            *got,
            goal.1,
            "{what}: a {}-cycle plan missed `{}`",
            plan.len(),
            design.signal(goal.0).name
        );
    }
}

/// One design of the slice and the limits its goals are posed under.
struct Case {
    label: &'static str,
    design: Arc<Design>,
    /// How many control registers to target.
    registers: usize,
    /// Limits under which every verdict must be a never-queried
    /// engine's.
    contract: Vec<Limit>,
    /// Further limits, checked for twins and replays only.
    extra: Vec<Limit>,
}

/// Poses every goal of `case` from every start state under every limit
/// to both engines.
fn check_case(case: Case, seed: u64) -> Tally {
    let Case {
        label,
        design,
        registers,
        contract,
        extra,
    } = case;
    // Never queried: each clone is the reference.
    let pristine = SymbolicEngine::new(Arc::clone(&design));
    let warm = pristine.clone();
    let mut traced = pristine.clone();
    traced.set_introspection(true);
    let (mut reached, mut memo_goals) = (HashSet::new(), HashSet::new());
    let goals = goals(&design, registers, seed);
    assert!(!goals.is_empty(), "{label}: no control register to target");
    let mut starts: Vec<(Vec<LogicVec>, Option<Simulator>)> = reset_starts(&design, seed)
        .into_iter()
        .map(|sim| (sim.values().to_vec(), Some(sim)))
        .collect();
    starts.push((Simulator::new(Arc::clone(&design)).values().to_vec(), None));
    let limits = contract
        .iter()
        .map(|l| (l, true))
        .chain(extra.iter().map(|l| (l, false)));
    let mut tally = Tally::default();
    for (b, (limit, verdicts_agree)) in limits.enumerate() {
        for (s, (state, sim)) in starts.iter().enumerate() {
            for goal in &goals {
                let what = format!(
                    "{label} limit {b} start {s} goal {}={:?}",
                    design.signal(goal.0).name,
                    goal.1.to_u64()
                );
                let untraced = query(&warm, state, goal, limit);
                let introspected = query(&traced, state, goal, limit);
                assert_twins(&what, &untraced, &introspected);
                let answers = [&untraced, &introspected];
                let memo = answers.iter().filter(|a| memo_answer(a)).count() as u32;
                let mut reference = None;
                if verdicts_agree || memo > 0 {
                    let fresh = query(&pristine.clone(), state, goal, limit).0;
                    for (name, answer) in ["untraced", "introspecting"].into_iter().zip(answers) {
                        assert_eq!(
                            answer.0.status(),
                            fresh.status(),
                            "{what}: the {name} engine and a never-queried one disagree"
                        );
                    }
                    reference = Some(fresh);
                }
                tally.memo_answers += memo;
                if memo > 0 {
                    memo_goals.insert(goal.clone());
                }
                // A held-only goal may be reached from a start that
                // holds it or leaves its register unknown and still be
                // memo-answered from the others; only a reach from a
                // start holding another, defined value rules out both
                // verdicts.
                let holds_another = state[goal.0.index()].logic_eq(&goal.1) == Bit::Zero;
                if holds_another
                    && answers
                        .iter()
                        .any(|a| matches!(a.0, ReachOutcome::Reached(_)))
                {
                    reached.insert(goal.clone());
                }
                if let Some(sim) = sim {
                    replay(&what, &design, sim, goal, &untraced.0, &mut tally);
                    if let Some(fresh) = &reference {
                        replay(&what, &design, sim, goal, fresh, &mut tally);
                    }
                }
            }
        }
    }
    let wrongly_dead: Vec<_> = reached.intersection(&memo_goals).collect();
    assert!(
        wrongly_dead.is_empty(),
        "{label}: reached goals were memo-answered: {wrongly_dead:?}"
    );
    tally
}

#[test]
fn solve_paths_agree_and_plans_replay() {
    let contract = || vec![(MAX_STEPS, Budget::unlimited()), (1, Budget::unlimited())];
    let bug = &bug_benchmarks()[3];
    let slice = [
        Case {
            label: "toy_alu",
            design: toy_alu(),
            registers: 3,
            contract: contract(),
            extra: Vec::new(),
        },
        Case {
            label: "ibex_like",
            design: processor_benchmarks()[0]
                .design()
                .expect("ibex_like elaborates"),
            registers: 3,
            contract: contract(),
            extra: Vec::new(),
        },
        Case {
            label: bug.name,
            design: bug.design().expect("bug benchmark elaborates"),
            registers: 3,
            contract: contract(),
            extra: Vec::new(),
        },
        // Every fabric goal is a 24-bit factoring problem: unbudgeted
        // it would dominate the run, and under a conflict ceiling a
        // warm chain may legitimately decide what a never-queried one
        // cannot.
        Case {
            label: "goalfabric",
            design: goal_fabric(),
            registers: 1,
            contract: Vec::new(),
            extra: vec![(1, Budget::unlimited().with_conflicts(300))],
        },
    ];
    let (mut replays, mut x_results, mut memo_answers) = (0, 0, 0);
    for (i, case) in slice.into_iter().enumerate() {
        let t = check_case(case, 0x501E ^ i as u64);
        replays += t.replays;
        x_results += t.x_results;
        memo_answers += t.memo_answers;
    }
    assert!(
        replays > x_results,
        "no plan replayed to a known value ({replays} replays, {x_results} X)"
    );
    assert!(
        memo_answers > 0,
        "no query was answered from the image memo"
    );
}
