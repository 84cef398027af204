//! Equivalence of the two settle engines — the compiled bytecode VM
//! against the global fixpoint, the one four-state reference —
//! exercised on every design shipped in `crates/designs`.
//!
//! The compiled word-level VM (a levelized sweep with dirty-unit
//! skipping) is only an optimisation if it is *observably identical*
//! to the fixpoint it replaces: same signal values every cycle (including
//! X-propagation from the all-X power-up state, with no reset
//! applied — the compiled VM must escape to the four-state interpreter
//! for exactly those cones), same set of exercised branch outcomes,
//! same campaign coverage series, and the same `CombLoop` error on
//! genuinely cyclic designs.

use std::collections::BTreeSet;
use std::sync::Arc;
use symbfuzz_core::{FuzzConfig, SettlePolicy, Strategy, SymbFuzz};
use symbfuzz_designs::{bug_benchmarks, processor_benchmarks};
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::{elaborate_src, BranchId, Design};
use symbfuzz_sim::{Reentry, SettleMode, SimError, Simulator};

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

/// The set of `(branch, outcome)` pairs with a nonzero hit counter.
fn toggled_set(sim: &Simulator) -> BTreeSet<(usize, usize)> {
    let mut set = BTreeSet::new();
    for (bi, _) in sim.design().branches.iter().enumerate() {
        for (oi, &hits) in sim.branch_hits(BranchId(bi as u32)).iter().enumerate() {
            if hits > 0 {
                set.insert((bi, oi));
            }
        }
    }
    set
}

/// Runs compiled and fixpoint simulators in lockstep on one design and
/// asserts bit-identical signal values at every observation point.
fn assert_lockstep(design: &Arc<Design>, name: &str, cycles: u32) {
    let mut cmp = Simulator::new(Arc::clone(design));
    assert_eq!(cmp.settle_mode(), SettleMode::Compiled);
    let mut fix = Simulator::new(Arc::clone(design));
    fix.set_settle_mode(SettleMode::Fixpoint);
    fix.settle().expect("acyclic design settles under fixpoint");

    let check = |cmp: &Simulator, fix: &Simulator, what: &str| {
        assert_eq!(
            cmp.values(),
            fix.values(),
            "{name}: {what} (compiled vs fixpoint)"
        );
    };
    check(&cmp, &fix, "initial all-X settle");

    // X-propagation phase: clock the un-reset design so register Xes
    // flow through the combinational logic in both engines (the
    // compiled VM escapes per cone here).
    for c in 0..4 {
        cmp.step();
        fix.step();
        check(&cmp, &fix, &format!("un-reset cycle {c}"));
    }

    cmp.reenter(Reentry::FullReset { cycles: 2 });
    fix.reenter(Reentry::FullReset { cycles: 2 });
    check(&cmp, &fix, "post-reset state");

    let width = design.fuzz_width();
    let mut state = 0x5EED_0BAD ^ name.len() as u64;
    let mut store_cmp = cmp.snapshot_store(u64::MAX);
    let mut store_fix = fix.snapshot_store(u64::MAX);
    let mut snaps = None;
    for c in 0..cycles {
        let word = next_word(width, &mut state);
        cmp.apply_input_word(&word);
        fix.apply_input_word(&word);
        cmp.step();
        fix.step();
        check(&cmp, &fix, &format!("cycle {c}"));
        if c == cycles / 2 {
            snaps = Some((
                cmp.fork(&mut store_cmp, None).id,
                fix.fork(&mut store_fix, None).id,
            ));
        }
    }

    // Re-enter the mid-run checkpoints and diverge identically again.
    let (cs, fs) = snaps.expect("snapshot taken");
    cmp.enter(&store_cmp, cs);
    fix.enter(&store_fix, fs);
    for c in 0..8 {
        let word = next_word(width, &mut state);
        cmp.apply_input_word(&word);
        fix.apply_input_word(&word);
        cmp.step();
        fix.step();
        check(&cmp, &fix, &format!("post-restore cycle {c}"));
    }

    // Branch-outcome parity: the fixpoint re-executes settled processes
    // while iterating, so raw hit *counters* legitimately differ, but
    // every outcome either engine exercises must be exercised by both.
    assert_eq!(
        toggled_set(&cmp),
        toggled_set(&fix),
        "{name}: toggled sets differ (compiled vs fixpoint)"
    );
}

#[test]
fn bug_designs_match_fixpoint_bit_for_bit() {
    for b in bug_benchmarks() {
        let design = b.design().expect("benchmark elaborates");
        assert_lockstep(&design, b.name, 120);
    }
}

#[test]
fn processor_designs_match_fixpoint_bit_for_bit() {
    for b in processor_benchmarks() {
        let design = b.design().expect("benchmark elaborates");
        assert!(
            Simulator::new(Arc::clone(&design)).schedule().is_acyclic(),
            "{}: processor schedule unexpectedly cyclic",
            b.name
        );
        assert_lockstep(&design, b.name, 200);
    }
}

#[test]
fn comb_loop_reported_under_all_modes() {
    let design = Arc::new(
        elaborate_src(
            "module m(input a, output y);
               wire t;
               assign t = a ? !y : 1'b0;
               assign y = t;
             endmodule",
            "m",
        )
        .unwrap(),
    );
    for mode in [SettleMode::Compiled, SettleMode::Fixpoint] {
        let mut s = Simulator::new(Arc::clone(&design));
        s.set_settle_mode(mode);
        let a = s.design().signal_by_name("a").unwrap();
        s.set_input(a, &LogicVec::from_u64(1, 0)).unwrap();
        s.settle().unwrap();
        s.set_input(a, &LogicVec::from_u64(1, 1)).unwrap();
        assert_eq!(s.settle(), Err(SimError::CombLoop), "{mode:?}");
        assert!(s.comb_unstable(), "{mode:?}");
    }
}

/// Full-campaign A/B: the fuzzer observes signal values and toggled
/// outcomes, so a whole campaign — coverage series included — must be
/// identical under both settling strategies, for every fuzzing
/// strategy.
///
/// The only sanctioned divergence is the settle-engine's own
/// telemetry: `settle_fast_path` / `settle_escapes` counters and the
/// `x_island_cones` gauge describe *how* the engine settled, not what
/// the design did, so they are zeroed before comparison (the same
/// carve-out the once-per-settle `settle_sweeps` invariant covers by
/// construction).
#[test]
fn campaign_coverage_series_match_across_modes() {
    let run = |policy: SettlePolicy, design: &Arc<Design>, props: &[_], strategy| {
        let config = FuzzConfig {
            interval: 100,
            threshold: 2,
            max_vectors: 2_000,
            seed: 0xAB,
            settle_policy: policy,
            ..FuzzConfig::default()
        };
        let mut fuzzer =
            SymbFuzz::new(Arc::clone(design), strategy, config, props).expect("properties compile");
        let mut result = fuzzer.run();
        for (name, v) in result
            .telemetry
            .counters
            .iter_mut()
            .chain(result.telemetry.gauges.iter_mut())
        {
            if matches!(
                name.as_str(),
                "settle_fast_path" | "settle_escapes" | "x_island_cones"
            ) {
                *v = 0;
            }
        }
        result
    };
    let procs = processor_benchmarks();
    let b = &procs[0];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    for strategy in Strategy::all() {
        let cmp = run(SettlePolicy::Compiled, &design, &props, strategy);
        let fix = run(SettlePolicy::Fixpoint, &design, &props, strategy);
        assert_eq!(
            serde_json::to_string(&cmp).unwrap(),
            serde_json::to_string(&fix).unwrap(),
            "campaign diverged compiled vs fixpoint for {}",
            strategy.name()
        );
    }
}
