//! Criterion microbenchmarks backing the paper's performance claims:
//!
//! * simulator throughput (the substrate for all vector counts);
//! * step and settle throughput under the compiled word-level VM vs
//!   the levelized scheduler vs the original global fixpoint (the
//!   simulation tentpoles' A/B/C);
//! * netlist-to-bytecode compile time (the compiled kernel's one-off
//!   construction cost, paid once per `Simulator::new`);
//! * checkpoint snapshot-restore vs full reset + input replay — the
//!   §5.5.2 claim that "checkpoint replays finish in microseconds,
//!   avoiding full reboots";
//! * SMT solving latency for dependency-equation targets (§4.7);
//! * bit-blasting + CDCL on adder equivalence (solver substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use symbfuzz_designs::processor_benchmarks;
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::{comb_schedule, compile, CompileOpts};
use symbfuzz_sim::{Reentry, SettleMode, Simulator};
use symbfuzz_smt::{Budget, BvSolver, SatOutcome};
use symbfuzz_symexec::SymbolicEngine;

fn sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    for b in processor_benchmarks() {
        let design = b.design().unwrap();
        group.bench_with_input(
            BenchmarkId::new("100_cycles", b.name),
            &design,
            |bench, d| {
                let mut sim = Simulator::new(Arc::clone(d));
                sim.reenter(Reentry::FullReset { cycles: 2 });
                let word = LogicVec::from_u64(d.fuzz_width().max(1), 0x5A5A);
                bench.iter(|| {
                    sim.apply_input_word(&word);
                    for _ in 0..100 {
                        sim.step();
                    }
                    sim.cycle()
                });
            },
        );
    }
    group.finish();
}

/// Tentpole A/B/C: per-step cost (clock + settles) under the compiled
/// word-level VM vs the levelized dirty-set sweep vs the global
/// fixpoint, on every processor design.
fn step_throughput_by_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_throughput");
    for b in processor_benchmarks() {
        let design = b.design().unwrap();
        for (label, mode) in [
            ("compiled", SettleMode::Compiled),
            ("levelized", SettleMode::Levelized),
            ("fixpoint", SettleMode::Fixpoint),
        ] {
            let id = BenchmarkId::new(label, b.name);
            group.bench_with_input(id, &design, |bench, d| {
                let mut sim = Simulator::new(Arc::clone(d));
                sim.set_settle_mode(mode);
                sim.reenter(Reentry::FullReset { cycles: 2 });
                let width = d.fuzz_width().max(1);
                let mut i = 0u64;
                bench.iter(|| {
                    i = i.wrapping_add(0x9E3779B97F4A7C15);
                    sim.apply_input_word(&LogicVec::from_u64(width.min(64), i));
                    sim.step();
                    sim.cycle()
                });
            });
        }
    }
    group.finish();
}

/// Settle-only cost: one input toggle then a combinational settle, the
/// unit the dirty-set skipping optimises hardest (few units re-run).
fn settle_throughput_by_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("settle_throughput");
    for b in processor_benchmarks() {
        let design = b.design().unwrap();
        for (label, mode) in [
            ("compiled", SettleMode::Compiled),
            ("levelized", SettleMode::Levelized),
            ("fixpoint", SettleMode::Fixpoint),
        ] {
            let id = BenchmarkId::new(label, b.name);
            group.bench_with_input(id, &design, |bench, d| {
                let mut sim = Simulator::new(Arc::clone(d));
                sim.set_settle_mode(mode);
                sim.reenter(Reentry::FullReset { cycles: 2 });
                let width = d.fuzz_width().max(1);
                let mut i = 0u64;
                bench.iter(|| {
                    i = i.wrapping_add(1);
                    sim.apply_input_word(&LogicVec::from_u64(width.min(64), i));
                    sim.settle().is_ok()
                });
            });
        }
    }
    group.finish();
}

/// The compiled kernel's one-off construction cost: lowering the
/// elaborated netlist + levelized schedule into word bytecode. Paid
/// once per `Simulator::new`, so it only has to be small next to a
/// campaign, not next to a step.
fn bytecode_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("bytecode_compile");
    for b in processor_benchmarks() {
        let design = b.design().unwrap();
        let sched = comb_schedule(&design);
        group.bench_with_input(BenchmarkId::new("compile", b.name), &design, |bench, d| {
            bench.iter(|| compile(d, &sched, CompileOpts::default()).stats.total_ops)
        });
    }
    group.finish();
}

/// Per-dispatch cost of one settled process: the VM executing word
/// bytecode vs the interpreter walking the statement tree, isolated
/// from clocking by re-settling a single toggled cone.
fn vm_dispatch(c: &mut Criterion) {
    let b = &processor_benchmarks()[0];
    let design = b.design().unwrap();
    let mut group = c.benchmark_group("vm_dispatch");
    for (label, mode) in [
        ("compiled_vm", SettleMode::Compiled),
        ("interpreted", SettleMode::Levelized),
    ] {
        group.bench_function(label, |bench| {
            let mut sim = Simulator::new(Arc::clone(&design));
            sim.set_settle_mode(mode);
            sim.reenter(Reentry::FullReset { cycles: 2 });
            let width = design.fuzz_width().max(1);
            let mut i = 0u64;
            bench.iter(|| {
                i = i.wrapping_add(1);
                sim.apply_input_word(&LogicVec::from_u64(width.min(64), i));
                sim.settle().is_ok()
            });
        });
    }
    group.finish();
}

/// §5.5.2: snapshot restore must be dramatically cheaper than reset +
/// replaying the recorded input path.
fn checkpoint_reentry(c: &mut Criterion) {
    let b = &processor_benchmarks()[0];
    let design = b.design().unwrap();
    let mut sim = Simulator::new(Arc::clone(&design));
    sim.reenter(Reentry::FullReset { cycles: 2 });
    // Walk 200 cycles into the design and checkpoint.
    let path: Vec<LogicVec> = (0..200u64)
        .map(|i| LogicVec::from_u64(design.fuzz_width().max(1), i.wrapping_mul(0x9E37)))
        .collect();
    for w in &path {
        sim.apply_input_word(w);
        sim.step();
    }
    let mut store = sim.snapshot_store(u64::MAX);
    let snap = sim.fork(&mut store, None);

    let mut group = c.benchmark_group("checkpoint_reentry");
    group.bench_function("snapshot_enter", |bench| {
        bench.iter(|| {
            sim.enter(&store, snap.id);
            sim.cycle()
        });
    });
    group.bench_function("full_reset_plus_replay", |bench| {
        bench.iter(|| {
            sim.reenter(Reentry::FullReset { cycles: 2 });
            for w in &path {
                sim.apply_input_word(w);
                sim.step();
            }
            sim.cycle()
        });
    });
    group.finish();
}

fn symbolic_solving(c: &mut Criterion) {
    let b = &processor_benchmarks()[0];
    let design = b.design().unwrap();
    let engine = SymbolicEngine::new(Arc::clone(&design));
    let state: Vec<LogicVec> = design
        .signals
        .iter()
        .map(|s| LogicVec::zeros(s.width))
        .collect();
    let target = design.signal_by_name("if_state").unwrap();
    let mut group = c.benchmark_group("symbolic_guidance");
    let goal = [(target, LogicVec::from_u64(3, 1))];
    group.bench_function("reach_one_cycle_ibex_state", |bench| {
        bench.iter(|| engine.solve_reach_profiled(&state, &goal, 1, &Budget::unlimited()))
    });
    group.bench_function("build_engine_ibex", |bench| {
        bench.iter(|| SymbolicEngine::new(Arc::clone(&design)).num_equations())
    });
    group.finish();
}

fn sat_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("smt");
    group.bench_function("adder_equation_16bit", |bench| {
        bench.iter(|| {
            let mut s = BvSolver::new();
            let a = s.pool_mut().var("a", 16);
            let b = s.pool_mut().var("b", 16);
            let goal = {
                let p = s.pool_mut();
                let sum = p.add(a, b);
                let c1 = p.const_u64(16, 0xBEEF);
                let e1 = p.eq(sum, c1);
                let c2 = p.const_u64(16, 0x1234);
                let e2 = p.eq(a, c2);
                p.and(e1, e2)
            };
            s.assert(goal).unwrap();
            matches!(s.check().unwrap(), SatOutcome::Sat(_))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    sim_throughput,
    step_throughput_by_mode,
    settle_throughput_by_mode,
    bytecode_compile,
    vm_dispatch,
    checkpoint_reentry,
    symbolic_solving,
    sat_solver
);
criterion_main!(benches);
