//! Settle-engine A/B/C throughput: simulated cycles per second under
//! the global fixpoint, the levelized dirty-set sweep and the compiled
//! word-level VM, on every benchmark design. Emits
//! `results/BENCH_sim.json` with the full three-way table; earlier
//! row-sets found in that file are preserved under `history` so the
//! performance trajectory across revisions stays auditable.
//!
//! Usage: `simbench [cycles] [--settle-mode MODE] [--log-level LEVEL]`
//! (default 20000 cycles). With `--settle-mode` only the named engine
//! is timed — a quick profiling mode that prints cyc/s without
//! speedups and leaves `results/BENCH_sim.json` untouched.

use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;
use std::time::Instant;
use symbfuzz_bench::render::save_json;
use symbfuzz_bench::{exit_usage, parse_bench_args, ArgError};
use symbfuzz_core::SettlePolicy;
use symbfuzz_designs::{bug_benchmarks, processor_benchmarks};
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::Design;
use symbfuzz_sim::{Reentry, SettleMode, Simulator};

/// One design's three-way throughput measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SimBenchRow {
    design: String,
    /// Cycles simulated per timed run.
    cycles: u64,
    /// Combinational processes in the schedule.
    comb_procs: u64,
    /// Cyclic schedule units (0 = pure single sweep).
    cyclic_units: u64,
    /// Processes the bytecode compiler lowered (vs interpreted).
    compiled_procs: u64,
    /// Steps/sec under the original global fixpoint.
    fixpoint_cps: f64,
    /// Steps/sec under the levelized dirty-set sweep.
    levelized_cps: f64,
    /// Steps/sec under the compiled word-level VM.
    compiled_cps: f64,
    /// levelized_cps / fixpoint_cps.
    speedup_levelized: f64,
    /// compiled_cps / levelized_cps.
    speedup_compiled: f64,
}

fn throughput(design: &Arc<Design>, mode: SettleMode, cycles: u64) -> f64 {
    let mut sim = Simulator::new(Arc::clone(design));
    sim.set_settle_mode(mode);
    sim.reenter(Reentry::FullReset { cycles: 2 });
    let width = design.fuzz_width().max(1);
    let mut state = 0xBEEFu64;
    // Warm up caches and settle into steady state.
    for _ in 0..200 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        sim.apply_input_word(&LogicVec::from_u64(width.min(64), state));
        sim.step();
    }
    let start = Instant::now();
    for _ in 0..cycles {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        sim.apply_input_word(&LogicVec::from_u64(width.min(64), state));
        sim.step();
    }
    cycles as f64 / start.elapsed().as_secs_f64()
}

/// Prior row-sets to carry forward: whatever `results/BENCH_sim.json`
/// currently holds — a bare row array from before the compiled kernel,
/// or a `{rows, history}` object from this format — flattened into a
/// single chronological list of row-sets.
fn load_history() -> Vec<Value> {
    let mut history = Vec::new();
    if let Ok(text) = std::fs::read_to_string("results/BENCH_sim.json") {
        if let Ok(v) = serde_json::from_str::<Value>(&text) {
            match v {
                Value::Array(_) => history.push(v),
                Value::Object(_) => {
                    if let Ok(Value::Array(h)) = v.field("history") {
                        history.extend(h.iter().cloned());
                    }
                    if let Ok(rows) = v.field("rows") {
                        history.push(rows.clone());
                    }
                }
                _ => {}
            }
        }
    }
    history
}

fn main() {
    // `--settle-mode` here selects the single engine to time, so the
    // binary takes it itself rather than as a campaign knob.
    let mut args = parse_bench_args(&["--settle-mode"]);
    let only = match args.take_value("--settle-mode") {
        Ok(None) => None,
        Ok(Some(v)) => Some(SettlePolicy::parse(&v).unwrap_or_else(|| {
            exit_usage(&ArgError::BadValue {
                what: "--settle-mode".into(),
                value: v,
            })
        })),
        Err(e) => exit_usage(&e),
    };
    let cycles: u64 = args.pos(0, 20_000);
    let procs = processor_benchmarks();
    let bugs = bug_benchmarks();
    let designs: Vec<(String, Arc<Design>)> = procs
        .iter()
        .map(|b| (b.name.to_string(), b.design().expect("elaborates")))
        .chain(
            bugs.iter()
                .map(|b| (b.name.to_string(), b.design().expect("elaborates"))),
        )
        .collect();

    if let Some(policy) = only {
        // Single-engine profiling mode: no speedups, no JSON.
        println!(
            "# Simulator throughput — `{}` engine, {cycles} cycles per run\n",
            policy.name()
        );
        println!("| Design | cyc/s |");
        println!("|---|---|");
        for (name, design) in &designs {
            let cps = throughput(design, policy.to_mode(), cycles);
            println!("| {name} | {cps:.0} |");
        }
        return;
    }

    let mut rows = Vec::new();
    println!("# Simulator settle-engine A/B/C — {cycles} cycles per run\n");
    println!(
        "| Design | comb procs | compiled procs | fixpoint cyc/s | levelized cyc/s \
         | compiled cyc/s | lev/fix | cmp/lev |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (name, design) in &designs {
        let sim = Simulator::new(Arc::clone(design));
        let sched = sim.schedule().clone();
        let compiled_procs = sim.compile_stats().compiled as u64;
        drop(sim);
        let fixpoint_cps = throughput(design, SettleMode::Fixpoint, cycles);
        let levelized_cps = throughput(design, SettleMode::Levelized, cycles);
        let compiled_cps = throughput(design, SettleMode::Compiled, cycles);
        let row = SimBenchRow {
            design: name.clone(),
            cycles,
            comb_procs: sched.comb_procs() as u64,
            cyclic_units: sched.cyclic_units as u64,
            compiled_procs,
            fixpoint_cps,
            levelized_cps,
            compiled_cps,
            speedup_levelized: levelized_cps / fixpoint_cps,
            speedup_compiled: compiled_cps / levelized_cps,
        };
        println!(
            "| {} | {} | {} | {:.0} | {:.0} | {:.0} | {:.2}× | {:.2}× |",
            row.design,
            row.comb_procs,
            row.compiled_procs,
            row.fixpoint_cps,
            row.levelized_cps,
            row.compiled_cps,
            row.speedup_levelized,
            row.speedup_compiled
        );
        rows.push(row);
    }
    let geomean =
        (rows.iter().map(|r| r.speedup_compiled.ln()).sum::<f64>() / rows.len() as f64).exp();
    println!(
        "\ngeomean compiled/levelized speedup: {geomean:.2}× across {} designs \
         (acceptance: ≥3× on ibex_like and cva6_like)",
        rows.len()
    );
    for want in ["ibex_like", "cva6_like"] {
        if let Some(r) = rows.iter().find(|r| r.design == want) {
            println!(
                "  {want}: {:.2}× compiled over levelized ({:.0} → {:.0} cyc/s)",
                r.speedup_compiled, r.levelized_cps, r.compiled_cps
            );
        }
    }
    let out = Value::Object(vec![
        ("rows".into(), rows.to_value()),
        (
            "geomean_compiled_over_levelized".into(),
            Value::Num(geomean),
        ),
        ("history".into(), Value::Array(load_history())),
    ]);
    save_json("BENCH_sim", &out).expect("write results/BENCH_sim.json");
}
