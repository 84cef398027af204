//! Bring your own RTL: author a design inline, bind a security
//! property, query the symbolic engine directly, then fuzz.
//!
//! ```text
//! cargo run --example custom_design
//! ```
//!
//! The design is a small peripheral with a write-protect flaw: the
//! LOCK register can be bypassed by a magic address alias. The example
//! shows (1) asking the symbolic engine for an input pattern reaching
//! the locked state, and (2) letting SymbFuzz find the bypass bug.

use std::sync::Arc;
use symbfuzz_core::{FuzzConfig, PropertySpec, Strategy, SymbFuzz};
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::elaborate_src;
use symbfuzz_smt::Budget;
use symbfuzz_symexec::{ReachOutcome, SymbolicEngine};

const RTL: &str = "
module wp_regfile(
  input clk, input rst_n,
  input we, input [7:0] addr, input [15:0] wdata,
  output logic locked, output logic [15:0] secret);
  always_ff @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      locked <= 1'b0;
      secret <= 16'hD00D;
    end else begin
      if (we) begin
        if (addr == 8'h10) locked <= wdata[0];
        // Writes to the secret respect the lock...
        if (addr == 8'h20 && !locked) secret <= wdata;
        // ...except through this forgotten debug alias. BUG!
        if (addr == 8'hDE) secret <= wdata;
      end
    end
  end
endmodule";

fn main() {
    let design = Arc::new(elaborate_src(RTL, "wp_regfile").expect("RTL in subset"));

    // 1. Symbolic execution: how do we set `locked`?
    let engine = SymbolicEngine::new(Arc::clone(&design));
    let locked = design.signal_by_name("locked").unwrap();
    let state: Vec<LogicVec> = design
        .signals
        .iter()
        .map(|s| LogicVec::zeros(s.width))
        .collect();
    let target = [(locked, LogicVec::from_u64(1, 1))];
    let (outcome, _) = engine
        .solve_reach_profiled(&state, &target, 1, &Budget::unlimited())
        .expect("`locked` is a register with a defined target");
    let ReachOutcome::Reached(plan) = outcome else {
        panic!("the locked state is one cycle away");
    };
    println!("inputs that lock the regfile in one cycle:");
    for (sig, value) in plan[0].iter() {
        println!("  {} = {}", design.signal(sig).name, value);
    }

    // 2. Fuzz for the write-protect bypass: once locked, the secret
    //    must stay stable.
    let props = vec![PropertySpec::assertion_only(
        "wp_bypass",
        "$past(locked) && locked |-> $stable(secret)",
    )];
    let config = FuzzConfig {
        interval: 100,
        threshold: 2,
        max_vectors: 50_000,
        ..FuzzConfig::default()
    };
    let mut fuzzer = SymbFuzz::new(Arc::clone(&design), Strategy::SymbFuzz, config, &props)
        .expect("property compiles");
    let result = fuzzer.run();
    match result.bugs.first() {
        Some(bug) => println!(
            "\nwrite-protect bypass found at cycle {}, vector {}",
            bug.cycle, bug.vectors
        ),
        None => println!("\nno violation found in {} vectors", result.vectors),
    }
    println!(
        "coverage: {} nodes, {} edges, {} solver calls",
        result.nodes, result.edges, result.resources.solver_calls
    );
}
