//! Symbolic execution of the netlist into *dependency equations*.
//!
//! This crate implements §4.4.2 and §4.7–4.8 of the SymbFuzz paper: it
//! walks every process of an elaborated
//! [`Design`](symbfuzz_netlist::Design) with a symbolic store, producing
//! for each register a closed-form next-state term
//! `next(reg) = F(inputs, current registers)` in which every `if`/`case`
//! of the RTL becomes an if-then-else over the branch condition — the
//! path constraints of the paper's Eqn. 2 baked into one expression.
//!
//! Given the simulator's current state and a target assignment of
//! control-register values (a CFG node the fuzzer wants to reach), the
//! [`SymbolicEngine`] binds the current-state symbols to their concrete
//! values, poses `next(reg) == target`, and hands the system to the
//! bit-blasting SMT solver. A model is translated back into an
//! [`InputAssignment`] — the constraint the UVM sequencer applies on
//! the next cycle (Fig. 2, blocks 9–11). Targets that need a
//! multi-cycle input sequence are reached by unrolling the equations
//! over several cycles.
//!
//! [`solve_reach_profiled`](SymbolicEngine::solve_reach_profiled) is
//! the one query entry point. Every unroll it solves is a *frame
//! chain* — a solver session plus, per cycle, the substituted state
//! terms and fresh input symbols — grown by a single internal
//! `extend` step. One chain stays warm per start state (the frame
//! cache, [`cache_stats`](SymbolicEngine::cache_stats)): each frame is
//! built and blasted once, goals are assumption checks on it, and
//! sibling goals inherit its learned clauses, as in MiniSat's
//! incremental interface. History changes the work and may change the
//! model, never the verdict. With introspection on
//! ([`set_introspection`](SymbolicEngine::set_introspection)) each
//! query also returns a [`GoalScope`], whose blame probe seeds a chain
//! of its own.
//!
//! The engine also remembers which goals no state can reach. The first
//! time the depth schedule proves a single `(register, value)` target
//! unreachable, a one-step *image probe* asks, on a dropped chain
//! seeded from the all-`X` state, whether any state and input (resets
//! inactive) produce the value in one clock edge. If none can, the
//! value is dead at every depth from every start state, and later
//! queries for it are answered `Unreachable` without a solve. The
//! probe spends from the query's own budget, capped at 2 000 conflicts;
//! an undecided probe leaves the value live. This is the
//! implication-based untestability test of ATPG, applied per goal.
//!
//! Undefined (`X`) bits in the current state are left unconstrained —
//! the paper's "constrains solving undefined pin values" (§3): the
//! solver optimistically picks the value that reaches the target.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use symbfuzz_logic::LogicVec;
//! use symbfuzz_smt::Budget;
//! use symbfuzz_symexec::{ReachOutcome, SymbolicEngine};
//!
//! let d = Arc::new(symbfuzz_netlist::elaborate_src(
//!     "module m(input clk, input rst_n, input [3:0] k, output logic [3:0] st);
//!        always_ff @(posedge clk or negedge rst_n)
//!          if (!rst_n) st <= 4'd0;
//!          else begin if (k == 4'd9) st <= 4'd7; else st <= 4'd1; end
//!      endmodule", "m")?);
//! let engine = SymbolicEngine::new(Arc::clone(&d));
//! let st = d.signal_by_name("st").unwrap();
//! // Current state: everything zero (as after reset).
//! let state: Vec<LogicVec> =
//!     d.signals.iter().map(|s| LogicVec::zeros(s.width)).collect();
//! let target = [(st, LogicVec::from_u64(4, 7))];
//! let (outcome, stats) = engine.solve_reach_profiled(&state, &target, 1, &Budget::unlimited())?;
//! let ReachOutcome::Reached(plan) = outcome else { panic!("st = 7 is one cycle away") };
//! // The solver found the magic value k = 9, in one exact-depth solve.
//! let k = d.signal_by_name("k").unwrap();
//! assert_eq!(plan[0].value(k).unwrap().to_u64(), Some(9));
//! assert_eq!(stats.solver_calls, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod engine;
mod scope;

pub use engine::{
    InputAssignment, ReachError, ReachOutcome, ReachStats, SolverCacheStats, SymbolicEngine,
};
pub use scope::{signal_of_term_name, GoalScope, BLAME_MAX_ASSUMPTIONS, HOT_SIGNALS_K};
