//! Bit-vector SMT solving for SymbFuzz's guidance engine.
//!
//! The paper feeds *dependency equations* — control-register next-state
//! values expressed as functions of input pins (§4.4.2) — to an SMT
//! solver (z3) and turns the models into UVM sequencer constraints.
//! z3 is not available offline, so this crate implements the QF_BV
//! fragment the paper actually needs, the textbook way:
//!
//! * [`TermPool`] — hash-consed bit-vector terms with constant folding
//!   and identity simplification; variable names and constants are
//!   interned, so a [`TermKind`] is a `Copy` value of ids;
//! * [`bitblast`](BitBlaster) — Tseitin transformation of terms into
//!   CNF (ripple-carry adders, shift-and-add multipliers, mux trees),
//!   every term's literals in one table indexed by [`TermId`];
//! * [`SatSolver`] — a CDCL SAT solver over one clause arena, with
//!   two-watched-literal propagation, a VSIDS order heap, first-UIP
//!   clause learning and Luby restarts;
//! * [`Budget`] — an optional conflict ceiling and an opt-in wall-clock
//!   deadline that turn checks into three-valued results with
//!   [`SatResult::Unknown`].
//! * [`SolverSession`] — the one wrapper over blaster and solver:
//!   assert 1-bit terms, check under assumption literals, read the
//!   model off each variable's bit literals. One warm session can
//!   serve related goals, learned clauses retained between checks;
//! * [`IdMap`] — a map under [`IdHasher`], a multiplicative hasher for
//!   keys built from the program's own ids only (terms, interned names
//!   and constants), never from HDL text.
//!
//! # Examples
//!
//! Solve the paper's Eqn. 1, `((in1 & in2) + in3) && !in3`:
//!
//! ```
//! use symbfuzz_smt::{Budget, SatResult, SolverSession};
//!
//! let mut s = SolverSession::new();
//! let in1 = s.pool_mut().var("in1", 8);
//! let in2 = s.pool_mut().var("in2", 8);
//! let in3 = s.pool_mut().var("in3", 8);
//! let p = s.pool_mut();
//! let sum = { let a = p.and(in1, in2); p.add(a, in3) };
//! let nonzero = p.red_or(sum);
//! let in3_zero = { let nz = p.red_or(in3); p.not(nz) };
//! let goal = p.and(nonzero, in3_zero);
//! s.assert_term(goal);
//! let (SatResult::Sat(model), _) = s.check_assuming(&[], &Budget::unlimited()) else {
//!     panic!("must be satisfiable")
//! };
//! // A variable's value is its bit literals as the model assigns them.
//! let value = |v| s.value_of(v, &model).unwrap().to_u64().unwrap();
//! assert_eq!(value(in3), 0);
//! assert_ne!(value(in1) & value(in2), 0);
//! ```

mod bitblast;
mod budget;
mod idhash;
mod sat;
mod session;
mod term;
mod trace;

pub use bitblast::{BitBlaster, Cnf};
pub use budget::{Budget, BudgetSpent};
pub use idhash::{IdHasher, IdMap};
pub use sat::{Lit, SatResult, SatSolver};
pub use session::SolverSession;
pub use term::{ConstId, Sym, TermId, TermKind, TermPool};
pub use trace::{
    trace_bucket, trace_hist_quantile, SolveTrace, RESTART_TIMELINE_CAP, TRACE_HIST_BUCKETS,
};
