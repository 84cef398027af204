//! User-facing bit-vector solver facade.
//!
//! The facade is fully fallible: misuse (non-1-bit assertions or
//! assumptions) surfaces as [`SolverError::WidthMismatch`] and
//! budgeted checks that hit a ceiling surface as
//! [`SatOutcome::Unknown`] — no public path panics on user input.
//! (The transitional `*_or_panic` shims kept one release after the
//! redesign have been removed.)

use crate::bitblast::BitBlaster;
use crate::budget::{Budget, BudgetSpent};
use crate::sat::{Lit, SatResult};
use crate::term::{TermId, TermKind, TermPool};
use crate::trace::SolveTrace;
use std::collections::HashMap;
use std::sync::Arc;
use symbfuzz_logic::{Bit, LogicVec};
use symbfuzz_telemetry::{Collector, Counter, Event, SolveStatus, UnknownReason};

/// A typed error from the [`BvSolver`] facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// A term handed to `assert`/`check_assuming` was not one bit
    /// wide.
    WidthMismatch {
        /// Where the term was used (`"assertion"` or `"assumption"`).
        context: &'static str,
        /// Actual width of the offending term.
        actual: u32,
    },
    /// A budgeted check stopped at a resource ceiling and the caller
    /// required a decision (see [`SatOutcome::decided`]).
    BudgetExhausted {
        /// Ceiling that stopped the search.
        reason: UnknownReason,
        /// Work consumed by the attempt.
        spent: BudgetSpent,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::WidthMismatch { context, actual } => {
                write!(f, "{context} must be one bit wide, got {actual} bits")
            }
            SolverError::BudgetExhausted { reason, spent } => write!(
                f,
                "budget exhausted ({reason}) after {} conflicts / {} decisions / {} propagations",
                spent.conflicts, spent.decisions, spent.propagations
            ),
        }
    }
}

impl std::error::Error for SolverError {}

/// A satisfying assignment: every pool variable mapped to a concrete
/// value (variables unconstrained by the assertions default to zero).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    values: HashMap<String, LogicVec>,
}

impl Model {
    /// The value assigned to `name`, if the variable exists.
    pub fn value(&self, name: &str) -> Option<&LogicVec> {
        self.values.get(name)
    }

    /// Iterates over `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &LogicVec)> {
        self.values.iter()
    }

    /// Converts into an evaluation environment for
    /// [`TermPool::eval`].
    pub fn into_env(self) -> HashMap<String, LogicVec> {
        self.values
    }

    /// Borrowing view usable with [`TermPool::eval`].
    pub fn env(&self) -> &HashMap<String, LogicVec> {
        &self.values
    }
}

/// Outcome of a satisfiability check (three-valued).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable with the given model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// A budgeted check hit a ceiling before a verdict. Only produced
    /// by [`BvSolver::check_budgeted`].
    Unknown {
        /// Ceiling that stopped the search.
        reason: UnknownReason,
        /// Work consumed by the attempt.
        spent: BudgetSpent,
    },
}

impl SatOutcome {
    /// `true` when satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatOutcome::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(self) -> Option<Model> {
        match self {
            SatOutcome::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// The shared [`SolveStatus`] this outcome serializes as in
    /// campaign JSON and JSONL traces.
    pub fn status(&self) -> SolveStatus {
        match self {
            SatOutcome::Sat(_) => SolveStatus::Sat,
            SatOutcome::Unsat => SolveStatus::Unsat,
            SatOutcome::Unknown { reason, .. } => SolveStatus::Unknown(*reason),
        }
    }

    /// Converts `Unknown` into [`SolverError::BudgetExhausted`], for
    /// callers that require a definite verdict.
    pub fn decided(self) -> Result<SatOutcome, SolverError> {
        match self {
            SatOutcome::Unknown { reason, spent } => {
                Err(SolverError::BudgetExhausted { reason, spent })
            }
            decided => Ok(decided),
        }
    }
}

/// Incremental QF_BV solver: build terms via [`pool_mut`](Self::pool_mut),
/// [`assert`](Self::assert) 1-bit facts, then [`check`](Self::check) or
/// [`check_assuming`](Self::check_assuming).
///
/// Assertions are blasted eagerly, so repeated checks with different
/// assumptions reuse the existing CNF — this is how SymbFuzz tries
/// several candidate CFG targets cheaply (§4.7, picking the constraint
/// that unlocks the most new nodes).
///
/// See the [crate docs](crate) for a worked example.
#[derive(Debug, Default, Clone)]
pub struct BvSolver {
    pool: TermPool,
    blaster: BitBlaster,
    asserted: Vec<TermId>,
    telemetry: Option<Arc<Collector>>,
}

impl BvSolver {
    /// Creates an empty solver.
    pub fn new() -> BvSolver {
        BvSolver {
            pool: TermPool::new(),
            blaster: BitBlaster::new(),
            asserted: Vec::new(),
            telemetry: None,
        }
    }

    /// Attaches (or detaches) a telemetry collector. Every check then
    /// records an [`Event::SmtSolve`] plus CDCL work counters.
    pub fn set_collector(&mut self, telemetry: Option<Arc<Collector>>) {
        self.telemetry = telemetry;
    }

    /// The term pool, for building formulas.
    pub fn pool_mut(&mut self) -> &mut TermPool {
        &mut self.pool
    }

    /// Immutable access to the term pool.
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// Asserts a 1-bit term.
    ///
    /// # Errors
    ///
    /// [`SolverError::WidthMismatch`] if the term is not one bit wide.
    pub fn assert(&mut self, t: TermId) -> Result<(), SolverError> {
        let w = self.pool.width(t);
        if w != 1 {
            return Err(SolverError::WidthMismatch {
                context: "assertion",
                actual: w,
            });
        }
        self.blaster.assert_true(&self.pool, t);
        self.asserted.push(t);
        Ok(())
    }

    /// Checks satisfiability of the asserted conjunction.
    pub fn check(&mut self) -> Result<SatOutcome, SolverError> {
        self.check_assuming(&[])
    }

    /// Checks satisfiability under extra 1-bit `assumptions` that are
    /// not permanently asserted. Never returns
    /// [`SatOutcome::Unknown`].
    ///
    /// # Errors
    ///
    /// [`SolverError::WidthMismatch`] if an assumption is not one bit
    /// wide.
    pub fn check_assuming(&mut self, assumptions: &[TermId]) -> Result<SatOutcome, SolverError> {
        self.check_budgeted(assumptions, &Budget::unlimited())
    }

    /// Like [`check_assuming`](Self::check_assuming), but the CDCL
    /// search is bounded by `budget`. Hitting a ceiling yields
    /// `Ok(SatOutcome::Unknown { .. })` — exhaustion is a result, not
    /// an error; use [`SatOutcome::decided`] when a verdict is
    /// mandatory.
    ///
    /// # Errors
    ///
    /// [`SolverError::WidthMismatch`] if an assumption is not one bit
    /// wide.
    pub fn check_budgeted(
        &mut self,
        assumptions: &[TermId],
        budget: &Budget,
    ) -> Result<SatOutcome, SolverError> {
        let mut assumption_lits: Vec<Lit> = Vec::with_capacity(assumptions.len());
        for &a in assumptions {
            let w = self.pool.width(a);
            if w != 1 {
                return Err(SolverError::WidthMismatch {
                    context: "assumption",
                    actual: w,
                });
            }
            let l = self.blaster.lits(&self.pool, a)[0];
            assumption_lits.push(l);
        }
        let before = self.telemetry.as_ref().map(|t| {
            let s = self.blaster.solver();
            (t.now_micros(), s.decisions(), s.conflicts())
        });
        let result = self
            .blaster
            .solver_mut()
            .solve_budgeted(&assumption_lits, budget);
        if let (Some(t), Some((t0, d0, c0))) = (&self.telemetry, before) {
            let s = self.blaster.solver();
            let stats = self.blaster.stats();
            t.add(Counter::SolverCalls, 1);
            t.add(Counter::SatVars, stats.num_vars as u64);
            t.add(Counter::SatClauses, stats.num_clauses as u64);
            t.add(Counter::SatDecisions, s.decisions().saturating_sub(d0));
            t.add(Counter::SatConflicts, s.conflicts().saturating_sub(c0));
            t.record(Event::SmtSolve {
                vars: stats.num_vars as u64,
                clauses: stats.num_clauses as u64,
                sat: matches!(result, SatResult::Sat(_)),
                micros: t.now_micros().saturating_sub(t0),
            });
        }
        Ok(match result {
            SatResult::Unsat => SatOutcome::Unsat,
            SatResult::Unknown { reason, spent } => SatOutcome::Unknown { reason, spent },
            SatResult::Sat(raw) => {
                let mut values = HashMap::new();
                for (name, width) in self.pool.vars() {
                    let vt = self.pool.var(name.clone(), width);
                    let mut v = LogicVec::zeros(width);
                    if let Some(lits) = self.blaster.lits_of(vt) {
                        for (i, l) in lits.iter().enumerate() {
                            let b = raw[l.var() as usize] == l.is_pos();
                            v.set_bit(i as u32, Bit::from_bool(b));
                        }
                    }
                    values.insert(name, v);
                }
                SatOutcome::Sat(Model { values })
            }
        })
    }

    /// Validates a model against the asserted terms by direct
    /// evaluation (defence in depth for the fuzzer: a bad model would
    /// silently misguide mutation).
    pub fn validate(&self, model: &Model) -> bool {
        self.asserted.iter().all(|t| {
            self.pool
                .eval(*t, model.env())
                .to_u64()
                .map(|v| v == 1)
                .unwrap_or(false)
        })
    }

    /// CNF statistics from the blaster (vars, clauses).
    pub fn cnf_stats(&self) -> (usize, usize) {
        let s = self.blaster.stats();
        (s.num_vars, s.num_clauses)
    }

    /// Arms CDCL introspection on the embedded solver: subsequent
    /// checks record a [`SolveTrace`] (learning histograms, restart
    /// timeline, conflict depths). Zero-cost for solvers that never
    /// call this.
    pub fn enable_introspection(&mut self) {
        self.blaster.solver_mut().enable_trace();
    }

    /// Takes the accumulated [`SolveTrace`] with the top-`k` hot
    /// variables filled in, re-arming a fresh trace. `None` when
    /// introspection was never enabled.
    pub fn take_trace(&mut self, k: usize) -> Option<SolveTrace> {
        self.blaster.solver_mut().take_trace(k)
    }
}

/// Pretty-prints a term for diagnostics (prefix form).
pub fn render_term(pool: &TermPool, t: TermId) -> String {
    match pool.kind(t) {
        TermKind::Const(v) => format!("{v}"),
        TermKind::Var(n, w) => format!("{n}:{w}"),
        TermKind::Not(a) => format!("(not {})", render_term(pool, *a)),
        TermKind::And(a, b) => format!("(and {} {})", render_term(pool, *a), render_term(pool, *b)),
        TermKind::Or(a, b) => format!("(or {} {})", render_term(pool, *a), render_term(pool, *b)),
        TermKind::Xor(a, b) => format!("(xor {} {})", render_term(pool, *a), render_term(pool, *b)),
        TermKind::Add(a, b) => format!("(add {} {})", render_term(pool, *a), render_term(pool, *b)),
        TermKind::Sub(a, b) => format!("(sub {} {})", render_term(pool, *a), render_term(pool, *b)),
        TermKind::Mul(a, b) => format!("(mul {} {})", render_term(pool, *a), render_term(pool, *b)),
        TermKind::Eq(a, b) => format!("(= {} {})", render_term(pool, *a), render_term(pool, *b)),
        TermKind::Ult(a, b) => format!("(ult {} {})", render_term(pool, *a), render_term(pool, *b)),
        TermKind::Ite(c, a, b) => format!(
            "(ite {} {} {})",
            render_term(pool, *c),
            render_term(pool, *a),
            render_term(pool, *b)
        ),
        TermKind::Extract { arg, lo, width } => {
            format!("(extract {} {} {})", render_term(pool, *arg), lo, width)
        }
        TermKind::ConcatPair(h, l) => {
            format!(
                "(concat {} {})",
                render_term(pool, *h),
                render_term(pool, *l)
            )
        }
        TermKind::ShlConst(a, n) => format!("(shl {} {n})", render_term(pool, *a)),
        TermKind::LshrConst(a, n) => format!("(lshr {} {n})", render_term(pool, *a)),
        TermKind::RedAnd(a) => format!("(rand {})", render_term(pool, *a)),
        TermKind::RedOr(a) => format!("(ror {})", render_term(pool, *a)),
        TermKind::RedXor(a) => format!("(rxor {})", render_term(pool, *a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_sat_with_model_validation() {
        let mut s = BvSolver::new();
        let a = s.pool_mut().var("a", 8);
        let goal = {
            let p = s.pool_mut();
            let five = p.const_u64(8, 5);
            let sum = p.add(a, five);
            let hundred = p.const_u64(8, 100);
            p.eq(sum, hundred)
        };
        s.assert(goal).unwrap();
        let SatOutcome::Sat(m) = s.check().unwrap() else {
            panic!("sat expected")
        };
        assert_eq!(m.value("a").unwrap().to_u64(), Some(95));
        assert!(s.validate(&m));
    }

    #[test]
    fn unsat_conjunction() {
        let mut s = BvSolver::new();
        let a = s.pool_mut().var("a", 4);
        let (e1, e2) = {
            let p = s.pool_mut();
            let three = p.const_u64(4, 3);
            let seven = p.const_u64(4, 7);
            (p.eq(a, three), p.eq(a, seven))
        };
        s.assert(e1).unwrap();
        s.assert(e2).unwrap();
        assert_eq!(s.check().unwrap(), SatOutcome::Unsat);
    }

    #[test]
    fn incremental_assumptions() {
        let mut s = BvSolver::new();
        let a = s.pool_mut().var("a", 4);
        let lt8 = {
            let p = s.pool_mut();
            let eight = p.const_u64(4, 8);
            p.ult(a, eight)
        };
        s.assert(lt8).unwrap();
        let targets: Vec<TermId> = (0..10)
            .map(|v| {
                let p = s.pool_mut();
                let c = p.const_u64(4, v);
                p.eq(a, c)
            })
            .collect();
        // Values 0..8 reachable, 8..10 not — same CNF reused each time.
        for (v, &t) in targets.iter().enumerate() {
            let out = s.check_assuming(&[t]).unwrap();
            if v < 8 {
                let m = out.model().expect("reachable");
                assert_eq!(m.value("a").unwrap().to_u64(), Some(v as u64));
            } else {
                assert_eq!(out, SatOutcome::Unsat);
            }
        }
        // Plain check still satisfiable after all those assumptions.
        assert!(s.check().unwrap().is_sat());
    }

    #[test]
    fn unconstrained_variables_default_to_zero() {
        let mut s = BvSolver::new();
        let _unused = s.pool_mut().var("unused", 16);
        let t = s.pool_mut().tru();
        s.assert(t).unwrap();
        let SatOutcome::Sat(m) = s.check().unwrap() else {
            panic!()
        };
        assert_eq!(m.value("unused").unwrap().to_u64(), Some(0));
    }

    #[test]
    fn render_is_readable() {
        let mut p = TermPool::new();
        let a = p.var("a", 4);
        let t = {
            let c = p.const_u64(4, 3);
            let s = p.add(a, c);
            p.eq(s, c)
        };
        let txt = render_term(&p, t);
        assert!(txt.contains("a:4"));
        assert!(txt.contains("(add"));
    }

    #[test]
    fn paper_eqn1_example() {
        // ((in1 & in2) + in3) && !in3  — Eqn. 1 of the paper.
        let mut s = BvSolver::new();
        let in1 = s.pool_mut().var("in1", 4);
        let in2 = s.pool_mut().var("in2", 4);
        let in3 = s.pool_mut().var("in3", 4);
        let goal = {
            let p = s.pool_mut();
            let anded = p.and(in1, in2);
            let sum = p.add(anded, in3);
            let truthy = p.red_or(sum);
            let n3 = p.red_or(in3);
            let not3 = p.not(n3);
            p.and(truthy, not3)
        };
        s.assert(goal).unwrap();
        let m = s.check().unwrap().model().expect("satisfiable");
        assert_eq!(m.value("in3").unwrap().to_u64(), Some(0));
        let v1 = m.value("in1").unwrap().to_u64().unwrap();
        let v2 = m.value("in2").unwrap().to_u64().unwrap();
        assert_ne!(v1 & v2, 0);
    }

    #[test]
    fn wide_terms_are_rejected_not_panicked() {
        let mut s = BvSolver::new();
        let a = s.pool_mut().var("a", 8);
        assert_eq!(
            s.assert(a),
            Err(SolverError::WidthMismatch {
                context: "assertion",
                actual: 8,
            })
        );
        assert_eq!(
            s.check_assuming(&[a]),
            Err(SolverError::WidthMismatch {
                context: "assumption",
                actual: 8,
            })
        );
        // The solver is still usable after rejected input.
        let t = s.pool_mut().tru();
        s.assert(t).unwrap();
        assert!(s.check().unwrap().is_sat());
    }

    #[test]
    fn budgeted_check_degrades_to_unknown() {
        // Factoring instance: x * y == semiprime with x, y > 1. A few
        // dozen conflicts cannot crack a 40-bit product.
        let mut s = BvSolver::new();
        let x = s.pool_mut().var("x", 20);
        let y = s.pool_mut().var("y", 20);
        let goal = {
            let p = s.pool_mut();
            let xw = p.resize(x, 40);
            let yw = p.resize(y, 40);
            let prod = p.mul(xw, yw);
            let c = p.const_u64(40, 676_371_752_677); // 821297 * 823541
            let eq = p.eq(prod, c);
            let one = p.const_u64(20, 1);
            let xg = p.ult(one, x);
            let yg = p.ult(one, y);
            let guards = p.and(xg, yg);
            p.and(eq, guards)
        };
        s.assert(goal).unwrap();
        let tiny = Budget::unlimited().with_conflicts(50);
        let out = s.check_budgeted(&[], &tiny).unwrap();
        let SatOutcome::Unknown { reason, spent } = &out else {
            panic!("expected Unknown, got {out:?}")
        };
        assert_eq!(*reason, UnknownReason::Conflicts);
        assert!(spent.conflicts >= 1);
        assert_eq!(out.status(), SolveStatus::Unknown(UnknownReason::Conflicts));
        // A decision-demanding caller sees the typed error.
        assert_eq!(
            out.clone().decided(),
            Err(SolverError::BudgetExhausted {
                reason: *reason,
                spent: *spent,
            })
        );
        // An escalated retry resumes warm and is still bounded.
        let bigger = tiny.escalate(2);
        let retry = s.check_budgeted(&[], &bigger).unwrap();
        assert!(matches!(retry, SatOutcome::Unknown { .. }));
    }

    #[test]
    fn statuses_map_onto_shared_solve_status() {
        let mut s = BvSolver::new();
        let t = s.pool_mut().tru();
        s.assert(t).unwrap();
        assert_eq!(s.check().unwrap().status(), SolveStatus::Sat);
        let f = {
            let p = s.pool_mut();
            let t = p.tru();
            p.not(t)
        };
        s.assert(f).unwrap();
        assert_eq!(s.check().unwrap().status(), SolveStatus::Unsat);
    }

    #[test]
    fn introspection_traces_the_search() {
        let mut s = BvSolver::new();
        let x = s.pool_mut().var("x", 16);
        let y = s.pool_mut().var("y", 16);
        let goal = {
            let p = s.pool_mut();
            let xw = p.resize(x, 32);
            let yw = p.resize(y, 32);
            let prod = p.mul(xw, yw);
            let c = p.const_u64(32, 1_073_676_289); // 32749 * 32771... close enough: forces search
            let eq = p.eq(prod, c);
            let one = p.const_u64(16, 1);
            let xg = p.ult(one, x);
            let yg = p.ult(one, y);
            let g = p.and(xg, yg);
            p.and(eq, g)
        };
        s.assert(goal).unwrap();
        assert!(s.take_trace(4).is_none(), "introspection defaults to off");
        s.enable_introspection();
        let tiny = Budget::unlimited().with_conflicts(200);
        let _ = s.check_budgeted(&[], &tiny).unwrap();
        let t = s.take_trace(8).expect("trace armed");
        assert!(t.learned >= 1, "search learned no clauses: {t:?}");
    }

    #[test]
    fn error_display_is_informative() {
        let e = SolverError::WidthMismatch {
            context: "assertion",
            actual: 4,
        };
        assert_eq!(e.to_string(), "assertion must be one bit wide, got 4 bits");
        let e = SolverError::BudgetExhausted {
            reason: UnknownReason::Conflicts,
            spent: BudgetSpent {
                conflicts: 10,
                decisions: 20,
                propagations: 30,
            },
        };
        assert!(e.to_string().contains("conflicts"));
        assert!(e.to_string().contains("10"));
    }
}
