//! Solving sessions: the one way into the SAT core.
//!
//! A [`SolverSession`] is the only wrapper over [`BitBlaster`] and
//! [`SatSolver`](crate::SatSolver): 1-bit terms are asserted, checked
//! under assumptions, and a `Sat` model is read off each variable's bit
//! literals ([`BitBlaster::lits_of`]). A session keeps its solver, and
//! so its learned clauses, alive across a batch of related queries.
//! Shared structure — the unrolled transition relation of a frame — is
//! asserted once with [`assert_term`](SolverSession::assert_term); each
//! per-goal target is then expressed as an *assumption literal* via
//! [`check_assuming`](SolverSession::check_assuming) instead of a fresh
//! solver instance, so clauses learned refuting one goal prune the
//! search for its siblings.
//!
//! # Soundness
//!
//! Learned clauses are resolvents of the clause database, so they are
//! implied by the asserted formula alone — never by the assumptions of
//! the query that learned them. Retaining them across
//! `check_assuming` calls therefore cannot change any verdict:
//! Sat/Unsat answers are semantic properties of (clauses, assumptions)
//! and match a fresh solver exactly. Only *budgeted* searches may
//! differ, in how much work a verdict costs — which is the point.

use crate::bitblast::{BitBlaster, Cnf};
use crate::budget::{Budget, BudgetSpent};
use crate::sat::{Lit, SatResult};
use crate::term::{TermId, TermPool};
use crate::trace::SolveTrace;
use symbfuzz_logic::{Bit, LogicVec};

/// One solving session: a term pool plus a warm blaster.
///
/// # Examples
///
/// ```
/// use symbfuzz_smt::{Budget, SatResult, SolverSession};
///
/// let mut sess = SolverSession::new();
/// let a = sess.pool_mut().var("a", 8);
/// let shared = {
///     let p = sess.pool_mut();
///     let c = p.const_u64(8, 10);
///     p.ult(a, c)
/// };
/// sess.assert_term(shared); // a < 10, shared by both goals
/// let g1 = {
///     let p = sess.pool_mut();
///     let c = p.const_u64(8, 7);
///     p.eq(a, c)
/// };
/// let g2 = {
///     let p = sess.pool_mut();
///     let c = p.const_u64(8, 12);
///     p.eq(a, c)
/// };
/// let (r1, _) = sess.check_assuming(&[g1], &Budget::unlimited());
/// assert!(r1.is_sat());
/// let (r2, _) = sess.check_assuming(&[g2], &Budget::unlimited());
/// assert_eq!(r2, SatResult::Unsat); // 12 < 10 is impossible
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolverSession {
    pool: TermPool,
    blaster: BitBlaster,
    goals_checked: u64,
}

impl SolverSession {
    /// Creates a session with an empty pool and a fresh blaster.
    pub fn new() -> SolverSession {
        SolverSession {
            pool: TermPool::new(),
            blaster: BitBlaster::new(),
            goals_checked: 0,
        }
    }

    /// Creates a session over an existing pool (e.g. the symbolic
    /// engine's working pool, already holding the unrolled terms).
    pub fn from_pool(pool: TermPool) -> SolverSession {
        SolverSession {
            pool,
            blaster: BitBlaster::new(),
            goals_checked: 0,
        }
    }

    /// The session's term pool.
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// Mutable access to the term pool (to build frame terms/goals).
    pub fn pool_mut(&mut self) -> &mut TermPool {
        &mut self.pool
    }

    /// The embedded blaster (introspection: CNF stats, attribution).
    pub fn blaster(&self) -> &BitBlaster {
        &self.blaster
    }

    /// Permanently asserts a 1-bit term (frame definitions, reset
    /// pins). Asserted terms constrain every later
    /// [`check_assuming`](Self::check_assuming) call.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not one bit wide.
    pub fn assert_term(&mut self, t: TermId) {
        self.blaster.assert_true(&self.pool, t);
    }

    /// Bit-blasts a 1-bit term and returns its literal *without*
    /// asserting it — the Tseitin definition clauses are added, the
    /// root literal stays free for use as an assumption.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not one bit wide.
    pub fn lit_of(&mut self, t: TermId) -> Lit {
        assert_eq!(self.pool.width(t), 1, "assumptions must be one bit wide");
        self.blaster.lits(&self.pool, t)[0]
    }

    /// Arms CDCL introspection on the embedded solver.
    pub fn enable_trace(&mut self) {
        self.blaster.solver_mut().enable_trace();
    }

    /// Takes the accumulated solve trace, if tracing is armed.
    pub fn take_trace(&mut self, k: usize) -> Option<SolveTrace> {
        self.blaster.solver_mut().take_trace(k)
    }

    /// Checks satisfiability of the asserted formula under `targets`
    /// (1-bit terms, conjoined as assumptions), bounded by `budget`.
    ///
    /// Returns the verdict plus the work *this call* consumed. The
    /// embedded solver's counters are cumulative across the session,
    /// so spent figures are delta-counted here — callers accumulate
    /// them exactly as they would for a fresh solver per goal.
    pub fn check_assuming(
        &mut self,
        targets: &[TermId],
        budget: &Budget,
    ) -> (SatResult, BudgetSpent) {
        let assumptions: Vec<Lit> = targets.iter().map(|&t| self.lit_of(t)).collect();
        let s = self.blaster.solver();
        let (c0, d0, p0) = (s.conflicts(), s.decisions(), s.propagations());
        let result = self
            .blaster
            .solver_mut()
            .solve_budgeted(&assumptions, budget);
        let s = self.blaster.solver();
        let spent = BudgetSpent {
            conflicts: s.conflicts() - c0,
            decisions: s.decisions() - d0,
            propagations: s.propagations() - p0,
        };
        self.goals_checked += 1;
        (result, spent)
    }

    /// The value `model` (a `Sat` result's) gives `var`, read off the
    /// variable's bit literals; `None` if `var` was never blasted.
    pub fn value_of(&self, var: TermId, model: &[bool]) -> Option<LogicVec> {
        let lits = self.blaster.lits_of(var)?;
        let mut v = LogicVec::zeros(lits.len() as u32);
        for (i, l) in lits.iter().enumerate() {
            v.set_bit(
                i as u32,
                Bit::from_bool(model[l.var() as usize] == l.is_pos()),
            );
        }
        Some(v)
    }

    /// Total `check_assuming` calls on this session.
    pub fn goals_checked(&self) -> u64 {
        self.goals_checked
    }

    /// CNF size statistics of the embedded blaster.
    pub fn cnf_stats(&self) -> &Cnf {
        self.blaster.stats()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use symbfuzz_telemetry::UnknownReason;

    /// Builds `a*b == product` over `w`-bit vars in the given pool.
    fn factor_goal(p: &mut TermPool, w: u32, product: u64) -> TermId {
        let a = p.var("a", w);
        let b = p.var("b", w);
        let m = p.mul(a, b);
        let c = p.const_u64(w, product);
        p.eq(m, c)
    }

    #[test]
    fn session_verdicts_match_fresh_solvers() {
        // Shared structure: a*b over 8 bits. Goals: different products.
        let products = [35u64, 36, 37, 251, 0];
        let mut sess = SolverSession::new();
        let shared_mul = {
            let p = sess.pool_mut();
            let a = p.var("a", 8);
            let b = p.var("b", 8);
            p.mul(a, b)
        };
        for &prod in &products {
            let goal = {
                let p = sess.pool_mut();
                let c = p.const_u64(8, prod);
                p.eq(shared_mul, c)
            };
            let (warm, _) = sess.check_assuming(&[goal], &Budget::unlimited());

            let mut p = TermPool::new();
            let goal = factor_goal(&mut p, 8, prod);
            let mut bb = BitBlaster::new();
            bb.assert_true(&p, goal);
            let fresh = bb.solver_mut().solve_budgeted(&[], &Budget::unlimited());
            assert_eq!(
                warm.is_sat(),
                fresh.is_sat(),
                "verdict mismatch for product {prod}"
            );
        }
        assert_eq!(sess.goals_checked(), products.len() as u64);
    }

    #[test]
    fn unsat_goal_does_not_poison_the_session() {
        let mut sess = SolverSession::new();
        let a = sess.pool_mut().var("a", 4);
        // Assert a < 8 permanently.
        let cap = {
            let p = sess.pool_mut();
            let c = p.const_u64(4, 8);
            p.ult(a, c)
        };
        sess.assert_term(cap);
        // Goal 1: a == 12 → Unsat under the assertion.
        let g_unsat = {
            let p = sess.pool_mut();
            let c = p.const_u64(4, 12);
            p.eq(a, c)
        };
        let (r, _) = sess.check_assuming(&[g_unsat], &Budget::unlimited());
        assert_eq!(r, SatResult::Unsat);
        // Goal 2: a == 5 → still Sat on the same session.
        let g_sat = {
            let p = sess.pool_mut();
            let c = p.const_u64(4, 5);
            p.eq(a, c)
        };
        let (r, _) = sess.check_assuming(&[g_sat], &Budget::unlimited());
        assert!(r.is_sat());
    }

    #[test]
    fn folded_targets_degenerate_to_pinned_literals() {
        let mut sess = SolverSession::new();
        let t = sess.pool_mut().tru();
        let f = sess.pool_mut().fls();
        let (r, _) = sess.check_assuming(&[t], &Budget::unlimited());
        assert!(r.is_sat());
        let (r, _) = sess.check_assuming(&[f], &Budget::unlimited());
        assert_eq!(r, SatResult::Unsat);
    }

    #[test]
    fn spent_is_per_call_not_cumulative() {
        let mut sess = SolverSession::new();
        let shared = {
            let p = sess.pool_mut();
            let a = p.var("a", 10);
            let b = p.var("b", 10);
            p.mul(a, b)
        };
        let mut last_spent = None;
        for prod in [391u64, 393, 397] {
            let goal = {
                let p = sess.pool_mut();
                let c = p.const_u64(10, prod);
                p.eq(shared, c)
            };
            let (_, spent) = sess.check_assuming(&[goal], &Budget::unlimited());
            // Delta-counted: per-call spent must not be monotonically
            // absorbing the whole session history.
            let total = sess.blaster().solver().conflicts();
            assert!(spent.conflicts <= total);
            last_spent = Some(spent);
        }
        // The final call's spent is bounded by the cumulative counter.
        assert!(last_spent.unwrap().conflicts <= sess.blaster().solver().conflicts());
    }

    #[test]
    fn budget_exhaustion_reports_this_calls_spent() {
        let mut sess = SolverSession::new();
        // Hard multiplication goal with a tiny conflict budget:
        // factor the prime 65521 with both factors in 2..256, so the
        // 16-bit product cannot wrap and the goal is genuinely UNSAT.
        let goal = {
            let p = sess.pool_mut();
            let a = p.var("a", 16);
            let b = p.var("b", 16);
            let m = p.mul(a, b);
            let one = p.const_u64(16, 1);
            let lim = p.const_u64(16, 256);
            let a_ok = {
                let lo = p.ult(one, a);
                let hi = p.ult(a, lim);
                p.and(lo, hi)
            };
            let b_ok = {
                let lo = p.ult(one, b);
                let hi = p.ult(b, lim);
                p.and(lo, hi)
            };
            let c = p.const_u64(16, 65_521); // prime: no factor pair
            let eq = p.eq(m, c);
            let both = p.and(a_ok, b_ok);
            p.and(eq, both)
        };
        let budget = Budget::unlimited().with_conflicts(2);
        let (r, spent) = sess.check_assuming(&[goal], &budget);
        assert_eq!(
            r,
            SatResult::Unknown {
                reason: UnknownReason::Conflicts
            }
        );
        assert!(spent.conflicts >= 2, "{spent:?}");
        // An escalated retry on the same session is still bounded.
        let (r, escalated) = sess.check_assuming(&[goal], &budget.escalate(2));
        assert!(
            matches!(
                r,
                SatResult::Unknown {
                    reason: UnknownReason::Conflicts
                }
            ),
            "{r:?}"
        );
        assert!(escalated.conflicts <= 4, "{escalated:?}");
        // Warm retry on the same session with room to finish.
        let before = sess.blaster().solver().conflicts();
        let (r, spent2) = sess.check_assuming(&[goal], &Budget::unlimited());
        assert_eq!(r, SatResult::Unsat);
        // The retry's spent excludes the earlier calls' work.
        assert!(spent2.conflicts <= sess.blaster().solver().conflicts() - before);
    }

    #[test]
    fn assumptions_reuse_the_asserted_cnf() {
        let mut sess = SolverSession::new();
        let a = sess.pool_mut().var("a", 4);
        let lt8 = {
            let p = sess.pool_mut();
            let eight = p.const_u64(4, 8);
            p.ult(a, eight)
        };
        sess.assert_term(lt8);
        // Values 0..8 reachable, 8..10 not; the model reads `a` back.
        for v in 0..10u64 {
            let goal = {
                let p = sess.pool_mut();
                let c = p.const_u64(4, v);
                p.eq(a, c)
            };
            match sess.check_assuming(&[goal], &Budget::unlimited()).0 {
                SatResult::Sat(model) => {
                    assert!(v < 8, "a == {v} violates a < 8");
                    assert_eq!(sess.value_of(a, &model).unwrap().to_u64(), Some(v));
                }
                other => assert!(v >= 8 && other == SatResult::Unsat, "a == {v}: {other:?}"),
            }
        }
        // Contradictory assertions make the whole session Unsat.
        let three = {
            let p = sess.pool_mut();
            let c = p.const_u64(4, 3);
            p.eq(a, c)
        };
        let seven = {
            let p = sess.pool_mut();
            let c = p.const_u64(4, 7);
            p.eq(a, c)
        };
        sess.assert_term(three);
        sess.assert_term(seven);
        let (r, _) = sess.check_assuming(&[], &Budget::unlimited());
        assert_eq!(r, SatResult::Unsat);
    }

    /// `x * y == 821297 * 823541` over 20-bit factors, both above 1: a
    /// few hundred conflicts cannot crack it.
    pub(crate) fn semiprime_goal(p: &mut TermPool) -> TermId {
        let x = p.var("x", 20);
        let y = p.var("y", 20);
        let xw = p.resize(x, 40);
        let yw = p.resize(y, 40);
        let prod = p.mul(xw, yw);
        let c = p.const_u64(40, 676_371_752_677);
        let eq = p.eq(prod, c);
        let one = p.const_u64(20, 1);
        let xg = p.ult(one, x);
        let yg = p.ult(one, y);
        let guards = p.and(xg, yg);
        p.and(eq, guards)
    }

    #[test]
    fn introspection_traces_the_search() {
        let mut sess = SolverSession::new();
        let goal = semiprime_goal(sess.pool_mut());
        sess.assert_term(goal);
        assert!(
            sess.take_trace(4).is_none(),
            "introspection defaults to off"
        );
        sess.enable_trace();
        let _ = sess.check_assuming(&[], &Budget::unlimited().with_conflicts(200));
        let t = sess.take_trace(8).expect("trace armed");
        assert!(t.learned >= 1, "search learned no clauses: {t:?}");
    }

    #[test]
    fn session_cnf_grows_with_blasting() {
        let mut sess = SolverSession::new();
        let empty = sess.cnf_stats().num_clauses;
        let goal = {
            let p = sess.pool_mut();
            let a = p.var("a", 32);
            let b = p.var("b", 32);
            let m = p.mul(a, b);
            let c = p.const_u64(32, 77);
            p.eq(m, c)
        };
        let _ = sess.lit_of(goal);
        assert!(sess.cnf_stats().num_clauses > empty);
    }
}
