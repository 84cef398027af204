//! Property tests: the CDCL solver must agree with brute force on small
//! random CNFs, and bit-blasted arithmetic must agree with `u64`
//! semantics.

use proptest::prelude::*;
use std::collections::HashMap;
use symbfuzz_logic::LogicVec;
use symbfuzz_smt::{Budget, Lit, SatResult, SatSolver, SolverSession, TermId, TermKind};

/// Brute-force satisfiability for ≤ 16 variables.
fn brute_force(num_vars: u32, clauses: &[Vec<(u32, bool)>]) -> bool {
    for m in 0u32..(1 << num_vars) {
        let ok = clauses
            .iter()
            .all(|c| c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos));
        if ok {
            return true;
        }
    }
    false
}

/// Asserts `goal` on the session and solves it. A model comes back as
/// an evaluation environment over `vars`, each variable read off its
/// bit literals, for checking with `TermPool::eval`.
fn solve(
    s: &mut SolverSession,
    goal: TermId,
    vars: &[TermId],
) -> Option<HashMap<String, LogicVec>> {
    s.assert_term(goal);
    let (SatResult::Sat(model), _) = s.check_assuming(&[], &Budget::unlimited()) else {
        return None;
    };
    let env = vars
        .iter()
        .map(|&t| {
            let TermKind::Var(sym, _) = s.pool().kind(t) else {
                panic!("{t:?} is not a variable")
            };
            let v = s.value_of(t, &model).expect("variable was blasted");
            (s.pool().name(sym).to_string(), v)
        })
        .collect();
    Some(env)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cdcl_agrees_with_brute_force(
        num_vars in 1u32..10,
        clause_data in proptest::collection::vec(
            proptest::collection::vec((0u32..10, any::<bool>()), 1..4), 1..30),
    ) {
        let clauses: Vec<Vec<(u32, bool)>> = clause_data
            .into_iter()
            .map(|c| c.into_iter().map(|(v, p)| (v % num_vars, p)).collect())
            .collect();
        let mut solver = SatSolver::new();
        for _ in 0..num_vars {
            solver.new_var();
        }
        for c in &clauses {
            let lits: Vec<Lit> = c.iter().map(|&(v, p)| Lit::new(v, p)).collect();
            solver.add_clause(&lits);
        }
        let expected = brute_force(num_vars, &clauses);
        match solver.solve_budgeted(&[], &Budget::unlimited()) {
            SatResult::Sat(model) => {
                prop_assert!(expected, "solver said SAT, brute force says UNSAT");
                // The model must actually satisfy every clause.
                for c in &clauses {
                    prop_assert!(c.iter().any(|&(v, p)| model[v as usize] == p),
                        "model does not satisfy clause {c:?}");
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "solver said UNSAT, brute force says SAT"),
            SatResult::Unknown { .. } => prop_assert!(false, "unlimited solve returned Unknown"),
        }
    }

    #[test]
    fn blasted_add_sub_mul_match_u64(a: u64, b: u64, width in 1u32..=10) {
        let m = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        let (a, b) = (a & m, b & m);
        for op in 0..3 {
            let mut s = SolverSession::new();
            let va = s.pool_mut().var("a", width);
            let vb = s.pool_mut().var("b", width);
            let expected = match op {
                0 => a.wrapping_add(b) & m,
                1 => a.wrapping_sub(b) & m,
                _ => a.wrapping_mul(b) & m,
            };
            let goal = {
                let p = s.pool_mut();
                let ca = p.const_u64(width, a);
                let cb = p.const_u64(width, b);
                let ea = p.eq(va, ca);
                let eb = p.eq(vb, cb);
                let r = match op {
                    0 => p.add(va, vb),
                    1 => p.sub(va, vb),
                    _ => p.mul(va, vb),
                };
                let ce = p.const_u64(width, expected);
                let er = p.eq(r, ce);
                let both = p.and(ea, eb);
                p.and(both, er)
            };
            let env = solve(&mut s, goal, &[va, vb]);
            prop_assert!(env.is_some(), "op {op}: {a} ? {b} != {expected} at width {width}");
            prop_assert_eq!(s.pool().eval(goal, &env.unwrap()).to_u64(), Some(1));
        }
    }

    #[test]
    fn blasted_comparison_matches_u64(a: u64, b: u64, width in 1u32..=12) {
        let m = (1u64 << width) - 1;
        let (a, b) = (a & m, b & m);
        let mut s = SolverSession::new();
        let va = s.pool_mut().var("a", width);
        let goal = {
            let p = s.pool_mut();
            let ca = p.const_u64(width, a);
            let cb = p.const_u64(width, b);
            let ea = p.eq(va, ca);
            let lt = p.ult(va, cb);
            let expect = p.const_u64(1, (a < b) as u64);
            let e = p.eq(lt, expect);
            p.and(ea, e)
        };
        let env = solve(&mut s, goal, &[va]);
        prop_assert!(env.is_some());
        prop_assert_eq!(s.pool().eval(goal, &env.unwrap()).to_u64(), Some(1));
    }

    #[test]
    fn solved_models_validate_by_evaluation(target: u8, width in 4u32..=8) {
        // Find inputs with (a ^ b) + (a & b) == target (mod 2^w); such
        // inputs always exist (a = target, b = 0).
        let t = target as u64 & ((1u64 << width) - 1);
        let mut s = SolverSession::new();
        let a = s.pool_mut().var("a", width);
        let b = s.pool_mut().var("b", width);
        let goal = {
            let p = s.pool_mut();
            let x = p.xor(a, b);
            let n = p.and(a, b);
            let sum = p.add(x, n);
            let c = p.const_u64(width, t);
            p.eq(sum, c)
        };
        let Some(env) = solve(&mut s, goal, &[a, b]) else {
            return Err(TestCaseError::fail("expected SAT"));
        };
        prop_assert_eq!(s.pool().eval(goal, &env).to_u64(), Some(1));
        let va = env["a"].to_u64().unwrap();
        let vb = env["b"].to_u64().unwrap();
        let m = (1u64 << width) - 1;
        prop_assert_eq!(((va ^ vb) + (va & vb)) & m, t);
    }
}
