//! Tseitin bit-blasting of QF_BV terms into CNF.

use crate::sat::{Lit, SatSolver};
use crate::term::{TermId, TermKind, TermPool};
use std::collections::HashMap;
use symbfuzz_logic::Bit;

/// A CNF formula under construction (kept for introspection/tests).
#[derive(Debug, Default, Clone)]
pub struct Cnf {
    /// Number of propositional variables.
    pub num_vars: usize,
    /// Number of clauses emitted.
    pub num_clauses: usize,
}

/// Lowers terms to clauses inside an embedded [`SatSolver`].
///
/// Every term maps to one [`Lit`] per bit (LSB first). Gate outputs get
/// fresh variables constrained by Tseitin clauses; adders are ripple
/// carry, multipliers shift-and-add, comparisons MSB-first equality
/// chains.
#[derive(Debug, Clone)]
pub struct BitBlaster {
    solver: SatSolver,
    map: HashMap<TermId, Vec<Lit>>,
    tru: Lit,
    stats: Cnf,
}

impl Default for BitBlaster {
    fn default() -> Self {
        Self::new()
    }
}

impl BitBlaster {
    /// Creates a blaster with an empty solver and the constant-true
    /// variable pinned.
    pub fn new() -> BitBlaster {
        let mut solver = SatSolver::new();
        let v = solver.new_var();
        let tru = Lit::new(v, true);
        solver.add_clause(&[tru]);
        BitBlaster {
            solver,
            map: HashMap::new(),
            tru,
            stats: Cnf {
                num_vars: 1,
                num_clauses: 1,
            },
        }
    }

    /// CNF size statistics.
    pub fn stats(&self) -> &Cnf {
        &self.stats
    }

    /// The embedded solver (e.g. to call
    /// [`solve_budgeted`](crate::SatSolver::solve_budgeted) after
    /// asserting).
    pub fn solver_mut(&mut self) -> &mut SatSolver {
        &mut self.solver
    }

    /// Immutable access to the embedded solver.
    pub fn solver(&self) -> &SatSolver {
        &self.solver
    }

    fn fresh(&mut self) -> Lit {
        let v = self.solver.new_var();
        self.stats.num_vars += 1;
        Lit::new(v, true)
    }

    fn clause(&mut self, lits: &[Lit]) {
        self.solver.add_clause(lits);
        self.stats.num_clauses += 1;
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.tru
        } else {
            self.tru.negated()
        }
    }

    fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.tru {
            return b;
        }
        if b == self.tru {
            return a;
        }
        if a == self.tru.negated() || b == self.tru.negated() {
            return self.tru.negated();
        }
        if a == b {
            return a;
        }
        if a == b.negated() {
            return self.tru.negated();
        }
        let c = self.fresh();
        self.clause(&[c.negated(), a]);
        self.clause(&[c.negated(), b]);
        self.clause(&[a.negated(), b.negated(), c]);
        c
    }

    fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        self.and_gate(a.negated(), b.negated()).negated()
    }

    fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.tru {
            return b.negated();
        }
        if a == self.tru.negated() {
            return b;
        }
        if b == self.tru {
            return a.negated();
        }
        if b == self.tru.negated() {
            return a;
        }
        if a == b {
            return self.tru.negated();
        }
        if a == b.negated() {
            return self.tru;
        }
        let c = self.fresh();
        self.clause(&[a.negated(), b.negated(), c.negated()]);
        self.clause(&[a, b, c.negated()]);
        self.clause(&[a, b.negated(), c]);
        self.clause(&[a.negated(), b, c]);
        c
    }

    fn mux_gate(&mut self, sel: Lit, then: Lit, els: Lit) -> Lit {
        let t = self.and_gate(sel, then);
        let e = self.and_gate(sel.negated(), els);
        self.or_gate(t, e)
    }

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor_gate(a, b);
        let sum = self.xor_gate(axb, cin);
        let c1 = self.and_gate(a, b);
        let c2 = self.and_gate(axb, cin);
        let cout = self.or_gate(c1, c2);
        (sum, cout)
    }

    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        out
    }

    /// Bit-blasts `t` and returns one literal per bit, LSB first.
    pub fn lits(&mut self, pool: &TermPool, t: TermId) -> Vec<Lit> {
        if let Some(ls) = self.map.get(&t) {
            return ls.clone();
        }
        let out: Vec<Lit> = match pool.kind(t).clone() {
            TermKind::Const(v) => v
                .iter_bits()
                .map(|b| self.const_lit(b == Bit::One))
                .collect(),
            TermKind::Var(_, w) => (0..w).map(|_| self.fresh()).collect(),
            TermKind::Not(a) => self.lits(pool, a).iter().map(|l| l.negated()).collect(),
            TermKind::And(a, b) => {
                let (la, lb) = (self.lits(pool, a), self.lits(pool, b));
                la.iter()
                    .zip(&lb)
                    .map(|(&x, &y)| self.and_gate(x, y))
                    .collect()
            }
            TermKind::Or(a, b) => {
                let (la, lb) = (self.lits(pool, a), self.lits(pool, b));
                la.iter()
                    .zip(&lb)
                    .map(|(&x, &y)| self.or_gate(x, y))
                    .collect()
            }
            TermKind::Xor(a, b) => {
                let (la, lb) = (self.lits(pool, a), self.lits(pool, b));
                la.iter()
                    .zip(&lb)
                    .map(|(&x, &y)| self.xor_gate(x, y))
                    .collect()
            }
            TermKind::Add(a, b) => {
                let (la, lb) = (self.lits(pool, a), self.lits(pool, b));
                let f = self.const_lit(false);
                self.adder(&la, &lb, f)
            }
            TermKind::Sub(a, b) => {
                let la = self.lits(pool, a);
                let lb: Vec<Lit> = self.lits(pool, b).iter().map(|l| l.negated()).collect();
                let t1 = self.const_lit(true);
                self.adder(&la, &lb, t1)
            }
            TermKind::Mul(a, b) => {
                let (la, lb) = (self.lits(pool, a), self.lits(pool, b));
                let w = la.len();
                let mut acc: Vec<Lit> = vec![self.const_lit(false); w];
                for (i, &bi) in lb.iter().enumerate() {
                    // addend = (a << i) gated by b_i
                    let mut addend = vec![self.const_lit(false); w];
                    for j in 0..w.saturating_sub(i) {
                        addend[j + i] = self.and_gate(la[j], bi);
                    }
                    let f = self.const_lit(false);
                    acc = self.adder(&acc, &addend, f);
                }
                acc
            }
            TermKind::Eq(a, b) => {
                let (la, lb) = (self.lits(pool, a), self.lits(pool, b));
                let mut acc = self.const_lit(true);
                for (&x, &y) in la.iter().zip(&lb) {
                    let same = self.xor_gate(x, y).negated();
                    acc = self.and_gate(acc, same);
                }
                vec![acc]
            }
            TermKind::Ult(a, b) => {
                let (la, lb) = (self.lits(pool, a), self.lits(pool, b));
                // MSB-first: lt = (¬a_i ∧ b_i) ∨ (a_i ≡ b_i) ∧ lt_below
                let mut lt = self.const_lit(false);
                for (&x, &y) in la.iter().zip(&lb) {
                    // iterating LSB→MSB and folding keeps the same
                    // recurrence with the MSB applied last
                    let strictly = self.and_gate(x.negated(), y);
                    let same = self.xor_gate(x, y).negated();
                    let keep = self.and_gate(same, lt);
                    lt = self.or_gate(strictly, keep);
                }
                vec![lt]
            }
            TermKind::Ite(c, a, b) => {
                let lc = self.lits(pool, c)[0];
                let (la, lb) = (self.lits(pool, a), self.lits(pool, b));
                la.iter()
                    .zip(&lb)
                    .map(|(&x, &y)| self.mux_gate(lc, x, y))
                    .collect()
            }
            TermKind::Extract { arg, lo, width } => {
                let la = self.lits(pool, arg);
                la[lo as usize..(lo + width) as usize].to_vec()
            }
            TermKind::ConcatPair(hi, lo) => {
                let mut out = self.lits(pool, lo);
                out.extend(self.lits(pool, hi));
                out
            }
            TermKind::ShlConst(a, n) => {
                let la = self.lits(pool, a);
                let w = la.len();
                let mut out = vec![self.const_lit(false); w];
                for i in 0..w.saturating_sub(n as usize) {
                    out[i + n as usize] = la[i];
                }
                out
            }
            TermKind::LshrConst(a, n) => {
                let la = self.lits(pool, a);
                let w = la.len();
                let mut out = vec![self.const_lit(false); w];
                for i in n as usize..w {
                    out[i - n as usize] = la[i];
                }
                out
            }
            TermKind::RedAnd(a) => {
                let la = self.lits(pool, a);
                let mut acc = self.const_lit(true);
                for &x in &la {
                    acc = self.and_gate(acc, x);
                }
                vec![acc]
            }
            TermKind::RedOr(a) => {
                let la = self.lits(pool, a);
                let mut acc = self.const_lit(false);
                for &x in &la {
                    acc = self.or_gate(acc, x);
                }
                vec![acc]
            }
            TermKind::RedXor(a) => {
                let la = self.lits(pool, a);
                let mut acc = self.const_lit(false);
                for &x in &la {
                    acc = self.xor_gate(acc, x);
                }
                vec![acc]
            }
        };
        debug_assert_eq!(out.len() as u32, pool.width(t));
        self.map.insert(t, out.clone());
        out
    }

    /// Asserts that a 1-bit term is true.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not one bit wide.
    pub fn assert_true(&mut self, pool: &TermPool, t: TermId) {
        assert_eq!(pool.width(t), 1, "assertions must be one bit wide");
        let l = self.lits(pool, t)[0];
        self.clause(&[l]);
    }

    /// The literal vector previously produced for `t`, if blasted.
    pub fn lits_of(&self, t: TermId) -> Option<&[Lit]> {
        self.map.get(&t).map(|v| v.as_slice())
    }

    /// Attributes SAT variables back to the blasted terms whose bit
    /// vectors contain them, as `(var, term, bit_index)`. When several
    /// terms share a literal (gate/extract sharing), the smallest
    /// [`TermId`] wins, so attribution is deterministic. Introspection
    /// path only — builds a reverse index over the whole blast map.
    pub fn attribute_vars(&self, vars: &[u32]) -> Vec<(u32, TermId, u32)> {
        let mut reverse: HashMap<u32, (TermId, u32)> = HashMap::new();
        for (&t, lits) in &self.map {
            for (i, l) in lits.iter().enumerate() {
                let slot = reverse.entry(l.var()).or_insert((t, i as u32));
                if t < slot.0 {
                    *slot = (t, i as u32);
                }
            }
        }
        vars.iter()
            .filter_map(|&v| reverse.get(&v).map(|&(t, i)| (v, t, i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;
    use symbfuzz_logic::LogicVec;

    /// Blast `lhs == rhs-value` for a concrete evaluation and check SAT.
    fn assert_equation_sat(
        pool: &mut TermPool,
        t: TermId,
        expect: u64,
    ) -> Option<std::collections::HashMap<String, LogicVec>> {
        let w = pool.width(t);
        let c = pool.const_u64(w, expect);
        let eq = pool.eq(t, c);
        let mut bb = BitBlaster::new();
        bb.assert_true(pool, eq);
        match bb
            .solver_mut()
            .solve_budgeted(&[], &crate::Budget::unlimited())
        {
            SatResult::Sat(model) => {
                let mut env = std::collections::HashMap::new();
                for (name, width) in pool.vars() {
                    let vt = pool.var(name.clone(), width);
                    let lits = bb.lits_of(vt);
                    let mut v = LogicVec::zeros(width);
                    if let Some(lits) = lits {
                        for (i, l) in lits.iter().enumerate() {
                            let b = model[l.var() as usize] == l.is_pos();
                            v.set_bit(i as u32, symbfuzz_logic::Bit::from_bool(b));
                        }
                    }
                    env.insert(name, v);
                }
                Some(env)
            }
            // The budget is unlimited, so Unknown cannot occur here.
            SatResult::Unsat | SatResult::Unknown { .. } => None,
        }
    }

    #[test]
    fn add_equation_solves_and_validates() {
        let mut p = TermPool::new();
        let a = p.var("a", 8);
        let b = p.var("b", 8);
        let sum = p.add(a, b);
        let env = assert_equation_sat(&mut p, sum, 100).expect("satisfiable");
        let got = p.eval(sum, &env);
        assert_eq!(got.to_u64(), Some(100));
    }

    #[test]
    fn sub_and_mul_solve() {
        let mut p = TermPool::new();
        let a = p.var("a", 6);
        let b = p.var("b", 6);
        let d = p.sub(a, b);
        let env = assert_equation_sat(&mut p, d, 5).expect("sub satisfiable");
        assert_eq!(p.eval(d, &env).to_u64(), Some(5));

        let mut p = TermPool::new();
        let a = p.var("a", 6);
        let m = {
            let three = p.const_u64(6, 3);
            p.mul(a, three)
        };
        let env = assert_equation_sat(&mut p, m, 21).expect("mul satisfiable");
        assert_eq!(env["a"].to_u64(), Some(7));
    }

    #[test]
    fn impossible_equation_is_unsat() {
        let mut p = TermPool::new();
        let a = p.var("a", 4);
        // a & 0b0001 == 2 is impossible.
        let masked = {
            let m = p.const_u64(4, 1);
            p.and(a, m)
        };
        assert!(assert_equation_sat(&mut p, masked, 2).is_none());
    }

    #[test]
    fn ult_constraints() {
        let mut p = TermPool::new();
        let a = p.var("a", 8);
        let lt = {
            let c = p.const_u64(8, 3);
            p.ult(a, c)
        };
        let ge = {
            let c = p.const_u64(8, 1);
            let l = p.ult(a, c);
            p.not(l)
        };
        let both = p.and(lt, ge);
        let env = assert_equation_sat(&mut p, both, 1).expect("1 <= a < 3");
        let v = env["a"].to_u64().unwrap();
        assert!((1..3).contains(&v), "got {v}");
    }

    #[test]
    fn ite_mux_solves() {
        let mut p = TermPool::new();
        let c = p.var("c", 1);
        let x = {
            let t = p.const_u64(8, 0xAA);
            let e = p.const_u64(8, 0x55);
            p.ite(c, t, e)
        };
        let env = assert_equation_sat(&mut p, x, 0x55).expect("mux satisfiable");
        assert_eq!(env["c"].to_u64(), Some(0));
    }

    #[test]
    fn concat_extract_shift_pipeline() {
        let mut p = TermPool::new();
        let a = p.var("a", 4);
        let b = p.var("b", 4);
        let cat = p.concat(a, b); // {a,b}: 8 bits
        let hi = p.extract(cat, 4, 4); // == a
        let sh = p.shl_const(hi, 1);
        let eq_target = {
            let c6 = p.const_u64(4, 6);
            p.eq(sh, c6)
        };
        let red = {
            let rb = p.red_or(b);
            p.not(rb) // b == 0
        };
        let both = p.and(eq_target, red);
        let env = assert_equation_sat(&mut p, both, 1).expect("satisfiable");
        assert_eq!(env["a"].to_u64(), Some(3)); // 3 << 1 == 6
        assert_eq!(env["b"].to_u64(), Some(0));
    }

    #[test]
    fn reductions_blast_correctly() {
        let mut p = TermPool::new();
        let a = p.var("a", 5);
        let rx = p.red_xor(a);
        let ra = p.red_and(a);
        // odd parity and not all ones
        let cond = {
            let na = p.not(ra);
            p.and(rx, na)
        };
        let env = assert_equation_sat(&mut p, cond, 1).expect("satisfiable");
        let v = env["a"].to_u64().unwrap();
        assert_eq!(v.count_ones() % 2, 1);
        assert_ne!(v, 0b11111);
    }
}
