//! Tseitin bit-blasting of QF_BV terms into CNF.

use crate::sat::{Lit, SatSolver};
use crate::term::{TermId, TermKind, TermPool};
use symbfuzz_logic::Bit;

/// A term's literals: `len` entries of the flat literal vector from
/// `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The table entry of a term not blasted yet.
    const NONE: Span = Span {
        start: u32::MAX,
        len: 0,
    };

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

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
/// chains. The literals of all blasted terms sit back to back in one
/// vector, found through a table indexed by [`TermId`].
#[derive(Debug, Clone)]
pub struct BitBlaster {
    solver: SatSolver,
    /// Per [`TermId`], its literals' span in `lits`, [`Span::NONE`]
    /// until blasted.
    spans: Vec<Span>,
    lits: Vec<Lit>,
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
            spans: Vec::new(),
            lits: Vec::new(),
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

    /// The span of an already blasted term.
    fn span(&self, t: TermId) -> Span {
        self.spans[t.index()]
    }

    /// The `i`th literal of an already blasted term.
    fn bit(&self, t: TermId, i: usize) -> Lit {
        self.lits[self.span(t).start as usize + i]
    }

    fn width_of(&self, t: TermId) -> usize {
        self.span(t).len as usize
    }

    /// Ripple-carry sum of `a` and `b` (`b` negated when `negate_b`),
    /// pushed onto the literal vector.
    fn push_adder(&mut self, a: TermId, b: TermId, negate_b: bool, mut carry: Lit) {
        for i in 0..self.width_of(a) {
            let y = self.bit(b, i);
            let y = if negate_b { y.negated() } else { y };
            let (sum, c) = self.full_adder(self.bit(a, i), y, carry);
            self.lits.push(sum);
            carry = c;
        }
    }

    /// `op` applied bitwise to `a` and `b`, pushed onto the literal
    /// vector.
    fn push_bitwise(&mut self, a: TermId, b: TermId, op: fn(&mut Self, Lit, Lit) -> Lit) {
        for i in 0..self.width_of(a).min(self.width_of(b)) {
            let g = op(self, self.bit(a, i), self.bit(b, i));
            self.lits.push(g);
        }
    }

    /// Bit-blasts `t` and returns one literal per bit, LSB first.
    pub(crate) fn lits(&mut self, pool: &TermPool, t: TermId) -> &[Lit] {
        let span = self.blast(pool, t);
        &self.lits[span.range()]
    }

    /// Blasts `t`'s children, then pushes `t`'s literals onto the flat
    /// vector, creating gates in bit order.
    fn blast(&mut self, pool: &TermPool, t: TermId) -> Span {
        if let Some(&span) = self.spans.get(t.index()) {
            if span != Span::NONE {
                return span;
            }
        } else {
            self.spans.resize(pool.len(), Span::NONE);
        }
        let kind = pool.kind(t);
        // Children first, in the order their literals are read.
        match kind {
            TermKind::Const(_) | TermKind::Var(..) => {}
            TermKind::Not(a)
            | TermKind::Extract { arg: a, .. }
            | TermKind::ShlConst(a, _)
            | TermKind::LshrConst(a, _)
            | TermKind::RedAnd(a)
            | TermKind::RedOr(a)
            | TermKind::RedXor(a) => {
                self.blast(pool, a);
            }
            TermKind::And(a, b)
            | TermKind::Or(a, b)
            | TermKind::Xor(a, b)
            | TermKind::Add(a, b)
            | TermKind::Sub(a, b)
            | TermKind::Mul(a, b)
            | TermKind::Eq(a, b)
            | TermKind::Ult(a, b) => {
                self.blast(pool, a);
                self.blast(pool, b);
            }
            TermKind::Ite(c, a, b) => {
                self.blast(pool, c);
                self.blast(pool, a);
                self.blast(pool, b);
            }
            TermKind::ConcatPair(hi, lo) => {
                self.blast(pool, lo);
                self.blast(pool, hi);
            }
        }
        let start = self.lits.len();
        match kind {
            TermKind::Const(c) => {
                for b in pool.const_value(c).iter_bits() {
                    let l = self.const_lit(b == Bit::One);
                    self.lits.push(l);
                }
            }
            TermKind::Var(_, w) => {
                for _ in 0..w {
                    let l = self.fresh();
                    self.lits.push(l);
                }
            }
            TermKind::Not(a) => {
                for i in self.span(a).range() {
                    let l = self.lits[i].negated();
                    self.lits.push(l);
                }
            }
            TermKind::And(a, b) => self.push_bitwise(a, b, Self::and_gate),
            TermKind::Or(a, b) => self.push_bitwise(a, b, Self::or_gate),
            TermKind::Xor(a, b) => self.push_bitwise(a, b, Self::xor_gate),
            TermKind::Add(a, b) => {
                let f = self.const_lit(false);
                self.push_adder(a, b, false, f);
            }
            TermKind::Sub(a, b) => {
                let t1 = self.const_lit(true);
                self.push_adder(a, b, true, t1);
            }
            TermKind::Mul(a, b) => {
                let w = self.width_of(a);
                let f = self.const_lit(false);
                let mut acc = vec![f; w];
                let mut addend = vec![f; w];
                for i in 0..self.width_of(b) {
                    let bi = self.bit(b, i);
                    // addend = (a << i) gated by b_i
                    addend.fill(f);
                    for j in 0..w.saturating_sub(i) {
                        addend[j + i] = self.and_gate(self.bit(a, j), bi);
                    }
                    let mut carry = f;
                    for (x, &y) in acc.iter_mut().zip(&addend) {
                        let (sum, c) = self.full_adder(*x, y, carry);
                        *x = sum;
                        carry = c;
                    }
                }
                self.lits.extend_from_slice(&acc);
            }
            TermKind::Eq(a, b) => {
                let mut acc = self.const_lit(true);
                for i in 0..self.width_of(a).min(self.width_of(b)) {
                    let same = self.xor_gate(self.bit(a, i), self.bit(b, i)).negated();
                    acc = self.and_gate(acc, same);
                }
                self.lits.push(acc);
            }
            TermKind::Ult(a, b) => {
                // MSB-first: lt = (¬a_i ∧ b_i) ∨ (a_i ≡ b_i) ∧ lt_below
                let mut lt = self.const_lit(false);
                for i in 0..self.width_of(a).min(self.width_of(b)) {
                    // iterating LSB→MSB and folding keeps the same
                    // recurrence with the MSB applied last
                    let (x, y) = (self.bit(a, i), self.bit(b, i));
                    let strictly = self.and_gate(x.negated(), y);
                    let same = self.xor_gate(x, y).negated();
                    let keep = self.and_gate(same, lt);
                    lt = self.or_gate(strictly, keep);
                }
                self.lits.push(lt);
            }
            TermKind::Ite(c, a, b) => {
                let lc = self.bit(c, 0);
                for i in 0..self.width_of(a).min(self.width_of(b)) {
                    let g = self.mux_gate(lc, self.bit(a, i), self.bit(b, i));
                    self.lits.push(g);
                }
            }
            TermKind::Extract { arg, lo, width } => {
                // A slice of the argument's literals; nothing to push.
                let span = Span {
                    start: self.span(arg).start + lo,
                    len: width,
                };
                self.spans[t.index()] = span;
                return span;
            }
            TermKind::ConcatPair(hi, lo) => {
                self.lits.extend_from_within(self.span(lo).range());
                self.lits.extend_from_within(self.span(hi).range());
            }
            TermKind::ShlConst(a, n) => {
                let (w, n) = (self.width_of(a), n as usize);
                let f = self.const_lit(false);
                for i in 0..w {
                    let l = if i >= n { self.bit(a, i - n) } else { f };
                    self.lits.push(l);
                }
            }
            TermKind::LshrConst(a, n) => {
                let (w, n) = (self.width_of(a), n as usize);
                let f = self.const_lit(false);
                for i in 0..w {
                    let l = if i + n < w { self.bit(a, i + n) } else { f };
                    self.lits.push(l);
                }
            }
            TermKind::RedAnd(a) => {
                let mut acc = self.const_lit(true);
                for i in 0..self.width_of(a) {
                    acc = self.and_gate(acc, self.bit(a, i));
                }
                self.lits.push(acc);
            }
            TermKind::RedOr(a) => {
                let mut acc = self.const_lit(false);
                for i in 0..self.width_of(a) {
                    acc = self.or_gate(acc, self.bit(a, i));
                }
                self.lits.push(acc);
            }
            TermKind::RedXor(a) => {
                let mut acc = self.const_lit(false);
                for i in 0..self.width_of(a) {
                    acc = self.xor_gate(acc, self.bit(a, i));
                }
                self.lits.push(acc);
            }
        }
        let span = Span {
            start: u32::try_from(start).expect("literal table outgrew u32 offsets"),
            len: u32::try_from(self.lits.len() - start).expect("term width fits u32"),
        };
        debug_assert_eq!(span.len, pool.width(t));
        self.spans[t.index()] = span;
        span
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

    /// The literals previously produced for `t`, if blasted.
    pub fn lits_of(&self, t: TermId) -> Option<&[Lit]> {
        let span = *self.spans.get(t.index())?;
        (span != Span::NONE).then(|| &self.lits[span.range()])
    }

    /// Attributes SAT variables back to the blasted terms whose bit
    /// vectors contain them, as `(var, term, bit_index)`. When several
    /// terms share a literal (gate/extract sharing), the smallest
    /// [`TermId`] wins, and within it the lowest bit, so attribution is
    /// deterministic. Introspection path only — walks the whole
    /// literal table.
    pub fn attribute_vars(&self, vars: &[u32]) -> Vec<(u32, TermId, u32)> {
        let mut owner: Vec<Option<(TermId, u32)>> = vec![None; self.solver.num_vars()];
        for (t, &span) in self.spans.iter().enumerate() {
            if span == Span::NONE {
                continue;
            }
            let t = TermId(u32::try_from(t).expect("term index fits a TermId"));
            for (i, l) in (0u32..).zip(&self.lits[span.range()]) {
                owner[l.var() as usize].get_or_insert((t, i));
            }
        }
        vars.iter()
            .filter_map(|&v| {
                owner
                    .get(v as usize)
                    .copied()
                    .flatten()
                    .map(|(t, i)| (v, t, i))
            })
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
