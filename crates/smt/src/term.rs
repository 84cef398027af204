//! Hash-consed QF_BV terms with constant folding.

use crate::idhash::IdMap;
use std::collections::HashMap;
use symbfuzz_logic::LogicVec;

/// Index of a term in a [`TermPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The pool index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned variable name of a [`TermPool`]; read it back with
/// [`TermPool::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

/// An interned constant value of a [`TermPool`]; read it back with
/// [`TermPool::const_value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(u32);

/// The shape of a term. All bit-vector values are unsigned; constants
/// are fully defined (`X`/`Z` never enter the solver — the paper's
/// engine "constrains solving undefined pin values" by *choosing*
/// concrete values for them, §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermKind {
    /// A constant (no unknown bits).
    Const(ConstId),
    /// A free variable with a name and width.
    Var(Sym, u32),
    /// Bitwise NOT.
    Not(TermId),
    /// Bitwise AND.
    And(TermId, TermId),
    /// Bitwise OR.
    Or(TermId, TermId),
    /// Bitwise XOR.
    Xor(TermId, TermId),
    /// Two's-complement addition (wrapping).
    Add(TermId, TermId),
    /// Two's-complement subtraction (wrapping).
    Sub(TermId, TermId),
    /// Multiplication (wrapping).
    Mul(TermId, TermId),
    /// Equality; 1-bit result.
    Eq(TermId, TermId),
    /// Unsigned less-than; 1-bit result.
    Ult(TermId, TermId),
    /// If-then-else; `cond` is 1 bit.
    Ite(TermId, TermId, TermId),
    /// `arg[lo + width - 1 : lo]`.
    Extract {
        /// Source term.
        arg: TermId,
        /// Low bit.
        lo: u32,
        /// Result width.
        width: u32,
    },
    /// `{hi, lo}` concatenation.
    ConcatPair(TermId, TermId),
    /// Logical shift left by a constant.
    ShlConst(TermId, u32),
    /// Logical shift right by a constant.
    LshrConst(TermId, u32),
    /// AND-reduction; 1-bit result.
    RedAnd(TermId),
    /// OR-reduction; 1-bit result.
    RedOr(TermId),
    /// XOR-reduction; 1-bit result.
    RedXor(TermId),
}

/// A hash-consing arena of terms.
///
/// Construction methods fold constants eagerly and apply cheap identity
/// rewrites (`x & 0 = 0`, `x ^ x = 0`, `ite(c, t, t) = t`, …), so
/// structurally equal terms share a [`TermId`]. Variable names and
/// constant values live once each in interning tables, so a
/// [`TermKind`] is a few words of ids.
#[derive(Debug, Default, Clone)]
pub struct TermPool {
    terms: Vec<(TermKind, u32)>,
    intern: IdMap<TermKind, TermId>,
    /// Each variable name with the width it was declared at.
    names: Vec<(String, u32)>,
    name_ids: HashMap<String, Sym>,
    consts: Vec<LogicVec>,
    const_ids: HashMap<LogicVec, ConstId>,
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> TermPool {
        TermPool::default()
    }

    /// Number of distinct terms created.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The kind of a term.
    pub fn kind(&self, t: TermId) -> TermKind {
        self.terms[t.index()].0
    }

    /// The width of a term.
    pub fn width(&self, t: TermId) -> u32 {
        self.terms[t.index()].1
    }

    /// The constant value of a term, if it is a constant.
    pub fn as_const(&self, t: TermId) -> Option<&LogicVec> {
        match self.kind(t) {
            TermKind::Const(c) => Some(self.const_value(c)),
            _ => None,
        }
    }

    /// The value of an interned constant.
    pub fn const_value(&self, c: ConstId) -> &LogicVec {
        &self.consts[c.0 as usize]
    }

    /// The name of an interned variable.
    pub fn name(&self, sym: Sym) -> &str {
        &self.names[sym.0 as usize].0
    }

    fn mk(&mut self, kind: TermKind, width: u32) -> TermId {
        let terms = &mut self.terms;
        *self.intern.entry(kind).or_insert_with(|| {
            let id = TermId(u32::try_from(terms.len()).expect("term count fits a TermId"));
            terms.push((kind, width));
            id
        })
    }

    /// A constant term.
    ///
    /// # Panics
    ///
    /// Panics if `value` contains `X`/`Z` bits.
    pub fn constant(&mut self, value: LogicVec) -> TermId {
        assert!(
            !value.has_unknown(),
            "SMT constants must be fully defined, got {value}"
        );
        let w = value.width();
        let c = match self.const_ids.get(&value) {
            Some(&c) => c,
            None => {
                let c = ConstId(u32::try_from(self.consts.len()).expect("constant count fits"));
                self.consts.push(value.clone());
                self.const_ids.insert(value, c);
                c
            }
        };
        self.mk(TermKind::Const(c), w)
    }

    /// A `width`-bit constant from a `u64`.
    pub fn const_u64(&mut self, width: u32, value: u64) -> TermId {
        self.constant(LogicVec::from_u64(width, value))
    }

    /// The 1-bit constant true.
    pub fn tru(&mut self) -> TermId {
        self.const_u64(1, 1)
    }

    /// The 1-bit constant false.
    pub fn fls(&mut self) -> TermId {
        self.const_u64(1, 0)
    }

    /// A named free variable. Re-using a name with the same width
    /// returns the same term.
    ///
    /// # Panics
    ///
    /// Panics if the name was already used with a different width.
    pub fn var(&mut self, name: impl Into<String>, width: u32) -> TermId {
        let name = name.into();
        let sym = match self.name_ids.get(&name) {
            Some(&sym) => {
                let was = self.names[sym.0 as usize].1;
                assert!(
                    was == width,
                    "variable `{name}` redeclared with width {width} (was {was})"
                );
                sym
            }
            None => {
                let sym = Sym(u32::try_from(self.names.len()).expect("name count fits"));
                self.names.push((name.clone(), width));
                self.name_ids.insert(name, sym);
                sym
            }
        };
        self.mk(TermKind::Var(sym, width), width)
    }

    /// All variables in the pool as `(name, width)`.
    pub fn vars(&self) -> Vec<(String, u32)> {
        self.terms
            .iter()
            .filter_map(|(k, _)| match *k {
                TermKind::Var(sym, w) => Some((self.name(sym).to_string(), w)),
                _ => None,
            })
            .collect()
    }

    fn binop_width(&self, a: TermId, b: TermId) -> u32 {
        self.width(a).max(self.width(b))
    }

    /// Zero-extends or truncates `t` to `width`.
    pub fn resize(&mut self, t: TermId, width: u32) -> TermId {
        let w = self.width(t);
        if w == width {
            return t;
        }
        if let Some(v) = self.as_const(t) {
            let v = v.resized(width);
            return self.constant(v);
        }
        if width < w {
            return self.extract(t, 0, width);
        }
        let zeros = self.const_u64(width - w, 0);
        self.concat(zeros, t)
    }

    fn fold2(
        &mut self,
        a: TermId,
        b: TermId,
        f: impl Fn(&LogicVec, &LogicVec) -> LogicVec,
    ) -> Option<TermId> {
        let v = f(self.as_const(a)?, self.as_const(b)?);
        Some(self.constant(v))
    }

    /// Bitwise NOT.
    pub fn not(&mut self, t: TermId) -> TermId {
        if let Some(v) = self.as_const(t) {
            let v = !v;
            return self.constant(v);
        }
        if let TermKind::Not(inner) = self.kind(t) {
            return inner;
        }
        let w = self.width(t);
        self.mk(TermKind::Not(t), w)
    }

    /// Bitwise AND (operands zero-extended to the wider width).
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        let (a, b) = (self.resize(a, w), self.resize(b, w));
        if a == b {
            return a;
        }
        if let Some(t) = self.fold2(a, b, |x, y| x & y) {
            return t;
        }
        for (x, y) in [(a, b), (b, a)] {
            if let Some(v) = self.as_const(x) {
                if v.to_u64() == Some(0) {
                    return x; // x & 0 = 0
                }
                if v.iter_bits().all(|bit| bit == symbfuzz_logic::Bit::One) {
                    return y; // x & 1..1 = x
                }
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(TermKind::And(a, b), w)
    }

    /// Bitwise OR.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        let (a, b) = (self.resize(a, w), self.resize(b, w));
        if a == b {
            return a;
        }
        if let Some(t) = self.fold2(a, b, |x, y| x | y) {
            return t;
        }
        for (x, y) in [(a, b), (b, a)] {
            if let Some(v) = self.as_const(x) {
                if v.to_u64() == Some(0) {
                    return y; // x | 0 = x
                }
                if v.iter_bits().all(|bit| bit == symbfuzz_logic::Bit::One) {
                    return x; // x | 1..1 = 1..1
                }
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(TermKind::Or(a, b), w)
    }

    /// Bitwise XOR.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        let (a, b) = (self.resize(a, w), self.resize(b, w));
        if a == b {
            return self.const_u64(w, 0);
        }
        if let Some(t) = self.fold2(a, b, |x, y| x ^ y) {
            return t;
        }
        for (x, y) in [(a, b), (b, a)] {
            if let Some(v) = self.as_const(x) {
                if v.to_u64() == Some(0) {
                    return y; // x ^ 0 = x
                }
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(TermKind::Xor(a, b), w)
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        let (a, b) = (self.resize(a, w), self.resize(b, w));
        if let Some(t) = self.fold2(a, b, |x, y| x.add(y)) {
            return t;
        }
        for (x, y) in [(a, b), (b, a)] {
            if self.as_const(x).and_then(|v| v.to_u64()) == Some(0) {
                return y;
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(TermKind::Add(a, b), w)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        let (a, b) = (self.resize(a, w), self.resize(b, w));
        if a == b {
            return self.const_u64(w, 0);
        }
        if let Some(t) = self.fold2(a, b, |x, y| x.sub(y)) {
            return t;
        }
        if self.as_const(b).and_then(|v| v.to_u64()) == Some(0) {
            return a;
        }
        self.mk(TermKind::Sub(a, b), w)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        let (a, b) = (self.resize(a, w), self.resize(b, w));
        if let Some(t) = self.fold2(a, b, |x, y| x.mul(y)) {
            return t;
        }
        for (x, y) in [(a, b), (b, a)] {
            if let Some(c) = self.as_const(x).and_then(|v| v.to_u64()) {
                if c == 0 {
                    return x;
                }
                if c == 1 {
                    return y;
                }
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(TermKind::Mul(a, b), w)
    }

    /// Equality (1-bit result).
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        let (a, b) = (self.resize(a, w), self.resize(b, w));
        if a == b {
            return self.tru();
        }
        if let Some(t) = self.fold2(a, b, |x, y| {
            LogicVec::from_u64(1, (x.logic_eq(y) == symbfuzz_logic::Bit::One) as u64)
        }) {
            return t;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(TermKind::Eq(a, b), 1)
    }

    /// Disequality (1-bit result).
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than (1-bit result).
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.binop_width(a, b);
        let (a, b) = (self.resize(a, w), self.resize(b, w));
        if a == b {
            return self.fls();
        }
        if let Some(t) = self.fold2(a, b, |x, y| {
            LogicVec::from_u64(1, (x.ult(y) == symbfuzz_logic::Bit::One) as u64)
        }) {
            return t;
        }
        self.mk(TermKind::Ult(a, b), 1)
    }

    /// Unsigned less-or-equal (1-bit result).
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        let gt = self.ult(b, a);
        self.not(gt)
    }

    /// If-then-else; branches resized to the wider width.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        assert_eq!(self.width(cond), 1, "ite condition must be one bit");
        let w = self.binop_width(then, els);
        let (then, els) = (self.resize(then, w), self.resize(els, w));
        if then == els {
            return then;
        }
        if let Some(c) = self.as_const(cond).and_then(|v| v.to_u64()) {
            return if c == 1 { then } else { els };
        }
        self.mk(TermKind::Ite(cond, then, els), w)
    }

    /// Bit extraction `t[lo + width - 1 : lo]`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the operand width.
    pub fn extract(&mut self, t: TermId, lo: u32, width: u32) -> TermId {
        let w = self.width(t);
        assert!(lo + width <= w, "extract [{lo}+:{width}] out of {w} bits");
        if lo == 0 && width == w {
            return t;
        }
        if let Some(v) = self.as_const(t) {
            let v = v.slice(lo, width);
            return self.constant(v);
        }
        self.mk(TermKind::Extract { arg: t, lo, width }, width)
    }

    /// Concatenation `{hi, lo}`.
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let w = self.width(hi) + self.width(lo);
        if let Some(t) = self.fold2(hi, lo, LogicVec::concat) {
            return t;
        }
        self.mk(TermKind::ConcatPair(hi, lo), w)
    }

    /// Left shift by a constant (width preserved).
    pub fn shl_const(&mut self, t: TermId, amount: u32) -> TermId {
        if amount == 0 {
            return t;
        }
        if let Some(v) = self.as_const(t) {
            let v = v.shl(amount);
            return self.constant(v);
        }
        let w = self.width(t);
        self.mk(TermKind::ShlConst(t, amount), w)
    }

    /// Logical right shift by a constant (width preserved).
    pub fn lshr_const(&mut self, t: TermId, amount: u32) -> TermId {
        if amount == 0 {
            return t;
        }
        if let Some(v) = self.as_const(t) {
            let v = v.lshr(amount);
            return self.constant(v);
        }
        let w = self.width(t);
        self.mk(TermKind::LshrConst(t, amount), w)
    }

    /// Shift left by a variable amount, lowered to an ite ladder over
    /// the amount's bits.
    pub fn shl(&mut self, t: TermId, amount: TermId) -> TermId {
        self.var_shift(t, amount, true)
    }

    /// Logical shift right by a variable amount.
    pub fn lshr(&mut self, t: TermId, amount: TermId) -> TermId {
        self.var_shift(t, amount, false)
    }

    fn var_shift(&mut self, t: TermId, amount: TermId, left: bool) -> TermId {
        if let Some(a) = self.as_const(amount).and_then(|v| v.to_u64()) {
            let a = a.min(self.width(t) as u64) as u32;
            return if left {
                self.shl_const(t, a)
            } else {
                self.lshr_const(t, a)
            };
        }
        let mut acc = t;
        let aw = self.width(amount).min(16);
        for bit in 0..aw {
            let sel = self.extract(amount, bit, 1);
            let shifted = if left {
                self.shl_const(acc, 1 << bit)
            } else {
                self.lshr_const(acc, 1 << bit)
            };
            acc = self.ite(sel, shifted, acc);
        }
        acc
    }

    /// AND-reduction (1-bit result).
    pub fn red_and(&mut self, t: TermId) -> TermId {
        if self.width(t) == 1 {
            return t;
        }
        if let Some(v) = self.as_const(t) {
            let b = v.reduce_and() == symbfuzz_logic::Bit::One;
            return self.const_u64(1, b as u64);
        }
        self.mk(TermKind::RedAnd(t), 1)
    }

    /// OR-reduction (1-bit result) — also the "truthiness" of a vector.
    pub fn red_or(&mut self, t: TermId) -> TermId {
        if self.width(t) == 1 {
            return t;
        }
        if let Some(v) = self.as_const(t) {
            let b = v.reduce_or() == symbfuzz_logic::Bit::One;
            return self.const_u64(1, b as u64);
        }
        self.mk(TermKind::RedOr(t), 1)
    }

    /// XOR-reduction (1-bit result).
    pub fn red_xor(&mut self, t: TermId) -> TermId {
        if self.width(t) == 1 {
            return t;
        }
        if let Some(v) = self.as_const(t) {
            let b = v.reduce_xor() == symbfuzz_logic::Bit::One;
            return self.const_u64(1, b as u64);
        }
        self.mk(TermKind::RedXor(t), 1)
    }

    /// Boolean AND over 1-bit terms (alias of [`and`](Self::and)).
    pub fn band(&mut self, a: TermId, b: TermId) -> TermId {
        self.and(a, b)
    }

    /// Evaluates a term under an assignment of variables to values.
    /// Used for model validation and tests.
    ///
    /// # Panics
    ///
    /// Panics if a variable is missing from `env`.
    pub fn eval(&self, t: TermId, env: &HashMap<String, LogicVec>) -> LogicVec {
        match self.kind(t) {
            TermKind::Const(c) => self.const_value(c).clone(),
            TermKind::Var(sym, w) => {
                let n = self.name(sym);
                env.get(n)
                    .unwrap_or_else(|| panic!("missing variable `{n}` in eval env"))
                    .resized(w)
            }
            TermKind::Not(a) => !&self.eval(a, env),
            TermKind::And(a, b) => &self.eval(a, env) & &self.eval(b, env),
            TermKind::Or(a, b) => &self.eval(a, env) | &self.eval(b, env),
            TermKind::Xor(a, b) => &self.eval(a, env) ^ &self.eval(b, env),
            TermKind::Add(a, b) => self.eval(a, env).add(&self.eval(b, env)),
            TermKind::Sub(a, b) => self.eval(a, env).sub(&self.eval(b, env)),
            TermKind::Mul(a, b) => self.eval(a, env).mul(&self.eval(b, env)),
            TermKind::Eq(a, b) => LogicVec::from_u64(
                1,
                (self.eval(a, env).logic_eq(&self.eval(b, env)) == symbfuzz_logic::Bit::One) as u64,
            ),
            TermKind::Ult(a, b) => LogicVec::from_u64(
                1,
                (self.eval(a, env).ult(&self.eval(b, env)) == symbfuzz_logic::Bit::One) as u64,
            ),
            TermKind::Ite(c, a, b) => {
                if self.eval(c, env).to_u64() == Some(1) {
                    self.eval(a, env)
                } else {
                    self.eval(b, env)
                }
            }
            TermKind::Extract { arg, lo, width } => self.eval(arg, env).slice(lo, width),
            TermKind::ConcatPair(h, l) => LogicVec::concat(&self.eval(h, env), &self.eval(l, env)),
            TermKind::ShlConst(a, n) => self.eval(a, env).shl(n),
            TermKind::LshrConst(a, n) => self.eval(a, env).lshr(n),
            TermKind::RedAnd(a) => LogicVec::from_bit(self.eval(a, env).reduce_and()),
            TermKind::RedOr(a) => LogicVec::from_bit(self.eval(a, env).reduce_or()),
            TermKind::RedXor(a) => LogicVec::from_bit(self.eval(a, env).reduce_xor()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_structure() {
        let mut p = TermPool::new();
        let a = p.var("a", 8);
        let b = p.var("b", 8);
        let t1 = p.and(a, b);
        let t2 = p.and(b, a); // commutative normalisation
        assert_eq!(t1, t2);
        assert_eq!(p.var("a", 8), a);
    }

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let five = p.const_u64(8, 5);
        let three = p.const_u64(8, 3);
        let sum = p.add(five, three);
        assert_eq!(p.as_const(sum).unwrap().to_u64(), Some(8));
        let eq = p.eq(sum, five);
        assert_eq!(p.as_const(eq).unwrap().to_u64(), Some(0));
    }

    #[test]
    fn identity_rewrites() {
        let mut p = TermPool::new();
        let a = p.var("a", 4);
        let zero = p.const_u64(4, 0);
        let ones = p.const_u64(4, 0xF);
        assert_eq!(p.and(a, zero), zero);
        assert_eq!(p.and(a, ones), a);
        assert_eq!(p.or(a, zero), a);
        assert_eq!(p.xor(a, a), zero);
        assert_eq!(p.add(a, zero), a);
        assert_eq!(p.mul(a, zero), zero);
        let n = p.not(a);
        assert_eq!(p.not(n), a); // double negation
        let t = p.tru();
        assert_eq!(p.ite(t, a, zero), a);
    }

    #[test]
    fn widths_propagate() {
        let mut p = TermPool::new();
        let a = p.var("a", 4);
        let b = p.var("b", 8);
        let s = p.add(a, b);
        assert_eq!(p.width(s), 8);
        let e = p.eq(a, b);
        assert_eq!(p.width(e), 1);
        let c = p.concat(a, b);
        assert_eq!(p.width(c), 12);
        let x = p.extract(c, 4, 6);
        assert_eq!(p.width(x), 6);
    }

    #[test]
    #[should_panic(expected = "must be fully defined")]
    fn rejects_x_constants() {
        let mut p = TermPool::new();
        p.constant(LogicVec::xes(4));
    }

    #[test]
    fn eval_matches_construction() {
        let mut p = TermPool::new();
        let a = p.var("a", 8);
        let b = p.var("b", 8);
        let expr = {
            let s = p.add(a, b);
            let c = p.const_u64(8, 100);
            p.ult(s, c)
        };
        let mut env = HashMap::new();
        env.insert("a".into(), LogicVec::from_u64(8, 30));
        env.insert("b".into(), LogicVec::from_u64(8, 40));
        assert_eq!(p.eval(expr, &env).to_u64(), Some(1));
        env.insert("b".into(), LogicVec::from_u64(8, 90));
        assert_eq!(p.eval(expr, &env).to_u64(), Some(0)); // 120 < 100 is false
    }

    #[test]
    fn variable_shift_ladder() {
        let mut p = TermPool::new();
        let a = p.var("a", 8);
        let n = p.var("n", 3);
        let sh = p.shl(a, n);
        let mut env = HashMap::new();
        env.insert("a".into(), LogicVec::from_u64(8, 0b11));
        env.insert("n".into(), LogicVec::from_u64(3, 5));
        assert_eq!(p.eval(sh, &env).to_u64(), Some(0b0110_0000));
    }
}
