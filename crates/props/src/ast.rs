//! Property AST and per-cycle evaluation.

use std::borrow::Cow;
use symbfuzz_hdl::{BinaryOp, UnaryOp};
use symbfuzz_logic::{Bit, LogicVec};
use symbfuzz_netlist::SignalId;

/// A compiled property expression. Signals are resolved to
/// [`SignalId`]s at parse time, constants are folded to values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PExpr {
    /// A constant value.
    Const(LogicVec),
    /// A sampled signal value.
    Sig(SignalId),
    /// `$past(expr, depth)` — the value `depth` cycles ago.
    Past {
        /// Sampled expression.
        expr: Box<PExpr>,
        /// How many cycles back (≥ 1).
        depth: u32,
    },
    /// `$isunknown(expr)` — 1 iff any bit is `X`/`Z`.
    IsUnknown(Box<PExpr>),
    /// `$stable(expr)` — value identical (case equality) to one cycle ago.
    Stable(Box<PExpr>),
    /// `$rose(expr)` — bit 0 went 0→1 since the previous cycle.
    Rose(Box<PExpr>),
    /// `$fell(expr)` — bit 0 went 1→0 since the previous cycle.
    Fell(Box<PExpr>),
    /// Unary operator (same set as the HDL).
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<PExpr>,
    },
    /// Binary operator (same set as the HDL).
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<PExpr>,
        /// Right operand.
        rhs: Box<PExpr>,
    },
    /// `cond ? then : els`.
    Ternary {
        /// Condition.
        cond: Box<PExpr>,
        /// Value when true.
        then: Box<PExpr>,
        /// Value when false.
        els: Box<PExpr>,
    },
    /// `sig[bit]` with a constant index (relative to the signal value).
    Index {
        /// Base expression.
        base: Box<PExpr>,
        /// Bit index.
        bit: u32,
    },
    /// `sig[msb:lsb]` with constant bounds.
    Slice {
        /// Base expression.
        base: Box<PExpr>,
        /// Most significant bit.
        msb: u32,
        /// Least significant bit.
        lsb: u32,
    },
    /// `{a, b, …}` concatenation, element 0 most significant.
    Concat(Vec<PExpr>),
}

/// A named property: optional antecedent `|->` consequent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    name: String,
    source: String,
    /// Antecedent, if the property is an implication.
    pub(crate) antecedent: Option<PExpr>,
    /// The consequent (or the whole expression).
    pub(crate) consequent: PExpr,
    /// Maximum `$past` depth referenced anywhere (history needed).
    pub(crate) depth: u32,
}

impl Property {
    pub(crate) fn new(
        name: String,
        source: String,
        antecedent: Option<PExpr>,
        consequent: PExpr,
    ) -> Property {
        let mut depth = 0;
        if let Some(a) = &antecedent {
            depth = depth.max(max_depth(a));
        }
        depth = depth.max(max_depth(&consequent));
        Property {
            name,
            source,
            antecedent,
            consequent,
            depth,
        }
    }

    /// The property's name (used in violation reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// History depth (cycles of `$past`) this property needs.
    pub fn history_depth(&self) -> u32 {
        self.depth
    }

    /// Evaluates the property at the newest frame of `frames`
    /// (`frames[len-1]` is "now", `frames[len-1-n]` is `$past` by `n`).
    /// Returns `true` when the property holds or is vacuous.
    ///
    /// This is the full-frame reference form; [`PropertyChecker`]
    /// evaluates the same way against its sampled history.
    ///
    /// [`PropertyChecker`]: crate::PropertyChecker
    pub fn holds(&self, frames: &[Vec<LogicVec>]) -> bool {
        self.holds_in(frames)
    }

    /// Evaluates the property at "now" of `frames`.
    pub(crate) fn holds_in<F: Frames + ?Sized>(&self, frames: &F) -> bool {
        if let Some(a) = &self.antecedent {
            match eval(a, frames, 0) {
                Some(v) if v.to_condition() == Bit::One => {}
                // Antecedent false, X, or out of history: vacuous pass.
                _ => return true,
            }
        }
        match eval(&self.consequent, frames, 0) {
            // Out-of-history $past in the consequent: vacuous pass.
            None => true,
            Some(v) => v.to_condition() == Bit::One,
        }
    }

    /// Calls `f` on every signal this property may read from a past
    /// cycle (under `$past`, `$stable`, `$rose` or `$fell`).
    pub(crate) fn for_each_past_signal(&self, f: &mut impl FnMut(SignalId)) {
        if let Some(a) = &self.antecedent {
            past_signals(a, false, f);
        }
        past_signals(&self.consequent, false, f);
    }
}

/// Read access to sampled signal values: "now" and the cycles before.
pub(crate) trait Frames {
    /// How many cycles before "now" are available.
    fn past_len(&self) -> usize;
    /// The value of `sig` `back` cycles before "now" (`back <=
    /// past_len()`; `0` is "now").
    fn value(&self, sig: SignalId, back: usize) -> &LogicVec;
}

impl Frames for [Vec<LogicVec>] {
    fn past_len(&self) -> usize {
        self.len() - 1
    }

    fn value(&self, sig: SignalId, back: usize) -> &LogicVec {
        &self[self.len() - 1 - back][sig.index()]
    }
}

fn past_signals(e: &PExpr, past: bool, f: &mut impl FnMut(SignalId)) {
    match e {
        PExpr::Const(_) => {}
        PExpr::Sig(s) => {
            if past {
                f(*s)
            }
        }
        PExpr::Past { expr: a, .. } | PExpr::Stable(a) | PExpr::Rose(a) | PExpr::Fell(a) => {
            past_signals(a, true, f)
        }
        PExpr::IsUnknown(a)
        | PExpr::Unary { operand: a, .. }
        | PExpr::Index { base: a, .. }
        | PExpr::Slice { base: a, .. } => past_signals(a, past, f),
        PExpr::Binary { lhs, rhs, .. } => {
            past_signals(lhs, past, f);
            past_signals(rhs, past, f);
        }
        PExpr::Ternary { cond, then, els } => {
            past_signals(cond, past, f);
            past_signals(then, past, f);
            past_signals(els, past, f);
        }
        PExpr::Concat(parts) => parts.iter().for_each(|p| past_signals(p, past, f)),
    }
}

fn max_depth(e: &PExpr) -> u32 {
    match e {
        PExpr::Const(_) | PExpr::Sig(_) => 0,
        PExpr::Past { expr, depth } => depth + max_depth(expr),
        PExpr::IsUnknown(a) | PExpr::Unary { operand: a, .. } => max_depth(a),
        PExpr::Stable(a) | PExpr::Rose(a) | PExpr::Fell(a) => 1 + max_depth(a),
        PExpr::Binary { lhs, rhs, .. } => max_depth(lhs).max(max_depth(rhs)),
        PExpr::Ternary { cond, then, els } => {
            max_depth(cond).max(max_depth(then)).max(max_depth(els))
        }
        PExpr::Index { base, .. } | PExpr::Slice { base, .. } => max_depth(base),
        PExpr::Concat(parts) => parts.iter().map(max_depth).max().unwrap_or(0),
    }
}

fn bit(b: bool) -> Cow<'static, LogicVec> {
    Cow::Owned(LogicVec::from_u64(1, b as u64))
}

/// Evaluates `back` cycles before "now"; `None` when `$past` reaches
/// before the first available frame (vacuous). Constants and signal
/// values are borrowed, only computed values are allocated.
fn eval<'a, F: Frames + ?Sized>(e: &'a PExpr, f: &'a F, back: usize) -> Option<Cow<'a, LogicVec>> {
    // The value of `a` now and one cycle earlier, for the edge functions.
    let edge = |a: &'a PExpr| -> Option<(Cow<'a, LogicVec>, Cow<'a, LogicVec>)> {
        if back + 1 > f.past_len() {
            return None;
        }
        Some((eval(a, f, back)?, eval(a, f, back + 1)?))
    };
    Some(match e {
        PExpr::Const(v) => Cow::Borrowed(v),
        PExpr::Sig(s) => Cow::Borrowed(f.value(*s, back)),
        PExpr::Past { expr, depth } => {
            let back = back + *depth as usize;
            if back > f.past_len() {
                return None;
            }
            return eval(expr, f, back);
        }
        PExpr::IsUnknown(a) => bit(eval(a, f, back)?.has_unknown()),
        PExpr::Stable(a) => {
            let (now, before) = edge(a)?;
            bit(now.case_eq(&before))
        }
        PExpr::Rose(a) => {
            let (now, before) = edge(a)?;
            bit(before.bit(0) == Bit::Zero && now.bit(0) == Bit::One)
        }
        PExpr::Fell(a) => {
            let (now, before) = edge(a)?;
            bit(before.bit(0) == Bit::One && now.bit(0) == Bit::Zero)
        }
        PExpr::Unary { op, operand } => {
            let v = eval(operand, f, back)?;
            Cow::Owned(match op {
                UnaryOp::LogNot => LogicVec::from_bit(!v.to_condition()),
                UnaryOp::BitNot => !&*v,
                UnaryOp::RedAnd => LogicVec::from_bit(v.reduce_and()),
                UnaryOp::RedOr => LogicVec::from_bit(v.reduce_or()),
                UnaryOp::RedXor => LogicVec::from_bit(v.reduce_xor()),
                UnaryOp::RedNand => LogicVec::from_bit(!v.reduce_and()),
                UnaryOp::RedNor => LogicVec::from_bit(!v.reduce_or()),
                UnaryOp::Neg => v.neg(),
            })
        }
        PExpr::Binary { op, lhs, rhs } => {
            let a = eval(lhs, f, back)?;
            let b = eval(rhs, f, back)?;
            let (a, b) = (&*a, &*b);
            Cow::Owned(match op {
                BinaryOp::Add => a.add(b),
                BinaryOp::Sub => a.sub(b),
                BinaryOp::Mul => a.mul(b),
                BinaryOp::And => a & b,
                BinaryOp::Or => a | b,
                BinaryOp::Xor => a ^ b,
                BinaryOp::LogAnd => LogicVec::from_bit(a.to_condition() & b.to_condition()),
                BinaryOp::LogOr => LogicVec::from_bit(a.to_condition() | b.to_condition()),
                BinaryOp::Eq => LogicVec::from_bit(a.logic_eq(b)),
                BinaryOp::Ne => LogicVec::from_bit(!a.logic_eq(b)),
                BinaryOp::CaseEq => LogicVec::from_u64(1, a.case_eq(b) as u64),
                BinaryOp::CaseNe => LogicVec::from_u64(1, !a.case_eq(b) as u64),
                BinaryOp::Lt => LogicVec::from_bit(a.ult(b)),
                BinaryOp::Le => LogicVec::from_bit(a.ule(b)),
                BinaryOp::Gt => LogicVec::from_bit(b.ult(a)),
                BinaryOp::Ge => LogicVec::from_bit(b.ule(a)),
                BinaryOp::Shl => a.shl_vec(b),
                BinaryOp::Shr => a.lshr_vec(b),
            })
        }
        PExpr::Ternary { cond, then, els } => {
            return match eval(cond, f, back)?.to_condition() {
                Bit::One => eval(then, f, back),
                Bit::Zero => eval(els, f, back),
                _ => Some(Cow::Owned(LogicVec::xes(1))),
            };
        }
        PExpr::Index { base, bit } => {
            let v = eval(base, f, back)?;
            Cow::Owned(LogicVec::from_bit(if *bit < v.width() {
                v.bit(*bit)
            } else {
                Bit::X
            }))
        }
        PExpr::Slice { base, msb, lsb } => {
            let v = eval(base, f, back)?;
            Cow::Owned(if *msb < v.width() && lsb <= msb {
                v.slice(*lsb, msb - lsb + 1)
            } else {
                LogicVec::xes(msb - lsb + 1)
            })
        }
        PExpr::Concat(parts) => {
            let mut out = LogicVec::zeros(0);
            for p in parts {
                let v = eval(p, f, back)?;
                out = LogicVec::concat(&out, &v);
            }
            Cow::Owned(out)
        }
    })
}
