//! Packed four-state bit vectors.

use crate::Bit;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A fixed-width vector of four-state bits, bit 0 being the LSB.
///
/// Bits are stored in two planes of 64-bit words: `val` and `unk`. For a
/// bit position, `(val, unk)` encodes `(0,0) = 0`, `(1,0) = 1`,
/// `(0,1) = Z`, `(1,1) = X`. Bits at or above [`width`](Self::width) are
/// kept zero in both planes.
///
/// Operator semantics follow IEEE 1800: bitwise operators apply Kleene
/// logic per bit; arithmetic, relational and shift-by-vector operations
/// produce an all-`X` (respectively `X`) result when any participating bit
/// is `X` or `Z`.
///
/// Derived `PartialEq`/`Eq`/`Hash` implement *case* equality (`===`):
/// `X` compares equal to `X`. Use [`logic_eq`](Self::logic_eq) for the
/// Verilog `==` operator which yields `X` in the presence of unknowns.
///
/// [`clone_from`](Clone::clone_from) overwrites the destination's word
/// buffers in place, so a slot that is refreshed every cycle (a
/// property-history ring, a snapshot write-back) allocates only when it grows.
///
/// # Examples
///
/// ```
/// use symbfuzz_logic::LogicVec;
/// let a = LogicVec::from_u64(8, 200);
/// let b = LogicVec::from_u64(8, 100);
/// assert_eq!(a.add(&b).to_u64(), Some(44)); // wraps at 8 bits
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct LogicVec {
    width: u32,
    val: Vec<u64>,
    unk: Vec<u64>,
}

impl Clone for LogicVec {
    fn clone(&self) -> LogicVec {
        LogicVec {
            width: self.width,
            val: self.val.clone(),
            unk: self.unk.clone(),
        }
    }

    fn clone_from(&mut self, source: &LogicVec) {
        self.width = source.width;
        self.val.clone_from(&source.val);
        self.unk.clone_from(&source.unk);
    }
}

fn nwords(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

fn top_mask(width: u32) -> u64 {
    let rem = width % 64;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

impl LogicVec {
    /// Creates a vector of `width` copies of `fill`.
    pub fn filled(width: u32, fill: Bit) -> LogicVec {
        let n = nwords(width);
        let (v, u) = fill.planes();
        let mut out = LogicVec {
            width,
            val: vec![if v { u64::MAX } else { 0 }; n],
            unk: vec![if u { u64::MAX } else { 0 }; n],
        };
        out.normalize();
        out
    }

    /// All-zero vector.
    pub fn zeros(width: u32) -> LogicVec {
        LogicVec {
            width,
            val: vec![0; nwords(width)],
            unk: vec![0; nwords(width)],
        }
    }

    /// All-ones vector.
    pub fn ones(width: u32) -> LogicVec {
        LogicVec::filled(width, Bit::One)
    }

    /// All-`X` vector — the power-up state of an unreset register.
    pub fn xes(width: u32) -> LogicVec {
        LogicVec::filled(width, Bit::X)
    }

    /// Builds a vector from the low `width` bits of `value`.
    pub fn from_u64(width: u32, value: u64) -> LogicVec {
        let mut out = LogicVec::zeros(width);
        if !out.val.is_empty() {
            out.val[0] = value;
            if width < 64 {
                out.val[0] &= top_mask(width.min(64));
            }
        }
        out
    }

    /// Builds a vector from bits given LSB-first.
    pub fn from_bits(bits: &[Bit]) -> LogicVec {
        let mut out = LogicVec::zeros(bits.len() as u32);
        for (i, b) in bits.iter().enumerate() {
            out.set_bit(i as u32, *b);
        }
        out
    }

    /// Builds a single-bit vector.
    pub fn from_bit(b: Bit) -> LogicVec {
        LogicVec::from_bits(&[b])
    }

    /// The number of bits in the vector.
    pub fn width(&self) -> u32 {
        self.width
    }

    fn normalize(&mut self) {
        if let Some(last) = self.val.last_mut() {
            *last &= top_mask(self.width);
        }
        if let Some(last) = self.unk.last_mut() {
            *last &= top_mask(self.width);
        }
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn bit(&self, index: u32) -> Bit {
        assert!(
            index < self.width,
            "bit index {index} out of range 0..{}",
            self.width
        );
        let w = (index / 64) as usize;
        let b = index % 64;
        Bit::from_planes((self.val[w] >> b) & 1 == 1, (self.unk[w] >> b) & 1 == 1)
    }

    /// Writes the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn set_bit(&mut self, index: u32, bit: Bit) {
        assert!(
            index < self.width,
            "bit index {index} out of range 0..{}",
            self.width
        );
        let w = (index / 64) as usize;
        let b = index % 64;
        let (v, u) = bit.planes();
        self.val[w] = (self.val[w] & !(1 << b)) | ((v as u64) << b);
        self.unk[w] = (self.unk[w] & !(1 << b)) | ((u as u64) << b);
    }

    /// Returns `true` if any bit is `X` or `Z`.
    pub fn has_unknown(&self) -> bool {
        self.unk.iter().any(|&w| w != 0)
    }

    /// The value as a `u64`, if fully defined and at most 64 bits wide.
    pub fn to_u64(&self) -> Option<u64> {
        if self.has_unknown() {
            return None;
        }
        if self.val.iter().skip(1).any(|&w| w != 0) {
            return None;
        }
        Some(self.val.first().copied().unwrap_or(0))
    }

    /// The low 64 bits with `X`/`Z` bits read as `0`.
    ///
    /// Useful for hashing coverage tuples where unknowns must map to a
    /// stable bucket.
    pub fn to_u64_x_as_zero(&self) -> u64 {
        let v = self.val.first().copied().unwrap_or(0);
        let u = self.unk.first().copied().unwrap_or(0);
        v & !u
    }

    /// The low word of the value plane, raw. For a vector of width
    /// ≤ 64 with [`unk_word`](Self::unk_word) zero this *is* the
    /// two-state value — the packed view the compiled simulation
    /// kernel computes on directly.
    #[inline]
    pub fn word(&self) -> u64 {
        self.val.first().copied().unwrap_or(0)
    }

    /// The low word of the unknown plane. Zero means the low 64 bits
    /// are fully two-state (no `X`/`Z`).
    #[inline]
    pub fn unk_word(&self) -> u64 {
        self.unk.first().copied().unwrap_or(0)
    }

    /// Overwrites the low word of both planes in place, masking both
    /// to the vector width. Intended for vectors of width ≤ 64 (wider
    /// vectors would keep their upper words untouched).
    #[inline]
    pub fn set_word(&mut self, val: u64, unk: u64) {
        debug_assert!(self.width <= 64, "set_word on a {}-bit vector", self.width);
        let m = top_mask(self.width.min(64));
        if let Some(v) = self.val.first_mut() {
            *v = val & m;
        }
        if let Some(u) = self.unk.first_mut() {
            *u = unk & m;
        }
    }

    /// Extracts up to 64 bits of both planes starting at `lo` as packed
    /// words `(val, unk)` — the allocation-free equivalent of
    /// `slice(lo, width)` for word-sized spans, crossing storage-word
    /// boundaries as needed.
    ///
    /// # Panics
    ///
    /// Debug-asserts `width <= 64` and `lo + width <= self.width`.
    #[inline]
    pub fn extract_word(&self, lo: u32, width: u32) -> (u64, u64) {
        debug_assert!((1..=64).contains(&width), "extract_word of {width} bits");
        debug_assert!(
            lo + width <= self.width,
            "extract_word [{lo}+:{width}] out of range 0..{}",
            self.width
        );
        let wi = (lo / 64) as usize;
        let sh = lo % 64;
        let m = top_mask(width);
        let grab = |plane: &[u64]| {
            let low = plane.get(wi).copied().unwrap_or(0) >> sh;
            let high = if sh == 0 {
                0
            } else {
                plane.get(wi + 1).copied().unwrap_or(0) << (64 - sh)
            };
            (low | high) & m
        };
        (grab(&self.val), grab(&self.unk))
    }

    /// Iterates over bits LSB-first.
    pub fn iter_bits(&self) -> impl Iterator<Item = Bit> + '_ {
        (0..self.width).map(|i| self.bit(i))
    }

    /// Zero-extends or truncates to `width`.
    pub fn resized(&self, width: u32) -> LogicVec {
        let mut out = LogicVec::zeros(width);
        let n = out.val.len().min(self.val.len());
        out.val[..n].copy_from_slice(&self.val[..n]);
        out.unk[..n].copy_from_slice(&self.unk[..n]);
        out.normalize();
        out
    }

    /// Extracts `width` bits starting at bit `lo` (a Verilog part-select
    /// `self[lo+width-1 : lo]`).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector width.
    pub fn slice(&self, lo: u32, width: u32) -> LogicVec {
        assert!(
            lo + width <= self.width,
            "slice [{}+:{}] out of range 0..{}",
            lo,
            width,
            self.width
        );
        let mut out = LogicVec::zeros(width);
        for i in 0..width {
            out.set_bit(i, self.bit(lo + i));
        }
        out
    }

    /// Concatenates `{hi, lo}` — `hi` occupies the most significant bits.
    pub fn concat(hi: &LogicVec, lo: &LogicVec) -> LogicVec {
        let mut out = LogicVec::zeros(hi.width + lo.width);
        for i in 0..lo.width {
            out.set_bit(i, lo.bit(i));
        }
        for i in 0..hi.width {
            out.set_bit(lo.width + i, hi.bit(i));
        }
        out
    }

    /// Repeats the vector `n` times (`{n{self}}`).
    pub fn replicate(&self, n: u32) -> LogicVec {
        let mut out = LogicVec::zeros(0);
        for _ in 0..n {
            out = LogicVec::concat(&out, self);
        }
        out
    }

    /// Z-as-X normalised planes: returns (val | unk, unk) word pairs.
    fn norm_planes(&self) -> (Vec<u64>, &[u64]) {
        let v: Vec<u64> = self
            .val
            .iter()
            .zip(&self.unk)
            .map(|(&v, &u)| v | u)
            .collect();
        (v, &self.unk)
    }

    fn binary_widths(a: &LogicVec, b: &LogicVec) -> u32 {
        a.width.max(b.width)
    }

    /// Two's-complement negation; all-`X` if any bit is unknown.
    pub fn neg(&self) -> LogicVec {
        LogicVec::zeros(self.width).sub(self)
    }

    /// Wrapping addition at the wider operand's width.
    pub fn add(&self, rhs: &LogicVec) -> LogicVec {
        let w = Self::binary_widths(self, rhs);
        if self.has_unknown() || rhs.has_unknown() {
            return LogicVec::xes(w);
        }
        let a = self.resized(w);
        let b = rhs.resized(w);
        let mut out = LogicVec::zeros(w);
        let mut carry = 0u64;
        for i in 0..out.val.len() {
            let (s1, c1) = a.val[i].overflowing_add(b.val[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.val[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.normalize();
        out
    }

    /// Wrapping subtraction at the wider operand's width.
    pub fn sub(&self, rhs: &LogicVec) -> LogicVec {
        let w = Self::binary_widths(self, rhs);
        if self.has_unknown() || rhs.has_unknown() {
            return LogicVec::xes(w);
        }
        let a = self.resized(w);
        let b = rhs.resized(w);
        let mut out = LogicVec::zeros(w);
        let mut borrow = 0u64;
        for i in 0..out.val.len() {
            let (d1, b1) = a.val[i].overflowing_sub(b.val[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.val[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        out.normalize();
        out
    }

    /// Wrapping multiplication at the wider operand's width.
    pub fn mul(&self, rhs: &LogicVec) -> LogicVec {
        let w = Self::binary_widths(self, rhs);
        if self.has_unknown() || rhs.has_unknown() {
            return LogicVec::xes(w);
        }
        let a = self.resized(w);
        let b = rhs.resized(w);
        let n = a.val.len();
        let mut acc = vec![0u64; n];
        for i in 0..n {
            let mut carry = 0u128;
            for j in 0..n - i {
                let cur = acc[i + j] as u128 + (a.val[i] as u128) * (b.val[j] as u128) + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
        let mut out = LogicVec::zeros(w);
        out.val.copy_from_slice(&acc);
        out.normalize();
        out
    }

    /// Plane words `i` of both operands, zero past either one's top word:
    /// the zero-extension to the wider width that comparisons apply,
    /// without materialising the extended copies.
    fn word_pairs<'a>(
        a: &'a LogicVec,
        b: &'a LogicVec,
    ) -> impl DoubleEndedIterator<Item = ((u64, u64), (u64, u64))> + 'a {
        let word = |v: &LogicVec, i: usize| {
            (
                v.val.get(i).copied().unwrap_or(0),
                v.unk.get(i).copied().unwrap_or(0),
            )
        };
        (0..a.val.len().max(b.val.len())).map(move |i| (word(a, i), word(b, i)))
    }

    /// Logical equality (`==`): `X` if either operand has unknown bits.
    pub fn logic_eq(&self, rhs: &LogicVec) -> Bit {
        if self.has_unknown() || rhs.has_unknown() {
            return Bit::X;
        }
        Bit::from_bool(self.case_eq(rhs))
    }

    /// Case equality (`===`): exact four-state comparison after
    /// zero-extension to the wider width.
    pub fn case_eq(&self, rhs: &LogicVec) -> bool {
        Self::word_pairs(self, rhs).all(|(a, b)| a == b)
    }

    /// Unsigned less-than: `X` if either operand has unknown bits.
    pub fn ult(&self, rhs: &LogicVec) -> Bit {
        if self.has_unknown() || rhs.has_unknown() {
            return Bit::X;
        }
        Self::word_pairs(self, rhs)
            .rev()
            .find(|(a, b)| a.0 != b.0)
            .map_or(Bit::Zero, |(a, b)| Bit::from_bool(a.0 < b.0))
    }

    /// Unsigned less-than-or-equal.
    pub fn ule(&self, rhs: &LogicVec) -> Bit {
        match (self.ult(rhs), self.logic_eq(rhs)) {
            (Bit::X, _) | (_, Bit::X) => Bit::X,
            (lt, eq) => Bit::from_bool(lt == Bit::One || eq == Bit::One),
        }
    }

    /// AND-reduction over all bits.
    pub fn reduce_and(&self) -> Bit {
        self.iter_bits().fold(Bit::One, |acc, b| acc & b)
    }

    /// OR-reduction over all bits.
    pub fn reduce_or(&self) -> Bit {
        self.iter_bits().fold(Bit::Zero, |acc, b| acc | b)
    }

    /// XOR-reduction over all bits.
    pub fn reduce_xor(&self) -> Bit {
        self.iter_bits().fold(Bit::Zero, |acc, b| acc ^ b)
    }

    /// Truthiness for conditions: `|self`, i.e. `X` only when no bit is a
    /// definite `1` and at least one bit is unknown.
    pub fn to_condition(&self) -> Bit {
        self.reduce_or()
    }

    /// Logical shift left by a constant amount (width preserved).
    pub fn shl(&self, amount: u32) -> LogicVec {
        let mut out = LogicVec::zeros(self.width);
        for i in 0..self.width.saturating_sub(amount) {
            out.set_bit(i + amount, self.bit(i));
        }
        out
    }

    /// Logical shift right by a constant amount (width preserved).
    pub fn lshr(&self, amount: u32) -> LogicVec {
        let mut out = LogicVec::zeros(self.width);
        for i in amount..self.width {
            out.set_bit(i - amount, self.bit(i));
        }
        out
    }

    /// Shift left by a vector amount; all-`X` if the amount is unknown.
    pub fn shl_vec(&self, amount: &LogicVec) -> LogicVec {
        match amount.to_u64() {
            Some(n) => self.shl(n.min(self.width as u64) as u32),
            None => LogicVec::xes(self.width),
        }
    }

    /// Shift right by a vector amount; all-`X` if the amount is unknown.
    pub fn lshr_vec(&self, amount: &LogicVec) -> LogicVec {
        match amount.to_u64() {
            Some(n) => self.lshr(n.min(self.width as u64) as u32),
            None => LogicVec::xes(self.width),
        }
    }

    /// Renders as a binary digit string, MSB first.
    pub fn to_bin_string(&self) -> String {
        (0..self.width)
            .rev()
            .map(|i| self.bit(i).to_char())
            .collect()
    }
}

impl fmt::Debug for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b{}", self.width, self.to_bin_string())
    }
}

impl fmt::Display for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

macro_rules! impl_bitwise {
    ($trait:ident, $method:ident, $impl_fn:ident) => {
        impl $trait for &LogicVec {
            type Output = LogicVec;
            fn $method(self, rhs: &LogicVec) -> LogicVec {
                LogicVec::$impl_fn(self, rhs)
            }
        }
        impl $trait for LogicVec {
            type Output = LogicVec;
            fn $method(self, rhs: LogicVec) -> LogicVec {
                LogicVec::$impl_fn(&self, &rhs)
            }
        }
    };
}

impl LogicVec {
    fn bitand_impl(a: &LogicVec, b: &LogicVec) -> LogicVec {
        let w = Self::binary_widths(a, b);
        let a = a.resized(w);
        let b = b.resized(w);
        let (av, au) = a.norm_planes();
        let (bv, bu) = b.norm_planes();
        let mut out = LogicVec::zeros(w);
        for i in 0..out.val.len() {
            out.val[i] = av[i] & bv[i];
            out.unk[i] = (au[i] | bu[i]) & av[i] & bv[i];
        }
        out.normalize();
        out
    }

    fn bitor_impl(a: &LogicVec, b: &LogicVec) -> LogicVec {
        let w = Self::binary_widths(a, b);
        let a = a.resized(w);
        let b = b.resized(w);
        let (av, au) = a.norm_planes();
        let (bv, bu) = b.norm_planes();
        let mut out = LogicVec::zeros(w);
        for i in 0..out.val.len() {
            let strong1 = (av[i] & !au[i]) | (bv[i] & !bu[i]);
            out.unk[i] = (au[i] | bu[i]) & !strong1;
            out.val[i] = av[i] | bv[i] | out.unk[i];
        }
        out.normalize();
        out
    }

    fn bitxor_impl(a: &LogicVec, b: &LogicVec) -> LogicVec {
        let w = Self::binary_widths(a, b);
        let a = a.resized(w);
        let b = b.resized(w);
        let mut out = LogicVec::zeros(w);
        for i in 0..out.val.len() {
            out.unk[i] = a.unk[i] | b.unk[i];
            out.val[i] = (a.val[i] ^ b.val[i]) | out.unk[i];
        }
        out.normalize();
        out
    }
}

impl_bitwise!(BitAnd, bitand, bitand_impl);
impl_bitwise!(BitOr, bitor, bitor_impl);
impl_bitwise!(BitXor, bitxor, bitxor_impl);

impl Not for &LogicVec {
    type Output = LogicVec;
    fn not(self) -> LogicVec {
        let mut out = LogicVec::zeros(self.width);
        for i in 0..out.val.len() {
            out.unk[i] = self.unk[i];
            out.val[i] = !self.val[i] | self.unk[i];
        }
        out.normalize();
        out
    }
}

impl Not for LogicVec {
    type Output = LogicVec;
    fn not(self) -> LogicVec {
        !&self
    }
}

impl Default for LogicVec {
    /// A single `X` bit — the power-up value of an unreset scalar.
    fn default() -> LogicVec {
        LogicVec::xes(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = LogicVec::from_u64(8, 0b1010_0110);
        assert_eq!(v.width(), 8);
        assert_eq!(v.bit(0), Bit::Zero);
        assert_eq!(v.bit(1), Bit::One);
        assert_eq!(v.bit(7), Bit::One);
        assert_eq!(v.to_u64(), Some(0b1010_0110));
    }

    #[test]
    fn xes_are_unknown() {
        let v = LogicVec::xes(130);
        assert!(v.has_unknown());
        assert_eq!(v.to_u64(), None);
        assert_eq!(v.bit(129), Bit::X);
    }

    #[test]
    fn wide_vectors_mask_top_word() {
        let v = LogicVec::ones(70);
        assert_eq!(v.bit(69), Bit::One);
        assert_eq!(v.iter_bits().filter(|b| *b == Bit::One).count(), 70);
    }

    #[test]
    fn set_bit_round_trip() {
        let mut v = LogicVec::zeros(100);
        v.set_bit(99, Bit::X);
        v.set_bit(50, Bit::Z);
        v.set_bit(0, Bit::One);
        assert_eq!(v.bit(99), Bit::X);
        assert_eq!(v.bit(50), Bit::Z);
        assert_eq!(v.bit(0), Bit::One);
        assert_eq!(v.bit(1), Bit::Zero);
    }

    #[test]
    fn add_wraps() {
        let a = LogicVec::from_u64(8, 250);
        let b = LogicVec::from_u64(8, 10);
        assert_eq!(a.add(&b).to_u64(), Some(4));
    }

    #[test]
    fn add_multiword_carry() {
        let a = LogicVec::ones(128);
        let b = LogicVec::from_u64(128, 1);
        let s = a.add(&b);
        assert_eq!(s.to_u64_x_as_zero(), 0);
        assert!(s.iter_bits().all(|b| b == Bit::Zero));
    }

    #[test]
    fn sub_and_neg() {
        let a = LogicVec::from_u64(8, 5);
        let b = LogicVec::from_u64(8, 7);
        assert_eq!(a.sub(&b).to_u64(), Some(254));
        assert_eq!(b.neg().to_u64(), Some(249));
    }

    #[test]
    fn mul_wraps_at_width() {
        let a = LogicVec::from_u64(8, 20);
        let b = LogicVec::from_u64(8, 20);
        assert_eq!(a.mul(&b).to_u64(), Some(400 % 256));
    }

    #[test]
    fn arithmetic_poisons_on_x() {
        let a = LogicVec::xes(8);
        let b = LogicVec::from_u64(8, 1);
        assert!(a.add(&b).iter_bits().all(|x| x == Bit::X));
        assert!(b.sub(&a).iter_bits().all(|x| x == Bit::X));
        assert!(a.mul(&b).iter_bits().all(|x| x == Bit::X));
    }

    #[test]
    fn bitwise_kleene_per_bit() {
        let a = LogicVec::from_bits(&[Bit::Zero, Bit::One, Bit::X, Bit::Z]);
        let b = LogicVec::from_bits(&[Bit::X, Bit::X, Bit::Zero, Bit::One]);
        let and = &a & &b;
        assert_eq!(and.bit(0), Bit::Zero);
        assert_eq!(and.bit(1), Bit::X);
        assert_eq!(and.bit(2), Bit::Zero);
        assert_eq!(and.bit(3), Bit::X);
        let or = &a | &b;
        assert_eq!(or.bit(0), Bit::X);
        assert_eq!(or.bit(1), Bit::One);
        assert_eq!(or.bit(2), Bit::X);
        assert_eq!(or.bit(3), Bit::One);
        let xor = &a ^ &b;
        assert_eq!(xor.bit(0), Bit::X);
        assert_eq!(xor.bit(3), Bit::X);
        assert_eq!(
            (&LogicVec::from_u64(2, 0b01) ^ &LogicVec::from_u64(2, 0b11)).to_u64(),
            Some(0b10)
        );
    }

    #[test]
    fn not_maps_z_to_x() {
        let a = LogicVec::from_bits(&[Bit::Zero, Bit::One, Bit::X, Bit::Z]);
        let n = !&a;
        assert_eq!(n.bit(0), Bit::One);
        assert_eq!(n.bit(1), Bit::Zero);
        assert_eq!(n.bit(2), Bit::X);
        assert_eq!(n.bit(3), Bit::X);
    }

    #[test]
    fn equality_semantics() {
        let a = LogicVec::from_u64(4, 5);
        let b = LogicVec::from_u64(4, 5);
        let x = LogicVec::parse_literal("4'b01x1").unwrap();
        assert_eq!(a.logic_eq(&b), Bit::One);
        assert_eq!(a.logic_eq(&x), Bit::X);
        assert!(x.case_eq(&x));
        assert!(!x.case_eq(&a));
    }

    #[test]
    fn comparisons() {
        let a = LogicVec::from_u64(8, 3);
        let b = LogicVec::from_u64(8, 200);
        assert_eq!(a.ult(&b), Bit::One);
        assert_eq!(b.ult(&a), Bit::Zero);
        assert_eq!(a.ule(&a), Bit::One);
        assert_eq!(a.ult(&LogicVec::xes(8)), Bit::X);
    }

    #[test]
    fn widening_comparison_zero_extends() {
        let a = LogicVec::from_u64(4, 9);
        let b = LogicVec::from_u64(8, 9);
        assert_eq!(a.logic_eq(&b), Bit::One);
        assert_eq!(a.ult(&LogicVec::from_u64(8, 200)), Bit::One);
    }

    #[test]
    fn comparisons_match_explicit_zero_extension() {
        fn pick(next: &mut impl FnMut() -> u64, width: u32, unknowns: bool) -> LogicVec {
            let bits = [Bit::Zero, Bit::One, Bit::X, Bit::Z];
            let mut v = LogicVec::zeros(width);
            for i in 0..width {
                v.set_bit(i, bits[(next() % if unknowns { 4 } else { 2 }) as usize]);
            }
            v
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let widths = [1u32, 3, 8, 63, 64, 65, 130];
        for _ in 0..2000 {
            let wa = widths[(next() % 7) as usize];
            let wb = widths[(next() % 7) as usize];
            let unknowns = next() % 4 == 0;
            let a = pick(&mut next, wa, unknowns);
            // Often an equal value at another width, so `==` sees both outcomes.
            let b = if next() % 2 == 0 {
                a.resized(wb)
            } else {
                pick(&mut next, wb, unknowns)
            };
            // Reference: both operands materialised at the wider width.
            let w = wa.max(wb);
            let (ea, eb) = (a.resized(w), b.resized(w));
            let defined = !a.has_unknown() && !b.has_unknown();
            assert_eq!(
                a.case_eq(&b),
                ea.val == eb.val && ea.unk == eb.unk,
                "{a} === {b}"
            );
            let eq = Bit::from_bool(ea.val == eb.val);
            assert_eq!(
                a.logic_eq(&b),
                if defined { eq } else { Bit::X },
                "{a} == {b}"
            );
            let lt = (0..ea.val.len())
                .rev()
                .find(|&i| ea.val[i] != eb.val[i])
                .map_or(Bit::Zero, |i| Bit::from_bool(ea.val[i] < eb.val[i]));
            assert_eq!(a.ult(&b), if defined { lt } else { Bit::X }, "{a} < {b}");
        }
    }

    #[test]
    fn reductions() {
        assert_eq!(LogicVec::from_u64(4, 0b1111).reduce_and(), Bit::One);
        assert_eq!(LogicVec::from_u64(4, 0b1101).reduce_and(), Bit::Zero);
        assert_eq!(LogicVec::from_u64(4, 0).reduce_or(), Bit::Zero);
        assert_eq!(LogicVec::from_u64(4, 0b0100).reduce_or(), Bit::One);
        assert_eq!(LogicVec::from_u64(4, 0b0110).reduce_xor(), Bit::Zero);
        assert_eq!(LogicVec::from_u64(4, 0b0111).reduce_xor(), Bit::One);
        // 0 AND-reduced with X is 0; 1 OR-reduced with X is 1.
        assert_eq!(
            LogicVec::parse_literal("2'b0x").unwrap().reduce_and(),
            Bit::Zero
        );
        assert_eq!(
            LogicVec::parse_literal("2'b1x").unwrap().reduce_or(),
            Bit::One
        );
        assert_eq!(
            LogicVec::parse_literal("2'b0x").unwrap().reduce_or(),
            Bit::X
        );
    }

    #[test]
    fn slicing_and_concat() {
        let v = LogicVec::from_u64(16, 0xABCD);
        assert_eq!(v.slice(0, 4).to_u64(), Some(0xD));
        assert_eq!(v.slice(12, 4).to_u64(), Some(0xA));
        let c = LogicVec::concat(&v.slice(8, 8), &v.slice(0, 8));
        assert_eq!(c.to_u64(), Some(0xABCD));
        let r = LogicVec::from_u64(2, 0b10).replicate(3);
        assert_eq!(r.width(), 6);
        assert_eq!(r.to_u64(), Some(0b101010));
    }

    #[test]
    fn shifts() {
        let v = LogicVec::from_u64(8, 0b0000_1101);
        assert_eq!(v.shl(2).to_u64(), Some(0b0011_0100));
        assert_eq!(v.lshr(2).to_u64(), Some(0b0000_0011));
        assert_eq!(v.shl(9).to_u64(), Some(0));
        let amt = LogicVec::from_u64(3, 2);
        assert_eq!(v.shl_vec(&amt).to_u64(), Some(0b0011_0100));
        assert!(v.shl_vec(&LogicVec::xes(3)).has_unknown());
    }

    #[test]
    fn packed_word_views_round_trip() {
        let mut v = LogicVec::from_u64(12, 0xABC);
        assert_eq!(v.word(), 0xABC);
        assert_eq!(v.unk_word(), 0);
        v.set_word(0xFFFF, 0);
        // Both planes are masked to the declared width.
        assert_eq!(v.word(), 0xFFF);
        assert_eq!(v.to_u64(), Some(0xFFF));
        v.set_word(0x5, 0x3);
        assert_eq!(v.unk_word(), 0x3);
        assert!(v.has_unknown());
        assert_eq!(v.bit(0), Bit::X); // val 1, unk 1
        assert_eq!(v.bit(1), Bit::Z); // val 0, unk 1
        assert_eq!(v.bit(2), Bit::One);
        // The X power-up state is visible through the packed view.
        let x = LogicVec::xes(8);
        assert_eq!(x.unk_word(), 0xFF);
        // Zero-width vectors have no words at all.
        assert_eq!(LogicVec::zeros(0).word(), 0);
    }

    #[test]
    fn extract_word_matches_slice() {
        // A 130-bit vector with a recognizable pattern and an X span,
        // so extractions cross both storage-word boundaries.
        let mut v = LogicVec::zeros(130);
        for i in 0..130 {
            if i % 3 == 0 {
                v.set_bit(i, Bit::One);
            }
            if (40..48).contains(&i) {
                v.set_bit(i, Bit::X);
            }
        }
        for (lo, w) in [
            (0, 64),
            (1, 64),
            (37, 12),
            (60, 10),
            (63, 2),
            (66, 64),
            (128, 2),
        ] {
            let (val, unk) = v.extract_word(lo, w);
            let s = v.slice(lo, w);
            assert_eq!(val, s.word(), "val [{lo}+:{w}]");
            assert_eq!(unk, s.unk_word(), "unk [{lo}+:{w}]");
        }
    }

    #[test]
    fn display_format() {
        let v = LogicVec::parse_literal("4'b10xz").unwrap();
        assert_eq!(format!("{v}"), "4'b10xz");
    }

    #[test]
    fn clone_from_matches_clone_and_reuses_buffers() {
        let patterned = |width: u32| {
            let mut v = LogicVec::zeros(width);
            for i in 0..width {
                v.set_bit(
                    i,
                    [Bit::One, Bit::X, Bit::Zero, Bit::Z, Bit::One][i as usize % 5],
                );
            }
            v
        };
        // Same, growing and shrinking word counts, X/Z bits throughout,
        // and widths that end mid-word so the top mask matters.
        let widths = [1u32, 7, 64, 65, 100, 130, 3];
        for &from in &widths {
            for &to in &widths {
                let src = patterned(to);
                let mut dst = LogicVec::ones(from);
                dst.clone_from(&src);
                assert_eq!(dst, src.clone(), "{from} -> {to}");
                assert_eq!(dst.width(), to);
                assert_eq!(dst.to_bin_string(), src.to_bin_string());
                // `normalize`'s invariant: no stray bits above the width.
                let mask = top_mask(to);
                assert_eq!(dst.val.last().map_or(0, |w| w & !mask), 0);
                assert_eq!(dst.unk.last().map_or(0, |w| w & !mask), 0);
            }
        }
        // Equal word counts: the destination keeps its allocations.
        let mut dst = LogicVec::ones(100);
        let (val, unk) = (dst.val.as_ptr(), dst.unk.as_ptr());
        for src in [patterned(70), LogicVec::xes(128), LogicVec::zeros(65)] {
            dst.clone_from(&src);
            assert_eq!(dst, src);
            assert_eq!((dst.val.as_ptr(), dst.unk.as_ptr()), (val, unk));
        }
    }

    #[test]
    fn condition_semantics() {
        assert_eq!(LogicVec::from_u64(8, 0).to_condition(), Bit::Zero);
        assert_eq!(LogicVec::from_u64(8, 2).to_condition(), Bit::One);
        assert_eq!(
            LogicVec::parse_literal("2'b0x").unwrap().to_condition(),
            Bit::X
        );
        assert_eq!(
            LogicVec::parse_literal("2'b1x").unwrap().to_condition(),
            Bit::One
        );
    }
}
