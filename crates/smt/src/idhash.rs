//! A multiplicative hasher for maps keyed by the program's own ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A word-at-a-time multiplicative hasher (the Fx construction: rotate,
/// xor, multiply) for maps whose keys are built only from ids the
/// program hands out itself, such as [`TermId`](crate::TermId)s and
/// [`TermKind`](crate::TermKind)s over interned names and constants.
/// It does not resist chosen keys, so keys that come from HDL text or
/// any other input keep the standard library's default hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// An odd multiplier with well-spread bits (rustc's Fx constant).
const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A [`HashMap`] under [`IdHasher`], for keys made of the program's own
/// ids only.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TermId;

    #[test]
    fn id_maps_store_and_find_every_key() {
        let mut m: IdMap<TermId, u32> = IdMap::default();
        for i in 0..10_000u32 {
            m.insert(TermId(i), i * 3);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u32).all(|i| m[&TermId(i)] == i * 3));
        assert!(!m.contains_key(&TermId(10_000)));
    }
}
