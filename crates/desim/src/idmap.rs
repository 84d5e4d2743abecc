//! Hash maps and sets keyed by identifiers the simulation generates
//! itself — request ids, segment numbers.
//!
//! `std`'s default `RandomState` seeds every map differently, so where a
//! key lands, and so when a map rehashes and how many allocations a run
//! makes, varies from run to run. [`IdMap`] and [`IdSet`] hash with the
//! fixed [`IdHasher`] instead: two maps filled the same way lay out, grow
//! and iterate identically, in every run.
//!
//! The hasher has no secret, so keys chosen by an adversary could all
//! collide. Use these only for keys the program itself generates; keep
//! the default hasher for keys from outside.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` with the fixed [`IdHasher`]. Build one with
/// `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` with the fixed [`IdHasher`]. Build one with
/// `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// A fixed multiply-shift hasher for integer ids.
///
/// Each word is folded in by a full 64 × 64 → 128-bit multiply with an
/// odd constant, XOR-ing the high half onto the low half, so that ids
/// differing only in high bits (the per-client id bases) still land in
/// different buckets, whose index the map takes from the low bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

/// The multiplier: 2^64 / φ, rounded to odd.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.hash ^ n) * u128::from(MUL);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> IdMap<u64, u64> {
        let mut m = IdMap::default();
        for i in 0..2_000u64 {
            m.insert((i % 7) << 40 | i, i);
        }
        for i in (0..2_000u64).step_by(3) {
            m.remove(&((i % 7) << 40 | i));
        }
        m
    }

    /// Two maps filled the same way iterate in the same order, which
    /// `RandomState` does not guarantee.
    #[test]
    fn equal_fills_iterate_identically() {
        let a: Vec<_> = filled().into_iter().collect();
        let b: Vec<_> = filled().into_iter().collect();
        assert_eq!(a.len(), 2_000 - 667);
        assert_eq!(a, b);
    }

    #[test]
    fn ids_differing_only_in_high_bits_hash_apart() {
        let hash = |n: u64| {
            let mut h = IdHasher::default();
            h.write_u64(n);
            h.finish()
        };
        let low_bits = |n: u64| hash(n) & 0xFFFF;
        assert_ne!(low_bits(1 << 40 | 5), low_bits(2 << 40 | 5));
        assert_ne!(hash(1), hash(2));
    }
}
