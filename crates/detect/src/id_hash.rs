//! The crate's hasher for maps keyed by small integer ids.
//!
//! Two hot maps use it: the streaming engine's object→slot maps (hit once
//! per shared-memory event) and [`SiteAggregator`](crate::SiteAggregator)'s
//! site rows (hit once per classified pair). SipHash's flooding resistance
//! buys nothing there: a colliding id set — site ids in a chunk file are
//! untrusted — can only cost probe time, never correctness or memory beyond
//! one entry per key. One odd-constant multiply with a high-bit fold per
//! integer spreads the dense id space uniformly at a fraction of SipHash's
//! cost.

use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-hashing multiplier (2^64 / φ, odd).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative id hasher; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(K);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(K);
        self.0 = h ^ (h >> 32);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for `HashMap<K, V, IdBuildHasher>`.
pub(crate) type IdBuildHasher = BuildHasherDefault<IdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    #[test]
    fn dense_ids_spread_across_low_bits() {
        // hashbrown picks buckets from the low bits: dense ids must not
        // pile into a few of them.
        let buckets: HashSet<u64> = (0u32..1024).map(|id| hash_of(id) & 1023).collect();
        assert!(
            buckets.len() > 600,
            "{} of 1024 buckets used",
            buckets.len()
        );
    }

    #[test]
    fn tuple_fields_do_not_commute() {
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }
}
