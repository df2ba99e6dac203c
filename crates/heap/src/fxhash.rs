//! A seeded FxHash-style hasher for trust-internal maps (engine v8).
//!
//! `std`'s default hasher is SipHash-1-3: keyed per process and
//! collision-resistant against adversarial keys — protection several
//! of the campaign's hottest maps do not need, because their keys
//! never cross a trust boundary (compile-cache bucket keys derive from
//! the catalog, path-dedup signatures from the explorer's own
//! constraint trees). For those maps this multiply-rotate hash is a
//! drop-in replacement at a fraction of the per-key cost.
//!
//! Two properties matter for row reproducibility and are guaranteed
//! here:
//!
//! * **Deterministic**: the seed is a compile-time constant, so hash
//!   values — and therefore any iteration order an unordered map might
//!   leak — are identical across processes and runs. (Row identity
//!   across runs must *not* depend on SipHash's per-process random
//!   key; every consumer of these maps is already iteration-order
//!   independent, and the row-identity suites gate that.)
//! * **Not a fingerprint**: like any non-cryptographic hash this is
//!   for bucketing only; equality is always confirmed on the full key.
//!
//! Never use this for anything fed by untrusted input.

use std::hash::{BuildHasher, Hasher};

/// The multiplier from FxHash (a.k.a. the rustc hasher): a single odd
/// constant whose high bits diffuse well under `rotate ^ multiply`.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fixed seed mixed into every hasher so the digest stream is not the
/// raw FxHash of the key (cheap insurance against accidental
/// cross-map correlation; any constant works).
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A seeded FxHash-style [`Hasher`].
#[derive(Clone, Debug)]
pub struct FxHasher64 {
    hash: u64,
}

impl Default for FxHasher64 {
    fn default() -> Self {
        FxHasher64 { hash: SEED }
    }
}

impl FxHasher64 {
    /// A hasher starting from the fixed compile-time seed.
    pub fn new() -> FxHasher64 {
        FxHasher64::default()
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let (head, rest) = bytes.split_at(8);
            self.add(u64::from_le_bytes(head.try_into().expect("8-byte chunk")));
            bytes = rest;
        }
        if bytes.len() >= 4 {
            let (head, rest) = bytes.split_at(4);
            self.add(u64::from(u32::from_le_bytes(head.try_into().expect("4-byte chunk"))));
            bytes = rest;
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A [`BuildHasher`] producing seeded [`FxHasher64`]s, for
/// `HashMap`/`HashSet` type parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher64;

    fn build_hasher(&self) -> FxHasher64 {
        FxHasher64::new()
    }
}

/// A `HashMap` keyed by the seeded fast hash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by the seeded fast hash.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = FxHasher64::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(&"some key"), hash_of(&"some key"));
        assert_eq!(hash_of(&(1u64, 2u8, "x")), hash_of(&(1u64, 2u8, "x")));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
        // Chunked `write` must not collide a split differently.
        assert_ne!(hash_of(&[1u8; 9][..]), hash_of(&[1u8; 12][..]));
    }

    #[test]
    fn maps_behave_like_std() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..100 {
            m.insert(format!("key-{i}"), i);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100 {
            assert_eq!(m.get(&format!("key-{i}")), Some(&i));
        }
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }
}
