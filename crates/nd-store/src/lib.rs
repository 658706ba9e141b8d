//! The **Storing Theorem** data structure (Theorem 3.1 of the paper, proofs
//! in its Section 7 appendix).
//!
//! Stores a partial `k`-ary function `f : [n]^k ⇀ u64` such that, for a fixed
//! `ε > 0`:
//!
//! * initialization costs `O(|Dom(f)| · n^ε)`,
//! * inserting or removing a single pair costs `O(n^ε)`,
//! * **lookup is constant time**, and on a miss returns the smallest key of
//!   the domain that is strictly larger than the probe (lexicographically) —
//!   the "lookup-or-successor" semantics that drives the skip pointers and
//!   the answering phase of Section 5,
//! * space is `O(|Dom(f)| · n^ε)` at all times.
//!
//! The structure is the paper's trie `T(f)`: keys are decomposed in base
//! `d = ⌈n^ε⌉` into strings of length `k·h` with `h = ⌈1/ε⌉`, every inner
//! node has exactly `d` slots, and every slot that does *not* lead to a key
//! caches the successor key of its prefix region (the `(0, b̄)` registers of
//! Figure 1). Removals shrink the arena via the paper's copy-the-last-array
//! trick (here: `swap_remove` with pointer fix-up), keeping space
//! proportional to the live domain.
//!
//! One documented deviation: the paper obtains predecessor keys (needed
//! during updates) from a mirrored dual trie; we instead run an
//! `O(d·k·h) = O(n^ε)` backtracking walk, which stays within the update
//! budget and avoids doubling the space.

mod error;
mod flat;
mod params;
mod trie;

pub use error::StoreError;
pub use flat::FlatStore;
pub use params::StoreParams;
pub use trie::{FnStore, Lookup, LookupPacked};

/// A set of `k`-tuples over `[n]^k` with successor queries — the Storing
/// Theorem structure with unit values.
///
/// Backed by the flat sorted arena ([`FlatStore`]): bulk builds are one
/// sorted pass instead of insert-at-a-time, lookup-or-successor is a radix
/// probe plus an expected-`O(1)` binary search, and the on-disk form is
/// the arena itself. The pointer trie ([`FnStore`]) remains available for
/// sustained random-update workloads.
///
/// No engine path builds a `KeySet` or a [`FlatStore`]: the cover and the
/// distance oracle store each bag once as a sorted list and answer
/// membership by binary search. Both types stay for the benchmark's
/// `store.*` replay of the former cover store and for experiment A10.
#[derive(Clone)]
pub struct KeySet {
    inner: FlatStore,
}

impl KeySet {
    /// An empty set of `k`-tuples over `[n]^k`.
    pub fn new(params: StoreParams) -> Self {
        KeySet {
            inner: FlatStore::new(params),
        }
    }

    /// Build from an iterator of keys in any order.
    pub fn from_keys<'a>(params: StoreParams, keys: impl IntoIterator<Item = &'a [u64]>) -> Self {
        KeySet {
            inner: FlatStore::from_pairs(params, keys.into_iter().map(|k| (k, 0))),
        }
    }

    /// Bulk build from keys already in strictly increasing lexicographic
    /// order — one `O(|keys|)` pass, no per-key search or memmove (e.g.
    /// `(bag, vertex)` pairs from bags in id order with sorted member
    /// lists).
    pub fn from_sorted_keys<'a>(
        params: StoreParams,
        keys: impl IntoIterator<Item = &'a [u64]>,
    ) -> Self {
        Self::from_sorted_packed(params, keys.into_iter().map(|k| params.pack(k)).collect())
    }

    /// [`KeySet::from_sorted_keys`] over already-packed keys.
    pub fn from_sorted_packed(params: StoreParams, packed: Vec<u128>) -> Self {
        let vals = vec![0; packed.len()];
        KeySet {
            inner: FlatStore::from_sorted_packed(params, packed, vals),
        }
    }

    pub fn params(&self) -> &StoreParams {
        self.inner.params()
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Insert a key; returns `true` if it was new.
    pub fn insert(&mut self, key: &[u64]) -> bool {
        self.inner.insert(key, 0).is_none()
    }

    /// Remove a key; returns `true` if it was present.
    pub fn remove(&mut self, key: &[u64]) -> bool {
        self.inner.remove(key).is_some()
    }

    /// Membership test. `O(k·h)` — constant for fixed `k`, `ε`.
    pub fn contains(&self, key: &[u64]) -> bool {
        matches!(self.inner.lookup(key), Lookup::Found(_))
    }

    /// Smallest member `≥ key`, or `None`. Constant time.
    pub fn successor_inclusive(&self, key: &[u64]) -> Option<Vec<u64>> {
        self.inner.successor_inclusive(key)
    }

    /// Allocation-free variant of [`Self::successor_inclusive`] over packed
    /// keys (see [`StoreParams::pack`]).
    pub fn successor_inclusive_packed(&self, packed: u128) -> Option<u128> {
        self.inner.successor_inclusive_packed(packed)
    }

    /// Smallest member `> key`, or `None`. Constant time.
    pub fn successor_strict(&self, key: &[u64]) -> Option<Vec<u64>> {
        self.inner.successor_strict(key)
    }

    /// Largest member `< key`, or `None`. `O(n^ε)`.
    pub fn predecessor_strict(&self, key: &[u64]) -> Option<Vec<u64>> {
        self.inner.predecessor_strict(key)
    }

    /// All members in increasing order.
    pub fn iter_keys(&self) -> Vec<Vec<u64>> {
        self.inner.iter().into_iter().map(|(k, _)| k).collect()
    }

    /// Register count of the underlying store (space measurement, E1).
    pub fn registers(&self) -> usize {
        self.inner.registers()
    }

    /// Structural self-check of the backing arena (tests only).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.inner.check_invariants();
    }

    /// Append the set's binary encoding to `w` (DESIGN.md §11): the flat
    /// arena — the sorted key array is the serialization.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        self.inner.write_into(w);
    }

    /// Decode a set, re-validating the store's invariants.
    pub fn read_from(r: &mut nd_persist::Reader<'_>) -> Result<KeySet, nd_persist::PersistError> {
        Ok(KeySet {
            inner: FlatStore::read_from(r)?,
        })
    }
}

#[cfg(test)]
mod keyset_tests {
    use super::*;

    #[test]
    fn basic_set_ops() {
        let mut s = KeySet::new(StoreParams::new(100, 2, 0.5));
        assert!(s.insert(&[3, 7]));
        assert!(!s.insert(&[3, 7]));
        assert!(s.insert(&[3, 9]));
        assert!(s.contains(&[3, 7]));
        assert!(!s.contains(&[3, 8]));
        assert_eq!(s.successor_inclusive(&[3, 8]), Some(vec![3, 9]));
        assert_eq!(s.successor_strict(&[3, 9]), None);
        assert_eq!(s.predecessor_strict(&[3, 9]), Some(vec![3, 7]));
        assert!(s.remove(&[3, 7]));
        assert!(!s.remove(&[3, 7]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter_keys(), vec![vec![3, 9]]);
    }

    #[test]
    fn codec_roundtrip_preserves_membership() {
        let mut s = KeySet::new(StoreParams::new(64, 2, 0.4));
        for key in [[3u64, 7], [3, 9], [60, 0]] {
            s.insert(&key);
        }
        let mut w = nd_persist::Writer::new();
        s.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = nd_persist::Reader::new(&bytes);
        let back = KeySet::read_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), 3);
        assert!(back.contains(&[3, 7]));
        assert!(!back.contains(&[3, 8]));
        assert_eq!(back.successor_inclusive(&[3, 8]), Some(vec![3, 9]));
        assert_eq!(back.iter_keys(), s.iter_keys());
    }
}
