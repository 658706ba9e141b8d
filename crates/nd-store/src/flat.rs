//! Flat arena layout for the Storing Theorem structure.
//!
//! [`FlatStore`] keeps the same partial function `f : [n]^k ⇀ u64` as the
//! pointer trie in [`crate::FnStore`], but as three dense arrays instead of
//! a node arena:
//!
//! * `keys` — every domain key, packed ([`StoreParams::pack`], a base-`n`
//!   `u128` numeral that is monotone in the lexicographic tuple order),
//!   strictly sorted,
//! * `vals` — the stored values, parallel to `keys`,
//! * `dir`  — a radix directory: bucket `b = packed >> shift` covers the
//!   key range `keys[dir[b] .. dir[b+1]]`, with the bucket count sized to
//!   the live domain (≈ one key per bucket).
//!
//! Lookup-or-successor is a constant-time directory probe plus a binary
//! search inside one expected-`O(1)`-sized bucket — and because `dir`
//! holds *global* offsets into the single sorted array, the insertion
//! point it produces is also the global successor position, even when the
//! probe's own bucket is empty or exhausted: `keys[idx]` in a later bucket
//! is automatically the smallest key greater than the probe. The paper's
//! per-slot `Next` caches (Figure 1) exist precisely to answer
//! successor-on-miss in `O(1)`; sorted adjacency answers it for free.
//!
//! The three bulk arrays are [`nd_persist::Slab`]s: decoded from an owned
//! buffer they are plain vectors, decoded from a mapped container
//! they borrow the file pages directly, and the first mutation promotes
//! the touched array to owned (copy-on-write) without disturbing the rest
//! of the snapshot.
//!
//! Trade-offs against the trie, stated honestly:
//!
//! * **Bulk build** is one sorted pass, `O(|Dom| + buckets)` after
//!   sorting, versus the trie's `O(|Dom| · n^ε)` insert-at-a-time with
//!   `Clean` repairs — this is where the dense-family prepare time goes.
//! * **Point updates** are an `O(|Dom|)` memmove plus an `O(buckets)`
//!   directory fix-up, weaker than the paper's `O(n^ε)` bound but with a
//!   far smaller constant; callers with sustained random-update workloads
//!   (e.g. the dynamic far index) deliberately stay on [`crate::FnStore`].
//!   Appends past the current maximum skip the memmove entirely.
//! * **Serialization is free**: the sorted key array is its own canonical
//!   encoding, so the codec is a length check plus a slice decode. It also
//!   serializes the *canonical* directory (recomputed from the keys at
//!   save time, so the bytes stay a pure function of the stored mapping)
//!   so a mapped load does no `O(|Dom|)` recount at all.
//!
//! No engine path builds a `FlatStore` (see [`crate::KeySet`]); it stays
//! for the benchmark's `store.*` replay and for experiment A10.

use crate::params::StoreParams;
use crate::trie::{Lookup, LookupPacked};
use nd_persist::Slab;

/// Hard ceiling on directory buckets (2²² ⇒ ≤ 16 MiB of `u32` offsets),
/// so pathological `n^k` spans cannot balloon the directory.
const MAX_DIR_BITS: u32 = 22;

/// A partial `k`-ary function `f : [n]^k ⇀ u64` in the flat arena layout.
/// Same lookup/successor semantics as [`crate::FnStore`]; see the module docs for
/// the complexity trade.
#[derive(Clone, Debug)]
pub struct FlatStore {
    params: StoreParams,
    /// Strictly sorted packed keys — the arena.
    keys: Slab<u128>,
    /// Values, parallel to `keys`.
    vals: Slab<u64>,
    /// Radix directory: `dir[b] .. dir[b+1]` bounds bucket `b`'s keys.
    dir: Slab<u32>,
    /// `bucket(packed) = (packed >> shift) as usize`.
    shift: u32,
    /// Rebuild the directory when the domain outgrows this (2× the bucket
    /// count at the last sizing), keeping buckets ≈ keys.
    rebuild_at: usize,
}

impl FlatStore {
    /// An empty function.
    pub fn new(params: StoreParams) -> Self {
        let mut s = FlatStore {
            params,
            keys: Slab::default(),
            vals: Slab::default(),
            dir: Slab::default(),
            shift: 0,
            rebuild_at: 0,
        };
        s.rebuild_dir();
        s
    }

    /// Build from `(key, value)` pairs in any order; on duplicate keys the
    /// last pair wins (matching repeated [`FlatStore::insert`]).
    pub fn from_pairs<'a>(
        params: StoreParams,
        pairs: impl IntoIterator<Item = (&'a [u64], u64)>,
    ) -> Self {
        let mut tagged: Vec<(u128, usize, u64)> = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (k, v))| (params.pack(k), i, v))
            .collect();
        tagged.sort_unstable_by_key(|a| (a.0, a.1));
        let mut keys = Vec::with_capacity(tagged.len());
        let mut vals = Vec::with_capacity(tagged.len());
        for (p, _, v) in tagged {
            if keys.last() == Some(&p) {
                *vals.last_mut().expect("parallel arrays") = v;
            } else {
                keys.push(p);
                vals.push(v);
            }
        }
        Self::from_sorted_packed(params, keys, vals)
    }

    /// Bulk build from already strictly-sorted packed keys — the one-pass
    /// path `Cover` uses (bag membership pairs are emitted in order).
    /// `O(|Dom| + buckets)`.
    pub fn from_sorted_packed(params: StoreParams, keys: Vec<u128>, vals: Vec<u64>) -> Self {
        assert_eq!(keys.len(), vals.len(), "parallel arrays");
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "bulk build requires strictly sorted keys"
        );
        debug_assert!(keys.last().is_none_or(|&p| p < span_of(&params)));
        let mut s = FlatStore {
            params,
            keys: keys.into(),
            vals: vals.into(),
            dir: Slab::default(),
            shift: 0,
            rebuild_at: 0,
        };
        s.rebuild_dir();
        s
    }

    pub fn params(&self) -> &StoreParams {
        &self.params
    }

    /// `|Dom(f)|`.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Machine words of storage (space accounting, mirrors
    /// [`crate::FnStore::registers`]): two per packed key, one per value, and the
    /// `u32` directory packed two per word.
    pub fn registers(&self) -> usize {
        3 * self.keys.len() + self.dir.len().div_ceil(2)
    }

    /// Bytes of this store still served straight out of a mapped file
    /// (zero when fully owned).
    pub fn mapped_bytes(&self) -> usize {
        self.keys.mapped_bytes() + self.vals.mapped_bytes() + self.dir.mapped_bytes()
    }

    /// Size the directory to the live domain and recount bucket offsets.
    /// `O(|Dom| + buckets)`.
    fn rebuild_dir(&mut self) {
        let (shift, dir) = canonical_dir(&self.params, &self.keys);
        self.shift = shift;
        self.rebuild_at = (2 * (dir.len() - 1)).max(16);
        self.dir = dir.into();
    }

    #[inline]
    fn bucket(&self, packed: u128) -> usize {
        (packed >> self.shift) as usize
    }

    /// Global index of the smallest key `≥ packed` (may be `len`). One
    /// directory probe, then binary search within the bucket's range.
    #[inline]
    fn insertion_point(&self, packed: u128) -> usize {
        let b = self.bucket(packed);
        let lo = self.dir[b] as usize;
        let hi = self.dir[b + 1] as usize;
        lo + self.keys[lo..hi].partition_point(|&k| k < packed)
    }

    /// Lookup over a packed key: the value, or the smallest domain key
    /// strictly greater than the probe. Constant expected time,
    /// allocation-free.
    #[inline]
    pub fn lookup_packed(&self, packed: u128) -> LookupPacked {
        let idx = self.insertion_point(packed);
        match self.keys.get(idx) {
            Some(&k) if k == packed => LookupPacked::Found(self.vals[idx]),
            // `dir` holds global offsets, so `keys[idx]` is the global
            // successor even when it lives in a later bucket.
            other => LookupPacked::Missing(other.copied()),
        }
    }

    /// Lookup with tuple in/out (convenience wrapper).
    pub fn lookup(&self, key: &[u64]) -> Lookup {
        match self.lookup_packed(self.params.pack(key)) {
            LookupPacked::Found(v) => Lookup::Found(v),
            LookupPacked::Missing(nk) => Lookup::Missing(nk.map(|p| self.params.unpack(p))),
        }
    }

    /// Smallest domain key `≥ key` (packed). Constant expected time.
    #[inline]
    pub fn successor_inclusive_packed(&self, packed: u128) -> Option<u128> {
        match self.lookup_packed(packed) {
            LookupPacked::Found(_) => Some(packed),
            LookupPacked::Missing(nk) => nk,
        }
    }

    /// Smallest domain key `≥ key`.
    pub fn successor_inclusive(&self, key: &[u64]) -> Option<Vec<u64>> {
        self.successor_inclusive_packed(self.params.pack(key))
            .map(|p| self.params.unpack(p))
    }

    /// Smallest domain key `> key`.
    pub fn successor_strict(&self, key: &[u64]) -> Option<Vec<u64>> {
        let next = self.params.increment(key)?;
        self.successor_inclusive(&next)
    }

    /// Largest domain key `< key` (packed). Constant expected time — the
    /// sorted arena makes predecessor symmetric with successor, where the
    /// trie needed an `O(n^ε)` backtracking walk.
    pub fn predecessor_strict_packed(&self, packed: u128) -> Option<u128> {
        let idx = self.insertion_point(packed);
        idx.checked_sub(1).map(|i| self.keys[i])
    }

    /// Largest domain key `< key`.
    pub fn predecessor_strict(&self, key: &[u64]) -> Option<Vec<u64>> {
        self.predecessor_strict_packed(self.params.pack(key))
            .map(|p| self.params.unpack(p))
    }

    /// Insert / overwrite; returns the previous value if the key was
    /// present. `O(|Dom| + buckets)` memmove in general; `O(buckets)` when
    /// appending past the current maximum. On a mapped store the first
    /// mutation promotes the touched arrays to owned (copy-on-write).
    pub fn insert(&mut self, key: &[u64], val: u64) -> Option<u64> {
        assert_eq!(key.len(), self.params.k, "key arity mismatch");
        let packed = self.params.pack(key);
        let idx = self.insertion_point(packed);
        if let Some(&k) = self.keys.get(idx) {
            if k == packed {
                return Some(std::mem::replace(&mut self.vals.to_mut()[idx], val));
            }
        }
        self.keys.to_mut().insert(idx, packed);
        self.vals.to_mut().insert(idx, val);
        let b = self.bucket(packed);
        for d in &mut self.dir.to_mut()[b + 1..] {
            *d += 1;
        }
        if self.keys.len() > self.rebuild_at {
            self.rebuild_dir();
        }
        None
    }

    /// Remove; returns the removed value. `O(|Dom| + buckets)`.
    pub fn remove(&mut self, key: &[u64]) -> Option<u64> {
        assert_eq!(key.len(), self.params.k, "key arity mismatch");
        let packed = self.params.pack(key);
        let idx = self.insertion_point(packed);
        if self.keys.get(idx) != Some(&packed) {
            return None;
        }
        self.keys.to_mut().remove(idx);
        let old = self.vals.to_mut().remove(idx);
        let b = self.bucket(packed);
        for d in &mut self.dir.to_mut()[b + 1..] {
            *d -= 1;
        }
        // Shrink hysteresis: resize the directory when the domain drops
        // far below the bucket count, keeping point updates `O(|Dom|)`.
        if self.dir.len() > 16 && 8 * self.keys.len() < self.dir.len() {
            self.rebuild_dir();
        }
        Some(old)
    }

    /// All `(key, value)` pairs in increasing key order. Linear.
    pub fn iter(&self) -> Vec<(Vec<u64>, u64)> {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .map(|(&p, &v)| (self.params.unpack(p), v))
            .collect()
    }

    /// All packed keys in increasing order.
    pub fn packed_keys(&self) -> &[u128] {
        &self.keys
    }

    /// Exhaustively verify the structural invariants: strict key order,
    /// key range, parallel-array lengths, directory consistency (every
    /// offset range exactly brackets its bucket's keys). Tests only.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert_eq!(self.keys.len(), self.vals.len(), "parallel arrays");
        assert!(
            self.keys.windows(2).all(|w| w[0] < w[1]),
            "keys not strictly sorted"
        );
        let span = span_of(&self.params);
        assert!(self.keys.last().is_none_or(|&p| p < span), "key beyond n^k");
        let buckets = self.dir.len() - 1;
        assert_eq!(self.dir[0], 0, "directory must start at 0");
        assert_eq!(
            self.dir[buckets] as usize,
            self.keys.len(),
            "directory must end at len"
        );
        assert!(
            self.dir.windows(2).all(|w| w[0] <= w[1]),
            "directory offsets not monotone"
        );
        for (i, &p) in self.keys.iter().enumerate() {
            let b = self.bucket(p);
            assert!(b < buckets, "bucket index out of range");
            assert!(
                (self.dir[b] as usize) <= i && i < (self.dir[b + 1] as usize),
                "key {i} outside its directory range"
            );
        }
    }

    // ------------------------------------------------------------------
    // Binary persistence (DESIGN.md §11–12). The sorted key arena is its
    // own canonical serialization; the directory rides along so a mapped
    // load is pure slice casts: shape params, shift, canonical dir, keys,
    // vals — the bulk arrays 16-byte aligned. The directory is
    // *recomputed canonically* from the keys at save time (never the
    // in-memory one, which depends on rebuild history), keeping the bytes
    // a pure function of the stored mapping.
    // ------------------------------------------------------------------

    /// Append the store's binary encoding to `w`. A pure function of the
    /// stored mapping, so load → save is bit-identical.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        w.u64(self.params.n);
        w.u64(self.params.k as u64);
        w.u32(self.params.d);
        w.u32(self.params.h);
        let (shift, dir) = canonical_dir(&self.params, &self.keys);
        w.u32(shift);
        w.u32_slab(&dir);
        w.u128_slab(&self.keys);
        w.u64_slab(&self.vals);
    }

    /// Decode a store, re-validating shape parameters, strict key order,
    /// and the `< n^k` key range (order/range sweeps and the canonical-
    /// directory cross-check are skipped under lazy mmap verification,
    /// backstopped by the deferred section CRC).
    pub fn read_from(
        r: &mut nd_persist::Reader<'_>,
    ) -> Result<FlatStore, nd_persist::PersistError> {
        use nd_persist::malformed;
        let params = read_params(r)?;
        let span = span_of(&params);
        let shift = r.u32("flat store shift")?;
        // Always bound the shift: a hostile value would make `>>` itself
        // undefined before any gated validation could run.
        if shift > 127 {
            return Err(malformed("flat store shift out of range"));
        }
        let dir = r.u32_slab("flat store directory")?;
        let keys = r.u128_slab_sorted(span, "flat store keys")?;
        let vals = r.u64_slab("flat store values")?;
        if vals.len() != keys.len() {
            return Err(malformed("flat store key/value lengths disagree"));
        }
        // Always-on O(1) shape check so every `dir[bucket(p)]` probe of an
        // in-range key is in bounds even under lazy verification.
        let buckets = (((span - 1) >> shift) as usize) + 1;
        if dir.len() != buckets + 1 {
            return Err(malformed("flat store directory sized for another shift"));
        }
        if r.should_validate() {
            let (want_shift, want_dir) = canonical_dir(&params, &keys);
            if shift != want_shift || dir[..] != want_dir[..] {
                return Err(malformed("flat store directory is not canonical"));
            }
        }
        Ok(FlatStore {
            params,
            keys,
            vals,
            dir,
            shift,
            rebuild_at: (2 * buckets).max(16),
        })
    }
}

/// Exclusive upper bound of the packed key space: `n^k` (fits in `u128`
/// because `StoreParams` guarantees `k·⌈log₂ n⌉ ≤ 120`).
fn span_of(params: &StoreParams) -> u128 {
    u128::from(params.n.max(1)).pow(params.k as u32)
}

/// The canonical directory for a key arena: sizing is a pure function of
/// `(params, keys.len())` — never of how the store reached this state —
/// so two stores holding the same mapping always produce identical
/// `(shift, dir)`. This is both the rebuild rule and the serialized form.
fn canonical_dir(params: &StoreParams, keys: &[u128]) -> (u32, Vec<u32>) {
    let span = span_of(params);
    let span_bits = if span <= 1 {
        0
    } else {
        128 - (span - 1).leading_zeros()
    };
    let want_bits = usize::BITS - keys.len().next_power_of_two().leading_zeros() - 1;
    let dir_bits = want_bits.min(span_bits).min(MAX_DIR_BITS);
    let shift = span_bits - dir_bits;
    let buckets = (((span - 1) >> shift) as usize) + 1;
    let mut dir = vec![0u32; buckets + 1];
    for &p in keys {
        dir[((p >> shift) as usize) + 1] += 1;
    }
    for b in 0..buckets {
        dir[b + 1] += dir[b];
    }
    (shift, dir)
}

/// Decode and validate the shape-parameter header.
fn read_params(r: &mut nd_persist::Reader<'_>) -> Result<StoreParams, nd_persist::PersistError> {
    use nd_persist::malformed;
    let n = r.u64("store n")?;
    let k = r.u64("store k")?;
    let d = r.u32("store d")?;
    let h = r.u32("store h")?;
    if k == 0 || d < 2 || h == 0 {
        return Err(malformed("store shape parameters out of range"));
    }
    let k = usize::try_from(k).map_err(|_| malformed("store arity overflows usize"))?;
    // The trie's digit-count cap: bounds the `d^h` loop below against a
    // hostile height before anything iterates over it.
    if (k as u64).saturating_mul(u64::from(h)) > 160 {
        return Err(malformed("store digit count exceeds the scratch cap"));
    }
    // Saturating: a hostile arity times the bit width must reject, not
    // overflow the multiply.
    if (k as u64).saturating_mul(u64::from(64 - n.max(1).leading_zeros().min(63))) > 120 {
        return Err(malformed("store key space too wide to pack"));
    }
    let mut pow = 1u128;
    for _ in 0..h {
        pow = pow.saturating_mul(u128::from(d));
    }
    if pow < u128::from(n.max(1)) {
        return Err(malformed("store digits cannot represent the key range"));
    }
    Ok(StoreParams { n, k, d, h })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnStore;

    fn keyspace(n: u64, k: usize) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = vec![vec![]];
        for _ in 0..k {
            out = out
                .into_iter()
                .flat_map(|p| {
                    (0..n).map(move |x| {
                        let mut q = p.clone();
                        q.push(x);
                        q
                    })
                })
                .collect();
        }
        out
    }

    /// Flat store and pointer trie agree on every probe of a small dense
    /// key space, across every API entry point.
    #[test]
    fn agrees_with_trie_everywhere() {
        let params = StoreParams::new(7, 2, 0.5);
        let keys: Vec<Vec<u64>> = vec![vec![0, 0], vec![0, 6], vec![2, 3], vec![2, 4], vec![6, 6]];
        let mut trie = FnStore::new(params);
        let mut flat = FlatStore::new(params);
        for (i, k) in keys.iter().enumerate() {
            trie.insert(k, i as u64 * 10);
            flat.insert(k, i as u64 * 10);
        }
        flat.check_invariants();
        for probe in keyspace(7, 2) {
            assert_eq!(trie.lookup(&probe), flat.lookup(&probe), "probe {probe:?}");
            assert_eq!(
                trie.successor_inclusive(&probe),
                flat.successor_inclusive(&probe),
                "succ {probe:?}"
            );
            assert_eq!(
                trie.successor_strict(&probe),
                flat.successor_strict(&probe),
                "succ> {probe:?}"
            );
            assert_eq!(
                trie.predecessor_strict(&probe),
                flat.predecessor_strict(&probe),
                "pred {probe:?}"
            );
        }
        assert_eq!(trie.iter(), flat.iter());
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let params = StoreParams::new(50, 2, 0.5);
        let pairs: Vec<(Vec<u64>, u64)> = (0..40)
            .map(|i| (vec![(i * 7) % 50, (i * 13) % 50], i))
            .collect();
        let bulk = FlatStore::from_pairs(params, pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
        let mut inc = FlatStore::new(params);
        for (k, v) in &pairs {
            inc.insert(k, *v);
        }
        bulk.check_invariants();
        assert_eq!(bulk.iter(), inc.iter());
    }

    #[test]
    fn duplicate_keys_last_wins_in_bulk_build() {
        let params = StoreParams::new(10, 1, 0.5);
        let pairs: [(&[u64], u64); 3] = [(&[3], 1), (&[5], 2), (&[3], 9)];
        let s = FlatStore::from_pairs(params, pairs);
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup(&[3]), Lookup::Found(9));
    }

    #[test]
    fn empty_and_single_key_edges() {
        let params = StoreParams::new(9, 2, 0.5);
        let mut s = FlatStore::new(params);
        s.check_invariants();
        assert!(s.is_empty());
        assert_eq!(s.lookup(&[4, 4]), Lookup::Missing(None));
        assert_eq!(s.predecessor_strict(&[8, 8]), None);
        assert!(s.insert(&[4, 4], 7).is_none());
        s.check_invariants();
        assert_eq!(s.lookup(&[4, 4]), Lookup::Found(7));
        assert_eq!(s.lookup(&[4, 3]), Lookup::Missing(Some(vec![4, 4])));
        assert_eq!(s.lookup(&[4, 5]), Lookup::Missing(None));
        assert_eq!(s.predecessor_strict(&[8, 8]), Some(vec![4, 4]));
        assert_eq!(s.remove(&[4, 4]), Some(7));
        assert_eq!(s.remove(&[4, 4]), None);
        s.check_invariants();
        assert!(s.is_empty());
    }

    #[test]
    fn directory_rebuild_keeps_answers_under_growth_and_shrink() {
        let params = StoreParams::new(4000, 1, 0.5);
        let mut s = FlatStore::new(params);
        for i in 0..1000u64 {
            s.insert(&[(i * 37) % 4000], i);
        }
        s.check_invariants();
        for i in 0..1000u64 {
            assert_eq!(s.lookup(&[(i * 37) % 4000]), Lookup::Found(i));
        }
        for i in 0..990u64 {
            s.remove(&[(i * 37) % 4000]);
        }
        s.check_invariants();
        assert_eq!(s.len(), 10);
        for i in 990..1000u64 {
            assert_eq!(s.lookup(&[(i * 37) % 4000]), Lookup::Found(i));
        }
    }

    #[test]
    fn codec_roundtrip_is_bit_identical() {
        let params = StoreParams::new(64, 2, 0.4);
        let mut s = FlatStore::new(params);
        for (i, key) in [[3u64, 7], [3, 9], [60, 0], [0, 0]].iter().enumerate() {
            s.insert(key, i as u64);
        }
        let mut w = nd_persist::Writer::new();
        s.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = nd_persist::Reader::new(&bytes);
        let back = FlatStore::read_from(&mut r).unwrap();
        r.finish().unwrap();
        back.check_invariants();
        assert_eq!(back.iter(), s.iter());
        let mut w2 = nd_persist::Writer::new();
        back.write_into(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "re-save must be bit-identical");
    }

    #[test]
    fn codec_rejects_corruption() {
        let params = StoreParams::new(64, 2, 0.4);
        let mut s = FlatStore::new(params);
        for key in [[3u64, 7], [3, 9], [60, 0]] {
            s.insert(&key, 1);
        }
        let mut w = nd_persist::Writer::new();
        s.write_into(&mut w);
        let bytes = w.into_bytes();
        // Every truncation fails typed.
        for cut in 0..bytes.len() {
            assert!(
                FlatStore::read_from(&mut nd_persist::Reader::new(&bytes[..cut])).is_err(),
                "cut at {cut}"
            );
        }
        // Unsorted keys fail typed: locate the first packed key's byte run
        // (pack([3,7]) = 3·64+7 = 199 — no other encoded field contains
        // that byte pattern) and swap it with its successor.
        let first_key = 199u128.to_le_bytes();
        let a = bytes
            .windows(16)
            .position(|win| win == first_key)
            .expect("first packed key present");
        let mut c = bytes.clone();
        for i in 0..16 {
            c.swap(a + i, a + 16 + i);
        }
        assert!(FlatStore::read_from(&mut nd_persist::Reader::new(&c)).is_err());
        // A non-canonical directory fails typed under full validation:
        // bump a middle directory entry (keeping it monotone) so the
        // offsets no longer match the recount.
        let (shift, dir) = canonical_dir(s.params(), s.packed_keys());
        assert_eq!(shift, 10);
        // params header (24) + shift (4) + dir seq_len (8), padded to 16.
        let dir_at = (24 + 4 + 8usize).next_multiple_of(16);
        let decoded: Vec<u32> = bytes[dir_at..dir_at + 4 * dir.len()]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        assert_eq!(decoded, dir, "serialized directory must be canonical");
        let mut c = bytes.clone();
        let mid = dir_at + 4 * (dir.len() / 2);
        c[mid] = c[mid].wrapping_add(1);
        assert!(FlatStore::read_from(&mut nd_persist::Reader::new(&c)).is_err());
    }

    #[test]
    fn space_stays_proportional_to_domain() {
        let params = StoreParams::new(1 << 20, 2, 0.25);
        let mut s = FlatStore::new(params);
        for i in 0..500u64 {
            s.insert(&[i * 1000, i], i);
        }
        // 3 words per entry + directory ≈ 2 slots per key, packed 2/word.
        assert!(s.registers() <= 3 * 500 + 1024 + 16, "directory oversized");
        for i in 0..500u64 {
            s.remove(&[i * 1000, i]);
        }
        assert!(s.registers() <= 32, "directory failed to shrink");
    }
}
