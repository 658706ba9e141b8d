//! Skip pointers (**Lemma 5.8**).
//!
//! Given a graph `G`, an `r`-neighborhood cover `X` with kernels
//! `K_r(X)`, and a target list `L ⊆ V`, the structure answers in constant
//! time, for any vertex `b` and any set `S` of at most `k` bags,
//!
//! ```text
//! SKIP(b, S) = min { b' ∈ L : b' ≥ b  ∧  b' ∉ ⋃_{X ∈ S} K_r(X) }
//! ```
//!
//! i.e. the next list member that escapes every kernel of `S`. Because a
//! vertex outside `K_r(X(a))` is guaranteed to be at distance `> r` from `a`
//! (when the cover radius is at least `2r`), this is what lets the
//! answering phase jump over entire "too close to the prefix" regions in
//! `O(1)` — the heart of constant delay for far-apart answer tuples.
//!
//! The full `SKIP` table is quadratic, so only the closure `SC(b)` of
//! "reachable" bag sets is materialized (Claims 5.9/5.10): `{X} ∈ SC(b)`
//! for every kernel containing `b`, and `S ∪ {Y} ∈ SC(b)` whenever
//! `S ∈ SC(b)`, `|S| < k` and `SKIP(b, S) ∈ K_r(Y)`. Per vertex this is
//! `O(δ^k)` sets (`δ` = kernel degree), keeping the table pseudo-linear.
//! Arbitrary queries are then answered by the constant-time reduction of
//! Claim 5.9.

use nd_cover::{BagId, KernelIndex};
use nd_graph::budget::{BudgetExceeded, BudgetTracker, Phase};
use nd_graph::Vertex;
use nd_persist::Slab;

/// A sorted, deduplicated set of at most 4 bag ids packed into one `u128`
/// (32 bits per id, most significant first, padded with all-ones) — a
/// `Copy` table key, so building and probing the table never allocates.
type BagSet = u128;

const MAX_SET: usize = 4;
const EMPTY_SLOT: u32 = u32::MAX;
/// Sentinel for `SKIP(b, S) = None` in the compressed value array.
/// Unambiguous because decoded skip targets are range-checked `< n` and
/// `n` is a `u32` vertex count.
const NO_SKIP: u32 = u32::MAX;

/// One tabulated closure row: was `(b, S)` materialized, and if so what is
/// `SKIP(b, S)`?
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Entry {
    Absent,
    Present(Option<Vertex>),
}

#[inline]
fn encode_set(s: &[BagId]) -> BagSet {
    debug_assert!(s.len() <= MAX_SET);
    debug_assert!(s.windows(2).all(|w| w[0] < w[1]));
    let mut out: u128 = 0;
    for i in 0..MAX_SET {
        let v = s.get(i).copied().unwrap_or(EMPTY_SLOT);
        out = (out << 32) | v as u128;
    }
    out
}

/// Insert `y` into a sorted fixed-capacity set; no-op if present. Returns
/// `None` when the set is full.
#[inline]
fn set_with(s: &[BagId], y: BagId) -> Option<Vec<BagId>> {
    if s.len() >= MAX_SET {
        return None;
    }
    match s.binary_search(&y) {
        Ok(_) => Some(s.to_vec()),
        Err(pos) => {
            let mut out = Vec::with_capacity(s.len() + 1);
            out.extend_from_slice(&s[..pos]);
            out.push(y);
            out.extend_from_slice(&s[pos..]);
            Some(out)
        }
    }
}

/// The Lemma 5.8 structure.
///
/// The tabulated closure is stored compressed-sparse-row: one row of
/// `(bag-set, skip)` entries per vertex, rows concatenated into two flat
/// arrays with an offset index. A probe is one offset load plus a binary
/// search in an `O(δ^k)`-sized row — no hashing, 20 bytes per entry
/// instead of a hash-map node, and iteration order is the sorted
/// `(vertex, set)` order the codec wants, so serialization is a straight
/// walk.
#[derive(Clone)]
pub struct SkipPointers {
    k: usize,
    n: usize,
    /// Sorted target list `L`.
    list: Vec<Vertex>,
    in_list: Vec<bool>,
    /// `next_in_list[v]`: smallest member of `L` strictly greater than `v`.
    next_in_list: Vec<Option<Vertex>>,
    /// CSR row offsets: vertex `v`'s closure entries live at
    /// `starts[v] .. starts[v+1]` in `sets` / `vals`. Length `n + 1`.
    /// The three CSR arrays are [`Slab`]s: file-backed when decoded from
    /// a mapped container, promoted to owned on the first repair.
    starts: Slab<u32>,
    /// Bag sets of the closure, sorted within each row.
    sets: Slab<BagSet>,
    /// `SKIP(v, sets[i])`, parallel to `sets`; [`NO_SKIP`] encodes `None`.
    vals: Slab<u32>,
    /// When the `δ^k` closure would exceed this many entries (kernel
    /// degrees blow up on expander-like inputs), the closure is truncated;
    /// queries stay correct via a linear-scan fallback. Truncation is
    /// all-or-nothing per vertex: a partially-tabulated row would break
    /// the Claim 5.9 subset-growing argument (see [`Self::repair`]).
    truncated: bool,
}

/// `SKIP(b, S)` probe against the finished CSR arrays (`starts` has
/// length `n + 1`). A table decoded under lazy verification has had only
/// its lengths checked, so a row that is out of range or inverted, or a
/// value that is neither [`NO_SKIP`] nor `< n`, reads as
/// [`Entry::Absent`]; the caller's linear-scan fallback is correct.
#[inline]
fn csr_get(starts: &[u32], sets: &[BagSet], vals: &[u32], v: Vertex, set: BagSet) -> Entry {
    let n = starts.len() - 1;
    let lo = starts[v as usize] as usize;
    let hi = starts[v as usize + 1] as usize;
    let Some(row) = sets.get(lo..hi) else {
        return Entry::Absent;
    };
    match row.binary_search(&set).map(|i| vals[lo + i]) {
        Ok(NO_SKIP) => Entry::Present(None),
        Ok(x) if (x as usize) < n => Entry::Present(Some(x)),
        _ => Entry::Absent,
    }
}

/// Correct (but linear) fallback used only past the table cap.
fn scan_fallback_raw(
    kernels: &KernelIndex,
    in_list: &[bool],
    next_in_list: &[Option<Vertex>],
    from: Vertex,
    s: &[BagId],
) -> Option<Vertex> {
    let mut cur = if in_list[from as usize] {
        Some(from)
    } else {
        next_in_list[from as usize]
    };
    while let Some(v) = cur {
        if s.iter().all(|&x| !kernels.in_kernel(x, v)) {
            return Some(v);
        }
        cur = next_in_list[v as usize];
    }
    None
}

/// The Claim 5.9 case analysis, generic over the closure-table view (the
/// finished CSR arrays at query time, the in-progress builder during
/// construction). Uses only `next_in_list` and table entries for vertices
/// `> b`, which is what makes the descending construction of Claim 5.10
/// well-founded.
fn compute_skip_raw(
    kernels: &KernelIndex,
    in_list: &[bool],
    next_in_list: &[Option<Vertex>],
    get: &dyn Fn(Vertex, BagSet) -> Entry,
    b: Vertex,
    s: &[BagId],
) -> Option<Vertex> {
    debug_assert!(s.windows(2).all(|w| w[0] < w[1]));
    // Case 1: b itself qualifies.
    if in_list[b as usize] && s.iter().all(|&x| !kernels.in_kernel(x, b)) {
        return Some(b);
    }
    // Case 2: move to the next list element c > b.
    let c = next_in_list[b as usize]?;
    let blocking: Vec<BagId> = s
        .iter()
        .copied()
        .filter(|&x| kernels.in_kernel(x, c))
        .collect();
    if blocking.is_empty() {
        return Some(c);
    }
    // Grow a maximal S' ⊆ S with S' ∈ SC(c), starting from a singleton
    // {X} with c ∈ K_r(X) (which is in SC(c) by construction).
    let mut s_prime: Vec<BagId> = vec![blocking[0]];
    let mut grew = true;
    while grew && s_prime.len() < s.len() {
        grew = false;
        for &y in s {
            if s_prime.binary_search(&y).is_err() {
                if let Some(candidate) = set_with(&s_prime, y) {
                    if matches!(get(c, encode_set(&candidate)), Entry::Present(_)) {
                        s_prime = candidate;
                        grew = true;
                    }
                }
            }
        }
    }
    match get(c, encode_set(&s_prime)) {
        Entry::Present(v) => v,
        // The table was truncated at the size cap — or decoded from a
        // file whose closure is incomplete (hostile bytes pass the CRC
        // only on purpose-built inputs, but they must not panic): fall
        // back to a correct linear scan of L.
        Entry::Absent => scan_fallback_raw(kernels, in_list, next_in_list, c, s),
    }
}

impl SkipPointers {
    /// Precompute the pointers for up to `k` simultaneous bags.
    /// Cost `O(n · δ^k)` table entries, each `O(1)` amortized.
    pub fn build(n: usize, kernels: &KernelIndex, list: Vec<Vertex>, k: usize) -> SkipPointers {
        Self::build_with_cap(n, kernels, list, k, usize::MAX)
    }

    /// [`Self::build`] with a table-size cap. Past the cap no further bag
    /// sets are tabulated; `skip` degrades to a correct scan when it needs
    /// an untabulated set.
    pub fn build_with_cap(
        n: usize,
        kernels: &KernelIndex,
        list: Vec<Vertex>,
        k: usize,
        max_entries: usize,
    ) -> SkipPointers {
        Self::try_build_with_cap(
            n,
            kernels,
            list,
            k,
            max_entries,
            &BudgetTracker::unlimited(),
        )
        .expect("unlimited budget cannot be exceeded")
    }

    /// [`Self::build_with_cap`] with cooperative cancellation: every table
    /// entry is charged against `tracker`, so a capped preprocessing run
    /// aborts the `SC(b)` closure with [`BudgetExceeded`] instead of
    /// filling memory on adversarial kernel degrees. `k` is clamped into
    /// `1..=4` (larger simultaneous sets degrade to verified scans at
    /// query time; see [`Self::skip`]).
    pub fn try_build_with_cap(
        n: usize,
        kernels: &KernelIndex,
        mut list: Vec<Vertex>,
        k: usize,
        max_entries: usize,
        tracker: &BudgetTracker,
    ) -> Result<SkipPointers, BudgetExceeded> {
        let k = k.clamp(1, MAX_SET);
        list.sort_unstable();
        list.dedup();
        let mut in_list = vec![false; n];
        for &v in &list {
            in_list[v as usize] = true;
        }
        let mut next_in_list: Vec<Option<Vertex>> = vec![None; n];
        {
            let mut next = None;
            for v in (0..n).rev() {
                next_in_list[v] = next;
                if in_list[v] {
                    next = Some(v as Vertex);
                }
            }
        }
        tracker.charge_memory(Phase::SkipClosure, 9 * n as u64)?;
        // Claim 5.10: compute SKIP(b, S) for S ∈ SC(b), b descending, sets
        // in breadth-first (size) order. Rows are finalized one vertex at a
        // time into `rev_*` (so they land in descending-vertex order) and
        // reversed into the forward CSR at the end; `bounds[v]` exposes the
        // already-finalized rows — exactly the `v > b` entries Claim 5.10
        // is allowed to read — to the in-progress computation.
        let mut rev_sets: Vec<BagSet> = Vec::new();
        let mut rev_vals: Vec<u32> = Vec::new();
        let mut bounds: Vec<(u32, u32)> = vec![(0, 0); n];
        let mut truncated = false;
        // Current vertex's row, sorted by bag set.
        let mut row: Vec<(BagSet, u32)> = Vec::new();
        'outer: for b in (0..n as Vertex).rev() {
            row.clear();
            let mut queue: Vec<Vec<BagId>> =
                kernels.kernel_bags_of(b).iter().map(|&x| vec![x]).collect();
            let mut head = 0;
            while head < queue.len() {
                let s = std::mem::take(&mut queue[head]);
                head += 1;
                let set = encode_set(&s);
                let pos = match row.binary_search_by_key(&set, |e| e.0) {
                    Ok(_) => continue, // reachable along several queue paths
                    Err(pos) => pos,
                };
                if rev_sets.len() + row.len() >= max_entries {
                    // All-or-nothing per vertex: dropping only the overflow
                    // entries would leave a partial row, and the Claim 5.9
                    // subset-growing step must never see one (it concludes
                    // "val escapes all of S" from "no tabulated superset").
                    truncated = true;
                    row.clear();
                    break 'outer;
                }
                tracker.charge_nodes(Phase::SkipClosure, 1)?;
                tracker.charge_memory(Phase::SkipClosure, 24)?;
                let skip = compute_skip_raw(
                    kernels,
                    &in_list,
                    &next_in_list,
                    &|v, set| {
                        let (lo, hi) = bounds[v as usize];
                        match rev_sets[lo as usize..hi as usize].binary_search(&set) {
                            Ok(i) => Entry::Present(match rev_vals[lo as usize + i] {
                                NO_SKIP => None,
                                x => Some(x),
                            }),
                            Err(_) => Entry::Absent,
                        }
                    },
                    b,
                    &s,
                );
                row.insert(pos, (set, skip.unwrap_or(NO_SKIP)));
                if s.len() < k {
                    if let Some(v) = skip {
                        for &y in kernels.kernel_bags_of(v) {
                            if s.binary_search(&y).is_err() {
                                if let Some(bigger) = set_with(&s, y) {
                                    queue.push(bigger);
                                }
                            }
                        }
                    }
                }
            }
            let lo = rev_sets.len() as u32;
            rev_sets.extend(row.iter().map(|e| e.0));
            rev_vals.extend(row.iter().map(|e| e.1));
            bounds[b as usize] = (lo, rev_sets.len() as u32);
        }
        // Reverse the descending row blocks into forward CSR order.
        let total = rev_sets.len();
        let mut starts = vec![0u32; n + 1];
        for v in 0..n {
            let (lo, hi) = bounds[v];
            starts[v + 1] = starts[v] + (hi - lo);
        }
        let mut sets = Vec::with_capacity(total);
        let mut vals = Vec::with_capacity(total);
        for &(lo, hi) in &bounds {
            sets.extend_from_slice(&rev_sets[lo as usize..hi as usize]);
            vals.extend_from_slice(&rev_vals[lo as usize..hi as usize]);
        }
        Ok(SkipPointers {
            k,
            n,
            list,
            in_list,
            next_in_list,
            starts: starts.into(),
            sets: sets.into(),
            vals: vals.into(),
            truncated,
        })
    }

    /// Number of precomputed table entries (experiment E8: `O(n·δ^k)`).
    pub fn table_len(&self) -> usize {
        self.sets.len()
    }

    /// Bytes of the CSR closure still served straight out of a mapped
    /// file (zero when fully owned).
    pub fn mapped_bytes(&self) -> usize {
        self.starts.mapped_bytes() + self.sets.mapped_bytes() + self.vals.mapped_bytes()
    }

    /// Was the closure truncated at the size cap (queries then use the
    /// scan fallback when they step outside the tabulated sets)?
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The sorted target list `L`.
    pub fn list(&self) -> &[Vertex] {
        &self.list
    }

    /// `SKIP(b, S)` for an arbitrary set `S` of at most `k` bags
    /// (Claim 5.9). Constant time. Sets larger than the prepared `k` are
    /// answered by a correct (linear) scan instead of panicking.
    pub fn skip(&self, kernels: &KernelIndex, b: Vertex, bags: &[BagId]) -> Option<Vertex> {
        let mut s: Vec<BagId> = bags.to_vec();
        s.sort_unstable();
        s.dedup();
        if s.len() > self.k {
            return scan_fallback_raw(kernels, &self.in_list, &self.next_in_list, b, &s);
        }
        compute_skip_raw(
            kernels,
            &self.in_list,
            &self.next_in_list,
            &|v, set| csr_get(&self.starts, &self.sets, &self.vals, v, set),
            b,
            &s,
        )
    }

    /// Exhaustive reference implementation for tests.
    #[doc(hidden)]
    pub fn skip_naive(&self, kernels: &KernelIndex, b: Vertex, bags: &[BagId]) -> Option<Vertex> {
        self.list
            .iter()
            .copied()
            .filter(|&v| v >= b)
            .find(|&v| bags.iter().all(|&x| !kernels.in_kernel(x, v)))
    }

    /// Memory guard used by stats: n of the underlying graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Patch the structure after an index repair: install the re-evaluated
    /// target list for a (possibly grown) domain of `n` vertices and drop
    /// every table entry a mutation could have staled. Returns the number
    /// of entries dropped.
    ///
    /// `kernel_changed` is the sorted set of vertices whose kernel
    /// membership changed in any bag (from `KernelIndex::repair`); the
    /// list diff is computed here. An entry `SKIP(v, S) = val` stays exact
    /// when no changed vertex lies in `[v, val]` (`[v, ∞)` for `val =
    /// None`): every candidate it rejected still fails and `val` itself
    /// still qualifies, since both judgments read only list and kernel
    /// membership of vertices in that interval.
    ///
    /// Exactness of each surviving entry is not enough, though: the
    /// Claim 5.9 query grows a *maximal tabulated* subset `S' ⊆ S` and
    /// relies on the closure property "`val(S') ∈ K(Y)` ⇒ `S' ∪ {Y}` is
    /// tabulated" to conclude that `val(S')` escapes all of `S`. Deleting
    /// a superset entry while keeping a subset entry would break that
    /// implication and let a query return a vertex still inside some
    /// kernel. So staleness evicts a vertex's *entire* tabulated closure:
    /// queries landing there fall through to the verified linear scan,
    /// exactly like past-the-cap truncation, while untouched vertices keep
    /// a complete (hence consistent) closure. Repair therefore keeps every
    /// answer exact but the table possibly sparser — constant delay
    /// re-tightens on the next full rebuild, answers never drift.
    pub fn repair(
        &mut self,
        n: usize,
        mut new_list: Vec<Vertex>,
        kernel_changed: &[Vertex],
    ) -> usize {
        new_list.sort_unstable();
        new_list.dedup();
        let mut changed: Vec<Vertex> = kernel_changed.to_vec();
        // Symmetric difference of the old and new target lists.
        {
            let (a, b) = (&self.list, &new_list);
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                if j == b.len() || (i < a.len() && a[i] < b[j]) {
                    changed.push(a[i]);
                    i += 1;
                } else if i == a.len() || b[j] < a[i] {
                    changed.push(b[j]);
                    j += 1;
                } else {
                    i += 1;
                    j += 1;
                }
            }
        }
        changed.sort_unstable();
        changed.dedup();
        self.n = n;
        self.list = new_list;
        self.in_list = vec![false; n];
        for &v in &self.list {
            self.in_list[v as usize] = true;
        }
        self.next_in_list = vec![None; n];
        let mut next = None;
        for v in (0..n).rev() {
            self.next_in_list[v] = next;
            if self.in_list[v] {
                next = Some(v as Vertex);
            }
        }
        // The domain may have grown: give appended vertices empty rows so
        // the CSR index always spans `0..=n`.
        let old_n = self.starts.len() - 1;
        if n > old_n {
            let last = *self.starts.last().expect("starts is never empty");
            self.starts.to_mut().resize(n + 1, last);
        }
        if changed.is_empty() {
            return 0;
        }
        let before = self.sets.len();
        // Compact the CSR arrays in place, dropping every stale row whole.
        // CoW promotion point: a mapped table copies its arrays once here.
        let mut starts = vec![0u32; n + 1];
        let mut w = 0usize;
        let sets = self.sets.to_mut();
        let vals = self.vals.to_mut();
        for v in 0..n {
            let lo = self.starts[v] as usize;
            let hi = self.starts[v + 1] as usize;
            // First changed vertex ≥ v; an entry `SKIP(v, S) = val` is
            // stale when one lies in `[v, val]` (`[v, ∞)` for None).
            let idx = changed.partition_point(|&c| c < v as Vertex);
            let stale = match changed.get(idx) {
                None => false, // no changed vertex ≥ v: interval untouched
                Some(&c) => vals[lo..hi].iter().any(|&x| match x {
                    NO_SKIP => true,
                    x => c <= x,
                }),
            };
            if !stale {
                sets.copy_within(lo..hi, w);
                vals.copy_within(lo..hi, w);
                w += hi - lo;
            }
            starts[v + 1] = w as u32;
        }
        sets.truncate(w);
        vals.truncate(w);
        self.starts = starts.into();
        before - self.sets.len()
    }

    /// Append the structure's binary encoding to `w` (DESIGN.md §9).
    ///
    /// The tabulated `SC(b)` closure — the expensive part — is written as
    /// its three CSR arrays, raw and 16-byte aligned, so a mapped load can
    /// borrow them in place; the cheap `in_list` / `next_in_list` arrays
    /// are rebuilt on load in `O(n)`.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        w.u32(self.k as u32);
        w.u32_slice(&self.list);
        w.bool(self.truncated);
        w.u32_slab(&self.starts);
        w.u128_slab(&self.sets);
        w.u32_slab(&self.vals);
    }

    /// Decode the structure for an `n`-vertex graph (`n` supplied by the
    /// caller from the already-validated graph, so a corrupt count cannot
    /// drive the rebuild allocations). Table values are range-checked —
    /// the answering phase feeds them straight into per-position bitsets.
    pub fn read_from(
        r: &mut nd_persist::Reader<'_>,
        n: usize,
    ) -> Result<SkipPointers, nd_persist::PersistError> {
        use nd_persist::malformed;
        let k = r.u32("skip arity")? as usize;
        if !(1..=MAX_SET).contains(&k) {
            return Err(malformed("skip arity outside 1..=4"));
        }
        let list = r.u32_slice_sorted(n as u32, "skip list")?;
        let truncated = r.bool("skip truncated flag")?;
        let starts = r.u32_slab("skip row offsets")?;
        let sets: Slab<BagSet> = r.u128_slab("skip table sets")?;
        let vals = r.u32_slab("skip table values")?;
        // Always-on O(1) shape checks: every `starts[v]`/`starts[v+1]`
        // row probe must be in bounds even under lazy verification.
        // Hostile offsets and values inside those bounds are caught per
        // probe by `csr_get`, which reads them as absent entries.
        if starts.len() != n + 1 {
            return Err(malformed("skip row offsets sized for another n"));
        }
        if vals.len() != sets.len() {
            return Err(malformed("skip set/value lengths disagree"));
        }
        if r.should_validate() {
            if starts.first() != Some(&0) || starts[n] as usize != sets.len() {
                return Err(malformed("skip row offsets do not span the table"));
            }
            if starts.windows(2).any(|w| w[0] > w[1]) {
                return Err(malformed("skip row offsets not monotone"));
            }
            for v in 0..n {
                let row = &sets[starts[v] as usize..starts[v + 1] as usize];
                if row.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(malformed("skip table sets not sorted within a row"));
                }
            }
            if vals.iter().any(|&x| x != NO_SKIP && (x as usize) >= n) {
                return Err(malformed("skip table value out of range"));
            }
        }
        let mut in_list = vec![false; n];
        for &v in &list {
            in_list[v as usize] = true;
        }
        let mut next_in_list: Vec<Option<Vertex>> = vec![None; n];
        let mut next = None;
        for v in (0..n).rev() {
            next_in_list[v] = next;
            if in_list[v] {
                next = Some(v as Vertex);
            }
        }
        Ok(SkipPointers {
            k,
            n,
            list,
            in_list,
            next_in_list,
            starts,
            sets,
            vals,
            truncated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_cover::Cover;
    use nd_graph::generators;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn setup(
        g: &nd_graph::ColoredGraph,
        r: u32,
        list: Vec<Vertex>,
        k: usize,
    ) -> (KernelIndex, SkipPointers) {
        // Cover radius 2r so that "outside K_r" implies "distance > r" —
        // mirroring the kr-radius cover of Section 5.
        let cover = Cover::build(g, 2 * r, 0.5);
        let kernels = KernelIndex::build(g, &cover, r);
        let sp = SkipPointers::build(g.n(), &kernels, list, k);
        (kernels, sp)
    }

    fn random_bagsets(
        kernels: &KernelIndex,
        n: usize,
        k: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<BagId>> {
        let mut out = Vec::new();
        for _ in 0..60 {
            let mut s = Vec::new();
            for _ in 0..k {
                // Bias towards kernels of random vertices so sets are
                // non-trivial.
                let v = rng.random_range(0..n as Vertex);
                let kb = kernels.kernel_bags_of(v);
                if !kb.is_empty() {
                    s.push(kb[rng.random_range(0..kb.len())]);
                }
            }
            s.sort_unstable();
            s.dedup();
            if !s.is_empty() {
                out.push(s);
            }
        }
        out
    }

    #[test]
    fn skip_matches_naive_scan() {
        let mut rng = StdRng::seed_from_u64(99);
        for (g, r, k) in [
            (generators::path(80), 2u32, 2usize),
            (generators::grid(9, 9), 1, 2),
            (generators::random_tree(100, 3), 2, 3),
            (generators::bounded_degree(120, 4, 1), 2, 2),
        ] {
            let list: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 3 != 1).collect();
            let (kernels, sp) = setup(&g, r, list, k);
            for bags in random_bagsets(&kernels, g.n(), k, &mut rng) {
                for probe in 0..g.n() as Vertex {
                    assert_eq!(
                        sp.skip(&kernels, probe, &bags),
                        sp.skip_naive(&kernels, probe, &bags),
                        "b={probe}, S={bags:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_list() {
        let g = generators::path(20);
        let (kernels, sp) = setup(&g, 2, vec![], 2);
        assert_eq!(sp.skip(&kernels, 0, &[0]), None);
    }

    #[test]
    fn full_list_no_bags_is_identity_successor() {
        let g = generators::cycle(30);
        let list: Vec<Vertex> = (0..30).collect();
        let (kernels, sp) = setup(&g, 1, list, 2);
        for b in 0..30 as Vertex {
            assert_eq!(sp.skip(&kernels, b, &[]), Some(b));
        }
    }

    #[test]
    fn skipping_over_a_kernel_blocks_far_enough() {
        // The guarantee the enumeration relies on: a skipped-to vertex is at
        // distance > r from the kernel's assigned center vertex.
        let g = generators::grid(12, 12);
        let r = 2;
        let cover = Cover::build(&g, 2 * r, 0.5);
        let kernels = KernelIndex::build(&g, &cover, r);
        let list: Vec<Vertex> = (0..g.n() as Vertex).collect();
        let sp = SkipPointers::build(g.n(), &kernels, list, 2);
        let mut scratch = nd_graph::BfsScratch::new(g.n());
        for a in (0..g.n() as Vertex).step_by(13) {
            let mut bags = kernels.kernel_bags_of(a).to_vec();
            bags.truncate(2); // the structure was prepared for k = 2
            if bags.is_empty() {
                continue;
            }
            for b in (0..g.n() as Vertex).step_by(7) {
                if let Some(v) = sp.skip(&kernels, b, &bags) {
                    // v avoids every kernel around a, and X(a)'s kernel in
                    // particular, so dist(a, v) > r.
                    let close = scratch.distance_capped(&g, a, v, r).is_some();
                    // a ∈ K_r(X(a)) always (cover radius 2r ≥ r); if v were
                    // within distance r of a, then N_r(v) ⊆ N_2r(a) ⊆ X(a),
                    // i.e. v ∈ K_r(X(a)) — contradiction.
                    let xa = cover.bag_of(a);
                    if bags.contains(&xa) {
                        assert!(!close, "skip returned {v} too close to {a}");
                    }
                }
            }
        }
    }

    #[test]
    fn binary_codec_roundtrip_answers_identically() {
        let g = generators::grid(9, 9);
        let list: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 4 != 2).collect();
        let (kernels, sp) = setup(&g, 2, list, 2);
        let mut w = nd_persist::Writer::new();
        sp.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = nd_persist::Reader::new(&bytes);
        let back = SkipPointers::read_from(&mut r, g.n()).unwrap();
        r.finish().unwrap();
        assert_eq!(back.table_len(), sp.table_len());
        assert_eq!(back.truncated(), sp.truncated());
        let mut rng = StdRng::seed_from_u64(5);
        for bags in random_bagsets(&kernels, g.n(), 2, &mut rng) {
            for probe in 0..g.n() as Vertex {
                assert_eq!(
                    back.skip(&kernels, probe, &bags),
                    sp.skip(&kernels, probe, &bags)
                );
            }
        }
        // Deterministic re-encode despite the hash-map table.
        let mut w2 = nd_persist::Writer::new();
        back.write_into(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn binary_codec_rejects_corruption() {
        let g = generators::path(40);
        let list: Vec<Vertex> = (0..40).collect();
        let (_, sp) = setup(&g, 2, list, 2);
        let mut w = nd_persist::Writer::new();
        sp.write_into(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SkipPointers::read_from(&mut nd_persist::Reader::new(&bytes[..cut]), g.n())
                    .is_err(),
                "cut {cut}"
            );
        }
        // Out-of-range table vertices / values are rejected (they would
        // otherwise index per-position bitsets out of bounds downstream).
        assert!(SkipPointers::read_from(&mut nd_persist::Reader::new(&bytes), 3).is_err());
    }

    #[test]
    fn repaired_skip_stays_exact_after_mutations() {
        let mut rng = StdRng::seed_from_u64(31);
        for (gi, g) in [
            generators::grid(9, 9),
            generators::path(70),
            generators::random_tree(80, 6),
        ]
        .iter()
        .enumerate()
        {
            for seed in 0..4u64 {
                let r = 2u32;
                let mut cover = Cover::build(g, 2 * r, 0.5);
                let mut kernels = KernelIndex::build(g, &cover, r);
                let list: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 3 != 1).collect();
                let mut sp = SkipPointers::build(g.n(), &kernels, list, 2);
                let old_bags = cover.num_bags();
                // Mutate.
                let mut mrng = StdRng::seed_from_u64(seed * 13 + gi as u64);
                let mut d = nd_graph::CsrDelta::new();
                for _ in 0..8 {
                    let m = d.n(g) as Vertex;
                    match mrng.random_range(0..6u32) {
                        0 => {
                            d.try_add_node(g).unwrap();
                        }
                        x => {
                            let u = mrng.random_range(0..m);
                            let v = mrng.random_range(0..m);
                            if u != v {
                                if x < 4 {
                                    d.try_add_edge(g, u, v).unwrap();
                                } else {
                                    d.try_remove_edge(g, u, v).unwrap();
                                }
                            }
                        }
                    }
                }
                let h = d.apply(g);
                let added: Vec<(Vertex, Vertex)> = h
                    .edges()
                    .filter(|&(u, v)| (v as usize) >= g.n() || !g.has_edge(u, v))
                    .collect();
                let removed: Vec<(Vertex, Vertex)> =
                    g.edges().filter(|&(u, v)| !h.has_edge(u, v)).collect();
                cover.repair(&h, &added);
                let mut dirty: Vec<BagId> = added
                    .iter()
                    .chain(&removed)
                    .flat_map(|&(u, v)| [u, v])
                    .flat_map(|v| cover.bags_containing(v).iter().copied())
                    .chain(old_bags as BagId..cover.num_bags() as BagId)
                    .collect();
                dirty.sort_unstable();
                dirty.dedup();
                let changed = kernels.repair(&h, &cover, &dirty);
                // New target list on the mutated domain (same predicate).
                let new_list: Vec<Vertex> = (0..h.n() as Vertex).filter(|v| v % 3 != 1).collect();
                sp.repair(h.n(), new_list.clone(), &changed);
                // Every surviving or fallback answer must equal the naive
                // scan on the *new* kernels.
                let fresh = SkipPointers::build(h.n(), &kernels, new_list, 2);
                for bags in random_bagsets(&kernels, h.n(), 2, &mut rng) {
                    for probe in 0..h.n() as Vertex {
                        let want = fresh.skip_naive(&kernels, probe, &bags);
                        assert_eq!(
                            sp.skip(&kernels, probe, &bags),
                            want,
                            "repaired skip drifted: b={probe}, S={bags:?}, seed={seed}, g={gi}"
                        );
                        assert_eq!(fresh.skip(&kernels, probe, &bags), want);
                    }
                }
            }
        }
    }

    #[test]
    fn table_obeys_the_claim_bound() {
        // Claim 5.10: |SC(b)| = O(δ^k) per vertex, δ = kernel degree.
        let g = generators::random_tree(400, 8);
        let list: Vec<Vertex> = (0..g.n() as Vertex).collect();
        let (kernels, sp) = setup(&g, 2, list, 2);
        let delta = kernels.degree();
        let bound = g.n() * (delta + 1).pow(2);
        assert!(
            sp.table_len() <= bound,
            "table {} exceeds n·(δ+1)^k = {bound} (δ = {delta})",
            sp.table_len()
        );
        // And it is far below the quadratic full table.
        assert!(sp.table_len() < g.n() * g.n());
    }
}
