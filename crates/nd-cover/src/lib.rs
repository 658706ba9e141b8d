//! Neighborhood covers (Theorem 4.4) and kernels (Lemma 5.7).
//!
//! An `(r, s)`-neighborhood cover of `G` is a family `X` of vertex sets
//! ("bags") such that every `r`-ball `N_r(a)` is contained in some bag, and
//! every bag is contained in some `s`-ball. Its *degree* is the maximum
//! number of bags meeting at a vertex. Theorem 4.4 (Grohe–Kreutzer–Siebertz)
//! computes, on nowhere dense classes, an `(r, 2r)`-cover with degree
//! `≤ n^ε` in pseudo-linear time.
//!
//! We substitute the GKS construction with the classical greedy cover
//! (process vertices in domain order; an uncovered vertex `c` spawns the bag
//! `N_{2r}(c)` and covers all of `N_r(c)`), which produces a *valid*
//! `(r, 2r)`-cover on any graph; its degree is measured rather than proven
//! (experiment E2) and is small on the sparse families the paper targets.
//! See DESIGN.md §2 for the substitution argument.
//!
//! Each bag is stored once, as its sorted member list. The paper answers
//! "is `b` in `X`" and "smallest member of `X` that is `≥ b`" through the
//! Storing Theorem (sketched below Theorem 4.4); here both are a binary
//! search in the bag, `O(log |X|)` (DESIGN.md §2).

pub mod kernel;

pub use kernel::{kernel_of_bag, kernel_of_bag_with, KernelIndex, KernelScratch};

use nd_graph::budget::{BudgetExceeded, BudgetTracker, Phase};
use nd_graph::{BfsScratch, ColoredGraph, Vertex};
use std::time::Instant;

/// Index of a bag within a cover.
pub type BagId = u32;

/// Wall-clock cost of a cover build, for the engine's per-phase timings.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoverTimings {
    pub greedy_ms: u64,
}

/// Outcome of a [`Cover::repair`] pass (feeds `PrepareStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverRepair {
    /// Bags spawned for vertices no existing bag could cover.
    pub new_bags: usize,
    /// Pre-existing vertices whose canonical assignment moved.
    pub reassigned: usize,
}

/// One bag of a cover.
#[derive(Clone, Debug)]
pub struct Bag {
    /// The vertex whose `2r`-ball spawned (and contains) the bag.
    pub center: Vertex,
    /// Sorted members.
    pub verts: Vec<Vertex>,
}

/// An `(r, 2r)`-neighborhood cover.
#[derive(Clone)]
pub struct Cover {
    pub r: u32,
    bags: Vec<Bag>,
    /// `X(a)`: the canonical bag covering `N_r(a)`.
    assignment: Vec<BagId>,
    /// For each vertex, the sorted list of bags containing it.
    bags_of: Vec<Vec<BagId>>,
    /// For each bag, the vertices `b` with `X(b) = bag` (sorted).
    assigned_members: Vec<Vec<Vertex>>,
    /// Build-time phase breakdown (not part of the cover's value — two
    /// covers built from the same input are equal regardless of timings).
    timings: CoverTimings,
}

impl Cover {
    /// Greedy `(r, 2r)`-cover of `g`. `epsilon` is accepted for API
    /// stability and changes nothing: no structure of the cover depends
    /// on it.
    ///
    /// Unbudgeted convenience; see [`Cover::try_build`] for cooperative
    /// cancellation.
    pub fn build(g: &ColoredGraph, r: u32, epsilon: f64) -> Cover {
        Self::try_build(g, r, epsilon, &BudgetTracker::unlimited())
            .expect("unlimited budget cannot be exceeded")
    }

    /// Greedy `(r, 2r)`-cover of `g`, charging BFS visits and bag storage
    /// against `tracker` so that a capped preprocessing run bails out with
    /// [`BudgetExceeded`] instead of building an `Ω(n²)` cover on a dense
    /// graph.
    pub fn try_build(
        g: &ColoredGraph,
        r: u32,
        _epsilon: f64,
        tracker: &BudgetTracker,
    ) -> Result<Cover, BudgetExceeded> {
        let t_greedy = Instant::now();
        let n = g.n();
        let mut covered = vec![false; n];
        let mut assignment = vec![0 as BagId; n];
        let mut bags: Vec<Bag> = Vec::new();
        let mut scratch = BfsScratch::new(n);
        let mut kscratch = KernelScratch::new(n);
        tracker.charge_memory(Phase::CoverConstruction, 6 * n as u64)?;
        for c in 0..n as Vertex {
            if covered[c as usize] {
                continue;
            }
            let id = bags.len() as BagId;
            scratch.run(g, c, 2 * r);
            let mut verts: Vec<Vertex> = scratch.reached().to_vec();
            verts.sort_unstable();
            // The 2r-ball BFS visits |verts| vertices and the kernel BFS
            // below touches each bag member O(r) more times; charge the
            // dominant term.
            tracker.charge_nodes(Phase::CoverConstruction, verts.len() as u64 + 1)?;
            tracker.charge_memory(Phase::CoverConstruction, 4 * verts.len() as u64)?;
            // Every vertex of the bag's r-kernel has its whole r-ball inside
            // the bag, so the bag can serve as X(a) for all of them — this
            // covers a superset of N_r(c) (which is always inside the
            // kernel), reducing the number of bags and hence the cover
            // degree.
            for a in kernel::kernel_of_bag_with(g, &verts, r, &mut kscratch) {
                if !covered[a as usize] {
                    covered[a as usize] = true;
                    assignment[a as usize] = id;
                }
            }
            debug_assert!(covered[c as usize], "center must cover itself");
            bags.push(Bag { center: c, verts });
        }

        let mut bags_of: Vec<Vec<BagId>> = vec![Vec::new(); n];
        for (id, bag) in bags.iter().enumerate() {
            for &v in &bag.verts {
                bags_of[v as usize].push(id as BagId);
            }
        }
        let mut assigned_members: Vec<Vec<Vertex>> = vec![Vec::new(); bags.len()];
        for v in 0..n {
            assigned_members[assignment[v] as usize].push(v as Vertex);
        }

        tracker.checkpoint(Phase::CoverConstruction)?;

        Ok(Cover {
            r,
            bags,
            assignment,
            bags_of,
            assigned_members,
            timings: CoverTimings {
                greedy_ms: t_greedy.elapsed().as_millis() as u64,
            },
        })
    }

    /// Wall-clock breakdown recorded while building this cover.
    pub fn build_timings(&self) -> CoverTimings {
        self.timings
    }

    /// Number of vertices of the covered graph.
    pub fn n(&self) -> usize {
        self.assignment.len()
    }

    /// Number of bags.
    pub fn num_bags(&self) -> usize {
        self.bags.len()
    }

    /// The bag with the given id.
    pub fn bag(&self, id: BagId) -> &Bag {
        &self.bags[id as usize]
    }

    /// The canonical bag `X(a)` (contains `N_r(a)`).
    pub fn bag_of(&self, a: Vertex) -> BagId {
        self.assignment[a as usize]
    }

    /// Vertices `b` with `X(b) = id` (the per-bag list of Step 3 of the
    /// Section 5.2.1 preprocessing).
    pub fn assigned_members(&self, id: BagId) -> &[Vertex] {
        &self.assigned_members[id as usize]
    }

    /// Sorted list of bags containing `v`.
    pub fn bags_containing(&self, v: Vertex) -> &[BagId] {
        &self.bags_of[v as usize]
    }

    /// Smallest member of the bag that is `≥ v` — the `b_X` lookup of the
    /// answering phase (Section 5.2.2). A binary search in the sorted bag,
    /// `O(log |X|)`, in place of the paper's Storing-Theorem store.
    pub fn successor_in_bag(&self, id: BagId, v: Vertex) -> Option<Vertex> {
        let verts = &self.bags[id as usize].verts;
        verts.get(verts.partition_point(|&w| w < v)).copied()
    }

    /// The cover degree `δ(X)`: maximum number of bags meeting at a vertex.
    pub fn degree(&self) -> usize {
        self.bags_of.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// `Σ_X |X|` — the quantity bounded by `n^{1+ε}` in the paper (Eq. 1).
    pub fn total_bag_size(&self) -> usize {
        self.bags.iter().map(|b| b.verts.len()).sum()
    }

    /// Append the cover's binary encoding to `w` (DESIGN.md §9): the
    /// assignment and the sorted bag lists. The inverted indexes
    /// (`bags_of`, `assigned_members`) are rebuilt on load in
    /// `O(Σ_X |X| + n)`.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        w.u32(self.r);
        w.seq_len(self.assignment.len());
        for &id in &self.assignment {
            w.u32(id);
        }
        w.seq_len(self.bags.len());
        for bag in &self.bags {
            w.u32(bag.center);
            w.u32_slice(&bag.verts);
        }
    }

    /// Decode a cover, re-validating the invariants the accessors index by
    /// (assignment targets exist, bag members in range and sorted).
    pub fn read_from(r: &mut nd_persist::Reader<'_>) -> Result<Cover, nd_persist::PersistError> {
        use nd_persist::malformed;
        let radius = r.u32("cover radius")?;
        let n = r.seq_len(4, "cover assignment")?;
        let mut assignment = Vec::with_capacity(n);
        for _ in 0..n {
            assignment.push(r.u32("cover assignment entry")?);
        }
        let num_bags = r.seq_len(4, "cover bag count")?;
        let mut bags = Vec::with_capacity(num_bags);
        for _ in 0..num_bags {
            let center = r.u32("bag center")?;
            let verts = r.u32_slice_sorted(n as u32, "bag members")?;
            if (center as usize) >= n {
                return Err(malformed("bag center out of range"));
            }
            bags.push(Bag { center, verts });
        }
        if n > 0 && num_bags == 0 {
            return Err(malformed("cover of a non-empty graph has no bags"));
        }
        if assignment.iter().any(|&id| (id as usize) >= num_bags) {
            return Err(malformed("cover assignment targets a missing bag"));
        }
        let mut bags_of: Vec<Vec<BagId>> = vec![Vec::new(); n];
        for (id, bag) in bags.iter().enumerate() {
            for &v in &bag.verts {
                bags_of[v as usize].push(id as BagId);
            }
        }
        let mut assigned_members: Vec<Vec<Vertex>> = vec![Vec::new(); bags.len()];
        for (v, &id) in assignment.iter().enumerate() {
            assigned_members[id as usize].push(v as Vertex);
        }
        Ok(Cover {
            r: radius,
            bags,
            assignment,
            bags_of,
            assigned_members,
            timings: CoverTimings::default(),
        })
    }

    /// Repair the cover after a graph mutation so that the *covering*
    /// invariant — `N_r(a) ⊆ X(a)` for every vertex `a`, on the mutated
    /// graph `g` — holds again. This is the only property the enumeration
    /// engine's correctness rests on (Case I/II of Section 5.2.2); the
    /// build-time bound `X ⊆ N_{2r}(center)` may lapse for *pre-existing*
    /// bags after edge removals, which affects cover-degree statistics but
    /// never answers.
    ///
    /// `g` is the post-mutation graph (it may have more vertices than the
    /// cover; appended vertices are assigned here) and `added_edges` the
    /// edges present in `g` but not in the graph the cover was built on.
    /// Edge *removals* only shrink balls and need no repair.
    ///
    /// Existing bags are frozen: a vertex whose `r`-ball escaped its bag is
    /// reassigned to another bag already containing the ball, or spawns a
    /// fresh `N_{2r}` bag. Cost is proportional to the mutated
    /// neighborhoods, not to `n`.
    pub fn repair(&mut self, g: &ColoredGraph, added_edges: &[(Vertex, Vertex)]) -> CoverRepair {
        let old_n = self.assignment.len();
        let n = g.n();
        assert!(n >= old_n, "repair graph must extend the covered domain");
        self.assignment.resize(n, 0);
        self.bags_of.resize(n, Vec::new());
        let mut report = CoverRepair::default();
        let mut scratch = BfsScratch::new(n);

        // Appended vertices first: they need an assignment before the
        // violation scan below can consult `bag_of` for them.
        for v in old_n as Vertex..n as Vertex {
            self.assign_vertex(g, v, None, &mut scratch, &mut report);
        }

        // A vertex `v` can violate `N_r(v) ⊆ X(v)` only through a shortest
        // path crossing an added edge `{u, w}`: `v` within `r-1` of `u`,
        // then the residual ball around `w`. Checking that residual ball
        // against `X(v)` is exact for the edge-reachable part of `N_r(v)`;
        // the rest was covered before the mutation (paths avoiding every
        // added edge already existed). Group the subset checks per
        // `(bag, residual radius)` pair so dense regions — where one bag
        // covers everyone — cost one check, not one per vertex.
        let mut violating = std::collections::BTreeSet::new();
        if self.r > 0 {
            let mut checked: std::collections::HashMap<(BagId, u32), bool> =
                std::collections::HashMap::new();
            let mut residual_balls: Vec<Option<Vec<Vertex>>> = vec![None; self.r as usize];
            for &(eu, ew) in added_edges {
                for (u, w) in [(eu, ew), (ew, eu)] {
                    residual_balls.fill(None);
                    checked.clear();
                    scratch.run(g, u, self.r - 1);
                    for i in 0..scratch.reached().len() {
                        let v = scratch.reached()[i];
                        let rad = self.r - 1 - scratch.dist(v);
                        let id = self.assignment[v as usize];
                        let ok = *checked.entry((id, rad)).or_insert_with(|| {
                            let ball = residual_balls[rad as usize].get_or_insert_with(|| {
                                let mut s = BfsScratch::new(n);
                                s.run(g, w, rad);
                                let mut b = s.reached().to_vec();
                                b.sort_unstable();
                                b
                            });
                            let verts = &self.bags[id as usize].verts;
                            ball.iter().all(|x| verts.binary_search(x).is_ok())
                        });
                        if !ok {
                            violating.insert(v);
                        }
                    }
                }
            }
        }
        for v in violating {
            let old_id = self.assignment[v as usize];
            self.assign_vertex(g, v, Some(old_id), &mut scratch, &mut report);
        }
        report
    }

    /// Point `v`'s canonical assignment at a bag containing `N_r(v)` on
    /// `g`, preferring bags that already contain `v` and spawning a fresh
    /// `N_{2r}(v)` bag otherwise. `prev` is `v`'s current assignment, if it
    /// has one to be moved off of.
    fn assign_vertex(
        &mut self,
        g: &ColoredGraph,
        v: Vertex,
        prev: Option<BagId>,
        scratch: &mut BfsScratch,
        report: &mut CoverRepair,
    ) {
        let ball = scratch.ball_sorted(g, v, self.r);
        let target = self.bags_of[v as usize]
            .iter()
            .copied()
            .find(|&id| {
                let verts = &self.bags[id as usize].verts;
                ball.iter().all(|x| verts.binary_search(x).is_ok())
            })
            .unwrap_or_else(|| {
                // No existing bag works: spawn N_{2r}(v), which contains
                // N_r(v) and satisfies the 2r-ball bound by construction.
                let id = self.bags.len() as BagId;
                let verts = scratch.ball_sorted(g, v, 2 * self.r);
                for &x in &verts {
                    // `id` is the largest bag id so far: pushing keeps the
                    // per-vertex bag lists sorted.
                    self.bags_of[x as usize].push(id);
                }
                self.bags.push(Bag { center: v, verts });
                self.assigned_members.push(Vec::new());
                report.new_bags += 1;
                id
            });
        match prev {
            Some(old_id) if old_id == target => return,
            Some(old_id) => {
                let members = &mut self.assigned_members[old_id as usize];
                if let Ok(i) = members.binary_search(&v) {
                    members.remove(i);
                }
                report.reassigned += 1;
            }
            None => {}
        }
        self.assignment[v as usize] = target;
        let members = &mut self.assigned_members[target as usize];
        if let Err(i) = members.binary_search(&v) {
            members.insert(i, v);
        }
    }

    /// Verify only the covering half of the invariant — `N_r(a) ⊆ X(a)` on
    /// `g` — which is what [`Cover::repair`] maintains (test helper).
    pub fn validate_covering(&self, g: &ColoredGraph) {
        let mut scratch = BfsScratch::new(g.n());
        for a in g.vertices() {
            let ball = scratch.ball_sorted(g, a, self.r);
            let bag = &self.bags[self.assignment[a as usize] as usize];
            for v in ball {
                assert!(
                    bag.verts.binary_search(&v).is_ok(),
                    "N_r({a}) not inside X({a})"
                );
            }
        }
    }

    /// Verify the `(r, 2r)`-cover conditions exhaustively (test helper).
    pub fn validate(&self, g: &ColoredGraph) {
        let mut scratch = BfsScratch::new(g.n());
        for a in g.vertices() {
            let ball = scratch.ball_sorted(g, a, self.r);
            let bag = &self.bags[self.assignment[a as usize] as usize];
            for v in ball {
                assert!(
                    bag.verts.binary_search(&v).is_ok(),
                    "N_r({a}) not inside X({a})"
                );
            }
        }
        for bag in &self.bags {
            let ball = scratch.ball_sorted(g, bag.center, 2 * self.r);
            for &v in &bag.verts {
                assert!(
                    ball.binary_search(&v).is_ok(),
                    "bag of center {} exceeds its 2r-ball",
                    bag.center
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_graph::generators;

    #[test]
    fn cover_is_valid_on_families() {
        for (g, r) in [
            (generators::path(50), 2),
            (generators::grid(10, 10), 2),
            (generators::random_tree(80, 1), 3),
            (generators::bounded_degree(120, 4, 5), 2),
            (generators::clique(12), 1),
            (generators::path(1), 1),
        ] {
            let cover = Cover::build(&g, r, 0.5);
            cover.validate(&g);
        }
    }

    #[test]
    fn every_vertex_assigned() {
        let g = generators::grid(8, 8);
        let cover = Cover::build(&g, 2, 0.5);
        for v in g.vertices() {
            let id = cover.bag_of(v);
            assert_eq!(cover.successor_in_bag(id, v), Some(v));
            assert!(cover.assigned_members(id).binary_search(&v).is_ok());
        }
        let total: usize = (0..cover.num_bags() as BagId)
            .map(|id| cover.assigned_members(id).len())
            .sum();
        assert_eq!(total, g.n());
    }

    #[test]
    fn successor_in_bag_agrees_with_a_scan() {
        let g = generators::path(20);
        let cover = Cover::build(&g, 2, 0.5);
        let id = cover.bag_of(10);
        let bag = cover.bag(id);
        // successor_in_bag agrees with a scan.
        for v in 0..20 as Vertex {
            let want = bag.verts.iter().copied().find(|&w| w >= v);
            assert_eq!(cover.successor_in_bag(id, v), want, "v={v}");
        }
        assert_eq!(cover.successor_in_bag(id, 21), None);
    }

    #[test]
    fn degree_small_on_path_large_on_clique() {
        let p = Cover::build(&generators::path(200), 2, 0.5);
        assert!(p.degree() <= 3, "path cover degree {}", p.degree());
        let k = Cover::build(&generators::clique(30), 2, 0.5);
        assert_eq!(k.num_bags(), 1);
        assert_eq!(k.degree(), 1);
    }

    #[test]
    fn centers_spawn_bags() {
        let g = generators::star(10);
        let cover = Cover::build(&g, 1, 0.5);
        // Vertex 0 covers everything in one bag.
        assert_eq!(cover.num_bags(), 1);
        assert_eq!(cover.bag(0).center, 0);
        assert_eq!(cover.bag(0).verts.len(), 10);
    }

    #[test]
    fn empty_graph() {
        let g = generators::path(0);
        let cover = Cover::build(&g, 2, 0.5);
        assert_eq!(cover.num_bags(), 0);
        assert_eq!(cover.degree(), 0);
    }

    #[test]
    fn codec_roundtrip_preserves_every_query_surface() {
        for (g, r) in [
            (generators::grid(8, 8), 2u32),
            (generators::path(30), 3),
            (generators::path(0), 1),
        ] {
            let cover = Cover::build(&g, r, 0.5);
            let mut w = nd_persist::Writer::new();
            cover.write_into(&mut w);
            let bytes = w.into_bytes();
            let mut rd = nd_persist::Reader::new(&bytes);
            let back = Cover::read_from(&mut rd).unwrap();
            rd.finish().unwrap();
            assert_eq!(back.r, cover.r);
            assert_eq!(back.num_bags(), cover.num_bags());
            for v in g.vertices() {
                assert_eq!(back.bag_of(v), cover.bag_of(v));
                assert_eq!(back.bags_containing(v), cover.bags_containing(v));
            }
            for id in 0..cover.num_bags() as BagId {
                assert_eq!(back.bag(id).verts, cover.bag(id).verts);
                assert_eq!(back.assigned_members(id), cover.assigned_members(id));
                for v in 0..g.n() as Vertex {
                    assert_eq!(back.successor_in_bag(id, v), cover.successor_in_bag(id, v));
                }
            }
            if g.n() > 0 {
                back.validate(&g);
            }
        }
    }

    /// Random mutation batch against `g`: returns the mutated graph and
    /// the list of edges present after but not before.
    fn mutate(
        g: &ColoredGraph,
        seed: u64,
        ops: usize,
    ) -> (ColoredGraph, Vec<(nd_graph::Vertex, nd_graph::Vertex)>) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = nd_graph::CsrDelta::new();
        for _ in 0..ops {
            let m = d.n(g) as Vertex;
            match rng.random_range(0..8u32) {
                0 => {
                    d.try_add_node(g).unwrap();
                }
                1 if m > 1 => {
                    let v = rng.random_range(0..m);
                    d.try_isolate(g, v).unwrap();
                }
                x if m > 1 => {
                    let u = rng.random_range(0..m);
                    let v = rng.random_range(0..m);
                    if u != v {
                        if x < 5 {
                            d.try_add_edge(g, u, v).unwrap();
                        } else {
                            d.try_remove_edge(g, u, v).unwrap();
                        }
                    }
                }
                _ => {}
            }
        }
        let h = d.apply(g);
        let added = h
            .edges()
            .filter(|&(u, v)| (v as usize) >= g.n() || !g.has_edge(u, v))
            .collect();
        (h, added)
    }

    #[test]
    fn repair_restores_covering_after_random_mutations() {
        for (gi, g) in [
            generators::grid(9, 9),
            generators::path(60),
            generators::random_tree(70, 5),
            generators::bounded_degree(80, 4, 3),
            generators::clique(14),
        ]
        .iter()
        .enumerate()
        {
            for seed in 0..6u64 {
                for r in [2u32, 4] {
                    let mut cover = Cover::build(g, r, 0.5);
                    let (h, added) = mutate(g, seed * 31 + gi as u64, 12);
                    let report = cover.repair(&h, &added);
                    cover.validate_covering(&h);
                    assert_eq!(cover.n(), h.n());
                    // Assignment bookkeeping stays a partition.
                    let total: usize = (0..cover.num_bags() as BagId)
                        .map(|id| cover.assigned_members(id).len())
                        .sum();
                    assert_eq!(total, h.n());
                    for v in h.vertices() {
                        let id = cover.bag_of(v);
                        assert_eq!(cover.successor_in_bag(id, v), Some(v));
                        assert!(cover.assigned_members(id).binary_search(&v).is_ok());
                        for &b in cover.bags_containing(v) {
                            assert!(cover.bag(b).verts.binary_search(&v).is_ok());
                        }
                    }
                    // Successor queries agree with the bag lists, including
                    // for repair-spawned bags.
                    for id in 0..cover.num_bags() as BagId {
                        let verts = &cover.bag(id).verts;
                        for v in 0..h.n() as Vertex {
                            let want = verts.iter().copied().find(|&w| w >= v);
                            assert_eq!(cover.successor_in_bag(id, v), want);
                        }
                    }
                    // An untouched graph repairs to a no-op.
                    let mut untouched = Cover::build(g, r, 0.5);
                    let noop = untouched.repair(g, &[]);
                    assert_eq!(noop, CoverRepair::default());
                    let _ = report;
                }
            }
        }
    }

    #[test]
    fn repair_spawns_bags_only_when_needed() {
        // Connecting the two ends of a long path forces the ends' balls
        // through the new edge; nearby bags cannot absorb them.
        let g = generators::path(100);
        let mut cover = Cover::build(&g, 2, 0.5);
        let mut h = g.clone();
        assert!(h.try_add_edge(0, 99).unwrap());
        let report = cover.repair(&h, &[(0, 99)]);
        assert!(report.new_bags > 0 || report.reassigned > 0);
        cover.validate_covering(&h);
    }

    #[test]
    fn repair_covers_appended_vertices() {
        // Appended vertices outnumber the original ones.
        let g = generators::path(6);
        let mut cover = Cover::build(&g, 2, 0.5);
        let mut d = nd_graph::CsrDelta::new();
        let mut prev = None;
        for _ in 0..20 {
            let v = d.try_add_node(&g).unwrap();
            if let Some(p) = prev {
                d.try_add_edge(&g, p, v).unwrap();
            }
            prev = Some(v);
        }
        let h = d.apply(&g);
        let added: Vec<_> = h
            .edges()
            .filter(|&(u, v)| (v as usize) >= g.n() || !g.has_edge(u, v))
            .collect();
        cover.repair(&h, &added);
        cover.validate_covering(&h);
        for v in g.n() as Vertex..h.n() as Vertex {
            assert_eq!(cover.successor_in_bag(cover.bag_of(v), v), Some(v));
        }
    }

    #[test]
    fn codec_rejects_missing_bag_targets() {
        let g = generators::path(10);
        let cover = Cover::build(&g, 2, 0.5);
        let mut w = nd_persist::Writer::new();
        cover.write_into(&mut w);
        let bytes = w.into_bytes();
        // Point assignment entry 0 at a bag far beyond the count: offset 4
        // (radius) + 8 (len prefix) is the first assignment word.
        let mut c = bytes.clone();
        c[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Cover::read_from(&mut nd_persist::Reader::new(&c)),
            Err(nd_persist::PersistError::Malformed { .. })
        ));
        // Truncations are typed, never panics.
        for cut in 0..bytes.len() {
            assert!(
                Cover::read_from(&mut nd_persist::Reader::new(&bytes[..cut])).is_err(),
                "cut {cut}"
            );
        }
    }
}
