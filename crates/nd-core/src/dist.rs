//! The constant-time distance oracle of **Proposition 4.2**.
//!
//! After a pseudo-linear preprocessing of `G` (for a fixed radius `r`), test
//! `dist(a, b) ≤ r` in constant time. The construction follows Section 4.2:
//!
//! 1. compute an `(r, 2r)`-neighborhood cover `X` (Theorem 4.4 substitute);
//! 2. for every bag `X`, compute Splitter's answer `s_X` to its center
//!    (Remark 4.7; heuristic strategy from `nd-splitter`);
//! 3. recolor: `R_i = {w ∈ X : dist_{G[X]}(w, s_X) ≤ i}` for `i ≤ r` —
//!    the distance-oracle instance of the Removal Lemma;
//! 4. recurse on `X' = G[X ∖ {s_X}]` with one fewer splitter round.
//!
//! A test `dist(a, b) ≤ r` localizes to the bag `X(a)` (because
//! `N_r(a) ⊆ X(a)`) and then either goes through `s_X` (decided by the `R_i`
//! tables in `O(1)`) or avoids it (decided by the recursive oracle on `X'`).
//!
//! The recursion bottoms out on small or edgeless graphs with a naive
//! all-balls table (the paper's `λ = 1` base case, generalized to a size
//! threshold so that heuristic splitter moves never jeopardize termination
//! or cost — DESIGN.md §2).

use nd_cover::Cover;
use nd_graph::budget::{BudgetExceeded, BudgetTracker, Phase};
use nd_graph::{BfsScratch, ColoredGraph, InducedSubgraph, Vertex};
use nd_splitter::splitter_move;

/// Tuning knobs for the oracle construction.
#[derive(Clone, Copy, Debug)]
pub struct DistOracleOpts {
    /// Accepted for API stability; no structure of the oracle depends on
    /// it (each level stores its bags once, as sorted lists).
    pub epsilon: f64,
    /// Maximum recursion depth (the splitter-game round budget `λ`).
    pub max_rounds: u32,
    /// Graphs of at most this many vertices use the naive base case.
    pub naive_threshold: usize,
    /// Global work budget: recursion stops (switching to naive bases) once
    /// the total number of vertices materialized across all levels exceeds
    /// `budget_factor · n`. This is the practical stand-in for the paper's
    /// `λ(r)`-bounded recursion: with a true winning strategy each level is
    /// pseudo-linear and there are `λ` of them; with heuristic splitter
    /// moves the budget enforces the same total.
    pub budget_factor: usize,
    /// Memory guard for the naive base case: when the per-vertex ball
    /// tables of a base graph would exceed this many entries (balls explode
    /// on expander-like graphs at large radii), the base answers by capped
    /// BFS instead — still exact, no longer `O(1)`. The degradation is
    /// counted in [`OracleStats::bfs_fallbacks`].
    pub ball_entry_cap: usize,
}

impl Default for DistOracleOpts {
    fn default() -> Self {
        DistOracleOpts {
            epsilon: 0.5,
            max_rounds: 12,
            naive_threshold: 300,
            budget_factor: 20,
            ball_entry_cap: 20_000_000,
        }
    }
}

/// Constant-time `dist(·,·) ≤ r` tests over a fixed graph.
#[derive(Clone)]
pub struct DistOracle {
    r: u32,
    root: Node,
    stats: OracleStats,
}

/// Size accounting for experiment E4.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleStats {
    /// Total vertices across all recursive levels.
    pub total_vertices: usize,
    /// Total edges across all recursive levels.
    pub total_edges: usize,
    /// Number of naive base-case nodes.
    pub base_cases: usize,
    /// Base cases that had to degrade to BFS-per-query (ball tables would
    /// have exceeded the memory cap).
    pub bfs_fallbacks: usize,
    /// Maximum recursion depth reached.
    pub depth: u32,
    /// Number of bags across all levels.
    pub bags: usize,
}

#[derive(Clone)]
enum Node {
    /// Base case: per-vertex sorted `r`-ball membership lists.
    Naive(Vec<Box<[Vertex]>>),
    /// Base case with near-full balls (dense graphs): the same tables as
    /// [`Node::Naive`] packed as one bitmap row per vertex. Chosen whenever
    /// the bitmap is the smaller representation; membership is `O(1)` and
    /// warm restarts copy rows off the wire instead of re-expanding lists.
    NaiveDense(BallGrid),
    /// Degenerate base case: answer by capped BFS (exact, not `O(1)`;
    /// only when ball tables would blow the memory cap).
    Bfs(ColoredGraph),
    /// Recursive case (Section 4.2.1 steps 2–5).
    Split(Box<SplitNode>),
}

/// Row-major bitmap of `n` balls over an `n`-vertex base graph. The bit
/// words are a [`nd_persist::Slab`]: decoded from a mapped
/// container they are served straight out of the file pages (this is the
/// dominant section of a dense-family index, so it is where zero-copy
/// loading pays).
#[derive(Clone)]
struct BallGrid {
    n: usize,
    words_per_row: usize,
    bits: nd_persist::Slab<u64>,
}

impl BallGrid {
    fn contains(&self, a: Vertex, b: Vertex) -> bool {
        let w = self.bits[a as usize * self.words_per_row + (b as usize >> 6)];
        w >> (b as usize & 63) & 1 == 1
    }
}

/// One recursion level. Each bag is stored once, as `s_X` plus the
/// sorted `X ∖ {s_X}` of its subgraph's embedding.
#[derive(Clone)]
struct SplitNode {
    /// The cover's canonical bag `X(a)` per vertex of this level.
    assignment: nd_persist::Slab<u32>,
    bags: Vec<BagNode>,
}

#[derive(Clone)]
struct BagNode {
    /// `X' = G[X ∖ {s_X}]`, vertex ids local to the *parent* level graph;
    /// `sub.global_ids` together with `s` is the bag `X`.
    sub: InducedSubgraph,
    /// Splitter's answer for this bag (parent-level id).
    s: Vertex,
    /// `min(r+1, dist_{G[X]}(w, s_X))`, indexed by `X'`-local id — the
    /// `R_i` recoloring of step 4 packed into one byte per vertex.
    ri: Vec<u8>,
    /// Distance of `s_X` to itself is 0; kept for symmetry of the test.
    inner: Node,
}

impl DistOracle {
    /// Preprocess `g` for `dist ≤ r` tests.
    ///
    /// Unbudgeted convenience; see [`DistOracle::try_build`].
    pub fn build(g: &ColoredGraph, r: u32, opts: &DistOracleOpts) -> DistOracle {
        Self::try_build(g, r, opts, &BudgetTracker::unlimited())
            .expect("unlimited budget cannot be exceeded")
    }

    /// Preprocess `g` for `dist ≤ r` tests, charging every materialized
    /// recursion level against `tracker` (cooperative cancellation — a
    /// capped run returns [`BudgetExceeded`] instead of recursing on).
    pub fn try_build(
        g: &ColoredGraph,
        r: u32,
        opts: &DistOracleOpts,
        tracker: &BudgetTracker,
    ) -> Result<DistOracle, BudgetExceeded> {
        let mut stats = OracleStats::default();
        let mut budget = (opts.budget_factor.saturating_mul(g.n())).max(10_000) as isize;
        let root = build_node(
            g,
            r,
            opts,
            opts.max_rounds,
            0,
            &mut stats,
            &mut budget,
            tracker,
        )?;
        Ok(DistOracle { r, root, stats })
    }

    /// The preprocessed radius.
    pub fn radius(&self) -> u32 {
        self.r
    }

    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// Is `dist(a, b) ≤ r`? Constant time (`O(λ)` pointer chases).
    pub fn test(&self, a: Vertex, b: Vertex) -> bool {
        test_node(&self.root, self.r, a, b)
    }

    /// Append the oracle's binary encoding to `w` (DESIGN.md §9).
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        w.u32(self.r);
        w.u64(self.stats.total_vertices as u64);
        w.u64(self.stats.total_edges as u64);
        w.u64(self.stats.base_cases as u64);
        w.u64(self.stats.bfs_fallbacks as u64);
        w.u32(self.stats.depth);
        w.u64(self.stats.bags as u64);
        write_node(&self.root, w);
    }

    /// Decode an oracle over an `n`-vertex graph (`n` comes from the
    /// already-validated graph section, never from the file, so a corrupt
    /// count cannot drive allocations). Re-validates every invariant
    /// `test` relies on: per-level vertex counts, bag/sub embeddings,
    /// recoloring-table lengths.
    pub fn read_from(
        r: &mut nd_persist::Reader<'_>,
        n: usize,
    ) -> Result<DistOracle, nd_persist::PersistError> {
        let radius = r.u32("oracle radius")?;
        let to_usize = |v: u64, what: &str| {
            usize::try_from(v).map_err(|_| nd_persist::malformed(format!("{what} overflows")))
        };
        let stats = OracleStats {
            total_vertices: to_usize(r.u64("oracle total vertices")?, "oracle total vertices")?,
            total_edges: to_usize(r.u64("oracle total edges")?, "oracle total edges")?,
            base_cases: to_usize(r.u64("oracle base cases")?, "oracle base cases")?,
            bfs_fallbacks: to_usize(r.u64("oracle bfs fallbacks")?, "oracle bfs fallbacks")?,
            depth: r.u32("oracle depth")?,
            bags: to_usize(r.u64("oracle bags")?, "oracle bags")?,
        };
        let root = read_node(r, n, 0)?;
        Ok(DistOracle {
            r: radius,
            root,
            stats,
        })
    }

    /// Is `dist(a, b) ≤ d` for some `d ≤ r`? The oracle only indexes the
    /// single radius `r`; finer tests fall back to capped BFS from the
    /// smaller-degree endpoint — still cheap, but not `O(1)`; the engine
    /// uses [`Self::test`] on the hot path and this only for per-candidate
    /// filtering of mixed-radius queries.
    pub fn test_at(&self, g: &ColoredGraph, a: Vertex, b: Vertex, d: u32) -> bool {
        if d == self.r {
            return self.test(a, b);
        }
        if self.test(a, b) {
            if d >= self.r {
                return true; // dist ≤ r ≤ d
            }
        } else if d <= self.r {
            return false; // dist > r ≥ d
        }
        let mut scratch = BfsScratch::new(g.n());
        scratch.distance_capped(g, a, b, d).is_some()
    }
}

#[allow(clippy::too_many_arguments)]
fn build_node(
    g: &ColoredGraph,
    r: u32,
    opts: &DistOracleOpts,
    rounds_left: u32,
    depth: u32,
    stats: &mut OracleStats,
    budget: &mut isize,
    tracker: &BudgetTracker,
) -> Result<Node, BudgetExceeded> {
    stats.total_vertices += g.n();
    stats.total_edges += g.m();
    stats.depth = stats.depth.max(depth);
    *budget -= g.n() as isize;
    tracker.charge_nodes(Phase::DistOracle, g.n() as u64 + 1)?;
    if g.n() <= opts.naive_threshold || rounds_left == 0 || g.m() == 0 || *budget <= 0 {
        stats.base_cases += 1;
        let mut scratch = BfsScratch::new(g.n());
        let mut balls: Vec<Box<[Vertex]>> = Vec::with_capacity(g.n());
        let mut entries = 0usize;
        for v in 0..g.n() as Vertex {
            let ball = scratch.ball_sorted(g, v, r);
            entries += ball.len();
            tracker.charge_nodes(Phase::DistOracle, ball.len() as u64)?;
            if entries > opts.ball_entry_cap {
                stats.bfs_fallbacks += 1;
                return Ok(Node::Bfs(g.clone()));
            }
            balls.push(ball.into_boxed_slice());
        }
        tracker.charge_memory(Phase::DistOracle, 4 * entries as u64)?;
        // Same criterion as the on-disk `sorted_set` encoding: when the
        // bitmap form is smaller overall, keep it in memory too, so saves
        // stream rows out and loads stream them back in without expansion.
        let words_per_row = g.n().div_ceil(64);
        if g.n() * words_per_row * 8 < 4 * entries {
            let mut bits = vec![0u64; g.n() * words_per_row];
            for (v, ball) in balls.iter().enumerate() {
                let row = &mut bits[v * words_per_row..(v + 1) * words_per_row];
                for &u in ball.iter() {
                    row[(u / 64) as usize] |= 1u64 << (u % 64);
                }
            }
            return Ok(Node::NaiveDense(BallGrid {
                n: g.n(),
                words_per_row,
                bits: bits.into(),
            }));
        }
        return Ok(Node::Naive(balls));
    }

    // Step 2: the (r, 2r)-cover.
    let cover = Cover::try_build(g, r, opts.epsilon, tracker)?;
    let mut bags = Vec::with_capacity(cover.num_bags());
    for id in 0..cover.num_bags() as u32 {
        let bag = cover.bag(id);
        // Step 3: Splitter's answer to the bag center, computed on the bag
        // subgraph (Remark 4.7: time O(‖N_2r(c_X)‖)).
        let bag_sub = InducedSubgraph::new_uncolored(g, &bag.verts);
        let center_local = bag_sub
            .to_local(bag.center)
            .expect("center belongs to its bag");
        let s_local = splitter_move(&bag_sub, center_local, 2 * r);
        let s = bag_sub.to_global(s_local);

        // Step 4: R_i = dist_{G[X]}(·, s_X) capped at r+1, via one BFS in
        // the bag subgraph.
        let mut scratch = BfsScratch::new(bag_sub.n());
        scratch.run(&bag_sub.graph, s_local, r);
        let mut verts_wo_s: Vec<Vertex> = bag.verts.clone();
        let pos = verts_wo_s.binary_search(&s).expect("s is in the bag");
        verts_wo_s.remove(pos);
        let sub = InducedSubgraph::new_uncolored(g, &verts_wo_s);
        let ri: Vec<u8> = verts_wo_s
            .iter()
            .map(|&w| {
                let wl = bag_sub.to_local(w).unwrap();
                let d = scratch.dist(wl);
                if d == nd_graph::bfs::UNREACHED {
                    (r + 1).min(255) as u8
                } else {
                    d.min(r + 1).min(255) as u8
                }
            })
            .collect();

        // Step 5: recurse on X' with one fewer round.
        let inner = build_node(
            &sub.graph,
            r,
            opts,
            rounds_left - 1,
            depth + 1,
            stats,
            budget,
            tracker,
        )?;
        bags.push(BagNode { sub, s, ri, inner });
    }
    stats.bags += bags.len();
    let assignment: Vec<u32> = (0..g.n() as Vertex).map(|a| cover.bag_of(a)).collect();
    Ok(Node::Split(Box::new(SplitNode {
        assignment: assignment.into(),
        bags,
    })))
}

/// Decode-side recursion cap. The builder never exceeds `max_rounds`
/// (default 12) levels; hostile files must not be able to recurse the
/// decoder off the stack.
const MAX_DECODE_DEPTH: u32 = 64;

fn write_node(node: &Node, w: &mut nd_persist::Writer) {
    match node {
        Node::Naive(balls) => {
            w.u8(0);
            w.seq_len(balls.len());
            // Radius-r balls on dense graphs are near-full vertex sets;
            // the adaptive encoding stores those as bitmaps, which is
            // what keeps warm restarts fast on the dense families.
            for ball in balls {
                w.sorted_set(ball, balls.len() as u32);
            }
        }
        Node::NaiveDense(grid) => {
            w.u8(3);
            w.seq_len(grid.n);
            // Raw aligned bit rows a mapped load can borrow in place.
            w.u64_slab(&grid.bits);
        }
        Node::Bfs(g) => {
            w.u8(1);
            g.write_into(w);
        }
        Node::Split(split) => {
            w.u8(2);
            w.u32_slab(&split.assignment);
            w.seq_len(split.bags.len());
            for bag in &split.bags {
                bag.sub.write_into(w);
                w.u32(bag.s);
                w.byte_slice(&bag.ri);
                write_node(&bag.inner, w);
            }
        }
    }
}

/// Decode one recursion level over an `n`-vertex graph. Every structural
/// property `test_node` indexes by — ball-table and assignment lengths,
/// subgraph size, recoloring-table lengths — is re-checked here. The
/// assignment's bag ids are range-checked under full verification only;
/// `test_node` answers `false` on a bad id instead of indexing by it.
fn read_node(
    r: &mut nd_persist::Reader<'_>,
    n: usize,
    depth: u32,
) -> Result<Node, nd_persist::PersistError> {
    use nd_persist::malformed;
    if depth > MAX_DECODE_DEPTH {
        return Err(malformed("oracle recursion exceeds the depth cap"));
    }
    Ok(match r.u8("oracle node tag")? {
        0 => {
            let count = r.seq_len(8, "oracle ball count")?;
            if count != n {
                return Err(malformed(
                    "oracle ball table does not match the vertex count",
                ));
            }
            let mut balls = Vec::with_capacity(count);
            for _ in 0..count {
                let ball = r.sorted_set(n as u32, "oracle ball")?;
                balls.push(ball.into_boxed_slice());
            }
            Node::Naive(balls)
        }
        1 => {
            let g = ColoredGraph::read_from(r)?;
            if g.n() != n {
                return Err(malformed(
                    "oracle bfs graph does not match the vertex count",
                ));
            }
            Node::Bfs(g)
        }
        2 => {
            let assignment = r.u32_slab("oracle bag assignment")?;
            if assignment.len() != n {
                return Err(malformed(
                    "oracle bag assignment does not match the vertex count",
                ));
            }
            let num_bags = r.seq_len(1, "oracle bag count")?;
            if r.should_validate() && assignment.iter().any(|&id| id as usize >= num_bags) {
                return Err(malformed("oracle bag assignment targets a missing bag"));
            }
            let mut bags = Vec::with_capacity(num_bags);
            for _ in 0..num_bags {
                let sub = InducedSubgraph::read_from(r)?;
                let s = r.u32("oracle splitter vertex")?;
                let ri = r.byte_slice("oracle recoloring table")?;
                if s as usize >= n || sub.to_local(s).is_some() {
                    return Err(malformed("oracle splitter vertex is not a bag member"));
                }
                if sub.global_ids.last().is_some_and(|&v| v as usize >= n) {
                    return Err(malformed("oracle bag member out of range"));
                }
                if ri.len() != sub.n() {
                    return Err(malformed("oracle recoloring table has the wrong length"));
                }
                let inner = read_node(r, sub.n(), depth + 1)?;
                bags.push(BagNode { sub, s, ri, inner });
            }
            Node::Split(Box::new(SplitNode { assignment, bags }))
        }
        3 => {
            let count = r.seq_len(8, "oracle ball count")?;
            if count != n {
                return Err(malformed(
                    "oracle ball table does not match the vertex count",
                ));
            }
            let words_per_row = n.div_ceil(64);
            let bits = r.u64_slab("oracle ball grid")?;
            if bits.len() != count * words_per_row {
                return Err(malformed("oracle ball grid has the wrong word count"));
            }
            if r.should_validate() && !n.is_multiple_of(64) {
                let mask = !0u64 << (n % 64);
                for row in bits.chunks_exact(words_per_row) {
                    if row[words_per_row - 1] & mask != 0 {
                        return Err(malformed("oracle ball grid has bits beyond n"));
                    }
                }
            }
            Node::NaiveDense(BallGrid {
                n,
                words_per_row,
                bits,
            })
        }
        other => return Err(malformed(format!("unknown oracle node tag {other}"))),
    })
}

fn test_node(node: &Node, r: u32, a: Vertex, b: Vertex) -> bool {
    match node {
        Node::Naive(balls) => balls[a as usize].binary_search(&b).is_ok(),
        Node::NaiveDense(grid) => grid.contains(a, b),
        Node::Bfs(g) => BfsScratch::new(g.n()).distance_capped(g, a, b, r).is_some(),
        Node::Split(split) => {
            // Localize to the canonical bag of a: N_r(a) ⊆ X(a). X is s
            // plus sub's embedding, so the `to_local` lookups below are
            // the `b ∈ X` test. Lazy decodes leave bag ids unchecked.
            let Some(bag) = split.bags.get(split.assignment[a as usize] as usize) else {
                return false;
            };
            let s = bag.s;
            match (a == s, b == s) {
                (true, true) => true,
                (true, false) => match bag.sub.to_local(b) {
                    Some(lb) => bag.ri[lb as usize] as u32 <= r,
                    None => false,
                },
                (false, true) => match bag.sub.to_local(a) {
                    Some(la) => bag.ri[la as usize] as u32 <= r,
                    None => false,
                },
                (false, false) => {
                    let (Some(la), Some(lb)) = (bag.sub.to_local(a), bag.sub.to_local(b)) else {
                        return false;
                    };
                    if bag.ri[la as usize] as u32 + bag.ri[lb as usize] as u32 <= r {
                        return true; // path through s_X
                    }
                    test_node(&bag.inner, r, la, lb) // path avoiding s_X
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_graph::generators;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn check_against_bfs(
        g: &ColoredGraph,
        r: u32,
        opts: &DistOracleOpts,
        probes: usize,
        seed: u64,
    ) {
        let oracle = DistOracle::build(g, r, opts);
        let mut scratch = BfsScratch::new(g.n());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..probes {
            let a = rng.random_range(0..g.n() as Vertex);
            let b = rng.random_range(0..g.n() as Vertex);
            let want = scratch.distance_capped(g, a, b, r).is_some();
            assert_eq!(oracle.test(a, b), want, "dist({a},{b}) <= {r}");
        }
    }

    fn check_exhaustive(g: &ColoredGraph, r: u32, opts: &DistOracleOpts) {
        let oracle = DistOracle::build(g, r, opts);
        let mut scratch = BfsScratch::new(g.n());
        for a in g.vertices() {
            scratch.run(g, a, r);
            for b in g.vertices() {
                let want = scratch.dist(b) != nd_graph::bfs::UNREACHED;
                assert_eq!(oracle.test(a, b), want, "dist({a},{b}) <= {r}");
            }
        }
    }

    /// Force the recursive path even on small test graphs.
    fn recursive_opts() -> DistOracleOpts {
        DistOracleOpts {
            naive_threshold: 4,
            ..DistOracleOpts::default()
        }
    }

    #[test]
    fn exhaustive_on_small_families() {
        for (g, r) in [
            (generators::path(30), 3),
            (generators::cycle(24), 4),
            (generators::grid(6, 6), 2),
            (generators::random_tree(40, 11), 3),
            (generators::star(20), 2),
            (generators::caterpillar(8, 2), 2),
            (generators::binary_tree(31), 3),
        ] {
            check_exhaustive(&g, r, &recursive_opts());
        }
    }

    #[test]
    fn randomized_on_larger_families() {
        let opts = DistOracleOpts::default();
        check_against_bfs(&generators::grid(30, 30), 4, &opts, 400, 1);
        check_against_bfs(&generators::random_tree(1200, 5), 5, &opts, 400, 2);
        check_against_bfs(&generators::bounded_degree(1500, 4, 9), 3, &opts, 400, 3);
        check_against_bfs(&generators::random_forest(900, 0.9, 3), 4, &opts, 400, 4);
    }

    #[test]
    fn dense_contrast_still_correct() {
        // On dense graphs the oracle degrades in size but stays correct.
        check_exhaustive(&generators::clique(20), 2, &recursive_opts());
        check_exhaustive(&generators::gnm(40, 200, 7), 2, &recursive_opts());
    }

    #[test]
    fn reflexive_and_radius_zero() {
        let g = generators::path(10);
        let oracle = DistOracle::build(&g, 0, &recursive_opts());
        for v in g.vertices() {
            assert!(oracle.test(v, v));
        }
        assert!(!oracle.test(0, 1));
    }

    #[test]
    fn disconnected_components() {
        let g = generators::random_forest(60, 0.6, 2);
        check_exhaustive(&g, 3, &recursive_opts());
    }

    #[test]
    fn stats_accounting() {
        let g = generators::grid(20, 20);
        let oracle = DistOracle::build(&g, 2, &DistOracleOpts::default());
        let s = oracle.stats();
        assert!(s.total_vertices >= g.n());
        assert!(s.depth >= 1);
        assert!(s.bags > 0);
        assert_eq!(oracle.radius(), 2);
    }

    #[test]
    fn binary_codec_roundtrips_recursive_oracles() {
        for (g, r) in [
            (generators::grid(8, 8), 2u32),
            (generators::random_tree(60, 7), 3),
            (generators::path(0), 1),
        ] {
            let oracle = DistOracle::build(&g, r, &recursive_opts());
            let mut w = nd_persist::Writer::new();
            oracle.write_into(&mut w);
            let bytes = w.into_bytes();
            let mut rd = nd_persist::Reader::new(&bytes);
            let back = DistOracle::read_from(&mut rd, g.n()).unwrap();
            rd.finish().unwrap();
            assert_eq!(back.radius(), r);
            assert_eq!(back.stats().total_vertices, oracle.stats().total_vertices);
            for a in g.vertices() {
                for b in g.vertices() {
                    assert_eq!(back.test(a, b), oracle.test(a, b), "dist({a},{b})");
                }
            }
            // Deterministic re-encode: loading and saving is the identity.
            let mut w2 = nd_persist::Writer::new();
            back.write_into(&mut w2);
            assert_eq!(w2.into_bytes(), bytes);
        }
    }

    #[test]
    fn binary_codec_rejects_corruption() {
        let g = generators::grid(7, 7);
        let oracle = DistOracle::build(&g, 2, &recursive_opts());
        let mut w = nd_persist::Writer::new();
        oracle.write_into(&mut w);
        let bytes = w.into_bytes();
        // Every truncation is a typed error, never a panic.
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                DistOracle::read_from(&mut nd_persist::Reader::new(&bytes[..cut]), g.n()).is_err(),
                "cut {cut}"
            );
        }
        // A mismatched vertex count is rejected outright.
        assert!(DistOracle::read_from(&mut nd_persist::Reader::new(&bytes), g.n() + 1).is_err());
        // Hostile intact-looking bytes: either a typed error, or a decoded
        // oracle whose queries are safe to run (possibly wrong, never a
        // panic). Overwrite one byte at a stride across the payload.
        for i in (0..bytes.len()).step_by(11) {
            let mut c = bytes.clone();
            c[i] = c[i].wrapping_add(1);
            if let Ok(back) = DistOracle::read_from(&mut nd_persist::Reader::new(&c), g.n()) {
                for a in (0..g.n() as Vertex).step_by(5) {
                    for b in (0..g.n() as Vertex).step_by(5) {
                        let _ = back.test(a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn test_at_mixed_radius() {
        let g = generators::path(12);
        let oracle = DistOracle::build(&g, 4, &recursive_opts());
        assert!(oracle.test_at(&g, 0, 2, 2));
        assert!(!oracle.test_at(&g, 0, 3, 2));
        assert!(oracle.test_at(&g, 0, 4, 4));
        assert!(!oracle.test_at(&g, 0, 5, 4));
    }
}
