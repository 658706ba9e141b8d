//! Seeded input generation. Every graph, color set, probe tuple, mutation
//! log and database of a run is a pure function of the `--seed` argument
//! and is built here before any timed section starts; the program under
//! test only ever sees the results.

use nd_graph::relational::{adjacency_graph, AdjacencyMapping, RelationalDb};
use nd_graph::{generators, ColoredGraph, Vertex};
use nd_update::{Mutation, MutationLog};

/// splitmix64 finalizer: a deterministic hash used for all seeded choices.
pub fn mix(v: u64, seed: u64) -> u64 {
    let mut z = v.wrapping_add(seed).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A counter-mode stream over [`mix`].
pub struct Rng {
    seed: u64,
    ctr: u64,
}

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng {
            seed: mix(stream, seed),
            ctr: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.ctr += 1;
        mix(self.ctr, self.seed)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The graph family a workload runs on.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// `w × h` grid plus `chords` random chords of grid length ≤ 2.
    PerturbedGrid { w: usize, h: usize, chords: usize },
    /// Random graph of maximum degree `d`.
    BoundedDegree { n: usize, d: usize },
    /// Lemma 2.2 adjacency graph of a generated database over `domain`
    /// elements.
    Lemma22 { domain: usize },
}

/// The generated input of one run.
pub struct Input {
    pub graph: ColoredGraph,
    /// `Blue` membership as generated, kept apart from the graph so the
    /// brute-force checks do not read the program's color tables.
    pub blue: Vec<bool>,
    /// Set for `Lemma22`: the database and its reduction (built once here
    /// so the checks can materialize the database answers).
    pub db: Option<(RelationalDb, AdjacencyMapping)>,
}

/// Build the input graph of `family` for `seed`.
pub fn input(family: Family, seed: u64) -> Input {
    match family {
        Family::PerturbedGrid { w, h, chords } => {
            with_blue(generators::perturbed_grid(w, h, chords, seed), seed)
        }
        Family::BoundedDegree { n, d } => with_blue(generators::bounded_degree(n, d, seed), seed),
        Family::Lemma22 { domain } => {
            let db = database(domain, seed);
            let (graph, mapping) = adjacency_graph(&db);
            let n = graph.n();
            Input {
                graph,
                blue: vec![false; n],
                db: Some((db, mapping)),
            }
        }
    }
}

fn with_blue(mut g: ColoredGraph, seed: u64) -> Input {
    let blue: Vec<bool> = (0..g.n() as u64)
        .map(|v| mix(v, seed ^ 0xb1e).is_multiple_of(3))
        .collect();
    let members = (0..g.n() as Vertex).filter(|&v| blue[v as usize]).collect();
    g.add_color(members, Some("Blue".into()));
    Input {
        graph: g,
        blue,
        db: None,
    }
}

/// The R/S database shape of the repository's Lemma 2.2 integration test,
/// with seeded choices that keep its size fixed: every element `p ≥ 1`
/// has one `R`-edge to an element near `p / 3` (so in-degrees stay about
/// 3), every fourth element a second one to `p - 1`, and every fifth
/// element is in the unary relation `S`; the seed picks the targets and
/// which residues the fourth and fifth elements have.
pub fn database(domain: usize, seed: u64) -> RelationalDb {
    let mut rng = Rng::new(seed, 0xdb);
    let (r4, r5) = (rng.below(4) as usize, rng.below(5) as usize);
    let mut db = RelationalDb::new(domain);
    let mut r = Vec::new();
    for p in 1..domain {
        let q = ((p + rng.below(3) as usize) / 3).min(p - 1);
        r.push(vec![p as u32, q as u32]);
        if p % 4 == r4 && q != p - 1 {
            r.push(vec![p as u32, (p - 1) as u32]);
        }
    }
    db.add_relation("R", 2, r);
    let s = (0..domain)
        .filter(|p| p % 5 == r5)
        .map(|p| vec![p as u32])
        .collect();
    db.add_relation("S", 1, s);
    db
}

/// `count` seeded tuples of `arity` vertices below `n`.
pub fn tuples(n: usize, arity: usize, count: usize, seed: u64, stream: u64) -> Vec<Vec<Vertex>> {
    let mut rng = Rng::new(seed, stream);
    (0..count)
        .map(|_| (0..arity).map(|_| rng.below(n as u64) as Vertex).collect())
        .collect()
}

/// Which mutations a repair chain carries.
#[derive(Clone, Copy, Debug)]
pub enum Edits {
    /// add-edge, remove-edge, color, uncolor; added edges are local: at
    /// grid distance ≤ 2 on a grid, else two hops.
    Local,
    /// add-edge, remove-edge, color, uncolor; added edges join two
    /// uniformly random vertices.
    Random,
    /// color and uncolor only.
    Colors,
}

/// A seeded chain of mutation logs, generated against a shadow copy of the
/// adjacency and `Blue` sets so that every op is effective on the epoch it
/// is applied to. Ops cycle through the kinds `edits` allows
/// (`remove-edge` drops an existing edge, `color`/`uncolor` flip `Blue`);
/// batch `i` has `sizes[i % sizes.len()]` ops.
pub fn mutation_chain(
    g: &ColoredGraph,
    blue: &[bool],
    edits: Edits,
    grid_w: Option<usize>,
    sizes: &[usize],
    batches: usize,
    seed: u64,
) -> Vec<MutationLog> {
    let n = g.n() as u64;
    let mut rng = Rng::new(seed, 0x10c);
    let mut adj: Vec<Vec<Vertex>> = (0..g.n() as Vertex)
        .map(|v| g.neighbors(v).to_vec())
        .collect();
    let mut edge_list: Vec<(Vertex, Vertex)> =
        g.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
    let mut blue = blue.to_vec();
    let mut op = 0usize;
    let mut logs = Vec::with_capacity(batches);
    for b in 0..batches {
        let mut log = MutationLog::new();
        for _ in 0..sizes[b % sizes.len()] {
            let kind = match edits {
                Edits::Colors => 2 + op % 2,
                _ => op % 4,
            };
            let m = match kind {
                0 => loop {
                    let u = rng.below(n) as Vertex;
                    let v = match (edits, grid_w) {
                        (Edits::Random, _) => rng.below(n) as Vertex,
                        (_, Some(w)) => {
                            let (x, y) = (i64::from(u) % w as i64, i64::from(u) / w as i64);
                            let (dx, dy) = [(1, 0), (2, 0), (0, 1), (1, 1), (-1, 1), (0, 2)]
                                [rng.below(6) as usize];
                            let (x2, y2) = (x + dx, y + dy);
                            let v = y2 * w as i64 + x2;
                            if x2 < 0 || x2 >= w as i64 || v >= n as i64 {
                                continue;
                            }
                            v as Vertex
                        }
                        _ => {
                            let Some(&mid) = pick(&adj[u as usize], &mut rng) else {
                                continue;
                            };
                            let Some(&v) = pick(&adj[mid as usize], &mut rng) else {
                                continue;
                            };
                            v
                        }
                    };
                    if u != v && !adj[u as usize].contains(&v) {
                        adj[u as usize].push(v);
                        adj[v as usize].push(u);
                        edge_list.push((u.min(v), u.max(v)));
                        break Mutation::AddEdge(u, v);
                    }
                },
                1 => {
                    let i = rng.below(edge_list.len() as u64) as usize;
                    let (u, v) = edge_list.swap_remove(i);
                    adj[u as usize].retain(|&x| x != v);
                    adj[v as usize].retain(|&x| x != u);
                    Mutation::RemoveEdge(u, v)
                }
                2 => loop {
                    let v = rng.below(n) as usize;
                    if !blue[v] {
                        blue[v] = true;
                        break Mutation::Color(v as Vertex, "Blue".into());
                    }
                },
                _ => loop {
                    let v = rng.below(n) as usize;
                    if blue[v] {
                        blue[v] = false;
                        break Mutation::Uncolor(v as Vertex, "Blue".into());
                    }
                },
            };
            log.push(m);
            op += 1;
        }
        logs.push(log);
    }
    logs
}

fn pick<'a>(xs: &'a [Vertex], rng: &mut Rng) -> Option<&'a Vertex> {
    if xs.is_empty() {
        None
    } else {
        xs.get(rng.below(xs.len() as u64) as usize)
    }
}

/// Single-op logs for the Lemma 2.2 graph: delete one incidence edge (a
/// tuple loses a component), then restore it in the next batch, so the
/// database keeps its shape across the chain.
pub fn lemma22_chain(g: &ColoredGraph, batches: usize, seed: u64) -> Vec<MutationLog> {
    let mut rng = Rng::new(seed, 0x22);
    let edges: Vec<(Vertex, Vertex)> = g.edges().collect();
    let mut logs = Vec::with_capacity(batches);
    while logs.len() < batches {
        let (u, v) = edges[rng.below(edges.len() as u64) as usize];
        let mut del = MutationLog::new();
        del.push(Mutation::RemoveEdge(u, v));
        logs.push(del);
        let mut add = MutationLog::new();
        add.push(Mutation::AddEdge(u, v));
        logs.push(add);
    }
    logs.truncate(batches);
    logs
}
