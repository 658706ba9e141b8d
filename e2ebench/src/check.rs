//! The correctness gate: answers the benchmark can recompute without the
//! engine. Runs outside every timed section; each mismatch is counted as a
//! failed operation and makes the command exit non-zero.

use nd_core::SharedPreparedQuery;
use nd_graph::{ColoredGraph, Vertex};

/// What a probe should answer, computed independently of the index.
pub enum Expected {
    /// `Blue(x_b)` and `dist(x_i, x_b) > 2` for every other position `i`:
    /// the graph workloads' queries, with `b = target`. Distances come from
    /// a BFS here, colors from the generator's own membership table.
    FarFromBlue { blue: Vec<bool>, target: usize },
    /// The sorted answer set materialized from the relational database
    /// (`materialize_db`), for the Lemma 2.2 workload.
    Listed(Vec<Vec<Vertex>>),
}

/// Vertices within distance 2 of `v` (sorted).
fn ball2(g: &ColoredGraph, v: Vertex) -> Vec<Vertex> {
    let mut out = vec![v];
    for &u in g.neighbors(v) {
        out.push(u);
        out.extend_from_slice(g.neighbors(u));
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn far(g: &ColoredGraph, a: Vertex, b: Vertex) -> bool {
    ball2(g, a).binary_search(&b).is_err()
}

impl Expected {
    /// Do the constraints among positions `0..=pos` hold for `t`?
    fn partial(&self, g: &ColoredGraph, t: &[Vertex], pos: usize) -> bool {
        let Expected::FarFromBlue { blue, target } = self else {
            unreachable!("partial checks are for graph queries")
        };
        let b = *target;
        match pos.cmp(&b) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => {
                blue[t[b] as usize] && t[..b].iter().all(|&x| far(g, x, t[b]))
            }
            std::cmp::Ordering::Greater => far(g, t[pos], t[b]),
        }
    }

    pub fn test(&self, g: &ColoredGraph, t: &[Vertex]) -> bool {
        match self {
            Expected::FarFromBlue { .. } => (0..t.len()).all(|p| self.partial(g, t, p)),
            Expected::Listed(ans) => ans.binary_search_by(|a| a.as_slice().cmp(t)).is_ok(),
        }
    }

    /// The lexicographically smallest answer `≥ from`.
    pub fn next(&self, g: &ColoredGraph, from: &[Vertex]) -> Option<Vec<Vertex>> {
        match self {
            Expected::FarFromBlue { .. } => {
                let mut t = from.to_vec();
                self.scan(g, from, &mut t, 0, true).then_some(t)
            }
            Expected::Listed(ans) => {
                let i = ans.partition_point(|a| a.as_slice() < from);
                ans.get(i).cloned()
            }
        }
    }

    /// Depth-first lex-order scan: position `pos` starts at `from[pos]`
    /// while every earlier position still equals `from`, at 0 otherwise.
    fn scan(
        &self,
        g: &ColoredGraph,
        from: &[Vertex],
        t: &mut [Vertex],
        pos: usize,
        tight: bool,
    ) -> bool {
        if pos == t.len() {
            return true;
        }
        let start = if tight { from[pos] } else { 0 };
        for v in start..g.n() as Vertex {
            t[pos] = v;
            if self.partial(g, t, pos) && self.scan(g, from, t, pos + 1, tight && v == from[pos]) {
                return true;
            }
        }
        false
    }
}

/// Compare sampled `test`/`next_solution` answers against [`Expected`].
/// Returns (checked, mismatches).
pub fn probes(
    pq: &SharedPreparedQuery,
    want: &Expected,
    g: &ColoredGraph,
    tuples: &[Vec<Vertex>],
) -> (u64, u64) {
    let mut bad = 0;
    for t in tuples {
        if pq.test(t) != want.test(g, t) {
            bad += 1;
        }
        if pq.next_solution(t) != want.next(g, t) {
            bad += 1;
        }
    }
    (2 * tuples.len() as u64, bad)
}

/// Order-sensitive digest of `test` and `next_solution` over `tuples`.
pub fn checksum(pq: &SharedPreparedQuery, tuples: &[Vec<Vertex>]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        acc ^= v;
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for t in tuples {
        eat(u64::from(pq.test(t)));
        match pq.next_solution(t) {
            Some(s) => s.iter().for_each(|&v| eat(u64::from(v) + 2)),
            None => eat(1),
        }
    }
    acc
}

/// Is every consecutive pair strictly lex-increasing?
pub fn strictly_increasing(answers: &[Vec<Vertex>]) -> bool {
    answers.windows(2).all(|w| w[0] < w[1])
}
