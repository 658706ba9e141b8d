//! Naive baselines against which the paper's machinery is compared.
//!
//! These implement the same observable behaviours — distance testing,
//! per-tuple query testing, lexicographic enumeration — with the obvious
//! algorithms and no preprocessing beyond what the algorithm inherently
//! needs. The experiment harness (EXPERIMENTS.md) measures them head-to-head
//! against the indexed structures of `nd-core`:
//!
//! * [`BfsDistanceBaseline`] vs. the distance oracle (Prop 4.2 / E4);
//! * [`NaiveTester`] vs. constant-time testing (Cor 2.4 / E6);
//! * [`NaiveEnumerator`] (nested loops with pruning, no index) and
//!   [`MaterializingEnumerator`] (full precomputation) vs. constant-delay
//!   enumeration (Cor 2.5 / E7).

use nd_graph::{BfsScratch, ColoredGraph, Vertex};
use nd_logic::ast::Query;
use nd_logic::eval::{eval, eval_in, Assignment, EvalCtx};

/// Distance testing by on-demand capped BFS — no preprocessing at all.
pub struct BfsDistanceBaseline<'g> {
    g: &'g ColoredGraph,
    scratch: BfsScratch,
}

impl<'g> BfsDistanceBaseline<'g> {
    pub fn new(g: &'g ColoredGraph) -> Self {
        BfsDistanceBaseline {
            g,
            scratch: BfsScratch::new(g.n()),
        }
    }

    /// `dist(a, b) ≤ r`? Cost `O(‖N_r(a)‖)` per call.
    pub fn test(&mut self, a: Vertex, b: Vertex, r: u32) -> bool {
        self.scratch.distance_capped(self.g, a, b, r).is_some()
    }
}

/// Per-tuple query testing by direct formula evaluation (data complexity
/// `O(n^{qr})` per call).
pub struct NaiveTester<'g> {
    g: &'g ColoredGraph,
    q: Query,
}

impl<'g> NaiveTester<'g> {
    pub fn new(g: &'g ColoredGraph, q: Query) -> Self {
        NaiveTester { g, q }
    }

    pub fn test(&self, tuple: &[Vertex]) -> bool {
        eval(self.g, &self.q, tuple)
    }
}

/// Streaming nested-loop enumeration in lexicographic order, with no
/// preprocessing: the delay between consecutive outputs is the time the
/// loops spend between satisfying tuples — the quantity that grows with `n`
/// and that constant-delay enumeration flattens.
pub struct NaiveEnumerator<'g> {
    ctx: EvalCtx<'g>,
    q: Query,
    n: Vertex,
    /// Next candidate tuple to try, or `None` when exhausted.
    cursor: Option<Vec<Vertex>>,
}

impl<'g> NaiveEnumerator<'g> {
    pub fn new(g: &'g ColoredGraph, q: Query) -> Self {
        let k = q.arity();
        let cursor = if g.n() == 0 && k > 0 {
            None
        } else {
            Some(vec![0; k])
        };
        NaiveEnumerator {
            ctx: EvalCtx::new(g),
            q,
            n: g.n() as Vertex,
            cursor,
        }
    }

    fn advance(n: Vertex, t: &mut [Vertex]) -> bool {
        for i in (0..t.len()).rev() {
            if t[i] + 1 < n {
                t[i] += 1;
                return true;
            }
            t[i] = 0;
        }
        false
    }
}

impl Iterator for NaiveEnumerator<'_> {
    type Item = Vec<Vertex>;

    fn next(&mut self) -> Option<Vec<Vertex>> {
        let cursor = self.cursor.as_mut()?;
        if cursor.is_empty() {
            // Boolean query: at most one (empty) answer.
            let mut asg: Assignment = Vec::new();
            let holds = eval_in(&mut self.ctx, &self.q.formula, &mut asg);
            self.cursor = None;
            return holds.then(Vec::new);
        }
        loop {
            let mut asg: Assignment = Vec::new();
            for (v, &a) in self.q.free.clone().iter().zip(cursor.iter()) {
                if asg.len() <= v.0 as usize {
                    asg.resize(v.0 as usize + 1, None);
                }
                asg[v.0 as usize] = Some(a);
            }
            let holds = eval_in(&mut self.ctx, &self.q.formula, &mut asg);
            let out = holds.then(|| cursor.clone());
            if !Self::advance(self.n, cursor) {
                self.cursor = None;
                return out;
            }
            if let Some(out) = out {
                return Some(out);
            }
        }
    }
}

/// Full materialization followed by zero-cost iteration: the
/// maximum-preprocessing baseline (linear-in-output index size).
pub struct MaterializingEnumerator {
    solutions: Vec<Vec<Vertex>>,
}

impl MaterializingEnumerator {
    pub fn prepare(g: &ColoredGraph, q: &Query) -> Self {
        MaterializingEnumerator {
            solutions: nd_logic::eval::materialize(g, q),
        }
    }

    /// Wrap an answer set computed elsewhere (e.g. over the relational
    /// database a Lemma 2.2 graph was reduced from). `solutions` must be
    /// sorted and duplicate-free, as [`Self::prepare`] guarantees.
    pub fn from_solutions(solutions: Vec<Vec<Vertex>>) -> Self {
        assert!(
            solutions.windows(2).all(|w| w[0] < w[1]),
            "solutions must be strictly lexicographically increasing"
        );
        MaterializingEnumerator { solutions }
    }

    pub fn len(&self) -> usize {
        self.solutions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.solutions.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Vec<Vertex>> {
        self.solutions.iter()
    }

    /// The full solution set, sorted lexicographically and duplicate-free
    /// (the order `materialize` guarantees). This is the reference answer
    /// the conformance harness diffs every engine against.
    pub fn solutions(&self) -> &[Vec<Vertex>] {
        &self.solutions
    }

    /// `ā ∈ q(G)`? — by binary search over the materialized set.
    pub fn test(&self, tuple: &[Vertex]) -> bool {
        self.solutions
            .binary_search_by(|s| s.as_slice().cmp(tuple))
            .is_ok()
    }

    /// The lexicographically smallest solution `≥ from`, or `None` — the
    /// same contract as `PreparedQuery::next_solution`, answered by
    /// partition point.
    pub fn next_solution(&self, from: &[Vertex]) -> Option<Vec<Vertex>> {
        let i = self.solutions.partition_point(|s| s.as_slice() < from);
        self.solutions.get(i).cloned()
    }

    /// Up to `limit` solutions `≥ from`, in lexicographic order — the same
    /// contract as `PreparedQuery::page`.
    pub fn page(&self, from: &[Vertex], limit: usize) -> Vec<Vec<Vertex>> {
        let i = self.solutions.partition_point(|s| s.as_slice() < from);
        self.solutions[i..].iter().take(limit).cloned().collect()
    }

    pub fn count(&self) -> usize {
        self.solutions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_graph::generators;
    use nd_logic::parse_query;

    fn blue_path(n: usize) -> ColoredGraph {
        let mut g = generators::path(n);
        let blue: Vec<Vertex> = (0..n as Vertex).filter(|v| v % 2 == 0).collect();
        g.add_color(blue, Some("Blue".into()));
        g
    }

    #[test]
    fn bfs_baseline_is_correct() {
        let g = generators::grid(6, 6);
        let mut b = BfsDistanceBaseline::new(&g);
        assert!(b.test(0, 7, 2));
        assert!(!b.test(0, 35, 4));
    }

    #[test]
    fn naive_enumerator_matches_materialization() {
        let g = blue_path(12);
        let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
        let stream: Vec<_> = NaiveEnumerator::new(&g, q.clone()).collect();
        let mat = MaterializingEnumerator::prepare(&g, &q);
        assert_eq!(stream, mat.iter().cloned().collect::<Vec<_>>());
        assert!(!mat.is_empty());
    }

    #[test]
    fn naive_enumerator_boolean() {
        let g = blue_path(4);
        let yes: Vec<_> =
            NaiveEnumerator::new(&g, parse_query("exists x. Blue(x)").unwrap()).collect();
        assert_eq!(yes, vec![Vec::<Vertex>::new()]);
        let no: Vec<_> =
            NaiveEnumerator::new(&g, parse_query("exists x. (Blue(x) && !Blue(x))").unwrap())
                .collect();
        assert!(no.is_empty());
    }

    #[test]
    fn tester_is_eval() {
        let g = blue_path(8);
        let t = NaiveTester::new(&g, parse_query("Blue(x) && E(x,y)").unwrap());
        assert!(t.test(&[0, 1]));
        assert!(!t.test(&[1, 2]));
    }

    #[test]
    fn materialized_oracle_accessors() {
        let g = blue_path(10);
        let q = parse_query("Blue(x) && dist(x,y) <= 2").unwrap();
        let mat = MaterializingEnumerator::prepare(&g, &q);
        assert_eq!(mat.count(), mat.solutions().len());
        for s in mat.solutions() {
            assert!(mat.test(s));
            assert_eq!(mat.next_solution(s).as_deref(), Some(s.as_slice()));
        }
        assert!(!mat.test(&[1, 1]));
        // next_solution from the very bottom is the first solution; from
        // beyond the last it is None.
        assert_eq!(
            mat.next_solution(&[0, 0]).as_deref(),
            mat.solutions().first().map(|s| s.as_slice())
        );
        assert_eq!(mat.next_solution(&[9, 10]), None);
        // Paging reassembles the full stream.
        let mut pages = Vec::new();
        let mut from = vec![0, 0];
        loop {
            let page = mat.page(&from, 3);
            let done = page.len() < 3;
            pages.extend(page);
            if done {
                break;
            }
            let mut next = pages.last().unwrap().clone();
            *next.last_mut().unwrap() += 1; // lex increment within range
            from = next;
        }
        assert_eq!(pages, mat.solutions());
    }

    #[test]
    fn empty_graph() {
        let g = generators::path(0);
        let q = parse_query("E(x,y)").unwrap();
        assert_eq!(NaiveEnumerator::new(&g, q).count(), 0);
    }
}
