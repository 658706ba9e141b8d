//! Reference FO⁺ evaluation — the semantics of record.
//!
//! Evaluation is direct structural recursion: quantifiers loop over the full
//! domain, so checking a sentence of quantifier rank `q` costs `O(n^q)` per
//! tuple and materializing a `k`-ary query costs `O(n^{k+q})` atom
//! evaluations. These functions define what every other evaluator must
//! answer: the indexed structures in `nd-core`, the guarded production
//! evaluator in [`crate::guarded`], `nd-baseline` and the `nd-conform`
//! oracle are all tested against them. Production code paths use
//! [`crate::guarded`].

use crate::ast::{ColorRef, Formula, Query, VarId};
use nd_graph::bfs::BfsScratch;
use nd_graph::relational::RelationalDb;
use nd_graph::{ColorId, ColoredGraph, Vertex};
use std::collections::HashMap;

/// Evaluation context over a colored graph: resolves color names once and
/// caches capped distance computations.
pub struct EvalCtx<'g> {
    pub g: &'g ColoredGraph,
    scratch: BfsScratch,
    dist_cache: HashMap<(Vertex, Vertex, u32), bool>,
}

impl<'g> EvalCtx<'g> {
    pub fn new(g: &'g ColoredGraph) -> Self {
        EvalCtx {
            g,
            scratch: BfsScratch::new(g.n()),
            dist_cache: HashMap::new(),
        }
    }

    fn color(&self, c: &ColorRef) -> ColorId {
        match c {
            ColorRef::Id(i) => ColorId(*i),
            ColorRef::Named(name) => self
                .g
                .color_by_name(name)
                .unwrap_or_else(|| panic!("unknown color {name:?}")),
        }
    }

    /// `dist(a, b) ≤ d`, cached.
    pub fn dist_le(&mut self, a: Vertex, b: Vertex, d: u32) -> bool {
        let key = (a.min(b), a.max(b), d);
        if let Some(&v) = self.dist_cache.get(&key) {
            return v;
        }
        let v = self.scratch.distance_capped(self.g, a, b, d).is_some();
        self.dist_cache.insert(key, v);
        v
    }
}

/// Variable assignment, indexed by `VarId`.
pub type Assignment = Vec<Option<Vertex>>;

fn get(asg: &Assignment, v: VarId) -> Vertex {
    asg.get(v.0 as usize)
        .copied()
        .flatten()
        .unwrap_or_else(|| panic!("unassigned variable {v}"))
}

fn set(asg: &mut Assignment, v: VarId, val: Option<Vertex>) {
    if asg.len() <= v.0 as usize {
        asg.resize(v.0 as usize + 1, None);
    }
    asg[v.0 as usize] = val;
}

/// Evaluate a formula under an assignment of its free variables.
pub fn eval_in(ctx: &mut EvalCtx<'_>, f: &Formula, asg: &mut Assignment) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Edge(x, y) => ctx.g.has_edge(get(asg, *x), get(asg, *y)),
        Formula::Color(c, x) => {
            let cid = ctx.color(c);
            ctx.g.has_color(get(asg, *x), cid)
        }
        Formula::Eq(x, y) => get(asg, *x) == get(asg, *y),
        Formula::DistLe(x, y, d) => {
            let (a, b) = (get(asg, *x), get(asg, *y));
            ctx.dist_le(a, b, *d)
        }
        Formula::Rel(name, _) => {
            panic!("relational atom {name} cannot be evaluated over a colored graph; rewrite with Lemma 2.2 first")
        }
        Formula::Not(g) => !eval_in(ctx, g, asg),
        Formula::And(gs) => gs.iter().all(|g| eval_in(ctx, g, asg)),
        Formula::Or(gs) => gs.iter().any(|g| eval_in(ctx, g, asg)),
        Formula::Exists(v, g) => {
            let old = asg.get(v.0 as usize).copied().flatten();
            let mut found = false;
            for a in 0..ctx.g.n() as Vertex {
                set(asg, *v, Some(a));
                if eval_in(ctx, g, asg) {
                    found = true;
                    break;
                }
            }
            set(asg, *v, old);
            found
        }
        Formula::Forall(v, g) => {
            let old = asg.get(v.0 as usize).copied().flatten();
            let mut holds = true;
            for a in 0..ctx.g.n() as Vertex {
                set(asg, *v, Some(a));
                if !eval_in(ctx, g, asg) {
                    holds = false;
                    break;
                }
            }
            set(asg, *v, old);
            holds
        }
    }
}

/// Evaluate `q(tuple)` over `g`: does `g ⊨ q(ā)`?
pub fn eval(g: &ColoredGraph, q: &Query, tuple: &[Vertex]) -> bool {
    assert_eq!(tuple.len(), q.arity(), "tuple arity mismatch");
    let mut ctx = EvalCtx::new(g);
    let mut asg: Assignment = Vec::new();
    for (v, &a) in q.free.iter().zip(tuple) {
        set(&mut asg, *v, Some(a));
    }
    eval_in(&mut ctx, &q.formula, &mut asg)
}

/// Materialize `q(G)` in lexicographic order — the naive nested-loop
/// evaluation. Ground truth for all enumeration tests.
pub fn materialize(g: &ColoredGraph, q: &Query) -> Vec<Vec<Vertex>> {
    let mut ctx = EvalCtx::new(g);
    let mut asg: Assignment = Vec::new();
    let mut out = Vec::new();
    let mut tuple = vec![0 as Vertex; q.arity()];
    rec_materialize(&mut ctx, q, 0, &mut tuple, &mut asg, &mut out);
    out
}

fn rec_materialize(
    ctx: &mut EvalCtx<'_>,
    q: &Query,
    pos: usize,
    tuple: &mut Vec<Vertex>,
    asg: &mut Assignment,
    out: &mut Vec<Vec<Vertex>>,
) {
    if pos == q.arity() {
        if eval_in(ctx, &q.formula, asg) {
            out.push(tuple.clone());
        }
        return;
    }
    for a in 0..ctx.g.n() as Vertex {
        tuple[pos] = a;
        set(asg, q.free[pos], Some(a));
        rec_materialize(ctx, q, pos + 1, tuple, asg, out);
    }
    set(asg, q.free[pos], None);
}

/// Evaluate a formula over a relational database (atoms: `Rel`, `Eq`,
/// boolean connectives, quantifiers ranging over the element domain).
pub fn eval_db_in(db: &RelationalDb, f: &Formula, asg: &mut Assignment) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Eq(x, y) => get(asg, *x) == get(asg, *y),
        Formula::Rel(name, xs) => {
            let tuple: Vec<u32> = xs.iter().map(|&x| get(asg, x)).collect();
            db.holds(name, &tuple)
        }
        // `S(x)` parses as a color atom; over a database it denotes the
        // unary relation `S`.
        Formula::Color(ColorRef::Named(name), x) => db.holds(name, &[get(asg, *x)]),
        Formula::Edge(..) | Formula::Color(..) | Formula::DistLe(..) => {
            panic!("graph atom cannot be evaluated over a relational database")
        }
        Formula::Not(g) => !eval_db_in(db, g, asg),
        Formula::And(gs) => gs.iter().all(|g| eval_db_in(db, g, asg)),
        Formula::Or(gs) => gs.iter().any(|g| eval_db_in(db, g, asg)),
        Formula::Exists(v, g) => {
            let old = asg.get(v.0 as usize).copied().flatten();
            let mut found = false;
            for a in 0..db.domain_size as Vertex {
                set(asg, *v, Some(a));
                if eval_db_in(db, g, asg) {
                    found = true;
                    break;
                }
            }
            set(asg, *v, old);
            found
        }
        Formula::Forall(v, g) => {
            let old = asg.get(v.0 as usize).copied().flatten();
            let mut holds = true;
            for a in 0..db.domain_size as Vertex {
                set(asg, *v, Some(a));
                if !eval_db_in(db, g, asg) {
                    holds = false;
                    break;
                }
            }
            set(asg, *v, old);
            holds
        }
    }
}

/// Materialize `q(D)` over a relational database in lexicographic order.
pub fn materialize_db(db: &RelationalDb, q: &Query) -> Vec<Vec<Vertex>> {
    let mut out = Vec::new();
    let mut asg: Assignment = Vec::new();
    let mut tuple = vec![0 as Vertex; q.arity()];
    fn rec(
        db: &RelationalDb,
        q: &Query,
        pos: usize,
        tuple: &mut Vec<Vertex>,
        asg: &mut Assignment,
        out: &mut Vec<Vec<Vertex>>,
    ) {
        if pos == q.arity() {
            if eval_db_in(db, &q.formula, asg) {
                out.push(tuple.clone());
            }
            return;
        }
        for a in 0..db.domain_size as Vertex {
            tuple[pos] = a;
            set(asg, q.free[pos], Some(a));
            rec(db, q, pos + 1, tuple, asg, out);
        }
        set(asg, q.free[pos], None);
    }
    rec(db, q, 0, &mut tuple, &mut asg, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use nd_graph::generators;

    fn colored_path() -> ColoredGraph {
        // 0-1-2-3-4, Blue = {1, 4}.
        let mut g = generators::path(5);
        g.add_color(vec![1, 4], Some("Blue".into()));
        g
    }

    #[test]
    fn atoms() {
        let g = colored_path();
        assert!(eval(&g, &parse_query("E(x,y)").unwrap(), &[0, 1]));
        assert!(!eval(&g, &parse_query("E(x,y)").unwrap(), &[0, 2]));
        assert!(eval(&g, &parse_query("Blue(x)").unwrap(), &[1]));
        assert!(!eval(&g, &parse_query("Blue(x)").unwrap(), &[2]));
        assert!(eval(&g, &parse_query("x = y").unwrap(), &[3, 3]));
        assert!(eval(&g, &parse_query("dist(x,y) <= 2").unwrap(), &[0, 2]));
        assert!(!eval(&g, &parse_query("dist(x,y) <= 2").unwrap(), &[0, 3]));
    }

    #[test]
    fn example_1a_distance_two() {
        // Example 1-A: dist≤2 expressed by quantification agrees with the
        // distance atom.
        let g = colored_path();
        let expanded = parse_query("(exists z. (E(x,z) && E(z,y))) || E(x,y) || x = y").unwrap();
        let atom = parse_query("dist(x,y) <= 2").unwrap();
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(
                    eval(&g, &expanded, &[a, b]),
                    eval(&g, &atom, &[a, b]),
                    "({a},{b})"
                );
            }
        }
    }

    #[test]
    fn example_2_materialization() {
        // Blue nodes at distance > 2 from x.
        let g = colored_path();
        let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
        let sols = materialize(&g, &q);
        assert_eq!(sols, vec![vec![0, 4], vec![1, 4], vec![4, 1]]);
    }

    #[test]
    fn quantifiers() {
        let g = colored_path();
        // Every vertex has a neighbor.
        assert!(eval(
            &g,
            &parse_query("forall x. exists y. E(x,y)").unwrap(),
            &[]
        ));
        // Some vertex is blue and has a blue vertex at distance 3.
        assert!(eval(
            &g,
            &parse_query("exists x. (Blue(x) && exists y. (Blue(y) && dist(x,y) <= 3))").unwrap(),
            &[]
        ));
        // Not every vertex is blue.
        assert!(!eval(&g, &parse_query("forall x. Blue(x)").unwrap(), &[]));
    }

    #[test]
    fn materialize_is_lexicographic() {
        let g = generators::cycle(5);
        let q = parse_query("E(x,y)").unwrap();
        let sols = materialize(&g, &q);
        assert_eq!(sols.len(), 10);
        for w in sols.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn db_evaluation() {
        let mut db = RelationalDb::new(4);
        db.add_relation("R", 2, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        let q = parse_query("exists z. (R(x, z) && R(z, y))").unwrap();
        let sols = materialize_db(&db, &q);
        assert_eq!(sols, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    #[should_panic(expected = "rewrite with Lemma 2.2")]
    fn rel_atom_on_graph_panics() {
        let g = colored_path();
        eval(&g, &parse_query("R(x, y)").unwrap(), &[0, 1]);
    }
}
