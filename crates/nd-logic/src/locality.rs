//! Syntactic guardedness analysis and local evaluation of unary formulas.
//!
//! This is the concrete substitute for the Unary Theorem (Theorem 5.3,
//! Grohe–Kreutzer–Siebertz model checking) used by our pipeline — see
//! DESIGN.md §2. A unary formula `U(x)` is **guarded** when, in negation
//! normal form, every `∃y` quantifier carries a positive guard atom
//! (`E(z,y)`, `dist(z,y) ≤ d` or `y = z` with `z` already in scope) and
//! every `∀y` quantifier carries the dual negative guard in its disjunction.
//! Guarded formulas are `ρ`-local for a radius `ρ` computable from the
//! guards, so `G ⊨ U(a)` iff `N_ρ(a) ⊨ U(a)` — which lets us evaluate `U`
//! for every vertex by a BFS ball per vertex. On sparse graph families the
//! total cost `Σ_v ‖N_ρ(v)‖` is pseudo-linear, the shape Theorem 5.3
//! promises.
//!
//! Unguarded formulas fall back to global evaluation with the guarded
//! evaluator ([`crate::guarded`]): quantifiers with an edge, color or
//! equality guard still iterate only their candidates, the rest loop over
//! the whole graph.

use crate::ast::{Formula, VarId};
use crate::guarded::{Compiled, Evaluator};
use nd_graph::{BfsScratch, ColoredGraph, InducedSubgraph, Vertex};
use std::collections::HashMap;
use std::convert::Infallible;

/// Result of the guardedness analysis: the locality radius, or `None` when
/// the formula is not syntactically guarded.
pub fn unary_locality(f: &Formula, root: VarId) -> Option<u32> {
    let free = f.free_vars();
    if free != vec![root] && !free.is_empty() {
        return None;
    }
    let nnf = f.nnf();
    let mut env: HashMap<VarId, u32> = HashMap::new();
    env.insert(root, 0);
    let mut reach = 0u32;
    if walk(&nnf, &mut env, &mut reach) {
        Some(reach)
    } else {
        None
    }
}

/// Distance bound contributed by a guard atom, if `other` is guarded
/// through `z ∈ env`.
fn guard_bound(env: &HashMap<VarId, u32>, atom: &Formula, y: VarId) -> Option<u32> {
    let link = |a: VarId, b: VarId, d: u32| -> Option<u32> {
        if a == y && b != y {
            env.get(&b).map(|&bz| bz.saturating_add(d))
        } else if b == y && a != y {
            env.get(&a).map(|&az| az.saturating_add(d))
        } else {
            None
        }
    };
    match atom {
        Formula::Edge(a, b) => link(*a, *b, 1),
        Formula::DistLe(a, b, d) => link(*a, *b, *d),
        Formula::Eq(a, b) => link(*a, *b, 0),
        _ => None,
    }
}

/// Same, but for the *negated* guards of a `∀` disjunction in NNF.
fn neg_guard_bound(env: &HashMap<VarId, u32>, part: &Formula, y: VarId) -> Option<u32> {
    match part {
        Formula::Not(inner) => guard_bound(env, inner, y),
        _ => None,
    }
}

fn conj_parts(f: &Formula) -> Vec<&Formula> {
    match f {
        Formula::And(fs) => fs.iter().collect(),
        other => vec![other],
    }
}

fn disj_parts(f: &Formula) -> Vec<&Formula> {
    match f {
        Formula::Or(fs) => fs.iter().collect(),
        other => vec![other],
    }
}

fn atom_reach(env: &HashMap<VarId, u32>, x: VarId, y: VarId, d: u32, reach: &mut u32) -> bool {
    let (Some(&bx), Some(&by)) = (env.get(&x), env.get(&y)) else {
        return false;
    };
    // Both endpoints must lie in the ball, and any witnessing path of
    // length ≤ d (starting from the closer endpoint) must too.
    *reach = (*reach).max(bx).max(by).max(bx.min(by).saturating_add(d));
    true
}

fn walk(f: &Formula, env: &mut HashMap<VarId, u32>, reach: &mut u32) -> bool {
    match f {
        Formula::True | Formula::False => true,
        Formula::Edge(x, y) => atom_reach(env, *x, *y, 1, reach),
        Formula::DistLe(x, y, d) => atom_reach(env, *x, *y, *d, reach),
        Formula::Eq(x, y) => atom_reach(env, *x, *y, 0, reach),
        Formula::Color(_, x) => {
            if let Some(&bx) = env.get(x) {
                *reach = (*reach).max(bx);
                true
            } else {
                false
            }
        }
        Formula::Rel(..) => false,
        Formula::Not(inner) => walk(inner, env, reach), // NNF: `inner` is an atom
        Formula::And(fs) | Formula::Or(fs) => fs.iter().all(|g| walk(g, env, reach)),
        Formula::Exists(y, body) => {
            let parts = conj_parts(body);
            let bound = parts.iter().filter_map(|p| guard_bound(env, p, *y)).min();
            let Some(bound) = bound else { return false };
            let old = env.insert(*y, bound);
            let ok = parts.iter().all(|p| walk(p, env, reach));
            match old {
                Some(b) => {
                    env.insert(*y, b);
                }
                None => {
                    env.remove(y);
                }
            }
            ok
        }
        Formula::Forall(y, body) => {
            let parts = disj_parts(body);
            let bound = parts
                .iter()
                .filter_map(|p| neg_guard_bound(env, p, *y))
                .min();
            let Some(bound) = bound else { return false };
            let old = env.insert(*y, bound);
            let ok = parts.iter().all(|p| walk(p, env, reach));
            match old {
                Some(b) => {
                    env.insert(*y, b);
                }
                None => {
                    env.remove(y);
                }
            }
            ok
        }
    }
}

/// Evaluate a unary formula for **every** vertex of `g`.
///
/// If the formula is guarded with radius `ρ`, evaluates per vertex inside
/// `N_ρ(v)` (pseudo-linear on sparse families); otherwise evaluates
/// globally. Returns the sorted list of satisfying vertices.
pub fn evaluate_unary(g: &ColoredGraph, f: &Formula, root: VarId) -> Vec<Vertex> {
    if is_colorwise(f, root) {
        // Quantifier-free boolean combination of colors of the root: no
        // neighborhood needed, so no ball subgraphs either.
        return evaluate_unary_global(g, f, root);
    }
    match unary_locality(f, root) {
        Some(radius) => evaluate_unary_local(g, f, root, radius),
        None => evaluate_unary_global(g, f, root),
    }
}

/// Is `f` a boolean combination of color atoms (and trivial equalities) of
/// the single variable `root`?
fn is_colorwise(f: &Formula, root: VarId) -> bool {
    match f {
        Formula::True | Formula::False => true,
        Formula::Color(_, x) => *x == root,
        Formula::Eq(x, y) => *x == root && *y == root,
        Formula::Not(g) => is_colorwise(g, root),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().all(|g| is_colorwise(g, root)),
        _ => false,
    }
}

/// Per-vertex ball evaluation at the given radius (caller asserts locality).
/// The formula is compiled once: the ball subgraphs keep `g`'s color table.
pub fn evaluate_unary_local(
    g: &ColoredGraph,
    f: &Formula,
    root: VarId,
    radius: u32,
) -> Vec<Vertex> {
    let compiled = Compiled::new(g, f, &[root]);
    let mut out = Vec::new();
    let mut scratch = BfsScratch::new(g.n());
    for v in g.vertices() {
        let ball = scratch.ball_sorted(g, v, radius);
        let sub = InducedSubgraph::new_small(g, &ball);
        let local_v = sub.to_local(v).expect("center is in its own ball");
        if Evaluator::new(&sub.graph, &compiled).holds(&[local_v]) {
            out.push(v);
        }
    }
    out
}

/// Global evaluation of a unary formula for every vertex: the root ranges
/// over the candidates of its top-level guards (e.g. the members of a
/// conjunct color), or over all vertices when it has none.
pub fn evaluate_unary_global(g: &ColoredGraph, f: &Formula, root: VarId) -> Vec<Vertex> {
    let compiled = Compiled::new(g, f, &[root]);
    let mut out = Vec::new();
    let Ok(()) = Evaluator::new(g, &compiled).try_for_each(|tuple, holds| {
        if holds {
            out.push(tuple[0]);
        }
        Ok::<(), Infallible>(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use nd_graph::generators;

    fn unary(src: &str) -> (Formula, VarId) {
        let q = parse_query(src).unwrap();
        assert_eq!(q.arity(), 1, "test formula must be unary");
        (q.formula, q.free[0])
    }

    #[test]
    fn guarded_examples() {
        let (f, x) = unary("exists y. (E(x,y) && Blue(y))");
        assert_eq!(unary_locality(&f, x), Some(1));

        let (f, x) = unary("exists y. (dist(x,y) <= 3 && Blue(y))");
        assert_eq!(unary_locality(&f, x), Some(3));

        // Nested: a blue vertex within 2, which itself has a red neighbor.
        let (f, x) = unary("exists y. (dist(x,y) <= 2 && Blue(y) && exists z. (E(y,z) && Red(z)))");
        assert_eq!(unary_locality(&f, x), Some(3));

        // Forall guarded by a negated link (NNF of "all neighbors are red").
        let (f, x) = unary("forall y. (!E(x,y) || Red(y))");
        assert_eq!(unary_locality(&f, x), Some(1));
    }

    #[test]
    fn unguarded_examples() {
        // Global property — no guard on y.
        let (f, x) = unary("exists y. (Blue(y) && E(x,x))");
        assert_eq!(unary_locality(&f, x), None);
        let (f, x) = unary("forall y. (Blue(y) || E(x,x))");
        assert_eq!(unary_locality(&f, x), None);
        // dist > r is not a positive guard for ∃.
        let (f, x) = unary("exists y. (dist(x,y) > 2 && Blue(y))");
        assert_eq!(unary_locality(&f, x), None);
    }

    #[test]
    fn local_evaluation_matches_global() {
        let mut g = generators::grid(12, 12);
        let blue: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 3 == 0).collect();
        let red: Vec<Vertex> = (0..g.n() as Vertex).filter(|v| v % 5 == 1).collect();
        g.add_color(blue, Some("Blue".into()));
        g.add_color(red, Some("Red".into()));

        for src in [
            "exists y. (E(x,y) && Blue(y))",
            "exists y. (dist(x,y) <= 2 && Red(y))",
            "forall y. (!dist(x,y) <= 2 || Blue(y) || Red(y) || !Blue(y))",
            "exists y. (dist(x,y) <= 2 && Blue(y) && exists z. (E(y,z) && Red(z)))",
            "Blue(x) && !Red(x)",
            "forall y. (!E(x,y) || !Blue(y))",
        ] {
            let (f, x) = unary(src);
            let rho = unary_locality(&f, x).unwrap_or_else(|| panic!("{src} should be guarded"));
            let local = evaluate_unary_local(&g, &f, x, rho);
            let global = evaluate_unary_global(&g, &f, x);
            assert_eq!(local, global, "query {src} (rho={rho})");
        }
    }

    #[test]
    fn evaluate_unary_falls_back() {
        let mut g = generators::path(8);
        g.add_color(vec![7], Some("Blue".into()));
        // "some vertex anywhere is blue" — unguarded, needs global fallback.
        let (f, x) = unary("exists y. (Blue(y) && x = x)");
        assert_eq!(unary_locality(&f, x), None);
        let sats = evaluate_unary(&g, &f, x);
        assert_eq!(sats.len(), 8);
    }

    #[test]
    fn equality_guard() {
        let (f, x) = unary("exists y. (y = x && Blue(y))");
        assert_eq!(unary_locality(&f, x), Some(0));
    }
}
