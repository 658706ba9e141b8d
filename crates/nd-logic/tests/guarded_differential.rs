//! Differential tests: the guarded evaluator (`nd_logic::guarded`) against
//! the reference semantics (`nd_logic::eval`).
//!
//! Random first-order formulas over random small colored graphs must get
//! identical answers from both, and Lemma 2.2 rewritings evaluated by the
//! guarded evaluator must match the database answers. The explicit cases
//! pin the shapes the candidate sources are read off: `∀` guards, `v = u`
//! guards, the self-loop atom `E(v,v)`, re-bound variables, an empty
//! color, Boolean queries, unguarded answer variables, `dist` atoms and
//! the two-hop witnesses the evaluator swaps outward.

use nd_graph::relational::{adjacency_graph, RelationalDb};
use nd_graph::{generators, ColoredGraph, GraphBuilder, Vertex};
use nd_logic::ast::{ColorRef, Formula, Query, VarId};
use nd_logic::grammar::{random_fo_query, random_relational_query, GrammarOpts};
use nd_logic::relational::rewrite_to_graph;
use nd_logic::{eval, guarded, parse_query};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded `G(n, m)` graph with `n ≤ 8`, random `Blue`/`Red` sets and a
/// color `Empty` with no members.
fn small_graph(seed: u64) -> ColoredGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(0..9usize);
    let m = rng.random_range(0..2 * n + 1);
    let mut g = generators::gnm(n, m, seed);
    for name in ["Blue", "Red"] {
        let members: Vec<Vertex> = (0..n as Vertex)
            .filter(|_| rng.random_range(0..3u32) == 0)
            .collect();
        g.add_color(members, Some(name.into()));
    }
    g.add_color(Vec::new(), Some("Empty".into()));
    g
}

fn grammar() -> GrammarOpts {
    GrammarOpts {
        colors: vec!["Blue".into(), "Red".into(), "Empty".into()],
        ..GrammarOpts::default()
    }
}

/// Both evaluators agree on the full answer set and on every tuple test.
fn assert_agrees(g: &ColoredGraph, q: &Query) {
    let want = eval::materialize(g, q);
    let got = guarded::materialize(g, q);
    assert_eq!(got, want, "materialize {q} on n={}", g.n());
    let n = g.n() as Vertex;
    let k = q.arity();
    let tuples = if k == 0 {
        1
    } else {
        (n as usize).pow(k as u32)
    };
    for i in 0..tuples {
        let mut rest = i;
        let tuple: Vec<Vertex> = (0..k)
            .map(|_| {
                let v = (rest % n as usize) as Vertex;
                rest /= n as usize;
                v
            })
            .collect();
        assert_eq!(
            guarded::eval(g, q, &tuple),
            eval::eval(g, q, &tuple),
            "eval {q} at {tuple:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random formulas (re-bound variables, `E(v,v)`, guards of both
    /// polarities, unguarded answer variables) on random graphs.
    #[test]
    fn random_formulas_agree(graph_seed in any::<u64>(), query_seed in any::<u64>()) {
        let g = small_graph(graph_seed);
        let q = random_fo_query(query_seed, &grammar());
        assert_agrees(&g, &q);
    }

    /// Lemma 2.2: random relational queries, rewritten to the adjacency
    /// graph and evaluated by the guarded evaluator, give the database
    /// answers.
    #[test]
    fn rewritten_relational_queries_match_the_database(
        db_seed in any::<u64>(),
        query_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(db_seed);
        let n = rng.random_range(3..8u32);
        let mut db = RelationalDb::new(n as usize);
        let r = (0..rng.random_range(0..2 * n))
            .map(|_| vec![rng.random_range(0..n), rng.random_range(0..n)])
            .collect();
        db.add_relation("R", 2, r);
        let s = (0..n).filter(|_| rng.random_range(0..3u32) == 0).map(|p| vec![p]).collect();
        db.add_relation("S", 1, s);
        let ternary = rng.random_range(0..2u32) == 0;
        if ternary {
            let t = (0..rng.random_range(0..n))
                .map(|_| (0..3).map(|_| rng.random_range(0..n)).collect())
                .collect();
            db.add_relation("T", 3, t);
        }
        let phi = random_relational_query(query_seed, ternary);
        let (g, mapping) = adjacency_graph(&db);
        let psi = rewrite_to_graph(&phi, &mapping);
        prop_assert_eq!(guarded::materialize(&g, &psi), eval::materialize_db(&db, &phi), "{}", phi);
    }
}

fn fixture() -> ColoredGraph {
    // 0-1-2-3-4-5 plus the chord 1-4; Blue = {1, 4}, Red = {0, 5},
    // Empty = {}.
    let mut b = GraphBuilder::new(6);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)] {
        b.add_edge(u, v);
    }
    let mut g = b.build();
    g.add_color(vec![1, 4], Some("Blue".into()));
    g.add_color(vec![0, 5], Some("Red".into()));
    g.add_color(Vec::new(), Some("Empty".into()));
    g
}

#[test]
fn explicit_guard_shapes_agree() {
    let g = fixture();
    for src in [
        // ∀ guards: negated edge, negated color, disequality.
        "forall y. (!E(x,y) || Blue(y))",
        "forall y. (!Blue(y) || dist(x,y) <= 2)",
        "forall y. (x != y || Red(y))",
        "forall y. !(E(x,y) && !Blue(y))",
        // v = u guards, both orientations.
        "exists y. (y = x && Blue(y))",
        "exists y. (x = y && E(y,z))",
        // The self-loop atom is false everywhere and guards nothing.
        "exists y. (E(y,y) && Blue(y))",
        "forall y. (!E(y,y) || Blue(y))",
        "E(x,x)",
        // An empty color as the only guard.
        "exists y. (Empty(y) && E(x,y))",
        "forall y. (!Empty(y) || false)",
        // Boolean queries.
        "exists x. exists y. (E(x,y) && Blue(x) && Red(y))",
        "forall x. exists y. E(x,y)",
        "exists x. Empty(x)",
        // dist atoms, guarded and not.
        "exists y. (Blue(y) && dist(x,y) <= 1)",
        "dist(x,y) > 2 && Red(y)",
        // Guards anchored on a later answer position cannot restrict an
        // earlier one.
        "E(y,x) && Blue(y)",
        // Two-hop witnesses: the inner existential is swapped outward so
        // the outer one walks neighbors ...
        "exists t. (Blue(t) && exists z. (Red(z) && E(x,z) && E(z,t)))",
        "exists t. ((exists z. (E(x,z) && E(z,t))) && exists z. (E(y,z) && E(z,t)))",
        "forall t. (!Blue(t) || !exists z. (E(x,z) && E(z,t) && dist(z,y) <= 1))",
    ] {
        assert_agrees(&g, &parse_query(src).unwrap());
    }
}

/// Re-bound variables, built as ASTs: the parser gives every binding a
/// fresh id, so these shapes only arise programmatically.
#[test]
fn rebound_variables_agree() {
    let g = fixture();
    let (x, y, z, t) = (VarId(0), VarId(1), VarId(2), VarId(3));
    let color = |c: &str, v| Formula::Color(ColorRef::Named(c.into()), v);
    let exists = |v, parts| Formula::Exists(v, Box::new(Formula::And(parts)));
    let not_edge = |a, b| Formula::Not(Box::new(Formula::Edge(a, b)));
    let cases = [
        // A nested ∃x re-binding the answer variable x.
        (
            exists(
                x,
                vec![
                    Formula::Edge(x, y),
                    exists(x, vec![Formula::Edge(x, y), color("Red", x)]),
                ],
            ),
            vec![y],
        ),
        // A nested ∀y re-binding a quantified y.
        (
            Formula::Forall(
                y,
                Box::new(Formula::Or(vec![
                    not_edge(x, y),
                    Formula::Forall(
                        y,
                        Box::new(Formula::Or(vec![not_edge(x, y), color("Blue", y)])),
                    ),
                ])),
            ),
            vec![x],
        ),
        // A two-hop witness z that is also free beside it: swapping it
        // outward would capture the answer variable z.
        (
            exists(
                t,
                vec![
                    color("Blue", t),
                    exists(z, vec![Formula::Edge(x, z), Formula::Edge(z, t)]),
                    color("Red", z),
                ],
            ),
            vec![x, z],
        ),
        // A two-hop witness re-binding the answer variable x.
        (
            exists(
                t,
                vec![
                    color("Blue", t),
                    exists(
                        x,
                        vec![Formula::Edge(y, x), Formula::Edge(x, t), color("Red", x)],
                    ),
                    Formula::Edge(x, y),
                ],
            ),
            vec![x, y],
        ),
    ];
    for (f, free) in cases {
        assert_agrees(&g, &Query::new(f, free));
    }
}

#[test]
fn unguarded_answer_variable_ranges_over_the_domain() {
    let g = fixture();
    let mut q = parse_query("Blue(x)").unwrap();
    // A declared answer variable the formula never mentions.
    q.free.push(VarId(7));
    assert_agrees(&g, &q);
    assert_eq!(guarded::materialize(&g, &q).len(), 2 * g.n());
}

#[test]
fn empty_graph() {
    let g = generators::path(0);
    for src in ["forall x. false", "exists x. true", "E(x,y)"] {
        assert_agrees(&g, &parse_query(src).unwrap());
    }
}
