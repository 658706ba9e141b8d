//! A structured random-query grammar for conformance testing.
//!
//! The differential harness (`nd-conform`) needs a *seeded, deterministic*
//! stream of queries that (a) covers the distance-type fragment the indexed
//! engine compiles — unions of conjunctions of unary formulas and binary
//! constraints `dist ≤ d` / `dist > d` / `E` / `¬E` / `=` / `≠` — and
//! (b) occasionally steps outside the fragment so the naive fallback path
//! is exercised too. Queries are generated as ASTs (not source text), so
//! the grammar cannot drift from the parser; the `Display` form of a
//! generated query is still valid surface syntax for reports.
//!
//! Determinism matters more than statistical quality here: the same
//! `(seed, opts)` pair must regenerate the same query on any platform, so
//! the generator uses a self-contained splitmix64 stream instead of an RNG
//! dependency.

use crate::ast::{ColorRef, Formula, Query, VarId};

/// Shape knobs for [`random_query`]. The defaults match what the indexed
/// engine handles well at conformance-test graph sizes (tens of vertices).
#[derive(Clone, Debug)]
pub struct GrammarOpts {
    /// Maximum arity (inclusive). Arity is drawn from `0..=max_arity`,
    /// biased away from 0.
    pub max_arity: usize,
    /// Maximum number of union branches (inclusive, ≥ 1).
    pub max_union: usize,
    /// Maximum distance-atom radius (inclusive, ≥ 1).
    pub max_radius: u32,
    /// Color names the graph is known to have. Empty disables color atoms.
    pub colors: Vec<String>,
    /// With probability ~1/8, emit a conjunct outside the distance-type
    /// fragment (a two-variable common-neighbor pattern), forcing the
    /// naive-fallback rung.
    pub allow_non_fragment: bool,
}

impl Default for GrammarOpts {
    fn default() -> Self {
        GrammarOpts {
            max_arity: 3,
            max_union: 2,
            max_radius: 4,
            colors: vec!["Blue".into(), "Red".into()],
            allow_non_fragment: false,
        }
    }
}

/// Deterministic splitmix64 stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..bound` (`bound ≥ 1`).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Generate one deterministic random query from `seed`.
///
/// The result's free variables are exactly `v0..v{k-1}` in positional
/// order, so answer tuples line up with the lexicographic contract of
/// Theorem 2.3 without any renaming.
pub fn random_query(seed: u64, opts: &GrammarOpts) -> Query {
    let mut s = Stream(seed ^ GRAMMAR_STREAM_SALT);
    // Arity: bias toward 2 (the paper's running examples); allow 0..=max.
    let k = match s.below(8) {
        0 => 0,
        1 => 1.min(opts.max_arity),
        2..=5 => 2.min(opts.max_arity),
        _ => opts.max_arity,
    };
    let free: Vec<VarId> = (0..k as u32).map(VarId).collect();

    let branches = 1 + s.below(opts.max_union.max(1) as u64) as usize;
    let parts: Vec<Formula> = (0..branches)
        .map(|_| random_branch(&mut s, k, opts))
        .collect();
    Query::new(Formula::or(parts), free)
}

/// One conjunctive branch: per-position unary conjuncts, pairwise binary
/// constraints, optionally a sentence, optionally a non-fragment conjunct.
fn random_branch(s: &mut Stream, k: usize, opts: &GrammarOpts) -> Formula {
    let mut conj: Vec<Formula> = Vec::new();

    // Unary conjuncts: color atoms, negated colors, guarded local exists.
    for j in 0..k {
        let v = VarId(j as u32);
        if s.chance(5, 8) {
            conj.push(random_unary(s, v, opts));
        }
    }

    // Binary constraints over position pairs (i < j).
    for j in 1..k {
        for i in 0..j {
            if !s.chance(5, 8) {
                continue;
            }
            let (x, y) = (VarId(i as u32), VarId(j as u32));
            let d = 1 + s.below(opts.max_radius.max(1) as u64) as u32;
            conj.push(match s.below(6) {
                0 => Formula::DistLe(x, y, d),
                1 => Formula::dist_gt(x, y, d),
                2 => Formula::Edge(x, y),
                3 => Formula::Not(Box::new(Formula::Edge(x, y))),
                4 => Formula::Eq(x, y),
                _ => Formula::Not(Box::new(Formula::Eq(x, y))),
            });
        }
    }

    // Occasionally a sentence conjunct (arity-0 subformula, the ξ analogue).
    if s.chance(1, 4) {
        let u = VarId(k as u32 + 7);
        let body = random_unary(s, u, opts);
        conj.push(Formula::Exists(u, Box::new(body)));
    }

    // Occasionally a deliberately non-fragment conjunct: a common-neighbor
    // pattern mentioning two answer variables inside one quantifier.
    if opts.allow_non_fragment && k >= 2 && s.chance(1, 8) {
        let u = VarId(k as u32 + 9);
        let (x, y) = (VarId(0), VarId(1));
        conj.push(Formula::Exists(
            u,
            Box::new(Formula::and([Formula::Edge(x, u), Formula::Edge(u, y)])),
        ));
    }

    if conj.is_empty() {
        // An unconstrained branch (full product / `true` sentence) is a
        // legitimate — and historically bug-prone — edge case; keep it.
        Formula::True
    } else {
        Formula::and(conj)
    }
}

/// A unary formula with free variable `v`.
fn random_unary(s: &mut Stream, v: VarId, opts: &GrammarOpts) -> Formula {
    if opts.colors.is_empty() {
        // Colorless graphs: fall back to degree-flavored local facts.
        let u = VarId(v.0 + 100);
        return Formula::Exists(u, Box::new(Formula::Edge(v, u)));
    }
    let color = |s: &mut Stream| {
        let name = &opts.colors[s.below(opts.colors.len() as u64) as usize];
        ColorRef::Named(name.clone())
    };
    match s.below(8) {
        0..=3 => Formula::Color(color(s), v),
        4 | 5 => Formula::Not(Box::new(Formula::Color(color(s), v))),
        6 => {
            // Guarded local witness: ∃u (E(v,u) ∧ C(u)).
            let u = VarId(v.0 + 100);
            Formula::Exists(
                u,
                Box::new(Formula::and([
                    Formula::Edge(v, u),
                    Formula::Color(color(s), u),
                ])),
            )
        }
        _ => {
            // Distance-guarded witness: ∃u (dist(v,u) ≤ d ∧ C(u)).
            let u = VarId(v.0 + 100);
            let d = 1 + s.below(2) as u32;
            Formula::Exists(
                u,
                Box::new(Formula::and([
                    Formula::DistLe(v, u, d),
                    Formula::Color(color(s), u),
                ])),
            )
        }
    }
}

/// Generate one deterministic random first-order query over the colored
/// graph schema: `E`, the colors of `opts`, `=` and `dist ≤ d` atoms
/// under arbitrary `¬`, `∧`, `∨`, `∃` and `∀` nesting.
///
/// Unlike [`random_query`], the result is not shaped like the
/// distance-type fragment: quantifiers may re-bind a variable already in
/// scope, atoms may repeat a variable (`E(v,v)`), and most quantifiers
/// carry a guard (`E(u,v)`, `C(v)` or `v = u` conjoined under `∃`,
/// negated and disjoined under `∀`) so guarded evaluation has something
/// to exploit, some of them a two-hop path `∃w (E(u,w) ∧ E(w,v))`. Up to
/// three answer variables, drawn from `v0..v3` in a random order; an
/// answer variable may be unused (unconstrained).
pub fn random_fo_query(seed: u64, opts: &GrammarOpts) -> Query {
    let mut gen = FoGen {
        s: Stream(seed ^ FO_STREAM_SALT),
        vocab: Vocab::Graph(&opts.colors),
        scope: Vec::new(),
    };
    let k = gen.s.below(4) as usize;
    let mut pool: Vec<VarId> = (0..FO_VARS).map(VarId).collect();
    for _ in 0..k {
        let v = pool.remove(gen.s.below(pool.len() as u64) as usize);
        gen.scope.push(v);
    }
    let free = gen.scope.clone();
    Query::new(gen.formula(3), free)
}

/// Generate one deterministic random query over the relational schema
/// `{R/2, S/1}` (plus `T/3` when `ternary`): relational atoms and `=`
/// under `¬`, `∧`, `∨`, `∃` and `∀`, at most two quantifiers deep, with
/// answer variables `v0..v{k-1}` for `k ≤ 2`. Input for the Lemma 2.2
/// reduction ([`crate::relational::rewrite_to_graph`]).
pub fn random_relational_query(seed: u64, ternary: bool) -> Query {
    let mut gen = FoGen {
        s: Stream(seed ^ RELATIONAL_STREAM_SALT),
        vocab: Vocab::Relational { ternary },
        scope: Vec::new(),
    };
    let k = gen.s.below(3) as u32;
    gen.scope = (0..k).map(VarId).collect();
    let free = gen.scope.clone();
    Query::new(gen.formula(2), free)
}

/// Variables `v0..v{FO_VARS-1}` the general generators draw from; few
/// enough that re-binding a variable in scope is common.
const FO_VARS: u32 = 4;

/// Atom vocabulary of the general generators.
enum Vocab<'a> {
    /// Colored graph atoms with these color names.
    Graph(&'a [String]),
    /// Relational atoms over `R/2`, `S/1` and optionally `T/3`.
    Relational { ternary: bool },
}

/// Scope-aware generator behind [`random_fo_query`] and
/// [`random_relational_query`]: atoms only mention variables in scope.
struct FoGen<'a> {
    s: Stream,
    vocab: Vocab<'a>,
    scope: Vec<VarId>,
}

impl FoGen<'_> {
    fn var(&mut self) -> VarId {
        self.scope[self.s.below(self.scope.len() as u64) as usize]
    }

    /// A variable in scope, usually distinct from `a` (the same one now
    /// and then, for atoms like `E(v,v)`).
    fn other(&mut self, a: VarId) -> VarId {
        let others: Vec<VarId> = self.scope.iter().copied().filter(|&v| v != a).collect();
        if others.is_empty() || self.s.chance(1, 6) {
            a
        } else {
            others[self.s.below(others.len() as u64) as usize]
        }
    }

    /// A formula of nesting depth at most `depth` (quantifiers and
    /// connectives both count).
    fn formula(&mut self, depth: u32) -> Formula {
        if depth == 0 || (!self.scope.is_empty() && self.s.chance(1, 3)) {
            return self.atom();
        }
        // With nothing in scope, only a quantifier leads to a real atom.
        let shape = if self.scope.is_empty() {
            3 + self.s.below(2)
        } else {
            self.s.below(5)
        };
        match shape {
            0 => Formula::Not(Box::new(self.formula(depth - 1))),
            1 | 2 => {
                let parts = (0..2 + self.s.below(2)).map(|_| self.formula(depth - 1));
                let parts: Vec<Formula> = parts.collect();
                if self.s.chance(1, 2) {
                    Formula::And(parts)
                } else {
                    Formula::Or(parts)
                }
            }
            q => {
                let exists = q == 3;
                let v = VarId(self.s.below(FO_VARS as u64) as u32);
                let guard = match self.vocab {
                    Vocab::Graph(_) if self.s.chance(2, 3) => Some(self.guard(v)),
                    _ => None,
                };
                self.scope.push(v);
                let body = self.formula(depth - 1);
                self.scope.pop();
                match (exists, guard) {
                    (true, Some(g)) => Formula::Exists(v, Box::new(Formula::And(vec![g, body]))),
                    (false, Some(g)) => Formula::Forall(
                        v,
                        Box::new(Formula::Or(vec![Formula::Not(Box::new(g)), body])),
                    ),
                    (true, None) => Formula::Exists(v, Box::new(body)),
                    (false, None) => Formula::Forall(v, Box::new(body)),
                }
            }
        }
    }

    /// A guard atom for the quantified `v`, linked to a variable of the
    /// enclosing scope when there is one (or to `v` itself: `E(v,v)`).
    fn guard(&mut self, v: VarId) -> Formula {
        let u = if self.scope.is_empty() {
            v
        } else {
            self.other(v)
        };
        match self.s.below(4) {
            0 => Formula::Edge(u, v),
            1 => self.color(v),
            2 => Formula::Eq(v, u),
            _ => {
                // A two-hop path through a fresh witness: the shape of a
                // Lemma 2.2 atom, ∃w (E(u,w) ∧ E(w,v)).
                let w = VarId(self.s.below(FO_VARS as u64) as u32);
                let hops = Formula::And(vec![Formula::Edge(u, w), Formula::Edge(w, v)]);
                Formula::Exists(w, Box::new(hops))
            }
        }
    }

    fn color(&mut self, v: VarId) -> Formula {
        let name = match self.vocab {
            Vocab::Graph(colors) if !colors.is_empty() => {
                colors[self.s.below(colors.len() as u64) as usize].clone()
            }
            Vocab::Graph(_) => return Formula::True,
            // `S(x)` parses as a color atom; over a database it denotes
            // the unary relation.
            Vocab::Relational { .. } => "S".to_string(),
        };
        Formula::Color(ColorRef::Named(name), v)
    }

    fn atom(&mut self) -> Formula {
        if self.scope.is_empty() {
            return if self.s.chance(1, 2) {
                Formula::True
            } else {
                Formula::False
            };
        }
        // Lean on the innermost binding so quantified variables get used.
        let a = if self.s.chance(1, 2) {
            self.scope[self.scope.len() - 1]
        } else {
            self.var()
        };
        let b = self.other(a);
        match (&self.vocab, self.s.below(4)) {
            (Vocab::Graph(_), 0) => Formula::Edge(a, b),
            (Vocab::Graph(_), 1) => self.color(a),
            (Vocab::Graph(_), 2) => Formula::Eq(a, b),
            (Vocab::Graph(_), _) => Formula::DistLe(a, b, self.s.below(3) as u32),
            (Vocab::Relational { .. }, 0) => Formula::Eq(a, b),
            (Vocab::Relational { .. }, 1) => self.color(a),
            (Vocab::Relational { ternary: true }, 2) => {
                Formula::Rel("T".into(), vec![a, b, self.var()])
            }
            (Vocab::Relational { .. }, _) => Formula::Rel("R".into(), vec![a, b]),
        }
    }
}

/// Is the formula *monotone under vertex deletion*? Deleting a vertex can
/// only shrink neighborhoods and lengthen distances, so a formula built
/// without negation from `E`, colors, `=`, `dist ≤ d`, `∧`, `∨`, `∃` can
/// only lose solutions — the metamorphic deletion invariant of the
/// conformance harness applies exactly to these.
pub fn is_deletion_monotone(f: &Formula) -> bool {
    match f {
        Formula::True | Formula::False => true,
        Formula::Edge(..) | Formula::Color(..) | Formula::Eq(..) | Formula::DistLe(..) => true,
        Formula::Rel(..) => false,
        Formula::Not(_) | Formula::Forall(..) => false,
        Formula::And(fs) | Formula::Or(fs) => fs.iter().all(is_deletion_monotone),
        Formula::Exists(_, g) => is_deletion_monotone(g),
    }
}

/// Domain-separates the query stream from other consumers of the same
/// seed (the graph generator uses the raw seed).
const GRAMMAR_STREAM_SALT: u64 = 0xc0f0_e11a_5eed_0001;
const FO_STREAM_SALT: u64 = 0xc0f0_e11a_5eed_0002;
const RELATIONAL_STREAM_SALT: u64 = 0xc0f0_e11a_5eed_0003;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::materialize;
    use nd_graph::generators;

    #[test]
    fn deterministic_and_well_formed() {
        let opts = GrammarOpts::default();
        for seed in 0..200 {
            let q1 = random_query(seed, &opts);
            let q2 = random_query(seed, &opts);
            assert_eq!(q1, q2, "seed {seed} not deterministic");
            assert!(q1.arity() <= opts.max_arity);
            // Free variables are exactly v0..v{k-1}.
            for (i, v) in q1.free.iter().enumerate() {
                assert_eq!(v.0 as usize, i);
            }
            // The general generators too: conformance seeds must replay.
            assert_eq!(random_fo_query(seed, &opts), random_fo_query(seed, &opts));
            let ternary = seed % 2 == 0;
            assert_eq!(
                random_relational_query(seed, ternary),
                random_relational_query(seed, ternary)
            );
        }
    }

    #[test]
    fn generated_queries_evaluate() {
        let mut g = generators::grid(4, 4);
        g.add_color((0..16).step_by(3).collect(), Some("Blue".into()));
        g.add_color((0..16).step_by(5).collect(), Some("Red".into()));
        let opts = GrammarOpts::default();
        let mut nonempty = 0;
        for seed in 0..60 {
            let q = random_query(seed, &opts);
            let sols = materialize(&g, &q);
            // Sorted, duplicate-free — the oracle contract.
            assert!(sols.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
            if !sols.is_empty() {
                nonempty += 1;
            }
        }
        assert!(nonempty > 10, "grammar degenerated to empty queries");
    }

    #[test]
    fn monotonicity_classifier() {
        let yes = Formula::and([
            Formula::Edge(VarId(0), VarId(1)),
            Formula::DistLe(VarId(0), VarId(1), 2),
        ]);
        assert!(is_deletion_monotone(&yes));
        let no = Formula::dist_gt(VarId(0), VarId(1), 2);
        assert!(!is_deletion_monotone(&no));
    }
}
