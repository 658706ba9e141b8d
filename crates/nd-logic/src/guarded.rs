//! Guarded evaluation — the production evaluator for FO⁺ over colored
//! graphs.
//!
//! [`crate::eval`] is the semantics of record: every quantifier there
//! loops over the whole domain. This module computes the same answers,
//! but compiles the formula against a graph first (color names become
//! [`ColorId`]s, every variable binding gets a dense slot) and reads a
//! **candidate source** for each quantifier off its body:
//!
//! * for `∃v φ`, the atoms `φ` implies through its top-level conjuncts:
//!   `E(u, v)` with `u ≠ v` gives `neighbors(u)`, `C(v)` gives the members
//!   of `C`, and `v = u` gives `{u}`;
//! * for `∀v φ`, the same atoms implied by `¬φ`, i.e. the disjuncts
//!   `¬E(u, v)`, `¬C(v)` and `v ≠ u` — the shape Lemma 2.2's rewriting
//!   emits (`¬@elem(v) ∨ …`).
//!
//! At run time a quantifier iterates the smallest candidate slice, or the
//! full domain when it has no source. This is exact: outside the
//! candidates the guard conjunct is false (so `φ` is false), or the
//! negated guard disjunct is true (so `φ` is true). An edge-guarded
//! quantifier thus costs `O(deg)` instead of `O(n)` — the local evaluation
//! behind the bounded-degree (Kazana–Segoufin) and low-degree
//! (Durand–Schweikardt–Segoufin) enumeration algorithms.
//!
//! Before reading sources, the compiler swaps a two-hop witness outward,
//! `∃v (A ∧ ∃w (B ∧ C)) ↦ ∃w (B ∧ ∃v (A ∧ C))`, when that gives `v` a
//! neighbor guard it lacked (see `exchange`): a Lemma 2.2 atom then walks
//! from its argument to the tuple node instead of scanning tuple nodes.
//!
//! [`Evaluator::try_for_each`] restricts each answer position the same
//! way, using the top-level conjuncts anchored on earlier positions.
//! Every candidate slice is ascending, so answers come out in
//! lexicographic order with no sort.

use crate::ast::{ColorRef, Formula, Query, VarId};
use nd_graph::{BfsScratch, ColorId, ColoredGraph, Vertex};
use std::collections::HashMap;
use std::convert::Infallible;

/// Dense index of one variable binding in an [`Evaluator`]'s assignment.
type Slot = usize;

/// Where the candidate values of a bound variable come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// The neighbors of the value in a slot.
    Neighbors(Slot),
    /// The members of a color.
    Members(ColorId),
    /// Exactly the value in a slot.
    Equal(Slot),
}

/// A compiled formula node: atoms over slots, quantifiers with their
/// candidate sources.
#[derive(Debug)]
enum Node {
    True,
    False,
    Edge(Slot, Slot),
    Color(ColorId, Slot),
    Eq(Slot, Slot),
    DistLe(Slot, Slot, u32),
    Not(Box<Node>),
    And(Vec<Node>),
    Or(Vec<Node>),
    Exists(Slot, Vec<Source>, Box<Node>),
    Forall(Slot, Vec<Source>, Box<Node>),
}

/// A formula compiled against a graph's color table, with its answer
/// variables in tuple order. Compile once, evaluate on any graph sharing
/// that color table (e.g. the ball subgraphs of
/// [`nd_graph::InducedSubgraph::new_small`]).
#[derive(Debug)]
pub struct Compiled {
    body: Node,
    /// Number of slots: the answer positions first, then one per
    /// quantifier.
    slots: usize,
    /// Candidate sources of each answer position.
    free: Vec<Vec<Source>>,
}

impl Compiled {
    /// Compile `f` with answer variables `free` (in tuple order) against
    /// the color names of `g`.
    ///
    /// Panics on an unknown color, a relational atom or a free variable of
    /// `f` missing from `free` — the same inputs the reference evaluator
    /// rejects; callers validate them at the input boundary.
    pub fn new(g: &ColoredGraph, f: &Formula, free: &[VarId]) -> Compiled {
        let mut c = Compiler {
            g,
            scope: Vec::with_capacity(free.len()),
            slots: free.len(),
        };
        let mut atoms = Vec::new();
        implied_atoms(f, true, &mut atoms);
        let mut sources = Vec::with_capacity(free.len());
        for (pos, &v) in free.iter().enumerate() {
            c.scope.push((v, pos));
            sources.push(c.sources(&atoms, v));
        }
        let body = c.node(f);
        Compiled {
            body,
            slots: c.slots,
            free: sources,
        }
    }

    /// Number of answer positions.
    fn arity(&self) -> usize {
        self.free.len()
    }
}

struct Compiler<'g> {
    g: &'g ColoredGraph,
    /// Variables in scope, innermost binding last.
    scope: Vec<(VarId, Slot)>,
    slots: usize,
}

impl Compiler<'_> {
    fn lookup(&self, v: VarId) -> Option<Slot> {
        self.scope
            .iter()
            .rev()
            .find(|&&(w, _)| w == v)
            .map(|&(_, s)| s)
    }

    fn slot(&self, v: VarId) -> Slot {
        self.lookup(v)
            .unwrap_or_else(|| panic!("unassigned variable {v}"))
    }

    fn color(&self, c: &ColorRef) -> ColorId {
        match c {
            ColorRef::Id(i) => {
                assert!((*i as usize) < self.g.num_colors(), "unknown color id {i}");
                ColorId(*i)
            }
            ColorRef::Named(name) => self
                .g
                .color_by_name(name)
                .unwrap_or_else(|| panic!("unknown color {name:?}")),
        }
    }

    /// The candidate sources `atoms` give the innermost binding `v`. An
    /// atom linking `v` to a variable not in scope yet (a later answer
    /// position) gives none.
    fn sources(&self, atoms: &[&Formula], v: VarId) -> Vec<Source> {
        atoms
            .iter()
            .filter_map(|atom| match atom {
                Formula::Edge(..) => self.lookup(link(atom, v)?).map(Source::Neighbors),
                Formula::Eq(..) => self.lookup(link(atom, v)?).map(Source::Equal),
                Formula::Color(c, x) if *x == v => Some(Source::Members(self.color(c))),
                _ => None,
            })
            .collect()
    }

    fn node(&mut self, f: &Formula) -> Node {
        match f {
            Formula::True => Node::True,
            Formula::False => Node::False,
            Formula::Edge(x, y) => Node::Edge(self.slot(*x), self.slot(*y)),
            Formula::Color(c, x) => Node::Color(self.color(c), self.slot(*x)),
            Formula::Eq(x, y) => Node::Eq(self.slot(*x), self.slot(*y)),
            Formula::DistLe(x, y, d) => Node::DistLe(self.slot(*x), self.slot(*y), *d),
            Formula::Rel(name, _) => {
                panic!("relational atom {name} cannot be evaluated over a colored graph; rewrite with Lemma 2.2 first")
            }
            Formula::Not(g) => Node::Not(Box::new(self.node(g))),
            Formula::And(gs) => Node::And(gs.iter().map(|g| self.node(g)).collect()),
            Formula::Or(gs) => Node::Or(gs.iter().map(|g| self.node(g)).collect()),
            Formula::Exists(v, body) | Formula::Forall(v, body) => {
                let exists = matches!(f, Formula::Exists(..));
                if let Some(swapped) = exists.then(|| exchange(*v, body)).flatten() {
                    return self.node(&swapped);
                }
                let slot = self.slots;
                self.slots += 1;
                let mut atoms = Vec::new();
                implied_atoms(body, exists, &mut atoms);
                self.scope.push((*v, slot));
                let sources = self.sources(&atoms, *v);
                let body = Box::new(self.node(body));
                self.scope.pop();
                if exists {
                    Node::Exists(slot, sources, body)
                } else {
                    Node::Forall(slot, sources, body)
                }
            }
        }
    }
}

/// The conjuncts of `f`, flattening nested `∧`.
fn conjuncts(f: &Formula) -> Vec<&Formula> {
    match f {
        Formula::And(gs) => gs.iter().flat_map(conjuncts).collect(),
        other => vec![other],
    }
}

/// The variable an edge or equality atom links `v` to, if any.
fn link(atom: &Formula, v: VarId) -> Option<VarId> {
    match atom {
        Formula::Edge(a, b) | Formula::Eq(a, b) if (*a == v) != (*b == v) => {
            Some(if *a == v { *b } else { *a })
        }
        _ => None,
    }
}

/// Swap two existentials so the outer one gets a neighbor guard:
///
/// ```text
/// ∃v (A ∧ ∃w (B ∧ C))   ↦   ∃w (B ∧ ∃v (A ∧ C))
/// ```
///
/// where `C` are the conjuncts of `w`'s body that mention `v`. Applies
/// when `v` has no edge or equality guard of its own, `B` links `w` to an
/// enclosing variable and `C` links `w` to `v`: `w` then iterates the
/// neighbors of the enclosing variable and `v` the neighbors of `w`.
/// Lemma 2.2's atoms have exactly this shape — `∃t (P_R(t) ∧ ∃z (C_1(z) ∧
/// E(x,z) ∧ E(z,t)) ∧ …)` — and the swap turns the scan over every tuple
/// node `t` into a walk from `x`. Exact: `w` is not free in `A`, and `v`
/// is not free in `B`.
fn exchange(v: VarId, body: &Formula) -> Option<Formula> {
    let mut atoms = Vec::new();
    implied_atoms(body, true, &mut atoms);
    if atoms.iter().any(|a| link(a, v).is_some()) {
        return None;
    }
    let parts = conjuncts(body);
    let (i, w, inner) = parts.iter().enumerate().find_map(|(i, part)| {
        let Formula::Exists(w, inner) = part else {
            return None;
        };
        let inner = conjuncts(inner);
        let links =
            |pred: &dyn Fn(VarId) -> bool| inner.iter().any(|a| link(a, *w).is_some_and(pred));
        let usable = *w != v
            && links(&|u| u == v)
            && links(&|u| u != v)
            && parts
                .iter()
                .enumerate()
                .all(|(j, p)| j == i || !p.free_vars().contains(w));
        usable.then_some((i, *w, inner))
    })?;
    let (with_v, without_v): (Vec<&Formula>, Vec<&Formula>) =
        inner.into_iter().partition(|p| p.free_vars().contains(&v));
    let rest = parts
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(_, p)| (*p).clone());
    let v_body = Formula::And(rest.chain(with_v.into_iter().cloned()).collect());
    let w_body = without_v
        .into_iter()
        .cloned()
        .chain([Formula::Exists(v, Box::new(v_body))]);
    Some(Formula::Exists(w, Box::new(Formula::And(w_body.collect()))))
}

/// Collect the guard-shaped atoms (`E`, colors, `=`) that `f` implies
/// (`holds`) or that `¬f` implies (`!holds`), looking through `∧`, `∨`
/// and `¬` but not into nested quantifiers.
fn implied_atoms<'f>(f: &'f Formula, holds: bool, out: &mut Vec<&'f Formula>) {
    match (f, holds) {
        (Formula::Not(g), _) => implied_atoms(g, !holds, out),
        (Formula::And(gs), true) | (Formula::Or(gs), false) => {
            for g in gs {
                implied_atoms(g, holds, out);
            }
        }
        (Formula::Edge(..) | Formula::Color(..) | Formula::Eq(..), true) => out.push(f),
        _ => {}
    }
}

/// The values a slot ranges over at one quantifier or answer position,
/// in ascending order.
enum Candidates<'g> {
    Domain(std::ops::Range<Vertex>),
    Slice(std::slice::Iter<'g, Vertex>),
    One(std::option::IntoIter<Vertex>),
}

impl<'g> Candidates<'g> {
    /// The smallest candidate set `sources` offer under `asg`.
    fn pick(g: &'g ColoredGraph, sources: &[Source], asg: &[Vertex]) -> Candidates<'g> {
        let mut best: Option<&'g [Vertex]> = None;
        for &s in sources {
            let slice = match s {
                Source::Equal(u) => return Candidates::One(Some(asg[u]).into_iter()),
                Source::Neighbors(u) => g.neighbors(asg[u]),
                Source::Members(c) => g.color_members(c),
            };
            if best.is_none_or(|b| slice.len() < b.len()) {
                best = Some(slice);
            }
        }
        match best {
            Some(slice) => Candidates::Slice(slice.iter()),
            None => Candidates::Domain(0..g.n() as Vertex),
        }
    }
}

impl Iterator for Candidates<'_> {
    type Item = Vertex;

    #[inline]
    fn next(&mut self) -> Option<Vertex> {
        match self {
            Candidates::Domain(r) => r.next(),
            Candidates::Slice(s) => s.next().copied(),
            Candidates::One(o) => o.next(),
        }
    }
}

/// Evaluation state for one [`Compiled`] formula over one graph.
pub struct Evaluator<'a> {
    g: &'a ColoredGraph,
    c: &'a Compiled,
    asg: Vec<Vertex>,
    scratch: BfsScratch,
    dist_cache: HashMap<(Vertex, Vertex, u32), bool>,
}

impl<'a> Evaluator<'a> {
    pub fn new(g: &'a ColoredGraph, c: &'a Compiled) -> Self {
        Evaluator {
            g,
            c,
            asg: vec![0; c.slots],
            scratch: BfsScratch::new(0),
            dist_cache: HashMap::new(),
        }
    }

    /// Does the formula hold with its answer variables set to `tuple`?
    pub fn holds(&mut self, tuple: &[Vertex]) -> bool {
        assert_eq!(tuple.len(), self.c.arity(), "tuple arity mismatch");
        self.asg[..tuple.len()].copy_from_slice(tuple);
        let c = self.c;
        self.eval(&c.body)
    }

    /// Evaluate every candidate answer tuple in lexicographic order and
    /// hand it to `visit` with its verdict; stops at the first error.
    /// Tuples outside some position's candidates are false and skipped.
    pub fn try_for_each<E>(
        &mut self,
        mut visit: impl FnMut(&[Vertex], bool) -> Result<(), E>,
    ) -> Result<(), E> {
        self.for_each_from(0, &mut visit)
    }

    fn for_each_from<E>(
        &mut self,
        pos: usize,
        visit: &mut impl FnMut(&[Vertex], bool) -> Result<(), E>,
    ) -> Result<(), E> {
        let c = self.c;
        let k = c.arity();
        if pos == k {
            let holds = self.eval(&c.body);
            return visit(&self.asg[..k], holds);
        }
        for a in Candidates::pick(self.g, &c.free[pos], &self.asg) {
            self.asg[pos] = a;
            self.for_each_from(pos + 1, visit)?;
        }
        Ok(())
    }

    fn eval(&mut self, f: &Node) -> bool {
        match f {
            Node::True => true,
            Node::False => false,
            Node::Edge(x, y) => self.g.has_edge(self.asg[*x], self.asg[*y]),
            Node::Color(c, x) => self.g.has_color(self.asg[*x], *c),
            Node::Eq(x, y) => self.asg[*x] == self.asg[*y],
            Node::DistLe(x, y, d) => self.dist_le(self.asg[*x], self.asg[*y], *d),
            Node::Not(g) => !self.eval(g),
            Node::And(gs) => gs.iter().all(|g| self.eval(g)),
            Node::Or(gs) => gs.iter().any(|g| self.eval(g)),
            Node::Exists(slot, sources, body) => self.witness(*slot, sources, body, true),
            Node::Forall(slot, sources, body) => !self.witness(*slot, sources, body, false),
        }
    }

    /// Is there a candidate for `slot` at which `body` evaluates to `want`?
    fn witness(&mut self, slot: Slot, sources: &[Source], body: &Node, want: bool) -> bool {
        Candidates::pick(self.g, sources, &self.asg).any(|a| {
            self.asg[slot] = a;
            self.eval(body) == want
        })
    }

    /// `dist(a, b) ≤ d`, cached.
    fn dist_le(&mut self, a: Vertex, b: Vertex, d: u32) -> bool {
        let key = (a.min(b), a.max(b), d);
        if let Some(&v) = self.dist_cache.get(&key) {
            return v;
        }
        let v = self.scratch.distance_capped(self.g, a, b, d).is_some();
        self.dist_cache.insert(key, v);
        v
    }
}

/// Evaluate `q(tuple)` over `g`: does `g ⊨ q(ā)`? Agrees with
/// [`crate::eval::eval`].
pub fn eval(g: &ColoredGraph, q: &Query, tuple: &[Vertex]) -> bool {
    let c = Compiled::new(g, &q.formula, &q.free);
    Evaluator::new(g, &c).holds(tuple)
}

/// Materialize `q(G)` in lexicographic order. Agrees with
/// [`crate::eval::materialize`].
pub fn materialize(g: &ColoredGraph, q: &Query) -> Vec<Vec<Vertex>> {
    let c = Compiled::new(g, &q.formula, &q.free);
    let mut out = Vec::new();
    let Ok(()) = Evaluator::new(g, &c).try_for_each(|tuple, holds| {
        if holds {
            out.push(tuple.to_vec());
        }
        Ok::<(), Infallible>(())
    });
    out
}
