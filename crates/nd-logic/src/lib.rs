//! First-order logic with distance atoms (**FO⁺**, Section 5 of the paper)
//! over colored graphs and relational structures.
//!
//! * [`ast`] — the formula AST (`E`, colors, `=`, `dist(x,y) ≤ d`, boolean
//!   connectives, quantifiers, and relational atoms for databases),
//!   free-variable computation, renaming, negation normal form,
//!   quantifier-rank and the paper's `q`-rank (Section 5.1.2).
//! * [`parser`] — a textual surface syntax for queries.
//! * [`mod@eval`] — the reference evaluator over colored graphs and over
//!   relational databases: every quantifier loops over the full domain. It
//!   is the semantics of record and the ground truth every indexed
//!   structure and the guarded evaluator are property-tested against.
//! * [`guarded`] — the production evaluator: the same semantics, compiled
//!   once per (graph, formula), with each quantifier and answer position
//!   iterating only its guard's candidates (neighbors, color members, an
//!   equal value) instead of every vertex.
//! * [`distance_type`] — the `r`-distance types `τ ∈ T_k` of Section 5.1.2,
//!   their connected components, and the `ρ_τ` characteristic formulas.
//! * [`locality`] — a syntactic guardedness analysis giving a sound locality
//!   radius for evaluating unary formulas inside neighborhoods (our concrete
//!   substitute for the Unary Theorem 5.3; see DESIGN.md §2).
//! * [`relational`] — the query rewriting of Lemma 2.2 (`φ` over `D` to `ψ`
//!   over the colored graph `A'(D)`).
//! * [`grammar`] — a seeded random-query generator over the distance-type
//!   fragment (and deliberately beyond it), for the `nd-conform`
//!   differential harness, plus general first-order and relational query
//!   generators for the evaluator and Lemma 2.2 differential tests.
//! * [`shrink`] — greedy structural query shrinking, turning a failing
//!   conformance case into a locally minimal counterexample.

pub mod ast;
pub mod codec;
pub mod distance_type;
pub mod eval;
pub mod grammar;
pub mod guarded;
pub mod locality;
pub mod parser;
pub mod relational;
pub mod shrink;
pub mod transform;

pub use ast::{ColorRef, Formula, Query, VarId};
pub use distance_type::DistanceType;
pub use eval::{eval, materialize, EvalCtx};
pub use grammar::{random_query, GrammarOpts};
pub use parser::{parse_formula, parse_query, ParseError};
pub use shrink::shrink_query;
