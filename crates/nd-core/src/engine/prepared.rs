//! The prepared-query front-end: **Theorem 2.3** (next solution),
//! **Corollary 2.4** (testing) and **Corollary 2.5** (constant-delay
//! enumeration in lexicographic order).
//!
//! Preparation (Section 5.2.1, adapted to the fragment of
//! [`crate::engine::fragment`]):
//!
//! 1. check the branch's sentences (the `ξ` analogues) once;
//! 2. evaluate every unary formula `U_i` for all vertices (Unary Theorem
//!    substitute) into sorted lists `L_i` + membership bitsets;
//! 3. build one distance oracle (Prop 4.2) per distinct constraint radius;
//! 4. build a `2r`-cover, its `r`-kernels, and — for every position with a
//!    far constraint — skip pointers (Lemma 5.8) over `L_j`.
//!
//! Answering (Section 5.2.2, adapted): `next_value(prefix, j, b)` — the
//! Lemma 5.2 primitive — finds the smallest admissible value `≥ b` for
//! position `j` by case analysis on the constraints to the prefix:
//!
//! * an equality pins the candidate; an edge constraint scans the anchor's
//!   adjacency list; a `dist ≤ d` constraint scans the anchor's cover bag
//!   by successor steps in its sorted member list (candidates are
//!   confined to the bag because `N_d(a) ⊆ X(a)`) — the paper's "Case II";
//! * far-only constraints take the minimum of (a) per-anchor scans of the
//!   kernels `K_r(X(a_i))` and (b) a `SKIP` jump over `L_j` past all those
//!   kernels, which is guaranteed far because outside `K_r(X(a))` implies
//!   `dist(·, a) > r` under a `2r`-cover — the paper's "Case I";
//! * no constraints: the successor in `L_j`.
//!
//! `next_solution` is then the Theorem 5.1 ⇆ Lemma 5.2 mutual induction,
//! realized as lexicographic backtracking over `next_value` with an
//! extendability pre-check per future position. Per-candidate work is
//! `O(1)`; the number of candidates inspected per output is bounded by bag/
//! kernel sizes — independent of `n` on sparse families (measured in E5/E7;
//! see DESIGN.md §2 for how this relates to the paper's strictly-constant
//! delay).

use crate::dist::{DistOracle, DistOracleOpts};
use crate::engine::fragment::{compile, BinKind, FragmentQuery, UnsupportedReason};
use crate::engine::naive::NaiveEngine;
use crate::error::{ApplyError, InvalidInput, PrepareError, QueryError};
use crate::skip::SkipPointers;
use nd_cover::{Cover, KernelIndex};
use nd_graph::budget::{Budget, BudgetExceeded, BudgetTracker, Phase, Resource};
use nd_graph::par::try_parallel_map;
use nd_graph::BfsScratch;
use nd_graph::{ColoredGraph, Vertex};
use nd_logic::ast::{ColorRef, Formula, Query};
use nd_logic::guarded;
use nd_logic::locality::evaluate_unary;
use nd_persist::{
    malformed, parse_container_frames, ContainerWriter, DeferredVerify, MmapFile, PersistError,
    Reader, SectionFrame, SlabCtx, VerifyPolicy, Writer,
};
use nd_update::{dirty_bags, AppliedLog, MutationLog};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Preparation options.
#[derive(Clone, Debug)]
pub struct PrepareOpts {
    /// The paper's pseudo-linearity accuracy `ε`. It must be finite and
    /// positive, and it changes no index byte: the cover and the oracle
    /// store each bag once as a sorted list, with no `ε`-shaped store. So
    /// the coarsened-`ε` rung repeats the Indexed build under a fresh
    /// budget.
    pub epsilon: f64,
    /// Distance-oracle construction knobs.
    pub dist: DistOracleOpts,
    /// Fall back to the naive engine when the query is outside the
    /// fragment (`true`), or report the reason (`false`). Also gates the
    /// budget-degradation rungs of the ladder (see
    /// [`PreparedQuery::prepare`]).
    pub allow_fallback: bool,
    /// Prune backtracking with per-future-position extendability checks.
    pub extendability_check: bool,
    /// Resource caps for the preprocessing phases. Unlimited by default;
    /// a capped run degrades down the ladder and ultimately returns
    /// [`PrepareError::BudgetExceeded`] instead of hanging.
    pub budget: Budget,
    /// Worker threads for the parallel preprocessing phases (branch
    /// fan-out, unary-list evaluation, per-bag kernels, per-position skip
    /// pointers). `1` = fully sequential (the default); `0` = use the
    /// host's available parallelism. The produced index is identical for
    /// every thread count — the fan-out units are pure functions merged by
    /// input slot, and the shared budget tracker enforces one total cap.
    pub threads: usize,
}

impl Default for PrepareOpts {
    fn default() -> Self {
        PrepareOpts {
            epsilon: 0.5,
            dist: DistOracleOpts::default(),
            allow_fallback: true,
            extendability_check: true,
            budget: Budget::UNLIMITED,
            threads: 1,
        }
    }
}

/// Which rung of the graceful-degradation ladder produced the index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradationRung {
    /// The paper's machinery at the requested `ε`.
    #[default]
    Indexed,
    /// The paper's machinery retried under a fresh budget at a coarser
    /// `ε` after a budget overrun (no index structure depends on `ε`).
    CoarsenedEpsilon,
    /// Naive materialization (budget-checked).
    NaiveFallback,
}

/// Why preparation stepped down from the previous rung.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DegradationReason {
    /// The query is outside the distance-type fragment.
    UnsupportedFragment(UnsupportedReason),
    /// A budget cap interrupted the previous rung.
    BudgetExceeded(BudgetExceeded),
}

/// Why [`PreparedQuery::apply`] fell back to a full re-prepare instead of
/// an in-place repair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// A branch's sentences flipped from false to true: its index
    /// structures were never built (inactive branches are inert), so
    /// there is nothing to repair.
    SentenceActivated { branch: usize },
    /// The index is on the naive rung — a materialized solution list has
    /// no incremental structure.
    NaiveRung,
    /// The dirty-vertex overlay of a distance oracle passed half the
    /// vertex set: per-pair BFS fallbacks would dominate, so rebuilding
    /// the oracle is cheaper than limping on.
    OracleSaturated { radius: u32, dirty: usize, n: usize },
}

/// Update lineage of a prepared index: how many [`PreparedQuery::apply`]
/// epochs it is away from its original prepare, the chained digest of the
/// mutation logs that got it there, and what the latest apply did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateLineage {
    /// Number of applied mutation logs since the original prepare.
    pub epoch: u64,
    /// FNV-chained digest over the applied logs (0 at epoch 0): each
    /// apply folds its log's [`MutationLog::digest`] into the previous
    /// value, so two indexes agree on the digest iff they were produced
    /// by the same log sequence.
    pub log_digest: u64,
    /// Cover bags re-kernelized by the latest apply (0 on rebuild).
    pub repaired_bags: usize,
    /// Whether the latest apply fell back to a full re-prepare.
    pub rebuilt: bool,
    /// The typed reason when `rebuilt` is set.
    pub rebuild_reason: Option<RebuildReason>,
}

/// Sizes of a prepared query's index structures (see
/// [`PreparedQuery::stats`]), plus which degradation rung produced them,
/// the node charges the preparation spent against its budget, and the
/// update lineage. Logical state only: it is persisted with the index and
/// two prepares of the same inputs compare equal. Wall-clock measurements
/// live in [`Timings`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrepareStats {
    /// The ladder rung that produced the index.
    pub rung: DegradationRung,
    /// Why the ladder stepped below [`DegradationRung::Indexed`] (absent
    /// when the first rung succeeded).
    pub degradation_reason: Option<DegradationReason>,
    /// Node-expansion charges accumulated by the successful rung (or, in
    /// the `partial` stats of [`PrepareError::BudgetExceeded`], by the
    /// last rung attempted).
    pub budget_nodes_spent: u64,
    /// Union branches compiled.
    pub branches: usize,
    /// Branches whose sentences held.
    pub active_branches: usize,
    /// Distance oracles built (one per distinct constraint radius/branch).
    pub oracles: usize,
    /// Total vertices materialized across all oracle recursion levels.
    pub oracle_vertices: usize,
    /// Deepest oracle recursion.
    pub oracle_depth: u32,
    /// Bags across all branch covers.
    pub cover_bags: usize,
    /// `Σ|X|` across all branch covers.
    pub cover_total_size: usize,
    /// Maximum cover degree.
    pub cover_degree: usize,
    /// `Σ_j |L_j|` across branches.
    pub unary_list_sizes: usize,
    /// Total tabulated skip-pointer entries.
    pub skip_entries: usize,
    /// Whether any skip table hit its size cap.
    pub skip_truncated: bool,
    /// For the naive engine: the materialized solution count.
    pub naive_solutions: Option<usize>,
    /// Update epoch (0 = the original prepare; see [`UpdateLineage`]).
    pub epoch: u64,
    /// Chained digest of the applied mutation logs (0 at epoch 0).
    pub log_digest: u64,
    /// Cover bags re-kernelized by the latest [`PreparedQuery::apply`].
    pub repaired_bags: usize,
    /// Whether the latest apply fell back to a full re-prepare.
    pub rebuilt: bool,
    /// Why the latest apply rebuilt instead of repairing.
    pub rebuild_reason: Option<RebuildReason>,
}

/// Wall-clock measurements of a prepare and of the latest apply (see
/// [`PreparedQuery::timings`]). Never persisted and never compared: a
/// loaded index reports zeros, and two prepares of the same inputs differ
/// here only.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    /// Wall-clock milliseconds consumed by the rung that produced the
    /// index.
    pub budget_ms_spent: u64,
    /// Resolved worker-thread count the prepare ran with.
    pub threads: usize,
    /// Per-phase wall-clock breakdown, summed across branches (so with a
    /// parallel branch fan-out these behave like CPU time, not elapsed
    /// time): greedy cover construction, …
    pub cover_ms: u64,
    /// … per-bag kernel computation (Lemma 5.7), …
    pub kernel_ms: u64,
    /// … and the skip-pointer closure (Lemma 5.8).
    pub skip_ms: u64,
    /// Wall-clock milliseconds of the latest apply.
    pub update_ms: u64,
}

impl Timings {
    /// What the rung metered by `tracker` spent, before any phase spans.
    fn spent(tracker: &BudgetTracker, threads: usize) -> Timings {
        Timings {
            budget_ms_spent: tracker.elapsed().as_millis() as u64,
            threads,
            ..Timings::default()
        }
    }
}

impl DegradationRung {
    /// Stable machine-readable name (used in JSON and CLI output).
    pub fn name(&self) -> &'static str {
        match self {
            DegradationRung::Indexed => "indexed",
            DegradationRung::CoarsenedEpsilon => "coarsened_epsilon",
            DegradationRung::NaiveFallback => "naive_fallback",
        }
    }
}

impl PrepareStats {
    /// Serde-free JSON rendering (see `nd_graph::json`): one flat object,
    /// stable keys, suitable for bench artifacts and the serving metrics
    /// endpoint. The timing keys are filled from `timings`.
    pub fn to_json(&self, timings: &Timings) -> String {
        use nd_graph::json::JsonObject;
        let mut o = JsonObject::new();
        o.field_str("rung", self.rung.name());
        match &self.degradation_reason {
            Some(r) => o.field_str("degradation_reason", &format!("{r:?}")),
            None => o.field_null("degradation_reason"),
        };
        o.field_u64("budget_nodes_spent", self.budget_nodes_spent)
            .field_u64("budget_ms_spent", timings.budget_ms_spent)
            .field_u64("branches", self.branches as u64)
            .field_u64("active_branches", self.active_branches as u64)
            .field_u64("oracles", self.oracles as u64)
            .field_u64("oracle_vertices", self.oracle_vertices as u64)
            .field_u64("oracle_depth", self.oracle_depth as u64)
            .field_u64("cover_bags", self.cover_bags as u64)
            .field_u64("cover_total_size", self.cover_total_size as u64)
            .field_u64("cover_degree", self.cover_degree as u64)
            .field_u64("unary_list_sizes", self.unary_list_sizes as u64)
            .field_u64("skip_entries", self.skip_entries as u64)
            .field_bool("skip_truncated", self.skip_truncated);
        match self.naive_solutions {
            Some(c) => o.field_u64("naive_solutions", c as u64),
            None => o.field_null("naive_solutions"),
        };
        o.field_u64("threads", timings.threads as u64)
            .field_u64("cover_ms", timings.cover_ms)
            .field_u64("kernel_ms", timings.kernel_ms)
            .field_u64("skip_ms", timings.skip_ms)
            .field_u64("epoch", self.epoch)
            .field_u64("log_digest", self.log_digest)
            .field_u64("repaired_bags", self.repaired_bags as u64)
            .field_bool("rebuilt", self.rebuilt)
            .field_u64("update_ms", timings.update_ms);
        match &self.rebuild_reason {
            Some(r) => o.field_str("rebuild_reason", &format!("{r:?}")),
            None => o.field_null("rebuild_reason"),
        };
        o.finish()
    }
}

/// Which engine backs a prepared query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's machinery, with this many union branches.
    Indexed { branches: usize },
    /// Naive materialization (fallback / baseline).
    Naive,
}

/// A query prepared against a fixed graph (Theorem 2.3's data structure).
///
/// Generic over how the graph is owned: `G` is anything that can lend a
/// [`ColoredGraph`] — a plain `&ColoredGraph` for the classic borrowed
/// use, or an [`Arc<ColoredGraph>`] for a self-contained `Send + Sync`
/// value that serving runtimes (`nd-serve`) can share across threads.
/// Every index structure inside is owned, so the only question is who
/// owns the graph itself.
pub struct PreparedQuery<G: Borrow<ColoredGraph>> {
    g: G,
    arity: usize,
    engine: EngineImpl,
    rung: DegradationRung,
    degradation_reason: Option<DegradationReason>,
    budget_nodes_spent: u64,
    lineage: UpdateLineage,
    /// Top-level timings; the per-phase spans live on the branches.
    timings: Timings,
}

/// A [`PreparedQuery`] that co-owns its graph through an [`Arc`]: fully
/// self-contained, `Send + Sync`, cheap to hand to worker threads.
pub type SharedPreparedQuery = PreparedQuery<Arc<ColoredGraph>>;

enum EngineImpl {
    Indexed(Vec<BranchEngine>),
    Naive(NaiveEngine),
}

impl<G: Borrow<ColoredGraph>> std::fmt::Debug for PreparedQuery<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("arity", &self.arity)
            .field("engine", &self.engine_kind())
            .field("rung", &self.rung)
            .finish_non_exhaustive()
    }
}

/// Reject color references the graph cannot resolve — `eval` and
/// `evaluate_unary` would panic on them far from the input boundary.
fn validate_colors(g: &ColoredGraph, f: &Formula) -> Result<(), PrepareError> {
    match f {
        Formula::Color(ColorRef::Named(name), _) if g.color_by_name(name).is_none() => {
            return Err(PrepareError::InvalidInput(InvalidInput::UnknownColor(
                name.clone(),
            )));
        }
        Formula::Color(ColorRef::Id(i), _) if (*i as usize) >= g.num_colors() => {
            return Err(PrepareError::InvalidInput(InvalidInput::UnknownColorId(*i)));
        }
        Formula::Not(inner) | Formula::Exists(_, inner) | Formula::Forall(_, inner) => {
            validate_colors(g, inner)?
        }
        Formula::And(fs) | Formula::Or(fs) => {
            for sub in fs {
                validate_colors(g, sub)?;
            }
        }
        _ => {}
    }
    Ok(())
}

impl<G: Borrow<ColoredGraph>> PreparedQuery<G> {
    /// Preprocess `q` over `g`. Pseudo-linear for fragment queries;
    /// `O(n^k)`-ish for fallback queries.
    ///
    /// Never panics on malformed input. Runs the graceful-degradation
    /// ladder:
    ///
    /// 1. **Indexed** — the paper's machinery at `opts.epsilon`, within
    ///    `opts.budget`;
    /// 2. **CoarsenedEpsilon** — on a budget overrun, one retry with
    ///    `min(2ε, 1)` and a fresh budget (`ε` changes no index byte, so
    ///    this repeats the Indexed build under the new budget);
    /// 3. **NaiveFallback** — budget-checked materialization, also used
    ///    when the query is outside the fragment;
    /// 4. a typed [`PrepareError`] when every permitted rung fails.
    ///
    /// Rungs 2–3 require `opts.allow_fallback`; with it off, the first
    /// failure is reported directly. The chosen rung and the reason for
    /// any step-down are recorded in [`PreparedQuery::stats`]. Relational
    /// atoms never fall back (naive evaluation cannot interpret them over
    /// a colored graph): they always yield
    /// [`PrepareError::UnsupportedFragment`].
    pub fn prepare(g: G, q: &Query, opts: &PrepareOpts) -> Result<PreparedQuery<G>, PrepareError> {
        if !(opts.epsilon.is_finite() && opts.epsilon > 0.0) {
            return Err(PrepareError::InvalidInput(InvalidInput::BadEpsilon(
                opts.epsilon,
            )));
        }
        let gr = g.borrow();
        validate_colors(gr, &q.formula)?;
        let threads = nd_graph::resolve_threads(opts.threads);

        let branches = match compile(q) {
            Ok(branches) => branches,
            Err(reason @ UnsupportedReason::RelationalAtom(_)) => {
                return Err(PrepareError::UnsupportedFragment(reason))
            }
            Err(reason) if opts.allow_fallback => {
                let tracker = opts.budget.start();
                return match NaiveEngine::try_prepare(gr, q, &tracker) {
                    Ok(n) => Ok(Self::from_naive(
                        g,
                        q.arity(),
                        n,
                        DegradationReason::UnsupportedFragment(reason),
                        &tracker,
                        threads,
                    )),
                    Err(e) => Err(Self::budget_error(e, 0, &tracker)),
                };
            }
            Err(reason) => return Err(PrepareError::UnsupportedFragment(reason)),
        };

        // Rung 1: indexed at the requested ε.
        let tracker = opts.budget.start();
        let exceeded = match Self::try_indexed(gr, &branches, opts, opts.epsilon, &tracker) {
            Ok(engines) => {
                return Ok(PreparedQuery {
                    arity: q.arity(),
                    engine: EngineImpl::Indexed(engines),
                    rung: DegradationRung::Indexed,
                    degradation_reason: None,
                    budget_nodes_spent: tracker.nodes_spent(),
                    lineage: UpdateLineage::default(),
                    timings: Timings::spent(&tracker, threads),
                    g,
                })
            }
            Err(e) => e,
        };

        // Rung 2: coarser ε, fresh budget (skipped when ε is already ≥ 1,
        // where coarsening buys nothing).
        let coarse = (opts.epsilon * 2.0).min(1.0);
        if opts.allow_fallback && coarse > opts.epsilon {
            let tracker2 = opts.budget.start();
            if let Ok(engines) = Self::try_indexed(gr, &branches, opts, coarse, &tracker2) {
                return Ok(PreparedQuery {
                    arity: q.arity(),
                    engine: EngineImpl::Indexed(engines),
                    rung: DegradationRung::CoarsenedEpsilon,
                    degradation_reason: Some(DegradationReason::BudgetExceeded(exceeded)),
                    budget_nodes_spent: tracker2.nodes_spent(),
                    lineage: UpdateLineage::default(),
                    timings: Timings::spent(&tracker2, threads),
                    g,
                });
            }
        }

        // Rung 3: budget-checked naive materialization.
        if opts.allow_fallback {
            let tracker3 = opts.budget.start();
            return match NaiveEngine::try_prepare(gr, q, &tracker3) {
                Ok(n) => Ok(Self::from_naive(
                    g,
                    q.arity(),
                    n,
                    DegradationReason::BudgetExceeded(exceeded),
                    &tracker3,
                    threads,
                )),
                Err(e) => Err(Self::budget_error(e, branches.len(), &tracker3)),
            };
        }
        Err(Self::budget_error(exceeded, branches.len(), &tracker))
    }

    /// Prepare every union branch, fanned across `opts.threads` workers.
    /// Branches only read the immutable graph and their own compiled
    /// form, and the merge is by branch index, so the result is identical
    /// to the sequential loop; the shared `tracker` keeps one total
    /// budget across all workers.
    fn try_indexed(
        g: &ColoredGraph,
        branches: &[FragmentQuery],
        opts: &PrepareOpts,
        epsilon: f64,
        tracker: &BudgetTracker,
    ) -> Result<Vec<BranchEngine>, BudgetExceeded> {
        try_parallel_map(opts.threads, branches, |_, fq| {
            BranchEngine::try_prepare(g, fq.clone(), opts, epsilon, tracker)
        })
    }

    fn from_naive(
        g: G,
        arity: usize,
        n: NaiveEngine,
        reason: DegradationReason,
        tracker: &BudgetTracker,
        threads: usize,
    ) -> PreparedQuery<G> {
        PreparedQuery {
            g,
            arity,
            engine: EngineImpl::Naive(n),
            rung: DegradationRung::NaiveFallback,
            degradation_reason: Some(reason),
            budget_nodes_spent: tracker.nodes_spent(),
            lineage: UpdateLineage::default(),
            timings: Timings::spent(tracker, threads),
        }
    }

    /// Build the `BudgetExceeded` error with partial stats — the spend of
    /// the last rung attempted, so callers can see how far preparation got.
    fn budget_error(
        exceeded: BudgetExceeded,
        branches: usize,
        tracker: &BudgetTracker,
    ) -> PrepareError {
        let partial = Box::new(PrepareStats {
            branches,
            degradation_reason: Some(DegradationReason::BudgetExceeded(exceeded.clone())),
            budget_nodes_spent: tracker.nodes_spent(),
            ..PrepareStats::default()
        });
        PrepareError::BudgetExceeded { exceeded, partial }
    }

    /// Which engine ended up backing the query.
    pub fn engine_kind(&self) -> EngineKind {
        match &self.engine {
            EngineImpl::Indexed(bs) => EngineKind::Indexed { branches: bs.len() },
            EngineImpl::Naive(_) => EngineKind::Naive,
        }
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The graph this query was prepared against.
    pub fn graph(&self) -> &ColoredGraph {
        self.g.borrow()
    }

    /// Sizes of the preprocessed structures (index observability; used by
    /// the experiment harness to verify pseudo-linearity).
    pub fn stats(&self) -> PrepareStats {
        let mut s = PrepareStats {
            rung: self.rung,
            degradation_reason: self.degradation_reason.clone(),
            budget_nodes_spent: self.budget_nodes_spent,
            epoch: self.lineage.epoch,
            log_digest: self.lineage.log_digest,
            repaired_bags: self.lineage.repaired_bags,
            rebuilt: self.lineage.rebuilt,
            rebuild_reason: self.lineage.rebuild_reason.clone(),
            ..PrepareStats::default()
        };
        match &self.engine {
            EngineImpl::Naive(n) => {
                s.naive_solutions = Some(n.count());
            }
            EngineImpl::Indexed(bs) => {
                s.branches = bs.len();
                for b in bs {
                    s.active_branches += b.active as usize;
                    s.oracles += b.oracles.len();
                    for o in b.oracles.values() {
                        let os = o.stats();
                        s.oracle_vertices += os.total_vertices;
                        s.oracle_depth = s.oracle_depth.max(os.depth);
                    }
                    if let Some(c) = &b.cover {
                        s.cover_bags += c.num_bags();
                        s.cover_total_size += c.total_bag_size();
                        s.cover_degree = s.cover_degree.max(c.degree());
                    }
                    s.unary_list_sizes += b.unary_lists.iter().map(|l| l.len()).sum::<usize>();
                    for sp in b.skips.iter().flatten() {
                        s.skip_entries += sp.table_len();
                        s.skip_truncated |= sp.truncated();
                    }
                }
            }
        }
        s
    }

    /// Wall-clock timings of the prepare that built this index (summed
    /// over branches per phase) and of the latest apply. All zero after a
    /// load: timings are never persisted.
    pub fn timings(&self) -> Timings {
        let mut t = self.timings;
        if let EngineImpl::Indexed(bs) = &self.engine {
            for b in bs {
                t.cover_ms += b.timings.cover_ms;
                t.kernel_ms += b.timings.kernel_ms;
                t.skip_ms += b.timings.skip_ms;
            }
        }
        t
    }

    /// **Corollary 2.4**: is `tuple` a solution? Constant time. Rejects
    /// mis-sized or out-of-range probes with a typed error.
    pub fn try_test(&self, tuple: &[Vertex]) -> Result<bool, QueryError> {
        let g = self.g.borrow();
        if tuple.len() != self.arity {
            return Err(QueryError::ArityMismatch {
                expected: self.arity,
                got: tuple.len(),
            });
        }
        if let Some(&v) = tuple.iter().find(|&&v| (v as usize) >= g.n()) {
            return Err(QueryError::VertexOutOfRange { v, n: g.n() });
        }
        Ok(match &self.engine {
            EngineImpl::Indexed(bs) => bs.iter().any(|b| b.test_tuple(g, tuple)),
            EngineImpl::Naive(n) => n.test(tuple),
        })
    }

    /// Panicking convenience over [`PreparedQuery::try_test`] for
    /// pre-validated tuples.
    pub fn test(&self, tuple: &[Vertex]) -> bool {
        self.try_test(tuple).expect("invalid probe tuple")
    }

    /// **Theorem 2.3**: the lexicographically smallest solution `≥ from`,
    /// or `None`. Rejects a mis-sized probe with a typed error
    /// (out-of-range components are fine: they just mean "no successor"
    /// in that subrange).
    pub fn try_next_solution(&self, from: &[Vertex]) -> Result<Option<Vec<Vertex>>, QueryError> {
        if from.len() != self.arity {
            return Err(QueryError::ArityMismatch {
                expected: self.arity,
                got: from.len(),
            });
        }
        let g = self.g.borrow();
        Ok(match &self.engine {
            EngineImpl::Indexed(bs) => {
                let candidates = bs.iter().filter_map(|b| b.next_solution(g, from));
                #[cfg(feature = "sabotage")]
                if crate::sabotage::flip_lex() {
                    return Ok(candidates.max());
                }
                candidates.min()
            }
            EngineImpl::Naive(n) => n.next_solution(from),
        })
    }

    /// Panicking convenience over [`PreparedQuery::try_next_solution`].
    pub fn next_solution(&self, from: &[Vertex]) -> Option<Vec<Vertex>> {
        self.try_next_solution(from).expect("invalid probe tuple")
    }

    /// **Corollary 2.5**: enumerate `q(G)` in increasing lexicographic
    /// order with constant delay.
    pub fn enumerate(&self) -> Enumerate<'_, G> {
        let first = if self.g.borrow().n() == 0 && self.arity > 0 {
            None
        } else {
            self.next_solution(&vec![0; self.arity])
        };
        Enumerate {
            pq: self,
            next: first,
        }
    }

    /// Enumerate `q(G)` starting from the lexicographically smallest
    /// solution `≥ from`. `enumerate_from(&[0; k])` is equivalent to
    /// [`PreparedQuery::enumerate`]. Rejects a mis-sized probe with a
    /// typed error.
    pub fn enumerate_from(&self, from: &[Vertex]) -> Result<Enumerate<'_, G>, QueryError> {
        let first = if self.g.borrow().n() == 0 && self.arity > 0 {
            // Still validate the probe shape for a consistent contract.
            if from.len() != self.arity {
                return Err(QueryError::ArityMismatch {
                    expected: self.arity,
                    got: from.len(),
                });
            }
            None
        } else {
            self.try_next_solution(from)?
        };
        Ok(Enumerate {
            pq: self,
            next: first,
        })
    }

    /// One page of enumeration: up to `limit` solutions `≥ from`, in
    /// lexicographic order. The serving layer's unit of work — a caller
    /// can resume with `lex_increment(last_of_page)` as the next `from`.
    pub fn page(&self, from: &[Vertex], limit: usize) -> Result<Vec<Vec<Vertex>>, QueryError> {
        Ok(self.enumerate_from(from)?.take(limit).collect())
    }

    /// Count all solutions. Pseudo-linear for single-branch fragment
    /// queries whose constraint components have ≤ 2 positions (the
    /// Grohe–Schweikardt counting claim for our fragment — see
    /// `engine::counting`); enumeration-based otherwise.
    pub fn count(&self) -> usize {
        if let EngineImpl::Indexed(bs) = &self.engine {
            if let [branch] = bs.as_slice() {
                if let Some(c) = branch.fast_count(self.g.borrow()) {
                    return c as usize;
                }
            }
        }
        if let EngineImpl::Naive(n) = &self.engine {
            return n.count();
        }
        self.enumerate().count()
    }

    /// The lexicographic successor tuple over `[0, n)^k`, or `None` at the
    /// top. Public so paging clients (`nd-serve`) can resume enumeration
    /// after the last solution of a page.
    pub fn lex_increment(&self, t: &[Vertex]) -> Option<Vec<Vertex>> {
        let n = self.g.borrow().n() as Vertex;
        let mut out = t.to_vec();
        for i in (0..out.len()).rev() {
            if out[i] + 1 < n {
                out[i] += 1;
                return Some(out);
            }
            out[i] = 0;
        }
        None
    }

    /// Update lineage: epoch distance from the original prepare, chained
    /// log digest, and what the latest [`PreparedQuery::apply`] did.
    pub fn lineage(&self) -> &UpdateLineage {
        &self.lineage
    }

    /// **Incremental maintenance**: apply a mutation log and return a new
    /// prepared query over the mutated graph, answering exactly like a
    /// fresh prepare of that graph would.
    ///
    /// The repair path (clone-then-patch, `self` untouched):
    ///
    /// * sentences and unary lists are re-evaluated on the new graph
    ///   (they are cheap full passes);
    /// * distance oracles stay as built. An additions-only log leaves
    ///   every tabulated answer valid as a lower bound (insertions only
    ///   shrink distances) and installs a per-radius *insertion patch* —
    ///   exact distance tables from the touched endpoints — for the
    ///   newly-close pairs; a log with deletions instead puts every
    ///   vertex whose `d`-ball may have changed (within `d` of a flipped
    ///   edge's endpoint, in the old or the new graph) into a
    ///   *dirty-vertex overlay* answered by capped BFS on the new graph;
    /// * the cover is repaired ([`nd_cover::Cover::repair`]), dirty bags —
    ///   those containing a flipped edge's endpoint, plus freshly spawned
    ///   ones — are re-kernelized ([`nd_cover::KernelIndex::repair`]), and
    ///   the skip tables evict entries invalidated by kernel or list
    ///   changes ([`SkipPointers::repair`]).
    ///
    /// When a mutation invalidates the whole index — the naive rung, a
    /// sentence flipping a dormant branch active, or an oracle overlay
    /// saturating — the call falls back to a full re-prepare of `query`
    /// (which must be the query this index was prepared for) under
    /// `opts`, and records the typed [`RebuildReason`] in the stats.
    /// Either way the result's [`UpdateLineage`] advances one epoch.
    pub fn apply(
        &self,
        log: &MutationLog,
        query: &Query,
        opts: &PrepareOpts,
    ) -> Result<SharedPreparedQuery, ApplyError> {
        let t0 = Instant::now();
        if query.arity() != self.arity {
            return Err(ApplyError::QueryMismatch);
        }
        if let EngineImpl::Indexed(bs) = &self.engine {
            match compile(query) {
                Ok(branches) if branches.len() == bs.len() => {}
                _ => return Err(ApplyError::QueryMismatch),
            }
        }
        let old_g = self.g.borrow();
        let AppliedLog {
            graph,
            added_edges,
            removed_edges,
            edge_touched,
            ..
        } = log.apply_to(old_g).map_err(ApplyError::Update)?;
        let new_g = Arc::new(graph);
        let mut lineage = UpdateLineage {
            epoch: self.lineage.epoch + 1,
            log_digest: chain_digest(self.lineage.log_digest, log.digest()),
            ..UpdateLineage::default()
        };

        let rebuild = |mut lineage: UpdateLineage,
                       reason: RebuildReason|
         -> Result<SharedPreparedQuery, ApplyError> {
            let mut pq = PreparedQuery::prepare(Arc::clone(&new_g), query, opts)
                .map_err(ApplyError::Prepare)?;
            lineage.rebuilt = true;
            lineage.rebuild_reason = Some(reason);
            pq.lineage = lineage;
            pq.timings.update_ms = t0.elapsed().as_millis() as u64;
            Ok(pq)
        };

        let bs = match &self.engine {
            EngineImpl::Naive(_) => return rebuild(lineage, RebuildReason::NaiveRung),
            EngineImpl::Indexed(bs) => bs,
        };
        let mut new_bs = Vec::with_capacity(bs.len());
        for (bi, b) in bs.iter().enumerate() {
            let diff = LogFootprint {
                added_edges: &added_edges,
                removed_edges: &removed_edges,
                edge_touched: &edge_touched,
            };
            match b.repaired(bi, old_g, &new_g, &diff) {
                Ok((eng, bags)) => {
                    lineage.repaired_bags += bags;
                    new_bs.push(eng);
                }
                Err(reason) => return rebuild(lineage, reason),
            }
        }
        Ok(PreparedQuery {
            g: new_g,
            arity: self.arity,
            engine: EngineImpl::Indexed(new_bs),
            rung: self.rung,
            degradation_reason: self.degradation_reason.clone(),
            budget_nodes_spent: self.budget_nodes_spent,
            lineage,
            timings: Timings {
                update_ms: t0.elapsed().as_millis() as u64,
                ..self.timings
            },
        })
    }
}

/// Fold a log digest into the chained lineage digest (FNV-1a over the
/// 16 little-endian bytes of the pair).
fn chain_digest(prev: u64, log: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in prev.to_le_bytes().into_iter().chain(log.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Streaming enumeration in lexicographic order.
///
/// A well-behaved std iterator: [`Iterator::size_hint`] is exact whenever
/// the remaining count is knowable in constant time (exhausted, or a
/// Boolean query), and the iterator is [fused](std::iter::FusedIterator)
/// — once `next` returns `None` it returns `None` forever, so it composes
/// with `chain`/`zip`/`take_while` without a defensive [`Iterator::fuse`].
pub struct Enumerate<'a, G: Borrow<ColoredGraph>> {
    pq: &'a PreparedQuery<G>,
    next: Option<Vec<Vertex>>,
}

impl<G: Borrow<ColoredGraph>> Iterator for Enumerate<'_, G> {
    type Item = Vec<Vertex>;

    fn next(&mut self) -> Option<Vec<Vertex>> {
        let cur = self.next.take()?;
        if self.pq.arity == 0 {
            // A true sentence has exactly one (empty) solution.
            self.next = None;
            return Some(cur);
        }
        self.next = self
            .pq
            .lex_increment(&cur)
            .and_then(|succ| self.pq.next_solution(&succ));
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.next {
            // Exhausted: exactly zero remaining.
            None => (0, Some(0)),
            // Boolean query with a buffered solution: exactly one.
            Some(_) if self.pq.arity == 0 => (1, Some(1)),
            // One solution buffered; the tail length is unknown without
            // enumerating it (counting would break constant delay).
            Some(_) => (1, None),
        }
    }
}

impl<G: Borrow<ColoredGraph>> std::iter::FusedIterator for Enumerate<'_, G> {}

// ---------------------------------------------------------------------
// One branch of the indexed engine.
// ---------------------------------------------------------------------

/// One branch of the indexed engine. Owns every index structure; the
/// graph itself is passed into each method by the `PreparedQuery`
/// front-end, so the branch carries no lifetime and the whole engine can
/// be owned by an `Arc`-backed snapshot.
#[derive(Clone)]
struct BranchEngine {
    fq: FragmentQuery,
    /// All sentences hold (otherwise the branch is empty and inert).
    active: bool,
    /// One distance oracle per distinct constraint radius `≥ 1`.
    oracles: HashMap<u32, DistOracle>,
    /// Dirty-vertex overlays accumulated by [`PreparedQuery::apply`]: for
    /// radius `d`, vertices whose `d`-ball may differ from what the
    /// oracle tabulated. Pairs touching the overlay are answered by a
    /// capped BFS on the live graph. Empty until the first apply.
    overlays: HashMap<u32, OracleOverlay>,
    /// Insertion patches accumulated by additions-only applies: per
    /// radius, exact distance tables from addition-touched vertices that
    /// answer "newly within `d`" pairs the tabulated oracle predates.
    /// Empty until the first additions-only apply.
    patches: HashMap<u32, OraclePatch>,
    /// `2r`-cover (present iff some constraint is `Le` or `Gt`).
    cover: Option<Cover>,
    /// `r`-kernels of the cover bags (present iff some constraint is `Gt`).
    kernels: Option<KernelIndex>,
    /// Sorted `L_j` per position.
    /// Per-position sorted unary candidate lists. [`nd_persist::Slab`]s:
    /// file-backed after a mapped load, owned after any re-evaluation.
    unary_lists: Vec<nd_persist::Slab<Vertex>>,
    /// Membership bitsets per position.
    unary_bits: Vec<Vec<bool>>,
    /// Skip pointers per position (present iff the position has a far
    /// constraint).
    skips: Vec<Option<SkipPointers>>,
    extend_check: bool,
    /// Per-phase build-time breakdown for this branch (never persisted).
    timings: PhaseTimings,
}

/// Wall-clock spent in each index-construction phase of one branch.
#[derive(Clone, Copy, Debug, Default)]
struct PhaseTimings {
    cover_ms: u64,
    kernel_ms: u64,
    skip_ms: u64,
}

/// A distance oracle's dirty-vertex set after mutations: a bitmap for the
/// O(1) hot-path check plus the dirty count for the saturation heuristic.
#[derive(Clone, Default)]
struct OracleOverlay {
    bits: Vec<bool>,
    count: usize,
}

impl OracleOverlay {
    fn grow(&mut self, n: usize) {
        if self.bits.len() < n {
            self.bits.resize(n, false);
        }
    }

    fn mark(&mut self, v: Vertex) {
        let slot = &mut self.bits[v as usize];
        if !*slot {
            *slot = true;
            self.count += 1;
        }
    }

    fn is_dirty(&self, v: Vertex) -> bool {
        self.bits.get(v as usize).copied().unwrap_or(true)
    }

    /// Sorted dirty-vertex list (the persisted form).
    fn sorted(&self) -> Vec<Vertex> {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as Vertex))
            .collect()
    }

    fn from_sorted(list: &[Vertex], n: usize) -> OracleOverlay {
        let mut ov = OracleOverlay::default();
        ov.grow(n);
        for &v in list {
            ov.mark(v);
        }
        ov
    }
}

/// Accumulated insertion-patch sources per oracle radius, capped so the
/// per-pair `through` scan stays constant-time. Past the cap the apply
/// falls back to a rebuild (reported as oracle saturation).
const PATCH_SOURCE_CAP: usize = 64;

/// Insertion patch for one oracle radius: edge insertions can only
/// *shrink* distances, and any strictly-shorter path passes through an
/// endpoint of an inserted edge. So for additions-only mutation logs the
/// tabulated oracle stays authoritative for "already within `d`", and
/// this patch — exact current-graph distance tables BFS'd from every
/// addition-touched vertex — answers the "newly within `d`" side in
/// `O(|sources|)` per pair. No dirty region, no saturation: a radius-`d`
/// ball can be a constant fraction of a dense graph, but the patch never
/// looks at balls, only at the handful of touched vertices.
///
/// Tables hold distances on the *current* graph — they are recomputed
/// against the newest graph on every apply (and on load; only `sources`
/// persists), which keeps them exact across chained applies: a later
/// deletion that would invalidate a table entry also dirties, via the
/// overlay of that apply, every vertex whose answers could depend on it.
#[derive(Clone, Default)]
struct OraclePatch {
    /// Sorted addition-touched vertices (the persisted form).
    sources: Vec<Vertex>,
    /// `tables[i][v]`: exact current-graph distance from `sources[i]` to
    /// `v`, or [`nd_graph::bfs::UNREACHED`] beyond the patch radius.
    tables: Vec<Vec<u32>>,
}

impl OraclePatch {
    /// Merge newly touched vertices into the source set (sorted, deduped).
    fn add_sources(&mut self, vs: &[Vertex]) {
        self.sources.extend_from_slice(vs);
        self.sources.sort_unstable();
        self.sources.dedup();
    }

    /// Recompute every table against `g`: one depth-`d` BFS per source.
    fn rebuild_tables(&mut self, g: &ColoredGraph, d: u32, scratch: &mut BfsScratch) {
        self.tables.clear();
        for &s in &self.sources {
            scratch.run_multi(g, &[s], d);
            let mut dist = vec![nd_graph::bfs::UNREACHED; g.n()];
            for &v in scratch.reached() {
                dist[v as usize] = scratch.dist(v);
            }
            self.tables.push(dist);
        }
    }

    /// Is there a path `a … s … b` of length ≤ `d` through some source?
    fn through(&self, a: Vertex, b: Vertex, d: u32) -> bool {
        self.tables
            .iter()
            .any(|t| t[a as usize].saturating_add(t[b as usize]) <= d)
    }
}

/// The edge-level footprint of an [`AppliedLog`], as [`BranchEngine::repaired`]
/// consumes it (borrowed — the log keeps ownership).
struct LogFootprint<'a> {
    added_edges: &'a [(Vertex, Vertex)],
    removed_edges: &'a [(Vertex, Vertex)],
    edge_touched: &'a [Vertex],
}

impl BranchEngine {
    fn try_prepare(
        g: &ColoredGraph,
        fq: FragmentQuery,
        opts: &PrepareOpts,
        epsilon: f64,
        tracker: &BudgetTracker,
    ) -> Result<BranchEngine, BudgetExceeded> {
        let n = g.n();
        // Step 1: sentences (the ξ analogues). Independence sentences get
        // the fast scattered-set decision of Theorem 5.4's toolbox; other
        // sentences go to the guarded evaluator. Each check touches
        // the whole vertex set at least once.
        let mut active = true;
        for s in &fq.sentences {
            tracker.charge_nodes(Phase::SentenceCheck, n as u64 + 1)?;
            let holds = if let Some(ind) = crate::independence::recognize(s) {
                let witnesses = evaluate_unary(g, &ind.psi, ind.var);
                crate::independence::holds(g, &ind, &witnesses)
            } else {
                guarded::eval(g, &Query::new(s.clone(), vec![]), &[])
            };
            if !holds {
                active = false;
                break;
            }
        }

        let mut engine = BranchEngine {
            active,
            oracles: HashMap::new(),
            overlays: HashMap::new(),
            patches: HashMap::new(),
            cover: None,
            kernels: None,
            unary_lists: vec![nd_persist::Slab::default(); fq.k],
            unary_bits: vec![Vec::new(); fq.k],
            skips: (0..fq.k).map(|_| None).collect(),
            extend_check: opts.extendability_check,
            timings: PhaseTimings::default(),
            fq,
        };
        if !active {
            return Ok(engine);
        }

        // Step 2: unary lists + bitsets (Unary Theorem substitute). Each
        // position's list is a pure function of (graph, formula), so the
        // positions fan out across the prepare workers.
        let positions: Vec<usize> = (0..engine.fq.k).collect();
        let fq_ref = &engine.fq;
        let unary = try_parallel_map(opts.threads, &positions, |_, &j| {
            tracker.charge_nodes(Phase::UnaryEvaluation, n as u64 + 1)?;
            let list: Vec<Vertex> = match &fq_ref.unary[j] {
                Formula::True => (0..n as Vertex).collect(),
                f => evaluate_unary(g, f, fq_ref.vars[j]),
            };
            tracker.charge_memory(Phase::UnaryEvaluation, 4 * list.len() as u64 + n as u64)?;
            let mut bits = vec![false; n];
            for &v in &list {
                bits[v as usize] = true;
            }
            Ok((list, bits))
        })?;
        for (j, (list, bits)) in unary.into_iter().enumerate() {
            engine.unary_lists[j] = list.into();
            engine.unary_bits[j] = bits;
        }

        // Step 3: distance oracles per distinct radius.
        let mut opts_dist = opts.dist;
        opts_dist.epsilon = epsilon;
        for c in &engine.fq.binary {
            if let BinKind::Le(d) | BinKind::Gt(d) = c.kind {
                if let std::collections::hash_map::Entry::Vacant(slot) = engine.oracles.entry(d) {
                    slot.insert(DistOracle::try_build(g, d, &opts_dist, tracker)?);
                }
            }
        }

        // Step 4: cover, kernels, skip pointers.
        let r = engine.fq.max_radius();
        let needs_cover = engine
            .fq
            .binary
            .iter()
            .any(|c| matches!(c.kind, BinKind::Le(_) | BinKind::Gt(_)));
        let needs_kernels = engine.fq.binary.iter().any(|c| c.kind.excluding());
        if needs_cover {
            let cover = Cover::try_build(g, 2 * r, epsilon, tracker)?;
            engine.timings.cover_ms = cover.build_timings().greedy_ms;
            engine.cover = Some(cover);
        }
        if needs_kernels {
            let cover = engine.cover.as_ref().unwrap();
            let t_kernel = Instant::now();
            let kernels = KernelIndex::try_build_threads(g, cover, r, opts.threads, tracker)?;
            engine.timings.kernel_ms = t_kernel.elapsed().as_millis() as u64;

            // Skip pointers are per-position and independent (each reads
            // the shared kernel index plus its own L_j), so they fan out
            // like the unary lists.
            let t_skip = Instant::now();
            let far_positions: Vec<(usize, usize)> = (0..engine.fq.k)
                .filter_map(|j| {
                    let far_count = engine
                        .fq
                        .constraints_on(j)
                        .filter(|c| c.kind.excluding())
                        .count();
                    (far_count > 0).then_some((j, far_count))
                })
                .collect();
            // Cap the SC closure so expander-like inputs (huge kernel
            // degrees) degrade to scans instead of blowing memory — the
            // pseudo-linear budget of Lemma 5.8.
            let cap = (64 * n).max(1_000_000);
            let unary_lists = &engine.unary_lists;
            let built = try_parallel_map(opts.threads, &far_positions, |_, &(j, far_count)| {
                SkipPointers::try_build_with_cap(
                    n,
                    &kernels,
                    unary_lists[j].to_vec(),
                    far_count,
                    cap,
                    tracker,
                )
            })?;
            for ((j, _), sp) in far_positions.into_iter().zip(built) {
                engine.skips[j] = Some(sp);
            }
            engine.timings.skip_ms = t_skip.elapsed().as_millis() as u64;
            engine.kernels = Some(kernels);
        }
        Ok(engine)
    }

    /// Clone-then-patch repair of one branch against the mutated graph.
    /// Returns the repaired engine plus the number of re-kernelized bags,
    /// or the typed reason a full rebuild is required instead.
    fn repaired(
        &self,
        branch: usize,
        old_g: &ColoredGraph,
        new_g: &ColoredGraph,
        diff: &LogFootprint<'_>,
    ) -> Result<(BranchEngine, usize), RebuildReason> {
        let LogFootprint {
            added_edges,
            removed_edges,
            edge_touched,
        } = *diff;
        let n = new_g.n();

        // Sentences re-check (they read colors and edges, both mutable).
        // false → true means structures were never built for this branch;
        // true → false just deactivates it.
        let mut active = true;
        for s in &self.fq.sentences {
            let holds = if let Some(ind) = crate::independence::recognize(s) {
                let witnesses = evaluate_unary(new_g, &ind.psi, ind.var);
                crate::independence::holds(new_g, &ind, &witnesses)
            } else {
                guarded::eval(new_g, &Query::new(s.clone(), vec![]), &[])
            };
            if !holds {
                active = false;
                break;
            }
        }
        if active && !self.active {
            return Err(RebuildReason::SentenceActivated { branch });
        }
        if !active {
            // Inert branch: drop any structures (they would go stale and
            // fail codec validation), exactly like a fresh prepare of an
            // inactive branch.
            return Ok((
                BranchEngine {
                    fq: self.fq.clone(),
                    active: false,
                    oracles: HashMap::new(),
                    overlays: HashMap::new(),
                    patches: HashMap::new(),
                    cover: None,
                    kernels: None,
                    unary_lists: vec![nd_persist::Slab::default(); self.fq.k],
                    unary_bits: vec![Vec::new(); self.fq.k],
                    skips: (0..self.fq.k).map(|_| None).collect(),
                    extend_check: self.extend_check,
                    timings: self.timings,
                },
                0,
            ));
        }

        let mut eng = self.clone();

        // Unary lists: always a full re-evaluation — any color flip or
        // edge flip can change a guarded unary formula anywhere, and the
        // pass is linear.
        for j in 0..eng.fq.k {
            let list: Vec<Vertex> = match &eng.fq.unary[j] {
                Formula::True => (0..n as Vertex).collect(),
                f => evaluate_unary(new_g, f, eng.fq.vars[j]),
            };
            let mut bits = vec![false; n];
            for &v in &list {
                bits[v as usize] = true;
            }
            eng.unary_lists[j] = list.into();
            eng.unary_bits[j] = bits;
        }

        // Oracle staleness. Two regimes:
        //
        // * Additions only (no net edge deletion): insertions can only
        //   shrink distances, so every tabulated "yes" stays exact and
        //   only "newly within d" pairs need help — which the per-radius
        //   [`OraclePatch`] gives in `O(|sources|)` per pair, with no
        //   dirty region. This is what keeps a single-edge insert cheap
        //   even on dense graphs, where a radius-d ball (and hence a
        //   dirty overlay) would engulf a constant fraction of the
        //   vertex set. Appended vertices predate no tabulation at all,
        //   so they are marked dirty and their pairs BFS.
        //
        // * Deletions present: lost paths can invalidate tabulated
        //   answers anywhere within d of a deleted edge — on the old
        //   graph (lost paths) or the new one (gained ones) — so the
        //   whole touched ball goes into the dirty overlay and its pairs
        //   are answered by capped BFS on the live graph. Overlays
        //   accumulate across applies; past half the vertex set,
        //   per-pair BFS stops being cheap and a rebuild is the honest
        //   answer.
        let mut scratch = BfsScratch::new(n.max(old_g.n()));
        let radii: Vec<u32> = eng.oracles.keys().copied().collect();
        if removed_edges.is_empty() {
            let appended: Vec<Vertex> = edge_touched
                .iter()
                .copied()
                .filter(|&v| (v as usize) >= old_g.n())
                .collect();
            for &d in &radii {
                if !appended.is_empty() {
                    let ov = eng.overlays.entry(d).or_default();
                    ov.grow(n);
                    for &v in &appended {
                        ov.mark(v);
                    }
                }
                if edge_touched.is_empty() {
                    continue;
                }
                let patch = eng.patches.entry(d).or_default();
                patch.add_sources(edge_touched);
                if patch.sources.len() > PATCH_SOURCE_CAP {
                    return Err(RebuildReason::OracleSaturated {
                        radius: d,
                        dirty: patch.sources.len(),
                        n,
                    });
                }
            }
        } else {
            let old_sources: Vec<Vertex> = edge_touched
                .iter()
                .copied()
                .filter(|&v| (v as usize) < old_g.n())
                .collect();
            for &d in &radii {
                let ov = eng.overlays.entry(d).or_default();
                ov.grow(n);
                scratch.run_multi(old_g, &old_sources, d);
                for &v in scratch.reached() {
                    ov.mark(v);
                }
                scratch.run_multi(new_g, edge_touched, d);
                for &v in scratch.reached() {
                    ov.mark(v);
                }
                if ov.count * 2 > n {
                    return Err(RebuildReason::OracleSaturated {
                        radius: d,
                        dirty: ov.count,
                        n,
                    });
                }
            }
        }
        // Patch tables hold *current*-graph distances: recompute against
        // the mutated graph whichever regime ran, so chained applies
        // never see a stale table.
        for (&d, patch) in eng.patches.iter_mut() {
            patch.rebuild_tables(new_g, d, &mut scratch);
        }

        // Cover repair, dirty-bag re-kernelization, skip-table eviction.
        let mut repaired_bags = 0usize;
        let BranchEngine {
            ref mut cover,
            ref mut kernels,
            ref mut skips,
            ref unary_lists,
            ..
        } = eng;
        if let Some(cover) = cover {
            let old_bags = cover.num_bags();
            let report = cover.repair(new_g, added_edges);
            if let Some(kernels) = kernels {
                let dirty = dirty_bags(cover, edge_touched, old_bags);
                let changed = kernels.repair(new_g, cover, &dirty);
                repaired_bags = dirty.len();
                for (j, sp) in skips.iter_mut().enumerate() {
                    if let Some(sp) = sp {
                        sp.repair(n, unary_lists[j].to_vec(), &changed);
                    }
                }
            } else {
                repaired_bags = report.new_bags;
            }
        }
        Ok((eng, repaired_bags))
    }

    /// Pseudo-linear counting (see `engine::counting`).
    fn fast_count(&self, g: &ColoredGraph) -> Option<u64> {
        crate::engine::counting::fast_count(
            g,
            &self.fq,
            self.active,
            &self.unary_lists,
            &self.unary_bits,
        )
    }

    /// `dist(a, b) ≤ d`, mutation-aware: pairs touching a dirty vertex
    /// (whose tabulated ball may be stale after mutations) are answered
    /// by a capped BFS on the live graph; clean pairs hit the oracle,
    /// and a "no" there still consults the insertion patch for paths
    /// through an edge added after the oracle was tabulated.
    fn dist_le(&self, g: &ColoredGraph, d: u32, a: Vertex, b: Vertex) -> bool {
        if let Some(ov) = self.overlays.get(&d) {
            if ov.is_dirty(a) || ov.is_dirty(b) {
                return nd_graph::bfs::within_distance(g, a, b, d);
            }
        }
        if self.oracles[&d].test(a, b) {
            return true;
        }
        self.patches.get(&d).is_some_and(|p| p.through(a, b, d))
    }

    /// Constant-time binary-constraint test.
    fn test_bin(&self, g: &ColoredGraph, kind: BinKind, a: Vertex, b: Vertex) -> bool {
        match kind {
            BinKind::Le(d) => self.dist_le(g, d, a, b),
            BinKind::Gt(d) => !self.dist_le(g, d, a, b),
            BinKind::Edge => g.has_edge(a, b),
            BinKind::NotEdge => !g.has_edge(a, b),
            BinKind::Eq => a == b,
            BinKind::Neq => a != b,
        }
    }

    /// Corollary 2.4 test for this branch.
    fn test_tuple(&self, g: &ColoredGraph, t: &[Vertex]) -> bool {
        self.active
            && (0..self.fq.k).all(|j| self.unary_bits[j][t[j] as usize])
            && self
                .fq
                .binary
                .iter()
                .all(|c| self.test_bin(g, c.kind, t[c.i], t[c.j]))
    }

    /// Unary + prefix-constraint test for a candidate value at position `j`.
    fn test_candidate(&self, g: &ColoredGraph, prefix: &[Vertex], j: usize, b: Vertex) -> bool {
        self.unary_bits[j][b as usize]
            && self
                .fq
                .constraints_on(j)
                .filter(|c| c.i < prefix.len())
                .all(|c| self.test_bin(g, c.kind, prefix[c.i], b))
    }

    /// The Lemma 5.2 primitive: smallest `b ≥ b0` admissible at position
    /// `j ≥ prefix.len()` given the already-fixed prefix (constraints to
    /// unassigned positions are ignored).
    fn next_value(
        &self,
        g: &ColoredGraph,
        prefix: &[Vertex],
        j: usize,
        b0: Vertex,
    ) -> Option<Vertex> {
        if !self.active || (b0 as usize) >= g.n() {
            return None;
        }
        let relevant: Vec<(usize, BinKind)> = self
            .fq
            .constraints_on(j)
            .filter(|c| c.i < prefix.len())
            .map(|c| (c.i, c.kind))
            .collect();

        // Pick the tightest confining constraint: Eq ≻ Edge ≻ Le(min d).
        if let Some(&(i, _)) = relevant.iter().find(|(_, k)| *k == BinKind::Eq) {
            let cand = prefix[i];
            return (cand >= b0 && self.test_candidate(g, prefix, j, cand)).then_some(cand);
        }
        if let Some(&(i, _)) = relevant.iter().find(|(_, k)| *k == BinKind::Edge) {
            let ns = g.neighbors(prefix[i]);
            let start = ns.partition_point(|&w| w < b0);
            return ns[start..]
                .iter()
                .copied()
                .find(|&w| self.test_candidate(g, prefix, j, w));
        }
        let le_anchor = relevant
            .iter()
            .filter_map(|&(i, k)| match k {
                BinKind::Le(d) => Some((d, i)),
                _ => None,
            })
            .min();
        if let Some((_, i)) = le_anchor {
            // Case II: candidates confined to the anchor's bag; walk its
            // sorted member list by successor steps.
            let cover = self.cover.as_ref().expect("cover built for Le");
            let bag = cover.bag_of(prefix[i]);
            let mut w = cover.successor_in_bag(bag, b0)?;
            loop {
                if self.test_candidate(g, prefix, j, w) {
                    return Some(w);
                }
                w = cover.successor_in_bag(bag, w.checked_add(1)?)?;
            }
        }

        let far_anchors: Vec<Vertex> = relevant
            .iter()
            .filter(|(_, k)| k.excluding())
            .map(|&(i, _)| prefix[i])
            .collect();
        if !far_anchors.is_empty() {
            // Case I: the answer is in some anchor's kernel, or the SKIP
            // jump past all kernels.
            let cover = self.cover.as_ref().expect("cover built for Gt");
            let kernels = self.kernels.as_ref().expect("kernels built for Gt");
            let mut best: Option<Vertex> = None;
            let better = |best: &Option<Vertex>, w: Vertex| best.is_none_or(|b| w < b);

            for &a in &far_anchors {
                let kern = kernels.kernel(cover.bag_of(a));
                let start = kern.partition_point(|&w| w < b0);
                for &w in &kern[start..] {
                    if !better(&best, w) {
                        break;
                    }
                    if self.test_candidate(g, prefix, j, w) {
                        best = Some(w);
                        break;
                    }
                }
            }

            let sp = self.skips[j].as_ref().expect("skips built for Gt");
            let mut bags: Vec<_> = far_anchors.iter().map(|&a| cover.bag_of(a)).collect();
            bags.sort_unstable();
            bags.dedup();
            let mut b = b0;
            while let Some(w) = sp.skip(kernels, b, &bags) {
                if !better(&best, w) {
                    break;
                }
                if self.test_candidate(g, prefix, j, w) {
                    best = Some(w);
                    break;
                }
                // Only filter constraints (≠, ¬E) can reject here; their
                // total rejections are bounded, so this loop is short.
                match w.checked_add(1) {
                    Some(next) if (next as usize) < g.n() => b = next,
                    _ => break,
                }
            }
            return best;
        }

        // Only filters (≠ / ¬E) or no constraints: scan L_j.
        let list = &self.unary_lists[j];
        let start = list.partition_point(|&w| w < b0);
        list[start..]
            .iter()
            .copied()
            .find(|&w| self.test_candidate(g, prefix, j, w))
    }

    /// Can the prefix be extended to a full solution? (Necessary per-future
    /// -position check; prunes backtracking.)
    fn extendable(&self, g: &ColoredGraph, prefix: &[Vertex]) -> bool {
        (prefix.len()..self.fq.k).all(|m| self.next_value(g, prefix, m, 0).is_some())
    }

    /// Theorem 5.1 for this branch: lexicographic backtracking over
    /// `next_value`.
    fn next_solution(&self, g: &ColoredGraph, from: &[Vertex]) -> Option<Vec<Vertex>> {
        if !self.active {
            return None;
        }
        if self.fq.k == 0 {
            return Some(Vec::new());
        }
        if g.n() == 0 {
            return None;
        }
        let mut prefix: Vec<Vertex> = Vec::with_capacity(self.fq.k);
        self.rec(g, from, &mut prefix, true)
    }

    fn rec(
        &self,
        g: &ColoredGraph,
        from: &[Vertex],
        prefix: &mut Vec<Vertex>,
        tight: bool,
    ) -> Option<Vec<Vertex>> {
        let j = prefix.len();
        let lower = if tight { from[j] } else { 0 };
        let mut cand = self.next_value(g, prefix, j, lower);
        while let Some(b) = cand {
            if j + 1 == self.fq.k {
                let mut sol = prefix.clone();
                sol.push(b);
                return Some(sol);
            }
            let now_tight = tight && b == from[j];
            prefix.push(b);
            if !self.extend_check || self.extendable(g, prefix) {
                if let Some(sol) = self.rec(g, from, prefix, now_tight) {
                    return Some(sol);
                }
            }
            prefix.pop();
            cand = b
                .checked_add(1)
                .and_then(|nb| self.next_value(g, prefix, j, nb));
        }
        None
    }
}

// ---------------------------------------------------------------------
// Persistence (DESIGN.md §9): crash-safe save/load of a prepared index.
// ---------------------------------------------------------------------

/// Section tags of the on-disk index container.
const SEC_GRAPH: [u8; 4] = *b"GRPH";
const SEC_QUERY: [u8; 4] = *b"QURY";
const SEC_META: [u8; 4] = *b"META";
const SEC_ENGINE: [u8; 4] = *b"ENGN";

/// Recursion cap for the `BadDisjunct` chain of a stored reason.
const MAX_REASON_DEPTH: u32 = 32;

fn write_phase(w: &mut Writer, p: Phase) {
    w.u8(match p {
        Phase::SentenceCheck => 0,
        Phase::UnaryEvaluation => 1,
        Phase::DistOracle => 2,
        Phase::CoverConstruction => 3,
        Phase::KernelConstruction => 4,
        Phase::SkipClosure => 5,
        // 6 was the retired trie-build phase.
        Phase::NaiveMaterialize => 7,
        Phase::Admission => 8,
    });
}

fn read_phase(r: &mut Reader<'_>) -> Result<Phase, PersistError> {
    Ok(match r.u8("budget phase")? {
        0 => Phase::SentenceCheck,
        1 => Phase::UnaryEvaluation,
        2 => Phase::DistOracle,
        3 => Phase::CoverConstruction,
        4 => Phase::KernelConstruction,
        5 => Phase::SkipClosure,
        7 => Phase::NaiveMaterialize,
        8 => Phase::Admission,
        _ => return Err(malformed("invalid budget phase")),
    })
}

fn write_resource(w: &mut Writer, res: Resource) {
    w.u8(match res {
        Resource::WallClockMs => 0,
        Resource::NodeExpansions => 1,
        Resource::MemoryBytes => 2,
    });
}

fn read_resource(r: &mut Reader<'_>) -> Result<Resource, PersistError> {
    Ok(match r.u8("budget resource")? {
        0 => Resource::WallClockMs,
        1 => Resource::NodeExpansions,
        2 => Resource::MemoryBytes,
        _ => return Err(malformed("invalid budget resource")),
    })
}

fn write_unsupported(w: &mut Writer, u: &UnsupportedReason) {
    match u {
        UnsupportedReason::WideConjunct(s) => {
            w.u8(0);
            w.str(s);
        }
        UnsupportedReason::ComplexBinary(s) => {
            w.u8(1);
            w.str(s);
        }
        UnsupportedReason::BadDisjunct(inner) => {
            w.u8(2);
            write_unsupported(w, inner);
        }
        UnsupportedReason::RelationalAtom(s) => {
            w.u8(3);
            w.str(s);
        }
    }
}

fn read_unsupported(r: &mut Reader<'_>, depth: u32) -> Result<UnsupportedReason, PersistError> {
    if depth > MAX_REASON_DEPTH {
        return Err(malformed("unsupported-reason nesting too deep"));
    }
    Ok(match r.u8("unsupported-reason tag")? {
        0 => UnsupportedReason::WideConjunct(r.str("wide-conjunct detail")?),
        1 => UnsupportedReason::ComplexBinary(r.str("complex-binary detail")?),
        2 => UnsupportedReason::BadDisjunct(Box::new(read_unsupported(r, depth + 1)?)),
        3 => UnsupportedReason::RelationalAtom(r.str("relational-atom detail")?),
        _ => return Err(malformed("invalid unsupported-reason tag")),
    })
}

fn write_degradation_opt(w: &mut Writer, reason: &Option<DegradationReason>) {
    match reason {
        None => w.u8(0),
        Some(DegradationReason::UnsupportedFragment(u)) => {
            w.u8(1);
            write_unsupported(w, u);
        }
        Some(DegradationReason::BudgetExceeded(b)) => {
            w.u8(2);
            write_phase(w, b.phase);
            write_resource(w, b.resource);
            w.u64(b.spent);
            w.u64(b.cap);
        }
    }
}

fn write_rebuild_opt(w: &mut Writer, reason: &Option<RebuildReason>) {
    match reason {
        None => w.u8(0),
        Some(RebuildReason::SentenceActivated { branch }) => {
            w.u8(1);
            w.u64(*branch as u64);
        }
        Some(RebuildReason::NaiveRung) => w.u8(2),
        Some(RebuildReason::OracleSaturated { radius, dirty, n }) => {
            w.u8(3);
            w.u32(*radius);
            w.u64(*dirty as u64);
            w.u64(*n as u64);
        }
    }
}

fn read_rebuild_opt(r: &mut Reader<'_>) -> Result<Option<RebuildReason>, PersistError> {
    Ok(match r.u8("rebuild-reason tag")? {
        0 => None,
        1 => Some(RebuildReason::SentenceActivated {
            branch: r.u64("rebuilt branch")? as usize,
        }),
        2 => Some(RebuildReason::NaiveRung),
        3 => Some(RebuildReason::OracleSaturated {
            radius: r.u32("saturated radius")?,
            dirty: r.u64("saturated dirty count")? as usize,
            n: r.u64("saturated n")? as usize,
        }),
        _ => return Err(malformed("invalid rebuild-reason tag")),
    })
}

fn read_degradation_opt(r: &mut Reader<'_>) -> Result<Option<DegradationReason>, PersistError> {
    Ok(match r.u8("degradation-reason tag")? {
        0 => None,
        1 => Some(DegradationReason::UnsupportedFragment(read_unsupported(
            r, 0,
        )?)),
        2 => Some(DegradationReason::BudgetExceeded(BudgetExceeded {
            phase: read_phase(r)?,
            resource: read_resource(r)?,
            spent: r.u64("budget spent")?,
            cap: r.u64("budget cap")?,
        })),
        _ => return Err(malformed("invalid degradation-reason tag")),
    })
}

impl BranchEngine {
    /// Append the branch's binary encoding to `w`. Oracles are written in
    /// increasing radius order and the skip tables sort their entries, so
    /// the encoding is a pure function of the index value (load → save is
    /// bit-identical).
    fn write_into(&self, w: &mut Writer) {
        w.bool(self.active);
        let mut radii: Vec<u32> = self.oracles.keys().copied().collect();
        radii.sort_unstable();
        w.seq_len(radii.len());
        for d in radii {
            w.u32(d);
            self.oracles[&d].write_into(w);
        }
        match &self.cover {
            None => w.u8(0),
            Some(c) => {
                w.u8(1);
                c.write_into(w);
            }
        }
        match &self.kernels {
            None => w.u8(0),
            Some(k) => {
                w.u8(1);
                k.write_into(w);
            }
        }
        for list in &self.unary_lists {
            w.u32_slab(list);
        }
        for sp in &self.skips {
            match sp {
                None => w.u8(0),
                Some(sp) => {
                    w.u8(1);
                    sp.write_into(w);
                }
            }
        }
        w.bool(self.extend_check);
        let mut overlay_radii: Vec<u32> = self.overlays.keys().copied().collect();
        overlay_radii.sort_unstable();
        w.seq_len(overlay_radii.len());
        for d in overlay_radii {
            w.u32(d);
            w.u32_slice(&self.overlays[&d].sorted());
        }
        // Insertion patches persist as their source lists only: tables
        // are exact current-graph distances, so the loader recomputes
        // them against the decoded graph (a few capped BFS runs).
        let mut patch_radii: Vec<u32> = self.patches.keys().copied().collect();
        patch_radii.sort_unstable();
        w.seq_len(patch_radii.len());
        for d in patch_radii {
            w.u32(d);
            w.u32_slice(&self.patches[&d].sources);
        }
    }

    /// Decode one branch against its recompiled fragment `fq`. Re-checks
    /// every invariant the answering hot path dereferences without a
    /// guard — a hostile payload behind intact CRCs must surface as a
    /// typed error here, never as a panic inside `next_value`.
    fn read_from(
        r: &mut Reader<'_>,
        g: &ColoredGraph,
        fq: FragmentQuery,
    ) -> Result<BranchEngine, PersistError> {
        let n = g.n();
        let active = r.bool("branch active flag")?;
        let num_oracles = r.seq_len(5, "branch oracle count")?;
        let mut oracles = HashMap::new();
        let mut prev: Option<u32> = None;
        for _ in 0..num_oracles {
            let d = r.u32("oracle radius key")?;
            if prev.is_some_and(|p| p >= d) {
                return Err(malformed("oracle radii not strictly increasing"));
            }
            prev = Some(d);
            let oracle = DistOracle::read_from(r, n)?;
            if oracle.radius() != d {
                return Err(malformed("oracle radius does not match its key"));
            }
            oracles.insert(d, oracle);
        }
        let cover = match r.u8("cover presence tag")? {
            0 => None,
            1 => {
                let c = Cover::read_from(r)?;
                if c.n() != n {
                    return Err(malformed("cover vertex count does not match graph"));
                }
                Some(c)
            }
            _ => return Err(malformed("invalid cover presence tag")),
        };
        let kernels = match r.u8("kernel presence tag")? {
            0 => None,
            1 => {
                let Some(c) = &cover else {
                    return Err(malformed("kernels present without a cover"));
                };
                let k = KernelIndex::read_from(r, n)?;
                if k.num_bags() != c.num_bags() {
                    return Err(malformed("kernel count does not match cover bags"));
                }
                Some(k)
            }
            _ => return Err(malformed("invalid kernel presence tag")),
        };
        let mut unary_lists = Vec::with_capacity(fq.k);
        let mut unary_bits = Vec::with_capacity(fq.k);
        for _ in 0..fq.k {
            let list = r.u32_slab_sorted(n as u32, "unary list")?;
            // Under lazy verification the slab's range sweep is skipped, so
            // the bitset fill — which visits every element anyway — is the
            // range check.
            let mut bits = vec![false; n];
            for &v in list.iter() {
                *bits
                    .get_mut(v as usize)
                    .ok_or_else(|| malformed("unary list: element out of range"))? = true;
            }
            unary_lists.push(list);
            unary_bits.push(bits);
        }
        let mut skips = Vec::with_capacity(fq.k);
        for _ in 0..fq.k {
            skips.push(match r.u8("skip presence tag")? {
                0 => None,
                1 => Some(SkipPointers::read_from(r, n)?),
                _ => return Err(malformed("invalid skip presence tag")),
            });
        }
        let extend_check = r.bool("extendability flag")?;
        let num_overlays = r.seq_len(5, "overlay count")?;
        let mut overlays = HashMap::new();
        let mut prev_ov: Option<u32> = None;
        for _ in 0..num_overlays {
            let d = r.u32("overlay radius key")?;
            if prev_ov.is_some_and(|p| p >= d) {
                return Err(malformed("overlay radii not strictly increasing"));
            }
            prev_ov = Some(d);
            if !oracles.contains_key(&d) {
                return Err(malformed("dirty overlay without a matching oracle"));
            }
            let list = r.u32_slice_sorted(n as u32, "overlay dirty list")?;
            overlays.insert(d, OracleOverlay::from_sorted(&list, n));
        }
        let num_patches = r.seq_len(5, "patch count")?;
        let mut patches = HashMap::new();
        let mut prev_pt: Option<u32> = None;
        let mut scratch = BfsScratch::new(n);
        for _ in 0..num_patches {
            let d = r.u32("patch radius key")?;
            if prev_pt.is_some_and(|p| p >= d) {
                return Err(malformed("patch radii not strictly increasing"));
            }
            prev_pt = Some(d);
            if !oracles.contains_key(&d) {
                return Err(malformed("insertion patch without a matching oracle"));
            }
            let sources = r.u32_slice_sorted(n as u32, "patch source list")?;
            if sources.len() > PATCH_SOURCE_CAP {
                return Err(malformed("insertion patch source list over cap"));
            }
            let mut patch = OraclePatch {
                sources,
                tables: Vec::new(),
            };
            patch.rebuild_tables(g, d, &mut scratch);
            patches.insert(d, patch);
        }
        if active {
            for c in &fq.binary {
                if let BinKind::Le(d) | BinKind::Gt(d) = c.kind {
                    if !oracles.contains_key(&d) {
                        return Err(malformed("missing distance oracle for constraint radius"));
                    }
                }
            }
            let needs_cover = fq
                .binary
                .iter()
                .any(|c| matches!(c.kind, BinKind::Le(_) | BinKind::Gt(_)));
            if needs_cover && cover.is_none() {
                return Err(malformed("missing cover for distance constraints"));
            }
            if fq.binary.iter().any(|c| c.kind.excluding()) && kernels.is_none() {
                return Err(malformed("missing kernels for far constraints"));
            }
            for (j, sp) in skips.iter().enumerate() {
                if fq.constraints_on(j).any(|c| c.kind.excluding()) && sp.is_none() {
                    return Err(malformed("missing skip pointers for a far position"));
                }
            }
        }
        Ok(BranchEngine {
            fq,
            active,
            oracles,
            overlays,
            patches,
            cover,
            kernels,
            unary_lists,
            unary_bits,
            skips,
            extend_check,
            timings: PhaseTimings::default(),
        })
    }
}

/// A deserialized index: the prepared query re-attached to the query AST
/// and source text it was saved with. The serving layer needs all three —
/// the engine to answer, the AST for arity/metadata, and the source text
/// for display and for a cold re-prepare fallback.
pub struct LoadedIndex {
    pub prepared: SharedPreparedQuery,
    pub query: Query,
    pub query_src: String,
    /// Bulk-section checksums postponed by a `--verify lazy` mapped load;
    /// `None` after any eager (full or owned) load. The caller decides
    /// when to pay for it — the CLI after the first probe, the serving
    /// session before replying to `load-mmap`.
    pub deferred: Option<DeferredVerify>,
    /// Owned-vs-mapped byte accounting for this load.
    pub stats: LoadStats,
}

/// How the bytes of a loaded container were materialized: served in place
/// out of the mapping versus decoded into owned memory. `bytes_decoded +
/// bytes_mapped == bytes_total` (the summed section payload sizes).
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadStats {
    pub bytes_total: usize,
    pub bytes_mapped: usize,
    pub bytes_decoded: usize,
}

/// Knobs for [`SharedPreparedQuery::load_index_mmap`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MmapLoadOpts {
    /// CRC policy: [`VerifyPolicy::Full`] checksums and structurally
    /// validates everything before returning; [`VerifyPolicy::Lazy`]
    /// defers the bulk-section CRCs into [`LoadedIndex::deferred`].
    pub verify: VerifyPolicy,
    /// Eagerly fault in every page (sequential read) instead of paying
    /// page faults on first probe.
    pub prewarm: bool,
}

impl<G: Borrow<ColoredGraph>> PreparedQuery<G> {
    /// Serialize the index (graph + engine + provenance metadata) into the
    /// versioned, checksummed container of DESIGN.md §9. `query` must be
    /// the query this index was prepared for — its compiled branch
    /// structure is cross-checked against the engine before any byte is
    /// written.
    pub fn save_index_bytes(
        &self,
        query: &Query,
        query_src: &str,
    ) -> Result<Vec<u8>, PersistError> {
        let g = self.g.borrow();
        if query.arity() != self.arity {
            return Err(malformed("query arity does not match the prepared index"));
        }
        if let EngineImpl::Indexed(bs) = &self.engine {
            match compile(query) {
                Ok(branches) if branches.len() == bs.len() => {}
                _ => return Err(malformed("query does not compile to the prepared branches")),
            }
        }
        let mut cw = ContainerWriter::new();

        let mut w = Writer::new();
        g.write_into(&mut w);
        cw.section(SEC_GRAPH, w.into_bytes());

        let mut w = Writer::new();
        nd_logic::codec::write_query(query, &mut w);
        w.str(query_src);
        cw.section(SEC_QUERY, w.into_bytes());

        let mut w = Writer::new();
        w.u64(self.arity as u64);
        w.u8(match self.rung {
            DegradationRung::Indexed => 0,
            DegradationRung::CoarsenedEpsilon => 1,
            DegradationRung::NaiveFallback => 2,
        });
        write_degradation_opt(&mut w, &self.degradation_reason);
        w.u64(self.budget_nodes_spent);
        // Snapshot lineage: which update epoch this index is at, the
        // chained digest of the mutation logs that produced it, and what
        // the latest apply did.
        w.u64(self.lineage.epoch);
        w.u64(self.lineage.log_digest);
        w.u64(self.lineage.repaired_bags as u64);
        w.bool(self.lineage.rebuilt);
        write_rebuild_opt(&mut w, &self.lineage.rebuild_reason);
        cw.section(SEC_META, w.into_bytes());

        let mut w = Writer::new();
        match &self.engine {
            EngineImpl::Indexed(bs) => {
                w.u8(0);
                w.seq_len(bs.len());
                for b in bs {
                    b.write_into(&mut w);
                }
            }
            EngineImpl::Naive(nv) => {
                w.u8(1);
                nv.write_into(&mut w);
            }
        }
        cw.section(SEC_ENGINE, w.into_bytes());

        Ok(cw.finish())
    }

    /// [`PreparedQuery::save_index_bytes`] plus the crash-safe file
    /// protocol: temp file, fsync, atomic rename.
    pub fn save_index(
        &self,
        query: &Query,
        query_src: &str,
        path: &std::path::Path,
    ) -> Result<(), PersistError> {
        let bytes = self.save_index_bytes(query, query_src)?;
        nd_persist::write_file_atomic(path, &bytes)
    }
}

impl SharedPreparedQuery {
    /// Decode an index container. Every section is CRC-checked by the
    /// container layer; every structural invariant of the engine is then
    /// re-validated, so any corruption — truncation, bit flips, or a
    /// forged payload behind valid CRCs — yields a typed error, never a
    /// panic or an engine that panics later.
    pub fn load_index_bytes(bytes: &[u8]) -> Result<LoadedIndex, PersistError> {
        let frames = parse_container_frames(bytes)?;
        let frame = |tag: [u8; 4]| -> Result<SectionFrame<'_>, PersistError> {
            frames
                .iter()
                .find(|f| f.tag == tag)
                .copied()
                .ok_or_else(|| {
                    malformed(format!("missing section {}", String::from_utf8_lossy(&tag)))
                })
        };
        let engine_frame = frame(SEC_ENGINE)?;
        std::thread::scope(|s| {
            // The engine section is the overwhelming bulk of a large
            // index; its CRC pass runs concurrently with decoding. That
            // is sound because every decoder is bounds-checked and
            // typed-error-safe on arbitrary bytes (the chaos suite's
            // invariant) — but nothing decoded may be returned before
            // `verify` has passed, so the checksum result is checked
            // below before the engine value escapes.
            let engine_crc = s.spawn(move || engine_frame.verify());
            let result = Self::load_index_sections(&frame, engine_frame, None);
            match engine_crc.join() {
                Ok(Ok(())) => result,
                Ok(Err(e)) => Err(e),
                Err(_) => Err(malformed("engine checksum verification panicked")),
            }
        })
    }

    /// Load an index by mmapping its container and serving the bulk
    /// arrays (graph CSR, skip tables, oracle assignments and ball grids,
    /// unary lists) straight out of the mapped pages. Small or variable sections (AST,
    /// metadata, cover structure) still decode owned. Falls back to the
    /// owned decode on platforms without mmap. The mapping stays alive for as long as any
    /// decoded structure borrows from it (`Arc`-pinned per slab), and a
    /// later mutation promotes only the touched arrays to owned memory.
    ///
    /// SIGBUS safety: every section length is checked against the mapping
    /// length up front by `parse_container_frames`, and saves go through
    /// the atomic temp-file + rename protocol — a mapped inode is never
    /// truncated in place, so no probe can fault past end-of-file.
    pub fn load_index_mmap(
        path: &std::path::Path,
        opts: &MmapLoadOpts,
    ) -> Result<LoadedIndex, PersistError> {
        let file = match MmapFile::map(path) {
            Ok(f) => Arc::new(f),
            Err(_) if !cfg!(unix) => {
                // No mmap on this platform: owned fallback. A genuinely
                // missing or unreadable file still errors from read_file.
                let bytes = nd_persist::read_file(path)?;
                return Self::load_index_bytes(&bytes);
            }
            Err(e) => return Err(e),
        };
        let frames = parse_container_frames(file.as_slice())?;
        file.advise_willneed();
        if opts.prewarm {
            file.prewarm();
        }
        let mut deferred = DeferredVerify::new();
        for f in &frames {
            // Under lazy verification the two bulk sections skip their
            // up-front CRC pass (that pass would fault in every page);
            // the small sections are always checked before use.
            if opts.verify == VerifyPolicy::Lazy && (f.tag == SEC_GRAPH || f.tag == SEC_ENGINE) {
                deferred.push(&file, f);
            } else {
                f.verify()?;
            }
        }
        let frame = |tag: [u8; 4]| -> Result<SectionFrame<'_>, PersistError> {
            frames
                .iter()
                .find(|f| f.tag == tag)
                .copied()
                .ok_or_else(|| {
                    malformed(format!("missing section {}", String::from_utf8_lossy(&tag)))
                })
        };
        let engine_frame = frame(SEC_ENGINE)?;
        let ctx = SlabCtx {
            file: Arc::clone(&file),
            validate: opts.verify == VerifyPolicy::Full,
        };
        let mut loaded = Self::load_index_sections(&frame, engine_frame, Some(&ctx))?;
        if !deferred.is_empty() {
            loaded.deferred = Some(deferred);
        }
        Ok(loaded)
    }

    /// Reader for one section: zero-copy over the mapping when `slab`
    /// carries it, owned otherwise.
    fn section_reader<'a>(payload: &'a [u8], slab: Option<&SlabCtx>) -> Reader<'a> {
        match slab {
            Some(ctx) => Reader::with_slab(payload, ctx.clone()),
            None => Reader::new(payload),
        }
    }

    fn load_index_sections<'a>(
        frame: &dyn Fn([u8; 4]) -> Result<SectionFrame<'a>, PersistError>,
        engine_frame: SectionFrame<'a>,
        slab: Option<&SlabCtx>,
    ) -> Result<LoadedIndex, PersistError> {
        let mut stats = LoadStats::default();

        let f = frame(SEC_GRAPH)?;
        f.verify()?;
        let mut r = Self::section_reader(f.payload, slab);
        let g = ColoredGraph::read_from(&mut r)?;
        stats.bytes_total += f.payload.len();
        stats.bytes_mapped += r.mapped_bytes();
        r.finish()?;

        let f = frame(SEC_QUERY)?;
        f.verify()?;
        let mut r = Reader::new(f.payload);
        let query = nd_logic::codec::read_query(&mut r)?;
        let query_src = r.str("query source text")?;
        stats.bytes_total += f.payload.len();
        r.finish()?;

        let f = frame(SEC_META)?;
        f.verify()?;
        let mut r = Reader::new(f.payload);
        let arity = r.u64("index arity")? as usize;
        if arity != query.arity() {
            return Err(malformed("stored arity does not match the query"));
        }
        let rung = match r.u8("degradation rung")? {
            0 => DegradationRung::Indexed,
            1 => DegradationRung::CoarsenedEpsilon,
            2 => DegradationRung::NaiveFallback,
            _ => return Err(malformed("invalid degradation rung")),
        };
        let degradation_reason = read_degradation_opt(&mut r)?;
        let budget_nodes_spent = r.u64("budget nodes spent")?;
        let lineage = UpdateLineage {
            epoch: r.u64("update epoch")?,
            log_digest: r.u64("lineage log digest")?,
            repaired_bags: r.u64("repaired bag count")? as usize,
            rebuilt: r.bool("rebuilt flag")?,
            rebuild_reason: read_rebuild_opt(&mut r)?,
        };
        stats.bytes_total += f.payload.len();
        r.finish()?;

        let mut r = Self::section_reader(engine_frame.payload, slab);
        let engine = match r.u8("engine tag")? {
            0 => {
                if rung == DegradationRung::NaiveFallback {
                    return Err(malformed("naive rung with an indexed engine"));
                }
                let branches = compile(&query)
                    .map_err(|_| malformed("stored query does not compile to branches"))?;
                let count = r.seq_len(16, "branch count")?;
                if count != branches.len() {
                    return Err(malformed("stored branch count does not match the query"));
                }
                let mut bs = Vec::with_capacity(count);
                for fq in branches {
                    bs.push(BranchEngine::read_from(&mut r, &g, fq)?);
                }
                EngineImpl::Indexed(bs)
            }
            1 => {
                if rung != DegradationRung::NaiveFallback {
                    return Err(malformed("naive engine without the naive rung"));
                }
                EngineImpl::Naive(NaiveEngine::read_from(&mut r, arity, g.n())?)
            }
            _ => return Err(malformed("invalid engine tag")),
        };
        stats.bytes_total += engine_frame.payload.len();
        stats.bytes_mapped += r.mapped_bytes();
        r.finish()?;
        stats.bytes_decoded = stats.bytes_total - stats.bytes_mapped;

        Ok(LoadedIndex {
            prepared: PreparedQuery {
                g: Arc::new(g),
                arity,
                engine,
                rung,
                degradation_reason,
                budget_nodes_spent,
                lineage,
                timings: Timings::default(),
            },
            query,
            query_src,
            deferred: None,
            stats,
        })
    }

    /// Load an index file written by [`PreparedQuery::save_index`].
    pub fn load_index(path: &std::path::Path) -> Result<LoadedIndex, PersistError> {
        let bytes = nd_persist::read_file(path)?;
        Self::load_index_bytes(&bytes)
    }

    /// The shared graph handle, for runtimes that prepare further queries
    /// over the same graph (e.g. a serving session seeded from a loaded
    /// index).
    pub fn graph_shared(&self) -> Arc<ColoredGraph> {
        Arc::clone(&self.g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_graph::generators;
    use nd_logic::eval::materialize;
    use nd_logic::parse_query;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Full-contract check: enumeration matches naive materialization,
    /// test matches membership, next_solution matches partition points on
    /// random probes.
    fn check_full(g: &ColoredGraph, src: &str, opts: &PrepareOpts, seed: u64) {
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(g, &q, opts).unwrap();
        let want = materialize(g, &q);
        let got: Vec<_> = pq.enumerate().collect();
        assert_eq!(got, want, "enumeration mismatch for {src}");

        let mut rng = StdRng::seed_from_u64(seed);
        let k = q.arity();
        for _ in 0..40 {
            let probe: Vec<Vertex> = (0..k)
                .map(|_| rng.random_range(0..g.n() as Vertex))
                .collect();
            let member = want.binary_search(&probe).is_ok();
            assert_eq!(pq.test(&probe), member, "test({probe:?}) for {src}");
            let idx = want.partition_point(|s| s < &probe);
            assert_eq!(
                pq.next_solution(&probe),
                want.get(idx).cloned(),
                "next_solution({probe:?}) for {src}"
            );
        }
    }

    fn colored(g: ColoredGraph, seed: u64) -> ColoredGraph {
        let g = generators::with_random_colors(g, 2, 0.4, seed);
        // Name the colors Blue/Red for query readability.
        let b = g.color_members(nd_graph::ColorId(0)).to_vec();
        let r = g.color_members(nd_graph::ColorId(1)).to_vec();
        let mut fresh = generators::with_random_colors(
            {
                let mut only_edges = nd_graph::GraphBuilder::new(g.n());
                for (u, v) in g.edges() {
                    only_edges.add_edge(u, v);
                }
                only_edges.build()
            },
            0,
            0.0,
            0,
        );
        fresh.add_color(b, Some("Blue".into()));
        fresh.add_color(r, Some("Red".into()));
        fresh
    }

    fn small_opts() -> PrepareOpts {
        PrepareOpts {
            epsilon: 0.5,
            dist: DistOracleOpts {
                max_rounds: 8,
                naive_threshold: 6,
                ..DistOracleOpts::default()
            },
            allow_fallback: true,
            extendability_check: true,
            budget: Budget::UNLIMITED,
            threads: 1,
        }
    }

    const QUERIES: &[&str] = &[
        // Paper Example 1-A.
        "dist(x,y) <= 2",
        // Paper Example 2.
        "dist(x,y) > 2 && Blue(y)",
        // Paper's ternary example.
        "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)",
        // Mixed close/far.
        "dist(x,y) <= 2 && dist(y,z) > 3 && Red(x)",
        // Edges, inequality, filters.
        "E(x,y) && x != y && Blue(x)",
        "Blue(x) && !E(x,y) && Red(y)",
        // Guarded unary subformulas (parenthesized: a bare quantifier in
        // operand position scopes over the whole rest of the conjunction).
        "(exists u. (E(x,u) && Blue(u))) && dist(x,y) > 2",
        // Union.
        "E(x,y) || (dist(x,y) > 3 && Blue(y))",
        // Equality pin.
        "dist(x,y) <= 1 && x = y",
        // Pure unary product.
        "Blue(x) && Red(y)",
        // Mixed radii far constraints.
        "dist(x,y) > 1 && dist(x,z) > 3 && Red(z)",
    ];

    #[test]
    fn matches_naive_on_random_sparse_graphs() {
        for (gi, base) in [
            generators::random_tree(28, 3),
            generators::grid(5, 5),
            generators::bounded_degree(30, 3, 7),
            generators::cycle(26),
        ]
        .into_iter()
        .enumerate()
        {
            let g = colored(base, gi as u64 + 10);
            for (qi, src) in QUERIES.iter().enumerate() {
                check_full(&g, src, &small_opts(), (gi * 100 + qi) as u64);
            }
        }
    }

    #[test]
    fn all_fragment_queries_use_indexed_engine() {
        let g = colored(generators::grid(4, 4), 5);
        for src in QUERIES {
            let q = parse_query(src).unwrap();
            let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
            assert!(
                matches!(pq.engine_kind(), EngineKind::Indexed { .. }),
                "{src} fell back to naive"
            );
        }
    }

    #[test]
    fn fallback_engine_handles_general_fo() {
        let g = colored(generators::cycle(12), 6);
        // A genuinely non-fragment query: common neighbor.
        let src = "exists u. (E(x,u) && E(u,y)) && x != y";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        assert_eq!(pq.engine_kind(), EngineKind::Naive);
        let want = materialize(&g, &q);
        let got: Vec<_> = pq.enumerate().collect();
        assert_eq!(got, want);

        let mut strict = small_opts();
        strict.allow_fallback = false;
        assert!(PreparedQuery::prepare(&g, &q, &strict).is_err());
    }

    #[test]
    fn boolean_queries() {
        let g = colored(generators::path(10), 1);
        let yes = parse_query("exists x. Blue(x)").unwrap();
        let pq = PreparedQuery::prepare(&g, &yes, &small_opts()).unwrap();
        assert_eq!(
            pq.enumerate().collect::<Vec<_>>(),
            vec![Vec::<Vertex>::new()]
        );
        assert!(pq.test(&[]));

        let no = parse_query("exists x. (Blue(x) && Red(x) && !Blue(x))").unwrap();
        let pq = PreparedQuery::prepare(&g, &no, &small_opts()).unwrap();
        assert_eq!(pq.enumerate().count(), 0);
        assert!(!pq.test(&[]));
    }

    #[test]
    fn unary_queries() {
        let g = colored(generators::random_tree(40, 2), 3);
        check_full(&g, "Blue(x)", &small_opts(), 1);
        check_full(&g, "exists u. (dist(x,u) <= 2 && Red(u))", &small_opts(), 2);
    }

    #[test]
    fn empty_graph_and_no_solutions() {
        let g = generators::path(0);
        let q = parse_query("E(x,y)").unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        assert_eq!(pq.enumerate().count(), 0);

        let mut g1 = generators::path(5);
        g1.add_color(vec![], Some("Blue".into()));
        let q = parse_query("Blue(x) && E(x,y)").unwrap();
        let pq = PreparedQuery::prepare(&g1, &q, &small_opts()).unwrap();
        assert_eq!(pq.enumerate().count(), 0);
        assert_eq!(pq.next_solution(&[0, 0]), None);
    }

    #[test]
    fn enumeration_is_strictly_increasing() {
        let g = colored(generators::grid(6, 6), 9);
        let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let sols: Vec<_> = pq.enumerate().collect();
        for w in sols.windows(2) {
            assert!(w[0] < w[1], "not strictly increasing: {w:?}");
        }
    }

    #[test]
    fn parallel_prepare_is_identical_to_sequential() {
        // The prepared index is the same value for every thread count.
        // Checked across ≥ 3 seeds via (a) stats equality — bag counts,
        // cover sizes, skip entries, charge totals — and (b) full
        // enumeration equality.
        for seed in [11u64, 22, 33] {
            let g = colored(generators::random_tree(60, seed), seed);
            for src in [
                "dist(x,y) > 2 && Blue(y)",
                "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)",
                "E(x,y) || (dist(x,y) > 3 && Blue(y))",
            ] {
                let q = parse_query(src).unwrap();
                let seq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
                let seq_sols: Vec<_> = seq.enumerate().collect();
                for threads in [2usize, 4] {
                    let mut opts = small_opts();
                    opts.threads = threads;
                    let par = PreparedQuery::prepare(&g, &q, &opts).unwrap();
                    assert_eq!(
                        seq.stats(),
                        par.stats(),
                        "stats diverged for {src} seed={seed} threads={threads}"
                    );
                    assert_eq!(par.timings().threads, threads);
                    let par_sols: Vec<_> = par.enumerate().collect();
                    assert_eq!(
                        seq_sols, par_sols,
                        "solutions diverged for {src} seed={seed} threads={threads}"
                    );
                }
            }
        }
    }

    /// Tentpole roundtrip: save → load reproduces bit-identical probe
    /// behavior (enumeration, membership tests, successor probes) and a
    /// bit-identical re-save, across the indexed engine (all fragment
    /// query shapes), the naive fallback, and Boolean queries.
    #[test]
    fn index_save_load_roundtrip() {
        let g = colored(generators::grid(4, 4), 7);
        let extra = [
            // Naive fallback (outside the fragment).
            "exists u. (E(x,u) && E(u,y)) && x != y",
            // Boolean.
            "exists x. Blue(x)",
        ];
        for src in QUERIES.iter().chain(extra.iter()) {
            let q = parse_query(src).unwrap();
            let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
            let bytes = pq.save_index_bytes(&q, src).unwrap();
            let loaded = SharedPreparedQuery::load_index_bytes(&bytes)
                .unwrap_or_else(|e| panic!("load failed for {src}: {e}"));
            assert_eq!(loaded.query_src, *src);
            assert_eq!(loaded.query, q);
            assert_eq!(loaded.prepared.stats(), pq.stats(), "{src}");

            let want: Vec<_> = pq.enumerate().collect();
            let got: Vec<_> = loaded.prepared.enumerate().collect();
            assert_eq!(got, want, "enumeration diverged after load for {src}");
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..25 {
                let probe: Vec<Vertex> = (0..q.arity())
                    .map(|_| rng.random_range(0..g.n() as Vertex))
                    .collect();
                assert_eq!(pq.test(&probe), loaded.prepared.test(&probe), "{src}");
                assert_eq!(
                    pq.next_solution(&probe),
                    loaded.prepared.next_solution(&probe),
                    "{src}"
                );
            }

            let again = loaded
                .prepared
                .save_index_bytes(&loaded.query, &loaded.query_src)
                .unwrap();
            assert_eq!(again, bytes, "re-save not bit-identical for {src}");
        }
    }

    /// There is one on-disk format: a container whose version word is
    /// anything but [`nd_persist::FORMAT_VERSION`] — older generations,
    /// the future, garbage — is refused with `UnsupportedVersion` by the
    /// owned and the mapped loaders under both verify policies, while the
    /// unpatched file loads and re-saves bit-identically.
    #[test]
    fn index_load_accepts_only_the_current_version() {
        let g = colored(generators::grid(4, 4), 7);
        let src = "dist(x,y) > 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let bytes = pq.save_index_bytes(&q, src).unwrap();
        assert_eq!(bytes[8..12], nd_persist::FORMAT_VERSION.to_le_bytes());
        let loaded = SharedPreparedQuery::load_index_bytes(&bytes).unwrap();
        let again = loaded
            .prepared
            .save_index_bytes(&loaded.query, &loaded.query_src)
            .unwrap();
        assert_eq!(again, bytes, "re-save not bit-identical");

        let path = mmap_tmp("version");
        let policies = [VerifyPolicy::Full, VerifyPolicy::Lazy];
        for word in [2u32, 3, 3 | 1 << 16, 4, 6, 0, u32::MAX] {
            let mut c = bytes.clone();
            c[8..12].copy_from_slice(&word.to_le_bytes());
            let want = PersistError::UnsupportedVersion {
                found: word,
                supported: nd_persist::FORMAT_VERSION,
            };
            let got = SharedPreparedQuery::load_index_bytes(&c).err();
            assert_eq!(got, Some(want.clone()), "owned load of {word:#x}");
            std::fs::write(&path, &c).unwrap();
            for verify in policies {
                let opts = MmapLoadOpts {
                    verify,
                    prewarm: false,
                };
                let got = SharedPreparedQuery::load_index_mmap(&path, &opts).err();
                assert_eq!(got, Some(want.clone()), "{verify:?} mmap load of {word:#x}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    fn mmap_tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ndq-prepared-{}-{name}.ndqidx", std::process::id()))
    }

    /// The zero-copy loader serves the same answers as the owned decode,
    /// actually maps the bulk sections, and under lazy verification
    /// defers exactly the bulk CRCs.
    #[test]
    fn index_mmap_load_matches_owned_and_maps_bulk() {
        let g = colored(generators::grid(6, 6), 11);
        let src = "dist(x,y) > 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let want: Vec<_> = pq.enumerate().collect();
        let path = mmap_tmp("roundtrip");
        pq.save_index(&q, src, &path).unwrap();

        let full = SharedPreparedQuery::load_index_mmap(&path, &MmapLoadOpts::default())
            .expect("mmap load (full verify)");
        assert!(full.deferred.is_none(), "full verify must not defer CRCs");
        assert!(
            full.stats.bytes_mapped > 0,
            "bulk sections should be mapped"
        );
        assert_eq!(
            full.stats.bytes_mapped + full.stats.bytes_decoded,
            full.stats.bytes_total,
            "every payload byte is either mapped or decoded"
        );
        let got: Vec<_> = full.prepared.enumerate().collect();
        assert_eq!(got, want, "mmap-loaded answers diverged");
        for probe in &want {
            assert!(full.prepared.test(probe));
        }

        let lazy = SharedPreparedQuery::load_index_mmap(
            &path,
            &MmapLoadOpts {
                verify: VerifyPolicy::Lazy,
                prewarm: true,
            },
        )
        .expect("mmap load (lazy verify)");
        let deferred = lazy.deferred.expect("lazy verify must defer bulk CRCs");
        let got: Vec<_> = lazy.prepared.enumerate().collect();
        assert_eq!(got, want, "lazy mmap-loaded answers diverged");
        deferred
            .verify()
            .expect("deferred CRC pass on a clean file");

        std::fs::remove_file(&path).ok();
    }

    /// A mutation applied to an mmap-backed index promotes the touched
    /// arrays to owned memory (copy-on-write) and keeps answering
    /// identically to the same mutation applied to an owned-decoded
    /// index; the re-save of either is bit-identical.
    #[test]
    fn index_mmap_mutation_promotes_copy_on_write() {
        let g = colored(generators::grid(5, 5), 13);
        let src = "dist(x,y) > 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let path = mmap_tmp("cow");
        pq.save_index(&q, src, &path).unwrap();

        let mapped = SharedPreparedQuery::load_index_mmap(&path, &MmapLoadOpts::default())
            .expect("mmap load");
        let owned = {
            let bytes = nd_persist::read_file(&path).unwrap();
            SharedPreparedQuery::load_index_bytes(&bytes).expect("owned load")
        };

        let log = nd_update::MutationLog::parse("add-edge 0 7\ncolor 3 Red").unwrap();
        let from_mapped = mapped.prepared.apply(&log, &q, &small_opts()).unwrap();
        let from_owned = owned.prepared.apply(&log, &q, &small_opts()).unwrap();
        let a: Vec<_> = from_mapped.enumerate().collect();
        let b: Vec<_> = from_owned.enumerate().collect();
        assert_eq!(
            a, b,
            "CoW-promoted index diverged from owned after mutation"
        );
        assert_eq!(
            from_mapped.save_index_bytes(&q, src).unwrap(),
            from_owned.save_index_bytes(&q, src).unwrap(),
            "re-save after mutation must be bit-identical regardless of backing"
        );

        // The pre-mutation mapped snapshot is untouched and still serves.
        let still: Vec<_> = mapped.prepared.enumerate().collect();
        assert_eq!(still, pq.enumerate().collect::<Vec<_>>());

        std::fs::remove_file(&path).ok();
    }

    /// Lazy verification skips the unary lists' range sweep, so a flipped
    /// bit in one must still surface as a typed error at load (the bitset
    /// fill is the range check) or, where the value stays in range, as
    /// answers that never panic and a deferred checksum that fails.
    #[test]
    fn lazy_mmap_load_survives_unary_list_bit_flips() {
        let g = colored(generators::perturbed_grid(12, 12, 20, 5), 9);
        let src = "dist(x,y) > 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let bytes = pq.save_index_bytes(&q, src).unwrap();

        // The Blue list sits in ENGN as a 16-byte-aligned slab; the first
        // aligned match there is the unary list (skip lists come later).
        let blue = g.color_by_name("Blue").unwrap();
        let want: Vec<u8> = g
            .vertices()
            .filter(|&v| g.has_color(v, blue))
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert!(!want.is_empty());
        let engine = parse_container_frames(&bytes).unwrap()[3];
        assert_eq!(engine.tag, SEC_ENGINE);
        let base = engine.payload.as_ptr() as usize - bytes.as_ptr() as usize;
        let at = base
            + (0..engine.payload.len() - want.len())
                .step_by(16)
                .find(|&i| engine.payload[i..].starts_with(&want))
                .expect("unary list slab in ENGN");

        let path = mmap_tmp("lazy-flip");
        let lazy = MmapLoadOpts {
            verify: VerifyPolicy::Lazy,
            prewarm: false,
        };
        let (mut rejected, mut settled) = (0, 0);
        for bit in 0..8 * want.len() {
            let mut c = bytes.clone();
            c[at + bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &c).unwrap();
            match SharedPreparedQuery::load_index_mmap(&path, &lazy) {
                Err(PersistError::Malformed { .. }) => rejected += 1,
                Err(e) => panic!("bit {bit}: unexpected {e:?}"),
                Ok(loaded) => {
                    let _ = loaded.prepared.enumerate().take(50).count();
                    for v in (0..g.n() as Vertex).step_by(7) {
                        let _ = loaded.prepared.test(&[v, v / 2]);
                        let _ = loaded.prepared.next_solution(&[v, 0]);
                    }
                    let deferred = loaded.deferred.expect("lazy load defers CRCs");
                    assert!(
                        matches!(
                            deferred.verify(),
                            Err(PersistError::ChecksumMismatch { .. })
                        ),
                        "bit {bit}: corrupt ENGN passed the deferred checksum"
                    );
                    settled += 1;
                }
            }
        }
        // High bits push a vertex past n; low bits keep it in range.
        assert!(
            rejected > 0 && settled > 0,
            "{rejected} rejected, {settled} settled"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Under `--verify lazy` a mapped load checks only the lengths of the
    /// bulk arrays before the first probe. Bytes flipped at a stride
    /// across the whole engine section — skip-table rows and values, the
    /// oracle's split-level bag assignments, everything else in ENGN —
    /// must give a typed load error or an index whose probes never panic,
    /// and the deferred settle must still report the corruption.
    #[test]
    fn lazy_mmap_probes_survive_engine_byte_flips() {
        let g = colored(generators::perturbed_grid(10, 10, 15, 5), 9);
        let src = "dist(x,y) > 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        // One split level keeps the oracle, and so the section, small
        // enough to flip densely.
        let opts = PrepareOpts {
            dist: DistOracleOpts {
                max_rounds: 1,
                ..small_opts().dist
            },
            ..small_opts()
        };
        let pq = PreparedQuery::prepare(&g, &q, &opts).unwrap();
        let stats = pq.stats();
        assert!(stats.skip_entries > 0, "the index must hold skip tables");
        assert!(stats.oracle_depth > 0, "the oracle must have a split level");
        let bytes = pq.save_index_bytes(&q, src).unwrap();
        let engine = parse_container_frames(&bytes).unwrap()[3];
        assert_eq!(engine.tag, SEC_ENGINE);
        let base = engine.payload.as_ptr() as usize - bytes.as_ptr() as usize;

        let path = mmap_tmp("lazy-engine-flip");
        let lazy = MmapLoadOpts {
            verify: VerifyPolicy::Lazy,
            prewarm: false,
        };
        let (mut rejected, mut settled) = (0, 0);
        for off in (0..engine.payload.len()).step_by(5) {
            let mut c = bytes.clone();
            c[base + off] ^= 0xa5;
            std::fs::write(&path, &c).unwrap();
            let loaded = match SharedPreparedQuery::load_index_mmap(&path, &lazy) {
                Ok(loaded) => loaded,
                Err(_) => {
                    rejected += 1;
                    continue;
                }
            };
            let panel = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = loaded.prepared.enumerate().take(50).count();
                for v in (0..g.n() as Vertex).step_by(7) {
                    let _ = loaded.prepared.test(&[v, (v * 5) % g.n() as Vertex]);
                    let _ = loaded.prepared.next_solution(&[v, 0]);
                }
            }));
            assert!(panel.is_ok(), "ENGN offset {off}: a probe panicked");
            let deferred = loaded.deferred.expect("lazy load defers CRCs");
            assert!(
                matches!(
                    deferred.verify(),
                    Err(PersistError::ChecksumMismatch { .. })
                ),
                "ENGN offset {off}: corrupt ENGN passed the deferred checksum"
            );
            settled += 1;
        }
        assert!(
            rejected > 0 && settled > 0,
            "{rejected} rejected, {settled} settled"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Chaos: every truncation point and every single-bit flip must
    /// produce a typed error — never a panic, and
    /// never a silently-accepted corrupt index.
    #[test]
    fn index_load_rejects_corruption() {
        let g = colored(generators::grid(4, 4), 3);
        let src = "dist(x,y) > 2 && Blue(y)";
        let q = parse_query(src).unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let bytes = pq.save_index_bytes(&q, src).unwrap();

        for cut in 0..bytes.len() {
            assert!(
                SharedPreparedQuery::load_index_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        for i in 0..bytes.len() {
            let mut c = bytes.clone();
            c[i] ^= 0x40;
            assert!(
                SharedPreparedQuery::load_index_bytes(&c).is_err(),
                "bit flip at {i} accepted"
            );
        }

        // Mismatched save inputs are rejected before writing.
        let other = parse_query("Blue(x)").unwrap();
        assert!(pq.save_index_bytes(&other, "Blue(x)").is_err());
    }

    #[test]
    fn degradation_reason_codec_roundtrip() {
        let reasons = [
            None,
            Some(DegradationReason::UnsupportedFragment(
                UnsupportedReason::BadDisjunct(Box::new(UnsupportedReason::WideConjunct(
                    "three-variable component".into(),
                ))),
            )),
            Some(DegradationReason::UnsupportedFragment(
                UnsupportedReason::RelationalAtom("R".into()),
            )),
            Some(DegradationReason::BudgetExceeded(BudgetExceeded {
                phase: Phase::CoverConstruction,
                resource: Resource::NodeExpansions,
                spent: 7,
                cap: 3,
            })),
        ];
        for reason in &reasons {
            let mut w = Writer::new();
            write_degradation_opt(&mut w, reason);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(&read_degradation_opt(&mut r).unwrap(), reason);
            r.finish().unwrap();
        }
        assert!(read_degradation_opt(&mut Reader::new(&[9])).is_err());
        assert!(read_degradation_opt(&mut Reader::new(&[2, 200])).is_err());
    }

    /// A random valid mutation log against `g`: edge flips, vertex
    /// appends, Removal-Lemma deletions, color flips on Blue/Red.
    fn random_log(g: &ColoredGraph, rng: &mut StdRng, ops: usize) -> nd_update::MutationLog {
        use nd_update::Mutation;
        let mut log = nd_update::MutationLog::new();
        let mut n = g.n() as Vertex;
        let mut removed: Vec<Vertex> = Vec::new();
        let edges: Vec<(Vertex, Vertex)> = g.edges().collect();
        for _ in 0..ops {
            let pick = |rng: &mut StdRng, n: Vertex, removed: &[Vertex]| -> Option<Vertex> {
                (0..20)
                    .map(|_| rng.random_range(0..n))
                    .find(|v| !removed.contains(v))
            };
            match rng.random_range(0..6u32) {
                0 => {
                    if let (Some(u), Some(v)) = (pick(rng, n, &removed), pick(rng, n, &removed)) {
                        if u != v {
                            log.push(Mutation::AddEdge(u, v));
                        }
                    }
                }
                1 => {
                    if !edges.is_empty() {
                        let (u, v) = edges[rng.random_range(0..edges.len())];
                        log.push(Mutation::RemoveEdge(u, v));
                    }
                }
                2 => {
                    log.push(Mutation::AddNode);
                    n += 1;
                }
                3 => {
                    if let Some(v) = pick(rng, n, &removed) {
                        log.push(Mutation::RemoveNode(v));
                        removed.push(v);
                    }
                }
                c => {
                    if let Some(v) = pick(rng, n, &removed) {
                        let name = if c == 4 { "Blue" } else { "Red" };
                        if rng.random_range(0..2u32) == 0 {
                            log.push(Mutation::Color(v, name.into()));
                        } else {
                            log.push(Mutation::Uncolor(v, name.into()));
                        }
                    }
                }
            }
        }
        log
    }

    /// The tentpole contract: a repaired index answers exactly like a
    /// fresh prepare of the mutated graph — enumeration, membership, and
    /// successor probes — across graph families, query shapes, and random
    /// mutation logs, including chained applies.
    #[test]
    fn apply_matches_fresh_prepare_over_random_logs() {
        for (gi, base) in [
            generators::random_tree(30, 3),
            generators::grid(5, 5),
            generators::bounded_degree(28, 3, 7),
        ]
        .into_iter()
        .enumerate()
        {
            let g = colored(base, gi as u64 + 40);
            for (qi, src) in QUERIES.iter().enumerate() {
                let q = parse_query(src).unwrap();
                let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
                let mut rng = StdRng::seed_from_u64((gi * 131 + qi) as u64);

                let log1 = random_log(&g, &mut rng, 6);
                let inc1 = pq.apply(&log1, &q, &small_opts()).unwrap();
                let g1 = log1.apply_to(&g).unwrap().graph;
                let log2 = random_log(&g1, &mut rng, 4);
                let inc2 = inc1.apply(&log2, &q, &small_opts()).unwrap();
                let g2 = log2.apply_to(&g1).unwrap().graph;

                for (step, (inc, gn)) in [(&inc1, &g1), (&inc2, &g2)].into_iter().enumerate() {
                    let fresh = PreparedQuery::prepare(gn, &q, &small_opts()).unwrap();
                    let want: Vec<_> = fresh.enumerate().collect();
                    let got: Vec<_> = inc.enumerate().collect();
                    assert_eq!(got, want, "{src} gi={gi} step={step}");
                    assert_eq!(inc.count(), fresh.count(), "{src} gi={gi} step={step}");
                    for _ in 0..25 {
                        let probe: Vec<Vertex> = (0..q.arity())
                            .map(|_| rng.random_range(0..gn.n() as Vertex))
                            .collect();
                        assert_eq!(inc.test(&probe), fresh.test(&probe), "{src} {probe:?}");
                        assert_eq!(
                            inc.next_solution(&probe),
                            fresh.next_solution(&probe),
                            "{src} {probe:?}"
                        );
                    }
                }
                assert_eq!(inc1.lineage().epoch, 1);
                assert_eq!(inc2.lineage().epoch, 2);
                assert_ne!(inc2.lineage().log_digest, inc1.lineage().log_digest);
            }
        }
    }

    #[test]
    fn apply_rebuild_triggers_are_typed() {
        // Naive rung: nothing to repair.
        let g = colored(generators::cycle(12), 6);
        let q = parse_query("exists u. (E(x,u) && E(u,y)) && x != y").unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let log = nd_update::MutationLog::parse("add-edge 0 6").unwrap();
        let upd = pq.apply(&log, &q, &small_opts()).unwrap();
        let st = upd.stats();
        assert!(st.rebuilt);
        assert_eq!(st.rebuild_reason, Some(RebuildReason::NaiveRung));
        assert_eq!(st.epoch, 1);
        let gn = log.apply_to(&g).unwrap().graph;
        let fresh = PreparedQuery::prepare(&gn, &q, &small_opts()).unwrap();
        assert_eq!(
            upd.enumerate().collect::<Vec<_>>(),
            fresh.enumerate().collect::<Vec<_>>()
        );

        // Sentence flipping false → true: the dormant branch was never
        // built, so the apply must rebuild.
        let mut g = colored(generators::path(8), 2);
        g.add_color(vec![], Some("Mark".into()));
        let q = parse_query("(exists u. Mark(u)) && E(x,y)").unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        assert_eq!(pq.enumerate().count(), 0);
        let log = nd_update::MutationLog::parse("color 3 Mark").unwrap();
        let upd = pq.apply(&log, &q, &small_opts()).unwrap();
        let st = upd.stats();
        assert!(st.rebuilt);
        assert_eq!(
            st.rebuild_reason,
            Some(RebuildReason::SentenceActivated { branch: 0 })
        );
        assert_eq!(upd.enumerate().count(), 2 * 7);

        // … and true → false deactivates in place (no rebuild).
        let log = nd_update::MutationLog::parse("uncolor 3 Mark").unwrap();
        let back = upd.apply(&log, &q, &small_opts()).unwrap();
        assert!(!back.stats().rebuilt);
        assert_eq!(back.enumerate().count(), 0);
        assert_eq!(back.lineage().epoch, 2);

        // An added chord does NOT saturate: insertions ride the patch
        // (dirty region stays empty), even though its radius-3 ball
        // would cover most of this short path.
        let g = colored(generators::path(12), 9);
        let q = parse_query("dist(x,y) <= 3").unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        let log = nd_update::MutationLog::parse("add-edge 0 11").unwrap();
        let upd = pq.apply(&log, &q, &small_opts()).unwrap();
        assert!(!upd.stats().rebuilt, "{:?}", upd.stats().rebuild_reason);
        let gn = log.apply_to(&g).unwrap().graph;
        let fresh = PreparedQuery::prepare(&gn, &q, &small_opts()).unwrap();
        assert_eq!(
            upd.enumerate().collect::<Vec<_>>(),
            fresh.enumerate().collect::<Vec<_>>()
        );

        // Oracle saturation: a *deleted* edge dirties the whole radius-3
        // ball around its endpoints — most of a short path.
        let log = nd_update::MutationLog::parse("remove-edge 5 6").unwrap();
        let upd = pq.apply(&log, &q, &small_opts()).unwrap();
        let st = upd.stats();
        assert!(st.rebuilt);
        assert!(
            matches!(
                st.rebuild_reason,
                Some(RebuildReason::OracleSaturated { radius: 3, .. })
            ),
            "{:?}",
            st.rebuild_reason
        );
        let gn = log.apply_to(&g).unwrap().graph;
        let fresh = PreparedQuery::prepare(&gn, &q, &small_opts()).unwrap();
        assert_eq!(
            upd.enumerate().collect::<Vec<_>>(),
            fresh.enumerate().collect::<Vec<_>>()
        );

        // The rebuild-reason codec round-trips.
        for reason in [
            None,
            Some(RebuildReason::SentenceActivated { branch: 2 }),
            Some(RebuildReason::NaiveRung),
            Some(RebuildReason::OracleSaturated {
                radius: 3,
                dirty: 9,
                n: 12,
            }),
        ] {
            let mut w = Writer::new();
            write_rebuild_opt(&mut w, &reason);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(read_rebuild_opt(&mut r).unwrap(), reason);
            r.finish().unwrap();
        }
        assert!(read_rebuild_opt(&mut Reader::new(&[9])).is_err());
    }

    #[test]
    fn apply_rejects_bad_inputs() {
        let g = colored(generators::grid(4, 4), 7);
        let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
        let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
        // Invalid log: typed update error, index untouched.
        let bad = nd_update::MutationLog::parse("add-edge 0 99").unwrap();
        assert!(matches!(
            pq.apply(&bad, &q, &small_opts()),
            Err(ApplyError::Update(_))
        ));
        // Mismatched query for the rebuild fallback.
        let other = parse_query("Blue(x)").unwrap();
        let log = nd_update::MutationLog::parse("add-edge 0 5").unwrap();
        assert!(matches!(
            pq.apply(&log, &other, &small_opts()),
            Err(ApplyError::QueryMismatch)
        ));
    }

    /// An applied (repaired) index survives save → load: same stats
    /// (including lineage), same answers, bit-identical re-save.
    #[test]
    fn applied_index_roundtrips_through_persistence() {
        let g = colored(generators::grid(5, 5), 11);
        for src in ["dist(x,y) > 2 && Blue(y)", "dist(x,y) <= 2 && Red(x)"] {
            let q = parse_query(src).unwrap();
            let pq = PreparedQuery::prepare(&g, &q, &small_opts()).unwrap();
            let log = nd_update::MutationLog::parse(
                "add-node\nadd-edge 3 25\nremove-edge 0 1\ncolor 7 Blue",
            )
            .unwrap();
            let upd = pq.apply(&log, &q, &small_opts()).unwrap();
            assert_eq!(upd.lineage().epoch, 1);
            assert_ne!(upd.lineage().log_digest, 0);

            let bytes = upd.save_index_bytes(&q, src).unwrap();
            let loaded = SharedPreparedQuery::load_index_bytes(&bytes).unwrap();
            assert_eq!(loaded.prepared.stats(), upd.stats(), "{src}");
            assert_eq!(loaded.prepared.lineage(), upd.lineage(), "{src}");
            assert_eq!(
                loaded.prepared.enumerate().collect::<Vec<_>>(),
                upd.enumerate().collect::<Vec<_>>(),
                "{src}"
            );
            let again = loaded.prepared.save_index_bytes(&q, src).unwrap();
            assert_eq!(again, bytes, "re-save not bit-identical for {src}");

            // Corruption of the persisted overlay / lineage still rejects.
            for cut in (bytes.len().saturating_sub(64))..bytes.len() {
                assert!(SharedPreparedQuery::load_index_bytes(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn without_extendability_check_still_correct() {
        let mut opts = small_opts();
        opts.extendability_check = false;
        let g = colored(generators::random_tree(25, 8), 4);
        for src in [
            "dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)",
            "E(x,y) && Blue(x)",
        ] {
            check_full(&g, src, &opts, 77);
        }
    }
}
