//! The naive fallback engine: full materialization at preparation time.
//!
//! Exposes the same testing / next-solution / enumeration API as the
//! indexed engine, so every FO⁺ query is supported end-to-end. The
//! solutions come from the guarded evaluator ([`nd_logic::guarded`]):
//! each quantifier and answer position iterates its guard's candidates,
//! so the edge-guarded queries of Lemma 2.2 cost `O(deg)` per quantifier
//! instead of `O(n)`. The index is `O(|q(G)|)`. The unindexed `O(n^k)`
//! baseline the experiments compare against is `nd-baseline`.

use nd_graph::budget::{BudgetExceeded, BudgetTracker, Phase};
use nd_graph::{ColoredGraph, Vertex};
use nd_logic::ast::Query;
use nd_logic::guarded::{Compiled, Evaluator};

#[derive(Clone)]
pub struct NaiveEngine {
    arity: usize,
    /// All solutions, lexicographically sorted.
    solutions: Vec<Vec<Vertex>>,
}

impl NaiveEngine {
    /// Unbudgeted convenience; see [`NaiveEngine::try_prepare`].
    pub fn prepare(g: &ColoredGraph, q: &Query) -> NaiveEngine {
        Self::try_prepare(g, q, &BudgetTracker::unlimited())
            .expect("unlimited budget cannot be exceeded")
    }

    /// Materialize `q(G)` with the guarded evaluator, charging every
    /// evaluated tuple against `tracker` so that a capped run bails out
    /// with [`BudgetExceeded`] instead of grinding through the product
    /// space.
    pub fn try_prepare(
        g: &ColoredGraph,
        q: &Query,
        tracker: &BudgetTracker,
    ) -> Result<NaiveEngine, BudgetExceeded> {
        let compiled = Compiled::new(g, &q.formula, &q.free);
        let mut solutions = Vec::new();
        Evaluator::new(g, &compiled).try_for_each(|tuple, holds| {
            tracker.charge_nodes(Phase::NaiveMaterialize, 1)?;
            if holds {
                tracker.charge_memory(Phase::NaiveMaterialize, 4 * tuple.len().max(1) as u64)?;
                solutions.push(tuple.to_vec());
            }
            Ok(())
        })?;
        Ok(NaiveEngine {
            arity: q.arity(),
            solutions,
        })
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    pub fn count(&self) -> usize {
        self.solutions.len()
    }

    pub fn test(&self, tuple: &[Vertex]) -> bool {
        self.solutions
            .binary_search_by(|s| s.as_slice().cmp(tuple))
            .is_ok()
    }

    pub fn next_solution(&self, from: &[Vertex]) -> Option<Vec<Vertex>> {
        let idx = self.solutions.partition_point(|s| s.as_slice() < from);
        self.solutions.get(idx).cloned()
    }

    /// Append the engine's binary encoding to `w` (DESIGN.md §9): the
    /// materialized solution set as flat arity-sized tuples. The arity
    /// itself is not stored — the loader knows it from the query section.
    pub fn write_into(&self, w: &mut nd_persist::Writer) {
        if self.arity == 0 {
            w.bool(!self.solutions.is_empty());
            return;
        }
        w.seq_len(self.solutions.len());
        for s in &self.solutions {
            for &v in s {
                w.u32(v);
            }
        }
    }

    /// Decode an engine with the given `arity` over an `n`-vertex graph
    /// (both supplied by the caller from already-validated sections).
    /// Re-validates the strict lexicographic order the binary searches of
    /// [`Self::test`] / [`Self::next_solution`] rely on.
    pub fn read_from(
        r: &mut nd_persist::Reader<'_>,
        arity: usize,
        n: usize,
    ) -> Result<NaiveEngine, nd_persist::PersistError> {
        use nd_persist::malformed;
        if arity == 0 {
            let holds = r.bool("naive boolean solution")?;
            return Ok(NaiveEngine {
                arity,
                solutions: if holds { vec![Vec::new()] } else { Vec::new() },
            });
        }
        let count = r.seq_len(4 * arity, "naive solution count")?;
        let mut solutions: Vec<Vec<Vertex>> = Vec::with_capacity(count);
        for _ in 0..count {
            let mut tuple = Vec::with_capacity(arity);
            for _ in 0..arity {
                let v = r.u32("naive solution component")?;
                if (v as usize) >= n {
                    return Err(malformed("naive solution component out of range"));
                }
                tuple.push(v);
            }
            if solutions.last().is_some_and(|prev| prev >= &tuple) {
                return Err(malformed(
                    "naive solutions not in strict lexicographic order",
                ));
            }
            solutions.push(tuple);
        }
        Ok(NaiveEngine { arity, solutions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_graph::generators;
    use nd_logic::parse_query;

    #[test]
    fn api_contract() {
        let g = generators::cycle(6);
        let q = parse_query("E(x,y)").unwrap();
        let e = NaiveEngine::prepare(&g, &q);
        assert_eq!(e.count(), 12);
        assert!(e.test(&[0, 1]));
        assert!(!e.test(&[0, 2]));
        assert_eq!(e.next_solution(&[0, 0]), Some(vec![0, 1]));
        assert_eq!(e.next_solution(&[0, 2]), Some(vec![0, 5]));
        assert_eq!(e.next_solution(&[5, 5]), None);
        assert_eq!(e.arity(), 2);
    }

    #[test]
    fn binary_codec_roundtrip_and_rejection() {
        let g = generators::cycle(6);
        let q = parse_query("E(x,y)").unwrap();
        let e = NaiveEngine::prepare(&g, &q);
        let mut w = nd_persist::Writer::new();
        e.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = nd_persist::Reader::new(&bytes);
        let back = NaiveEngine::read_from(&mut r, 2, g.n()).unwrap();
        r.finish().unwrap();
        assert_eq!(back.count(), e.count());
        assert!(back.test(&[0, 1]));
        assert_eq!(back.next_solution(&[0, 2]), Some(vec![0, 5]));
        for cut in 0..bytes.len() {
            assert!(
                NaiveEngine::read_from(&mut nd_persist::Reader::new(&bytes[..cut]), 2, g.n())
                    .is_err(),
                "cut {cut}"
            );
        }
        // Out-of-range components and unsorted tuples are rejected.
        assert!(NaiveEngine::read_from(&mut nd_persist::Reader::new(&bytes), 2, 2).is_err());
        let mut w = nd_persist::Writer::new();
        w.seq_len(2);
        for v in [0u32, 1, 0, 1] {
            w.u32(v);
        }
        let dup = w.into_bytes();
        assert!(NaiveEngine::read_from(&mut nd_persist::Reader::new(&dup), 2, 6).is_err());

        // Boolean (arity-0) engines encode as a single flag.
        let b = NaiveEngine {
            arity: 0,
            solutions: vec![Vec::new()],
        };
        let mut w = nd_persist::Writer::new();
        b.write_into(&mut w);
        let bytes = w.into_bytes();
        let back = NaiveEngine::read_from(&mut nd_persist::Reader::new(&bytes), 0, 6).unwrap();
        assert!(back.test(&[]));
    }
}
