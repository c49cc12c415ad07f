//! Candidate selection strategies.
//!
//! From the suspicion graph `G`, OptiLog derives the *candidate set* `K` of
//! replicas considered correct (eligible for special roles) and the estimate
//! `u` of misbehaving replicas. Two strategies are implemented:
//!
//! * [`SelectionStrategy::MaxIndependentSet`] — the default of §4.2.3:
//!   `K` is a maximum independent set of `G`, `u = |V| − |K|`. Guarantees
//!   `|K| ≥ n − f` (C1) but may require `Ω(f²)` reconfigurations.
//! * [`SelectionStrategy::TreeExclusion`] — the OptiTree variant of §6.4:
//!   exclude both endpoints of a maximal disjoint edge set `E_d` and the
//!   triangle set `T`; `u = |E_d| + |T|`. Yields a smaller `K` but bounds the
//!   number of reconfigurations by `2f` (CT4).

use crate::graph::{SuspicionGraph, TreeExclusion};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// How the candidate set is derived from the suspicion graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Maximum independent set (Bron-Kerbosch on the complement, bounded by
    /// the given expansion budget).
    MaxIndependentSet {
        /// Work budget for the exact search before falling back to the best
        /// set found so far.
        budget: usize,
    },
    /// Disjoint-edge / triangle exclusion (OptiTree, §6.4).
    TreeExclusion,
}

impl Default for SelectionStrategy {
    fn default() -> Self {
        SelectionStrategy::MaxIndependentSet { budget: 200_000 }
    }
}

/// The result of candidate selection.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateSelection {
    /// The candidate set `K`: replicas eligible for special roles.
    pub candidates: BTreeSet<usize>,
    /// Estimated number of misbehaving (non-crash faulty) replicas `u`.
    pub estimate_u: usize,
}

impl CandidateSelection {
    /// True if `replica` is a candidate.
    pub fn contains(&self, replica: usize) -> bool {
        self.candidates.contains(&replica)
    }

    /// Candidates as a sorted vector.
    pub fn as_vec(&self) -> Vec<usize> {
        self.candidates.iter().copied().collect()
    }
}

/// Applies a [`SelectionStrategy`] to a suspicion graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct CandidateSelector {
    strategy: SelectionStrategy,
}

impl CandidateSelector {
    /// Create a selector with the given strategy.
    pub fn new(strategy: SelectionStrategy) -> Self {
        CandidateSelector { strategy }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> SelectionStrategy {
        self.strategy
    }

    /// Compute the candidate set and fault estimate from the graph.
    ///
    /// The graph's vertex set must already exclude provably faulty (`F`) and
    /// crashed (`C`) replicas; the caller (SuspicionMonitor) is responsible
    /// for that.
    pub fn select(&self, graph: &SuspicionGraph) -> CandidateSelection {
        match self.strategy {
            SelectionStrategy::MaxIndependentSet { budget } => {
                let k = graph.maximum_independent_set(budget);
                let u = graph.vertex_count().saturating_sub(k.len());
                CandidateSelection {
                    candidates: k,
                    estimate_u: u,
                }
            }
            SelectionStrategy::TreeExclusion => {
                let excl = TreeExclusion::compute(graph);
                CandidateSelection {
                    candidates: excl.candidates(graph),
                    estimate_u: excl.fault_estimate(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> SuspicionGraph {
        let mut g = SuspicionGraph::new(0..n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn mis_strategy_counts_excluded_as_u() {
        let g = graph(7, &[(0, 1), (2, 3)]);
        let sel = CandidateSelector::new(SelectionStrategy::MaxIndependentSet { budget: 10_000 })
            .select(&g);
        assert_eq!(sel.candidates.len(), 5);
        assert_eq!(sel.estimate_u, 2);
        assert!(g.is_independent_set(&sel.candidates));
    }

    #[test]
    fn tree_strategy_excludes_both_endpoints() {
        let g = graph(7, &[(0, 1), (2, 3)]);
        let sel = CandidateSelector::new(SelectionStrategy::TreeExclusion).select(&g);
        // Both endpoints of both disjoint edges excluded: K = {4,5,6}, u = 2.
        assert_eq!(sel.as_vec(), vec![4, 5, 6]);
        assert_eq!(sel.estimate_u, 2);
    }

    #[test]
    fn tree_strategy_excludes_triangle_vertices() {
        // Edge (0,1) in E_d plus triangle vertex 2 adjacent to both.
        let g = graph(6, &[(0, 1), (0, 2), (1, 2)]);
        let sel = CandidateSelector::new(SelectionStrategy::TreeExclusion).select(&g);
        assert!(!sel.contains(0));
        assert!(!sel.contains(1));
        assert!(!sel.contains(2));
        assert_eq!(sel.estimate_u, 2, "one E_d edge + one triangle vertex");
        assert_eq!(sel.candidates.len(), 3);
    }

    #[test]
    fn strategies_agree_on_empty_graph() {
        let g = graph(10, &[]);
        for strategy in [
            SelectionStrategy::default(),
            SelectionStrategy::TreeExclusion,
        ] {
            let sel = CandidateSelector::new(strategy).select(&g);
            assert_eq!(sel.candidates.len(), 10);
            assert_eq!(sel.estimate_u, 0);
        }
    }

    #[test]
    fn mis_never_smaller_than_correct_set_under_f_attackers() {
        // f attackers each suspect one distinct correct replica: the correct
        // replicas still form an independent set of size n - f (Lemma 1).
        let n = 13;
        let f = 4;
        let edges: Vec<(usize, usize)> = (0..f).map(|i| (i, f + i)).collect();
        let g = graph(n, &edges);
        let sel = CandidateSelector::default().select(&g);
        assert!(sel.candidates.len() >= n - f);
    }
}
