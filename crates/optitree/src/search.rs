//! Simulated-annealing tree search constrained to the candidate set (§4.2.4,
//! §6.2).
//!
//! A tree layout is encoded as an ordering of all replicas (root, then the
//! intermediates, then the leaves). The search space only generates and
//! mutates orderings whose internal positions are filled from the candidate
//! set `K`; the score is Definition 1's `score(k, τ)` with `k = q + u`.
//!
//! An iteration allocates nothing: [`SearchSpace::mutate`] swaps two
//! positions of the ordering in place, candidate membership is a mask in the
//! [`Layout`], and [`ordering_score`] reads the score off the ordering
//! without building the [`Tree`] it encodes.

use crate::score::ordering_score;
use kauri::Tree;
use optilog::{Annealer, AnnealingParams, SearchSpace};
use rand::rngs::StdRng;
use rand::Rng;

/// The tree-layout search space.
pub struct TreeSearchSpace {
    /// Total number of replicas.
    pub n: usize,
    /// Branch factor (the tree has `b + 1` internal nodes).
    pub branch: usize,
    /// Symmetric RTT matrix in milliseconds.
    pub matrix_rtt_ms: Vec<f64>,
    /// Candidate replicas allowed to hold internal positions.
    pub candidates: Vec<usize>,
    /// Number of votes the score must account for (`q + u`).
    pub k: usize,
}

/// One configuration of the search: an ordering of all replicas and the
/// candidate mask its moves respect. The mask is the same for every
/// configuration of one search; it rides along so a move tests membership
/// in O(1).
#[derive(Debug)]
pub struct Layout {
    /// Root, intermediates, then leaves, as [`Tree::from_ordering`] reads
    /// them.
    pub order: Vec<usize>,
    /// `candidate[r]`: replica `r` may hold an internal position.
    candidate: Vec<bool>,
}

impl Clone for Layout {
    fn clone(&self) -> Self {
        Layout {
            order: self.order.clone(),
            candidate: self.candidate.clone(),
        }
    }

    /// Reuses both buffers: the annealer refills its scratch configurations
    /// with this every iteration.
    fn clone_from(&mut self, source: &Self) {
        self.order.clone_from(&source.order);
        self.candidate.clone_from(&source.candidate);
    }
}

impl TreeSearchSpace {
    /// Number of internal positions (root + intermediates).
    fn internal_slots(&self) -> usize {
        (self.branch + 1).min(self.n)
    }

    /// Build the [`Tree`] encoded by an ordering.
    pub fn tree_of(&self, ordering: &[usize]) -> Tree {
        Tree::from_ordering(ordering, self.branch)
    }
}

impl SearchSpace for TreeSearchSpace {
    type Config = Layout;

    fn random_config(&self, rng: &mut StdRng) -> Layout {
        // Internal slots drawn from candidates, remaining replicas as leaves.
        let mut cands = self.candidates.clone();
        // Fisher-Yates on the candidate list.
        for i in (1..cands.len()).rev() {
            let j = rng.gen_range(0..=i);
            cands.swap(i, j);
        }
        let slots = self.internal_slots();
        let internals: Vec<usize> = cands.iter().copied().take(slots).collect();
        let mut rest: Vec<usize> = (0..self.n).filter(|r| !internals.contains(r)).collect();
        for i in (1..rest.len()).rev() {
            let j = rng.gen_range(0..=i);
            rest.swap(i, j);
        }
        let mut order = internals;
        order.extend(rest);
        let mut candidate = vec![false; self.n];
        for &r in &self.candidates {
            candidate[r] = true;
        }
        Layout { order, candidate }
    }

    fn mutate(&self, layout: &mut Layout, rng: &mut StdRng) {
        let Layout { order, candidate } = layout;
        let slots = self.internal_slots();
        // Either swap an internal position with a candidate leaf, or swap two
        // leaves (changes which leaves hang below which intermediate).
        if rng.gen_bool(0.7) && slots < order.len() {
            let i = rng.gen_range(0..slots);
            // Pick a leaf position holding a candidate replica, if any. The
            // pick is drawn even when there is none: the search's RNG stream,
            // and so every tree it finds, depends on that draw.
            let candidate_leaves = order[slots..].iter().filter(|&&r| candidate[r]).count();
            let pick = rng.gen_range(0..candidate_leaves.max(1));
            let mut candidate_positions = (slots..order.len()).filter(|&p| candidate[order[p]]);
            if let Some(p) = candidate_positions.nth(pick) {
                order.swap(i, p);
            }
        } else {
            let i = rng.gen_range(0..order.len());
            let j = rng.gen_range(0..order.len());
            // Never move a non-candidate into an internal slot.
            let into_internal = i < slots || j < slots;
            if !into_internal || (candidate[order[i]] && candidate[order[j]]) {
                order.swap(i, j);
            }
        }
    }

    fn score(&self, layout: &Layout) -> f64 {
        ordering_score(
            &layout.order,
            self.branch,
            &self.matrix_rtt_ms,
            self.n,
            self.k,
        )
    }
}

/// Run the annealing search and return the best tree found with its score.
pub fn search_tree(space: &TreeSearchSpace, params: AnnealingParams, seed: u64) -> (Tree, f64) {
    let result = Annealer::new(params).search(space, seed);
    (space.tree_of(&result.config.order), result.score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn clustered_matrix(n: usize, cluster: usize) -> Vec<f64> {
        let mut m = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    m[a * n + b] = if a < cluster && b < cluster {
                        10.0
                    } else {
                        200.0
                    };
                }
            }
        }
        m
    }

    fn space(n: usize, cluster: usize, candidates: Vec<usize>) -> TreeSearchSpace {
        TreeSearchSpace {
            n,
            branch: 4,
            matrix_rtt_ms: clustered_matrix(n, cluster),
            candidates,
            k: 2 * ((n - 1) / 3) + 1,
        }
    }

    #[test]
    fn random_configs_respect_candidate_constraint() {
        let sp = space(21, 8, (0..10).collect());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let cfg = sp.random_config(&mut rng);
            assert_eq!(cfg.order.len(), 21);
            for &r in cfg.order.iter().take(sp.internal_slots()) {
                assert!(sp.candidates.contains(&r), "internal {r} not a candidate");
            }
        }
    }

    #[test]
    fn mutation_preserves_permutation_and_constraint() {
        let sp = space(21, 8, (0..10).collect());
        let mut rng = StdRng::seed_from_u64(2);
        let mut cfg = sp.random_config(&mut rng);
        for _ in 0..200 {
            sp.mutate(&mut cfg, &mut rng);
            let mut sorted = cfg.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..21).collect::<Vec<_>>(), "still a permutation");
            for &r in cfg.order.iter().take(sp.internal_slots()) {
                assert!(sp.candidates.contains(&r));
            }
        }
    }

    #[test]
    fn annealing_finds_clustered_internals() {
        // Replicas 0..8 are fast; the best tree puts all internals there.
        let sp = space(21, 8, (0..21).collect());
        let (tree, score) = search_tree(
            &sp,
            AnnealingParams {
                iterations: 8_000,
                ..Default::default()
            },
            7,
        );
        assert!(
            score < 450.0,
            "score {score} should reflect mostly-fast paths"
        );
        let fast_internals = tree.internal_nodes().iter().filter(|&&r| r < 8).count();
        assert!(
            fast_internals >= 4,
            "most internal nodes should be fast, got {:?}",
            tree.internal_nodes()
        );
    }

    #[test]
    fn longer_search_is_not_worse() {
        let sp = space(43, 12, (0..43).collect());
        let short = search_tree(
            &sp,
            AnnealingParams {
                iterations: 200,
                ..Default::default()
            },
            3,
        )
        .1;
        let long = search_tree(
            &sp,
            AnnealingParams {
                iterations: 20_000,
                ..Default::default()
            },
            3,
        )
        .1;
        assert!(long <= short);
    }

    #[test]
    fn search_is_seed_deterministic() {
        let sp = space(21, 8, (0..21).collect());
        let params = AnnealingParams {
            iterations: 1_000,
            ..Default::default()
        };
        assert_eq!(search_tree(&sp, params, 5).1, search_tree(&sp, params, 5).1);
    }
}
