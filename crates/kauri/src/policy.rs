//! Tree-selection policies.
//!
//! Kauri's own policy draws trees from the t-bounded-conformity bins in a
//! random order and falls back to a star after `t` failures. OptiTree (in the
//! `optitree` crate) implements the same trait but selects trees with
//! simulated annealing over the latency matrix, restricted to the OptiLog
//! candidate set, and provisions each tree for the fault estimate `u`.

use crate::tree::{conformity_bins, Tree};
use configlog::SuspicionPair;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use runtime::Duration;

/// How the protocol obtains trees and failure timeouts.
pub trait TreePolicy: Send {
    /// The next tree to try (called at start and after every failure).
    fn next_tree(&mut self, n: usize, b: usize) -> Tree;

    /// How long an intermediate node waits for its children before
    /// aggregating without them.
    fn child_timeout(&self) -> Duration {
        Duration::from_millis(400)
    }

    /// How long the root waits for a view to commit before declaring the
    /// tree failed and reconfiguring.
    fn view_timeout(&self) -> Duration {
        Duration::from_millis(2_000)
    }

    /// Notification that a view failed, with the replicas the root is missing
    /// votes from (lets latency-aware policies update suspicions).
    fn on_view_failure(&mut self, missing: &[usize]);

    /// A reciprocal suspicion pair committed through the replicated
    /// configuration log (§6.4). Committed pairs are identical at every
    /// replica, so pair-driven exclusion decisions converge without any
    /// out-of-band blame channel. Default: ignore (Kauri's conformity bins
    /// already guarantee the attacker is internal in at most one bin).
    fn on_committed_pair(&mut self, _pair: &SuspicionPair) {}

    /// A tree configuration for `epoch` committed through the log and
    /// adopted — a real leader term, the clock suspicion windows are
    /// denominated in. Default: ignore.
    fn on_adopted_epoch(&mut self, _epoch: u64) {}

    /// Replicas this policy currently excludes from internal positions
    /// (diagnostics / reports). Default: none.
    fn excluded(&self) -> Vec<usize> {
        Vec::new()
    }
}

/// Kauri's native policy: iterate the conformity bins in a random order and
/// revert to a star after all bins have been tried.
#[derive(Debug, Clone)]
pub struct KauriBinsPolicy {
    bin_order: Vec<usize>,
    trials: usize,
    n: usize,
    b: usize,
}

impl KauriBinsPolicy {
    /// Create the policy for an `n`-replica system with branch factor `b`.
    pub fn new(n: usize, b: usize, seed: u64) -> Self {
        let bins = conformity_bins(n, b);
        let mut bin_order: Vec<usize> = (0..bins.len()).collect();
        bin_order.shuffle(&mut StdRng::seed_from_u64(seed));
        KauriBinsPolicy {
            bin_order,
            trials: 0,
            n,
            b,
        }
    }

    /// Number of trees tried so far.
    pub fn trials(&self) -> usize {
        self.trials
    }
}

impl TreePolicy for KauriBinsPolicy {
    fn next_tree(&mut self, n: usize, b: usize) -> Tree {
        let trial = self.trials;
        self.trials += 1;
        if trial >= self.bin_order.len() {
            // Exhausted the bins: fall back to a star rooted at replica 0.
            return Tree::star(0, n);
        }
        let bin_idx = self.bin_order[trial];
        let bins = conformity_bins(self.n.max(n), self.b.max(b));
        let bin = &bins[bin_idx % bins.len()];
        let mut order = bin.clone();
        order.extend((0..n).filter(|r| !bin.contains(r)));
        Tree::from_ordering(&order, b)
    }

    fn on_view_failure(&mut self, _missing: &[usize]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_policy_uses_disjoint_internal_sets() {
        let mut p = KauriBinsPolicy::new(21, 4, 7);
        let t1 = p.next_tree(21, 4);
        let t2 = p.next_tree(21, 4);
        let i1 = t1.internal_nodes();
        let i2 = t2.internal_nodes();
        assert!(i1.iter().all(|r| !i2.contains(r)), "bins must be disjoint");
        assert_eq!(p.trials(), 2);
    }

    #[test]
    fn bins_policy_falls_back_to_star() {
        let n = 21;
        let b = 4;
        let bins = conformity_bins(n, b).len();
        let mut p = KauriBinsPolicy::new(n, b, 0);
        for _ in 0..bins {
            assert!(!p.next_tree(n, b).is_star());
        }
        assert!(
            p.next_tree(n, b).is_star(),
            "after t trials Kauri reverts to a star"
        );
    }

    #[test]
    fn bin_order_varies_with_seed() {
        let a = KauriBinsPolicy::new(43, 6, 1);
        let b = KauriBinsPolicy::new(43, 6, 2);
        assert_ne!(a.bin_order, b.bin_order);
    }
}
