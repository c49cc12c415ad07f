//! Wheat-style weighted voting configurations.
//!
//! Wheat \[57\] assigns a higher voting weight `V_max` to `2f` replicas and
//! `V_min = 1` to the rest; a quorum forms once the collected weight reaches
//! the threshold, so well-placed high-weight replicas let consensus finish
//! before slow replicas answer. Aware \[13\] additionally chooses *which*
//! replicas get the high weights (and who leads) from measured latencies.
//!
//! This module holds the weight configuration itself and the weighted-quorum
//! arithmetic; the latency prediction lives in [`crate::score`].

use serde::{Deserialize, Serialize};

/// A voting-weight configuration: the leader plus each replica's weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightConfig {
    /// The leader replica.
    pub leader: usize,
    /// Per-replica voting weight (`V_min = 1` or `V_max = 2`).
    pub weights: Vec<u32>,
    /// Configuration epoch (incremented on every reconfiguration).
    pub epoch: u64,
}

/// The higher voting weight assigned to `2f` replicas.
pub const V_MAX: u32 = 2;
/// The default voting weight.
pub const V_MIN: u32 = 1;

impl WeightConfig {
    /// The uniform initial configuration: replica 0 leads, the first `2f`
    /// replicas hold `V_max` (matching BFT-SMaRt's static assignment).
    pub fn initial(n: usize, f: usize) -> Self {
        let mut weights = vec![V_MIN; n];
        for w in weights.iter_mut().take(2 * f) {
            *w = V_MAX;
        }
        WeightConfig {
            leader: 0,
            weights,
            epoch: 0,
        }
    }

    /// A configuration giving `V_max` to the replicas in `vmax_holders` and
    /// the leader role to `leader`.
    pub fn with_assignment(n: usize, leader: usize, vmax_holders: &[usize], epoch: u64) -> Self {
        let mut weights = vec![V_MIN; n];
        for &r in vmax_holders {
            if r < n {
                weights[r] = V_MAX;
            }
        }
        WeightConfig {
            leader,
            weights,
            epoch,
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Total voting weight.
    pub fn total_weight(&self) -> u32 {
        self.weights.iter().sum()
    }

    /// The weighted quorum threshold.
    ///
    /// Safety requires any two quorums to intersect in more weight than `f`
    /// Byzantine replicas can hold (`f · V_max`), so the threshold is
    /// `⌊(W + f·V_max)/2⌋ + 1` where `W` is the total weight. This mirrors
    /// Wheat's `Q_v` construction: with well-placed `V_max` replicas, fewer
    /// distinct (fast) replies complete a quorum than with uniform weights.
    pub fn quorum_threshold(&self, f: usize) -> u32 {
        (self.total_weight() + V_MAX * f as u32) / 2 + 1
    }

    /// The replicas holding `V_max`.
    pub fn vmax_holders(&self) -> Vec<usize> {
        self.weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w == V_MAX)
            .map(|(i, _)| i)
            .collect()
    }

    /// Weight of one replica.
    pub fn weight(&self, replica: usize) -> u32 {
        self.weights.get(replica).copied().unwrap_or(0)
    }

    /// True if the votes of `voters` reach `threshold`, this
    /// configuration's [`Self::quorum_threshold`]. The caller derives the
    /// threshold once per configuration, so this sums only the voters'
    /// weights. A set, so no replica counts twice; this runs on every vote a
    /// replica receives and allocates nothing.
    pub fn is_quorum(&self, voters: &VoterSet, threshold: u32) -> bool {
        let sum: u32 = voters.iter().map(|v| self.weight(v)).sum();
        sum >= threshold
    }

    /// True if `replica` holds a special role of this configuration — it
    /// leads or holds `V_max`. These are the roles OptiLog requires to be
    /// held by candidates.
    pub fn holds_special_role(&self, replica: usize) -> bool {
        replica == self.leader || self.weight(replica) == V_MAX
    }
}

/// The replicas that cast one phase's vote in one consensus instance: a
/// bitset over replica ids, held inline so recording a vote never touches
/// the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoterSet([u64; 4]);

impl VoterSet {
    /// One more than the largest replica id a set can hold; a replica
    /// refuses to run in a larger cluster.
    pub const CAPACITY: usize = 256;

    /// Record a vote from `voter`. Ids at or past [`Self::CAPACITY`] are
    /// outside every cluster a replica runs in, carry no weight, and are
    /// dropped.
    pub fn insert(&mut self, voter: usize) {
        if voter < Self::CAPACITY {
            self.0[voter / 64] |= 1 << (voter % 64);
        }
    }

    /// The voters, in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(word, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    word * 64 + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(voters: impl IntoIterator<Item = usize>) -> VoterSet {
        let mut set = VoterSet::default();
        voters.into_iter().for_each(|v| set.insert(v));
        set
    }

    #[test]
    fn initial_config_gives_vmax_to_2f() {
        let c = WeightConfig::initial(7, 2);
        assert_eq!(c.vmax_holders(), vec![0, 1, 2, 3]);
        assert_eq!(c.total_weight(), 7 + 4);
        assert_eq!(c.leader, 0);
    }

    #[test]
    fn quorum_threshold_preserves_intersection() {
        // Any two weighted quorums must intersect in at least one correct
        // replica: threshold > (total + f_weight_max) / 2 is the classic
        // requirement; check it holds for representative sizes.
        for (n, f) in [(4, 1), (7, 2), (10, 3), (21, 6), (31, 10)] {
            let c = WeightConfig::initial(n, f);
            let total = c.total_weight();
            let threshold = c.quorum_threshold(f);
            // Two quorums overlap in weight >= 2*threshold - total; the
            // overlap must exceed the weight f Byzantine replicas can hold.
            let overlap = 2 * threshold as i64 - total as i64;
            let max_byz_weight = (V_MAX * f as u32) as i64;
            assert!(
                overlap > max_byz_weight,
                "intersection violated for n={n}, f={f}"
            );
        }
    }

    #[test]
    fn weighted_quorum_needs_fewer_fast_replicas() {
        let c = WeightConfig::initial(7, 2);
        // W = 11, threshold = (11 + 4)/2 + 1 = 8. Four V_max replicas
        // (weight 8) suffice…
        let threshold = c.quorum_threshold(2);
        let votes = |voters: &[usize]| c.is_quorum(&set(voters.iter().copied()), threshold);
        assert!(votes(&[0, 1, 2, 3]));
        // …whereas one V_max + three V_min replicas (weight 5) do not.
        assert!(!votes(&[3, 4, 5, 6]));
        // Duplicates never count twice.
        assert!(!votes(&[0, 0, 0, 0, 0]));
        // Out-of-range voters carry no weight.
        assert!(!votes(&[0, 1, 2, 7, 8, 9]));
        // All replicas always form a quorum.
        assert!(votes(&[0, 1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn voter_set_counts_each_replica_once_across_words() {
        let voters = set([72, 3, 64, 3, 0, 63, 255, 256, 1_000]);
        assert_eq!(
            voters.iter().collect::<Vec<_>>(),
            vec![0, 3, 63, 64, 72, 255],
            "sorted, deduplicated, ids past the capacity dropped"
        );
        assert_eq!(VoterSet::default().iter().count(), 0);

        // Aware's largest deployment, n = 73 and f = 24: V_max on 25..73,
        // W = 121, threshold 85. The votes of replicas 64..68 decide it.
        let c = WeightConfig::with_assignment(73, 72, &(25..73).collect::<Vec<_>>(), 1);
        assert_eq!(c.quorum_threshold(24), 85);
        let below = set(25..64);
        let above = set(25..68);
        assert!(!c.is_quorum(&below, 85), "39 x V_max = 78");
        assert!(c.is_quorum(&above, 85), "43 x V_max = 86");
    }

    #[test]
    fn with_assignment_sets_roles() {
        let c = WeightConfig::with_assignment(7, 3, &[3, 4, 5, 6], 2);
        assert_eq!(c.leader, 3);
        assert_eq!(c.vmax_holders(), vec![3, 4, 5, 6]);
        assert_eq!(c.epoch, 2);
        let special: Vec<usize> = (0..7).filter(|&r| c.holds_special_role(r)).collect();
        assert_eq!(special, vec![3, 4, 5, 6]);
        assert_eq!(c.weight(0), V_MIN);
        assert_eq!(c.weight(4), V_MAX);
    }

    #[test]
    fn out_of_range_holders_ignored() {
        let c = WeightConfig::with_assignment(4, 0, &[0, 9], 1);
        assert_eq!(c.vmax_holders(), vec![0]);
        assert_eq!(c.weight(9), 0);
    }
}
