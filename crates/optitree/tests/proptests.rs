//! Property tests for the OptiTree search's shortcuts: the ordering scorer
//! against the tree it encodes, and the policy's cached timeouts against a
//! fresh derivation.

use kauri::{Tree, TreePolicy};
use optilog::{AnnealingParams, SuspicionPair};
use optitree::score::ordering_score;
use optitree::{tree_score, tree_timeouts, OptiTreePolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rsm::SystemConfig;
use runtime::Duration;

/// An `n × n` RTT matrix drawn from `rng`: coarse values (many ties) or
/// fine ones, and not necessarily symmetric.
fn matrix(n: usize, coarse: bool, rng: &mut StdRng) -> Vec<f64> {
    (0..n * n)
        .map(|cell| {
            if cell / n == cell % n {
                0.0
            } else if coarse {
                (rng.gen_range(1..8) * 20) as f64
            } else {
                rng.gen_range(0.5..400.0)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Scoring an ordering equals building its tree and scoring that, bit
    /// for bit — including `b = 0` (the star fallback), a single replica,
    /// and `k` beyond what the tree can provide.
    #[test]
    fn ordering_score_is_the_built_tree_score(
        n in 1usize..40,
        b in 0usize..9,
        k in 0usize..45,
        coarse in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = matrix(n, coarse, &mut rng);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let built = tree_score(&Tree::from_ordering(&order, b), &m, n, k);
        let read = ordering_score(&order, b, &m, n, k);
        prop_assert_eq!(read.to_bits(), built.to_bits(), "order {:?}, b {}, k {}", order, b, k);
    }

    /// After any interleaving of the calls that move the tree or `u`, the
    /// policy's timeouts are what `tree_timeouts` derives afresh from its
    /// last tree and current `k`.
    #[test]
    fn cached_timeouts_match_a_fresh_derivation(
        ops in prop::collection::vec((0u8..4, any::<u64>()), 1..24),
        seed in any::<u64>(),
    ) {
        let n = 13;
        let system = SystemConfig::new(n);
        let b = system.tree_branch_factor();
        let m = matrix(n, false, &mut StdRng::seed_from_u64(seed));
        let mut policy = OptiTreePolicy::new(system, m.clone(), seed).with_annealing(
            AnnealingParams { iterations: 200, ..Default::default() },
        );
        let mut last: Option<Tree> = None;
        for (op, x) in ops {
            let r = x as usize % n;
            match op {
                0 => last = Some(policy.next_tree(n, b)),
                1 => {
                    let missing: Vec<usize> = (0..n).filter(|i| x >> i & 1 == 1).collect();
                    policy.on_view_failure(&missing);
                }
                2 => {
                    let pair = SuspicionPair {
                        accuser: r,
                        accused: (r + 1 + (x >> 16) as usize % (n - 1)) % n,
                        round: (x >> 8) % 6,
                        phase: 1 + (x >> 24) as u32 % 2,
                        reciprocal: false,
                    };
                    policy.on_committed_pair(&pair);
                    policy.on_committed_pair(&pair.reciprocation());
                }
                _ => policy.on_adopted_epoch(x % 8),
            }
            let fresh = match &last {
                Some(tree) => {
                    let (view, child) = tree_timeouts(tree, &m, n, policy.k(), optilog::DELTA);
                    (view * 3 + Duration::from_millis(50), child + Duration::from_millis(5))
                }
                None => (Duration::from_millis(2_000), Duration::from_millis(400)),
            };
            prop_assert_eq!((policy.view_timeout(), policy.child_timeout()), fresh);
        }
    }
}
