//! The targeted-suspicion attack of §7.5 / Fig 10.
//!
//! Faulty replicas pre-compute the optimal tree from the recorded latencies
//! and then raise suspicions against its correct internal nodes, forcing a
//! reconfiguration. Each attack step removes one internal node (paired with
//! the attacking root suspicion) from the candidate pool and, for OptiTree,
//! raises the estimate `u`. The simulation reports the score of the tree
//! selected after every reconfiguration — the y-axis of Fig 10 — for the
//! three variants compared in the paper.

use crate::policy::{KauriSaPolicy, OptiTreePolicy};
use crate::score::tree_score;
use kauri::{Tree, TreePolicy};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rsm::SystemConfig;

/// Which tree-selection strategy the attack is run against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackVariant {
    /// Kauri: random trees, reconfiguration waits for `q + f` votes.
    Kauri,
    /// Kauri-sa: SA trees, all internals excluded after each failure, `q + f`.
    KauriSa,
    /// OptiTree: SA trees constrained to candidates, `q + u` votes.
    OptiTree,
}

/// The outcome of one attack simulation.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// The variant attacked.
    pub variant: AttackVariant,
    /// Score (predicted latency, ms) of the tree active after `i`
    /// reconfigurations, for `i = 0..=reconfigurations`.
    pub scores: Vec<f64>,
}

/// Simulate `reconfigurations` rounds of the targeted-suspicion attack.
pub fn simulate_suspicion_attack(
    variant: AttackVariant,
    n: usize,
    matrix_rtt_ms: &[f64],
    reconfigurations: usize,
    seed: u64,
) -> AttackOutcome {
    let system = SystemConfig::new(n);
    let b = system.tree_branch_factor();
    let mut rng = StdRng::seed_from_u64(seed);

    let mut opti = OptiTreePolicy::new(system, matrix_rtt_ms.to_vec(), seed);
    let mut kauri_sa = KauriSaPolicy::new(system, matrix_rtt_ms.to_vec(), seed);
    let mut kauri_trial = 0u64;

    let mut scores = Vec::with_capacity(reconfigurations + 1);
    for step in 0..=reconfigurations {
        let (tree, k) = match variant {
            AttackVariant::Kauri => {
                // Random tree; Kauri must provision for the worst case f.
                let tree = Tree::random(n, b, seed.wrapping_mul(31).wrapping_add(kauri_trial));
                kauri_trial += 1;
                (tree, system.quorum() + system.f)
            }
            AttackVariant::KauriSa => {
                let tree = kauri_sa.next_tree(n, b);
                (tree, system.quorum() + system.f)
            }
            AttackVariant::OptiTree => {
                let tree = opti.next_tree(n, b);
                let k = (system.quorum() + opti.estimate_u()).min(n);
                (tree, k)
            }
        };
        scores.push(tree_score(&tree, matrix_rtt_ms, n, k.min(n)));

        if step == reconfigurations {
            break;
        }
        // The attacker picks a random internal node and suspects the root,
        // rendering the tree invalid and forcing a reconfiguration.
        let internals = tree.internal_nodes();
        let victim = *internals.choose(&mut rng).expect("tree has internal nodes");
        match variant {
            AttackVariant::Kauri => {}
            AttackVariant::KauriSa => kauri_sa.on_view_failure(&[victim]),
            AttackVariant::OptiTree => opti.on_view_failure(&[victim, tree.root]),
        }
    }

    AttackOutcome { variant, scores }
}
