//! Tree policies: OptiTree and the Kauri-sa baseline.
//!
//! * [`OptiTreePolicy`] — simulated-annealing tree selection over the shared
//!   latency matrix, constrained to OptiLog's candidate set. On a view
//!   failure the replicas missing from the quorum are treated as suspicions:
//!   the tree-exclusion rule of §6.4 removes the failed internal node
//!   (possibly paired with one correct replica) from the candidate set and
//!   raises the fault estimate `u`, so the next tree is both valid and
//!   provisioned for `q + u` votes.
//! * [`KauriSaPolicy`] — the §7.5 baseline: SA-optimised trees, but after a
//!   failure *all* internal nodes of the failed tree are excluded and the
//!   score keeps provisioning for the worst case `f`.
//!
//! OptiTree consumes misbehavior evidence exclusively as *committed*
//! reciprocal suspicion pairs (§6.4) flowing through the replicated
//! configuration log: each pair becomes an edge of a [`SuspicionMonitor`]
//! running the disjoint-edge/triangle exclusion strategy, and the candidate
//! set handed to the SA search is the monitor's selection intersected with
//! the local crash-exclusion set. Because every replica's monitor digests
//! the identical committed pair sequence, the exclusion decisions converge
//! without trusting any replica's private blame.

use crate::score::tree_timeouts;
use crate::search::{search_tree, TreeSearchSpace};
use kauri::{Tree, TreePolicy};
use optilog::{
    AnnealingParams, PhaseFilter, Suspicion, SuspicionMonitor, SuspicionMonitorParams,
    SuspicionPair, DELTA,
};
use rsm::SystemConfig;
use runtime::Duration;
use std::collections::BTreeSet;

/// OptiTree: candidate-constrained SA tree selection with the `u` estimate.
pub struct OptiTreePolicy {
    system: SystemConfig,
    matrix_rtt_ms: Vec<f64>,
    candidates: BTreeSet<usize>,
    estimate_u: usize,
    annealing: AnnealingParams,
    seed: u64,
    last_tree: Option<Tree>,
    reconfigurations: usize,
    /// Judges the committed pair evidence (§6.4): causal filtering by
    /// topology depth, reciprocation tracking, disjoint-pair exclusion.
    monitor: SuspicionMonitor,
    /// Causal filter applied *before* the monitor: the monitor's own filter
    /// only guards `Slow` suspicions, while a reciprocation of a filtered
    /// echo would still create an edge via its censoring heuristic — and an
    /// innocent intermediate implicated only by filtered echoes must not be
    /// excluded. Reset at every adopted epoch (round numbers are reused).
    filter: PhaseFilter,
    /// Forward pairs the filter accepted, normalized (accuser, accused,
    /// round): only their reciprocations reach the monitor.
    accepted_pairs: BTreeSet<(usize, usize, u64)>,
    /// Adopted configuration epochs seen — the monitor's leader-term clock.
    terms: u64,
    /// Cached monitor selection (refreshed when evidence or terms change):
    /// replicas the committed pairs exclude, and their `u` contribution.
    monitor_excluded: BTreeSet<usize>,
    monitor_u: usize,
    /// `(view, child)` timeouts of `last_tree` at the current `k()`,
    /// recomputed whenever either changes (see `refresh_timeouts`); `None`
    /// before the first tree.
    timeouts: Option<(Duration, Duration)>,
}

impl OptiTreePolicy {
    /// Create the policy from the shared latency matrix.
    pub fn new(system: SystemConfig, matrix_rtt_ms: Vec<f64>, seed: u64) -> Self {
        OptiTreePolicy {
            candidates: (0..system.n).collect(),
            estimate_u: 0,
            annealing: AnnealingParams {
                iterations: 4_000,
                ..Default::default()
            },
            seed,
            monitor: SuspicionMonitor::new(
                SuspicionMonitorParams::new(system.n, system.f).with_tree_strategy(),
            ),
            filter: PhaseFilter::new(),
            accepted_pairs: BTreeSet::new(),
            terms: 0,
            monitor_excluded: BTreeSet::new(),
            monitor_u: 0,
            timeouts: None,
            system,
            matrix_rtt_ms,
            last_tree: None,
            reconfigurations: 0,
        }
    }

    /// Re-derive the cached exclusion view from the monitor after new
    /// committed evidence or a term change.
    fn refresh_monitor_cache(&mut self) {
        let sel = self.monitor.selection();
        self.monitor_excluded = (0..self.system.n).filter(|&r| !sel.contains(r)).collect();
        self.monitor_u = sel.estimate_u;
        self.refresh_timeouts();
    }

    /// Re-derive the cached timeouts. They depend on `last_tree` and, via
    /// `k()`, on `estimate_u` and `monitor_u`: every write to one of those
    /// is followed by this call, so the per-message timeout queries read a
    /// cached pair instead of re-scoring the tree.
    fn refresh_timeouts(&mut self) {
        let (n, k) = (self.system.n, self.k());
        self.timeouts = self.last_tree.as_ref().map(|tree| {
            let (view, child) = tree_timeouts(tree, &self.matrix_rtt_ms, n, k, DELTA);
            // Leave headroom for pipelined views queued behind each other.
            (
                view * 3 + Duration::from_millis(50),
                child + Duration::from_millis(5),
            )
        });
    }

    /// Override the annealing budget (maps the paper's search time).
    pub fn with_annealing(mut self, params: AnnealingParams) -> Self {
        self.annealing = params;
        self
    }

    /// Current fault estimate `u`: locally observed view failures plus the
    /// pair-derived estimate of the committed-evidence monitor. The two
    /// sources can describe the same incident (a provisional local +1
    /// before the pair evidence commits), so the sum is capped at the
    /// system's fault threshold — provisioning for more than `f` faults is
    /// never warranted and would only inflate every tree's vote target.
    pub fn estimate_u(&self) -> usize {
        (self.estimate_u + self.monitor_u).min(self.system.f)
    }

    /// Current candidate set (local crash exclusions only; the pair-driven
    /// exclusions of the monitor are intersected in at search time — see
    /// [`OptiTreePolicy::effective_candidates`]).
    pub fn candidates(&self) -> &BTreeSet<usize> {
        &self.candidates
    }

    /// The candidates the SA search may place in internal positions: the
    /// local set minus every replica the committed pair evidence excludes.
    pub fn effective_candidates(&self) -> Vec<usize> {
        self.candidates
            .iter()
            .copied()
            .filter(|r| !self.monitor_excluded.contains(r))
            .collect()
    }

    /// The number of votes the tree is provisioned for: `k = q + u`.
    pub fn k(&self) -> usize {
        (self.system.quorum() + self.estimate_u()).min(self.system.n)
    }

    fn search_space(&self) -> TreeSearchSpace {
        TreeSearchSpace {
            n: self.system.n,
            branch: self.system.tree_branch_factor(),
            matrix_rtt_ms: self.matrix_rtt_ms.clone(),
            candidates: self.effective_candidates(),
            k: self.k(),
        }
    }
}

impl TreePolicy for OptiTreePolicy {
    fn next_tree(&mut self, n: usize, b: usize) -> Tree {
        // Ensure enough candidates remain to fill the internal positions;
        // Theorem D.1 guarantees this, but guard against degenerate configs.
        if self.effective_candidates().len() < b + 1 {
            self.candidates = (0..n).collect();
            self.estimate_u = 0;
            if self.effective_candidates().len() < b + 1 {
                // Even the committed evidence excludes too much: discard the
                // accumulated suspicions (the §4.2.3 too-many-suspicions
                // rule, coarse-grained) rather than deadlock. Resetting the
                // monitor itself — not just the cached view — keeps the
                // relief durable: otherwise the next committed pair would
                // restore the full exclusion set and this reset would wipe
                // the crash exclusions again on every reconfiguration.
                self.monitor = SuspicionMonitor::new(
                    SuspicionMonitorParams::new(self.system.n, self.system.f).with_tree_strategy(),
                );
                self.monitor.on_view(self.terms);
                self.refresh_monitor_cache();
            }
        }
        let space = self.search_space();
        let (tree, _) = search_tree(
            &space,
            self.annealing,
            self.seed.wrapping_add(self.reconfigurations as u64),
        );
        self.reconfigurations += 1;
        self.last_tree = Some(tree.clone());
        self.refresh_timeouts();
        tree
    }

    fn child_timeout(&self) -> Duration {
        self.timeouts
            .map_or(Duration::from_millis(400), |(_, child)| child)
    }

    fn view_timeout(&self) -> Duration {
        self.timeouts
            .map_or(Duration::from_millis(2_000), |(view, _)| view)
    }

    fn on_view_failure(&mut self, missing: &[usize]) {
        // §6.4: a failed tree yields suspicions against its unresponsive
        // internal nodes; every such node is excluded together with (at most)
        // one accuser, and u grows by the number of excluded pairs.
        let Some(tree) = &self.last_tree else {
            return;
        };
        let failed_internals: Vec<usize> = tree
            .internal_nodes()
            .into_iter()
            .filter(|r| missing.contains(r))
            .collect();
        if failed_internals.is_empty() {
            // The tree failed without an identifiable internal culprit
            // (a withheld-payload failure, or too many leaves down): the
            // committed pair evidence names the culprit once it flows
            // through the log; until then, provision for one more fault.
            self.estimate_u = (self.estimate_u + 1).min(self.system.f);
        } else {
            for internal in failed_internals {
                if self.candidates.remove(&internal) {
                    self.estimate_u = (self.estimate_u + 1).min(self.system.n);
                }
            }
        }
        self.refresh_timeouts();
    }

    fn on_committed_pair(&mut self, pair: &SuspicionPair) {
        // The committed pair becomes an edge of the suspicion graph; the
        // disjoint-edge/triangle strategy excludes the pair members the
        // evidence keeps implicating (the actual delayer reappears in every
        // pair it caused; an innocent root appears in none). Deeper echoes
        // of an already-explained round — and reciprocations of such
        // filtered echoes — never reach the graph.
        if pair.reciprocal {
            if !self
                .accepted_pairs
                .contains(&(pair.accused, pair.accuser, pair.round))
            {
                return;
            }
        } else {
            if !self.filter.accept(pair.round, pair.phase) {
                return;
            }
            self.accepted_pairs
                .insert((pair.accuser, pair.accused, pair.round));
        }
        self.monitor.on_suspicion(&Suspicion::from_pair(pair));
        self.refresh_monitor_cache();
    }

    fn on_adopted_epoch(&mut self, _epoch: u64) {
        // One adopted configuration = one leader term: the clock the
        // reciprocation (`f + 1`) and stability (`w`) windows count in. A
        // new term's proposer may reuse round numbers, so the causal filter
        // starts fresh (accepted pairs are kept: a reciprocation may
        // legitimately commit just after the epoch boundary).
        self.terms += 1;
        self.monitor.on_view(self.terms);
        self.filter.reset();
        self.refresh_monitor_cache();
    }

    fn excluded(&self) -> Vec<usize> {
        (0..self.system.n)
            .filter(|r| !self.candidates.contains(r) || self.monitor_excluded.contains(r))
            .collect()
    }
}

/// Kauri-sa: SA-optimised trees without OptiLog's candidate set or estimate.
/// After each failure, every internal node of the failed tree is excluded
/// (the behaviour described in §7.5), and the score always provisions for
/// the worst case `k = q + f`.
pub struct KauriSaPolicy {
    system: SystemConfig,
    matrix_rtt_ms: Vec<f64>,
    excluded: BTreeSet<usize>,
    annealing: AnnealingParams,
    seed: u64,
    last_tree: Option<Tree>,
    reconfigurations: usize,
}

impl KauriSaPolicy {
    /// Create the baseline policy.
    pub fn new(system: SystemConfig, matrix_rtt_ms: Vec<f64>, seed: u64) -> Self {
        KauriSaPolicy {
            system,
            matrix_rtt_ms,
            excluded: BTreeSet::new(),
            annealing: AnnealingParams {
                iterations: 4_000,
                ..Default::default()
            },
            seed,
            last_tree: None,
            reconfigurations: 0,
        }
    }

    /// Replicas currently excluded from internal positions.
    pub fn excluded(&self) -> &BTreeSet<usize> {
        &self.excluded
    }
}

impl TreePolicy for KauriSaPolicy {
    fn next_tree(&mut self, n: usize, b: usize) -> Tree {
        let mut candidates: Vec<usize> = (0..n).filter(|r| !self.excluded.contains(r)).collect();
        if candidates.len() < b + 1 {
            self.excluded.clear();
            candidates = (0..n).collect();
        }
        let space = TreeSearchSpace {
            n,
            branch: b,
            matrix_rtt_ms: self.matrix_rtt_ms.clone(),
            candidates,
            k: (self.system.quorum() + self.system.f).min(n),
        };
        let (tree, _) = search_tree(
            &space,
            self.annealing,
            self.seed.wrapping_add(self.reconfigurations as u64),
        );
        self.reconfigurations += 1;
        self.last_tree = Some(tree.clone());
        tree
    }

    fn on_view_failure(&mut self, _missing: &[usize]) {
        if let Some(tree) = &self.last_tree {
            self.excluded.extend(tree.internal_nodes());
        }
    }

    // Deliberately no `on_committed_pair` override: Kauri-sa is the §7.5
    // baseline without OptiLog's evidence pipeline — it blames whole trees,
    // not pairs.

    fn excluded(&self) -> Vec<usize> {
        self.excluded.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::tree_score;

    fn clustered(n: usize, cluster: usize) -> Vec<f64> {
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

    #[test]
    fn optitree_picks_better_trees_than_random() {
        let n = 21;
        let system = SystemConfig::new(n);
        let m = clustered(n, 10);
        let mut policy = OptiTreePolicy::new(system, m.clone(), 3);
        let tree = policy.next_tree(n, system.tree_branch_factor());
        let k = policy.k();
        let opt_score = tree_score(&tree, &m, n, k);
        // Average random tree score.
        let rand_score: f64 = (0..20)
            .map(|s| tree_score(&Tree::random(n, system.tree_branch_factor(), s), &m, n, k))
            .sum::<f64>()
            / 20.0;
        assert!(
            opt_score < rand_score,
            "OptiTree {opt_score} should beat random {rand_score}"
        );
    }

    #[test]
    fn view_failure_excludes_internal_and_raises_u() {
        let n = 21;
        let system = SystemConfig::new(n);
        let mut policy = OptiTreePolicy::new(system, clustered(n, 21), 1);
        let tree = policy.next_tree(n, system.tree_branch_factor());
        let victim = tree.intermediates[0];
        assert_eq!(policy.estimate_u(), 0);
        policy.on_view_failure(&[victim]);
        assert_eq!(policy.estimate_u(), 1);
        assert!(!policy.candidates().contains(&victim));
        let next = policy.next_tree(n, system.tree_branch_factor());
        assert!(
            !next.internal_nodes().contains(&victim),
            "excluded replica must not be internal again"
        );
    }

    #[test]
    fn failure_without_internal_culprit_still_raises_u() {
        let n = 13;
        let system = SystemConfig::new(n);
        let mut policy = OptiTreePolicy::new(system, clustered(n, 13), 1);
        let tree = policy.next_tree(n, 3);
        let some_leaf = *tree.leaves_of(tree.intermediates[0]).first().expect("leaf");
        policy.on_view_failure(&[some_leaf]);
        assert_eq!(policy.estimate_u(), 1);
        assert_eq!(policy.candidates().len(), n, "leaves are not excluded");
    }

    #[test]
    fn kauri_sa_excludes_all_internals_after_failure() {
        let n = 21;
        let system = SystemConfig::new(n);
        let mut policy = KauriSaPolicy::new(system, clustered(n, 21), 9);
        let t1 = policy.next_tree(n, 4);
        policy.on_view_failure(&[t1.root]);
        assert_eq!(
            policy.excluded().len(),
            5,
            "root + 4 intermediates excluded"
        );
        let t2 = policy.next_tree(n, 4);
        for r in t1.internal_nodes() {
            assert!(!t2.internal_nodes().contains(&r));
        }
    }

    #[test]
    fn optitree_timeouts_reflect_tree_latency() {
        let n = 21;
        let system = SystemConfig::new(n);
        let mut policy = OptiTreePolicy::new(system, clustered(n, 21), 2);
        assert_eq!(
            policy.view_timeout(),
            Duration::from_millis(2_000),
            "default before a tree exists"
        );
        let _ = policy.next_tree(n, 4);
        let view = policy.view_timeout();
        // All links are 10 ms RTT, so the view timeout must be tight (well
        // below the 2 s default) once derived from the tree.
        assert!(view < Duration::from_millis(500), "got {view}");
        assert!(policy.child_timeout() < Duration::from_millis(100));
    }

    #[test]
    fn committed_pairs_exclude_the_recurring_member_not_the_root() {
        // The overtly-delaying-intermediate shape: replica 5 (an
        // intermediate) withholds forwarded payloads, so each of its leaves
        // commits a (leaf, 5) pair and 5 reciprocates. The disjoint-pair
        // rule excludes 5 (with at most one accuser); the root — implicated
        // by no pair — stays a candidate.
        let n = 21;
        let system = SystemConfig::new(n);
        let mut policy = OptiTreePolicy::new(system, clustered(n, 21), 1);
        let first = policy.next_tree(n, system.tree_branch_factor());
        let root = first.root;
        let attacker = 5;
        assert_ne!(root, attacker, "test setup: the root is not the attacker");
        for (i, leaf) in [10usize, 11, 12].into_iter().enumerate() {
            let pair = SuspicionPair {
                accuser: leaf,
                accused: attacker,
                round: 100 + i as u64,
                phase: 2,
                reciprocal: false,
            };
            policy.on_committed_pair(&pair);
            policy.on_committed_pair(&pair.reciprocation());
        }
        policy.on_adopted_epoch(2);
        assert!(
            policy.excluded().contains(&attacker),
            "pairs must exclude the delayer"
        );
        assert!(
            !policy.excluded().contains(&root),
            "the innocent root must stay eligible: {:?}",
            policy.excluded()
        );
        assert!(policy.estimate_u() >= 1, "each excluded pair raises u");
        let next = policy.next_tree(n, system.tree_branch_factor());
        assert!(
            !next.internal_nodes().contains(&attacker),
            "the delayer must not hold an internal position again"
        );
    }

    #[test]
    fn phase_filter_keeps_root_level_evidence_only() {
        // A delaying *root* floods every tree edge with pairs: the
        // intermediates' phase-1 pairs commit alongside the leaves' phase-2
        // echoes of the very same withheld views. The causal filter keeps
        // the root-most evidence per round, so the root is excluded while
        // the echo pairs do not pile up extra exclusions.
        let n = 21;
        let system = SystemConfig::new(n);
        let mut policy = OptiTreePolicy::new(system, clustered(n, 21), 1);
        let _ = policy.next_tree(n, system.tree_branch_factor());
        let root = 0;
        for (accuser, phase) in [(1usize, 1u32), (2, 1), (3, 1), (10, 2), (11, 2)] {
            let accused = if phase == 1 { root } else { accuser - 9 };
            let pair = SuspicionPair {
                accuser,
                accused,
                round: 50,
                phase,
                reciprocal: false,
            };
            policy.on_committed_pair(&pair);
            policy.on_committed_pair(&pair.reciprocation());
        }
        assert!(
            policy.excluded().contains(&root),
            "the delaying root is excluded"
        );
        // The leaves' deeper echoes of round 50 (accusing intermediates 1
        // and 2) were causally filtered: the innocent intermediates they
        // would implicate are not *both* swept out with the root.
        assert!(
            !(policy.excluded().contains(&1) && policy.excluded().contains(&2)),
            "echo pairs must not exclude every implicated intermediate: {:?}",
            policy.excluded()
        );
    }

    #[test]
    fn candidate_exhaustion_resets_instead_of_panicking() {
        let n = 13;
        let system = SystemConfig::new(n);
        let mut policy = OptiTreePolicy::new(system, clustered(n, 13), 4);
        // Fail enough internal nodes to exhaust the candidate pool.
        for _ in 0..12 {
            let tree = policy.next_tree(n, 3);
            let internals = tree.internal_nodes();
            policy.on_view_failure(&internals);
        }
        let tree = policy.next_tree(n, 3);
        assert_eq!(tree.size(), n);
    }
}
