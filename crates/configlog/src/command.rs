//! The commands a replicated configuration log orders.

use serde::{Deserialize, Serialize};

/// Reciprocal suspicion-pair evidence (§6.4).
///
/// A receiver that observes a withheld payload cannot attribute the hold to
/// a specific upstream hop without trusting timestamps the attacker itself
/// would supply; what it *can* assert is "either my upstream hop delayed the
/// payload, or I am lying". That assertion is the pair: the receiver is the
/// `accuser`, its upstream hop the `accused`, and at most one of the two is
/// honest-and-wronged. Committed pairs feed the suspicion monitor's
/// conformity binning, which excises the member that keeps reappearing
/// across pairs instead of blaming the root directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuspicionPair {
    /// The replica raising the pair (the payload receiver).
    pub accuser: usize,
    /// Its upstream hop at the time of the observation.
    pub accused: usize,
    /// The consensus round/view the withheld payload belonged to.
    pub round: u64,
    /// The accuser's depth in the dissemination topology (1 = directly under
    /// the root). Enables the causal filter: a phase-1 pair for a round
    /// explains — and filters — the deeper pairs the same hold caused.
    pub phase: u32,
    /// True for a reciprocation: the accused answering an earlier pair with
    /// `⟨False, …⟩`, turning a one-way (crash-flavoured) suspicion into a
    /// mutual pair.
    pub reciprocal: bool,
}

impl SuspicionPair {
    /// Identity for deduplication: one pair per (accuser, accused, round,
    /// direction).
    pub fn key(&self) -> (usize, usize, u64, bool) {
        (self.accuser, self.accused, self.round, self.reciprocal)
    }

    /// The reciprocation the accused answers this pair with.
    pub fn reciprocation(&self) -> SuspicionPair {
        SuspicionPair {
            accuser: self.accused,
            accused: self.accuser,
            round: self.round,
            phase: self.phase,
            reciprocal: true,
        }
    }
}

/// The causal filter over suspicion pairs (§4.2.3, applied to §6.4 pairs):
/// per round, only the lowest-phase (root-most) evidence *seen so far* may
/// act — a pair raised directly under the root explains the deeper echoes
/// the same withheld payload causes, so later, deeper pairs for the round
/// are filtered. Committed order is identical at every replica, so the
/// first-committed-wins tie-break is deterministic cluster-wide.
///
/// Round numbers are only comparable within one configuration epoch (a new
/// proposer may reuse view numbers); callers judging per-epoch views should
/// [`PhaseFilter::reset`] the filter at every epoch adoption.
#[derive(Debug, Clone, Default)]
pub struct PhaseFilter {
    /// Lowest phase accepted per round.
    round_min_phase: std::collections::BTreeMap<u64, u32>,
}

impl PhaseFilter {
    /// Create an empty filter.
    pub fn new() -> Self {
        PhaseFilter::default()
    }

    /// Record evidence for `round` at `phase`; returns false when a lower
    /// phase was already accepted for the round (the evidence is an echo).
    pub fn accept(&mut self, round: u64, phase: u32) -> bool {
        let entry = self.round_min_phase.entry(round).or_insert(phase);
        let filtered = phase > *entry;
        *entry = (*entry).min(phase);
        !filtered
    }

    /// Forget all rounds (call at an epoch boundary when round numbers may
    /// be reused by the next proposer).
    pub fn reset(&mut self) {
        self.round_min_phase.clear();
    }
}

/// One entry of the replicated configuration log, ordered through the
/// substrate's own commit path. Generic over the configuration payload `C`
/// (weight configuration, dissemination tree, …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConfigCommand<C> {
    /// A full role configuration proposed for `epoch`. Adopted by
    /// [`crate::ConfigLog::apply`] iff `epoch` exceeds the current one —
    /// the epoch-monotone rule that makes duplicate or stale commands
    /// harmless.
    Config {
        /// The epoch the configuration claims.
        epoch: u64,
        /// The configuration payload.
        config: C,
    },
    /// Replicas excluded from special roles as of `epoch` (merged into the
    /// log's cumulative exclusion set).
    Exclude {
        /// The epoch the exclusion was decided under.
        epoch: u64,
        /// The excluded replicas.
        replicas: Vec<usize>,
    },
    /// Reciprocal suspicion-pair evidence; accumulated for the monitors'
    /// query API, never adopted.
    Pair(SuspicionPair),
}

impl<C> ConfigCommand<C> {
    /// The epoch the command is about, if it carries one.
    pub fn epoch(&self) -> Option<u64> {
        match self {
            ConfigCommand::Config { epoch, .. } | ConfigCommand::Exclude { epoch, .. } => {
                Some(*epoch)
            }
            ConfigCommand::Pair(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reciprocation_swaps_direction_and_flags() {
        let p = SuspicionPair {
            accuser: 3,
            accused: 7,
            round: 42,
            phase: 2,
            reciprocal: false,
        };
        let r = p.reciprocation();
        assert_eq!(r.accuser, 7);
        assert_eq!(r.accused, 3);
        assert_eq!(r.round, 42);
        assert_eq!(r.phase, 2);
        assert!(r.reciprocal);
        assert_ne!(p.key(), r.key());
    }

    #[test]
    fn command_epoch_accessor() {
        let c: ConfigCommand<u32> = ConfigCommand::Config {
            epoch: 5,
            config: 1,
        };
        assert_eq!(c.epoch(), Some(5));
        let e: ConfigCommand<u32> = ConfigCommand::Exclude {
            epoch: 2,
            replicas: vec![1],
        };
        assert_eq!(e.epoch(), Some(2));
        let p: ConfigCommand<u32> = ConfigCommand::Pair(SuspicionPair {
            accuser: 0,
            accused: 1,
            round: 1,
            phase: 1,
            reciprocal: false,
        });
        assert_eq!(p.epoch(), None);
    }

    #[test]
    fn phase_filter_keeps_rootmost_evidence_and_resets_per_epoch() {
        let mut f = PhaseFilter::new();
        assert!(f.accept(10, 1), "first evidence for a round is accepted");
        assert!(
            !f.accept(10, 2),
            "deeper echo of the same round is filtered"
        );
        assert!(f.accept(10, 1), "equal-phase evidence still acts");
        // First-committed-wins tie-break: a deeper pair committing first is
        // accepted, and the later root-most pair still acts (and lowers the
        // floor for anything after it).
        assert!(f.accept(11, 2));
        assert!(f.accept(11, 1));
        assert!(!f.accept(11, 2));
        // Epoch boundary: round numbers may be reused by the next proposer.
        f.reset();
        assert!(f.accept(10, 2), "reset forgets previous epochs' rounds");
    }

    #[test]
    fn pair_roundtrips_through_serde() {
        let p = SuspicionPair {
            accuser: 1,
            accused: 2,
            round: 9,
            phase: 1,
            reciprocal: true,
        };
        let bytes = serde_json::to_vec(&p).expect("serializes");
        let back: SuspicionPair = serde_json::from_slice(&bytes).expect("deserializes");
        assert_eq!(p, back);
    }
}
