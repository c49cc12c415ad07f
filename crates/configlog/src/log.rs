//! The epoch-monotone adoption state machine.

use crate::command::{ConfigCommand, SuspicionPair};
use runtime::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// A configuration adopted from the log, with the bookkeeping the per-epoch
/// judging machinery needs.
#[derive(Debug, Clone, PartialEq)]
pub struct AdoptedConfig<C> {
    /// The adopted epoch.
    pub epoch: u64,
    /// The configuration payload.
    pub config: C,
    /// Log position of the adopting command (0 for the genesis config).
    pub seq: u64,
    /// Local time this replica applied the commit. Replicas apply the same
    /// commands in the same order but at different local times, so this is
    /// the only per-replica field — everything else is identical across the
    /// cluster.
    pub adopted_at: SimTime,
}

/// The replicated configuration log of one replica.
///
/// Commands are applied in *committed order* — the substrate's consensus
/// already totally ordered them — and adoption is a pure function of that
/// order: `Config` commands are adopted iff their epoch exceeds the current
/// one (stale or duplicate deliveries are logged but change nothing),
/// `Exclude` commands merge into a cumulative exclusion set, and `Pair`
/// evidence accumulates for the suspicion monitors' query API.
#[derive(Debug, Clone)]
pub struct ConfigLog<C> {
    /// Every committed command, in order (the replicated log itself); a
    /// command's log position is its index.
    log: Vec<ConfigCommand<C>>,
    /// Epoch → adopted configuration, bounded by `capacity`.
    history: BTreeMap<u64, AdoptedConfig<C>>,
    current_epoch: u64,
    excluded: BTreeSet<usize>,
    pairs: Vec<SuspicionPair>,
    capacity: usize,
}

impl<C: Clone> ConfigLog<C> {
    /// Create a log holding the genesis configuration as epoch 0, retaining
    /// at most `capacity` past epochs for per-epoch judging.
    pub fn new(genesis: C, capacity: usize) -> Self {
        let mut history = BTreeMap::new();
        history.insert(
            0,
            AdoptedConfig {
                epoch: 0,
                config: genesis,
                seq: 0,
                adopted_at: SimTime::ZERO,
            },
        );
        ConfigLog {
            log: Vec::new(),
            history,
            current_epoch: 0,
            excluded: BTreeSet::new(),
            pairs: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Apply the next committed command (in log order) at local time `now`.
    /// Returns the newly adopted configuration when the command was a
    /// `Config` with an epoch above the current one, `None` otherwise.
    pub fn apply(&mut self, cmd: ConfigCommand<C>, now: SimTime) -> Option<&AdoptedConfig<C>> {
        let seq = self.log.len() as u64;
        self.log.push(cmd.clone());
        match cmd {
            ConfigCommand::Config { epoch, config } => {
                if epoch <= self.current_epoch {
                    return None;
                }
                self.current_epoch = epoch;
                self.history.insert(
                    epoch,
                    AdoptedConfig {
                        epoch,
                        config,
                        seq,
                        adopted_at: now,
                    },
                );
                while self.history.len() > self.capacity {
                    let oldest = *self.history.keys().next().expect("non-empty history");
                    self.history.remove(&oldest);
                }
                self.history.get(&epoch)
            }
            ConfigCommand::Exclude { replicas, .. } => {
                self.excluded.extend(replicas);
                None
            }
            ConfigCommand::Pair(pair) => {
                self.pairs.push(pair);
                None
            }
        }
    }

    /// The currently adopted epoch.
    pub fn epoch(&self) -> u64 {
        self.current_epoch
    }

    /// The currently adopted configuration.
    pub fn current(&self) -> &AdoptedConfig<C> {
        self.history
            .get(&self.current_epoch)
            .expect("current epoch always in history")
    }

    /// The configuration adopted for `epoch`, if still retained.
    pub fn get(&self, epoch: u64) -> Option<&AdoptedConfig<C>> {
        self.history.get(&epoch)
    }

    /// The local time `epoch` was adopted, if still retained.
    pub fn adopted_at(&self, epoch: u64) -> Option<SimTime> {
        self.history.get(&epoch).map(|a| a.adopted_at)
    }

    /// The retained epoch → configuration history, oldest first.
    pub fn epochs(&self) -> impl Iterator<Item = &AdoptedConfig<C>> {
        self.history.values()
    }

    /// Number of committed commands applied so far (the next expected log
    /// position — what a wire-prefix consumer compares against).
    pub fn len(&self) -> u64 {
        self.log.len() as u64
    }

    /// True before any command committed.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// All committed commands from position `from`, in order (the wire
    /// prefix a proposer ships so lagging replicas catch up through the
    /// log, not through gossip).
    pub fn commands_from(&self, from: u64) -> impl Iterator<Item = (u64, &ConfigCommand<C>)> {
        self.log
            .iter()
            .enumerate()
            .skip(from as usize)
            .map(|(seq, cmd)| (seq as u64, cmd))
    }

    /// The cumulative exclusion set from committed `Exclude` commands.
    pub fn excluded(&self) -> &BTreeSet<usize> {
        &self.excluded
    }

    /// All committed suspicion pairs, in log order — the query API the
    /// suspicion monitor judges against.
    pub fn pairs(&self) -> &[SuspicionPair] {
        &self.pairs
    }

    /// True if a round straddles an epoch boundary: its predecessor ran
    /// under a different configuration, so its quorum assembled under a mix
    /// of old and new weights and its timings belong to neither epoch.
    pub fn is_boundary_round(record_epoch: u64, prev_epoch: Option<u64>) -> bool {
        prev_epoch != Some(record_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::Duration;

    fn cfg(epoch: u64, v: u32) -> ConfigCommand<u32> {
        ConfigCommand::Config { epoch, config: v }
    }

    fn pair(accuser: usize, accused: usize, round: u64) -> SuspicionPair {
        SuspicionPair {
            accuser,
            accused,
            round,
            phase: 1,
            reciprocal: false,
        }
    }

    #[test]
    fn adoption_is_epoch_monotone() {
        let mut log = ConfigLog::new(0u32, 8);
        assert_eq!(log.epoch(), 0);
        assert!(log.apply(cfg(2, 20), SimTime::from_secs(1)).is_some());
        assert_eq!(log.epoch(), 2);
        // Stale and duplicate commands are logged but never adopted.
        assert!(log.apply(cfg(1, 10), SimTime::from_secs(2)).is_none());
        assert!(log.apply(cfg(2, 99), SimTime::from_secs(2)).is_none());
        assert_eq!(log.current().config, 20);
        assert_eq!(log.len(), 3);
        // Gaps are fine: epochs whose command never committed are skipped.
        let adopted = log
            .apply(cfg(5, 50), SimTime::from_secs(3))
            .cloned()
            .expect("adopts");
        assert_eq!(adopted.epoch, 5);
        assert_eq!(adopted.seq, 3);
        assert_eq!(adopted.adopted_at, SimTime::from_secs(3));
        assert_eq!(log.epoch(), 5);
    }

    #[test]
    fn history_keeps_per_epoch_adoption_times_and_prunes() {
        let mut log = ConfigLog::new(0u32, 3);
        for e in 1..=5u64 {
            log.apply(
                cfg(e, e as u32 * 10),
                SimTime::ZERO + Duration::from_secs(e),
            );
        }
        // Capacity 3: epochs 3, 4, 5 retained; 0..2 pruned.
        assert!(log.get(2).is_none());
        assert_eq!(log.adopted_at(4), Some(SimTime::from_secs(4)));
        let kept: Vec<u64> = log.epochs().map(|a| a.epoch).collect();
        assert_eq!(kept, vec![3, 4, 5]);
    }

    #[test]
    fn pairs_and_exclusions_accumulate_without_adoption() {
        let mut log = ConfigLog::new(0u32, 4);
        assert!(log
            .apply(ConfigCommand::Pair(pair(1, 2, 7)), SimTime::ZERO)
            .is_none());
        assert!(log
            .apply(
                ConfigCommand::Exclude {
                    epoch: 0,
                    replicas: vec![4, 5],
                },
                SimTime::ZERO
            )
            .is_none());
        assert_eq!(log.epoch(), 0);
        assert_eq!(log.pairs().len(), 1);
        assert_eq!(log.pairs()[0].accused, 2);
        assert!(log.excluded().contains(&4) && log.excluded().contains(&5));
    }

    #[test]
    fn commands_from_exposes_the_wire_prefix() {
        let mut log = ConfigLog::new(0u32, 4);
        log.apply(cfg(1, 1), SimTime::ZERO);
        log.apply(ConfigCommand::Pair(pair(0, 1, 1)), SimTime::ZERO);
        log.apply(cfg(2, 2), SimTime::ZERO);
        let tail: Vec<u64> = log.commands_from(1).map(|(s, _)| s).collect();
        assert_eq!(tail, vec![1, 2]);
        assert_eq!(log.commands_from(3).count(), 0);
    }

    #[test]
    fn boundary_round_rule() {
        assert!(ConfigLog::<u32>::is_boundary_round(3, Some(2)));
        assert!(ConfigLog::<u32>::is_boundary_round(3, None));
        assert!(!ConfigLog::<u32>::is_boundary_round(3, Some(3)));
    }
}
