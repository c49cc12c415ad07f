//! Protocol-level misbehavior scripts shared by the consensus substrates.
//!
//! The paper's performance adversary does not tamper with the network — it
//! *withholds its own protocol messages*: a Byzantine leader/root delays the
//! proposals it is supposed to disseminate (Fig 7, Fig 11). Network-level
//! fault plans (the simulator's `FaultPlan`) cannot express
//! this faithfully, because a network delay slows *every* message of the
//! node, including votes and aggregates it sends as a follower.
//!
//! [`MisbehaviorPlan`] is the substrate-agnostic description of the scripted
//! attack: per replica, a set of time-windowed [`DelayStage`]s. Each
//! substrate installs its replica's stages as a *behaviour*: the PBFT replica
//! delays its Pre-Prepare, the HotStuff leader holds its block proposal, and
//! the Kauri/OptiTree root (or intermediate) holds the payloads it
//! disseminates down the tree — all while keeping honest proposal
//! timestamps, so the delay is protocol-visible exactly the way the paper's
//! suspicion conditions observe it.

use runtime::{Duration, FaultWindow, SimTime};
use std::collections::BTreeMap;

/// One phase of a proposal-delay attack. The first stage whose window
/// contains the send time applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayStage {
    /// Extra hold applied to each proposal sent while the stage is active.
    pub delay: Duration,
    /// When the stage is active.
    pub window: FaultWindow,
}

impl DelayStage {
    /// A stage active in `[from, until)`; `until == SimTime::MAX` means
    /// open-ended.
    pub fn during(delay: Duration, from: SimTime, until: SimTime) -> Self {
        DelayStage {
            delay,
            window: FaultWindow {
                from,
                until: (until != SimTime::MAX).then_some(until),
            },
        }
    }
}

/// Scripted protocol-level misbehavior for one run: per-replica delay
/// stages, handed to each replica when its cluster is built and queried
/// through [`hold_at`] at every proposal send.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MisbehaviorPlan {
    stages: BTreeMap<usize, Vec<DelayStage>>,
}

impl MisbehaviorPlan {
    /// The empty plan: every replica follows the protocol.
    pub fn none() -> Self {
        MisbehaviorPlan::default()
    }

    /// True if no replica misbehaves.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Script `replica` to hold each of its proposals by `delay` while the
    /// window `[from, until)` is open (`SimTime::MAX` = open-ended). Stages
    /// on the same replica accumulate, so a script can attack, go quiet,
    /// and attack again.
    pub fn delay_proposals_during(
        &mut self,
        replica: usize,
        delay: Duration,
        from: SimTime,
        until: SimTime,
    ) -> &mut Self {
        self.stages
            .entry(replica)
            .or_default()
            .push(DelayStage::during(delay, from, until));
        self
    }

    /// The stages scripted for `replica` (empty for correct replicas).
    pub fn stages_for(&self, replica: usize) -> Vec<DelayStage> {
        self.stages.get(&replica).cloned().unwrap_or_default()
    }
}

/// The hold a stage list applies at `now`: the first active stage wins.
pub fn hold_at(stages: &[DelayStage], now: SimTime) -> Duration {
    stages
        .iter()
        .find(|s| s.window.contains(now))
        .map(|s| s.delay)
        .unwrap_or(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hold `replica` applies at `now`, the way a substrate asks.
    fn proposal_hold(plan: &MisbehaviorPlan, replica: usize, now: SimTime) -> Duration {
        hold_at(&plan.stages_for(replica), now)
    }

    #[test]
    fn empty_plan_never_holds() {
        let plan = MisbehaviorPlan::none();
        assert!(plan.is_empty());
        assert!(proposal_hold(&plan, 0, SimTime::from_secs(10)).is_zero());
        assert!(plan.stages_for(3).is_empty());
    }

    #[test]
    fn windowed_stage_holds_only_inside_window() {
        let mut plan = MisbehaviorPlan::none();
        plan.delay_proposals_during(
            2,
            Duration::from_millis(400),
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        assert!(proposal_hold(&plan, 2, SimTime::from_secs(9)).is_zero());
        assert_eq!(
            proposal_hold(&plan, 2, SimTime::from_secs(10)).as_millis(),
            400
        );
        assert_eq!(
            proposal_hold(&plan, 2, SimTime::from_secs(19)).as_millis(),
            400
        );
        assert!(proposal_hold(&plan, 2, SimTime::from_secs(20)).is_zero());
        // Other replicas are unaffected.
        assert!(proposal_hold(&plan, 0, SimTime::from_secs(15)).is_zero());
    }

    #[test]
    fn open_ended_stage_and_accumulated_phases() {
        let mut plan = MisbehaviorPlan::none();
        plan.delay_proposals_during(
            1,
            Duration::from_millis(100),
            SimTime::from_secs(5),
            SimTime::from_secs(8),
        );
        plan.delay_proposals_during(
            1,
            Duration::from_millis(700),
            SimTime::from_secs(12),
            SimTime::MAX,
        );
        assert_eq!(
            proposal_hold(&plan, 1, SimTime::from_secs(6)).as_millis(),
            100
        );
        assert!(proposal_hold(&plan, 1, SimTime::from_secs(9)).is_zero());
        assert_eq!(
            proposal_hold(&plan, 1, SimTime::from_secs(500)).as_millis(),
            700
        );
        assert_eq!(plan.stages_for(1).len(), 2);
    }

    #[test]
    fn first_active_stage_wins_on_overlap() {
        let stages = vec![
            DelayStage::during(
                Duration::from_millis(300),
                SimTime::from_secs(0),
                SimTime::from_secs(20),
            ),
            DelayStage::during(
                Duration::from_millis(900),
                SimTime::from_secs(10),
                SimTime::MAX,
            ),
        ];
        assert_eq!(hold_at(&stages, SimTime::from_secs(15)).as_millis(), 300);
        assert_eq!(hold_at(&stages, SimTime::from_secs(25)).as_millis(), 900);
    }
}
