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
//! substrate installs its replica's stages in a [`Withhold`], the one hold
//! path every family sends its proposals through: the PBFT replica holds its
//! unsent Pre-Prepare, the HotStuff leader its block proposal, and the
//! Kauri/OptiTree root (or intermediate) the payloads it disseminates down
//! the tree. The held payload keeps its honest proposal timestamp (PBFT
//! stamps its Pre-Prepare when it is released), so the delay is
//! protocol-visible exactly the way the paper's suspicion conditions observe
//! it.

use runtime::{Context, Duration, FaultWindow, SimTime};
use std::collections::BTreeMap;
use std::ops::RangeFrom;

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
/// stages, handed to each replica when its cluster is built and installed
/// in its [`Withhold`].
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

/// The timer tags a [`Withhold`] claims (`start + n` releases its `n`-th
/// hold); a family keeps its own timer tags below them.
pub const HOLD_TAGS: RangeFrom<u64> = (1 << 62)..;

/// One replica's scripted withholding: its delay stages, and the payloads
/// they hold until their release timers fire. The payloads live in a vector
/// that keeps its capacity, so a long attack holds without allocating.
#[derive(Debug)]
pub struct Withhold<T> {
    stages: Vec<DelayStage>,
    /// `(hold number, payload)`.
    held: Vec<(u64, T)>,
    next: u64,
}

impl<T> Withhold<T> {
    /// Withhold by `stages` (none for a correct replica).
    pub fn new(stages: Vec<DelayStage>) -> Self {
        Withhold {
            stages,
            held: Vec::new(),
            next: 0,
        }
    }

    /// The delay of the first stage whose window contains `now`.
    fn delay_at(&self, now: SimTime) -> Duration {
        self.stages
            .iter()
            .find(|s| s.window.contains(now))
            .map_or(Duration::ZERO, |s| s.delay)
    }

    /// True while a stage holds what is sent at `now`.
    pub fn active(&self, now: SimTime) -> bool {
        !self.delay_at(now).is_zero()
    }

    /// Hold `payload` and arm its release timer if a stage is active,
    /// returning the hold for the caller's `Hold` span; otherwise hand the
    /// payload back to be sent at once.
    pub fn hold<M>(&mut self, ctx: &mut Context<M>, payload: T) -> Result<Duration, T> {
        let delay = self.delay_at(ctx.now);
        if delay.is_zero() {
            return Err(payload);
        }
        self.held.push((self.next, payload));
        ctx.set_timer(delay, HOLD_TAGS.start + self.next);
        self.next += 1;
        Ok(delay)
    }

    /// The payload whose release timer carries `tag`; `None` for a tag
    /// outside [`HOLD_TAGS`] or a payload [`Withhold::clear`] dropped.
    pub fn release(&mut self, tag: u64) -> Option<T> {
        let n = tag.checked_sub(HOLD_TAGS.start)?;
        let at = self.held.iter().position(|&(held, _)| held == n)?;
        Some(self.held.swap_remove(at).1)
    }

    /// True while a payload waits for its release timer.
    pub fn is_holding(&self) -> bool {
        !self.held.is_empty()
    }

    /// Drop every held payload; their timers release nothing.
    pub fn clear(&mut self) {
        self.held.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::Action;

    fn ctx_at(ms: u64) -> Context<()> {
        Context::new(0, SimTime::from_millis(ms), 1, 0, Vec::new())
    }

    /// The `(delay, tag)` of every timer `ctx` armed.
    fn timers(ctx: Context<()>) -> Vec<(Duration, u64)> {
        let mut timers = Vec::new();
        ctx.finish(|a| {
            if let Action::SetTimer { delay, tag, .. } = a {
                timers.push((delay, tag));
            }
        });
        timers
    }

    /// 100 ms in `[0, 10 s)`, then 700 ms from 10 s on.
    fn two_stages() -> Withhold<&'static str> {
        Withhold::new(vec![
            DelayStage::during(
                Duration::from_millis(100),
                SimTime::ZERO,
                SimTime::from_secs(10),
            ),
            DelayStage::during(
                Duration::from_millis(700),
                SimTime::from_secs(10),
                SimTime::MAX,
            ),
        ])
    }

    #[test]
    fn without_an_active_stage_the_payload_comes_back_and_no_timer_is_set() {
        let mut withhold = Withhold::new(Vec::new());
        let mut ctx = ctx_at(5);
        assert!(!withhold.active(ctx.now));
        assert_eq!(withhold.hold(&mut ctx, "p"), Err("p"));
        assert!(!withhold.is_holding());
        assert!(timers(ctx).is_empty());
    }

    #[test]
    fn holds_under_different_stages_release_by_tag_in_either_order() {
        for reversed in [false, true] {
            let mut withhold = two_stages();
            let mut ctx = ctx_at(1_000);
            assert_eq!(
                withhold.hold(&mut ctx, "early"),
                Ok(Duration::from_millis(100))
            );
            let early = timers(ctx);
            let mut ctx = ctx_at(12_000);
            assert_eq!(
                withhold.hold(&mut ctx, "late"),
                Ok(Duration::from_millis(700))
            );
            let late = timers(ctx);
            assert_eq!(early.len(), 1);
            assert_eq!(late.len(), 1);
            let (early, late) = (early[0].1, late[0].1);
            assert!(HOLD_TAGS.contains(&early) && HOLD_TAGS.contains(&late));
            assert_ne!(early, late);
            let mut fire = [(early, "early"), (late, "late")];
            if reversed {
                fire.reverse();
            }
            for (tag, payload) in fire {
                assert!(withhold.is_holding());
                assert_eq!(withhold.release(tag), Some(payload));
                assert_eq!(withhold.release(tag), None, "a payload releases once");
            }
            assert!(!withhold.is_holding());
        }
    }

    #[test]
    fn a_timer_firing_after_clear_releases_nothing() {
        let mut withhold = two_stages();
        let mut ctx = ctx_at(1);
        assert!(withhold.hold(&mut ctx, "p").is_ok());
        let tag = timers(ctx)[0].1;
        withhold.clear();
        assert!(!withhold.is_holding());
        assert_eq!(withhold.release(tag), None);
        // The next hold takes a fresh tag, so the stale timer cannot reach it.
        let mut ctx = ctx_at(2);
        assert!(withhold.hold(&mut ctx, "q").is_ok());
        let fresh = timers(ctx)[0].1;
        assert_ne!(fresh, tag);
        assert_eq!(withhold.release(tag), None);
        assert_eq!(withhold.release(fresh), Some("q"));
    }

    #[test]
    fn tags_below_the_reserved_range_are_not_claimed() {
        let mut withhold = two_stages();
        let mut ctx = ctx_at(1);
        assert!(withhold.hold(&mut ctx, "p").is_ok());
        let tag = timers(ctx)[0].1;
        for family_tag in [0, 1, 2, 1_000, 2_000_000_000, HOLD_TAGS.start - 1] {
            assert_eq!(withhold.release(family_tag), None);
        }
        assert!(withhold.is_holding());
        assert_eq!(withhold.release(tag), Some("p"));
    }

    #[test]
    fn hold_and_release_cycles_keep_the_capacity() {
        let mut withhold = two_stages();
        let mut capacity = None;
        for cycle in 0..100 {
            let mut ctx = ctx_at(cycle);
            assert!(withhold.hold(&mut ctx, "a").is_ok());
            assert!(withhold.hold(&mut ctx, "b").is_ok());
            let tags = timers(ctx);
            assert_eq!(withhold.release(tags[1].1), Some("b"));
            assert_eq!(withhold.release(tags[0].1), Some("a"));
            let now = withhold.held.capacity();
            assert_eq!(*capacity.get_or_insert(now), now, "cycle {cycle}");
        }
    }

    /// The hold `replica` applies at `now`, the way a substrate asks.
    fn proposal_hold(plan: &MisbehaviorPlan, replica: usize, now: SimTime) -> Duration {
        Withhold::<()>::new(plan.stages_for(replica)).delay_at(now)
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
        let withhold = Withhold::<()>::new(vec![
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
        ]);
        assert_eq!(withhold.delay_at(SimTime::from_secs(15)).as_millis(), 300);
        assert_eq!(withhold.delay_at(SimTime::from_secs(25)).as_millis(), 900);
    }
}
