//! The parking contract between a proposer and the admission queue.
//!
//! A proposer that asks [`crate::TrafficQueue::try_batch_at`] and gets
//! nothing *parks*: it asks [`crate::TrafficQueue::next_ready_at`] when a
//! batch can next flush and arms a timer for that instant. Proposers are
//! asked to propose far more often than batches fill — after every commit,
//! after every vote past the quorum — so the rule that keeps parking cheap is:
//!
//! **a proposer holds at most one armed wake-up.**
//!
//! [`WakeTimer`] is that rule. Arming while a wake-up that is due no later is
//! already pending does nothing; arming for an earlier instant replaces the
//! pending one. When the wake-up fires the proposer calls
//! [`WakeTimer::fired`], tries to propose, and parks again through
//! [`WakeTimer::arm`] if the queue is still dry — one timer per dry spell,
//! not one per request to propose.

use runtime::{Context, SimTime, TimerId};

/// The one wake-up a parked proposer may have armed: its timer and the
/// instant it is due, or nothing.
#[derive(Debug, Default)]
pub struct WakeTimer {
    armed: Option<(TimerId, SimTime)>,
}

impl WakeTimer {
    /// Nothing armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make sure a wake-up tagged `tag` fires no later than `at`: keep the
    /// armed one if it is due by then, otherwise cancel it and arm `at`.
    pub fn arm<M>(&mut self, ctx: &mut Context<M>, at: SimTime, tag: u64) {
        if let Some((timer, due)) = self.armed {
            if due <= at {
                return;
            }
            ctx.cancel_timer(timer);
        }
        let timer = ctx.set_timer(at.since(ctx.now), tag);
        self.armed = Some((timer, at));
    }

    /// The wake-up `timer` fired. Disarms if it is the armed one; a timer
    /// that was replaced after its runtime had already queued it is not, and
    /// leaves its replacement armed.
    pub fn fired(&mut self, timer: TimerId) {
        if self.armed.is_some_and(|(armed, _)| armed == timer) {
            self.armed = None;
        }
    }

    /// Forget the armed wake-up without cancelling it: for a crashed node,
    /// whose runtime drops its timers.
    pub fn clear(&mut self) {
        self.armed = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::{Action, Duration};

    const TAG: u64 = 9;

    fn ctx_at(ms: u64, next_timer: u64) -> Context<()> {
        Context::new(0, SimTime::from_millis(ms), 1, next_timer, Vec::new())
    }

    /// Finish `ctx`, collecting what it buffered.
    fn finish(ctx: Context<()>) -> (Vec<Action<()>>, u64) {
        let mut actions = Vec::new();
        let (_, next) = ctx.finish(|a| actions.push(a));
        (actions, next)
    }

    #[test]
    fn a_later_instant_keeps_the_armed_timer() {
        let mut wake = WakeTimer::new();
        let mut ctx = ctx_at(0, 0);
        wake.arm(&mut ctx, SimTime::from_millis(10), TAG);
        wake.arm(&mut ctx, SimTime::from_millis(10), TAG);
        wake.arm(&mut ctx, SimTime::from_millis(25), TAG);
        let (actions, _) = finish(ctx);
        assert_eq!(actions.len(), 1, "one timer however often it is asked for");
        assert!(matches!(
            actions[0],
            Action::SetTimer { timer: TimerId(0), delay, tag: TAG } if delay == Duration::from_millis(10)
        ));
    }

    #[test]
    fn an_earlier_instant_cancels_and_rearms() {
        let mut wake = WakeTimer::new();
        let mut ctx = ctx_at(0, 0);
        wake.arm(&mut ctx, SimTime::from_millis(10), TAG);
        wake.arm(&mut ctx, SimTime::from_millis(4), TAG);
        let (actions, _) = finish(ctx);
        assert!(matches!(
            actions[..],
            [
                Action::SetTimer { timer: TimerId(0), .. },
                Action::CancelTimer { timer: TimerId(0) },
                Action::SetTimer { timer: TimerId(1), delay, tag: TAG },
            ] if delay == Duration::from_millis(4)
        ));
    }

    #[test]
    fn fired_disarms_so_the_next_park_arms_again() {
        let mut wake = WakeTimer::new();
        let mut ctx = ctx_at(0, 0);
        wake.arm(&mut ctx, SimTime::from_millis(10), TAG);
        let (_, next) = finish(ctx);

        let mut ctx = ctx_at(10, next);
        wake.fired(TimerId(0));
        wake.arm(&mut ctx, SimTime::from_millis(30), TAG);
        let (actions, _) = finish(ctx);
        assert!(matches!(
            actions[..],
            [Action::SetTimer { timer: TimerId(1), delay, .. }] if delay == Duration::from_millis(20)
        ));
    }

    #[test]
    fn a_replaced_timer_firing_late_leaves_its_replacement_armed() {
        let mut wake = WakeTimer::new();
        let mut ctx = ctx_at(0, 0);
        wake.arm(&mut ctx, SimTime::from_millis(10), TAG);
        wake.arm(&mut ctx, SimTime::from_millis(4), TAG);
        let (_, next) = finish(ctx);

        let mut ctx = ctx_at(1, next);
        wake.fired(TimerId(0));
        wake.arm(&mut ctx, SimTime::from_millis(4), TAG);
        assert!(finish(ctx).0.is_empty(), "timer 1 is still the wake-up");

        let mut ctx = ctx_at(4, next);
        wake.fired(TimerId(1));
        wake.arm(&mut ctx, SimTime::from_millis(8), TAG);
        assert_eq!(finish(ctx).0.len(), 1);
    }

    #[test]
    fn clear_forgets_without_cancelling() {
        let mut wake = WakeTimer::new();
        let mut ctx = ctx_at(0, 0);
        wake.arm(&mut ctx, SimTime::from_millis(10), TAG);
        wake.clear();
        wake.arm(&mut ctx, SimTime::from_millis(10), TAG);
        let (actions, _) = finish(ctx);
        assert!(matches!(
            actions[..],
            [Action::SetTimer { .. }, Action::SetTimer { .. }]
        ));
    }
}
