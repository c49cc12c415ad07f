//! Network-level fault injection.
//!
//! The paper's adversary can delay its *own* messages (performance attacks),
//! crash, or drop messages, but cannot delay traffic between correct
//! replicas. [`FaultPlan`] captures exactly that: per-node and per-link
//! modifications that the simulator applies when scheduling deliveries from a
//! faulty sender. Protocol-level Byzantine behaviour (equivocation, lying
//! about measurements) is implemented inside the protocol crates; this module
//! only covers timing and omission faults visible at the network layer.
//!
//! Faults are *phased*: every fault carries a [`FaultWindow`] and is applied
//! only while the window contains the current virtual time. A scenario like
//! "clean warmup → δ-inflation between 30 s and 60 s → crash at 80 s →
//! recovery at 100 s" is a plan of three windowed faults, which is how the
//! `lab` crate compiles adversary scripts down to the network layer.

use crate::sim::NodeId;
use crate::time::{Duration, SimTime};
use std::collections::HashMap;

// The fault *window* is pure data shared with protocol-level delay stages,
// so it lives in the runtime-agnostic `runtime` crate; re-exported here to
// keep `netsim::faults::FaultWindow` / `netsim::FaultWindow` paths working.
pub use runtime::FaultWindow;

/// A fault applied to every message sent by a node while its window is open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeFault {
    /// The node crashes at the given time: it stops sending and processing.
    /// Pair with [`FaultPlan::recover`] to bring it back.
    CrashAt(SimTime),
    /// All outgoing messages are delayed by an additional fixed duration.
    OutgoingDelay(Duration),
    /// All outgoing messages have their link latency multiplied by a factor
    /// (the paper's δ-inflation attack, §7.6).
    OutgoingInflation(f64),
    /// All outgoing messages are dropped while the fault is active.
    Silent,
}

/// A fault applied to a single directed link while its window is open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFault {
    /// Extra delay added to messages on this link.
    Delay(Duration),
    /// Latency multiplied by a factor on this link.
    Inflation(f64),
    /// Messages on this link are dropped.
    Drop,
}

/// A collection of node and link faults applied by the simulator.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    node_faults: HashMap<NodeId, Vec<(NodeFault, FaultWindow)>>,
    link_faults: HashMap<(NodeId, NodeId), Vec<(LinkFault, FaultWindow)>>,
    recoveries: Vec<(NodeId, SimTime)>,
}

impl FaultPlan {
    /// An empty plan: every node behaves correctly at the network level.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add a node-level fault active for the whole run.
    pub fn add_node_fault(&mut self, node: NodeId, fault: NodeFault) -> &mut Self {
        self.add_node_fault_during(node, fault, FaultWindow::ALWAYS)
    }

    /// Add a node-level fault active only while `window` is open.
    ///
    /// `CrashAt` carries its own time and ignores windows — use
    /// [`FaultPlan::crash`] / [`FaultPlan::crash_between`] instead, which
    /// this asserts.
    pub fn add_node_fault_during(
        &mut self,
        node: NodeId,
        fault: NodeFault,
        window: FaultWindow,
    ) -> &mut Self {
        assert!(
            window == FaultWindow::ALWAYS || !matches!(fault, NodeFault::CrashAt(_)),
            "CrashAt ignores fault windows; use crash()/crash_between() for bounded crashes"
        );
        self.node_faults
            .entry(node)
            .or_default()
            .push((fault, window));
        self
    }

    /// Add a directed link-level fault active for the whole run.
    pub fn add_link_fault(&mut self, from: NodeId, to: NodeId, fault: LinkFault) -> &mut Self {
        self.add_link_fault_during(from, to, fault, FaultWindow::ALWAYS)
    }

    /// Add a directed link-level fault active only while `window` is open.
    pub fn add_link_fault_during(
        &mut self,
        from: NodeId,
        to: NodeId,
        fault: LinkFault,
        window: FaultWindow,
    ) -> &mut Self {
        self.link_faults
            .entry((from, to))
            .or_default()
            .push((fault, window));
        self
    }

    /// Convenience: crash `node` at `at` (permanently, unless it recovers).
    pub fn crash(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.add_node_fault(node, NodeFault::CrashAt(at))
    }

    /// Convenience: bring a crashed `node` back at `at`. It resumes
    /// processing deliveries and timers scheduled after the recovery.
    pub fn recover(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.recoveries.push((node, at));
        self
    }

    /// Convenience: crash `node` at `at` and recover it at `until`.
    pub fn crash_between(&mut self, node: NodeId, at: SimTime, until: SimTime) -> &mut Self {
        assert!(at <= until, "recovery precedes crash");
        self.crash(node, at);
        self.recover(node, until)
    }

    /// Convenience: inflate all outgoing latency of `node` by `factor`.
    pub fn inflate_outgoing(&mut self, node: NodeId, factor: f64) -> &mut Self {
        self.add_node_fault(node, NodeFault::OutgoingInflation(factor))
    }

    /// Nodes with a scheduled crash, with their crash times.
    pub fn crash_schedule(&self) -> Vec<(NodeId, SimTime)> {
        let mut v: Vec<(NodeId, SimTime)> = self
            .node_faults
            .iter()
            .flat_map(|(&n, faults)| {
                faults.iter().filter_map(move |(f, _)| match f {
                    NodeFault::CrashAt(t) => Some((n, *t)),
                    _ => None,
                })
            })
            .collect();
        v.sort_by_key(|&(n, t)| (t, n));
        v
    }

    /// Nodes with a scheduled recovery, with their recovery times.
    pub fn recovery_schedule(&self) -> Vec<(NodeId, SimTime)> {
        let mut v = self.recoveries.clone();
        v.sort_by_key(|&(n, t)| (t, n));
        v
    }

    /// True if `node` has crashed (per its crash/recovery schedule) at `now`.
    pub fn is_crashed(&self, node: NodeId, now: SimTime) -> bool {
        // The most recent crash-or-recovery event at or before `now` decides.
        let last_crash = self
            .node_faults
            .get(&node)
            .into_iter()
            .flatten()
            .filter_map(|(f, _)| match f {
                NodeFault::CrashAt(t) if *t <= now => Some(*t),
                _ => None,
            })
            .max();
        let Some(crash) = last_crash else {
            return false;
        };
        let last_recovery = self
            .recoveries
            .iter()
            .filter(|&&(n, t)| n == node && t <= now)
            .map(|&(_, t)| t)
            .max();
        // A recovery at the same instant as the crash wins (crash_between
        // with an empty window is a no-op).
        last_recovery.is_none_or(|r| r < crash)
    }

    /// Compute the effective delivery delay of a message sent at `now` from
    /// `from` to `to` whose nominal link latency is `base`. Returns `None` if
    /// the message is dropped.
    pub fn effective_delay(
        &self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        base: Duration,
    ) -> Option<Duration> {
        if self.is_crashed(from, now) {
            return None;
        }
        let mut delay = base;
        if let Some(faults) = self.node_faults.get(&from) {
            for (f, w) in faults {
                if !w.contains(now) {
                    continue;
                }
                match f {
                    NodeFault::CrashAt(_) => {} // handled by is_crashed above
                    NodeFault::Silent => return None,
                    NodeFault::OutgoingDelay(d) => delay += *d,
                    NodeFault::OutgoingInflation(factor) => delay = delay.mul_f64(*factor),
                }
            }
        }
        if let Some(faults) = self.link_faults.get(&(from, to)) {
            for (f, w) in faults {
                if !w.contains(now) {
                    continue;
                }
                match f {
                    LinkFault::Drop => return None,
                    LinkFault::Delay(d) => delay += *d,
                    LinkFault::Inflation(factor) => delay = delay.mul_f64(*factor),
                }
            }
        }
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_passes_messages_through() {
        let plan = FaultPlan::none();
        let d = plan.effective_delay(SimTime::ZERO, 0, 1, Duration::from_millis(10));
        assert_eq!(d, Some(Duration::from_millis(10)));
        assert!(!plan.is_crashed(0, SimTime::from_secs(100)));
    }

    #[test]
    fn crash_drops_messages_after_crash_time() {
        let mut plan = FaultPlan::none();
        plan.crash(2, SimTime::from_secs(10));
        let before = plan.effective_delay(SimTime::from_secs(9), 2, 0, Duration::from_millis(5));
        let after = plan.effective_delay(SimTime::from_secs(10), 2, 0, Duration::from_millis(5));
        assert!(before.is_some());
        assert!(after.is_none());
        assert!(plan.is_crashed(2, SimTime::from_secs(11)));
        assert!(!plan.is_crashed(2, SimTime::from_secs(9)));
    }

    #[test]
    fn outgoing_inflation_multiplies_latency() {
        let mut plan = FaultPlan::none();
        plan.inflate_outgoing(1, 1.4);
        let d = plan
            .effective_delay(SimTime::ZERO, 1, 0, Duration::from_millis(100))
            .unwrap();
        assert_eq!(d.as_millis(), 140);
        // Other senders are unaffected.
        let d2 = plan
            .effective_delay(SimTime::ZERO, 0, 1, Duration::from_millis(100))
            .unwrap();
        assert_eq!(d2.as_millis(), 100);
    }

    #[test]
    fn outgoing_delay_adds_latency() {
        let mut plan = FaultPlan::none();
        plan.add_node_fault(3, NodeFault::OutgoingDelay(Duration::from_millis(500)));
        let d = plan
            .effective_delay(SimTime::ZERO, 3, 1, Duration::from_millis(50))
            .unwrap();
        assert_eq!(d.as_millis(), 550);
    }

    #[test]
    fn link_faults_apply_to_single_direction() {
        let mut plan = FaultPlan::none();
        plan.add_link_fault(0, 1, LinkFault::Drop);
        plan.add_link_fault(1, 2, LinkFault::Delay(Duration::from_millis(20)));
        assert!(plan
            .effective_delay(SimTime::ZERO, 0, 1, Duration::from_millis(1))
            .is_none());
        assert!(plan
            .effective_delay(SimTime::ZERO, 1, 0, Duration::from_millis(1))
            .is_some());
        assert_eq!(
            plan.effective_delay(SimTime::ZERO, 1, 2, Duration::from_millis(10))
                .unwrap()
                .as_millis(),
            30
        );
    }

    #[test]
    fn crash_schedule_sorted_by_time() {
        let mut plan = FaultPlan::none();
        plan.crash(5, SimTime::from_secs(30));
        plan.crash(1, SimTime::from_secs(10));
        plan.crash(3, SimTime::from_secs(20));
        let sched = plan.crash_schedule();
        assert_eq!(
            sched,
            vec![
                (1, SimTime::from_secs(10)),
                (3, SimTime::from_secs(20)),
                (5, SimTime::from_secs(30))
            ]
        );
    }

    // ---- phased-fault edges ----
    // (FaultWindow's own half-open-interval semantics are tested where it
    // now lives, in runtime::time.)

    /// A stage that starts and ends *between* two deliveries must touch
    /// neither: the fault applies by send time, not by overlap.
    #[test]
    fn stage_between_two_deliveries_affects_neither() {
        let mut plan = FaultPlan::none();
        plan.add_node_fault_during(
            0,
            NodeFault::OutgoingInflation(10.0),
            FaultWindow::between(SimTime::from_millis(100), SimTime::from_millis(200)),
        );
        // Sent just before the stage opens: unaffected.
        let before = plan
            .effective_delay(SimTime::from_millis(99), 0, 1, Duration::from_millis(50))
            .unwrap();
        assert_eq!(before.as_millis(), 50);
        // Sent at the stage end: unaffected (half-open window).
        let after = plan
            .effective_delay(SimTime::from_millis(200), 0, 1, Duration::from_millis(50))
            .unwrap();
        assert_eq!(after.as_millis(), 50);
        // Sent inside the stage: inflated — even though it is *delivered*
        // after the stage closed.
        let inside = plan
            .effective_delay(SimTime::from_millis(150), 0, 1, Duration::from_millis(50))
            .unwrap();
        assert_eq!(inside.as_millis(), 500);
    }

    /// Overlapping node and link stages compose: both modifications apply
    /// while both windows are open, and each alone outside the overlap.
    #[test]
    fn overlapping_node_and_link_stages_compose() {
        let mut plan = FaultPlan::none();
        plan.add_node_fault_during(
            0,
            NodeFault::OutgoingDelay(Duration::from_millis(100)),
            FaultWindow::between(SimTime::from_secs(10), SimTime::from_secs(30)),
        );
        plan.add_link_fault_during(
            0,
            1,
            LinkFault::Inflation(2.0),
            FaultWindow::between(SimTime::from_secs(20), SimTime::from_secs(40)),
        );
        let base = Duration::from_millis(10);
        // Only the node stage: base + 100.
        let d = plan
            .effective_delay(SimTime::from_secs(15), 0, 1, base)
            .unwrap();
        assert_eq!(d.as_millis(), 110);
        // Overlap: (base + 100) * 2 — node faults apply before link faults.
        let d = plan
            .effective_delay(SimTime::from_secs(25), 0, 1, base)
            .unwrap();
        assert_eq!(d.as_millis(), 220);
        // Only the link stage: base * 2.
        let d = plan
            .effective_delay(SimTime::from_secs(35), 0, 1, base)
            .unwrap();
        assert_eq!(d.as_millis(), 20);
        // Outside both: base.
        let d = plan
            .effective_delay(SimTime::from_secs(45), 0, 1, base)
            .unwrap();
        assert_eq!(d.as_millis(), 10);
        // The link stage is directional: 0 → 2 sees only the node stage.
        let d = plan
            .effective_delay(SimTime::from_secs(25), 0, 2, base)
            .unwrap();
        assert_eq!(d.as_millis(), 110);
    }

    /// A crash in the middle of an open attack stage silences the node even
    /// though the attack window is still open, and recovery restores the
    /// attack (not clean behaviour) while the window remains open.
    #[test]
    fn crash_during_attack_takes_precedence_until_recovery() {
        let mut plan = FaultPlan::none();
        plan.add_node_fault_during(
            1,
            NodeFault::OutgoingInflation(3.0),
            FaultWindow::between(SimTime::from_secs(10), SimTime::from_secs(100)),
        );
        plan.crash_between(1, SimTime::from_secs(40), SimTime::from_secs(60));
        let base = Duration::from_millis(10);
        // Attack active before the crash.
        assert_eq!(
            plan.effective_delay(SimTime::from_secs(20), 1, 0, base)
                .unwrap()
                .as_millis(),
            30
        );
        // Crashed: nothing gets out, attack or not.
        assert!(plan.is_crashed(1, SimTime::from_secs(50)));
        assert!(plan
            .effective_delay(SimTime::from_secs(50), 1, 0, base)
            .is_none());
        // Recovered mid-window: the attack stage applies again.
        assert!(!plan.is_crashed(1, SimTime::from_secs(60)));
        assert_eq!(
            plan.effective_delay(SimTime::from_secs(70), 1, 0, base)
                .unwrap()
                .as_millis(),
            30
        );
        // Attack window closed: clean.
        assert_eq!(
            plan.effective_delay(SimTime::from_secs(150), 1, 0, base)
                .unwrap()
                .as_millis(),
            10
        );
    }

    #[test]
    fn recovery_schedule_sorted_and_roundtrip() {
        let mut plan = FaultPlan::none();
        plan.crash_between(4, SimTime::from_secs(10), SimTime::from_secs(50));
        plan.crash_between(2, SimTime::from_secs(5), SimTime::from_secs(20));
        assert_eq!(
            plan.recovery_schedule(),
            vec![(2, SimTime::from_secs(20)), (4, SimTime::from_secs(50))]
        );
        // A second crash after recovery crashes the node again.
        plan.crash(2, SimTime::from_secs(30));
        assert!(!plan.is_crashed(2, SimTime::from_secs(25)));
        assert!(plan.is_crashed(2, SimTime::from_secs(31)));
    }

    #[test]
    fn windowed_silence_drops_only_inside_window() {
        let mut plan = FaultPlan::none();
        plan.add_node_fault_during(
            0,
            NodeFault::Silent,
            FaultWindow::between(SimTime::from_secs(2), SimTime::from_secs(4)),
        );
        let base = Duration::from_millis(1);
        assert!(plan
            .effective_delay(SimTime::from_secs(1), 0, 1, base)
            .is_some());
        assert!(plan
            .effective_delay(SimTime::from_secs(3), 0, 1, base)
            .is_none());
        assert!(plan
            .effective_delay(SimTime::from_secs(4), 0, 1, base)
            .is_some());
    }
}
