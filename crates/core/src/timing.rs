//! Timeout derivation: round duration `d_rnd` and per-message delays `d_m`.
//!
//! The SuspicionSensor needs, for every protocol message `m`, the expected
//! delay `d_m` from the leader's proposal timestamp until `m` arrives, and
//! the expected round duration `d_rnd` (§4.2.3). The protocol provides these
//! based on the latency matrix; Appendix C states the requirements TR1–TR3
//! they must satisfy. This module holds the shared representation and the
//! δ-scaled checks; the protocol-specific derivations live in the OptiAware
//! and OptiTree crates.

use runtime::Duration;
use serde::{Deserialize, Serialize};

/// The paper's δ multiplier: after GST, observed latencies lie within
/// `[L, δ·L]` of the actual latency, so every per-message deadline and round
/// duration a sensor or protocol timer checks is scaled by it. Every
/// deployment here runs at 1, the value of the baseline experiments (§7.4):
/// a message is late once it misses its predicted arrival by more than
/// [`crate::DEADLINE_SLACK`].
pub const DELTA: f64 = 1.0;

/// Expected delay of one message within a round, relative to the leader's
/// proposal timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MessageTimeout {
    /// The replica expected to send the message.
    pub from: usize,
    /// Protocol-specific message kind tag (e.g. Write/Accept phase, Vote,
    /// Aggregate). Used by causal filtering to order protocol phases.
    pub kind: u32,
    /// Expected delay `d_m` from the proposal timestamp.
    pub d_m: Duration,
}

impl MessageTimeout {
    /// Create a message timeout.
    pub fn new(from: usize, kind: u32, d_m: Duration) -> Self {
        MessageTimeout { from, kind, d_m }
    }

    /// The deadline after which the message is considered late, scaled by δ.
    pub fn deadline(&self, delta: f64) -> Duration {
        self.d_m.mul_f64(delta)
    }
}

/// The complete timing expectation for one round of a configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RoundTimeouts {
    /// Expected round duration `d_rnd` (proposal timestamp to commit).
    pub d_rnd: Duration,
    /// Expected per-message delays.
    pub messages: Vec<MessageTimeout>,
}

impl RoundTimeouts {
    /// Create round timeouts.
    pub fn new(d_rnd: Duration, messages: Vec<MessageTimeout>) -> Self {
        RoundTimeouts { d_rnd, messages }
    }

    /// The expected delay for a message of `kind` from `from`, if any.
    pub fn expected(&self, from: usize, kind: u32) -> Option<Duration> {
        self.messages
            .iter()
            .find(|m| m.from == from && m.kind == kind)
            .map(|m| m.d_m)
    }

    /// True if two consecutive proposal timestamps `prev` → `next` are within
    /// the δ-scaled round duration (condition (a) of §4.2.3 is the negation).
    pub fn proposal_interval_ok(&self, interval: Duration, delta: f64) -> bool {
        interval <= self.d_rnd.mul_f64(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeouts() -> RoundTimeouts {
        RoundTimeouts::new(
            Duration::from_millis(100),
            vec![
                MessageTimeout::new(1, 0, Duration::from_millis(40)),
                MessageTimeout::new(2, 1, Duration::from_millis(100)),
            ],
        )
    }

    #[test]
    fn expected_lookup() {
        let t = timeouts();
        assert_eq!(t.expected(1, 0), Some(Duration::from_millis(40)));
        assert_eq!(t.expected(1, 1), None);
        assert_eq!(t.expected(9, 0), None);
    }

    #[test]
    fn proposal_interval_scaled_by_delta() {
        let t = timeouts();
        assert!(t.proposal_interval_ok(Duration::from_millis(100), 1.0));
        assert!(!t.proposal_interval_ok(Duration::from_millis(101), 1.0));
        assert!(t.proposal_interval_ok(Duration::from_millis(140), 1.5));
    }

    #[test]
    fn deadline_helper() {
        let m = MessageTimeout::new(0, 0, Duration::from_millis(50));
        assert_eq!(m.deadline(1.2).as_millis(), 60);
    }
}
