//! The metrics every consensus family publishes the same way — its commits
//! ([`CommitMetrics`]) and its agreement checkpoint ([`Surface`]) — named
//! once for the families, the auditor and the real-socket runner alike.

use crate::{Stage, Telemetry};

/// One checkpoint surface: a pair of per-replica gauges carrying the latest
/// `(ordinal, fingerprint)` agreement checkpoint of a substrate.
#[derive(Debug, Clone, Copy)]
pub struct Surface {
    /// Short name used in violation messages (`hotstuff`, `pbft`,
    /// `kauri.config`).
    pub name: &'static str,
    /// Gauge holding the ordinal (view / seq / epoch), per replica.
    pub ordinal_gauge: &'static str,
    /// Gauge holding the 48-bit fingerprint at that ordinal, per replica.
    pub digest_gauge: &'static str,
    /// Whether the ordinal must be non-decreasing per replica. True for
    /// config epochs (adoption is epoch-monotone); false for commit
    /// ordinals (replicas may legitimately commit views out of order when
    /// proposals arrive reordered).
    pub monotone: bool,
}

impl Surface {
    /// Publish `replica`'s checkpoint under one registry lock, so a live poll
    /// never pairs one checkpoint's ordinal with another's fingerprint.
    pub fn publish(&self, telemetry: &Telemetry, replica: usize, ordinal: u64, fingerprint: u64) {
        telemetry.with_registry(|reg| {
            reg.gauge_set(self.ordinal_gauge, Some(replica), ordinal as f64);
            reg.gauge_set(self.digest_gauge, Some(replica), fingerprint as f64);
        });
    }
}

/// HotStuff: the digest of every view a replica commits.
pub const HOTSTUFF_SURFACE: Surface = Surface {
    name: "hotstuff",
    ordinal_gauge: "hotstuff.node.commit_seq",
    digest_gauge: "hotstuff.node.commit_digest",
    monotone: false,
};

/// PBFT: the digest of every sequence number a replica commits.
pub const PBFT_SURFACE: Surface = Surface {
    name: "pbft",
    ordinal_gauge: "pbft.replica.commit_seq",
    digest_gauge: "pbft.replica.commit_digest",
    monotone: false,
};

/// Kauri and OptiTree: the chain head over every tree a replica adopts.
pub const KAURI_CONFIG_SURFACE: Surface = Surface {
    name: "kauri.config",
    ordinal_gauge: "kauri.node.config_epoch",
    digest_gauge: "kauri.node.config_digest",
    monotone: true,
};

/// The checkpoint surfaces the built-in substrates publish.
pub const SURFACES: [Surface; 3] = [HOTSTUFF_SURFACE, PBFT_SURFACE, KAURI_CONFIG_SURFACE];

/// A family's per-replica commit counter and proposal-to-commit latency
/// histogram (µs).
#[derive(Debug, Clone, Copy)]
pub struct CommitMetrics {
    /// The counter.
    pub commits: &'static str,
    /// The histogram.
    pub commit_us: &'static str,
}

impl CommitMetrics {
    /// Record `replica`'s commit of `round`'s `commands`, proposed at
    /// `proposed_us` and committed `latency_us` later: the `Commit` span,
    /// the counter, then the histogram.
    pub fn record(
        &self,
        telemetry: &Telemetry,
        replica: usize,
        round: u64,
        proposed_us: u64,
        latency_us: u64,
        commands: usize,
    ) {
        telemetry.span(
            Stage::Commit,
            replica,
            round,
            proposed_us,
            latency_us,
            &[("commands", commands as f64)],
        );
        telemetry.counter_add(self.commits, Some(replica), 1);
        telemetry.observe(self.commit_us, Some(replica), latency_us);
    }
}

/// HotStuff's commit metrics.
pub const HOTSTUFF_COMMITS: CommitMetrics = CommitMetrics {
    commits: "hotstuff.node.commits",
    commit_us: "hotstuff.node.commit_us",
};

/// PBFT's commit metrics.
pub const PBFT_COMMITS: CommitMetrics = CommitMetrics {
    commits: "pbft.replica.commits",
    commit_us: "pbft.replica.commit_us",
};

/// Kauri's and OptiTree's commit metrics (recorded at the proposing root).
pub const KAURI_COMMITS: CommitMetrics = CommitMetrics {
    commits: "kauri.node.commits",
    commit_us: "kauri.node.commit_us",
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_sets_both_gauges_of_each_surface() {
        for (i, surface) in SURFACES.iter().enumerate() {
            let t = Telemetry::recording();
            let fingerprint = 0xabc_def0 + i as u64;
            surface.publish(&t, 3, 41, fingerprint);
            let reg = t.registry_snapshot();
            assert_eq!(reg.gauge(surface.ordinal_gauge, Some(3)), Some(41.0));
            assert_eq!(
                reg.gauge(surface.digest_gauge, Some(3)),
                Some(fingerprint as f64)
            );
            assert_eq!(reg.gauge(surface.ordinal_gauge, Some(0)), None);
        }
    }

    #[test]
    fn commit_record_writes_span_counter_and_histogram() {
        let t = Telemetry::tracing();
        HOTSTUFF_COMMITS.record(&t, 2, 7, 1_000, 250, 40);
        let reg = t.registry_snapshot();
        assert_eq!(reg.counter(HOTSTUFF_COMMITS.commits, Some(2)), 1);
        let hist = reg
            .histogram(HOTSTUFF_COMMITS.commit_us, Some(2))
            .expect("latency observed");
        assert_eq!(hist.count(), 1);
        assert_eq!(t.stage_counts().get("commit"), Some(&1));
    }
}
