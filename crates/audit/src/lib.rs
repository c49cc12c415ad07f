//! The online consensus auditor: safety/liveness oracles evaluated against
//! the telemetry registry while a run is in progress, plus end-of-run exact
//! checks fed from a run's report ([`feed_auditor`]), and a crash-dump flight
//! recorder.
//!
//! Four oracles, each a falsifiable invariant of the reproduction:
//!
//! 1. **Prefix agreement** — any two replicas publishing a commit
//!    fingerprint for the same ordinal (HotStuff view, PBFT seq, config
//!    epoch) must publish the *same* fingerprint. Substrates emit
//!    `(ordinal, fingerprint)` checkpoint gauge pairs at every commit
//!    through [`Surface::publish`] (one registry lock, so polls never see a
//!    torn pair). The surfaces ([`SURFACES`]) are named once in
//!    `telemetry`, next to each family's commit metrics, and re-exported
//!    here. The auditor accumulates checkpoints across polls and across
//!    replicas, so divergence is caught within one poll interval rather
//!    than at shutdown.
//! 2. **Config adoption** — the `ConfigLog` adoption history is
//!    epoch-monotone per replica and identical across replicas (equal chain
//!    fingerprints at equal epochs).
//! 3. **Batch conservation** — every admitted command is eventually
//!    accounted: `admitted = committed + abandoned + waiting + in_flight`,
//!    balanced from `traffic.*` counters and gauges. (Retried commands
//!    re-enter the waiting queue without re-counting as admitted, so the
//!    retry flow cancels out of the identity.)
//! 4. **Role-change provenance** — every committed `ConfigCommand` links
//!    back to committed `SuspicionPair` evidence: a `Config` must raise the
//!    adopted epoch (a stale replay is a violation), an `Exclude` must name
//!    only replicas with prior committed accusations, and each rotation is
//!    rendered as a human-readable verdict naming its evidence.
//!
//! The auditor never mutates what it observes: it reads registry snapshots
//! and borrowed command logs, and publishes its own verdict under `audit.*`
//! gauges so health endpoints and BENCH exports pick it up uniformly.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

mod flight;

pub use flight::FlightRecorder;
pub use telemetry::{Surface, HOTSTUFF_SURFACE, KAURI_CONFIG_SURFACE, PBFT_SURFACE, SURFACES};

use configlog::{ConfigCommand, SuspicionPair};
use serde::{Number, Value};
use std::collections::BTreeMap;
use telemetry::{Registry, Telemetry};

/// Checkpoints retained per surface; older ordinals are pruned so a
/// long-running live auditor stays bounded. Divergence between live
/// replicas shows up at *recent* ordinals, so pruning the oldest never
/// hides an active fork.
const MAX_POINTS_PER_SURFACE: usize = 8192;

/// One oracle violation, with the offending replica/ordinal named.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The oracle that fired (`prefix_agreement`, `config_adoption`,
    /// `conservation`, `provenance`).
    pub oracle: &'static str,
    /// Human-readable description naming the culprit.
    pub detail: String,
}

#[derive(Debug, Default, Clone)]
struct SurfaceState {
    /// ordinal → (fingerprint, first replica that reported it).
    points: BTreeMap<u64, (u64, usize)>,
    /// replica → highest ordinal seen (for monotone surfaces).
    latest: BTreeMap<usize, u64>,
    checked: u64,
}

/// The online auditor. Feed it registry snapshots ([`Auditor::poll`])
/// while a run is live, exact per-replica histories at the end
/// ([`Auditor::record_checkpoint`], [`Auditor::check_provenance`]), then
/// [`Auditor::finish`] it into an [`AuditReport`].
#[derive(Debug, Default, Clone)]
pub struct Auditor {
    surfaces: BTreeMap<&'static str, SurfaceState>,
    violations: Vec<Violation>,
    verdicts: Vec<String>,
    conservation_slack: u64,
    conservation_checks: u64,
    provenance_commands: u64,
    polls: u64,
}

impl Auditor {
    /// An auditor with strict conservation (zero slack).
    pub fn new() -> Self {
        Self::default()
    }

    /// Tolerate a transient imbalance of up to `slack` commands in *live*
    /// conservation checks. A real-clock run updates the traffic queue and
    /// the registry under different locks, so a snapshot can land between
    /// an admission's counter bump and its gauge publish; the final check
    /// in [`Auditor::finish`] is always strict.
    pub fn with_conservation_slack(mut self, slack: u64) -> Self {
        self.conservation_slack = slack;
        self
    }

    /// Record one agreement checkpoint: `replica` reports `fingerprint` at
    /// `ordinal` on `surface`. Flags a violation when a different
    /// fingerprint was already recorded for the same ordinal.
    pub fn record_checkpoint(
        &mut self,
        surface: &'static str,
        replica: usize,
        ordinal: u64,
        fingerprint: u64,
    ) {
        let monotone = SURFACES
            .iter()
            .find(|s| s.name == surface)
            .is_some_and(|s| s.monotone);
        let state = self.surfaces.entry(surface).or_default();
        state.checked += 1;
        if monotone {
            if let Some(&prev) = state.latest.get(&replica) {
                if ordinal < prev {
                    self.violations.push(Violation {
                        oracle: "config_adoption",
                        detail: format!(
                            "replica {replica} regressed from epoch {prev} to {ordinal} \
                             on {surface}: adoption must be epoch-monotone"
                        ),
                    });
                }
            }
        }
        state
            .latest
            .entry(replica)
            .and_modify(|v| *v = (*v).max(ordinal))
            .or_insert(ordinal);
        match state.points.get(&ordinal) {
            Some(&(fp, first)) if fp != fingerprint => {
                let oracle = if monotone {
                    "config_adoption"
                } else {
                    "prefix_agreement"
                };
                self.violations.push(Violation {
                    oracle,
                    detail: format!(
                        "{surface} divergence at ordinal {ordinal}: replica {replica} \
                         reports fingerprint {fingerprint:#x}, replica {first} reported \
                         {fp:#x}"
                    ),
                });
            }
            Some(_) => {}
            None => {
                state.points.insert(ordinal, (fingerprint, replica));
                while state.points.len() > MAX_POINTS_PER_SURFACE {
                    let oldest = *state.points.keys().next().expect("non-empty");
                    state.points.remove(&oldest);
                }
            }
        }
    }

    /// One live evaluation pass over a registry snapshot: harvests every
    /// surface's per-replica checkpoint gauges and balances the
    /// conservation identity (with the configured slack).
    pub fn poll(&mut self, reg: &Registry) {
        self.polls += 1;
        for surface in SURFACES {
            let mut ordinals: BTreeMap<usize, u64> = BTreeMap::new();
            let mut digests: BTreeMap<usize, u64> = BTreeMap::new();
            for (key, value) in reg.gauges() {
                let Some(replica) = key.replica else { continue };
                if key.name == surface.ordinal_gauge {
                    ordinals.insert(replica, value as u64);
                } else if key.name == surface.digest_gauge {
                    digests.insert(replica, value as u64);
                }
            }
            for (replica, ordinal) in ordinals {
                if let Some(&fp) = digests.get(&replica) {
                    self.record_checkpoint(surface.name, replica, ordinal, fp);
                }
            }
        }
        self.check_conservation(reg, self.conservation_slack);
    }

    /// Balance `admitted = committed + abandoned + waiting + in_flight`
    /// from the registry, tolerating `slack` commands of imbalance. No-op
    /// when the run carries no traffic metrics at all.
    fn check_conservation(&mut self, reg: &Registry, slack: u64) {
        let admitted = reg.counter("traffic.queue.admitted", None);
        let committed = reg.counter("traffic.client.committed", None);
        let abandoned = reg.counter("traffic.queue.abandoned", None);
        let waiting = reg.gauge("traffic.queue.waiting", None);
        let in_flight = reg.gauge("traffic.queue.in_flight", None);
        if admitted == 0 && waiting.is_none() && in_flight.is_none() {
            return; // saturated run: no admission queue to balance
        }
        self.conservation_checks += 1;
        let accounted =
            committed + abandoned + waiting.unwrap_or(0.0) as u64 + in_flight.unwrap_or(0.0) as u64;
        if admitted.abs_diff(accounted) > slack {
            self.violations.push(Violation {
                oracle: "conservation",
                detail: format!(
                    "batch conservation broken: admitted {admitted} != committed \
                     {committed} + abandoned {abandoned} + waiting {} + in_flight {} \
                     (= {accounted}, slack {slack})",
                    waiting.unwrap_or(0.0) as u64,
                    in_flight.unwrap_or(0.0) as u64,
                ),
            });
        }
    }

    /// The role-change provenance oracle over one replica's committed
    /// `ConfigCommand` log (identical across replicas when oracle 2 holds):
    ///
    /// - a `Config` whose epoch does not exceed every previously adopted
    ///   epoch is a **stale replay** (the substrates filter these before
    ///   they ever reach the log);
    /// - an `Exclude` naming a replica with no committed pair accusing it
    ///   at an earlier seq is an **unjustified exclusion**;
    /// - every adoption renders a verdict linking it to the suspicion
    ///   pairs committed in its window (the previous adoption exclusive to
    ///   the next adoption exclusive — evidence may trail its rotation,
    ///   because a timeout-triggered rotation commits the epoch command
    ///   first and the pairs ride the same view).
    pub fn check_provenance<C>(&mut self, commands: &[(u64, ConfigCommand<C>)]) {
        self.provenance_commands += commands.len() as u64;
        let mut adopted_epoch: u64 = 0;
        let mut adoption_seqs: Vec<(u64, u64)> = Vec::new(); // (seq, epoch)
        let mut pairs: Vec<(u64, SuspicionPair)> = Vec::new();
        for (seq, cmd) in commands {
            match cmd {
                ConfigCommand::Config { epoch, .. } => {
                    if *epoch <= adopted_epoch {
                        self.violations.push(Violation {
                            oracle: "provenance",
                            detail: format!(
                                "stale ConfigCommand replay: Config for epoch {epoch} \
                                 committed at seq {seq} after epoch {adopted_epoch} \
                                 was already adopted"
                            ),
                        });
                    } else {
                        adopted_epoch = *epoch;
                        adoption_seqs.push((*seq, *epoch));
                    }
                }
                ConfigCommand::Exclude { epoch, replicas } => {
                    for r in replicas {
                        let evidence: Vec<&SuspicionPair> = pairs
                            .iter()
                            .filter(|(s, p)| s < seq && p.accused == *r)
                            .map(|(_, p)| p)
                            .collect();
                        if evidence.is_empty() {
                            self.violations.push(Violation {
                                oracle: "provenance",
                                detail: format!(
                                    "exclusion of replica {r} in epoch {epoch} at seq \
                                     {seq} has no committed suspicion evidence naming it"
                                ),
                            });
                        } else {
                            self.verdicts.push(format!(
                                "exclusion in epoch {epoch} excised replica {r} because {}",
                                render_pairs(&evidence)
                            ));
                        }
                    }
                }
                ConfigCommand::Pair(pair) => pairs.push((*seq, *pair)),
            }
        }
        // Per-adoption verdicts: evidence window = (previous adoption seq,
        // next adoption seq), exclusive on both ends.
        for (i, &(seq, epoch)) in adoption_seqs.iter().enumerate() {
            let lo = if i == 0 { 0 } else { adoption_seqs[i - 1].0 };
            let hi = adoption_seqs
                .get(i + 1)
                .map_or(u64::MAX, |&(next_seq, _)| next_seq);
            let evidence: Vec<&SuspicionPair> = pairs
                .iter()
                .filter(|(s, _)| (i == 0 || *s > lo) && *s < hi)
                .map(|(_, p)| p)
                .collect();
            if evidence.is_empty() {
                self.verdicts.push(format!(
                    "rotation in epoch {epoch} (seq {seq}): no committed evidence in \
                     its window — timeout-triggered, or evidence still in flight"
                ));
            } else {
                self.verdicts.push(format!(
                    "rotation in epoch {epoch} (seq {seq}): justified by {}",
                    render_pairs(&evidence)
                ));
            }
        }
    }

    /// Violations recorded so far (empty means every oracle is clean).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The verdict so far, without consuming the auditor — what a live
    /// monitor publishes between polls while the run continues.
    pub fn report(&self) -> AuditReport {
        self.clone().into_report()
    }

    /// Final evaluation: one strict conservation pass over `reg` (slack 0 —
    /// a finished run has no in-flight registry updates), then assemble
    /// the report.
    pub fn finish(mut self, reg: &Registry) -> AuditReport {
        self.check_conservation(reg, 0);
        self.into_report()
    }

    /// Assemble the report without a final registry pass (for callers that
    /// already fed every snapshot they have).
    pub fn into_report(self) -> AuditReport {
        let mut oracles = Vec::new();
        let agreement_checked: u64 = self
            .surfaces
            .iter()
            .filter(|(name, _)| !is_monotone_surface(name))
            .map(|(_, s)| s.checked)
            .sum();
        let config_checked: u64 = self
            .surfaces
            .iter()
            .filter(|(name, _)| is_monotone_surface(name))
            .map(|(_, s)| s.checked)
            .sum();
        for (name, checked) in [
            ("prefix_agreement", agreement_checked),
            ("config_adoption", config_checked),
            ("conservation", self.conservation_checks),
            ("provenance", self.provenance_commands),
        ] {
            oracles.push(OracleReport {
                name: name.to_string(),
                checked,
                violations: self
                    .violations
                    .iter()
                    .filter(|v| v.oracle == name)
                    .map(|v| v.detail.clone())
                    .collect(),
            });
        }
        AuditReport {
            oracles,
            verdicts: self.verdicts,
            polls: self.polls,
        }
    }
}

/// What a finished run hands the role-change provenance oracle: `()` for
/// families whose roles do not change through a replicated log, or the
/// committed command log for those that do. Implemented here, on plain
/// types, so a substrate crate names its evidence without depending on the
/// auditor and a generic runner feeds it without knowing the substrate.
pub trait Provenance {
    /// Replay the evidence into `auditor`.
    fn replay(&self, auditor: &mut Auditor);
}

impl Provenance for () {
    fn replay(&self, _: &mut Auditor) {}
}

impl<C> Provenance for Vec<(u64, ConfigCommand<C>)> {
    fn replay(&self, auditor: &mut Auditor) {
        auditor.check_provenance(self);
    }
}

/// Replay a finished run's exact evidence — the audit sections of an
/// `rsm::RunReport`, from either runtime — into `auditor`: every replica's
/// `(ordinal, fingerprint)` checkpoint history on `surface` (the gauge pairs
/// a live poll samples only show each replica's latest commit; the stored
/// sequences cover the whole run), then the provenance evidence.
pub fn feed_auditor(
    auditor: &mut Auditor,
    surface: &'static str,
    checkpoints: &[Vec<(u64, u64)>],
    provenance: &impl Provenance,
) {
    for (replica, history) in checkpoints.iter().enumerate() {
        for &(ordinal, fingerprint) in history {
            auditor.record_checkpoint(surface, replica, ordinal, fingerprint);
        }
    }
    provenance.replay(auditor);
}

fn is_monotone_surface(name: &str) -> bool {
    SURFACES
        .iter()
        .find(|s| s.name == name)
        .is_none_or(|s| s.monotone)
}

fn render_pairs(pairs: &[&SuspicionPair]) -> String {
    let rendered: Vec<String> = pairs
        .iter()
        .map(|p| {
            format!(
                "pair {}→{} at round {} (phase {}{})",
                p.accuser,
                p.accused,
                p.round,
                p.phase,
                if p.reciprocal { ", reciprocal" } else { "" }
            )
        })
        .collect();
    rendered.join(", ")
}

/// One oracle's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Oracle name.
    pub name: String,
    /// Units checked (checkpoints, balance passes, or commands walked).
    pub checked: u64,
    /// Violation details, in detection order.
    pub violations: Vec<String>,
}

/// The assembled audit verdict of one run. The `Default` report is empty
/// and reads as clean ([`AuditReport::ok`] is true): nothing checked,
/// nothing violated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// The four oracles, in fixed order.
    pub oracles: Vec<OracleReport>,
    /// Human-readable role-change provenance verdicts.
    pub verdicts: Vec<String>,
    /// Live polls taken.
    pub polls: u64,
}

impl AuditReport {
    /// True when no oracle recorded a violation.
    pub fn ok(&self) -> bool {
        self.oracles.iter().all(|o| o.violations.is_empty())
    }

    /// Total violations across all oracles.
    pub fn violation_count(&self) -> u64 {
        self.oracles.iter().map(|o| o.violations.len() as u64).sum()
    }

    /// Publish the verdict into a registry as `audit.*` gauges, so health
    /// endpoints and BENCH exports surface it uniformly: `audit.ok` (1/0),
    /// `audit.violations`, and per-oracle `audit.<oracle>.checked` /
    /// `.violations`.
    pub fn publish(&self, telemetry: &Telemetry) {
        telemetry.with_registry(|reg| self.publish_to(reg));
    }

    /// Like [`AuditReport::publish`], against a bare registry.
    pub fn publish_to(&self, reg: &mut Registry) {
        reg.gauge_set("audit.ok", None, if self.ok() { 1.0 } else { 0.0 });
        reg.gauge_set("audit.violations", None, self.violation_count() as f64);
        for o in &self.oracles {
            reg.gauge_set(&format!("audit.{}.checked", o.name), None, o.checked as f64);
            reg.gauge_set(
                &format!("audit.{}.violations", o.name),
                None,
                o.violations.len() as f64,
            );
        }
    }

    /// Deterministic JSON rendering (ordered keys, stable formatting).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("audit report serializes")
    }

    /// The report as a serde [`Value`], for embedding in larger documents
    /// (flight dumps, BENCH exports).
    pub fn to_value(&self) -> Value {
        let oracle_value = |o: &OracleReport| {
            Value::Map(vec![
                ("name".into(), Value::Str(o.name.clone())),
                ("checked".into(), Value::Num(Number::U64(o.checked))),
                (
                    "violations".into(),
                    Value::Arr(o.violations.iter().map(|v| Value::Str(v.clone())).collect()),
                ),
            ])
        };
        Value::Map(vec![
            ("ok".into(), Value::Bool(self.ok())),
            (
                "violations".into(),
                Value::Num(Number::U64(self.violation_count())),
            ),
            ("polls".into(), Value::Num(Number::U64(self.polls))),
            (
                "oracles".into(),
                Value::Arr(self.oracles.iter().map(oracle_value).collect()),
            ),
            (
                "verdicts".into(),
                Value::Arr(
                    self.verdicts
                        .iter()
                        .map(|v| Value::Str(v.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable rendering for logs and postmortem dumps.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "audit: {} ({} violations, {} polls)\n",
            if self.ok() { "OK" } else { "FAILED" },
            self.violation_count(),
            self.polls,
        ));
        for o in &self.oracles {
            out.push_str(&format!(
                "  [{}] {} — {} checked, {} violations\n",
                if o.violations.is_empty() {
                    "ok"
                } else {
                    "FAIL"
                },
                o.name,
                o.checked,
                o.violations.len(),
            ));
            for v in &o.violations {
                out.push_str(&format!("      ! {v}\n"));
            }
        }
        for v in &self.verdicts {
            out.push_str(&format!("  verdict: {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_checkpoints_stay_clean() {
        let mut a = Auditor::new();
        for replica in 0..4 {
            for view in 0..10 {
                a.record_checkpoint("hotstuff", replica, view, 0x1000 + view);
            }
        }
        let report = a.finish(&Registry::new());
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.oracles[0].checked, 40);
    }

    #[test]
    fn diverging_fingerprint_names_both_replicas() {
        let mut a = Auditor::new();
        a.record_checkpoint("hotstuff", 0, 7, 0xaaa);
        a.record_checkpoint("hotstuff", 1, 7, 0xaaa);
        a.record_checkpoint("hotstuff", 2, 7, 0xbbb);
        let report = a.finish(&Registry::new());
        assert!(!report.ok());
        let v = &report.oracles[0].violations;
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("ordinal 7"), "{}", v[0]);
        assert!(v[0].contains("replica 2"), "{}", v[0]);
        assert!(v[0].contains("replica 0"), "{}", v[0]);
    }

    #[test]
    fn epoch_regression_is_flagged_on_monotone_surfaces() {
        let mut a = Auditor::new();
        a.record_checkpoint("kauri.config", 3, 5, 0x1);
        a.record_checkpoint("kauri.config", 3, 4, 0x2);
        let report = a.into_report();
        let config = report
            .oracles
            .iter()
            .find(|o| o.name == "config_adoption")
            .unwrap();
        assert!(config
            .violations
            .iter()
            .any(|v| v.contains("replica 3") && v.contains("epoch 5") && v.contains("4")));
        // Commit ordinals may legitimately regress (reordered proposals).
        let mut b = Auditor::new();
        b.record_checkpoint("hotstuff", 0, 10, 0x1);
        b.record_checkpoint("hotstuff", 0, 7, 0x2);
        assert!(b.into_report().ok());
    }

    #[test]
    fn poll_harvests_paired_gauges_from_the_registry() {
        let mut reg = Registry::new();
        let (seq, digest) = (
            HOTSTUFF_SURFACE.ordinal_gauge,
            HOTSTUFF_SURFACE.digest_gauge,
        );
        reg.gauge_set(seq, Some(0), 12.0);
        reg.gauge_set(digest, Some(0), 0xabc as f64);
        reg.gauge_set(seq, Some(1), 12.0);
        reg.gauge_set(digest, Some(1), 0xdef as f64);
        let mut a = Auditor::new();
        a.poll(&reg);
        let report = a.into_report();
        assert!(!report.ok());
        assert!(report.oracles[0].violations[0].contains("ordinal 12"));
        assert_eq!(report.polls, 1);
    }

    #[test]
    fn conservation_balances_and_fires_on_a_leak() {
        let mut reg = Registry::new();
        reg.counter_add("traffic.queue.admitted", None, 100);
        reg.counter_add("traffic.client.committed", None, 90);
        reg.counter_add("traffic.queue.abandoned", None, 4);
        reg.gauge_set("traffic.queue.waiting", None, 4.0);
        reg.gauge_set("traffic.queue.in_flight", None, 2.0);
        let report = Auditor::new().finish(&reg);
        assert!(report.ok(), "{}", report.render());

        // Leak 3 commands: admitted but never accounted anywhere.
        let mut leaky = reg.clone();
        leaky.counter_add("traffic.queue.admitted", None, 3);
        let report = Auditor::new().finish(&leaky);
        assert!(!report.ok());
        let c = report
            .oracles
            .iter()
            .find(|o| o.name == "conservation")
            .unwrap();
        assert!(
            c.violations[0].contains("admitted 103"),
            "{}",
            c.violations[0]
        );

        // Slack forgives a transient live imbalance but the final strict
        // pass still catches it.
        let mut slacked = Auditor::new().with_conservation_slack(8);
        slacked.poll(&leaky);
        assert!(slacked.violations().is_empty(), "live pass within slack");
        assert!(!slacked.finish(&leaky).ok(), "final pass is strict");
    }

    #[test]
    fn conservation_ignores_runs_without_traffic() {
        let report = Auditor::new().finish(&Registry::new());
        assert!(report.ok());
        let c = report
            .oracles
            .iter()
            .find(|o| o.name == "conservation")
            .unwrap();
        assert_eq!(c.checked, 0);
    }

    fn pair(accuser: usize, accused: usize, round: u64) -> ConfigCommand<u32> {
        ConfigCommand::Pair(SuspicionPair {
            accuser,
            accused,
            round,
            phase: 1,
            reciprocal: false,
        })
    }

    #[test]
    fn provenance_links_rotations_to_their_evidence() {
        let commands: Vec<(u64, ConfigCommand<u32>)> = vec![
            (0, pair(1, 0, 4)),
            (
                1,
                ConfigCommand::Config {
                    epoch: 1,
                    config: 10,
                },
            ),
            (2, pair(2, 0, 4)),
            (
                3,
                ConfigCommand::Config {
                    epoch: 2,
                    config: 20,
                },
            ),
        ];
        let mut a = Auditor::new();
        a.check_provenance(&commands);
        let report = a.into_report();
        assert!(report.ok(), "{}", report.render());
        assert!(report
            .verdicts
            .iter()
            .any(|v| v.contains("epoch 1") && v.contains("pair 1→0 at round 4")));
        assert!(report
            .verdicts
            .iter()
            .any(|v| v.contains("epoch 2") && v.contains("pair 2→0 at round 4")));
    }

    #[test]
    fn stale_config_replay_is_a_violation() {
        let commands: Vec<(u64, ConfigCommand<u32>)> = vec![
            (
                0,
                ConfigCommand::Config {
                    epoch: 2,
                    config: 20,
                },
            ),
            (
                1,
                ConfigCommand::Config {
                    epoch: 1,
                    config: 10,
                },
            ),
        ];
        let mut a = Auditor::new();
        a.check_provenance(&commands);
        let report = a.into_report();
        assert!(!report.ok());
        let p = report
            .oracles
            .iter()
            .find(|o| o.name == "provenance")
            .unwrap();
        assert!(p.violations[0].contains("epoch 1"), "{}", p.violations[0]);
        assert!(p.violations[0].contains("seq 1"), "{}", p.violations[0]);
    }

    #[test]
    fn unjustified_exclusion_names_the_replica() {
        let commands: Vec<(u64, ConfigCommand<u32>)> = vec![
            (0, pair(1, 4, 9)),
            (
                1,
                ConfigCommand::Exclude {
                    epoch: 1,
                    replicas: vec![4, 5],
                },
            ),
        ];
        let mut a = Auditor::new();
        a.check_provenance(&commands);
        let report = a.into_report();
        assert!(!report.ok());
        let p = report
            .oracles
            .iter()
            .find(|o| o.name == "provenance")
            .unwrap();
        assert_eq!(p.violations.len(), 1, "replica 4 is justified, 5 is not");
        assert!(p.violations[0].contains("replica 5"), "{}", p.violations[0]);
        assert!(report
            .verdicts
            .iter()
            .any(|v| v.contains("excised replica 4") && v.contains("pair 1→4 at round 9")));
    }

    #[test]
    fn report_json_is_deterministic_and_publishes_gauges() {
        let mut a = Auditor::new();
        a.record_checkpoint("hotstuff", 0, 1, 0x1);
        a.record_checkpoint("hotstuff", 1, 1, 0x2);
        let report = a.into_report();
        assert_eq!(report.to_json(), report.to_json());
        assert!(report.to_json().starts_with("{\"ok\":false"));
        let mut reg = Registry::new();
        report.publish_to(&mut reg);
        assert_eq!(reg.gauge("audit.ok", None), Some(0.0));
        assert_eq!(reg.gauge("audit.violations", None), Some(1.0));
        assert_eq!(
            reg.gauge("audit.prefix_agreement.violations", None),
            Some(1.0)
        );
        assert_eq!(reg.gauge("audit.conservation.checked", None), Some(0.0));
    }
}
