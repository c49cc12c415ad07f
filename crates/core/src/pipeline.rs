//! A ready-made OptiLog instance wiring the whole §4.2 pipeline together.
//!
//! Protocol integrations (OptiAware, OptiTree) need the same plumbing: feed
//! committed measurements to the right monitor, keep the suspicion monitor's
//! faulty set in sync with the misbehavior monitor, and expose the latency
//! matrix, candidate set, and fault estimate. [`OptiLogInstance`] provides
//! that plumbing so each integration only supplies its protocol-specific
//! `score(·)` function and timeout derivation.

use crate::candidates::CandidateSelection;
use crate::latency::{LatencyMatrix, LatencyMonitor, LatencyVector};
use crate::measurement::{Measurement, MeasurementLog};
use crate::misbehavior::MisbehaviorMonitor;
use crate::suspicion::{Suspicion, SuspicionMonitor, SuspicionMonitorParams};
use crypto::{Complaint, Keyring};
use std::collections::BTreeSet;

/// One replica's view of the OptiLog monitors, fed from the shared log.
///
/// Because every replica feeds the same committed measurements in the same
/// order, all instances derive identical matrices, candidate sets, and fault
/// estimates — the consistency property of Table 1.
#[derive(Debug, Clone)]
pub struct OptiLogInstance {
    log: MeasurementLog,
    latency: LatencyMonitor,
    misbehavior: MisbehaviorMonitor,
    suspicion: SuspicionMonitor,
}

impl OptiLogInstance {
    /// Create an instance for an `n`-replica system.
    pub fn new(keyring: Keyring, params: SuspicionMonitorParams) -> Self {
        let n = params.n;
        OptiLogInstance {
            log: MeasurementLog::new(),
            latency: LatencyMonitor::new(n),
            misbehavior: MisbehaviorMonitor::new(keyring),
            suspicion: SuspicionMonitor::new(params),
        }
    }

    /// Feed one committed measurement (in log order).
    pub fn on_measurement(&mut self, m: &Measurement) {
        self.log.append(m.clone());
        match m {
            Measurement::Latency(v) => self.on_latency(v),
            Measurement::Suspicion(s) => self.on_suspicion(s),
            Measurement::Complaint(c) => self.on_complaint(c),
            Measurement::Config(_) => {
                // Config proposals are consumed by the protocol-specific
                // ConfigMonitor; the shared instance only records them.
            }
        }
    }

    /// Feed a committed latency vector.
    pub fn on_latency(&mut self, v: &LatencyVector) {
        self.latency.on_vector(v);
    }

    /// Feed a committed suspicion.
    pub fn on_suspicion(&mut self, s: &Suspicion) {
        self.suspicion.on_suspicion(s);
    }

    /// Feed a committed misbehavior complaint; the suspicion monitor's
    /// faulty set is updated if the proof verifies.
    pub fn on_complaint(&mut self, c: &Complaint) {
        if self.misbehavior.on_complaint(c) {
            self.suspicion.set_faulty(self.misbehavior.faulty().clone());
        }
    }

    /// Advance to a new view (leader change) — drives reciprocation windows
    /// and suspicion expiry.
    pub fn on_view(&mut self, view: u64) {
        self.suspicion.on_view(view);
    }

    /// The shared latency matrix `L`.
    pub fn latency_matrix(&self) -> &LatencyMatrix {
        self.latency.matrix()
    }

    /// The provably faulty set `F`.
    pub fn faulty(&self) -> &BTreeSet<usize> {
        self.misbehavior.faulty()
    }

    /// The crash set `C`.
    pub fn crashed(&self) -> &BTreeSet<usize> {
        self.suspicion.crashed()
    }

    /// The candidate set `K` and estimate `u`.
    pub fn selection(&mut self) -> &CandidateSelection {
        self.suspicion.selection()
    }

    /// The underlying measurement log (for overhead accounting and forensics).
    pub fn log(&self) -> &MeasurementLog {
        &self.log
    }

    /// Mutable access to the suspicion monitor (protocol-specific tuning).
    pub fn suspicion_monitor_mut(&mut self) -> &mut SuspicionMonitor {
        &mut self.suspicion
    }

    /// Access to the misbehavior monitor.
    pub fn misbehavior_monitor(&self) -> &MisbehaviorMonitor {
        &self.misbehavior
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suspicion::SuspicionKind;
    use crypto::{Digest, MisbehaviorKind, MisbehaviorProof};

    fn instance(n: usize, f: usize) -> (OptiLogInstance, Keyring) {
        let ring = Keyring::new(7, n);
        (
            OptiLogInstance::new(ring.clone(), SuspicionMonitorParams::new(n, f)),
            ring,
        )
    }

    fn slow(accuser: usize, accused: usize) -> Measurement {
        Measurement::Suspicion(Suspicion {
            kind: SuspicionKind::Slow,
            accuser,
            accused,
            round: 1,
            phase: 1,
            accuser_is_leader: false,
        })
    }

    #[test]
    fn identical_inputs_produce_identical_state() {
        let feed = |inst: &mut OptiLogInstance| {
            inst.on_measurement(&Measurement::Latency(LatencyVector::new(
                0,
                vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
            )));
            inst.on_measurement(&slow(1, 2));
            inst.on_measurement(&slow(2, 1));
        };
        let (mut a, _) = instance(7, 2);
        let (mut b, _) = instance(7, 2);
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.log().prefix_digest(), b.log().prefix_digest());
        assert_eq!(a.selection(), b.selection());
        assert_eq!(a.latency_matrix().rtt(0, 1), b.latency_matrix().rtt(0, 1));
    }

    #[test]
    fn complaint_flows_into_suspicion_monitor_faulty_set() {
        let (mut inst, ring) = instance(7, 2);
        let d1 = Digest::of(b"a");
        let d2 = Digest::of(b"b");
        let proof = MisbehaviorProof {
            accused: 5,
            kind: MisbehaviorKind::Equivocation {
                view: 1,
                first: (d1, ring.key(5).sign(&d1)),
                second: (d2, ring.key(5).sign(&d2)),
            },
        };
        inst.on_measurement(&Measurement::Complaint(Complaint::new(0, proof, &ring)));
        assert!(inst.faulty().contains(&5));
        let sel = inst.selection();
        assert!(!sel.contains(5));
    }

    #[test]
    fn full_pipeline_excludes_suspected_pair_and_counts_bytes() {
        let (mut inst, _) = instance(7, 2);
        inst.on_measurement(&Measurement::Latency(LatencyVector::new(
            1,
            vec![15.0, 0.0, 25.0, 35.0, 45.0, 55.0, 65.0],
        )));
        inst.on_measurement(&slow(3, 4));
        inst.on_measurement(&slow(4, 3));
        let sel = inst.selection();
        assert_eq!(sel.estimate_u, 1);
        assert_eq!(sel.candidates.len(), 6);
        assert!(inst.log().bytes_for("latency") > 0);
        assert!(inst.log().bytes_for("suspicion") > 0);
        assert_eq!(inst.log().len(), 3);
    }

    #[test]
    fn view_progression_moves_unreciprocated_to_crashed() {
        let (mut inst, _) = instance(7, 2);
        inst.on_view(1);
        inst.on_measurement(&slow(0, 6));
        inst.on_view(10);
        assert!(inst.crashed().contains(&6));
    }
}
