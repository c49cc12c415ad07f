//! Transferable proofs of misbehavior.
//!
//! OptiLog's MisbehaviorSensor raises a *complaint* when it observes provable
//! protocol violations: equivocation (two conflicting signed messages for the
//! same view), invalid signatures or certificates, and — for OptiTree — an
//! incomplete vote aggregate (§6.3). Complaints are signed, proposed through
//! the log, and verified by every replica ([`Complaint::verify`]) before the
//! accused replica is added to the provably-faulty set F.

use crate::digest::{Digest, Hashable};
use crate::keys::{Keyring, Signature, SIGNATURE_WIRE_BYTES};
use crate::quorum::{QuorumCertificate, VoteAggregate};
use serde::{Deserialize, Serialize};

/// The kinds of provable misbehavior the sensor can report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MisbehaviorKind {
    /// The accused signed two different digests for the same view, although
    /// the protocol requires it to send identical messages.
    Equivocation {
        /// View in which the equivocation happened.
        view: u64,
        /// First signed digest.
        first: (Digest, Signature),
        /// Conflicting signed digest.
        second: (Digest, Signature),
    },
    /// The accused produced a signature that does not verify.
    InvalidSignature {
        /// Digest the signature claims to cover.
        digest: Digest,
        /// The invalid signature.
        signature: Signature,
    },
    /// The accused presented a quorum certificate that does not verify.
    InvalidCertificate {
        /// The certificate, carried for independent verification.
        certificate: QuorumCertificate,
        /// The quorum threshold it should have met.
        threshold: usize,
    },
    /// An intermediate node forwarded an aggregate that does not account for
    /// every child with a vote or a suspicion (OptiTree rule, §6.3).
    IncompleteAggregate {
        /// The offending aggregate.
        aggregate: VoteAggregate,
        /// The children the aggregate was responsible for.
        children: Vec<usize>,
    },
}

/// A proof of misbehavior against one replica.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MisbehaviorProof {
    /// The replica accused of misbehaving.
    pub accused: usize,
    /// Evidence.
    pub kind: MisbehaviorKind,
}

impl MisbehaviorProof {
    /// Verify the proof is conclusive: a third party accepting this returns
    /// `true` only when the evidence indeed incriminates `accused`.
    pub fn verify(&self, keyring: &Keyring) -> bool {
        match &self.kind {
            MisbehaviorKind::Equivocation { first, second, .. } => {
                // Both signatures must be by the accused, valid, and over
                // *different* digests.
                first.0 != second.0
                    && first.1.signer == self.accused
                    && second.1.signer == self.accused
                    && keyring.verify(&first.0, &first.1)
                    && keyring.verify(&second.0, &second.1)
            }
            MisbehaviorKind::InvalidSignature { digest, signature } => {
                // The signature claims to be from the accused but does not verify.
                signature.signer == self.accused && !keyring.verify(digest, signature)
            }
            MisbehaviorKind::InvalidCertificate {
                certificate,
                threshold,
            } => !certificate.verify(keyring, *threshold),
            MisbehaviorKind::IncompleteAggregate {
                aggregate,
                children,
            } => aggregate.aggregator == self.accused && !aggregate.is_complete(children),
        }
    }

    /// Approximate wire size of the proof in bytes (used by the Fig 13
    /// proposal-size experiment; proofs dominated by embedded certificates).
    pub fn wire_bytes(&self) -> usize {
        8 + match &self.kind {
            MisbehaviorKind::Equivocation { .. } => 8 + 2 * (32 + SIGNATURE_WIRE_BYTES),
            MisbehaviorKind::InvalidSignature { .. } => 32 + SIGNATURE_WIRE_BYTES,
            MisbehaviorKind::InvalidCertificate { certificate, .. } => 8 + certificate.wire_bytes(),
            MisbehaviorKind::IncompleteAggregate { aggregate, .. } => {
                aggregate.wire_bytes() + 8 * aggregate.entries.len()
            }
        }
    }
}

/// A signed complaint carrying a proof, as appended to the shared log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Complaint {
    /// The replica raising the complaint.
    pub reporter: usize,
    /// The proof.
    pub proof: MisbehaviorProof,
    /// Reporter's signature over the proof digest.
    pub signature: Signature,
}

impl Hashable for MisbehaviorProof {
    fn digest(&self) -> Digest {
        // Hash a compact structural encoding of the proof.
        let tag: u8 = match self.kind {
            MisbehaviorKind::Equivocation { .. } => 1,
            MisbehaviorKind::InvalidSignature { .. } => 2,
            MisbehaviorKind::InvalidCertificate { .. } => 3,
            MisbehaviorKind::IncompleteAggregate { .. } => 4,
        };
        Digest::of_parts(&[b"misbehavior", &[tag], &self.accused.to_le_bytes()])
    }
}

impl Complaint {
    /// Create and sign a complaint.
    pub fn new(reporter: usize, proof: MisbehaviorProof, keyring: &Keyring) -> Self {
        let signature = keyring.key(reporter).sign(&proof.digest());
        Complaint {
            reporter,
            proof,
            signature,
        }
    }

    /// Verify the reporter's signature and the embedded proof.
    pub fn verify(&self, keyring: &Keyring) -> bool {
        keyring.verify_from(self.reporter, &self.proof.digest(), &self.signature)
            && self.proof.verify(keyring)
    }

    /// Approximate wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        8 + SIGNATURE_WIRE_BYTES + self.proof.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::{AggregateEntry, PartialSignature};

    fn ring() -> Keyring {
        Keyring::new(99, 7)
    }

    #[test]
    fn equivocation_proof_verifies() {
        let ring = ring();
        let d1 = Digest::of(b"proposal-a");
        let d2 = Digest::of(b"proposal-b");
        let proof = MisbehaviorProof {
            accused: 2,
            kind: MisbehaviorKind::Equivocation {
                view: 5,
                first: (d1, ring.key(2).sign(&d1)),
                second: (d2, ring.key(2).sign(&d2)),
            },
        };
        assert!(proof.verify(&ring));
    }

    #[test]
    fn equivocation_same_digest_is_not_proof() {
        let ring = ring();
        let d = Digest::of(b"same");
        let proof = MisbehaviorProof {
            accused: 2,
            kind: MisbehaviorKind::Equivocation {
                view: 5,
                first: (d, ring.key(2).sign(&d)),
                second: (d, ring.key(2).sign(&d)),
            },
        };
        assert!(!proof.verify(&ring));
    }

    #[test]
    fn equivocation_framing_detected() {
        let ring = ring();
        let d1 = Digest::of(b"a");
        let d2 = Digest::of(b"b");
        // Reporter tries to frame replica 2 using replica 3's signature.
        let proof = MisbehaviorProof {
            accused: 2,
            kind: MisbehaviorKind::Equivocation {
                view: 5,
                first: (d1, ring.key(2).sign(&d1)),
                second: (d2, ring.key(3).sign(&d2)),
            },
        };
        assert!(!proof.verify(&ring));
    }

    #[test]
    fn invalid_signature_proof() {
        let ring = ring();
        let d = Digest::of(b"msg");
        let mut bad = ring.key(4).sign(&Digest::of(b"other"));
        bad.signer = 4;
        let proof = MisbehaviorProof {
            accused: 4,
            kind: MisbehaviorKind::InvalidSignature {
                digest: d,
                signature: bad,
            },
        };
        assert!(proof.verify(&ring));

        // A *valid* signature is not proof of misbehavior.
        let good = ring.key(4).sign(&d);
        let not_proof = MisbehaviorProof {
            accused: 4,
            kind: MisbehaviorKind::InvalidSignature {
                digest: d,
                signature: good,
            },
        };
        assert!(!not_proof.verify(&ring));
    }

    #[test]
    fn invalid_certificate_proof() {
        let ring = ring();
        let d = Digest::of(b"blk");
        let shares = vec![PartialSignature::new(0, d, ring.key(0).sign(&d))];
        let weak = QuorumCertificate::new(d, 1, shares);
        let proof = MisbehaviorProof {
            accused: 1,
            kind: MisbehaviorKind::InvalidCertificate {
                certificate: weak,
                threshold: 5,
            },
        };
        assert!(proof.verify(&ring));
    }

    #[test]
    fn incomplete_aggregate_proof() {
        let ring = ring();
        let d = Digest::of(b"blk");
        let agg = VoteAggregate::new(
            3,
            d,
            vec![AggregateEntry::Vote(PartialSignature::new(
                3,
                d,
                ring.key(3).sign(&d),
            ))],
        );
        let proof = MisbehaviorProof {
            accused: 3,
            kind: MisbehaviorKind::IncompleteAggregate {
                aggregate: agg.clone(),
                children: vec![5, 6],
            },
        };
        assert!(proof.verify(&ring));

        // Complete aggregates do not incriminate.
        let complete = VoteAggregate::new(
            3,
            d,
            vec![
                AggregateEntry::Vote(PartialSignature::new(3, d, ring.key(3).sign(&d))),
                AggregateEntry::Suspected { child: 5 },
                AggregateEntry::Suspected { child: 6 },
            ],
        );
        let not_proof = MisbehaviorProof {
            accused: 3,
            kind: MisbehaviorKind::IncompleteAggregate {
                aggregate: complete,
                children: vec![5, 6],
            },
        };
        assert!(!not_proof.verify(&ring));
    }

    #[test]
    fn complaint_signature_checked() {
        let ring = ring();
        let d1 = Digest::of(b"x");
        let d2 = Digest::of(b"y");
        let proof = MisbehaviorProof {
            accused: 1,
            kind: MisbehaviorKind::Equivocation {
                view: 1,
                first: (d1, ring.key(1).sign(&d1)),
                second: (d2, ring.key(1).sign(&d2)),
            },
        };
        let complaint = Complaint::new(0, proof.clone(), &ring);
        assert!(complaint.verify(&ring));

        let forged = Complaint {
            reporter: 5,
            proof,
            signature: complaint.signature,
        };
        assert!(!forged.verify(&ring));
    }

    #[test]
    fn proof_sizes_reflect_contents() {
        let ring = ring();
        let d = Digest::of(b"blk");
        let shares: Vec<_> = (0..5)
            .map(|i| PartialSignature::new(i, d, ring.key(i).sign(&d)))
            .collect();
        let cert_proof = MisbehaviorProof {
            accused: 0,
            kind: MisbehaviorKind::InvalidCertificate {
                certificate: QuorumCertificate::new(d, 1, shares),
                threshold: 6,
            },
        };
        let sig_proof = MisbehaviorProof {
            accused: 0,
            kind: MisbehaviorKind::InvalidSignature {
                digest: d,
                signature: ring.key(0).sign(&d),
            },
        };
        assert!(cert_proof.wire_bytes() > sig_proof.wire_bytes());
    }
}
