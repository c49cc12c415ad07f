//! Wire messages of the PBFT/BFT-SMaRt-style protocol.

use crypto::Digest;
use rsm::{Command, SealedBlock};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Protocol phases, ordered as the SuspicionSensor's causal filter expects
/// (smaller = earlier in the round).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u32)]
pub enum Phase {
    /// Leader proposal (Pre-Prepare in PBFT, Propose in BFT-SMaRt).
    Propose = 1,
    /// First all-to-all vote phase (Prepare / Write).
    Write = 2,
    /// Second all-to-all vote phase (Commit / Accept).
    Accept = 3,
}

impl Phase {
    /// Numeric tag used in timing expectations.
    pub fn tag(self) -> u32 {
        self as u32
    }
}

/// Messages exchanged between replicas and clients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PbftMessage {
    /// Client request broadcast to all replicas; the current leader batches it.
    Request {
        /// The command to replicate.
        cmd: Command,
    },
    /// Leader proposal: a block, the leader's proposal timestamp, and any
    /// measurement blobs riding on the proposal (the sensor app of Fig 1).
    Propose {
        /// Consensus sequence number.
        seq: u64,
        /// Configuration epoch the leader believes is active.
        epoch: u64,
        /// The proposed block, sealed with its digest and shared: a
        /// recipient's copy of the message is a reference-count bump that
        /// reads the leader's digest, and on the wire it is the plain block,
        /// which the receiver re-seals (re-hashes) as it decodes.
        block: Arc<SealedBlock>,
        /// The leader's proposal timestamp (µs of virtual time) — the
        /// reference point for all per-message timeouts (§4.2.3).
        timestamp_us: u64,
        /// Opaque measurement blobs to be committed with the block.
        measurements: Vec<Vec<u8>>,
    },
    /// First-phase vote.
    Write {
        /// Sequence number being voted on.
        seq: u64,
        /// Digest of the proposed block.
        digest: Digest,
        /// The voting replica.
        voter: usize,
    },
    /// Second-phase vote.
    Accept {
        /// Sequence number being voted on.
        seq: u64,
        /// Digest of the proposed block.
        digest: Digest,
        /// The voting replica.
        voter: usize,
    },
    /// Execution reply to a client.
    Reply {
        /// The client's command sequence number.
        client_seq: u64,
        /// The replying replica.
        replica: usize,
    },
    /// Latency probe.
    Probe {
        /// Nonce echoed in the reply.
        nonce: u64,
        /// Send time in µs, echoed back so the prober measures RTT.
        sent_at_us: u64,
    },
    /// Reply to a latency probe.
    ProbeReply {
        /// Echoed nonce.
        nonce: u64,
        /// Echoed send time.
        sent_at_us: u64,
        /// The replying replica.
        replica: usize,
    },
    /// Sensor output forwarded to the leader for inclusion in a proposal.
    SensorData {
        /// Opaque measurement blobs.
        blobs: Vec<Vec<u8>>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm::Block;

    #[test]
    fn phase_tags_are_ordered() {
        assert!(Phase::Propose.tag() < Phase::Write.tag());
        assert!(Phase::Write.tag() < Phase::Accept.tag());
    }

    #[test]
    fn messages_are_cloneable_and_serializable() {
        let msg = PbftMessage::Propose {
            seq: 1,
            epoch: 0,
            block: Arc::new(SealedBlock::seal(Block::genesis())),
            timestamp_us: 42,
            measurements: vec![vec![1, 2, 3]],
        };
        let cloned = msg.clone();
        let json = serde_json::to_string(&cloned).expect("serializes");
        assert!(json.contains("Propose"));
    }
}
