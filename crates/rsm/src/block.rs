//! Client commands and the blocks (batches) that consensus orders.

use crypto::{Digest, Hashable, Sha256};
use serde::{Deserialize, Serialize};
use std::ops::Deref;

/// A client command: an opaque payload tagged with its origin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Command {
    /// Identifier of the issuing client.
    pub client: u64,
    /// Client-local sequence number (used for reply matching and dedup).
    pub seq: u64,
    /// Causal trace id (a `telemetry::TraceId`): stamped at admission and
    /// carried through propose/commit so span events across layers correlate.
    /// Not part of the digest — observability must not perturb hashes.
    pub trace: u64,
    /// Opaque operation payload. The paper's throughput experiments use empty
    /// payloads; the key-value example application encodes operations here.
    pub payload: Vec<u8>,
}

impl Command {
    /// Create a command. The trace id defaults to `seq` (the traffic layer
    /// overrides it with the global arrival index via [`Command::with_trace`]).
    pub fn new(client: u64, seq: u64, payload: Vec<u8>) -> Self {
        Command {
            client,
            seq,
            trace: seq,
            payload,
        }
    }

    /// An empty-payload command, as used by the benchmark workloads.
    pub fn empty(client: u64, seq: u64) -> Self {
        Command::new(client, seq, Vec::new())
    }

    /// Attach an explicit causal trace id.
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = trace;
        self
    }

    /// Wire size estimate in bytes.
    pub fn wire_bytes(&self) -> usize {
        16 + self.payload.len()
    }
}

/// A block: an ordered batch of commands proposed as one consensus value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Digest of the parent block (chain position), `Digest::ZERO` for genesis.
    pub parent: Digest,
    /// View / round in which the block was proposed.
    pub view: u64,
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Proposer replica.
    pub proposer: usize,
    /// The batched commands.
    pub commands: Vec<Command>,
}

impl Block {
    /// The genesis block.
    pub fn genesis() -> Self {
        Block {
            parent: Digest::ZERO,
            view: 0,
            height: 0,
            proposer: 0,
            commands: Vec::new(),
        }
    }

    /// Create a block extending `parent`.
    pub fn new(
        parent: Digest,
        view: u64,
        height: u64,
        proposer: usize,
        commands: Vec<Command>,
    ) -> Self {
        Block {
            parent,
            view,
            height,
            proposer,
            commands,
        }
    }

    /// Number of commands in the block.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// True if the block carries no commands.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Wire size estimate in bytes (header plus commands).
    pub fn wire_bytes(&self) -> usize {
        32 + 8 + 8 + 8 + self.commands.iter().map(Command::wire_bytes).sum::<usize>()
    }
}

impl Hashable for Block {
    /// One SHA-256 pass over a canonical encoding, so a command costs its
    /// own bytes and no compression of its own:
    ///
    /// - the tag `b"block"`, length-prefixed;
    /// - `parent` (32 bytes), then `view`, `height`, `proposer` and the
    ///   command count, each a little-endian `u64`;
    /// - per command, `client`, `seq` and the payload's length as
    ///   little-endian `u64`s, then the payload.
    ///
    /// Length prefixes follow [`Sha256::update_prefixed`]'s rule; a
    /// command's three words go in as one 24-byte update. A command's
    /// `trace` is left out: observability must not perturb hashes.
    fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update_prefixed(b"block");
        h.update(&self.parent.0);
        for field in [
            self.view,
            self.height,
            self.proposer as u64,
            self.commands.len() as u64,
        ] {
            h.update(&field.to_le_bytes());
        }
        for c in &self.commands {
            let mut head = [0u8; 24];
            head[..8].copy_from_slice(&c.client.to_le_bytes());
            head[8..16].copy_from_slice(&c.seq.to_le_bytes());
            head[16..].copy_from_slice(&(c.payload.len() as u64).to_le_bytes());
            h.update(&head);
            if !c.payload.is_empty() {
                h.update(&c.payload);
            }
        }
        Digest(h.finalize())
    }
}

/// A block sealed with its digest: hashed once, when it is sealed, and read
/// from the seal by everyone who shares it afterwards.
///
/// The fields are private and [`SealedBlock::seal`] is the only constructor,
/// so the digest is always the hash of the commands stored next to it. On the
/// wire a sealed block is the plain [`Block`]; decoding re-seals, so no
/// replica trusts a digest another replica computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlock {
    block: Block,
    digest: Digest,
}

impl SealedBlock {
    /// Hash `block` and keep the digest beside it.
    pub fn seal(block: Block) -> Self {
        let digest = block.digest();
        SealedBlock { block, digest }
    }

    /// The digest computed when the block was sealed.
    pub fn digest(&self) -> Digest {
        self.digest
    }
}

impl Deref for SealedBlock {
    type Target = Block;

    fn deref(&self) -> &Block {
        &self.block
    }
}

impl Serialize for SealedBlock {
    fn to_value(&self) -> serde::Value {
        self.block.to_value()
    }
}

impl Deserialize for SealedBlock {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Block::from_value(v).map(SealedBlock::seal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn known_answer_block() -> Block {
        Block::new(
            Digest::of(b"parent"),
            7,
            5,
            3,
            vec![
                Command::new(1, 2, b"put k v".to_vec()),
                Command::empty(4, 9),
            ],
        )
    }

    fn one_command(cmd: Command) -> Digest {
        Block::new(Digest::ZERO, 1, 1, 0, vec![cmd]).digest()
    }

    #[test]
    fn command_digest_depends_on_all_fields() {
        let base = one_command(Command::new(1, 2, vec![3]));
        assert_ne!(base, one_command(Command::new(2, 2, vec![3])));
        assert_ne!(base, one_command(Command::new(1, 3, vec![3])));
        assert_ne!(base, one_command(Command::new(1, 2, vec![4])));
        assert_ne!(base, one_command(Command::new(1, 2, vec![3, 0])));
        assert_eq!(base, one_command(Command::new(1, 2, vec![3])));
        assert_eq!(
            base,
            one_command(Command::new(1, 2, vec![3]).with_trace(99)),
            "the trace id is not hashed"
        );
    }

    /// Pins the canonical encoding: a change to it must update this hex on
    /// purpose. Cross-checked against an independent SHA-256 of the encoding
    /// spelled out in `Block::digest`'s documentation.
    #[test]
    fn block_digest_known_answer() {
        let block = known_answer_block();
        let hex: String = block
            .digest()
            .0
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "1c481b0f2f3cab3eccd0b0d056a6571bf9855f488336e9a21ed429e6c916f071"
        );
    }

    #[test]
    fn seal_keeps_the_block_digest() {
        let block = known_answer_block();
        let sealed = SealedBlock::seal(block.clone());
        assert_eq!(sealed.digest(), Hashable::digest(&block));
        assert_eq!(*sealed, block, "the seal reads as the block it holds");
    }

    /// The named field of an encoded struct.
    fn field<'a>(value: &'a mut Value, name: &str) -> &'a mut Value {
        let Value::Map(fields) = value else {
            panic!("expected an encoded struct, got {}", value.kind());
        };
        fields
            .iter_mut()
            .find_map(|(k, v)| (k == name).then_some(v))
            .expect("field present")
    }

    /// A decode re-hashes: a tampered encoding yields the digest of what
    /// was decoded, never the sender's.
    #[test]
    fn decoding_a_sealed_block_reseals_it() {
        let sent = SealedBlock::seal(known_answer_block());
        let mut value = sent.to_value();
        assert_eq!(
            value,
            sent.block.to_value(),
            "the wire form is the plain block"
        );
        let Value::Arr(commands) = field(&mut value, "commands") else {
            panic!("commands encode as an array");
        };
        *field(&mut commands[1], "seq") = 10u64.to_value();

        let got = SealedBlock::from_value(&value).expect("decodes");
        assert_eq!(got.commands[1].seq, 10);
        assert_eq!(got.digest(), Hashable::digest(&*got));
        assert_ne!(got.digest(), sent.digest());
    }

    #[test]
    fn genesis_block_is_empty_at_height_zero() {
        let g = Block::genesis();
        assert!(g.is_empty());
        assert_eq!(g.height, 0);
        assert_eq!(g.parent, Digest::ZERO);
    }

    #[test]
    fn block_digest_changes_with_commands_and_parent() {
        let cmds = vec![Command::empty(0, 0), Command::empty(0, 1)];
        let a = Block::new(Digest::ZERO, 1, 1, 0, cmds.clone());
        let b = Block::new(Digest::ZERO, 1, 1, 0, cmds[..1].to_vec());
        let c = Block::new(Digest::of(b"p"), 1, 1, 0, cmds);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn block_digest_is_order_sensitive() {
        let c1 = Command::empty(0, 0);
        let c2 = Command::empty(0, 1);
        let a = Block::new(Digest::ZERO, 1, 1, 0, vec![c1.clone(), c2.clone()]);
        let b = Block::new(Digest::ZERO, 1, 1, 0, vec![c2, c1]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn wire_size_accounts_for_payloads() {
        let small = Block::new(Digest::ZERO, 0, 1, 0, vec![Command::empty(0, 0)]);
        let large = Block::new(
            Digest::ZERO,
            0,
            1,
            0,
            vec![Command::new(0, 0, vec![0u8; 100])],
        );
        assert!(large.wire_bytes() > small.wire_bytes());
    }
}
