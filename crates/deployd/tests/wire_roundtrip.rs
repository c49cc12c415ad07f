//! Wire round-trip coverage for every message type that can cross a real
//! socket: each substrate's full message enum is encoded through the
//! length-prefixed frame format (`runtime::wire`) and decoded back, variant
//! by variant. A variant that fails here would silently wedge a deployed
//! cluster, so this is the canary for serde-derive or framing regressions.

use crypto::Digest;
use hotstuff::HotStuffMessage;
use kauri::{KauriMessage, Tree, TreeCommand};
use pbft::PbftMessage;
use runtime::{encode_frame, read_frame, NodeId, WireMsg};
use rsm::{Block, Command, SealedBlock};
use std::io::Cursor;
use std::sync::Arc;

/// Encode a frame, decode it, and hand back the decoded `(from, msg)`.
fn round_trip<M: WireMsg>(from: NodeId, msg: &M) -> (NodeId, M) {
    let frame = encode_frame(from, msg).expect("encodes");
    read_frame(&mut Cursor::new(frame)).expect("decodes")
}

fn digest(b: u8) -> Digest {
    Digest([b; 32])
}

#[test]
fn hotstuff_messages_round_trip() {
    let cases = vec![
        HotStuffMessage::Proposal {
            view: 42,
            digest: digest(7),
            commands: 1000,
            timestamp_us: 123_456_789,
        },
        HotStuffMessage::Vote {
            view: 42,
            digest: digest(7),
            voter: 3,
        },
    ];
    for msg in cases {
        let (from, back) = round_trip(2, &msg);
        assert_eq!(from, 2);
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
    }
}

#[test]
fn kauri_messages_round_trip() {
    let tree = Tree::random(7, 2, 3);
    let pair = configlog::SuspicionPair {
        accuser: 1,
        accused: 4,
        round: 9,
        phase: 1,
        reciprocal: true,
    };
    let log: Vec<(u64, TreeCommand)> = vec![
        (
            0,
            TreeCommand::Config {
                epoch: 2,
                config: tree.clone(),
            },
        ),
        (
            1,
            TreeCommand::Exclude {
                epoch: 2,
                replicas: vec![4, 5],
            },
        ),
        (2, TreeCommand::Pair(pair)),
    ];
    let cases = vec![
        KauriMessage::Proposal {
            view: 5,
            digest: digest(1),
            commands: 100,
            timestamp_us: 77,
            epoch: 2,
            tree: Arc::new(tree.clone()),
            committed: Arc::new(log.clone()),
        },
        KauriMessage::Vote { view: 5, voter: 6 },
        KauriMessage::Aggregate {
            view: 5,
            voters: vec![1, 2, 3],
            aggregator: 1,
        },
        KauriMessage::Evidence {
            cmds: log.iter().map(|(_, c)| c.clone()).collect(),
        },
        KauriMessage::Committed {
            prefix: Arc::new(log),
        },
    ];
    for msg in cases {
        let (from, back) = round_trip(0, &msg);
        assert_eq!(from, 0);
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
    }
}

#[test]
fn kauri_shared_tree_survives_arc_transparency() {
    // The Arc is a process-local sharing optimisation; on the wire it must
    // serialize as its pointee and come back as a fresh allocation holding
    // an equal value.
    let tree = Tree::random(13, 3, 11);
    let msg = KauriMessage::Proposal {
        view: 1,
        digest: digest(2),
        commands: 1,
        timestamp_us: 1,
        epoch: 1,
        tree: Arc::new(tree.clone()),
        committed: Arc::new(Vec::new()),
    };
    let (_, back) = round_trip(3, &msg);
    match back {
        KauriMessage::Proposal { tree: t, .. } => assert_eq!(*t, tree),
        other => panic!("wrong variant back: {other:?}"),
    }
}

#[test]
fn pbft_messages_round_trip() {
    let block = SealedBlock::seal(Block::new(
        digest(9),
        4,
        2,
        1,
        vec![
            Command::new(0, 0, b"put city lisbon".to_vec()),
            Command::new(1, 7, vec![0, 255, 128]),
        ],
    ));
    let cases = vec![
        PbftMessage::Propose {
            seq: 10,
            epoch: 3,
            block: Arc::new(block.clone()),
            timestamp_us: 55,
            measurements: vec![vec![1, 2], vec![]],
        },
        PbftMessage::Write {
            seq: 10,
            digest: digest(3),
            voter: 2,
        },
        PbftMessage::Accept {
            seq: 10,
            digest: digest(3),
            voter: 2,
        },
        PbftMessage::Probe {
            nonce: 99,
            sent_at_us: 1_000,
        },
        PbftMessage::ProbeReply {
            nonce: 99,
            sent_at_us: 1_000,
            replica: 5,
        },
        PbftMessage::SensorData {
            blobs: vec![vec![7; 3]],
        },
    ];
    let block_json = serde_json::to_string(&*block).unwrap();
    let propose_json = serde_json::to_string(&cases[0]).unwrap();
    assert!(
        propose_json.contains(&format!("\"block\":{block_json}")),
        "neither the Arc nor the seal adds anything on the wire: {propose_json}"
    );
    for msg in cases {
        let (from, back) = round_trip(6, &msg);
        assert_eq!(from, 6);
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        if let PbftMessage::Propose { block: b, .. } = back {
            assert_eq!(
                *b, block,
                "the shared block crosses the wire as its pointee"
            );
            assert_eq!(
                b.digest(),
                block.digest(),
                "the receiver re-seals the decoded block to the sender's digest"
            );
        }
    }
}

#[test]
fn frames_concatenate_cleanly_on_one_stream() {
    // A socket delivers frames back to back; the reader must consume exactly
    // one frame per call, leaving the next intact.
    let a = HotStuffMessage::Vote {
        view: 1,
        digest: digest(1),
        voter: 0,
    };
    let b = HotStuffMessage::Vote {
        view: 2,
        digest: digest(2),
        voter: 1,
    };
    let mut stream = encode_frame(0, &a).unwrap();
    stream.extend(encode_frame(1, &b).unwrap());
    let mut cursor = Cursor::new(stream);
    let (f0, m0): (NodeId, HotStuffMessage) = read_frame(&mut cursor).unwrap();
    let (f1, m1): (NodeId, HotStuffMessage) = read_frame(&mut cursor).unwrap();
    assert_eq!((f0, f1), (0, 1));
    assert_eq!(format!("{m0:?}"), format!("{a:?}"));
    assert_eq!(format!("{m1:?}"), format!("{b:?}"));
}
