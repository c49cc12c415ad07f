//! # hotstuff — chained HotStuff over a star topology
//!
//! The baseline protocol for the tree-overlay experiments (Fig 9): a chained
//! HotStuff \[63\] replica set where the leader of each view proposes a block
//! certified by the previous view's quorum certificate, replicas vote
//! directly to the (next) leader, and a block commits once it heads a
//! three-chain of consecutive views. Two pacemakers are provided, matching
//! the paper's baselines:
//!
//! * **HotStuff-fixed** — a fixed leader drives every view;
//! * **HotStuff-rr** — the leader role rotates round-robin each view.
//!
//! The implementation exchanges explicit messages through the runtime-
//! agnostic `runtime` node API, so leader placement and replica geography
//! determine throughput and latency exactly as in the paper's emulation —
//! in the simulator and over real sockets alike.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
pub mod cluster;
pub mod node;
pub mod pacemaker;

pub use cluster::{HotStuffConfig, HotStuffRoles};
pub use node::{HotStuffMessage, HotStuffNode};
pub use pacemaker::Pacemaker;
