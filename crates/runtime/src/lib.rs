//! # runtime — the runtime-agnostic node API
//!
//! This crate is the seam between protocol code and the world it runs in.
//! It owns the replica-facing interface every substrate in the OptiLog
//! reproduction programs against:
//!
//! * [`Node`] — the `on_start` / `on_message` / `on_timer` / `on_crash`
//!   callback contract of a protocol participant.
//! * [`Context`] — send / broadcast / multicast / set_timer / cancel_timer /
//!   now, buffered as [`Action`]s the owning runtime drains and executes.
//! * [`SimTime`] / [`Duration`] — microsecond time, virtual or wall-clock.
//! * [`wire`] — the serializable wire-message bound ([`WireMsg`]) and
//!   length-prefixed framing used when messages cross real sockets.
//! * [`RealCluster`] — the second runtime: OS thread per replica, full-mesh
//!   TCP on localhost, a monotonic wall-clock timer thread.
//!
//! It measures nothing: a replica's commits are recorded in
//! `rsm::CommitStats` and the clients' replies in `traffic::TrafficQueue`.
//!
//! The first runtime is `netsim::Simulation`, the deterministic
//! discrete-event simulator, which depends on this crate and re-exports
//! these types under its old paths. Substrate crates (pbft, hotstuff,
//! kauri, optitree) import **only** this crate — never `netsim` — so the
//! identical replica structs run in both worlds with zero `#[cfg]`-forked
//! protocol logic.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
pub mod node;
pub mod real;
pub mod time;
pub mod wire;

pub use node::{Action, Context, Node, NodeId, Payload, TimerId};
pub use real::RealCluster;
pub use time::{Duration, FaultWindow, SimTime};
pub use wire::{
    encode_frame, encode_frame_into, read_frame, read_frame_into, WireMsg, MAX_FRAME_BYTES,
};
