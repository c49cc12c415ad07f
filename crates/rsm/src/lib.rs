//! # rsm — generic replicated state machine substrate
//!
//! The OptiLog paper describes its framework as an extension of a *generic*
//! RSM (Fig 1): clients submit commands, a consensus engine replicates them
//! into an append-only log, and the application executes committed commands.
//! The reproduction stops at the log: replicas order and commit command
//! batches, and the harnesses measure when they commit, but no state machine
//! executes them. This crate provides the protocol-agnostic pieces shared by
//! every consensus implementation in the workspace:
//!
//! * [`Command`], [`Block`] — client commands and the batches protocols agree on.
//! * [`SealedBlock`] — a block with its digest, hashed once when sealed (or
//!   decoded) and shared with it, so recipients never re-hash a proposal.
//! * [`SystemConfig`] — `n`, `f` and quorum sizes.
//! * [`CommitStats`] — one record per committed block, from which the
//!   experiment harnesses derive throughput, the consensus-latency timeline
//!   and the [`RunSummary`]; [`latency_ms`] is the one mean/p50/p99 rule,
//!   shared with the traffic queue's client-side report.
//! * [`TrafficSpec`] — a declarative open-loop offered-load description
//!   (arrival process, client population, size-or-timeout batching, bounded
//!   queue, SLO) that the `traffic` crate compiles into the admission queue
//!   substrates pull proposals from; the same crate also serves the paper's
//!   "blocks of 1000 proposals, each without transaction payload" workload
//!   as a saturated queue.
//! * [`MisbehaviorPlan`] — scripted protocol-level misbehavior (the
//!   proposal-delay attack) that every substrate installs as a replica
//!   behaviour, its [`Withhold`], so the same adversary script drives PBFT,
//!   HotStuff, and the tree overlays through one hold path.
//! * [`Cluster`] / [`RunReport`] — the one contract between a consensus
//!   family and its runners: build the replicas, read them back into the
//!   same report shape in the simulator and over real sockets.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
pub mod block;
pub mod cluster;
pub mod config;
pub mod misbehavior;
pub mod stats;
pub mod workload;

pub use block::{Block, Command, SealedBlock};
pub use cluster::{Cluster, RunReport};
pub use config::SystemConfig;
pub use misbehavior::{DelayStage, MisbehaviorPlan, Withhold};
pub use stats::{latency_ms, per_second, timeline_mean, CommitStats, RunSummary};
pub use workload::{ArrivalProcess, BatchingPolicy, TrafficSpec};
