//! # pbft — BFT-SMaRt-style replication with Wheat weights and Aware optimisation
//!
//! This crate implements the PBFT-family substrate the paper applies OptiLog
//! to in §5: a three-phase (Propose / Write / Accept) protocol in the style
//! of BFT-SMaRt, extended with
//!
//! * **Wheat weighted voting** — some replicas carry a higher voting weight,
//!   so quorums form as soon as the *weighted* threshold is reached, letting
//!   well-placed replicas dominate latency;
//! * **probe-based latency measurement** — replicas periodically measure
//!   round-trip times and disseminate latency vectors through the ordered
//!   log (the sensor app of Fig 1);
//! * **Aware self-optimisation** — a deterministic `score(·)` that predicts
//!   a configuration's round latency from the latency matrix and picks the
//!   leader and weight assignment minimising it;
//! * a pluggable [`ReconfigPolicy`]. This crate ships BFT-SMaRt's
//!   [`StaticPolicy`]; Aware and OptiAware are one policy in the `optiaware`
//!   crate, Aware being OptiAware without its suspicion sensor, so the
//!   suspicion monitoring and attack mitigation never fork the protocol.
//!
//! A round pays for no work it does not need. The leader seals each proposal
//! with its digest ([`rsm::SealedBlock`]) and every recipient shares that
//! seal, so in the simulator a proposal is hashed once per cluster, not once
//! per replica; over a real wire each receiver re-seals as it decodes and so
//! never trusts another replica's digest. A replica derives the weighted
//! quorum threshold once per adopted configuration, so a vote sums only the
//! voters' weights.
//!
//! The protocol is written against the runtime-agnostic `runtime` node API,
//! so the same replicas run inside the discrete-event simulator or over real
//! sockets. Proposals have one source, as in every other family: the run's
//! open-loop traffic queue ([`traffic::SharedTrafficQueue`]) of geo-placed
//! clients. The leader proposes a batch when the queue has one ready and an
//! empty heartbeat block otherwise, and the queue measures the end-to-end
//! latency clients see, which is what Fig 7 plots.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
pub mod cluster;
pub mod messages;
pub mod policy;
pub mod replica;
pub mod score;
pub mod weights;

pub use cluster::{PbftConfig, PbftRoles};
pub use messages::{PbftMessage, Phase};
pub use policy::{PbftRoundRecord, ReconfigPolicy, StaticPolicy};
pub use replica::ReplicaState;
pub use score::{predict_message_delays, predict_round_latency, weighted_quorum_time};
pub use weights::{VoterSet, WeightConfig};
