//! # optilog-suite — umbrella crate for the OptiLog reproduction
//!
//! This crate re-exports the public API of every crate in the workspace so
//! examples, integration tests, and downstream users can depend on a single
//! entry point:
//!
//! * [`runtime`] — the runtime-agnostic node API ([`runtime::Node`],
//!   [`runtime::Context`]), wire framing, and the real-clock localhost
//!   cluster runtime.
//! * [`netsim`] — deterministic discrete-event network simulator and the
//!   geographic latency dataset.
//! * [`crypto`] — simulated signatures, quorum certificates, and proofs of
//!   misbehavior.
//! * [`rsm`] — commands, blocks, the cluster contract, and run statistics.
//! * [`traffic`] — open-loop geo-distributed client load: arrival
//!   processes, the leader-side admission queue, goodput accounting.
//! * [`configlog`] — the replicated role-configuration log: epoch-monotone
//!   adoption of weight/tree configurations and suspicion-pair evidence,
//!   ordered through each substrate's own commit path.
//! * [`optilog`] — the sensor/monitor framework: latency matrix, suspicion
//!   graph, candidate selection, simulated annealing, configuration monitor.
//! * [`pbft`] — the BFT-SMaRt/Wheat/Aware substrate.
//! * [`hotstuff`] — chained HotStuff baselines.
//! * [`kauri`] — the tree-overlay substrate with pipelining and
//!   t-bounded-conformity reconfiguration.
//! * [`optiaware`] — OptiLog applied to Aware (§5).
//! * [`optitree`] — OptiLog applied to Kauri (§6).
//! * [`lab`] — declarative scenarios, adversary scripts, and the one
//!   simulation harness (`lab::harness::run`) that drives any
//!   `rsm::Cluster` through `netsim`.
//!
//! See `examples/quickstart.rs` for a first end-to-end run.

pub use configlog;
pub use crypto;
pub use hotstuff;
pub use kauri;
pub use lab;
pub use netsim;
pub use optiaware;
pub use optilog;
pub use optitree;
pub use pbft;
pub use rsm;
pub use runtime;
pub use traffic;
