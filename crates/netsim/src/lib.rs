//! # netsim — deterministic discrete-event network simulator
//!
//! This crate provides the network substrate used by every protocol in the
//! OptiLog reproduction. The paper evaluates OptiLog on a cluster where
//! messages are artificially delayed according to a city-to-city round-trip
//! dataset (WonderProxy, 220 locations). We reproduce that environment with a
//! deterministic discrete-event simulator:
//!
//! * [`SimTime`] — microsecond-resolution virtual time.
//! * [`Simulation`] — the event loop driving a set of [`Node`]s.
//! * [`LatencyModel`] — pluggable per-link one-way latency (uniform or a
//!   city RTT matrix).
//! * [`cities`] — a synthetic 220-city dataset calibrated to the paper's
//!   150–250 ms intercontinental RTT range, with the region subsets used in
//!   the evaluation (Europe21, NA-EU43, Stellar56, Global73).
//! * [`faults`] — network-level fault injection (crashes, per-link delay
//!   inflation, partitions, message drops).
//!
//! The simulator profiles only its own engine ([`EngineProfile`]); what a
//! run committed is recorded by the protocols (`rsm::CommitStats`) and the
//! clients (`traffic::TrafficQueue`), identically under the real runtime.
//!
//! Determinism: given the same seed and the same node implementations, a
//! simulation produces byte-identical traces. All randomness flows through a
//! seeded [`rand::rngs::StdRng`].

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
pub mod cities;
pub mod event;
pub mod faults;
pub mod latency;
pub mod sched;
pub mod sim;
pub mod time;

pub use cities::{City, CityDataset, Region};
pub use event::{Event, EventKind, EventQueue, Payload};
pub use faults::{FaultPlan, FaultWindow, LinkFault, NodeFault};
pub use latency::{LatencyModel, MatrixLatency, UniformLatency};
pub use sched::{EngineProfile, EventHandle, EventScheduler, HeapScheduler, TimerWheel};
pub use sim::{Action, Context, Node, NodeId, Simulation, SimulationConfig, TimerId};
pub use time::{Duration, SimTime};
