//! # traffic — the one proposal source of every substrate
//!
//! Every substrate proposes from a [`SharedTrafficQueue`]: the paper's
//! saturated batches of empty commands ([`SharedTrafficQueue::saturated`],
//! §7.3), or an open-loop, geo-distributed client load, so experiments can
//! also ask throughput–latency questions (where is the saturation knee?
//! what happens to goodput under attack?). Only this crate tells the two
//! apart:
//!
//! * [`ArrivalSampler`] — deterministic per-seed sampling of the open-loop
//!   arrival processes declared by [`rsm::ArrivalProcess`] (Poisson and
//!   on/off bursty), via exponential inter-arrivals.
//! * [`placement::place_clients`] — client populations placed on
//!   [`netsim::CityDataset`] cities, so every request pays a realistic
//!   one-way latency to its nearest replica before it can be batched (and
//!   the reply pays it back). When the proposer is *not* the ingress
//!   replica, the [`ForwardingModel`] charges the extra ingress→leader hop
//!   explicitly, so far leaders are not silently under-charged.
//! * [`TrafficQueue`] — the leader-side admission queue: bounded
//!   (backpressure rejects arrivals beyond capacity) with size-or-timeout
//!   batching ([`rsm::BatchingPolicy`]), handed to substrates as a
//!   [`SharedTrafficQueue`] they pull [`TrafficBatch`]es from. It draws its
//!   arrival schedule on demand, so its memory is bounded by capacity,
//!   in-flight batches and the arrivals sent within one ingress spread, not
//!   by rate × duration.
//! * [`WakeTimer`] — the parking contract: a proposer that finds the queue
//!   dry arms a wake-up for [`TrafficQueue::next_ready_at`], and however
//!   often it is asked to propose in the meantime it holds **at most one
//!   armed wake-up** (see [`wake`]). The HotStuff leader and the Kauri root
//!   both park through it.
//! * [`TrafficReport`] — offered/committed/goodput accounting with
//!   end-to-end latency percentiles and timelines, where *goodput* counts
//!   only commands whose client-observed latency met the
//!   [`rsm::TrafficSpec`] SLO deadline.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
pub mod placement;
pub mod queue;
pub mod sampler;
pub mod wake;

pub use placement::{client_ingress_ms, place_clients, ClientPlacement};
pub use queue::{
    ForwardingModel, ScheduledArrival, SharedTrafficQueue, TrafficBatch, TrafficQueue,
    TrafficReport,
};
pub use sampler::ArrivalSampler;
pub use wake::WakeTimer;
