//! The repo benchmark: five named workloads driven through the public entry
//! points of the workspace crates, nine gated end-to-end metrics, and a
//! traced run that reports per-layer metrics. See `README.md` beside
//! `Cargo.toml` for the tables and how to read them.

pub mod alloc;
pub mod child;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod selfcheck;
pub mod spans;
pub mod stats;
pub mod workloads;
