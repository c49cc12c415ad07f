//! # kauri — tree-based BFT dissemination and aggregation
//!
//! Kauri \[51\] replaces HotStuff's star topology with a height-3 tree: the
//! root (leader) disseminates proposals to `b` intermediate nodes, each of
//! which forwards them to `b` leaves and aggregates their votes back towards
//! the root. The tree reduces the root's fan-out from `n − 1` to `b ≈ √n`,
//! and pipelining several consensus instances hides the extra hop's latency.
//!
//! Because a single faulty internal node can stall the whole tree, Kauri
//! reconfigures through *t-bounded conformity*: replicas are partitioned into
//! `t = n / i` disjoint bins; each candidate tree draws all of its internal
//! nodes from one bin, so if fewer than `t` replicas are faulty at least one
//! bin — and hence one tree — is fully correct. After `t` failed trees Kauri
//! falls back to a star topology.
//!
//! The [`TreePolicy`] trait abstracts how trees are chosen and when a view is
//! considered failed, so OptiTree (in the `optitree` crate) can plug in
//! latency-aware, suspicion-driven tree selection without forking the
//! protocol.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
pub mod cluster;
pub mod node;
pub mod policy;
pub mod tree;

pub use cluster::{KauriCluster, KauriConfig, KauriRoles};
pub use node::{KauriMessage, KauriNode, TreeCommand};
pub use policy::{KauriBinsPolicy, TreePolicy};
pub use tree::Tree;
