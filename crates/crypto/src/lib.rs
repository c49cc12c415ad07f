//! # crypto — simulated cryptographic substrate
//!
//! BFT protocols rely on digital signatures, quorum certificates, and
//! transferable proofs of misbehavior. The OptiLog reproduction runs its
//! protocols in a deterministic simulator and, through `deployd`, as
//! localhost clusters whose replicas are threads of one process. Either way
//! every replica's keys come from one seeded [`Keyring`], so this crate
//! provides a *simulated* authenticator scheme that preserves the three
//! properties the protocols actually depend on:
//!
//! 1. **Unforgeability between correct parties** — a signature over a message
//!    verifies only for the keypair that produced it (keyed SHA-256; within
//!    the simulation no party knows another party's secret, so forging would
//!    require guessing a 256-bit value).
//! 2. **Transferability** — signatures, votes, and quorum certificates can be
//!    forwarded and re-verified by third parties, which is what
//!    proof-of-misbehavior requires.
//! 3. **Realistic sizes** — every artifact reports its wire size so the
//!    Fig 13 proposal-size experiment can be reproduced.
//!
//! SHA-256 is implemented from scratch in [`mod@sha256`] (FIPS 180-4) and tested
//! against the standard test vectors, keeping the crate dependency-free. It
//! has two compression kernels: a portable one, and on x86-64 one built on
//! the CPU's SHA extensions. Each hasher takes the SHA-extension kernel when
//! CPUID reports the extensions and the portable one otherwise; nothing else
//! selects it, and property tests keep the two equal.

#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
pub mod digest;
pub mod keys;
pub mod misbehavior;
pub mod quorum;
pub mod sha256;

pub use digest::{Digest, Hashable};
pub use keys::{KeyPair, Keyring, PublicKey, SecretKey, Signature, Signed};
pub use misbehavior::{Complaint, MisbehaviorKind, MisbehaviorProof};
pub use quorum::{PartialSignature, QuorumCertificate, VoteAggregate};
pub use sha256::{sha256, Sha256};
