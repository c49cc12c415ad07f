//! Content digests and a hashing trait for protocol data structures.

use crate::sha256::{sha256, Sha256};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 32-byte SHA-256 digest identifying a block, proposal, or message body.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the parent of genesis blocks.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hash arbitrary bytes.
    pub fn of(data: &[u8]) -> Digest {
        Digest(sha256(data))
    }

    /// Hash the concatenation of several byte slices, each length-prefixed
    /// by [`Sha256::update_prefixed`].
    pub fn of_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update_prefixed(p);
        }
        Digest(h.finalize())
    }

    /// First 4 bytes as an 8-digit hex string (for logs and debugging).
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short())
    }
}

/// Types that can be hashed into a [`Digest`] for signing.
///
/// Implementors should feed every field that determines the message's
/// semantics into the hasher; two messages with equal digests are treated as
/// identical by equivocation detection.
pub trait Hashable {
    /// Compute the content digest.
    fn digest(&self) -> Digest;
}

impl Hashable for Vec<u8> {
    fn digest(&self) -> Digest {
        Digest::of(self)
    }
}

impl Hashable for &[u8] {
    fn digest(&self) -> Digest {
        Digest::of(self)
    }
}

impl Hashable for Digest {
    fn digest(&self) -> Digest {
        *self
    }
}

impl Hashable for String {
    fn digest(&self) -> Digest {
        Digest::of(self.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_parts_is_length_prefixed() {
        let a = Digest::of_parts(&[b"ab", b"c"]);
        let b = Digest::of_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn of_matches_sha256() {
        assert_eq!(Digest::of(b"abc").0, sha256(b"abc"));
    }

    #[test]
    fn zero_digest_is_all_zero() {
        assert!(Digest::ZERO.0.iter().all(|&b| b == 0));
    }

    #[test]
    fn short_and_display() {
        let d = Digest::of(b"abc");
        assert_eq!(d.short().len(), 8);
        assert_eq!(format!("{d}"), d.short());
        assert!(format!("{d:?}").starts_with("Digest("));
    }

    #[test]
    fn hashable_impls_agree() {
        let v: Vec<u8> = b"hello".to_vec();
        let s: &[u8] = b"hello";
        assert_eq!(v.digest(), s.digest());
        assert_eq!("hello".to_string().digest(), Digest::of(b"hello"));
        let d = Digest::of(b"x");
        assert_eq!(d.digest(), d);
    }
}
