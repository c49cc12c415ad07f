//! System-wide parameters: replica counts, fault threshold and quorum sizes.
//! The paper's "configuration" — an assignment of roles to replicas (§2) —
//! is protocol-specific and lives with each family (Aware weights, Kauri
//! trees), adopted through the `configlog` crate.

use serde::{Deserialize, Serialize};

/// Static parameters of a replicated system: `n` replicas of which up to `f`
/// may be Byzantine, with quorums of size `q = n - f`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Total number of replicas.
    pub n: usize,
    /// Maximum number of Byzantine replicas tolerated.
    pub f: usize,
}

impl SystemConfig {
    /// Create a configuration for `n` replicas, tolerating the maximum
    /// `f = ⌊(n-1)/3⌋` faults.
    ///
    /// # Panics
    /// Panics if `n < 4` (BFT requires `n ≥ 3f + 1 ≥ 4`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 4, "BFT requires at least 4 replicas, got {n}");
        SystemConfig { n, f: (n - 1) / 3 }
    }

    /// Quorum size `q = n - f`.
    pub fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// All replica ids.
    pub fn replicas(&self) -> impl Iterator<Item = usize> {
        0..self.n
    }

    /// Branch factor used for height-3 trees, `b = (sqrt(4n-3) - 1) / 2`
    /// (§7.3). This makes `1 + b + b²` just cover `n`.
    pub fn tree_branch_factor(&self) -> usize {
        let b = (((4 * self.n - 3) as f64).sqrt() - 1.0) / 2.0;
        b.ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sizes() {
        let c = SystemConfig::new(4);
        assert_eq!(c.f, 1);
        assert_eq!(c.quorum(), 3);

        let c = SystemConfig::new(21);
        assert_eq!(c.f, 6);
        assert_eq!(c.quorum(), 15);

        let c = SystemConfig::new(73);
        assert_eq!(c.f, 24);
        assert_eq!(c.quorum(), 49);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn too_small_system_rejected() {
        SystemConfig::new(3);
    }

    #[test]
    fn branch_factor_matches_paper_formula() {
        // n=21 -> b=4 (paper §7.6: 21 replicas, branch factor 4)
        assert_eq!(SystemConfig::new(21).tree_branch_factor(), 4);
        // n=13 -> b=3 (Fig 5: 13 replicas, branch factor 3)
        assert_eq!(SystemConfig::new(13).tree_branch_factor(), 3);
        // n=73 -> b=8 (since 1+8+64 = 73)
        assert_eq!(SystemConfig::new(73).tree_branch_factor(), 8);
    }
}
