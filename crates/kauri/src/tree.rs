//! Height-3 dissemination/aggregation trees.
//!
//! A [`Tree`] assigns every replica one of three roles: root, intermediate
//! node, or leaf attached to a specific intermediate (Fig 5). Trees are built
//! from an ordering of replicas — the first becomes the root, the next `b`
//! become intermediates, and the remaining replicas are distributed over the
//! intermediates as leaves — or degenerate into a star (root with `n − 1`
//! direct children) for Kauri's fallback.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A height-3 tree (or a star) over replica ids.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tree {
    /// The root (leader) replica.
    pub root: usize,
    /// Intermediate nodes in order.
    pub intermediates: Vec<usize>,
    /// Children of each internal node (the root's entry holds its direct
    /// leaf children in the star case; intermediates hold their leaves).
    pub children: BTreeMap<usize, Vec<usize>>,
}

impl Tree {
    /// Build a tree from an ordering: `order[0]` is the root, the next `b`
    /// replicas are intermediates, the rest are leaves spread round-robin.
    ///
    /// # Panics
    /// Panics if the ordering is empty or contains duplicates.
    pub fn from_ordering(order: &[usize], b: usize) -> Tree {
        assert!(!order.is_empty(), "ordering must not be empty");
        let mut seen = order.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), order.len(), "ordering contains duplicates");

        let root = order[0];
        let inner_count = b.min(order.len().saturating_sub(1));
        let intermediates: Vec<usize> = order[1..1 + inner_count].to_vec();
        let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &i in &intermediates {
            children.insert(i, Vec::new());
        }
        if intermediates.is_empty() {
            children.insert(root, Vec::new());
        }
        for (idx, &leaf) in order[1 + inner_count..].iter().enumerate() {
            if intermediates.is_empty() {
                children.get_mut(&root).expect("root entry").push(leaf);
            } else {
                let parent = intermediates[idx % intermediates.len()];
                children
                    .get_mut(&parent)
                    .expect("intermediate entry")
                    .push(leaf);
            }
        }
        Tree {
            root,
            intermediates,
            children,
        }
    }

    /// A star: the root is directly connected to every other replica
    /// (Kauri's fallback topology, equivalent to HotStuff's layout).
    pub fn star(root: usize, n: usize) -> Tree {
        let mut children = BTreeMap::new();
        children.insert(root, (0..n).filter(|&r| r != root).collect());
        Tree {
            root,
            intermediates: Vec::new(),
            children,
        }
    }

    /// A uniformly random tree over `n` replicas with branch factor `b`.
    pub fn random(n: usize, b: usize, seed: u64) -> Tree {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        Tree::from_ordering(&order, b)
    }

    /// True if the tree degenerated into a star.
    pub fn is_star(&self) -> bool {
        self.intermediates.is_empty()
    }

    /// All internal nodes: the root plus the intermediates.
    pub fn internal_nodes(&self) -> Vec<usize> {
        let mut v = vec![self.root];
        v.extend(&self.intermediates);
        v
    }

    /// The parent of a replica, if it has one.
    pub fn parent(&self, replica: usize) -> Option<usize> {
        if replica == self.root {
            return None;
        }
        if self.intermediates.contains(&replica) {
            return Some(self.root);
        }
        for (&parent, kids) in &self.children {
            if kids.contains(&replica) {
                return Some(parent);
            }
        }
        None
    }

    /// The children of an internal node (empty for leaves).
    pub fn children_of(&self, replica: usize) -> &[usize] {
        if replica == self.root && !self.is_star() {
            return &self.intermediates;
        }
        self.leaves_of(replica)
    }

    /// Total number of replicas covered by the tree.
    pub fn size(&self) -> usize {
        1 + self.intermediates.len() + self.children.values().map(|v| v.len()).sum::<usize>()
    }

    /// The leaf children of a given intermediate node.
    pub fn leaves_of(&self, intermediate: usize) -> &[usize] {
        self.children
            .get(&intermediate)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// Partition `n` replicas into `t = ⌊n / i⌋` disjoint bins of `i = b + 1`
/// internal-node slots each — Kauri's t-bounded-conformity construction. The
/// `k`-th candidate tree uses bin `k` as its internal nodes (root first) and
/// all remaining replicas as leaves.
pub fn conformity_bins(n: usize, b: usize) -> Vec<Vec<usize>> {
    let i = b + 1;
    let t = n / i;
    (0..t).map(|k| ((k * i)..(k * i + i)).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ordering_builds_paper_figure_shape() {
        // Fig 5: n = 13, b = 3 → root, 3 intermediates, 9 leaves (3 each).
        let order: Vec<usize> = (0..13).collect();
        let t = Tree::from_ordering(&order, 3);
        assert_eq!(t.root, 0);
        assert_eq!(t.intermediates, vec![1, 2, 3]);
        for &i in &t.intermediates {
            assert_eq!(t.leaves_of(i).len(), 3);
        }
        assert_eq!(t.size(), 13);
        assert_eq!(t.parent(5), Some(t.intermediates[1])); // (5 - 4) % 3
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(0), None);
        assert_eq!(t.children_of(0), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "duplicates")]
    fn duplicate_ordering_rejected() {
        Tree::from_ordering(&[0, 1, 1, 2], 2);
    }

    #[test]
    fn star_tree_has_no_intermediates() {
        let s = Tree::star(2, 5);
        assert!(s.is_star());
        assert_eq!(s.children_of(2), vec![0, 1, 3, 4]);
        assert_eq!(s.internal_nodes(), vec![2]);
        assert_eq!(s.size(), 5);
        assert_eq!(s.parent(4), Some(2));
    }

    #[test]
    fn random_trees_cover_all_replicas_and_vary_with_seed() {
        let a = Tree::random(21, 4, 1);
        let b = Tree::random(21, 4, 2);
        assert_eq!(a.size(), 21);
        assert_eq!(b.size(), 21);
        assert_ne!(a, b, "different seeds should give different trees");
        assert_eq!(a.intermediates.len(), 4);
    }

    #[test]
    fn conformity_bins_are_disjoint_and_cover_internals() {
        let n = 21;
        let b = 4;
        let bins = conformity_bins(n, b);
        assert_eq!(bins.len(), n / (b + 1));
        let mut all: Vec<usize> = bins.iter().flatten().copied().collect();
        let len_before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len_before, "bins are disjoint");
        assert_eq!(all, (0..bins.len() * (b + 1)).collect::<Vec<_>>());
    }

    #[test]
    fn conformity_guarantees_a_correct_tree_under_f_less_than_t() {
        // If fewer than t replicas are faulty, at least one bin is fault-free.
        let n = 21;
        let b = 4;
        let bins = conformity_bins(n, b);
        let t = bins.len();
        let faulty: Vec<usize> = (0..t - 1).map(|k| k * (b + 1)).collect(); // one per bin except the last
        let fault_free = bins
            .iter()
            .filter(|bin| bin.iter().all(|r| !faulty.contains(r)))
            .count();
        assert!(fault_free >= 1);
    }
}
