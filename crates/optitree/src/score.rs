//! The tree score function (Definition 1) and tree timeout derivation (§6.3).
//!
//! `score(k, τ)` is the minimum latency for the root of tree `τ` to collect
//! votes from `k` nodes: an intermediate node `I` contributes its subtree
//! (`|Ch(I)| + 1` votes) after its *aggregation latency* — the maximum
//! latency to any of its children — plus the link back to the root. The root
//! chooses the fastest set of subtrees that covers `k − 1` votes (its own
//! vote is free), so the score is obtained by greedily taking subtrees in
//! order of their ready time.

use kauri::Tree;
use runtime::Duration;

/// Latency lookup: one-way latency in ms between two replicas from a
/// symmetric RTT matrix.
fn one_way(matrix_rtt_ms: &[f64], n: usize, a: usize, b: usize) -> f64 {
    if a == b {
        0.0
    } else {
        matrix_rtt_ms[a * n + b] / 2.0
    }
}

/// Most subtrees a root can wait on: a star's direct children or a tree's
/// intermediates. Definition 1's order statistic runs on a stack buffer this
/// long, so a star fallback covers at most this many replicas plus its root.
const MAX_SUBTREES: usize = 256;

/// Aggregation latency of an intermediate node: the maximum one-way latency
/// to any of its children (Definition 1's `L_agg`).
pub fn aggregation_latency(
    tree: &Tree,
    matrix_rtt_ms: &[f64],
    n: usize,
    intermediate: usize,
) -> f64 {
    let leaves = tree.leaves_of(intermediate).iter().copied();
    slowest_link(matrix_rtt_ms, n, intermediate, leaves)
}

/// The slowest one-way link from `from` to any replica in `to` (0 for none).
fn slowest_link(
    matrix_rtt_ms: &[f64],
    n: usize,
    from: usize,
    to: impl Iterator<Item = usize>,
) -> f64 {
    to.map(|r| one_way(matrix_rtt_ms, n, from, r))
        .fold(0.0, f64::max)
}

/// When the votes of intermediate `i`'s subtree reach the root: proposal
/// down + (forward to leaves + votes back = 2 × `agg`) + aggregate up.
fn subtree_ready(matrix_rtt_ms: &[f64], n: usize, root: usize, i: usize, agg: f64) -> f64 {
    one_way(matrix_rtt_ms, n, root, i) + 2.0 * agg + one_way(matrix_rtt_ms, n, i, root)
}

/// A star's subtrees: each direct child is one vote, one round trip away.
fn star_subtrees<'a>(
    matrix_rtt_ms: &'a [f64],
    n: usize,
    root: usize,
    children: &'a [usize],
) -> impl Iterator<Item = (f64, usize)> + 'a {
    children
        .iter()
        .map(move |&c| (2.0 * one_way(matrix_rtt_ms, n, root, c), 1))
}

/// Definition 1 over the root's subtrees, each given as `(ready, votes)`:
/// the earliest ready time by which the fastest subtrees together carry
/// `k − 1` votes (the root's own vote is free), or `f64::INFINITY` if all of
/// them fall short. Allocates nothing.
///
/// # Panics
/// Panics on more than [`MAX_SUBTREES`] subtrees or a NaN ready time.
fn earliest_quorum(k: usize, subtrees: impl Iterator<Item = (f64, usize)>) -> f64 {
    if k <= 1 {
        return 0.0;
    }
    let mut buffer = [(0.0, 0); MAX_SUBTREES];
    let mut len = 0;
    for subtree in subtrees {
        assert!(
            len < MAX_SUBTREES,
            "a root waits on at most {MAX_SUBTREES} subtrees"
        );
        buffer[len] = subtree;
        len += 1;
    }
    let subtrees = &mut buffer[..len];
    // Subtrees that tie share their ready time, so the order an unstable
    // sort leaves them in cannot change which time is returned.
    subtrees.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let needed = k - 1;
    let mut collected = 0usize;
    for &(ready, votes) in subtrees.iter() {
        collected += votes;
        if collected >= needed {
            return ready;
        }
    }
    f64::INFINITY
}

/// `score(k, τ)`: the minimum latency (in ms) for the root to collect votes
/// from `k` nodes. Returns `f64::INFINITY` if the tree cannot provide `k`
/// votes at all.
///
/// The model charges one one-way delay for the proposal to reach an
/// intermediate node, the aggregation latency for its subtree (down to the
/// leaves and back), and one one-way delay for the aggregate to return to the
/// root — matching how the paper predicts tree latency from link latencies.
/// A star's root collects individual votes: the `k − 1` fastest round trips.
pub fn tree_score(tree: &Tree, matrix_rtt_ms: &[f64], n: usize, k: usize) -> f64 {
    let root = tree.root;
    if tree.is_star() {
        let children = tree.children_of(root);
        return earliest_quorum(k, star_subtrees(matrix_rtt_ms, n, root, children));
    }
    earliest_quorum(
        k,
        tree.intermediates.iter().map(|&i| {
            let agg = aggregation_latency(tree, matrix_rtt_ms, n, i);
            let ready = subtree_ready(matrix_rtt_ms, n, root, i, agg);
            (ready, tree.leaves_of(i).len() + 1)
        }),
    )
}

/// [`tree_score`] of the tree [`Tree::from_ordering`]`(order, b)` builds,
/// read straight off the ordering without building it: `order[1..=b]` are
/// the intermediates and the leaves are dealt to them round-robin, so every
/// `b`-th leaf position belongs to one intermediate. Bit-identical to
/// building the tree and scoring it, and allocates nothing — the annealing
/// search calls it once per iteration.
///
/// `order` must be a permutation of the replicas; unlike
/// [`Tree::from_ordering`] this does not check for duplicates.
pub fn ordering_score(order: &[usize], b: usize, matrix_rtt_ms: &[f64], n: usize, k: usize) -> f64 {
    let root = order[0];
    let inner = b.min(order.len() - 1);
    if inner == 0 {
        return earliest_quorum(k, star_subtrees(matrix_rtt_ms, n, root, &order[1..]));
    }
    let (intermediates, leaves) = order[1..].split_at(inner);
    earliest_quorum(
        k,
        intermediates.iter().enumerate().map(|(j, &i)| {
            let own = leaves.iter().skip(j).step_by(inner).copied();
            let votes = own.len() + 1;
            let agg = slowest_link(matrix_rtt_ms, n, i, own);
            (subtree_ready(matrix_rtt_ms, n, root, i, agg), votes)
        }),
    )
}

/// Round duration and per-link timeouts for a tree, used to configure the
/// view and child timeouts of the Kauri/OptiTree protocol: the view timeout
/// is `δ ×` the predicted time to collect `k` votes, and the child timeout is
/// `δ ×` the slowest leaf round trip below any intermediate node.
pub fn tree_timeouts(
    tree: &Tree,
    matrix_rtt_ms: &[f64],
    n: usize,
    k: usize,
    delta: f64,
) -> (Duration, Duration) {
    let d_rnd = tree_score(tree, matrix_rtt_ms, n, k);
    let worst_child = tree
        .internal_nodes()
        .iter()
        .map(|&i| 2.0 * aggregation_latency(tree, matrix_rtt_ms, n, i))
        .fold(0.0, f64::max)
        .max(
            tree.intermediates
                .iter()
                .map(|&i| 2.0 * one_way(matrix_rtt_ms, n, tree.root, i))
                .fold(0.0, f64::max),
        );
    let view = if d_rnd.is_finite() { d_rnd } else { 5_000.0 };
    (
        Duration::from_millis_f64((view * delta).max(1.0)),
        Duration::from_millis_f64((worst_child * delta).max(1.0)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// n replicas where 0..cluster are 10 ms apart and the rest 200 ms away.
    fn matrix(n: usize, cluster: usize) -> Vec<f64> {
        let mut m = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                m[a * n + b] = if a < cluster && b < cluster {
                    10.0
                } else {
                    200.0
                };
            }
        }
        m
    }

    #[test]
    fn score_zero_for_trivial_k() {
        let tree = Tree::from_ordering(&(0..13).collect::<Vec<_>>(), 3);
        assert_eq!(tree_score(&tree, &matrix(13, 13), 13, 1), 0.0);
    }

    #[test]
    fn uniform_tree_score_is_four_hops() {
        let n = 13;
        let tree = Tree::from_ordering(&(0..n).collect::<Vec<_>>(), 3);
        let m = matrix(n, n); // all 10 ms RTT → 5 ms one-way
        let s = tree_score(&tree, &m, n, 9);
        // down 5 + (2 * agg 5 = 10) + up 5 = 20 ms
        assert_eq!(s, 20.0);
    }

    #[test]
    fn score_increases_with_k_when_subtrees_differ() {
        let n = 13;
        // Cluster of 8 fast replicas: a tree whose first subtrees are fast.
        let m = matrix(n, 8);
        let order: Vec<usize> = (0..n).collect();
        let tree = Tree::from_ordering(&order, 3);
        let low_k = tree_score(&tree, &m, n, 5);
        let high_k = tree_score(&tree, &m, n, 12);
        assert!(high_k >= low_k);
    }

    #[test]
    fn fast_internal_nodes_beat_slow_internal_nodes() {
        let n = 13;
        let m = matrix(n, 4); // replicas 0..4 fast among themselves
                              // Tree A: root + intermediates all from the fast cluster.
        let mut order_fast: Vec<usize> = vec![0, 1, 2, 3];
        order_fast.extend(4..n);
        // Tree B: root fast but intermediates from the slow set.
        let mut order_slow: Vec<usize> = vec![0, 10, 11, 12];
        order_slow.extend((1..10).collect::<Vec<_>>());
        let a = tree_score(&Tree::from_ordering(&order_fast, 3), &m, n, 9);
        let b = tree_score(&Tree::from_ordering(&order_slow, 3), &m, n, 9);
        assert!(a < b, "fast internals {a} should beat slow internals {b}");
    }

    #[test]
    fn impossible_k_is_infinite() {
        let tree = Tree::from_ordering(&[0, 1, 2, 3], 1);
        assert!(tree_score(&tree, &matrix(4, 4), 4, 10).is_infinite());
    }

    #[test]
    fn star_score_uses_kth_fastest_round_trip() {
        let n = 5;
        let mut m = vec![0.0; n * n];
        for (i, rtt) in [(1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)] {
            m[i] = rtt; // row 0
            m[i * n] = rtt; // col 0
        }
        let star = Tree::star(0, n);
        assert_eq!(tree_score(&star, &m, n, 3), 20.0);
        assert_eq!(tree_score(&star, &m, n, 5), 40.0);
    }

    #[test]
    fn timeouts_scale_with_delta() {
        let n = 13;
        let tree = Tree::from_ordering(&(0..n).collect::<Vec<_>>(), 3);
        let m = matrix(n, n);
        let (v1, c1) = tree_timeouts(&tree, &m, n, 9, 1.0);
        let (v2, c2) = tree_timeouts(&tree, &m, n, 9, 1.4);
        assert!(v2 > v1);
        assert!(c2 >= c1);
        assert_eq!(v1, Duration::from_millis(20));
    }
}
