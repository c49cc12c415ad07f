//! The suspicion graph `G` and the candidate-selection algorithms that run
//! on it.
//!
//! `G = (V, E)` is an undirected graph whose vertices are the replicas that
//! are neither provably faulty (`F`) nor considered crashed (`C`), and whose
//! edges are two-way suspicions (§4.2.3). Two selection algorithms are
//! implemented:
//!
//! * **Maximum independent set** (OptiLog default): computed with a
//!   Bron-Kerbosch maximum-clique search on the complement graph — the same
//!   approach the paper benchmarks in Fig 8 — with a work budget that turns
//!   the search into a heuristic on adversarially large graphs.
//! * **Disjoint-edge / triangle exclusion** (OptiTree, §6.4): maintain a
//!   maximal set of disjoint edges `E_d` and the triangle set `T`; exclude
//!   both endpoints of every `E_d` edge and every `T` vertex, giving a
//!   smaller candidate set but a ≤2f reconfiguration bound.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// An undirected graph over replica ids with deterministic iteration order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuspicionGraph {
    vertices: BTreeSet<usize>,
    adjacency: BTreeMap<usize, BTreeSet<usize>>,
}

impl SuspicionGraph {
    /// Create a graph over the given vertex set with no edges.
    pub fn new(vertices: impl IntoIterator<Item = usize>) -> Self {
        let vertices: BTreeSet<usize> = vertices.into_iter().collect();
        SuspicionGraph {
            vertices,
            adjacency: BTreeMap::new(),
        }
    }

    /// The vertex set.
    pub fn vertices(&self) -> &BTreeSet<usize> {
        &self.vertices
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.values().map(|s| s.len()).sum::<usize>() / 2
    }

    /// All edges as normalized `(min, max)` pairs, sorted.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (&a, nbrs) in &self.adjacency {
            for &b in nbrs {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Add an undirected edge. Both endpoints are added to the vertex set if
    /// missing. Self-loops are ignored.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        self.vertices.insert(a);
        self.vertices.insert(b);
        self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
    }

    /// True if the edge `(a, b)` exists.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adjacency
            .get(&a)
            .map(|s| s.contains(&b))
            .unwrap_or(false)
    }

    /// Neighbours of a vertex.
    pub fn neighbors(&self, v: usize) -> BTreeSet<usize> {
        self.adjacency
            .get(&v)
            .cloned()
            .unwrap_or_default()
            .intersection(&self.vertices)
            .copied()
            .collect()
    }

    /// Degree of a vertex.
    pub fn degree(&self, v: usize) -> usize {
        self.neighbors(v).len()
    }

    /// An independent set is a set of vertices with no edge between any pair.
    pub fn is_independent_set(&self, set: &BTreeSet<usize>) -> bool {
        for &a in set {
            for &b in set {
                if a < b && self.has_edge(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum independent set via Bron-Kerbosch with pivoting on the
    /// complement graph (max clique of the complement = MIS of the graph).
    ///
    /// The search is bounded by `budget` recursive expansions; when the
    /// budget is exhausted the best set found so far is returned, making the
    /// algorithm a heuristic on pathological inputs — this mirrors the
    /// "heuristic variant of the Bron-Kerbosch algorithm" used in §7.2. The
    /// result is deterministic for a given graph.
    pub fn maximum_independent_set(&self, budget: usize) -> BTreeSet<usize> {
        // Isolated vertices (no suspicions) are always in the MIS; run the
        // expensive search only on the subgraph touched by edges.
        let mut best: BTreeSet<usize> = self
            .vertices
            .iter()
            .copied()
            .filter(|&v| self.degree(v) == 0)
            .collect();
        let active: BTreeSet<usize> = self
            .vertices
            .iter()
            .copied()
            .filter(|&v| self.degree(v) > 0)
            .collect();
        if active.is_empty() {
            return best;
        }

        // Complement adjacency restricted to active vertices.
        let comp: BTreeMap<usize, BTreeSet<usize>> = active
            .iter()
            .map(|&v| {
                let nbrs = self.neighbors(v);
                let comp_nbrs: BTreeSet<usize> = active
                    .iter()
                    .copied()
                    .filter(|&u| u != v && !nbrs.contains(&u))
                    .collect();
                (v, comp_nbrs)
            })
            .collect();

        let mut best_clique: BTreeSet<usize> = BTreeSet::new();
        let mut budget_left = budget;
        bron_kerbosch(
            &comp,
            &mut BTreeSet::new(),
            active.clone(),
            BTreeSet::new(),
            &mut best_clique,
            &mut budget_left,
        );
        best.extend(best_clique);
        best
    }

    /// Vertices that form a triangle with the edge `(a, b)`.
    pub fn triangle_vertices(&self, a: usize, b: usize) -> BTreeSet<usize> {
        self.neighbors(a)
            .intersection(&self.neighbors(b))
            .copied()
            .collect()
    }
}

/// Bron-Kerbosch with pivoting, tracking the largest clique found.
fn bron_kerbosch(
    adj: &BTreeMap<usize, BTreeSet<usize>>,
    r: &mut BTreeSet<usize>,
    mut p: BTreeSet<usize>,
    mut x: BTreeSet<usize>,
    best: &mut BTreeSet<usize>,
    budget: &mut usize,
) {
    if *budget == 0 {
        return;
    }
    *budget -= 1;
    if p.is_empty() && x.is_empty() {
        if r.len() > best.len() {
            *best = r.clone();
        }
        return;
    }
    // Prune: even taking all of P cannot beat the current best.
    if r.len() + p.len() <= best.len() {
        return;
    }
    // Pivot: vertex in P ∪ X with most neighbours in P.
    let pivot = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| (adj[&u].intersection(&p).count(), usize::MAX - u))
        .expect("P ∪ X non-empty");
    let candidates: Vec<usize> = p.difference(&adj[&pivot]).copied().collect();
    for v in candidates {
        r.insert(v);
        let nv = &adj[&v];
        let p_next: BTreeSet<usize> = p.intersection(nv).copied().collect();
        let x_next: BTreeSet<usize> = x.intersection(nv).copied().collect();
        bron_kerbosch(adj, r, p_next, x_next, best, budget);
        r.remove(&v);
        p.remove(&v);
        x.insert(v);
    }
}

/// The OptiTree exclusion structure of §6.4: a maximal set of disjoint edges
/// `E_d` and the triangle vertex set `T` derived from the suspicion graph.
///
/// Invariants maintained:
/// * edges in `E_d` are pairwise vertex-disjoint;
/// * `E_d` is maximal: every edge of `G` shares a vertex with some `E_d` edge;
/// * `T` contains vertices not covered by `E_d` that form a triangle with an
///   `E_d` edge.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeExclusion {
    /// The maximal disjoint edge set `E_d`, normalized `(min, max)` pairs.
    pub disjoint_edges: BTreeSet<(usize, usize)>,
    /// The triangle set `T`.
    pub triangles: BTreeSet<usize>,
}

impl TreeExclusion {
    /// Recompute `E_d` and `T` from scratch for a graph. Deterministic:
    /// edges are considered in sorted order, which yields the same result at
    /// every replica. The cost is O(e²) as stated in the paper.
    pub fn compute(graph: &SuspicionGraph) -> Self {
        let mut covered: BTreeSet<usize> = BTreeSet::new();
        let mut disjoint_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (a, b) in graph.edges() {
            if !covered.contains(&a) && !covered.contains(&b) {
                disjoint_edges.insert((a, b));
                covered.insert(a);
                covered.insert(b);
            }
        }
        // T: vertices not covered by E_d that close a triangle with an E_d edge.
        let mut triangles: BTreeSet<usize> = BTreeSet::new();
        for &(a, b) in &disjoint_edges {
            for v in graph.triangle_vertices(a, b) {
                if !covered.contains(&v) {
                    triangles.insert(v);
                }
            }
        }
        TreeExclusion {
            disjoint_edges,
            triangles,
        }
    }

    /// Vertices excluded from the candidate set: endpoints of `E_d` edges and
    /// members of `T`.
    pub fn excluded(&self) -> BTreeSet<usize> {
        let mut out: BTreeSet<usize> = self
            .disjoint_edges
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .collect();
        out.extend(self.triangles.iter().copied());
        out
    }

    /// The estimate of misbehaving replicas `u = |E_d| + |T|` (§6.4).
    pub fn fault_estimate(&self) -> usize {
        self.disjoint_edges.len() + self.triangles.len()
    }

    /// The candidate set: vertices of the graph not excluded.
    pub fn candidates(&self, graph: &SuspicionGraph) -> BTreeSet<usize> {
        let excluded = self.excluded();
        graph
            .vertices()
            .iter()
            .copied()
            .filter(|v| !excluded.contains(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with_edges(n: usize, edges: &[(usize, usize)]) -> SuspicionGraph {
        let mut g = SuspicionGraph::new(0..n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn edge_bookkeeping() {
        let g = graph_with_edges(5, &[(0, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.edges(), vec![(0, 1), (1, 2)]);
        assert_eq!(g.vertex_count(), 5);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = SuspicionGraph::new(0..3);
        g.add_edge(1, 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn mis_of_empty_graph_is_all_vertices() {
        let g = graph_with_edges(6, &[]);
        let mis = g.maximum_independent_set(10_000);
        assert_eq!(mis.len(), 6);
    }

    #[test]
    fn mis_of_single_edge_excludes_one_endpoint() {
        let g = graph_with_edges(4, &[(0, 1)]);
        let mis = g.maximum_independent_set(10_000);
        assert_eq!(mis.len(), 3);
        assert!(g.is_independent_set(&mis));
    }

    #[test]
    fn mis_of_triangle_is_one_plus_isolated() {
        let g = graph_with_edges(5, &[(0, 1), (1, 2), (0, 2)]);
        let mis = g.maximum_independent_set(10_000);
        // vertices 3,4 isolated + exactly one of {0,1,2}
        assert_eq!(mis.len(), 3);
        assert!(g.is_independent_set(&mis));
    }

    #[test]
    fn mis_of_path_graph() {
        // Path 0-1-2-3-4: MIS = {0,2,4}
        let g = graph_with_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mis = g.maximum_independent_set(10_000);
        assert_eq!(mis.len(), 3);
        assert!(g.is_independent_set(&mis));
    }

    #[test]
    fn mis_is_deterministic() {
        let g = graph_with_edges(10, &[(0, 1), (2, 3), (4, 5), (1, 2), (5, 6), (7, 8)]);
        assert_eq!(
            g.maximum_independent_set(10_000),
            g.maximum_independent_set(10_000)
        );
    }

    #[test]
    fn budget_exhaustion_still_returns_independent_set() {
        // Dense-ish random-like graph; tiny budget forces the heuristic path.
        let edges: Vec<(usize, usize)> = (0..20)
            .flat_map(|a| {
                ((a + 1)..20)
                    .filter(move |b| (a * 7 + b) % 3 == 0)
                    .map(move |b| (a, b))
            })
            .collect();
        let g = graph_with_edges(20, &edges);
        let mis = g.maximum_independent_set(5);
        assert!(g.is_independent_set(&mis));
    }

    #[test]
    fn tree_exclusion_paper_example() {
        // Fig 6: E_d = {(S1,S4),(S2,S3)}, T = {At}, one-way suspicion Bc
        // handled outside the graph (crash set). Encode: S1=0,S2=1,S3=2,S4=3,
        // At=4, N1=5, N2=6, N3=7, R=8.
        // Two-way suspicions: (S1,S4), (S2,S3), (S1,S2)(extra edge), (At,S1),(At,S4) triangle.
        let mut g = SuspicionGraph::new(0..9);
        g.add_edge(0, 3); // S1-S4
        g.add_edge(1, 2); // S2-S3
        g.add_edge(0, 1); // S1-S2 (shares vertices with both E_d edges)
        g.add_edge(4, 0); // At-S1
        g.add_edge(4, 3); // At-S4 -> At forms triangle with (S1,S4)
        let excl = TreeExclusion::compute(&g);
        // E_d is a maximal set of disjoint edges covering the suspected
        // replicas; the exact choice depends on tie-breaking, but it must
        // have exactly two edges here and only involve S1..S4 and At.
        assert_eq!(excl.disjoint_edges.len(), 2);
        for &(a, b) in &excl.disjoint_edges {
            assert!(a <= 4 && b <= 4);
        }
        // Between 2 and 3 replicas are estimated faulty (2 disjoint edges,
        // plus At if it closes a triangle with the chosen E_d).
        assert!((2..=3).contains(&excl.fault_estimate()));
        // The unsuspected replicas N1..N3 and R always remain candidates.
        let k = excl.candidates(&g);
        for r in [5, 6, 7, 8] {
            assert!(k.contains(&r), "replica {r} must be a candidate");
        }
        // And every excluded replica is one of the suspected ones.
        for e in excl.excluded() {
            assert!(e <= 4);
        }
    }

    #[test]
    fn tree_exclusion_disjointness_and_maximality() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (0, 7)];
        let g = graph_with_edges(10, &edges);
        let excl = TreeExclusion::compute(&g);
        // Disjointness: no vertex appears twice.
        let mut seen = BTreeSet::new();
        for &(a, b) in &excl.disjoint_edges {
            assert!(seen.insert(a));
            assert!(seen.insert(b));
        }
        // Maximality: every graph edge touches a covered vertex.
        let covered: BTreeSet<usize> = excl
            .disjoint_edges
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .collect();
        for (a, b) in g.edges() {
            assert!(covered.contains(&a) || covered.contains(&b));
        }
    }

    #[test]
    fn tree_exclusion_fault_estimate_bounds() {
        // A star of suspicions around one faulty vertex: E_d has one edge,
        // u = 1, and only two vertices are excluded.
        let g = graph_with_edges(8, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let excl = TreeExclusion::compute(&g);
        assert_eq!(excl.disjoint_edges.len(), 1);
        assert_eq!(excl.fault_estimate(), 1);
        assert_eq!(excl.candidates(&g).len(), 6);
    }

    #[test]
    fn triangle_vertices_found() {
        let g = graph_with_edges(5, &[(0, 1), (1, 2), (0, 2), (0, 3)]);
        assert_eq!(g.triangle_vertices(0, 1), [2].into_iter().collect());
        assert!(g.triangle_vertices(0, 3).is_empty());
    }
}
