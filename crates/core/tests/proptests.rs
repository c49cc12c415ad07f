//! Property-based tests for OptiLog's core data structures and invariants.

use optilog::{
    CandidateSelector, LatencyMatrix, LatencyVector, SelectionStrategy, Suspicion, SuspicionGraph,
    SuspicionKind, SuspicionMonitor, SuspicionMonitorParams, TreeExclusion,
};
use proptest::prelude::*;

/// Strategy: a random undirected graph over `n` vertices as an edge list.
fn edges(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The candidate set returned by the MIS strategy is always an
    /// independent set of the suspicion graph.
    #[test]
    fn mis_candidates_are_independent(edge_list in edges(20, 60)) {
        let mut g = SuspicionGraph::new(0..20);
        for (a, b) in edge_list {
            g.add_edge(a, b);
        }
        let sel = CandidateSelector::new(SelectionStrategy::MaxIndependentSet { budget: 50_000 })
            .select(&g);
        prop_assert!(g.is_independent_set(&sel.candidates));
        prop_assert_eq!(sel.estimate_u, g.vertex_count() - sel.candidates.len());
    }

    /// Lemma 1 (C1): if suspicions only ever involve at most f distinct faulty
    /// replicas, the candidate set keeps at least n − f members.
    #[test]
    fn candidate_floor_holds_when_f_replicas_attack(
        accusations in prop::collection::vec((0usize..4, 4usize..13), 1..40)
    ) {
        // Replicas 0..4 are faulty and suspect correct replicas 4..13.
        let n = 13;
        let f = 4;
        let mut monitor = SuspicionMonitor::new(SuspicionMonitorParams::new(n, f));
        for (i, (faulty, correct)) in accusations.iter().enumerate() {
            monitor.on_suspicion(&Suspicion {
                kind: SuspicionKind::Slow,
                accuser: *faulty,
                accused: *correct,
                round: i as u64,
                phase: 1,
                accuser_is_leader: false,
            });
            monitor.on_suspicion(&Suspicion {
                kind: SuspicionKind::False,
                accuser: *correct,
                accused: *faulty,
                round: i as u64,
                phase: 1,
                accuser_is_leader: false,
            });
        }
        let sel = monitor.selection();
        prop_assert!(sel.candidates.len() >= n - f,
            "only {} candidates left", sel.candidates.len());
    }

    /// The tree-exclusion structure always produces a disjoint, maximal edge
    /// set and an estimate equal to |E_d| + |T| (§6.4).
    #[test]
    fn tree_exclusion_invariants(edge_list in edges(16, 40)) {
        let mut g = SuspicionGraph::new(0..16);
        for (a, b) in edge_list {
            g.add_edge(a, b);
        }
        let excl = TreeExclusion::compute(&g);
        // Disjoint: no vertex covered twice.
        let mut covered = std::collections::BTreeSet::new();
        for &(a, b) in &excl.disjoint_edges {
            prop_assert!(covered.insert(a));
            prop_assert!(covered.insert(b));
        }
        // Maximal: every edge touches a covered vertex.
        for (a, b) in g.edges() {
            prop_assert!(covered.contains(&a) || covered.contains(&b));
        }
        prop_assert_eq!(excl.fault_estimate(), excl.disjoint_edges.len() + excl.triangles.len());
        // Candidates and excluded partition the vertex set.
        let k = excl.candidates(&g);
        prop_assert_eq!(k.len() + excl.excluded().len(), g.vertex_count());
    }

    /// The latency matrix stays symmetric with zero diagonal no matter which
    /// vectors are applied in which order.
    #[test]
    fn latency_matrix_symmetry(
        vectors in prop::collection::vec((0usize..6, prop::collection::vec(0.0f64..500.0, 6)), 0..20)
    ) {
        let mut m = LatencyMatrix::new(6);
        for (reporter, rtts) in vectors {
            m.apply_vector(&LatencyVector::new(reporter, rtts));
        }
        for a in 0..6 {
            prop_assert_eq!(m.rtt(a, a), 0.0);
            for b in 0..6 {
                prop_assert_eq!(m.rtt(a, b), m.rtt(b, a));
            }
        }
    }

    /// Processing the same suspicion stream at two monitors yields identical
    /// candidate sets and estimates (the determinism OptiLog relies on).
    #[test]
    fn suspicion_monitor_is_deterministic(
        stream in prop::collection::vec((0usize..10, 0usize..10, 0u64..30, 1u32..4), 0..60)
    ) {
        let run = || {
            let mut m = SuspicionMonitor::new(SuspicionMonitorParams::new(10, 3));
            for (accuser, accused, round, phase) in &stream {
                m.on_suspicion(&Suspicion {
                    kind: SuspicionKind::Slow,
                    accuser: *accuser,
                    accused: *accused,
                    round: *round,
                    phase: *phase,
                    accuser_is_leader: false,
                });
            }
            m.selection().clone()
        };
        prop_assert_eq!(run(), run());
    }

    /// The monitor memoises its selection. Under any interleaving of
    /// suspicions (Slow and False), view changes (repeated and advancing),
    /// faulty-set updates and queries — including the floor enforcement
    /// that discards edges inside `selection` — what it hands out is what a
    /// selector computes from scratch on the current graph, and the
    /// revision moves whenever the answer does.
    #[test]
    fn memoised_selection_matches_the_current_graph(
        ops in prop::collection::vec((0u8..8, 0usize..7, 0usize..7, 0u64..12), 0..80)
    ) {
        let params = SuspicionMonitorParams::new(7, 2).with_window(3);
        let mut m = SuspicionMonitor::new(params);
        let selector = CandidateSelector::new(params.strategy);
        let mut view = 0;
        let mut last: Option<(u64, optilog::CandidateSelection)> = None;
        for (op, a, b, round) in ops {
            match op {
                0..=2 => m.on_suspicion(&Suspicion {
                    kind: if op == 2 { SuspicionKind::False } else { SuspicionKind::Slow },
                    accuser: a,
                    accused: b,
                    round,
                    phase: 1 + (round % 2) as u32,
                    accuser_is_leader: false,
                }),
                3 => {
                    view += 1;
                    m.on_view(view);
                }
                4 => m.on_view(view),
                5 if round == 0 => m.set_faulty([a].into_iter().collect()),
                _ => {}
            }
            let sel = m.selection().clone();
            prop_assert_eq!(&sel, &selector.select(&m.graph()));
            if let Some((revision, previous)) = &last {
                if *revision == m.revision() {
                    prop_assert_eq!(previous, &sel);
                }
            }
            last = Some((m.revision(), sel));
        }
    }
}
