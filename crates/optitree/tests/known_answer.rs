//! Known answers for the OptiTree search: the tree and score a fixed seed
//! finds on the paper's deployments. Any change to the search's RNG draw
//! order, its acceptance rule or its score moves these, so a refactor that
//! claims to search the same space must leave them untouched.

use kauri::Tree;
use netsim::CityDataset;
use optilog::AnnealingParams;
use optitree::{search_tree, TreeSearchSpace};
use rsm::SystemConfig;

/// The deployment's RTT matrix with replicas placed round-robin on its
/// cities, as `lab::Deployment::rtt_matrix` places them.
fn matrix(cities: fn(&CityDataset) -> Vec<usize>, n: usize) -> Vec<f64> {
    let ds = CityDataset::worldwide();
    let at = ds.assign_round_robin(&cities(&ds), n);
    let mut m = vec![0.0; n * n];
    for a in 0..n {
        for b in 0..n {
            m[a * n + b] = ds.rtt_ms(at[a], at[b]);
        }
    }
    m
}

/// Search with `OptiTreePolicy`'s budget; `k` is the quorum plus `extra_k`.
fn search(
    n: usize,
    matrix_rtt_ms: Vec<f64>,
    candidates: Vec<usize>,
    extra_k: usize,
    seed: u64,
) -> (Tree, f64) {
    let system = SystemConfig::new(n);
    let space = TreeSearchSpace {
        n,
        branch: system.tree_branch_factor(),
        matrix_rtt_ms,
        candidates,
        k: system.quorum() + extra_k,
    };
    let params = AnnealingParams {
        iterations: 4_000,
        ..Default::default()
    };
    search_tree(&space, params, seed)
}

/// `found` is the tree rooted at `root` with `subtrees` (each intermediate
/// with its leaves, in tree order) and a score of exactly `score_bits`.
fn check<const L: usize>(
    found: (Tree, f64),
    root: usize,
    subtrees: &[(usize, [usize; L])],
    score_bits: u64,
) {
    let (tree, score) = found;
    assert_eq!(tree.root, root, "root");
    let intermediates: Vec<usize> = subtrees.iter().map(|&(i, _)| i).collect();
    assert_eq!(tree.intermediates, intermediates, "intermediates");
    for (i, leaves) in subtrees {
        assert_eq!(tree.leaves_of(*i), leaves, "leaves of {i}");
    }
    assert_eq!(
        score.to_bits(),
        score_bits,
        "score {score} (bits {:#x})",
        score.to_bits()
    );
}

#[test]
fn global73_all_candidates() {
    let found = search(
        73,
        matrix(CityDataset::global73, 73),
        (0..73).collect(),
        0,
        12,
    );
    let subtrees = [
        (0, [15, 45, 9, 40, 69, 11, 32, 28]),
        (62, [36, 26, 3, 68, 63, 17, 49, 51]),
        (12, [39, 23, 47, 56, 52, 55, 35, 7]),
        (4, [29, 42, 67, 19, 70, 71, 54, 18]),
        (5, [27, 34, 44, 53, 59, 14, 65, 33]),
        (61, [20, 64, 46, 37, 38, 25, 60, 58]),
        (8, [16, 41, 48, 30, 22, 43, 66, 21]),
        (2, [50, 24, 72, 13, 31, 57, 6, 1]),
    ];
    check(found, 10, &subtrees, 0x4066_c375_98e7_177d); // 182.108 ms
}

/// The search `sim_global_tree` runs at start: cell seed 12 mixed into its
/// policy seed. Its score is the benchmark's `optitree.tree_score_ms`.
#[test]
fn global73_benchmark_policy_seed() {
    let seed = 0x6e73_e372_e233_8aca;
    let found = search(
        73,
        matrix(CityDataset::global73, 73),
        (0..73).collect(),
        0,
        seed,
    );
    let subtrees = [
        (14, [53, 26, 41, 32, 56, 67, 50, 1]),
        (10, [54, 52, 72, 8, 25, 69, 46, 71]),
        (51, [64, 22, 47, 62, 34, 59, 42, 61]),
        (13, [55, 19, 12, 35, 20, 60, 17, 65]),
        (2, [33, 36, 70, 23, 16, 11, 68, 37]),
        (15, [31, 0, 21, 39, 27, 4, 3, 7]),
        (66, [29, 63, 58, 18, 40, 43, 49, 57]),
        (5, [38, 30, 24, 45, 44, 48, 28, 9]),
    ];
    check(found, 6, &subtrees, 0x406e_4d4a_4633_cf69); // 242.415 ms
}

/// Two replicas in three are candidates, provisioned for two faults.
#[test]
fn europe21_restricted_candidates() {
    let candidates = (0..21).filter(|r| r % 3 != 0).collect();
    let found = search(21, matrix(CityDataset::europe21, 21), candidates, 2, 12);
    let subtrees = [
        (8, [13, 19, 6, 11]),
        (10, [3, 9, 18, 14]),
        (2, [7, 4, 16, 17]),
        (20, [1, 15, 0, 12]),
    ];
    check(found, 5, &subtrees, 0x4042_3b58_1691_cdb6); // 36.464 ms
}

/// Exactly as many candidates as internal positions: no leaf is ever a
/// candidate, so every internal swap draws from an empty pool.
#[test]
fn europe21_no_candidate_leaves() {
    let found = search(
        21,
        matrix(CityDataset::europe21, 21),
        vec![1, 4, 7, 10, 13],
        2,
        12,
    );
    let subtrees = [
        (13, [9, 17, 18, 2]),
        (1, [11, 6, 5, 15]),
        (7, [8, 20, 12, 0]),
        (4, [14, 16, 19, 3]),
    ];
    check(found, 10, &subtrees, 0x4049_a500_ceae_73be); // 51.289 ms
}
