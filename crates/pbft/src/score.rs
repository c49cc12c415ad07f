//! Aware's deterministic latency prediction (`score(·)`).
//!
//! Given the shared latency matrix, Aware predicts the end-to-end duration of
//! one consensus round for a candidate configuration (leader + weights) by
//! simulating the message pattern analytically: the Propose reaches each
//! replica after one one-way delay, Write messages after two, Accepts form at
//! each replica once a weighted quorum of Writes arrived, and the round ends
//! when the leader holds a weighted quorum of Accepts. The same machinery
//! also yields the per-message delays `d_m` that OptiAware's SuspicionSensor
//! needs (TR1–TR3 of Appendix C).

use crate::weights::WeightConfig;

/// One-way latency lookup from a symmetric RTT matrix in milliseconds.
fn one_way(matrix: &[f64], n: usize, a: usize, b: usize) -> f64 {
    if a == b {
        0.0
    } else {
        matrix[a * n + b] / 2.0
    }
}

/// Time at which a weighted quorum of values (weight, arrival-time) is
/// complete: sort by arrival and accumulate weight until the threshold is
/// reached. Returns `f64::INFINITY` if the threshold is unreachable.
pub fn weighted_quorum_time(arrivals: &mut [(u32, f64)], threshold: u32) -> f64 {
    arrivals.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times sort"));
    let mut acc = 0u32;
    for &(w, t) in arrivals.iter() {
        acc += w;
        if acc >= threshold {
            return t;
        }
    }
    f64::INFINITY
}

/// Predict the duration of one consensus round (from the leader timestamping
/// the Propose until the leader holds a weighted quorum of Accepts), in
/// milliseconds. `exclude` lists replicas assumed not to respond (e.g. the
/// SuspicionMonitor's estimate of misbehaving replicas is applied by the
/// caller by passing the suspected set).
pub fn predict_round_latency(
    matrix: &[f64],
    n: usize,
    f: usize,
    config: &WeightConfig,
    exclude: &[usize],
) -> f64 {
    round_latency(matrix, n, f, config, exclude, &mut Vec::with_capacity(n))
}

/// [`predict_round_latency`] on a caller-owned arrival buffer: every quorum
/// of the round (one Write quorum per replica, then the Accept quorum) is
/// sorted in `arrivals`, so a search over many configurations allocates it
/// once instead of `n + 1` times per configuration.
fn round_latency(
    matrix: &[f64],
    n: usize,
    f: usize,
    config: &WeightConfig,
    exclude: &[usize],
    arrivals: &mut Vec<(u32, f64)>,
) -> f64 {
    let leader = config.leader;
    let threshold = config.quorum_threshold(f);
    let responds = |r: usize| !exclude.contains(&r);

    // Propose arrival at each replica.
    let propose_at: Vec<f64> = (0..n).map(|r| one_way(matrix, n, leader, r)).collect();

    // Write phase: replica r broadcasts after receiving the Propose; replica
    // j holds a weighted Write quorum at write_q[j].
    let mut write_q = vec![f64::INFINITY; n];
    for (j, slot) in write_q.iter_mut().enumerate() {
        if !responds(j) {
            continue;
        }
        arrivals.clear();
        arrivals.extend(
            (0..n)
                .filter(|&r| responds(r))
                .map(|r| (config.weight(r), propose_at[r] + one_way(matrix, n, r, j))),
        );
        *slot = weighted_quorum_time(arrivals, threshold);
    }

    // Accept phase: replica r sends Accept once its Write quorum formed; the
    // round ends when the leader holds a weighted Accept quorum.
    arrivals.clear();
    arrivals.extend(
        (0..n)
            .filter(|&r| responds(r))
            .map(|r| (config.weight(r), write_q[r] + one_way(matrix, n, r, leader))),
    );
    weighted_quorum_time(arrivals, threshold)
}

/// Per-message expected delays `d_m` relative to the proposal timestamp for
/// the messages a given `recipient` expects in one round, as
/// `(sender, phase, delay_ms)` triples. Phases: 1 = Propose, 2 = Write,
/// 3 = Accept. These satisfy TR1/TR2: each delay is the delay of the enabling
/// message plus the link latency of the final hop.
pub fn predict_message_delays(
    matrix: &[f64],
    n: usize,
    f: usize,
    config: &WeightConfig,
    recipient: usize,
) -> Vec<(usize, u32, f64)> {
    let leader = config.leader;
    let threshold = config.quorum_threshold(f);
    let mut out = Vec::new();

    let propose_at: Vec<f64> = (0..n).map(|r| one_way(matrix, n, leader, r)).collect();
    // Propose to this recipient (TR1).
    if recipient != leader {
        out.push((leader, 1, propose_at[recipient]));
    }
    // Writes from every other replica (TR2 with m' = Propose).
    for (r, &proposed) in propose_at.iter().enumerate() {
        if r != recipient {
            out.push((r, 2, proposed + one_way(matrix, n, r, recipient)));
        }
    }
    // Accepts from every other replica (TR2 with m' = slowest Write in the
    // fastest weighted quorum at the sender).
    for r in 0..n {
        if r == recipient {
            continue;
        }
        let mut arrivals: Vec<(u32, f64)> = (0..n)
            .map(|s| (config.weight(s), propose_at[s] + one_way(matrix, n, s, r)))
            .collect();
        let write_quorum_at = weighted_quorum_time(&mut arrivals, threshold);
        out.push((r, 3, write_quorum_at + one_way(matrix, n, r, recipient)));
    }
    out
}

/// Search all (leader, V_max holder) assignments exhaustively for small `n`,
/// or greedily for large `n`: Aware's deterministic optimisation step.
/// Returns the best configuration found and its predicted latency.
pub fn optimize_configuration(
    matrix: &[f64],
    n: usize,
    f: usize,
    candidates: &[usize],
    exclude: &[usize],
    epoch: u64,
) -> (WeightConfig, f64) {
    let vmax_count = 2 * f;
    let mut best: Option<(WeightConfig, f64)> = None;
    let mut arrivals = Vec::with_capacity(n);

    for &leader in candidates {
        // Greedy V_max assignment for this leader: give high weights to the
        // candidates closest to the leader (by RTT), which is the heuristic
        // Aware's exhaustive search converges to in well-behaved settings.
        let mut others: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&r| r != leader)
            .collect();
        others.sort_by(|&a, &b| {
            matrix[leader * n + a]
                .partial_cmp(&matrix[leader * n + b])
                .expect("finite RTTs")
                .then(a.cmp(&b))
        });
        let mut holders = vec![leader];
        holders.extend(others.iter().copied().take(vmax_count.saturating_sub(1)));
        let config = WeightConfig::with_assignment(n, leader, &holders, epoch);
        let score = round_latency(matrix, n, f, &config, exclude, &mut arrivals);
        match &best {
            Some((_, s)) if *s <= score => {}
            _ => best = Some((config, score)),
        }
    }
    best.expect("at least one candidate leader")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-replica matrix where replicas {0,1,2} form a fast cluster and 3 is far.
    fn clustered_matrix() -> (Vec<f64>, usize) {
        let n = 4;
        let mut m = vec![0.0; n * n];
        let set = |m: &mut Vec<f64>, a: usize, b: usize, v: f64| {
            m[a * n + b] = v;
            m[b * n + a] = v;
        };
        set(&mut m, 0, 1, 10.0);
        set(&mut m, 0, 2, 10.0);
        set(&mut m, 1, 2, 10.0);
        set(&mut m, 0, 3, 200.0);
        set(&mut m, 1, 3, 200.0);
        set(&mut m, 2, 3, 200.0);
        (m, n)
    }

    #[test]
    fn weighted_quorum_time_accumulates_in_order() {
        let mut arrivals = vec![(1, 30.0), (2, 10.0), (1, 20.0)];
        // threshold 3: 10ms (w2) + 20ms (w1) = 3 → 20ms
        assert_eq!(weighted_quorum_time(&mut arrivals.clone(), 3), 20.0);
        assert_eq!(weighted_quorum_time(&mut arrivals.clone(), 4), 30.0);
        assert!(weighted_quorum_time(&mut arrivals, 10).is_infinite());
    }

    #[test]
    fn round_latency_prefers_cluster_leader() {
        let (m, n) = clustered_matrix();
        let f = 1;
        // Leader in the fast cluster with V_max in the cluster.
        let fast = WeightConfig::with_assignment(n, 0, &[0, 1], 1);
        // Leader at the remote replica.
        let slow = WeightConfig::with_assignment(n, 3, &[3, 0], 1);
        let fast_score = predict_round_latency(&m, n, f, &fast, &[]);
        let slow_score = predict_round_latency(&m, n, f, &slow, &[]);
        assert!(fast_score < slow_score);
        assert!(fast_score > 0.0);
    }

    #[test]
    fn excluding_a_fast_replica_increases_latency() {
        let (m, n) = clustered_matrix();
        let f = 1;
        let config = WeightConfig::with_assignment(n, 0, &[0, 1], 1);
        let base = predict_round_latency(&m, n, f, &config, &[]);
        let degraded = predict_round_latency(&m, n, f, &config, &[1]);
        assert!(degraded >= base);
    }

    #[test]
    fn optimizer_picks_cluster_configuration() {
        let (m, n) = clustered_matrix();
        let all: Vec<usize> = (0..n).collect();
        let (config, score) = optimize_configuration(&m, n, 1, &all, &[], 1);
        assert!(
            [0, 1, 2].contains(&config.leader),
            "leader should be in the cluster"
        );
        assert!(config.vmax_holders().iter().all(|r| [0, 1, 2].contains(r)));
        // Round trip within the cluster is 10ms; the predicted round should be
        // a small multiple of that, far below the 200ms links.
        assert!(score < 100.0, "score {score}");
    }

    #[test]
    fn optimizer_respects_candidate_restriction() {
        let (m, n) = clustered_matrix();
        // Only replicas 2 and 3 are candidates: the leader must be one of them.
        let (config, _) = optimize_configuration(&m, n, 1, &[2, 3], &[], 1);
        assert!([2, 3].contains(&config.leader));
    }

    #[test]
    fn message_delays_satisfy_tr_requirements() {
        let (m, n) = clustered_matrix();
        let f = 1;
        let config = WeightConfig::with_assignment(n, 0, &[0, 1], 1);
        let delays = predict_message_delays(&m, n, f, &config, 2);
        // The Propose from the leader takes exactly one one-way delay (TR1).
        let propose = delays
            .iter()
            .find(|(s, p, _)| *s == 0 && *p == 1)
            .expect("propose");
        assert_eq!(propose.2, 5.0);
        // Writes arrive no earlier than the Propose that enables them (TR2).
        for (s, phase, d) in &delays {
            if *phase == 2 {
                let enabling = m[*s] / 2.0; // row 0 (the leader)
                assert!(*d >= enabling);
            }
        }
        // Accept delays are the largest per sender.
        let write_from_1 = delays
            .iter()
            .find(|(s, p, _)| *s == 1 && *p == 2)
            .expect("write");
        let accept_from_1 = delays
            .iter()
            .find(|(s, p, _)| *s == 1 && *p == 3)
            .expect("accept");
        assert!(accept_from_1.2 >= write_from_1.2);
    }

    #[test]
    fn prediction_is_deterministic() {
        let (m, n) = clustered_matrix();
        let config = WeightConfig::initial(n, 1);
        let a = predict_round_latency(&m, n, 1, &config, &[]);
        let b = predict_round_latency(&m, n, 1, &config, &[]);
        assert_eq!(a, b);
    }
}
