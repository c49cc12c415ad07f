//! Equivalence by replay: the incremental `decide` path against itself,
//! cold.
//!
//! `OptiAwarePolicy` — OptiAware, and Aware as the same policy without its
//! suspicion sensor — answers `decide` from the output of its last
//! configuration search unless the committed log moved a monitor revision.
//! No uncached `decide` is kept to compare against; the oracle is a *freshly
//! constructed* policy. One long-lived policy sees a random interleaving of
//! committed latency vectors (changing and re-reported), Slow/False
//! suspicions, leader terms and `decide` calls, several per commit. At every
//! `decide` a fresh policy replays the committed prefix — the measurements,
//! the terms, and the reconfigurations the long-lived policy decided — but
//! none of the `decide` calls that answered `None`, so it reaches the same
//! log position having searched and memoised next to nothing. Both must then
//! give the same answer, call after call.

use optiaware::{OptiAwareBlob, OptiAwarePolicy};
use optilog::{Suspicion, SuspicionKind};
use pbft::{ReconfigPolicy, WeightConfig};
use proptest::prelude::*;
use runtime::SimTime;

const N: usize = 10;
const F: usize = 3;

/// One step of the committed history as a policy sees it.
#[derive(Debug, Clone)]
enum Step {
    /// A measurement blob commits.
    Measurement(Vec<u8>),
    /// An epoch adopted from outside the policy: the next leader term.
    Term,
    /// The substrate asks for a decision, `calls` times in a row.
    Decide { calls: usize },
}

/// Milliseconds between `a` and `b` on a fixed, asymmetric-free base map.
fn base_rtt(a: usize, b: usize) -> f64 {
    if a == b {
        0.0
    } else {
        10.0 + 7.0 * a.abs_diff(b) as f64 + ((a * b) % 5) as f64
    }
}

/// Reporter `a`'s row, with the entry towards `b` raised by `bump` ms
/// (`bump == 0` re-reports the base row: the matrix does not change).
fn row(a: usize, b: usize, bump: f64) -> Vec<f64> {
    (0..N)
        .map(|t| base_rtt(a, t) + if t == b && t != a { bump } else { 0.0 })
        .collect()
}

/// Reporter `reporter`'s committed latency vector.
fn vector(reporter: usize, rtt_ms: Vec<f64>) -> Step {
    Step::Measurement(OptiAwareBlob::Latency { reporter, rtt_ms }.encode())
}

fn suspicion(kind: SuspicionKind, accuser: usize, accused: usize, x: u64) -> Suspicion {
    Suspicion {
        kind,
        accuser,
        accused,
        // Colliding rounds and all three phases exercise the causal filters.
        round: x % 16,
        phase: ((x / 16) % 3) as u32,
        accuser_is_leader: false,
    }
}

/// The one misbehaving replica, and a replica that may be taken for crashed.
/// Both sit in the middle of the base map, where the optimiser wants its
/// leader and `V_max` holders, so suspecting them changes decisions.
const BAD: usize = 4;
const FRAGILE: usize = 5;

/// Turn raw draws into suspicion steps. Every mutual pair involves `BAD`
/// and every one-way suspicion accuses `BAD` or `FRAGILE`. The suspicion
/// graph then always has an independent set of `n − f`, so the monitor's
/// too-many-suspicions rule never discards an edge inside `selection` — the
/// one mutation a `decide` answering `None` could make, which a replay that
/// skips such calls could not reproduce. (That rule is checked against the
/// graph directly in `crates/core/tests/proptests.rs`.)
fn suspicion_steps(a: usize, b: usize, x: u64) -> Vec<Step> {
    // Any replica but `avoid`.
    let other_than = |avoid: usize| if a == avoid { N - 1 } else { a };
    let steps = if b < N / 2 {
        // A reciprocated pair, raised from either side.
        let other = other_than(BAD);
        let (accuser, accused) = if x % 2 == 1 {
            (other, BAD)
        } else {
            (BAD, other)
        };
        vec![
            suspicion(SuspicionKind::Slow, accuser, accused, x),
            suspicion(SuspicionKind::False, accused, accuser, x),
        ]
    } else {
        // One-way: never reciprocated, the accused ends up in `C`.
        let accused = if x % 2 == 1 { BAD } else { FRAGILE };
        vec![suspicion(
            SuspicionKind::Slow,
            other_than(accused),
            accused,
            x,
        )]
    };
    steps
        .into_iter()
        .map(|s| Step::Measurement(OptiAwareBlob::Suspicion(s).encode()))
        .collect()
}

/// Build a history from raw draws: a first commit before any measurement
/// (which starts the first leader term), then `prefill` reporters' base rows
/// (9 of 10 complete the matrix, fewer leave it incomplete), then the drawn
/// steps.
fn history(prefill: usize, draws: &[(u8, usize, usize, u64)]) -> Vec<Step> {
    let mut steps = vec![Step::Decide { calls: 1 }];
    steps.extend((0..prefill).map(|r| vector(r, row(r, r, 0.0))));
    for &(kind, a, b, x) in draws {
        match kind {
            0..=2 => {
                let bump = (x % 3) as f64 * 5.0;
                steps.push(vector(a, row(a, b, bump)));
            }
            3..=5 => steps.extend(suspicion_steps(a, b, x)),
            6 => {
                // A quiet stretch of leader terms, each seen by one commit:
                // long ones run the reciprocation and stability windows out.
                for _ in 0..1 + x % 7 {
                    steps.push(Step::Term);
                    steps.push(Step::Decide { calls: 1 });
                }
            }
            _ => steps.push(Step::Decide {
                calls: 1 + (x % 3) as usize,
            }),
        }
    }
    steps.push(Step::Decide { calls: 2 });
    steps
}

/// Drive one long-lived policy through `steps` and check every `decide`
/// against a fresh policy that replayed the committed prefix. After every
/// step the long-lived policy — never the replaying one — is asked for its
/// candidates, so the two fill their caches at different points of the log.
fn check_replay(fresh: impl Fn() -> OptiAwarePolicy, steps: &[Step]) {
    let at = |i: usize| SimTime::from_millis(100 * (i as u64 + 1));
    let mut live = fresh();
    let mut epoch = 0u64;
    // Per step: the epoch the substrate was in, and what the long-lived
    // policy's first `decide` of that step answered.
    let mut epochs = Vec::with_capacity(steps.len());
    let mut decided: Vec<Option<WeightConfig>> = Vec::with_capacity(steps.len());

    for (i, step) in steps.iter().enumerate() {
        epochs.push(epoch);
        let mut outcome = None;
        match step {
            Step::Measurement(blob) => {
                live.on_committed_measurement(0, blob);
            }
            Step::Term => epoch += 1,
            Step::Decide { calls } => {
                // The cold oracle: log events, term changes and adopted
                // reconfigurations of the prefix, no other `decide`.
                let mut cold = fresh();
                let mut seen_epoch = None;
                for (j, earlier) in steps[..i].iter().enumerate() {
                    match earlier {
                        Step::Measurement(blob) => {
                            cold.on_committed_measurement(0, blob);
                        }
                        Step::Term => {}
                        Step::Decide { .. } => {
                            if decided[j].is_some() || seen_epoch != Some(epochs[j]) {
                                seen_epoch = Some(epochs[j]);
                                assert_eq!(cold.decide(epochs[j], at(j)), decided[j]);
                            }
                        }
                    }
                }
                for call in 0..*calls {
                    outcome = live.decide(epoch, at(i));
                    assert_eq!(
                        outcome,
                        cold.decide(epoch, at(i)),
                        "step {i}, call {call}: long-lived and replayed policy disagree"
                    );
                    // A reconfiguration ends the commit: the substrate
                    // adopts it and asks again under the new epoch.
                    if let Some(config) = &outcome {
                        assert_eq!(config.epoch, epoch + 1);
                        epoch = config.epoch;
                        break;
                    }
                }
            }
        }
        decided.push(outcome);
        live.candidates();
    }
}

proptest! {
    /// OptiAware: vectors, suspicions, terms and repeated `decide` calls.
    #[test]
    fn optiaware_decides_like_a_fresh_policy_replaying_the_log(
        prefill in 7usize..=N,
        id in 0usize..N,
        optimize_after_ms in 0u64..1_500,
        draws in prop::collection::vec((0u8..10, 0usize..N, 0usize..N, 0u64..1_000), 0..36),
    ) {
        check_replay(
            || OptiAwarePolicy::new(id, N, F, SimTime::from_millis(optimize_after_ms)),
            &history(prefill, &draws),
        );
    }

    /// Aware: the same property over the same kind of log, whose
    /// suspicions it ignores.
    #[test]
    fn aware_decides_like_a_fresh_policy_replaying_the_log(
        prefill in 7usize..=N,
        optimize_after_ms in 0u64..1_500,
        draws in prop::collection::vec((0u8..10, 0usize..N, 0usize..N, 0u64..1_000), 0..36),
    ) {
        check_replay(
            || OptiAwarePolicy::aware(N, F, SimTime::from_millis(optimize_after_ms)),
            &history(prefill, &draws),
        );
    }
}
