//! The three simulated workloads at `--smoke` size: the same seed gives the
//! same simulated-clock numbers, bit for bit, and another seed does not.

use serde::Value;
use std::process::Command;

/// Metrics read off the simulated clock: exact for a seed.
const SIM_CLOCK: [&str; 4] = [
    "e2e_p50_ms",
    "e2e_p95_ms",
    "committed_share",
    "slo_goodput_ops_s",
];

fn run(workload: &str, seed: u64) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(["--seed", &seed.to_string()])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} seed {seed} failed its checks"
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is the result object");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").map(number), Some(0.0));
    result
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Num(n) => n.as_f64(),
        other => panic!("expected a number, got {other:?}"),
    }
}

fn metric(result: &Value, name: &str) -> f64 {
    let m = result.get("metrics").and_then(|m| m.get(name));
    number(
        m.and_then(|m| m.get("value"))
            .unwrap_or_else(|| panic!("metric {name} is missing")),
    )
}

fn repeats_for_a_seed_and_moves_with_it(workload: &str) {
    let (first, again, other) = (run(workload, 5), run(workload, 5), run(workload, 6));
    for name in SIM_CLOCK {
        assert_eq!(
            metric(&first, name).to_bits(),
            metric(&again, name).to_bits(),
            "{workload}/{name} must repeat exactly for one seed"
        );
    }
    // Hash maps seeded per instance move the allocation count by a few in a
    // few hundred thousand; anything larger is a real difference.
    let (a, b) = (
        metric(&first, "allocs_per_op"),
        metric(&again, "allocs_per_op"),
    );
    assert!(
        ((a - b) / a).abs() < 1e-4,
        "{workload}/allocs_per_op {a} vs {b}"
    );
    assert!(
        SIM_CLOCK
            .iter()
            .any(|name| metric(&first, name) != metric(&other, name)),
        "{workload}: another seed must give other inputs"
    );
}

#[test]
fn sim_global_tree_is_deterministic() {
    repeats_for_a_seed_and_moves_with_it("sim_global_tree");
}

#[test]
fn sim_attack_aware_is_deterministic() {
    repeats_for_a_seed_and_moves_with_it("sim_attack_aware");
}

#[test]
fn sim_overload_is_deterministic() {
    repeats_for_a_seed_and_moves_with_it("sim_overload");
}
