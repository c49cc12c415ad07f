//! Golden results: one small cell per substrate family under open-loop load,
//! plus saturated HotStuff and Kauri cells, compared against a
//! checked-in table. `determinism.rs` only compares `--threads` values within
//! one build; this is the check *across commits* — a refactor that claims to
//! preserve behaviour must leave every scalar and every series here exactly
//! where it was, and a deliberate change updates the table in the same
//! commit (`GOLDEN_UPDATE=1 cargo test -p lab --test golden`).
//!
//! Scalars are stored in Rust's shortest round-trip float form, series as
//! `sha256:<hex> len=<points>` over the little-endian bytes of every point,
//! so equality of the table lines is equality of the bits.

use lab::{
    AdversaryScript, Attack, CellMetrics, Deployment, LatencyWindow, ProtocolScenario,
    ScenarioKind, ScenarioSpec, Substrate, Target, Topology, TrafficSpec,
};
use netsim::{Duration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

const TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cells.txt");
const SEED: u64 = 12;

/// One 10-simulated-second, n = 7 cell: open-loop load, and a delay attack
/// long enough to be answered (the PBFT policies re-elect, the trees rotate
/// the withholding root out) so the protocol-specific report sections carry
/// more than zeros.
fn cell(substrate: Substrate, target: Target, delay_ms: u64) -> CellMetrics {
    cell_with(substrate, target, delay_ms, |script| script)
}

/// [`cell`] with further stages appended to its adversary script.
fn cell_with(
    substrate: Substrate,
    target: Target,
    delay_ms: u64,
    more: impl FnOnce(AdversaryScript) -> AdversaryScript,
) -> CellMetrics {
    let load = TrafficSpec::poisson(400.0)
        .with_clients(8)
        .with_batching(40, Duration::from_millis(40));
    run(scenario(substrate, target, delay_ms, more).with_traffic_axis(vec![load]))
}

/// [`cell`] without its traffic axis: the leaders propose the paper's
/// saturated 1000-command batches, and the windows read consensus latency.
fn saturated_cell(substrate: Substrate, target: Target, delay_ms: u64) -> CellMetrics {
    run(scenario(substrate, target, delay_ms, |script| script))
}

/// The shape every cell shares, before any traffic axis.
fn scenario(
    substrate: Substrate,
    target: Target,
    delay_ms: u64,
    more: impl FnOnce(AdversaryScript) -> AdversaryScript,
) -> ProtocolScenario {
    let script = AdversaryScript::named("delay").during(
        SimTime::from_secs(3),
        SimTime::from_secs(7),
        Attack::DelayProposals {
            target,
            delay: Duration::from_millis(delay_ms),
        },
    );
    let mut scenario = ProtocolScenario::new(
        vec![substrate],
        vec![Topology::with_n(Deployment::Europe21, 7)],
    )
    .with_adversaries(vec![more(script)])
    .run_for(Duration::from_secs(10));
    scenario.optimize_after = SimTime::from_secs(2);
    scenario.windows = vec![
        LatencyWindow::new("clean", 0.5, 3.0),
        LatencyWindow::new("attacked", 3.0, 7.0),
    ];
    scenario
}

fn run(scenario: ProtocolScenario) -> CellMetrics {
    let spec = ScenarioSpec::new("golden", vec![SEED], ScenarioKind::Protocol(scenario));
    let points = spec.points();
    assert_eq!(points.len(), 1);
    spec.run_cell(&points[0], SEED)
}

/// The golden cells, run once per test process. A new cell goes last:
/// tests below pick cells by position.
fn cells() -> &'static [(&'static str, CellMetrics)] {
    static CELLS: OnceLock<Vec<(&'static str, CellMetrics)>> = OnceLock::new();
    CELLS.get_or_init(|| {
        vec![
            ("BftSmart", cell(Substrate::BftSmart, Target::Root, 400)),
            (
                "OptiAware",
                cell(Substrate::OptiAware, Target::OptimizedLeader, 400),
            ),
            (
                "HotStuffFixed",
                cell(Substrate::HotStuffFixed, Target::Root, 400),
            ),
            ("Kauri", cell(Substrate::Kauri, Target::Root, 2_500)),
            ("OptiTree", cell(Substrate::OptiTree, Target::Root, 2_500)),
            (
                "Aware",
                cell(Substrate::Aware, Target::OptimizedLeader, 400),
            ),
            (
                "SaturatedHotStuffFixed",
                saturated_cell(Substrate::HotStuffFixed, Target::Root, 400),
            ),
            (
                "SaturatedHotStuffRr",
                saturated_cell(Substrate::HotStuffRr, Target::Root, 400),
            ),
            (
                "SaturatedKauri",
                saturated_cell(Substrate::Kauri, Target::Root, 2_500),
            ),
        ]
    })
}

/// `family/key` → exact rendering of the value.
fn render(cells: &[(&'static str, CellMetrics)]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (family, metrics) in cells {
        for (key, value) in &metrics.values {
            out.insert(format!("{family}/{key}"), format!("{value:?}"));
        }
        for (key, points) in &metrics.series {
            let mut bytes = Vec::with_capacity(points.len() * 16);
            for &(t, v) in points {
                bytes.extend_from_slice(&t.to_le_bytes());
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            let mut hex = String::with_capacity(64);
            for b in crypto::sha256(&bytes) {
                write!(hex, "{b:02x}").expect("writing to a String");
            }
            out.insert(
                format!("{family}/series:{key}"),
                format!("sha256:{hex} len={}", points.len()),
            );
        }
    }
    out
}

fn to_text(table: &BTreeMap<String, String>) -> String {
    let mut text = String::new();
    for (key, value) in table {
        writeln!(text, "{key} = {value}").expect("writing to a String");
    }
    text
}

fn from_text(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| line.split_once(" = "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[test]
fn cells_match_the_checked_in_table() {
    let actual = render(cells());
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(TABLE, to_text(&actual)).expect("write the golden table");
        return;
    }
    let expected = from_text(&std::fs::read_to_string(TABLE).expect("read the golden table"));
    let mut moved = Vec::new();
    for (key, want) in &expected {
        match actual.get(key) {
            Some(got) if got == want => {}
            Some(got) => moved.push(format!("  moved   {key}: {want} -> {got}")),
            None => moved.push(format!("  missing {key} (was {want})")),
        }
    }
    for (key, got) in &actual {
        if !expected.contains_key(key) {
            moved.push(format!("  new     {key} = {got}"));
        }
    }
    assert!(
        moved.is_empty(),
        "{} of {} golden keys moved (GOLDEN_UPDATE=1 rewrites the table if this is intended):\n{}",
        moved.len(),
        expected.len().max(actual.len()),
        moved.join("\n")
    );
}

/// The cells must exercise what the table is meant to pin: load commits on
/// every family, the attack is visible, and the role sections are not idle.
#[test]
fn cells_exercise_load_attack_and_roles() {
    for (family, m) in cells() {
        let family = *family;
        let v = |k: &str| m.values.get(k).copied().unwrap_or(0.0);
        // A saturated cell has no clients: its commits are the load.
        let load = if family.starts_with("Saturated") {
            "throughput_ops"
        } else {
            "committed_ops"
        };
        assert!(v(load) > 100.0, "{family}: load must commit");
        assert!(
            v("lat_attacked_ms") > v("lat_clean_ms"),
            "{family}: the delay stage must show in client latency"
        );
        assert_eq!(v("audit.ok"), 1.0, "{family}: audit must pass");
        match family {
            "OptiAware" => assert!(
                v("reconfigurations") >= 1.0,
                "{family}: the attack must be answered by a role change"
            ),
            "OptiTree" => {
                assert!(
                    v("reconfigurations") >= 1.0,
                    "{family}: the attack must be answered by a role change"
                );
                assert_eq!(
                    v("attacker_internal_final"),
                    0.0,
                    "{family}: the delaying root must end outside the internal roles"
                );
                assert_eq!(
                    v("root_retained"),
                    0.0,
                    "{family}: the delaying root must not stay root"
                );
            }
            // A role change fires, but it does not answer the attack: Kauri's
            // reconfiguration under a delaying root keeps that root
            // (`root_retained 1`, `attacker_internal_final 1`, no committed
            // pairs) — Finding L of ROADMAP direction 16.
            "Kauri" => assert!(
                v("reconfigurations") >= 1.0,
                "{family}: a role change fires"
            ),
            _ => {}
        }
    }
}

/// The PBFT role history is read at the best-informed correct replica, not
/// at a fixed replica id: crashing replica 1 after the first (t ≈ 2 s)
/// reconfiguration must not hide the reassignment that answers the attack.
#[test]
fn crashing_replica_one_does_not_truncate_the_reconfiguration_history() {
    let (_, golden) = &cells()[1];
    assert_eq!(cells()[1].0, "OptiAware");
    let crashed = cell_with(
        Substrate::OptiAware,
        Target::OptimizedLeader,
        400,
        |script| {
            script.at(
                SimTime::from_millis(2_800),
                Attack::Crash {
                    target: Target::Replica(1),
                },
            )
        },
    );
    assert_eq!(golden.values["reconfigurations"], 2.0);
    assert_eq!(
        crashed.values["reconfigurations"], 2.0,
        "the post-crash reassignment must still be reported"
    );
}
