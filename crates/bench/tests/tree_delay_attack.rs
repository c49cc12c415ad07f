//! The acceptance test for the tree-substrate Fig 7 reproduction: the
//! `sweep_tree_delay_attack` scenario must show windowed latency spiking
//! while the initial root withholds its disseminations, a reconfiguration
//! that strips the root of its role on Kauri/OptiTree, and a return to
//! within 2× of the clean-phase latency afterwards — with `LatencyWindow`
//! metrics populated for every substrate, PBFT-special-casing gone.

use bench::tree_delay_attack_spec;
use lab::{run_sweep, SweepOptions};

#[test]
fn tree_delay_attack_shows_fig7_shape() {
    // 60 s run, seed 1: the smallest configuration where every tree
    // substrate's detector fires *after* the first withheld views commit,
    // so the spike is visible before recovery (the values are deterministic;
    // see BENCH_sweep_tree_delay_attack.json for the full-scale sweep).
    let spec = tree_delay_attack_spec(60, 13, vec![1]);
    let report = run_sweep(&spec, &SweepOptions::serial());

    // Every substrate — HotStuff included — exposes populated latency
    // windows now that the per-commit timelines are uniform.
    for label in [
        "HotStuff-fixed",
        "Kauri",
        "OptiTree",
        "OptiTree (no pipeline)",
    ] {
        let p = report
            .point(label)
            .unwrap_or_else(|| panic!("missing point {label}"));
        for w in ["lat_clean_ms", "lat_attack_ms", "lat_recovered_ms"] {
            assert!(
                p.metric(w) > 0.0,
                "{label}: window metric {w} must be populated, got {}",
                p.metric(w)
            );
        }
        let cell = &p.cells[0];
        let timeline = &cell.metrics.series["latency_timeline"];
        assert!(!timeline.is_empty(), "{label}: empty latency timeline");
        assert!(
            timeline.windows(2).all(|w| w[0].0 <= w[1].0),
            "{label}: timeline must be in commit order"
        );
    }

    // The role-aware tree substrates show the Fig 7 sawtooth: the withheld
    // views commit with the hold attached (spike), the stale proposals fail
    // the tree (reconfiguration), and the new root restores clean latency.
    for label in ["Kauri", "OptiTree", "OptiTree (no pipeline)"] {
        let p = report.point(label).expect("tree point");
        let (clean, attack, recovered) = (
            p.metric("lat_clean_ms"),
            p.metric("lat_attack_ms"),
            p.metric("lat_recovered_ms"),
        );
        assert!(
            attack > clean * 2.0,
            "{label}: attack window should spike, clean={clean:.1}ms attack={attack:.1}ms"
        );
        assert!(
            recovered < clean * 2.0,
            "{label}: latency should return within 2x of clean after reconfiguration, \
             clean={clean:.1}ms recovered={recovered:.1}ms"
        );
        assert!(
            p.metric("reconfigurations") >= 1.0,
            "{label}: the delaying root must be reconfigured away"
        );
    }

    // HotStuff cannot reassign its fixed leader: it spikes harder and only
    // recovers because the attack stage ends.
    let hs = report.point("HotStuff-fixed").expect("hotstuff point");
    assert!(hs.metric("lat_attack_ms") > hs.metric("lat_clean_ms") * 2.0);
    assert!(hs.metric("lat_recovered_ms") < hs.metric("lat_clean_ms") * 2.0);
}
