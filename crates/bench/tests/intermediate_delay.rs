//! The acceptance test for the reciprocal-suspicion-pair machinery (§6.4):
//! an *overtly-delaying intermediate* withholds everything it forwards, so
//! its subtree observes silence/staleness it cannot attribute beyond its own
//! upstream hop. Under the old rule the subtree deposed one innocent root
//! after another; now the (receiver, upstream) pairs commit through the
//! replicated configuration log and the whole cluster rotates coordinately:
//! the delayer loses its internal position, the innocent root is exonerated,
//! and recovery costs a single reconfiguration instead of a churn spiral.

use bench::intermediate_delay_spec;
use lab::{run_sweep, SweepOptions};

#[test]
fn intermediate_delayer_is_rotated_out_and_the_root_exonerated() {
    // 60 s run, seed 1, n = 13: the attacker is the initial tree's first
    // intermediate on every substrate (resolved through the same seeded
    // policy the run uses); the hold (2.5 s) is overt for every detector.
    let spec = intermediate_delay_spec(60, 13, vec![1]);
    let report = run_sweep(&spec, &SweepOptions::serial());

    for label in ["Kauri", "Kauri-sa", "OptiTree"] {
        let p = report
            .point(label)
            .unwrap_or_else(|| panic!("missing point {label}"));
        // The §6.4 pairs committed through the log and they name the
        // delayer, not the root.
        assert!(
            p.metric("committed_pairs") >= 1.0,
            "{label}: the withheld subtree must commit pair evidence"
        );
        assert_eq!(
            p.metric("pairs_accuse_attacker"),
            1.0,
            "{label}: committed pairs must accuse the delaying intermediate"
        );
        // The rotation is coordinated — one reconfiguration driven by the
        // committed evidence, not a per-subtree churn spiral.
        let reconfigs = p.metric("reconfigurations");
        assert!(
            (1.0..=2.0).contains(&reconfigs),
            "{label}: expected a single coordinated rotation, got {reconfigs}"
        );
        // The attacker no longer holds an internal position afterwards.
        assert_eq!(
            p.metric("attacker_internal_final"),
            0.0,
            "{label}: the delayer must be rotated out of internal positions"
        );
        // The tree keeps committing through and after the episode: the
        // recovered window is no worse than 2x the clean one.
        let (clean, recovered) = (p.metric("lat_clean_ms"), p.metric("lat_recovered_ms"));
        assert!(
            clean > 0.0 && recovered > 0.0,
            "{label}: windows must be populated"
        );
        assert!(
            recovered < clean * 2.0,
            "{label}: latency must recover, clean={clean:.1}ms recovered={recovered:.1}ms"
        );
    }

    // OptiTree's pair-driven candidate exclusion: the delayer is excluded,
    // the innocent root is exonerated (stays a candidate).
    let ot = report.point("OptiTree").expect("OptiTree point");
    assert_eq!(
        ot.metric("attacker_excluded"),
        1.0,
        "pairs must exclude the delayer"
    );
    assert_eq!(
        ot.metric("initial_root_excluded"),
        0.0,
        "the innocent root must stay eligible for roles"
    );

    // The §7.5 baseline shows why pairs matter: Kauri-sa's
    // exclude-all-internals rule throws the innocent root out with the
    // attacker.
    let sa = report.point("Kauri-sa").expect("Kauri-sa point");
    assert_eq!(
        sa.metric("initial_root_excluded"),
        1.0,
        "the baseline's whole-tree blame should depose the innocent root"
    );
}
