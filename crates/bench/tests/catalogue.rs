//! The `lab` catalogue: every scenario builds its specs at the arguments
//! the smoke runs use, each spec keeps the name of the `BENCH_*.json` it has
//! always written, and an unknown scenario is refused with the list of
//! names. Nothing here runs a cell.

use bench::{scenario, SCENARIOS};
use lab::LabArgs;
use std::process::Command;

fn args(words: &str) -> LabArgs {
    LabArgs::from_iter(words.split_whitespace().map(String::from))
}

/// One spec a scenario builds: `(BENCH stem, points, seeds)`.
type Built<'a> = (&'a str, usize, usize);

/// `(scenario, smoke arguments, the specs it builds)`, in [`SCENARIOS`]
/// order.
const SMOKE: [(&str, &str, &[Built<'static>]); 13] = [
    (
        "fig07_runtime_attack",
        "100 7",
        &[("fig07_runtime_attack", 3, 1)],
    ),
    (
        "fig08_candidate_time",
        "3",
        &[("fig08_candidate_time", 10, 1)],
    ),
    (
        "fig09_baseline_comparison",
        "5",
        &[("fig09_baseline_comparison", 20, 1)],
    ),
    (
        "fig10_reconfigurations",
        "2 57 10 --seeds 2",
        &[("fig10_reconfigurations", 3, 2)],
    ),
    (
        "fig11_malicious_delays",
        "5",
        &[("fig11_malicious_delays", 13, 1)],
    ),
    ("fig12_sa_search", "1", &[("fig12_sa_search", 30, 1)]),
    ("fig13_proposal_size", "", &[("fig13_proposal_size", 4, 1)]),
    (
        "fig14_overprovision",
        "2",
        &[("fig14_overprovision", 36, 2)],
    ),
    (
        "fig15_reconfiguration",
        "40",
        &[("fig15_reconfiguration", 1, 1)],
    ),
    (
        "sweep_delay_attack",
        "30 7 --seeds 2",
        &[("sweep_delay_attack", 1, 2)],
    ),
    (
        "sweep_tree_delay_attack",
        "60 13 --seeds 2",
        &[("sweep_tree_delay_attack", 4, 2)],
    ),
    (
        "sweep_intermediate_delay",
        "60 13 --seeds 2",
        &[("intermediate_delay", 3, 2)],
    ),
    (
        "sweep_load_latency",
        "20 7 90 --seeds 1",
        &[("load_latency", 24, 1), ("load_attack", 3, 1)],
    ),
];

#[test]
fn every_scenario_builds_under_its_bench_names() {
    let listed: Vec<&str> = SCENARIOS.iter().map(|&(name, _)| name).collect();
    let smoked: Vec<&str> = SMOKE.iter().map(|&(name, _, _)| name).collect();
    assert_eq!(listed, smoked);
    for (name, words, expected) in SMOKE {
        let sweeps = scenario(name, &args(words)).unwrap_or_else(|| panic!("{name} unknown"));
        let built: Vec<Built<'_>> = sweeps
            .iter()
            .map(|s| {
                (
                    s.spec.name.as_str(),
                    s.spec.points().len(),
                    s.spec.seeds.len(),
                )
            })
            .collect();
        assert_eq!(built, expected, "{name} {words}");
        for sweep in &sweeps {
            assert!(!sweep.columns.is_empty(), "{name}: no table columns");
            assert!(!sweep.header.is_empty(), "{name}: no header line");
        }
    }
}

#[test]
fn default_seeds_are_each_scenarios_own() {
    let seeds = |name: &str| -> Vec<Vec<u64>> {
        scenario(name, &args(""))
            .expect("listed scenario")
            .into_iter()
            .map(|s| s.spec.seeds)
            .collect()
    };
    assert_eq!(seeds("fig07_runtime_attack"), vec![vec![0]]);
    assert_eq!(
        seeds("fig14_overprovision"),
        vec![(0..15).collect::<Vec<u64>>()]
    );
    assert_eq!(seeds("sweep_delay_attack")[0].len(), 16);
    let load = seeds("sweep_load_latency");
    assert_eq!(load.len(), 2);
    assert_eq!(load[0], load[1], "both load sweeps share one seed sample");
    assert_eq!(load[0], lab::sample_seeds(10_000, 2, 0x10AD));
}

#[test]
fn unknown_scenarios_are_refused_with_the_list_of_names() {
    assert!(scenario("fig16_nope", &args("")).is_none());
    assert!(scenario("", &args("")).is_none());
    for words in [&["fig16_nope", "5"][..], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_lab"))
            .args(words)
            .output()
            .expect("run lab");
        assert!(!out.status.success(), "lab {words:?} exited 0");
        let usage = String::from_utf8_lossy(&out.stderr);
        for (name, positionals) in SCENARIOS {
            assert!(
                usage.contains(format!("{name:<26} {positionals}").trim_end()),
                "usage does not list {name}: {usage}"
            );
        }
    }
}
