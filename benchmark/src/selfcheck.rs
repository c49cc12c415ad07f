//! `--selfcheck N`: does the benchmark repeat? The whole set of workloads is
//! run N times twice over — set A and set B alternate, and run `i` of both
//! sets uses seed `base + i` — then each `workload/metric` gets its median,
//! quartiles and spread per set, the two set medians are compared against
//! the metric's bound, and the table is written to `SPREAD.md`. The driver
//! makes the same comparison before it accepts the benchmark.

use crate::child::run_workload;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats;
use crate::workloads::Options;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

type Samples = BTreeMap<(usize, &'static str, &'static str), Vec<f64>>;

/// Run the self-check; `Ok(true)` when every metric repeated within its
/// bound. Writes the table to `spread_md`.
pub fn run(runs: usize, opts: Options, spread_md: &Path) -> std::io::Result<bool> {
    assert!(runs >= 2, "a spread needs at least two runs");
    let mut samples: Samples = BTreeMap::new();
    let mut incorrect = Vec::new();
    for i in 0..runs {
        let seed = opts.seed + i as u64;
        // Alternate which set goes first, so drift of the host hits both.
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for (workload, _) in WORKLOADS {
                let child = run_workload(workload, Options { seed, ..opts })?;
                if !child.success {
                    incorrect.push(format!("set {set} run {i} of {workload} (seed {seed})"));
                }
                for (name, value) in child.metrics() {
                    if let Some((metric, _)) = END_TO_END.iter().find(|(m, _)| m.name == name) {
                        samples
                            .entry((set, workload, metric.name))
                            .or_default()
                            .push(value);
                    }
                }
                eprintln!("selfcheck: set {} run {i} {workload} done", ["A", "B"][set]);
            }
        }
    }

    let mut table = String::new();
    let mut ok = incorrect.is_empty();
    writeln!(
        table,
        "| workload/metric | unit | bound | A median | A q1 | A q3 | A spread | B median | B spread | B worse by | verdict |\n|---|---|---|---|---|---|---|---|---|---|---|"
    )
    .expect("write to string");
    for (workload, _) in WORKLOADS {
        for (metric, bound) in END_TO_END {
            let of = |set: usize| -> &[f64] {
                samples
                    .get(&(set, workload, metric.name))
                    .map_or(&[][..], Vec::as_slice)
            };
            let (a, b) = (of(0), of(1));
            if a.len() < 2 || b.len() < 2 {
                ok = false;
                writeln!(
                    table,
                    "| {workload}/{} | {} | {bound} | missing |",
                    metric.name, metric.unit
                )
                .expect("write to string");
                continue;
            }
            let (med_a, med_b) = (stats::median(a), stats::median(b));
            let (q1, q3) = stats::quartiles(a);
            let (spread_a, spread_b) = (stats::spread(a), stats::spread(b));
            // How much worse set B's median is, as a share of set A's.
            let worse = if metric.higher_is_better {
                (med_a - med_b) / med_a.abs()
            } else {
                (med_b - med_a) / med_a.abs()
            };
            let spread = spread_a.max(spread_b);
            let verdict = if worse > bound {
                ok = false;
                "FAIL: sets disagree"
            } else if metric.name != "setup_s" && spread > bound {
                ok = false;
                "FAIL: spread over bound"
            } else if metric.name != "setup_s" && spread > bound / 3.0 {
                "wide"
            } else {
                "ok"
            };
            writeln!(
                table,
                "| {workload}/{} | {} | {bound} | {med_a:.6} | {q1:.6} | {q3:.6} | {spread_a:.4} | {med_b:.6} | {spread_b:.4} | {worse:+.4} | {verdict} |",
                metric.name, metric.unit
            )
            .expect("write to string");
        }
    }

    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut doc = format!(
        "# Spread of the end-to-end metrics\n\n\
         Written by `--selfcheck {runs}` (seeds {}..{}, `--seconds {}`, {cores} cores). \
         Two sets of {runs} runs of the same code, alternating; run `i` of both sets uses the \
         same seed. *spread* is the distance between the first and third quartile \
         (`statistics.quantiles(n=4)`) as a share of the median; *B worse by* is how much \
         worse set B's median is than set A's, as a share of A's. A row fails when the sets \
         disagree by more than the bound or (except `setup_s`) a spread exceeds it; *wide* \
         marks a spread above a third of the bound.\n\n",
        opts.seed,
        opts.seed + runs as u64 - 1,
        opts.seconds,
    );
    doc.push_str(&table);
    if !incorrect.is_empty() {
        writeln!(
            doc,
            "\nRuns that failed their output checks: {}.",
            incorrect.join("; ")
        )
        .expect("write to string");
    }
    writeln!(
        doc,
        "\nVerdict: {}.",
        if ok {
            "every metric repeats within its bound"
        } else {
            "FAIL"
        }
    )
    .expect("write to string");
    print!("{doc}");
    std::fs::write(spread_md, doc)?;
    Ok(ok)
}
