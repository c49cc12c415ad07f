//! The benchmark's catalogue — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — and the report one workload run produces.
//! `BENCHMARK.json` at the repository root states the same catalogue for the
//! driver; `tests/contract.rs` keeps the two in step.

use serde::{Number, Value};
use std::collections::BTreeMap;

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`, at most 64 characters.
    pub name: &'static str,
    /// Unit, at most 16 characters.
    pub unit: &'static str,
    /// True when a larger value is the better one.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The five workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "real_star",
        "HotStuff n=4 over localhost TCP at 150k cmd/s: runtime wire codec, sockets, timer thread, rsm and traffic do the work, netsim none",
    ),
    (
        "real_tree",
        "Kauri n=7 over localhost TCP at 60k cmd/s: the same runtime layer used as forward-down/aggregate-up through a tree, about 3x the CPU per op of the star",
    ),
    (
        "sim_global_tree",
        "OptiTree on Global73 (n=73) at 600 cmd/s, simulated: the paper's headline deployment; tree quality sets e2e_p50_ms, netsim fan-out at large n sets the cost",
    ),
    (
        "sim_attack_aware",
        "OptiAware on Europe21 (n=21) at 1000 cmd/s while the optimised leader holds proposals 800 ms: suspicion, reconfiguration and configlog adoption decide e2e_p95_ms and goodput",
    ),
    (
        "sim_overload",
        "Kauri n=7 offered 16000 cmd/s against about 4800 capacity with a 5000-command queue: bounded admission, rejection and drain instead of an idle queue",
    ),
];

/// End-to-end metrics with the share of the parent's median each may worsen
/// by. Every workload reports every one. Bounds are the larger of the
/// issue's floors and three times the spread in `SPREAD.md`, capped at the
/// driver's 0.25.
pub const END_TO_END: [(Metric, f64); 9] = [
    (lower("setup_s", "s"), 0.25),
    (lower("e2e_p50_ms", "ms"), 0.12),
    (lower("e2e_p95_ms", "ms"), 0.10),
    (higher("committed_share", "fraction"), 0.01),
    (higher("slo_goodput_ops_s", "ops/s"), 0.02),
    (lower("cpu_us_per_op", "us"), 0.25),
    (lower("allocs_per_op", "count"), 0.16),
    (lower("alloc_kb_per_op", "kB"), 0.22),
    (lower("peak_rss_mb", "MB"), 0.25),
];

/// Per-layer metrics (layer = crate name), reported by the traced run. None
/// is gated. A metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 87] = [
    // Demoted from end-to-end (README, "Not gated"): both are set by the
    // one or two 30–100 ms stalls a shared 2-core box deals a real_* run.
    lower("outage_s", "s"),
    lower("e2e_p99_ms", "ms"),
    lower("netsim.events_per_op", "count"),
    higher("netsim.events_per_cpu_s", "1/s"),
    lower("netsim.sched_ns_per_event", "ns"),
    lower("netsim.cascades_per_kevent", "count"),
    lower("netsim.live_high_water", "count"),
    lower("runtime.wire.proposal_encode_ns", "ns"),
    lower("runtime.wire.proposal_decode_ns", "ns"),
    lower("runtime.wire.proposal_bytes", "bytes"),
    lower("runtime.wire.vote_encode_ns", "ns"),
    lower("runtime.wire.vote_decode_ns", "ns"),
    lower("runtime.wire.vote_bytes", "bytes"),
    lower("runtime.real.launch_ms_n4", "ms"),
    lower("runtime.real.launch_ms_n7", "ms"),
    lower("runtime.real.shutdown_ms", "ms"),
    lower("runtime.real.echo_rtt_us", "us"),
    lower("runtime.real.timer_lateness_p50_us", "us"),
    lower("traffic.generate_ns_per_arrival", "ns"),
    lower("traffic.batch_ns_per_op", "ns"),
    lower("traffic.queue_wait_p50_ms", "ms"),
    lower("traffic.queue_wait_p99_ms", "ms"),
    higher("traffic.ops_per_batch", "count"),
    lower("traffic.rejected_share", "fraction"),
    lower("traffic.depth_peak", "count"),
    lower("rsm.consensus_p50_ms", "ms"),
    lower("rsm.consensus_p99_ms", "ms"),
    lower("rsm.block_digest_ns_per_cmd", "ns"),
    higher("rsm.blocks_committed", "count"),
    lower("crypto.sha256_ns_per_kb", "ns"),
    lower("crypto.sign_ns", "ns"),
    lower("crypto.verify_ns", "ns"),
    lower("crypto.qc_verify_ns_n7", "ns"),
    lower("crypto.qc_verify_ns_n73", "ns"),
    lower("crypto.aggregate_verify_ns_n73", "ns"),
    lower("hotstuff.views", "count"),
    lower("hotstuff.views_per_commit", "count"),
    lower("kauri.reconfigurations", "count"),
    lower("kauri.config_epoch_final", "count"),
    lower("optitree.search_ms_n73", "ms"),
    lower("optitree.tree_score_ms", "ms"),
    lower("core.candidate_select_ms_n73", "ms"),
    higher("core.annealing_iters_per_s", "1/s"),
    lower("pbft.commit_p50_ms", "ms"),
    lower("optiaware.reconfigurations", "count"),
    lower("optiaware.detect_s", "s"),
    lower("lab.lat_clean_ms", "ms"),
    lower("lab.lat_attack_ms", "ms"),
    lower("lab.lat_recovered_ms", "ms"),
    higher("lab.goodput_attack_ops_s", "ops/s"),
    lower("configlog.apply_ns_per_cmd", "ns"),
    lower("configlog.epochs_adopted", "count"),
    lower("telemetry.record_ns_per_op", "ns"),
    lower("telemetry.trace_overhead_share", "fraction"),
    lower("telemetry.breakdown.ingress_p50_ms", "ms"),
    lower("telemetry.breakdown.ingress_share", "fraction"),
    lower("telemetry.breakdown.admission_p50_ms", "ms"),
    lower("telemetry.breakdown.admission_share", "fraction"),
    lower("telemetry.breakdown.hold_p50_ms", "ms"),
    lower("telemetry.breakdown.hold_share", "fraction"),
    lower("telemetry.breakdown.dissem_p50_ms", "ms"),
    lower("telemetry.breakdown.dissem_share", "fraction"),
    lower("telemetry.breakdown.vote_p50_ms", "ms"),
    lower("telemetry.breakdown.vote_share", "fraction"),
    lower("telemetry.breakdown.reply_p50_ms", "ms"),
    lower("telemetry.breakdown.reply_share", "fraction"),
    lower("telemetry.breakdown.other_p50_ms", "ms"),
    lower("telemetry.breakdown.other_share", "fraction"),
    lower("audit.poll_us", "us"),
    higher("audit.checked", "count"),
    higher("audit.ok", "count"),
    lower("lab.cell_cpu_s", "s"),
    higher("lab.knee.bftsmart_ops_s", "ops/s"),
    higher("lab.knee.hotstuff_fixed_ops_s", "ops/s"),
    higher("lab.knee.kauri_ops_s", "ops/s"),
    higher("lab.knee.optitree_ops_s", "ops/s"),
    lower("deployd.run_overrun_ms", "ms"),
    lower("span.generate_self_ms", "ms"),
    lower("span.place_self_ms", "ms"),
    lower("span.compile_self_ms", "ms"),
    lower("span.search_self_ms", "ms"),
    lower("span.launch_self_ms", "ms"),
    lower("span.run_self_ms", "ms"),
    lower("span.shutdown_self_ms", "ms"),
    lower("span.audit_self_ms", "ms"),
    lower("span.report_self_ms", "ms"),
    lower("span.layers_self_ms", "ms"),
];

/// The catalogue's own (static) spelling of a per-layer metric name built at
/// run time. Panics on a name outside the catalogue: a bug in this package.
pub fn layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .name
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        && name.as_bytes()[0].is_ascii_alphanumeric()
}

/// Problems with the catalogue itself: bad or duplicate names, too many
/// metrics, bounds outside `(0, 0.25]`. Empty when it meets the contract.
pub fn catalogue_problems() -> Vec<String> {
    let mut problems = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.0.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            problems.push(format!("name {name:?} is outside [A-Za-z0-9_.-]{{1,64}}"));
        }
        if !seen.insert(name) {
            problems.push(format!("name {name:?} is used twice"));
        }
    }
    if END_TO_END.len() > 16 {
        problems.push(format!("{} end-to-end metrics exceed 16", END_TO_END.len()));
    }
    if PER_LAYER.len() > 128 {
        problems.push(format!("{} per-layer metrics exceed 128", PER_LAYER.len()));
    }
    for (m, bound) in END_TO_END {
        if !(bound > 0.0 && bound <= 0.25) {
            problems.push(format!("bound {bound} of {} is outside (0, 0.25]", m.name));
        }
    }
    problems
}

/// What one run of one workload reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metric name → value, for the metrics of this run's mode.
    pub values: BTreeMap<&'static str, f64>,
    /// Printed beside a metric: the sample counts behind a percentile.
    pub notes: BTreeMap<&'static str, String>,
    /// Commands due at least one SLO before the end of the run.
    pub attempted: u64,
    /// Of those, commands lost or still uncommitted at the end.
    pub failed: u64,
    /// Failed output checks; the run is correct when there are none.
    pub problems: Vec<String>,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Check the report against the catalogue: every metric of `expected`
    /// present and finite, nothing extra. Failures become problems.
    pub fn validate(&mut self, expected: &[Metric]) {
        for m in expected {
            match self.values.get(m.name) {
                None => self.problems.push(format!("metric {} is missing", m.name)),
                Some(v) if !v.is_finite() => self
                    .problems
                    .push(format!("metric {} is not finite: {v}", m.name)),
                Some(_) => {}
            }
        }
        let extra: Vec<&str> = self
            .values
            .keys()
            .filter(|k| !expected.iter().any(|m| m.name == **k))
            .copied()
            .collect();
        for name in extra {
            self.problems
                .push(format!("metric {name} is not in the catalogue"));
        }
    }

    /// One `workload/name value unit` line per metric, in catalogue order.
    pub fn lines(&self, workload: &str, expected: &[Metric]) -> Vec<String> {
        expected
            .iter()
            .filter_map(|m| {
                let v = self.values.get(m.name)?;
                let note = self
                    .notes
                    .get(m.name)
                    .map_or(String::new(), |n| format!(" {n}"));
                Some(format!("{workload}/{} {v} {}{note}", m.name, m.unit))
            })
            .collect()
    }

    /// The driver's result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self, expected: &[Metric]) -> String {
        let metrics = expected
            .iter()
            .filter_map(|m| {
                let v = *self.values.get(m.name)?;
                Some((
                    m.name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::Num(Number::F64(v))),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                ))
            })
            .collect();
        let doc = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            (
                "attempted".into(),
                Value::Num(Number::U64(self.attempted.max(1))),
            ),
            ("failed".into(), Value::Num(Number::U64(self.failed))),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&doc).expect("result object serializes")
    }
}
