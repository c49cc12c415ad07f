//! `BENCHMARK.json` and the catalogue in `src/metrics.rs` say the same
//! thing, and both stay inside the driver's limits.

use optilog_benchmark::metrics::{
    catalogue_problems, Metric, Report, END_TO_END, PER_LAYER, WORKLOADS,
};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn assert_same_metric(entry: &Value, metric: &Metric) {
    assert_eq!(text(entry, "name"), metric.name);
    assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
    let better = if metric.higher_is_better {
        "higher"
    } else {
        "lower"
    };
    assert_eq!(text(entry, "better"), better, "{}", metric.name);
    assert!(metric.unit.len() <= 16);
}

#[test]
fn catalogue_meets_the_contract() {
    assert_eq!(catalogue_problems(), Vec::<String>::new());
    assert!((2..=8).contains(&WORKLOADS.len()));
    for (name, why) in WORKLOADS {
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one line of at most 200"
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|(m, _)| (m.name, m.unit, m.higher_is_better) == ("setup_s", "s", false)));
}

#[test]
fn benchmark_json_states_the_catalogue() {
    let doc = benchmark_json();
    let Value::Map(keys) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(items(&doc, "paths"), [Value::Str("benchmark".into())]);

    let workloads = items(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!((text(entry, "name"), text(entry, "why")), (name, why));
    }
    let end_to_end = items(&doc, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, (metric, bound)) in end_to_end.iter().zip(END_TO_END) {
        assert_same_metric(entry, &metric);
        let Some(Value::Num(stated)) = entry.get("bound") else {
            panic!("{}: no bound", metric.name)
        };
        assert_eq!(stated.as_f64(), bound, "{}", metric.name);
    }
    let per_layer = items(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, metric) in per_layer.iter().zip(PER_LAYER) {
        assert_same_metric(entry, &metric);
    }
}

#[test]
fn validator_flags_missing_extra_and_non_finite_metrics() {
    let expected: Vec<Metric> = END_TO_END.iter().map(|&(m, _)| m).collect();
    let mut report = Report::default();
    for m in &expected {
        report.set(m.name, 1.0);
    }
    report.validate(&expected);
    assert!(report.correct(), "{:?}", report.problems);
    assert_eq!(report.lines("w", &expected)[0], "w/setup_s 1 s");

    report.set("e2e_p95_ms", f64::NAN);
    report.values.remove("setup_s");
    report.set("outage_s", 0.5);
    report.validate(&expected);
    let problems = report.problems.join("\n");
    assert!(problems.contains("setup_s is missing"), "{problems}");
    assert!(problems.contains("e2e_p95_ms is not finite"), "{problems}");
    assert!(
        problems.contains("outage_s is not in the catalogue"),
        "{problems}"
    );
    assert!(report.to_json(&expected).starts_with("{\"correct\":false,"));
}
