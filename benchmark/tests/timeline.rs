//! The timeline readings and order statistics on inputs with known answers.

use optilog_benchmark::spans::Spans;
use optilog_benchmark::stats::{
    detect_s, median, outage_s, percentile, quartiles, samples_beyond, spread,
};

#[test]
fn outage_is_the_longest_gap_including_both_ends_of_the_window() {
    // Commits every 0.1 s from 0.5 s to 3.0 s, then nothing until 7.5 s.
    let mut commits: Vec<f64> = (5..=30).map(|i| i as f64 / 10.0).collect();
    commits.extend((75..=99).map(|i| i as f64 / 10.0));
    assert!(
        (outage_s(&commits, 0.0, 10.0) - 4.5).abs() < 1e-9,
        "the known gap"
    );
    // A late first commit is an outage too …
    assert!((outage_s(&[6.0, 6.1], 0.0, 7.0) - 6.0).abs() < 1e-9);
    // … and so is dying before the window closes.
    assert!((outage_s(&[0.1, 0.2], 0.0, 7.0) - 6.8).abs() < 1e-9);
    // No commit at all: the whole window.
    assert_eq!(outage_s(&[], 2.0, 7.0), 5.0);
    // Commits outside the window do not count.
    assert!((outage_s(&[1.0, 4.0, 9.0], 3.0, 8.0) - 4.0).abs() < 1e-9);
}

#[test]
fn detection_is_onset_to_the_first_reconfiguration_after_it() {
    assert!((detect_s(&[12.0, 40.5, 38.25, 90.0], 35.0) - 3.25).abs() < 1e-9);
    assert_eq!(detect_s(&[12.0], 35.0), 0.0, "nothing followed the onset");
    assert_eq!(detect_s(&[], 35.0), 0.0);
}

#[test]
fn quartiles_match_pythons_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    assert_eq!(median(&ten), 5.5);
    assert!((spread(&ten) - 1.0).abs() < 1e-12);
    // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
}

#[test]
fn percentiles_are_nearest_rank_with_their_sample_counts() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 0.5), 50.0);
    assert_eq!(percentile(&hundred, 0.99), 99.0);
    assert_eq!(percentile(&hundred, 1.0), 100.0);
    assert_eq!(samples_beyond(100, 0.99), 1);
    assert_eq!(samples_beyond(100_000, 0.99), 1000);
    assert_eq!(percentile(&[], 0.5), 0.0);
    assert_eq!(samples_beyond(0, 0.99), 0);
}

#[test]
fn span_self_time_excludes_what_children_cover() {
    let mut spans = Spans::new();
    let pause = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
    spans.scope("workload", |spans| {
        pause(5);
        spans.scope("run", |_| pause(20));
        spans.scope("audit", |_| pause(5));
    });
    let all = spans.spans();
    assert_eq!(all.len(), 3);
    assert_eq!(all[0].parent, None);
    assert_eq!((all[1].parent, all[2].parent), (Some(0), Some(0)));
    let (root, run) = (spans.self_ms("workload"), spans.self_ms("run"));
    assert!(run >= 20.0, "run lasted {run} ms");
    assert!(
        (5.0..20.0).contains(&root),
        "root self time {root} ms leaves its children out"
    );
    assert_eq!(spans.self_ms("nothing"), 0.0);
    let doc = spans.to_trace_json("w", Vec::new());
    assert!(
        doc.starts_with("{\"traceEvents\":[{\"name\":\"workload\""),
        "{doc}"
    );
}
