//! The per-run metrics registry: counters, gauges, and log-linear
//! histograms, keyed by a `crate.subsystem.name` metric name plus an
//! optional replica label.
//!
//! All storage is `BTreeMap`-ordered, so draining the registry — into the
//! lab's `BENCH_*.json` cell metrics or into the Prometheus text dump — is
//! independent of recording order and of the sweep's worker count.

use crate::hist::LogLinearHistogram;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A metric key: dotted `crate.subsystem.name` plus an optional replica.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Dotted metric name (`traffic.queue.rejected`).
    pub name: String,
    /// Per-replica label; `None` for run-global metrics.
    pub replica: Option<usize>,
}

impl MetricKey {
    fn new(name: &str, replica: Option<usize>) -> Self {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_'),
            "metric names are dotted ascii: {name:?}"
        );
        MetricKey {
            name: name.to_string(),
            replica,
        }
    }

    /// Prometheus-style rendering: dots become underscores, `suffix` (e.g.
    /// `_total`) attaches to the name, and the replica label (if any) goes
    /// into the label set after it.
    fn prometheus(&self, suffix: &str) -> String {
        self.prometheus_labelled(suffix, &[])
    }

    /// Like [`MetricKey::prometheus`], with `extra` labels appended after
    /// the replica label. Label values go through the exposition-format
    /// escaping rules.
    fn prometheus_labelled(&self, suffix: &str, extra: &[(&str, &str)]) -> String {
        let base = self.name.replace('.', "_");
        let mut labels = Vec::new();
        if let Some(r) = self.replica {
            labels.push(format!("replica=\"{r}\""));
        }
        for (k, v) in extra {
            labels.push(format!("{k}=\"{}\"", escape_label_value(v)));
        }
        if labels.is_empty() {
            format!("{base}{suffix}")
        } else {
            format!("{base}{suffix}{{{}}}", labels.join(","))
        }
    }

    /// The metric family name in exposition form (dots → underscores).
    fn family(&self) -> String {
        self.name.replace('.', "_")
    }
}

/// A borrowed view of a metric key, so the record path can look a key up
/// from the `(&str, Option<usize>)` it was handed instead of building a
/// [`MetricKey`] (and its `String`) per call. Ordered exactly like
/// `MetricKey`'s derived `Ord` — name, then replica — which is what lets the
/// maps keyed by `MetricKey` be searched through it.
trait KeyView {
    fn name(&self) -> &str;
    fn replica(&self) -> Option<usize>;
}

impl KeyView for MetricKey {
    fn name(&self) -> &str {
        &self.name
    }
    fn replica(&self) -> Option<usize> {
        self.replica
    }
}

impl KeyView for (&str, Option<usize>) {
    fn name(&self) -> &str {
        self.0
    }
    fn replica(&self) -> Option<usize> {
        self.1
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for MetricKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn KeyView + '_ {}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.name(), self.replica()).cmp(&(other.name(), other.replica()))
    }
}

/// Apply `f` to the value stored under `(name, replica)`, inserting `init`
/// first if the key is new — the only time the key's `String` is allocated.
fn upsert<V>(
    map: &mut BTreeMap<MetricKey, V>,
    name: &str,
    replica: Option<usize>,
    init: V,
    f: impl FnOnce(&mut V),
) {
    let view: &dyn KeyView = &(name, replica);
    match map.get_mut(view) {
        Some(v) => f(v),
        None => f(map.entry(MetricKey::new(name, replica)).or_insert(init)),
    }
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and line feed must be backslash-escaped.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escape a `# HELP` text: backslash and line feed are escaped (quotes are
/// legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// The registry of one run.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    hists: BTreeMap<MetricKey, LogLinearHistogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a counter.
    pub fn counter_add(&mut self, name: &str, replica: Option<usize>, delta: u64) {
        upsert(&mut self.counters, name, replica, 0, |c| *c += delta);
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, replica: Option<usize>, v: f64) {
        upsert(&mut self.gauges, name, replica, v, |g| *g = v);
    }

    /// Raise a gauge to `v` if above its current value (high-water marks).
    pub fn gauge_max(&mut self, name: &str, replica: Option<usize>, v: f64) {
        upsert(&mut self.gauges, name, replica, f64::MIN, |g| {
            if v > *g {
                *g = v;
            }
        });
    }

    /// Record one observation into a histogram.
    pub fn observe(&mut self, name: &str, replica: Option<usize>, v: u64) {
        upsert(
            &mut self.hists,
            name,
            replica,
            LogLinearHistogram::new(),
            |h| h.record(v),
        );
    }

    /// Record every value of `values` into one histogram, as one
    /// [`Registry::observe`] per value would, but with one key lookup for
    /// the lot: on a key the registry already holds, nothing is allocated.
    /// Unlike no `observe` call at all, an empty `values` still creates the
    /// key, so callers pass a non-empty batch.
    pub fn observe_each(
        &mut self,
        name: &str,
        replica: Option<usize>,
        values: impl IntoIterator<Item = u64>,
    ) {
        upsert(
            &mut self.hists,
            name,
            replica,
            LogLinearHistogram::new(),
            |h| values.into_iter().for_each(|v| h.record(v)),
        );
    }

    /// A counter's current value (0 if never touched).
    pub fn counter(&self, name: &str, replica: Option<usize>) -> u64 {
        let view: &dyn KeyView = &(name, replica);
        self.counters.get(view).copied().unwrap_or(0)
    }

    /// A gauge's current value, if set.
    pub fn gauge(&self, name: &str, replica: Option<usize>) -> Option<f64> {
        let view: &dyn KeyView = &(name, replica);
        self.gauges.get(view).copied()
    }

    /// A histogram by key, if any observation landed in it.
    pub fn histogram(&self, name: &str, replica: Option<usize>) -> Option<&LogLinearHistogram> {
        let view: &dyn KeyView = &(name, replica);
        self.hists.get(view)
    }

    /// Merge all histograms sharing `name` across replica labels — the
    /// cross-replica view whose quantiles are merge-order independent.
    pub fn merged_histogram(&self, name: &str) -> LogLinearHistogram {
        let mut out = LogLinearHistogram::new();
        for (k, h) in &self.hists {
            if k.name == name {
                out.merge(h);
            }
        }
        out
    }

    /// Fold another registry into this one (counters add, gauges take the
    /// max, histograms merge).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(f64::MIN);
            if *v > *e {
                *e = *v;
            }
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Iterate gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> + '_ {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// Iterate histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &LogLinearHistogram)> + '_ {
        self.hists.iter()
    }

    /// Render the registry in Prometheus text exposition format, one
    /// `# HELP` / `# TYPE` header per metric family followed by its samples
    /// in replica-label order. Counters become `<name>_total`, gauges render
    /// plainly, and histograms expose the standard cumulative `le`-labelled
    /// `_bucket` series (bounds are the log-linear bucket upper bounds, plus
    /// the implicit `+Inf`) with exact `_sum` / `_count` — the mergeable
    /// buckets mean a scrape never needs raw samples.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let header = |out: &mut String, family: &str, kind: &str, name: &str| {
            out.push_str(&format!(
                "# HELP {family} {}\n# TYPE {family} {kind}\n",
                escape_help(&format!("{kind} {name} recorded by this run"))
            ));
        };
        let mut last_family = String::new();
        for (k, v) in &self.counters {
            let family = format!("{}_total", k.family());
            if family != last_family {
                header(&mut out, &family, "counter", &k.name);
                last_family = family;
            }
            out.push_str(&format!("{} {}\n", k.prometheus("_total"), v));
        }
        last_family.clear();
        for (k, v) in &self.gauges {
            let family = k.family();
            if family != last_family {
                header(&mut out, &family, "gauge", &k.name);
                last_family = family;
            }
            out.push_str(&format!("{} {}\n", k.prometheus(""), v));
        }
        last_family.clear();
        for (k, h) in &self.hists {
            let family = k.family();
            if family != last_family {
                header(&mut out, &family, "histogram", &k.name);
                last_family = family;
            }
            for (le, cum) in h.cumulative_buckets() {
                let bound = le.to_string();
                out.push_str(&format!(
                    "{} {}\n",
                    k.prometheus_labelled("_bucket", &[("le", &bound)]),
                    cum
                ));
            }
            out.push_str(&format!(
                "{} {}\n",
                k.prometheus_labelled("_bucket", &[("le", "+Inf")]),
                h.count()
            ));
            out.push_str(&format!("{} {}\n", k.prometheus("_sum"), h.sum()));
            out.push_str(&format!("{} {}\n", k.prometheus("_count"), h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let mut r = Registry::new();
        r.counter_add("a.b.c", None, 2);
        r.counter_add("a.b.c", None, 3);
        r.counter_add("a.b.c", Some(1), 7);
        r.gauge_set("a.b.depth", Some(0), 4.0);
        r.gauge_max("a.b.depth", Some(0), 9.0);
        r.gauge_max("a.b.depth", Some(0), 2.0);
        r.observe("a.b.lat_us", Some(0), 100);
        r.observe("a.b.lat_us", Some(1), 300);
        assert_eq!(r.counter("a.b.c", None), 5);
        assert_eq!(r.counter("a.b.c", Some(1)), 7);
        assert_eq!(r.gauge("a.b.depth", Some(0)), Some(9.0));
        assert_eq!(r.merged_histogram("a.b.lat_us").count(), 2);
        assert_eq!(r.histogram("a.b.lat_us", Some(0)).unwrap().count(), 1);
    }

    #[test]
    fn prometheus_text_is_sorted_and_labelled() {
        let mut r = Registry::new();
        r.counter_add("z.last", None, 1);
        r.counter_add("a.first", Some(3), 2);
        r.observe("m.hist_us", Some(0), 50);
        let text = r.prometheus_text();
        let a = text
            .find("a_first_total{replica=\"3\"} 2")
            .expect("labelled counter");
        let z = text.find("z_last_total 1").expect("plain counter");
        assert!(a < z, "counters render in key order");
        assert!(text.contains("m_hist_us_count{replica=\"0\"} 1"));
        assert!(text.contains("m_hist_us_bucket{replica=\"0\",le=\"+Inf\"} 1"));
    }

    /// Format-conformance pin: HELP/TYPE headers precede each family's
    /// samples, histogram buckets are cumulative `le` series ending at
    /// `+Inf` with exact `_sum`/`_count`, and label values are escaped.
    #[test]
    fn prometheus_text_conforms_to_exposition_format() {
        let mut r = Registry::new();
        r.counter_add("a.commits", Some(0), 4);
        r.counter_add("a.commits", Some(1), 6);
        r.gauge_set("a.depth", None, 7.5);
        for v in [10u64, 20, 20, 5_000] {
            r.observe("a.lat_us", Some(2), v);
        }
        let text = r.prometheus_text();
        let lines: Vec<&str> = text.lines().collect();

        // Exactly one HELP and one TYPE per family, before its samples.
        for family in ["a_commits_total", "a_depth", "a_lat_us"] {
            let help = lines
                .iter()
                .position(|l| l.starts_with(&format!("# HELP {family} ")))
                .unwrap_or_else(|| panic!("no HELP for {family}"));
            let ty = lines
                .iter()
                .position(|l| l.starts_with(&format!("# TYPE {family} ")))
                .unwrap_or_else(|| panic!("no TYPE for {family}"));
            let first_sample = lines
                .iter()
                .position(|l| !l.starts_with('#') && l.starts_with(family))
                .unwrap_or_else(|| panic!("no samples for {family}"));
            assert!(
                help < first_sample && ty < first_sample,
                "{family} headers lead"
            );
        }
        assert!(text.contains("# TYPE a_commits_total counter"));
        assert!(text.contains("# TYPE a_depth gauge"));
        assert!(text.contains("# TYPE a_lat_us histogram"));
        assert!(text.contains("a_commits_total{replica=\"0\"} 4"));
        assert!(text.contains("a_commits_total{replica=\"1\"} 6"));

        // Cumulative buckets: monotone counts, +Inf bucket equals _count,
        // every bound ≥ the largest value below it.
        let buckets: Vec<(f64, u64)> = lines
            .iter()
            .filter(|l| l.starts_with("a_lat_us_bucket"))
            .map(|l| {
                let le = l.split("le=\"").nth(1).unwrap().split('"').next().unwrap();
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                };
                (le, l.rsplit(' ').next().unwrap().parse().unwrap())
            })
            .collect();
        assert!(buckets.len() >= 2);
        assert!(buckets
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(buckets.last().unwrap().0, f64::INFINITY);
        assert_eq!(buckets.last().unwrap().1, 4);
        assert!(text.contains("a_lat_us_sum{replica=\"2\"} 5050"));
        assert!(text.contains("a_lat_us_count{replica=\"2\"} 4"));

        // Label-value escaping.
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn registry_merge_is_order_independent() {
        let mk = |vals: &[u64]| {
            let mut r = Registry::new();
            for &v in vals {
                r.counter_add("c.n", None, 1);
                r.observe("h.us", Some((v % 3) as usize), v);
            }
            r
        };
        let (a, b, c) = (mk(&[1, 5, 9]), mk(&[2, 200]), mk(&[77]));
        let mut ab_c = Registry::new();
        for r in [&a, &b, &c] {
            ab_c.merge(r);
        }
        let mut c_b_a = Registry::new();
        for r in [&c, &b, &a] {
            c_b_a.merge(r);
        }
        assert_eq!(ab_c.prometheus_text(), c_b_a.prometheus_text());
    }
}
