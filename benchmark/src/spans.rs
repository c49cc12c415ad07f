//! Benchmark-side spans: one span around each call into a layer, recorded
//! from the benchmark's own files (the program under test is not touched).
//! Spans are kept in memory and written out once, when the workload ends.

use serde::{Number, Value};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name (`generate`, `place`, `run`, ...).
    pub name: &'static str,
    /// Start, microseconds since the recorder was created.
    pub start_us: u64,
    /// End, microseconds since the recorder was created.
    pub end_us: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// The in-memory span recorder of one traced workload run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through the
    /// recorder it is handed become children.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time (duration minus the part covered by child spans) of
    /// every span called `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut total_us = 0u64;
        for (id, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            // Children of one parent never overlap: `scope` nests strictly.
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end_us - c.start_us)
                .sum();
            total_us += (span.end_us - span.start_us).saturating_sub(children);
        }
        total_us as f64 / 1e3
    }

    /// The spans as a Chrome/Perfetto `trace_event` document, with `extra`
    /// attached under `metadata` (the traced run's per-layer numbers).
    pub fn to_trace_json(&self, workload: &str, extra: Vec<(String, Value)>) -> String {
        let num = |v: u64| Value::Num(Number::U64(v));
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or(Value::Null, |p| num(p as u64));
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str("benchmark".into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), num(s.start_us)),
                    ("dur".into(), num(s.end_us - s.start_us)),
                    ("pid".into(), num(0)),
                    ("tid".into(), num(0)),
                    (
                        "args".into(),
                        Value::Map(vec![
                            ("id".into(), num(id as u64)),
                            ("parent".into(), parent),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Map(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            (
                "metadata".into(),
                Value::Map(
                    std::iter::once(("workload".to_string(), Value::Str(workload.into())))
                        .chain(extra)
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string(&doc).expect("span document serializes")
    }
}
