//! Each workload runs in a child process of the one binary
//! (`--workload W ...`), so peak resident set and allocator counts are per
//! workload and nothing leaks from one into the next.

use crate::workloads::Options;
use serde::Value;
use std::process::{Command, Stdio};

/// What a child run printed.
pub struct ChildRun {
    /// Its `workload/name value unit` lines (and any `PROBLEM` lines).
    pub lines: Vec<String>,
    /// The result object of its last line, when it printed one.
    pub result: Option<Value>,
    /// True when it exited with code 0.
    pub success: bool,
}

impl ChildRun {
    /// Metric name → value, from the result object.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let Some(Value::Map(metrics)) = self.result.as_ref().and_then(|r| r.get("metrics")) else {
            return Vec::new();
        };
        metrics
            .iter()
            .filter_map(|(name, m)| match m.get("value") {
                Some(Value::Num(v)) => Some((name.clone(), v.as_f64())),
                _ => None,
            })
            .collect()
    }
}

/// Run one workload in a child of this executable and collect its output.
/// The child's stderr passes through.
pub fn run_workload(workload: &str, opts: Options) -> std::io::Result<ChildRun> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.smoke {
        command.arg("--smoke");
    }
    let output = command.spawn()?.wait_with_output()?;
    let mut lines: Vec<String> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    let result = match lines.last() {
        Some(last) if last.starts_with('{') => serde_json::from_str::<Value>(last).ok(),
        _ => None,
    };
    if result.is_some() {
        lines.pop();
    }
    Ok(ChildRun {
        lines,
        result,
        success: output.status.success(),
    })
}
