//! Host-side readings: process CPU time, peak resident set, and the cost of
//! a measured section (wall, CPU, heap allocations).

use crate::alloc;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ` is
/// 100 on every Linux ABI this repository builds for.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (tick() + tick()) / CLK_TCK
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

/// What one measured section cost the host.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process user + system CPU seconds.
    pub cpu_s: f64,
    /// Heap allocations made.
    pub allocs: u64,
    /// Heap bytes requested.
    pub bytes: u64,
}

/// Run `f` and report what it cost.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (allocs0, bytes0) = alloc::totals();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let (allocs1, bytes1) = alloc::totals();
    let cost = Cost {
        wall_s,
        cpu_s,
        allocs: allocs1 - allocs0,
        bytes: bytes1 - bytes0,
    };
    (out, cost)
}
