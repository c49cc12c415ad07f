//! Order statistics and timeline readings shared by the workloads, the
//! self-check and the tests.

/// Nearest-rank percentile `q ∈ (0, 1]` of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`
/// percentile — the figure printed beside each percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver computes spreads from. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// The longest interval inside `[from_s, until_s]` with no commit, given the
/// ascending commit instants (seconds). The stretch before the first commit
/// and after the last one count: requests were due then too.
pub fn outage_s(commit_times_s: &[f64], from_s: f64, until_s: f64) -> f64 {
    let mut last = from_s;
    let mut longest = 0.0f64;
    for &t in commit_times_s {
        if t < from_s {
            continue;
        }
        if t > until_s {
            break;
        }
        longest = longest.max(t - last);
        last = t;
    }
    longest.max(until_s - last)
}

/// Seconds from the attack's onset to the first reconfiguration at or after
/// it; 0 when no reconfiguration followed.
pub fn detect_s(reconfiguration_times_s: &[f64], onset_s: f64) -> f64 {
    reconfiguration_times_s
        .iter()
        .copied()
        .filter(|&t| t >= onset_s)
        .fold(None, |first: Option<f64>, t| {
            Some(first.map_or(t, |f| f.min(t)))
        })
        .map_or(0.0, |t| t - onset_s)
}
