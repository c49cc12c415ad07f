//! Seeded samplers for the open-loop arrival processes.
//!
//! [`ArrivalSampler`] turns a declarative [`rsm::ArrivalProcess`] into a
//! deterministic stream of arrival instants. The Poisson process samples
//! exponential inter-arrivals directly; the on/off process samples in
//! "active time" and maps it onto the on-windows of the duty cycle.

use rand::distributions::{Distribution, Exp};
use rand::rngs::StdRng;
use rsm::ArrivalProcess;

/// A deterministic arrival-instant generator for one process.
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    /// Current wall-clock position in seconds of virtual time.
    t: f64,
}

impl ArrivalSampler {
    /// Start the process at `t = 0`.
    pub fn new(process: ArrivalProcess) -> Self {
        ArrivalSampler { process, t: 0.0 }
    }

    /// The next arrival instant in seconds of virtual time, advancing the
    /// sampler. Returns `None` only for an on/off process with an empty
    /// on-phase, which never produces an arrival.
    pub fn next_arrival(&mut self, rng: &mut StdRng) -> Option<f64> {
        match self.process {
            ArrivalProcess::Poisson { rate } => {
                self.t += Exp::new(rate).sample(rng);
                Some(self.t)
            }
            ArrivalProcess::OnOff { rate, on, off } => {
                let (on_us, off_us) = (on.as_micros(), off.as_micros());
                if on_us == 0 {
                    return None;
                }
                if off_us == 0 {
                    self.t += Exp::new(rate).sample(rng);
                    return Some(self.t);
                }
                // Draw the wait in active (on-phase) time, then map it onto
                // the duty cycle's on-windows. The walk uses integer
                // microseconds: accumulating float remainders can crawl by
                // denormal steps at a cycle boundary and never terminate.
                let cycle_us = on_us + off_us;
                let mut active = Exp::new(rate).sample(rng);
                let mut t_us = (self.t * 1e6).round() as u64;
                loop {
                    let pos = t_us % cycle_us;
                    if pos >= on_us {
                        // In the off-phase: jump to the next on-window.
                        t_us += cycle_us - pos;
                        continue;
                    }
                    let remaining_on = (on_us - pos) as f64 / 1e6;
                    if active < remaining_on {
                        // The µs round-trip can land a hair before the
                        // previous arrival; clamp to keep the stream monotone.
                        self.t = (t_us as f64 / 1e6 + active).max(self.t);
                        return Some(self.t);
                    }
                    active -= remaining_on;
                    t_us += on_us - pos;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use runtime::Duration;

    fn count_until(process: ArrivalProcess, horizon: f64, seed: u64) -> usize {
        let mut sampler = ArrivalSampler::new(process);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut count = 0;
        while let Some(t) = sampler.next_arrival(&mut rng) {
            if t >= horizon {
                break;
            }
            count += 1;
        }
        count
    }

    fn trace(process: ArrivalProcess, horizon: f64, seed: u64) -> Vec<f64> {
        let mut sampler = ArrivalSampler::new(process);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        while let Some(t) = sampler.next_arrival(&mut rng) {
            if t >= horizon {
                break;
            }
            out.push(t);
        }
        out
    }

    #[test]
    fn every_process_is_seed_deterministic_and_monotone() {
        let processes = [
            ArrivalProcess::Poisson { rate: 500.0 },
            ArrivalProcess::OnOff {
                rate: 800.0,
                on: Duration::from_secs(2),
                off: Duration::from_secs(3),
            },
        ];
        for p in processes {
            let a = trace(p, 30.0, 11);
            let b = trace(p, 30.0, 11);
            assert_eq!(a, b, "{p:?} must be seed-deterministic");
            assert_ne!(a, trace(p, 30.0, 12), "{p:?} must vary with the seed");
            assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "{p:?} arrivals must be monotone"
            );
        }
    }

    #[test]
    fn each_process_hits_its_mean_rate_within_tolerance() {
        let horizon = 120.0;
        let cases = [
            (ArrivalProcess::Poisson { rate: 500.0 }, 500.0),
            (
                ArrivalProcess::OnOff {
                    rate: 1000.0,
                    on: Duration::from_secs(1),
                    off: Duration::from_secs(4),
                },
                200.0,
            ),
        ];
        for (p, expect) in cases {
            let rate = count_until(p, horizon, 5) as f64 / horizon;
            assert!(
                (rate - expect).abs() < expect * 0.05,
                "{p:?}: observed {rate:.1}/s, expected {expect:.1}/s"
            );
            // Declared mean agrees with the sampler.
            assert!((p.mean_rate() - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn onoff_is_silent_during_the_off_phase() {
        let p = ArrivalProcess::OnOff {
            rate: 1000.0,
            on: Duration::from_secs(1),
            off: Duration::from_secs(2),
        };
        for t in trace(p, 30.0, 3) {
            assert!(
                t.rem_euclid(3.0) < 1.0,
                "arrival at {t} falls in an off-phase"
            );
        }
    }
}
