//! Workload description.
//!
//! The paper's throughput experiments keep the leader saturated: clients are
//! co-located with replicas (zero latency) and replicas batch requests into
//! blocks of 1000 empty commands (§7.3). [`TrafficSpec`] describes the
//! *open-loop* alternative: an offered load — an [`ArrivalProcess`], a
//! client population, a size-or-timeout [`BatchingPolicy`], and a bounded
//! admission queue with an SLO deadline. The spec is pure data (this crate
//! stays sampling-free); the `traffic` crate compiles it into the per-run
//! arrival schedule and admission queue the substrates consume, and
//! provides the saturated workload as a queue of its own.

use runtime::Duration;

/// An open-loop arrival process: how request inter-arrival times are drawn.
/// Rates are in commands per second of virtual time; sampling lives in the
/// `traffic` crate (this is the declarative description a scenario carries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant rate (exponential inter-arrivals).
    Poisson {
        /// Offered load in commands per second.
        rate: f64,
    },
    /// Bursty on/off traffic: Poisson at `rate` during `on`, silent during
    /// `off`, repeating. The long-run mean rate is `rate · on / (on + off)`.
    OnOff {
        /// Offered load during the on-phase.
        rate: f64,
        /// Length of the on-phase.
        on: Duration,
        /// Length of the off-phase.
        off: Duration,
    },
}

impl ArrivalProcess {
    /// The long-run mean rate.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::OnOff { rate, on, off } => {
                let cycle = on.as_secs_f64() + off.as_secs_f64();
                if cycle == 0.0 {
                    rate
                } else {
                    rate * on.as_secs_f64() / cycle
                }
            }
        }
    }

    /// Compact label for sweep-axis names, e.g. `poisson@2000`.
    pub fn label(&self) -> String {
        match *self {
            ArrivalProcess::Poisson { rate } => format!("poisson@{rate:.0}"),
            ArrivalProcess::OnOff { rate, .. } => format!("onoff@{rate:.0}"),
        }
    }
}

/// The leader-side size-or-timeout batching rule: a batch is flushed when it
/// reaches `max_batch` commands *or* the oldest queued command has waited
/// `max_delay`, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchingPolicy {
    /// Commands per batch at the size threshold.
    pub max_batch: usize,
    /// Longest a queued command may wait before a partial batch is flushed.
    pub max_delay: Duration,
}

impl Default for BatchingPolicy {
    fn default() -> Self {
        BatchingPolicy {
            max_batch: 1000,
            max_delay: Duration::from_millis(50),
        }
    }
}

/// A declarative open-loop traffic workload: the offered-load counterpart of
/// the paper's saturated batches. Pure data — the `traffic` crate turns it
/// into a seeded arrival schedule and a leader-side admission queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// The arrival process generating requests.
    pub arrivals: ArrivalProcess,
    /// Number of geo-distributed clients the arrivals are spread over.
    pub clients: usize,
    /// The leader-side batching rule.
    pub batching: BatchingPolicy,
    /// Admission-queue bound: arrivals beyond this are rejected
    /// (backpressure) instead of queued.
    pub queue_capacity: usize,
    /// End-to-end deadline: commands whose client-observed latency exceeds
    /// it do not count towards *goodput*.
    pub slo: Duration,
    /// How many times a client re-submits a command whose batch was dropped
    /// (e.g. by a tree reconfiguration discarding in-flight views) before
    /// giving up. Retried commands re-enter the admission queue and are
    /// accounted once, with their original send time.
    pub max_retries: u32,
}

impl TrafficSpec {
    /// Poisson arrivals at `rate` commands/s with library defaults:
    /// 64 clients, 1000/50 ms batching, a 10 000-command queue, 1 s SLO,
    /// 3 client retries for dropped batches.
    pub fn poisson(rate: f64) -> Self {
        TrafficSpec {
            arrivals: ArrivalProcess::Poisson { rate },
            clients: 64,
            batching: BatchingPolicy::default(),
            queue_capacity: 10_000,
            slo: Duration::from_secs(1),
            max_retries: 3,
        }
    }

    /// Replace the arrival process.
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Override the client-population size.
    pub fn with_clients(mut self, clients: usize) -> Self {
        assert!(clients > 0, "traffic needs at least one client");
        self.clients = clients;
        self
    }

    /// Override the batching rule.
    pub fn with_batching(mut self, max_batch: usize, max_delay: Duration) -> Self {
        assert!(max_batch > 0, "batch size must be positive");
        self.batching = BatchingPolicy {
            max_batch,
            max_delay,
        };
        self
    }

    /// Override the admission-queue bound.
    pub fn with_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Override the goodput SLO deadline.
    pub fn with_slo(mut self, slo: Duration) -> Self {
        self.slo = slo;
        self
    }

    /// Label for sweep-axis names, e.g. `poisson@2000`.
    pub fn label(&self) -> String {
        self.arrivals.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_process_rates() {
        let p = ArrivalProcess::Poisson { rate: 1000.0 };
        assert_eq!(p.mean_rate(), 1000.0);

        let oo = ArrivalProcess::OnOff {
            rate: 2000.0,
            on: Duration::from_secs(1),
            off: Duration::from_secs(3),
        };
        assert_eq!(oo.mean_rate(), 500.0);
    }

    #[test]
    fn traffic_spec_builders_and_labels() {
        let t = TrafficSpec::poisson(2000.0)
            .with_clients(32)
            .with_batching(200, Duration::from_millis(25))
            .with_capacity(4000)
            .with_slo(Duration::from_millis(800));
        assert_eq!(t.clients, 32);
        assert_eq!(t.batching.max_batch, 200);
        assert_eq!(t.batching.max_delay.as_millis(), 25);
        assert_eq!(t.queue_capacity, 4000);
        assert_eq!(t.slo.as_millis(), 800);
        assert_eq!(t.label(), "poisson@2000");
        assert_eq!(
            t.with_arrivals(ArrivalProcess::OnOff {
                rate: 90.0,
                on: Duration::from_secs(1),
                off: Duration::from_secs(4)
            })
            .label(),
            "onoff@90"
        );
    }
}
