//! Geographic topologies for scenarios: the paper's evaluation deployments
//! plus the replica-count override that turns one into a scenario axis.

use netsim::CityDataset;

/// The geographic deployments used in the evaluation (§7.3, §7.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// 21 European cities.
    Europe21,
    /// 43 cities across Europe and North America.
    NaEu43,
    /// 56 cities approximating the Stellar validator distribution.
    Stellar56,
    /// 73 cities worldwide.
    Global73,
    /// Replicas drawn at random from all 220 cities (Fig 10, Fig 12, Fig 14).
    WorldRandom,
    /// Replicas drawn at random from all 220 cities, one city per replica.
    WorldDistinct,
}

impl Deployment {
    /// Human-readable label matching the paper's x-axis.
    pub fn label(&self) -> &'static str {
        match self {
            Deployment::Europe21 => "Europe21",
            Deployment::NaEu43 => "NA-EU43",
            Deployment::Stellar56 => "Stellar56",
            Deployment::Global73 => "Global73",
            Deployment::WorldRandom => "World(random)",
            Deployment::WorldDistinct => "World(distinct)",
        }
    }

    /// Default configuration size for the deployment.
    pub fn default_n(&self) -> usize {
        match self {
            Deployment::Europe21 => 21,
            Deployment::NaEu43 => 43,
            Deployment::Stellar56 => 56,
            Deployment::Global73 => 73,
            Deployment::WorldRandom | Deployment::WorldDistinct => 211,
        }
    }

    /// The city subset this deployment draws from.
    pub fn city_subset(&self, ds: &CityDataset) -> Vec<usize> {
        match self {
            Deployment::Europe21 => ds.europe21(),
            Deployment::NaEu43 => ds.na_eu43(),
            Deployment::Stellar56 => ds.stellar56(),
            Deployment::Global73 => ds.global73(),
            Deployment::WorldRandom | Deployment::WorldDistinct => (0..ds.len()).collect(),
        }
    }

    /// The cities `n` replicas of this deployment are placed in (round-robin,
    /// or seeded random draws for the world-wide samples).
    pub fn replica_cities(&self, ds: &CityDataset, n: usize, seed: u64) -> Vec<usize> {
        let subset = self.city_subset(ds);
        match self {
            Deployment::WorldRandom => ds.assign_random(&subset, n, seed),
            Deployment::WorldDistinct => ds.assign_distinct(&subset, n, seed),
            _ => ds.assign_round_robin(&subset, n),
        }
    }

    /// Build the replica-to-replica RTT matrix (ms) for `n` replicas of this
    /// deployment, assigning replicas to cities round-robin (or at random for
    /// the world-wide samples, where `seed` selects the draw). RTTs are
    /// symmetric, so each unordered pair is computed once and mirrored.
    pub fn rtt_matrix(&self, n: usize, seed: u64) -> Vec<f64> {
        let ds = CityDataset::worldwide();
        let assignment = self.replica_cities(&ds, n, seed);
        let mut m = vec![0.0; n * n];
        for a in 0..n {
            for b in a + 1..n {
                let rtt = ds.rtt_ms(assignment[a], assignment[b]);
                m[a * n + b] = rtt;
                m[b * n + a] = rtt;
            }
        }
        m
    }
}

/// One topology axis value of a protocol scenario: a deployment and the
/// number of replicas placed on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// The city sample replicas are assigned to.
    pub deployment: Deployment,
    /// Number of replicas.
    pub n: usize,
}

impl Topology {
    /// A topology of the deployment's default size.
    pub fn of(deployment: Deployment) -> Self {
        Topology {
            deployment,
            n: deployment.default_n(),
        }
    }

    /// Override the replica count.
    pub fn with_n(deployment: Deployment, n: usize) -> Self {
        Topology { deployment, n }
    }

    /// Label, including `n` when it differs from the deployment default.
    pub fn label(&self) -> String {
        if self.n == self.deployment.default_n() {
            self.deployment.label().to_string()
        } else {
            format!("{}/n={}", self.deployment.label(), self.n)
        }
    }

    /// The fault threshold `f = ⌊(n − 1) / 3⌋`.
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// The RTT matrix for this topology (seed matters only for the random
    /// world-wide deployments).
    pub fn rtt_matrix(&self, seed: u64) -> Vec<f64> {
        self.deployment.rtt_matrix(self.n, seed)
    }

    /// Place `clients` open-loop clients on this topology's city subset and
    /// return each client's one-way latency (ms) to its nearest replica —
    /// the ingress leg open-loop requests pay before they can be batched.
    /// `seed` must match the one used for [`Topology::rtt_matrix`] so the
    /// replica placement agrees.
    pub fn client_ingress_ms(&self, clients: usize, seed: u64, placement_seed: u64) -> Vec<f64> {
        self.place_clients(clients, seed, placement_seed)
            .into_iter()
            .map(|p| p.ingress_ms)
            .collect()
    }

    /// Like [`Topology::client_ingress_ms`], but also reports *which*
    /// replica each client enters through — the identity the ingress→leader
    /// forwarding hop is charged against (see [`traffic::ForwardingModel`]).
    pub fn place_clients(
        &self,
        clients: usize,
        seed: u64,
        placement_seed: u64,
    ) -> Vec<traffic::ClientPlacement> {
        let ds = CityDataset::worldwide();
        let subset = self.deployment.city_subset(&ds);
        let replicas = self.deployment.replica_cities(&ds, self.n, seed);
        traffic::place_clients(&ds, &subset, &replicas, clients, placement_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::mean;

    #[test]
    fn deployments_produce_square_matrices() {
        for d in [
            Deployment::Europe21,
            Deployment::NaEu43,
            Deployment::Stellar56,
            Deployment::Global73,
        ] {
            let n = d.default_n();
            let m = d.rtt_matrix(n, 0);
            assert_eq!(m.len(), n * n);
            assert_eq!(m[0], 0.0);
            assert!(m.iter().all(|&x| x.is_finite()));
        }
    }

    #[test]
    fn mirrored_matrix_is_the_per_pair_rtt_in_both_orders() {
        let ds = CityDataset::worldwide();
        let mut cases: Vec<(Deployment, usize, u64)> = [
            Deployment::Europe21,
            Deployment::NaEu43,
            Deployment::Stellar56,
            Deployment::Global73,
        ]
        .into_iter()
        .flat_map(|d| [(d, 7, 12), (d, d.default_n(), 12)])
        .collect();
        for seed in [0, 1, 3, 12] {
            cases.push((Deployment::WorldRandom, 50, seed));
            cases.push((Deployment::WorldDistinct, 60, seed));
        }
        for (d, n, seed) in cases {
            let cities = d.replica_cities(&ds, n, seed);
            let m = d.rtt_matrix(n, seed);
            for a in 0..n {
                for b in 0..n {
                    let (ab, ba) = (
                        ds.rtt_ms(cities[a], cities[b]),
                        ds.rtt_ms(cities[b], cities[a]),
                    );
                    assert_eq!(
                        ab.to_bits(),
                        ba.to_bits(),
                        "{d:?} n={n} seed={seed}: {a}↔{b}"
                    );
                    assert_eq!(
                        m[a * n + b].to_bits(),
                        ab.to_bits(),
                        "{d:?} n={n} seed={seed}: {a}→{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn europe_is_faster_than_global() {
        let e = Deployment::Europe21.rtt_matrix(21, 0);
        let g = Deployment::Global73.rtt_matrix(73, 0);
        assert!(mean(&e) < mean(&g));
    }

    #[test]
    fn world_random_is_seed_dependent() {
        let a = Deployment::WorldRandom.rtt_matrix(50, 1);
        let b = Deployment::WorldRandom.rtt_matrix(50, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn world_distinct_has_no_zero_offdiagonal() {
        let n = 60;
        let m = Deployment::WorldDistinct.rtt_matrix(n, 3);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    assert!(m[a * n + b] > 0.0, "distinct cities have nonzero RTT");
                }
            }
        }
    }

    #[test]
    fn topology_labels() {
        assert_eq!(Topology::of(Deployment::Europe21).label(), "Europe21");
        assert_eq!(
            Topology::with_n(Deployment::WorldRandom, 57).label(),
            "World(random)/n=57"
        );
        assert_eq!(Topology::of(Deployment::Europe21).f(), 6);
    }
}
