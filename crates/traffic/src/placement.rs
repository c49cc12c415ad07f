//! Geo-distributed client placement.
//!
//! The paper's clients are co-located with replicas (zero latency). An
//! open-loop population is the opposite: clients live wherever users live,
//! so a request pays a real network hop before any replica sees it. Clients
//! are placed on [`netsim::CityDataset`] cities drawn from the same region
//! subset the deployment uses; each client submits through its *nearest
//! replica* (the standard ingress pattern), so its requests enter the
//! admission queue one one-way city latency after they were issued — and its
//! replies pay the same leg back.

use netsim::CityDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Last-mile floor for a client sharing a city with a replica (ms, one-way).
pub const MIN_INGRESS_MS: f64 = 0.5;

/// Where one client landed: the ingress latency it pays and *which* replica
/// is its ingress point — the identity the forwarding hop to a far leader is
/// charged against (see [`crate::ForwardingModel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientPlacement {
    /// One-way latency (ms) to the nearest replica, floored at
    /// [`MIN_INGRESS_MS`].
    pub ingress_ms: f64,
    /// Index (into `replica_cities`, i.e. the replica id) of that nearest
    /// replica.
    pub nearest: usize,
}

/// Place `clients` clients uniformly at random (seeded) on the cities of
/// `subset` and pair each with its nearest replica; `replica_cities` are the
/// cities the deployment assigned to the replicas.
pub fn place_clients(
    ds: &CityDataset,
    subset: &[usize],
    replica_cities: &[usize],
    clients: usize,
    seed: u64,
) -> Vec<ClientPlacement> {
    assert!(
        !subset.is_empty(),
        "client placement needs a non-empty city subset"
    );
    assert!(
        !replica_cities.is_empty(),
        "client placement needs replicas"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    (0..clients)
        .map(|_| {
            let city = subset[rng.gen_range(0..subset.len())];
            let (nearest, one_way) = replica_cities
                .iter()
                .enumerate()
                .map(|(r, &rc)| (r, ds.rtt_ms(city, rc) / 2.0))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .expect("non-empty replica set");
            ClientPlacement {
                ingress_ms: one_way.max(MIN_INGRESS_MS),
                nearest,
            }
        })
        .collect()
}

/// One-way latency (ms) from each of `clients` clients to its nearest
/// replica (see [`place_clients`] for the variant that also reports *which*
/// replica that is).
pub fn client_ingress_ms(
    ds: &CityDataset,
    subset: &[usize],
    replica_cities: &[usize],
    clients: usize,
    seed: u64,
) -> Vec<f64> {
    place_clients(ds, subset, replica_cities, clients, seed)
        .into_iter()
        .map(|p| p.ingress_ms)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_seed_deterministic_and_floored() {
        let ds = CityDataset::worldwide();
        let subset = ds.europe21();
        let replicas: Vec<usize> = subset.iter().take(7).copied().collect();
        let a = client_ingress_ms(&ds, &subset, &replicas, 50, 4);
        assert_eq!(a, client_ingress_ms(&ds, &subset, &replicas, 50, 4));
        assert_ne!(a, client_ingress_ms(&ds, &subset, &replicas, 50, 5));
        assert_eq!(a.len(), 50);
        assert!(a.iter().all(|&ms| ms >= MIN_INGRESS_MS && ms.is_finite()));
    }

    #[test]
    fn ingress_is_the_nearest_replica_not_an_arbitrary_one() {
        let ds = CityDataset::worldwide();
        let subset = ds.global73();
        let replicas: Vec<usize> = subset.iter().take(7).copied().collect();
        for &ms in &client_ingress_ms(&ds, &subset, &replicas, 100, 1) {
            // Never worse than half the worst replica-pair RTT in the subset.
            assert!(
                ms <= 125.0 + 1e-9,
                "ingress {ms} ms exceeds half the max RTT"
            );
        }
    }

    #[test]
    fn place_clients_reports_the_replica_behind_the_ingress_latency() {
        let ds = CityDataset::worldwide();
        let subset = ds.global73();
        let replicas: Vec<usize> = subset.iter().take(7).copied().collect();
        let placed = place_clients(&ds, &subset, &replicas, 100, 1);
        // Same draws as client_ingress_ms: the scalar view is a projection.
        let scalar = client_ingress_ms(&ds, &subset, &replicas, 100, 1);
        assert_eq!(
            placed.iter().map(|p| p.ingress_ms).collect::<Vec<_>>(),
            scalar
        );
        for p in &placed {
            assert!(p.nearest < replicas.len());
            // The reported ingress is achievable from *some* subset city via
            // the reported replica (argmin consistency, up to the floor).
            let achievable = subset.iter().any(|&city| {
                let d = (ds.rtt_ms(city, replicas[p.nearest]) / 2.0).max(MIN_INGRESS_MS);
                (d - p.ingress_ms).abs() < 1e-9
                    && replicas.iter().all(|&r| {
                        ds.rtt_ms(city, r) / 2.0
                            >= ds.rtt_ms(city, replicas[p.nearest]) / 2.0 - 1e-9
                    })
            });
            assert!(achievable, "placement {p:?} not consistent with any city");
        }
        // Different replicas actually get picked across the population.
        let distinct: std::collections::BTreeSet<usize> =
            placed.iter().map(|p| p.nearest).collect();
        assert!(
            distinct.len() > 1,
            "one ingress replica for 100 global clients"
        );
    }

    #[test]
    fn clients_far_from_all_replicas_pay_intercontinental_ingress() {
        let ds = CityDataset::worldwide();
        // Replicas in Europe, clients drawn from the whole world: some
        // clients must pay the intercontinental floor (150 ms RTT → 75 ms).
        let eu = ds.europe21();
        let world: Vec<usize> = (0..ds.len()).collect();
        let ingress = client_ingress_ms(&ds, &world, &eu, 200, 2);
        assert!(ingress.iter().any(|&ms| ms >= 75.0));
        assert!(ingress.iter().any(|&ms| ms < 40.0));
    }
}
