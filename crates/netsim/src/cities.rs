//! Synthetic geographic dataset standing in for the WonderProxy city RTTs.
//!
//! The paper's network emulator uses 220 worldwide locations with
//! intercontinental round-trip delays between 150 and 250 ms (plus 1 ms of
//! real network delay). The dataset itself is proprietary, so this module
//! generates a *synthetic* but realistic stand-in: 220 cities are placed in
//! continental clusters around anchor coordinates, and pairwise RTTs are
//! derived from great-circle distances with a fiber path-stretch factor,
//! clamped to the paper's stated intercontinental range.
//!
//! The evaluation subsets used in the paper are reproduced as selections of
//! city indices: [`CityDataset::europe21`], [`CityDataset::na_eu43`],
//! [`CityDataset::stellar56`], and [`CityDataset::global73`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Continental region a city belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    Europe,
    NorthAmerica,
    SouthAmerica,
    Asia,
    Oceania,
    Africa,
}

impl Region {
    /// All regions, in the order cities are generated.
    pub const ALL: [Region; 6] = [
        Region::Europe,
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Asia,
        Region::Oceania,
        Region::Africa,
    ];

    /// Anchor coordinate (latitude, longitude) for the region's cluster.
    fn anchor(self) -> (f64, f64) {
        match self {
            Region::Europe => (50.0, 10.0),
            Region::NorthAmerica => (40.0, -95.0),
            Region::SouthAmerica => (-15.0, -55.0),
            Region::Asia => (30.0, 105.0),
            Region::Oceania => (-30.0, 145.0),
            Region::Africa => (5.0, 20.0),
        }
    }

    /// Spread of the cluster (degrees latitude / longitude).
    fn spread(self) -> (f64, f64) {
        match self {
            Region::Europe => (10.0, 15.0),
            Region::NorthAmerica => (10.0, 20.0),
            Region::SouthAmerica => (12.0, 10.0),
            Region::Asia => (15.0, 25.0),
            Region::Oceania => (8.0, 10.0),
            Region::Africa => (15.0, 15.0),
        }
    }

    /// Number of cities generated in this region (totals 220).
    fn count(self) -> usize {
        match self {
            Region::Europe => 60,
            Region::NorthAmerica => 50,
            Region::SouthAmerica => 20,
            Region::Asia => 45,
            Region::Oceania => 15,
            Region::Africa => 30,
        }
    }

    /// Short prefix used in generated city names.
    fn prefix(self) -> &'static str {
        match self {
            Region::Europe => "eu",
            Region::NorthAmerica => "na",
            Region::SouthAmerica => "sa",
            Region::Asia => "as",
            Region::Oceania => "oc",
            Region::Africa => "af",
        }
    }
}

/// A city: a named location with coordinates and a region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct City {
    /// Synthetic name, e.g. `eu-07`.
    pub name: String,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Continental region.
    pub region: Region,
}

/// Earth's mean radius in kilometres.
const EARTH_RADIUS_KM: f64 = 6371.0;
/// Propagation speed in fiber, km per millisecond (~2/3 of c).
const FIBER_KM_PER_MS: f64 = 200.0;
/// Fiber routes are longer than great circles; multiply distances by this.
const PATH_STRETCH: f64 = 1.7;
/// Minimum / maximum intercontinental RTT reported by the paper (ms).
const INTER_MIN_MS: f64 = 150.0;
const INTER_MAX_MS: f64 = 250.0;
/// Minimum RTT between distinct cities (ms), models last-mile overhead.
const MIN_RTT_MS: f64 = 2.0;

/// A set of cities with deterministic pairwise RTTs.
#[derive(Debug, Clone)]
pub struct CityDataset {
    cities: Vec<City>,
}

impl CityDataset {
    /// Build the standard 220-city worldwide dataset (deterministic).
    pub fn worldwide() -> Self {
        Self::generate(0xC1717)
    }

    /// Build the dataset with a custom seed (mainly for tests that want a
    /// different but still deterministic layout).
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cities = Vec::new();
        for region in Region::ALL {
            let (alat, alon) = region.anchor();
            let (slat, slon) = region.spread();
            for i in 0..region.count() {
                let lat = alat + rng.gen_range(-slat..slat);
                let lon = alon + rng.gen_range(-slon..slon);
                cities.push(City {
                    name: format!("{}-{:02}", region.prefix(), i),
                    lat,
                    lon,
                    region,
                });
            }
        }
        CityDataset { cities }
    }

    /// Number of cities.
    pub fn len(&self) -> usize {
        self.cities.len()
    }

    /// True if the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.cities.is_empty()
    }

    /// Access a city by index.
    pub fn city(&self, idx: usize) -> &City {
        &self.cities[idx]
    }

    /// All cities.
    pub fn cities(&self) -> &[City] {
        &self.cities
    }

    /// Indices of all cities in a region, in generation order.
    pub fn region_indices(&self, region: Region) -> Vec<usize> {
        self.cities
            .iter()
            .enumerate()
            .filter(|(_, c)| c.region == region)
            .map(|(i, _)| i)
            .collect()
    }

    /// Great-circle distance between two cities in kilometres (haversine).
    pub fn distance_km(&self, a: usize, b: usize) -> f64 {
        let ca = &self.cities[a];
        let cb = &self.cities[b];
        haversine_km(ca.lat, ca.lon, cb.lat, cb.lon)
    }

    /// Round-trip time between two cities in milliseconds.
    ///
    /// Intra-region RTTs follow the distance model directly; inter-region
    /// RTTs are clamped into the paper's 150–250 ms intercontinental range.
    pub fn rtt_ms(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 0.0;
        }
        let dist = self.distance_km(a, b) * PATH_STRETCH;
        let raw = 2.0 * dist / FIBER_KM_PER_MS;
        let same_region = self.cities[a].region == self.cities[b].region;
        if same_region {
            raw.max(MIN_RTT_MS)
        } else {
            raw.clamp(INTER_MIN_MS, INTER_MAX_MS)
        }
    }

    fn take_from_region(&self, region: Region, count: usize) -> Vec<usize> {
        let idx = self.region_indices(region);
        assert!(
            idx.len() >= count,
            "region {region:?} has only {} cities, requested {count}",
            idx.len()
        );
        idx.into_iter().take(count).collect()
    }

    /// The 21 European cities used for the Europe21 deployment (Fig 7, Fig 11, Fig 15).
    pub fn europe21(&self) -> Vec<usize> {
        self.take_from_region(Region::Europe, 21)
    }

    /// 43 cities across Europe and North America (Fig 9, NA-EU43).
    pub fn na_eu43(&self) -> Vec<usize> {
        let mut v = self.take_from_region(Region::Europe, 22);
        v.extend(self.take_from_region(Region::NorthAmerica, 21));
        v
    }

    /// 56 cities approximating the Stellar validator distribution (Fig 9,
    /// Stellar56): heavily weighted towards Europe and North America with a
    /// smaller Asian and Oceanian presence, matching the public validator map.
    pub fn stellar56(&self) -> Vec<usize> {
        let mut v = self.take_from_region(Region::Europe, 24);
        v.extend(self.take_from_region(Region::NorthAmerica, 18));
        v.extend(self.take_from_region(Region::Asia, 10));
        v.extend(self.take_from_region(Region::Oceania, 2));
        v.extend(self.take_from_region(Region::SouthAmerica, 2));
        v
    }

    /// 73 cities distributed worldwide (Fig 9, Global73).
    pub fn global73(&self) -> Vec<usize> {
        let mut v = self.take_from_region(Region::Europe, 20);
        v.extend(self.take_from_region(Region::NorthAmerica, 16));
        v.extend(self.take_from_region(Region::Asia, 16));
        v.extend(self.take_from_region(Region::SouthAmerica, 8));
        v.extend(self.take_from_region(Region::Oceania, 5));
        v.extend(self.take_from_region(Region::Africa, 8));
        v
    }

    /// Assign `n` replicas to cities drawn round-robin from a subset, as the
    /// paper does when the configuration size exceeds the number of cities.
    pub fn assign_round_robin(&self, subset: &[usize], n: usize) -> Vec<usize> {
        (0..n).map(|i| subset[i % subset.len()]).collect()
    }

    /// Assign `n` replicas to cities drawn uniformly at random from a subset
    /// (used for the "randomly distributed across the world" experiments).
    /// Replicas may share a city; see [`CityDataset::assign_distinct`] for
    /// sampling without replacement.
    pub fn assign_random(&self, subset: &[usize], n: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| *subset.choose(&mut rng).expect("non-empty city subset"))
            .collect()
    }

    /// Assign `n` replicas to `n` *distinct* cities drawn uniformly from a
    /// subset (one replica per location).
    ///
    /// # Panics
    /// If the subset holds fewer than `n` cities.
    pub fn assign_distinct(&self, subset: &[usize], n: usize, seed: u64) -> Vec<usize> {
        assert!(
            subset.len() >= n,
            "subset holds {} cities, need {n}",
            subset.len()
        );
        let mut rng = StdRng::seed_from_u64(seed);
        subset
            .choose_multiple(&mut rng, n)
            .into_iter()
            .copied()
            .collect()
    }
}

/// Haversine great-circle distance in kilometres.
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (lat1, lon1, lat2, lon2) = (
        lat1.to_radians(),
        lon1.to_radians(),
        lat2.to_radians(),
        lon2.to_radians(),
    );
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().atan2((1.0 - a).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_has_220_cities() {
        let ds = CityDataset::worldwide();
        assert_eq!(ds.len(), 220);
        assert!(!ds.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CityDataset::worldwide();
        let b = CityDataset::worldwide();
        for i in 0..a.len() {
            assert_eq!(a.city(i).lat, b.city(i).lat);
            assert_eq!(a.city(i).lon, b.city(i).lon);
            assert_eq!(a.city(i).name, b.city(i).name);
        }
    }

    #[test]
    fn rtt_is_symmetric_and_zero_on_diagonal() {
        let ds = CityDataset::worldwide();
        for a in (0..ds.len()).step_by(37) {
            assert_eq!(ds.rtt_ms(a, a), 0.0);
            for b in (0..ds.len()).step_by(41) {
                assert!((ds.rtt_ms(a, b) - ds.rtt_ms(b, a)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn intercontinental_rtt_in_paper_range() {
        let ds = CityDataset::worldwide();
        let eu = ds.region_indices(Region::Europe);
        let asia = ds.region_indices(Region::Asia);
        let oce = ds.region_indices(Region::Oceania);
        for &a in eu.iter().take(5) {
            for &b in asia.iter().take(5).chain(oce.iter().take(5)) {
                let rtt = ds.rtt_ms(a, b);
                assert!((150.0..=250.0).contains(&rtt), "rtt {rtt} outside range");
            }
        }
    }

    #[test]
    fn intra_region_rtt_below_intercontinental_floor() {
        let ds = CityDataset::worldwide();
        let eu = ds.region_indices(Region::Europe);
        let mut max_intra: f64 = 0.0;
        for &a in &eu {
            for &b in &eu {
                max_intra = max_intra.max(ds.rtt_ms(a, b));
            }
        }
        assert!(max_intra > 0.0);
        assert!(max_intra < 150.0, "intra-Europe rtt {max_intra} too high");
    }

    #[test]
    fn evaluation_subsets_have_expected_sizes() {
        let ds = CityDataset::worldwide();
        assert_eq!(ds.europe21().len(), 21);
        assert_eq!(ds.na_eu43().len(), 43);
        assert_eq!(ds.stellar56().len(), 56);
        assert_eq!(ds.global73().len(), 73);
    }

    #[test]
    fn subsets_contain_unique_cities() {
        let ds = CityDataset::worldwide();
        for subset in [ds.europe21(), ds.na_eu43(), ds.stellar56(), ds.global73()] {
            let mut sorted = subset.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), subset.len(), "duplicate city in subset");
        }
    }

    #[test]
    fn round_robin_assignment_wraps() {
        let ds = CityDataset::worldwide();
        let subset = ds.europe21();
        let assign = ds.assign_round_robin(&subset, 25);
        assert_eq!(assign.len(), 25);
        assert_eq!(assign[0], assign[21]);
    }

    #[test]
    fn random_assignment_is_seed_deterministic() {
        let ds = CityDataset::worldwide();
        let subset = ds.global73();
        assert_eq!(
            ds.assign_random(&subset, 50, 7),
            ds.assign_random(&subset, 50, 7)
        );
        assert_ne!(
            ds.assign_random(&subset, 50, 7),
            ds.assign_random(&subset, 50, 8)
        );
    }

    #[test]
    fn distinct_assignment_never_repeats_a_city() {
        let ds = CityDataset::worldwide();
        let subset = ds.global73();
        let assign = ds.assign_distinct(&subset, 40, 9);
        assert_eq!(assign.len(), 40);
        let mut sorted = assign.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40, "cities must be distinct");
        assert!(assign.iter().all(|c| subset.contains(c)));
        assert_eq!(ds.assign_distinct(&subset, 40, 9), assign);
    }

    #[test]
    fn haversine_known_distance() {
        // London (51.5, -0.13) to Paris (48.85, 2.35) is ~344 km.
        let d = haversine_km(51.5, -0.13, 48.85, 2.35);
        assert!((300.0..400.0).contains(&d), "got {d}");
    }
}
