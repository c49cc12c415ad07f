//! Generic simulated annealing for configuration search (§4.2.4, \[40\]).
//!
//! Configuration spaces grow exponentially with the number of replicas, so
//! OptiLog's ConfigSensor explores them heuristically. The search is
//! intentionally *non-deterministic across replicas* (different seeds /
//! starting points increase the chance that some replica finds a good
//! configuration); determinism is restored by committing the results to the
//! replicated configuration log, which every replica applies in the same
//! order (`configlog`).
//!
//! The [`SearchSpace`] trait supplies a random initial configuration, a
//! mutation operator, and a score (lower is better); [`Annealer`] runs the
//! exponential-cooling schedule with an iteration budget standing in for the
//! paper's wall-clock search time.
//!
//! A search allocates only when it starts a restart: [`SearchSpace::mutate`]
//! changes a configuration in place, and the annealer keeps one `current`,
//! one `candidate` and one `best` buffer, refilling them with
//! [`Clone::clone_from`] and swapping `candidate` into `current` on accept.
//! A configuration type that owns heap storage should implement `clone_from`
//! by reusing it (`Vec` does; a `#[derive(Clone)]` struct does not).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A configuration search problem.
pub trait SearchSpace {
    /// The configuration type being optimised.
    type Config: Clone;

    /// A random valid starting configuration.
    fn random_config(&self, rng: &mut StdRng) -> Self::Config;

    /// Turn `config` into a neighbouring configuration, in place.
    /// Implementations must preserve validity (e.g. only swap special roles
    /// with candidates) and should not allocate: the annealer calls this
    /// once per iteration on a buffer it reuses.
    fn mutate(&self, config: &mut Self::Config, rng: &mut StdRng);

    /// Score a configuration; lower is better (predicted latency in ms).
    fn score(&self, config: &Self::Config) -> f64;
}

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy)]
pub struct AnnealingParams {
    /// Iteration budget (stands in for the paper's search timer).
    pub iterations: usize,
    /// Initial temperature, in score units.
    pub initial_temperature: f64,
    /// Multiplicative cooling factor applied every iteration.
    pub cooling: f64,
    /// Stop early once the temperature falls below this threshold
    /// ("simulated annealing converges", §4.2.4).
    pub min_temperature: f64,
    /// Number of independent restarts; the best result across restarts wins.
    pub restarts: usize,
}

impl Default for AnnealingParams {
    fn default() -> Self {
        AnnealingParams {
            iterations: 10_000,
            initial_temperature: 100.0,
            cooling: 0.999,
            min_temperature: 1e-3,
            restarts: 1,
        }
    }
}

impl AnnealingParams {
    /// A budget roughly equivalent to a wall-clock search time, given an
    /// estimated iteration rate (iterations per second). Used by the Fig 12
    /// harness to map the paper's 250 ms – 4 s search times to budgets.
    pub fn from_search_time(seconds: f64, iterations_per_second: f64) -> Self {
        Self::budgeted((seconds * iterations_per_second).max(1.0) as usize)
    }

    /// A schedule whose cooling is tied to the iteration budget: the
    /// temperature reaches `min_temperature` right at the end of the budget
    /// instead of after a fixed ~11.5 k iterations (the default cooling's
    /// convergence point). Without this, every budget beyond that point
    /// early-stops at the same place and search time stops mattering — the
    /// Fig 12 score-vs-search-time curve came out flat. With it, longer
    /// searches cool slower and actually explore more.
    pub fn budgeted(iterations: usize) -> Self {
        let d = AnnealingParams::default();
        let cooling =
            (d.min_temperature / d.initial_temperature).powf(1.0 / iterations.max(1) as f64);
        AnnealingParams {
            iterations,
            cooling,
            ..d
        }
    }
}

/// The result of one annealing run.
#[derive(Debug, Clone)]
pub struct AnnealingResult<C> {
    /// The best configuration found.
    pub config: C,
    /// Its score.
    pub score: f64,
    /// Iterations actually executed (across restarts).
    pub iterations: usize,
    /// Number of accepted moves (diagnostics).
    pub accepted_moves: usize,
}

/// The simulated-annealing driver.
#[derive(Debug, Clone)]
pub struct Annealer {
    params: AnnealingParams,
}

impl Annealer {
    /// Create an annealer with the given schedule.
    pub fn new(params: AnnealingParams) -> Self {
        Annealer { params }
    }

    /// The schedule parameters.
    pub fn params(&self) -> &AnnealingParams {
        &self.params
    }

    /// Run the search with a seeded RNG (seed differs per replica in the
    /// paper's collaborative search).
    pub fn search<S: SearchSpace>(&self, space: &S, seed: u64) -> AnnealingResult<S::Config> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best_overall: Option<(S::Config, f64)> = None;
        let mut total_iterations = 0;
        let mut accepted_moves = 0;

        for restart in 0..self.params.restarts.max(1) {
            let mut current = space.random_config(&mut rng);
            let mut current_score = space.score(&current);
            let mut best = current.clone();
            let mut best_score = current_score;
            let mut candidate = current.clone();
            let mut temperature = self.params.initial_temperature;
            let per_restart = self.params.iterations / self.params.restarts.max(1);

            for _ in 0..per_restart.max(1) {
                total_iterations += 1;
                if temperature < self.params.min_temperature {
                    break;
                }
                candidate.clone_from(&current);
                space.mutate(&mut candidate, &mut rng);
                let candidate_score = space.score(&candidate);
                let delta = candidate_score - current_score;
                let accept = delta <= 0.0 || {
                    let p = (-delta / temperature).exp();
                    rng.gen::<f64>() < p
                };
                if accept {
                    std::mem::swap(&mut current, &mut candidate);
                    current_score = candidate_score;
                    accepted_moves += 1;
                    if current_score < best_score {
                        best.clone_from(&current);
                        best_score = current_score;
                    }
                }
                temperature *= self.params.cooling;
            }

            match &best_overall {
                Some((_, s)) if *s <= best_score => {}
                _ => best_overall = Some((best, best_score)),
            }
            // Vary the trajectory across restarts deterministically.
            rng = StdRng::seed_from_u64(seed.wrapping_add(restart as u64 + 1));
        }

        let (config, score) = best_overall.expect("at least one restart ran");
        AnnealingResult {
            config,
            score,
            iterations: total_iterations,
            accepted_moves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy search space: find a permutation of 0..n minimising the sum of
    /// |position - value| (identity permutation is optimal with score 0).
    struct PermutationSpace {
        n: usize,
    }

    impl SearchSpace for PermutationSpace {
        type Config = Vec<usize>;

        fn random_config(&self, rng: &mut StdRng) -> Vec<usize> {
            let mut v: Vec<usize> = (0..self.n).collect();
            for i in (1..v.len()).rev() {
                let j = rng.gen_range(0..=i);
                v.swap(i, j);
            }
            v
        }

        fn mutate(&self, config: &mut Vec<usize>, rng: &mut StdRng) {
            let i = rng.gen_range(0..config.len());
            let j = rng.gen_range(0..config.len());
            config.swap(i, j);
        }

        fn score(&self, config: &Vec<usize>) -> f64 {
            config
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as f64 - v as f64).abs())
                .sum()
        }
    }

    #[test]
    fn annealing_improves_over_random() {
        let space = PermutationSpace { n: 20 };
        let mut rng = StdRng::seed_from_u64(0);
        let random_score = space.score(&space.random_config(&mut rng));
        let result = Annealer::new(AnnealingParams {
            iterations: 20_000,
            ..Default::default()
        })
        .search(&space, 1);
        assert!(result.score < random_score);
        assert!(result.score <= 4.0, "near-optimal, got {}", result.score);
        assert!(result.accepted_moves > 0);
    }

    #[test]
    fn longer_search_is_no_worse() {
        let space = PermutationSpace { n: 40 };
        let short = Annealer::new(AnnealingParams {
            iterations: 200,
            ..Default::default()
        })
        .search(&space, 7);
        let long = Annealer::new(AnnealingParams {
            iterations: 50_000,
            ..Default::default()
        })
        .search(&space, 7);
        assert!(long.score <= short.score);
    }

    #[test]
    fn same_seed_same_result_different_seed_may_differ() {
        let space = PermutationSpace { n: 15 };
        let annealer = Annealer::new(AnnealingParams {
            iterations: 2_000,
            ..Default::default()
        });
        let a = annealer.search(&space, 42);
        let b = annealer.search(&space, 42);
        assert_eq!(a.config, b.config);
        assert_eq!(a.score, b.score);
    }

    #[test]
    fn restarts_never_hurt() {
        let space = PermutationSpace { n: 30 };
        let single = Annealer::new(AnnealingParams {
            iterations: 10_000,
            restarts: 1,
            ..Default::default()
        })
        .search(&space, 3);
        let multi = Annealer::new(AnnealingParams {
            iterations: 10_000,
            restarts: 4,
            ..Default::default()
        })
        .search(&space, 3);
        // Not a strict guarantee in general, but with the same total budget
        // on this small space both should be near-optimal; just check both
        // produced valid permutations and finite scores.
        assert!(single.score.is_finite());
        assert!(multi.score.is_finite());
    }

    #[test]
    fn from_search_time_scales_budget() {
        let a = AnnealingParams::from_search_time(0.25, 1000.0);
        let b = AnnealingParams::from_search_time(4.0, 1000.0);
        assert_eq!(a.iterations, 250);
        assert_eq!(b.iterations, 4000);
        // The cooling schedule spans the budget: shorter searches cool faster.
        assert!(a.cooling < b.cooling);
        assert!(b.cooling < 1.0);
    }

    /// The Fig 12 regression: with the fixed default cooling, every budget
    /// beyond ~11.5 k iterations early-stopped at the min-temperature
    /// convergence point, so larger budgets explored nothing extra. A
    /// budget-tied schedule must spend its whole budget.
    #[test]
    fn budgeted_schedule_spends_the_whole_budget() {
        let space = PermutationSpace { n: 40 };
        let stuck = Annealer::new(AnnealingParams {
            iterations: 50_000,
            ..Default::default()
        })
        .search(&space, 5);
        assert!(
            stuck.iterations < 50_000,
            "the default schedule early-stops (documents the old behaviour), ran {}",
            stuck.iterations
        );
        let full = Annealer::new(AnnealingParams::budgeted(50_000)).search(&space, 5);
        assert_eq!(
            full.iterations, 50_000,
            "budget-tied cooling must not early-stop"
        );
    }

    #[test]
    fn budgeted_longer_search_explores_more_and_is_no_worse() {
        let space = PermutationSpace { n: 60 };
        let short = Annealer::new(AnnealingParams::budgeted(300)).search(&space, 11);
        let long = Annealer::new(AnnealingParams::budgeted(60_000)).search(&space, 11);
        assert_eq!(short.iterations, 300);
        assert_eq!(long.iterations, 60_000);
        assert!(
            long.score < short.score,
            "60k iterations should beat 300 on a 60-element space: {} vs {}",
            long.score,
            short.score
        );
    }
}
