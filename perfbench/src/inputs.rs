//! Seeded workload inputs. The program under test sees only what this
//! module generates: contexts, the incumbent scorer, rewards, and the
//! candidate portfolio.

use harvest_core::scorer::LinearScorer;
use harvest_core::{Context, SimpleContext};
use harvest_estimators::{Candidate, EvaluatorConfig, GreedyScorerCandidate, PortfolioEvaluator};

const FEATURES: usize = 16;
pub const ACTIONS: usize = 8;
/// Decisions per `decide_batch` call.
pub const BATCH: usize = 64;
/// Distinct contexts; decision `i` uses context `i % POOL`.
const POOL: usize = 4096;
/// One decision in this many never gets a reward, so the joiner's expiry
/// path runs.
const UNREWARDED_EVERY: u64 = 8;
/// Logical time between consecutive decisions. With the default 10 s join
/// TTL, an unrewarded decision expires 10,000 decisions later.
pub const STEP_NS: u64 = 1_000_000;
/// Logical delay between a decision and its reward.
pub const REWARD_DELAY_NS: u64 = 500_000;
/// Portfolio size `k`.
pub const CANDIDATES: usize = 16;
/// Exploration floor of the candidate policies.
const CANDIDATE_EPSILON: f64 = 0.1;

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    fn signed(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

pub struct Inputs {
    contexts: Vec<SimpleContext>,
    /// The greedy incumbent promoted before any decision is served.
    pub scorer: LinearScorer,
    candidates: Vec<LinearScorer>,
    skip_offset: u64,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let contexts = (0..POOL)
            .map(|_| {
                let x = (0..FEATURES).map(|_| rng.next_f64()).collect();
                SimpleContext::new(x, ACTIONS)
            })
            .collect();
        let weights = |rng: &mut Rng| -> Vec<Vec<f64>> {
            (0..ACTIONS)
                .map(|_| (0..=FEATURES).map(|_| rng.signed()).collect())
                .collect()
        };
        let base = weights(&mut rng);
        let candidates = (0..CANDIDATES)
            .map(|_| {
                let noise = weights(&mut rng);
                let w = base
                    .iter()
                    .zip(noise)
                    .map(|(b, n)| b.iter().zip(n).map(|(b, n)| b + 0.5 * n).collect())
                    .collect();
                LinearScorer::PerAction { weights: w }
            })
            .collect();
        Inputs {
            contexts,
            scorer: LinearScorer::PerAction { weights: base },
            candidates,
            skip_offset: rng.next_u64() % UNREWARDED_EVERY,
        }
    }

    pub fn context(&self, i: u64) -> &SimpleContext {
        &self.contexts[(i % POOL as u64) as usize]
    }

    /// Contexts of the batch that starts at decision `first`, a multiple
    /// of [`BATCH`].
    pub fn batch(&self, first: u64) -> &[SimpleContext] {
        assert_eq!(
            first % BATCH as u64,
            0,
            "batches start on a multiple of BATCH"
        );
        let start = (first % POOL as u64) as usize;
        &self.contexts[start..start + BATCH]
    }

    /// Whether decision `i` gets a reward: all but one in
    /// [`UNREWARDED_EVERY`].
    pub fn rewarded(&self, i: u64) -> bool {
        !(i + self.skip_offset).is_multiple_of(UNREWARDED_EVERY)
    }

    /// The reward the environment reports for `action` on decision `i`.
    pub fn reward(&self, i: u64, action: usize) -> f64 {
        let x = self.context(i).shared_features();
        0.5 * (x[action % FEATURES] + x[(action + ACTIONS) % FEATURES])
    }

    /// The `k`-candidate portfolio with the incumbent as its DR reward
    /// model.
    pub fn evaluator(&self, parallelism: usize) -> PortfolioEvaluator {
        PortfolioEvaluator::builder()
            .config(EvaluatorConfig::builder().parallelism(parallelism).build())
            .candidates(self.candidates.iter().enumerate().map(|(j, s)| {
                Candidate::new(
                    format!("cand-{j:02}"),
                    GreedyScorerCandidate::new(s.clone(), CANDIDATE_EPSILON),
                )
            }))
            .model(self.scorer.clone())
            .build()
            .expect("a non-empty portfolio")
    }
}

/// FNV-1a, for the recovered-log and report fingerprints.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (Inputs::generate(7), Inputs::generate(7));
        assert_eq!(a.context(5), b.context(5));
        assert_eq!(a.scorer, b.scorer);
        assert_ne!(a.context(5), Inputs::generate(8).context(5));
    }

    #[test]
    fn exactly_one_in_eight_goes_unrewarded() {
        let inputs = Inputs::generate(3);
        let skipped = (0..800).filter(|&i| !inputs.rewarded(i)).count();
        assert_eq!(skipped, 100);
    }
}
