//! Finite Zipf distribution over ranks `1..=n`.
//!
//! The Feitelson models use Zipf-like laws for the number of times a job is
//! re-executed: a few executables run very many times, most run once.

use super::{open01, Distribution};
use rand::RngCore;

/// Zipf distribution over `1..=n` with exponent `s`:
/// `P(X = k) ∝ k^(-s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: usize,
    s: f64,
    /// CDF over ranks, for inverse-transform sampling.
    cdf: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl Zipf {
    /// Create over ranks `1..=n` with exponent `s >= 0`.
    ///
    /// # Panics
    /// Panics for `n == 0` or negative/non-finite `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "support must be non-empty");
        assert!(s >= 0.0 && s.is_finite(), "bad exponent {s}");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for (i, w) in weights.iter().enumerate() {
            let p = w / total;
            acc += p;
            cdf.push(acc);
            let k = (i + 1) as f64;
            mean += k * p;
            m2 += k * k * p;
        }
        Zipf {
            n,
            s,
            cdf,
            mean,
            variance: m2 - mean * mean,
        }
    }

    /// Support size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Draw a rank in `1..=n`.
    pub fn sample_rank(&self, rng: &mut dyn RngCore) -> usize {
        let u = open01(rng);
        // Binary search the CDF.
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i + 2.min(self.n), // exact hit: next rank (clamped)
            Err(i) => (i + 1).min(self.n),
        }
    }

    /// Probability of rank `k` (1-based).
    ///
    /// # Panics
    /// Panics for out-of-range ranks.
    pub fn pmf(&self, k: usize) -> f64 {
        assert!((1..=self.n).contains(&k), "rank {k} out of 1..={}", self.n);
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }
}

impl Distribution for Zipf {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample_rank(rng) as f64
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::testutil::check_moments;
    use crate::rng::seeded_rng;

    #[test]
    fn sampling_never_panics_at_extreme_exponents() {
        // The CDF search sees only values in [0, 1]; huge exponents put all
        // mass on rank 1 and underflow every other weight to zero.
        let mut rng = seeded_rng(103);
        for s in [0.0, 1e-300, 1e300, f64::MAX] {
            let z = Zipf::new(1000, s);
            for _ in 0..100 {
                assert!((1..=1000).contains(&z.sample_rank(&mut rng)));
            }
        }
    }

    #[test]
    fn moments_match() {
        check_moments(&Zipf::new(100, 1.2), 300_000, 101, 5.0);
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 1..=4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
        assert!((z.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(50, 1.5);
        let total: f64 = (1..=50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_is_decreasing() {
        let z = Zipf::new(20, 1.0);
        for k in 1..20 {
            assert!(z.pmf(k) > z.pmf(k + 1));
        }
    }

    #[test]
    fn rank_one_dominates_for_large_s() {
        let z = Zipf::new(1000, 3.0);
        let mut rng = seeded_rng(102);
        let ones = (0..100_000)
            .filter(|_| z.sample_rank(&mut rng) == 1)
            .count();
        let frac = ones as f64 / 100_000.0;
        // For s=3 the first rank carries ~83% of the mass.
        assert!((frac - z.pmf(1)).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn samples_in_support() {
        let z = Zipf::new(7, 1.0);
        let mut rng = seeded_rng(103);
        for _ in 0..10_000 {
            let k = z.sample_rank(&mut rng);
            assert!((1..=7).contains(&k));
        }
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = Zipf::new(5, 1.0);
        let mut rng = seeded_rng(104);
        let n = 200_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[z.sample_rank(&mut rng) - 1] += 1;
        }
        for k in 1..=5 {
            let emp = counts[k - 1] as f64 / n as f64;
            assert!(
                (emp - z.pmf(k)).abs() < 0.005,
                "rank {k}: {emp} vs {}",
                z.pmf(k)
            );
        }
    }
}
