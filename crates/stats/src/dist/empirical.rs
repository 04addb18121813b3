//! Empirical and discrete weighted distributions.
//!
//! The Feitelson models' "hand-tailored" job-size distributions are discrete
//! weighted distributions over candidate sizes; [`DiscreteWeighted`] is their
//! engine. [`EmpiricalQuantile`] resamples a continuous attribute from an
//! observed sample via inverse-CDF interpolation.

use super::{open01, Distribution};
use rand::RngCore;

/// A discrete distribution over arbitrary `f64` atoms with given weights.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteWeighted {
    atoms: Vec<f64>,
    cdf: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl DiscreteWeighted {
    /// Create from `(value, weight)` pairs; weights must be non-negative
    /// with a positive sum and are normalized.
    ///
    /// # Panics
    /// Panics for an empty list, a negative weight, or an all-zero weight
    /// vector.
    pub fn new(pairs: &[(f64, f64)]) -> Self {
        assert!(!pairs.is_empty(), "need at least one atom");
        assert!(
            pairs.iter().all(|&(_, w)| w >= 0.0),
            "weights must be non-negative"
        );
        let total: f64 = pairs.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0, "total weight must be positive");
        let mut atoms = Vec::with_capacity(pairs.len());
        let mut cdf = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for &(v, w) in pairs {
            let p = w / total;
            acc += p;
            atoms.push(v);
            cdf.push(acc);
            mean += v * p;
            m2 += v * v * p;
        }
        DiscreteWeighted {
            atoms,
            cdf,
            mean,
            variance: m2 - mean * mean,
        }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when there are no atoms (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The atom values.
    pub fn atoms(&self) -> &[f64] {
        &self.atoms
    }

    /// Index of a sampled atom.
    pub fn sample_index(&self, rng: &mut dyn RngCore) -> usize {
        let u = open01(rng);
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => (i + 1).min(self.atoms.len() - 1),
            Err(i) => i.min(self.atoms.len() - 1),
        }
    }

    /// Quantile function: the smallest atom whose cumulative probability
    /// reaches `p`. Atoms must have been supplied in ascending value order
    /// for this to be the true inverse CDF.
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p out of [0,1]: {p}");
        // Adding 0.0 maps p = -0.0 onto the +0.0 the CDF starts from.
        let idx = match self.cdf.binary_search_by(|c| c.total_cmp(&(p + 0.0))) {
            Ok(i) => i,
            Err(i) => i.min(self.atoms.len() - 1),
        };
        self.atoms[idx]
    }

    /// Probability of atom `i`.
    pub fn probability(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

impl Distribution for DiscreteWeighted {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.atoms[self.sample_index(rng)]
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }
}

/// Resample a continuous attribute from an observed sample by drawing a
/// uniform quantile and interpolating the empirical inverse CDF.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalQuantile {
    sorted: Vec<f64>,
}

impl EmpiricalQuantile {
    /// Build from any sample (sorted internally).
    ///
    /// # Panics
    /// Panics for an empty sample or non-finite values.
    pub fn new(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "need at least one observation");
        assert!(
            sample.iter().all(|v| v.is_finite()),
            "sample must be finite"
        );
        let mut sorted = sample.to_vec();
        // Signed zeros tie (stable order), as they do under `<`.
        sorted.sort_by(|a, b| (a + 0.0).total_cmp(&(b + 0.0)));
        EmpiricalQuantile { sorted }
    }

    /// Interpolated empirical quantile at `p` in `[0, 1]`.
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p out of [0,1]: {p}");
        crate::order::percentile_sorted(&self.sorted, p * 100.0)
    }
}

impl Distribution for EmpiricalQuantile {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.quantile(open01(rng))
    }

    fn mean(&self) -> f64 {
        crate::describe::mean(&self.sorted)
    }

    fn variance(&self) -> f64 {
        crate::describe::variance(&self.sorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn discrete_frequencies() {
        let d = DiscreteWeighted::new(&[(1.0, 1.0), (2.0, 2.0), (4.0, 1.0)]);
        let mut rng = seeded_rng(111);
        let n = 200_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(d.sample(&mut rng) as i64).or_insert(0usize) += 1;
        }
        assert!((counts[&1] as f64 / n as f64 - 0.25).abs() < 0.005);
        assert!((counts[&2] as f64 / n as f64 - 0.50).abs() < 0.005);
        assert!((counts[&4] as f64 / n as f64 - 0.25).abs() < 0.005);
    }

    #[test]
    fn discrete_moments() {
        let d = DiscreteWeighted::new(&[(0.0, 1.0), (10.0, 1.0)]);
        assert!((d.mean() - 5.0).abs() < 1e-12);
        assert!((d.variance() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_atoms_never_sampled() {
        let d = DiscreteWeighted::new(&[(1.0, 1.0), (99.0, 0.0)]);
        let mut rng = seeded_rng(112);
        for _ in 0..10_000 {
            assert_eq!(d.sample(&mut rng), 1.0);
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = DiscreteWeighted::new(&[(1.0, 3.0), (2.0, 1.0), (3.0, 6.0)]);
        let s: f64 = (0..3).map(|i| d.probability(i)).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn discrete_quantile_is_inverse_cdf() {
        let d = DiscreteWeighted::new(&[(1.0, 1.0), (2.0, 2.0), (4.0, 1.0)]);
        // CDF: 0.25 at 1, 0.75 at 2, 1.0 at 4.
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(0.2), 1.0);
        assert_eq!(d.quantile(0.25), 1.0);
        assert_eq!(d.quantile(0.3), 2.0);
        assert_eq!(d.quantile(0.75), 2.0);
        assert_eq!(d.quantile(0.76), 4.0);
        assert_eq!(d.quantile(1.0), 4.0);
    }

    #[test]
    fn nan_cdf_never_panics() {
        // An infinite weight normalizes to a NaN CDF (inf / inf).
        let d = DiscreteWeighted::new(&[(1.0, f64::INFINITY), (2.0, 1.0)]);
        let mut rng = seeded_rng(114);
        for _ in 0..100 {
            assert!(d.sample_index(&mut rng) < d.len());
        }
        for p in [0.0, 0.5, 1.0] {
            let q = d.quantile(p);
            assert!(q == 1.0 || q == 2.0, "quantile({p}) = {q}");
        }
    }

    #[test]
    fn negative_zero_probability_is_the_zero_quantile() {
        let d = DiscreteWeighted::new(&[(1.0, 0.0), (2.0, 1.0)]);
        assert_eq!(d.quantile(-0.0), d.quantile(0.0));
    }

    #[test]
    fn empirical_quantile_endpoints() {
        let e = EmpiricalQuantile::new(&[5.0, 1.0, 3.0]);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 5.0);
        assert_eq!(e.quantile(0.5), 3.0);
    }

    #[test]
    fn empirical_resampling_preserves_distribution() {
        let sample: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let e = EmpiricalQuantile::new(&sample);
        let mut rng = seeded_rng(113);
        let resampled = e.sample_n(&mut rng, 100_000);
        let m1 = crate::describe::mean(&sample);
        let m2 = crate::describe::mean(&resampled);
        assert!((m1 - m2).abs() / m1 < 0.02, "{m1} vs {m2}");
        let med1 = crate::order::median(&sample);
        let med2 = crate::order::median(&resampled);
        assert!((med1 - med2).abs() / med1 < 0.03, "{med1} vs {med2}");
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn all_zero_weights_panic() {
        DiscreteWeighted::new(&[(1.0, 0.0), (2.0, 0.0)]);
    }
}
