//! Exact fractional Gaussian noise (fGn) generators.
//!
//! fGn is *the* reference self-similar process: a stationary Gaussian series
//! with autocovariance
//!
//! ```text
//! gamma(k) = 0.5 (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})
//! ```
//!
//! whose aggregated variance decays exactly like `m^{2H-2}`. Two exact
//! generators are provided:
//!
//! * [`FgnDaviesHarte`] — circulant embedding + FFT, O(n log n), the
//!   workhorse for long series;
//! * [`FgnHosking`] — the Durbin-Levinson / Hosking recursion, O(n^2) but
//!   streaming and embedding-free, used to cross-validate Davies-Harte and
//!   for short series.
//!
//! The log synthesizer uses fGn to give production-log stand-ins the
//! long-range dependence the paper measures in Table 3, and the estimator
//! tests use it as ground truth.

use crate::fft::{self, FftPlan};
use rand::RngCore;
use std::sync::Arc;
use wl_stats::dist::Normal;

/// The fGn autocovariance `gamma(k)` for unit-variance noise.
///
/// # Panics
/// Panics unless `0 < h < 1`.
pub fn fgn_autocovariance(h: f64, k: usize) -> f64 {
    assert!(h > 0.0 && h < 1.0, "H must be in (0,1), got {h}");
    if k == 0 {
        return 1.0;
    }
    let k = k as f64;
    let two_h = 2.0 * h;
    0.5 * ((k + 1.0).powf(two_h) - 2.0 * k.powf(two_h) + (k - 1.0).powf(two_h))
}

/// `gamma(0..len)`, bit-identical to [`fgn_autocovariance`] at each lag
/// but with one `powf` per lag instead of three: `k^{2H}` is computed once
/// and shared by the three neighbouring lags that use it (integer-valued
/// `k ± 1` are exact in `f64`, so the powers are the same values).
///
/// # Panics
/// Panics unless `0 < h < 1`.
pub fn fgn_autocovariances(h: f64, len: usize) -> Vec<f64> {
    assert!(h > 0.0 && h < 1.0, "H must be in (0,1), got {h}");
    let two_h = 2.0 * h;
    let pow: Vec<f64> = (0..=len).map(|k| (k as f64).powf(two_h)).collect();
    (0..len)
        .map(|k| {
            if k == 0 {
                1.0
            } else {
                0.5 * (pow[k + 1] - 2.0 * pow[k] + pow[k - 1])
            }
        })
        .collect()
}

/// Davies-Harte exact fGn generator: precomputes the circulant-embedding
/// eigenvalues for a fixed length, then generates independent sample paths.
///
/// The eigenvalues depend on `(h, n)` alone, so their amplitude spectrum is
/// kept in the process-wide transform cache beside the FFT plans (see
/// [`fft::CACHE_BUDGET_BYTES`]): a second generator for the same `(h, n)`
/// skips the `powf` sweep and the FFT and yields the same paths, bit for
/// bit.
#[derive(Debug, Clone)]
pub struct FgnDaviesHarte {
    h: f64,
    n: usize,
    /// sqrt(lambda_j / m), the per-bin amplitude, for bins `0..=m/2` (the
    /// upper half mirrors it).
    amps: Arc<[f64]>,
    /// Embedding size (power of two, >= 2n).
    m: usize,
    /// Shared FFT plan for the embedding size; every generated path reuses
    /// its precomputed tables.
    plan: Arc<FftPlan>,
}

impl FgnDaviesHarte {
    /// Prepare a generator for paths of length `n` with Hurst parameter
    /// `h` in `(0, 1)`.
    ///
    /// Returns an error when the circulant embedding has (numerically)
    /// negative eigenvalues — which does not happen for fGn's covariance,
    /// but the check guards the math.
    ///
    /// # Panics
    /// Panics for `n == 0` or `h` outside `(0, 1)`.
    pub fn new(h: f64, n: usize) -> Result<Self, String> {
        assert!(n > 0, "path length must be positive");
        assert!(h > 0.0 && h < 1.0, "H must be in (0,1), got {h}");

        // Power-of-two embedding size m >= 2n keeps the FFT radix-2.
        let m = (2 * n).next_power_of_two();
        let plan = fft::plan(m);
        let amps = fft::spectrum(h, n, || Self::spectrum(h, m, &plan))?;
        Ok(FgnDaviesHarte { h, n, amps, m, plan })
    }

    /// The amplitudes `sqrt(lambda_j / m)` for bins `0..=m/2` of the
    /// size-`m` circulant embedding.
    fn spectrum(h: f64, m: usize, plan: &FftPlan) -> Result<Arc<[f64]>, String> {
        let half = m / 2;
        // Circulant first row: gamma(0..=half), then mirrored.
        let mut c = fgn_autocovariances(h, half + 1);
        c.resize(m, 0.0);
        for k in 1..half {
            c[m - k] = c[k];
        }
        // Eigenvalues = FFT of the first row (real by symmetry).
        let mut re = c;
        let mut im = vec![0.0; m];
        plan.process_pow2(&mut re, &mut im, false);
        let mut amps = Vec::with_capacity(half + 1);
        for (j, &lambda) in re.iter().enumerate() {
            if lambda < -1e-8 {
                return Err(format!(
                    "negative circulant eigenvalue {lambda} at bin {j} (H = {h})"
                ));
            }
            if j <= half {
                amps.push((lambda.max(0.0) / m as f64).sqrt());
            }
        }
        Ok(amps.into())
    }

    /// The Hurst parameter.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// The path length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the configured length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Generate one exact fGn path of length `n` (unit variance, zero mean).
    pub fn generate(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        let m = self.m;
        let half = m / 2;
        let mut re = vec![0.0; m];
        let mut im = vec![0.0; m];

        // Hermitian-symmetric complex Gaussian spectrum.
        re[0] = self.amps[0] * Normal::sample_standard(rng) * (2.0f64).sqrt();
        re[half] = self.amps[half] * Normal::sample_standard(rng) * (2.0f64).sqrt();
        for j in 1..half {
            let zr = Normal::sample_standard(rng);
            let zi = Normal::sample_standard(rng);
            re[j] = self.amps[j] * zr;
            im[j] = self.amps[j] * zi;
            re[m - j] = re[j];
            im[m - j] = -im[j];
        }

        self.plan.process_pow2(&mut re, &mut im, false);
        // Real part of the first n entries, scaled: the construction above
        // makes Var = 2 per sample (both halves contribute), so divide by
        // sqrt(2).
        let scale = 1.0 / (2.0f64).sqrt();
        re.truncate(self.n);
        for v in &mut re {
            *v *= scale;
        }
        re
    }
}

/// Hosking's exact sequential fGn generator (Durbin-Levinson recursion).
#[derive(Debug, Clone, Copy)]
pub struct FgnHosking {
    h: f64,
}

impl FgnHosking {
    /// Create for a Hurst parameter in `(0, 1)`.
    ///
    /// # Panics
    /// Panics for `h` outside `(0, 1)`.
    pub fn new(h: f64) -> Self {
        assert!(h > 0.0 && h < 1.0, "H must be in (0,1), got {h}");
        FgnHosking { h }
    }

    /// The Hurst parameter.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Generate an exact path of length `n` (unit variance, zero mean).
    /// O(n^2) time, O(n) space.
    pub fn generate(&self, rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let gamma = fgn_autocovariances(self.h, n);

        let mut x = Vec::with_capacity(n);
        x.push(Normal::sample_standard(rng)); // gamma(0) = 1

        // Durbin-Levinson state.
        let mut phi: Vec<f64> = Vec::new(); // phi_{t,k}, k = 1..=t
        let mut v = 1.0; // prediction error variance

        for t in 1..n {
            // New reflection coefficient phi_{t,t}.
            let mut acc = gamma[t];
            for (k, &p) in phi.iter().enumerate() {
                acc -= p * gamma[t - 1 - k];
            }
            let kappa = acc / v;
            // Update the coefficient vector: phi'_k = phi_k - kappa *
            // phi_{t-1-k} (reversed), then append kappa.
            let prev = phi.clone();
            for (k, p) in phi.iter_mut().enumerate() {
                *p -= kappa * prev[prev.len() - 1 - k];
            }
            phi.push(kappa);
            v *= 1.0 - kappa * kappa;
            debug_assert!(v > 0.0, "prediction variance must stay positive");

            // Conditional mean of X_t given the past.
            let mean: f64 = phi
                .iter()
                .enumerate()
                .map(|(k, &p)| p * x[t - 1 - k])
                .sum();
            x.push(mean + v.max(0.0).sqrt() * Normal::sample_standard(rng));
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_stats::rng::seeded_rng;

    fn sample_autocov(x: &[f64], k: usize) -> f64 {
        let n = x.len();
        let mean = x.iter().sum::<f64>() / n as f64;
        (0..n - k)
            .map(|i| (x[i] - mean) * (x[i + k] - mean))
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn autocovariance_h_half_is_white() {
        assert!((fgn_autocovariance(0.5, 0) - 1.0).abs() < 1e-12);
        for k in 1..10 {
            assert!(fgn_autocovariance(0.5, k).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn autocovariance_positive_and_decaying_for_persistent_h() {
        let h = 0.8;
        let mut prev = fgn_autocovariance(h, 1);
        assert!(prev > 0.0);
        for k in 2..50 {
            let g = fgn_autocovariance(h, k);
            assert!(g > 0.0 && g < prev, "k = {k}");
            prev = g;
        }
    }

    #[test]
    fn autocovariance_negative_for_antipersistent_h() {
        assert!(fgn_autocovariance(0.2, 1) < 0.0);
    }

    #[test]
    fn davies_harte_matches_target_autocovariance() {
        let gen = FgnDaviesHarte::new(0.8, 16384).unwrap();
        let mut rng = seeded_rng(31);
        let x = gen.generate(&mut rng);
        assert_eq!(x.len(), 16384);
        // Variance near 1.
        let var = sample_autocov(&x, 0);
        assert!((var - 1.0).abs() < 0.15, "var = {var}");
        // Lag-1 and lag-4 autocovariances near theory.
        for k in [1usize, 4] {
            let got = sample_autocov(&x, k) / var;
            let want = fgn_autocovariance(0.8, k);
            assert!(
                (got - want).abs() < 0.08,
                "lag {k}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn hosking_matches_target_autocovariance() {
        let gen = FgnHosking::new(0.75);
        let mut rng = seeded_rng(32);
        let x = gen.generate(&mut rng, 4096);
        let var = sample_autocov(&x, 0);
        assert!((var - 1.0).abs() < 0.2, "var = {var}");
        let got = sample_autocov(&x, 1) / var;
        let want = fgn_autocovariance(0.75, 1);
        assert!((got - want).abs() < 0.1, "{got} vs {want}");
    }

    #[test]
    fn h_half_paths_look_iid() {
        let gen = FgnDaviesHarte::new(0.5, 8192).unwrap();
        let mut rng = seeded_rng(33);
        let x = gen.generate(&mut rng);
        let var = sample_autocov(&x, 0);
        let r1 = sample_autocov(&x, 1) / var;
        assert!(r1.abs() < 0.05, "lag-1 corr = {r1}");
    }

    #[test]
    fn generators_agree_statistically() {
        // Same H: aggregated variances should decay identically.
        let h = 0.7;
        let mut rng = seeded_rng(34);
        let dh = FgnDaviesHarte::new(h, 8192).unwrap().generate(&mut rng);
        let hos = FgnHosking::new(h).generate(&mut rng, 2048);
        let ratio = |x: &[f64]| {
            let v1 = sample_autocov(x, 0);
            let agg = crate::aggregate::aggregate_series(x, 16);
            let v16 = {
                let m = agg.iter().sum::<f64>() / agg.len() as f64;
                agg.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / agg.len() as f64
            };
            v16 / v1
        };
        // Theory: Var(X^(m))/Var(X) = m^{2H-2} = 16^{-0.6} ~ 0.189.
        let want = 16.0f64.powf(2.0 * h - 2.0);
        let r1 = ratio(&dh);
        let r2 = ratio(&hos);
        assert!((r1 - want).abs() / want < 0.45, "DH ratio {r1} vs {want}");
        assert!((r2 - want).abs() / want < 0.45, "Hosking ratio {r2} vs {want}");
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = FgnDaviesHarte::new(0.6, 256).unwrap();
        let a = gen.generate(&mut seeded_rng(35));
        let b = gen.generate(&mut seeded_rng(35));
        assert_eq!(a, b);
    }

    #[test]
    fn shared_powers_autocovariances_are_bit_identical() {
        for h in [0.05, 0.3, 0.5, 0.74, 0.95] {
            let gamma = fgn_autocovariances(h, 300);
            for (k, g) in gamma.iter().enumerate() {
                assert_eq!(g.to_bits(), fgn_autocovariance(h, k).to_bits(), "h {h} lag {k}");
            }
        }
    }

    /// A reference generator that bypasses the cache: three `powf` per lag,
    /// the planless FFT for the spectrum, a plan of its own for the paths.
    fn uncached_generator(h: f64, n: usize) -> FgnDaviesHarte {
        let m = (2 * n).next_power_of_two();
        let mut re = vec![0.0; m];
        for (k, slot) in re.iter_mut().enumerate().take(m / 2 + 1) {
            *slot = fgn_autocovariance(h, k);
        }
        for k in 1..m / 2 {
            re[m - k] = re[k];
        }
        let mut im = vec![0.0; m];
        fft::fft_pow2(&mut re, &mut im, false);
        let plan = Arc::new(FftPlan::new(m));
        let amps: Vec<f64> = re[..=m / 2]
            .iter()
            .map(|&lambda| (lambda.max(0.0) / m as f64).sqrt())
            .collect();
        FgnDaviesHarte { h, n, amps: amps.into(), m, plan }
    }

    #[test]
    fn cached_spectrum_paths_are_bit_identical_to_a_fresh_build() {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for (h, n) in [(0.76, 8192), (0.62, 1000), (0.5, 1), (0.9, 3)] {
            let fresh = uncached_generator(h, n);
            let first = FgnDaviesHarte::new(h, n).unwrap();
            let second = FgnDaviesHarte::new(h, n).unwrap();
            assert!(Arc::ptr_eq(&first.amps, &second.amps), "spectrum not shared");
            let want = bits(fresh.generate(&mut seeded_rng(37)));
            assert_eq!(bits(first.generate(&mut seeded_rng(37))), want, "h {h} n {n}");
            assert_eq!(bits(second.generate(&mut seeded_rng(37))), want, "h {h} n {n}");
        }
    }

    #[test]
    fn hosking_empty_path() {
        assert!(FgnHosking::new(0.7)
            .generate(&mut seeded_rng(36), 0)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "H must be in (0,1)")]
    fn invalid_h_panics() {
        FgnHosking::new(1.0);
    }
}
