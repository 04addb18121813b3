//! Online Hurst re-estimation for streaming windows.
//!
//! The streaming co-plot driver re-estimates the Hurst parameter of a
//! growing series (e.g. the cumulative inter-arrival series) after every
//! sealed window. Re-running [`crate::rs::rs_hurst`] from scratch rebuilds
//! the prefix sums its pox plot needs in O(total series) per window;
//! [`OnlineHurst`] instead owns those prefix arrays and extends them in
//! O(new values) per window. It also keeps each block size's running R/S
//! sum, so a re-plot scans only the blocks completed since the last one
//! rather than every block at every size. The appends perform the exact
//! left-to-right accumulation the batch pass does, and a resumed sum adds
//! the same terms in the same order, so every estimate is bit-identical to
//! the batch estimator on the same series (pinned by
//! `online_matches_batch_bit_exact` and
//! `resumed_plot_equals_fresh_plot_after_every_append`).
//!
//! The variance-time and periodogram estimators have no reusable prefix
//! structure, but the periodogram's FFT goes through the workspace-wide
//! plan cache (`wl-selfsim::fft`), so repeated re-estimation at recurring
//! (padded) lengths reuses bit-reversal/twiddle tables across windows.

use crate::hurst::{HurstEstimate, HurstEstimator};
use crate::rs::{
    pox_plot_resumable, pox_slope, PoxPoint, PoxSums, DEFAULT_MIN_BLOCK, DEFAULT_POINTS,
};

/// Incrementally maintained series state for repeated Hurst estimation.
#[derive(Debug, Clone)]
pub struct OnlineHurst {
    series: Vec<f64>,
    /// `p[i]` = sum of `series[..i]`; always one longer than `series`.
    p: Vec<f64>,
    /// `q[i]` = sum of squares of `series[..i]`.
    q: Vec<f64>,
    /// Running R/S sums per block size over the blocks scanned so far.
    rs_sums: PoxSums,
}

impl Default for OnlineHurst {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineHurst {
    /// An empty series.
    pub fn new() -> Self {
        OnlineHurst {
            series: Vec::new(),
            p: vec![0.0],
            q: vec![0.0],
            rs_sums: PoxSums::default(),
        }
    }

    /// Append one window's values, extending the prefix sums in place.
    pub fn extend(&mut self, values: &[f64]) {
        self.series.reserve(values.len());
        self.p.reserve(values.len());
        self.q.reserve(values.len());
        // Safe unwraps: construction seeds both arrays with a leading zero.
        let mut ps = *self.p.last().unwrap();
        let mut qs = *self.q.last().unwrap();
        for &v in values {
            ps += v;
            qs += v * v;
            self.series.push(v);
            self.p.push(ps);
            self.q.push(qs);
        }
        wl_obs::counter!("selfsim.online.appended", values.len() as u64);
    }

    /// Values accumulated so far.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The accumulated series.
    pub fn series(&self) -> &[f64] {
        &self.series
    }

    /// The R/S pox plot over the current series, computed from the
    /// maintained prefix sums (no per-call prefix rebuild), resuming each
    /// block size's sum where the previous plot left it.
    pub fn pox_plot(&mut self, min_block: usize, points: usize) -> Vec<PoxPoint> {
        pox_plot_resumable(&self.p, &self.q, min_block, points, &mut self.rs_sums)
    }

    /// R/S Hurst estimate over the current series; bit-identical to
    /// [`crate::rs::rs_hurst`] on [`Self::series`]. `None` while the series
    /// is too short or degenerate.
    pub fn rs_hurst(&mut self) -> Option<f64> {
        pox_slope(&self.pox_plot(DEFAULT_MIN_BLOCK, DEFAULT_POINTS))
    }

    /// Run one estimator over the current series. R/S goes through the
    /// prefix-sum fast path; the others delegate to the batch estimator
    /// (the periodogram still benefits from the shared FFT plan cache).
    pub fn estimate(&mut self, estimator: HurstEstimator) -> Option<f64> {
        match estimator {
            HurstEstimator::RsAnalysis => self.rs_hurst(),
            other => other.estimate(&self.series),
        }
    }

    /// Run all three estimators, as [`crate::hurst::estimate_all`] does.
    pub fn estimate_all(&mut self) -> Vec<HurstEstimate> {
        HurstEstimator::ALL
            .iter()
            .filter_map(|&e| self.estimate(e).map(|h| HurstEstimate { estimator: e, h }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hurst::estimate_all;
    use crate::rs::{pox_plot, rs_hurst};
    use proptest::prelude::*;
    use wl_stats::rng::seeded_rng;
    use rand::Rng;

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0)
            .collect()
    }

    #[test]
    fn online_matches_batch_bit_exact() {
        // Feed the series in irregular window-sized slices; after every
        // append the online estimate must match the batch estimator on the
        // accumulated prefix bit for bit.
        let x = noise(4096, 7);
        let mut online = OnlineHurst::new();
        let mut fed = 0usize;
        for (i, chunk_len) in [130usize, 64, 257, 512, 1000, 2048].iter().enumerate() {
            let hi = (fed + chunk_len).min(x.len());
            online.extend(&x[fed..hi]);
            fed = hi;
            let batch = rs_hurst(&x[..fed]);
            let got = online.rs_hurst();
            match (got, batch) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits(), "append {i}"),
                (a, b) => assert_eq!(a, b, "append {i}"),
            }
        }
        assert_eq!(online.len(), fed);
    }

    #[test]
    fn all_estimators_agree_with_batch() {
        let x = noise(2048, 11);
        let mut online = OnlineHurst::new();
        online.extend(&x);
        let batch = estimate_all(&x);
        let streamed = online.estimate_all();
        assert_eq!(batch.len(), streamed.len());
        for (b, s) in batch.iter().zip(&streamed) {
            assert_eq!(b.estimator, s.estimator);
            assert_eq!(b.h.to_bits(), s.h.to_bits());
        }
    }

    #[test]
    fn short_series_yields_none() {
        let mut online = OnlineHurst::new();
        assert!(online.is_empty());
        assert_eq!(online.rs_hurst(), None);
        online.extend(&[1.0, 2.0, 3.0]);
        assert_eq!(online.rs_hurst(), None);
        assert!(online.estimate_all().is_empty());
    }

    /// Plot `online`'s series with resumed sums and from scratch; both
    /// must agree to the bit, point by point.
    fn assert_resumed_equals_fresh(online: &mut OnlineHurst, min_block: usize, points: usize) {
        let resumed = online.pox_plot(min_block, points);
        let fresh = pox_plot(online.series(), min_block, points);
        assert_eq!(resumed.len(), fresh.len(), "len {}", online.len());
        for (r, f) in resumed.iter().zip(&fresh) {
            assert_eq!(r.block_size, f.block_size);
            assert_eq!(r.blocks, f.blocks);
            assert_eq!(
                r.mean_rs.to_bits(),
                f.mean_rs.to_bits(),
                "size {}",
                r.block_size
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn resumed_plot_equals_fresh_plot_after_every_append(
            appends in proptest::collection::vec(1usize..300, 1..24),
            seed in 0u64..1_000_000,
            min_block in 4usize..12,
            points in 2usize..24,
        ) {
            let total: usize = appends.iter().sum();
            let x = noise(total, seed);
            let mut online = OnlineHurst::new();
            let mut fed = 0;
            for len in appends {
                online.extend(&x[fed..fed + len]);
                fed += len;
                assert_resumed_equals_fresh(&mut online, min_block, points);
                assert_eq!(
                    online.rs_hurst().map(f64::to_bits),
                    rs_hurst(online.series()).map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn block_size_returning_after_a_gap_resumes_correctly() {
        // The 4-point plot over 8..=n/2 uses block size 32 at 64 values
        // (2 blocks), not at 96 (8, 15, 26, 48), and again at 128, where
        // it resumes from the 2 blocks scanned at 64. A plot with other
        // parameters in between adds sizes of its own to the same sums.
        let x = noise(400, 5);
        let mut online = OnlineHurst::new();
        let mut fed = 0;
        for (end, points) in [(64, 4), (96, 4), (100, 7), (128, 4), (131, 3), (400, 4)] {
            online.extend(&x[fed..end]);
            fed = end;
            assert_resumed_equals_fresh(&mut online, 8, points);
        }
        let sizes = |online: &mut OnlineHurst| -> Vec<usize> {
            online.pox_plot(8, 4).iter().map(|p| p.block_size).collect()
        };
        let mut probe = OnlineHurst::new();
        probe.extend(&x[..64]);
        assert!(sizes(&mut probe).contains(&32), "{:?}", sizes(&mut probe));
        probe.extend(&x[64..96]);
        assert!(!sizes(&mut probe).contains(&32), "{:?}", sizes(&mut probe));
        probe.extend(&x[96..128]);
        assert!(sizes(&mut probe).contains(&32), "{:?}", sizes(&mut probe));
    }

    #[test]
    fn default_equals_new() {
        let mut a = OnlineHurst::default();
        a.extend(&[1.0, 4.0, 2.0]);
        let mut b = OnlineHurst::new();
        b.extend(&[1.0, 4.0, 2.0]);
        assert_eq!(a.series(), b.series());
    }

    #[test]
    fn extend_in_pieces_equals_extend_at_once() {
        let x = noise(1024, 3);
        let mut a = OnlineHurst::new();
        a.extend(&x);
        let mut b = OnlineHurst::new();
        for chunk in x.chunks(100) {
            b.extend(chunk);
        }
        assert_eq!(a.series(), b.series());
        assert_eq!(
            a.rs_hurst().map(f64::to_bits),
            b.rs_hurst().map(f64::to_bits)
        );
    }
}
