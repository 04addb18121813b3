//! Order statistics: percentiles, medians, and the paper's "90% interval".
//!
//! The paper argues (section 3) that means and coefficients of variation of
//! workload attributes are unstable because of extremely long tails — removing
//! the 0.1% most extreme jobs can shift the CV by 40% — and therefore uses
//! order statistics throughout: medians, and the difference between the 95th
//! and 5th percentile ("90% interval").
//!
//! Every ordering here is [`f64::total_cmp`], so a NaN (say, from a
//! degenerate trace) takes a place in the order instead of panicking: a
//! positive NaN sorts after `+inf`, a negative one before `-inf`. Values
//! that compare equal under `total_cmp` have identical bits, so any two
//! routes to the k-th smallest value — a full sort or a selection — return
//! the same bits.

use std::cmp::Ordering;

/// The interpolation ranks of percentile `p` over `n > 0` sorted values:
/// `(lo, hi, frac)` with the percentile at `v[lo] * (1 - frac) + v[hi] *
/// frac` (`lo == hi` means no interpolation).
fn percentile_ranks(n: usize, p: f64) -> (usize, usize, f64) {
    let idx = p / 100.0 * (n - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    (lo, hi, idx - lo as f64)
}

/// The percentile at `percentile_ranks(n, p)`, from the values there.
fn interpolate(lo: usize, hi: usize, frac: f64, at: impl Fn(usize) -> f64) -> f64 {
    if lo == hi {
        at(lo)
    } else {
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// The lower and upper percentiles of a central interval of `width`.
fn interval_tails(width: f64) -> (f64, f64) {
    let tail = (1.0 - width) / 2.0 * 100.0;
    (tail, 100.0 - tail)
}

/// Linear-interpolation percentile (the "type 7" estimator used by most
/// statistics packages). `p` is in `[0, 100]`.
///
/// Returns `f64::NAN` for empty input.
///
/// # Panics
/// Panics when `p` is outside `[0, 100]`.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0,100]");
    if data.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Percentile of data already sorted ascending (no copy).
///
/// # Panics
/// Panics when `p` is outside `[0, 100]` (in debug builds also when the data
/// is not sorted ascending; NaNs may sit anywhere).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0,100]");
    debug_assert!(
        sorted
            .windows(2)
            .all(|w| w[0].partial_cmp(&w[1]) != Some(Ordering::Greater)),
        "input must be sorted"
    );
    if sorted.is_empty() {
        return f64::NAN;
    }
    let (lo, hi, frac) = percentile_ranks(sorted.len(), p);
    interpolate(lo, hi, frac, |r| sorted[r])
}

/// The median (50th percentile).
pub fn median(data: &[f64]) -> f64 {
    percentile(data, 50.0)
}

/// The paper's central interval: for `width` in `(0, 1]`, the difference
/// between the `(1+width)/2` and `(1-width)/2` quantiles. `interval(d, 0.90)`
/// is the 95th minus the 5th percentile.
///
/// # Panics
/// Panics when `width` is outside `(0, 1]`.
pub fn interval(data: &[f64], width: f64) -> f64 {
    Percentiles::new(data).interval(width)
}

/// The median and the central interval of `width` (see [`interval`]) in
/// one pass, by selection instead of a full sort: `None` for empty data.
///
/// Bit-identical to [`Percentiles::median`] and [`Percentiles::interval`]
/// on the same values: the same ranks and interpolation, and the k-th
/// smallest value under [`f64::total_cmp`] has the same bits however it is
/// found. Reorders `data` in place and allocates nothing, in expected
/// linear time.
///
/// # Panics
/// Panics when `width` is outside `(0, 1]`.
pub fn median_interval(data: &mut [f64], width: f64) -> Option<(f64, f64)> {
    assert!(width > 0.0 && width <= 1.0, "interval width {width} out of (0,1]");
    let n = data.len();
    if n == 0 {
        return None;
    }
    let (tail_lo, tail_hi) = interval_tails(width);
    let [mid, low, high] = [50.0, tail_lo, tail_hi].map(|p| percentile_ranks(n, p));
    let mut wanted = [mid.0, mid.1, low.0, low.1, high.0, high.1];
    wanted.sort_unstable();
    select_ranks(data, 0, &wanted);
    let at = |(lo, hi, frac): (usize, usize, f64)| interpolate(lo, hi, frac, |r| data[r]);
    Some((at(mid), at(high) - at(low)))
}

/// Permute `data` (the values at ranks `offset..offset + data.len()` of a
/// larger slice) so that each rank in `wanted` (ascending) holds its order
/// statistic: select the middle rank, then recurse into the partitions on
/// either side of it with the ranks that fall there.
fn select_ranks(data: &mut [f64], offset: usize, wanted: &[usize]) {
    let Some(&pivot) = wanted.get(wanted.len() / 2) else {
        return;
    };
    let below = wanted.partition_point(|&r| r < pivot);
    let above = wanted.partition_point(|&r| r <= pivot);
    let (left, _, right) = data.select_nth_unstable_by(pivot - offset, f64::total_cmp);
    select_ranks(left, offset, &wanted[..below]);
    select_ranks(right, pivot + 1, &wanted[above..]);
}

/// A reusable set of percentiles computed in one sorting pass.
#[derive(Debug, Clone)]
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    /// Sort once; query many times.
    pub fn new(data: &[f64]) -> Self {
        let mut sorted: Vec<f64> = data.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Percentiles { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there is no data.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Percentile `p` in `[0, 100]`.
    pub fn at(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.at(50.0)
    }

    /// Central interval of the given width (see [`interval`]).
    pub fn interval(&self, width: f64) -> f64 {
        assert!(width > 0.0 && width <= 1.0, "interval width {width} out of (0,1]");
        let (tail_lo, tail_hi) = interval_tails(width);
        self.at(tail_hi) - self.at(tail_lo)
    }

    /// Minimum (NaN when empty).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    /// Maximum (NaN when empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_endpoints() {
        let d = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&d, 0.0), 10.0);
        assert_eq!(percentile(&d, 100.0), 40.0);
    }

    #[test]
    fn percentile_interpolates() {
        let d = [0.0, 10.0];
        assert!((percentile(&d, 25.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&d, 75.0) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn single_element() {
        assert_eq!(percentile(&[42.0], 17.0), 42.0);
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn empty_is_nan() {
        assert!(percentile(&[], 50.0).is_nan());
        assert!(interval(&[], 0.9).is_nan());
    }

    #[test]
    fn ninety_percent_interval() {
        // 0..=100 evenly: p95 - p5 = 95 - 5 = 90.
        let d: Vec<f64> = (0..=100).map(|v| v as f64).collect();
        assert!((interval(&d, 0.90) - 90.0).abs() < 1e-9);
        assert!((interval(&d, 0.50) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn interval_is_tail_insensitive() {
        // Blowing up the top value must not change the 90% interval much
        // for a large sample - this is the paper's motivation for using it.
        let mut d: Vec<f64> = (0..1000).map(|v| v as f64).collect();
        let before = interval(&d, 0.90);
        d[999] = 1e12;
        let after = interval(&d, 0.90);
        assert!((before - after).abs() < 2.0);
    }

    #[test]
    fn percentiles_struct_matches_free_functions() {
        let d = [5.0, 1.0, 9.0, 3.0, 7.0];
        let p = Percentiles::new(&d);
        assert_eq!(p.len(), 5);
        assert_eq!(p.median(), median(&d));
        assert!((p.at(30.0) - percentile(&d, 30.0)).abs() < 1e-12);
        assert!((p.interval(0.9) - interval(&d, 0.9)).abs() < 1e-12);
        assert_eq!(p.min(), 1.0);
        assert_eq!(p.max(), 9.0);
    }

    #[test]
    fn unsorted_input_handled() {
        let d = [9.0, 1.0, 5.0];
        assert_eq!(median(&d), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of [0,100]")]
    fn out_of_range_percentile_panics() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn nan_sorts_last_instead_of_panicking() {
        let d = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(median(&d), 2.5);
        assert!(percentile(&d, 100.0).is_nan());
        assert!(interval(&d, 0.9).is_nan());
        let p = Percentiles::new(&d);
        assert_eq!(p.min(), 1.0);
        assert!(p.max().is_nan());
        let (m, i) = median_interval(&mut d.clone(), 0.9).unwrap();
        assert_eq!(m, 2.5);
        assert!(i.is_nan());
    }

    #[test]
    fn median_interval_of_empty_is_none() {
        assert_eq!(median_interval(&mut [], 0.9), None);
    }

    /// The selection helper against the sort-based reference, bit for bit.
    fn assert_selection_matches_sort(data: &[f64], width: f64) {
        let p = Percentiles::new(data);
        let (m, i) = median_interval(&mut data.to_vec(), width).unwrap();
        assert_eq!(m.to_bits(), p.median().to_bits(), "median of {data:?}");
        assert_eq!(i.to_bits(), p.interval(width).to_bits(), "interval of {data:?}");
    }

    #[test]
    fn median_interval_small_and_constant_columns() {
        for data in [
            vec![7.5],
            vec![2.0, 1.0],
            vec![3.0, 1.0, 2.0],
            vec![1.0, 1.0, 1.0],
            vec![-0.0, 0.0, -0.0],
            vec![4.0; 20],
        ] {
            for width in [0.9, 0.5, 1.0, 0.01] {
                assert_selection_matches_sort(&data, width);
            }
        }
    }

    use proptest::prelude::*;

    /// Columns with many ties: values drawn from a handful of levels.
    fn tied_column(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(0u32..6, 1..=max_len)
            .prop_map(|levels| levels.into_iter().map(|l| l as f64 * 0.25).collect())
    }

    proptest! {
        #[test]
        fn median_interval_matches_percentiles_on_continuous_columns(
            data in proptest::collection::vec(-1e6f64..1e6, 1..300),
            width in 0.01f64..1.0,
        ) {
            assert_selection_matches_sort(&data, width);
            assert_selection_matches_sort(&data, 0.9);
        }

        #[test]
        fn median_interval_matches_percentiles_with_ties(data in tied_column(200)) {
            assert_selection_matches_sort(&data, 0.9);
        }

        #[test]
        fn median_interval_matches_percentiles_on_tiny_columns(
            data in tied_column(3),
            width in 0.01f64..1.0,
        ) {
            assert_selection_matches_sort(&data, width);
        }
    }
}
