//! Weighted isotonic regression by pool-adjacent-violators (PAVA).
//!
//! Nonmetric MDS replaces raw dissimilarities with *disparities*: the
//! monotone (order-preserving) transform of the dissimilarities that best
//! matches the current map distances in the least-squares sense. That
//! transform is exactly an isotonic regression of the distances against the
//! dissimilarity order, which PAVA solves optimally in linear time.

use crate::error::StatsError;

/// Weighted isotonic regression: given `y` (and optional non-negative
/// weights), return the non-decreasing sequence `f` minimizing
/// `sum w_i (y_i - f_i)^2`.
///
/// # Panics
/// Panics on length mismatch or a negative weight; see
/// [`try_isotonic_regression`] for the fallible variant.
pub fn isotonic_regression(y: &[f64], w: Option<&[f64]>) -> Vec<f64> {
    try_isotonic_regression(y, w).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`isotonic_regression`], used by callers (like the
/// MDS optimizer) that must report invalid input instead of panicking.
///
/// # Errors
/// Returns [`StatsError::LengthMismatch`] when the weight slice's length
/// differs from `y`'s and [`StatsError::NegativeWeight`] for a negative
/// weight.
pub fn try_isotonic_regression(y: &[f64], w: Option<&[f64]>) -> Result<Vec<f64>, StatsError> {
    if let Some(w) = w {
        if w.len() != y.len() {
            return Err(StatsError::LengthMismatch {
                context: "isotonic_regression",
                left: w.len(),
                right: y.len(),
            });
        }
        if w.iter().any(|&v| v < 0.0) {
            return Err(StatsError::NegativeWeight {
                context: "isotonic_regression",
            });
        }
    }
    let mut blocks = Vec::with_capacity(y.len());
    match w {
        Some(w) => pool_adjacent_violators(y.iter().copied().zip(w.iter().copied()), &mut blocks),
        None => pool_adjacent_violators(y.iter().map(|&v| (v, 1.0)), &mut blocks),
    }
    let mut out = Vec::with_capacity(y.len());
    let mut start = 0;
    for b in &blocks {
        out.extend(std::iter::repeat_n(b.mean, b.end - start));
        start = b.end;
    }
    Ok(out)
}

/// One pooled block of a PAVA solution: every element in
/// `previous block's end .. end` takes the value `mean`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PavaBlock {
    /// Weighted mean of the pooled values.
    pub mean: f64,
    /// Total weight of the pooled values.
    pub weight: f64,
    /// One past the block's last element index.
    pub end: usize,
}

/// The PAVA core: pool `(value, weight)` pairs, in order, into the blocks
/// of their weighted isotonic regression, written to the caller-owned
/// `blocks` stack (cleared first). Taking an iterator lets a caller feed
/// values through a permutation without gathering them into a buffer, and
/// reusing `blocks` makes repeated regressions allocation-free.
///
/// Two adjacent blocks merge while `!(earlier.mean <= later.mean)` into
/// `(m₁w₁ + m₂w₂) / (w₁ + w₂)` (a plain average when both weights are
/// zero). Weights are not validated here; [`try_isotonic_regression`]
/// checks them before calling in.
pub fn pool_adjacent_violators(
    values: impl IntoIterator<Item = (f64, f64)>,
    blocks: &mut Vec<PavaBlock>,
) {
    blocks.clear();
    for (end, (mean, weight)) in (1..).zip(values) {
        let mut cur = PavaBlock { mean, weight, end };
        // Merge backwards while the monotonicity constraint is violated.
        while let Some(&prev) = blocks.last() {
            if prev.mean <= cur.mean {
                break;
            }
            let wsum = prev.weight + cur.weight;
            cur.mean = if wsum > 0.0 {
                (prev.mean * prev.weight + cur.mean * cur.weight) / wsum
            } else {
                // All-zero weights: plain average keeps the output finite.
                (prev.mean + cur.mean) / 2.0
            };
            cur.weight = wsum;
            blocks.pop();
        }
        blocks.push(cur);
    }
}

/// Antitonic (non-increasing) regression, via isotonic on the negated data.
pub fn antitonic_regression(y: &[f64], w: Option<&[f64]>) -> Vec<f64> {
    let neg: Vec<f64> = y.iter().map(|v| -v).collect();
    isotonic_regression(&neg, w).iter().map(|v| -v).collect()
}

/// The three-`Vec` PAVA that preceded [`pool_adjacent_violators`], kept as
/// the test oracle for it.
#[cfg(test)]
fn isotonic_regression_reference(y: &[f64], w: Option<&[f64]>) -> Vec<f64> {
    let n = y.len();
    if n == 0 {
        return Vec::new();
    }

    // Blocks of pooled values: (weighted mean, total weight, count).
    let mut means: Vec<f64> = Vec::with_capacity(n);
    let mut weights: Vec<f64> = Vec::with_capacity(n);
    let mut counts: Vec<usize> = Vec::with_capacity(n);

    for i in 0..n {
        let wi = w.map_or(1.0, |w| w[i]);
        means.push(y[i]);
        weights.push(wi);
        counts.push(1);
        // Merge backwards while the monotonicity constraint is violated.
        while means.len() >= 2 {
            let k = means.len();
            if means[k - 2] <= means[k - 1] {
                break;
            }
            let wsum = weights[k - 2] + weights[k - 1];
            let merged = if wsum > 0.0 {
                (means[k - 2] * weights[k - 2] + means[k - 1] * weights[k - 1]) / wsum
            } else {
                // All-zero weights: plain average keeps the output finite.
                (means[k - 2] + means[k - 1]) / 2.0
            };
            means[k - 2] = merged;
            weights[k - 2] = wsum;
            counts[k - 2] += counts[k - 1];
            means.pop();
            weights.pop();
            counts.pop();
        }
    }

    // Expand blocks back to per-element values.
    let mut out = Vec::with_capacity(n);
    for (m, c) in means.iter().zip(&counts) {
        out.extend(std::iter::repeat_n(*m, *c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The buffer core, through the allocating wrapper, against the oracle.
    fn assert_matches_reference(y: &[f64], w: Option<&[f64]>) {
        assert_eq!(
            bits(&isotonic_regression(y, w)),
            bits(&isotonic_regression_reference(y, w)),
            "y = {y:?}, w = {w:?}"
        );
    }

    #[test]
    fn core_matches_reference_on_shaped_inputs() {
        let rising: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.37).collect();
        let falling: Vec<f64> = rising.iter().rev().copied().collect();
        let constant = vec![2.5; 17];
        let ties = [1.0, 1.0, 0.5, 0.5, 3.0, 3.0, 3.0, 0.0, 0.0];
        for y in [&rising[..], &falling, &constant, &ties, &[7.0], &[]] {
            assert_matches_reference(y, None);
            let w: Vec<f64> = (0..y.len()).map(|i| (i % 3) as f64 * 0.5).collect();
            assert_matches_reference(y, Some(&w));
        }
    }

    #[test]
    fn reused_block_stack_is_cleared() {
        let mut blocks = Vec::new();
        pool_adjacent_violators([(3.0, 1.0), (1.0, 1.0), (5.0, 1.0)], &mut blocks);
        pool_adjacent_violators([(4.0, 1.0), (0.0, 1.0)], &mut blocks);
        assert_eq!(
            blocks,
            vec![PavaBlock {
                mean: 2.0,
                weight: 2.0,
                end: 2
            }]
        );
    }

    proptest! {
        #[test]
        fn core_matches_reference_on_random_inputs(
            y in proptest::collection::vec(-1e3f64..1e3, 0..80),
            w in proptest::collection::vec(0.0f64..5.0, 80),
            weighted in proptest::bool::ANY,
        ) {
            let w = weighted.then(|| &w[..y.len()]);
            assert_matches_reference(&y, w);
        }

        #[test]
        fn core_matches_reference_on_tied_inputs(
            y in proptest::collection::vec(0u8..6, 0..80),
            sorted in 0u8..3,
        ) {
            // Few distinct values force ties and long pooled runs; sorted
            // variants cover already-monotone and reversed inputs. Tenths
            // are not exact in binary, so pooling equal blocks would round
            // differently from leaving them apart.
            let mut y: Vec<f64> = y.into_iter().map(|v| f64::from(v) / 10.0).collect();
            if sorted > 0 {
                y.sort_by(f64::total_cmp);
            }
            if sorted == 2 {
                y.reverse();
            }
            assert_matches_reference(&y, None);
        }
    }

    fn is_nondecreasing(v: &[f64]) -> bool {
        v.windows(2).all(|w| w[0] <= w[1] + 1e-12)
    }

    #[test]
    fn already_monotone_unchanged() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(isotonic_regression(&y, None), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn try_variant_reports_bad_weights() {
        let y = [1.0, 2.0];
        let err = try_isotonic_regression(&y, Some(&[1.0])).unwrap_err();
        assert!(matches!(err, StatsError::LengthMismatch { .. }));
        let err = try_isotonic_regression(&y, Some(&[1.0, -1.0])).unwrap_err();
        assert!(matches!(err, StatsError::NegativeWeight { .. }));
        assert_eq!(try_isotonic_regression(&[], None).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn simple_violation_pooled() {
        // [3, 1] pools to [2, 2].
        assert_eq!(isotonic_regression(&[3.0, 1.0], None), vec![2.0, 2.0]);
    }

    #[test]
    fn textbook_example() {
        let y = [1.0, 3.0, 2.0, 4.0];
        let f = isotonic_regression(&y, None);
        assert_eq!(f, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn output_always_monotone() {
        let y = [5.0, 4.0, 3.0, 2.0, 1.0, 10.0, 0.0];
        let f = isotonic_regression(&y, None);
        assert!(is_nondecreasing(&f), "{f:?}");
    }

    #[test]
    fn weighted_pooling() {
        // Heavy weight on the first point dominates the pooled mean.
        let y = [4.0, 0.0];
        let f = isotonic_regression(&y, Some(&[3.0, 1.0]));
        assert!((f[0] - 3.0).abs() < 1e-12);
        assert_eq!(f[0], f[1]);
    }

    #[test]
    fn preserves_weighted_mean() {
        // Pooling conserves total weighted mass.
        let y = [2.0, 9.0, 1.0, 7.0, 3.0];
        let w = [1.0, 2.0, 1.0, 0.5, 2.0];
        let f = isotonic_regression(&y, Some(&w));
        let before: f64 = y.iter().zip(&w).map(|(a, b)| a * b).sum();
        let after: f64 = f.iter().zip(&w).map(|(a, b)| a * b).sum();
        assert!((before - after).abs() < 1e-9);
        assert!(is_nondecreasing(&f));
    }

    #[test]
    fn antitonic_is_reversed_isotonic() {
        let y = [1.0, 5.0, 3.0, 2.0];
        let f = antitonic_regression(&y, None);
        assert!(f.windows(2).all(|w| w[0] >= w[1] - 1e-12), "{f:?}");
    }

    #[test]
    fn empty_input() {
        assert!(isotonic_regression(&[], None).is_empty());
    }

    #[test]
    fn optimality_against_brute_force_small() {
        // For a 3-element case, compare against a fine grid search over
        // monotone triples.
        let y = [2.0, 0.0, 1.0];
        let f = isotonic_regression(&y, None);
        let cost =
            |g: &[f64]| -> f64 { g.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum() };
        let fcost = cost(&f);
        let grid: Vec<f64> = (0..=40).map(|i| i as f64 * 0.05).collect();
        for &a in &grid {
            for &b in grid.iter().filter(|&&b| b >= a) {
                for &c in grid.iter().filter(|&&c| c >= b) {
                    assert!(fcost <= cost(&[a, b, c]) + 1e-9);
                }
            }
        }
    }
}
