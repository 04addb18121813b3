//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, and the tail percentile rule.

/// The fewest samples a tail must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile a tail may use. Above p99 a 2-core box's tail is
/// scheduler noise, not the program.
pub const TAIL_CAP: u32 = 99;

/// The 1-based nearest rank of whole percentile `p` among `n` samples,
/// in exact integer arithmetic: ⌈p·n/100⌉, at least 1.
fn rank(p: u32, n: usize) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

/// Nearest-rank percentile `p` (1 ≤ p ≤ 100) of `sorted` (ascending).
pub fn nearest_rank(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).min(sorted.len()) - 1]
}

/// The tail percentile for `n` samples: the highest whole percentile, at
/// most [`TAIL_CAP`], whose nearest rank leaves at least [`TAIL_BEYOND`]
/// samples beyond it. `None` when only percentiles below the median do
/// (fewer than 20 samples): a "tail" there would sit under the median.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=TAIL_CAP)
        .rev()
        .find(|&p| n >= rank(p, n) + TAIL_BEYOND)
}

/// A summarised timing distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Tail percentile used (see [`tail_percentile`]); 100 means the
    /// maximum, for too few samples to have a tail above the median.
    pub tail_pct: u32,
    /// Value at the tail percentile.
    pub tail: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Summarise `samples` (any order). `None` for no samples.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (tail_pct, tail) = match tail_percentile(sorted.len()) {
        Some(p) => (p, nearest_rank(&sorted, p)),
        None => (100, sorted[sorted.len() - 1]),
    };
    Some(Summary {
        n: sorted.len(),
        p50: nearest_rank(&sorted, 50),
        tail_pct,
        tail,
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
    })
}

/// The summaries of consecutive slices of at least `per_slice` samples
/// (one slice when there are fewer).
pub fn slices(in_order: &[f64], per_slice: usize) -> Vec<Summary> {
    let slices = (in_order.len() / per_slice.max(1)).max(1);
    let per = in_order.len() / slices;
    (0..slices)
        .filter_map(|k| {
            let end = if k + 1 == slices {
                in_order.len()
            } else {
                (k + 1) * per
            };
            summarize(&in_order[k * per..end])
        })
        .collect()
}

/// A run's samples cut, in arrival order, into consecutive slices of at
/// least `per_slice` (one slice when there are fewer), each slice
/// summarised on its own, then percentile `across` of each statistic taken
/// across slices (50: the median slice; 5: the quietest twentieth). A stall
/// of the host that spoils some slices moves the result by little, where
/// it would set a whole-run p99 outright.
pub fn sliced(in_order: &[f64], per_slice: usize, across: u32) -> Option<Summary> {
    let parts = slices(in_order, per_slice);
    let first = *parts.first()?;
    let pick =
        |f: fn(&Summary) -> f64| percentile(&parts.iter().map(f).collect::<Vec<_>>(), across);
    Some(Summary {
        n: in_order.len(),
        p50: pick(|s| s.p50),
        tail_pct: first.tail_pct,
        tail: pick(|s| s.tail),
        mean: pick(|s| s.mean),
    })
}

/// The mean, over about `rounds` consecutive slices of `in_order`, of each
/// slice's median (see [`crate::common::ROUNDS`]).
pub fn mean_of_slice_medians(in_order: &[f64], rounds: usize) -> f64 {
    let parts = slices(in_order, in_order.len() / rounds.max(1));
    mean(&parts.iter().map(|s| s.p50).collect::<Vec<_>>())
}

/// Arithmetic mean of `values`; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile `p` of `samples` (any order); 0 for none.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p)
}

/// Median of `samples` (nearest rank); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50), 5.0);
        assert_eq!(nearest_rank(&v, 90), 9.0);
        assert_eq!(nearest_rank(&v, 91), 10.0);
        assert_eq!(nearest_rank(&v, 100), 10.0);
        assert_eq!(nearest_rank(&[7.0], 1), 7.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None, "ten samples have no tail");
        assert_eq!(tail_percentile(19), None, "p47 would sit under the median");
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(30), Some(66));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(100_000), Some(TAIL_CAP), "capped at p99");
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            if p < TAIL_CAP {
                assert!(
                    n - rank(p + 1, n) < TAIL_BEYOND,
                    "n={n}: p{} also qualifies",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn slices_take_a_percentile_across_slices() {
        // Ten slices of 100; one spoiled by a stall.
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[200..300] {
            *x += 1e6;
        }
        let s = sliced(&v, 100, 50).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 49.0);
        assert_eq!(s.tail_pct, 90, "100 samples: p90 leaves 10 beyond");
        assert_eq!(s.tail, 89.0);
        let whole = summarize(&v).unwrap();
        assert!(whole.tail > 1e6, "a whole-run p99 lands in the stall");
        // Six of ten slices stalled: the median slice is spoiled, the
        // quietest quarter is not.
        for x in &mut v[..600] {
            *x += 1e6;
        }
        assert!(sliced(&v, 100, 50).unwrap().p50 > 1e6);
        assert_eq!(sliced(&v, 100, 25).unwrap().p50, 49.0);
        let short = sliced(&[1.0, 2.0, 3.0], 100, 50).unwrap();
        assert_eq!((short.n, short.p50), (3, 2.0));
    }

    #[test]
    fn round_medians_are_averaged() {
        // Two rounds: a fast spell, then a slow one with a stall in it.
        let v = [1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 500.0];
        assert_eq!(mean_of_slice_medians(&v, 2), 2.0);
        // A run with one fast round in four moves by a quarter of the gap
        // between the spells, where the whole-run median would not move.
        let mostly_slow = [1.0, 1.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0];
        assert_eq!(mean_of_slice_medians(&mostly_slow, 4), 2.5);
        assert_eq!(median(&mostly_slow), 3.0);
        // Fewer samples than rounds: one sample a round.
        assert_eq!(mean_of_slice_medians(&[2.0, 4.0], 10), 3.0);
    }

    #[test]
    fn summary_reports_the_tail_with_its_count() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (100, 50.0, 90, 90.0));
        assert_eq!(s.mean, 50.5);
        let few = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((few.tail_pct, few.tail), (100, 3.0));
        assert!(summarize(&[]).is_none());
    }
}
