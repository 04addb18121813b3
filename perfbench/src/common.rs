//! Pieces every workload shares: the run's arguments, its report, process
//! resource use and deltas of the program's own `wl-obs` counters.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wl_obs::MetricsSnapshot;

/// Set-up is repeated this many times per run and reported as the median.
/// Right after a busy run the host is sometimes slow for a second or so:
/// with five set-ups, two or three of them fell in that stretch, and the
/// median spread 0.34–0.53 over five to ten seeds. Eleven keep the median
/// out of it.
pub const SETUP_REPS: usize = 11;

/// Rounds a timed window is cut into. A gated timing is each round's
/// median, averaged over the rounds. On a shared 2-vCPU VM the host's speed
/// changes from one second to the next, with spells of a few seconds: a
/// cache hit's round trip moved between ≈0.020 and ≈0.033 ms, a
/// `cold_suite` pass between ≈300 and ≈480 ms. A median over the whole
/// window jumps between the spells as their share crosses a half; the mean
/// of round medians moves with the share smoothly, and each round's median
/// still leaves out a stall. Measured in one 7.5 s stretch, the serving
/// round trip was 0.020 ms in some runs and 0.030 in others (spread 0.31
/// over five seeds); over ten rounds, 0.079.
pub const ROUNDS: u32 = 10;

/// One run's parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Traced run (per-layer metrics) instead of the plain one.
    pub trace: bool,
    /// Worker threads the program is given (the host's core count).
    pub threads: usize,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Every answer passed the reference-bytes gate.
    pub correct: bool,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Failed, refused or wrong-bytes answers among them.
    pub failed: u64,
    /// Metric values by name (units are fixed per name in `main.rs`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed to stderr (tail percentiles and sample
    /// counts, generator lateness, ...).
    pub notes: Vec<String>,
    /// Spans to write out, as JSON lines (traced runs only).
    pub spans: String,
}

impl Report {
    /// Set one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a note for stderr.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

/// Milliseconds in a duration, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `setup` [`SETUP_REPS`] times, keep the last result and return it
/// with the median set-up time in seconds; every time goes to the notes.
/// Earlier results are handed to `discard` (which must stop any server
/// among them).
pub fn repeated_setup<T>(
    report: &mut Report,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let median = crate::stats::median(&times);
    let each: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    report.note(format!(
        "set-up: median {median:.3} s of {} s",
        each.join(", ")
    ));
    (kept.expect("at least one set-up"), median)
}

/// Peak resident set size of this process, in MB (`getrusage`).
pub fn peak_rss_mb() -> f64 {
    // struct rusage on 64-bit Linux: two struct timevals (4 longs), then
    // fourteen longs, the first of which is ru_maxrss in KiB.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage([0; 18]);
    // SAFETY: RUSAGE_SELF (0) with a correctly sized, writable buffer.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.0[4] as f64 / 1024.0
}

/// Growth of the program's `wl-obs` registry over one or more intervals.
#[derive(Default)]
pub struct ObsDelta {
    /// (opening, closing) snapshots of each interval.
    intervals: Vec<(MetricsSnapshot, MetricsSnapshot)>,
}

impl ObsDelta {
    /// Open the first interval now; call [`ObsDelta::finish`] at its end.
    pub fn start() -> ObsDelta {
        let mut delta = ObsDelta::default();
        delta.resume();
        delta
    }

    /// Open another interval now, after a pause whose growth is not
    /// counted.
    pub fn resume(&mut self) {
        let now = wl_obs::registry().snapshot();
        self.intervals.push((now.clone(), now));
    }

    /// Take the closing snapshot of the open interval.
    pub fn finish(&mut self) {
        if let Some(last) = self.intervals.last_mut() {
            last.1 = wl_obs::registry().snapshot();
        }
    }

    /// Counter growth, summed over the intervals.
    pub fn counter(&self, name: &str) -> u64 {
        self.intervals
            .iter()
            .map(|(before, after)| after.counter(name).saturating_sub(before.counter(name)))
            .sum()
    }

    /// Histogram (count, sum) growth, summed over the intervals.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        let get = |s: &MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        self.intervals
            .iter()
            .fold((0, 0), |(count, sum), (before, after)| {
                let (c0, s0) = get(before);
                let (c1, s1) = get(after);
                (count + c1.saturating_sub(c0), sum + s1.saturating_sub(s0))
            })
    }

    /// `par.idle_ratio`: pool workers that claimed no item, over workers
    /// spawned.
    pub fn par_idle_ratio(&self) -> f64 {
        let (_, spawned) = self.hist("par.workers_per_job");
        ratio(self.counter("par.idle_workers") as f64, spawned as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
