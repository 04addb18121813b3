//! Fast Fourier transform: iterative radix-2 plus Bluestein's algorithm for
//! arbitrary lengths.
//!
//! The periodogram estimator needs the DFT of job series whose lengths are
//! whatever the log happened to contain, so a power-of-two-only FFT is not
//! enough; Bluestein's chirp-z trick reduces any length to a power-of-two
//! convolution. The Davies-Harte fGn generator also runs on these kernels.
//!
//! Transforms of one length recur constantly — every fGn path of a
//! generator reuses one embedding size, every periodogram of an 8192-job
//! log is the same length — so [`FftPlan`] precomputes the per-length
//! tables (bit-reversal permutation, butterfly twiddles, Bluestein chirp
//! and B-spectrum) once, and [`plan`] caches plans by length for the whole
//! process, in a byte-bounded cache shared with the fGn spectra (see
//! [`CACHE_BUDGET_BYTES`]). Planned transforms are **bit-identical** to the
//! planless [`fft_pow2`]/[`fft_any`] paths: the tables are filled by
//! exactly the code the planless kernels run inline (same twiddle
//! recurrence, same chirp expressions), so only the wall time changes.

use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex, OnceLock};

/// In-place radix-2 FFT over split real/imaginary arrays.
///
/// `inverse` applies the conjugate transform *without* the 1/n scaling
/// (callers scale when they need a round trip).
///
/// # Panics
/// Panics unless the length is a power of two (and equal for both arrays).
pub fn fft_pow2(re: &mut [f64], im: &mut [f64], inverse: bool) {
    let n = re.len();
    assert_eq!(n, im.len(), "re/im length mismatch");
    assert!(n.is_power_of_two(), "fft_pow2 requires power-of-two length");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }

    // Danielson-Lanczos butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let (mut cr, mut ci) = (1.0, 0.0);
            for k in 0..len / 2 {
                let a = start + k;
                let b = a + len / 2;
                let tr = re[b] * cr - im[b] * ci;
                let ti = re[b] * ci + im[b] * cr;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
        }
        len <<= 1;
    }
}

/// DFT of arbitrary length via Bluestein's algorithm (falls back to the
/// radix-2 kernel directly for power-of-two lengths).
///
/// Returns `(re, im)` of the transform; `inverse` applies the conjugate
/// transform without scaling.
pub fn fft_any(re_in: &[f64], im_in: &[f64], inverse: bool) -> (Vec<f64>, Vec<f64>) {
    let n = re_in.len();
    assert_eq!(n, im_in.len(), "re/im length mismatch");
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    if n.is_power_of_two() {
        let mut re = re_in.to_vec();
        let mut im = im_in.to_vec();
        fft_pow2(&mut re, &mut im, inverse);
        return (re, im);
    }

    // Bluestein: x_k * chirp_k convolved with conjugate chirp.
    let sign = if inverse { 1.0 } else { -1.0 };
    let m = (2 * n - 1).next_power_of_two();

    // chirp_k = exp(sign * i * pi * k^2 / n)
    let chirp: Vec<(f64, f64)> = (0..n)
        .map(|k| {
            // k^2 mod 2n avoids precision loss for large k.
            let k2 = ((k as u128 * k as u128) % (2 * n as u128)) as f64;
            let ang = sign * PI * k2 / n as f64;
            (ang.cos(), ang.sin())
        })
        .collect();

    let mut are = vec![0.0; m];
    let mut aim = vec![0.0; m];
    for k in 0..n {
        let (cr, ci) = chirp[k];
        are[k] = re_in[k] * cr - im_in[k] * ci;
        aim[k] = re_in[k] * ci + im_in[k] * cr;
    }

    let mut bre = vec![0.0; m];
    let mut bim = vec![0.0; m];
    // b_k = conj(chirp_k), wrapped for negative indices.
    bre[0] = chirp[0].0;
    bim[0] = -chirp[0].1;
    for k in 1..n {
        let (cr, ci) = chirp[k];
        bre[k] = cr;
        bim[k] = -ci;
        bre[m - k] = cr;
        bim[m - k] = -ci;
    }

    fft_pow2(&mut are, &mut aim, false);
    fft_pow2(&mut bre, &mut bim, false);
    // Pointwise product.
    for i in 0..m {
        let r = are[i] * bre[i] - aim[i] * bim[i];
        let im_ = are[i] * bim[i] + aim[i] * bre[i];
        are[i] = r;
        aim[i] = im_;
    }
    fft_pow2(&mut are, &mut aim, true);
    // Unscaled inverse: divide by m, then multiply by chirp again.
    let scale = 1.0 / m as f64;
    let mut out_re = Vec::with_capacity(n);
    let mut out_im = Vec::with_capacity(n);
    for k in 0..n {
        let (cr, ci) = chirp[k];
        let r = are[k] * scale;
        let i = aim[k] * scale;
        out_re.push(r * cr - i * ci);
        out_im.push(r * ci + i * cr);
    }
    (out_re, out_im)
}

/// DFT of a real series: returns `(re, im)` of all `n` bins.
pub fn rfft(x: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let zeros = vec![0.0; x.len()];
    plan(x.len()).process_any(x, &zeros, false)
}

/// Precomputed tables for one radix-2 size.
#[derive(Debug)]
struct Pow2Tables {
    n: usize,
    /// Bit-reversal swaps `(i, j)` with `j > i`.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles, one vector of `w^k` per butterfly level
    /// (`len = 2, 4, ..., n`), filled with the same running recurrence
    /// [`fft_pow2`] uses inline so the planned transform is bit-identical.
    fwd: Vec<Vec<(f64, f64)>>,
    /// The inverse-transform twiddles (conjugate sign).
    inv: Vec<Vec<(f64, f64)>>,
}

impl Pow2Tables {
    fn new(n: usize) -> Pow2Tables {
        assert!(n.is_power_of_two(), "Pow2Tables requires power-of-two length");
        let mut swaps = Vec::new();
        if n > 1 {
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if j > i {
                    swaps.push((i as u32, j as u32));
                }
            }
        }
        let levels = |sign: f64| -> Vec<Vec<(f64, f64)>> {
            let mut out = Vec::new();
            let mut len = 2;
            while len <= n {
                let ang = sign * 2.0 * PI / len as f64;
                let (wr, wi) = (ang.cos(), ang.sin());
                let mut tw = Vec::with_capacity(len / 2);
                let (mut cr, mut ci) = (1.0, 0.0);
                for _ in 0..len / 2 {
                    tw.push((cr, ci));
                    let ncr = cr * wr - ci * wi;
                    ci = cr * wi + ci * wr;
                    cr = ncr;
                }
                out.push(tw);
                len <<= 1;
            }
            out
        };
        Pow2Tables {
            n,
            swaps,
            fwd: levels(-1.0),
            inv: levels(1.0),
        }
    }

    fn heap_bytes(&self) -> usize {
        let twiddles: usize = self.fwd.iter().chain(&self.inv).map(Vec::len).sum();
        std::mem::size_of_val(&self.swaps[..]) + twiddles * std::mem::size_of::<(f64, f64)>()
    }

    /// The planned equivalent of [`fft_pow2`]: same butterflies, twiddles
    /// read from the tables instead of recomputed.
    fn fft(&self, re: &mut [f64], im: &mut [f64], inverse: bool) {
        let n = self.n;
        assert_eq!(n, re.len(), "re length does not match plan");
        assert_eq!(n, im.len(), "im length does not match plan");
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            re.swap(i as usize, j as usize);
            im.swap(i as usize, j as usize);
        }
        let levels = if inverse { &self.inv } else { &self.fwd };
        for tw in levels {
            // Each block of `2 * half` holds independent butterflies
            // pairing its lower half with its upper half.
            let half = tw.len();
            let blocks = re.chunks_exact_mut(2 * half).zip(im.chunks_exact_mut(2 * half));
            for (re_block, im_block) in blocks {
                let (re_a, re_b) = re_block.split_at_mut(half);
                let (im_a, im_b) = im_block.split_at_mut(half);
                let lanes = re_a.iter_mut().zip(re_b).zip(im_a.iter_mut().zip(im_b));
                for (((ra, rb), (ia, ib)), &(cr, ci)) in lanes.zip(tw) {
                    let tr = *rb * cr - *ib * ci;
                    let ti = *rb * ci + *ib * cr;
                    *rb = *ra - tr;
                    *ib = *ia - ti;
                    *ra += tr;
                    *ia += ti;
                }
            }
        }
    }
}

/// One transform direction's Bluestein tables: the chirp sequence and the
/// FFT of the (input-independent) B array.
#[derive(Debug)]
struct BluesteinSide {
    chirp: Vec<(f64, f64)>,
    bre: Vec<f64>,
    bim: Vec<f64>,
}

impl BluesteinSide {
    fn new(n: usize, m: usize, sign: f64, pow2: &Pow2Tables) -> BluesteinSide {
        // Same chirp expression as fft_any: k^2 mod 2n avoids precision
        // loss for large k.
        let chirp: Vec<(f64, f64)> = (0..n)
            .map(|k| {
                let k2 = ((k as u128 * k as u128) % (2 * n as u128)) as f64;
                let ang = sign * PI * k2 / n as f64;
                (ang.cos(), ang.sin())
            })
            .collect();
        let mut bre = vec![0.0; m];
        let mut bim = vec![0.0; m];
        bre[0] = chirp[0].0;
        bim[0] = -chirp[0].1;
        for k in 1..n {
            let (cr, ci) = chirp[k];
            bre[k] = cr;
            bim[k] = -ci;
            bre[m - k] = cr;
            bim[m - k] = -ci;
        }
        pow2.fft(&mut bre, &mut bim, false);
        BluesteinSide { chirp, bre, bim }
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.chirp[..])
            + std::mem::size_of_val(&self.bre[..])
            + std::mem::size_of_val(&self.bim[..])
    }
}

#[derive(Debug)]
enum PlanKind {
    Empty,
    Pow2(Pow2Tables),
    Bluestein {
        pow2: Pow2Tables,
        fwd: BluesteinSide,
        inv: BluesteinSide,
    },
}

/// Precomputed transform tables for one length.
///
/// Power-of-two lengths hold bit-reversal swaps and butterfly twiddles;
/// other lengths additionally hold both directions' Bluestein chirp tables
/// and B-array spectra (the B array does not depend on the input, so its
/// FFT is paid once per length instead of once per call). Construction is
/// O(m log m); every transform after that skips all trigonometry.
///
/// Obtain plans through [`plan`], which caches them by length.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

impl FftPlan {
    /// Build the tables for length `n`.
    pub fn new(n: usize) -> FftPlan {
        let kind = if n == 0 {
            PlanKind::Empty
        } else if n.is_power_of_two() {
            PlanKind::Pow2(Pow2Tables::new(n))
        } else {
            let m = (2 * n - 1).next_power_of_two();
            let pow2 = Pow2Tables::new(m);
            let fwd = BluesteinSide::new(n, m, -1.0, &pow2);
            let inv = BluesteinSide::new(n, m, 1.0, &pow2);
            PlanKind::Bluestein { pow2, fwd, inv }
        };
        FftPlan { n, kind }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Heap bytes held by the plan's tables.
    pub fn heap_bytes(&self) -> usize {
        match &self.kind {
            PlanKind::Empty => 0,
            PlanKind::Pow2(t) => t.heap_bytes(),
            PlanKind::Bluestein { pow2, fwd, inv } => {
                pow2.heap_bytes() + fwd.heap_bytes() + inv.heap_bytes()
            }
        }
    }

    /// True for the zero-length plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place radix-2 transform; bit-identical to [`fft_pow2`].
    ///
    /// # Panics
    /// Panics when the plan's length is not a power of two or the slices
    /// do not match it.
    pub fn process_pow2(&self, re: &mut [f64], im: &mut [f64], inverse: bool) {
        match &self.kind {
            PlanKind::Pow2(t) => t.fft(re, im, inverse),
            _ => panic!(
                "process_pow2 on a plan of non-power-of-two length {}",
                self.n
            ),
        }
    }

    /// Out-of-place transform of any length; bit-identical to [`fft_any`].
    ///
    /// # Panics
    /// Panics when the input length does not match the plan.
    pub fn process_any(
        &self,
        re_in: &[f64],
        im_in: &[f64],
        inverse: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(re_in.len(), self.n, "re length does not match plan");
        assert_eq!(im_in.len(), self.n, "im length does not match plan");
        match &self.kind {
            PlanKind::Empty => (Vec::new(), Vec::new()),
            PlanKind::Pow2(t) => {
                let mut re = re_in.to_vec();
                let mut im = im_in.to_vec();
                t.fft(&mut re, &mut im, inverse);
                (re, im)
            }
            PlanKind::Bluestein { pow2, fwd, inv } => {
                let side = if inverse { inv } else { fwd };
                let n = self.n;
                let m = pow2.n;

                let mut are = vec![0.0; m];
                let mut aim = vec![0.0; m];
                for k in 0..n {
                    let (cr, ci) = side.chirp[k];
                    are[k] = re_in[k] * cr - im_in[k] * ci;
                    aim[k] = re_in[k] * ci + im_in[k] * cr;
                }
                pow2.fft(&mut are, &mut aim, false);
                for i in 0..m {
                    let r = are[i] * side.bre[i] - aim[i] * side.bim[i];
                    let im_ = are[i] * side.bim[i] + aim[i] * side.bre[i];
                    are[i] = r;
                    aim[i] = im_;
                }
                pow2.fft(&mut are, &mut aim, true);
                let scale = 1.0 / m as f64;
                let mut out_re = Vec::with_capacity(n);
                let mut out_im = Vec::with_capacity(n);
                for k in 0..n {
                    let (cr, ci) = side.chirp[k];
                    let r = are[k] * scale;
                    let i = aim[k] * scale;
                    out_re.push(r * cr - i * ci);
                    out_im.push(r * ci + i * cr);
                }
                (out_re, out_im)
            }
        }
    }
}

/// Bytes the process-wide transform cache keeps resident. FFT plans and
/// Davies-Harte spectra share this one budget. A repro run or a served
/// request at paper scale (8192 jobs) touches a few MB of them. When an
/// insert would overflow the budget, the least recently used entries are
/// dropped. An entry larger than the whole budget (the 4M-point plan of a
/// two-million-job request is over 100 MB) is built, returned and never
/// kept. The bound is fixed: it is what the cache may cost a long-lived
/// server, not a tuning knob.
pub const CACHE_BUDGET_BYTES: usize = 32 << 20;

/// What the transform cache is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CacheKey {
    /// An [`FftPlan`], by transform length.
    Plan(usize),
    /// A Davies-Harte amplitude spectrum, by `(H.to_bits(), n)`.
    Spectrum(u64, usize),
}

impl CacheKey {
    /// The hit, miss and eviction counters of this key's kind.
    fn counters(self) -> [&'static str; 3] {
        match self {
            CacheKey::Plan(_) => ["fft.plan.hit", "fft.plan.miss", "fft.plan.evictions"],
            CacheKey::Spectrum(..) => [
                "fgn.spectrum.hit",
                "fgn.spectrum.miss",
                "fgn.spectrum.evictions",
            ],
        }
    }
}

/// Add `delta` to a cache counter named at run time.
fn count(name: &'static str, delta: u64) {
    if wl_obs::enabled() {
        wl_obs::registry().counter(name).add(delta);
    }
}

/// One cached value.
#[derive(Debug, Clone)]
enum Cached {
    Plan(Arc<FftPlan>),
    Spectrum(Arc<[f64]>),
}

impl Cached {
    fn heap_bytes(&self) -> usize {
        match self {
            Cached::Plan(p) => p.heap_bytes(),
            Cached::Spectrum(s) => std::mem::size_of_val(&**s),
        }
    }
}

#[derive(Debug)]
struct Slot {
    value: Cached,
    bytes: usize,
    last_use: u64,
}

/// The byte-bounded LRU map behind [`plan`] and the fGn spectra.
#[derive(Debug, Default)]
struct TransformCache {
    slots: HashMap<CacheKey, Slot>,
    bytes: usize,
    clock: u64,
}

impl TransformCache {
    fn get(&mut self, key: CacheKey) -> Option<Cached> {
        self.clock += 1;
        let slot = self.slots.get_mut(&key)?;
        slot.last_use = self.clock;
        Some(slot.value.clone())
    }

    /// Keep `value` under `key` unless it alone exceeds `budget`, dropping
    /// least recently used entries until it fits. Returns the resident
    /// value: the one already there when a concurrent builder won.
    fn insert(&mut self, key: CacheKey, value: Cached, budget: usize) -> Cached {
        if let Some(resident) = self.get(key) {
            return resident;
        }
        let bytes = value.heap_bytes();
        if bytes > budget {
            return value;
        }
        while self.bytes + bytes > budget {
            let (&victim, _) = self
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.last_use)
                .expect("a cache over budget holds an entry");
            let slot = self.slots.remove(&victim).expect("victim is resident");
            self.bytes -= slot.bytes;
            count(victim.counters()[2], 1);
        }
        self.bytes += bytes;
        self.slots.insert(
            key,
            Slot {
                value: value.clone(),
                bytes,
                last_use: self.clock,
            },
        );
        value
    }
}

fn transform_cache() -> std::sync::MutexGuard<'static, TransformCache> {
    static CACHE: OnceLock<Mutex<TransformCache>> = OnceLock::new();
    CACHE
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The cached value under `key`, or `build`'s, kept for the next caller.
/// Builds run outside the lock, so cold builds on different threads
/// overlap; when two threads build one key at once, both get the value
/// kept first.
fn cached<E>(key: CacheKey, build: impl FnOnce() -> Result<Cached, E>) -> Result<Cached, E> {
    let [hit, miss, _] = key.counters();
    if let Some(value) = transform_cache().get(key) {
        count(hit, 1);
        return Ok(value);
    }
    count(miss, 1);
    let value = build()?;
    Ok(transform_cache().insert(key, value, CACHE_BUDGET_BYTES))
}

/// Bytes the transform cache holds now (at most [`CACHE_BUDGET_BYTES`]).
pub fn cache_resident_bytes() -> usize {
    transform_cache().bytes
}

/// The process-wide plan for length `n`, building and caching it on first
/// use. Thread-safe; callers share one plan per length while it stays in
/// the cache.
pub fn plan(n: usize) -> Arc<FftPlan> {
    let built = cached(CacheKey::Plan(n), || {
        Ok::<_, std::convert::Infallible>(Cached::Plan(Arc::new(FftPlan::new(n))))
    });
    match built {
        Ok(Cached::Plan(p)) => p,
        _ => unreachable!("plan keys hold plans"),
    }
}

/// The Davies-Harte amplitude spectrum for `(h, n)`, from the cache or
/// from `build` (whose errors are returned and not cached).
pub(crate) fn spectrum(
    h: f64,
    n: usize,
    build: impl FnOnce() -> Result<Arc<[f64]>, String>,
) -> Result<Arc<[f64]>, String> {
    match cached(CacheKey::Spectrum(h.to_bits(), n), || build().map(Cached::Spectrum))? {
        Cached::Spectrum(s) => Ok(s),
        Cached::Plan(_) => unreachable!("spectrum keys hold spectra"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n^2) DFT for cross-checking.
    fn dft_naive(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let mut out_re = vec![0.0; n];
        let mut out_im = vec![0.0; n];
        for k in 0..n {
            for t in 0..n {
                let ang = -2.0 * PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                out_re[k] += re[t] * c - im[t] * s;
                out_im[k] += re[t] * s + im[t] * c;
            }
        }
        (out_re, out_im)
    }

    fn assert_close_vec(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} != {y}");
        }
    }

    #[test]
    fn pow2_matches_naive() {
        let re = [1.0, 2.0, -0.5, 3.0, 0.25, -1.0, 2.5, 0.0];
        let im = [0.5, -1.0, 0.0, 2.0, -0.25, 1.0, 0.0, -2.0];
        let (nre, nim) = dft_naive(&re, &im);
        let mut fre = re.to_vec();
        let mut fim = im.to_vec();
        fft_pow2(&mut fre, &mut fim, false);
        assert_close_vec(&fre, &nre, 1e-9);
        assert_close_vec(&fim, &nim, 1e-9);
    }

    #[test]
    fn bluestein_matches_naive_odd_lengths() {
        for n in [3usize, 5, 7, 12, 13, 100] {
            let re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let im: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() * 0.5).collect();
            let (nre, nim) = dft_naive(&re, &im);
            let (fre, fim) = fft_any(&re, &im, false);
            assert_close_vec(&fre, &nre, 1e-7);
            assert_close_vec(&fim, &nim, 1e-7);
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [8usize, 15, 33] {
            let re: Vec<f64> = (0..n).map(|i| i as f64 * 0.3 - 1.0).collect();
            let im: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
            let (fre, fim) = fft_any(&re, &im, false);
            let (mut bre, mut bim) = fft_any(&fre, &fim, true);
            for v in &mut bre {
                *v /= n as f64;
            }
            for v in &mut bim {
                *v /= n as f64;
            }
            assert_close_vec(&bre, &re, 1e-8);
            assert_close_vec(&bim, &im, 1e-8);
        }
    }

    #[test]
    fn parseval_theorem() {
        let n = 64;
        let x: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let (fre, fim) = rfft(&x);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 = fre
            .iter()
            .zip(&fim)
            .map(|(r, i)| r * r + i * i)
            .sum::<f64>()
            / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![0.0; 16];
        x[0] = 1.0;
        let (re, im) = rfft(&x);
        for k in 0..16 {
            assert!((re[k] - 1.0).abs() < 1e-12);
            assert!(im[k].abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_concentrates_in_one_bin() {
        let n = 32;
        let freq = 5;
        let x: Vec<f64> = (0..n)
            .map(|t| (2.0 * PI * freq as f64 * t as f64 / n as f64).cos())
            .collect();
        let (re, im) = rfft(&x);
        let mags: Vec<f64> = re
            .iter()
            .zip(&im)
            .map(|(r, i)| (r * r + i * i).sqrt())
            .collect();
        // Energy in bins `freq` and `n - freq` only.
        for (k, m) in mags.iter().enumerate() {
            if k == freq || k == n - freq {
                assert!((m - n as f64 / 2.0).abs() < 1e-9, "bin {k}: {m}");
            } else {
                assert!(*m < 1e-9, "bin {k}: {m}");
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let (re, im) = fft_any(&[], &[], false);
        assert!(re.is_empty() && im.is_empty());
        let (re, im) = fft_any(&[3.5], &[0.0], false);
        assert_eq!(re, vec![3.5]);
        assert_eq!(im, vec![0.0]);
    }

    #[test]
    fn planned_pow2_bit_identical_to_planless() {
        for n in [1usize, 2, 8, 64, 1024, 1 << 14] {
            let re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
            let im: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() - 0.25).collect();
            let p = plan(n);
            for inverse in [false, true] {
                let (mut re_a, mut im_a) = (re.clone(), im.clone());
                fft_pow2(&mut re_a, &mut im_a, inverse);
                let (mut re_b, mut im_b) = (re.clone(), im.clone());
                p.process_pow2(&mut re_b, &mut im_b, inverse);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&re_a), bits(&re_b), "n {n} inverse {inverse}");
                assert_eq!(bits(&im_a), bits(&im_b), "n {n} inverse {inverse}");
            }
        }
    }

    #[test]
    fn planned_any_bit_identical_to_planless() {
        for n in [3usize, 5, 7, 12, 13, 100, 1009] {
            let re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let im: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() * 0.5).collect();
            let p = plan(n);
            for inverse in [false, true] {
                let (re_a, im_a) = fft_any(&re, &im, inverse);
                let (re_b, im_b) = p.process_any(&re, &im, inverse);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&re_a), bits(&re_b), "n {n} inverse {inverse}");
                assert_eq!(bits(&im_a), bits(&im_b), "n {n} inverse {inverse}");
            }
        }
    }

    #[test]
    fn plan_cache_returns_shared_plans() {
        let a = plan(48);
        let b = plan(48);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 48);
        assert!(!a.is_empty());
        assert!(plan(0).is_empty());
    }

    fn spectrum_of(len: usize) -> Cached {
        Cached::Spectrum(vec![0.0; len].into())
    }

    #[test]
    fn transform_cache_evicts_least_recently_used_within_budget() {
        let mut cache = TransformCache::default();
        let budget = 3 * 800;
        for n in 0..3 {
            cache.insert(CacheKey::Spectrum(0, n), spectrum_of(100), budget);
        }
        assert_eq!(cache.bytes, budget);
        // Touch the oldest; the next insert must evict the second oldest.
        assert!(cache.get(CacheKey::Spectrum(0, 0)).is_some());
        cache.insert(CacheKey::Spectrum(0, 3), spectrum_of(100), budget);
        assert!(cache.get(CacheKey::Spectrum(0, 1)).is_none());
        for n in [0, 2, 3] {
            assert!(cache.get(CacheKey::Spectrum(0, n)).is_some(), "n = {n}");
        }
        assert_eq!(cache.bytes, budget);
    }

    #[test]
    fn transform_cache_never_keeps_an_entry_over_budget() {
        let mut cache = TransformCache::default();
        cache.insert(CacheKey::Spectrum(0, 0), spectrum_of(10), 800);
        let big = cache.insert(CacheKey::Plan(1 << 10), Cached::Plan(plan(1 << 10)), 800);
        assert!(matches!(big, Cached::Plan(_)));
        assert!(cache.get(CacheKey::Plan(1 << 10)).is_none());
        // The oversized entry evicted nothing.
        assert!(cache.get(CacheKey::Spectrum(0, 0)).is_some());
        assert_eq!(cache.bytes, 80);
    }

    #[test]
    fn transform_cache_keeps_the_first_of_two_racing_builds() {
        let mut cache = TransformCache::default();
        let first = cache.insert(CacheKey::Spectrum(7, 5), spectrum_of(5), 800);
        let second = cache.insert(CacheKey::Spectrum(7, 5), spectrum_of(5), 800);
        match (first, second) {
            (Cached::Spectrum(a), Cached::Spectrum(b)) => assert!(Arc::ptr_eq(&a, &b)),
            _ => panic!("spectrum keys hold spectra"),
        }
        assert_eq!(cache.bytes, 40);
    }

    #[test]
    fn plan_bytes_count_every_table() {
        // 8 points: 2 swaps (1<->4, 3<->6) and 1 + 2 + 4 twiddles per direction.
        assert_eq!(FftPlan::new(8).heap_bytes(), 2 * 8 + 2 * 7 * 16);
        assert_eq!(FftPlan::new(0).heap_bytes(), 0);
        // Bluestein: the size-8 radix-2 tables plus two sides of 3 chirps
        // and 2 x 8 B-spectrum values each.
        assert_eq!(FftPlan::new(3).heap_bytes(), 2 * 8 + 2 * 7 * 16 + 2 * (3 * 16 + 16 * 8));
    }

    #[test]
    #[should_panic(expected = "process_pow2 on a plan of non-power-of-two length")]
    fn pow2_processing_rejects_bluestein_plans() {
        let p = FftPlan::new(12);
        let mut re = vec![0.0; 12];
        let mut im = vec![0.0; 12];
        p.process_pow2(&mut re, &mut im, false);
    }

    #[test]
    fn large_bluestein_precision() {
        // Prime length exercises the full chirp path.
        let n = 1009;
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.01).sin()).collect();
        let (fre, fim) = rfft(&x);
        // Spot-check one bin against the naive sum.
        let k = 17;
        let mut sr = 0.0;
        let mut si = 0.0;
        for (t, &v) in x.iter().enumerate() {
            let ang = -2.0 * PI * (k * t % n) as f64 / n as f64;
            sr += v * ang.cos();
            si += v * ang.sin();
        }
        assert!((fre[k] - sr).abs() < 1e-6, "{} vs {}", fre[k], sr);
        assert!((fim[k] - si).abs() < 1e-6);
    }
}
