//! The process-wide transform cache stays within its byte budget even
//! after a path far larger than it. Runs in a process of its own so no
//! other test shares the cache.

use wl_selfsim::fft::{self, CACHE_BUDGET_BYTES};
use wl_selfsim::FgnDaviesHarte;

#[test]
fn two_million_job_paths_leave_the_cache_within_budget() {
    // Paper-scale generators fill part of the budget first.
    for h in [0.6, 0.7, 0.8] {
        FgnDaviesHarte::new(h, 8192).unwrap();
    }
    let paper_scale = fft::cache_resident_bytes();
    assert!(paper_scale > 0 && paper_scale <= CACHE_BUDGET_BYTES);

    // A two-million-job path embeds in m = 4M points: its plan alone (swap
    // table plus both twiddle sets) is over 100 MB.
    let m = 1usize << 22;
    let generator = FgnDaviesHarte::new(0.75, 2_000_000).unwrap();
    assert_eq!(generator.len(), 2_000_000);
    let plan = fft::plan(m);
    assert!(plan.heap_bytes() > 100 << 20, "plan holds {} bytes", plan.heap_bytes());
    assert!(
        fft::cache_resident_bytes() <= CACHE_BUDGET_BYTES,
        "cache holds {} bytes over its {CACHE_BUDGET_BYTES}-byte budget",
        fft::cache_resident_bytes()
    );
}
