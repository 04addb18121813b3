//! Golden snapshot of a whole `wl stream` session.
//!
//! `tests/golden/stream_grid.jsonl` (repo root) pins every byte `wl stream`
//! prints for a 4000-job synthetic grid trace: 16 events, 14 of them
//! frames, mixing warm-started refinements with cold multi-start
//! fallbacks, each frame carrying its online R/S Hurst estimate. CLI↔server
//! parity cannot catch a kernel change that moves both sides at once; this
//! snapshot does. It must hold at `--threads 1` and `--threads 8`.
//!
//! Regenerate with:
//! ```text
//! wl generate grid --site 0 --jobs 4000 --seed 1999 --out site0.gwf
//! wl stream site0.gwf --seed 1999 --threads 1 > tests/golden/stream_grid.jsonl
//! ```

use std::process::Command;

fn wl_stdout(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_wl"))
        .args(args)
        .output()
        .expect("run wl");
    assert!(
        output.status.success(),
        "wl {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("wl stdout is UTF-8")
}

fn golden() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/stream_grid.jsonl"
    );
    std::fs::read_to_string(path).expect("missing golden tests/golden/stream_grid.jsonl")
}

/// Generate the fixture trace into this test's own directory and stream it.
fn stream(threads: &str) -> String {
    let dir = std::env::temp_dir()
        .join("wl_stream_golden")
        .join(format!("t{threads}"));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("site0.gwf");
    let path = path.to_str().expect("UTF-8 temp path");
    wl_stdout(&[
        "generate", "grid", "--site", "0", "--jobs", "4000", "--seed", "1999", "--out", path,
    ]);
    wl_stdout(&["stream", path, "--seed", "1999", "--threads", threads])
}

fn assert_matches_golden(threads: &str) {
    let got = stream(threads);
    let want = golden();
    assert!(
        got == want,
        "wl stream --threads {threads} diverges from tests/golden/stream_grid.jsonl \
         ({} vs {} bytes); first differing line: {:?}",
        got.len(),
        want.len(),
        got.lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| format!("line {}: got {g:?}, want {w:?}", i + 1)),
    );
}

#[test]
fn stream_matches_golden_single_thread() {
    assert_matches_golden("1");
}

#[test]
fn stream_matches_golden_eight_threads() {
    assert_matches_golden("8");
}

#[test]
fn golden_covers_warm_and_cold_frames_with_hurst() {
    let golden = golden();
    let frames: Vec<&str> = golden
        .lines()
        .filter(|l| l.contains(r#""type":"frame""#))
        .collect();
    let warm = frames
        .iter()
        .filter(|l| l.contains(r#""warm":true"#))
        .count();
    let cold = frames
        .iter()
        .filter(|l| l.contains(r#""warm":false"#))
        .count();
    assert!(warm >= 1, "golden holds no warm-started frame");
    assert!(cold >= 1, "golden holds no cold frame");
    assert_eq!(warm + cold, frames.len());
    assert!(
        frames
            .iter()
            .all(|l| l.contains(r#""hurst":"#) && !l.contains(r#""hurst":null"#)),
        "every golden frame carries a Hurst estimate"
    );
}
