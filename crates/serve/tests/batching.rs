//! Batching correctness at the server boundary: concurrent requests
//! sharing a dataset digest coalesce (and only those), batched responses
//! are byte-identical to unbatched execution, and the `serve.batch.*`
//! metrics land in a `/metrics` export that passes trace validation.
//!
//! Scenario shape: a slow solo request pins the single worker, the test
//! enqueues a group of same-digest requests behind it, and the worker
//! necessarily picks them up as one batch.

use std::time::Duration;

use coplot::AnalysisRequest;
use wl_serve::http::http_call;
use wl_serve::{execute, start, ExecConfig, ServerConfig, ServerHandle};

/// Holds the single worker (≈0.5 s release, ≈2.6 s debug) while the batch
/// group queues behind it; its dataset digest matches nobody else's.
const STALL_BODY: &str =
    "{\"op\":\"coplot\",\"dataset\":{\"name\":\"table3\"},\"jobs\":20000,\"seed\":7}";

/// One digest group: same dataset (models, 150 jobs, seed 3), three
/// different analyses. The digest covers the dataset, not the operation,
/// so these coalesce while their MDS/elimination work stays per-request.
const GROUP: [(&str, &str); 3] = [
    (
        "/v1/coplot",
        "{\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":3}",
    ),
    (
        "/v1/hurst",
        "{\"op\":\"hurst\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":3}",
    ),
    (
        "/v1/subset",
        "{\"op\":\"subset\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":3,\"subset_size\":3,\"top\":2}",
    ),
];

/// A second digest group (seed 4): must never share a batch with seed 3.
const OTHER_GROUP: [(&str, &str); 2] = [
    (
        "/v1/coplot",
        "{\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":4}",
    ),
    (
        "/v1/hurst",
        "{\"op\":\"hurst\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":4}",
    ),
];

fn server_with(threads: usize, workers: usize) -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: 32,
        cache_capacity: 0, // no result cache: every answer is computed
        threads,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

fn fetch_metrics(addr: &str) -> String {
    let (status, _, body) = http_call(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    body
}

/// Extract an integer field from the JSON-lines metric named `name`
/// (0 when the metric has not been emitted yet).
fn metric_field(metrics: &str, name: &str, field: &str) -> u64 {
    let Some(line) = metrics
        .lines()
        .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
    else {
        return 0;
    };
    let rest = line
        .split(&format!("\"{field}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("metric {name} has no field {field}: {line}"));
    rest.split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

fn spawn_posts(
    addr: &str,
    posts: &[(&'static str, &'static str)],
) -> Vec<std::thread::JoinHandle<(u16, String)>> {
    posts
        .iter()
        .map(|&(path, body)| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let (status, _, body) = http_call(&addr, "POST", path, Some(body)).unwrap();
                (status, body)
            })
        })
        .collect()
}

#[test]
fn batched_responses_are_byte_identical_to_unbatched() {
    for threads in [1usize, 8] {
        // Golden answers from the executor itself: every request alone,
        // with no memo, no cache and no server in between.
        let golden: Vec<(u16, String)> = GROUP
            .iter()
            .map(|&(_, body)| {
                let req = AnalysisRequest::from_json(body).unwrap();
                match execute(&req, &ExecConfig::new(threads)) {
                    Ok(outcome) => (200, outcome.response.to_json()),
                    Err(e) => (0, e.to_string()),
                }
            })
            .collect();
        for (status, body) in &golden {
            assert_eq!(*status, 200, "golden run: {body}");
        }

        let server = server_with(threads, 1);
        let addr = server.addr().to_string();
        let formed_before = metric_field(&fetch_metrics(&addr), "serve.batch.formed", "value");

        let stall = spawn_posts(&addr, &[("/v1/coplot", STALL_BODY)]);
        std::thread::sleep(Duration::from_millis(300));
        let results: Vec<(u16, String)> = spawn_posts(&addr, &GROUP)
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        for h in stall {
            assert_eq!(h.join().unwrap().0, 200);
        }

        for ((status, body), (golden_status, golden_body)) in results.iter().zip(&golden) {
            assert_eq!(status, golden_status, "threads={threads}");
            assert_eq!(body, golden_body, "byte-identical at threads={threads}");
        }

        let metrics = fetch_metrics(&addr);
        let formed = metric_field(&metrics, "serve.batch.formed", "value");
        assert!(
            formed > formed_before,
            "a multi-request batch formed (threads={threads}): {formed_before} -> {formed}"
        );
        server.shutdown();
    }
}

#[test]
fn mixed_digest_requests_batch_only_within_their_group() {
    let server = server_with(2, 1);
    let addr = server.addr().to_string();
    let before = fetch_metrics(&addr);
    let formed_before = metric_field(&before, "serve.batch.formed", "value");
    let hits_before = metric_field(&before, "serve.batch.stage_reuse.hits", "value");

    let stall = spawn_posts(&addr, &[("/v1/coplot", STALL_BODY)]);
    std::thread::sleep(Duration::from_millis(300));
    // Five queued jobs, two digest groups. batch_max (8) would allow one
    // batch of five — digest grouping must forbid it.
    let mut handles = spawn_posts(&addr, &GROUP);
    handles.extend(spawn_posts(&addr, &OTHER_GROUP));
    for handle in handles {
        let (status, body) = handle.join().unwrap();
        assert_eq!(status, 200, "{body}");
    }
    for h in stall {
        assert_eq!(h.join().unwrap().0, 200);
    }

    let metrics = fetch_metrics(&addr);
    assert!(
        metric_field(&metrics, "serve.batch.formed", "value") >= formed_before + 2,
        "each digest group formed its own batch"
    );
    assert!(
        metric_field(&metrics, "serve.batch.size", "max") <= GROUP.len() as u64,
        "no batch ever crossed a digest boundary"
    );
    assert!(
        metric_field(&metrics, "serve.batch.stage_reuse.hits", "value") > hits_before,
        "batch members reused memoized stages"
    );

    // The whole export — including the serve.batch.* series — validates
    // as a wl-obs trace.
    let stats = wl_obs::check_trace(&metrics).expect("metrics export validates");
    assert!(stats.metrics > 0, "export carries metric lines");
    server.shutdown();
}
