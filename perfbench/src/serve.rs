//! `serve_hits`: a `wl-serve` with the default configuration on an
//! ephemeral port, driven from this process with a small fixed set of
//! exact requests, primed so that every timed answer is a result-cache hit.
//!
//! The window is cut into [`ROUNDS`] rounds of three phases each:
//!
//! 1. Open loop, half the round: arrivals follow a Poisson schedule from
//!    the workload seed (`wl_loadgen::schedule`) at [`RATE`], over at most
//!    `threads` keep-alive connections. A request that finds every
//!    connection busy waits in the client's backlog; its latency counts
//!    from when it was due, not from when it was sent. These figures are
//!    per-layer: a host stall is charged to every request queued behind
//!    it, so they spread too widely from run to run to carry a bound.
//! 2. Closed loop, a quarter of the round: the same connections send back
//!    to back, for saturated throughput.
//! 3. One at a time, the rest of the round: one connection sends its next
//!    request when the last answer is in, for the serving latency. A host
//!    stall delays the one request in flight, not a queue of them, so it
//!    barely moves the median.
//!
//! The gated figures are a per-round median averaged over the rounds. The
//! host's speed changes from second to second (see [`ROUNDS`]); rounds
//! spread every phase over the whole window, and the mean moves smoothly
//! with the share of fast and slow stretches where a median would jump
//! between them.
//!
//! The whole workload, server and senders, set-up included, runs on one
//! CPU. Free to use both vCPUs of a shared VM, the figures swung with the
//! host: when CPU steal rose to 20%, the closed-loop rate fell fourfold
//! (≈28,000 to ≈6,000 req/s) and set-up doubled, because every hand-off
//! between the sender, the reactor and a worker waited whenever either
//! vCPU was descheduled. Placement also changed from run to run: the
//! one-at-a-time round trip was either ≈0.018 or ≈0.040 ms. On one CPU a
//! hand-off is a context switch, and a stall costs only its own length.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use coplot::api::DEFAULT_VARS;
use coplot::{AnalysisRequest, AnalysisResponse, DatasetSpec, Operation};
use wl_loadgen::{schedule, ArrivalProcess};
use wl_serve::http::HttpClient;
use wl_serve::{execute, ExecConfig, ServerConfig, ServerHandle};
use wl_stats::rng::derive_seed;

use crate::common::{ms, peak_rss_mb, ratio, ObsDelta, Report, RunArgs, ROUNDS};
use crate::spans;
use crate::stats::{mean, summarize};

/// Nominal open-loop arrival rate, requests per second.
const RATE: f64 = 3_000.0;

/// Open-loop samples per slice (see [`crate::stats::sliced`]): about 33 ms
/// at [`RATE`], with a p90 tail in each of hundreds of slices.
const SLICE_SAMPLES: usize = 100;

/// The percentile across open-loop slices the per-layer open-loop figures
/// take: the quietest quarter. CPU steal on a shared VM (measured at
/// 1–20%) slows whole stretches of a run.
const ACROSS: u32 = 25;

/// The percentile across a round's closed-loop slices its rate takes: the
/// median slice. Each slice is a 30th of the phase.
const RATE_ACROSS: u32 = 50;

/// Requests in the fixed set.
const HIT_SET: usize = 8;

/// Length of the seeded cycle of set indices the closed loop and the
/// one-at-a-time phase send. The phase, not the list, ends the loop.
const SATURATE_CYCLE: usize = 1024;

/// Set-ups timed per round; the round's figure is the quicker one, so that
/// a host stall during one of them does not count.
const SETUPS_PER_ROUND: usize = 2;

/// A round's one-at-a-time phase keeps a uniform sample of at most this
/// many round trips, so the benchmark's memory does not grow with the
/// server's speed (the phase of a 30 s run's round sends 15,000–50,000
/// requests on a 2-vCPU VM).
const RESERVOIR: usize = 1 << 14;

/// A small deterministic generator for the request mix (SplitMix64).
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = derive_seed(self.0, 0);
        (self.0 % n as u64) as usize
    }
}

fn named(op: Operation, dataset: &str, seed: u64) -> AnalysisRequest {
    let mut req = AnalysisRequest::new(op, DatasetSpec::Named(dataset.into()));
    req.jobs = 1024;
    req.seed = seed;
    req
}

/// The fixed set: coplot, hurst and subset requests over small synthesized
/// datasets whose seeds come from the workload seed.
fn hit_requests(seed: u64) -> Vec<AnalysisRequest> {
    let s = |i: u64| crate::cold::json_seed(derive_seed(seed, i));
    let mut subset = named(Operation::Subset, "models", s(6));
    subset.vars = DEFAULT_VARS[..6].iter().map(|v| v.to_string()).collect();
    subset.subset_size = 2;
    let set = vec![
        named(Operation::Coplot, "table3", s(0)),
        named(Operation::Coplot, "table1", s(1)),
        named(Operation::Coplot, "models", s(2)),
        named(Operation::Coplot, "table2", s(3)),
        named(Operation::Hurst, "table3", s(4)),
        named(Operation::Hurst, "models", s(5)),
        subset,
        named(Operation::Subset, "table1", s(7)),
    ];
    debug_assert_eq!(set.len(), HIT_SET);
    set
}

/// A distinct request body and what the timed window saw of it.
struct Distinct {
    request: AnalysisRequest,
    path: String,
    body: String,
    /// The first answer received; later answers are compared to it
    /// byte for byte as they arrive, and it to the reference at the end.
    first_answer: OnceLock<String>,
}

/// The run's request table: distinct bodies and the order they are sent.
struct Plan {
    distinct: Vec<Distinct>,
    /// Open-loop phases, one per round: body index and due offset from the
    /// round's start of each request.
    open: Vec<Vec<(usize, Duration)>>,
    /// Closed-loop and one-at-a-time phases: body indices, taken in a
    /// cycle while time lasts.
    saturate: Vec<usize>,
}

impl Plan {
    fn make(seed: u64, window: Duration) -> Plan {
        let open_window = window / 2;
        let per_round = open_window / ROUNDS;
        let n_open = (RATE * open_window.as_secs_f64()).round().max(1.0) as usize;
        let offsets = schedule(ArrivalProcess::Poisson, RATE, n_open, derive_seed(seed, 1));
        let distinct: Vec<Distinct> = hit_requests(seed)
            .into_iter()
            .map(|request| Distinct {
                path: format!("/v1/{}", request.op.label()),
                body: request.to_json(),
                request,
                first_answer: OnceLock::new(),
            })
            .collect();
        let mut mix = Mix(derive_seed(seed, 2));
        let mut open = vec![Vec::new(); ROUNDS as usize];
        for due in offsets {
            let round = (due.as_secs_f64() / per_round.as_secs_f64()) as u32;
            let round = round.min(ROUNDS - 1);
            open[round as usize].push((mix.below(distinct.len()), due - per_round * round));
        }
        let saturate = (0..SATURATE_CYCLE)
            .map(|_| mix.below(distinct.len()))
            .collect();
        Plan {
            distinct,
            open,
            saturate,
        }
    }
}

/// What happened to one sent request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    body: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    /// The connection was free before the request was due, so the sender
    /// slept until it was: `sent - due` is generator lateness.
    slept: bool,
    ok: bool,
    /// This request was wrapped in client-side spans (traced runs trace
    /// every other request).
    traced: bool,
}

/// One keep-alive connection's sender.
struct Sender {
    addr: String,
    client: Option<HttpClient>,
}

impl Sender {
    fn new(addr: &str) -> Sender {
        Sender {
            addr: addr.to_string(),
            client: None,
        }
    }

    /// POST one body; `Some(body)` for a 200.
    fn post(&mut self, path: &str, body: &str) -> Option<String> {
        for _ in 0..2 {
            if self.client.is_none() {
                let mut c = HttpClient::connect(&self.addr).ok()?;
                c.set_timeout(Some(Duration::from_secs(60))).ok()?;
                self.client = Some(c);
            }
            let client = self.client.as_mut()?;
            match client.call("POST", path, Some(body)) {
                Ok((status, headers, answer)) => {
                    let closing = headers
                        .iter()
                        .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
                    if closing {
                        self.client = None;
                    }
                    return (status == 200).then_some(answer);
                }
                // A closed keep-alive socket: reconnect and resend once.
                Err(_) => self.client = None,
            }
        }
        None
    }
}

/// Whether `answer` is a 200 carrying the first answer's bytes for its
/// body (the first answer itself is checked against the reference later).
fn check_answer(d: &Distinct, answer: Option<String>) -> bool {
    let Some(answer) = answer else {
        return false;
    };
    match d.first_answer.set(answer) {
        Ok(()) => true,
        Err(answer) => d.first_answer.get() == Some(&answer),
    }
}

/// A round's open-loop phase: every request of `plan.open[round]`, each no
/// earlier than its due time, over `conns` connections. Request ids start
/// at `first_id`.
fn open_loop(
    addr: &str,
    plan: &Plan,
    round: usize,
    conns: usize,
    trace: bool,
    first_id: usize,
) -> Vec<Sample> {
    let open = &plan.open[round];
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(open.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut sender = Sender::new(addr);
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(body, offset)) = open.get(i) else {
                        break;
                    };
                    let i = first_id + i;
                    let due = start + offset;
                    let slept = wait_until(due);
                    let d = &plan.distinct[body];
                    let traced = trace && i % 2 == 1;
                    let sent = Instant::now();
                    let answer = {
                        let _root = traced.then(|| spans::root("serve.request", i as u64));
                        let _call = traced.then(|| spans::enter("http.call"));
                        sender.post(&d.path, &d.body)
                    };
                    let done = Instant::now();
                    let ok = check_answer(d, answer);
                    mine.push(Sample {
                        body,
                        due,
                        sent,
                        done,
                        slept,
                        ok,
                        traced,
                    });
                }
                samples.lock().expect("samples").extend(mine);
            });
        }
    });
    samples.into_inner().expect("samples")
}

/// Sleep until `due`. Returns whether there was anything to wait for.
/// A sender that spun through the last stretch instead kept both cores
/// busy: runs were then either faster or, when the host took a core away,
/// far slower, and the spread across runs grew.
fn wait_until(due: Instant) -> bool {
    let now = Instant::now();
    if now >= due {
        return false;
    }
    std::thread::sleep(due - now);
    true
}

/// What the closed-loop phase did.
struct ClosedLoop {
    /// Requests sent, per body index.
    sent: Vec<u64>,
    /// Of those, answers that were not a 200 with the first answer's bytes.
    failed: Vec<u64>,
    /// Completions per second of each slice: the phase cut into thirty
    /// equal slices, merged into fewer when a slice would hold under
    /// `per_slice` completions.
    rates: Vec<f64>,
}

/// The closed-loop phase: `conns` connections send back to back for
/// `phase`.
fn closed_loop(
    addr: &str,
    plan: &Plan,
    conns: usize,
    phase: Duration,
    per_slice: usize,
) -> ClosedLoop {
    const BINS: usize = 30;
    let next = AtomicUsize::new(0);
    let counters = || {
        (0..plan.distinct.len())
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
    };
    let (sent, failed) = (counters(), counters());
    let bins: Vec<AtomicU64> = (0..BINS).map(|_| AtomicU64::new(0)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut sender = Sender::new(addr);
                while start.elapsed() < phase {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let body = plan.saturate[i % plan.saturate.len()];
                    let d = &plan.distinct[body];
                    let ok = check_answer(d, sender.post(&d.path, &d.body));
                    sent[body].fetch_add(1, Ordering::Relaxed);
                    failed[body].fetch_add(u64::from(!ok), Ordering::Relaxed);
                    let bin = start.elapsed().as_secs_f64() / phase.as_secs_f64() * BINS as f64;
                    if let Some(b) = bins.get(bin as usize) {
                        b.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let bins: Vec<u64> = bins.into_iter().map(AtomicU64::into_inner).collect();
    let slices = (bins.iter().sum::<u64>() as usize / per_slice.max(1)).clamp(1, BINS);
    let mut counts = vec![0u64; slices];
    for (j, c) in bins.iter().enumerate() {
        counts[j * slices / BINS] += c;
    }
    let rates: Vec<f64> = counts
        .iter()
        .enumerate()
        .map(|(k, &c)| {
            let width = (0..BINS).filter(|j| j * slices / BINS == k).count();
            c as f64 / (phase.as_secs_f64() * width as f64 / BINS as f64)
        })
        .collect();
    let take = |v: Vec<AtomicU64>| v.into_iter().map(AtomicU64::into_inner).collect();
    ClosedLoop {
        sent: take(sent),
        failed: take(failed),
        rates,
    }
}

/// What the one-at-a-time phase did.
struct OneAtATime {
    /// Requests sent, per body index.
    sent: Vec<u64>,
    /// Of those, answers that were not a 200 with the first answer's bytes.
    failed: Vec<u64>,
    /// Round trips in ms: every one, or a uniform sample of [`RESERVOIR`].
    round_trips: Vec<f64>,
}

/// A one-at-a-time phase: one connection sends the next request when the
/// last answer is in, for `phase`. `seed` draws the kept sample.
fn one_at_a_time(addr: &str, plan: &Plan, seed: u64, phase: Duration) -> OneAtATime {
    let mut sender = Sender::new(addr);
    let mut sent = vec![0u64; plan.distinct.len()];
    let mut failed = vec![0u64; plan.distinct.len()];
    let mut round_trips = Vec::with_capacity(RESERVOIR);
    let mut keep = Mix(seed);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < phase {
        let body = plan.saturate[i % plan.saturate.len()];
        let d = &plan.distinct[body];
        let t = Instant::now();
        let answer = sender.post(&d.path, &d.body);
        let round_trip = ms(t.elapsed());
        sent[body] += 1;
        failed[body] += u64::from(!check_answer(d, answer));
        if round_trips.len() < RESERVOIR {
            round_trips.push(round_trip);
        } else if let Some(slot) = round_trips.get_mut(keep.below(i + 1)) {
            *slot = round_trip;
        }
        i += 1;
    }
    OneAtATime {
        sent,
        failed,
        round_trips,
    }
}

/// A CPU set as `sched_setaffinity(2)` takes it (1,024 CPUs).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Narrow the calling thread to the lowest CPU it may run on. Threads it
/// starts from then on inherit that one CPU.
fn pin_to_one_cpu() -> Result<(), String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: pid 0 is the calling thread; the buffer is a writable
    // cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let word = allowed
        .iter()
        .position(|&w| w != 0)
        .ok_or("no CPU to run on")?;
    let mut one: CpuSet = [0; 16];
    one[word] = allowed[word] & allowed[word].wrapping_neg();
    // SAFETY: as above, with a readable cpu_set_t.
    let rc = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// One set-up: start a server and prime it. Returns its time in seconds;
/// the server is shut down.
fn timed_setup(plan: &Plan) -> f64 {
    let t = Instant::now();
    let server = start_server();
    prime(plan, &server.addr().to_string());
    let elapsed = t.elapsed().as_secs_f64();
    server.shutdown();
    elapsed
}

/// Start a server with the default configuration on an ephemeral port.
fn start_server() -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    wl_serve::start(config).expect("bind an ephemeral port")
}

/// Program spans (from the armed `wl-obs` registry) that stand for a
/// layer of the benchmark's table.
fn program_layer(name: &str) -> Option<&'static str> {
    Some(match name {
        "logsynth.production_workloads" => "datasets.synthesize",
        "gwf.parse" | "swf.parse" | "weblog.parse" => "trace.parse",
        "engine.prepare" | "engine.selection" => "engine.run",
        "engine.normalize" => "engine.normalize",
        "engine.dissimilarity" | "engine.contributions" => "engine.dissimilarity",
        "engine.embed" => "engine.embed",
        "engine.arrows" => "engine.arrows",
        "subset.search" => "subset.search",
        "stream.run" => "stream.run",
        _ => return None,
    })
}

/// The events of the server's long-lived threads: those whose spans reach
/// across at least a quarter of the window. `wl-par` pool threads live for
/// one parallel map inside one request; their work is wall time of a span
/// on the request's own thread already, and adding it again would count
/// parallel time as wall time.
fn long_lived(events: &[wl_obs::SpanEvent], window: Duration) -> Vec<wl_obs::SpanEvent> {
    let mut reach: HashMap<u32, (u64, u64)> = HashMap::new();
    for ev in events {
        let r = reach.entry(ev.thread).or_insert((ev.ts_ns, ev.ts_ns));
        r.0 = r.0.min(ev.ts_ns);
        r.1 = r.1.max(ev.ts_ns);
    }
    let min_ns = window.as_nanos() as u64 / 4;
    events
        .iter()
        .filter(|ev| {
            let (first, last) = reach[&ev.thread];
            last - first >= min_ns
        })
        .copied()
        .collect()
}

/// Per-layer metrics no serving request reaches (no stream requests, no
/// per-op split of the server's spans): reported as 0.
const NOT_ON_PATH: [&str; 12] = [
    "stream.p50_ms",
    "stream.tail_ms",
    "datasets.synthesize.calls",
    "datasets.synthesize.jobs",
    "trace.parse.records",
    "subset.mds_iterations",
    "selfsim.hurst.series",
    "ledger.coplot.unattributed_ratio",
    "ledger.hurst.unattributed_ratio",
    "ledger.subset.unattributed_ratio",
    "ledger.stream.unattributed_ratio",
    "stream.warm_ratio",
];

/// Run `serve_hits`.
pub fn run(args: &RunArgs, report: &mut Report) {
    let conns = args.threads;
    let plan = Plan::make(args.seed, args.window);
    // Every server and sender thread of the run inherits this one CPU.
    if let Err(e) = pin_to_one_cpu() {
        panic!("serve_hits runs on one CPU: {e}");
    }
    let server = start_server();
    let addr = server.addr().to_string();
    prime(&plan, &addr);

    spans::set_armed(args.trace);
    let mut delta = ObsDelta::default();
    let mut program_events = Vec::new();
    let mut setups = Vec::with_capacity(ROUNDS as usize);
    let window_start = Instant::now();
    let quarter = args.window / ROUNDS / 4;
    let mut samples = Vec::new();
    let mut open_handled_us = 0u64;
    let mut slice_rates = Vec::new();
    let (mut rates, mut round_p50s, mut round_tails) = (Vec::new(), Vec::new(), Vec::new());
    let bodies = plan.distinct.len();
    let (mut sat_sent, mut sat_failed) = (vec![0u64; bodies], vec![0u64; bodies]);
    let (mut one_sent, mut one_failed) = (vec![0u64; bodies], vec![0u64; bodies]);
    for round in 0..ROUNDS as usize {
        // Set-up is timed in every round, on servers of its own, so that
        // it samples the host over the run as the phases do. Its spans and
        // counters are left out of the round's.
        let quicker = (0..SETUPS_PER_ROUND)
            .map(|_| timed_setup(&plan))
            .fold(f64::MAX, f64::min);
        setups.push(quicker);
        wl_obs::reset_events();
        delta.resume();

        let mut open_delta = ObsDelta::start();
        let open = open_loop(&addr, &plan, round, conns, args.trace, samples.len());
        samples.extend(open);
        open_delta.finish();
        open_handled_us += handled_us(&open_delta);

        let saturated = closed_loop(&addr, &plan, conns, quarter, SLICE_SAMPLES);
        rates.push(crate::stats::percentile(&saturated.rates, RATE_ACROSS));
        slice_rates.extend(saturated.rates);
        add(&mut sat_sent, &saturated.sent);
        add(&mut sat_failed, &saturated.failed);

        let seed = derive_seed(args.seed, 3 + round as u64);
        let one = one_at_a_time(&addr, &plan, seed, quarter);
        let s = summarize(&one.round_trips).expect("a one-at-a-time phase sent requests");
        round_p50s.push(s.p50);
        round_tails.push(s.tail);
        add(&mut one_sent, &one.sent);
        add(&mut one_failed, &one.failed);
        delta.finish();
        program_events.extend(wl_obs::events_snapshot());
    }
    samples.sort_by_key(|s| s.due);
    let setup_s = mean(&setups);
    let saturated_rps = mean(&rates);
    let (latency_p50, latency_tail) = (mean(&round_p50s), mean(&round_tails));
    let sat_done: u64 = sat_sent.iter().sum();
    let one_done: u64 = one_sent.iter().sum();
    spans::set_armed(false);
    let peak_rss = peak_rss_mb();
    let events_dropped = wl_obs::events_dropped();
    server.shutdown();

    // The byte gate: each distinct body's first answer against the
    // program's reference; every later answer was compared to the first.
    let answered: Vec<usize> = (0..plan.distinct.len())
        .filter(|&i| plan.distinct[i].first_answer.get().is_some())
        .collect();
    let references = wl_par::par_map(args.threads, &answered, |&i| {
        execute(&plan.distinct[i].request, &ExecConfig::new(1)).map(|o| o.response)
    });
    let mut right = vec![false; plan.distinct.len()];
    for (&i, reference) in answered.iter().zip(&references) {
        right[i] =
            matches!(reference, Ok(r) if Some(&r.to_json()) == plan.distinct[i].first_answer.get());
    }
    report.attempted = samples.len() as u64 + sat_done + one_done;
    report.failed = samples.iter().filter(|s| !s.ok || !right[s.body]).count() as u64;
    for (sent, failed) in [(&sat_sent, &sat_failed), (&one_sent, &one_failed)] {
        for (body, &fails) in failed.iter().enumerate() {
            report.failed += if right[body] { fails } else { sent[body] };
        }
    }
    report.correct = report.failed == 0;

    let latency: Vec<f64> = samples.iter().map(|s| ms(s.done - s.due)).collect();
    let lat =
        crate::stats::sliced(&latency, SLICE_SAMPLES, ACROSS).expect("the open loop sent requests");
    let lateness: Vec<f64> = samples
        .iter()
        .filter(|s| s.slept)
        .map(|s| ms(s.sent.saturating_duration_since(s.due)))
        .collect();
    let late = summarize(&lateness);
    let backlog_max = max_backlog(&samples);
    let span = |v: &[f64], digits: usize| {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
        format!("{lo:.digits$}–{hi:.digits$}")
    };
    report.note(format!(
        "set-up: mean {setup_s:.3} s of each round's quicker of {SETUPS_PER_ROUND}: {}",
        setups
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.note(format!(
        "serve_hits on one CPU, {ROUNDS} rounds in {:.2} s: {one_done} one-at-a-time requests, \
         round trip p50 {latency_p50:.4} ms (rounds {}), tail {latency_tail:.4} ms; \
         {sat_done} closed-loop requests, rate {saturated_rps:.0} req/s (rounds {})",
        window_start.elapsed().as_secs_f64(),
        span(&round_p50s, 4),
        span(&rates, 0),
    ));
    report.note(format!(
        "  {} open-loop requests at {RATE} req/s over {conns} connections; \
         latency p50 {:.3} ms, tail p{} {:.3} ms (p{ACROSS} over slices of {} samples)",
        samples.len(),
        lat.p50,
        lat.tail_pct,
        lat.tail,
        lat.n / (lat.n / SLICE_SAMPLES).max(1)
    ));
    let slice_p50s: Vec<f64> = crate::stats::slices(&latency, SLICE_SAMPLES)
        .iter()
        .map(|s| s.p50)
        .collect();
    report.note(format!(
        "  slice p50s: p5 {:.4} ms, p10 {:.4} ms, p25 {:.4} ms, p50 {:.4} ms over {} slices",
        crate::stats::percentile(&slice_p50s, 5),
        crate::stats::percentile(&slice_p50s, 10),
        crate::stats::percentile(&slice_p50s, 25),
        crate::stats::percentile(&slice_p50s, 50),
        slice_p50s.len()
    ));
    report.note(format!(
        "  closed-loop slice rates: p25 {:.0}, p50 {:.0}, p75 {:.0}, p90 {:.0} req/s over {} slices",
        crate::stats::percentile(&slice_rates, 25),
        crate::stats::percentile(&slice_rates, 50),
        crate::stats::percentile(&slice_rates, 75),
        crate::stats::percentile(&slice_rates, 90),
        slice_rates.len()
    ));
    report.note(format!(
        "  open-loop latency p75 {:.3} ms, p90 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        crate::stats::percentile(&latency, 75),
        crate::stats::percentile(&latency, 90),
        crate::stats::percentile(&latency, 95),
        crate::stats::percentile(&latency, 99)
    ));
    report.note(format!(
        "  generator lateness p50 {:.3} ms, p99 {:.3} ms over {} on-time sends; client backlog max {backlog_max}",
        late.map_or(0.0, |l| l.p50),
        crate::stats::percentile(&lateness, 99),
        lateness.len()
    ));

    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", peak_rss);
        report.set("latency.p50_ms", latency_p50);
        report.set("saturated_rps", saturated_rps);
        return;
    }

    report.set("latency.tail_ms", latency_tail);
    report.set("serve.open_loop.p50_ms", lat.p50);
    report.set("serve.open_loop.tail_ms", lat.tail);
    let requests = (samples.len() as u64 + sat_done + one_done) as f64;
    for name in NOT_ON_PATH {
        report.set(name, 0.0);
    }
    for (op, p50, tail) in [
        (Operation::Coplot, "coplot.p50_ms", "coplot.tail_ms"),
        (Operation::Hurst, "hurst.p50_ms", "hurst.tail_ms"),
        (Operation::Subset, "subset.p50_ms", "subset.tail_ms"),
    ] {
        let of_op: Vec<f64> = samples
            .iter()
            .filter(|s| plan.distinct[s.body].request.op == op)
            .map(|s| ms(s.done - s.due))
            .collect();
        let s = summarize(&of_op);
        report.set(p50, s.map_or(0.0, |s| s.p50));
        report.set(tail, s.map_or(0.0, |s| s.tail));
    }

    let handled_us = handled_us(&delta);
    // Mean round trip minus mean handling over the same (open-loop)
    // requests: the histograms are log2-bucketed, but their sums are exact.
    let round_trip_ms: f64 = samples.iter().map(|s| ms(s.done - s.sent)).sum();
    let transport = (round_trip_ms - open_handled_us as f64 / 1e3) / samples.len() as f64;
    report.set("serve.transport_ms.mean", transport);
    let waits: Vec<f64> = samples
        .iter()
        .map(|s| ms(s.sent.saturating_duration_since(s.due)))
        .collect();
    report.set(
        "serve.cache.hit_ratio",
        ratio(
            delta.counter("serve.cache.hit") as f64,
            (delta.counter("serve.cache.hit") + delta.counter("serve.cache.miss")) as f64,
        ),
    );
    report.set("serve.client_wait_ms.p50", crate::stats::median(&waits));
    report.set(
        "serve.queue.rejected",
        delta.counter("serve.queue.rejected") as f64,
    );
    let (batches, batched) = delta.hist("serve.batch.size");
    report.set(
        "serve.batch.mean_size",
        ratio(batched as f64, batches as f64),
    );
    report.set(
        "loadgen.lateness_ms.p99",
        if lateness.is_empty() {
            0.0
        } else {
            crate::stats::percentile(&lateness, 99)
        },
    );
    report.set("loadgen.backlog.max", backlog_max as f64);

    // The request and response API, timed from here on this run's bodies
    // and reference responses (ms per call).
    let t = Instant::now();
    for d in &plan.distinct {
        if let Ok(req) = AnalysisRequest::from_json(&d.body) {
            if let Ok(c) = req.canonicalize() {
                let _ = c.canonical_digest();
            }
        }
    }
    report.set(
        "api.request.self_ms",
        ms(t.elapsed()) / plan.distinct.len() as f64,
    );
    let responses: Vec<&AnalysisResponse> =
        references.iter().filter_map(|r| r.as_ref().ok()).collect();
    let t = Instant::now();
    let bytes: usize = responses.iter().map(|r| r.to_json().len()).sum();
    let n = responses.len().max(1) as f64;
    report.set("api.serialize.self_ms", ms(t.elapsed()) / n);
    report.set("api.serialize.bytes", bytes as f64 / n);

    // Compute layers, from the spans the program itself records.
    let program =
        spans::from_program_events(&long_lived(&program_events, args.window), program_layer);
    let by_name = spans::self_by_name(&program);
    let layer_ms = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e6;
    for (metric, span) in crate::cold::SELF_TIME_LAYERS {
        // The API layers were timed from here above.
        if !span.starts_with("api.") {
            report.set(metric, layer_ms(span) / requests);
        }
    }
    let attributed: f64 = by_name.values().sum::<u64>() as f64 / 1e6;
    report.set(
        "ledger.unattributed_ratio",
        if handled_us == 0 {
            1.0
        } else {
            1.0 - attributed / (handled_us as f64 / 1e3)
        },
    );
    report.set("mds.starts", delta.counter("mds.starts") as f64 / requests);
    report.set(
        "mds.iterations",
        delta.hist("mds.iterations_per_start").1 as f64 / requests,
    );
    report.set(
        "subset.candidates",
        delta.counter("subset.candidates") as f64 / requests,
    );
    report.set(
        "stream.windows",
        delta.counter("stream.windows_sealed") as f64 / requests,
    );
    report.set("par.idle_ratio", delta.par_idle_ratio());
    if events_dropped > 0 {
        report.note(format!(
            "  the program's span buffer dropped {events_dropped} events"
        ));
    }

    let traced: Vec<f64> = samples
        .iter()
        .filter(|s| s.traced)
        .map(|s| ms(s.done - s.due))
        .collect();
    let plain: Vec<f64> = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| ms(s.done - s.due))
        .collect();
    let (traced, plain) = (crate::stats::median(&traced), crate::stats::median(&plain));
    report.set("trace.overhead_ms", traced - plain);
    report.set("trace.overhead_ratio", ratio(traced - plain, plain));

    let mut all = spans::closed();
    all.extend(program);
    report.spans = spans::to_json_lines(&all);
}

/// Server-side handling in µs, summed over the requests of a registry
/// delta, from the program's own latency histograms.
fn handled_us(delta: &ObsDelta) -> u64 {
    [
        "serve.latency_us.coplot",
        "serve.latency_us.hurst",
        "serve.latency_us.subset",
    ]
    .iter()
    .map(|name| delta.hist(name).1)
    .sum()
}

/// Add `more` to `total`, element by element.
fn add(total: &mut [u64], more: &[u64]) {
    for (t, m) in total.iter_mut().zip(more) {
        *t += m;
    }
}

/// Before timing: send every body once, so each later answer is a cache
/// hit.
fn prime(plan: &Plan, addr: &str) {
    let mut sender = Sender::new(addr);
    for d in &plan.distinct {
        let _ = sender.post(&d.path, &d.body);
    }
}

/// The most requests that were due but not yet sent, seen at any send.
fn max_backlog(samples: &[Sample]) -> usize {
    let mut dues: Vec<Instant> = samples.iter().map(|s| s.due).collect();
    dues.sort_unstable();
    let mut sends: Vec<Instant> = samples.iter().map(|s| s.sent).collect();
    sends.sort_unstable();
    sends
        .iter()
        .enumerate()
        .map(|(k, &at)| dues.partition_point(|&d| d <= at).saturating_sub(k + 1))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(plan: &Plan) -> Vec<(&str, Duration)> {
        plan.open
            .iter()
            .flatten()
            .map(|&(body, due)| (plan.distinct[body].body.as_str(), due))
            .collect()
    }

    #[test]
    fn schedule_and_requests_are_a_function_of_the_seed() {
        let window = Duration::from_secs(2);
        let (a, b) = (Plan::make(7, window), Plan::make(7, window));
        assert_eq!(sent(&a), sent(&b), "same seed, same plan");
        assert_eq!(a.saturate, b.saturate);
        let c = Plan::make(8, window);
        assert_ne!(sent(&a), sent(&c), "another seed, another plan");
        assert_eq!(sent(&a).len(), RATE as usize, "rate × half the window");
        assert_eq!(a.open.len(), ROUNDS as usize);
        let round = window / 2 / ROUNDS;
        for (r, open) in a.open.iter().enumerate() {
            assert!(open.windows(2).all(|w| w[0].1 <= w[1].1), "dues ascend");
            // The last round also takes the arrivals past the schedule's end.
            if r + 1 < a.open.len() {
                let within = open.iter().all(|&(_, due)| due < round);
                assert!(within, "due within its round");
            }
        }
        assert_eq!(a.distinct.len(), HIT_SET);
        assert_eq!(a.saturate.len(), SATURATE_CYCLE, "a cycle, not the phase");
    }

    #[test]
    fn backlog_counts_due_but_unsent_requests() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let sample = |due: u64, sent: u64| Sample {
            body: 0,
            due: at(due),
            sent: at(sent),
            done: at(sent + 1),
            slept: due >= sent,
            ok: true,
            traced: false,
        };
        // Three requests due at 0, 1, 2 ms; the last two wait until 10.
        let samples = [sample(0, 0), sample(1, 10), sample(2, 10)];
        assert_eq!(max_backlog(&samples), 1);
        assert_eq!(max_backlog(&[sample(0, 0), sample(5, 5)]), 0);
    }
}
