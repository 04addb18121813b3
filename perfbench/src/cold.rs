//! `cold_suite`: what a CLI user waits for.
//!
//! One caller, closed loop, `threads` = the host's cores. Each pass runs
//! four ops in a fixed order — `coplot @table3`, `hurst @table3`,
//! `subset @table1` at the request defaults, and a stream session over a
//! generated GWF trace — and every analysis call gets a fresh dataset seed,
//! so no cache can answer. The plain run calls the program's own entry
//! points (`wl_serve::execute`, `wl_serve::run_stream_text`). The traced
//! run alternates plain passes with passes through a pipeline rebuilt from
//! the layers' public functions, each call wrapped in a benchmark span;
//! its answers go through the same byte gate, which shows the traced
//! program is the measured one.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use coplot::engine::{
    ArrowFitter, DissimilarityStage, Embedder, MetricDissimilarity, NonmetricMdsEmbedder,
    Normalizer, OlsArrowFitter, PairContributions, ZScoreNormalizer,
};
use coplot::{
    AnalysisRequest, AnalysisResponse, CoplotEngine, CoplotError, CoplotOut, DataMatrix,
    DatasetSpec, DissimilarityMatrix, HurstOut, Imputation, MdsConfig, MdsSolution, Metric,
    NormalizedMatrix, Operation, Selection, SubsetEntry, SubsetOut,
};
use wl_linalg::Matrix;
use wl_serve::{execute, ExecConfig, NamedDataset, StreamOptions};
use wl_stats::rng::derive_seed;
use wl_swf::Workload;

use crate::common::{ms, ratio, repeated_setup, ObsDelta, Report, RunArgs, ROUNDS};
use crate::spans;
use crate::stats::summarize;

/// Jobs in the generated stream trace.
const STREAM_JOBS: usize = 20_000;

/// The suite's ops, in pass order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Coplot,
    Hurst,
    Subset,
    Stream,
}

impl Op {
    const ALL: [Op; 4] = [Op::Coplot, Op::Hurst, Op::Subset, Op::Stream];

    fn label(self) -> &'static str {
        match self {
            Op::Coplot => "coplot",
            Op::Hurst => "hurst",
            Op::Subset => "subset",
            Op::Stream => "stream",
        }
    }

    fn root_span(self) -> &'static str {
        match self {
            Op::Coplot => "op.coplot",
            Op::Hurst => "op.hurst",
            Op::Subset => "op.subset",
            Op::Stream => "op.stream",
        }
    }
}

/// The suite's inputs, made at set-up from the workload seed.
struct Inputs {
    seed: u64,
    /// A `/v1/stream` body: one JSON header line, then GWF text.
    stream_body: String,
}

impl Inputs {
    fn make(seed: u64) -> Inputs {
        let text = wl_trace::synth::grid_site_text(0, STREAM_JOBS, derive_seed(seed, 0x57_2EA3));
        Inputs {
            seed,
            stream_body: format!("{{\"name\":\"grid-stream\",\"format\":\"gwf\"}}\n{text}"),
        }
    }

    /// The analysis request of call `call` (a fresh dataset seed each).
    fn request(&self, op: Op, call: u64) -> AnalysisRequest {
        let (operation, dataset) = match op {
            Op::Coplot => (Operation::Coplot, "table3"),
            Op::Hurst => (Operation::Hurst, "table3"),
            Op::Subset => (Operation::Subset, "table1"),
            Op::Stream => unreachable!("stream takes a trace, not a request"),
        };
        let mut req = AnalysisRequest::new(operation, DatasetSpec::Named(dataset.into()));
        req.seed = json_seed(derive_seed(self.seed, call));
        req
    }

    fn stream_request(&self) -> Result<(StreamOptions, &str), String> {
        wl_serve::parse_stream_request(&self.stream_body).map_err(|e| e.to_string())
    }

    /// Run call `call` through the program's own entry points.
    fn run_plain(&self, op: Op, call: u64, threads: usize) -> Result<String, String> {
        if op == Op::Stream {
            let (options, text) = self.stream_request()?;
            return wl_serve::run_stream_text(text, &options, threads).map_err(|e| e.to_string());
        }
        execute(&self.request(op, call), &ExecConfig::new(threads))
            .map(|o| o.response.to_json())
            .map_err(|e| e.to_string())
    }

    /// Run call `call` through the rebuilt, span-wrapped pipeline.
    fn run_traced(&self, op: Op, call: u64, threads: usize) -> Result<String, String> {
        let _root = spans::root(op.root_span(), call);
        match op {
            Op::Stream => self.traced_stream(threads),
            _ => traced_analysis(&self.request(op, call), threads).map_err(|e| e.to_string()),
        }
    }

    fn traced_stream(&self, threads: usize) -> Result<String, String> {
        let (options, text) = {
            let _s = spans::enter("api.request");
            self.stream_request()?
        };
        let trace = {
            let _s = spans::enter("trace.parse");
            let fmt = options.format.ok_or("the stream header names its format")?;
            fmt.source()
                .read(&options.name, text, default_machine())
                .map_err(|e| e.to_string())?
        };
        TRACE_RECORDS.fetch_add(trace.jobs().len() as u64, Ordering::Relaxed);
        let mut config = options.config.clone();
        config.mds.threads = threads.max(1);
        let events = {
            let _s = spans::enter("stream.run");
            wl_analysis::stream::run_stream(&trace, &config).map_err(|e| e.to_string())?
        };
        let _s = spans::enter("api.serialize");
        let mut out = String::new();
        for event in &events {
            out.push_str(&wl_serve::event_json(event));
            out.push('\n');
        }
        SERIALIZED_BYTES.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }
}

/// A derived seed cut to the 53 bits a request's JSON numbers carry.
pub fn json_seed(seed: u64) -> u64 {
    seed >> 11
}

/// The machine `wl stream` assumes for a trace without a metadata header.
fn default_machine() -> wl_swf::MachineInfo {
    wl_swf::MachineInfo::new(
        128,
        wl_swf::SchedulerFlexibility::Backfilling,
        wl_swf::AllocationFlexibility::Unlimited,
    )
}

// Work counters the shims and traced calls add to (traced passes only).
static MDS_STARTS: AtomicU64 = AtomicU64::new(0);
static MDS_ITERATIONS: AtomicU64 = AtomicU64::new(0);
static SYNTH_CALLS: AtomicU64 = AtomicU64::new(0);
static SYNTH_JOBS: AtomicU64 = AtomicU64::new(0);
static SUBSET_CANDIDATES: AtomicU64 = AtomicU64::new(0);
static SUBSET_MDS_ITERATIONS: AtomicU64 = AtomicU64::new(0);
static HURST_SERIES: AtomicU64 = AtomicU64::new(0);
static TRACE_RECORDS: AtomicU64 = AtomicU64::new(0);
static SERIALIZED_BYTES: AtomicU64 = AtomicU64::new(0);

fn traced_analysis(request: &AnalysisRequest, threads: usize) -> Result<String, CoplotError> {
    let api = |e: coplot::ApiError| CoplotError::InvalidConfig(e.to_string());
    let req = {
        let _s = spans::enter("api.request");
        let req = request.canonicalize().map_err(api)?;
        req.canonical_digest().map_err(api)?;
        req
    };
    let workloads = synthesize(&req, threads)?;
    let response = match req.op {
        Operation::Coplot => {
            let data = matrix(&req, &workloads)?;
            let engine = shim_engine(req.seed, threads);
            let selection = match req.min_correlation {
                Some(min_correlation) => Selection::Eliminate { min_correlation },
                None => Selection::All,
            };
            let result = {
                let _s = spans::enter("engine.run");
                engine.run(&data, &selection)?
            };
            let _s = spans::enter("api.serialize");
            AnalysisResponse::Coplot(CoplotOut::from_result(&result))
        }
        Operation::Hurst => {
            let rows = {
                let _s = spans::enter("selfsim.hurst");
                wl_repro::hurst_rows(&workloads, threads)
            };
            HURST_SERIES.fetch_add(
                (workloads.len() * wl_swf::JobSeries::ALL.len()) as u64,
                Ordering::Relaxed,
            );
            let _s = spans::enter("api.serialize");
            AnalysisResponse::Hurst(HurstOut {
                workloads: workloads.iter().map(|w| w.name.clone()).collect(),
                columns: hurst_columns(),
                rows,
            })
        }
        Operation::Subset => {
            let data = matrix(&req, &workloads)?;
            let k = req.subset_size as usize;
            SUBSET_CANDIDATES.fetch_add(
                wl_analysis::subset::subset_space_size(data.n_variables(), k) as u64,
                Ordering::Relaxed,
            );
            let iterations_before = mds_iterations_counted();
            let results = {
                let _s = spans::enter("subset.search");
                wl_analysis::subset::best_variable_subset(
                    &data,
                    k,
                    req.max_alienation,
                    req.top as usize,
                    req.seed,
                    threads,
                )?
            };
            SUBSET_MDS_ITERATIONS.fetch_add(
                mds_iterations_counted() - iterations_before,
                Ordering::Relaxed,
            );
            let _s = spans::enter("api.serialize");
            AnalysisResponse::Subset(SubsetOut {
                results: results
                    .into_iter()
                    .map(|r| SubsetEntry {
                        variables: r.variables,
                        alienation: r.alienation,
                        mean_correlation: r.mean_correlation,
                        map_conservation_rmsd: r.map_conservation_rmsd,
                    })
                    .collect(),
            })
        }
    };
    // The serialize span opened in the match arm covers the conversion;
    // this one covers the bytes.
    let _s = spans::enter("api.serialize");
    let json = response.to_json();
    SERIALIZED_BYTES.fetch_add(json.len() as u64, Ordering::Relaxed);
    Ok(json)
}

/// MDS iterations the program's registry has counted so far (the sum of
/// its `mds.iterations_per_start` histogram).
fn mds_iterations_counted() -> u64 {
    wl_obs::registry()
        .snapshot()
        .histogram("mds.iterations_per_start")
        .map_or(0, |h| h.sum)
}

fn synthesize(req: &AnalysisRequest, threads: usize) -> Result<Vec<Workload>, CoplotError> {
    let DatasetSpec::Named(name) = &req.dataset else {
        return Err(CoplotError::InvalidConfig(
            "the suite uses named datasets".into(),
        ));
    };
    let dataset = NamedDataset::from_name(name)
        .ok_or_else(|| CoplotError::InvalidConfig(format!("unknown dataset {name}")))?;
    let _s = spans::enter("datasets.synthesize");
    let workloads = dataset.synthesize(req.jobs as usize, req.seed, threads);
    SYNTH_CALLS.fetch_add(1, Ordering::Relaxed);
    SYNTH_JOBS.fetch_add(
        workloads.iter().map(|w| w.jobs().len() as u64).sum(),
        Ordering::Relaxed,
    );
    Ok(workloads)
}

fn matrix(req: &AnalysisRequest, workloads: &[Workload]) -> Result<DataMatrix, CoplotError> {
    let _s = spans::enter("analysis.matrix");
    let codes: Vec<&str> = req.vars.iter().map(String::as_str).collect();
    wl_analysis::matrix::try_trace_matrix(workloads, &codes)
}

/// The Hurst response's column labels: series-major, estimator-minor.
fn hurst_columns() -> Vec<String> {
    let mut columns = Vec::new();
    for series in wl_swf::JobSeries::ALL {
        for est in wl_selfsim::HurstEstimator::ALL {
            columns.push(format!("{}{}", est.label(), series.code()));
        }
    }
    columns
}

/// The engine `execute` builds, from the same public stages, each wrapped
/// in a timing shim.
fn shim_engine(seed: u64, threads: usize) -> CoplotEngine {
    let mds = MdsConfig {
        seed,
        threads,
        ..MdsConfig::default()
    };
    CoplotEngine::builder()
        .seed(seed)
        .threads(threads)
        .normalizer(Box::new(Timed(ZScoreNormalizer {
            imputation: Imputation::ColumnMean,
        })))
        .dissimilarity(Box::new(Timed(MetricDissimilarity {
            metric: Metric::CityBlock,
        })))
        .embedder(Box::new(Timed(NonmetricMdsEmbedder { config: mds })))
        .arrow_fitter(Box::new(Timed(OlsArrowFitter)))
        .build()
}

/// A pipeline stage inside a benchmark span; forwards verbatim.
#[derive(Debug)]
struct Timed<S>(S);

impl Normalizer for Timed<ZScoreNormalizer> {
    fn normalize(&self, data: &DataMatrix) -> Result<NormalizedMatrix, CoplotError> {
        let _s = spans::enter("engine.normalize");
        self.0.normalize(data)
    }
}

impl DissimilarityStage for Timed<MetricDissimilarity> {
    fn compute(&self, z: &NormalizedMatrix) -> Result<DissimilarityMatrix, CoplotError> {
        let _s = spans::enter("engine.dissimilarity");
        self.0.compute(z)
    }

    fn contributions(&self, z: &NormalizedMatrix) -> Option<PairContributions> {
        let _s = spans::enter("engine.dissimilarity");
        self.0.contributions(z)
    }
}

impl Embedder for Timed<NonmetricMdsEmbedder> {
    fn embed(&self, diss: &DissimilarityMatrix) -> Result<MdsSolution, CoplotError> {
        let _s = spans::enter("engine.embed");
        let solution = self.0.embed(diss)?;
        MDS_STARTS.fetch_add(solution.theta_per_restart.len() as u64, Ordering::Relaxed);
        MDS_ITERATIONS.fetch_add(solution.iterations as u64, Ordering::Relaxed);
        Ok(solution)
    }
}

impl ArrowFitter for Timed<OlsArrowFitter> {
    fn fit(&self, name: &str, coords: &Matrix, z: &[f64]) -> Result<coplot::Arrow, CoplotError> {
        let _s = spans::enter("engine.arrows");
        self.0.fit(name, coords, z)
    }
}

/// What the byte gate keeps of an answer during the window: its length and
/// a 64-bit hash of its bytes. Keeping whole answers would make the
/// process's peak memory grow with the number of passes, and so with the
/// program's speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    fn of(answer: Result<String, String>) -> Result<Digest, String> {
        answer.map(|bytes| {
            let mut hasher = DefaultHasher::new();
            bytes.hash(&mut hasher);
            Digest {
                len: bytes.len(),
                hash: hasher.finish(),
            }
        })
    }
}

/// One timed call.
struct Call {
    op: Op,
    call: u64,
    traced: bool,
    wall_ms: f64,
    answer: Result<Digest, String>,
}

/// Run `cold_suite`.
pub fn run(args: &RunArgs, report: &mut Report) {
    let threads = args.threads;
    // Warm-up calls take seeds far from the timed calls' so no answer
    // repeats.
    let warm_base = 1u64 << 40;
    let mut warm_call = warm_base;
    let (inputs, setup_s) = repeated_setup(
        report,
        || {
            let inputs = Inputs::make(args.seed);
            for op in Op::ALL {
                let _ = inputs.run_plain(op, warm_call, threads);
                warm_call += 1;
            }
            inputs
        },
        drop,
    );

    let mut delta = ObsDelta::start();
    let mut calls: Vec<Call> = Vec::new();
    let mut pass_ms: Vec<(bool, f64)> = Vec::new();
    let window_start = Instant::now();
    let mut pass = 0u64;
    while window_start.elapsed() < args.window {
        // A traced run alternates: even passes plain, odd passes traced.
        let traced = args.trace && pass % 2 == 1;
        wl_obs::set_enabled(traced);
        spans::set_armed(traced);
        let pass_start = Instant::now();
        for (k, op) in Op::ALL.into_iter().enumerate() {
            let call = pass * Op::ALL.len() as u64 + k as u64;
            let t = Instant::now();
            let answer = if traced {
                inputs.run_traced(op, call, threads)
            } else {
                inputs.run_plain(op, call, threads)
            };
            let wall_ms = ms(t.elapsed());
            calls.push(Call {
                op,
                call,
                traced,
                wall_ms,
                answer: Digest::of(answer),
            });
        }
        pass_ms.push((traced, ms(pass_start.elapsed())));
        pass += 1;
    }
    wl_obs::set_enabled(false);
    spans::set_armed(false);
    delta.finish();
    let elapsed = window_start.elapsed().as_secs_f64();
    let peak_rss = crate::common::peak_rss_mb();

    let failed = gate(&inputs, &calls, threads);
    if let Some(e) = calls.iter().find_map(|c| c.answer.as_ref().err()) {
        report.note(format!("cold_suite: first failed call: {e}"));
    }
    report.correct = failed == 0;
    report.attempted = calls.len() as u64;
    report.failed = failed;

    let plain_passes: Vec<f64> = pass_ms.iter().filter(|p| !p.0).map(|p| p.1).collect();
    let traced_passes: Vec<f64> = pass_ms.iter().filter(|p| p.0).map(|p| p.1).collect();
    let plain = summarize(&plain_passes).expect("at least one plain pass");
    let pass_p50 = crate::stats::mean_of_slice_medians(&plain_passes, ROUNDS as usize);
    report.note(format!(
        "cold_suite: {} passes ({} plain) in {elapsed:.2} s; pass p50 {pass_p50:.2} ms \
         (whole run {:.2} ms), tail p{} {:.2} ms over {} samples",
        pass_ms.len(),
        plain.n,
        plain.p50,
        plain.tail_pct,
        plain.tail,
        plain.n
    ));
    let mut per_op = Vec::new();
    for op in Op::ALL {
        let walls: Vec<f64> = calls
            .iter()
            .filter(|c| c.op == op && !c.traced)
            .map(|c| c.wall_ms)
            .collect();
        let s = summarize(&walls).expect("every pass runs every op");
        report.note(format!(
            "  {:<7} p50 {:8.2} ms  tail p{} {:8.2} ms  n={}",
            op.label(),
            s.p50,
            s.tail_pct,
            s.tail,
            s.n
        ));
        per_op.push((op, s));
    }

    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", peak_rss);
        report.set("latency.p50_ms", pass_p50);
        report.set("saturated_rps", calls.len() as f64 / elapsed);
        return;
    }

    report.set("latency.tail_ms", plain.tail);
    for name in NOT_ON_PATH {
        report.set(name, 0.0);
    }
    for (op, s) in &per_op {
        let (p50, tail) = per_op_names(*op);
        report.set(p50, s.p50);
        report.set(tail, s.tail);
    }
    let traced = summarize(&traced_passes).expect("at least one traced pass");
    let passes = traced.n as f64;
    report.set("trace.overhead_ms", traced.p50 - plain.p50);
    report.set("trace.overhead_ratio", (traced.p50 - plain.p50) / plain.p50);
    report.note(format!(
        "  tracing overhead: traced pass p50 {:.2} ms vs plain {:.2} ms",
        traced.p50, plain.p50
    ));

    let recorded = spans::closed();
    let by_name = spans::self_by_name(&recorded);
    let self_ms = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e6 / passes;
    for (metric, span) in SELF_TIME_LAYERS {
        report.set(metric, self_ms(span));
    }
    // The ledger: what each op's root span holds outside every layer span.
    let selfs = spans::self_times(&recorded);
    let mut root_self = 0u64;
    let mut root_wall = 0u64;
    for op in Op::ALL {
        let roots: Vec<&spans::Span> = recorded
            .iter()
            .filter(|s| s.parent.is_none() && s.name == op.root_span())
            .collect();
        let own: u64 = roots.iter().map(|s| selfs[&s.id]).sum();
        let wall: u64 = roots.iter().map(|s| s.duration_ns()).sum();
        root_self += own;
        root_wall += wall;
        report.set(ledger_name(op), ratio(own as f64, wall as f64));
    }
    report.set(
        "ledger.unattributed_ratio",
        ratio(root_self as f64, root_wall as f64),
    );

    let per_pass = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64 / passes;
    report.set("mds.starts", per_pass(&MDS_STARTS));
    report.set("mds.iterations", per_pass(&MDS_ITERATIONS));
    report.set("datasets.synthesize.calls", per_pass(&SYNTH_CALLS));
    report.set("datasets.synthesize.jobs", per_pass(&SYNTH_JOBS));
    report.set("subset.candidates", per_pass(&SUBSET_CANDIDATES));
    report.set("subset.mds_iterations", per_pass(&SUBSET_MDS_ITERATIONS));
    report.set("selfsim.hurst.series", per_pass(&HURST_SERIES));
    report.set("trace.parse.records", per_pass(&TRACE_RECORDS));
    report.set("api.serialize.bytes", per_pass(&SERIALIZED_BYTES));
    report.set(
        "stream.windows",
        delta.counter("stream.windows_sealed") as f64 / passes,
    );
    report.set(
        "stream.warm_ratio",
        ratio(
            delta.counter("stream.warm_accepted") as f64,
            delta.counter("stream.frames") as f64,
        ),
    );
    report.set("par.idle_ratio", delta.par_idle_ratio());
    report.spans = spans::to_json_lines(&recorded);
}

/// Per-layer metrics of the serving path, which the suite never reaches:
/// reported as 0.
const NOT_ON_PATH: [&str; 9] = [
    "serve.open_loop.p50_ms",
    "serve.open_loop.tail_ms",
    "serve.transport_ms.mean",
    "serve.cache.hit_ratio",
    "serve.client_wait_ms.p50",
    "serve.queue.rejected",
    "serve.batch.mean_size",
    "loadgen.lateness_ms.p99",
    "loadgen.backlog.max",
];

/// Per-layer self-time metrics and the benchmark span each is read from.
/// Self times are ms per pass of the four ops.
pub const SELF_TIME_LAYERS: [(&str, &str); 13] = [
    ("api.request.self_ms", "api.request"),
    ("api.serialize.self_ms", "api.serialize"),
    ("datasets.synthesize.self_ms", "datasets.synthesize"),
    ("trace.parse.self_ms", "trace.parse"),
    ("analysis.matrix.self_ms", "analysis.matrix"),
    ("engine.run.self_ms", "engine.run"),
    ("engine.normalize.self_ms", "engine.normalize"),
    ("engine.dissimilarity.self_ms", "engine.dissimilarity"),
    ("engine.embed.self_ms", "engine.embed"),
    ("engine.arrows.self_ms", "engine.arrows"),
    ("subset.search.self_ms", "subset.search"),
    ("selfsim.hurst.self_ms", "selfsim.hurst"),
    ("stream.run.self_ms", "stream.run"),
];

/// The per-op latency metric names.
fn per_op_names(op: Op) -> (&'static str, &'static str) {
    match op {
        Op::Coplot => ("coplot.p50_ms", "coplot.tail_ms"),
        Op::Hurst => ("hurst.p50_ms", "hurst.tail_ms"),
        Op::Subset => ("subset.p50_ms", "subset.tail_ms"),
        Op::Stream => ("stream.p50_ms", "stream.tail_ms"),
    }
}

/// The per-op ledger metric name.
fn ledger_name(op: Op) -> &'static str {
    match op {
        Op::Coplot => "ledger.coplot.unattributed_ratio",
        Op::Hurst => "ledger.hurst.unattributed_ratio",
        Op::Subset => "ledger.subset.unattributed_ratio",
        Op::Stream => "ledger.stream.unattributed_ratio",
    }
}

/// The byte gate: recompute every answer at one engine thread (calls spread
/// over `threads` workers) and count the answers whose length or hash
/// differ from the reference's, or that failed.
fn gate(inputs: &Inputs, calls: &[Call], threads: usize) -> u64 {
    let stream_reference = Digest::of(inputs.run_plain(Op::Stream, 0, 1));
    let analyses: Vec<&Call> = calls.iter().filter(|c| c.op != Op::Stream).collect();
    let references = wl_par::par_map(threads, &analyses, |c| {
        Digest::of(inputs.run_plain(c.op, c.call, 1))
    });
    let mut failed = 0;
    for c in calls.iter().filter(|c| c.op == Op::Stream) {
        failed += u64::from(!same(&c.answer, &stream_reference));
    }
    for (c, reference) in analyses.iter().zip(&references) {
        failed += u64::from(!same(&c.answer, reference));
    }
    failed
}

fn same(answer: &Result<Digest, String>, reference: &Result<Digest, String>) -> bool {
    matches!((answer, reference), (Ok(a), Ok(b)) if a == b)
}
