//! `perfbench`: the Co-plot workload suite's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload <cold_suite|serve_hits> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Builds its inputs from the seed, measures for `--seconds`, checks every
//! answer against the program's reference bytes, and prints one JSON object
//! as the last line of stdout: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. See `README.md` beside this
//! crate for the workloads, metrics and layer table.

mod cold;
mod common;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use common::{Report, RunArgs};

/// End-to-end metrics and their units, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency.p50_ms", "ms"),
    ("saturated_rps", "req/s"),
];

/// Per-layer metrics and their units, printed with `--trace 1`. The
/// workload's latency tail and the open-loop serving figures are here
/// rather than end to end: on a shared 2-vCPU VM they spread too widely
/// from run to run to carry a bound.
const PER_LAYER: [(&str, &str); 50] = [
    ("latency.tail_ms", "ms"),
    ("coplot.p50_ms", "ms"),
    ("coplot.tail_ms", "ms"),
    ("hurst.p50_ms", "ms"),
    ("hurst.tail_ms", "ms"),
    ("subset.p50_ms", "ms"),
    ("subset.tail_ms", "ms"),
    ("stream.p50_ms", "ms"),
    ("stream.tail_ms", "ms"),
    ("serve.open_loop.p50_ms", "ms"),
    ("serve.open_loop.tail_ms", "ms"),
    ("serve.transport_ms.mean", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.client_wait_ms.p50", "ms"),
    ("serve.queue.rejected", "count"),
    ("serve.batch.mean_size", "count"),
    ("loadgen.lateness_ms.p99", "ms"),
    ("loadgen.backlog.max", "count"),
    ("api.request.self_ms", "ms"),
    ("api.serialize.self_ms", "ms"),
    ("api.serialize.bytes", "bytes"),
    ("datasets.synthesize.self_ms", "ms"),
    ("datasets.synthesize.calls", "count"),
    ("datasets.synthesize.jobs", "count"),
    ("trace.parse.self_ms", "ms"),
    ("trace.parse.records", "count"),
    ("analysis.matrix.self_ms", "ms"),
    ("engine.run.self_ms", "ms"),
    ("engine.normalize.self_ms", "ms"),
    ("engine.dissimilarity.self_ms", "ms"),
    ("engine.embed.self_ms", "ms"),
    ("engine.arrows.self_ms", "ms"),
    ("mds.starts", "count"),
    ("mds.iterations", "count"),
    ("subset.search.self_ms", "ms"),
    ("subset.candidates", "count"),
    ("subset.mds_iterations", "count"),
    ("selfsim.hurst.self_ms", "ms"),
    ("selfsim.hurst.series", "count"),
    ("stream.run.self_ms", "ms"),
    ("stream.windows", "count"),
    ("stream.warm_ratio", "ratio"),
    ("par.idle_ratio", "ratio"),
    ("ledger.unattributed_ratio", "ratio"),
    ("ledger.coplot.unattributed_ratio", "ratio"),
    ("ledger.hurst.unattributed_ratio", "ratio"),
    ("ledger.subset.unattributed_ratio", "ratio"),
    ("ledger.stream.unattributed_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

const WORKLOADS: [&str; 2] = ["cold_suite", "serve_hits"];

struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: String,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = "perfbench/out".to_string();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => out = value()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Cli {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let args = RunArgs {
        seed: cli.seed,
        window: Duration::from_secs(cli.seconds),
        trace: cli.trace,
        threads: wl_par::default_threads(),
    };
    let mut report = Report::default();
    match cli.workload.as_str() {
        "cold_suite" => cold::run(&args, &mut report),
        _ => serve::run(&args, &mut report),
    }
    for note in &report.notes {
        eprintln!("{note}");
    }
    if cli.trace {
        let path = format!("{}/{}-seed{}.spans.jsonl", cli.out, cli.workload, cli.seed);
        let written =
            std::fs::create_dir_all(&cli.out).and_then(|()| std::fs::write(&path, &report.spans));
        match written {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    let expected: &[(&str, &str)] = if cli.trace { &PER_LAYER } else { &END_TO_END };
    match result_line(&report, expected) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The result object: exactly the `expected` metrics, each with its unit.
fn result_line(report: &Report, expected: &[(&str, &str)]) -> Result<String, String> {
    if report.attempted == 0 {
        return Err("the timed window attempted nothing".into());
    }
    let mut metrics = Vec::with_capacity(expected.len());
    for (name, unit) in expected {
        let value = report
            .metrics
            .get(name)
            .ok_or(format!("the workload did not measure {name}"))?;
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    if let Some(extra) = report
        .metrics
        .keys()
        .find(|k| !expected.iter().any(|e| e.0 == **k))
    {
        return Err(format!("{extra} is not a metric of this mode"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    ))
}
