//! `wl-serve` — the Co-plot analysis service.
//!
//! ```text
//! wl-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!          [--deadline-ms N] [--idle-timeout-ms N] [--batch-max N]
//!          [--stdin-shutdown] [--threads N] [--trace text|json]
//!          [--metrics-out PATH]
//! ```
//!
//! Prints `wl-serve listening on http://HOST:PORT` once bound (scripts
//! parse this line to learn an ephemeral port), then serves until drained
//! via `POST /v1/shutdown` or — with `--stdin-shutdown` — a single byte on
//! stdin.

use std::io::{Read, Write};
use std::process::ExitCode;

use wl_serve::server::{start, ServerConfig};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let rt = match coplot::Runtime::extract(&mut args) {
        Ok(rt) => rt,
        Err(e) => return fail(&e.to_string()),
    };
    let session = match rt.obs_session() {
        Ok(s) => s,
        Err(e) => return fail(&e.to_string()),
    };

    let mut config = ServerConfig {
        threads: rt.threads,
        ..ServerConfig::default()
    };
    let mut stdin_shutdown = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--stdin-shutdown" => {
                stdin_shutdown = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" | "--workers" | "--queue" | "--cache" | "--deadline-ms"
            | "--idle-timeout-ms" | "--batch-max" => {}
            other => return fail(&format!("unknown flag {other:?}\n{USAGE}")),
        }
        let Some(value) = args.get(i + 1) else {
            return fail(&format!("flag {flag} needs a value"));
        };
        match flag {
            "--addr" => config.addr = value.clone(),
            "--workers" => match value.parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => return fail("--workers needs a positive integer"),
            },
            "--queue" => match value.parse() {
                Ok(n) if n > 0 => config.queue_capacity = n,
                _ => return fail("--queue needs a positive integer"),
            },
            "--cache" => match value.parse() {
                Ok(n) => config.cache_capacity = n,
                Err(_) => return fail("--cache needs an integer"),
            },
            "--deadline-ms" => match value.parse() {
                Ok(n) if n > 0 => config.default_deadline_ms = Some(n),
                _ => return fail("--deadline-ms needs a positive integer"),
            },
            "--idle-timeout-ms" => match value.parse() {
                Ok(n) if n > 0 => config.idle_timeout_ms = n,
                _ => return fail("--idle-timeout-ms needs a positive integer"),
            },
            "--batch-max" => match value.parse() {
                Ok(n) if n > 0 => config.batch_max = n,
                _ => return fail("--batch-max needs a positive integer"),
            },
            _ => unreachable!(),
        }
        i += 2;
    }

    let handle = match start(config) {
        Ok(h) => h,
        Err(e) => return fail(&format!("cannot bind: {e}")),
    };
    println!("wl-serve listening on http://{}", handle.addr());
    let _ = std::io::stdout().flush();

    if stdin_shutdown {
        let drainer = handle.drainer();
        std::thread::spawn(move || {
            let mut byte = [0u8; 1];
            // Drain on an actual byte, not on EOF: a server started with
            // stdin closed should keep running.
            if matches!(std::io::stdin().read(&mut byte), Ok(n) if n > 0) {
                drainer.initiate();
            }
        });
    }

    handle.join();
    eprintln!("wl-serve: drained, exiting");
    session.finish();
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("wl-serve: {msg}");
    ExitCode::FAILURE
}

const USAGE: &str = "wl-serve — Co-plot analysis service

USAGE:
  wl-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
           [--deadline-ms N] [--idle-timeout-ms N] [--batch-max N]
           [--stdin-shutdown] [--threads N] [--trace text|json]
           [--metrics-out PATH]

  One poll(2) reactor multiplexes every connection; workers execute
  analyses and batch queued requests over the same dataset.

  --addr HOST:PORT   bind address (default 127.0.0.1:1999; port 0 = ephemeral)
  --workers N        request worker threads (default 2)
  --queue N          admission queue capacity; full queue answers 503 (default 32)
  --cache N          result-cache entries, 0 disables (default 128)
  --deadline-ms N    default per-request deadline when the request has none
  --idle-timeout-ms N  evict idle connections (mid-request idlers get 408)
                     after this long (default 10000)
  --batch-max N      most requests coalesced per batch (default 8)
  --stdin-shutdown   drain gracefully when a byte arrives on stdin
  --threads N        engine threads per request (default WL_THREADS, then
                     the available parallelism)
  --trace/--metrics-out  wl-obs session flags (also scraped live at /metrics)

Endpoints: POST /v1/coplot /v1/hurst /v1/subset /v1/stream /v1/shutdown
           POST /v2/analyze; GET /v1/datasets /metrics /healthz";
