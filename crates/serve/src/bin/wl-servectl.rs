//! `wl-servectl` — a tiny dependency-free HTTP client for `wl-serve`.
//!
//! ```text
//! wl-servectl METHOD http://HOST:PORT/PATH [BODY-FILE]
//! ```
//!
//! Prints the response body to stdout and `HTTP <status>` to stderr; exits
//! 0 on 2xx, 1 otherwise. Exists so scripts (notably `scripts/ci.sh`) can
//! exercise the service without assuming `curl` on the host.

use std::process::ExitCode;

const USAGE: &str = "usage: wl-servectl METHOD http://HOST:PORT/PATH [BODY-FILE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (method, url, body) = match args.as_slice() {
        [m, u] => (m.clone(), u.clone(), None),
        [m, u, f] => {
            let body = match std::fs::read_to_string(f) {
                Ok(s) => s,
                Err(e) => return fail(&format!("cannot read {f}: {e}")),
            };
            (m.clone(), u.clone(), Some(body))
        }
        _ => return fail(USAGE),
    };
    let Some(rest) = url.strip_prefix("http://") else {
        return fail("only http:// URLs are supported");
    };
    let (addr, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    match wl_serve::http::http_call(addr, &method, path, body.as_deref()) {
        Ok((status, _headers, response_body)) => {
            print!("{response_body}");
            eprintln!("HTTP {status}");
            if (200..300).contains(&status) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(&format!("request failed: {e}")),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("wl-servectl: {msg}");
    ExitCode::FAILURE
}
