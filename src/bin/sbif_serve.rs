//! `sbif-serve` — the verification job server CLI (DESIGN.md §15).
//!
//! ```text
//! sbif-serve <socket> [--cache-dir DIR] [--max-active N] [--metrics-out FILE]
//! sbif-serve submit <socket> <json-request-line>
//! sbif-serve stop <socket>
//! ```
//!
//! The first form runs the daemon: it binds the Unix socket, prints a
//! `listening on <socket>` line once it is ready, and serves
//! line-delimited JSON verification jobs (see `sbif::serve` for the
//! protocol) until a `shutdown` request arrives. All jobs share one
//! content-addressed result cache — in-memory by default, persisted
//! under `--cache-dir DIR` so later daemons and `sbif-verify
//! --cache-dir` runs reuse the verdicts. `--metrics-out FILE` writes
//! the daemon's final `serve.*`/`cache.*` counters as a canonical
//! `sbif-metrics-v1` report at shutdown.
//!
//! `submit` is a one-shot client: it sends a single request line and
//! prints every response line for it (including streamed `trace`
//! events) until the terminal `result`/`error`/`pong`/`stats` line.
//! `stop` asks a running daemon to shut down. Verify requests may
//! carry per-job governor budgets (`budget_conflicts`, `budget_terms`,
//! `budget_nodes`, `budget_sat`, `timeout_ms`; DESIGN.md §16) — a
//! budget-limited job answers `"verdict": "inconclusive"` with an
//! `exhausted_at` field naming the stage that ran out. `--max-active
//! N` bounds concurrent jobs; excess requests get a `rejected`
//! response with a `retry_after_ms` hint.
//!
//! Exit code 0 = success (daemon: clean shutdown; submit: `result` with
//! verdict `correct` or `inconclusive`, or `pong`/`stats`/`bye`), 1 =
//! job failed, rejected, or verdict not correct, 2 = usage/connection
//! error.

use sbif::serve::{Server, ServeOptions};
use sbif::trace::json::{parse, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sbif-serve <socket> [--cache-dir DIR] [--max-active N]\n\
         \x20                [--metrics-out FILE]\n\
         \x20      sbif-serve submit <socket> <json-request-line>\n\
         \x20      sbif-serve stop <socket>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => usage(),
        Some("submit") => match &args[1..] {
            [socket, request] => submit(socket, request),
            _ => usage(),
        },
        Some("stop") => match &args[1..] {
            [socket] => submit(socket, "{\"op\": \"shutdown\"}"),
            _ => usage(),
        },
        Some(_) => daemon(&args),
    }
}

fn daemon(args: &[String]) -> ExitCode {
    let mut socket: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut max_active = ServeOptions::default().max_active;
    let mut metrics_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cache-dir" => {
                let Some(d) = args.get(i + 1) else { return usage() };
                cache_dir = Some(PathBuf::from(d));
                i += 2;
            }
            "--max-active" => {
                let Some(m) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok())
                else {
                    return usage();
                };
                max_active = m;
                i += 2;
            }
            "--metrics-out" => {
                let Some(p) = args.get(i + 1) else { return usage() };
                metrics_out = Some(p.clone());
                i += 2;
            }
            flag if flag.starts_with("--") => return usage(),
            path => {
                if socket.replace(PathBuf::from(path)).is_some() {
                    return usage();
                }
                i += 1;
            }
        }
    }
    let Some(socket) = socket else { return usage() };

    let opts = ServeOptions { socket: socket.clone(), cache_dir, max_active };
    let server = match Server::bind(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", socket.display());
            return ExitCode::from(2);
        }
    };
    println!(
        "sbif-serve: listening on {} ({} cache)",
        socket.display(),
        if server.cache_is_persistent() { "persistent" } else { "in-memory" }
    );
    let report = server.run();
    println!("sbif-serve: shut down after {} job(s)", report.counter("serve.jobs"));
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("metrics report written to {path}");
    }
    ExitCode::SUCCESS
}

/// Sends one request line and relays every response for it; job-scoped
/// streams end at the `result`/`error` line, control ops after one line.
fn submit(socket: &str, request: &str) -> ExitCode {
    let stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot connect to {socket}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot clone socket: {e}");
            return ExitCode::from(2);
        }
    });
    let mut writer = stream;
    if writeln!(writer, "{request}").and_then(|()| writer.flush()).is_err() {
        eprintln!("cannot send request");
        return ExitCode::from(2);
    }
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {
                eprintln!("server closed the connection before a terminal response");
                return ExitCode::FAILURE;
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                return ExitCode::from(2);
            }
        }
        print!("{line}");
        let Ok(v) = parse(&line) else { continue };
        let Some(obj) = v.as_object() else { continue };
        match obj.get("ev").and_then(Value::as_str) {
            Some("accepted") | Some("trace") => continue,
            Some("result") => {
                // A budget-limited job is a successful run whose answer
                // is "the budget was too small" — exit 0, like the
                // sbif-verify CLI.
                let ok = matches!(
                    obj.get("verdict").and_then(Value::as_str),
                    Some("correct") | Some("inconclusive")
                );
                return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
            }
            Some("error") | Some("job_failed") | Some("rejected") => {
                return ExitCode::FAILURE
            }
            _ => return ExitCode::SUCCESS,
        }
    }
}
