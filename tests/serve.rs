//! Integration test for the `sbif-serve` daemon (DESIGN.md §15).
//!
//! Spawns the real binary on a Unix socket, drives four concurrent
//! verification jobs over four connections, and checks the protocol
//! contracts end to end:
//!
//! * every job is accepted and answers with a `result` line,
//! * the per-job NDJSON trace streams (reassembled from the `trace`
//!   responses) validate under the same `check_stream` validator that
//!   backs `sbif-trace check` — concurrent jobs must never interleave
//!   events into each other's streams,
//! * verdicts and metrics match a direct `sbif-verify` run of the same
//!   design byte for byte (jobs sharing the daemon cache included),
//! * the daemon's final stats account every job and shut down cleanly.

use sbif::trace::check_stream;
use sbif::trace::json::{parse, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sbif_serve_it_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(socket: PathBuf, extra: &[&str]) -> Daemon {
        Daemon::spawn_env(socket, extra, &[])
    }

    fn spawn_env(socket: PathBuf, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sbif-serve"))
            .arg(&socket)
            .args(extra)
            .envs(envs.iter().copied())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        // Readiness = the socket file exists and accepts a connection.
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(&socket).is_err() {
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("daemon never bound {}", socket.display());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        Daemon { child, socket }
    }

    fn stop(mut self) {
        if let Ok(mut s) = UnixStream::connect(&self.socket) {
            let _ = writeln!(s, "{{\"op\": \"shutdown\"}}");
            let _ = s.flush();
            // Wait for the farewell so the write is never racing the
            // daemon's reader; a daemon that already exited is fine too.
            let mut bye = String::new();
            let _ = BufReader::new(s).read_line(&mut bye);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait().expect("wait works") {
                Some(status) => {
                    assert!(status.success(), "daemon exit: {status}");
                    return;
                }
                None if Instant::now() >= deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    panic!("daemon did not shut down within 10s");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

/// One job over its own connection: returns `(verdict, cached,
/// metrics_json, reassembled trace stream)`.
fn run_job(socket: &PathBuf, id: u64, demo: usize) -> (String, bool, String, String) {
    let stream = UnixStream::connect(socket).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut writer = stream;
    // `jobs` is a field older clients send; the daemon ignores it.
    writeln!(
        writer,
        "{{\"op\": \"verify\", \"id\": {id}, \"demo\": {demo}, \"jobs\": 2, \"trace\": true}}"
    )
    .expect("sends");
    writer.flush().expect("flushes");

    let mut accepted = false;
    let mut ndjson = String::new();
    loop {
        let mut line = String::new();
        assert_ne!(reader.read_line(&mut line).expect("reads"), 0, "connection closed early");
        let v = parse(&line).expect("response lines are valid JSON");
        let obj = v.as_object().expect("response is an object");
        assert_eq!(obj.get("job").and_then(Value::as_u64), Some(id), "{line}");
        match obj.get("ev").and_then(Value::as_str) {
            Some("accepted") => accepted = true,
            Some("trace") => {
                ndjson.push_str(obj.get("line").and_then(Value::as_str).expect("line"));
                ndjson.push('\n');
            }
            Some("result") => {
                assert!(accepted, "result before accepted");
                let verdict =
                    obj.get("verdict").and_then(Value::as_str).expect("verdict").to_string();
                let cached = matches!(obj.get("cached"), Some(Value::Bool(true)));
                let metrics =
                    obj.get("metrics").and_then(Value::as_str).expect("metrics").to_string();
                assert_eq!(obj.get("n").and_then(Value::as_u64), Some(demo as u64));
                return (verdict, cached, metrics, ndjson);
            }
            other => panic!("unexpected event {other:?} in {line}"),
        }
    }
}

#[test]
fn four_concurrent_jobs_stream_valid_traces_and_match_sbif_verify() {
    let dir = tmpdir("jobs");
    let socket = dir.join("serve.sock");
    let daemon = Daemon::spawn(socket.clone(), &[]);

    // Two distinct widths, each submitted twice: the duplicates
    // exercise the shared cache under concurrency (whichever of the
    // pair lands second — or both, if they race past the lookup —
    // still must return identical bytes).
    let demos = [3usize, 4, 3, 4];
    let handles: Vec<_> = demos
        .iter()
        .enumerate()
        .map(|(i, &demo)| {
            let socket = socket.clone();
            std::thread::spawn(move || run_job(&socket, i as u64 + 1, demo))
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("job thread")).collect();

    // Direct reference runs: verdict and metrics must match the CLI.
    for (&demo, (verdict, _cached, metrics, ndjson)) in demos.iter().zip(&results) {
        assert_eq!(verdict, "correct", "demo {demo}");
        let metrics_file = dir.join(format!("direct_{demo}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_sbif-verify"))
            .args(["--demo", &demo.to_string()])
            .args(["--metrics-out", metrics_file.to_str().unwrap()])
            .output()
            .expect("sbif-verify runs");
        assert!(out.status.success());
        let direct = std::fs::read_to_string(&metrics_file).unwrap();
        assert_eq!(*metrics, direct, "demo {demo}: serve metrics != sbif-verify metrics");

        // The reassembled per-job stream passes the sbif-trace check
        // validator; cache hits stream nothing, real runs stream spans.
        let summary = check_stream(ndjson).expect("per-job NDJSON stream is well-formed");
        if !ndjson.is_empty() {
            assert!(summary.spans > 0, "a live run traces at least one span");
        }
    }

    // Same-width jobs returned identical bytes, cached or not.
    assert_eq!(results[0].2, results[2].2, "demo 3 jobs disagree");
    assert_eq!(results[1].2, results[3].2, "demo 4 jobs disagree");

    // The daemon accounted all four jobs.
    let mut s = UnixStream::connect(&socket).expect("connects");
    writeln!(s, "{{\"op\": \"stats\"}}").expect("sends");
    s.flush().expect("flushes");
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line).expect("reads");
    let v = parse(&line).expect("stats parses");
    let obj = v.as_object().expect("stats object");
    assert_eq!(obj.get("serve.jobs").and_then(Value::as_u64), Some(4), "{line}");
    assert_eq!(obj.get("serve.jobs_ok").and_then(Value::as_u64), Some(4), "{line}");
    let hits = obj.get("cache.hits").and_then(Value::as_u64).expect("hits");
    let misses = obj.get("cache.misses").and_then(Value::as_u64).expect("misses");
    assert_eq!(hits + misses, 4, "{line}");
    assert!(misses >= 2, "two distinct designs need at least two real runs: {line}");

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_and_stop_subcommands_round_trip() {
    let dir = tmpdir("cli");
    let socket = dir.join("serve.sock");
    let daemon = Daemon::spawn(socket.clone(), &[]);

    let out = Command::new(env!("CARGO_BIN_EXE_sbif-serve"))
        .args(["submit", socket.to_str().unwrap(), "{\"op\": \"verify\", \"id\": 1, \"demo\": 3}"])
        .output()
        .expect("submit runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"verdict\": \"correct\""), "{stdout}");

    let stop = Command::new(env!("CARGO_BIN_EXE_sbif-serve"))
        .args(["stop", socket.to_str().unwrap()])
        .output()
        .expect("stop runs");
    assert!(stop.status.success());
    // `stop` already sent the shutdown; Daemon::stop tolerates the
    // socket being gone and just reaps the process.
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads response lines for one request until a terminal event,
/// returning every line.
fn transact(socket: &PathBuf, request: &str) -> Vec<String> {
    let stream = UnixStream::connect(socket).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut writer = stream;
    writeln!(writer, "{request}").expect("sends");
    writer.flush().expect("flushes");
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert_ne!(reader.read_line(&mut line).expect("reads"), 0, "closed early");
        let terminal = !line.contains("\"ev\": \"accepted\"") && !line.contains("\"ev\": \"trace\"");
        lines.push(line.trim_end().to_string());
        if terminal {
            return lines;
        }
    }
}

#[test]
fn budgeted_jobs_answer_inconclusive_with_the_exhausted_stage() {
    let dir = tmpdir("budget");
    let socket = dir.join("serve.sock");
    let daemon = Daemon::spawn(socket.clone(), &[]);

    let lines = transact(
        &socket,
        "{\"op\": \"verify\", \"id\": 3, \"demo\": 4, \
         \"budget_conflicts\": 1, \"budget_terms\": 1}",
    );
    let result = lines.last().expect("terminal line");
    assert!(result.contains("\"verdict\": \"inconclusive\""), "{result}");
    assert!(result.contains("\"exhausted_at\": \""), "{result}");
    assert!(result.contains("exhausted"), "{result}");

    // An ample budget on the same design is a cache miss (different
    // stamp), runs for real, and proves.
    let lines = transact(
        &socket,
        "{\"op\": \"verify\", \"id\": 4, \"demo\": 4, \"budget_terms\": 1000000}",
    );
    let result = lines.last().expect("terminal line");
    assert!(result.contains("\"verdict\": \"correct\""), "{result}");
    assert!(result.contains("\"cached\": false"), "{result}");

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_job_fails_structurally_without_killing_the_daemon() {
    let dir = tmpdir("panic");
    let socket = dir.join("serve.sock");
    // The crash op is honored only under this env var, so production
    // daemons can never be crashed remotely.
    let daemon =
        Daemon::spawn_env(socket.clone(), &[], &[("SBIF_SERVE_TEST_CRASH", "1")]);

    let lines = transact(&socket, "{\"op\": \"verify\", \"id\": 1, \"demo\": 3, \"crash\": true}");
    let failed = lines.last().expect("terminal line");
    assert!(failed.contains("\"ev\": \"job_failed\""), "{failed}");
    assert!(failed.contains("injected test crash"), "{failed}");

    // The daemon survived: the next job on a fresh connection runs
    // normally and the stats account the panic.
    let lines = transact(&socket, "{\"op\": \"verify\", \"id\": 2, \"demo\": 3}");
    assert!(lines.last().unwrap().contains("\"verdict\": \"correct\""), "{lines:?}");
    let stats = transact(&socket, "{\"op\": \"stats\"}");
    assert!(stats[0].contains("\"serve.jobs_panicked\": 1"), "{}", stats[0]);

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_daemon_restarts_on_the_same_socket_and_recovers_the_journal() {
    let dir = tmpdir("kill");
    let socket = dir.join("serve.sock");
    let cache = dir.join("cache");
    let cache_arg = cache.to_str().unwrap().to_string();
    let mut daemon = Daemon::spawn(socket.clone(), &["--cache-dir", &cache_arg]);

    // Start a job big enough to still be in flight, wait for the
    // accepted line (the journal entry is written right after it), then
    // SIGKILL the daemon mid-job.
    let stream = UnixStream::connect(&socket).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut writer = stream;
    writeln!(writer, "{{\"op\": \"verify\", \"id\": 1, \"demo\": 5}}").expect("sends");
    writer.flush().expect("flushes");
    let mut accepted = String::new();
    reader.read_line(&mut accepted).expect("reads");
    assert!(accepted.contains("\"ev\": \"accepted\""), "{accepted}");
    // Give the handler a moment to write the journal entry; demo 5
    // runs orders of magnitude longer than this.
    let journal = cache.join("journal");
    let deadline = Instant::now() + Duration::from_secs(5);
    while std::fs::read_dir(&journal).map(|d| d.count()).unwrap_or(0) == 0 {
        assert!(Instant::now() < deadline, "journal entry never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.child.kill().expect("kills");
    daemon.child.wait().expect("reaps");
    assert!(socket.exists(), "kill -9 leaves the socket file behind");
    assert_eq!(std::fs::read_dir(&journal).unwrap().count(), 1, "orphaned journal entry");

    // Restart on the same socket: the stale file is swept (nobody
    // answers the probe), the journal is recovered — re-running the
    // job feeds the shared cache — and the journal is drained.
    let daemon2 = Daemon::spawn(socket.clone(), &["--cache-dir", &cache_arg]);
    let stats = transact(&socket, "{\"op\": \"stats\"}");
    assert!(stats[0].contains("\"serve.jobs_recovered\": 1"), "{}", stats[0]);
    assert_eq!(std::fs::read_dir(&journal).unwrap().count(), 0, "journal must drain");

    // Resubmitting the interrupted job hits the recovered cache entry.
    let lines = transact(&socket, "{\"op\": \"verify\", \"id\": 2, \"demo\": 5}");
    let result = lines.last().expect("terminal line");
    assert!(result.contains("\"verdict\": \"correct\""), "{result}");
    assert!(result.contains("\"cached\": true"), "{result}");

    daemon2.stop();
    assert!(!socket.exists(), "socket removed on clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_answer_errors_without_killing_the_connection() {
    let dir = tmpdir("errors");
    let socket = dir.join("serve.sock");
    let daemon = Daemon::spawn(socket.clone(), &[]);

    fn ask(
        writer: &mut UnixStream,
        reader: &mut BufReader<UnixStream>,
        req: &str,
    ) -> String {
        writeln!(writer, "{req}").expect("sends");
        writer.flush().expect("flushes");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        line
    }

    let stream = UnixStream::connect(&socket).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut writer = stream;

    assert!(ask(&mut writer, &mut reader, "this is not json").contains("\"ev\": \"error\""));
    assert!(ask(&mut writer, &mut reader, "{\"op\": \"frobnicate\"}").contains("unknown op"));
    assert!(ask(&mut writer, &mut reader, "[1, 2, 3]").contains("not a JSON object"));
    // A verify of an unparseable source fails the job (accepted, then a
    // job-scoped error with the parse position), not the daemon.
    let accepted = ask(
        &mut writer,
        &mut reader,
        "{\"op\": \"verify\", \"id\": 9, \"format\": \"aag\", \"source\": \"aag x\"}",
    );
    assert!(accepted.contains("\"ev\": \"accepted\""), "{accepted}");
    let mut err_line = String::new();
    reader.read_line(&mut err_line).expect("reads");
    assert!(err_line.contains("\"ev\": \"error\""), "{err_line}");
    assert!(err_line.contains("line 1"), "{err_line}");
    // And the connection still answers.
    assert!(ask(&mut writer, &mut reader, "{\"op\": \"ping\"}").contains("pong"));

    // Close our connection so the daemon's handler thread can finish —
    // shutdown joins every worker before exiting.
    drop(reader);
    drop(writer);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
