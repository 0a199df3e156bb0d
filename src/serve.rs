//! `sbif-serve` — the verification job server (DESIGN.md §15).
//!
//! A long-running daemon over a **local Unix socket** speaking
//! line-delimited JSON (`sbif-serve-v1`). Each connection sends one
//! request object per line and reads tagged response lines; jobs on
//! different connections run concurrently in their own threads, all
//! sharing one content-addressed [`ResultCache`], so a design any job
//! has already judged — under the same flow configuration — is
//! answered from the cache with its stored verdict and the
//! byte-identical `sbif-metrics-v1` stub of the original run.
//!
//! # Protocol
//!
//! Requests (one JSON object per line):
//!
//! ```text
//! {"op": "verify", "id": 1, "demo": 8}
//! {"op": "verify", "id": 2, "format": "aag", "source": "aag 0 0 0 0 0\n",
//!  "trace": true, "vc1_only": true, "certify": true, "max_terms": 1000000}
//! {"op": "ping"}
//! {"op": "stats"}
//! {"op": "shutdown"}
//! ```
//!
//! `demo` generates an n-bit non-restoring divider; `format`/`source`
//! carry a netlist as text (`bnet`, `aag` or `bench`), which is parsed,
//! cone-of-influence restricted to its declared outputs
//! ([`Netlist::restricted_to_outputs`]) and bound to the Definition-1
//! divider interface. Unknown fields are ignored (so is the `jobs`
//! field older clients send: the SBIF scan is sequential).
//!
//! Responses — every job-scoped line carries the request's `id`:
//!
//! ```text
//! {"job": 1, "ev": "accepted"}
//! {"job": 1, "ev": "trace", "line": "{\"ev\": \"span_open\", ...}"}
//! {"job": 1, "ev": "result", "verdict": "correct", "cached": false, "n": 8,
//!  "metrics": "<canonical sbif-metrics-v1 JSON, escaped>"}
//! {"job": 2, "ev": "error", "message": "..."}
//! {"ev": "pong"}   {"ev": "stats", "serve.jobs": 3, ...}   {"ev": "bye"}
//! ```
//!
//! With `"trace": true` the job streams its live NDJSON trace, one
//! event per `trace` response; unescaping the `line` fields in order
//! reconstructs exactly the stream `sbif-verify --trace json` would
//! have written, so `sbif-trace check` validates it unchanged. A
//! cache-hit job streams no trace events (nothing ran).
//!
//! The same module hosts the cached-verification flow shared with the
//! `sbif-verify` CLI: [`flow_fingerprint`], [`design_key`],
//! [`verify_cached`] and [`load_divider`].

use sbif_analysis::design_digest;
use sbif_cache::{Entry, ResultCache};
use sbif_check::lint_bnet;
use sbif_core::verify::{DividerVerifier, VerifierConfig};
use sbif_netlist::build::{nonrestoring_divider, Divider};
use sbif_netlist::io::{read_netlist, Format};
use sbif_trace::json::{escape, parse, Value};
use sbif_trace::{NdjsonSink, Recorder};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// The cached verification flow (shared with the sbif-verify CLI)
// ---------------------------------------------------------------------

/// The flow-configuration fingerprint bound into every cache key.
///
/// Everything that can change a verdict or the deterministic metrics
/// payload is included; [`SbifConfig::jobs`](sbif_core::sbif::SbifConfig::jobs)
/// is normalized away because the engine never reads it — so configs
/// that differ only there share cache entries. The governor is
/// normalized away too: a governed run that never trips a budget is
/// byte-identical to the ungoverned run (budgets only act on overrun),
/// `Proven`/`Refuted` are valid under any budget, and budget-relative
/// `Inconclusive` entries carry the exact budget as a stamp checked at
/// lookup (DESIGN.md §16).
pub fn flow_fingerprint(config: &VerifierConfig) -> String {
    let mut c = *config;
    c.sbif.jobs = 0;
    c.govern = sbif_govern::GovernConfig::default();
    format!("sbif-verify-flow-v1 {c:?}")
}

/// The content-addressed cache key of one (design, flow config) pair:
/// the 128-bit design key plus the per-cone digests used for
/// dirty-cone accounting.
pub fn design_key(div: &Divider, config: &VerifierConfig) -> (u128, Vec<(u64, bool)>) {
    let dd = design_digest(
        &div.netlist,
        Some(div.constraint),
        &flow_fingerprint(config),
    );
    let cones = dd.cones.iter().map(|c| (c.core, c.phase)).collect();
    (dd.key, cones)
}

/// What one verification job produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// `"correct"`, `"not-correct"` or `"inconclusive"`.
    pub verdict: String,
    /// Convenience: `verdict == "correct"`.
    pub correct: bool,
    /// Human-readable description of the exhaustion behind an
    /// `"inconclusive"` verdict (e.g. `"vc2 exhausted bdd-live-nodes
    /// (… spent of … budget)"`), `None` otherwise.
    pub exhausted_at: Option<String>,
    /// `true` when the verdict came from the cache (nothing ran).
    pub cached: bool,
    /// `true` when this run wrote a fresh cache entry.
    pub stored: bool,
    /// The canonical `sbif-metrics-v1` JSON of the run that judged this
    /// design — replayed byte-identically on every later hit.
    pub metrics_json: String,
    /// The full report of a fresh run (`None` on cache hits, where
    /// nothing ran and only the stored stub exists).
    pub report: Option<Box<sbif_core::verify::VerificationReport>>,
}

/// Verifies `div` under `config`, resolving and feeding the result
/// cache when one is attached. On a hit the stored verdict and metrics
/// stub are returned verbatim and the verifier never runs; `recorder`
/// observes only real runs, so trace streams and `sbif.*` totals
/// measure actual work.
///
/// Governed runs compose with caching per the DESIGN.md §16 rules:
/// `Proven`/`Refuted` entries are valid under any budget, an
/// `Inconclusive` entry is stamped with the exact deterministic budget
/// that produced it and only hits under that same stamp, and
/// watchdog-cancelled runs are never stored at all.
///
/// # Errors
///
/// The verifier's resource errors (term-limit blow-up), as a message.
/// Aborted runs are never cached.
pub fn verify_cached(
    div: &Divider,
    config: VerifierConfig,
    cache: Option<&ResultCache>,
    recorder: Recorder,
) -> Result<JobOutcome, String> {
    let stamp = config.govern.budget_stamp();
    let keyed = cache.map(|c| {
        let (key, cones) = design_key(div, &config);
        (c, key, cones)
    });
    if let Some((c, key, cones)) = &keyed {
        if let Some(entry) = c.lookup(*key, cones).entry {
            // An inconclusive entry is budget-relative: only replay it
            // for the exact deterministic budget it was produced under.
            let usable = entry.verdict != "inconclusive"
                || entry.stamp.as_deref() == Some(stamp.as_str());
            if usable {
                let correct = entry.verdict == "correct";
                return Ok(JobOutcome {
                    verdict: entry.verdict,
                    correct,
                    exhausted_at: None,
                    cached: true,
                    stored: false,
                    metrics_json: entry.payload,
                    report: None,
                });
            }
        }
    }
    let report = DividerVerifier::new(div)
        .with_config(config)
        .with_recorder(recorder)
        .verify()
        .map_err(|e| e.to_string())?;
    let certified = !config.certify || report.certificates().all_accepted();
    let correct = report.is_correct() && certified;
    let (verdict, exhausted_at) = match &report.verdict {
        sbif_govern::Verdict::Inconclusive { exhausted_at } => {
            ("inconclusive", Some(exhausted_at.to_string()))
        }
        _ if correct => ("correct", None),
        _ => ("not-correct", None),
    };
    let metrics_json = report.metrics.to_json();
    let mut stored = false;
    // Watchdog-cancelled runs are not reproducible — never cache them.
    if !report.cancelled {
        if let Some((c, key, cones)) = &keyed {
            let mut entry = Entry::new(verdict, &metrics_json);
            if verdict == "inconclusive" {
                entry = entry.with_stamp(&stamp);
            }
            stored = c.store(*key, cones, &entry).is_ok();
        }
    }
    Ok(JobOutcome {
        verdict: verdict.to_string(),
        correct,
        exhausted_at,
        cached: false,
        stored,
        metrics_json,
        report: Some(Box::new(report)),
    })
}

/// Parses a netlist in any supported frontend format, lints it (BNET
/// carries the full static analyzer; the AIGER/BENCH parsers already
/// reject cycles and undriven logic structurally), restricts it to the
/// cone of influence of its declared outputs and binds it to the
/// Definition-1 divider interface.
///
/// # Errors
///
/// Lint errors, parse errors (with line/column) and interface-binding
/// failures, as a message.
pub fn load_divider(text: &str, format: Format) -> Result<Divider, String> {
    if matches!(format, Format::Bnet) {
        let lint = lint_bnet(text);
        if lint.num_errors() > 0 {
            let first = lint
                .issues
                .iter()
                .map(|i| i.to_string())
                .next()
                .unwrap_or_default();
            return Err(format!(
                "{} lint error(s) — refusing to verify ({first})",
                lint.num_errors()
            ));
        }
    }
    let nl = read_netlist(text, format).map_err(|e| e.to_string())?;
    Divider::from_netlist(nl.restricted_to_outputs())
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Path of the Unix socket to listen on. A leftover file from a
    /// killed daemon is detected (nobody answers a connect probe),
    /// unlinked and rebound; a *live* daemon's socket is refused.
    pub socket: PathBuf,
    /// Persist the shared result cache here (`None` = in-memory only).
    /// Also hosts the crash-recovery job journal (`journal/`).
    pub cache_dir: Option<PathBuf>,
    /// Backpressure bound: at most this many verification jobs run at
    /// once; further `verify` requests are rejected with a `rejected`
    /// response carrying `retry_after_ms`. `0` means unbounded.
    pub max_active: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            socket: PathBuf::from("sbif-serve.sock"),
            cache_dir: None,
            max_active: 64,
        }
    }
}

#[derive(Default)]
struct Stats {
    connections: AtomicU64,
    jobs: AtomicU64,
    jobs_ok: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_panicked: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_recovered: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_stores: AtomicU64,
}

impl Stats {
    fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::SeqCst);
    }

    /// One `stats` response line; the dotted keys double as the
    /// counter names of the daemon's final metrics report.
    fn to_line(&self) -> String {
        format!(
            "{{\"ev\": \"stats\", \"serve.connections\": {}, \"serve.jobs\": {}, \
             \"serve.jobs_ok\": {}, \"serve.jobs_failed\": {}, \
             \"serve.jobs_panicked\": {}, \"serve.jobs_rejected\": {}, \
             \"serve.jobs_recovered\": {}, \"cache.hits\": {}, \
             \"cache.misses\": {}, \"cache.stores\": {}}}",
            self.connections.load(Ordering::SeqCst),
            self.jobs.load(Ordering::SeqCst),
            self.jobs_ok.load(Ordering::SeqCst),
            self.jobs_failed.load(Ordering::SeqCst),
            self.jobs_panicked.load(Ordering::SeqCst),
            self.jobs_rejected.load(Ordering::SeqCst),
            self.jobs_recovered.load(Ordering::SeqCst),
            self.cache_hits.load(Ordering::SeqCst),
            self.cache_misses.load(Ordering::SeqCst),
            self.cache_stores.load(Ordering::SeqCst),
        )
    }

    fn record(&self, rec: &Recorder) {
        rec.add("serve.connections", self.connections.load(Ordering::SeqCst));
        rec.add("serve.jobs", self.jobs.load(Ordering::SeqCst));
        rec.add("serve.jobs_ok", self.jobs_ok.load(Ordering::SeqCst));
        rec.add("serve.jobs_failed", self.jobs_failed.load(Ordering::SeqCst));
        rec.add("serve.jobs_panicked", self.jobs_panicked.load(Ordering::SeqCst));
        rec.add("serve.jobs_rejected", self.jobs_rejected.load(Ordering::SeqCst));
        rec.add("serve.jobs_recovered", self.jobs_recovered.load(Ordering::SeqCst));
        rec.add("cache.hits", self.cache_hits.load(Ordering::SeqCst));
        rec.add("cache.misses", self.cache_misses.load(Ordering::SeqCst));
        rec.add("cache.stores", self.cache_stores.load(Ordering::SeqCst));
    }
}

struct Ctx {
    cache: ResultCache,
    stats: Stats,
    stop: AtomicBool,
    socket: PathBuf,
    max_active: usize,
    active: AtomicU64,
    job_seq: AtomicU64,
    /// Crash-recovery journal directory (persistent caches only).
    journal_dir: Option<PathBuf>,
}

/// RAII guard for the backpressure slot count.
struct ActiveJob<'a>(&'a Ctx);

impl<'a> ActiveJob<'a> {
    /// Claims a job slot, or `None` when the daemon is at capacity.
    fn claim(ctx: &'a Ctx) -> Option<ActiveJob<'a>> {
        loop {
            let cur = ctx.active.load(Ordering::SeqCst);
            if ctx.max_active > 0 && cur >= ctx.max_active as u64 {
                return None;
            }
            if ctx
                .active
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(ActiveJob(ctx));
            }
        }
    }
}

impl Drop for ActiveJob<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bound, not-yet-running job server. Splitting bind from
/// [`Server::run`] lets the caller announce readiness after the socket
/// exists and before the accept loop blocks.
pub struct Server {
    listener: UnixListener,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Binds the socket and opens (or creates) the shared cache.
    ///
    /// A socket file left behind by a SIGKILLed daemon is recovered:
    /// before unlinking anything the path is probed with a connect —
    /// only a *dead* peer (connection refused) is swept and rebound; a
    /// live daemon turns into an `AddrInUse` error instead of being
    /// hijacked.
    ///
    /// # Errors
    ///
    /// Socket binding or cache-directory creation failures, and
    /// `AddrInUse` when another daemon already serves the socket.
    pub fn bind(opts: &ServeOptions) -> io::Result<Server> {
        let listener = bind_or_recover(&opts.socket)?;
        let cache = match &opts.cache_dir {
            Some(dir) => ResultCache::on_disk(dir)?,
            None => ResultCache::in_memory(),
        };
        let journal_dir = match &opts.cache_dir {
            Some(dir) => {
                let j = dir.join("journal");
                std::fs::create_dir_all(&j)?;
                Some(j)
            }
            None => None,
        };
        Ok(Server {
            listener,
            ctx: Arc::new(Ctx {
                cache,
                stats: Stats::default(),
                stop: AtomicBool::new(false),
                socket: opts.socket.clone(),
                max_active: opts.max_active,
                active: AtomicU64::new(0),
                job_seq: AtomicU64::new(0),
                journal_dir,
            }),
        })
    }

    /// Whether the shared cache persists to disk.
    pub fn cache_is_persistent(&self) -> bool {
        self.ctx.cache.is_persistent()
    }

    /// Serves connections until a `shutdown` request arrives, then
    /// joins every worker, removes the socket file and returns the
    /// final `serve.*`/`cache.*` counters. Journaled jobs orphaned by
    /// a crash of the previous daemon instance are re-run first (their
    /// verdicts land in the shared cache, so the original client can
    /// simply resubmit and hit).
    pub fn run(self) -> sbif_trace::MetricsReport {
        recover_journal(&self.ctx);
        let mut workers = Vec::new();
        for conn in self.listener.incoming() {
            if self.ctx.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let ctx = self.ctx.clone();
            workers.push(std::thread::spawn(move || {
                let _ = handle_connection(stream, &ctx);
            }));
        }
        for w in workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(&self.ctx.socket);
        let rec = Recorder::new();
        self.ctx.stats.record(&rec);
        rec.finish()
    }
}

/// Binds `socket`, recovering a stale file from a killed daemon: on
/// `AddrInUse` the path is connect-probed — a refused connect means no
/// listener survives behind the file, so it is unlinked and rebound; a
/// successful probe means a live daemon owns it and binding fails.
fn bind_or_recover(socket: &PathBuf) -> io::Result<UnixListener> {
    match UnixListener::bind(socket) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(socket).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving {}", socket.display()),
                ));
            }
            std::fs::remove_file(socket)?;
            UnixListener::bind(socket)
        }
        Err(e) => Err(e),
    }
}

/// Re-runs every journaled request a crashed daemon left behind. Each
/// recovery is panic-isolated like a live job; the journal file is
/// removed afterwards either way, so a deterministically crashing job
/// cannot wedge the daemon in a restart loop.
fn recover_journal(ctx: &Arc<Ctx>) {
    let Some(jdir) = &ctx.journal_dir else { return };
    let Ok(rd) = std::fs::read_dir(jdir) else { return };
    let mut files: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
    files.sort();
    for path in files {
        if let Ok(line) = std::fs::read_to_string(&path) {
            if let Ok(Some(obj)) = parse(line.trim()).map(|v| v.as_object().cloned()) {
                ctx.stats.bump(&ctx.stats.jobs_recovered);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let div = divider_of_request(&obj)?;
                    let config = config_of_request(&obj);
                    verify_cached(&div, config, Some(&ctx.cache), Recorder::new())
                }));
                match run {
                    Ok(Ok(out)) => {
                        record_cache_traffic(ctx, &out);
                        ctx.stats.bump(&ctx.stats.jobs_ok);
                    }
                    Ok(Err(_)) => ctx.stats.bump(&ctx.stats.jobs_failed),
                    Err(_) => ctx.stats.bump(&ctx.stats.jobs_panicked),
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Journals an accepted request line so a daemon crash mid-job leaves
/// a re-runnable record. Written atomically (tmp + rename) next to the
/// cache, removed again by [`JournalEntry::drop`] on completion.
struct JournalEntry {
    path: Option<PathBuf>,
}

impl JournalEntry {
    fn write(ctx: &Ctx, raw: &str) -> JournalEntry {
        let Some(jdir) = &ctx.journal_dir else {
            return JournalEntry { path: None };
        };
        let seq = ctx.job_seq.fetch_add(1, Ordering::SeqCst);
        let path = jdir.join(format!("job-{:08}.json", seq));
        let tmp = jdir.join(format!("job-{:08}.tmp.{}", seq, std::process::id()));
        let ok = std::fs::write(&tmp, raw.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_ok();
        JournalEntry { path: ok.then_some(path) }
    }
}

impl Drop for JournalEntry {
    fn drop(&mut self) {
        if let Some(p) = &self.path {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn record_cache_traffic(ctx: &Ctx, out: &JobOutcome) {
    ctx.stats.bump(if out.cached {
        &ctx.stats.cache_hits
    } else {
        &ctx.stats.cache_misses
    });
    if out.stored {
        ctx.stats.bump(&ctx.stats.cache_stores);
    }
}

type SharedWriter = Arc<Mutex<BufWriter<UnixStream>>>;

fn send(writer: &SharedWriter, line: &str) -> io::Result<()> {
    // A poisoned writer mutex only means some other thread panicked
    // while holding it (the stream itself is still sound) — recover
    // the guard instead of propagating the panic across connections.
    let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    writeln!(w, "{line}")?;
    w.flush()
}

/// A [`Write`] adapter that chops the NDJSON trace stream of one job
/// into lines and forwards each as a `trace` response, so concurrent
/// jobs on other connections can never interleave into it.
struct JobTraceWriter {
    job: u64,
    out: SharedWriter,
    buf: Vec<u8>,
}

impl Write for JobTraceWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            send(
                &self.out,
                &format!(
                    "{{\"job\": {}, \"ev\": \"trace\", \"line\": \"{}\"}}",
                    self.job,
                    escape(&line)
                ),
            )?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn handle_connection(stream: UnixStream, ctx: &Arc<Ctx>) -> io::Result<()> {
    ctx.stats.bump(&ctx.stats.connections);
    let reader = BufReader::new(stream.try_clone()?);
    let writer: SharedWriter = Arc::new(Mutex::new(BufWriter::new(stream)));
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match parse(&line) {
            Ok(v) => v,
            Err(e) => {
                send(&writer, &error_line(None, &format!("not valid JSON: {e}")))?;
                continue;
            }
        };
        let Some(obj) = parsed.as_object().cloned() else {
            send(&writer, &error_line(None, "request is not a JSON object"))?;
            continue;
        };
        match obj.get("op").and_then(Value::as_str) {
            Some("ping") => send(&writer, "{\"ev\": \"pong\"}")?,
            Some("stats") => send(&writer, &ctx.stats.to_line())?,
            Some("shutdown") => {
                // Flag first, farewell second: a client that fired the
                // request and hung up must still stop the daemon, so
                // the `bye` write is best-effort.
                ctx.stop.store(true, Ordering::SeqCst);
                // Nudge the blocked acceptor so it observes the flag.
                let _ = UnixStream::connect(&ctx.socket);
                let _ = send(&writer, "{\"ev\": \"bye\"}");
                return Ok(());
            }
            Some("verify") => handle_verify(&obj, &line, &writer, ctx)?,
            Some(other) => {
                send(&writer, &error_line(None, &format!("unknown op {other:?}")))?
            }
            None => send(&writer, &error_line(None, "missing \"op\""))?,
        }
    }
    Ok(())
}

fn error_line(job: Option<u64>, message: &str) -> String {
    match job {
        Some(id) => format!(
            "{{\"job\": {id}, \"ev\": \"error\", \"message\": \"{}\"}}",
            escape(message)
        ),
        None => format!("{{\"ev\": \"error\", \"message\": \"{}\"}}", escape(message)),
    }
}

/// Builds the per-job [`VerifierConfig`] from the request's optional
/// `vc1_only`/`certify`/`max_terms` fields plus the per-job
/// governor budgets `budget_conflicts` (SBIF SAT conflicts),
/// `budget_terms` (rewrite terms), `budget_nodes` (vc2 BDD live
/// nodes), `budget_sat` (vc2 SAT-fallback conflicts) and `timeout_ms`
/// (wall-clock watchdog).
fn config_of_request(obj: &std::collections::BTreeMap<String, Value>) -> VerifierConfig {
    let mut config = VerifierConfig::default();
    if matches!(obj.get("vc1_only"), Some(Value::Bool(true))) {
        config.check_vc2 = false;
    }
    if matches!(obj.get("certify"), Some(Value::Bool(true))) {
        config.certify = true;
    }
    if let Some(mt) = obj.get("max_terms").and_then(Value::as_u64) {
        config.rewrite.max_terms = Some(mt as usize);
    }
    let g = &mut config.govern;
    g.sbif_conflicts = obj.get("budget_conflicts").and_then(Value::as_u64);
    g.rewrite_terms = obj.get("budget_terms").and_then(Value::as_u64).map(|t| t as usize);
    g.vc2_live_nodes = obj.get("budget_nodes").and_then(Value::as_u64).map(|n| n as usize);
    g.vc2_sat_conflicts = obj.get("budget_sat").and_then(Value::as_u64);
    g.timeout_ms = obj.get("timeout_ms").and_then(Value::as_u64);
    config
}

fn handle_verify(
    obj: &std::collections::BTreeMap<String, Value>,
    raw: &str,
    writer: &SharedWriter,
    ctx: &Arc<Ctx>,
) -> io::Result<()> {
    let id = obj.get("id").and_then(Value::as_u64).unwrap_or(0);

    // Backpressure: claim a slot before accepting; a full daemon
    // answers with an explicit retry hint instead of queueing unbounded
    // work behind an unbounded thread pile.
    let Some(_slot) = ActiveJob::claim(ctx) else {
        ctx.stats.bump(&ctx.stats.jobs_rejected);
        return send(
            writer,
            &format!("{{\"job\": {id}, \"ev\": \"rejected\", \"retry_after_ms\": 100}}"),
        );
    };
    ctx.stats.bump(&ctx.stats.jobs);
    send(writer, &format!("{{\"job\": {id}, \"ev\": \"accepted\"}}"))?;
    // From here the job is journaled: a daemon crash before the result
    // line leaves a re-runnable record (dropped again on completion).
    let _journal = JournalEntry::write(ctx, raw);

    let div = match divider_of_request(obj) {
        Ok(d) => d,
        Err(msg) => {
            ctx.stats.bump(&ctx.stats.jobs_failed);
            return send(writer, &error_line(Some(id), &msg));
        }
    };
    let config = config_of_request(obj);

    let recorder = Recorder::new();
    if matches!(obj.get("trace"), Some(Value::Bool(true))) {
        recorder.attach(Box::new(NdjsonSink::new(JobTraceWriter {
            job: id,
            out: writer.clone(),
            buf: Vec::new(),
        })));
    }

    // Panic isolation: an engine bug in one job must not take down the
    // daemon (or the other connections). The poisoned-mutex recovery in
    // `send` keeps the writer usable afterwards.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if matches!(obj.get("crash"), Some(Value::Bool(true)))
            && std::env::var_os("SBIF_SERVE_TEST_CRASH").is_some()
        {
            panic!("injected test crash");
        }
        verify_cached(&div, config, Some(&ctx.cache), recorder)
    }));

    match run {
        Ok(Ok(out)) => {
            record_cache_traffic(ctx, &out);
            ctx.stats.bump(&ctx.stats.jobs_ok);
            let exhausted = out.exhausted_at.as_ref().map_or(String::new(), |e| {
                format!(", \"exhausted_at\": \"{}\"", escape(e))
            });
            send(
                writer,
                &format!(
                    "{{\"job\": {id}, \"ev\": \"result\", \"verdict\": \"{}\", \
                     \"cached\": {}, \"n\": {}{exhausted}, \"metrics\": \"{}\"}}",
                    out.verdict,
                    out.cached,
                    div.n,
                    escape(&out.metrics_json)
                ),
            )
        }
        Ok(Err(msg)) => {
            ctx.stats.bump(&ctx.stats.jobs_failed);
            send(writer, &error_line(Some(id), &msg))
        }
        Err(payload) => {
            ctx.stats.bump(&ctx.stats.jobs_panicked);
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            send(
                writer,
                &format!(
                    "{{\"job\": {id}, \"ev\": \"job_failed\", \"message\": \"{}\"}}",
                    escape(&format!("job panicked: {what}"))
                ),
            )
        }
    }
}

fn divider_of_request(
    obj: &std::collections::BTreeMap<String, Value>,
) -> Result<Divider, String> {
    if let Some(n) = obj.get("demo").and_then(Value::as_u64) {
        if !(2..=64).contains(&n) {
            return Err(format!("demo width must be in 2..=64, got {n}"));
        }
        return Ok(nonrestoring_divider(n as usize));
    }
    let Some(source) = obj.get("source").and_then(Value::as_str) else {
        return Err("verify needs either \"demo\": N or \"format\" + \"source\"".into());
    };
    let format = match obj.get("format").and_then(Value::as_str) {
        Some("bnet") | None => Format::Bnet,
        Some("aag") | Some("aiger") => Format::Aag,
        Some("bench") | Some("isc") => Format::Bench,
        Some(other) => return Err(format!("unknown format {other:?}")),
    };
    load_divider(source, format)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_normalizes_jobs_and_govern_but_binds_everything_else() {
        let base = VerifierConfig::default();
        let mut jobs4 = base;
        jobs4.sbif.jobs = 4;
        assert_eq!(flow_fingerprint(&base), flow_fingerprint(&jobs4));
        // Budgets don't change the design key either — inconclusive
        // entries are bound to their budget by the stamp instead.
        let mut governed = base;
        governed.govern.sbif_conflicts = Some(1000);
        governed.govern.timeout_ms = Some(5000);
        assert_eq!(flow_fingerprint(&base), flow_fingerprint(&governed));

        let mut vc1 = base;
        vc1.check_vc2 = false;
        assert_ne!(flow_fingerprint(&base), flow_fingerprint(&vc1));
        let mut terms = base;
        terms.rewrite.max_terms = Some(123);
        assert_ne!(flow_fingerprint(&base), flow_fingerprint(&terms));
    }

    #[test]
    fn inconclusive_entries_hit_only_under_the_same_budget_stamp() {
        let div = nonrestoring_divider(4);
        let cache = ResultCache::in_memory();
        // A 1-conflict SBIF budget exhausts immediately but the flow
        // degrades (partial classes are sound), so rewriting blows the
        // 1-term budget deterministically → Inconclusive, stored with
        // this exact budget stamp.
        let mut tiny = VerifierConfig::default();
        tiny.govern.sbif_conflicts = Some(1);
        tiny.govern.rewrite_terms = Some(1);
        let cold =
            verify_cached(&div, tiny, Some(&cache), Recorder::new()).unwrap();
        assert_eq!(cold.verdict, "inconclusive", "{:?}", cold.exhausted_at);
        assert!(!cold.correct && cold.stored);
        let exhausted = cold.exhausted_at.as_deref().unwrap();
        assert!(exhausted.contains("exhausted"), "{exhausted}");

        // Same budget: a hit, replaying the stored stub.
        let warm = verify_cached(&div, tiny, Some(&cache), Recorder::new()).unwrap();
        assert!(warm.cached && warm.verdict == "inconclusive");
        assert_eq!(warm.metrics_json, cold.metrics_json);

        // A different budget must be a miss: this one is ample, so the
        // same design now proves — and the Proven entry it stores is
        // budget-independent, hitting even for the tiny budget later.
        let mut ample = VerifierConfig::default();
        ample.govern.rewrite_terms = Some(1_000_000);
        let proven = verify_cached(&div, ample, Some(&cache), Recorder::new()).unwrap();
        assert!(!proven.cached && proven.correct, "{:?}", proven.verdict);
        let hit = verify_cached(&div, tiny, Some(&cache), Recorder::new()).unwrap();
        assert!(hit.cached && hit.correct, "a proof is a proof under any budget");
    }

    #[test]
    fn bind_recovers_stale_sockets_but_refuses_live_daemons() {
        let dir = std::env::temp_dir()
            .join(format!("sbif_serve_stale_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("stale.sock");
        // Simulate a SIGKILLed daemon: bind a listener, then drop it
        // while keeping the file around (as a kill -9 would).
        let first = UnixListener::bind(&socket).unwrap();
        drop(first);
        assert!(socket.exists(), "dead daemon leaves its socket file");
        let opts = ServeOptions { socket: socket.clone(), cache_dir: None, max_active: 4 };
        let server = Server::bind(&opts).expect("stale socket must be swept and rebound");
        // While that daemon is alive, a second bind must refuse.
        let err = Server::bind(&opts).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_cached_replays_the_stub_byte_for_byte() {
        let div = nonrestoring_divider(3);
        let cache = ResultCache::in_memory();
        let cold = verify_cached(
            &div,
            VerifierConfig::default(),
            Some(&cache),
            Recorder::new(),
        )
        .unwrap();
        assert!(cold.correct && !cold.cached && cold.stored);
        assert!(cold.metrics_json.contains("sbif-metrics-v1"));

        // Warm: the stub is the stored bytes, and nothing is recorded
        // (nothing ran).
        let rec = Recorder::new();
        let warm =
            verify_cached(&div, VerifierConfig::default(), Some(&cache), rec.clone()).unwrap();
        assert!(warm.correct && warm.cached && !warm.stored);
        assert_eq!(warm.metrics_json, cold.metrics_json);
        assert_eq!(rec.finish().counters.len(), 0);
    }

    #[test]
    fn load_divider_parses_and_coi_restricts_every_format() {
        use sbif_netlist::io::{write_bnet, Format};
        let div = nonrestoring_divider(3);
        let bnet = write_bnet(&div.netlist);
        let loaded = load_divider(&bnet, Format::Bnet).unwrap();
        assert_eq!(loaded.n, 3);
        let aag = sbif_netlist::aiger::write_aag(&div.netlist);
        assert_eq!(load_divider(&aag, Format::Aag).unwrap().n, 3);
        let bench = sbif_netlist::bench::write_bench(&div.netlist);
        assert_eq!(load_divider(&bench, Format::Bench).unwrap().n, 3);
        // Broken input surfaces as a message, not a panic.
        assert!(load_divider("aag x", Format::Aag).unwrap_err().contains("line 1"));
    }

    #[test]
    fn daemon_answers_ping_verify_stats_and_shuts_down() {
        let socket = std::env::temp_dir()
            .join(format!("sbif_serve_unit_{}.sock", std::process::id()));
        let server =
            Server::bind(&ServeOptions { socket: socket.clone(), cache_dir: None, max_active: 4 })
                .unwrap();
        let daemon = std::thread::spawn(move || server.run());

        let stream = UnixStream::connect(&socket).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        let mut ask = |req: &str, reader: &mut BufReader<UnixStream>| -> Vec<String> {
            writeln!(w, "{req}").unwrap();
            w.flush().unwrap();
            let mut lines = Vec::new();
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let done = !line.contains("\"ev\": \"accepted\"")
                    && !line.contains("\"ev\": \"trace\"");
                lines.push(line.trim_end().to_string());
                if done {
                    return lines;
                }
            }
        };

        assert_eq!(ask("{\"op\": \"ping\"}", &mut reader), ["{\"ev\": \"pong\"}"]);
        let run1 = ask("{\"op\": \"verify\", \"id\": 7, \"demo\": 3}", &mut reader);
        assert_eq!(run1[0], "{\"job\": 7, \"ev\": \"accepted\"}");
        assert!(run1[1].contains("\"verdict\": \"correct\"") && run1[1].contains("\"cached\": false"));
        // Older clients still send `jobs`; it is ignored, so the job
        // hits the entry the first one stored.
        let req2 = "{\"op\": \"verify\", \"id\": 8, \"demo\": 3, \"jobs\": 4}";
        let run2 = ask(req2, &mut reader);
        assert!(run2[1].contains("\"cached\": true"), "{run2:?}");
        let stats = ask("{\"op\": \"stats\"}", &mut reader);
        assert!(stats[0].contains("\"serve.jobs\": 2") && stats[0].contains("\"cache.hits\": 1"));
        let bye = ask("{\"op\": \"shutdown\"}", &mut reader);
        assert_eq!(bye, ["{\"ev\": \"bye\"}"]);

        let report = daemon.join().unwrap();
        assert_eq!(report.counter("serve.jobs"), 2);
        assert_eq!(report.counter("cache.hits"), 1);
        assert_eq!(report.counter("cache.misses"), 1);
        assert!(!socket.exists(), "socket file must be removed on shutdown");
    }
}
