//! `sbif-verify` — fully automatic divider verification from the command
//! line.
//!
//! ```text
//! sbif-verify <netlist> [--vc1-only] [--no-sbif] [--certify] [--max-terms N]
//!             [--cache-dir DIR] [--trace pretty|json] [--trace-out FILE]
//!             [--metrics-out FILE] [--analysis-out FILE]
//!             [--budget-conflicts N] [--budget-terms N] [--budget-nodes N]
//!             [--budget-sat N] [--timeout MS]
//! sbif-verify --demo <n> [--arch A]        # generate and verify an n-bit divider
//! sbif-verify --emit <n> <file> [--arch A] # write an n-bit divider as BNET
//! ```
//!
//! `--arch` picks the generated architecture: `nonrestoring` (the
//! default), `restoring`, `srt` or `array`.
//!
//! The `--budget-*` flags attach the resource governor (DESIGN.md
//! §16): `--budget-conflicts` caps the SBIF solver conflicts
//! (exhaustion skips the remaining windows and continues with the
//! classes found — sound, possibly slower downstream),
//! `--budget-terms` caps backward-rewriting terms (exhaustion is an
//! *inconclusive* verdict instead of a hard abort), `--budget-nodes`
//! caps the vc2 BDD's live nodes (exhaustion falls back to a bounded
//! SAT check of the range property, itself capped by `--budget-sat`).
//! All of those are deterministic units — whether a budget trips is
//! reproducible run to run. `--timeout MS` arms a
//! wall-clock watchdog that only ever cancels; a cancelled run is
//! reported inconclusive and never cached. A budget-limited run exits
//! 0 with `VERDICT: inconclusive (…)` naming the exhausted stage.
//!
//! Netlist files may be BNET (`.bnet`, anything else), AIGER ASCII
//! (`.aag`) or ISCAS BENCH (`.bench`/`.isc`) — the format is chosen by
//! extension. BNET files are first run through the `sbif-lint` static
//! analyzer; hard errors (cycles, undriven signals, …) abort before
//! verification (the AIGER/BENCH parsers reject those structurally,
//! with line/column positions). File inputs are cone-of-influence
//! restricted to their declared outputs before verification, so
//! synthesis leftovers outside the divider cone cost nothing.
//! With `--certify`, every UNSAT answer of the flow is replayed through
//! the independent DRAT checker and the certificate statistics are
//! reported; a rejected certificate means the run is *not* trusted.
//!
//! `--cache-dir DIR` attaches the content-addressed result cache
//! (DESIGN.md §15): the design's canonical cone digests plus the flow
//! configuration form the key; a hit
//! replays the stored verdict and the byte-identical `sbif-metrics-v1`
//! stub of the original run without verifying anything, a miss proves
//! and stores. The same cache directory is shared with `sbif-serve`
//! and `sbif-fuzz --cache-dir`.
//!
//! `--trace pretty` prints the live phase tree (spans, wall times) to
//! stderr; `--trace json` emits the NDJSON event stream instead
//! (`--trace-out FILE` redirects either to a file). `--metrics-out FILE`
//! writes the deterministic metrics report — byte-identical run to run —
//! as canonical JSON (see DESIGN.md §12).
//! `--analysis-out FILE` dumps the static-analysis database (ternary
//! facts, structural-hash classes, cone mask, shadow signatures; see
//! DESIGN.md §14) as canonical JSON.
//!
//! The netlist must expose the Definition-1 interface: input buses
//! `r0[0..2n−3]` and `d[0..n−2]` (the sign bits are constant 0 per the
//! paper) and output buses `q[0..n−1]` and `r[0..2n−2]`.
//!
//! Exit code 0 = verified correct *or* inconclusive under a budget
//! (the run itself succeeded; the budget was the limit), 1 =
//! refuted/failed, 2 = usage or resource error.

use sbif::check::lint_bnet;
use sbif::core::verify::{DividerVerifier, Vc1Outcome, VerifierConfig};
use sbif::netlist::build::{
    array_divider, nonrestoring_divider, restoring_divider, srt_divider, Divider,
};
use sbif::netlist::io::{read_netlist, write_bnet, Format};
use sbif::serve::verify_cached;
use sbif::trace::{NdjsonSink, PrettySink, Recorder};
use sbif::cache::ResultCache;
use std::io::Write;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sbif-verify <netlist(.bnet|.aag|.bench)> [--vc1-only] [--no-sbif] [--certify]\n\
         \x20                [--max-terms N] [--cache-dir DIR]\n\
         \x20                [--trace pretty|json] [--trace-out FILE] [--metrics-out FILE]\n\
         \x20                [--analysis-out FILE] [--budget-conflicts N] [--budget-terms N]\n\
         \x20                [--budget-nodes N] [--budget-sat N] [--timeout MS]\n\
         \x20      sbif-verify --demo <n> [--arch nonrestoring|restoring|srt|array]\n\
         \x20      sbif-verify --emit <n> <file> [--arch nonrestoring|restoring|srt|array]"
    );
    ExitCode::from(2)
}

/// Builds an `n`-bit divider of the named architecture.
fn build_arch(arch: &str, n: usize) -> Option<Divider> {
    match arch {
        "nonrestoring" => Some(nonrestoring_divider(n)),
        "restoring" => Some(restoring_divider(n)),
        "srt" => Some(srt_divider(n)),
        "array" => Some(array_divider(n)),
        _ => None,
    }
}

/// How the trace event stream is rendered (`--trace`).
#[derive(Clone, Copy, PartialEq)]
enum TraceMode {
    Pretty,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    // --emit: write a generated divider and exit.
    if args[0] == "--emit" {
        let (Some(n), Some(path)) = (args.get(1), args.get(2)) else {
            return usage();
        };
        let Ok(n) = n.parse::<usize>() else { return usage() };
        if n < 2 {
            eprintln!("divisor width must be at least 2 bits");
            return ExitCode::from(2);
        }
        let arch = match (args.get(3).map(String::as_str), args.get(4)) {
            (Some("--arch"), Some(a)) => a.as_str(),
            (None, _) => "nonrestoring",
            _ => return usage(),
        };
        let Some(div) = build_arch(arch, n) else {
            eprintln!("unknown architecture {arch:?} (want nonrestoring, restoring, srt or array)");
            return ExitCode::from(2);
        };
        if let Err(e) = std::fs::write(path, write_bnet(&div.netlist)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote the {n}-bit {arch} divider to {path}");
        return ExitCode::SUCCESS;
    }

    // Load or generate the divider.
    let mut config = VerifierConfig::default();
    let mut divider: Option<Divider> = None;
    let mut demo: Option<usize> = None;
    let mut arch = String::from("nonrestoring");
    let mut trace_mode: Option<TraceMode> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut analysis_out: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--demo" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                    return usage();
                };
                if n < 2 {
                    eprintln!("divisor width must be at least 2 bits");
                    return ExitCode::from(2);
                }
                demo = Some(n);
                i += 2;
            }
            "--arch" => {
                let Some(a) = args.get(i + 1) else { return usage() };
                arch = a.clone();
                i += 2;
            }
            "--budget-conflicts" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                    return usage();
                };
                config.govern.sbif_conflicts = Some(v);
                i += 2;
            }
            "--budget-terms" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                    return usage();
                };
                config.govern.rewrite_terms = Some(v);
                i += 2;
            }
            "--budget-nodes" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                    return usage();
                };
                config.govern.vc2_live_nodes = Some(v);
                i += 2;
            }
            "--budget-sat" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                    return usage();
                };
                config.govern.vc2_sat_conflicts = Some(v);
                i += 2;
            }
            "--timeout" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                    return usage();
                };
                config.govern.timeout_ms = Some(v);
                i += 2;
            }
            "--vc1-only" => {
                config.check_vc2 = false;
                i += 1;
            }
            "--no-sbif" => {
                config.use_sbif = false;
                i += 1;
            }
            "--certify" => {
                config.certify = true;
                i += 1;
            }
            "--trace" => {
                let Some(mode) = args.get(i + 1) else { return usage() };
                trace_mode = match mode.as_str() {
                    "pretty" => Some(TraceMode::Pretty),
                    "json" => Some(TraceMode::Json),
                    other => {
                        eprintln!("--trace wants 'pretty' or 'json', got {other:?}");
                        return ExitCode::from(2);
                    }
                };
                i += 2;
            }
            "--trace-out" => {
                let Some(path) = args.get(i + 1) else { return usage() };
                trace_out = Some(path.clone());
                i += 2;
            }
            "--metrics-out" => {
                let Some(path) = args.get(i + 1) else { return usage() };
                metrics_out = Some(path.clone());
                i += 2;
            }
            "--analysis-out" => {
                let Some(path) = args.get(i + 1) else { return usage() };
                analysis_out = Some(path.clone());
                i += 2;
            }
            "--cache-dir" => {
                let Some(path) = args.get(i + 1) else { return usage() };
                cache_dir = Some(path.clone());
                i += 2;
            }
            "--max-terms" => {
                let Some(limit) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok())
                else {
                    return usage();
                };
                config.rewrite.max_terms = Some(limit);
                i += 2;
            }
            path if !path.starts_with('-') => {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let format = Format::from_path(path);
                // Static analysis before anything interprets a BNET
                // file: a cyclic or undriven netlist must not reach
                // polynomial extraction or SAT encoding. The AIGER and
                // BENCH parsers enforce those invariants themselves.
                if matches!(format, Format::Bnet) {
                    let lint = lint_bnet(&text);
                    for issue in &lint.issues {
                        eprintln!("{path}: {issue}");
                    }
                    if lint.num_errors() > 0 {
                        eprintln!(
                            "{path}: {} lint error(s) — refusing to verify",
                            lint.num_errors()
                        );
                        return ExitCode::from(2);
                    }
                }
                let nl = match read_netlist(&text, format) {
                    Ok(nl) => nl,
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                // Restrict file inputs to the cone of influence of
                // their declared outputs: synthesis leftovers outside
                // the divider cone must not slow verification down or
                // perturb the cache key.
                match Divider::from_netlist(nl.restricted_to_outputs()) {
                    Ok(d) => divider = Some(d),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::from(2);
                    }
                }
                i += 1;
            }
            _ => return usage(),
        }
    }
    if divider.is_none() {
        if let Some(n) = demo {
            match build_arch(&arch, n) {
                Some(d) => divider = Some(d),
                None => {
                    eprintln!(
                        "unknown architecture {arch:?} (want nonrestoring, restoring, srt or array)"
                    );
                    return ExitCode::from(2);
                }
            }
        }
    }
    let Some(divider) = divider else { return usage() };
    // A file target without an explicit mode means the machine stream.
    if trace_out.is_some() && trace_mode.is_none() {
        trace_mode = Some(TraceMode::Json);
    }

    // The content-addressed result cache: a hit replays the stored
    // verdict and metrics stub byte-identically and skips the run
    // (inconclusive entries only hit under the exact same budgets; see
    // DESIGN.md §16).
    let cache = match &cache_dir {
        Some(dir) => match ResultCache::on_disk(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("cannot open cache dir {dir}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    // One recorder observes the whole run; sinks stream events as the
    // phases execute, the deterministic payload lands in the report.
    let recorder = Recorder::new();
    if let Some(mode) = trace_mode {
        let w: Box<dyn Write + Send> = match &trace_out {
            Some(path) => match std::fs::File::create(path) {
                Ok(f) => Box::new(std::io::BufWriter::new(f)),
                Err(e) => {
                    eprintln!("cannot create {path}: {e}");
                    return ExitCode::from(2);
                }
            },
            None => Box::new(std::io::stderr()),
        };
        match mode {
            TraceMode::Json => recorder.attach(Box::new(NdjsonSink::new(w))),
            TraceMode::Pretty => recorder.attach(Box::new(PrettySink::new(w))),
        }
    }

    println!(
        "verifying {}-bit divider ({} signals) against Definition 1 …",
        divider.n,
        divider.netlist.num_signals()
    );
    let out = match verify_cached(&divider, config, cache.as_ref(), recorder) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("aborted: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &metrics_out {
        if let Err(e) = std::fs::write(path, &out.metrics_json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("metrics report written to {path}");
    }
    if let Some(path) = &analysis_out {
        // The analysis database is deterministic, so recomputing it on
        // a fresh verifier matches what the run (or the cached original
        // run) observed.
        let db = match DividerVerifier::new(&divider).with_config(config).analysis_db() {
            Ok(db) => db,
            Err(e) => {
                eprintln!("cannot analyze: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(path, db.to_json(&divider.netlist)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("analysis database written to {path}");
    }
    if let Some(report) = out.report.as_deref() {
        match &report.vc1.outcome {
            Vc1Outcome::Proven => println!(
                "vc1 (R0 = Q*D + R): PROVEN   [{} equivalences, peak {} terms, {:?} + {:?}]",
                report.vc1.sbif.proven,
                report.vc1.rewrite.peak_terms,
                report.vc1.sbif_time,
                report.vc1.rewrite_time
            ),
            Vc1Outcome::Refuted { dividend, divisor } => {
                println!("vc1 (R0 = Q*D + R): REFUTED  [{dividend} / {divisor} divides wrong]")
            }
            Vc1Outcome::Inconclusive { residual_terms } => {
                println!("vc1 (R0 = Q*D + R): UNDECIDED [{residual_terms} residual terms]")
            }
            Vc1Outcome::Exhausted(e) => {
                println!("vc1 (R0 = Q*D + R): EXHAUSTED [{e}]")
            }
        }
        if let Some(vc2) = &report.vc2 {
            println!(
                "vc2 (0 <= R < D):   {}  [peak {} BDD nodes, {:?}]",
                if vc2.holds { "PROVEN " } else { "REFUTED" },
                vc2.peak_nodes,
                report.vc2_time
            );
        }
        if let Some(fb) = &report.vc2_fallback {
            println!(
                "vc2 SAT fallback:   {}  [{} of {} conflicts]",
                match fb.holds {
                    Some(true) => "PROVEN ",
                    Some(false) => "REFUTED",
                    None => "UNKNOWN",
                },
                fb.conflicts,
                fb.budget
            );
        }
        if config.certify {
            let cert = report.certificates();
            println!(
                "certificates:       {} UNSAT answers DRAT-checked, {} rejected, {:.1}% of logged steps used",
                cert.checked,
                cert.rejected,
                100.0 * cert.used_fraction()
            );
        }
        if report.cancelled {
            eprintln!("watchdog: run cancelled by --timeout; result not cached");
        }
    }
    let cached = if out.cached { " (cached)" } else { "" };
    match out.verdict.as_str() {
        "correct" => {
            println!("VERDICT: correct{cached}");
            ExitCode::SUCCESS
        }
        "inconclusive" => {
            match &out.exhausted_at {
                Some(e) => println!("VERDICT: inconclusive ({e}){cached}"),
                None => println!("VERDICT: inconclusive{cached}"),
            }
            ExitCode::SUCCESS
        }
        _ => {
            println!("VERDICT: NOT correct{cached}");
            ExitCode::FAILURE
        }
    }
}
