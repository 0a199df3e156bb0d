//! Well-formedness of the NDJSON trace stream over random pipelines.
//!
//! Whatever configuration the verifier runs under — SBIF on or off,
//! vc2 on or off, certification, any worker count, even failing runs —
//! the `--trace json` stream must satisfy the closed contract that
//! `sbif-trace check` enforces: every line parses as a JSON object, the
//! event kinds come from the closed set, span open/close pairs balance
//! (RAII guards close spans on error paths too), and the final report
//! holds unsigned integers only. [`check_stream`] is the single oracle;
//! this suite drives it with `sbif-rng`-generated pipeline configs.
//!
//! [`check_stream`]: sbif::trace::check_stream

use sbif::core::rewrite::RewriteConfig;
use sbif::core::verify::{DividerVerifier, VerifierConfig};
use sbif::netlist::build::{nonrestoring_divider, srt_divider};
use sbif::trace::{check_stream, NdjsonSink, Recorder};
use sbif_rng::XorShift64;
use std::sync::{Arc, Mutex};

/// A `Write` into a shared buffer, so the stream can be read back while
/// the recorder still owns the sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn take_string(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("stream is UTF-8")
    }
}

/// One random pipeline configuration drawn from the rng.
#[derive(Debug)]
struct PipelineCase {
    n: usize,
    srt: bool,
    use_sbif: bool,
    check_vc2: bool,
    certify: bool,
}

fn random_case(rng: &mut XorShift64) -> PipelineCase {
    let srt = rng.below(4) == 0;
    // Keep the no-SBIF and SRT cases at widths where rewriting stays
    // polynomial (tests/srt.rs pins the blow-up beyond).
    let n = 3 + rng.below(2) as usize;
    PipelineCase {
        n,
        srt,
        use_sbif: rng.below(4) != 0,
        check_vc2: rng.below(2) == 0,
        certify: rng.below(3) == 0,
    }
}

/// Runs the verifier for `case` with an NDJSON sink attached and
/// returns the captured stream.
fn traced_run(case: &PipelineCase) -> String {
    let div = if case.srt { srt_divider(case.n) } else { nonrestoring_divider(case.n) };
    let cfg = VerifierConfig {
        use_sbif: case.use_sbif,
        check_vc2: case.check_vc2,
        certify: case.certify,
        ..VerifierConfig::default()
    };
    let buf = SharedBuf::default();
    let rec = Recorder::new();
    rec.attach(Box::new(NdjsonSink::new(buf.clone())));
    let report = DividerVerifier::new(&div)
        .with_config(cfg)
        .with_recorder(rec.clone())
        .verify()
        .expect("small widths verify");
    assert!(report.is_correct(), "{case:?}");
    assert_eq!(rec.open_spans(), 0, "{case:?}: spans leaked");
    buf.take_string()
}

#[test]
fn random_pipelines_emit_well_formed_streams() {
    for seed in 0..12u64 {
        let mut rng = XorShift64::seed_from_u64(seed);
        let case = random_case(&mut rng);
        let text = traced_run(&case);
        let summary = check_stream(&text)
            .unwrap_or_else(|e| panic!("seed {seed} {case:?}: {e}\n{text}"));
        assert!(summary.spans >= 2, "seed {seed} {case:?}: {summary:?}");
        assert_eq!(summary.reports, 1, "seed {seed} {case:?}: {summary:?}");
        assert!(summary.counters > 0, "seed {seed} {case:?}");
        // The closed-set contract is what check_stream enforces; a
        // quick cross-check that nothing slipped past the oracle.
        for line in text.lines() {
            let v = sbif::trace::json::parse(line).expect("line parses");
            let kind = v.as_object().unwrap()["ev"].as_str().unwrap().to_string();
            assert!(
                ["span_open", "span_close", "counter", "gauge", "report"]
                    .contains(&kind.as_str()),
                "unknown kind {kind}"
            );
        }
    }
}

#[test]
fn error_paths_still_balance_spans() {
    // A run that aborts mid-rewrite (term limit) unwinds through the
    // RAII span guards: the stream stays balanced even though verify()
    // returned an error and finish() was never called.
    let div = nonrestoring_divider(6);
    let cfg = VerifierConfig {
        rewrite: RewriteConfig { max_terms: Some(10), ..Default::default() },
        use_sbif: false,
        check_vc2: false,
        ..Default::default()
    };
    let buf = SharedBuf::default();
    let rec = Recorder::new();
    rec.attach(Box::new(NdjsonSink::new(buf.clone())));
    DividerVerifier::new(&div)
        .with_config(cfg)
        .with_recorder(rec.clone())
        .verify()
        .expect_err("term limit must trip");
    assert_eq!(rec.open_spans(), 0, "error path leaked a span");
    // finish() flushes the partial session into a checkable stream.
    rec.finish();
    let summary = check_stream(&buf.take_string()).expect("balanced stream");
    assert_eq!(summary.reports, 1);
}
