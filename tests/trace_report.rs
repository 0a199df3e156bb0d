//! Golden snapshots of the deterministic metrics report (DESIGN.md §12).
//!
//! The whole point of the `sbif-trace` payload is that two runs doing
//! the same logical work emit the same bytes — on any machine. These
//! tests pin that contract: each scenario's [`MetricsReport`] JSON is
//! byte-compared against a checked-in golden file at `tests/golden/`.
//!
//! When an intentional pipeline change shifts the numbers, regenerate
//! with `SBIF_UPDATE_GOLDEN=1 cargo test --test trace_report` and review
//! the diff like any other source change.
//!
//! [`MetricsReport`]: sbif::trace::MetricsReport

use sbif::core::verify::{DividerVerifier, VerifierConfig};
use sbif::netlist::build::{nonrestoring_divider, srt_divider, Divider};
use sbif::trace::Recorder;
use std::path::PathBuf;

/// Runs the full pipeline on `div` and returns the canonical metrics
/// JSON.
fn metrics_json(div: &Divider, certify: bool) -> String {
    let cfg = VerifierConfig { certify, ..VerifierConfig::default() };
    let report = DividerVerifier::new(div)
        .with_config(cfg)
        .with_recorder(Recorder::new())
        .verify()
        .expect("scenario verifies");
    assert!(report.is_correct());
    report.metrics.to_json()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("metrics_{name}.json"))
}

/// Byte-compares the scenario against its golden file (or rewrites the
/// file under `SBIF_UPDATE_GOLDEN=1`).
fn check_scenario(name: &str, div: &Divider, certify: bool) {
    let current = metrics_json(div, certify);
    let path = golden_path(name);
    if std::env::var_os("SBIF_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &current).expect("write golden");
    } else {
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (regenerate with SBIF_UPDATE_GOLDEN=1)", path.display()));
        assert!(
            golden == current,
            "{name}: metrics drifted from {}\n--- golden ---\n{golden}\n--- current ---\n{current}\n\
             (intentional change? SBIF_UPDATE_GOLDEN=1 cargo test --test trace_report)",
            path.display()
        );
    }
}

#[test]
fn nonrestoring_n4_matches_golden() {
    check_scenario("nonrestoring_n4", &nonrestoring_divider(4), false);
}

#[test]
fn nonrestoring_n8_matches_golden() {
    check_scenario("nonrestoring_n8", &nonrestoring_divider(8), false);
}

#[test]
fn nonrestoring_n4_certified_matches_golden() {
    // Locks the cert.* counters (DRAT bytes, used-step permille) too.
    check_scenario("nonrestoring_n4_certify", &nonrestoring_divider(4), true);
}

// The SRT scenarios stop at n = 4: plain equivalence/antivalence
// forwarding cannot tame the n >= 6 digit-selection logic (see
// tests/srt.rs, the paper's Sect. VII outlook).

#[test]
fn srt_n3_matches_golden() {
    check_scenario("srt_n3", &srt_divider(3), false);
}

#[test]
fn srt_n4_matches_golden() {
    check_scenario("srt_n4", &srt_divider(4), false);
}

#[test]
fn report_embeds_the_headline_columns() {
    // Sanity independent of golden bytes: the report carries the
    // paper's own evaluation axes for a verified divider.
    let div = nonrestoring_divider(4);
    let report = DividerVerifier::new(&div)
        .with_recorder(Recorder::new())
        .verify()
        .expect("verifies");
    let m = &report.metrics;
    assert_eq!(m.counter("sbif.proven"), report.vc1.sbif.proven as u64);
    assert_eq!(m.gauge("rewrite.peak_terms"), Some(report.vc1.rewrite.peak_terms as u64));
    let vc2 = report.vc2.as_ref().expect("vc2 ran");
    assert_eq!(m.gauge("vc2.peak_live_nodes"), Some(vc2.peak_nodes as u64));
    assert_eq!(m.counter("span.verify"), 1);
    assert_eq!(m.counter("span.sbif"), 1);
    // Wall time never enters the deterministic payload.
    assert!(!m.counters.keys().chain(m.gauges.keys()).any(|k| k.contains("wall")));
}
