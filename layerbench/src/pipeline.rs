//! The verifier calls the benchmark times: the untraced end-to-end call,
//! and the traced call, which is the same `DividerVerifier::verify` with
//! a recorder whose sink collects the wall time of every phase span.

use crate::oracle::Known;
use sbif::core::verify::{DividerVerifier, VerificationReport, VerifierConfig};
use sbif::netlist::build::Divider;
use sbif::trace::{Event, Recorder, TraceSink};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a verdict compares with the design's known answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Decided, and equal to the known answer.
    Decided,
    /// Inconclusive: attempted but not decided.
    Undecided,
    /// Decided, and contradicting the known answer.
    Contradicts,
}

/// Compares a report's verdict with the known answer.
pub fn agreement(report: &VerificationReport, known: &Known) -> Agreement {
    let expect_correct = matches!(known, Known::Correct { .. });
    if report.verdict.is_inconclusive() {
        Agreement::Undecided
    } else if report.verdict.is_proven() == expect_correct {
        Agreement::Decided
    } else {
        Agreement::Contradicts
    }
}

/// One untraced end-to-end call: `DividerVerifier::verify`.
///
/// # Errors
///
/// The verifier's error (a term-limit blow-up or malformed interface).
pub fn verify(div: &Divider, cfg: VerifierConfig) -> Result<VerificationReport, String> {
    DividerVerifier::new(div)
        .with_config(cfg)
        .verify()
        .map_err(|e| e.to_string())
}

/// The phase spans the verifier opens for each layer, outermost only
/// (`vc2-sat` nests in `vc2`, the analysis passes nest in `analysis`).
pub const LAYER_SPANS: [&str; 6] = ["smoke", "analysis", "sbif", "rewrite", "residual", "vc2"];

/// Wall time per layer span, and the time the trace sink itself took.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Indexed like [`LAYER_SPANS`].
    pub layer: [Duration; LAYER_SPANS.len()],
    /// The part of the `sbif` span spent in SAT checks, as SBIF measures
    /// it (`SbifStats::sat_micros`).
    pub sbif_sat: Duration,
    /// Time spent inside the span-collecting sink.
    pub sink: Duration,
    /// Wall time of the whole traced call.
    pub wall: Duration,
}

impl LayerTimes {
    /// The time of the layer span `name` (zero if it never opened).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of [`LAYER_SPANS`].
    pub fn get(&self, name: &str) -> Duration {
        let k = LAYER_SPANS.iter().position(|&s| s == name);
        self.layer[k.expect("a layer span name")]
    }

    /// Time inside the layer spans (`sbif_sat` is part of `sbif`).
    pub fn layers(&self) -> Duration {
        self.layer.iter().sum()
    }

    pub fn absorb(&mut self, o: &LayerTimes) {
        for (a, b) in self.layer.iter_mut().zip(o.layer) {
            *a += b;
        }
        self.sbif_sat += o.sbif_sat;
        self.sink += o.sink;
        self.wall += o.wall;
    }
}

/// A [`TraceSink`] that adds up the wall time of the layer spans.
struct SpanSink(Arc<Mutex<LayerTimes>>);

impl TraceSink for SpanSink {
    fn event(&mut self, e: &Event<'_>) {
        let t0 = Instant::now();
        let mut times = self.0.lock().expect("span sink poisoned");
        if let Event::SpanClose { name, wall_us, .. } = e {
            if let Some(k) = LAYER_SPANS.iter().position(|s| s == name) {
                times.layer[k] +=
                    Duration::from_micros(u64::try_from(*wall_us).unwrap_or(u64::MAX));
            }
        }
        times.sink += t0.elapsed();
    }
}

/// The traced call of one design: `DividerVerifier::verify` with a
/// recorder carrying a [`SpanSink`]. Returns the report (its stats
/// structs carry the layer counts) and the layer times.
///
/// # Errors
///
/// The verifier's error, as for [`verify`].
pub fn traced(
    div: &Divider,
    cfg: VerifierConfig,
) -> Result<(VerificationReport, LayerTimes), String> {
    let times = Arc::new(Mutex::new(LayerTimes::default()));
    let recorder = Recorder::new();
    recorder.attach(Box::new(SpanSink(Arc::clone(&times))));
    let t0 = Instant::now();
    let report = DividerVerifier::new(div)
        .with_config(cfg)
        .with_recorder(recorder)
        .verify()
        .map_err(|e| e.to_string())?;
    let wall = t0.elapsed();
    let mut t = *times.lock().expect("span sink poisoned");
    t.wall = wall;
    t.sbif_sat =
        Duration::from_micros(u64::try_from(report.vc1.sbif.sat_micros).unwrap_or(u64::MAX));
    Ok((report, t))
}
