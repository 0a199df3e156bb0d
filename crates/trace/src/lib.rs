//! Structured observability for the SBIF pipeline (DESIGN.md §12).
//!
//! The paper's whole evaluation is a set of per-phase metrics — SBIF
//! #equivalences and window-SAT effort, rewriting peak term counts, vc2
//! peak BDD nodes — and every performance PR needs those numbers to be
//! *trustworthy*: reproducible across runs and machines. This crate provides the measurement substrate:
//!
//! * **Spans** ([`Recorder::span`]) — phase timers forming a tree. The
//!   monotonic-clock wall time of a span is reported only on its
//!   `span_close` *event*; it is deliberately kept **out** of the
//!   deterministic payload, so two runs of the same work produce the
//!   same [`MetricsReport`] no matter how slow the machine was.
//! * **Counters and gauges** ([`Recorder::add`],
//!   [`Recorder::gauge_max`]) — the deterministic payload. Counters
//!   merge by addition, gauges by maximum; both operations are
//!   commutative and associative, so aggregation over worker threads
//!   commits to the same totals in any order (the same discipline as
//!   the parallel SBIF engine's in-order result commit).
//! * **Sinks** ([`TraceSink`]) — pluggable event consumers: the
//!   [`NdjsonSink`] machine stream (one JSON object per line), the
//!   [`PrettySink`] human tree, or nothing at all (recording into a
//!   sink-less recorder costs two map updates per call).
//! * **[`MetricsReport`]** — the canonical, byte-stable JSON summary
//!   embedded in the verifier's report and snapshot-tested against
//!   checked-in golden files.
//!
//! The crate has zero dependencies (not even on the rest of the
//! workspace) so every layer — solver, BDD package, core pipeline,
//! CEC baselines, fuzzer, benches — can use it without cycles.
//!
//! # Examples
//!
//! ```
//! use sbif_trace::{MetricsFrame, Recorder};
//!
//! let rec = Recorder::new();
//! {
//!     let _span = rec.span("phase.work");
//!     rec.add("work.items", 3);
//!     rec.gauge_max("work.peak", 7);
//! }
//! // Worker-local frames merge deterministically.
//! let mut frame = MetricsFrame::default();
//! frame.add("work.items", 2);
//! rec.merge(&frame);
//! let report = rec.finish();
//! assert_eq!(report.counter("work.items"), 5);
//! assert_eq!(report.gauge("work.peak"), Some(7));
//! assert_eq!(report.counter("span.phase.work"), 1);
//! ```

pub mod json;
pub mod metrics;
pub mod ndjson;
pub mod recorder;
pub mod sink;

pub use metrics::{MetricsFrame, MetricsReport};
pub use ndjson::{check_stream, StreamSummary};
pub use recorder::{Recorder, ScopedRecorder, Span};
pub use sink::{Event, NdjsonSink, PrettySink, TraceSink};
