//! Layered end-to-end benchmark of the divider verifier.
//!
//! Each workload loads most of its work on one layer of the pipeline
//! netlist → analysis → SBIF → rewriting → vc2. A run with tracing off
//! reports end-to-end metrics; a separate traced run makes the same
//! verifier call with a recorder that collects the verifier's layer
//! spans, and reports per-layer times and counts. See
//! `README.md` next to this package's manifest.

pub mod oracle;
pub mod pipeline;
pub mod reference;
pub mod run;
pub mod workload;
