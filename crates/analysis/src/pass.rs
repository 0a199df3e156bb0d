//! The pass manager: deterministic, single-threaded, fully ordered.
//!
//! Each pass reads the netlist plus the facts earlier passes left in
//! the [`AnalysisDb`] and appends its own. Passes run in a fixed order
//! on one thread and derive everything from `(netlist, config)`, so the
//! database — and every `analysis.*` counter — is byte-identical across
//! runs (the same determinism contract the SBIF scan obeys, DESIGN.md
//! §12/§14).

use crate::db::AnalysisDb;
use crate::signature;
use crate::strash;
use crate::ternary;
use sbif_netlist::{Netlist, Sig};
use sbif_trace::{Recorder, ScopedRecorder};

/// Configuration shared by all passes.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Cone roots for the slicing pass. Empty means "all primary
    /// outputs" (plus the constraint, when one is set).
    pub roots: Vec<Sig>,
    /// The side-condition signal C, assumed 1 by ternary justification.
    pub constraint: Option<Sig>,
    /// Explicit shadow input planes (`[input][word]`) for the
    /// signature pass — e.g. constraint-satisfying divider stimulus.
    /// `None` falls back to unconstrained random planes from
    /// `shadow_seed`.
    pub shadow_planes: Option<Vec<Vec<u64>>>,
    /// Seed for the fallback random planes.
    pub shadow_seed: u64,
    /// Number of fallback random plane words.
    pub shadow_words: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            roots: Vec::new(),
            constraint: None,
            shadow_planes: None,
            shadow_seed: 0x57A7_1C5E_ED00,
            shadow_words: 2,
        }
    }
}

impl AnalysisConfig {
    /// The effective cone roots: configured roots or all primary
    /// outputs, with the constraint appended.
    fn effective_roots(&self, nl: &Netlist) -> Vec<Sig> {
        let mut roots: Vec<Sig> = if self.roots.is_empty() {
            nl.outputs().iter().map(|&(_, s)| s).collect()
        } else {
            self.roots.clone()
        };
        if let Some(c) = self.constraint {
            if !roots.contains(&c) {
                roots.push(c);
            }
        }
        roots
    }
}

/// One static-analysis pass.
pub trait Pass {
    /// Short name, used for the `span.analysis.<name>` span.
    fn name(&self) -> &'static str;
    /// Runs the pass, appending facts to `db` and counters to `rec`
    /// (already scoped under `analysis.`).
    fn run(&self, nl: &Netlist, cfg: &AnalysisConfig, db: &mut AnalysisDb, rec: &ScopedRecorder);
}

/// Ternary 0/1/X constant propagation (see [`crate::ternary`]).
pub struct TernaryPass;

impl Pass for TernaryPass {
    fn name(&self) -> &'static str {
        "ternary"
    }

    fn run(&self, nl: &Netlist, cfg: &AnalysisConfig, db: &mut AnalysisDb, rec: &ScopedRecorder) {
        let r = ternary::propagate(nl, cfg.constraint);
        let known = r.values.iter().filter(|t| t.known().is_some()).count();
        rec.add("ternary_known", known as u64);
        rec.add("ternary_stuck", r.stuck.len() as u64);
        rec.add("ternary_conflicts", r.conflicts as u64);
        rec.add("ternary_rounds", r.rounds as u64);
        db.ternary = r.values;
        db.stuck = r.stuck;
        db.ternary_conflicts = r.conflicts;
    }
}

/// Topological level map (depth per signal). The SBIF level scheduler
/// consumes it through [`AnalysisDb::levels`] instead of re-traversing
/// the netlist.
pub struct LevelPass;

impl Pass for LevelPass {
    fn name(&self) -> &'static str {
        "levels"
    }

    fn run(&self, nl: &Netlist, _cfg: &AnalysisConfig, db: &mut AnalysisDb, rec: &ScopedRecorder) {
        let levels = nl.levels();
        let depth = levels.iter().map(|&l| l + 1).max().unwrap_or(0);
        rec.add("levels", depth as u64);
        let widest = {
            let mut width = vec![0u64; depth];
            for &l in &levels {
                width[l] += 1;
            }
            width.into_iter().max().unwrap_or(0)
        };
        rec.add("level_width_max", widest);
        db.levels = levels;
    }
}

/// Canonical structural hashing (see [`crate::strash`]).
pub struct StrashPass;

impl Pass for StrashPass {
    fn name(&self) -> &'static str {
        "strash"
    }

    fn run(&self, nl: &Netlist, _cfg: &AnalysisConfig, db: &mut AnalysisDb, rec: &ScopedRecorder) {
        let r = strash::digests(nl);
        rec.add("strash_classes", r.classes.len() as u64);
        let duplicates: usize = r.classes.iter().map(|c| c.len() - 1).sum();
        rec.add("strash_duplicates", duplicates as u64);
        db.core = r.core;
        db.phase = r.phase;
        db.classes = r.classes;
    }
}

/// Cone-of-influence slicing keyed on the configured roots.
pub struct ConePass;

impl Pass for ConePass {
    fn name(&self) -> &'static str {
        "cone"
    }

    fn run(&self, nl: &Netlist, cfg: &AnalysisConfig, db: &mut AnalysisDb, rec: &ScopedRecorder) {
        let roots = cfg.effective_roots(nl);
        let mut live = vec![false; nl.num_signals()];
        for s in nl.cone(&roots) {
            live[s.index()] = true;
        }
        let live_count = live.iter().filter(|&&b| b).count();
        rec.add("cone_live", live_count as u64);
        rec.add("cone_dead", (nl.num_signals() - live_count) as u64);
        db.live = live;
    }
}

/// Shadow simulation signatures (see [`crate::signature`]).
pub struct SignaturePass;

impl Pass for SignaturePass {
    fn name(&self) -> &'static str {
        "signature"
    }

    fn run(&self, nl: &Netlist, cfg: &AnalysisConfig, db: &mut AnalysisDb, rec: &ScopedRecorder) {
        let planes = match &cfg.shadow_planes {
            Some(p) => p.clone(),
            None => {
                signature::random_planes(nl.inputs().len(), cfg.shadow_words, cfg.shadow_seed)
            }
        };
        let words = planes.first().map_or(0, |p| p.len());
        rec.add("shadow_words", words as u64);
        db.shadow = signature::signatures(nl, &planes);
        db.shadow_planes = planes;
    }
}

/// An ordered pipeline of passes over one netlist.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// The standard pipeline: levels → ternary → strash → cone →
    /// signature.
    pub fn standard() -> Self {
        PassManager {
            passes: vec![
                Box::new(LevelPass),
                Box::new(TernaryPass),
                Box::new(StrashPass),
                Box::new(ConePass),
                Box::new(SignaturePass),
            ],
        }
    }

    /// An empty manager; add passes with [`PassManager::push`].
    pub fn empty() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// Appends a pass to the pipeline.
    pub fn push(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Runs every pass in order, recording `analysis.*` counters and a
    /// `span.analysis.<pass>` span per pass on `rec`.
    pub fn run(&self, nl: &Netlist, cfg: &AnalysisConfig, rec: &Recorder) -> AnalysisDb {
        let scoped = rec.scoped("analysis");
        let mut db = AnalysisDb::new(nl.num_signals());
        for pass in &self.passes {
            let span = scoped.span(pass.name());
            pass.run(nl, cfg, &mut db, &scoped);
            span.close();
        }
        db
    }
}

/// Runs the standard pipeline; the common entry point.
pub fn analyze(nl: &Netlist, cfg: &AnalysisConfig, rec: &Recorder) -> AnalysisDb {
    PassManager::standard().run(nl, cfg, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_pipeline_fills_every_fact_table() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let g = nl.and(a, b);
        let _dead = nl.or(a, b);
        nl.add_output("o", g);
        let rec = Recorder::new();
        let db = analyze(&nl, &AnalysisConfig::default(), &rec);
        assert_eq!(db.num_signals, nl.num_signals());
        assert_eq!(db.ternary.len(), nl.num_signals());
        assert_eq!(db.core.len(), nl.num_signals());
        assert_eq!(db.live.len(), nl.num_signals());
        assert_eq!(db.shadow.len(), nl.num_signals());
        assert!(!db.live[_dead.index()]);
        assert!(db.live[g.index()]);
        let report = rec.finish();
        assert_eq!(report.counter("span.analysis.ternary"), 1);
        assert_eq!(report.counter("analysis.cone_dead"), 1);
        assert_eq!(report.counter("analysis.cone_live"), 3);
        assert_eq!(report.counter("analysis.shadow_words"), 2);
    }

    #[test]
    fn analysis_counters_are_run_to_run_deterministic() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let g = nl.nand(a, b);
        nl.add_output("o", g);
        let run = || {
            let rec = Recorder::new();
            let db = analyze(&nl, &AnalysisConfig::default(), &rec);
            (rec.finish().to_json(), db.to_json(&nl))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn live_mask_keeps_inputs_and_constants() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let unused = nl.input("unused");
        let zero = nl.const0();
        let g = nl.not(a);
        let dead = nl.and(unused, g);
        nl.add_output("o", g);
        let db = analyze(&nl, &AnalysisConfig::default(), &Recorder::new());
        let mask = db.sbif_live_mask(&nl);
        assert!(mask[a.index()] && mask[g.index()]);
        // Outside the cone, but inputs/constants must stay scannable.
        assert!(mask[unused.index()]);
        assert!(mask[zero.index()]);
        assert!(!mask[dead.index()]);
        // The raw cone mask still records them as dead.
        assert!(!db.live[unused.index()]);
    }
}
