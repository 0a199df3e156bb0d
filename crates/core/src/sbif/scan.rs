//! The Alg. 1 scan: one sequential, level-major pass with batched
//! incremental window solving (DESIGN.md §7).
//!
//! The windowed SAT checks dominate SBIF's runtime, but they are not
//! independent work: the check for signal `a` encodes window fanins by
//! their current class representatives, and a merge it proves is
//! forwarded into the windows of every later signal. The checks form a
//! chain, so the scan runs them one after the other, in order, against
//! the current classes — no result is ever speculative.
//!
//! * The scan runs in **level-major order** (see [`LevelSchedule`]) —
//!   a topological order, so the classes are the ones the sequential
//!   Alg. 1 computes over that order, and every representative a window
//!   encodes lies at a strictly lower level than its root.
//! * The order is cut into **batches** — contiguous runs of whole levels
//!   with at least [`BATCH_SIGNALS`] signals. All window checks of one
//!   batch share **one incremental SAT solver** ([`WindowBatch`]:
//!   assumption-guarded windows, the constraint cone encoded once,
//!   learnt clauses reused across sibling windows), which amortizes
//!   solver setup while bounding retired-clause growth. Certified runs
//!   use a fresh proof-logging solver per window instead.
//! * Counterexamples are folded into the simulation signatures at
//!   **level boundaries** (once [`SbifConfig::cex_flush`] of them are
//!   buffered), splitting the candidate buckets before the next level
//!   is scanned.
//!
//! Everything — scan order, batch partition, flush points, solver
//! inputs — is a pure function of the netlist, the signatures and the
//! configuration, so classes, statistics and governed budget cuts are
//! reproducible run to run.

use super::levels::LevelSchedule;
use super::{
    check_window_pair, EquivClasses, Prefiltered, SbifConfig, SbifGovernor, SbifOptions,
    SbifPrefilter, SbifStats, WindowBatch,
};
use sbif_netlist::{Netlist, Sig};
use sbif_sat::SolveResult;
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Minimum signals per batch: consecutive whole levels are grouped
/// until at least this many signals accumulate, and each batch's window
/// checks share one incremental solver. Chosen by a sweep over 8, 16,
/// 32 and 128 on the non-restoring dividers at n = 16/24/32
/// (EXPERIMENTS.md, "Sequential SBIF scan"): larger batches keep more
/// retired windows in one solver, which costs decisions and time.
const BATCH_SIGNALS: usize = 16;

/// Candidate buckets of one *signature epoch* (between two refinement
/// flushes the signatures, and hence the buckets, are immutable).
struct Epoch {
    /// Bucket id per signal.
    key_id: Vec<u32>,
    /// Signature normalization flip per signal (ε of Alg. 1). Depends
    /// only on the first simulation word, so it is stable across
    /// refinements — pair keys mean the same thing in every epoch.
    flip: Vec<bool>,
    /// Bucket members in ascending *scan-position* order.
    buckets: Vec<Vec<Sig>>,
}

impl Epoch {
    /// Candidate partners of `a`: same-bucket signals at earlier scan
    /// positions, nearest (in scan order) first.
    fn candidates<'e>(&'e self, a: Sig, pos: &'e [usize]) -> impl Iterator<Item = Sig> + 'e {
        let bucket = &self.buckets[self.key_id[a.index()] as usize];
        let upto = bucket.partition_point(|b| pos[b.index()] < pos[a.index()]);
        bucket[..upto].iter().rev().copied()
    }
}

/// Buckets signals by their normalized signature (complemented when the
/// first simulated bit is set, so equivalent and antivalent signals
/// share a bucket), members sorted by scan position.
fn build_epoch(signatures: &[Vec<u64>], pos: &[usize]) -> Epoch {
    let mut ids: HashMap<Vec<u64>, u32> = HashMap::new();
    let n = signatures.len();
    let mut key_id = Vec::with_capacity(n);
    let mut flip = Vec::with_capacity(n);
    let mut buckets: Vec<Vec<Sig>> = Vec::new();
    for (i, sig) in signatures.iter().enumerate() {
        let f = sig.first().is_some_and(|w| w & 1 == 1);
        let key: Vec<u64> = if f { sig.iter().map(|w| !w).collect() } else { sig.clone() };
        let next = buckets.len() as u32;
        let id = *ids.entry(key).or_insert(next);
        if id == next {
            buckets.push(Vec::new());
        }
        buckets[id as usize].push(Sig(i as u32));
        key_id.push(id);
        flip.push(f);
    }
    for b in &mut buckets {
        b.sort_unstable_by_key(|s| pos[s.index()]);
    }
    Epoch { key_id, flip, buckets }
}

/// Everything the scan evolves as it walks the level-major order:
/// classes, signatures, the derived buckets, and the buffered
/// counterexamples awaiting a refinement flush.
struct ScanState {
    classes: EquivClasses,
    signatures: Vec<Vec<u64>>,
    epoch: Epoch,
    /// Primary-input counterexamples buffered for the next flush.
    pending: Vec<Vec<bool>>,
}

impl ScanState {
    fn new(signatures: Vec<Vec<u64>>, n: usize, pos: &[usize]) -> Self {
        let epoch = build_epoch(&signatures, pos);
        ScanState { classes: EquivClasses::new(n), signatures, epoch, pending: Vec::new() }
    }

    /// `true` iff a level boundary should fold the buffer now.
    fn wants_flush(&self, cfg: &SbifConfig) -> bool {
        !self.pending.is_empty() && self.pending.len() >= cfg.cex_flush.max(1)
    }

    /// Folds the buffered counterexamples into the signatures as one
    /// simulation word (repeating them to fill all 64 bit lanes, so no
    /// lane carries an unconstrained all-zero pattern) and rebuilds the
    /// buckets.
    fn flush(&mut self, nl: &Netlist, pos: &[usize]) {
        let words: Vec<u64> = (0..nl.inputs().len())
            .map(|i| {
                let mut w = 0u64;
                for k in 0..64 {
                    if self.pending[k % self.pending.len()][i] {
                        w |= 1 << k;
                    }
                }
                w
            })
            .collect();
        let vals = nl.simulate64(&words);
        for (i, &v) in vals.iter().enumerate() {
            self.signatures[i].push(v);
        }
        self.pending.clear();
        self.epoch = build_epoch(&self.signatures, pos);
    }
}

/// Why a governed scan stopped early.
#[derive(Clone, Copy)]
enum Stop {
    /// The conflict ledger reached [`SbifGovernor::conflict_budget`].
    Exhausted,
    /// The watchdog's cancel token fired.
    Cancelled,
}

/// The governed stop check, polled before every window check. The
/// deterministic budget is checked before the (racy) cancel flag so
/// exhaustion always wins when both fire.
fn should_stop(governor: Option<&SbifGovernor>, stats: &SbifStats) -> Option<Stop> {
    let g = governor?;
    if g.conflict_budget.is_some_and(|limit| stats.solver.conflicts >= limit) {
        return Some(Stop::Exhausted);
    }
    if g.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
        return Some(Stop::Cancelled);
    }
    None
}

/// The fixed inputs of one scan.
struct Scan<'a> {
    nl: &'a Netlist,
    constraint: Option<Sig>,
    cfg: &'a SbifConfig,
    prefilter: Option<&'a SbifPrefilter>,
    governor: Option<&'a SbifGovernor>,
    sched: LevelSchedule,
}

impl Scan<'_> {
    /// Scans the levels of one batch on its shared window solver.
    fn batch(
        &self,
        range: Range<usize>,
        batch: &mut WindowBatch<'_>,
        state: &mut ScanState,
        stats: &mut SbifStats,
    ) -> Result<(), Stop> {
        for level in self.sched.level_runs(range) {
            // Refinement flush point: a level boundary.
            if state.wants_flush(self.cfg) {
                state.flush(self.nl, self.sched.pos());
                stats.refinements += 1;
            }
            for p in level {
                self.signal(self.sched.order()[p], batch, state, stats)?;
            }
        }
        Ok(())
    }

    /// The candidate scan of one signal (lines 5–11 of Alg. 1): up to
    /// [`SbifConfig::max_candidates`] distinct partner classes, stopping
    /// at the first proven merge.
    fn signal(
        &self,
        a: Sig,
        batch: &mut WindowBatch<'_>,
        state: &mut ScanState,
        stats: &mut SbifStats,
    ) -> Result<(), Stop> {
        let live = |s: Sig| self.prefilter.is_none_or(|p| p.is_live(s));
        if !live(a) {
            return Ok(());
        }
        let ScanState { classes, epoch, pending, .. } = state;
        let mut tried: Vec<Sig> = Vec::new();
        for b in epoch.candidates(a, self.sched.pos()) {
            if tried.len() >= self.cfg.max_candidates {
                break;
            }
            if !live(b) {
                continue;
            }
            let (ra, _) = classes.rep(a);
            let (rb, _) = classes.rep(b);
            if ra == rb || tried.contains(&rb) {
                continue;
            }
            if let Some(stop) = should_stop(self.governor, stats) {
                return Err(stop);
            }
            tried.push(rb);
            stats.candidates += 1;
            let eps = epoch.flip[a.index()] == epoch.flip[b.index()];
            let t0 = Instant::now();
            let outcome = match self
                .prefilter
                .and_then(|pf| pf.try_decide(self.nl, classes, a, b, eps, self.cfg.certify))
            {
                Some(o) => o,
                // Proof logging needs a pristine solver per window.
                None if self.cfg.certify => {
                    check_window_pair(self.nl, classes, self.constraint, a, b, eps, self.cfg)
                }
                None => batch.check(classes, a, b, eps),
            };
            stats.sat_micros += t0.elapsed().as_micros();
            stats.solver.absorb(outcome.solver);
            stats.sat_checks += 1;
            match outcome.prefiltered {
                None => stats.windows_solved += 1,
                Some(Prefiltered::Structural) => stats.prefilter_proven += 1,
                Some(Prefiltered::Signature) => stats.prefilter_refuted += 1,
            }
            match outcome.result {
                SolveResult::Unsat => {
                    // Under `certify`, the merge is gated on the
                    // independent checker accepting the logged refutation.
                    if let Some(c) = &outcome.cert {
                        stats.cert.record(c);
                        if !c.accepted {
                            stats.unknown += 1;
                            continue;
                        }
                    }
                    stats.proven += 1;
                    classes.union(a, b, !eps);
                    break;
                }
                SolveResult::Sat => {
                    stats.refuted += 1;
                    pending.extend(outcome.cex);
                }
                SolveResult::Unknown => stats.unknown += 1,
            }
        }
        Ok(())
    }
}

/// Runs the candidate detection and window checking over `signatures`.
pub(super) fn run(
    nl: &Netlist,
    constraint: Option<Sig>,
    signatures: Vec<Vec<u64>>,
    cfg: &SbifConfig,
    opts: SbifOptions<'_>,
) -> (EquivClasses, SbifStats) {
    let SbifOptions { prefilter, governor } = opts;
    let n = nl.num_signals();
    // Reuse the analysis framework's level map when the prefilter
    // carries one; recompute only without it.
    let levels = prefilter
        .map(|p| p.levels.clone())
        .filter(|l| l.len() == n)
        .unwrap_or_else(|| nl.levels());
    let sched = LevelSchedule::from_levels(levels, BATCH_SIGNALS);
    let mut stats = SbifStats { levels: sched.num_levels(), ..SbifStats::default() };
    let mut state = ScanState::new(signatures, n, sched.pos());
    let scan = Scan { nl, constraint, cfg, prefilter, governor, sched };
    for range in scan.sched.batches() {
        let mut batch = WindowBatch::new(nl, constraint, cfg);
        let result = scan.batch(range.clone(), &mut batch, &mut state, &mut stats);
        stats.solver_inits += batch.solver_inits();
        match result {
            Ok(()) => {}
            Err(Stop::Exhausted) => {
                stats.exhausted = true;
                break;
            }
            Err(Stop::Cancelled) => {
                stats.cancelled = true;
                break;
            }
        }
    }
    state.classes.compress();
    (state.classes, stats)
}
