//! SAT Based Information Forwarding (Alg. 1 of the paper).
//!
//! Backward rewriting alone cannot see facts that only *forward*
//! propagation (from inputs to outputs) reveals — chiefly that the
//! adder/subtractor stages of a divider never overflow. SBIF forwards
//! that information as signal equivalences/antivalences:
//!
//! 1. simulate the circuit with random input vectors satisfying the
//!    input constraint `C` (candidate detection),
//! 2. for each signal, in topological order, check candidate partners
//!    with a SAT solver on *windows* of bounded depth `d_max` around both
//!    signals, with window fanins replaced by the topologically minimal
//!    representatives of their already-computed classes (information
//!    forwarding), under `C`,
//! 3. merge proven pairs into equivalence classes with polarity.
//!
//! The result feeds Alg. 2 ([`crate::rewrite`]): replacing every signal
//! by its class representative *before* substitution prevents the
//! exponential blow-up of Sect. III.

pub mod batch;
mod classes;
pub mod levels;
mod scan;
mod sim;

pub use batch::WindowBatch;
pub use classes::EquivClasses;
pub use levels::LevelSchedule;
pub use sim::{divider_sim_words, try_divider_sim_words};

use sbif_analysis::{canon_of, relate, CanonForm};
use sbif_check::{certify_unsat, CertOutcome, CertStats, DratStep};
use sbif_netlist::{Gate, Netlist, Sig};
use sbif_sat::{Budget, Lit, NetlistEncoder, SolveResult, Solver, SolverStats};

/// Configuration of Alg. 1.
#[derive(Debug, Clone, Copy)]
pub struct SbifConfig {
    /// Maximal window depth `d_max` (the paper reports depth 4 suffices
    /// for the key antivalences).
    pub window_depth: usize,
    /// Conflict budget per SAT check; exhausted checks count as
    /// "not proven" (sound: fewer merges, never wrong ones).
    pub sat_conflicts: u64,
    /// How many distinct candidate partners to try per signal before
    /// giving up on it.
    pub max_candidates: usize,
    /// Not read by the engine: the scan is sequential (see [`scan`]'s
    /// module documentation). Kept so existing configurations that set
    /// it still compile; cache keys normalize it away.
    pub jobs: usize,
    /// Number of window counterexamples buffered before they are folded
    /// into the simulation signatures as a refinement word, splitting
    /// candidate buckets so spurious pairs are not re-checked.
    pub cex_flush: usize,
    /// Log a DRAT proof for every window check and replay each UNSAT
    /// answer through the independent checker in `sbif-check`. A merge is
    /// only committed if its certificate is accepted; results are
    /// recorded in [`SbifStats::cert`].
    pub certify: bool,
}

impl Default for SbifConfig {
    fn default() -> Self {
        SbifConfig {
            window_depth: 4,
            sat_conflicts: 2_000,
            max_candidates: 4,
            jobs: 1,
            cex_flush: 64,
            certify: false,
        }
    }
}

/// Statistics of an Alg. 1 run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SbifStats {
    /// Simulation-detected candidate pairs examined.
    pub candidates: usize,
    /// SAT checks performed.
    pub sat_checks: usize,
    /// Equivalences/antivalences proven (the "#equiv" column of
    /// Table II).
    pub proven: usize,
    /// Candidates not proven: the SAT check found a counterexample
    /// *within the window*. Because window frontiers are free variables,
    /// this does not imply the signals actually differ — only that the
    /// window was too small to prove them equal.
    pub refuted: usize,
    /// Checks abandoned on the conflict budget.
    pub unknown: usize,
    /// Counterexample-driven signature refinements: rounds in which
    /// buffered SAT models were simulated and the candidate buckets
    /// rebuilt.
    pub refinements: usize,
    /// Wall-clock microseconds spent inside window checks.
    pub sat_micros: u128,
    /// DRAT certificate statistics over the UNSAT window checks (all
    /// zero unless [`SbifConfig::certify`] is set).
    pub cert: CertStats,
    /// CDCL solver effort totalled over the window checks, charged per
    /// check (for a shared [`WindowBatch`] solver: the check's delta).
    /// The scan is deterministic, so unlike
    /// [`sat_micros`](Self::sat_micros) these belong in the
    /// deterministic metrics report.
    pub solver: SolverStats,
    /// `true` when a governed run stopped scanning candidates because
    /// the cumulative solver-conflict ledger reached its budget
    /// ([`SbifGovernor::conflict_budget`]). The classes found up to the
    /// cut are sound; the cut is deterministic, because the budget is
    /// polled before every window check.
    pub exhausted: bool,
    /// `true` when the wall-clock watchdog cancelled the scan. Unlike
    /// [`exhausted`](Self::exhausted) this is *not* reproducible; a
    /// cancelled run must never be cached.
    pub cancelled: bool,
    /// Candidate decisions that actually built a window solver. Without
    /// a [`SbifPrefilter`] this equals [`sat_checks`](Self::sat_checks);
    /// the gap is the SAT work the static analysis saved.
    pub windows_solved: usize,
    /// Candidate pairs merged on a structural proof (canonical-form
    /// equality over class representatives) with no solver built.
    pub prefilter_proven: usize,
    /// Candidate pairs refuted by the shadow simulation signatures with
    /// no solver built.
    pub prefilter_refuted: usize,
    /// Topological levels of the scanned netlist — the scan's
    /// refinement-flush granularity (see [`levels::LevelSchedule`]).
    pub levels: usize,
    /// Shared incremental batch solvers built — at most one per batch,
    /// so far fewer than [`windows_solved`](Self::windows_solved) on the
    /// divider workloads. The fresh per-window solvers of certified runs
    /// are *not* counted here.
    pub solver_inits: usize,
}

/// How the prefilter decided a candidate pair without a solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefiltered {
    /// Structurally proven: the two gates are the same canonical
    /// function of the same class representatives.
    Structural,
    /// Refuted by a shadow-signature mismatch; the counterexample comes
    /// from the shadow input planes.
    Signature,
}

/// Static facts that let Alg. 1 decide candidate pairs without building
/// a window solver — the bridge from `sbif-analysis` into the scan
/// (constructed in `verify.rs` from an `AnalysisDb`).
///
/// Both shortcut directions return exactly the verdict the solver would
/// have returned, so the resulting classes are the ones Alg. 1 computes:
///
/// * **structural proofs** compare the two gates' canonical forms over
///   their current class representatives and only accept relations that
///   hold clause-by-clause in the window CNF (commutativity, De Morgan,
///   same-leaf reductions, or one root aliasing the other) — cases the
///   solver refutes by a handful of unit propagations;
/// * **signature refutations** require `shadow`/`planes` to come from
///   constraint-satisfying stimulus: a mismatching plane then extends to
///   a satisfying assignment of the window CNF (class representatives
///   agree with their members on every C-satisfying input), i.e. the
///   solver would answer SAT. Unconstrained planes would still be sound
///   for the classes (refuting only skips merges) but would diverge from
///   the solver's verdicts.
#[derive(Debug, Clone, Default)]
pub struct SbifPrefilter {
    /// Shadow signatures `[signal][word]` from an independent
    /// constraint-satisfying stimulus set (disjoint from the candidate
    /// detection planes).
    pub shadow: Vec<Vec<u64>>,
    /// The input planes `[input][word]` behind `shadow`; mismatches are
    /// turned into counterexamples by reading one bit column.
    pub planes: Vec<Vec<u64>>,
    /// Scan mask from cone-of-influence slicing: `false` marks signals
    /// outside every output/constraint cone, which the scan skips
    /// entirely. An empty mask disables the skipping.
    pub live: Vec<bool>,
    /// Precomputed topological levels (index-addressed, one entry per
    /// signal), letting the level scheduler reuse the traversal the
    /// static-analysis framework already did instead of recomputing
    /// `Netlist::levels()`. Leave empty to have the scan derive them.
    pub levels: Vec<usize>,
}

impl SbifPrefilter {
    /// `false` iff cone slicing marked `s` dead.
    pub(super) fn is_live(&self, s: Sig) -> bool {
        self.live.get(s.index()).copied().unwrap_or(true)
    }

    /// Tries to decide the candidate `(a, b, ε)` without a solver;
    /// `None` falls through to a window solver (batched, or fresh under
    /// `certify`).
    ///
    /// Structural proofs are skipped under `certify` — a prefiltered
    /// merge carries no DRAT certificate, and a certified run promises
    /// one per merge. Signature refutations never certify (SAT answers
    /// have witnesses, not proofs) and stay active.
    fn try_decide(
        &self,
        nl: &Netlist,
        classes: &EquivClasses,
        a: Sig,
        b: Sig,
        same_polarity: bool,
        certify: bool,
    ) -> Option<WindowOutcome> {
        if !certify {
            let ca = canon_of(nl.gate(a), |s| classes.rep(s));
            let cb = canon_of(nl.gate(b), |s| classes.rep(s));
            // Forced relation a = b ^ anti, when the forms expose one.
            // Besides identical shapes, `a` may alias `b` directly: the
            // window maps `a`'s fanin to its representative, and when
            // that representative *is* `b` the CNF ties the roots
            // together (`b` is a candidate, hence earlier than `a`; the
            // reverse aliasing cannot occur).
            let anti = match (&ca, &cb) {
                (Some(x), Some(y)) => relate(x, y),
                _ => None,
            }
            .or(match ca {
                Some(CanonForm::Lit(l, p)) if l == b => Some(p),
                _ => None,
            });
            if let Some(anti) = anti {
                // ε claims equivalence, ¬ε antivalence; a mismatching
                // forced relation would mean the candidate signatures
                // contradict a fact that holds under C — impossible with
                // C-satisfying stimulus — so fall through defensively.
                if anti != same_polarity {
                    return Some(WindowOutcome {
                        result: SolveResult::Unsat,
                        cex: None,
                        cert: None,
                        solver: SolverStats::default(),
                        prefiltered: Some(Prefiltered::Structural),
                    });
                }
            }
        }
        // Shadow-signature refutation: a pure function of `(a, b, ε)`.
        let (sa, sb) = (self.shadow.get(a.index())?, self.shadow.get(b.index())?);
        for (w, (&wa, &wb)) in sa.iter().zip(sb).enumerate() {
            let mismatch = if same_polarity { wa ^ wb } else { !(wa ^ wb) };
            if mismatch != 0 {
                let k = mismatch.trailing_zeros();
                let cex = self.planes.iter().map(|p| (p[w] >> k) & 1 == 1).collect();
                return Some(WindowOutcome {
                    result: SolveResult::Sat,
                    cex: Some(cex),
                    cert: None,
                    solver: SolverStats::default(),
                    prefiltered: Some(Prefiltered::Signature),
                });
            }
        }
        None
    }
}

/// Optional hooks of an Alg. 1 run; the default runs the plain scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct SbifOptions<'a> {
    /// Static-analysis prefilter: candidate pairs it decides never build
    /// a window solver, and — when it carries a cone mask — dead signals
    /// are skipped entirely (this changes how the scan spends its
    /// candidate slots, so only the maskless prefilter guarantees
    /// classes identical to the plain run).
    pub prefilter: Option<&'a SbifPrefilter>,
    /// Conflict budget and cancel token: the scan stops early when the
    /// budget is exhausted (deterministically — see
    /// [`SbifStats::exhausted`]) or the cancel token fires.
    pub governor: Option<&'a SbifGovernor>,
}

/// Runs Alg. 1: partitions the signals of `nl` into equivalence classes
/// (with polarity) under the input constraint.
///
/// `constraint` is a signal of `nl` that must be assumed 1 in every SAT
/// check (pass `None` for unconstrained sweeping); `sim_words` are the
/// simulation words per input — they must satisfy the constraint (see
/// [`divider_sim_words`]).
///
/// # Examples
///
/// ```
/// use sbif_core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifOptions};
/// use sbif_netlist::build::nonrestoring_divider;
///
/// let div = nonrestoring_divider(3);
/// let sim = divider_sim_words(&div, 1, 2);
/// let (classes, stats) = forward_information(
///     &div.netlist,
///     Some(div.constraint),
///     &sim,
///     SbifConfig::default(),
///     SbifOptions::default(),
/// );
/// assert!(stats.proven > 0);
/// // The paper's key fact: each quotient bit is antivalent to the sign
/// // bit of its stage's partial remainder.
/// for (j, &sign) in div.stage_signs.iter().enumerate() {
///     let q = div.quotient[div.n - 1 - j];
///     let (rq, pq) = classes.rep(q);
///     let (rs, ps) = classes.rep(sign);
///     assert_eq!(rq, rs);
///     assert_eq!(pq, !ps);
/// }
/// ```
pub fn forward_information(
    nl: &Netlist,
    constraint: Option<Sig>,
    sim_words: &[Vec<u64>],
    cfg: SbifConfig,
    opts: SbifOptions<'_>,
) -> (EquivClasses, SbifStats) {
    let num_words = sim_words.first().map_or(0, |v| v.len());

    // Line 2 of Alg. 1: simulate; build per-signal signatures.
    let mut signatures: Vec<Vec<u64>> = vec![Vec::new(); nl.num_signals()];
    for w in 0..num_words {
        let plane: Vec<u64> = sim_words.iter().map(|v| v[w]).collect();
        let vals = nl.simulate64(&plane);
        for (s, &v) in vals.iter().enumerate() {
            signatures[s].push(v);
        }
    }

    // Lines 5–11: candidate detection and window checking.
    scan::run(nl, constraint, signatures, &cfg, opts)
}

/// Governed-run hooks for Alg. 1 (DESIGN.md §16): a cumulative budget
/// on the solver-conflict ledger, and the wall-clock watchdog's cancel
/// token. Both are polled before every window check — the budget before
/// the cancel flag, so a deterministic exhaustion always wins over a
/// racing cancellation.
#[derive(Debug, Clone, Default)]
pub struct SbifGovernor {
    /// Stop scanning once the conflict total ([`SbifStats::solver`])
    /// reaches this. A check in flight finishes, so the total stops
    /// below `budget + sat_conflicts`. Partial classes are always sound
    /// (fewer merges, never wrong ones).
    pub conflict_budget: Option<u64>,
    /// Cooperative cancellation (sets [`SbifStats::cancelled`]).
    pub cancel: Option<sbif_govern::CancelToken>,
}

/// One windowed SAT check (line 10 of Alg. 1):
/// `UNSAT(CNF(a ⊕ b^ε, W_a, W_b, C))`.
///
/// The windows contain the gates up to `d_max` levels behind `a` and `b`,
/// with every fanin first replaced by the representative of its class
/// (information forwarding); window frontiers are free variables, which
/// keeps UNSAT answers sound. The constraint cone is encoded over the
/// original gates.
///
/// Returns the solver verdict, for SAT verdicts the primary-input
/// counterexample, and with [`SbifConfig::certify`] the DRAT-check
/// outcome of every UNSAT verdict.
///
/// Each call builds a fresh solver. Certified scans use it for every
/// window (each check logs its own proof); it is also the reference
/// oracle for the batched path: a [`WindowBatch`] check of the same
/// `(a, b, ε)` over the same classes must return the same verdict (the
/// differential property suite in `tests/parallel_levels.rs` enforces
/// this on random netlists).
pub fn check_window_pair(
    nl: &Netlist,
    classes: &EquivClasses,
    constraint: Option<Sig>,
    a: Sig,
    b: Sig,
    same_polarity: bool,
    cfg: &SbifConfig,
) -> WindowOutcome {
    let mut solver = Solver::new();
    if cfg.certify {
        solver.enable_proof_log();
    }
    let mut enc = NetlistEncoder::new(nl);
    if let Some(c) = constraint {
        enc.encode_cone(&mut solver, nl, c);
        let lc = enc.lit(&mut solver, c);
        solver.add_clause([lc]);
    }
    // Encode both windows with representative-mapped fanins.
    let mut encoded: std::collections::HashSet<Sig> = std::collections::HashSet::new();
    for root in [a, b] {
        encode_window(
            nl,
            classes,
            &mut solver,
            &mut enc,
            &mut encoded,
            root,
            cfg.window_depth,
            None,
        );
    }
    let la = enc.lit(&mut solver, a);
    let lb = enc.lit(&mut solver, b);
    // Candidate equivalence: assert a ≠ b; candidate antivalence: a = b.
    if same_polarity {
        solver.add_clause([la, lb]);
        solver.add_clause([!la, !lb]);
    } else {
        solver.add_clause([la, !lb]);
        solver.add_clause([!la, lb]);
    }
    let result = solver.solve_with(&[], Budget::new().with_conflicts(cfg.sat_conflicts));
    let cex = (result == SolveResult::Sat).then(|| {
        nl.inputs()
            .iter()
            .map(|&s| {
                enc.peek_lit(s).and_then(|l| solver.model_lit(l)).unwrap_or(false)
            })
            .collect()
    });
    let cert =
        (cfg.certify && result == SolveResult::Unsat).then(|| certify_solver_unsat(&solver));
    WindowOutcome { result, cex, cert, solver: solver.stats(), prefiltered: None }
}

/// Everything one windowed SAT check produced (see
/// [`check_window_pair`]).
#[derive(Debug, Clone)]
pub struct WindowOutcome {
    /// The solver verdict.
    pub result: SolveResult,
    /// Primary-input counterexample for SAT verdicts.
    pub cex: Option<Vec<bool>>,
    /// DRAT-check outcome for certified UNSAT verdicts.
    pub cert: Option<CertOutcome>,
    /// The solver's counters for this one check (for a [`WindowBatch`]
    /// check: the delta of the shared solver's counters).
    pub solver: SolverStats,
    /// `Some` when the prefilter answered and no solver was built.
    pub prefiltered: Option<Prefiltered>,
}

/// Replays the UNSAT answer of a proof-logging solver through the
/// independent DRAT checker in `sbif-check`.
///
/// The solver must have been created with `enable_proof_log()` and have
/// just returned `Unsat`; the failed-assumption subset (empty for a
/// plain refutation) closes the gap to the empty clause.
pub(crate) fn certify_solver_unsat(solver: &Solver) -> CertOutcome {
    let proof = solver.proof().expect("certify requires enable_proof_log()");
    let steps: Vec<DratStep> = proof
        .steps()
        .iter()
        .map(|e| {
            if e.delete {
                DratStep::delete(e.lits.clone())
            } else {
                DratStep::add(e.lits.clone())
            }
        })
        .collect();
    let failed: Vec<i32> = solver.unsat_assumptions().map(|l| l.to_dimacs() as i32).collect();
    certify_unsat(proof.formula(), &steps, &failed)
}

/// Adds a gate clause: guarded by an activation literal on the batched
/// path ([`WindowBatch`]), plain on the per-window path.
fn emit_clause<const N: usize>(solver: &mut Solver, guard: Option<Lit>, lits: [Lit; N]) {
    match guard {
        Some(g) => {
            solver.add_clause_activated(g, lits);
        }
        None => {
            solver.add_clause(lits);
        }
    }
}

/// Encodes the window `W_root` of depth `d_max`: a BFS backwards from
/// `root` where every predecessor is first mapped to its class
/// representative. With a `guard`, every emitted clause is
/// assumption-guarded (the batched path); variables are allocated
/// unguarded either way.
#[allow(clippy::too_many_arguments)]
fn encode_window(
    nl: &Netlist,
    classes: &EquivClasses,
    solver: &mut Solver,
    enc: &mut NetlistEncoder,
    encoded: &mut std::collections::HashSet<Sig>,
    root: Sig,
    depth: usize,
    guard: Option<Lit>,
) {
    let mut queue: Vec<(Sig, usize)> = vec![(root, 0)];
    while let Some((s, d)) = queue.pop() {
        if !encoded.insert(s) {
            continue;
        }
        let out = enc.lit(solver, s);
        match *nl.gate(s) {
            Gate::Input => {}
            Gate::Const(v) => {
                emit_clause(solver, guard, [if v { out } else { !out }]);
            }
            Gate::Unary(op, x) => {
                let lx = mapped_lit(classes, solver, enc, x);
                let rhs = match op {
                    sbif_netlist::UnaryOp::Buf => lx,
                    sbif_netlist::UnaryOp::Not => !lx,
                };
                emit_clause(solver, guard, [!out, rhs]);
                emit_clause(solver, guard, [out, !rhs]);
                if d < depth {
                    queue.push((classes.rep(x).0, d + 1));
                }
            }
            Gate::Binary(op, x, y) => {
                let lx = mapped_lit(classes, solver, enc, x);
                let ly = mapped_lit(classes, solver, enc, y);
                add_binop_clauses(solver, guard, op, out, lx, ly);
                if d < depth {
                    queue.push((classes.rep(x).0, d + 1));
                    queue.push((classes.rep(y).0, d + 1));
                }
            }
        }
    }
}

/// The literal of `rep(s)`, negated when `s` is antivalent to its
/// representative.
fn mapped_lit(classes: &EquivClasses, solver: &mut Solver, enc: &mut NetlistEncoder, s: Sig) -> Lit {
    let (r, neg) = classes.rep(s);
    let l = enc.lit(solver, r);
    if neg {
        !l
    } else {
        l
    }
}

/// CNF clauses for `out = x <op> y`, optionally activation-guarded.
fn add_binop_clauses(
    solver: &mut Solver,
    guard: Option<Lit>,
    op: sbif_netlist::BinOp,
    out: Lit,
    x: Lit,
    y: Lit,
) {
    use sbif_netlist::BinOp::*;
    let and = |solver: &mut Solver, o: Lit, a: Lit, b: Lit| {
        emit_clause(solver, guard, [!o, a]);
        emit_clause(solver, guard, [!o, b]);
        emit_clause(solver, guard, [o, !a, !b]);
    };
    let xor = |solver: &mut Solver, o: Lit, a: Lit, b: Lit| {
        emit_clause(solver, guard, [!o, a, b]);
        emit_clause(solver, guard, [!o, !a, !b]);
        emit_clause(solver, guard, [o, !a, b]);
        emit_clause(solver, guard, [o, a, !b]);
    };
    match op {
        And => and(solver, out, x, y),
        Nand => and(solver, !out, x, y),
        Or => and(solver, !out, !x, !y),
        Nor => and(solver, out, !x, !y),
        AndNot => and(solver, out, x, !y),
        Xor => xor(solver, out, x, y),
        Xnor => xor(solver, !out, x, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_netlist::build::{
        array_divider, nonrestoring_divider, restoring_divider, srt_divider,
    };

    fn plain(
        nl: &Netlist,
        constraint: Option<Sig>,
        sim: &[Vec<u64>],
        cfg: SbifConfig,
    ) -> (EquivClasses, SbifStats) {
        forward_information(nl, constraint, sim, cfg, SbifOptions::default())
    }

    /// All class facts must hold on every valid input (soundness of the
    /// whole Alg. 1 pipeline).
    #[test]
    fn classes_are_sound_under_constraint() {
        for n in [2usize, 3, 4] {
            let div = nonrestoring_divider(n);
            let sim = divider_sim_words(&div, 3, 2);
            let (classes, _) = plain(
                &div.netlist,
                Some(div.constraint),
                &sim,
                SbifConfig::default(),
            );
            // exhaustive check over valid inputs
            for dv in 1u64..(1 << (n - 1)) {
                for r0 in 0..(dv << (n - 1)) {
                    let inputs: Vec<bool> = div
                        .netlist
                        .inputs()
                        .iter()
                        .map(|&s| {
                            let name = div.netlist.name(s).expect("named");
                            let (bus, idx) = name.split_once('[').map(|(b, r)| {
                                (b, r.trim_end_matches(']').parse::<usize>().expect("idx"))
                            }).expect("bus");
                            let v = if bus == "r0" { r0 } else { dv };
                            (v >> idx) & 1 == 1
                        })
                        .collect();
                    let vals = div.netlist.simulate_bool(&inputs);
                    for s in div.netlist.signals() {
                        let (r, neg) = classes.rep(s);
                        assert_eq!(
                            vals[s.index()],
                            vals[r.index()] ^ neg,
                            "n={n} r0={r0} d={dv}: {s} vs rep {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quotient_sign_antivalences_found() {
        let div = nonrestoring_divider(5);
        let sim = divider_sim_words(&div, 11, 2);
        let (classes, stats) = plain(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
        );
        assert!(stats.proven > 0);
        for (j, &sign) in div.stage_signs.iter().enumerate() {
            let q = div.quotient[div.n - 1 - j];
            let (rq, pq) = classes.rep(q);
            let (rs, ps) = classes.rep(sign);
            assert_eq!(rq, rs, "stage {j}: q and sign must share a class");
            assert_eq!(pq, !ps, "stage {j}: antivalent polarity");
        }
    }

    #[test]
    fn stage_controls_antivalent_to_previous_signs() {
        // ctrl_j = ¬sign_{j−1} — the fact that kills the overflow terms.
        let div = nonrestoring_divider(4);
        let sim = divider_sim_words(&div, 5, 2);
        let (classes, _) = plain(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
        );
        // At least one non-singleton class must contain a stage sign.
        let has_sign_class = div
            .stage_signs
            .iter()
            .any(|&s| !classes.is_rep(s) || classes.classes().iter().any(|(r, _)| *r == s));
        assert!(has_sign_class);
    }

    #[test]
    fn constant_signals_collapse_onto_constants() {
        // For n = 2 the constraint forces d[0] = 1 and r0[2] = 0, so
        // those inputs join the constant classes; the representatives
        // are the constants (they are created first).
        let div = nonrestoring_divider(2);
        let sim = divider_sim_words(&div, 17, 2);
        let (classes, _) = plain(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
        );
        let d0 = div.netlist.inputs()[2]; // r0[0], r0[1], d[0]
        assert_eq!(div.netlist.name(d0), Some("d[0]"));
        let (rep, neg) = classes.rep(d0);
        // d[0] ≡ 1 under C: merged with a constant signal.
        assert!(div.netlist.gate(rep).is_const(), "rep of d[0] must be a constant");
        let const_val = div.netlist.const_value(rep).expect("const");
        assert!(const_val ^ neg, "d[0] is 1 under C");
    }

    #[test]
    fn unconstrained_sweep_is_sound_everywhere() {
        let div = nonrestoring_divider(3);
        // Unconstrained: simulate with arbitrary input patterns.
        let ni = div.netlist.inputs().len();
        let sim: Vec<Vec<u64>> = (0..ni)
            .map(|i| vec![0x9E3779B97F4A7C15u64.rotate_left(7 * i as u32)])
            .collect();
        let (classes, _) = plain(&div.netlist, None, &sim, SbifConfig::default());
        for bits in 0u64..(1 << ni) {
            let inputs: Vec<bool> = (0..ni).map(|i| (bits >> i) & 1 == 1).collect();
            let vals = div.netlist.simulate_bool(&inputs);
            for s in div.netlist.signals() {
                let (r, neg) = classes.rep(s);
                assert_eq!(vals[s.index()], vals[r.index()] ^ neg, "bits={bits:b}");
            }
        }
    }

    /// Certified scans check every window on a fresh proof-logging
    /// solver, so this is a whole-run differential between the batched
    /// and the fresh-solver paths: same classes, and every merge carries
    /// exactly one accepted certificate.
    #[test]
    fn certified_run_checks_every_merge() {
        let builders: [(&str, fn(usize) -> sbif_netlist::build::Divider); 4] = [
            ("nonrestoring", nonrestoring_divider),
            ("restoring", restoring_divider),
            ("array", array_divider),
            ("srt", srt_divider),
        ];
        for (arch, build) in builders {
            for n in 4..=6 {
                let div = build(n);
                let sim = divider_sim_words(&div, 7, 2);
                let batched = SbifConfig::default();
                let fresh = SbifConfig { certify: true, ..batched };
                let (classes_p, stats_p) =
                    plain(&div.netlist, Some(div.constraint), &sim, batched);
                let (classes_c, stats_c) = plain(&div.netlist, Some(div.constraint), &sim, fresh);
                let label = format!("{arch} {n}");
                assert_eq!(stats_c.cert.checked as usize, stats_c.proven, "{label}");
                assert!(stats_c.cert.all_accepted(), "{label}: rejected {}", stats_c.cert.rejected);
                assert!(stats_c.cert.checked > 0, "{label}");
                assert!(stats_c.cert.steps_used <= stats_c.cert.steps_logged, "{label}");
                assert_eq!(stats_p.proven, stats_c.proven, "{label}");
                for s in div.netlist.signals() {
                    assert_eq!(classes_p.rep(s), classes_c.rep(s), "{label}: {s}");
                }
                // The batched run logs nothing and builds no fresh solvers
                // into its init count; the certified run uses none shared.
                assert_eq!(stats_p.cert, sbif_check::CertStats::default(), "{label}");
                assert_eq!(stats_c.solver_inits, 0, "{label}");
            }
        }
    }

    #[test]
    fn depth_zero_windows_prove_nothing_semantic() {
        // With d_max = 0 only the roots' own gates are encoded; the
        // quotient/sign antivalence needs at least the shared fanins, so
        // far fewer facts are provable than with depth 4.
        let div = nonrestoring_divider(4);
        let sim = divider_sim_words(&div, 9, 2);
        let shallow = SbifConfig { window_depth: 0, ..SbifConfig::default() };
        let (_, s0) =
            plain(&div.netlist, Some(div.constraint), &sim, shallow);
        let (_, s4) = plain(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
        );
        assert!(s4.proven > s0.proven, "deeper windows must prove more ({} vs {})", s4.proven, s0.proven);
    }
}
