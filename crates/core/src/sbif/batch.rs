//! Batched window checking: sibling checks of one scan batch share a
//! single incremental SAT solver (DESIGN.md §7).
//!
//! Per-window solver construction dominated the scan's cost:
//! every check re-encoded the constraint cone `C` and rebuilt solver
//! state from scratch, although sibling windows of one batch overlap
//! heavily. [`WindowBatch`] amortizes that setup:
//!
//! * the constraint cone is encoded **once**, unguarded — its clauses
//!   are identical for every check (they range over original gates, not
//!   class representatives);
//! * each check gets a fresh **activation literal** `g` guarding *all*
//!   of its window and difference clauses
//!   ([`Solver::add_clause_activated`]); the solve assumes `[g]`, and
//!   the guard is retired afterwards
//!   ([`Solver::retire_activation`]), permanently deactivating the
//!   check's clauses;
//! * learnt clauses survive between checks. Any learnt clause derived
//!   from a guarded clause carries the negated guard (assumption
//!   literals cannot be resolved away), so it is vacuously satisfiable
//!   for every sibling — only `C`-cone learnts actually constrain them,
//!   and those are sound for every check. Verdicts are therefore
//!   exactly what a fresh per-window solver would return, modulo the
//!   conflict-budget boundary (a shared solver may reach a verdict in a
//!   different number of conflicts; with the default budget of 2000
//!   against ~1–2 conflicts per window check this is unobservable).
//!
//! Window variables are shared through one [`NetlistEncoder`], but the
//! *clauses* are re-added (guarded) per check: local merges between two
//! checks change representative mappings, so a gate's CNF from an
//! earlier check may be stale. The per-check `encoded` set mirrors the
//! fresh path's exactly.

use super::{encode_window, EquivClasses, SbifConfig, WindowOutcome};
use sbif_netlist::{Netlist, Sig};
use sbif_sat::{Budget, Lit, NetlistEncoder, SolveResult, Solver};

/// A shared incremental solver for the window checks of one scan
/// batch. Construction is free; the solver and the `C`-cone encoding
/// are built lazily on the first [`check`](Self::check), so batches
/// whose candidates are all prefiltered never pay for one
/// ([`solver_inits`](Self::solver_inits) stays 0).
pub struct WindowBatch<'a> {
    nl: &'a Netlist,
    constraint: Option<Sig>,
    cfg: SbifConfig,
    shared: Option<Shared>,
    inits: usize,
    last_guard: Option<Lit>,
}

struct Shared {
    solver: Solver,
    enc: NetlistEncoder,
}

impl<'a> WindowBatch<'a> {
    /// Creates an empty batch solver over `nl` (no solver is built until
    /// the first check).
    pub fn new(nl: &'a Netlist, constraint: Option<Sig>, cfg: &SbifConfig) -> Self {
        WindowBatch {
            nl,
            constraint,
            cfg: *cfg,
            shared: None,
            inits: 0,
            last_guard: None,
        }
    }

    /// One windowed SAT check `UNSAT(CNF(a ⊕ b^ε, W_a, W_b, C))` on the
    /// shared solver — same contract as the per-window
    /// [`check_window_pair`](super::check_window_pair) (which it must
    /// agree with; see the [module docs](self)), except that no DRAT
    /// proof can be logged: certified runs use fresh per-window solvers.
    ///
    /// The returned outcome's [`solver`](WindowOutcome::solver) field
    /// holds this check's *delta* of the shared counters.
    pub fn check(
        &mut self,
        classes: &EquivClasses,
        a: Sig,
        b: Sig,
        same_polarity: bool,
    ) -> WindowOutcome {
        debug_assert!(!self.cfg.certify, "certified checks need per-window proof logging");
        let (nl, constraint) = (self.nl, self.constraint);
        let shared = self.shared.get_or_insert_with(|| {
            self.inits += 1;
            let mut solver = Solver::new();
            let mut enc = NetlistEncoder::new(nl);
            if let Some(c) = constraint {
                enc.encode_cone(&mut solver, nl, c);
                let lc = enc.lit(&mut solver, c);
                solver.add_clause([lc]);
            }
            Shared { solver, enc }
        });
        let (solver, enc) = (&mut shared.solver, &mut shared.enc);
        let before = solver.stats();
        let g = solver.new_activation();
        self.last_guard = Some(g);
        // The per-check `encoded` set deliberately ignores the shared
        // `C`-cone marks: the fresh path re-encodes window∩cone gates
        // too, and the guarded copies keep the clause structure (and so
        // the verdicts) aligned with it.
        let mut encoded: std::collections::HashSet<Sig> = std::collections::HashSet::new();
        for root in [a, b] {
            encode_window(
                nl,
                classes,
                solver,
                enc,
                &mut encoded,
                root,
                self.cfg.window_depth,
                Some(g),
            );
        }
        let la = enc.lit(solver, a);
        let lb = enc.lit(solver, b);
        if same_polarity {
            solver.add_clause_activated(g, [la, lb]);
            solver.add_clause_activated(g, [!la, !lb]);
        } else {
            solver.add_clause_activated(g, [la, !lb]);
            solver.add_clause_activated(g, [!la, lb]);
        }
        let result =
            solver.solve_with(&[g], Budget::new().with_conflicts(self.cfg.sat_conflicts));
        let cex = (result == SolveResult::Sat).then(|| {
            nl.inputs()
                .iter()
                .map(|&s| enc.peek_lit(s).and_then(|l| solver.model_lit(l)).unwrap_or(false))
                .collect()
        });
        solver.retire_activation(g);
        WindowOutcome {
            result,
            cex,
            cert: None,
            solver: solver.stats().since(&before),
            prefiltered: None,
        }
    }

    /// How many shared solvers were actually built (0 or 1).
    pub fn solver_inits(&self) -> usize {
        self.inits
    }

    /// Test-only sabotage hook: permanently *asserts* the last check's
    /// activation guard instead of retiring it, force-activating that
    /// check's window clauses for every later sibling. This is exactly
    /// the cross-window contamination the guard discipline rules out —
    /// the learnt-clause-reuse tests use it to show the isolation is
    /// doing real work.
    pub fn poison_last_guard(&mut self) {
        if let (Some(shared), Some(g)) = (self.shared.as_mut(), self.last_guard) {
            shared.solver.add_clause([g]);
        }
    }
}
