//! The workspace resource governor (DESIGN.md §16).
//!
//! Every engine in the pipeline can blow up: SBIF forwarding on SRT
//! dividers, backward rewriting past the term limit, vc2's BDD at
//! n = 48, the classifier's miter SAT calls. This crate gives all of
//! them one vocabulary for *governed* exhaustion — a typed
//! [`Exhausted`] outcome naming the stage, the [`Resource`] that ran
//! out and how much of it was spent — and a three-valued [`Verdict`]
//! (`Proven` / `Refuted` / `Inconclusive { exhausted_at }`) that the
//! verification flow, the result cache and the CLIs surface end to end.
//!
//! # Determinism rules
//!
//! Budgets come in two kinds, and the distinction carries the repo's
//! byte-identical metrics contract:
//!
//! * **Deterministic units** — SAT conflicts and propagations, BDD
//!   live-node counts, rewrite term counts, SBIF windows, analysis pass
//!   steps. These are accounted at fixed points (scheduling-independent),
//!   so whether a budget trips, and the exact `spent` value it reports,
//!   is identical run to run. Verdicts and `govern.*`
//!   counters derived from them are cacheable.
//! * **Wall clock** — the optional watchdog. It only ever *cancels*
//!   (sets a [`CancelToken`] that engines poll cooperatively); it never
//!   alters a committed metric. A run cut short by the watchdog is
//!   marked non-reproducible ([`Exhausted::deterministic`] is `false`)
//!   and must never be written to the result cache.
//!
//! The crate is std-only and dependency-free, like the rest of the
//! workspace; engine crates that must not depend on it (`sbif-sat`,
//! `sbif-bdd` sit below it in the dependency order) expose their own
//! primitive limit/interrupt hooks, which `sbif-core` adapts onto these
//! types.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A budgetable resource. The unit of `spent`/`limit` depends on the
/// variant: conflicts, propagations, nodes, terms, windows, steps — or
/// milliseconds for [`Resource::WallClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// CDCL conflicts (deterministic; accounted commit-side in SBIF).
    SatConflicts,
    /// CDCL propagations (deterministic).
    SatPropagations,
    /// Live BDD nodes in the vc2 manager (deterministic).
    BddLiveNodes,
    /// Polynomial terms during backward rewriting (deterministic).
    RewriteTerms,
    /// SBIF window checks (deterministic).
    SbifWindows,
    /// Static-analysis pass steps (deterministic).
    AnalysisSteps,
    /// Wall-clock milliseconds — the watchdog. Never deterministic.
    WallClock,
}

impl Resource {
    /// Stable kebab-case name, used in metrics keys, cache stamps and
    /// CLI/daemon output.
    pub fn name(self) -> &'static str {
        match self {
            Resource::SatConflicts => "sat-conflicts",
            Resource::SatPropagations => "sat-propagations",
            Resource::BddLiveNodes => "bdd-live-nodes",
            Resource::RewriteTerms => "rewrite-terms",
            Resource::SbifWindows => "sbif-windows",
            Resource::AnalysisSteps => "analysis-steps",
            Resource::WallClock => "wall-clock",
        }
    }

    /// `true` iff exhaustion of this resource is a scheduling-
    /// independent fact (reproducible run to run, cacheable).
    pub fn deterministic(self) -> bool {
        !matches!(self, Resource::WallClock)
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed budget-exhaustion outcome: which pipeline stage gave up, on
/// which resource, and how much it had consumed when it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// Pipeline stage, e.g. `"sbif"`, `"rewrite"`, `"vc2"`,
    /// `"vc2-sat"`, `"classify"`.
    pub stage: &'static str,
    /// What ran out.
    pub resource: Resource,
    /// Amount consumed when the engine stopped (same unit as `limit`;
    /// may exceed `limit` slightly — poll points are cooperative).
    pub spent: u64,
    /// The configured ceiling.
    pub limit: u64,
}

impl Exhausted {
    /// `true` iff this exhaustion is reproducible (see
    /// [`Resource::deterministic`]); wall-clock cancellations are not,
    /// and their runs must never be cached.
    pub fn deterministic(&self) -> bool {
        self.resource.deterministic()
    }
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} exhausted {} ({} spent of {} budget)",
            self.stage, self.resource, self.spent, self.limit
        )
    }
}

/// The three-valued outcome of a governed verification flow.
///
/// `Proven` and `Refuted` are definitive regardless of the budget that
/// produced them (a proof found inside a small budget is still a
/// proof). `Inconclusive` is budget-relative: it names the first
/// exhaustion on the fallback ladder that could not be recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both verification conditions hold.
    Proven,
    /// A counterexample or failed condition was found.
    Refuted,
    /// Some stage exhausted its budget and no fallback settled the
    /// question.
    Inconclusive {
        /// The unrecovered exhaustion.
        exhausted_at: Exhausted,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Proven`].
    pub fn is_proven(&self) -> bool {
        matches!(self, Verdict::Proven)
    }

    /// `true` for [`Verdict::Inconclusive`].
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Verdict::Inconclusive { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Proven => f.write_str("proven"),
            Verdict::Refuted => f.write_str("refuted"),
            Verdict::Inconclusive { exhausted_at } => {
                write!(f, "inconclusive ({exhausted_at})")
            }
        }
    }
}

/// A shared cooperative cancellation flag.
///
/// Cloning is cheap and shares the flag. Engines poll
/// [`CancelToken::is_cancelled`] at their natural budget poll points;
/// nothing is ever interrupted preemptively, so committed metrics stay
/// deterministic even when a run is cut short.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Sets the flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Polls the flag.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The raw flag, for engine crates (`sbif-sat`, `sbif-bdd`) that
    /// expose an `Arc<AtomicBool>` interrupt hook instead of depending
    /// on this crate.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// A wall-clock watchdog: a background thread that cancels `token`
/// once `timeout` has elapsed. Dropping the watchdog disarms it (the
/// thread is woken and joined), so a run that finishes in time is
/// never cancelled retroactively.
#[derive(Debug)]
pub struct Watchdog {
    disarm: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Arms a watchdog over `token`. The thread polls its own disarm
    /// flag every 10 ms (bounded join latency) and fires at most once.
    pub fn arm(timeout: Duration, token: &CancelToken) -> Watchdog {
        let disarm = Arc::new(AtomicBool::new(false));
        let thread_disarm = Arc::clone(&disarm);
        let token = token.clone();
        let handle = std::thread::Builder::new()
            .name("sbif-watchdog".to_string())
            .spawn(move || {
                let tick = Duration::from_millis(10);
                let deadline = std::time::Instant::now() + timeout;
                while !thread_disarm.load(Ordering::Relaxed) {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        token.cancel();
                        return;
                    }
                    std::thread::sleep(tick.min(deadline - now));
                }
            })
            .expect("watchdog thread spawns");
        Watchdog { disarm, handle: Some(handle) }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.disarm.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Budget configuration for one verification flow. All-`None` (the
/// default) is *ungoverned*: every engine behaves exactly as before,
/// byte for byte — term-limit aborts stay hard errors, nothing polls,
/// nothing is stamped. Setting any field turns governed degradation
/// on for that stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernConfig {
    /// Cumulative committed SBIF solver conflicts across all window
    /// checks; exhaustion stops scanning further candidates (the
    /// classes found so far remain sound) and the flow continues.
    pub sbif_conflicts: Option<u64>,
    /// Backward-rewriting term ceiling; exhaustion becomes an
    /// `Inconclusive` verdict instead of a `TermLimitExceeded` error.
    pub rewrite_terms: Option<usize>,
    /// Live-node ceiling for the vc2 BDD manager; exhaustion falls
    /// back to a bounded SAT check of the vc2 property.
    pub vc2_live_nodes: Option<usize>,
    /// Conflict budget for the vc2 SAT fallback (also used when only
    /// `vc2_live_nodes` is set, at [`GovernConfig::DEFAULT_VC2_SAT_CONFLICTS`]).
    pub vc2_sat_conflicts: Option<u64>,
    /// Wall-clock watchdog for the whole flow, in milliseconds. Only
    /// cancels; never alters committed metrics. Cancelled runs are
    /// never cached.
    pub timeout_ms: Option<u64>,
}

impl GovernConfig {
    /// Conflict budget for the vc2 SAT fallback when none is
    /// configured explicitly.
    pub const DEFAULT_VC2_SAT_CONFLICTS: u64 = 1_000_000;

    /// `true` when any budget (deterministic or wall-clock) is set.
    pub fn is_active(&self) -> bool {
        *self != GovernConfig::default()
    }

    /// `true` when any *deterministic* budget is set (the watchdog
    /// alone does not change committed outcomes).
    pub fn has_deterministic_budget(&self) -> bool {
        self.sbif_conflicts.is_some()
            || self.rewrite_terms.is_some()
            || self.vc2_live_nodes.is_some()
            || self.vc2_sat_conflicts.is_some()
    }

    /// The canonical budget stamp bound into cached `Inconclusive`
    /// entries: an inconclusive result is only valid for the *exact*
    /// deterministic budget that produced it — a bigger (or smaller)
    /// budget must be a cache miss, not a stale hit. `Proven` and
    /// `Refuted` entries ignore the stamp (a proof is a proof). The
    /// wall clock is deliberately excluded: watchdog-cancelled runs
    /// are never cached at all.
    pub fn budget_stamp(&self) -> String {
        format!(
            "sbif-govern-v1 sbif_conflicts={:?} rewrite_terms={:?} \
             vc2_live_nodes={:?} vc2_sat_conflicts={:?}",
            self.sbif_conflicts, self.rewrite_terms, self.vc2_live_nodes, self.vc2_sat_conflicts
        )
    }
}

/// The geometric escalation ladder for retrying a budget-limited check
/// (classifier `unknown` recovery): `base`, `base*factor`,
/// `base*factor²`, … — `rungs` budgets in total, deterministically.
pub fn escalation_ladder(base: u64, factor: u64, rungs: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(rungs);
    let mut b = base.max(1);
    for _ in 0..rungs {
        out.push(b);
        b = b.saturating_mul(factor.max(2));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_names_are_stable_and_wall_clock_is_nondeterministic() {
        assert_eq!(Resource::SatConflicts.name(), "sat-conflicts");
        assert_eq!(Resource::BddLiveNodes.name(), "bdd-live-nodes");
        assert!(Resource::SatConflicts.deterministic());
        assert!(Resource::RewriteTerms.deterministic());
        assert!(!Resource::WallClock.deterministic());
    }

    #[test]
    fn exhausted_displays_stage_resource_and_accounting() {
        let e = Exhausted {
            stage: "vc2",
            resource: Resource::BddLiveNodes,
            spent: 150_000,
            limit: 100_000,
        };
        assert_eq!(e.to_string(), "vc2 exhausted bdd-live-nodes (150000 spent of 100000 budget)");
        assert!(e.deterministic());
        let w = Exhausted { stage: "flow", resource: Resource::WallClock, spent: 5000, limit: 5000 };
        assert!(!w.deterministic());
    }

    #[test]
    fn verdict_display_and_predicates() {
        assert_eq!(Verdict::Proven.to_string(), "proven");
        assert!(Verdict::Proven.is_proven());
        assert!(!Verdict::Refuted.is_proven());
        let inc = Verdict::Inconclusive {
            exhausted_at: Exhausted {
                stage: "sbif",
                resource: Resource::SatConflicts,
                spent: 10,
                limit: 5,
            },
        };
        assert!(inc.is_inconclusive());
        assert!(inc.to_string().contains("sbif exhausted sat-conflicts"));
    }

    #[test]
    fn cancel_token_is_shared_across_clones_and_raw_flags() {
        let t = CancelToken::new();
        let u = t.clone();
        let raw = t.flag();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
        assert!(raw.load(Ordering::Relaxed));
    }

    #[test]
    fn watchdog_fires_after_timeout() {
        let t = CancelToken::new();
        let _w = Watchdog::arm(Duration::from_millis(20), &t);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !t.is_cancelled() {
            assert!(std::time::Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn dropped_watchdog_never_fires() {
        let t = CancelToken::new();
        {
            let _w = Watchdog::arm(Duration::from_secs(60), &t);
        }
        // Drop joined the thread; the token must still be clean.
        assert!(!t.is_cancelled());
    }

    #[test]
    fn govern_config_defaults_are_inactive_and_stamps_bind_budgets() {
        let none = GovernConfig::default();
        assert!(!none.is_active());
        assert!(!none.has_deterministic_budget());
        let mut g = none;
        g.timeout_ms = Some(5000);
        assert!(g.is_active());
        assert!(!g.has_deterministic_budget());
        // The watchdog is excluded from the stamp.
        assert_eq!(g.budget_stamp(), none.budget_stamp());
        let mut h = none;
        h.sbif_conflicts = Some(10_000);
        assert!(h.has_deterministic_budget());
        assert_ne!(h.budget_stamp(), none.budget_stamp());
        let mut h2 = h;
        h2.sbif_conflicts = Some(20_000);
        assert_ne!(h.budget_stamp(), h2.budget_stamp());
    }

    #[test]
    fn escalation_ladder_is_geometric_and_saturating() {
        assert_eq!(escalation_ladder(1000, 4, 3), vec![1000, 4000, 16000]);
        assert_eq!(escalation_ladder(0, 0, 2), vec![1, 2]);
        let big = escalation_ladder(u64::MAX / 2, 4, 2);
        assert_eq!(big[1], u64::MAX);
    }
}
