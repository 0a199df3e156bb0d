//! The end-to-end divider verifier: SBIF + modified backward rewriting
//! for vc1, BDDs for vc2.

use crate::error::VerifyError;
use crate::rewrite::{BackwardRewriter, RewriteConfig, RewriteStats};
use crate::sbif::{
    certify_solver_unsat, forward_information, try_divider_sim_words, EquivClasses, SbifConfig,
    SbifGovernor, SbifOptions, SbifPrefilter, SbifStats,
};
use crate::spec::divider_spec;
use crate::vc2::{check_vc2_governed, Vc2Config, Vc2Report};
use sbif_analysis::{analyze, AnalysisConfig, AnalysisDb};
use sbif_apint::Int;
use sbif_cec::CecResult;
use sbif_check::CertStats;
use sbif_govern::{CancelToken, Exhausted, GovernConfig, Resource, Verdict, Watchdog};
use sbif_netlist::build::Divider;
use sbif_trace::{MetricsReport, Recorder};
use std::time::{Duration, Instant};

/// Configuration of the full verification flow.
#[derive(Debug, Clone, Copy)]
pub struct VerifierConfig {
    /// Alg. 1 configuration.
    pub sbif: SbifConfig,
    /// Backward rewriting configuration (term limit, tracing).
    pub rewrite: RewriteConfig,
    /// vc2 BDD configuration.
    pub vc2: Vc2Config,
    /// Simulation words (64 patterns each) for candidate detection.
    pub sim_words: usize,
    /// RNG seed for the constrained simulation.
    pub seed: u64,
    /// Skip SBIF entirely (plain backward rewriting — the failing
    /// baseline of Sect. III; expect blow-ups beyond tiny widths).
    pub use_sbif: bool,
    /// Run the static-analysis passes (`sbif-analysis`) before SBIF and
    /// let their facts prefilter the window checks: structurally-decided
    /// pairs merge without a solver and shadow-signature mismatches
    /// refute without one. Disable to force every candidate through a
    /// window solver (the pre-framework behaviour; the resulting classes
    /// are identical either way, only `sbif.windows_solved` moves).
    pub analysis: bool,
    /// Run the cheap simulation smoke check before the symbolic flow
    /// (refutes grossly broken netlists immediately). Disable to force
    /// every refutation through backward rewriting.
    pub smoke_check: bool,
    /// Also check vc2 (`0 ≤ R < D`).
    pub check_vc2: bool,
    /// Replay every UNSAT answer of the flow (SBIF window checks and the
    /// vc1 residual decision) through the independent DRAT checker; the
    /// per-call outcomes are aggregated in the report's certificate
    /// statistics ([`VerificationReport::certificates`]).
    pub certify: bool,
    /// Resource governor (DESIGN.md §16). All-`None` (the default) is
    /// ungoverned: every stage behaves exactly as before, byte for
    /// byte. Setting any budget turns on graceful degradation — typed
    /// [`Exhausted`] outcomes and the engine fallback ladder instead of
    /// hard errors.
    pub govern: GovernConfig,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            sbif: SbifConfig::default(),
            rewrite: RewriteConfig { max_terms: Some(20_000_000), ..RewriteConfig::default() },
            vc2: Vc2Config::default(),
            sim_words: 2,
            seed: 0xD1_71DE5,
            use_sbif: true,
            analysis: true,
            smoke_check: true,
            check_vc2: true,
            certify: false,
            govern: GovernConfig::default(),
        }
    }
}

/// Outcome of the vc1 check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vc1Outcome {
    /// The specification polynomial reduced to 0: `R⁰ = Q·D + R` holds
    /// for every input satisfying the constraint.
    Proven,
    /// The residual polynomial was non-zero and evaluating it on a
    /// valid input produced a non-zero value: the divider is buggy.
    Refuted {
        /// A dividend value witnessing the bug.
        dividend: Int,
        /// The corresponding divisor value.
        divisor: Int,
    },
    /// The residual was non-zero but no concrete counterexample was
    /// found by sampling — the method is incomplete in this direction
    /// (the paper only claims the `residual = 0 ⇒ correct` direction).
    Inconclusive {
        /// Number of terms of the residual polynomial.
        residual_terms: usize,
    },
    /// A governed budget (or the wall-clock watchdog) stopped vc1
    /// before a decision; only produced when
    /// [`VerifierConfig::govern`] is active.
    Exhausted(Exhausted),
}

/// Everything measured while checking vc1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vc1Report {
    /// Proven / refuted / inconclusive.
    pub outcome: Vc1Outcome,
    /// Alg. 1 statistics (the SBIF columns of Table II).
    pub sbif: SbifStats,
    /// Rewriting statistics (peak terms etc.).
    pub rewrite: RewriteStats,
    /// Wall-clock time of the SBIF phase.
    pub sbif_time: Duration,
    /// Wall-clock time of the rewriting phase.
    pub rewrite_time: Duration,
    /// DRAT certificates of the residual decision's UNSAT answers (all
    /// zero unless [`VerifierConfig::certify`] is set; the SBIF window
    /// certificates live in [`SbifStats::cert`]).
    pub cert: CertStats,
}

/// Result of the bounded SAT fallback that decided vc2 after the BDD
/// traversal exhausted its live-node budget — the second rung of the
/// engine fallback ladder (DESIGN.md §16).
#[derive(Debug, Clone, PartialEq)]
pub struct Vc2Fallback {
    /// `Some(true)`: the miter is UNSAT, vc2 proven by SAT.
    /// `Some(false)`: a model violating `0 ≤ R < D` was found.
    /// `None`: the conflict budget ran out too (`Inconclusive`).
    pub holds: Option<bool>,
    /// Violating input assignment when `holds == Some(false)`, as
    /// `(input name, value)` pairs.
    pub counterexample: Option<Vec<(String, bool)>>,
    /// Conflicts the fallback query spent (deterministic — one
    /// single-threaded solver run).
    pub conflicts: u64,
    /// The configured conflict budget.
    pub budget: u64,
    /// DRAT certificate statistics of the fallback's UNSAT answer
    /// (populated under [`VerifierConfig::certify`]).
    pub cert: CertStats,
}

/// The complete report of a divider verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// The vc1 (value equation) result.
    pub vc1: Vc1Report,
    /// The vc2 (remainder range) result, when enabled.
    pub vc2: Option<Vc2Report>,
    /// The bounded SAT fallback that took over when the governed vc2
    /// BDD traversal exhausted its live-node budget.
    pub vc2_fallback: Option<Vc2Fallback>,
    /// Wall-clock time of the vc2 phase.
    pub vc2_time: Duration,
    /// The three-valued verdict: `Proven` / `Refuted` /
    /// `Inconclusive { exhausted_at }`. Ungoverned runs never produce
    /// `Inconclusive` from a budget (only from the paper's incomplete
    /// residual-sampling direction).
    pub verdict: Verdict,
    /// `true` when the wall-clock watchdog cut any stage short. Such a
    /// run is **not reproducible** and must never be written to the
    /// result cache (DESIGN.md §16 determinism rules).
    pub cancelled: bool,
    /// The deterministic metrics payload of the run: every counter and
    /// gauge the pipeline recorded, frozen by
    /// [`Recorder::finish`]. Byte-identical (via
    /// [`MetricsReport::to_json`]) across runs and machines — wall-clock
    /// numbers live in the explicit `*_time` / [`SbifStats`] fields
    /// instead.
    pub metrics: MetricsReport,
}

impl VerificationReport {
    /// `true` iff both conditions of Definition 1 were proven
    /// (`Inconclusive` is not correct, but not refuted either — check
    /// [`VerificationReport::verdict`] to distinguish).
    pub fn is_correct(&self) -> bool {
        self.verdict.is_proven()
    }

    /// All certificate statistics of the run, merged over the SBIF
    /// window checks, the vc1 residual decision and the vc2 SAT
    /// fallback.
    pub fn certificates(&self) -> CertStats {
        let mut c = self.vc1.cert;
        c.merge(self.vc1.sbif.cert);
        if let Some(f) = &self.vc2_fallback {
            c.merge(f.cert);
        }
        c
    }
}

/// The fully automatic divider verifier of the paper.
///
/// No golden circuit, no hierarchy information: the verifier works on the
/// flat gate-level netlist and the abstract specification of Definition 1.
///
/// # Examples
///
/// ```
/// use sbif_core::verify::DividerVerifier;
/// use sbif_netlist::build::nonrestoring_divider;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let divider = nonrestoring_divider(6);
/// let report = DividerVerifier::new(&divider).verify()?;
/// assert!(report.is_correct());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DividerVerifier<'a> {
    divider: &'a Divider,
    config: VerifierConfig,
    recorder: Recorder,
}

/// Splits the `"bus[idx]"` name of a primary input. Generated and
/// imported dividers always satisfy this; a hand-assembled [`Divider`]
/// (the fault-injection subsystem builds them wholesale) may not, and
/// must surface as an error rather than a panic.
fn input_bus(nl: &sbif_netlist::Netlist, s: sbif_netlist::Sig) -> Result<(&str, u32), VerifyError> {
    let name = nl.name(s).ok_or_else(|| {
        VerifyError::MalformedInterface(format!("primary input {s} is unnamed"))
    })?;
    name.split_once('[')
        .and_then(|(b, rest)| Some((b, rest.strip_suffix(']')?.parse::<u32>().ok()?)))
        .ok_or_else(|| {
            VerifyError::MalformedInterface(format!(
                "primary input {name:?} is not a bus bit"
            ))
        })
}

impl<'a> DividerVerifier<'a> {
    /// A verifier with the default configuration (SBIF on, vc2 on).
    pub fn new(divider: &'a Divider) -> Self {
        DividerVerifier {
            divider,
            config: VerifierConfig::default(),
            recorder: Recorder::new(),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: VerifierConfig) -> Self {
        self.config = config;
        self
    }

    /// Uses `recorder` for the run's spans, counters and gauges — attach
    /// sinks to it beforehand to stream the events (`--trace` in the
    /// CLI). Each recorder is meant to observe one `verify()` call: the
    /// deterministic payload accumulates, so reusing one across runs
    /// sums their counters.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs the configured flow.
    ///
    /// # Errors
    ///
    /// [`VerifyError::TermLimitExceeded`] when backward rewriting blows
    /// up (expected without SBIF beyond small widths).
    pub fn verify(&self) -> Result<VerificationReport, VerifyError> {
        let g = self.config.govern;
        let (cancel, _watchdog) = Self::arm_watchdog(&g);
        let verify_span = self.recorder.span("verify");
        let vc1 = self.vc1_governed(cancel.as_ref())?;
        let t0 = Instant::now();
        // A refuted vc1 already settles the verdict; the vc2 BDD
        // traversal can be arbitrarily expensive on a broken netlist
        // (the nice divider structure it relies on is gone), so skip
        // it. A cancelled vc1 means the watchdog already fired — vc2
        // would only return cancelled too.
        let run_vc2 = self.config.check_vc2
            && !matches!(vc1.outcome, Vc1Outcome::Refuted { .. })
            && !matches!(vc1.outcome, Vc1Outcome::Exhausted(e) if !e.deterministic());
        let mut vc2 = None;
        let mut vc2_fallback = None;
        let mut vc2_exhausted: Option<Exhausted> = None;
        let mut vc2_cancelled = false;
        if run_vc2 {
            let span = self.recorder.span("vc2");
            match check_vc2_governed(
                self.divider,
                self.config.vc2,
                g.vc2_live_nodes,
                cancel.as_ref(),
            ) {
                Ok(report) => {
                    self.record_vc2_metrics(&report);
                    vc2 = Some(report);
                }
                Err(ex) if !ex.cancelled => {
                    // Deterministic live-node exhaustion: degrade to one
                    // bounded SAT query of the vc2 property — the next
                    // rung of the fallback ladder.
                    self.recorder.add("govern.vc2_exhausted", 1);
                    self.recorder.add("govern.vc2_live_nodes_spent", ex.live_nodes as u64);
                    let budget = g
                        .vc2_sat_conflicts
                        .unwrap_or(GovernConfig::DEFAULT_VC2_SAT_CONFLICTS);
                    let fb_span = self.recorder.span("vc2-sat");
                    let outcome = sbif_cec::vc2_sat_with(
                        self.divider,
                        sbif_sat::Budget::new().with_conflicts(budget),
                        self.config.certify,
                        cancel.as_ref().map(CancelToken::flag),
                    );
                    fb_span.close();
                    self.recorder.add("govern.vc2_sat_fallback", 1);
                    let conflicts = outcome.stats.solver.conflicts;
                    let cert = outcome.stats.cert;
                    let fallback = match outcome.result {
                        CecResult::Equivalent => Vc2Fallback {
                            holds: Some(true),
                            counterexample: None,
                            conflicts,
                            budget,
                            cert,
                        },
                        CecResult::NotEquivalent(cex) => Vc2Fallback {
                            holds: Some(false),
                            counterexample: Some(cex),
                            conflicts,
                            budget,
                            cert,
                        },
                        CecResult::Unknown => {
                            // Deterministic budget exhaustion wins the
                            // attribution over a racing cancellation.
                            if conflicts >= budget {
                                self.recorder.add("govern.vc2_sat_exhausted", 1);
                                vc2_exhausted = Some(Exhausted {
                                    stage: "vc2-sat",
                                    resource: Resource::SatConflicts,
                                    spent: conflicts,
                                    limit: budget,
                                });
                            } else {
                                vc2_cancelled = true;
                            }
                            Vc2Fallback {
                                holds: None,
                                counterexample: None,
                                conflicts,
                                budget,
                                cert,
                            }
                        }
                    };
                    vc2_fallback = Some(fallback);
                }
                Err(_) => {
                    // Wall-clock cancellation mid-traversal: no
                    // fallback, the whole flow is being torn down.
                    vc2_cancelled = true;
                }
            }
            span.close();
        }
        verify_span.close();

        let refuted = matches!(vc1.outcome, Vc1Outcome::Refuted { .. })
            || vc2.as_ref().is_some_and(|r| !r.holds)
            || vc2_fallback.as_ref().is_some_and(|f| f.holds == Some(false));
        let cancelled = vc1.sbif.cancelled
            || matches!(vc1.outcome, Vc1Outcome::Exhausted(e) if !e.deterministic())
            || vc2_cancelled;
        let wall = |stage: &'static str| Exhausted {
            stage,
            resource: Resource::WallClock,
            spent: g.timeout_ms.unwrap_or(0),
            limit: g.timeout_ms.unwrap_or(0),
        };
        let verdict = if refuted {
            Verdict::Refuted
        } else if let Vc1Outcome::Exhausted(e) = vc1.outcome {
            Verdict::Inconclusive { exhausted_at: e }
        } else if let Vc1Outcome::Inconclusive { residual_terms } = vc1.outcome {
            // The paper's incomplete direction: a non-zero residual that
            // sampling could not refute. Not a budget exhaustion, but
            // still short of a proof.
            Verdict::Inconclusive {
                exhausted_at: Exhausted {
                    stage: "residual",
                    resource: Resource::AnalysisSteps,
                    spent: residual_terms as u64,
                    limit: 0,
                },
            }
        } else if let Some(e) = vc2_exhausted {
            Verdict::Inconclusive { exhausted_at: e }
        } else if vc2_cancelled {
            Verdict::Inconclusive { exhausted_at: wall("vc2") }
        } else {
            Verdict::Proven
        };
        if cancelled {
            // Nondeterministic by nature; cancelled runs are excluded
            // from the byte-identity contract and never cached.
            self.recorder.add("govern.cancelled", 1);
        }
        let metrics = self.recorder.finish();
        Ok(VerificationReport {
            vc1,
            vc2,
            vc2_fallback,
            vc2_time: t0.elapsed(),
            verdict,
            cancelled,
            metrics,
        })
    }

    /// Arms the wall-clock watchdog when the governor configures one.
    /// The returned [`Watchdog`] must stay alive for the duration of
    /// the run (dropping it disarms).
    fn arm_watchdog(g: &GovernConfig) -> (Option<CancelToken>, Option<Watchdog>) {
        match g.timeout_ms {
            Some(ms) => {
                let token = CancelToken::new();
                let wd = Watchdog::arm(Duration::from_millis(ms), &token);
                (Some(token), Some(wd))
            }
            None => (None, None),
        }
    }

    /// Runs only the vc1 check (SBIF + modified backward rewriting),
    /// under the configured governor.
    ///
    /// # Errors
    ///
    /// [`VerifyError::TermLimitExceeded`] on polynomial blow-up (when
    /// no rewrite budget is governed — a governed blow-up becomes
    /// [`Vc1Outcome::Exhausted`] instead).
    pub fn verify_vc1(&self) -> Result<Vc1Report, VerifyError> {
        let (cancel, _watchdog) = Self::arm_watchdog(&self.config.govern);
        self.vc1_governed(cancel.as_ref())
    }

    /// The vc1 flow proper, polling `cancel` at stage boundaries.
    fn vc1_governed(&self, cancel: Option<&CancelToken>) -> Result<Vc1Report, VerifyError> {
        let div = self.divider;
        let g = self.config.govern;
        let _vc1_span = self.recorder.span("vc1");
        let t0 = Instant::now();
        // Cheap smoke refutation: badly broken dividers (mis-wired
        // outputs, wrong operators on hot paths) violate vc1 on random
        // constrained inputs already; catching them here produces an
        // immediate counterexample instead of a polynomial blow-up.
        if self.config.smoke_check {
            let span = self.recorder.span("smoke");
            let cex = self.simulation_counterexample()?;
            span.close();
            if let Some((dividend, divisor)) = cex {
                self.recorder.add("vc1.smoke_refuted", 1);
                return Ok(Vc1Report {
                    outcome: Vc1Outcome::Refuted { dividend, divisor },
                    sbif: SbifStats::default(),
                    rewrite: RewriteStats::default(),
                    sbif_time: t0.elapsed(),
                    rewrite_time: Duration::default(),
                    cert: CertStats::default(),
                });
            }
        }
        // `certify` at the verifier level turns on proof logging in every
        // SAT-answering stage.
        let mut sbif_cfg = self.config.sbif;
        sbif_cfg.certify |= self.config.certify;
        let (classes, sbif_stats) = if self.config.use_sbif {
            // Static analysis first: its facts (cone mask, shadow
            // signatures, structural forms) prefilter the window checks.
            let prefilter = if self.config.analysis {
                let span = self.recorder.span("analysis");
                let db = analyze(&div.netlist, &self.analysis_config()?, &self.recorder);
                span.close();
                // The cone mask stays out of the default flow: skipping
                // dead signals changes which candidate slots the scan
                // spends (generated dividers carry some dead gates that
                // pre-framework runs merged), and the verifier promises
                // classes identical to the prefilter-free run. Callers
                // that want the mask opt in through
                // [`SbifOptions::prefilter`] + `AnalysisDb::sbif_live_mask`.
                Some(SbifPrefilter {
                    shadow: db.shadow,
                    planes: db.shadow_planes,
                    live: Vec::new(),
                    levels: db.levels,
                })
            } else {
                None
            };
            let span = self.recorder.span("sbif");
            let sim = try_divider_sim_words(div, self.config.seed, self.config.sim_words)
                .map_err(VerifyError::MalformedInterface)?;
            // The governor's conflict budget is polled before every
            // window check against the cumulative solver conflicts, so
            // the cut is deterministic. All-`None` governors poll
            // nothing and change nothing.
            let governor =
                SbifGovernor { conflict_budget: g.sbif_conflicts, cancel: cancel.cloned() };
            let opts = SbifOptions { prefilter: prefilter.as_ref(), governor: Some(&governor) };
            let (c, s) =
                forward_information(&div.netlist, Some(div.constraint), &sim, sbif_cfg, opts);
            span.close();
            (Some(c), s)
        } else {
            (None, SbifStats::default())
        };
        let sbif_time = t0.elapsed();
        if sbif_stats.cancelled {
            // The watchdog fired mid-scan. Deterministic budget cuts
            // (`exhausted`) fall through instead: the classes found so
            // far are sound, and rewriting continues with them — the
            // first rung of the fallback ladder.
            let ms = g.timeout_ms.unwrap_or(0);
            let report = Vc1Report {
                outcome: Vc1Outcome::Exhausted(Exhausted {
                    stage: "sbif",
                    resource: Resource::WallClock,
                    spent: ms,
                    limit: ms,
                }),
                sbif: sbif_stats,
                rewrite: RewriteStats::default(),
                sbif_time,
                rewrite_time: Duration::default(),
                cert: CertStats::default(),
            };
            self.record_vc1_metrics(&report, classes.as_ref());
            return Ok(report);
        }

        let t1 = Instant::now();
        let rewrite_span = self.recorder.span("rewrite");
        let spec = divider_spec(div);
        let mut rw_cfg = self.config.rewrite;
        if let Some(budget) = g.rewrite_terms {
            rw_cfg.max_terms = Some(rw_cfg.max_terms.map_or(budget, |m| m.min(budget)));
        }
        let mut rewriter = BackwardRewriter::new(&div.netlist).with_config(rw_cfg);
        if let Some(token) = cancel {
            rewriter = rewriter.with_interrupt(token.clone());
        }
        if let Some(c) = classes.as_ref() {
            rewriter = rewriter.with_classes(c);
        }
        let run = rewriter.run(spec);
        rewrite_span.close();
        let rewrite_time = t1.elapsed();

        let (outcome, rewrite_stats, cert) = match run {
            Ok((residual, rewrite_stats)) => {
                let (outcome, cert) = if residual.is_zero() {
                    (Vc1Outcome::Proven, CertStats::default())
                } else {
                    // SBIF classes hold under the constraint C, so the
                    // residual only needs to vanish on C-satisfying
                    // inputs. Decide that exactly when the residual's
                    // support is small; otherwise fall back to sampling.
                    let span = self.recorder.span("residual");
                    let decided = self.decide_residual(&residual)?;
                    span.close();
                    decided
                };
                (outcome, rewrite_stats, cert)
            }
            Err(VerifyError::TermLimitExceeded { limit, reached, steps })
                if g.rewrite_terms.is_some() =>
            {
                // Governed blow-up: a typed Inconclusive, not an abort.
                // Rewriting is single-threaded, so `reached` is
                // deterministic and cacheable.
                let stats = RewriteStats {
                    steps,
                    peak_terms: reached,
                    ..RewriteStats::default()
                };
                let e = Exhausted {
                    stage: "rewrite",
                    resource: Resource::RewriteTerms,
                    spent: reached as u64,
                    limit: limit as u64,
                };
                (Vc1Outcome::Exhausted(e), stats, CertStats::default())
            }
            Err(VerifyError::Timeout { .. })
                if cancel.is_some_and(|t| t.is_cancelled()) =>
            {
                let ms = g.timeout_ms.unwrap_or(0);
                let e = Exhausted {
                    stage: "rewrite",
                    resource: Resource::WallClock,
                    spent: ms,
                    limit: ms,
                };
                (Vc1Outcome::Exhausted(e), RewriteStats::default(), CertStats::default())
            }
            Err(e) => return Err(e),
        };
        let report = Vc1Report {
            outcome,
            sbif: sbif_stats,
            rewrite: rewrite_stats,
            sbif_time,
            rewrite_time,
            cert,
        };
        self.record_vc1_metrics(&report, classes.as_ref());
        Ok(report)
    }

    /// The analysis configuration of this run: the divider's constraint
    /// plus shadow stimulus planes from a seed disjoint from the
    /// candidate-detection planes, so prefilter refutations rest on
    /// independent evidence.
    fn analysis_config(&self) -> Result<AnalysisConfig, VerifyError> {
        let shadow = try_divider_sim_words(
            self.divider,
            self.config.seed ^ 0x511A_D0E5,
            self.config.sim_words,
        )
        .map_err(VerifyError::MalformedInterface)?;
        Ok(AnalysisConfig {
            constraint: Some(self.divider.constraint),
            shadow_planes: Some(shadow),
            ..AnalysisConfig::default()
        })
    }

    /// Runs the static-analysis pipeline this verifier's flow would use
    /// and returns the fact database — `sbif-verify --analysis-out`
    /// serializes it via [`AnalysisDb::to_json`]. Deterministic and
    /// independent of [`verify`](Self::verify) (counters go to a
    /// throwaway recorder, so a later verification is not perturbed).
    ///
    /// # Errors
    ///
    /// [`VerifyError::MalformedInterface`] when the divider's input
    /// naming prevents constrained stimulus generation.
    pub fn analysis_db(&self) -> Result<AnalysisDb, VerifyError> {
        Ok(analyze(&self.divider.netlist, &self.analysis_config()?, &Recorder::new()))
    }

    /// Records the deterministic vc1 metrics. Wall-clock numbers
    /// (`sat_micros`) are intentionally absent — they vary with the
    /// machine, and the metrics payload must not.
    fn record_vc1_metrics(&self, report: &Vc1Report, classes: Option<&EquivClasses>) {
        let r = &self.recorder;
        let s = &report.sbif;
        r.add("sbif.candidates", s.candidates as u64);
        r.add("sbif.sat_checks", s.sat_checks as u64);
        r.add("sbif.windows_solved", s.windows_solved as u64);
        r.add("analysis.prefilter_proven", s.prefilter_proven as u64);
        r.add("analysis.prefilter_refuted", s.prefilter_refuted as u64);
        r.add("sbif.proven", s.proven as u64);
        r.add("sbif.refuted", s.refuted as u64);
        r.add("sbif.unknown", s.unknown as u64);
        r.add("sbif.refinements", s.refinements as u64);
        r.add("sbif.level.count", s.levels as u64);
        r.add("sbif.batch.solver_inits", s.solver_inits as u64);
        r.add("sbif.sat.decisions", s.solver.decisions);
        r.add("sbif.sat.conflicts", s.solver.conflicts);
        r.add("sbif.sat.propagations", s.solver.propagations);
        r.add("sbif.sat.restarts", s.solver.restarts);
        r.add("sbif.sat.learnts", s.solver.learnts);
        r.add("sbif.sat.deleted", s.solver.deleted);
        // Governor counters are recorded only on exhaustion events, so
        // a governed run that never trips a budget stays byte-identical
        // to the ungoverned run (which makes normalizing the governor
        // out of the cache fingerprint sound).
        if s.exhausted {
            r.add("govern.sbif_exhausted", 1);
            r.add("govern.sbif_conflicts_spent", s.solver.conflicts);
        }
        if let Vc1Outcome::Exhausted(e) = &report.outcome {
            if e.deterministic() {
                r.add(&format!("govern.{}_exhausted", e.stage), 1);
                r.add(&format!("govern.{}_spent", e.stage), e.spent);
            }
        }
        if let Some(c) = classes {
            r.add("sbif.merges", c.num_merges() as u64);
            for (size, count) in c.size_histogram() {
                r.add(&format!("sbif.class_size.{size}"), count as u64);
            }
        }
        let w = &report.rewrite;
        r.add("rewrite.steps", w.steps as u64);
        r.add("rewrite.block_substitutions", w.block_substitutions as u64);
        r.add("rewrite.total_terms", w.total_terms);
        r.gauge_max("rewrite.peak_terms", w.peak_terms as u64);
        r.gauge_max("rewrite.final_terms", w.final_terms as u64);
        let mut cert = report.cert;
        cert.merge(s.cert);
        if cert.checked > 0 {
            r.add("cert.checked", u64::from(cert.checked));
            r.add("cert.rejected", u64::from(cert.rejected));
            r.add("cert.steps_logged", cert.steps_logged);
            r.add("cert.steps_used", cert.steps_used);
            r.add("cert.drat_bytes", cert.drat_bytes);
            // Integer permille of used steps: deterministic (no float
            // rounding in the payload), 1000 when nothing was logged.
            let permille = (cert.steps_used * 1000)
                .checked_div(cert.steps_logged)
                .unwrap_or(1000);
            r.gauge_max("cert.used_permille", permille);
        }
    }

    /// Records the deterministic vc2 metrics (BDD table sizes and the
    /// backward-traversal counters).
    fn record_vc2_metrics(&self, report: &Vc2Report) {
        let r = &self.recorder;
        r.add("vc2.composed", report.wpc_stats.composed as u64);
        r.add("vc2.reorders", report.wpc_stats.reorders as u64);
        r.gauge_max("vc2.peak_live_nodes", report.peak_nodes as u64);
        r.gauge_max("vc2.final_nodes", report.final_nodes as u64);
        r.gauge_max("vc2.unique_entries", report.unique_entries as u64);
        r.gauge_max("vc2.cache_entries", report.cache_entries as u64);
        r.gauge_max("vc2.wpc_final_size", report.wpc_stats.final_size as u64);
    }

    /// Simulates constrained random inputs and checks vc1 numerically;
    /// returns the first violating `(dividend, divisor)` pair, if any.
    fn simulation_counterexample(&self) -> Result<Option<(Int, Int)>, VerifyError> {
        let div = self.divider;
        let words = try_divider_sim_words(div, self.config.seed ^ 0xFACE, 1)
            .map_err(VerifyError::MalformedInterface)?;
        let plane: Vec<u64> = words.iter().map(|v| v[0]).collect();
        let vals = div.netlist.simulate64(&plane);
        let word_value = |w: &sbif_netlist::Word, k: u32| -> Int {
            let mut acc = Int::zero();
            for (i, &s) in w.iter().enumerate() {
                if (vals[s.index()] >> k) & 1 == 1 {
                    acc += Int::pow2(i as u32);
                }
            }
            acc
        };
        let wbits = div.remainder.len() as u32;
        for k in 0..64 {
            let q = word_value(&div.quotient, k);
            let d = word_value(&div.divisor, k);
            let r0 = word_value(&div.dividend, k);
            let mut r = word_value(&div.remainder, k);
            // two's complement sign
            if r.magnitude_bit(wbits - 1) {
                r -= Int::pow2(wbits);
            }
            if &(&q * &d) + &r != r0 {
                return Ok(Some((r0, d)));
            }
        }
        Ok(None)
    }

    /// Decides whether a non-zero residual still vanishes on every input
    /// satisfying `C` (then vc1 is proven). The residual depends only on
    /// its support variables — all primary inputs after a complete run —
    /// so enumerate their assignments; for each that makes the residual
    /// non-zero, ask SAT whether it extends to a C-satisfying input.
    ///
    /// Under [`VerifierConfig::certify`], each UNSAT answer (assignment
    /// does not extend to a valid input) is DRAT-checked; the returned
    /// statistics cover every such call. The incremental proof log stays
    /// valid across the calls: learnt clauses are consequences of the
    /// formula alone, and each call's refutation is closed by its own
    /// failed-assumption units.
    fn decide_residual(
        &self,
        residual: &sbif_poly::Poly,
    ) -> Result<(Vc1Outcome, CertStats), VerifyError> {
        use sbif_sat::{NetlistEncoder, SolveResult, Solver};
        let div = self.divider;
        let mut cert = CertStats::default();
        let support = residual.support();
        let all_inputs = support
            .iter()
            .all(|v| div.netlist.gate(sbif_netlist::Sig(v.0)).is_input());
        if support.len() > 16 || !all_inputs {
            return Ok((self.find_counterexample(residual)?, cert));
        }
        let mut solver = Solver::new();
        if self.config.certify {
            solver.enable_proof_log();
        }
        let mut enc = NetlistEncoder::new(&div.netlist);
        enc.encode_cone(&mut solver, &div.netlist, div.constraint);
        let lc = enc.lit(&mut solver, div.constraint);
        solver.add_clause([lc]);
        let lits: Vec<_> = support
            .iter()
            .map(|v| enc.lit(&mut solver, sbif_netlist::Sig(v.0)))
            .collect();
        for bits in 0u64..(1 << support.len()) {
            let asg = |v: sbif_poly::Var| {
                support
                    .iter()
                    .position(|&s| s == v)
                    .map(|i| (bits >> i) & 1 == 1)
                    .unwrap_or(false)
            };
            if residual.eval(asg).is_zero() {
                continue;
            }
            let assumptions: Vec<_> = lits
                .iter()
                .enumerate()
                .map(|(i, &l)| if (bits >> i) & 1 == 1 { l } else { !l })
                .collect();
            let result = solver.solve_assuming(&assumptions);
            if result == SolveResult::Unsat && self.config.certify {
                cert.record(&certify_solver_unsat(&solver));
            }
            if result == SolveResult::Sat {
                // A valid input on which SP ≠ 0: reconstruct the values.
                let mut dividend = Int::zero();
                let mut divisor = Int::zero();
                for &s in div.netlist.inputs() {
                    let val = enc
                        .peek_lit(s)
                        .and_then(|l| solver.model_lit(l))
                        .unwrap_or(false);
                    if !val {
                        continue;
                    }
                    let (bus, idx) = input_bus(&div.netlist, s)?;
                    match bus {
                        "r0" => dividend += Int::pow2(idx),
                        _ => divisor += Int::pow2(idx),
                    }
                }
                return Ok((Vc1Outcome::Refuted { dividend, divisor }, cert));
            }
        }
        // No C-satisfying input makes the residual non-zero: proven.
        Ok((Vc1Outcome::Proven, cert))
    }

    /// Samples valid inputs and evaluates the residual polynomial; any
    /// non-zero value is a definite counterexample to vc1.
    fn find_counterexample(&self, residual: &sbif_poly::Poly) -> Result<Vc1Outcome, VerifyError> {
        let div = self.divider;
        let words = try_divider_sim_words(div, self.config.seed ^ 0x5eed, 4)
            .map_err(VerifyError::MalformedInterface)?;
        let inputs = div.netlist.inputs();
        #[allow(clippy::needless_range_loop)] // w indexes every input's word list
        for w in 0..words.first().map_or(0, |v| v.len()) {
            for k in 0..64 {
                let bit_of = |sig_idx: usize| -> bool {
                    inputs
                        .iter()
                        .position(|s| s.index() == sig_idx)
                        .map(|pos| (words[pos][w] >> k) & 1 == 1)
                        .unwrap_or(false)
                };
                let value = residual.eval(|v| bit_of(v.index()));
                if !value.is_zero() {
                    // Reconstruct the concrete dividend/divisor.
                    let mut dividend = Int::zero();
                    let mut divisor = Int::zero();
                    for (pos, &s) in inputs.iter().enumerate() {
                        if (words[pos][w] >> k) & 1 == 0 {
                            continue;
                        }
                        let (bus, idx) = input_bus(&div.netlist, s)?;
                        match bus {
                            "r0" => dividend += Int::pow2(idx),
                            _ => divisor += Int::pow2(idx),
                        }
                    }
                    return Ok(Vc1Outcome::Refuted { dividend, divisor });
                }
            }
        }
        Ok(Vc1Outcome::Inconclusive { residual_terms: residual.num_terms() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbif_netlist::build::nonrestoring_divider;
    use sbif_netlist::{BinOp, Gate, Netlist, Sig};

    #[test]
    fn small_dividers_verify_end_to_end() {
        for n in [2usize, 3, 4] {
            let div = nonrestoring_divider(n);
            let report = DividerVerifier::new(&div).verify().expect("no blow-up");
            assert!(report.is_correct(), "n={n}: {:?}", report.vc1.outcome);
            if n > 2 {
                assert!(report.vc1.sbif.proven > 0, "SBIF must find classes");
            }
        }
    }

    #[test]
    fn sbif_keeps_peaks_small() {
        let n = 6;
        let div = nonrestoring_divider(n);
        let with = DividerVerifier::new(&div).verify_vc1().expect("fits");
        let without_cfg = VerifierConfig {
            use_sbif: false,
            rewrite: RewriteConfig { max_terms: Some(2_000_000), ..RewriteConfig::default() },
            ..VerifierConfig::default()
        };
        let without = DividerVerifier::new(&div).with_config(without_cfg).verify_vc1();
        let with_peak = with.rewrite.peak_terms;
        match without {
            Ok(r) => assert!(
                r.rewrite.peak_terms > 10 * with_peak,
                "no-SBIF peak {} vs SBIF peak {}",
                r.rewrite.peak_terms,
                with_peak
            ),
            Err(VerifyError::TermLimitExceeded { .. }) => {} // even better
            Err(e) => panic!("unexpected error {e}"),
        }
        assert_eq!(with.outcome, Vc1Outcome::Proven);
    }

    /// Injects a bug by flipping one gate operator and re-running the
    /// flow: the report must not claim correctness.
    fn break_gate(div: &Divider, victim: Sig) -> Option<Divider> {
        let mut broken = div.clone();
        let mut nl = Netlist::new();
        let mut map = Vec::new();
        for s in div.netlist.signals() {
            let g = div.netlist.gate(s).clone();
            let remapped = match g {
                Gate::Input => {
                    let name = div.netlist.name(s).expect("named").to_string();
                    nl.input(&name)
                }
                Gate::Const(v) => nl.push_gate(Gate::Const(v)),
                Gate::Unary(op, a) => nl.push_gate(Gate::Unary(op, map[a.index()])),
                Gate::Binary(op, a, b) => {
                    let op = if s == victim {
                        match op {
                            BinOp::And => BinOp::Or,
                            BinOp::Or => BinOp::And,
                            BinOp::Xor => BinOp::Xnor,
                            BinOp::Xnor => BinOp::Xor,
                            other => other,
                        }
                    } else {
                        op
                    };
                    nl.push_gate(Gate::Binary(op, map[a.index()], map[b.index()]))
                }
            };
            map.push(remapped);
        }
        for (name, s) in div.netlist.outputs() {
            nl.add_output(name, map[s.index()]);
        }
        broken.netlist = nl;
        broken.dividend = div.dividend.iter().map(|s| map[s.index()]).collect();
        broken.divisor = div.divisor.iter().map(|s| map[s.index()]).collect();
        broken.quotient = div.quotient.iter().map(|s| map[s.index()]).collect();
        broken.remainder = div.remainder.iter().map(|s| map[s.index()]).collect();
        broken.stage_signs = div.stage_signs.iter().map(|s| map[s.index()]).collect();
        broken.constraint = map[div.constraint.index()];
        Some(broken)
    }

    #[test]
    fn smoke_check_refutes_instantly() {
        // Swap two remainder bits: the simulation pre-check must refute
        // without entering SBIF or rewriting.
        let div = nonrestoring_divider(5);
        let mut broken = div.clone();
        let mut bits: Vec<Sig> = broken.remainder.iter().copied().collect();
        bits.swap(0, 1);
        broken.remainder = sbif_netlist::Word::new(bits);
        let report = DividerVerifier::new(&broken).verify().expect("instant");
        assert!(matches!(report.vc1.outcome, Vc1Outcome::Refuted { .. }));
        assert_eq!(report.vc1.rewrite.steps, 0, "must not reach rewriting");
        assert!(report.vc2.is_none(), "vc2 skipped after refutation");
    }

    #[test]
    fn injected_bugs_are_caught() {
        let div = nonrestoring_divider(3);
        // Flip a handful of binary gates spread over the circuit.
        let victims: Vec<Sig> = div
            .netlist
            .signals()
            .filter(|&s| matches!(div.netlist.gate(s), Gate::Binary(..)))
            .step_by(17)
            .take(6)
            .collect();
        let mut caught = 0;
        let mut checked = 0;
        for victim in victims {
            let broken = break_gate(&div, victim).expect("rebuild");
            // Skip mutants that do not change the I/O behaviour on valid
            // inputs (the flipped gate may be redundant there).
            let mut differs = false;
            'outer: for dv in 1u64..4 {
                for r0 in 0..(dv << 2) {
                    let a = div.netlist.eval_u64(&[("r0", r0), ("d", dv)]);
                    let b = broken.netlist.eval_u64(&[("r0", r0), ("d", dv)]);
                    if a["q"] != b["q"] || a["r"] != b["r"] {
                        differs = true;
                        break 'outer;
                    }
                }
            }
            if !differs {
                continue;
            }
            checked += 1;
            let report = DividerVerifier::new(&broken).verify().expect("small");
            if !report.is_correct() {
                caught += 1;
            }
        }
        assert!(checked > 0, "no behaviour-changing mutants generated");
        assert_eq!(caught, checked, "every real bug must be caught");
    }

    /// A hand-assembled divider whose inputs are not `r0[i]`/`d[i]` bus
    /// bits must be reported as malformed, not crash the process — the
    /// fault-injection campaign feeds such netlists on purpose.
    #[test]
    fn non_bus_input_names_error_instead_of_panicking() {
        let mut div = nonrestoring_divider(3);
        let s = div.netlist.inputs()[0];
        div.netlist.set_name(s, "weird");
        let err = DividerVerifier::new(&div).verify().expect_err("malformed");
        assert!(matches!(err, VerifyError::MalformedInterface(_)), "{err}");
        assert!(err.to_string().contains("weird"));
        // The symbolic path (smoke check disabled) must error the same way.
        let cfg = VerifierConfig { smoke_check: false, ..VerifierConfig::default() };
        let err = DividerVerifier::new(&div).with_config(cfg).verify().expect_err("malformed");
        assert!(matches!(err, VerifyError::MalformedInterface(_)), "{err}");
    }

    #[test]
    fn unnamed_inputs_error_instead_of_panicking() {
        // `push_gate(Gate::Input)` creates unnamed inputs — legal for a
        // raw netlist, malformed as a divider interface.
        let mut nl = Netlist::new();
        for _ in 0..6 {
            nl.push_gate(Gate::Input);
        }
        let ins = nl.inputs().to_vec();
        let q = nl.and(ins[0], ins[1]);
        nl.add_output("q[0]", q);
        let div = Divider {
            netlist: nl,
            n: 3,
            kind: sbif_netlist::build::DividerKind::Imported,
            dividend: sbif_netlist::Word::new(ins[0..4].to_vec()),
            divisor: sbif_netlist::Word::new(ins[4..6].to_vec()),
            quotient: sbif_netlist::Word::new(vec![q; 3]),
            remainder: sbif_netlist::Word::new(vec![q; 5]),
            stage_signs: Vec::new(),
            constraint: ins[0],
        };
        let err = DividerVerifier::new(&div).verify_vc1().expect_err("malformed");
        assert!(matches!(err, VerifyError::MalformedInterface(_)), "{err}");
        assert!(err.to_string().contains("unnamed"));
    }

    #[test]
    fn refutation_produces_concrete_counterexample() {
        // Break a quotient gate so vc1 itself fails.
        let div = nonrestoring_divider(3);
        let q_gate = div.quotient[1];
        let broken = break_gate(&div, q_gate).expect("rebuild");
        // Force the refutation through the *symbolic* path (residual
        // decision), not the simulation smoke check.
        let report = DividerVerifier::new(&broken)
            .with_config(VerifierConfig {
                check_vc2: false,
                smoke_check: false,
                ..Default::default()
            })
            .verify()
            .expect("small");
        match &report.vc1.outcome {
            Vc1Outcome::Refuted { dividend, divisor } => {
                // Replay through simulation.
                let r0: u64 = u64::try_from(dividend).unwrap_or(0);
                let dv: u64 = u64::try_from(divisor).unwrap_or(0);
                let out = broken.netlist.eval_u64(&[("r0", r0), ("d", dv)]);
                let w = 2 * div.n - 1;
                let r_signed = {
                    let r = out["r"];
                    if r >> (w - 1) & 1 == 1 {
                        r as i64 - (1 << w)
                    } else {
                        r as i64
                    }
                };
                assert_ne!(
                    out["q"] as i64 * dv as i64 + r_signed,
                    r0 as i64,
                    "counterexample must violate vc1"
                );
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }
}
