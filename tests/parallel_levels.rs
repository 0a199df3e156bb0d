//! The level-major SBIF scan (DESIGN.md §7).
//!
//! Three layers of evidence:
//!
//! 1. **Determinism**: the full pipeline's canonical metrics payload and
//!    the SBIF-only classes and statistics are reproducible, on every
//!    divider architecture and under an exhausted governor budget; the
//!    inert `SbifConfig::jobs` field changes none of them.
//! 2. **Scheduler properties**: on random netlists, every window's
//!    fanins sit in strictly earlier levels, and the batch geometry is
//!    a level-aligned partition of the candidate set.
//! 3. **Batched-solver differential**: a [`WindowBatch`] check returns
//!    the verdict of a fresh per-window solver, and its activation
//!    guards are the only thing standing between sibling windows and
//!    cross-contamination. (The whole-run batched-vs-fresh differential
//!    is `certified_run_checks_every_merge` in `sbif-core`.)

mod common;

use common::random_netlist;
use sbif::core::sbif::{
    check_window_pair, divider_sim_words, forward_information, EquivClasses, LevelSchedule,
    SbifConfig, SbifGovernor, SbifOptions, SbifStats, WindowBatch,
};
use sbif::core::verify::{DividerVerifier, VerifierConfig};
use sbif::netlist::build::{array_divider, nonrestoring_divider, srt_divider, Divider};
use sbif::netlist::{Netlist, Sig};
use sbif::sat::SolveResult;
use sbif::trace::Recorder;

/// Class representatives plus the deterministic statistics tuple.
fn fingerprint(nl: &Netlist, classes: &EquivClasses, s: &SbifStats) -> String {
    let mut out = String::new();
    for sig in nl.signals() {
        let (r, p) = classes.rep(sig);
        out.push_str(&format!("{}:{}{} ", sig.0, r.0, u8::from(p)));
    }
    out.push_str(&format!(
        "| cand={} sat={} proven={} refuted={} unknown={} refine={} levels={} inits={} \
         conflicts={} props={} exhausted={}",
        s.candidates,
        s.sat_checks,
        s.proven,
        s.refuted,
        s.unknown,
        s.refinements,
        s.levels,
        s.solver_inits,
        s.solver.conflicts,
        s.solver.propagations,
        s.exhausted,
    ));
    out
}

/// One SBIF-only run under `governor`, fingerprinted.
fn sbif_run(
    div: &Divider,
    cfg: SbifConfig,
    governor: Option<&SbifGovernor>,
) -> (String, SbifStats) {
    let sim = divider_sim_words(div, 23, 2);
    let opts = SbifOptions { governor, ..SbifOptions::default() };
    let (classes, stats) = forward_information(&div.netlist, Some(div.constraint), &sim, cfg, opts);
    (fingerprint(&div.netlist, &classes, &stats), stats)
}

/// Full pipeline at the default config and with the inert `jobs` field
/// set: both prove, with byte-identical canonical metrics.
fn assert_metrics_ignore_jobs(div: &Divider, label: &str) {
    let run = |jobs: usize| {
        let mut cfg = VerifierConfig::default();
        cfg.sbif.jobs = jobs;
        let report = DividerVerifier::new(div)
            .with_config(cfg)
            .with_recorder(Recorder::new())
            .verify()
            .unwrap_or_else(|e| panic!("{label}: {e:?}"));
        assert!(report.is_correct(), "{label}");
        report.metrics.to_json()
    };
    let (plain, with_jobs) = (run(1), run(4));
    assert!(plain == with_jobs, "{label}: metrics diverged\n{plain}\n---\n{with_jobs}");
}

#[test]
fn metrics_bytes_identical_across_jobs_nonrestoring_n8() {
    assert_metrics_ignore_jobs(&nonrestoring_divider(8), "nonrestoring 8");
}

#[test]
fn metrics_bytes_identical_across_jobs_srt_n4() {
    assert_metrics_ignore_jobs(&srt_divider(4), "srt 4");
}

#[test]
fn metrics_bytes_identical_across_jobs_array_n6() {
    assert_metrics_ignore_jobs(&array_divider(6), "array 6");
}

/// On the n = 16 non-restoring divider the shared batch solvers
/// amortize their setup over at least 10 windows each.
#[test]
fn nonrestoring_n16_batches_amortize_solver_setup() {
    let (_, stats) = sbif_run(&nonrestoring_divider(16), SbifConfig::default(), None);
    assert!(stats.proven > 0);
    assert!(
        stats.solver_inits * 10 <= stats.windows_solved,
        "solver setup not amortized: {} inits for {} windows",
        stats.solver_inits,
        stats.windows_solved
    );
}

/// Two runs of the SBIF sweep agree on classes and every statistic.
#[test]
fn sbif_sweep_identical_on_all_architectures() {
    let cases = [
        (nonrestoring_divider(8), "nonrestoring 8"),
        (srt_divider(4), "srt 4"),
        (array_divider(6), "array 6"),
    ];
    for (div, label) in cases {
        let cfg = SbifConfig::default();
        assert_eq!(sbif_run(&div, cfg, None).0, sbif_run(&div, cfg, None).0, "{label}");
    }
}

/// A governed run that exhausts its conflict budget stops at the same
/// check — same partial classes, same ledger — whatever `jobs` says.
#[test]
fn governed_budget_exhaustion_is_jobs_invariant() {
    let div = nonrestoring_divider(8);
    let governor = SbifGovernor { conflict_budget: Some(40), cancel: None };
    let (fp1, stats) = sbif_run(&div, SbifConfig::default(), Some(&governor));
    assert!(stats.exhausted, "budget must trip");
    let (fp4, _) = sbif_run(&div, SbifConfig { jobs: 4, ..SbifConfig::default() }, Some(&governor));
    assert_eq!(fp1, fp4, "governed run diverged");
}

/// The ledger is charged per check and polled before every check, so a
/// tripped budget is overrun by less than one check's conflict cap.
#[test]
fn governed_budget_stops_within_one_check_of_the_budget() {
    let div = nonrestoring_divider(8);
    let cfg = SbifConfig { sat_conflicts: 50, ..SbifConfig::default() };
    for budget in [1, 10, 40, 200] {
        let governor = SbifGovernor { conflict_budget: Some(budget), cancel: None };
        let (_, stats) = sbif_run(&div, cfg, Some(&governor));
        assert!(stats.exhausted, "budget {budget} must trip");
        assert!(
            stats.solver.conflicts < budget + cfg.sat_conflicts,
            "budget {budget}: {} conflicts",
            stats.solver.conflicts
        );
    }
}

/// Property: in the level schedule every gate's fanins sit in strictly
/// earlier levels — the structural fact behind level-boundary
/// refinement flushes (a window scanned at level L only reads classes
/// of signals at lower levels).
#[test]
fn prop_fanins_sit_in_strictly_earlier_levels() {
    common::prop_check!(
        32,
        |rng: &mut sbif_rng::XorShift64| {
            (rng.below(64), 2 + rng.range_usize(1, 11), 5 + rng.range_usize(0, 40))
        },
        |(seed, inputs, gates): (u64, usize, usize)| {
            let nl = random_netlist(seed, inputs, gates);
            let sched = LevelSchedule::new(&nl, 16);
            let ok = nl.signals().all(|s| {
                nl.gate(s).fanins().all(|f| sched.level(f) < sched.level(s))
            });
            ok
        }
    );
}

/// Property: the batch geometry is a level-aligned partition of the
/// candidate set — `order` is a level-major permutation inverted by
/// `pos`, batches tile `0..n` contiguously, and `level_runs` splits
/// exactly at level changes.
#[test]
fn prop_schedule_partitions_the_candidate_set() {
    common::prop_check!(
        32,
        |rng: &mut sbif_rng::XorShift64| {
            (rng.below(64), 2 + rng.range_usize(1, 11), 5 + rng.range_usize(0, 40),
             1 + rng.range_usize(0, 24))
        },
        |(seed, inputs, gates, batch): (u64, usize, usize, usize)| {
            let nl = random_netlist(seed, inputs, gates);
            let sched = LevelSchedule::new(&nl, batch);
            let n = nl.num_signals();
            let perm = sched.order().len() == n
                && sched.order().iter().enumerate().all(|(p, &s)| sched.pos()[s.index()] == p)
                && sched.order().windows(2).all(|w| {
                    (sched.level(w[0]), w[0].0) < (sched.level(w[1]), w[1].0)
                });
            let mut at = 0;
            let tiles = sched.batches().iter().all(|b| {
                let ok = b.start == at && b.end > b.start;
                at = b.end;
                let aligned = b.end >= n
                    || sched.level(sched.order()[b.end - 1])
                        < sched.level(sched.order()[b.end]);
                ok && aligned
            }) && at == n;
            let runs_split = sched.batches().iter().all(|b| {
                sched.level_runs(b.clone()).all(|r| {
                    let lv = sched.level(sched.order()[r.start]);
                    r.clone().all(|p| sched.level(sched.order()[p]) == lv)
                        && (r.end >= b.end
                            || sched.level(sched.order()[r.end]) > lv)
                })
            });
            perm && tiles && runs_split
        }
    );
}

/// Property: a [`WindowBatch`] check on the shared incremental solver
/// returns exactly the verdict of a fresh per-window solver, pair after
/// pair, as classes grow from the UNSAT answers — the differential that
/// justifies replacing fresh solvers with batched ones.
#[test]
fn prop_batched_verdicts_equal_fresh_solver_verdicts() {
    common::prop_check!(
        24,
        |rng: &mut sbif_rng::XorShift64| {
            (rng.below(1 << 20), 3 + rng.range_usize(0, 10), 10 + rng.range_usize(0, 30))
        },
        |(seed, inputs, gates): (u64, usize, usize)| {
            let nl = random_netlist(seed, inputs, gates);
            let cfg = SbifConfig::default();
            let mut classes = EquivClasses::new(nl.num_signals());
            let mut batch = WindowBatch::new(&nl, None, &cfg);
            let sigs: Vec<Sig> = nl.signals().collect();
            let mut rng = sbif_rng::XorShift64::seed_from_u64(seed ^ 0xD1FF);
            for _ in 0..12 {
                let a = sigs[rng.range_usize(0, sigs.len())];
                let b = sigs[rng.range_usize(0, sigs.len())];
                if a == b {
                    continue;
                }
                let eps = rng.below(2) == 0;
                let fresh = check_window_pair(&nl, &classes, None, a, b, eps, &cfg);
                let batched = batch.check(&classes, a, b, eps);
                if fresh.result != batched.result {
                    return false;
                }
                if fresh.result == SolveResult::Unsat {
                    classes.union(a, b, !eps);
                }
            }
            batch.solver_inits() <= 1
        }
    );
}

/// The activation-guard discipline is the only thing preventing
/// cross-window contamination: an unpoisoned sibling check matches the
/// fresh-solver verdict, while force-asserting the previous window's
/// guard (the `poison_last_guard` sabotage hook) flips the sibling's
/// SAT verdict to a spurious UNSAT.
#[test]
fn poisoned_sibling_guard_contaminates_poison_free_batching_does_not() {
    // a = x ∧ y, b = x ∨ y: neither equivalent nor antivalent, so both
    // the equivalence check (asserting a ≠ b) and the antivalence check
    // (asserting a = b) are satisfiable.
    let mut nl = Netlist::new();
    let x = nl.input("x");
    let y = nl.input("y");
    let a = nl.and(x, y);
    let b = nl.or(x, y);
    let o = nl.xor(a, b);
    nl.add_output("o", o);
    let cfg = SbifConfig::default();
    let classes = EquivClasses::new(nl.num_signals());

    let fresh_equiv = check_window_pair(&nl, &classes, None, a, b, true, &cfg);
    let fresh_antiv = check_window_pair(&nl, &classes, None, a, b, false, &cfg);
    assert_eq!(fresh_equiv.result, SolveResult::Sat);
    assert_eq!(fresh_antiv.result, SolveResult::Sat);

    // Guarded batching: both sibling checks on one shared solver agree
    // with the fresh verdicts.
    let mut clean = WindowBatch::new(&nl, None, &cfg);
    assert_eq!(clean.check(&classes, a, b, true).result, SolveResult::Sat);
    assert_eq!(clean.check(&classes, a, b, false).result, SolveResult::Sat);
    assert_eq!(clean.solver_inits(), 1, "both checks share one solver");

    // Sabotage: permanently assert the equivalence check's guard. Its
    // window clauses (forcing a ≠ b) now leak into the sibling, whose
    // a = b assertion becomes unsatisfiable — a spurious proof.
    let mut poisoned = WindowBatch::new(&nl, None, &cfg);
    assert_eq!(poisoned.check(&classes, a, b, true).result, SolveResult::Sat);
    poisoned.poison_last_guard();
    assert_eq!(
        poisoned.check(&classes, a, b, false).result,
        SolveResult::Unsat,
        "poisoning must contaminate — otherwise this test proves nothing"
    );
}
