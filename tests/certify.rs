//! End-to-end tests of the certification pipeline: DRAT proof logging in
//! the solver, the independent checker in `sbif-check`, and the
//! `--certify` plumbing through SBIF and the full verifier.

mod common;
use common::prop_check;

use sbif::check::{certify_unsat, CertStats, DratStep};
use sbif::core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifOptions};
use sbif::core::verify::{DividerVerifier, Vc1Outcome, VerifierConfig};
use sbif::netlist::build::nonrestoring_divider;
use sbif::sat::{Lit, SolveResult, Solver};
use sbif_rng::XorShift64;

/// A random small CNF as DIMACS-style clause lists.
#[derive(Debug, Clone)]
struct RandomCnf {
    num_vars: usize,
    clauses: Vec<Vec<i32>>,
}

fn random_cnf(rng: &mut XorShift64) -> RandomCnf {
    let num_vars = rng.range_usize(3, 10);
    // Around 4.3 clauses/var straddles the phase transition, so both
    // SAT and UNSAT instances appear.
    let num_clauses = rng.range_usize(3 * num_vars, 5 * num_vars + 1);
    let clauses = (0..num_clauses)
        .map(|_| {
            let len = rng.range_usize(1, 4);
            (0..len)
                .map(|_| {
                    let v = rng.range_usize(1, num_vars + 1) as i32;
                    if rng.below(2) == 0 {
                        v
                    } else {
                        -v
                    }
                })
                .collect()
        })
        .collect();
    RandomCnf { num_vars, clauses }
}

/// Solves `cnf` with proof logging; returns the verdict plus the solver.
fn solve_logged(cnf: &RandomCnf) -> (SolveResult, Solver) {
    let mut solver = Solver::new();
    solver.enable_proof_log();
    for _ in 0..cnf.num_vars {
        solver.new_var();
    }
    for c in &cnf.clauses {
        solver.add_clause(c.iter().map(|&l| Lit::from_dimacs(l as i64)));
    }
    let result = solver.solve();
    (result, solver)
}

/// Converts the solver's proof events into checker steps.
fn logged_steps(solver: &Solver) -> Vec<DratStep> {
    solver
        .proof()
        .expect("logging enabled")
        .steps()
        .iter()
        .map(|e| {
            if e.delete {
                DratStep::delete(e.lits.clone())
            } else {
                DratStep::add(e.lits.clone())
            }
        })
        .collect()
}

#[test]
fn random_cnfs_roundtrip_through_checker() {
    prop_check!(60, random_cnf, |cnf: RandomCnf| {
        let (result, solver) = solve_logged(&cnf);
        match result {
            SolveResult::Unsat => {
                // Every UNSAT answer must carry a checkable refutation.
                let proof = solver.proof().expect("logging enabled");
                let o = certify_unsat(proof.formula(), &logged_steps(&solver), &[]);
                assert!(o.accepted, "rejected: {:?}", o.detail);
                o.steps_used <= o.steps_logged
            }
            SolveResult::Sat => {
                // Every SAT answer must carry a satisfying model.
                cnf.clauses.iter().all(|c| {
                    c.iter().any(|&l| {
                        solver
                            .model_lit(Lit::from_dimacs(l as i64))
                            .expect("model complete")
                    })
                })
            }
            SolveResult::Unknown => panic!("unbudgeted solve returned Unknown"),
        }
    });
}

#[test]
fn corrupted_proofs_are_rejected() {
    // An odd XOR cycle: UNSAT, but only via search — pure BCP on the
    // formula cannot refute it, so the lemmas carry real content.
    let formula: Vec<Vec<i32>> = vec![
        vec![1, 2],
        vec![-1, -2],
        vec![2, 3],
        vec![-2, -3],
        vec![1, 3],
        vec![-1, -3],
    ];
    let mut solver = Solver::new();
    solver.enable_proof_log();
    for _ in 0..3 {
        solver.new_var();
    }
    for c in &formula {
        solver.add_clause(c.iter().map(|&l| Lit::from_dimacs(l as i64)));
    }
    assert_eq!(solver.solve(), SolveResult::Unsat);
    let steps = logged_steps(&solver);
    let good = certify_unsat(&formula, &steps, &[]);
    assert!(good.accepted, "{:?}", good.detail);

    // Corruption 1: drop the derivation entirely — claiming the empty
    // clause outright must not pass.
    let bogus = certify_unsat(&formula, &[], &[]);
    assert!(!bogus.accepted);
    assert!(bogus.detail.expect("detail").contains("not RUP"));

    // Corruption 2: smuggle in a step that is definitely not RUP — a
    // unit over a variable the formula never constrains. (Flipping a
    // literal of a real lemma is no good here: over an UNSAT formula
    // this small, almost any clause happens to be RUP.)
    let mut mutated = steps.clone();
    mutated.insert(0, DratStep::add(vec![4]));
    let o = certify_unsat(&formula, &mutated, &[]);
    assert!(!o.accepted, "underivable step accepted");
    assert!(o.detail.expect("detail").contains("not RUP"));

    // Corruption 3: a refutation for the wrong formula (satisfiable).
    let sat_formula: Vec<Vec<i32>> = vec![vec![1, 2], vec![-1, 3]];
    let o = certify_unsat(&sat_formula, &steps, &[]);
    assert!(!o.accepted, "proof transplanted onto a satisfiable formula");
}

#[test]
fn sbif_certificates_identical_across_jobs() {
    let div = nonrestoring_divider(5);
    let sim = divider_sim_words(&div, 3, 2);
    let mut stats_by_jobs: Vec<CertStats> = Vec::new();
    for jobs in [1usize, 4] {
        let cfg = SbifConfig { certify: true, jobs, ..SbifConfig::default() };
        let (_, stats) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            cfg,
            SbifOptions::default(),
        );
        assert_eq!(stats.cert.checked as usize, stats.proven);
        assert_eq!(stats.cert.rejected, 0);
        stats_by_jobs.push(stats.cert);
    }
    assert_eq!(
        stats_by_jobs[0], stats_by_jobs[1],
        "certificate statistics must not depend on the jobs field"
    );
}

#[test]
fn certified_verification_of_8bit_divider() {
    let div = nonrestoring_divider(8);
    let config = VerifierConfig { certify: true, ..VerifierConfig::default() };
    let report = DividerVerifier::new(&div).with_config(config).verify().expect("fits");
    assert!(report.is_correct());
    assert_eq!(report.vc1.outcome, Vc1Outcome::Proven);
    assert!(report.vc2.as_ref().expect("vc2 ran").holds);
    let cert = report.certificates();
    assert!(cert.checked > 0, "the run must exercise UNSAT answers");
    assert_eq!(cert.rejected, 0, "every UNSAT must be DRAT-certified");
    assert!(cert.steps_logged >= cert.steps_used);
}
