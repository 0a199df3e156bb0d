//! Integration and property coverage of the static-analysis framework
//! (DESIGN.md §14): ternary propagation against exhaustive simulation,
//! cone slicing against random stimulus, and the SBIF prefilter's
//! contract — strictly fewer window solvers, byte-identical equivalence
//! classes.

mod common;

use common::{prop_check, random_netlist};
use sbif::analysis::signature::signatures;
use sbif::analysis::ternary::propagate;
use sbif::analysis::{analyze, AnalysisConfig};
use sbif::core::sbif::{
    divider_sim_words, forward_information, EquivClasses, SbifConfig, SbifOptions,
    SbifPrefilter,
};
use sbif::netlist::build::nonrestoring_divider;
use sbif::netlist::{BinOp, Gate, Netlist, Sig};
use sbif::trace::Recorder;
use sbif_rng::XorShift64;
use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sbif_analysis_{}_{name}", std::process::id()))
}

fn sbif_verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sbif-verify")).args(args).output().expect("spawn")
}

fn sbif_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sbif-lint")).args(args).output().expect("spawn")
}

// ---------- ternary propagation vs. exhaustive simulation ------------------

/// Every value the ternary fixpoint claims to know must hold on every
/// input assignment that satisfies the constraint (all assignments when
/// unconstrained). Exhaustive over netlists of ≤ 10 inputs.
#[test]
fn prop_ternary_agrees_with_exhaustive_sim() {
    prop_check!(
        48,
        |rng: &mut XorShift64| {
            let inputs = rng.range_usize(2, 11);
            let gates = rng.range_usize(4, 30);
            (rng.next_u64(), inputs, gates, rng.next_bool())
        },
        |(seed, inputs, gates, constrained): (u64, usize, usize, bool)| {
            let nl = random_netlist(seed, inputs, gates);
            // A random signal doubles as the side condition C. (The
            // builder folds and strashes, so `num_signals` may be less
            // than `inputs + gates`.)
            let constraint =
                constrained.then(|| Sig((seed as usize % nl.num_signals()) as u32));
            let r = propagate(&nl, constraint);
            for bits in 0u32..1 << inputs {
                let assignment: Vec<bool> = (0..inputs).map(|i| bits >> i & 1 == 1).collect();
                let vals = nl.simulate_bool(&assignment);
                if let Some(c) = constraint {
                    if !vals[c.index()] {
                        continue; // facts only hold under C = 1
                    }
                }
                for s in nl.signals() {
                    if let Some(v) = r.values[s.index()].known() {
                        if vals[s.index()] != v {
                            return false;
                        }
                    }
                }
            }
            true
        }
    );
}

// ---------- cone slicing vs. random stimulus --------------------------------

/// Slicing on the output cone never changes any declared output, for any
/// stimulus — the slice keeps every primary input, so the same input
/// words drive both netlists.
#[test]
fn prop_cone_slice_preserves_outputs() {
    prop_check!(
        48,
        |rng: &mut XorShift64| {
            let inputs = rng.range_usize(2, 9);
            let gates = rng.range_usize(4, 40);
            (rng.next_u64(), inputs, gates)
        },
        |(seed, inputs, gates): (u64, usize, usize)| {
            let mut nl = random_netlist(seed, inputs, gates);
            // A mid-netlist root makes the slice keep an inner cone too.
            let mid = Sig((seed as usize % nl.num_signals()) as u32);
            nl.add_output("m", mid);
            let roots: Vec<Sig> = nl.outputs().iter().map(|(_, s)| *s).collect();
            let (sliced, map) = nl.slice(&roots);
            let mut stim = XorShift64::seed_from_u64(seed ^ 0xC0FE);
            let words: Vec<u64> = (0..inputs).map(|_| stim.next_u64()).collect();
            let full = nl.simulate64(&words);
            let cut = sliced.simulate64(&words);
            nl.outputs()
                .iter()
                .all(|(_, s)| cut[map[s.index()].expect("root kept").index()] == full[s.index()])
        }
    );
}

// ---------- the SBIF prefilter contract ------------------------------------

fn reps(nl: &Netlist, classes: &EquivClasses) -> Vec<(Sig, bool)> {
    nl.signals().map(|s| classes.rep(s)).collect()
}

/// The acceptance bar of the framework: on a real divider the prefilter
/// must solve strictly fewer windows while leaving the final classes —
/// and every logical statistic — bit-identical to the prefilter-free
/// run.
#[test]
fn prefilter_prunes_windows_and_preserves_classes() {
    let div = nonrestoring_divider(6);
    let sim = divider_sim_words(&div, 7, 4);
    let shadow_sim = divider_sim_words(&div, 99, 2);
    let cfg = SbifConfig::default();
    let (base_classes, base) =
        forward_information(&div.netlist, Some(div.constraint), &sim, cfg, SbifOptions::default());
    assert_eq!(base.windows_solved, base.sat_checks, "no prefilter, no gap");

    let acfg = AnalysisConfig {
        constraint: Some(div.constraint),
        shadow_planes: Some(shadow_sim),
        ..AnalysisConfig::default()
    };
    let db = analyze(&div.netlist, &acfg, &Recorder::new());
    let pf =
        SbifPrefilter { shadow: db.shadow, planes: db.shadow_planes, ..SbifPrefilter::default() };
    let opts = SbifOptions { prefilter: Some(&pf), ..SbifOptions::default() };
    let (classes, stats) = forward_information(&div.netlist, Some(div.constraint), &sim, cfg, opts);

    assert_eq!(reps(&div.netlist, &base_classes), reps(&div.netlist, &classes));
    assert_eq!(base.proven, stats.proven);
    assert_eq!(base.refuted, stats.refuted);
    assert_eq!(base.unknown, stats.unknown);
    assert_eq!(base.refinements, stats.refinements);
    assert!(stats.prefilter_proven > 0, "{stats:?}");
    assert!(stats.windows_solved < stats.sat_checks, "{stats:?}");
    assert_eq!(
        stats.windows_solved + stats.prefilter_proven + stats.prefilter_refuted,
        stats.sat_checks
    );
}

/// The shadow-signature path: stimulus that satisfies C but that the
/// primary planes missed refutes a candidate pair before any solver is
/// built, with the same verdict the solver would have returned.
#[test]
fn shadow_signatures_refute_without_a_solver() {
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let b = nl.input("b");
    let x = nl.and(a, b);
    let y = nl.or(a, b);
    nl.add_output("o1", x);
    nl.add_output("o2", y);
    // The primary stimulus only ever drives a == b, so AND and OR look
    // identical and become candidates.
    let sim = vec![vec![0b01u64], vec![0b01u64]];
    let cfg = SbifConfig::default();
    let (base_classes, base) = forward_information(&nl, None, &sim, cfg, SbifOptions::default());
    assert!(base.sat_checks > 0);
    assert_eq!(base.windows_solved, base.sat_checks);
    assert_eq!(base.proven, 0, "{base:?}");

    // Shadow planes include a != b: every pair is told apart up front.
    let planes = vec![vec![0b0011u64], vec![0b0101u64]];
    let pf = SbifPrefilter { shadow: signatures(&nl, &planes), planes, ..SbifPrefilter::default() };
    let opts = SbifOptions { prefilter: Some(&pf), ..SbifOptions::default() };
    let (classes, stats) = forward_information(&nl, None, &sim, cfg, opts);
    assert!(stats.prefilter_refuted > 0, "{stats:?}");
    assert_eq!(stats.windows_solved, 0, "{stats:?}");
    assert_eq!(
        stats.windows_solved + stats.prefilter_proven + stats.prefilter_refuted,
        stats.sat_checks
    );
    assert_eq!(reps(&nl, &base_classes), reps(&nl, &classes));
}

/// The opt-in cone mask: signals outside the live cone are skipped by
/// the candidate scan entirely (this trades class identity for fewer
/// checks, which is why `verify.rs` does not enable it by default).
#[test]
fn live_mask_skips_dead_signals() {
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let b = nl.input("b");
    let x = nl.and(a, b);
    // The builder strashes `and(b, a)` back to `x`; push the raw gate to
    // get a distinct, commuted, dead duplicate.
    let dead = nl.push_gate(Gate::Binary(BinOp::And, b, a));
    nl.add_output("o", x);
    let sim = vec![vec![0x0123_4567_89AB_CDEFu64], vec![0xFEDC_BA98_7654_3210u64]];
    let cfg = SbifConfig::default();
    let (_, base) = forward_information(&nl, None, &sim, cfg, SbifOptions::default());
    assert_eq!(base.proven, 1, "dead duplicate merges without a mask: {base:?}");

    let db = analyze(&nl, &AnalysisConfig::default(), &Recorder::new());
    let mask = db.sbif_live_mask(&nl);
    assert!(!mask[dead.index()] && mask[x.index()]);
    let pf = SbifPrefilter { live: mask, ..SbifPrefilter::default() };
    let opts = SbifOptions { prefilter: Some(&pf), ..SbifOptions::default() };
    let (_, stats) = forward_information(&nl, None, &sim, cfg, opts);
    assert_eq!(stats.proven, 0, "masked scan never reaches the dead gate: {stats:?}");
    assert!(stats.sat_checks < base.sat_checks, "{stats:?} vs {base:?}");
}

// ---------- CLI surface -----------------------------------------------------

/// `--analysis-out` dumps the database as canonical JSON, byte-identical
/// across runs.
#[test]
fn analysis_out_is_canonical_and_deterministic() {
    let p1 = tmp("adb1.json");
    let p2 = tmp("adb2.json");
    for p in [&p1, &p2] {
        let out = sbif_verify(&["--demo", "4", "--vc1-only", "--analysis-out", p.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let d1 = std::fs::read_to_string(&p1).expect("dump 1");
    let d2 = std::fs::read_to_string(&p2).expect("dump 2");
    assert_eq!(d1, d2);
    assert!(d1.starts_with("{\n  \"schema\": \"sbif-analysis-v1\""), "{}", &d1[..80]);
    let _ = (std::fs::remove_file(&p1), std::fs::remove_file(&p2));
}

/// The rewritten `sbif-lint` drives the framework: transitive duplicates
/// (invisible to the old exact-shape check) are reported, and `--allow`
/// suppresses a warning rule by name.
#[test]
fn lint_driver_reports_transitive_duplicates_and_honors_allow() {
    let path = tmp("dups.bnet");
    std::fs::write(
        &path,
        ".inputs a b c\n\
         x = AND a b\n\
         y = AND b a\n\
         g1 = OR x c\n\
         g2 = OR y c\n\
         o = XOR g1 g2\n\
         .output s o\n\
         .end\n",
    )
    .expect("write netlist");
    let p = path.to_str().unwrap();

    let out = sbif_lint(&[p]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    // y duplicates x directly; g2 duplicates g1 only through that merge.
    assert!(stdout.contains("duplicate-gate") && stdout.contains("\"g2\""), "{stdout}");

    let strict = sbif_lint(&["--strict", p]);
    assert_eq!(strict.status.code(), Some(1), "{}", String::from_utf8_lossy(&strict.stdout));

    let allowed = sbif_lint(&["--strict", "--allow", "duplicate-gate", p]);
    let stdout = String::from_utf8_lossy(&allowed.stdout);
    assert_eq!(allowed.status.code(), Some(0), "{stdout}");
    assert!(!stdout.contains("duplicate-gate"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}
