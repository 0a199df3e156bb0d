//! Soundness and counterexample pruning of the SBIF scan.
//!
//! The sequential level-major scan (see `crates/core/src/sbif/scan.rs`)
//! promises sound merges and counterexample-driven candidate pruning.
//! Each promise is checked here.

use sbif::core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifOptions};
use sbif::netlist::build::nonrestoring_divider;
use sbif::netlist::Netlist;

/// Every merged pair must hold on *every* input satisfying C — checked
/// by exhaustive 64-lane simulation.
#[test]
fn parallel_merges_are_sound_under_constraint() {
    for n in [4usize, 6, 8] {
        let div = nonrestoring_divider(n);
        let sim = divider_sim_words(&div, 7, 2);
        let (classes, stats) = forward_information(
            &div.netlist,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
            SbifOptions::default(),
        );
        assert!(stats.proven > 0, "n={n}");
        // Enumerate all valid (r0, d) pairs, 64 per simulation word.
        let pairs: Vec<(u64, u64)> = (1..1u64 << (n - 1))
            .flat_map(|d| (0..(d << (n - 1))).map(move |r0| (r0, d)))
            .collect();
        let num_inputs = div.netlist.inputs().len();
        for chunk in pairs.chunks(64) {
            let mut planes = vec![0u64; num_inputs];
            for (lane, &(r0, d)) in chunk.iter().enumerate() {
                for (i, &s) in div.netlist.inputs().iter().enumerate() {
                    let name = div.netlist.name(s).expect("named input");
                    let (bus, idx) = name
                        .split_once('[')
                        .map(|(b, r)| {
                            (b, r.trim_end_matches(']').parse::<usize>().expect("index"))
                        })
                        .expect("bus input");
                    let v = if bus == "r0" { r0 } else { d };
                    if (v >> idx) & 1 == 1 {
                        planes[i] |= 1 << lane;
                    }
                }
            }
            let mask = if chunk.len() == 64 { u64::MAX } else { (1 << chunk.len()) - 1 };
            let vals = div.netlist.simulate64(&planes);
            for s in div.netlist.signals() {
                let (r, neg) = classes.rep(s);
                let expect = if neg { !vals[r.index()] } else { vals[r.index()] };
                assert_eq!(
                    vals[s.index()] & mask,
                    expect & mask,
                    "n={n}: {s} disagrees with its representative {r}"
                );
            }
        }
    }
}

/// A candidate pair that only *looks* equivalent on the initial
/// simulation vectors is split by the counterexample its SAT check
/// returns: with refinement enabled the engine re-simulates the model
/// and never examines pairs from the stale bucket again.
#[test]
fn counterexamples_prune_spurious_candidates() {
    // All signals evaluate to 0 on the all-zero pattern, so a single
    // all-zero simulation word throws every signal into one bucket —
    // maximally spurious candidates.
    let mut nl = Netlist::new();
    let a = nl.input("a");
    let b = nl.input("b");
    let c = nl.input("c");
    let g1 = nl.and(a, b);
    let g2 = nl.or(a, b);
    let g3 = nl.xor(a, c);
    let g4 = nl.or(b, c);
    let g5 = nl.and(g2, g4);
    let out = nl.xor(g1, g5);
    let o = nl.or(out, g3);
    nl.add_output("o", o);
    let sim: Vec<Vec<u64>> = vec![vec![0]; 3];

    let eager = SbifConfig { cex_flush: 1, ..SbifConfig::default() };
    let lazy = SbifConfig { cex_flush: usize::MAX, ..SbifConfig::default() };
    let opts = SbifOptions::default();
    let (refined, refined_stats) = forward_information(&nl, None, &sim, eager, opts);
    let (stale, stale_stats) = forward_information(&nl, None, &sim, lazy, opts);

    assert!(refined_stats.refinements > 0, "the SAT models must trigger refinement");
    assert_eq!(stale_stats.refinements, 0);
    assert!(
        refined_stats.sat_checks < stale_stats.sat_checks,
        "refinement must prune checks ({} vs {})",
        refined_stats.sat_checks,
        stale_stats.sat_checks
    );

    // Both runs stay sound on all 8 input assignments.
    for (label, classes) in [("refined", &refined), ("stale", &stale)] {
        for bits in 0u64..8 {
            let inputs: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            let vals = nl.simulate_bool(&inputs);
            for s in nl.signals() {
                let (r, neg) = classes.rep(s);
                assert_eq!(
                    vals[s.index()],
                    vals[r.index()] ^ neg,
                    "{label}: bits={bits:b} {s}"
                );
            }
        }
    }
}
