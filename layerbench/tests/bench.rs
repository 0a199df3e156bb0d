//! Benchmark-local tests: seeded inputs, the known-answer oracle and
//! gate, the traced call and its accounting, and the metric names.
//!
//! Run with `cargo test --release --manifest-path layerbench/Cargo.toml`.

use layerbench::oracle::{known_answer, Known};
use layerbench::pipeline::{agreement, traced, verify, Agreement};
use layerbench::reference::{at_reference_speed, sample, ELASTICITY, REFERENCE_S};
use layerbench::run::{run, END_TO_END, PER_LAYER};
use layerbench::workload::{generate, load, Arch, Flow, Workload, WORKLOADS};
use sbif::govern::Verdict;
use std::collections::HashMap;
use std::time::Duration;

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for w in &WORKLOADS {
        let a = generate(w, 7);
        assert_eq!(a, generate(w, 7), "{}", w.name);
        let b = generate(w, 8);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(
                x.text, y.text,
                "{}: seeds 7 and 8 gave the same text",
                x.label
            );
            assert_eq!(
                x.text.len(),
                y.text.len(),
                "{}: renaming changed the size",
                x.label
            );
        }
    }
}

#[test]
fn renamed_inputs_load_to_the_generated_circuit() {
    let w = Workload::find("rewrite-mix").expect("workload exists");
    for (input, &(arch, n)) in generate(w, 3).iter().zip(w.designs) {
        let div = load(&input.text).expect("generated text loads");
        let original = arch.build(n);
        for (r0, d) in [(0u64, 1u64), (37, 5), (60, 7)] {
            let a = div.netlist.eval_u64(&[("r0", r0), ("d", d)]);
            let b = original.netlist.eval_u64(&[("r0", r0), ("d", d)]);
            assert_eq!((a["q"], a["r"]), (b["q"], b["r"]), "{}", input.label);
        }
    }
}

#[test]
fn oracle_accepts_generated_designs() {
    let w = Workload::find("rewrite-mix").expect("workload exists");
    for input in generate(w, 1) {
        let div = load(&input.text).expect("loads");
        assert!(
            matches!(
                known_answer(&div, 1),
                Known::Correct {
                    exhaustive: true,
                    ..
                }
            ),
            "{}",
            input.label
        );
    }
    let w = Workload::find("certify-nr20").expect("workload exists");
    let div = load(&generate(w, 1)[0].text).expect("loads");
    assert!(matches!(
        known_answer(&div, 1),
        Known::Correct {
            exhaustive: false,
            ..
        }
    ));
}

#[test]
fn oracle_rejects_injected_faults() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../tests/corpus/semantic_nonrestoring_gate-flip_n2.bnet"
    );
    let text = std::fs::read_to_string(path).expect("corpus file");
    let div = load(&text).expect("the faulty netlist still loads");
    assert!(matches!(known_answer(&div, 1), Known::Incorrect { .. }));

    // Swapping two remainder outputs of a wide divider: caught by the
    // random vectors, not only by exhaustive simulation.
    let text = load_swapped_outputs(Arch::NonRestoring.build(12));
    let div = load(&text).expect("loads");
    assert!(matches!(known_answer(&div, 5), Known::Incorrect { .. }));
}

fn load_swapped_outputs(div: sbif::netlist::build::Divider) -> String {
    let text = sbif::netlist::io::write_bnet(&div.netlist);
    text.lines()
        .map(|l| match l.strip_prefix(".output ") {
            Some(rest) if rest.starts_with("r[3] ") => format!(".output r[4] {}", &rest[5..]),
            Some(rest) if rest.starts_with("r[4] ") => format!(".output r[3] {}", &rest[5..]),
            _ => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn the_gate_fails_a_verdict_that_contradicts_the_known_answer() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../tests/corpus/semantic_nonrestoring_gate-flip_n2.bnet"
    );
    let faulty = load(&std::fs::read_to_string(path).expect("corpus file")).expect("loads");
    let cfg = WORKLOADS[0].config();
    let refuted = verify(&faulty, cfg).expect("verifies");
    let proven = verify(&Arch::NonRestoring.build(4), cfg).expect("verifies");
    assert_eq!(refuted.verdict, Verdict::Refuted);
    assert_eq!(proven.verdict, Verdict::Proven);

    let correct = Known::Correct {
        vectors: 1,
        exhaustive: true,
    };
    let incorrect = Known::Incorrect {
        dividend: 0,
        divisor: 1,
    };
    assert_eq!(agreement(&proven, &correct), Agreement::Decided);
    assert_eq!(agreement(&refuted, &incorrect), Agreement::Decided);
    assert_eq!(agreement(&proven, &incorrect), Agreement::Contradicts);
    assert_eq!(agreement(&refuted, &correct), Agreement::Contradicts);
}

#[test]
fn traced_call_replicates_the_untraced_metrics_report() {
    let cases = [
        (Arch::NonRestoring, 5, Flow::Full, false),
        (Arch::NonRestoring, 4, Flow::Vc1, true),
    ];
    for (arch, n, flow, certify) in cases {
        let w = Workload {
            name: "test",
            designs: &[],
            flow,
            certify,
        };
        let cfg = w.config();
        let div = arch.build(n);
        let untraced = verify(&div, cfg).expect("verifies");
        let (report, times) = traced(&div, cfg).expect("traced call");
        assert!(report.is_correct());
        assert_eq!(report.metrics.to_json(), untraced.metrics.to_json());
        assert!(times.layers() <= times.wall);
        assert!(times.get("sbif") > times.sbif_sat && times.get("rewrite") > Duration::ZERO);
        assert_eq!(times.get("vc2") > Duration::ZERO, flow == Flow::Full);
        assert_eq!(report.certificates().checked > 0, certify);
    }
}

#[test]
fn traced_run_accounts_for_its_wall_time() {
    static DESIGNS: [(Arch, usize); 2] = [(Arch::NonRestoring, 5), (Arch::Restoring, 4)];
    let w = Workload {
        name: "test",
        designs: &DESIGNS,
        flow: Flow::Full,
        certify: true,
    };
    let outcome = run(&w, 3, 0.2, true).expect("runs");
    assert!(outcome.correct, "{:?}", outcome.problems);
    assert_eq!(outcome.failed, 0);
    assert!(
        outcome.attempted >= 6,
        "two warm-up calls and a pass per design"
    );
    let m: HashMap<&str, f64> = outcome.metrics.iter().map(|&(n, _, v)| (n, v)).collect();
    assert_eq!(m.len(), PER_LAYER.len());
    let layers: f64 = [
        "smoke.s",
        "analysis.s",
        "sbif.s",
        "rewrite.s",
        "vc2.s",
        "residual.s",
    ]
    .iter()
    .map(|n| m[n])
    .sum();
    assert!((layers + m["unattributed_s"] - m["traced.wall_s"]).abs() < 1e-9);
    assert!(m["unattributed_s"] >= 0.0 && m["sbif.s"] > 0.0 && m["vc2.s"] > 0.0);
    assert!(m["cert.checked"] > 0.0 && m["sbif.windows_solved"] > 0.0);
}

#[test]
fn times_are_stated_at_the_reference_speed() {
    let r = Duration::from_secs_f64(REFERENCE_S);
    let t = Duration::from_secs(2);
    assert!((at_reference_speed(t, r, r) - 2.0).abs() < 1e-9);
    // Where the reference takes twice as long, a call that took 2 s
    // reads 2 / 2^ELASTICITY s; the mean of the two samples counts.
    let slow = 2.0 / 2f64.powf(ELASTICITY);
    assert!((at_reference_speed(t, 2 * r, 2 * r) - slow).abs() < 1e-9);
    assert!((at_reference_speed(t, r, 3 * r) - slow).abs() < 1e-9);
    assert!(sample() > Duration::ZERO);
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(seen.insert(*name), "{name} used twice");
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(!unit.is_empty() && unit.len() <= 16, "{name} has no unit");
        assert!(
            unit.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in &WORKLOADS {
        assert!(
            spec.contains(&format!("\"name\": \"{}\"", w.name)),
            "{}",
            w.name
        );
    }
}
