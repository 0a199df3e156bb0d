//! `layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one context line (configuration, host, passes) and, as the
//! last line, the result object
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when a verdict contradicts its known answer, a verifier call
//! fails or a replica check fails, 2 on a usage or set-up error (without
//! a result line).

use layerbench::run::run;
use layerbench::workload::{Workload, WORKLOADS};
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: layerbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

/// The revision of the checkout this runs in, read from `.git` without
/// running git; `unknown` outside a git work tree.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::find(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let outcome = match run(workload, seed, seconds, trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    for p in &outcome.problems {
        eprintln!("layerbench: FAILED: {p}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let known: Vec<String> = outcome.known.iter().map(|k| json_str(k)).collect();
    let walls: Vec<String> = outcome.pass_walls.iter().map(f64::to_string).collect();
    let walls_ref: Vec<String> = outcome.pass_walls_ref.iter().map(f64::to_string).collect();
    let cpu: Vec<String> = outcome.pass_cpu.iter().map(f64::to_string).collect();
    println!(
        "{{\"workload\": {}, \"config\": {}, \"seed\": {seed}, \"trace\": {}, \"nproc\": {nproc}, \"git_rev\": {}, \"known\": [{}], \"reference_s\": {}, \"pass_wall_s\": [{}], \"pass_wall_ref_s\": [{}], \"pass_cpu_s\": [{}]}}",
        json_str(workload.name),
        workload.config_json(),
        u8::from(trace),
        json_str(&git_rev()),
        known.join(", "),
        outcome.reference_s,
        walls.join(", "),
        walls_ref.join(", "),
        cpu.join(", ")
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
