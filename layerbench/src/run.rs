//! One benchmark run: set-up, known answers, timed passes, metrics.

use crate::oracle::{known_answer, Known};
use crate::pipeline::{agreement, traced, verify, Agreement, LayerTimes};
use crate::reference::{self, at_reference_speed};
use crate::workload::{generate, load, parse_and_restrict, Workload};
use sbif::core::verify::VerificationReport;
use sbif::netlist::build::Divider;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decided_share", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("netlist.load_s", "s"),
    ("smoke.s", "s"),
    ("analysis.s", "s"),
    ("analysis.prefilter_decided", "count"),
    ("sbif.s", "s"),
    ("sbif.sat_s", "s"),
    ("sbif.refine_s", "s"),
    ("sbif.windows_solved", "count"),
    ("sbif.proven", "count"),
    ("sbif.refuted", "count"),
    ("sbif.refinements", "count"),
    ("sbif.solver_inits", "count"),
    ("sbif.proven_share", "ratio"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_s", "1/s"),
    ("cert.checked", "count"),
    ("cert.drat_bytes", "bytes"),
    ("cert.used_share", "ratio"),
    ("rewrite.s", "s"),
    ("rewrite.steps", "count"),
    ("rewrite.peak_terms", "count"),
    ("rewrite.total_terms", "count"),
    ("rewrite.terms_per_s", "1/s"),
    ("vc2.s", "s"),
    ("vc2.composed", "count"),
    ("vc2.reorders", "count"),
    ("vc2.peak_live_nodes", "count"),
    ("residual.s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
    ("traced.wall_s", "s"),
];

/// The set-up repeats at least this often and for at least this long
/// before the first timed pass and again after every pass, so that
/// `setup_s` takes many samples spread over the whole run, as `wall_s`
/// does.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_TIME: Duration = Duration::from_millis(100);

/// Untimed passes before the timed ones. The peak memory of one call
/// varies by a few per cent with the heap's layout; over two calls per
/// design it is steady.
const WARM_UP_PASSES: usize = 2;

/// A loaded workload design with its known answer.
struct Design {
    label: String,
    divider: Divider,
    known: Known,
}

/// The result of a run, before printing.
#[derive(Debug)]
pub struct Outcome {
    /// No verdict contradicted its known answer, no verifier call
    /// failed and, when traced, every replica check held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Wall time of every pass.
    pub pass_walls: Vec<f64>,
    /// Wall time of every pass at reference speed.
    pub pass_walls_ref: Vec<f64>,
    /// Median time of the reference work over the run.
    pub reference_s: f64,
    /// On-CPU time of every pass.
    pub pass_cpu: Vec<f64>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
    /// The known answer of each design, for the context line.
    pub known: Vec<String>,
}

/// Verdicts checked against the known answers so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    decided: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one verifier call; a verifier error or a verdict that
    /// contradicts the known answer is a problem.
    fn judge(&mut self, d: &Design, result: Result<&VerificationReport, &String>) {
        self.attempted += 1;
        match result.map(|r| (r, agreement(r, &d.known))) {
            Err(e) => self
                .problems
                .push(format!("{}: verifier error: {e}", d.label)),
            Ok((_, Agreement::Decided)) => self.decided += 1,
            Ok((r, Agreement::Undecided)) => eprintln!("{}: undecided: {:?}", d.label, r.verdict),
            Ok((r, Agreement::Contradicts)) => self.problems.push(format!(
                "{}: verdict {:?} contradicts the known answer {:?}",
                d.label, r.verdict, d.known
            )),
        }
    }
}

/// The per-layer counts of one verifier report, read from its stats
/// structs, in the order of [`COUNT_NAMES`].
fn counts(r: &VerificationReport) -> [u64; COUNT_NAMES.len()] {
    let (s, w) = (&r.vc1.sbif, &r.vc1.rewrite);
    let cert = r.certificates();
    let v = r.vc2.as_ref();
    [
        (s.prefilter_proven + s.prefilter_refuted) as u64,
        s.windows_solved as u64,
        s.proven as u64,
        s.refuted as u64,
        s.refinements as u64,
        s.solver_inits as u64,
        s.solver.conflicts,
        s.solver.decisions,
        s.solver.propagations,
        u64::from(cert.checked),
        cert.drat_bytes,
        cert.steps_logged,
        cert.steps_used,
        w.steps as u64,
        w.peak_terms as u64,
        w.total_terms,
        v.map_or(0, |v| v.wpc_stats.composed as u64),
        v.map_or(0, |v| v.wpc_stats.reorders as u64),
        v.map_or(0, |v| v.peak_nodes as u64),
    ]
}

/// Names of [`counts`]; over several designs the `peak` ones combine by
/// maximum, the others add.
const COUNT_NAMES: [&str; 19] = [
    "prefilter_decided",
    "windows_solved",
    "proven",
    "refuted",
    "refinements",
    "solver_inits",
    "conflicts",
    "decisions",
    "propagations",
    "cert_checked",
    "drat_bytes",
    "cert_steps_logged",
    "cert_steps_used",
    "rewrite_steps",
    "rewrite_peak_terms",
    "rewrite_total_terms",
    "vc2_composed",
    "vc2_reorders",
    "vc2_peak_live_nodes",
];

/// What one pass over the workload's designs measured.
struct Pass {
    /// Time from the first verifier call to the last verdict, not
    /// counting the reference samples between the calls.
    wall: Duration,
    /// `wall` at reference speed: each call's time scaled by the
    /// reference samples taken right before and right after it.
    wall_ref: f64,
    /// On-CPU time of the verifier calls.
    cpu: Duration,
    /// Traced runs only: layer times and counts, over all designs.
    layers: LayerTimes,
    counts: [u64; COUNT_NAMES.len()],
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set-up samples: the time to load every input through the frontend
/// (at reference speed), and the time of its netlist layer alone.
#[derive(Default)]
struct SetUp {
    total: Vec<f64>,
    netlist: Vec<f64>,
}

impl SetUp {
    /// Loads every input at least [`SETUP_MIN_REPEATS`] times and for
    /// at least [`SETUP_MIN_TIME`]. `before` is the reference sample
    /// taken right before; returns the one taken right after.
    fn sample(&mut self, texts: &[String], before: Duration) -> Result<Duration, String> {
        let start = Instant::now();
        let mut total = Vec::new();
        for k in 1.. {
            let t0 = Instant::now();
            for t in texts {
                load(t)?;
            }
            total.push(t0.elapsed());
            let mut netlist = Duration::ZERO;
            for t in texts {
                netlist += parse_and_restrict(t)?;
            }
            self.netlist.push(netlist.as_secs_f64());
            if k >= SETUP_MIN_REPEATS && start.elapsed() >= SETUP_MIN_TIME {
                break;
            }
        }
        let after = reference::sample();
        self.total
            .extend(total.into_iter().map(|t| at_reference_speed(t, before, after)));
        Ok(after)
    }
}

/// On-CPU time of the calling thread (`/proc/thread-self/schedstat`),
/// printed next to each pass's wall time: when the two track each
/// other, a slow pass ran on a slow host rather than waiting for a CPU.
fn thread_cpu() -> Duration {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map_or(Duration::ZERO, Duration::from_nanos)
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs `workload` for about `seconds` of timed passes (at least one).
///
/// Every design is first verified [`WARM_UP_PASSES`] times, untimed and
/// untraced: this warms up, gives the replica check its expectation,
/// and is where `peak_rss_mb` is read, before the reference work first
/// runs. Every
/// timed verifier call and every block of set-up loads is then
/// bracketed by reference samples, and `wall_s` and `setup_s` are
/// stated at reference speed (see [`crate::reference`]).
///
/// With `trace` off a pass makes the untraced verifier call per design.
/// With `trace` on it makes the traced call instead, and checks each
/// design's metrics payload against the warm-up call's, and its counts
/// against those of the first pass.
///
/// # Errors
///
/// Set-up failures: an input the frontend rejects, or a missing
/// `/proc/self/status`.
pub fn run(workload: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let inputs = generate(workload, seed);
    let texts: Vec<String> = inputs.iter().map(|i| i.text.clone()).collect();
    let designs = inputs
        .into_iter()
        .enumerate()
        .map(|(k, input)| {
            let divider = load(&input.text)?;
            Ok(Design {
                known: known_answer(&divider, seed.wrapping_add(k as u64)),
                label: input.label,
                divider,
            })
        })
        .collect::<Result<Vec<Design>, String>>()?;
    let cfg = workload.config();

    let mut tally = Tally::default();
    // Each design's deterministic metrics payload (`sbif-metrics-v1`)
    // from a warm-up call: the replica check's expectation.
    let mut replica = vec![String::new(); designs.len()];
    for _ in 0..WARM_UP_PASSES {
        for (d, payload) in designs.iter().zip(&mut replica) {
            let result = verify(&d.divider, cfg);
            tally.judge(d, result.as_ref());
            *payload = result.map(|r| r.metrics.to_json()).unwrap_or_default();
        }
    }
    let peak_rss = peak_rss_mb()?;

    let mut setup = SetUp::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_counts: Vec<[u64; COUNT_NAMES.len()]> = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut before = setup.sample(&texts, reference::sample())?;
    let mut samples = vec![before.as_secs_f64()];
    loop {
        let mut pass = Pass {
            wall: Duration::ZERO,
            wall_ref: 0.0,
            cpu: Duration::ZERO,
            layers: LayerTimes::default(),
            counts: [0; COUNT_NAMES.len()],
        };
        for (k, d) in designs.iter().enumerate() {
            let cpu0 = thread_cpu();
            let t0 = Instant::now();
            let result = if trace {
                traced(&d.divider, cfg)
            } else {
                verify(&d.divider, cfg).map(|r| (r, LayerTimes::default()))
            };
            let wall = t0.elapsed();
            pass.cpu += thread_cpu().saturating_sub(cpu0);
            let after = reference::sample();
            samples.push(after.as_secs_f64());
            pass.wall += wall;
            pass.wall_ref += at_reference_speed(wall, before, after);
            before = after;
            tally.judge(d, result.as_ref().map(|(r, _)| r));
            let Ok((report, layers)) = result else {
                continue;
            };
            if !trace {
                continue;
            }
            if report.metrics.to_json() != replica[k] {
                tally.problems.push(format!(
                    "{}: the traced call's metrics payload differs from the untraced call's",
                    d.label
                ));
            }
            let c = counts(&report);
            match first_counts.get(k) {
                None => first_counts.push(c),
                Some(first) if *first != c => tally.problems.push(format!(
                    "{}: counts did not repeat: {first:?} then {c:?} ({COUNT_NAMES:?})",
                    d.label
                )),
                Some(_) => {}
            }
            pass.layers.absorb(&layers);
            for (i, (total, v)) in pass.counts.iter_mut().zip(c).enumerate() {
                *total = if COUNT_NAMES[i].ends_with("peak_terms")
                    || COUNT_NAMES[i].ends_with("peak_live_nodes")
                {
                    (*total).max(v)
                } else {
                    *total + v
                };
            }
        }
        passes.push(pass);
        before = setup.sample(&texts, before)?;
        samples.push(before.as_secs_f64());
        // Start another pass only if it is expected to end in budget.
        let per_pass = start.elapsed() / passes.len() as u32;
        if start.elapsed() + per_pass > budget {
            break;
        }
    }

    let pass_walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let pass_walls_ref: Vec<f64> = passes.iter().map(|p| p.wall_ref).collect();
    let metrics = if trace {
        layer_metrics(&passes, median(setup.netlist))
    } else {
        let values = [
            median(pass_walls_ref.clone()),
            median(setup.total),
            peak_rss,
            ratio(tally.decided as f64, tally.attempted as f64),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    Ok(Outcome {
        correct: tally.problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.attempted - tally.decided,
        metrics,
        pass_walls,
        pass_walls_ref,
        reference_s: median(samples),
        pass_cpu: passes.iter().map(|p| p.cpu.as_secs_f64()).collect(),
        problems: tally.problems,
        known: designs
            .iter()
            .map(|d| format!("{}: {:?}", d.label, d.known))
            .collect(),
    })
}

/// The per-layer metrics of the median pass (by traced wall time), so
/// that its layer times plus `unattributed_s` add up to its
/// `traced.wall_s` exactly.
fn layer_metrics(passes: &[Pass], netlist_load_s: f64) -> Vec<(&'static str, &'static str, f64)> {
    let mut order: Vec<&Pass> = passes.iter().collect();
    order.sort_by_key(|p| p.layers.wall);
    let p = order[(order.len() - 1) / 2];
    let t = &p.layers;
    let c = |name: &str| {
        let k = COUNT_NAMES.iter().position(|&n| n == name);
        p.counts[k.expect("a count name")] as f64
    };
    let secs = |layer: &str| t.get(layer).as_secs_f64();
    let wall = t.wall.as_secs_f64();
    let sbif_sat = t.sbif_sat.as_secs_f64();
    let values = [
        netlist_load_s,
        secs("smoke"),
        secs("analysis"),
        c("prefilter_decided"),
        secs("sbif"),
        sbif_sat,
        secs("sbif") - sbif_sat,
        c("windows_solved"),
        c("proven"),
        c("refuted"),
        c("refinements"),
        c("solver_inits"),
        ratio(c("proven"), c("windows_solved")),
        c("conflicts"),
        c("decisions"),
        c("propagations"),
        ratio(c("propagations"), sbif_sat),
        c("cert_checked"),
        c("drat_bytes"),
        ratio(c("cert_steps_used"), c("cert_steps_logged")),
        secs("rewrite"),
        c("rewrite_steps"),
        c("rewrite_peak_terms"),
        c("rewrite_total_terms"),
        ratio(c("rewrite_total_terms"), secs("rewrite")),
        secs("vc2"),
        c("vc2_composed"),
        c("vc2_reorders"),
        c("vc2_peak_live_nodes"),
        secs("residual"),
        wall - t.layers().as_secs_f64(),
        t.sink.as_secs_f64(),
        wall,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}
