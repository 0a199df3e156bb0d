//! The three workloads, their seeded inputs, and the program's frontend.
//!
//! A workload fixes the designs (architecture and width) and the flow.
//! The seed only renames the internal nets of each generated netlist
//! (and drives the known-answer vectors, see [`crate::oracle`]): the
//! verifier receives the same circuits under different names, so its
//! deterministic work is identical for every seed while the bytes it
//! parses are not.

use sbif::core::verify::VerifierConfig;
use sbif::netlist::build::{
    array_divider, nonrestoring_divider, restoring_divider, srt_divider, Divider,
};
use sbif::netlist::io::{read_netlist, write_bnet, Format};
use sbif::serve::load_divider;
use sbif_rng::XorShift64;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Divider architecture of a workload design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    NonRestoring,
    Restoring,
    Array,
    Srt,
}

impl Arch {
    /// The generator's name, as `sbif-verify --arch` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Arch::NonRestoring => "nonrestoring",
            Arch::Restoring => "restoring",
            Arch::Array => "array",
            Arch::Srt => "srt",
        }
    }

    /// Generates the `n`-bit divider of this architecture.
    pub fn build(self, n: usize) -> Divider {
        match self {
            Arch::NonRestoring => nonrestoring_divider(n),
            Arch::Restoring => restoring_divider(n),
            Arch::Array => array_divider(n),
            Arch::Srt => srt_divider(n),
        }
    }
}

/// Which verification conditions a workload checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// vc1 only: SBIF + backward rewriting (`sbif-verify --vc1-only`).
    Vc1,
    /// vc1 and the vc2 BDD check.
    Full,
}

/// One benchmark workload. Every run is a closed loop in one process:
/// one client, one design at a time, `jobs = 1`, no result cache.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub designs: &'static [(Arch, usize)],
    pub flow: Flow,
    pub certify: bool,
}

/// The workloads, each loading most of its work on one layer. Every
/// verifier call takes about a second or less: the host's speed drifts
/// from one call to the next, and only a median over many calls, each
/// scaled by the reference samples around it, is steady (see
/// [`crate::reference`]).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "vc1-nr24",
        designs: &[(Arch::NonRestoring, 24)],
        flow: Flow::Vc1,
        certify: false,
    },
    Workload {
        name: "rewrite-mix",
        designs: &[(Arch::Restoring, 5), (Arch::Array, 5), (Arch::Srt, 4)],
        flow: Flow::Full,
        certify: false,
    },
    Workload {
        name: "certify-nr20",
        designs: &[(Arch::NonRestoring, 20)],
        flow: Flow::Vc1,
        certify: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The verifier configuration of every call in this workload.
    pub fn config(&self) -> VerifierConfig {
        let mut cfg = VerifierConfig {
            check_vc2: self.flow == Flow::Full,
            certify: self.certify,
            ..VerifierConfig::default()
        };
        cfg.sbif.jobs = 1;
        cfg
    }

    /// The configuration as a JSON object, printed with every result.
    pub fn config_json(&self) -> String {
        let designs: Vec<String> = self
            .designs
            .iter()
            .map(|(a, n)| format!("{{\"arch\": \"{}\", \"n\": {n}}}", a.name()))
            .collect();
        let flow = match self.flow {
            Flow::Vc1 => "vc1",
            Flow::Full => "vc1+vc2",
        };
        format!(
            "{{\"designs\": [{}], \"flow\": \"{flow}\", \"jobs\": 1, \"cache\": false, \"certify\": {}}}",
            designs.join(", "),
            self.certify
        )
    }
}

/// A generated input: the BNET text of one workload design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// `arch-n`, e.g. `restoring-6`.
    pub label: String,
    pub text: String,
}

/// Generates the workload's inputs from `seed`: the same seed gives
/// byte-identical text.
pub fn generate(w: &Workload, seed: u64) -> Vec<Input> {
    w.designs
        .iter()
        .enumerate()
        .map(|(k, &(arch, n))| {
            let mut rng =
                XorShift64::seed_from_u64(seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9));
            Input {
                label: format!("{}-{n}", arch.name()),
                text: rename_nets(&write_bnet(&arch.build(n).netlist), &mut rng),
            }
        })
        .collect()
}

/// Renames every internal net `n<index>` of a BNET text to `w<hex>`
/// under a random permutation of the indices. Primary inputs and output
/// names keep their bus names; the name length stays fixed, so every
/// seed produces a file of the same size.
fn rename_nets(text: &str, rng: &mut XorShift64) -> String {
    let is_net =
        |t: &str| t.len() > 1 && t.starts_with('n') && t[1..].bytes().all(|b| b.is_ascii_digit());
    let defined: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_once(" = ").map(|(lhs, _)| lhs))
        .filter(|t| is_net(t))
        .collect();
    let mut perm: Vec<usize> = (0..defined.len()).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let digits = format!("{:x}", defined.len().max(1)).len();
    let names: HashMap<&str, String> = defined
        .iter()
        .zip(&perm)
        .map(|(&old, &p)| (old, format!("w{p:0digits$x}")))
        .collect();
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let renamed: Vec<&str> = line
            .split(' ')
            .map(|t| names.get(t).map_or(t, String::as_str))
            .collect();
        out.push_str(&renamed.join(" "));
        out.push('\n');
    }
    out
}

/// Loads one BNET text through the program's frontend,
/// `sbif::serve::load_divider` (lint, parse, cone restriction, interface
/// binding), as `sbif-verify <file>` and `sbif-serve` do.
///
/// # Errors
///
/// The frontend's message: lint errors, parse errors, a malformed bus.
pub fn load(text: &str) -> Result<Divider, String> {
    load_divider(text, Format::Bnet)
}

/// Times the netlist layer alone: `read_netlist` plus
/// `restricted_to_outputs` (the `netlist.load_s` layer metric).
///
/// # Errors
///
/// A parse error.
pub fn parse_and_restrict(text: &str) -> Result<Duration, String> {
    let t0 = Instant::now();
    let nl = read_netlist(text, Format::Bnet).map_err(|e| e.to_string())?;
    std::hint::black_box(nl.restricted_to_outputs());
    Ok(t0.elapsed())
}
