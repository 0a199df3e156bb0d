//! Differential tests for the content-addressed result cache
//! (DESIGN.md §15).
//!
//! Three contracts:
//!
//! * **cold = warm** — a warm hit replays the stored verdict and
//!   `sbif-metrics-v1` stub byte for byte, and because the cache key
//!   normalizes the inert `SbifConfig::jobs` field away, a config that
//!   only differs there hits the same entry,
//! * **dirty-cone accounting** — a single mutated gate misses the
//!   design key, and [`sbif::cache::Lookup`] reports exactly the cones
//!   whose canonical digest the edit changed as cold, the rest as
//!   already judged,
//! * **end-to-end** — the `sbif-verify --cache-dir` CLI produces
//!   byte-identical metrics files cold and warm and labels the hit.

use sbif::cache::ResultCache;
use sbif::core::verify::VerifierConfig;
use sbif::fuzz::{apply, enumerate_sites, FaultModel};
use sbif::netlist::build::nonrestoring_divider;
use sbif::serve::{design_key, verify_cached};
use sbif::trace::Recorder;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sbif_cache_it_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn config_with_jobs(jobs: usize) -> VerifierConfig {
    let mut c = VerifierConfig::default();
    c.sbif.jobs = jobs;
    c
}

#[test]
fn cold_and_warm_verdicts_and_metrics_agree_at_jobs_1_and_4() {
    let div = nonrestoring_divider(4);
    let cache = ResultCache::in_memory();

    // Cold: proves and stores.
    let cold = verify_cached(&div, config_with_jobs(1), Some(&cache), Recorder::new())
        .expect("cold run");
    assert!(cold.correct && !cold.cached && cold.stored);

    // A no-cache reference run: its payload is byte-identical to the
    // stored one — the determinism the cache rests on.
    let reference = verify_cached(&div, config_with_jobs(1), None, Recorder::new())
        .expect("reference run");
    assert_eq!(reference.metrics_json, cold.metrics_json);

    // Warm, with and without the inert `jobs` field set: both hit the
    // same entry and replay the stub byte for byte; the recorder stays
    // silent (nothing ran).
    for jobs in [1, 4] {
        let rec = Recorder::new();
        let warm = verify_cached(&div, config_with_jobs(jobs), Some(&cache), rec.clone())
            .expect("warm run");
        assert!(warm.cached && !warm.stored, "jobs {jobs}");
        assert_eq!(warm.verdict, cold.verdict, "jobs {jobs}");
        assert_eq!(warm.metrics_json, cold.metrics_json, "jobs {jobs}");
        assert_eq!(rec.finish().counter("sbif.windows_solved"), 0, "jobs {jobs}");
    }
}

#[test]
fn single_gate_mutation_invalidates_exactly_the_dirty_cones() {
    let div = nonrestoring_divider(4);
    let config = VerifierConfig::default();
    let cache = ResultCache::in_memory();
    let (key, cones) = design_key(&div, &config);
    verify_cached(&div, config, Some(&cache), Recorder::new()).expect("seed run");
    let judged: BTreeSet<(u64, bool)> = cones.iter().copied().collect();

    // Walk the stuck-at-1 sites until one sits in some but not all
    // output cones — the interesting incremental case.
    let mut partial_seen = false;
    for m in enumerate_sites(&div, FaultModel::StuckAt1) {
        let mutant = apply(&div, &m);
        let (mkey, mcones) = design_key(&mutant, &config);
        if mkey == key {
            continue; // digest-equal rewrite (e.g. a stuck constant that was already constant)
        }
        let looked = cache.lookup(mkey, &mcones);
        assert!(looked.entry.is_none(), "mutated design key must miss");
        // Exactness: a cone counts as judged iff its canonical digest
        // is untouched by the edit — those are the clean cones; the
        // dirty ones (digest changed) are cold.
        let clean = mcones.iter().filter(|c| judged.contains(c)).count();
        assert_eq!(looked.cone_hits, clean, "site {:?}", m.site);
        assert_eq!(looked.cone_misses, mcones.len() - clean, "site {:?}", m.site);
        assert!(looked.cone_misses > 0, "a key-changing edit dirties at least one cone");
        if looked.cone_hits > 0 {
            partial_seen = true;
        }
    }
    assert!(
        partial_seen,
        "at least one single-gate edit must leave some cones clean — \
         otherwise the dirty-cone accounting is vacuous"
    );
}

#[test]
fn cache_dir_cli_is_byte_identical_cold_and_warm() {
    let dir = tmpdir("cli");
    let netlist = dir.join("d4.bnet");
    let cache_dir = dir.join("cache");
    let emit = Command::new(env!("CARGO_BIN_EXE_sbif-verify"))
        .args(["--emit", "4", netlist.to_str().unwrap()])
        .output()
        .expect("emit runs");
    assert!(emit.status.success());

    let run = |metrics: &PathBuf| {
        let out = Command::new(env!("CARGO_BIN_EXE_sbif-verify"))
            .arg(&netlist)
            .args(["--cache-dir", cache_dir.to_str().unwrap()])
            .args(["--metrics-out", metrics.to_str().unwrap()])
            .output()
            .expect("verify runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };

    let cold_metrics = dir.join("cold.json");
    let warm_metrics = dir.join("warm.json");
    let cold_out = run(&cold_metrics);
    assert!(cold_out.contains("VERDICT: correct"), "{cold_out}");
    assert!(!cold_out.contains("(cached)"), "{cold_out}");

    let warm_out = run(&warm_metrics);
    assert!(warm_out.contains("VERDICT: correct (cached)"), "{warm_out}");

    let cold_bytes = std::fs::read(&cold_metrics).unwrap();
    let warm_bytes = std::fs::read(&warm_metrics).unwrap();
    assert_eq!(cold_bytes, warm_bytes, "metrics stub must replay byte-identically");
    assert!(String::from_utf8_lossy(&cold_bytes).contains("sbif-metrics-v1"));

    let _ = std::fs::remove_dir_all(&dir);
}
