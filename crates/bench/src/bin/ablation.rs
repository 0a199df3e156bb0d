//! Ablation study over the design choices DESIGN.md calls out:
//!
//! * SBIF on/off (the headline comparison),
//! * window depth `d_max` (the paper uses 4),
//! * atomic-block substitution on/off,
//! * number of simulation words for candidate detection.
//!
//! Usage: `ablation [n]` (default 8).

use sbif_core::rewrite::{BackwardRewriter, RewriteConfig};
use sbif_core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifOptions};
use sbif_core::spec::divider_spec;
use sbif_netlist::build::nonrestoring_divider;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let div = nonrestoring_divider(n);
    let nl = &div.netlist;
    println!("ablations on the {n}-bit divider ({} signals)\n", nl.num_signals());

    println!("-- window depth d_max (paper: 4) --");
    println!("{:>6} | {:>7} | {:>9} | {:>10} | {:>10}", "d_max", "#equiv", "SBIF [s]", "peak", "rewrite");
    for depth in [0usize, 1, 2, 4, 6] {
        let sim = divider_sim_words(&div, 1, 2);
        let cfg = SbifConfig { window_depth: depth, ..SbifConfig::default() };
        let t = Instant::now();
        let (classes, stats) = forward_information(
            nl,
            Some(div.constraint),
            &sim,
            cfg,
            SbifOptions::default(),
        );
        let sbif_t = t.elapsed();
        let t = Instant::now();
        let outcome = BackwardRewriter::new(nl)
            .with_classes(&classes)
            .with_config(RewriteConfig { max_terms: Some(5_000_000), ..Default::default() })
            .run(divider_spec(&div));
        match outcome {
            Ok((res, st)) => println!(
                "{depth:>6} | {:>7} | {:>9.3} | {:>10} | {:>9.3}s{}",
                stats.proven,
                sbif_t.as_secs_f64(),
                st.peak_terms,
                t.elapsed().as_secs_f64(),
                if res.is_zero() { "" } else { " (nonzero!)" }
            ),
            Err(_) => println!(
                "{depth:>6} | {:>7} | {:>9.3} | {:>10} |   MEMOUT",
                stats.proven,
                sbif_t.as_secs_f64(),
                "> 5M"
            ),
        }
    }

    println!("\n-- simulation words (64 patterns each) --");
    println!("{:>6} | {:>10} | {:>8} | {:>8}", "words", "candidates", "refuted", "#equiv");
    for words in [1usize, 2, 4, 8] {
        let sim = divider_sim_words(&div, 1, words);
        let (_, stats) = forward_information(
            nl,
            Some(div.constraint),
            &sim,
            SbifConfig::default(),
            SbifOptions::default(),
        );
        println!(
            "{words:>6} | {:>10} | {:>8} | {:>8}",
            stats.candidates, stats.refuted, stats.proven
        );
    }

    println!("\n-- atomic blocks (with SBIF classes) --");
    let sim = divider_sim_words(&div, 1, 2);
    let (classes, _) = forward_information(
        nl,
        Some(div.constraint),
        &sim,
        SbifConfig::default(),
        SbifOptions::default(),
    );
    for blocks in [true, false] {
        let t = Instant::now();
        let r = BackwardRewriter::new(nl)
            .with_classes(&classes)
            .with_config(RewriteConfig {
                atomic_blocks: blocks,
                max_terms: Some(5_000_000),
                record_trace: false,
            })
            .run(divider_spec(&div));
        match r {
            Ok((_, st)) => println!(
                "  blocks={blocks:<5} peak {:>10}  {:>8.3}s",
                st.peak_terms,
                t.elapsed().as_secs_f64()
            ),
            Err(e) => println!("  blocks={blocks:<5} {e}"),
        }
    }

    println!("\n-- no SBIF at all (Table I baseline) --");
    let t = Instant::now();
    match BackwardRewriter::new(nl)
        .with_config(RewriteConfig { max_terms: Some(5_000_000), ..Default::default() })
        .run(divider_spec(&div))
    {
        Ok((_, st)) => println!("  peak {:>10}  {:>8.3}s", st.peak_terms, t.elapsed().as_secs_f64()),
        Err(e) => println!("  {e} after {:.3}s", t.elapsed().as_secs_f64()),
    }
}
