//! Measures the SCA-side Table II columns (read / #equiv / SBIF / rewrite).
use sbif_core::rewrite::BackwardRewriter;
use sbif_core::sbif::{divider_sim_words, forward_information, SbifConfig, SbifOptions};
use sbif_core::spec::divider_spec;
use sbif_netlist::build::nonrestoring_divider;
use sbif_netlist::io::{read_bnet, write_bnet};
use std::time::Instant;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(48);
    let div = nonrestoring_divider(n);
    let text = write_bnet(&div.netlist);
    let t = Instant::now();
    let parsed = read_bnet(&text).expect("parses");
    let read = t.elapsed();
    assert_eq!(parsed.num_signals(), div.netlist.num_signals());
    let t = Instant::now();
    let sim = divider_sim_words(&div, 0xD1_71DE5, 2);
    let (classes, stats) = forward_information(
        &div.netlist,
        Some(div.constraint),
        &sim,
        SbifConfig::default(),
        SbifOptions::default(),
    );
    let sbif = t.elapsed();
    let t = Instant::now();
    let (res, st) = BackwardRewriter::new(&div.netlist)
        .with_classes(&classes)
        .run(divider_spec(&div))
        .expect("fits");
    assert!(res.is_zero());
    println!(
        "n={n} read={:.2}s equiv={} sbif={:.2}s rewrite={:.2}s peak={}",
        read.as_secs_f64(), stats.proven, sbif.as_secs_f64(), t.elapsed().as_secs_f64(), st.peak_terms
    );
}
