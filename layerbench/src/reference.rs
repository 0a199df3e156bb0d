//! The host-speed reference: a fixed piece of work, independent of the
//! verifier, timed between verifier calls so that the benchmark's times
//! can be stated at one reference host speed.
//!
//! The benchmark runs on a few cores of a shared host. Over minutes the
//! host's speed for memory-bound work drifts by a third and more while
//! the process keeps its CPU (on-CPU time tracks wall time, and steal is
//! near zero): other tenants load the shared caches and memory. The
//! same n = 24 nonrestoring vc1 call takes 0.53 s in one minute and
//! 0.78 s a minute later, and even the fastest call of a minute moves
//! by a third. The reference work, hash-table inserts, lookups and a
//! sort over a table of about 4 MB, slows with the verifier. Measured
//! on a 2-CPU Xeon at 2.1 GHz over 6.5 minutes of n = 20 certified vc1
//! calls: medians of 20–25 calls spread by an IQR/median of 0.25–0.30,
//! while medians of the same calls, each scaled by the samples right
//! before and right after it, spread by 0.025–0.045. Samples four times
//! as long did no better. The verifier slows less than the reference
//! does; [`ELASTICITY`] accounts for that. Scaling calls of several seconds tracks the
//! host worse (0.06–0.11 over four to eight 4.5 s calls), which is why
//! every workload makes many short calls.
//!
//! The work runs in the benchmark's own thread, right after the call it
//! brackets, so that it meets the host as the call did: run in a child
//! process, its samples correlated with the calls far less (0.25
//! against 0.61). Its freed tables stay resident, so `peak_rss_mb` is
//! read before the first sample.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hash::DefaultHasher;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// About the reference work's median time on the host the benchmark was
/// tuned on (2-CPU Xeon at 2.1 GHz). A time `t` measured while the
/// reference work took `r` reads `t · (REFERENCE_S / r)^ELASTICITY` at
/// reference speed.
pub const REFERENCE_S: f64 = 0.06;

/// How much of the reference work's slow-down the verifier shares: when
/// the reference takes `k` times as long, a call takes about
/// `k^ELASTICITY` times as long. The verifier spends part of its time
/// on work the shared caches do not slow (the reference is almost all
/// cache misses). A least-squares fit of log run time on log reference
/// time over twenty 25 s runs per workload gave 0.83 (`vc1-nr24`), 0.79
/// (nonrestoring n = 16 with vc2) and 0.79 (`rewrite-mix`, ten runs), at
/// correlations of 0.96–0.97; `certify-nr20` saw too little drift to
/// fit. Scaling by
/// the full slow-down (an elasticity of 1) over-corrects: the
/// IQR/median of ten runs was 0.067–0.085, against 0.028–0.039 at 0.8.
pub const ELASTICITY: f64 = 0.8;

/// Keys inserted (and twice as many looked up), and the key range.
const INSERTS: u64 = 300_000;
const KEYS: u64 = 500_000;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Runs the reference work once and returns how long it took.
pub fn sample() -> Duration {
    let t0 = Instant::now();
    let mut s = 0x9E37_79B9_7F4A_7C15;
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..INSERTS {
        let k = xorshift(&mut s) % KEYS;
        table.insert(k, s);
    }
    let mut acc = 0u64;
    for _ in 0..2 * INSERTS {
        if let Some(v) = table.get(&(xorshift(&mut s) % KEYS)) {
            acc ^= v;
        }
    }
    let mut values: Vec<u64> = table.into_values().collect();
    values.sort_unstable();
    black_box((acc, values[values.len() / 2]));
    t0.elapsed()
}

/// `t` at reference speed, given the reference samples taken right
/// before and right after it.
pub fn at_reference_speed(t: Duration, before: Duration, after: Duration) -> f64 {
    let r = (before + after).as_secs_f64() / 2.0;
    t.as_secs_f64() * (REFERENCE_S / r).powf(ELASTICITY)
}
