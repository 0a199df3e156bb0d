//! The known-answer gate: simulation against Definition 1.
//!
//! A divider is correct iff every input with `0 ≤ R⁰ < D·2^(n−1)`
//! yields `R⁰ = Q·D + R` and `0 ≤ R < D` (`R` read as a `2n−1`-bit two's
//! complement word). Dividers with `n ≤ 6` are simulated on every valid
//! input; wider ones on the corner inputs plus constrained random ones
//! drawn from the workload seed. The arithmetic is `sbif-apint`'s, and
//! the circuit is evaluated by the netlist simulator — never by the
//! verifier whose verdicts the gate checks.

use sbif::apint::Int;
use sbif::netlist::build::Divider;
use sbif_rng::XorShift64;

/// Widths up to this are checked on every valid input.
pub const EXHAUSTIVE_MAX_N: usize = 6;

/// Constrained random inputs per design above [`EXHAUSTIVE_MAX_N`].
pub const RANDOM_VECTORS: usize = 64 * 64;

/// What simulation says about a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Known {
    /// No simulated input violates Definition 1.
    Correct {
        /// Valid inputs simulated.
        vectors: u64,
        /// Whether those were all valid inputs.
        exhaustive: bool,
    },
    /// A valid input on which the outputs violate Definition 1.
    Incorrect { dividend: u128, divisor: u64 },
}

/// Simulates `div` against Definition 1 (see the module documentation).
///
/// # Panics
///
/// Panics if `div.n > 64`, beyond what the `u128` input packing holds.
pub fn known_answer(div: &Divider, seed: u64) -> Known {
    let n = div.n;
    assert!(
        (2..=64).contains(&n),
        "oracle supports 2 <= n <= 64, got {n}"
    );
    let half = 1u128 << (n - 1);
    let mut batch: Vec<(u128, u64)> = Vec::with_capacity(64);
    let mut vectors = 0u64;
    let mut flush = |batch: &mut Vec<(u128, u64)>| -> Option<Known> {
        vectors += batch.len() as u64;
        let bad = first_violation(div, batch);
        batch.clear();
        bad.map(|(dividend, divisor)| Known::Incorrect { dividend, divisor })
    };
    let exhaustive = n <= EXHAUSTIVE_MAX_N;
    let mut push = |r0: u128, d: u64, batch: &mut Vec<(u128, u64)>| {
        batch.push((r0, d));
        if batch.len() == 64 {
            flush(batch)
        } else {
            None
        }
    };
    if exhaustive {
        for d in 1..half as u64 {
            for r0 in 0..u128::from(d) * half {
                if let Some(bad) = push(r0, d, &mut batch) {
                    return bad;
                }
            }
        }
    } else {
        let mut rng = XorShift64::seed_from_u64(seed ^ 0x0AC1E);
        let dmax = (half - 1) as u64;
        let mut inputs = vec![
            (0, 1),
            (half - 1, 1),
            (0, dmax),
            (u128::from(dmax) * half - 1, dmax),
        ];
        while inputs.len() < RANDOM_VECTORS {
            let d = 1 + rng.below(dmax);
            let hi = u128::from(rng.below(d));
            let lo = u128::from(rng.next_u64()) & (half - 1);
            inputs.push((hi * half + lo, d));
        }
        for (r0, d) in inputs {
            if let Some(bad) = push(r0, d, &mut batch) {
                return bad;
            }
        }
    }
    if !batch.is_empty() {
        if let Some(bad) = flush(&mut batch) {
            return bad;
        }
    }
    Known::Correct {
        vectors,
        exhaustive,
    }
}

/// Simulates up to 64 `(R⁰, D)` inputs bit-parallel and returns the
/// first one violating Definition 1.
fn first_violation(div: &Divider, batch: &[(u128, u64)]) -> Option<(u128, u64)> {
    let nl = &div.netlist;
    let mut position = vec![usize::MAX; nl.num_signals()];
    for (i, s) in nl.inputs().iter().enumerate() {
        position[s.index()] = i;
    }
    let mut plane = vec![0u64; nl.inputs().len()];
    for (k, &(r0, d)) in batch.iter().enumerate() {
        for (i, s) in div.dividend.iter().enumerate() {
            plane[position[s.index()]] |= (((r0 >> i) & 1) as u64) << k;
        }
        for (i, s) in div.divisor.iter().enumerate() {
            plane[position[s.index()]] |= ((d >> i) & 1) << k;
        }
    }
    let values = nl.simulate64(&plane);
    let width = div.remainder.len() as u32;
    batch.iter().enumerate().find_map(|(k, &(r0, d))| {
        let word = |w: &sbif::netlist::Word| -> Int {
            let mut acc = Int::zero();
            for (i, s) in w.iter().enumerate() {
                if (values[s.index()] >> k) & 1 == 1 {
                    acc += Int::pow2(i as u32);
                }
            }
            acc
        };
        let q = word(&div.quotient);
        let mut r = word(&div.remainder);
        if r.magnitude_bit(width - 1) {
            r -= Int::pow2(width);
        }
        let (r0_int, d_int) = (Int::from(r0), Int::from(d));
        let holds = &(&q * &d_int) + &r == r0_int && !r.is_negative() && r < d_int;
        (!holds).then_some((r0, d))
    })
}
