//! Host-speed probe.
//!
//! The shared 2-vCPU hosts this benchmark runs on change speed by up to
//! 1.7× for minutes at a time (a vCPU does less work per second while its
//! neighbours are busy, with no steal time), so raw host seconds of the
//! same work drift by tens of percent between invocations. The benchmark
//! therefore times a fixed loop of its own — benchmark code, untouched by
//! any change to the program — around every simulation and scales the
//! simulation's host seconds to [`REF_PROBE_S`]: a time in *reference
//! seconds* is what the work would have taken with the probe at its
//! reference speed. Raw host seconds are printed alongside.

use std::hint::black_box;
use std::time::Instant;

/// Probe time of one [`probe`] repetition at the reference speed: its
/// time on an Intel Xeon vCPU (2.1 GHz nominal), which has measured
/// between 0.72× and 1.33× this speed.
///
/// The probe tracks clock changes, not memory contention: cache-resident
/// simulations still slow 10–16 % more than it in the slow state, set-up
/// about 30 %, and a 100 MiB working set about 60 %.
pub const REF_PROBE_S: f64 = 0.94e-3;

/// Table the probe indexes into: 64 KiB, so the loop mixes arithmetic
/// with cache-resident loads like the simulator's inner loops.
const TABLE_LEN: usize = 1 << 14;
const ITERS: u32 = 1 << 18;
const REPETITIONS: usize = 3;

/// Seconds one repetition of the probe loop takes right now: the minimum
/// of a few repetitions, which drops one that an interrupt made longer.
pub fn probe() -> f64 {
    let table: Vec<u32> = (0..TABLE_LEN as u32)
        .map(|i| i.wrapping_mul(0x9e37_79b9))
        .collect();
    (0..REPETITIONS)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x2545_f491_4f6c_dd1du64);
            let mut acc = 0u32;
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(table[(x as usize ^ acc as usize) % TABLE_LEN]);
            }
            black_box(acc);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}
