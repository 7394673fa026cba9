//! Isolated benchmarks of the engine's event queue: the hand-rolled
//! 4-ary [`TimedQueue`] vs the `BinaryHeap<Reverse<…>>` it replaced,
//! under the engine's actual access pattern — a standing population of
//! events where every pop schedules a successor (the beacon cycle).
//!
//! Regenerate the committed artefact with:
//!
//! ```sh
//! CRITERION_JSON=BENCH_sim.json cargo bench -p glr-bench --bench event_queue
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use glr_sim::{SimTime, TimedQueue};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Deterministic pseudo-random due-time offsets (beacon-style: one
/// period ahead, with jitter).
fn offsets(n: usize) -> Vec<f64> {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            1.0 + ((state >> 40) as f64) / ((1u64 << 24) as f64)
        })
        .collect()
}

/// Pop-one/push-one churn over a standing population of `n` events —
/// the engine's steady state. Returns a checksum so the work is real.
fn churn_timed(n: usize, rounds: usize) -> u64 {
    let offs = offsets(n);
    let mut q = TimedQueue::new();
    for (i, &dt) in offs.iter().enumerate() {
        q.schedule(SimTime::from_secs(dt), i as u64);
    }
    let mut check = 0u64;
    for r in 0..rounds * n {
        let (at, item) = q.pop().expect("queue never empties");
        check = check.wrapping_add(item);
        q.schedule(at + offs[r % n], item);
    }
    check
}

/// The same churn over `BinaryHeap<Reverse<(at, seq, item)>>` — the
/// pre-PR-4 representation (seq kept for the FIFO-within-tick order).
fn churn_binary(n: usize, rounds: usize) -> u64 {
    let offs = offsets(n);
    let mut q: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, &dt) in offs.iter().enumerate() {
        seq += 1;
        q.push(Reverse((SimTime::from_secs(dt), seq, i as u64)));
    }
    let mut check = 0u64;
    for r in 0..rounds * n {
        let Reverse((at, _, item)) = q.pop().expect("queue never empties");
        check = check.wrapping_add(item);
        seq += 1;
        q.push(Reverse((at + offs[r % n], seq, item)));
    }
    check
}

fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_churn");
    for n in [1_000usize, 20_000, 100_000] {
        g.bench_function(BenchmarkId::new("binary_heap", n), |b| {
            b.iter(|| churn_binary(black_box(n), 2))
        });
        g.bench_function(BenchmarkId::new("timed_4ary", n), |b| {
            b.iter(|| churn_timed(black_box(n), 2))
        });
    }
    g.finish();
}

criterion_group!(event_queue, bench_churn);
criterion_main!(event_queue);
