//! Prints an exact (bit-level) fingerprint of fixed-seed runs for GLR and
//! epidemic routing. Used to verify that engine refactors keep
//! `Simulation::run` a pure function of `(config, workload, protocol,
//! seed)` — any behavioural drift changes at least one line.
//!
//! ```sh
//! cargo run --release --example fingerprint
//! ```
//!
//! `examples/fingerprint.expected` holds the expected `name: digest=…`
//! pairs, and CI diffs them against this example's output:
//!
//! ```sh
//! cargo run --release --example fingerprint \
//!     | grep -o '^[a-z0-9-]*: digest=[0-9a-f]*' | diff examples/fingerprint.expected -
//! ```
//!
//! A change that alters results on purpose updates that file.

use glr::core::{Glr, GlrConfig};
use glr::epidemic::Epidemic;
use glr::sim::{MediumKind, RunStats, SimConfig, Simulation, Workload};

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Folds every counter and every per-message record (bit-exact times) into
/// one 64-bit digest.
fn digest(stats: &RunStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        stats.data_tx,
        stats.control_tx,
        stats.collisions,
        stats.out_of_range,
        stats.queue_drops,
        stats.storage_drops,
    ] {
        h = fnv(h, v);
    }
    for &p in &stats.peak_storage {
        h = fnv(h, p as u64);
    }
    let mut counters: Vec<_> = stats.counters.iter().collect();
    counters.sort();
    for (name, v) in counters {
        for b in name.bytes() {
            h = fnv(h, b as u64);
        }
        h = fnv(h, *v);
    }
    for r in stats.records() {
        h = fnv(h, r.src.0 as u64);
        h = fnv(h, r.dst.0 as u64);
        h = fnv(h, r.created.as_secs().to_bits());
        h = fnv(h, r.delivered.map_or(0, |t| t.as_secs().to_bits()));
        h = fnv(h, r.hops.unwrap_or(0) as u64);
        h = fnv(h, r.duplicate_deliveries as u64);
    }
    h
}

fn run_one(name: &str, cfg: SimConfig, wl: Workload, medium: &MediumKind) -> RunStats {
    let n = cfg.n_nodes;
    if name.starts_with("glr") {
        let factory = Glr::factory(GlrConfig::paper());
        Simulation::with_boxed_medium(cfg, wl, factory, medium.build(n)).run()
    } else {
        Simulation::with_boxed_medium(cfg, wl, Epidemic::new, medium.build(n)).run()
    }
}

fn main() {
    let duty30 = MediumKind::duty_cycled(MediumKind::Contention, 0.3, 1.0);
    // The `-fifo` row caps every epidemic buffer, so FIFO eviction runs.
    // The `-ideal` and `-duty30` rows repeat the 100 m setups under the
    // other unit-disk media (shadowing is left out: its fade draw goes
    // through libm, whose last-ulp rounding is platform-specific).
    for (name, range, seed, storage_limit, medium) in [
        ("glr-100m", 100.0, 1u64, None, MediumKind::Contention),
        ("glr-250m", 250.0, 7, None, MediumKind::Contention),
        ("epidemic-100m", 100.0, 3, None, MediumKind::Contention),
        ("epidemic-50m", 50.0, 11, None, MediumKind::Contention),
        (
            "epidemic-250m-fifo",
            250.0,
            5,
            Some(8),
            MediumKind::Contention,
        ),
        ("glr-100m-ideal", 100.0, 1, None, MediumKind::Ideal),
        ("glr-100m-duty30", 100.0, 1, None, duty30.clone()),
        ("epidemic-100m-ideal", 100.0, 3, None, MediumKind::Ideal),
        ("epidemic-100m-duty30", 100.0, 3, None, duty30.clone()),
    ] {
        let mut cfg = SimConfig::paper(range, seed).with_duration(400.0);
        cfg.storage_limit = storage_limit;
        let wl = Workload::paper_style(cfg.n_nodes, 60, 1000);
        let stats = run_one(name, cfg, wl, &medium);
        println!(
            "{name}: digest={:016x} delivered={} data_tx={} control_tx={} collisions={} \
             out_of_range={} queue_drops={} storage_drops={} latency_bits={:016x}",
            digest(&stats),
            stats.messages_delivered(),
            stats.data_tx,
            stats.control_tx,
            stats.collisions,
            stats.out_of_range,
            stats.queue_drops,
            stats.storage_drops,
            stats.avg_latency().map_or(0, f64::to_bits),
        );
    }
}
