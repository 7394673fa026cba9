//! Runs the large-`n` scenario preset tier — the paper's node density
//! scaled to thousands of nodes, under all three radio media — with
//! epidemic routing, the workload that stresses the beacon/neighbour
//! hot path hardest (every contact triggers summary exchange).
//!
//! ```sh
//! cargo run --release --example large_n                 # 10000 nodes, 5 s
//! cargo run --release --example large_n -- 10000 2      # nodes, duration
//! cargo run --release --example large_n -- 100000 1     # the 100k-node smoke
//! ```
//!
//! Used as the CI smoke for 10k/100k-node scale: it exercises the
//! arena-backed deployment, the interned beacon snapshots and the
//! incremental two-hop merges end to end, and prints one row per medium.

use glr::epidemic::Epidemic;
use glr::sim::Scenario;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("node count must be an integer"))
        .unwrap_or(10_000);
    let duration: f64 = args
        .next()
        .map(|a| a.parse().expect("duration must be a number"))
        .unwrap_or(5.0);

    println!("large-n tier: {n} nodes, {duration} s, epidemic routing");
    println!(
        "  {:<28} | {:>9} | {:>9} | {:>10} | {:>10} | {:>8}",
        "scenario", "created", "delivered", "control tx", "data tx", "wall (s)"
    );
    for scenario in Scenario::large_n_tier(n, duration, 1) {
        let started = std::time::Instant::now();
        let stats = scenario.run(Epidemic::new);
        let wall = started.elapsed().as_secs_f64();
        println!(
            "  {:<28} | {:>9} | {:>9} | {:>10} | {:>10} | {:>8.2}",
            scenario.label,
            stats.messages_created(),
            stats.messages_delivered(),
            stats.control_tx,
            stats.data_tx,
            wall,
        );
        // The tier must actually run beacons at scale; a silent zero here
        // would mean the smoke tests nothing.
        assert!(stats.control_tx > 0, "no beacons flowed at n={n}");
    }
}
