//! Simulation configuration.

use glr_mobility::Region;

/// Full configuration of a simulation run.
///
/// Defaults ([`SimConfig::paper`]) reproduce Table 1 of the paper:
/// 50 nodes, 1500 m x 300 m, 0–20 m/s random waypoint with zero pause,
/// 1 Mbps, link-layer queue of 150 packets, 1000-byte payloads, 3800 s.
///
/// No field selects a data structure: the engine always uses the grid
/// [`crate::SpatialIndex`] and the shared-snapshot
/// [`crate::NeighborTables`]. Their reference implementations exist only
/// in the crate's test builds.
///
/// # Examples
///
/// ```
/// use glr_sim::SimConfig;
///
/// let cfg = SimConfig::paper(100.0, 1);
/// assert_eq!(cfg.n_nodes, 50);
/// assert_eq!(cfg.radio_range, 100.0);
/// let quick = SimConfig::paper(100.0, 1).with_duration(600.0);
/// assert_eq!(quick.sim_duration, 600.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of mobile nodes (paper: 50).
    pub n_nodes: usize,
    /// Deployment region (paper: 1500 m x 300 m).
    pub region: Region,
    /// Radio transmission range in metres (paper sweeps 50–250 m).
    pub radio_range: f64,
    /// Link data rate in bits/second (paper: 1 Mbps).
    pub data_rate_bps: f64,
    /// Link-layer transmit queue capacity in packets (paper: 150).
    pub queue_limit: usize,
    /// Simulated duration in seconds (paper: 1200 or 3800).
    pub sim_duration: f64,
    /// Node speed range in m/s, uniform (paper: 0–20).
    pub speed_range: (f64, f64),
    /// Random-waypoint pause time in seconds (paper: 0).
    pub pause_time: f64,
    /// Interval between neighbour-sensing beacons (IMEP substitute).
    pub beacon_interval: f64,
    /// Neighbour table entries older than this are considered gone.
    pub neighbor_ttl: f64,
    /// MAC contention slot: per-competitor medium-access delay in seconds.
    pub mac_slot: f64,
    /// Fixed per-frame MAC/PHY overhead in bits (preamble, headers, ACK).
    pub mac_overhead_bits: f64,
    /// Per-concurrent-transmitter collision probability near the receiver;
    /// a frame with `k` interferers is lost with `1 - (1-p)^k`.
    pub collision_prob: f64,
    /// Link-layer retransmission attempts after a failed frame (802.11-style
    /// ARQ with exponential backoff); contention shows up mostly as delay,
    /// as in the paper, rather than silent loss.
    pub mac_retries: u32,
    /// Per-node storage limit in messages; `None` = unlimited. Enforced by
    /// the protocols (Figure 7 sweeps this).
    pub storage_limit: Option<usize>,
    /// Interval between storage-occupancy samples for the statistics.
    pub stats_interval: f64,
    /// RNG seed; runs with equal configuration and seed are identical.
    pub seed: u64,
}

impl SimConfig {
    /// Table 1 configuration at the given radio range and seed.
    pub fn paper(radio_range: f64, seed: u64) -> Self {
        SimConfig {
            n_nodes: 50,
            region: Region::PAPER_STRIP,
            radio_range,
            data_rate_bps: 1.0e6,
            queue_limit: 150,
            sim_duration: 3800.0,
            speed_range: (0.0, 20.0),
            pause_time: 0.0,
            beacon_interval: 1.0,
            neighbor_ttl: 2.5,
            mac_slot: 0.002,
            mac_overhead_bits: 400.0,
            collision_prob: 0.08,
            mac_retries: 6,
            storage_limit: None,
            stats_interval: 1.0,
            seed,
        }
    }

    /// Table 1 configuration scaled to `n` nodes at the paper's node
    /// density: the deployment region grows with `√n`, so per-node
    /// neighbourhood sizes (and the paper's contention regime) are
    /// preserved while the deployment scales to 10k+ nodes.
    pub fn paper_scaled(n_nodes: usize, radio_range: f64, seed: u64) -> Self {
        let scale = (n_nodes as f64 / 50.0).sqrt();
        SimConfig::paper(radio_range, seed)
            .with_nodes(n_nodes)
            .with_region(Region::new(1500.0 * scale, 300.0 * scale))
    }

    /// Returns the config with a different duration.
    pub fn with_duration(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "duration must be positive");
        self.sim_duration = secs;
        self
    }

    /// Returns the config with a per-node storage limit (messages).
    pub fn with_storage_limit(mut self, limit: usize) -> Self {
        self.storage_limit = Some(limit);
        self
    }

    /// Returns the config with a different node count.
    pub fn with_nodes(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least two nodes");
        self.n_nodes = n;
        self
    }

    /// Returns the config with a different deployment region.
    pub fn with_region(mut self, region: Region) -> Self {
        self.region = region;
        self
    }

    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Transmission time of a frame of `size` payload bytes, in seconds
    /// (serialisation plus fixed MAC overhead).
    pub fn tx_time(&self, size: u32) -> f64 {
        (size as f64 * 8.0 + self.mac_overhead_bits) / self.data_rate_bps
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of its legal range; called by the
    /// simulator on construction.
    pub fn validate(&self) {
        assert!(self.n_nodes >= 2, "need at least 2 nodes");
        assert!(
            self.radio_range > 0.0 && self.radio_range.is_finite(),
            "radio range must be positive"
        );
        assert!(self.data_rate_bps > 0.0, "data rate must be positive");
        assert!(self.queue_limit > 0, "queue limit must be positive");
        assert!(self.sim_duration > 0.0, "duration must be positive");
        assert!(
            self.speed_range.0 >= 0.0 && self.speed_range.0 <= self.speed_range.1,
            "invalid speed range"
        );
        assert!(self.pause_time >= 0.0, "pause must be non-negative");
        assert!(
            self.beacon_interval > 0.0,
            "beacon interval must be positive"
        );
        assert!(
            self.neighbor_ttl >= self.beacon_interval,
            "ttl must cover a beacon interval"
        );
        assert!(self.mac_slot >= 0.0 && self.mac_overhead_bits >= 0.0);
        assert!(
            (0.0..1.0).contains(&self.collision_prob),
            "collision prob in [0,1)"
        );
        assert!(self.stats_interval > 0.0, "stats interval must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let c = SimConfig::paper(250.0, 0);
        assert_eq!(c.n_nodes, 50);
        assert_eq!(c.region.width(), 1500.0);
        assert_eq!(c.region.height(), 300.0);
        assert_eq!(c.data_rate_bps, 1.0e6);
        assert_eq!(c.queue_limit, 150);
        assert_eq!(c.speed_range, (0.0, 20.0));
        assert_eq!(c.pause_time, 0.0);
        assert_eq!(c.sim_duration, 3800.0);
        c.validate();
    }

    #[test]
    fn tx_time_scales_with_size() {
        let c = SimConfig::paper(100.0, 0);
        let t1000 = c.tx_time(1000);
        // 8000 bits + 400 overhead at 1 Mbps = 8.4 ms.
        assert!((t1000 - 0.0084).abs() < 1e-12);
        assert!(c.tx_time(2000) > t1000);
    }

    #[test]
    fn builder_methods() {
        let c = SimConfig::paper(50.0, 7)
            .with_duration(1200.0)
            .with_storage_limit(100)
            .with_seed(9);
        assert_eq!(c.sim_duration, 1200.0);
        assert_eq!(c.storage_limit, Some(100));
        assert_eq!(c.seed, 9);
        c.validate();
    }

    #[test]
    fn paper_scaled_preserves_density() {
        let base = SimConfig::paper(100.0, 0);
        let big = SimConfig::paper_scaled(5000, 100.0, 0);
        big.validate();
        assert_eq!(big.n_nodes, 5000);
        let d0 = base.n_nodes as f64 / (base.region.width() * base.region.height());
        let d1 = big.n_nodes as f64 / (big.region.width() * big.region.height());
        assert!((d0 - d1).abs() < 1e-12);
        // The strip's 5:1 aspect ratio is preserved.
        assert!((big.region.width() / big.region.height() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "radio range")]
    fn invalid_radio_range_rejected() {
        let mut c = SimConfig::paper(100.0, 0);
        c.radio_range = -1.0;
        c.validate();
    }
}
