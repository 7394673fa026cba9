//! Run statistics and multi-run aggregation.
//!
//! The paper reports every number as a mean over 10 runs with a 90 %
//! confidence interval; [`summarize`] reproduces that (Student t with
//! `runs - 1` degrees of freedom).

use crate::ids::{MessageId, MessageMap, NodeId};
use crate::time::SimTime;
use std::collections::HashMap;

/// Lifecycle record of one end-to-end message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageRecord {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Creation time.
    pub created: SimTime,
    /// First delivery time at the destination, if any.
    pub delivered: Option<SimTime>,
    /// Hop count of the first delivered copy.
    pub hops: Option<u32>,
    /// Number of duplicate deliveries after the first.
    pub duplicate_deliveries: u32,
}

/// Everything measured during one simulation run.
///
/// Derives `PartialEq` so refactor-safety tests can assert that two runs
/// (e.g. grid- vs linear-indexed, or at different sweep thread counts)
/// are *bit-identical*, not merely similar.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    records: Vec<MessageRecord>,
    index: MessageMap<usize>,
    /// Data frames successfully delivered at the link layer.
    pub data_tx: u64,
    /// Control frames (acks, summary vectors, beacons) delivered.
    pub control_tx: u64,
    /// Frames lost to collisions.
    pub collisions: u64,
    /// Frames lost because the receiver had moved out of range.
    pub out_of_range: u64,
    /// Frames dropped at the sender because the transmit queue was full.
    pub queue_drops: u64,
    /// Messages dropped by protocols under storage pressure.
    pub storage_drops: u64,
    /// Per-node peak storage occupancy (messages).
    pub peak_storage: Vec<usize>,
    /// Free-form protocol event counters (e.g. `"glr.perturb"`), for
    /// diagnostics and the experiment reports.
    pub counters: HashMap<&'static str, u64>,
    /// Sum of per-sample mean storage occupancy, for averaging.
    storage_sample_sum: f64,
    storage_samples: u64,
}

impl RunStats {
    /// Creates stats for `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> Self {
        RunStats {
            peak_storage: vec![0; n_nodes],
            ..Default::default()
        }
    }

    /// Registers a message at creation time.
    pub fn register_message(&mut self, id: MessageId, src: NodeId, dst: NodeId, at: SimTime) {
        let rec = MessageRecord {
            src,
            dst,
            created: at,
            delivered: None,
            hops: None,
            duplicate_deliveries: 0,
        };
        let idx = self.records.len();
        self.records.push(rec);
        self.index.insert(id, idx);
    }

    /// Records a delivery at the destination. Duplicates are counted but do
    /// not change the first-delivery latency/hops.
    ///
    /// Unknown ids are ignored (a protocol bug, but stats must not panic
    /// mid-experiment; tests assert on counters instead).
    pub fn record_delivery(&mut self, id: MessageId, at: SimTime, hops: u32) {
        if let Some(&idx) = self.index.get(&id) {
            let rec = &mut self.records[idx];
            if rec.delivered.is_none() {
                rec.delivered = Some(at);
                rec.hops = Some(hops);
            } else {
                rec.duplicate_deliveries += 1;
            }
        }
    }

    /// Increments a named protocol event counter.
    pub fn count_event(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    /// Value of a named protocol event counter (0 when never incremented).
    pub fn event_count(&self, name: &'static str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The event counters sorted by name.
    ///
    /// [`RunStats::counters`] is a `HashMap`, so its iteration order
    /// varies run to run; every printed or serialised counter listing
    /// must go through this method (the output boundary) to stay
    /// deterministic.
    pub fn counters_sorted(&self) -> Vec<(&'static str, u64)> {
        let mut entries: Vec<(&'static str, u64)> =
            self.counters.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Updates a node's storage occupancy sample.
    pub fn sample_storage(&mut self, node: NodeId, used: usize) {
        let i = node.index();
        if i < self.peak_storage.len() {
            self.peak_storage[i] = self.peak_storage[i].max(used);
        }
        self.storage_sample_sum += used as f64;
        self.storage_samples += 1;
    }

    /// All message records.
    pub fn records(&self) -> &[MessageRecord] {
        &self.records
    }

    /// Record for a specific message, if registered.
    pub fn record(&self, id: MessageId) -> Option<&MessageRecord> {
        self.index.get(&id).map(|&i| &self.records[i])
    }

    /// Number of messages injected.
    pub fn messages_created(&self) -> usize {
        self.records.len()
    }

    /// Number of distinct messages delivered.
    pub fn messages_delivered(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.delivered.is_some())
            .count()
    }

    /// Fraction of injected messages delivered, in `[0, 1]`; 1.0 for an
    /// empty workload.
    pub fn delivery_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.messages_delivered() as f64 / self.records.len() as f64
    }

    /// Mean creation-to-first-delivery latency over delivered messages, in
    /// seconds. `None` when nothing was delivered.
    pub fn avg_latency(&self) -> Option<f64> {
        let lat: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.delivered.map(|d| d - r.created))
            .collect();
        if lat.is_empty() {
            None
        } else {
            Some(lat.iter().sum::<f64>() / lat.len() as f64)
        }
    }

    /// Mean hop count of first deliveries. `None` when nothing delivered.
    pub fn avg_hops(&self) -> Option<f64> {
        let hops: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.hops.map(f64::from))
            .collect();
        if hops.is_empty() {
            None
        } else {
            Some(hops.iter().sum::<f64>() / hops.len() as f64)
        }
    }

    /// Largest peak storage occupancy over all nodes (messages).
    pub fn max_peak_storage(&self) -> usize {
        self.peak_storage.iter().copied().max().unwrap_or(0)
    }

    /// Mean of per-node peak storage occupancy (messages).
    pub fn avg_peak_storage(&self) -> f64 {
        if self.peak_storage.is_empty() {
            return 0.0;
        }
        self.peak_storage.iter().sum::<usize>() as f64 / self.peak_storage.len() as f64
    }

    /// Mean storage occupancy over all samples and nodes (messages).
    pub fn mean_storage_occupancy(&self) -> f64 {
        if self.storage_samples == 0 {
            0.0
        } else {
            self.storage_sample_sum / self.storage_samples as f64
        }
    }
}

/// A mean with its 90 % confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 90 % confidence interval (Student t).
    pub ci90: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Formats as `mean ± ci`, the way the paper's tables print values.
    pub fn display(&self, decimals: usize) -> String {
        format!("{:.*} ± {:.*}", decimals, self.mean, decimals, self.ci90)
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.display(2))
    }
}

/// Two-sided 90 % Student-t quantiles (`t_{0.95, df}`) for df = 1..=30.
const T_95: [f64; 30] = [
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
    1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
    1.703, 1.701, 1.699, 1.697,
];

/// Mean and 90 % confidence half-width of `samples` (Student t, matching
/// the paper's reporting).
///
/// With zero samples the result is `0 ± 0`; with one sample the CI is 0.
///
/// # Examples
///
/// ```
/// use glr_sim::summarize;
///
/// let s = summarize(&[10.0, 12.0, 11.0, 13.0, 9.0]);
/// assert!((s.mean - 11.0).abs() < 1e-12);
/// assert!(s.ci90 > 0.0);
/// ```
pub fn summarize(samples: &[f64]) -> Summary {
    let n = samples.len();
    if n == 0 {
        return Summary {
            mean: 0.0,
            ci90: 0.0,
            n,
        };
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return Summary { mean, ci90: 0.0, n };
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
    let df = n - 1;
    let t = if df <= 30 { T_95[df - 1] } else { 1.645 };
    Summary {
        mean,
        ci90: t * (var / n as f64).sqrt(),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(src: u32, seq: u32) -> MessageId {
        MessageId {
            src: NodeId(src),
            seq,
        }
    }

    #[test]
    fn delivery_bookkeeping() {
        let mut s = RunStats::new(3);
        s.register_message(mid(0, 0), NodeId(0), NodeId(1), SimTime::from_secs(1.0));
        s.register_message(mid(0, 1), NodeId(0), NodeId(2), SimTime::from_secs(2.0));
        assert_eq!(s.delivery_ratio(), 0.0);
        s.record_delivery(mid(0, 0), SimTime::from_secs(11.0), 3);
        assert_eq!(s.messages_delivered(), 1);
        assert_eq!(s.delivery_ratio(), 0.5);
        assert_eq!(s.avg_latency(), Some(10.0));
        assert_eq!(s.avg_hops(), Some(3.0));
        // A duplicate doesn't change latency but is counted.
        s.record_delivery(mid(0, 0), SimTime::from_secs(50.0), 9);
        assert_eq!(s.avg_latency(), Some(10.0));
        assert_eq!(s.record(mid(0, 0)).unwrap().duplicate_deliveries, 1);
    }

    #[test]
    fn unknown_delivery_ignored() {
        let mut s = RunStats::new(2);
        s.record_delivery(mid(9, 9), SimTime::from_secs(1.0), 1);
        assert_eq!(s.messages_delivered(), 0);
    }

    #[test]
    fn empty_workload_ratio_is_one() {
        let s = RunStats::new(2);
        assert_eq!(s.delivery_ratio(), 1.0);
        assert_eq!(s.avg_latency(), None);
        assert_eq!(s.avg_hops(), None);
    }

    #[test]
    fn storage_peaks_and_means() {
        let mut s = RunStats::new(2);
        s.sample_storage(NodeId(0), 5);
        s.sample_storage(NodeId(0), 9);
        s.sample_storage(NodeId(0), 2);
        s.sample_storage(NodeId(1), 4);
        assert_eq!(s.max_peak_storage(), 9);
        assert_eq!(s.avg_peak_storage(), (9.0 + 4.0) / 2.0);
        assert_eq!(s.mean_storage_occupancy(), 5.0);
    }

    #[test]
    fn summary_basic_properties() {
        let s = summarize(&[5.0, 5.0, 5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.ci90, 0.0);
        assert_eq!(summarize(&[]).mean, 0.0);
        assert_eq!(summarize(&[7.0]).ci90, 0.0);
    }

    #[test]
    fn summarize_zero_runs() {
        let s = summarize(&[]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.ci90, 0.0);
        assert_eq!(s.n, 0);
        assert_eq!(s.display(2), "0.00 ± 0.00");
    }

    #[test]
    fn summarize_single_run_has_zero_width_ci() {
        let s = summarize(&[42.5]);
        assert_eq!(s.mean, 42.5);
        assert_eq!(s.ci90, 0.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn summarize_constant_metric_has_zero_width_ci() {
        // A metric identical across runs must report exactly 0 CI, with
        // no floating-point residue from the variance computation.
        for n in [2usize, 3, 10, 50] {
            let xs = vec![13.25; n];
            let s = summarize(&xs);
            assert_eq!(s.mean, 13.25, "n = {n}");
            assert_eq!(s.ci90, 0.0, "n = {n}");
            assert_eq!(s.n, n);
        }
    }

    #[test]
    fn counters_sorted_is_deterministic() {
        let mut s = RunStats::new(1);
        for name in ["glr.perturb", "ack", "zeta", "beacon.miss"] {
            s.count_event(name);
        }
        s.count_event("ack");
        let sorted = s.counters_sorted();
        let keys: Vec<&str> = sorted.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec!["ack", "beacon.miss", "glr.perturb", "zeta"]);
        assert_eq!(sorted[0].1, 2);
    }

    #[test]
    fn summary_matches_hand_computation() {
        // n = 10 like the paper: t_{0.95, 9} = 1.833.
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert!((s.mean - 5.5).abs() < 1e-12);
        let sd = (xs.iter().map(|x| (x - 5.5f64).powi(2)).sum::<f64>() / 9.0).sqrt();
        let want = 1.833 * sd / 10f64.sqrt();
        assert!((s.ci90 - want).abs() < 1e-9);
    }

    #[test]
    fn summary_display() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        let txt = s.display(1);
        assert!(txt.contains("2.0"));
        assert!(txt.contains("±"));
    }

    #[test]
    fn large_sample_uses_normal_quantile() {
        let xs: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let s = summarize(&xs);
        assert!(s.ci90 > 0.0 && s.ci90 < 1.0);
    }
}
