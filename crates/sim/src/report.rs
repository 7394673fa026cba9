//! Shard-mergeable experiment reports: per-run metrics, per-cell run
//! lists, and a serde-free JSON round trip.
//!
//! Each `(cell, run)` of a sweep is distilled into a [`RunMetrics`] row
//! (every scalar the paper's tables consume) on the worker that ran it;
//! this module groups the rows into [`CellReport`]s and reads/writes
//! whole [`ReportSet`]s as JSON. The format is designed so
//! shards produced on different machines — or `--shard i/n` invocations
//! of the experiments binary — concatenate losslessly:
//!
//! * integers are written verbatim and parsed as `u64` (no `f64` detour),
//! * floats are written with Rust's shortest-round-trip `{:?}` and parse
//!   back bit-identically,
//! * counter maps are **sorted by key** at this output boundary (the
//!   in-memory map is a `HashMap`, whose iteration order would otherwise
//!   leak run-to-run nondeterminism into the files),
//!
//! so `merge(shards).to_json()` equals the unsharded `to_json()` byte for
//! byte — asserted by `tests/sweep_shard.rs`.

use crate::json::{write_escaped, Json};
use crate::stats::{summarize, RunStats, Summary};
use crate::sweep::CellRuns;
use std::fmt::Write as _;

/// Writes an `f64` in shortest-round-trip form.
///
/// # Panics
///
/// Panics on non-finite values — no metric in [`RunMetrics`] can
/// legitimately be NaN or infinite, and JSON could not represent them.
fn write_f64(out: &mut String, x: f64) {
    assert!(x.is_finite(), "non-finite metric value {x}");
    let _ = write!(out, "{x:?}");
}

/// One run's worth of scalar metrics — everything the experiment tables
/// need, cheap enough to serialise per run (unlike the full
/// [`RunStats`] with its per-message records).
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Messages injected.
    pub messages_created: u64,
    /// Distinct messages delivered.
    pub messages_delivered: u64,
    /// Delivered fraction in `[0, 1]` (1.0 for an empty workload).
    pub delivery_ratio: f64,
    /// Mean creation-to-first-delivery latency in seconds, if anything
    /// was delivered.
    pub avg_latency: Option<f64>,
    /// Mean first-delivery hop count, if anything was delivered.
    pub avg_hops: Option<f64>,
    /// Duplicate deliveries after each message's first, summed.
    pub duplicate_deliveries: u64,
    /// Largest per-node peak storage occupancy (messages).
    pub max_peak_storage: u64,
    /// Mean of per-node peak storage occupancy (messages).
    pub avg_peak_storage: f64,
    /// Mean storage occupancy over all samples and nodes (messages).
    pub mean_storage_occupancy: f64,
    /// Data frames delivered at the link layer.
    pub data_tx: u64,
    /// Control frames delivered at the link layer.
    pub control_tx: u64,
    /// Frames lost to collisions.
    pub collisions: u64,
    /// Frames lost out of range.
    pub out_of_range: u64,
    /// Frames dropped at full transmit queues.
    pub queue_drops: u64,
    /// Messages dropped by protocols under storage pressure.
    pub storage_drops: u64,
    /// Protocol event counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl RunMetrics {
    /// Distils a run's statistics into its metric row. Counters are
    /// sorted by key here — the output boundary — so identical runs
    /// always serialise identically.
    pub fn from_stats(stats: &RunStats) -> Self {
        let counters = stats
            .counters_sorted()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        RunMetrics {
            messages_created: stats.messages_created() as u64,
            messages_delivered: stats.messages_delivered() as u64,
            delivery_ratio: stats.delivery_ratio(),
            avg_latency: stats.avg_latency(),
            avg_hops: stats.avg_hops(),
            duplicate_deliveries: stats
                .records()
                .iter()
                .map(|r| u64::from(r.duplicate_deliveries))
                .sum(),
            max_peak_storage: stats.max_peak_storage() as u64,
            avg_peak_storage: stats.avg_peak_storage(),
            mean_storage_occupancy: stats.mean_storage_occupancy(),
            data_tx: stats.data_tx,
            control_tx: stats.control_tx,
            collisions: stats.collisions,
            out_of_range: stats.out_of_range,
            queue_drops: stats.queue_drops,
            storage_drops: stats.storage_drops,
            counters,
        }
    }

    /// Value of a named event counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"messages_created\": ");
        let _ = write!(out, "{}", self.messages_created);
        let _ = write!(out, ", \"messages_delivered\": {}", self.messages_delivered);
        out.push_str(", \"delivery_ratio\": ");
        write_f64(out, self.delivery_ratio);
        out.push_str(", \"avg_latency\": ");
        match self.avg_latency {
            Some(x) => write_f64(out, x),
            None => out.push_str("null"),
        }
        out.push_str(", \"avg_hops\": ");
        match self.avg_hops {
            Some(x) => write_f64(out, x),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ", \"duplicate_deliveries\": {}, \"max_peak_storage\": {}",
            self.duplicate_deliveries, self.max_peak_storage
        );
        out.push_str(", \"avg_peak_storage\": ");
        write_f64(out, self.avg_peak_storage);
        out.push_str(", \"mean_storage_occupancy\": ");
        write_f64(out, self.mean_storage_occupancy);
        let _ = write!(
            out,
            ", \"data_tx\": {}, \"control_tx\": {}, \"collisions\": {}, \"out_of_range\": {}, \
             \"queue_drops\": {}, \"storage_drops\": {}",
            self.data_tx,
            self.control_tx,
            self.collisions,
            self.out_of_range,
            self.queue_drops,
            self.storage_drops
        );
        out.push_str(", \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_escaped(out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str("}}");
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let mut counters: Vec<(String, u64)> = Vec::new();
        for (k, c) in v.field("counters")?.as_obj()? {
            counters.push((k.clone(), c.as_u64()?));
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(RunMetrics {
            messages_created: v.field("messages_created")?.as_u64()?,
            messages_delivered: v.field("messages_delivered")?.as_u64()?,
            delivery_ratio: v.field("delivery_ratio")?.as_f64()?,
            avg_latency: v.field("avg_latency")?.as_opt_f64()?,
            avg_hops: v.field("avg_hops")?.as_opt_f64()?,
            duplicate_deliveries: v.field("duplicate_deliveries")?.as_u64()?,
            max_peak_storage: v.field("max_peak_storage")?.as_u64()?,
            avg_peak_storage: v.field("avg_peak_storage")?.as_f64()?,
            mean_storage_occupancy: v.field("mean_storage_occupancy")?.as_f64()?,
            data_tx: v.field("data_tx")?.as_u64()?,
            control_tx: v.field("control_tx")?.as_u64()?,
            collisions: v.field("collisions")?.as_u64()?,
            out_of_range: v.field("out_of_range")?.as_u64()?,
            queue_drops: v.field("queue_drops")?.as_u64()?,
            storage_drops: v.field("storage_drops")?.as_u64()?,
            counters,
        })
    }
}

/// One sweep cell's report: global index, label, and per-run metric rows
/// in run (seed) order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Global cell index within the sweep (stable across shards).
    pub cell: usize,
    /// Human-readable cell label.
    pub label: String,
    /// Per-run metrics, indexed by run.
    pub runs: Vec<RunMetrics>,
}

impl CellReport {
    /// Summarises an arbitrary per-run metric as `mean ± 90 % CI`.
    pub fn metric(&self, f: impl Fn(&RunMetrics) -> f64) -> Summary {
        let xs: Vec<f64> = self.runs.iter().map(f).collect();
        summarize(&xs)
    }

    /// Delivery ratio across runs, in percent.
    pub fn delivery_pct(&self) -> Summary {
        self.metric(|m| m.delivery_ratio * 100.0)
    }

    /// Mean latency across runs; runs with no deliveries contribute
    /// `undelivered_penalty` (they would otherwise silently vanish).
    pub fn avg_latency(&self, undelivered_penalty: f64) -> Summary {
        self.metric(|m| m.avg_latency.unwrap_or(undelivered_penalty))
    }

    /// Mean hop count across runs (0 when nothing was delivered).
    pub fn avg_hops(&self) -> Summary {
        self.metric(|m| m.avg_hops.unwrap_or(0.0))
    }

    /// Max peak storage across runs.
    pub fn max_peak_storage(&self) -> Summary {
        self.metric(|m| m.max_peak_storage as f64)
    }

    /// Average peak storage across runs.
    pub fn avg_peak_storage(&self) -> Summary {
        self.metric(|m| m.avg_peak_storage)
    }

    /// A named event counter summarised across runs.
    pub fn counter(&self, name: &str) -> Summary {
        self.metric(|m| m.counter(name) as f64)
    }
}

/// A full (or shard-partial) result set: cell reports ascending by cell
/// index, with a JSON round trip and shard merging.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportSet {
    /// Free-form description of the grid this set was produced from
    /// (experiment ids, effort, runs per cell — everything except the
    /// shard split). [`ReportSet::merge`] refuses shards whose contexts
    /// differ, so files from mismatched invocations cannot silently
    /// interleave into one corrupt report.
    pub context: String,
    /// The cell reports, ascending by `cell`.
    pub cells: Vec<CellReport>,
}

impl ReportSet {
    /// Builds a report set from a sweep's metric rows (ascending by
    /// cell, as [`crate::Sweep::execute`] returns them), labelling cell
    /// `i` with `labels(i)`. The context starts empty; set it with
    /// [`ReportSet::with_context`] before writing shard files.
    pub fn from_sweep(
        results: Vec<CellRuns<RunMetrics>>,
        labels: impl Fn(usize) -> String,
    ) -> Self {
        ReportSet {
            context: String::new(),
            cells: results
                .into_iter()
                .map(|cr| CellReport {
                    cell: cr.cell,
                    label: labels(cr.cell),
                    runs: cr.runs,
                })
                .collect(),
        }
    }

    /// Returns the set with its grid context set.
    pub fn with_context(mut self, context: impl Into<String>) -> Self {
        self.context = context.into();
        self
    }

    /// Whether every cell of an `n_cells` sweep is present.
    pub fn is_complete(&self, n_cells: usize) -> bool {
        self.cells.len() == n_cells && self.cells.iter().enumerate().all(|(i, c)| c.cell == i)
    }

    /// The global indices of the cells this (possibly partial) set
    /// contains — the list to hand to [`crate::Sweep::skipping`] when
    /// resuming an interrupted run from its JSON output.
    pub fn completed_cells(&self) -> Vec<usize> {
        self.cells.iter().map(|c| c.cell).collect()
    }

    /// Serialises the set as JSON (deterministic byte-for-byte for equal
    /// contents: sorted counters, shortest-round-trip floats).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 1,\n  \"context\": ");
        write_escaped(&mut out, &self.context);
        out.push_str(",\n  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {{\"cell\": {}, \"label\": ", cell.cell);
            write_escaped(&mut out, &cell.label);
            out.push_str(", \"runs\": [");
            for (j, run) in cell.runs.iter().enumerate() {
                out.push_str(if j == 0 { "\n" } else { ",\n" });
                out.push_str("      ");
                run.write_json(&mut out);
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a set previously written by [`ReportSet::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let version = doc.field("version")?.as_u64()?;
        if version != 1 {
            return Err(format!("unsupported report version {version}"));
        }
        let context = doc.field("context")?.as_str()?.to_string();
        let mut cells = Vec::new();
        for cell in doc.field("cells")?.as_arr()? {
            let index = cell.field("cell")?.as_u64()? as usize;
            let label = cell.field("label")?.as_str()?.to_string();
            let mut runs = Vec::new();
            for run in cell.field("runs")?.as_arr()? {
                runs.push(RunMetrics::from_json(run)?);
            }
            cells.push(CellReport {
                cell: index,
                label,
                runs,
            });
        }
        cells.sort_by_key(|c| c.cell);
        Ok(ReportSet { context, cells })
    }

    /// Merges shard sets into one, re-sorting by cell index.
    ///
    /// # Errors
    ///
    /// Fails when the shards' contexts differ (files from different
    /// experiment grids, effort levels, or run counts — disjoint cell
    /// indices would otherwise interleave them into one corrupt report)
    /// or when two shards report the same cell (a mis-specified
    /// `--shard` split; silently preferring one would hide it).
    pub fn merge(parts: Vec<ReportSet>) -> Result<ReportSet, String> {
        let context = parts.first().map(|p| p.context.clone()).unwrap_or_default();
        for p in &parts {
            if p.context != context {
                return Err(format!(
                    "shards come from different sweeps: context {:?} vs {:?}",
                    context, p.context
                ));
            }
        }
        let mut cells: Vec<CellReport> = parts.into_iter().flat_map(|p| p.cells).collect();
        cells.sort_by_key(|c| c.cell);
        for w in cells.windows(2) {
            if w[0].cell == w[1].cell {
                return Err(format!(
                    "cell {} ({:?}) appears in more than one shard",
                    w[0].cell, w[0].label
                ));
            }
        }
        Ok(ReportSet { context, cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MessageId, NodeId};
    use crate::time::SimTime;

    fn stats_with(delivered: usize, total: usize) -> RunStats {
        let mut s = RunStats::new(3);
        for i in 0..total {
            let id = MessageId {
                src: NodeId(0),
                seq: i as u32,
            };
            s.register_message(id, NodeId(0), NodeId(1), SimTime::ZERO);
            if i < delivered {
                s.record_delivery(id, SimTime::from_secs(7.5), 3);
                s.record_delivery(id, SimTime::from_secs(9.0), 4); // duplicate
            }
        }
        s.data_tx = 10;
        s.collisions = 2;
        s.count_event("zeta");
        s.count_event("alpha");
        s.count_event("alpha");
        s.sample_storage(NodeId(1), 4);
        s
    }

    fn sample_set() -> ReportSet {
        ReportSet {
            context: "ids=tab9; effort=2runs/250pm".into(),
            cells: vec![
                CellReport {
                    cell: 0,
                    label: "radius 50 m / glr".into(),
                    runs: vec![
                        RunMetrics::from_stats(&stats_with(2, 4)),
                        RunMetrics::from_stats(&stats_with(3, 4)),
                    ],
                },
                CellReport {
                    cell: 1,
                    label: "radius 50 m / \"epidemic\"".into(),
                    runs: vec![RunMetrics::from_stats(&stats_with(0, 4))],
                },
            ],
        }
    }

    #[test]
    fn metrics_distill_stats() {
        let m = RunMetrics::from_stats(&stats_with(2, 4));
        assert_eq!(m.messages_created, 4);
        assert_eq!(m.messages_delivered, 2);
        assert_eq!(m.delivery_ratio, 0.5);
        assert_eq!(m.avg_latency, Some(7.5));
        assert_eq!(m.avg_hops, Some(3.0));
        assert_eq!(m.duplicate_deliveries, 2);
        assert_eq!(m.max_peak_storage, 4);
        assert_eq!(m.data_tx, 10);
        assert_eq!(m.counter("alpha"), 2);
        assert_eq!(m.counter("zeta"), 1);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn counters_sorted_at_output_boundary() {
        let m = RunMetrics::from_stats(&stats_with(1, 2));
        let keys: Vec<&str> = m.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["alpha", "zeta"]);
        // ... and the serialised form lists them in that order too.
        let mut out = String::new();
        m.write_json(&mut out);
        assert!(out.find("alpha").unwrap() < out.find("zeta").unwrap());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let set = sample_set();
        let text = set.to_json();
        let back = ReportSet::from_json(&text).expect("parse back");
        assert_eq!(back, set);
        // Byte-identical re-serialisation: the merge pipeline depends on it.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn undelivered_run_serialises_null_latency() {
        let set = sample_set();
        assert!(set.to_json().contains("\"avg_latency\": null"));
        let back = ReportSet::from_json(&set.to_json()).unwrap();
        assert_eq!(back.cells[1].runs[0].avg_latency, None);
    }

    #[test]
    fn merge_reassembles_and_rejects_overlap() {
        let set = sample_set();
        let shard0 = ReportSet {
            context: set.context.clone(),
            cells: vec![set.cells[0].clone()],
        };
        let shard1 = ReportSet {
            context: set.context.clone(),
            cells: vec![set.cells[1].clone()],
        };
        let merged = ReportSet::merge(vec![shard1.clone(), shard0.clone()]).unwrap();
        assert_eq!(merged, set);
        assert!(merged.is_complete(2));
        assert!(!shard0.is_complete(2));
        assert!(ReportSet::merge(vec![shard0.clone(), shard0]).is_err());
    }

    #[test]
    fn merge_rejects_mismatched_contexts() {
        let set = sample_set();
        // Disjoint cell indices, but from different experiment grids —
        // without the context check this would "merge" cleanly.
        let shard0 = ReportSet {
            context: "ids=tab9; effort=2runs/250pm".into(),
            cells: vec![set.cells[0].clone()],
        };
        let other_grid = ReportSet {
            context: "ids=fig3; effort=10runs/1000pm".into(),
            cells: vec![set.cells[1].clone()],
        };
        let err = ReportSet::merge(vec![shard0, other_grid]).unwrap_err();
        assert!(err.contains("different sweeps"), "{err}");
    }

    #[test]
    fn summaries_from_cells() {
        let set = sample_set();
        let c = &set.cells[0];
        assert!((c.delivery_pct().mean - 62.5).abs() < 1e-12);
        assert_eq!(c.avg_hops().mean, 3.0);
        assert_eq!(c.counter("alpha").mean, 2.0);
        // Undelivered penalty kicks in for the all-lost cell.
        let lost = &set.cells[1];
        assert_eq!(lost.avg_latency(1000.0).mean, 1000.0);
        assert_eq!(lost.avg_hops().mean, 0.0);
    }

    #[test]
    fn bad_version_rejected() {
        let text = sample_set()
            .to_json()
            .replace("\"version\": 1", "\"version\": 9");
        assert!(ReportSet::from_json(&text).is_err());
    }
}
