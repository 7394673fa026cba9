//! Multi-run experiment harness.
//!
//! Every number in the paper is a mean over 10 runs with distinct
//! topologies and movement patterns, reported with a 90 % confidence
//! interval. [`MultiRun`] drives that: it re-seeds the configuration for
//! each run, collects [`RunStats`], and summarises any metric across runs.
//!
//! [`MultiRun::execute`] fans the runs out across OS threads (one run is
//! a pure function of `(config, workload, protocol, seed)`, so runs are
//! embarrassingly parallel). The execution itself is the [`Sweep`]
//! engine's work queue — a `MultiRun` is simply a sweep of one cell — so
//! the summaries are identical to the serial path regardless of thread
//! count or completion order, asserted by the tests below and by the
//! sweep engine's own. Each run is single-threaded; runs are the only
//! unit of parallelism.

use crate::config::SimConfig;
use crate::stats::{summarize, RunStats, Summary};
use crate::sweep::Sweep;

/// Results of repeating one experiment across several seeds.
#[derive(Debug, Clone)]
pub struct MultiRun {
    runs: Vec<RunStats>,
}

impl MultiRun {
    /// Executes `runs` simulations in parallel (one thread per available
    /// core, capped at `runs`), seeding run `i` with `base_seed + i`, and
    /// collects their statistics in run order. `run_fn` receives the
    /// per-run configuration and must return that run's [`RunStats`]
    /// (typically by constructing a `Simulation` and calling `run()`).
    ///
    /// Determinism: each run's seed depends only on its index, and
    /// results are stored by index, so the outcome is identical to
    /// [`MultiRun::execute_serial`] for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`, or propagates the first panic of any run.
    pub fn execute(
        config: &SimConfig,
        runs: usize,
        run_fn: impl Fn(SimConfig) -> RunStats + Send + Sync,
    ) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::execute_with_threads(config, runs, threads, run_fn)
    }

    /// Like [`MultiRun::execute`] with an explicit worker-thread count
    /// (clamped to `runs`; `<= 1` runs on the calling thread). Results
    /// are independent of the count — this is the knob for oversubscribed
    /// or cgroup-limited hosts, and what the determinism tests pin.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`, or propagates the first panic of any run.
    pub fn execute_with_threads(
        config: &SimConfig,
        runs: usize,
        threads: usize,
        run_fn: impl Fn(SimConfig) -> RunStats + Send + Sync,
    ) -> Self {
        assert!(runs > 0, "need at least one run");
        let results = Sweep::new(runs)
            .with_threads(threads)
            .execute(&[()], |(), i| {
                run_fn(config.clone().with_seed(config.seed + i as u64))
            });
        let cell = results
            .into_cells()
            .pop()
            .expect("single-cell sweep produced no cell");
        MultiRun { runs: cell.runs }
    }

    /// Executes `runs` simulations on the calling thread, seeding run `i`
    /// with `base_seed + i`. Prefer [`MultiRun::execute`]; this exists
    /// for stateful `run_fn` closures (`FnMut`) and as the reference the
    /// parallel path is validated against.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn execute_serial(
        config: &SimConfig,
        runs: usize,
        mut run_fn: impl FnMut(SimConfig) -> RunStats,
    ) -> Self {
        assert!(runs > 0, "need at least one run");
        let collected = (0..runs)
            .map(|i| run_fn(config.clone().with_seed(config.seed + i as u64)))
            .collect();
        MultiRun { runs: collected }
    }

    /// Wraps already-collected run statistics.
    pub fn from_runs(runs: Vec<RunStats>) -> Self {
        assert!(!runs.is_empty(), "need at least one run");
        MultiRun { runs }
    }

    /// The individual run statistics.
    pub fn runs(&self) -> &[RunStats] {
        &self.runs
    }

    /// Summarises an arbitrary per-run metric.
    pub fn metric(&self, f: impl Fn(&RunStats) -> f64) -> Summary {
        let xs: Vec<f64> = self.runs.iter().map(f).collect();
        summarize(&xs)
    }

    /// Delivery ratio across runs.
    pub fn delivery_ratio(&self) -> Summary {
        self.metric(|r| r.delivery_ratio())
    }

    /// Mean latency across runs (runs with no deliveries contribute the
    /// full simulated duration as a pessimistic bound — they would
    /// otherwise silently vanish from the average).
    pub fn avg_latency(&self, undelivered_penalty: f64) -> Summary {
        self.metric(|r| r.avg_latency().unwrap_or(undelivered_penalty))
    }

    /// Mean hop count across runs (0 when nothing was delivered).
    pub fn avg_hops(&self) -> Summary {
        self.metric(|r| r.avg_hops().unwrap_or(0.0))
    }

    /// Max peak storage across runs.
    pub fn max_peak_storage(&self) -> Summary {
        self.metric(|r| r.max_peak_storage() as f64)
    }

    /// Average peak storage across runs.
    pub fn avg_peak_storage(&self) -> Summary {
        self.metric(|r| r.avg_peak_storage())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::stats::RunStats;
    use crate::time::SimTime;

    fn fake_run(delivered: usize, total: usize) -> RunStats {
        let mut s = RunStats::new(4);
        for i in 0..total {
            let id = crate::ids::MessageId {
                src: NodeId(0),
                seq: i as u32,
            };
            s.register_message(id, NodeId(0), NodeId(1), SimTime::ZERO);
            if i < delivered {
                s.record_delivery(id, SimTime::from_secs(10.0 + i as f64), 2);
            }
        }
        s
    }

    #[test]
    fn metric_aggregation() {
        let mr = MultiRun::from_runs(vec![fake_run(8, 10), fake_run(10, 10), fake_run(9, 10)]);
        let dr = mr.delivery_ratio();
        assert!((dr.mean - 0.9).abs() < 1e-12);
        assert!(dr.ci90 > 0.0);
        assert_eq!(dr.n, 3);
        let hops = mr.avg_hops();
        assert_eq!(hops.mean, 2.0);
    }

    #[test]
    fn latency_penalty_for_empty_runs() {
        let mr = MultiRun::from_runs(vec![fake_run(0, 5), fake_run(5, 5)]);
        let lat = mr.avg_latency(1000.0);
        assert!(lat.mean > 100.0, "penalty must dominate: {}", lat.mean);
    }

    #[test]
    fn execute_reseeds() {
        let cfg = SimConfig::paper(100.0, 10);
        let mut seeds = Vec::new();
        let mr = MultiRun::execute_serial(&cfg, 3, |c| {
            seeds.push(c.seed);
            RunStats::new(2)
        });
        assert_eq!(seeds, vec![10, 11, 12]);
        assert_eq!(mr.runs().len(), 3);
    }

    #[test]
    fn parallel_execute_matches_serial() {
        // A deterministic fake run derived only from the seed: the
        // parallel fan-out must reproduce the serial results exactly, in
        // run order.
        let run_fn = |c: SimConfig| {
            let delivered = (c.seed % 7) as usize;
            fake_run(delivered, 8)
        };
        let cfg = SimConfig::paper(100.0, 40);
        // Pin the thread count so the threaded path is exercised even on
        // single-core hosts (where `execute` would fall back to serial).
        let par = MultiRun::execute_with_threads(&cfg, 16, 4, run_fn);
        let ser = MultiRun::execute_serial(&cfg, 16, run_fn);
        assert_eq!(par.runs().len(), 16);
        for (p, s) in par.runs().iter().zip(ser.runs()) {
            assert_eq!(p, s);
        }
        assert_eq!(par.delivery_ratio(), ser.delivery_ratio());
        assert_eq!(par.avg_hops(), ser.avg_hops());
    }

    #[test]
    fn parallel_execute_runs_real_simulations() {
        use crate::medium::PacketKind;
        use crate::sim::{Ctx, Protocol, Simulation};
        use crate::workload::Workload;

        /// Greedily forwards to the destination when it is in range.
        struct Direct;
        impl Protocol for Direct {
            type Packet = crate::ids::MessageInfo;
            fn on_message_created(
                &mut self,
                ctx: &mut Ctx<'_, Self::Packet>,
                info: crate::ids::MessageInfo,
            ) {
                if ctx.true_pos(info.dst).dist(ctx.my_pos()) <= ctx.config().radio_range {
                    let _ = ctx.send(info.dst, info, info.size, PacketKind::Data);
                }
            }
            fn on_packet(
                &mut self,
                ctx: &mut Ctx<'_, Self::Packet>,
                _from: NodeId,
                pkt: Self::Packet,
            ) {
                if pkt.dst == ctx.me() {
                    ctx.deliver(pkt.id, 1);
                }
            }
        }

        let cfg = SimConfig::paper(200.0, 3).with_duration(60.0);
        let run_fn = |c: SimConfig| {
            let wl = Workload::paper_style(c.n_nodes, 10, 1000);
            Simulation::new(c, wl, |_, _| Direct).run()
        };
        let par = MultiRun::execute_with_threads(&cfg, 4, 4, run_fn);
        let ser = MultiRun::execute_serial(&cfg, 4, run_fn);
        for (p, s) in par.runs().iter().zip(ser.runs()) {
            assert_eq!(p, s, "parallel run diverged from serial");
        }
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let cfg = SimConfig::paper(100.0, 0);
        MultiRun::execute(&cfg, 0, |_| RunStats::new(2));
    }
}
