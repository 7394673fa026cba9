//! Declarative experiment description: one [`Scenario`] bundles the
//! engine configuration, the traffic workload, and the radio medium into
//! a value that can be stored, labelled, swept over, and executed.
//!
//! This is the layer the sweep engine ([`crate::Sweep`]) iterates over:
//! experiment grids expand into `Vec<Scenario>` (one per cell) instead of
//! hand-rolled nested loops, and a scenario runs any [`Protocol`] under
//! any of the built-in media without the call site naming concrete
//! medium types.
//!
//! # Example
//!
//! ```
//! use glr_sim::{Ctx, MediumKind, MessageInfo, NodeId, Protocol, Scenario, SimConfig};
//!
//! struct Idle;
//! impl Protocol for Idle {
//!     type Packet = ();
//!     fn on_message_created(&mut self, _: &mut Ctx<'_, ()>, _: MessageInfo) {}
//!     fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
//! }
//!
//! let base = SimConfig::paper(100.0, 7).with_duration(30.0);
//! // The same experiment under two radios, differing only in the medium.
//! for medium in [MediumKind::Contention, MediumKind::Ideal] {
//!     let sc = Scenario::new("demo", base.clone())
//!         .with_messages(5)
//!         .with_medium(medium);
//!     let stats = sc.run(|_, _| Idle);
//!     assert_eq!(stats.messages_created(), 5);
//! }
//! ```

use crate::config::SimConfig;
use crate::ids::NodeId;
use crate::medium::MediumKind;
use crate::sim::{Protocol, Simulation};
use crate::stats::RunStats;
use crate::workload::Workload;

/// How a scenario's traffic is generated.
///
/// Workloads are derived from the scenario configuration at run time, so
/// a sweep axis over `n_nodes` automatically gets correctly-sized
/// paper-style traffic without the cell storing a stale message list.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// [`Workload::paper_style`] traffic: `messages` messages of `size`
    /// bytes, round-robin over the active subset of the deployment.
    PaperStyle {
        /// Number of messages to inject.
        messages: usize,
        /// Payload size in bytes.
        size: u32,
    },
    /// An explicit, pre-built message schedule.
    Explicit(Workload),
}

/// A declarative, self-contained experiment cell: configuration, traffic
/// and radio medium, plus a human-readable label.
///
/// A `Scenario` is inert data until [`Scenario::run`] (or
/// [`Scenario::run_nth`], which the sweep engine uses to re-seed the
/// same cell per run). Two runs of the same scenario with the same seed
/// are bit-identical regardless of thread count — the property the
/// shard-merge pipeline relies on. Across *machines* this extends to
/// any host computing `f64` math identically (in practice: the same
/// binary, or same target + libm); [`MediumKind::Shadowing`] draws
/// through `ln`/`cos`/`log10`, whose last-ulp rounding is libm's, not
/// IEEE-mandated.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable label (table row / JSON cell name).
    pub label: String,
    /// Engine configuration (including the cell's base seed).
    pub config: SimConfig,
    /// Traffic description.
    pub workload: WorkloadSpec,
    /// Radio/PHY model.
    pub medium: MediumKind,
}

impl Scenario {
    /// A scenario over `config` with an empty workload and the default
    /// [`MediumKind::Contention`]; attach traffic with
    /// [`Scenario::with_messages`] or [`Scenario::with_workload`].
    pub fn new(label: impl Into<String>, config: SimConfig) -> Self {
        Scenario {
            label: label.into(),
            config,
            workload: WorkloadSpec::Explicit(Workload::default()),
            medium: MediumKind::Contention,
        }
    }

    /// Returns the scenario with paper-style traffic of `messages`
    /// 1000-byte messages (the paper's payload size).
    pub fn with_messages(mut self, messages: usize) -> Self {
        self.workload = WorkloadSpec::PaperStyle {
            messages,
            size: 1000,
        };
        self
    }

    /// Returns the scenario with an explicit workload spec.
    pub fn with_workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = spec;
        self
    }

    /// Returns the scenario over a different medium.
    pub fn with_medium(mut self, medium: MediumKind) -> Self {
        self.medium = medium;
        self
    }

    /// Materialises the workload for this scenario's configuration.
    pub fn build_workload(&self) -> Workload {
        match &self.workload {
            WorkloadSpec::PaperStyle { messages, size } => {
                Workload::paper_style(self.config.n_nodes, *messages, *size)
            }
            WorkloadSpec::Explicit(w) => w.clone(),
        }
    }

    /// The large-`n` preset tier: one scenario per built-in medium
    /// ([`MediumKind::Contention`], [`MediumKind::Ideal`],
    /// [`MediumKind::Shadowing`]) at `n_nodes` nodes and the paper's node
    /// density ([`SimConfig::paper_scaled`]: the region grows with `√n`),
    /// running for `duration` simulated seconds with paper-style traffic
    /// of one message per 50 nodes.
    ///
    /// This is the tier that exercises the beacon hot path — interned
    /// snapshots and incremental two-hop merges — at 10k+ nodes; the CI
    /// smoke runs it short, benches run it longer. Tune individual cells
    /// afterwards via the public fields or the builder methods.
    ///
    /// # Examples
    ///
    /// ```
    /// use glr_sim::Scenario;
    ///
    /// let tier = Scenario::large_n_tier(10_000, 5.0, 1);
    /// assert_eq!(tier.len(), 3);
    /// assert!(tier.iter().all(|s| s.config.n_nodes == 10_000));
    /// ```
    pub fn large_n_tier(n_nodes: usize, duration: f64, seed: u64) -> Vec<Scenario> {
        [
            MediumKind::Contention,
            MediumKind::Ideal,
            MediumKind::shadowing(),
        ]
        .into_iter()
        .map(|medium| {
            let config = SimConfig::paper_scaled(n_nodes, 100.0, seed).with_duration(duration);
            Scenario::new(format!("large-n/{n_nodes}/{medium}"), config)
                .with_messages((n_nodes / 50).max(1))
                .with_medium(medium)
        })
        .collect()
    }

    /// Runs the scenario once with its configured seed.
    pub fn run<P: Protocol>(&self, factory: impl FnMut(NodeId, &SimConfig) -> P) -> RunStats {
        self.run_nth(0, factory)
    }

    /// Runs the `run`-th seeded repetition of the scenario: seed
    /// `config.seed + run`. This is THE per-cell run function for
    /// [`crate::Sweep`] — the shard merge's byte-identity guarantee
    /// depends on every executor seeding the same way, so derive sweep
    /// seeds here rather than by hand.
    pub fn run_nth<P: Protocol>(
        &self,
        run: usize,
        factory: impl FnMut(NodeId, &SimConfig) -> P,
    ) -> RunStats {
        let config = self.config.clone().with_seed(self.config.seed + run as u64);
        let workload = self.build_workload();
        let medium = self.medium.build(config.n_nodes);
        Simulation::with_boxed_medium(config, workload, factory, medium).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MessageInfo;
    use crate::medium::PacketKind;
    use crate::sim::Ctx;

    /// Forwards to the destination when it is in (true) range.
    struct Direct;
    impl Protocol for Direct {
        type Packet = MessageInfo;
        fn on_message_created(&mut self, ctx: &mut Ctx<'_, MessageInfo>, info: MessageInfo) {
            if ctx.true_pos(info.dst).dist(ctx.my_pos()) <= ctx.config().radio_range {
                let _ = ctx.send(info.dst, info, info.size, PacketKind::Data);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, MessageInfo>, _: NodeId, pkt: MessageInfo) {
            if pkt.dst == ctx.me() {
                ctx.deliver(pkt.id, 1);
            }
        }
    }

    fn base() -> SimConfig {
        SimConfig::paper(150.0, 11).with_duration(40.0)
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let sc = Scenario::new("det", base()).with_messages(20);
        let a = sc.run(|_, _| Direct);
        let b = sc.run(|_, _| Direct);
        assert_eq!(a, b);
        assert_eq!(a.messages_created(), 20);
    }

    #[test]
    fn run_nth_offsets_seed() {
        let sc = Scenario::new("seeded", base().with_seed(100)).with_messages(30);
        let a = sc.run_nth(0, |_, _| Direct);
        let b = sc.run_nth(1, |_, _| Direct);
        let a2 = sc.run(|_, _| Direct);
        assert_eq!(a, a2, "run is run_nth(0)");
        // Run `n` is the scenario under seed `config.seed + n`.
        let shifted = Scenario::new("seeded", base().with_seed(103)).with_messages(30);
        assert_eq!(sc.run_nth(3, |_, _| Direct), shifted.run(|_, _| Direct));
        assert_ne!(
            (a.data_tx, a.messages_delivered()),
            (b.data_tx, b.messages_delivered())
        );
    }

    #[test]
    fn media_are_selectable() {
        for medium in [
            MediumKind::Contention,
            MediumKind::Ideal,
            MediumKind::shadowing(),
        ] {
            let sc = Scenario::new(format!("m-{medium}"), base())
                .with_messages(10)
                .with_medium(medium.clone());
            let stats = sc.run(|_, _| Direct);
            assert_eq!(stats.messages_created(), 10, "medium {medium}");
            if medium == MediumKind::Ideal {
                assert_eq!(stats.collisions, 0);
                assert_eq!(stats.out_of_range, 0);
            }
        }
    }

    #[test]
    fn explicit_workload_respected() {
        let wl = Workload::single(NodeId(0), NodeId(1), 2.0, 500);
        let sc = Scenario::new("explicit", base()).with_workload(WorkloadSpec::Explicit(wl));
        let stats = sc.run(|_, _| Direct);
        assert_eq!(stats.messages_created(), 1);
    }

    #[test]
    fn paper_workload_tracks_node_count() {
        let mut cfg = base();
        cfg.n_nodes = 20;
        let sc = Scenario::new("scaled", cfg).with_messages(40);
        let wl = sc.build_workload();
        assert_eq!(wl.len(), 40);
        // paper_style keeps sources within the active subset of 20 nodes.
        assert!(wl.messages().iter().all(|m| m.src.index() < 15));
    }

    #[test]
    fn large_n_tier_covers_all_media_at_paper_density() {
        let tier = Scenario::large_n_tier(5000, 8.0, 3);
        let names: Vec<&str> = tier.iter().map(|s| s.medium.name()).collect();
        assert_eq!(names, vec!["contention", "ideal", "shadowing"]);
        for s in &tier {
            assert_eq!(s.config.n_nodes, 5000);
            assert_eq!(s.config.sim_duration, 8.0);
            // Paper density: 50 nodes per 1500 m × 300 m strip.
            let density =
                s.config.n_nodes as f64 / (s.config.region.width() * s.config.region.height());
            assert!((density - 50.0 / (1500.0 * 300.0)).abs() < 1e-12);
            assert_eq!(s.build_workload().len(), 100);
        }
    }

    #[test]
    fn medium_kind_names() {
        assert_eq!(MediumKind::Contention.name(), "contention");
        assert_eq!(MediumKind::Ideal.to_string(), "ideal");
        assert_eq!(MediumKind::shadowing().name(), "shadowing");
    }
}
