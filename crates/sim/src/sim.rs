//! The discrete-event simulation engine.
//!
//! This is the NS-2 substitute described in the crate docs
//! ([`crate`]), composed from the layered modules of this crate:
//!
//! * [`crate::queue`] — the deterministic event queue (time-ordered,
//!   FIFO within a timestamp) over `crate::event`'s event kinds;
//! * [`crate::world`] — shared world state: clock, piecewise-linear node
//!   mobility (sampled lazily from trajectories), the spatial index, the
//!   run RNG, and statistics;
//! * [`crate::space`] — grid-indexed beacon receiver sets;
//! * [`crate::medium`] — the pluggable radio/PHY layer
//!   ([`ContentionMedium`] by default: FIFO transmit queues,
//!   serialisation, carrier-sense backoff, ARQ, probabilistic collision
//!   loss);
//! * [`crate::neighbors`] — IMEP-style beacon sensing maintaining stale
//!   1- and 2-hop neighbour tables.
//!
//! The engine itself (this module) only sequences events: it pops the
//! next event (time-then-FIFO order), advances the clock, and dispatches
//! it to the medium, the neighbour tables, the workload, or a protocol
//! hook. A run is single-threaded; parallelism lives one level up, in
//! [`crate::Sweep`], across independent runs.
//! Protocols implement [`Protocol`] and interact with the world through
//! [`Ctx`]. All randomness flows from the seed in [`crate::SimConfig`],
//! so a run is a pure function of `(config, workload, protocol, seed)`
//! under any conforming medium.

use crate::config::SimConfig;
use crate::event::EventKind;
use crate::ids::{MessageId, MessageInfo, NodeId};
use crate::medium::{ContentionMedium, Frame, Medium, PacketKind, QueueFull, TxResolution};
use crate::neighbors::{NeighborEntry, NeighborTables, NeighborsView, TableFootprint};
use crate::queue::TimedQueue;
use crate::stats::RunStats;
use crate::time::SimTime;
use crate::workload::Workload;
use crate::world::World;
use glr_geometry::Point2;
use glr_mobility::RandomWaypoint;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A routing protocol instance running on one node.
///
/// One value of the implementing type exists per node; the simulator calls
/// the hooks below as events unfold. Default implementations make every
/// hook optional except message handling.
pub trait Protocol: Sized {
    /// The protocol's over-the-air packet type (owned data: the engine
    /// stores frames in queues that outlive any borrow).
    type Packet: Clone + std::fmt::Debug + 'static;

    /// Called once at simulation start.
    fn on_init(&mut self, ctx: &mut Ctx<'_, Self::Packet>) {
        let _ = ctx;
    }

    /// The workload created a new end-to-end message at this node.
    fn on_message_created(&mut self, ctx: &mut Ctx<'_, Self::Packet>, info: MessageInfo);

    /// A frame from `from` arrived at this node.
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Packet>, from: NodeId, packet: Self::Packet);

    /// A node entered radio contact (its beacon was heard and it was not in
    /// the fresh neighbour table before).
    fn on_neighbor_appeared(&mut self, ctx: &mut Ctx<'_, Self::Packet>, nbr: NodeId) {
        let _ = (ctx, nbr);
    }

    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Packet>, token: u64) {
        let _ = (ctx, token);
    }

    /// Number of end-to-end messages currently occupying this node's
    /// storage (Store + Cache for GLR, buffer for epidemic); sampled
    /// periodically for the storage statistics.
    fn storage_used(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// Core world state
// ---------------------------------------------------------------------------

struct Core<Pk> {
    world: World,
    events: TimedQueue<EventKind>,
    medium: Box<dyn Medium<Pk>>,
    tables: NeighborTables,
}

impl<Pk> Core<Pk> {
    /// Schedules `kind` at `at`. Nothing may be scheduled in the past:
    /// the run loop pops one event at a time, so only `at >= now` keeps
    /// the dispatch order equal to `(time, scheduling order)`.
    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.world.now, "event scheduled in the past");
        self.events.schedule(at, kind);
    }
}

// ---------------------------------------------------------------------------
// Ctx — the protocol's window on the world
// ---------------------------------------------------------------------------

/// The environment handed to every [`Protocol`] hook: clock, position,
/// neighbour tables, radio, timers, RNG, and statistics reporting.
pub struct Ctx<'a, Pk> {
    core: &'a mut Core<Pk>,
    me: NodeId,
}

impl<'a, Pk: Clone + std::fmt::Debug> Ctx<'a, Pk> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.core.world.now
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The run configuration (node count, region, radio range, …). The
    /// paper lets nodes use these global constants for the copy-count
    /// decision ("any node can calculate the network connectivity and the
    /// node density").
    pub fn config(&self) -> &SimConfig {
        &self.core.world.config
    }

    /// This node's own (GPS) position — always accurate.
    pub fn my_pos(&self) -> Point2 {
        self.core.world.pos(self.me)
    }

    /// Ground-truth position of an arbitrary node.
    ///
    /// Protocols may only use this where the paper grants an oracle: the
    /// "source knows the true destination location" assumption and the
    /// Table 2 "all nodes know" scenario. Everything else must go through
    /// [`Ctx::neighbors`]/[`Ctx::local_view`] or protocol-level location
    /// diffusion.
    pub fn true_pos(&self, node: NodeId) -> Point2 {
        self.core.world.pos(node)
    }

    /// Fresh one-hop neighbour entries (positions are as of each
    /// neighbour's last beacon, so up to `beacon_interval` stale).
    ///
    /// The returned [`NeighborsView`] derefs to `[NeighborEntry]` and
    /// iterates by value like the `Vec` it replaced; repeated calls
    /// within one event are `Rc` clones of a cached snapshot, not fresh
    /// allocations.
    pub fn neighbors(&mut self) -> NeighborsView {
        self.core.tables.fresh_one_hop(self.me, self.core.world.now)
    }

    /// Fresh merged 1- and 2-hop entries — the "distance two neighbourhood
    /// information" the paper's nodes collect to build the LDTG.
    pub fn local_view(&mut self) -> NeighborsView {
        self.core.tables.fresh_view(self.me, self.core.world.now)
    }

    /// Queues a unicast frame to `to`.
    ///
    /// Delivery is not guaranteed: the frame can be lost to collisions or
    /// because `to` moved out of range; the sender is *not* notified
    /// (protocols needing reliability implement acknowledgements, as GLR's
    /// custody transfer does).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the link-layer queue already holds
    /// `queue_limit` frames; the frame is dropped, matching NS-2's
    /// drop-tail `IFq` behaviour.
    pub fn send(
        &mut self,
        to: NodeId,
        packet: Pk,
        size: u32,
        kind: PacketKind,
    ) -> Result<(), QueueFull> {
        let started = self.core.medium.enqueue(
            &mut self.core.world,
            self.me,
            Frame {
                to,
                packet,
                size,
                kind,
                retries: 0,
            },
        )?;
        if let Some(at) = started {
            self.core.schedule(at, EventKind::TxComplete(self.me));
        }
        Ok(())
    }

    /// Number of frames waiting in this node's transmit queue.
    pub fn tx_queue_len(&self) -> usize {
        self.core.medium.queue_len(self.me)
    }

    /// Schedules [`Protocol::on_timer`] with `token` after `delay` seconds.
    pub fn set_timer(&mut self, delay: f64, token: u64) {
        assert!(delay >= 0.0, "timer delay must be non-negative");
        let at = self.core.world.now + delay;
        self.core.schedule(at, EventKind::Timer(self.me, token));
    }

    /// Reports end-to-end delivery of `id` at this node (call at the
    /// destination, first reception; duplicates are tolerated and counted).
    pub fn deliver(&mut self, id: MessageId, hops: u32) {
        let now = self.core.world.now;
        self.core.world.stats.record_delivery(id, now, hops);
    }

    /// Reports that this node dropped a stored message under storage
    /// pressure (Figure 7 accounting).
    pub fn report_storage_drop(&mut self) {
        self.core.world.stats.storage_drops += 1;
    }

    /// Increments a named protocol event counter (diagnostics; shows up in
    /// [`crate::RunStats::counters`]).
    pub fn count_event(&mut self, name: &'static str) {
        self.core.world.stats.count_event(name);
    }

    /// Deterministic per-run random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.world.rng
    }
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

/// A complete simulation: world, medium, protocols, workload and
/// statistics.
///
/// # Examples
///
/// A protocol that does nothing still compiles and runs:
///
/// ```
/// use glr_sim::{Ctx, MessageInfo, NodeId, Protocol, SimConfig, Simulation, Workload};
///
/// struct Idle;
/// impl Protocol for Idle {
///     type Packet = ();
///     fn on_message_created(&mut self, _: &mut Ctx<'_, ()>, _: MessageInfo) {}
///     fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
/// }
///
/// let cfg = SimConfig::paper(100.0, 1).with_duration(30.0);
/// let wl = Workload::paper_style(50, 10, 1000);
/// let stats = Simulation::new(cfg, wl, |_, _| Idle).run();
/// assert_eq!(stats.messages_created(), 10);
/// assert_eq!(stats.delivery_ratio(), 0.0);
/// ```
pub struct Simulation<P: Protocol> {
    core: Core<P::Packet>,
    protocols: Vec<Option<P>>,
    workload: Workload,
    message_ids: Vec<MessageId>,
    /// Reusable buffer of a beacon's new contacts: the receivers that did
    /// not have the sender as a fresh neighbour.
    appeared: Vec<NodeId>,
}

impl<P: Protocol> Simulation<P> {
    /// Builds a simulation with the default [`ContentionMedium`].
    /// `factory` constructs the protocol instance for each node.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the workload references
    /// nodes outside `0..n_nodes`.
    pub fn new(
        config: SimConfig,
        workload: Workload,
        factory: impl FnMut(NodeId, &SimConfig) -> P,
    ) -> Self {
        let medium = ContentionMedium::new(config.n_nodes);
        Simulation::with_medium(config, workload, factory, medium)
    }

    /// Builds a simulation over a custom radio [`Medium`] — the hook for
    /// alternate PHY models (ideal links, shadowing, duty cycling, …).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the workload references
    /// nodes outside `0..n_nodes`.
    pub fn with_medium(
        config: SimConfig,
        workload: Workload,
        factory: impl FnMut(NodeId, &SimConfig) -> P,
        medium: impl Medium<P::Packet> + 'static,
    ) -> Self {
        Simulation::with_boxed_medium(config, workload, factory, Box::new(medium))
    }

    /// Like [`Simulation::with_medium`] for an already-boxed medium — the
    /// entry point used by [`crate::MediumKind`], where the concrete
    /// medium type is chosen at run time.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the workload references
    /// nodes outside `0..n_nodes`.
    pub fn with_boxed_medium(
        config: SimConfig,
        workload: Workload,
        mut factory: impl FnMut(NodeId, &SimConfig) -> P,
        medium: Box<dyn Medium<P::Packet>>,
    ) -> Self {
        config.validate();
        for m in workload.messages() {
            assert!(
                m.src.index() < config.n_nodes && m.dst.index() < config.n_nodes,
                "workload references node outside deployment"
            );
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let model = RandomWaypoint::new(
            config.region,
            config.speed_range.0,
            config.speed_range.1,
            config.pause_time,
        );
        let arena = model.deployment(config.region, config.n_nodes, config.sim_duration, &mut rng);
        let n = config.n_nodes;
        let protocols = (0..n as u32)
            .map(|i| Some(factory(NodeId(i), &config)))
            .collect();
        let message_ids = (0..workload.len())
            .map(|i| workload.message_id(i))
            .collect();
        let tables = NeighborTables::new(n, config.neighbor_ttl);
        let core = Core {
            world: World::new(config, arena, rng),
            events: TimedQueue::new(),
            medium,
            tables,
        };
        Simulation {
            core,
            protocols,
            workload,
            message_ids,
            appeared: Vec::new(),
        }
    }

    fn with_protocol<R>(
        core: &mut Core<P::Packet>,
        protocols: &mut [Option<P>],
        node: NodeId,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Packet>) -> R,
    ) -> R {
        let mut p = protocols[node.index()]
            .take()
            .expect("re-entrant protocol invocation");
        let mut ctx = Ctx { core, me: node };
        let r = f(&mut p, &mut ctx);
        protocols[node.index()] = Some(p);
        r
    }

    /// Runs the simulation to completion and returns the statistics.
    pub fn run(self) -> RunStats {
        self.run_inspect(|_| {})
    }

    /// Like [`Simulation::run`], additionally handing the finished
    /// simulation to `inspect` before it is torn down — the hook for
    /// end-of-run telemetry that is not part of [`RunStats`] (and must
    /// not be, since `RunStats` equality is what the reference-oracle
    /// equivalence tests compare), such as
    /// [`Simulation::neighbor_footprint`].
    pub fn run_inspect(mut self, inspect: impl FnOnce(&Self)) -> RunStats {
        let duration = self.core.world.config.sim_duration;
        let n = self.core.world.config.n_nodes;

        // Phase-staggered beacons.
        for i in 0..n as u32 {
            let phase =
                self.core.world.config.beacon_interval * (i as f64 + 1.0) / (n as f64 + 1.0);
            self.core
                .schedule(SimTime::from_secs(phase), EventKind::Beacon(NodeId(i)));
        }
        // Workload injections.
        for (i, m) in self.workload.messages().iter().enumerate() {
            self.core.schedule(m.at, EventKind::Inject(i as u32));
        }
        // Storage sampling.
        self.core.schedule(
            SimTime::from_secs(self.core.world.config.stats_interval),
            EventKind::StatsSample,
        );

        // Init hooks.
        for i in 0..n as u32 {
            Self::with_protocol(&mut self.core, &mut self.protocols, NodeId(i), |p, ctx| {
                p.on_init(ctx)
            });
        }

        // One event at a time, in (time, scheduling order). Handlers only
        // schedule at or after `now` (see `Core::schedule`), so an event
        // added while a timestamp is being processed runs after the ones
        // already due at it.
        while let Some(at) = self.core.events.next_at() {
            if at.as_secs() > duration {
                break;
            }
            let (at, ev) = self.core.events.pop().expect("peeked event vanished");
            self.core.world.now = at;
            match ev {
                EventKind::Beacon(u) => self.handle_beacon(u),
                EventKind::TxComplete(u) => self.handle_tx_complete(u),
                EventKind::Timer(u, token) => {
                    Self::with_protocol(&mut self.core, &mut self.protocols, u, |p, ctx| {
                        p.on_timer(ctx, token)
                    });
                }
                EventKind::Inject(i) => self.handle_inject(i as usize),
                EventKind::StatsSample => {
                    for i in 0..n {
                        let used = self.protocols[i]
                            .as_ref()
                            .expect("protocol present")
                            .storage_used();
                        self.core.world.stats.sample_storage(NodeId(i as u32), used);
                    }
                    let next = self.core.world.now + self.core.world.config.stats_interval;
                    self.core.schedule(next, EventKind::StatsSample);
                }
            }
        }
        inspect(&self);
        self.core.world.stats
    }

    /// Heap-memory telemetry of the neighbour tables (per-node protocol
    /// state) — read it at end of run via [`Simulation::run_inspect`].
    pub fn neighbor_footprint(&self) -> TableFootprint {
        self.core.tables.footprint()
    }

    fn handle_beacon(&mut self, u: NodeId) {
        let now = self.core.world.now;
        let pos_u = self.core.world.pos(u);
        let range = self.core.world.config.radio_range;
        // Snapshot of u's one-hop table rides along in the beacon (2-hop
        // info) — materialised once and shared by every receiver.
        let snapshot = self.core.tables.beacon_snapshot(u, now);
        self.core.world.stats.control_tx += 1;

        let sender = NeighborEntry {
            id: u,
            pos: pos_u,
            heard_at: now,
        };
        // Merge the beacon into every receiver's tables in the grid's
        // visit order: each merge touches only that receiver's table, so
        // the order cannot matter. Then run the new-contact hooks in
        // ascending receiver order. Interleaving merges and hooks would
        // change what a hook observes through its `Ctx`, and with it the
        // run's results.
        let mut appeared = std::mem::take(&mut self.appeared);
        appeared.clear();
        let tables = &mut self.core.tables;
        self.core.world.for_each_within(pos_u, range, u, |v| {
            if !tables.record_beacon(v, sender, &snapshot, now) {
                appeared.push(v);
            }
        });
        appeared.sort_unstable();
        for &v in &appeared {
            Self::with_protocol(&mut self.core, &mut self.protocols, v, |p, ctx| {
                p.on_neighbor_appeared(ctx, u)
            });
        }
        self.appeared = appeared;
        let next = now + self.core.world.config.beacon_interval;
        self.core.schedule(next, EventKind::Beacon(u));
    }

    fn handle_tx_complete(&mut self, u: NodeId) {
        match self.core.medium.tx_complete(&mut self.core.world, u) {
            TxResolution::Retrying { at } => {
                self.core.schedule(at, EventKind::TxComplete(u));
            }
            TxResolution::Lost => self.start_next_tx(u),
            TxResolution::Delivered {
                to,
                packet,
                from_pos,
                kind,
            } => {
                // Delivery accounting is the engine's job (media build
                // the resolution; wrappers may veto it).
                match kind {
                    PacketKind::Data => self.core.world.stats.data_tx += 1,
                    PacketKind::Control => self.core.world.stats.control_tx += 1,
                }
                // Hearing a frame also refreshes the receiver's entry for
                // the sender.
                self.core.tables.heard_frame(
                    to,
                    NeighborEntry {
                        id: u,
                        pos: from_pos,
                        heard_at: self.core.world.now,
                    },
                );
                Self::with_protocol(&mut self.core, &mut self.protocols, to, |p, ctx| {
                    p.on_packet(ctx, u, packet)
                });
                self.start_next_tx(u);
            }
        }
    }

    fn start_next_tx(&mut self, u: NodeId) {
        if let Some(at) = self.core.medium.start_next(&mut self.core.world, u) {
            self.core.schedule(at, EventKind::TxComplete(u));
        }
    }

    fn handle_inject(&mut self, i: usize) {
        let m = self.workload.messages()[i];
        let id = self.message_ids[i];
        let now = self.core.world.now;
        self.core
            .world
            .stats
            .register_message(id, m.src, m.dst, now);
        let info = MessageInfo {
            id,
            dst: m.dst,
            size: m.size,
            created: now,
        };
        Self::with_protocol(&mut self.core, &mut self.protocols, m.src, |p, ctx| {
            p.on_message_created(ctx, info)
        });
    }

    /// Swaps in the linear-scan reference index (call before
    /// [`Simulation::run`]).
    #[cfg(test)]
    pub(crate) fn with_linear_scan_index(mut self) -> Self {
        let n = self.core.world.config.n_nodes;
        self.core.world.index = crate::space::SpatialIndex::linear_scan(n);
        self
    }

    /// Swaps in the clone-and-merge reference neighbour tables (call
    /// before [`Simulation::run`]).
    #[cfg(test)]
    pub(crate) fn with_clone_merge_tables(mut self) -> Self {
        let config = &self.core.world.config;
        self.core.tables = NeighborTables::clone_merge(config.n_nodes, config.neighbor_ttl);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadMessage;

    /// Forwards every created message straight to the destination if it is
    /// currently a fresh neighbour; delivers on reception.
    struct DirectSend;

    #[derive(Debug, Clone)]
    struct DirectPacket {
        info: MessageInfo,
        hops: u32,
    }

    impl Protocol for DirectSend {
        type Packet = DirectPacket;

        fn on_message_created(&mut self, ctx: &mut Ctx<'_, Self::Packet>, info: MessageInfo) {
            // Ground-truth check: if destination in range, send directly.
            let dst = info.dst;
            if ctx.true_pos(dst).dist(ctx.my_pos()) <= ctx.config().radio_range {
                let _ = ctx.send(
                    dst,
                    DirectPacket { info, hops: 1 },
                    info.size,
                    PacketKind::Data,
                );
            }
        }

        fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Packet>, _from: NodeId, pkt: Self::Packet) {
            if pkt.info.dst == ctx.me() {
                ctx.deliver(pkt.info.id, pkt.hops);
            }
        }
    }

    fn cfg_retries() -> u64 {
        SimConfig::paper(100.0, 0).mac_retries as u64
    }

    fn two_node_config(seed: u64) -> SimConfig {
        let mut c = SimConfig::paper(250.0, seed).with_duration(50.0);
        c.n_nodes = 2;
        c.region = glr_mobility::Region::new(100.0, 100.0); // always in range
        c
    }

    #[test]
    fn direct_delivery_between_close_nodes() {
        let cfg = two_node_config(3);
        let wl = Workload::single(NodeId(0), NodeId(1), 5.0, 1000);
        let stats = Simulation::new(cfg, wl, |_, _| DirectSend).run();
        assert_eq!(stats.messages_created(), 1);
        assert_eq!(stats.messages_delivered(), 1);
        let lat = stats.avg_latency().unwrap();
        // One frame: ~8.4 ms serialisation plus sub-slot jitter.
        assert!(lat > 0.0 && lat < 0.1, "latency {lat}");
        assert_eq!(stats.avg_hops(), Some(1.0));
        assert_eq!(stats.data_tx, 1);
    }

    #[test]
    fn runs_are_deterministic() {
        let wl = Workload::paper_style(50, 50, 1000);
        let cfg = SimConfig::paper(150.0, 77).with_duration(120.0);
        let s1 = Simulation::new(cfg.clone(), wl.clone(), |_, _| DirectSend).run();
        let s2 = Simulation::new(cfg, wl, |_, _| DirectSend).run();
        assert_eq!(s1.messages_delivered(), s2.messages_delivered());
        assert_eq!(s1.data_tx, s2.data_tx);
        assert_eq!(s1.collisions, s2.collisions);
        assert_eq!(s1.avg_latency(), s2.avg_latency());
    }

    #[test]
    fn different_seeds_differ() {
        let wl = Workload::paper_style(50, 100, 1000);
        let a = Simulation::new(
            SimConfig::paper(100.0, 1).with_duration(150.0),
            wl.clone(),
            |_, _| DirectSend,
        )
        .run();
        let b = Simulation::new(
            SimConfig::paper(100.0, 2).with_duration(150.0),
            wl,
            |_, _| DirectSend,
        )
        .run();
        // Different topologies/movement: delivered counts almost surely differ.
        assert_ne!(
            (a.messages_delivered(), a.data_tx),
            (b.messages_delivered(), b.data_tx)
        );
    }

    #[test]
    fn grid_and_linear_scan_agree_exactly() {
        // The same seeds with the grid index and with the linear-scan
        // oracle must produce bit-identical statistics (the grid is an
        // exact index, not an approximation).
        for seed in [5u64, 21, 99] {
            let wl = Workload::paper_style(50, 40, 1000);
            let cfg = SimConfig::paper(150.0, seed).with_duration(90.0);
            let grid = Simulation::new(cfg.clone(), wl.clone(), |_, _| DirectSend).run();
            let linear = Simulation::new(cfg, wl, |_, _| DirectSend)
                .with_linear_scan_index()
                .run();
            assert_eq!(grid, linear, "grid and linear scan diverged at seed {seed}");
        }
    }

    #[test]
    fn neighbor_tables_fill_and_expire() {
        struct Spy {
            appeared: usize,
        }
        impl Protocol for Spy {
            type Packet = ();
            fn on_message_created(&mut self, _: &mut Ctx<'_, ()>, _: MessageInfo) {}
            fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_neighbor_appeared(&mut self, ctx: &mut Ctx<'_, ()>, nbr: NodeId) {
                self.appeared += 1;
                // The new neighbour must be in the fresh table.
                assert!(ctx.neighbors().iter().any(|e| e.id == nbr));
            }
        }
        let cfg = two_node_config(5);
        let stats = Simulation::new(cfg, Workload::default(), |_, _| Spy { appeared: 0 }).run();
        // No messages, but beacons flowed.
        assert!(stats.control_tx > 0);
    }

    #[test]
    fn new_contact_hooks_fire_in_ascending_receiver_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        type Log = Rc<RefCell<Vec<(SimTime, NodeId, NodeId)>>>;
        struct Spy {
            log: Log,
        }
        impl Protocol for Spy {
            type Packet = ();
            fn on_message_created(&mut self, _: &mut Ctx<'_, ()>, _: MessageInfo) {}
            fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_neighbor_appeared(&mut self, ctx: &mut Ctx<'_, ()>, nbr: NodeId) {
                self.log.borrow_mut().push((ctx.now(), nbr, ctx.me()));
            }
        }
        // At 250 m most of the 50 nodes hear each first beacon, and the
        // grid visits them cell by cell, not in id order.
        let log = Log::default();
        let cfg = SimConfig::paper(250.0, 3).with_duration(30.0);
        Simulation::new(cfg, Workload::default(), |_, _| Spy { log: log.clone() }).run();
        let log = log.borrow();
        let mut multi = 0;
        for w in log.windows(2) {
            let ((t0, s0, r0), (t1, s1, r1)) = (w[0], w[1]);
            if (t0, s0) == (t1, s1) {
                assert!(r0 < r1, "beacon of {s0:?} at {t0}: {r0:?} before {r1:?}");
                multi += 1;
            }
        }
        assert!(multi > 0, "no beacon had two new contacts");
    }

    #[test]
    fn queue_limit_enforced() {
        struct Flooder;
        impl Protocol for Flooder {
            type Packet = u32;
            fn on_message_created(&mut self, ctx: &mut Ctx<'_, u32>, _info: MessageInfo) {
                // Stuff far more frames than the queue can hold.
                let mut sent = 0;
                let mut dropped = 0;
                for i in 0..400u32 {
                    match ctx.send(NodeId(1), i, 1000, PacketKind::Data) {
                        Ok(()) => sent += 1,
                        Err(QueueFull) => dropped += 1,
                    }
                }
                // One frame goes straight into the transmitter, 150 queue.
                assert_eq!(sent, 151);
                assert_eq!(dropped, 249);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        }
        let cfg = two_node_config(9);
        let wl = Workload::single(NodeId(0), NodeId(1), 1.0, 1000);
        let stats = Simulation::new(cfg, wl, |_, _| Flooder).run();
        assert_eq!(stats.queue_drops, 249);
        assert_eq!(stats.data_tx, 151);
    }

    #[test]
    fn out_of_range_frames_are_lost() {
        struct SendAnyway;
        impl Protocol for SendAnyway {
            type Packet = ();
            fn on_message_created(&mut self, ctx: &mut Ctx<'_, ()>, _info: MessageInfo) {
                let _ = ctx.send(NodeId(1), (), 1000, PacketKind::Data);
            }
            fn on_packet(&mut self, ctx: &mut Ctx<'_, ()>, _: NodeId, _: ()) {
                // Should never happen.
                panic!("frame delivered beyond radio range at {}", ctx.now());
            }
        }
        // Tiny range in a huge region: the two nodes are almost surely far
        // apart at injection time.
        let mut cfg = SimConfig::paper(1.0, 1234).with_duration(20.0);
        cfg.n_nodes = 2;
        cfg.region = glr_mobility::Region::new(100_000.0, 100_000.0);
        let wl = Workload::single(NodeId(0), NodeId(1), 1.0, 1000);
        let stats = Simulation::new(cfg, wl, |_, _| SendAnyway).run();
        // The initial attempt plus every ARQ retry fails out of range.
        assert_eq!(stats.out_of_range, 1 + cfg_retries());
        assert_eq!(stats.data_tx, 0);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerProto {
            log: Vec<u64>,
        }
        impl Protocol for TimerProto {
            type Packet = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(3.0, 30);
                ctx.set_timer(1.0, 10);
                ctx.set_timer(2.0, 20);
            }
            fn on_message_created(&mut self, _: &mut Ctx<'_, ()>, _: MessageInfo) {}
            fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: u64) {
                self.log.push(token);
                assert!((ctx.now().as_secs() - (token as f64) / 10.0).abs() < 1e-9);
                if token == 10 && self.log.len() == 1 {
                    ctx.set_timer(0.5, 15);
                }
            }
        }
        let cfg = two_node_config(2);
        // No workload; run the timers only. We can't extract protocol state
        // after run(), so assertions live inside the hooks; the ordering
        // check is the token/now consistency assert above plus token 15
        // firing between 10 and 20 (guarded by set_timer placement).
        let _ = Simulation::new(cfg, Workload::default(), |_, _| TimerProto {
            log: Vec::new(),
        })
        .run();
    }

    #[test]
    fn storage_sampling_reaches_stats() {
        struct Hoarder;
        impl Protocol for Hoarder {
            type Packet = ();
            fn on_message_created(&mut self, _: &mut Ctx<'_, ()>, _: MessageInfo) {}
            fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn storage_used(&self) -> usize {
                7
            }
        }
        let cfg = two_node_config(4);
        let stats = Simulation::new(cfg, Workload::default(), |_, _| Hoarder).run();
        assert_eq!(stats.max_peak_storage(), 7);
        assert_eq!(stats.avg_peak_storage(), 7.0);
        assert_eq!(stats.mean_storage_occupancy(), 7.0);
    }

    #[test]
    #[should_panic(expected = "outside deployment")]
    fn workload_bounds_checked() {
        let cfg = two_node_config(1);
        let wl = Workload::new(vec![WorkloadMessage {
            at: SimTime::from_secs(1.0),
            src: NodeId(0),
            dst: NodeId(9),
            size: 10,
        }]);
        Simulation::new(cfg, wl, |_, _| DirectSend);
    }

    #[test]
    fn custom_medium_is_pluggable() {
        /// A lossless, contention-free medium: every frame arrives after
        /// pure serialisation time, regardless of distance.
        struct IdealMedium<Pk> {
            inner: ContentionMedium<Pk>,
        }
        impl<Pk: Clone + std::fmt::Debug> Medium<Pk> for IdealMedium<Pk> {
            fn enqueue(
                &mut self,
                world: &mut World,
                from: NodeId,
                frame: Frame<Pk>,
            ) -> Result<Option<SimTime>, QueueFull> {
                self.inner.enqueue(world, from, frame)
            }
            fn tx_complete(&mut self, world: &mut World, from: NodeId) -> TxResolution<Pk> {
                // Resolve through the contention model, then overrule any
                // loss: ideal radios always deliver.
                match self.inner.tx_complete(world, from) {
                    ok @ TxResolution::Delivered { .. } => ok,
                    _ => panic!("two static in-range nodes must never lose frames"),
                }
            }
            fn start_next(&mut self, world: &mut World, from: NodeId) -> Option<SimTime> {
                self.inner.start_next(world, from)
            }
            fn queue_len(&self, node: NodeId) -> usize {
                self.inner.queue_len(node)
            }
        }

        let cfg = two_node_config(8);
        let n = cfg.n_nodes;
        let wl = Workload::single(NodeId(0), NodeId(1), 5.0, 1000);
        let stats = Simulation::with_medium(
            cfg,
            wl,
            |_, _| DirectSend,
            IdealMedium {
                inner: ContentionMedium::new(n),
            },
        )
        .run();
        assert_eq!(stats.messages_delivered(), 1);
    }
}
