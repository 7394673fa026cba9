//! Deterministic discrete-event DTN simulator — the NS-2 substitute for the
//! GLR reproduction.
//!
//! The paper evaluates GLR in NS-2 with full 802.11 PHY/MAC simulation.
//! This crate replaces that stack with a deterministic event-driven model
//! that preserves the causal mechanisms the results depend on:
//!
//! * **intermittent connectivity** — unit-disk radio over random-waypoint
//!   mobility, sampled lazily from piecewise-linear trajectories;
//! * **contention** — per-node FIFO transmit queues (capacity 150 frames,
//!   Table 1), 1 Mbps serialisation, carrier-sense backoff scaled by busy
//!   transmitters in range, and collision loss scaled by interferers near
//!   the receiver (hidden terminals included);
//! * **approximate neighbourhood knowledge** — IMEP-style beacons carrying
//!   the sender's position and 1-hop table, maintaining stale-by-design
//!   1- and 2-hop neighbour tables with timestamps;
//! * **finite storage** — protocols report occupancy, the engine samples
//!   peaks (Tables 4/5) and enforces nothing: buffer policy is the
//!   protocol's business, exactly as in the paper.
//!
//! # Architecture
//!
//! The engine is layered; each layer is its own module:
//!
//! | module | responsibility |
//! |---|---|
//! | [`mod@sim`] | event sequencing: pops one event at a time, advances the clock, dispatches it on one thread |
//! | [`mod@medium`] | radio/PHY behind the [`Medium`] trait: one queue layer whose access delay and loss come from a [`MediumKind`] (contention by default, ideal, shadowing, duty-cycled) |
//! | [`mod@neighbors`] | IMEP beacon sensing: `Rc`-interned beacon snapshots and incrementally merged 1-/2-hop tables with TTL expiry ([`NeighborTables`]) |
//! | [`mod@space`] | beacon receiver sets: an exact, drift-compensated grid index ([`SpatialIndex`]) |
//! | [`mod@world`] | shared state: clock, trajectories, RNG, statistics |
//! | [`mod@scenario`] | declarative experiment cells: [`Scenario`] = config + workload + [`MediumKind`] |
//! | [`mod@sweep`] | the parameter-sweep engine: work-queue execution of `(cell, run)` units on scoped threads, sharding, deterministic collection |
//! | [`mod@report`] | shard-mergeable per-run metrics with a serde-free JSON round trip |
//! | [`mod@queue`] | deterministic time-then-FIFO priority queue ([`TimedQueue`]) |
//!
//! Protocols implement [`Protocol`]; [`Simulation`] runs one seed (or
//! [`Simulation::with_boxed_medium`] over another [`MediumKind::build`]
//! or a custom [`Medium`]). Experiments are described as
//! `Vec<`[`Scenario`]`>` and executed by [`Sweep`], which repeats each
//! cell across seeds ([`Scenario::run_nth`]); a [`CellReport`] then
//! reports every metric as `mean ± 90 % CI` like every table in the
//! paper. The sweep's `(cell, run)` work queue fans
//! out across threads — and, via [`Sweep::with_shard`] plus
//! [`ReportSet::merge`], across machines; [`Sweep::skipping`] resumes an
//! interrupted run from the cells already present in its partial report.
//! Runs are pure functions of `(config, workload, protocol, seed)`: the
//! same seed gives bit-identical [`RunStats`] under any thread count, any
//! shard split, and any conforming medium.
//!
//! # Where the parallelism is
//!
//! A run is single-threaded. The paper's results are grids of small
//! 50-node runs repeated over seeds, so the parallelism lives only in
//! [`Sweep`]: `min(threads, units)` scoped workers pull `(cell, run)`
//! units from one atomic cursor and results are collected by unit index,
//! so [`RunStats`] are bit-identical for any thread count and any shard
//! split.
//!
//! Each worker builds and runs its simulations itself, and only the run
//! function's result (a [`RunStats`] or a [`RunMetrics`] row) crosses
//! threads. The engine relies on that: neighbour views, which beacons
//! carry to every receiver, are shared through `Rc`, not `Arc`, so
//! [`Simulation`], [`NeighborTables`] and [`NeighborsView`] are `!Send`.
//!
//! # Scaling to 100k+ nodes
//!
//! Each of the two hot layers has one implementation, built for scale:
//!
//! * beacon receiver sets — the drift-compensated grid [`SpatialIndex`];
//! * the beacon/neighbour layer — [`NeighborTables`] (one `Rc`
//!   [`NeighborsView`] per beacon shared by all receivers, incremental
//!   keyed merges, lazy staleness sweeping; [`Ctx::neighbors`] and
//!   [`Ctx::local_view`] build a fresh view per call).
//!
//! The straightforward implementations they replaced — a linear scan
//! over all nodes and clone-and-merge tables — are kept only as
//! `#[cfg(test)]` oracles. The crate's equivalence tests swap them into
//! full simulation runs over every medium and require bit-identical
//! [`RunStats`]; `tests/grid_equivalence.rs` checks the grid's raw
//! queries against a plain scan.
//!
//! Single-run memory is flat: random waypoint writes the whole
//! deployment's trajectories straight into one contiguous
//! [`glr_mobility::DeploymentArena`] keyframe buffer (offsets + per-node
//! segment hints), with no per-node `Vec` on the way, and all position
//! sampling reads it. Across a sweep, each worker distils a finished run
//! into whatever the caller keeps (a [`RunMetrics`] row in the
//! experiment harness), so a run's per-message records are freed when
//! the run ends, not when the sweep does. Per-node
//! protocol state is compact: thin `Rc`-only beacon snapshots, a
//! single-probe peer map with 32-byte entries, and no per-node view
//! cache ([`TableFootprint`] reports the bytes; the `neighbor_footprint`
//! bench row tracks them at 100k).
//!
//! [`Scenario::large_n_tier`] builds a ready-made 10k-node preset —
//! paper density via [`SimConfig::paper_scaled`], one cell per built-in
//! medium; `examples/large_n.rs` runs it (CI smokes it at 10k and at
//! 100k nodes) on every push.
//!
//! # Example
//!
//! ```
//! use glr_sim::{Ctx, MediumKind, MessageInfo, NodeId, PacketKind, Protocol, Scenario, SimConfig};
//!
//! /// A protocol that forwards to the destination when it happens to be a
//! /// current radio neighbour.
//! struct Opportunistic;
//!
//! #[derive(Debug, Clone)]
//! struct Pkt(MessageInfo);
//!
//! impl Protocol for Opportunistic {
//!     type Packet = Pkt;
//!     fn on_message_created(&mut self, ctx: &mut Ctx<'_, Pkt>, info: MessageInfo) {
//!         if ctx.neighbors().iter().any(|e| e.id == info.dst) {
//!             let _ = ctx.send(info.dst, Pkt(info), info.size, PacketKind::Data);
//!         }
//!     }
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_, Pkt>, _from: NodeId, pkt: Pkt) {
//!         if pkt.0.dst == ctx.me() {
//!             ctx.deliver(pkt.0.id, 1);
//!         }
//!     }
//! }
//!
//! // Declarative cell: config + workload + medium. Swap the medium to
//! // re-run the identical experiment under an ideal or shadowing radio.
//! let cfg = SimConfig::paper(250.0, 42).with_duration(60.0);
//! let stats = Scenario::new("quickstart", cfg)
//!     .with_messages(20)
//!     .with_medium(MediumKind::Contention)
//!     .run(|_, _| Opportunistic);
//! assert_eq!(stats.messages_created(), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
#[cfg(test)]
mod equivalence;
mod event;
mod ids;
mod json;
pub mod medium;
pub mod neighbors;
pub mod queue;
pub mod report;
pub mod scenario;
pub mod sim;
pub mod space;
mod stats;
pub mod sweep;
mod time;
mod workload;
pub mod world;

pub use config::SimConfig;
pub use ids::{
    BuildIdHasher, IdHasher, MessageId, MessageInfo, MessageMap, MessageSet, NodeId, NodeMap,
};
pub use medium::{
    Frame, Medium, MediumKind, PacketKind, QueueFull, ShadowingParams, TxResolution,
    DUTY_SLEEP_DROP, SHADOWING_FADE_LOSS,
};
pub use neighbors::{NeighborEntry, NeighborTables, NeighborsView, TableFootprint};
pub use queue::TimedQueue;
pub use report::{CellReport, ReportSet, RunMetrics};
pub use scenario::{Scenario, WorkloadSpec};
pub use sim::{Ctx, Protocol, Simulation};
pub use space::SpatialIndex;
pub use stats::{summarize, MessageRecord, RunStats, Summary};
pub use sweep::{CellRuns, Sweep};
pub use time::SimTime;
pub use workload::{Workload, WorkloadMessage};
pub use world::World;
