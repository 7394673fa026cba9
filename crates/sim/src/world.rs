//! Shared world state: clock, configuration, the interned trajectory
//! arena, spatial index, RNG and statistics.
//!
//! [`World`] is the slice of engine state that both the engine and the
//! pluggable [`crate::Medium`] need: a medium implementation receives
//! `&mut World` on every call and interacts with the world exclusively
//! through the methods here — proximity queries, the deterministic RNG,
//! the clock, and statistics reporting. Keeping all randomness behind
//! [`World::rng`] is what keeps a run a pure function of
//! `(config, workload, protocol, seed)` regardless of which medium is
//! plugged in.
//!
//! Node mobility lives in a [`DeploymentArena`]: every node's
//! piecewise-linear trajectory interned into one contiguous keyframe
//! buffer, so the `position_at` hot path (spatial-index candidate
//! filtering, medium range checks, grid rebuilds) walks flat memory
//! instead of chasing one heap allocation per node.

use crate::config::SimConfig;
use crate::ids::NodeId;
use crate::space::SpatialIndex;
use crate::stats::RunStats;
use crate::time::SimTime;
use glr_geometry::Point2;
use glr_mobility::{DeploymentArena, Trajectory};
use rand::rngs::StdRng;

/// The simulated world as seen by the engine and the radio medium.
#[derive(Debug)]
pub struct World {
    pub(crate) config: SimConfig,
    pub(crate) arena: DeploymentArena,
    pub(crate) now: SimTime,
    pub(crate) index: SpatialIndex,
    pub(crate) rng: StdRng,
    pub(crate) stats: RunStats,
}

impl World {
    pub(crate) fn new(config: SimConfig, trajectories: Vec<Trajectory>, rng: StdRng) -> Self {
        let arena = DeploymentArena::from_trajectories(&trajectories);
        let index = SpatialIndex::from_config(&config);
        let stats = RunStats::new(config.n_nodes);
        World {
            config,
            arena,
            now: SimTime::ZERO,
            index,
            rng,
            stats,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The interned trajectory arena backing all position queries.
    pub fn arena(&self) -> &DeploymentArena {
        &self.arena
    }

    /// Ground-truth position of `node` at the current time.
    pub fn pos(&self, node: NodeId) -> Point2 {
        self.pos_at(node, self.now)
    }

    /// Ground-truth position of `node` at an arbitrary time.
    pub fn pos_at(&self, node: NodeId, t: SimTime) -> Point2 {
        self.arena.position_at(node.index(), t.as_secs())
    }

    /// Nodes currently within `range` of `p`, excluding `except`, in
    /// ascending id order.
    pub fn nodes_within(&mut self, p: Point2, range: f64, except: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.nodes_within_into(p, range, except, &mut out);
        out
    }

    /// Like [`World::nodes_within`], but clears and fills a caller-owned
    /// buffer — the allocation-free form the engine's beacon loop uses.
    pub fn nodes_within_into(
        &mut self,
        p: Point2,
        range: f64,
        except: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        self.index.refresh(self.now, &self.arena);
        self.index
            .nodes_within_into(&self.arena, self.now, p, range, except, out);
    }

    /// Number of nodes within `range` of `p` (excluding `except`)
    /// satisfying `pred` — e.g. "is currently transmitting" for the
    /// carrier-sense and interference models.
    pub fn count_within(
        &mut self,
        p: Point2,
        range: f64,
        except: NodeId,
        pred: impl FnMut(NodeId) -> bool,
    ) -> usize {
        self.index.refresh(self.now, &self.arena);
        self.index
            .count_within(&self.arena, self.now, p, range, except, pred)
    }

    /// The run's deterministic random number generator. All medium and
    /// protocol randomness must flow from here.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Statistics collector for the run.
    pub fn stats(&mut self) -> &mut RunStats {
        &mut self.stats
    }
}
