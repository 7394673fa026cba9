//! Shared world state: clock, configuration, the interned trajectory
//! arena, spatial index, RNG and statistics.
//!
//! [`World`] is the slice of engine state that both the engine and the
//! pluggable [`crate::Medium`] need: a medium implementation receives
//! `&mut World` on every call and interacts with the world exclusively
//! through the methods here — node positions, the deterministic RNG,
//! the clock, and statistics reporting. Keeping all randomness behind
//! [`World::rng`] is what keeps a run a pure function of
//! `(config, workload, protocol, seed)` regardless of which medium is
//! plugged in. The spatial index is the engine's own: it serves the
//! beacon fan-out and is not part of the medium's interface.
//!
//! Node mobility lives in a [`DeploymentArena`]: every node's
//! piecewise-linear trajectory interned into one contiguous keyframe
//! buffer, so the `position_at` hot path (spatial-index candidate
//! filtering, medium range and interference checks, grid rebuilds) walks
//! flat memory instead of chasing one heap allocation per node.

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

    /// Ground-truth position of `node` at the current time.
    pub fn pos(&self, node: NodeId) -> Point2 {
        self.pos_at(node, self.now)
    }

    /// Ground-truth position of `node` at an arbitrary time.
    pub fn pos_at(&self, node: NodeId, t: SimTime) -> Point2 {
        self.arena.position_at(node.index(), t.as_secs())
    }

    /// Calls `f` for every node currently within `range` of `p`, excluding
    /// `except`, in the spatial index's visit order rather than id order —
    /// the engine's beacon fan-out.
    pub(crate) fn for_each_within(
        &mut self,
        p: Point2,
        range: f64,
        except: NodeId,
        f: impl FnMut(NodeId),
    ) {
        self.index.refresh(self.now, &self.arena);
        self.index
            .for_each_within(&self.arena, self.now, p, range, except, f);
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
