//! Mobility models for the GLR DTN simulator.
//!
//! The paper evaluates GLR under the **random waypoint** model (0–20 m/s
//! uniform, zero pause) in a 1500 m x 300 m strip. This crate provides that
//! model, [`RandomWaypoint`], compiled to piecewise-linear [`Trajectory`]
//! values the discrete-event simulator can sample at arbitrary times, and
//! [`DeploymentArena`], a compact store for a whole deployment's keyframes.
//!
//! # Example
//!
//! ```
//! use glr_mobility::{RandomWaypoint, Region};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let region = Region::PAPER_STRIP;
//! let model = RandomWaypoint::paper(region);
//! let mut rng = StdRng::seed_from_u64(42);
//! let trajectories = model.deployment(region, 50, 1200.0, &mut rng);
//! assert_eq!(trajectories.len(), 50);
//! // Sample node 0 halfway through the simulation:
//! let p = trajectories[0].position_at(600.0);
//! assert!(region.contains(p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod models;
mod region;
mod trajectory;

pub use arena::{DeploymentArena, TrajectoryRef};
pub use models::{RandomWaypoint, SPEED_FLOOR};
pub use region::Region;
pub use trajectory::Trajectory;
