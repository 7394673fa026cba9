//! Mobility models for the GLR DTN simulator.
//!
//! The paper evaluates GLR under the **random waypoint** model (0–20 m/s
//! uniform, zero pause) in a 1500 m x 300 m strip. This crate provides that
//! model, [`RandomWaypoint`], which compiles each node's movement to a
//! piecewise-linear trajectory, and [`DeploymentArena`], the compact store
//! of a whole deployment's keyframes that the discrete-event simulator
//! samples at arbitrary times.
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
//! let arena = model.deployment(region, 50, 1200.0, &mut rng);
//! assert_eq!(arena.len(), 50);
//! // Sample node 0 halfway through the simulation:
//! let p = arena.position_at(0, 600.0);
//! assert!(region.contains(p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod models;
mod region;

pub use arena::DeploymentArena;
pub use models::{RandomWaypoint, SPEED_FLOOR};
pub use region::Region;
