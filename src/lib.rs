//! **GLR** — a full reproduction of *"A Geometric Routing Protocol in
//! Disruption Tolerant Network"* (Du, Kranakis, Nayak; ICDCS 2009) as a
//! Rust workspace.
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`geometry`] — robust predicates, Delaunay triangulation, unit-disk
//!   graphs, the k-local Delaunay triangulation spanner, face routing and
//!   DSTD tree extraction;
//! * [`mobility`] — random waypoint (the paper's motion model), random
//!   walk and stationary trajectories;
//! * [`sim`] — the deterministic discrete-event DTN simulator (the NS-2
//!   substitute): pluggable radio media (contention / ideal / shadowing),
//!   beacon-based neighbour sensing, workloads and statistics, plus the
//!   declarative scenario layer and the sharded parameter-sweep engine
//!   with mergeable JSON reports;
//! * [`epidemic`] — the epidemic-routing baseline (Vahdat & Becker);
//! * [`core`] — the GLR protocol itself: controlled flooding over DSTD
//!   trees, custody transfer, location diffusion, face-routing recovery.
//!
//! # Quick start
//!
//! ```
//! use glr::core::Glr;
//! use glr::sim::{SimConfig, Simulation, Workload};
//!
//! // Table 1 setup at 250 m radio range, shortened to 60 s.
//! let cfg = SimConfig::paper(250.0, 1).with_duration(60.0);
//! let workload = Workload::paper_style(50, 20, 1000);
//! let stats = Simulation::new(cfg, workload, Glr::new).run();
//! assert_eq!(stats.messages_created(), 20);
//! println!(
//!     "delivered {:.0}% at {:.1}s mean latency",
//!     stats.delivery_ratio() * 100.0,
//!     stats.avg_latency().unwrap_or(0.0),
//! );
//! ```
//!
//! See the `examples/` directory for richer scenarios and
//! `crates/bench/src/bin/experiments.rs` for the harness regenerating
//! every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The GLR protocol (the paper's contribution). Re-export of [`glr_core`].
pub mod core {
    pub use glr_core::*;
}

/// Computational geometry substrate. Re-export of [`glr_geometry`].
pub mod geometry {
    pub use glr_geometry::*;
}

/// Mobility models. Re-export of [`glr_mobility`].
pub mod mobility {
    pub use glr_mobility::*;
}

/// Discrete-event DTN simulator. Re-export of [`glr_sim`].
pub mod sim {
    pub use glr_sim::*;
}

/// Epidemic routing baseline. Re-export of [`glr_epidemic`].
pub mod epidemic {
    pub use glr_epidemic::*;
}
