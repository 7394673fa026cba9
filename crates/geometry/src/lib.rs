//! Computational-geometry substrate for the GLR routing stack.
//!
//! This crate implements every geometric ingredient of *"A Geometric
//! Routing Protocol in Disruption Tolerant Network"* (Du, Kranakis, Nayak;
//! ICDCS 2009):
//!
//! * robust [`orient2d`]/[`incircle`] predicates (filtered double-double),
//! * Bowyer–Watson Delaunay [`Triangulation`], and [`delaunay_star`] for
//!   the Delaunay neighbours of a single point without the rest,
//! * [`unit_disk_graph`] connectivity and the Georgiou et al.
//!   [`connectivity_probability`] behind GLR's copy-count decision,
//! * the **k-local Delaunay triangulation graph** ([`k_ldtg`] and its
//!   node-local counterpart [`ldtg_local_neighbors`]) — the paper's planar
//!   routing spanner, with [`is_plane_drawing`] to check planarity,
//! * DSTD tree extraction ([`dstd_next_hop`], [`DstdKind`]) for controlled
//!   flooding,
//! * spanner [`euclidean_stretch`] metrics for the ablation studies.
//!
//! GLR's online local-minimum recovery (face routing on a node's local
//! spanner, one hop at a time) lives in `glr_core::spanner`, next to the
//! protocol that runs it.
//!
//! # Quick example
//!
//! ```
//! use glr_geometry::{dstd_next_hop, k_ldtg, DstdKind, Point2};
//!
//! // A toy deployment.
//! let pts = vec![
//!     Point2::new(0.0, 0.0),
//!     Point2::new(70.0, 10.0),
//!     Point2::new(60.0, -40.0),
//!     Point2::new(140.0, 0.0),
//! ];
//! let spanner = k_ldtg(&pts, 100.0, 2);
//!
//! // Node 0 forwards a message towards node 3 along the Max tree.
//! let nbrs: Vec<(usize, Point2)> = spanner
//!     .neighbors(0)
//!     .iter()
//!     .map(|&v| (v, pts[v]))
//!     .collect();
//! let next = dstd_next_hop(pts[0], pts[3], &nbrs, DstdKind::Max);
//! assert!(next.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delaunay;
mod graph;
mod grid;
#[cfg(test)]
mod hull;
mod ldt;
mod point;
mod predicates;
mod spanner;
mod trees;
mod udg;

pub use delaunay::{delaunay_star, Triangulation};
pub use graph::{is_plane_drawing, Graph};
pub use grid::{bounding_box, Grid};
pub use ldt::{k_ldtg, ldtg_local_neighbors};
pub use point::Point2;
pub use predicates::{
    incircle, incircle_filtered, orient2d, orient2d_filtered, segments_cross, Sign,
};
pub use spanner::{euclidean_stretch, StretchReport};
pub use trees::{dstd_next_hop, extract_dstd_path, DstdKind};
pub use udg::{connectivity_probability, unit_disk_graph};
