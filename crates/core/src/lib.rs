//! **GLR — Geometric Localized Routing for Disruption Tolerant Networks.**
//!
//! This crate is the primary contribution of *"A Geometric Routing
//! Protocol in Disruption Tolerant Network"* (Du, Kranakis, Nayak; ICDCS
//! 2009), implemented as a [`glr_sim::Protocol`]:
//!
//! * **Algorithm 1 — delay-tolerant decision making** ([`CopyPolicy`]):
//!   sources pick 1 copy in probably-connected networks and 3 (or more) in
//!   sparse ones, using the Georgiou et al. connectivity bound.
//! * **Algorithm 2 — geometric routing with controlled flooding**
//!   ([`Glr`]): each copy follows a Max/Min/Mid source-to-destination tree
//!   (re-derived hop by hop on the node-local Delaunay spanner), stores
//!   when no progress is possible, and re-checks every `check_interval`.
//! * **Custody transfer** ([`MessageStore`]): Store/Cache areas, per-hop
//!   acknowledgements, timeout-driven rescheduling; Cache entries are
//!   dropped first under storage pressure.
//! * **Location diffusion** ([`LocationTable`]): timestamped last-known
//!   locations, packet-carried destination estimates, fresher-wins merging
//!   and piggy-backed corrections on custody acks.
//! * **Face-routing recovery** and **stale-location perturbation** for
//!   local minima and runaway destinations.
//!
//! # Quick start
//!
//! ```
//! use glr_core::Glr;
//! use glr_sim::{MediumKind, Scenario, SimConfig};
//!
//! // Table 1 configuration at 250 m, 60 simulated seconds, as a
//! // declarative scenario. Swap [`MediumKind`] to re-run the identical
//! // experiment under an ideal or log-distance-shadowing radio, or hand
//! // a `Vec<Scenario>` grid to `glr_sim::Sweep` for a multi-threaded
//! // (and shardable) parameter sweep.
//! let cfg = SimConfig::paper(250.0, 1).with_duration(60.0);
//! let stats = Scenario::new("quickstart", cfg)
//!     .with_messages(20)
//!     .with_medium(MediumKind::Contention)
//!     .run(Glr::new);
//! println!("delivered {:.0}%", stats.delivery_ratio() * 100.0);
//! ```
//!
//! GLR runs unchanged at 10k+ nodes: `SimConfig::paper_scaled` (or the
//! `Scenario::large_n_tier` preset) keeps the paper's node density while
//! the engine's grid spatial index (`glr_sim::SpatialIndex`) and
//! shared-snapshot neighbour tables (`glr_sim::NeighborTables`) keep the
//! beacon path near O(1) per reception.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod decision;
mod location;
mod packet;
mod protocol;
mod spanner;
mod storage;

pub use config::{GlrConfig, LocationMode};
pub use decision::CopyPolicy;
pub use location::{LocationEstimate, LocationTable};
pub use packet::{DataPacket, GlrPacket, ACK_BYTES, DATA_HEADER_BYTES};
pub use protocol::Glr;
pub use spanner::{
    face_next_hop, first_ccw_from_direction, spanner_neighbors, SpannerMode, SpannerScratch,
};
pub use storage::{CacheEntry, FaceState, MessageStore, PushOutcome, RouteVerdict, StoredMessage};
