//! Epidemic routing (Vahdat & Becker, 2000) on the GLR DTN simulator.
//!
//! The paper benchmarks GLR against epidemic routing: contact-triggered
//! summary-vector exchange, pull-based transfer, and FIFO buffer eviction
//! under storage limits. This crate implements exactly that as a
//! [`glr_sim::Protocol`].
//!
//! # Example
//!
//! ```
//! use glr_epidemic::Epidemic;
//! use glr_sim::{SimConfig, Simulation, Workload};
//!
//! let cfg = SimConfig::paper(250.0, 1).with_duration(60.0);
//! let stats = Simulation::new(cfg, Workload::paper_style(50, 10, 1000), Epidemic::new).run();
//! assert_eq!(stats.messages_created(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod protocol;

pub use buffer::{BufferedMessage, FifoBuffer};
pub use protocol::{Epidemic, EpidemicPacket};
