#![forbid(unsafe_code)]
//! # xtsim-net — SeaStar-style interconnect and node simulation
//!
//! Builds the simulated Cray XT platform: a 3-D torus with dimension-ordered
//! routing ([`Torus3D`]), per-node NIC stations (serialized in VN mode),
//! injection/ejection ports, and per-socket memory controllers. Exposes the
//! two primitive operations — [`Platform::compute`] and
//! [`Platform::transmit`] — that `xtsim-mpi` builds MPI semantics on.

#![warn(missing_docs)]

mod platform;
pub mod torus;

pub use platform::{ContentionModel, Placement, Platform, PlatformConfig, Rank, TrafficStats};
pub use torus::{Direction, NodeId, Torus3D, TorusLink};
