#![forbid(unsafe_code)]
//! # xtsim-mpi — simulated MPI over the discrete-event platform
//!
//! Each MPI rank is an async task on the [`xtsim_des`] executor; sends and
//! receives resolve against the wire model of [`xtsim_net`]. Point-to-point
//! matching follows MPI semantics (source/tag with wildcards, arrival
//! order), the eager/rendezvous protocol switch follows the NIC's
//! threshold, and collectives are the real production algorithms (binomial
//! trees, recursive doubling, ring, pairwise exchange) — or, for very large
//! jobs, an analytic gate model that preserves data semantics.
//!
//! Entry point: [`simulate`] runs an SPMD closure on every rank:
//!
//! ```
//! use xtsim_mpi::{simulate, WorldConfig, ReduceOp};
//! use xtsim_net::PlatformConfig;
//! use xtsim_machine::{presets, ExecMode};
//!
//! let mut spec = presets::xt4();
//! spec.torus_dims = [2, 2, 1];
//! let cfg = WorldConfig::new(PlatformConfig::new(spec, ExecMode::SN, 4));
//! simulate(0, cfg, |mpi| async move {
//!     let sum = mpi.comm().allreduce(vec![1.0], ReduceOp::Sum).await;
//!     assert_eq!(sum, vec![4.0]);
//! });
//! ```

#![warn(missing_docs)]

mod comm;
mod gate;
mod message;
mod profile;
mod world;

pub use comm::Comm;
pub use message::{Message, ReduceOp};
pub use profile::{JobProfile, RankProfile};
pub use world::{
    simulate, simulate_profiled, CollectiveMode, Mpi, SimOutcome, Tag, World, WorldConfig,
};
