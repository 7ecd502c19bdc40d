#![forbid(unsafe_code)]
//! # xtsim-machine — Cray XT3/XT4-era machine models
//!
//! Parametric descriptions of the systems evaluated in the paper (Cray XT3,
//! XT3 dual-core, XT4, and the comparison platforms of Figures 15/18), plus
//! the roofline work-pricing model that converts kernel operation counts
//! into simulated time, and the NIC price list ([`NicCost`]) every message
//! cost is read from.
//!
//! The presets are calibrated to the paper's published *single-rank*
//! micro-benchmark values; all multi-rank behaviour (contention, scaling,
//! SN-vs-VN effects) is produced by the simulator layers built on top.
//!
//! ```
//! use xtsim_machine::{presets, ExecMode};
//!
//! let xt4 = presets::xt4();
//! assert_eq!(xt4.ranks_per_node(ExecMode::VN), 2);
//! println!("{}", xtsim_machine::table::system_comparison(&[&xt4]));
//! ```

#![warn(missing_docs)]

pub mod balance;
pub mod fingerprint;
mod nic;
pub mod presets;
mod roofline;
mod spec;
pub mod table;

pub use nic::NicCost;
pub use roofline::WorkPacket;
pub use spec::{
    fit_dims, AppPerfSpec, ExecMode, MachineSpec, MemorySpec, NicSpec, ProcessorSpec, VectorSpec,
};
