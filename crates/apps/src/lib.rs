#![forbid(unsafe_code)]
//! # xtsim-apps — petascale application proxies
//!
//! Proxy implementations of the five applications the paper benchmarks
//! (§6), each reproducing the phase structure and communication skeleton
//! the paper uses to explain its measurements:
//!
//! * [`cam`] — Community Atmosphere Model, FV dycore, D-grid (Figures 14–16);
//! * [`pop`] — Parallel Ocean Program, 0.1° benchmark (Figures 17–19);
//! * [`namd`] — NAMD biomolecular MD, 1M/3M-atom systems (Figures 20–21);
//! * [`s3d`] — S3D turbulent combustion DNS, weak scaling (Figure 22);
//! * [`aorsa`] — AORSA fusion full-wave solver, strong scaling (Figure 23);
//! * [`checkpoint`] — checkpoint I/O through the Lustre model (an extension:
//!   the paper excludes I/O from its application runs).

#![warn(missing_docs)]

pub mod aorsa;
pub mod cam;
pub mod checkpoint;
pub mod common;
pub mod namd;
pub mod pop;
pub mod s3d;
