#![forbid(unsafe_code)]
//! # xtsim-serve — long-running sweep service over the cached figure engine
//!
//! Turns the one-shot `figures` CLI into the "heavy traffic" architecture:
//! many concurrent clients submitting scenario requests against one shared
//! content-addressed result cache. Dependency-free by construction — the
//! HTTP layer is hand-rolled on `std::net` in the spirit of the offline
//! compat shims.
//!
//! Layer map:
//!
//! * [`http`] — minimal HTTP/1.1 request/response parsing;
//! * [`queue`] — bounded run queue, admission control (429 when full), and
//!   a fixed worker pool capping concurrent figure runs;
//! * [`registry`] — append-only JSONL run registry (`results/registry/`),
//!   one self-describing record per completed run;
//! * [`dashboard`] — static HTML/inline-SVG dashboard from registry
//!   history and committed `BENCH_*.json` records;
//! * [`server`] — route dispatch tying it all together, the accept pool
//!   that answers connections on reused threads, and the production
//!   executor whose results are byte-identical to the `figures` CLI
//!   artifacts.

#![warn(missing_docs)]

pub mod dashboard;
pub mod http;
pub mod queue;
pub mod registry;
pub mod server;
