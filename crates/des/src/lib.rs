//! # xtsim-des — deterministic discrete-event simulation engine
//!
//! The foundation of the Cray XT4 evaluation reproduction: a single-threaded
//! async executor driven by a virtual clock, plus the shared-resource models
//! every higher layer builds on.
//!
//! * [`Sim`] / [`SimHandle`] — event heap, task executor, timers, spawning,
//!   deterministic RNG streams.
//! * [`oneshot`] — a single value handed between simulated tasks.
//! * [`FifoStation`] — `k`-server FCFS queueing station (NICs, metadata
//!   servers, disks).
//! * [`FluidPool`] — max-min fair bandwidth sharing over capacitated links
//!   (torus links, memory controllers, injection ports).
//! * [`trace`] — typed span capture for per-job simulated-time breakdowns.
//!
//! ## Example
//!
//! ```
//! use xtsim_des::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(0);
//! let h = sim.handle();
//! sim.spawn(async move {
//!     h.sleep(SimDuration::from_us(3)).await;
//! });
//! let end = sim.run();
//! assert_eq!(end.as_ps(), 3_000_000);
//! ```

#![warn(missing_docs)]

mod channel;
mod combinators;
mod executor;
mod fluid;
mod resource;
mod sync;
mod time;
pub mod trace;

pub use channel::{oneshot, OneshotReceiver, OneshotSender};
pub use combinators::{join2, join_all, Join2, JoinAll};
pub use executor::{JoinHandle, Sim, SimHandle, Sleep};
pub use fluid::{FluidPool, LinkId, RebalanceStats, Transfer};
pub use resource::FifoStation;
pub use sync::{Notify, SimBarrier};
pub use trace::{Span, SpanCategory, TraceData, TraceSummary};
pub use time::{SimDuration, SimTime, PS_PER_SEC};
