//! Modeled collectives: synchronization gates with analytic timing.
//!
//! At very large rank counts (POP runs to 22,000 tasks) simulating every
//! message of every collective is wasteful: a single allreduce is
//! `O(p log p)` simulated messages. A [`Gate`] instead synchronizes all
//! participants — everyone waits until the last arrival plus an analytic
//! completion time — while still combining real payload data for
//! reductions/broadcasts, so program semantics are preserved.
//!
//! The analytic times deliberately reuse the same per-message cost estimate
//! as the wire model (including VN-mode NIC penalties), so modeled and
//! algorithmic collectives agree to first order; an integration test checks
//! that.

use std::cell::RefCell;
use xtsim_des::{Notify, SimDuration, SimHandle, SimTime};
use xtsim_net::Platform;

use crate::message::{Message, ReduceOp};

/// What a rank brings to the gate.
pub(crate) enum Contribution {
    /// Nothing (barrier, size-only collectives).
    None,
    /// Reduction operand.
    Reduce(Vec<f64>, ReduceOp),
    /// Broadcast payload (only the root passes `Some`).
    Bcast(Option<Message>),
    /// Allgather block: (commrank, message).
    Gather(usize, Message),
}

#[derive(Default)]
struct GateState {
    arrived: usize,
    max_arrival: SimTime,
    acc: Option<(Vec<f64>, ReduceOp)>,
    bcast: Option<Message>,
    gathered: Vec<Option<Message>>,
    release_at: SimTime,
}

/// A reusable rendezvous for one collective call on one communicator.
pub(crate) struct Gate {
    expected: usize,
    state: RefCell<GateState>,
    released: Notify,
}

/// What comes out of the gate after release.
pub(crate) enum GateOutput {
    /// Barrier-like: nothing.
    None,
    /// Combined reduction result.
    Reduced(Vec<f64>),
    /// Broadcast payload.
    Bcast(Message),
    /// All gathered blocks in comm-rank order.
    Gathered(Vec<Message>),
}

impl Gate {
    pub(crate) fn new(expected: usize) -> Gate {
        Gate {
            expected,
            state: RefCell::new(GateState::default()),
            released: Notify::new(),
        }
    }

    /// Arrive with a contribution; resolves at the modeled completion time.
    ///
    /// `duration` must be identical across participants (it is computed from
    /// collective parameters every rank agrees on).
    pub(crate) async fn arrive(
        &self,
        handle: &SimHandle,
        contribution: Contribution,
        duration: SimDuration,
    ) -> GateOutput {
        {
            let mut st = self.state.borrow_mut();
            st.arrived += 1;
            st.max_arrival = st.max_arrival.max(handle.now());
            match contribution {
                Contribution::None => {}
                Contribution::Reduce(data, op) => match &mut st.acc {
                    Some((acc, _)) => op.fold(acc, &data),
                    None => st.acc = Some((data, op)),
                },
                Contribution::Bcast(Some(msg)) => st.bcast = Some(msg),
                Contribution::Bcast(None) => {}
                Contribution::Gather(idx, msg) => {
                    if st.gathered.len() < self.expected {
                        st.gathered.resize(self.expected, None);
                    }
                    st.gathered[idx] = Some(msg);
                }
            }
            if st.arrived == self.expected {
                st.release_at = st.max_arrival + duration;
                drop(st);
                self.released.set();
            }
        }
        self.released.wait().await;
        let release_at = self.state.borrow().release_at;
        handle.sleep_until(release_at).await;
        let st = self.state.borrow();
        match (&st.acc, &st.bcast, st.gathered.is_empty()) {
            (Some((acc, _)), _, _) => GateOutput::Reduced(acc.clone()),
            (None, Some(msg), _) => GateOutput::Bcast(msg.clone()),
            (None, None, false) => GateOutput::Gathered(
                st.gathered
                    .iter()
                    .map(|m| m.clone().expect("every rank contributed"))
                    .collect(),
            ),
            _ => GateOutput::None,
        }
    }
}

/// Collective shapes priced by [`modeled_time`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum CollShape {
    Barrier,
    Bcast { bytes: u64 },
    Reduce { bytes: u64 },
    Allreduce { bytes: u64 },
    Allgather { bytes_per: u64 },
    Alltoall { bytes_per: u64 },
    Alltoallv { total_bytes: u64 },
}

/// Analytic completion time for a collective over `p` ranks.
///
/// Latency terms use the platform's per-message estimate (which includes VN
/// software penalties); an extra `ranks_per_node` factor models NIC
/// serialization when both cores participate. Bandwidth terms are bounded by
/// the injection port and, for all-to-all patterns, the torus bisection;
/// every NIC price comes from the platform's [`xtsim_machine::NicCost`].
pub(crate) fn modeled_time(platform: &Platform, p: usize, shape: CollShape) -> SimDuration {
    let nic = platform.nic_cost();
    let rpn = platform.spec().ranks_per_node(platform.mode()) as f64;
    let rounds = (p.max(2) as f64).log2().ceil();
    let t0 = platform.message_time_estimate(0).as_secs_f64() * rpn;
    let inj_dir = nic.injection_dir_bps() / rpn;
    let bis_bw = nic.links_bps(platform.torus().bisection_links());
    let secs = match shape {
        CollShape::Barrier => rounds * t0,
        // Tree latency plus a pipelined (scatter/allgather-style) bandwidth
        // term: production bcast/reduce implementations move ~2·bytes per
        // rank for large payloads rather than bytes per tree level.
        CollShape::Bcast { bytes } | CollShape::Reduce { bytes } => {
            rounds * t0 + 2.0 * bytes as f64 / inj_dir
        }
        CollShape::Allreduce { bytes } => {
            // Recursive doubling latency + Rabenseifner bandwidth term.
            // Cray's MPI_Allreduce was specifically optimized for VN mode
            // ("eliminating much of the contention between the processor
            // cores ... reflected in the data here", §6.2): it pays only a
            // 20% VN surcharge instead of full NIC serialization.
            let t0_ar = t0 / rpn * (1.0 + 0.2 * (rpn - 1.0));
            rounds * t0_ar + 2.0 * bytes as f64 / inj_dir
        }
        CollShape::Allgather { bytes_per } => {
            let lat = rounds * t0;
            let bw = (p.saturating_sub(1)) as f64 * bytes_per as f64 / inj_dir;
            lat + bw
        }
        CollShape::Alltoall { bytes_per } => {
            let pairwise =
                (p.saturating_sub(1)) as f64 * (t0 + bytes_per as f64 / inj_dir);
            let total = (p as f64) * (p as f64) * bytes_per as f64;
            let bisection = 0.5 * total / bis_bw;
            pairwise.max(bisection)
        }
        CollShape::Alltoallv { total_bytes } => {
            let per_rank = total_bytes as f64 / p as f64;
            let pairwise = (p.saturating_sub(1)) as f64 * t0 + per_rank / inj_dir;
            let bisection = 0.5 * total_bytes as f64 / bis_bw;
            pairwise.max(bisection)
        }
    };
    SimDuration::from_secs_f64(secs)
}
