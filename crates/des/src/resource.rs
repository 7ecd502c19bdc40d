//! FIFO service-station resources.
//!
//! A [`FifoStation`] models a component that serializes work: requests are
//! served in arrival order by `k` identical servers, each request occupying a
//! server for a caller-supplied service time. The SeaStar NIC in VN mode (one
//! engine shared by two cores), the Lustre metadata server, and disk
//! controllers are all modelled this way.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::executor::SimHandle;
use crate::time::{SimDuration, SimTime};

/// A `k`-server FIFO queueing station.
///
/// Because requests are admitted in the order `serve` is *called* (at
/// simulated arrival time) and a request starting later can never be
/// scheduled before one that arrived earlier, the earliest-free-server
/// bookkeeping below implements an exact FCFS `G/G/k` station without any
/// explicit waiter queue.
#[derive(Clone)]
pub struct FifoStation {
    handle: SimHandle,
    state: Rc<RefCell<StationState>>,
}

struct StationState {
    /// Free-at times, one entry per server (min-heap).
    free_at: BinaryHeap<Reverse<SimTime>>,
    busy_time: SimDuration,
}

impl FifoStation {
    /// Create a station with `servers` identical servers.
    pub fn new(handle: SimHandle, servers: usize) -> Self {
        // xtsim-lint: allow(panic-propagation, "construction-time validation; stations are built at platform setup, never mid-event")
        assert!(servers >= 1, "a station needs at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free_at.push(Reverse(SimTime::ZERO));
        }
        FifoStation {
            handle,
            state: Rc::new(RefCell::new(StationState {
                free_at,
                busy_time: SimDuration::ZERO,
            })),
        }
    }

    /// Enqueue a request needing `service` time; resolves when service completes.
    ///
    /// Returns the amount of time spent *waiting* (queueing delay), which
    /// callers can use for diagnostics.
    pub async fn serve(&self, service: SimDuration) -> SimDuration {
        let now = self.handle.now();
        let (end, waited) = {
            let mut st = self.state.borrow_mut();
            // The constructor guarantees >= 1 server and every pop is paired
            // with a push below, so an empty heap is unreachable; treating
            // it as free-now keeps this event-path helper infallible.
            let free = st.free_at.pop().map_or(SimTime::ZERO, |Reverse(t)| t);
            let start = free.max(now);
            let end = start + service;
            st.free_at.push(Reverse(end));
            st.busy_time += service;
            (end, start.duration_since(now))
        };
        self.handle.sleep_until(end).await;
        waited
    }

    /// Total service time dispensed so far (for utilization reporting).
    pub fn busy_time(&self) -> SimDuration {
        self.state.borrow().busy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn single_server_serializes() {
        let mut sim = Sim::new(0);
        let st = FifoStation::new(sim.handle(), 1);
        let ends = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u64 {
            let st = st.clone();
            let ends = Rc::clone(&ends);
            let h = sim.handle();
            sim.spawn(async move {
                h.sleep(SimDuration::from_ns(i)).await; // arrive in order 0,1,2
                st.serve(SimDuration::from_us(10)).await;
                ends.borrow_mut().push((i, h.now().as_ps()));
            });
        }
        sim.run();
        let ends = ends.borrow();
        // Request i ends at ~ (i+1)*10us (plus its sub-ns arrival stagger
        // absorbed by queueing).
        assert_eq!(ends[0], (0, 10_000_000));
        assert_eq!(ends[1], (1, 20_000_000));
        assert_eq!(ends[2], (2, 30_000_000));
    }

    #[test]
    fn two_servers_run_two_at_once() {
        let mut sim = Sim::new(0);
        let st = FifoStation::new(sim.handle(), 2);
        let ends = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u64 {
            let st = st.clone();
            let ends = Rc::clone(&ends);
            let h = sim.handle();
            sim.spawn(async move {
                st.serve(SimDuration::from_us(10)).await;
                ends.borrow_mut().push((i, h.now().as_ps()));
            });
        }
        sim.run();
        let ts: Vec<u64> = ends.borrow().iter().map(|&(_, t)| t).collect();
        assert_eq!(ts, vec![10_000_000, 10_000_000, 20_000_000, 20_000_000]);
    }

    #[test]
    fn idle_station_serves_immediately() {
        let mut sim = Sim::new(0);
        let st = FifoStation::new(sim.handle(), 1);
        let h = sim.handle();
        let st2 = st.clone();
        sim.spawn(async move {
            h.sleep(SimDuration::from_us(100)).await;
            let waited = st2.serve(SimDuration::from_us(1)).await;
            assert_eq!(waited, SimDuration::ZERO);
            assert_eq!(h.now().as_ps(), 101_000_000);
        });
        sim.run();
    }

    #[test]
    fn busy_time_accumulates() {
        let mut sim = Sim::new(0);
        let st = FifoStation::new(sim.handle(), 1);
        let st2 = st.clone();
        sim.spawn(async move {
            st2.serve(SimDuration::from_us(3)).await;
            st2.serve(SimDuration::from_us(4)).await;
        });
        sim.run();
        assert_eq!(st.busy_time(), SimDuration::from_us(7));
    }
}
