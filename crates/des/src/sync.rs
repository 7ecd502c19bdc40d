//! Synchronization primitives for simulated entities.
//!
//! All primitives are single-threaded (the executor never runs two tasks at
//! once); they exist to express *ordering* between simulated tasks, not to
//! protect data from races.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A level-triggered notification flag: once [`Notify::set`] is called, all
/// current and future waiters proceed immediately.
#[derive(Clone, Default)]
pub struct Notify {
    state: Rc<RefCell<NotifyState>>,
}

#[derive(Default)]
struct NotifyState {
    set: bool,
    wakers: Vec<Waker>,
}

impl Notify {
    /// New unset flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the flag and wake all waiters.
    pub fn set(&self) {
        let mut st = self.state.borrow_mut();
        st.set = true;
        for w in st.wakers.drain(..) {
            w.wake();
        }
    }

    /// Wait until the flag is set.
    pub fn wait(&self) -> NotifyWait {
        NotifyWait {
            state: Rc::clone(&self.state),
        }
    }
}

/// Future returned by [`Notify::wait`].
pub struct NotifyWait {
    state: Rc<RefCell<NotifyState>>,
}

impl Future for NotifyWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.state.borrow_mut();
        if st.set {
            Poll::Ready(())
        } else {
            st.wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// An N-party barrier: [`SimBarrier::wait`] resolves once all `n`
/// participants have arrived. Reusable across rounds.
#[derive(Clone)]
pub struct SimBarrier {
    state: Rc<RefCell<BarrierState>>,
}

struct BarrierState {
    n: usize,
    arrived: usize,
    generation: u64,
    wakers: Vec<Waker>,
}

impl SimBarrier {
    /// Barrier for `n` participants (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        SimBarrier {
            state: Rc::new(RefCell::new(BarrierState {
                n,
                arrived: 0,
                generation: 0,
                wakers: Vec::new(),
            })),
        }
    }

    /// Wait for all parties. Returns `true` for exactly one "leader" per round.
    pub async fn wait(&self) -> bool {
        let (gen, leader) = {
            let mut st = self.state.borrow_mut();
            st.arrived += 1;
            if st.arrived == st.n {
                st.arrived = 0;
                st.generation += 1;
                for w in st.wakers.drain(..) {
                    w.wake();
                }
                return true;
            }
            (st.generation, false)
        };
        BarrierWait {
            state: Rc::clone(&self.state),
            gen,
        }
        .await;
        leader
    }
}

struct BarrierWait {
    state: Rc<RefCell<BarrierState>>,
    gen: u64,
}

impl Future for BarrierWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.state.borrow_mut();
        if st.generation != self.gen {
            Poll::Ready(())
        } else {
            st.wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn notify_wakes_waiters() {
        let mut sim = Sim::new(0);
        let n = Notify::new();
        let hit = Rc::new(RefCell::new(0));
        for _ in 0..3 {
            let n = n.clone();
            let hit = Rc::clone(&hit);
            sim.spawn(async move {
                n.wait().await;
                *hit.borrow_mut() += 1;
            });
        }
        let h = sim.handle();
        let n2 = n.clone();
        sim.spawn(async move {
            h.sleep(SimDuration::from_us(1)).await;
            n2.set();
        });
        sim.run();
        assert_eq!(*hit.borrow(), 3);
    }

    #[test]
    fn notify_after_set_is_immediate() {
        let mut sim = Sim::new(0);
        let n = Notify::new();
        n.set();
        let done = Rc::new(RefCell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            n.wait().await;
            *d.borrow_mut() = true;
        });
        sim.run();
        assert!(*done.borrow());
    }

    #[test]
    fn barrier_releases_together_and_reuses() {
        let mut sim = Sim::new(0);
        let bar = SimBarrier::new(3);
        let times = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u64 {
            let bar = bar.clone();
            let times = Rc::clone(&times);
            let h = sim.handle();
            sim.spawn(async move {
                for round in 0..2u64 {
                    h.sleep(SimDuration::from_us(i + 1)).await;
                    bar.wait().await;
                    times.borrow_mut().push((round, h.now().as_ps()));
                }
            });
        }
        sim.run();
        let times = times.borrow();
        // Within each round, all three release at the same instant.
        for round in 0..2u64 {
            let ts: Vec<u64> = times
                .iter()
                .filter(|(r, _)| *r == round)
                .map(|(_, t)| *t)
                .collect();
            assert_eq!(ts.len(), 3);
            assert!(ts.iter().all(|t| *t == ts[0]), "round {round}: {ts:?}");
        }
    }
}
