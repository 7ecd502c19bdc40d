//! Intra-simulation one-shot channels.
//!
//! A [`oneshot`] carries *one payload between simulated entities at the same
//! instant* — it models shared memory inside one simulated component, not
//! the network. Network delays are imposed by whoever sends (sleeping for
//! the modelled transfer time before or after sending).

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// One-shot channel: a single value, sent once.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let state = Rc::new(RefCell::new(OneshotState {
        value: None,
        waker: None,
        closed: false,
    }));
    (
        OneshotSender {
            state: Rc::clone(&state),
        },
        OneshotReceiver { state },
    )
}

struct OneshotState<T> {
    value: Option<T>,
    waker: Option<Waker>,
    closed: bool,
}

/// Sending half of a [`oneshot`] channel.
pub struct OneshotSender<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

/// Receiving half of a [`oneshot`] channel: awaiting it yields the sent
/// value, or `None` once the sender is dropped without sending.
pub struct OneshotReceiver<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

impl<T> OneshotSender<T> {
    /// Deliver the value, waking the receiver.
    pub fn send(self, value: T) {
        let mut st = self.state.borrow_mut();
        st.value = Some(value);
        if let Some(w) = st.waker.take() {
            w.wake();
        }
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.closed = true;
        if let Some(w) = st.waker.take() {
            w.wake();
        }
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.value.take() {
            return Poll::Ready(Some(v));
        }
        if st.closed {
            return Poll::Ready(None);
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
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
    fn oneshot_roundtrip() {
        let mut sim = Sim::new(0);
        let (tx, rx) = oneshot::<&'static str>();
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(SimDuration::from_us(1)).await;
            tx.send("done");
        });
        let out = sim.spawn(async move { rx.await.unwrap() });
        sim.run();
        assert!(out.is_finished());
    }

    #[test]
    fn oneshot_dropped_sender_errors() {
        let mut sim = Sim::new(0);
        let (tx, rx) = oneshot::<u32>();
        drop(tx);
        let done = Rc::new(RefCell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            assert!(rx.await.is_none());
            *d.borrow_mut() = true;
        });
        sim.run();
        assert!(*done.borrow());
    }
}
