//! Minimal future combinators for single-threaded simulation code.
//!
//! The simulation deliberately avoids an external futures dependency; these
//! are the only combinators the higher layers need: joining concurrent
//! activities (compute overlapping communication).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Await two futures concurrently; resolves when both are done.
pub fn join2<A, B>(a: A, b: B) -> Join2<A, B>
where
    A: Future,
    B: Future,
{
    Join2 {
        a: MaybeDone::Pending(a),
        b: MaybeDone::Pending(b),
    }
}

enum MaybeDone<F: Future> {
    Pending(F),
    Done(Option<F::Output>),
}

impl<F: Future> MaybeDone<F> {
    /// Polls the inner future if still pending; true when complete.
    fn poll_done(self: Pin<&mut Self>, cx: &mut Context<'_>) -> bool {
        // SAFETY: we never move the inner future out while pending; the
        // transition writes through the pinned mutable reference only after
        // the future has completed (and is dropped in place).
        unsafe {
            let this = self.get_unchecked_mut();
            match this {
                MaybeDone::Pending(f) => match Pin::new_unchecked(f).poll(cx) {
                    Poll::Ready(v) => {
                        *this = MaybeDone::Done(Some(v));
                        true
                    }
                    Poll::Pending => false,
                },
                MaybeDone::Done(_) => true,
            }
        }
    }

    fn take(self: Pin<&mut Self>) -> F::Output {
        // SAFETY: only the completed output is moved out; in the `Done` state
        // no pinned future remains, and the `Pending` arm never touches it.
        unsafe {
            let this = self.get_unchecked_mut();
            match this {
                MaybeDone::Done(v) => v.take().expect("output already taken"),
                MaybeDone::Pending(_) => panic!("future not complete"),
            }
        }
    }
}

/// Future returned by [`join2`].
pub struct Join2<A: Future, B: Future> {
    a: MaybeDone<A>,
    b: MaybeDone<B>,
}

impl<A: Future, B: Future> Future for Join2<A, B> {
    type Output = (A::Output, B::Output);
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: standard pin projection; fields are never moved.
        let (a_done, b_done) = unsafe {
            let this = self.as_mut().get_unchecked_mut();
            (
                Pin::new_unchecked(&mut this.a).poll_done(cx),
                Pin::new_unchecked(&mut this.b).poll_done(cx),
            )
        };
        if a_done && b_done {
            // SAFETY: same pin projection as above; both slots are `Done`, so
            // `take` moves only the outputs, never a pinned future.
            unsafe {
                let this = self.get_unchecked_mut();
                Poll::Ready((
                    Pin::new_unchecked(&mut this.a).take(),
                    Pin::new_unchecked(&mut this.b).take(),
                ))
            }
        } else {
            Poll::Pending
        }
    }
}

/// Await a homogeneous collection of futures; resolves to their outputs in
/// input order once all are done.
pub fn join_all<F: Future>(futures: impl IntoIterator<Item = F>) -> JoinAll<F> {
    JoinAll {
        entries: futures
            .into_iter()
            .map(|f| MaybeDone::Pending(f))
            .map(Box::pin)
            .collect(),
    }
}

/// Future returned by [`join_all`].
pub struct JoinAll<F: Future> {
    entries: Vec<Pin<Box<MaybeDone<F>>>>,
}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut all_done = true;
        for entry in &mut self.entries {
            if !entry.as_mut().poll_done(cx) {
                all_done = false;
            }
        }
        if all_done {
            let outs = self
                .entries
                .iter_mut()
                .map(|e| e.as_mut().take())
                .collect();
            Poll::Ready(outs)
        } else {
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
    fn join2_waits_for_slowest() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let end = Rc::new(RefCell::new(0u64));
        let e = Rc::clone(&end);
        sim.spawn(async move {
            let a = h.sleep(SimDuration::from_us(3));
            let b = h.sleep(SimDuration::from_us(7));
            join2(a, b).await;
            *e.borrow_mut() = h.now().as_ps();
        });
        sim.run();
        assert_eq!(*end.borrow(), 7_000_000);
    }

    #[test]
    fn join_all_collects_in_order() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&out);
        sim.spawn(async move {
            let futs: Vec<_> = (0..4u64)
                .map(|i| {
                    let h = h.clone();
                    async move {
                        h.sleep(SimDuration::from_us(10 - i)).await;
                        i
                    }
                })
                .collect();
            *o.borrow_mut() = join_all(futs).await;
        });
        sim.run();
        assert_eq!(*out.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn join_all_empty_is_immediate() {
        let mut sim = Sim::new(0);
        sim.spawn(async move {
            let outs: Vec<u32> = join_all(Vec::<std::future::Ready<u32>>::new()).await;
            assert!(outs.is_empty());
        });
        sim.run();
    }
}
