//! Stress tests for the executor: many tasks, deep event storms, wide joins.

use std::cell::RefCell;
use std::rc::Rc;
use xtsim_des::{join_all, Sim, SimDuration};

#[test]
fn fifty_thousand_tasks_complete() {
    let mut sim = Sim::new(0);
    let done = Rc::new(RefCell::new(0u64));
    for i in 0..50_000u64 {
        let h = sim.handle();
        let done = Rc::clone(&done);
        sim.spawn(async move {
            h.sleep(SimDuration::from_ns(i % 977)).await;
            *done.borrow_mut() += 1;
        });
    }
    sim.run();
    assert_eq!(*done.borrow(), 50_000);
}

#[test]
fn deep_sequential_event_chain() {
    let mut sim = Sim::new(0);
    let h = sim.handle();
    sim.spawn(async move {
        for _ in 0..200_000u64 {
            h.sleep(SimDuration::from_ps(5)).await;
        }
        assert_eq!(h.now().as_ps(), 1_000_000);
    });
    sim.run();
}

#[test]
fn join_all_over_thousand_futures() {
    let mut sim = Sim::new(0);
    let h = sim.handle();
    sim.spawn(async move {
        let futs: Vec<_> = (0..1000u64)
            .map(|i| {
                let h = h.clone();
                async move {
                    h.sleep(SimDuration::from_ns(i)).await;
                    i
                }
            })
            .collect();
        let out = join_all(futs).await;
        assert_eq!(out.len(), 1000);
        assert_eq!(out[999], 999);
        assert_eq!(h.now().as_ps(), 999_000);
    });
    sim.run();
}

#[test]
fn nested_spawns_cascade() {
    // Each task spawns the next; depth 5000.
    fn spawn_chain(h: xtsim_des::SimHandle, depth: u32, counter: Rc<RefCell<u32>>) {
        let h2 = h.clone();
        h.spawn(async move {
            *counter.borrow_mut() += 1;
            if depth > 0 {
                h2.sleep(SimDuration::from_ns(1)).await;
                spawn_chain(h2.clone(), depth - 1, counter);
            }
        });
    }
    let mut sim = Sim::new(0);
    let counter = Rc::new(RefCell::new(0u32));
    spawn_chain(sim.handle(), 5000, Rc::clone(&counter));
    sim.run();
    assert_eq!(*counter.borrow(), 5001);
}
