//! Pins the fluid pool's completion schedule to the picosecond on a seeded
//! workload that exercises every rebalancer path: multi-link routes,
//! disjoint components, rate caps, lock-step bursts that start and finish
//! at one instant, and transfers dropped mid-flight.
//!
//! The flows outside a rebalanced component still have their volume
//! advanced and their finish instant re-rounded, and that replay is what
//! fixes the picosecond each flow ends at. The digest below moves if the
//! replay drops or repeats an advance, or if the order of same-instant
//! completions changes.

use std::cell::RefCell;
use std::rc::Rc;
use xtsim_des::{join2, FluidPool, LinkId, Sim, SimDuration};

/// SplitMix64, so the workload does not depend on an RNG crate's stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Disjoint link groups: a route never leaves its group, so each group is
/// its own set of components and a rebalance in one leaves the others to
/// the pool-wide advance.
const GROUPS: usize = 4;
const GROUP_LINKS: usize = 24;
/// Links of the lock-step group, one flow each.
const LOCKSTEP_LINKS: usize = 16;
const LOCKSTEP_ROUNDS: usize = 10;
const BACKGROUND_FLOWS: usize = 32;
const BURSTS: usize = 60;
const BURST_FLOWS: usize = 32;

struct Plan {
    start_us: u64,
    route: Vec<LinkId>,
    volume: f64,
    cap: Option<f64>,
    /// Drop the transfer this long after it starts instead of awaiting it.
    drop_after_us: Option<u64>,
}

/// Completion log: `(flow id, instant in ps)` in completion order.
type Log = Rc<RefCell<Vec<(u32, u64)>>>;

fn spawn_flow(sim: &mut Sim, pool: &FluidPool, log: &Log, id: u32, plan: Plan) {
    let (pool, log, h) = (pool.clone(), Rc::clone(log), sim.handle());
    sim.spawn(async move {
        h.sleep(SimDuration::from_us(plan.start_us)).await;
        let transfer = pool.transfer(&plan.route, plan.volume, plan.cap);
        match plan.drop_after_us {
            Some(us) => {
                h.sleep(SimDuration::from_us(us)).await;
                drop(transfer);
            }
            None => {
                transfer.await;
                log.borrow_mut().push((id, h.now().as_ps()));
            }
        }
    });
}

/// One lock-step task per link, all links equal: every round starts and
/// finishes all of them at one instant (POP's and CAM's shape).
fn spawn_lockstep(sim: &mut Sim, pool: &FluidPool, log: &Log, first_id: u32, links: &[LinkId]) {
    for (i, &link) in links.iter().enumerate() {
        let (pool, log, h) = (pool.clone(), Rc::clone(log), sim.handle());
        let id = first_id + (i * LOCKSTEP_ROUNDS) as u32;
        sim.spawn(async move {
            for round in 0..LOCKSTEP_ROUNDS {
                pool.transfer(&[link], 1.0e5, None).await;
                log.borrow_mut().push((id + round as u32, h.now().as_ps()));
            }
        });
    }
}

struct Outcome {
    flows: usize,
    completed: usize,
    digest: u64,
}

fn replay_workload(seed: u64) -> Outcome {
    let mut rng = SplitMix(seed);
    let mut sim = Sim::new(seed);
    let pool = FluidPool::new(sim.handle());
    let groups: Vec<Vec<LinkId>> = (0..GROUPS)
        .map(|_| {
            (0..GROUP_LINKS)
                .map(|_| pool.add_link(1.0e9 * (1 + rng.below(4)) as f64))
                .collect()
        })
        .collect();
    let lockstep: Vec<LinkId> = (0..LOCKSTEP_LINKS).map(|_| pool.add_link(2.0e9)).collect();
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let route_in = |rng: &mut SplitMix, group: usize, max_len: u64| {
        let mut route: Vec<LinkId> = Vec::new();
        for _ in 0..1 + rng.below(max_len) {
            let link = groups[group][rng.below(GROUP_LINKS as u64) as usize];
            if !route.contains(&link) {
                route.push(link);
            }
        }
        route
    };
    let mut id = 0u32;
    // Long-lived flows that most rebalances leave to the pool-wide advance.
    for _ in 0..BACKGROUND_FLOWS {
        let group = rng.below(GROUPS as u64) as usize;
        let plan = Plan {
            start_us: rng.below(50),
            route: route_in(&mut rng, group, 2),
            volume: rng.range(2.0e6, 4.0e6),
            cap: None,
            drop_after_us: None,
        };
        spawn_flow(&mut sim, &pool, &log, id, plan);
        id += 1;
    }
    // Bursts: two per instant, each in one group; every fourth flow repeats
    // its predecessor, so the pair starts and finishes together.
    for burst in 0..BURSTS {
        let start_us = (burst / 2) as u64 * 25;
        let group = rng.below(GROUPS as u64) as usize;
        let mut prev: Option<(Vec<LinkId>, f64, Option<f64>)> = None;
        for k in 0..BURST_FLOWS {
            let (route, volume, cap) = match prev.take() {
                Some(p) if k % 4 == 3 => p,
                _ => {
                    let cap = (rng.below(3) == 0).then(|| rng.range(2.0e8, 1.0e9));
                    (route_in(&mut rng, group, 3), rng.range(1.0e4, 2.0e5), cap)
                }
            };
            prev = Some((route.clone(), volume, cap));
            let drop_after_us = (rng.below(10) == 0).then(|| rng.below(100));
            let plan = Plan {
                start_us,
                route,
                volume,
                cap,
                drop_after_us,
            };
            spawn_flow(&mut sim, &pool, &log, id, plan);
            id += 1;
        }
    }
    spawn_lockstep(&mut sim, &pool, &log, id, &lockstep);
    let flows = id as usize + LOCKSTEP_LINKS * LOCKSTEP_ROUNDS;
    sim.run();
    assert_eq!(pool.active_flows(), 0);
    let log = log.borrow();
    let digest = log.iter().fold(FNV_OFFSET, |h, &(id, ps)| {
        fnv1a(fnv1a(h, &id.to_le_bytes()), &ps.to_le_bytes())
    });
    Outcome {
        flows,
        completed: log.len(),
        digest,
    }
}

#[test]
fn completion_schedule_is_pinned_to_the_picosecond() {
    let out = replay_workload(2026);
    assert_eq!(out.flows, 2_112, "flows started");
    assert_eq!(out.completed, 1_921, "flows completed, not dropped");
    assert_eq!(
        out.digest, 8_566_898_772_870_535_914,
        "digest of (flow, completion ps)"
    );
}

#[test]
fn second_rebalance_at_an_instant_sweeps_nothing() {
    let mut sim = Sim::new(0);
    let pool = FluidPool::new(sim.handle());
    let (a, b) = (pool.add_link(1.0e9), pool.add_link(1.0e9));
    let h = sim.handle();
    let p = pool.clone();
    sim.spawn(async move {
        let long = p.transfer(&[a], 1.0e9, None);
        h.sleep(SimDuration::from_ms(1)).await;
        // The first rebalance at 1 ms advances `long`, which is outside its
        // component, and visits both live flows.
        let first = p.transfer(&[b], 1.0e6, None);
        let after_first = p.rebalance_stats();
        assert_eq!((after_first.sweeps, after_first.swept_flows), (1, 2));
        // Every live flow is stamped 1 ms now: a second rebalance at the
        // same instant has nothing to replay.
        let second = p.transfer(&[b], 1.0e6, None);
        let after_second = p.rebalance_stats();
        assert_eq!(after_second.rebalances, after_first.rebalances + 1);
        assert_eq!(after_second.sweeps, after_first.sweeps);
        assert_eq!(after_second.swept_flows, after_first.swept_flows);
        join2(first, second).await;
        long.await;
    });
    sim.run();
    assert_eq!(pool.active_flows(), 0);
}
