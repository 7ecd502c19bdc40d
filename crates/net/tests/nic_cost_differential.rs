//! Differential test: the DES wire model against the closed form that
//! `NicCost` alone gives for uncontended traffic.
//!
//! One inter-node message of `bytes` over `h` hops costs
//! `side + hop(h) + bytes / min(injection per direction, link) + side`,
//! each phase rounded up to the picosecond as the DES rounds it. In every
//! pattern below no two messages share a link or port, and no NIC has two
//! messages to serve at once, so both contention models must reproduce
//! that sum exactly.

use std::cell::RefCell;
use std::rc::Rc;

use xtsim_des::{Sim, SimDuration};
use xtsim_machine::{presets, ExecMode, NicCost};
use xtsim_net::{ContentionModel, Placement, Platform, PlatformConfig, Rank};

const SIZES: [u64; 7] = [0, 8, 4 << 10, 64 << 10, (64 << 10) + 1, 1 << 20, 8 << 20];
const MODELS: [ContentionModel; 2] = [ContentionModel::Fluid, ContentionModel::Counting];

/// XT4 on a 4×4×4 torus, block placement, every core holding a rank.
fn config(mode: ExecMode, contention: ContentionModel) -> PlatformConfig {
    let mut spec = presets::xt4();
    spec.torus_dims = [4, 4, 4];
    let ranks = spec.max_ranks(mode);
    PlatformConfig {
        spec,
        mode,
        ranks,
        contention,
        placement: Placement::Block,
    }
}

/// Closed-form price of one uncontended inter-node message.
fn closed_form(cost: &NicCost, hops: usize, bytes: u64) -> SimDuration {
    let side = SimDuration::from_secs_f64(cost.side_overhead_s());
    let hop = SimDuration::from_secs_f64(cost.hop_latency_s(hops as f64));
    let wire_bps = cost.injection_dir_bps().min(cost.links_bps(1));
    let wire = SimDuration::from_secs_f64(bytes as f64 / wire_bps);
    side + hop + wire + side
}

/// Start one transmit per `(src, dst)` pair at time zero and check each
/// one's finish time against its closed form. A finish at most
/// `early_ps` picoseconds before the closed form is accepted; a later one
/// never is.
fn check(
    mode: ExecMode,
    contention: ContentionModel,
    pairs: &[(Rank, Rank)],
    bytes: u64,
    early_ps: u64,
) {
    let config = config(mode, contention);
    let cost = NicCost::new(&config.spec, mode);
    let mut sim = Sim::new(0);
    let platform = Platform::new(sim.handle(), config);
    let finish = Rc::new(RefCell::new(vec![0u64; pairs.len()]));
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        let (p, h, finish) = (platform.clone(), sim.handle(), Rc::clone(&finish));
        sim.spawn(async move {
            p.transmit(src, dst, bytes).await;
            finish.borrow_mut()[i] = h.now().as_ps();
        });
    }
    sim.run();
    for (&(src, dst), &got) in pairs.iter().zip(finish.borrow().iter()) {
        let (a, b) = (platform.node_of(src), platform.node_of(dst));
        assert_ne!(a, b, "rank {src} -> {dst} stays inside one node");
        let want = closed_form(&cost, platform.torus().hops(a, b), bytes).as_ps();
        assert!(
            got <= want && got + early_ps >= want,
            "{mode} {contention:?} {bytes} B rank {src} -> {dst}: DES {got} ps, closed form {want} ps"
        );
    }
}

#[test]
fn solo_message_to_every_node_matches_closed_form() {
    // SN: rank r sits on node r.
    for contention in MODELS {
        for bytes in SIZES {
            for dst in 1..64 {
                check(ExecMode::SN, contention, &[(0, dst)], bytes, 0);
            }
        }
    }
}

#[test]
fn vn_solo_message_to_distant_nodes_matches_closed_form() {
    // VN: rank 0 alone uses node 0's NIC; nodes (2,2,2), (2,2,0), (2,0,2)
    // and (0,2,2) are 6, 4, 4 and 4 hops away. Node n hosts rank 2n.
    for contention in MODELS {
        for bytes in SIZES {
            for node in [42, 10, 34, 40] {
                check(ExecMode::VN, contention, &[(0, 2 * node)], bytes, 0);
            }
        }
    }
}

#[test]
fn disjoint_pairs_exchanging_both_ways_match_closed_form() {
    // Nodes 2i and 2i+1 are x-neighbours; each link direction, injection
    // port and ejection port carries one message.
    let pairs: Vec<(Rank, Rank)> = (0..32)
        .flat_map(|i| [(2 * i, 2 * i + 1), (2 * i + 1, 2 * i)])
        .collect();
    for contention in MODELS {
        for bytes in SIZES {
            check(ExecMode::SN, contention, &pairs, bytes, 0);
        }
    }
}

#[test]
fn natural_ring_matches_closed_form() {
    // Every rank sends to rank + 1 at once; the ring's dimension-order
    // routes share no link.
    let pairs: Vec<(Rank, Rank)> = (0..64).map(|r| (r, (r + 1) % 64)).collect();
    for contention in MODELS {
        for bytes in SIZES {
            // The fluid pool finishes flows up to 1 ps early here (one flow
            // at 4 KiB, all 64 from 64 KiB up): after each rebalance it
            // re-rounds every active flow's completion from its remaining
            // volume, replaying the picosecond rounding of the global
            // rebalancer it replaced (fluid.rs, step 5).
            let early_ps = match contention {
                ContentionModel::Fluid => 1,
                ContentionModel::Counting => 0,
            };
            check(ExecMode::SN, contention, &pairs, bytes, early_ps);
        }
    }
}
