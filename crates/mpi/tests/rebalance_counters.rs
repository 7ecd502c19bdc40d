//! Pins the network fluid pool's rebalancer work counters on one job: a
//! 64-rank XT4 SN algorithmic alltoall of 64 KiB messages under fluid
//! contention, the quick `alltoall_fluid/ranks_1024` bench shape. The
//! counters are deterministic, so they gate engine work exactly where wall
//! times cannot.

use xtsim_des::{RebalanceStats, Sim};
use xtsim_machine::{fit_dims, presets, ExecMode};
use xtsim_mpi::{CollectiveMode, Message, World, WorldConfig};
use xtsim_net::{ContentionModel, PlatformConfig};

fn alltoall_counters(ranks: usize, bytes: u64) -> RebalanceStats {
    let mut spec = presets::xt4();
    spec.torus_dims = fit_dims(ranks);
    let mut platform = PlatformConfig::new(spec, ExecMode::SN, ranks);
    platform.contention = ContentionModel::Fluid;
    let mut cfg = WorldConfig::new(platform);
    cfg.collectives = CollectiveMode::Algorithmic;
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), cfg);
    for r in 0..world.size() {
        let mpi = world.mpi(r);
        sim.spawn(async move {
            let p = mpi.comm().size();
            let msgs = (0..p).map(|_| Message::of_bytes(bytes)).collect();
            mpi.comm().alltoall(msgs).await;
        });
    }
    sim.run();
    world.platform().net_rebalance_stats()
}

#[test]
fn alltoall_rebalance_counters_are_pinned() {
    let want = RebalanceStats {
        rebalances: 8_064,
        flows_touched: 35_082,
        reschedules: 14_069,
        reschedules_avoided: 25_820,
        max_component: 64,
        // One pool-wide advance per instant, at its first rebalance.
        sweeps: 1_399,
        swept_flows: 55_403,
    };
    assert_eq!(alltoall_counters(64, 64 * 1024), want);
}
