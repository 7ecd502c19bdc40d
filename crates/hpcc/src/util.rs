//! Shared helpers for benchmark drivers.

use xtsim_machine::{fit_dims, ExecMode, MachineSpec};
use xtsim_mpi::{CollectiveMode, WorldConfig};
use xtsim_net::PlatformConfig;

/// Build a world for a `ranks`-rank job on `machine` in `mode`, allocated on
/// a compact torus partition (like a real scheduler would place it).
pub fn job(machine: &MachineSpec, mode: ExecMode, ranks: usize, coll: CollectiveMode) -> WorldConfig {
    let mut spec = machine.clone();
    let nodes = ranks.div_ceil(spec.ranks_per_node(mode));
    spec.torus_dims = fit_dims(nodes);
    let mut platform = PlatformConfig::new(spec, mode, ranks);
    // Exact fluid sharing up to ~128 ranks; the counting model beyond (a
    // 512-rank ring of 2 MB messages floods the fluid solver otherwise, and
    // the global benchmarks put thousands of concurrent flows on the wire,
    // where fluid max-min sharing costs O(flows·links) per change).
    if ranks > 128 {
        platform.contention = xtsim_net::ContentionModel::Counting;
    }
    let mut w = WorldConfig::new(platform);
    w.collectives = coll;
    w
}

/// Number of ranks a `sockets`-socket job runs in `mode`.
pub fn ranks_for_sockets(machine: &MachineSpec, mode: ExecMode, sockets: usize) -> usize {
    sockets * machine.ranks_per_node(mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtsim_machine::presets;

    #[test]
    fn job_shrinks_torus_to_fit() {
        let cfg = job(
            &presets::xt4(),
            ExecMode::VN,
            16,
            CollectiveMode::Algorithmic,
        );
        // 16 VN ranks = 8 nodes -> 2x2x2.
        assert_eq!(cfg.platform.spec.torus_dims, [2, 2, 2]);
    }

    #[test]
    fn ranks_scale_with_mode() {
        let m = presets::xt4();
        assert_eq!(ranks_for_sockets(&m, ExecMode::SN, 10), 10);
        assert_eq!(ranks_for_sockets(&m, ExecMode::VN, 10), 20);
    }
}
