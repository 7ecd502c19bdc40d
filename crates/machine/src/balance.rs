//! System-balance ratios — the quantities §1 and §7 of the paper reason in:
//! memory bytes per flop, network injection bytes per flop, GUPS per
//! GFLOPS. "The suitability of next generation HPC technology for petascale
//! simulations will depend on balance among memory, processor, I/O, and
//! local and global network performance."

use crate::spec::{ExecMode, MachineSpec};
use crate::NicCost;

/// The balance ratios of one machine in one execution mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Balance {
    /// Peak memory bytes per peak flop, per active core.
    pub mem_bytes_per_flop: f64,
    /// Network injection bytes per peak flop, per active core.
    pub net_bytes_per_flop: f64,
    /// Random-access updates per 10^9 flops, per active core (GUPS/GFLOPS).
    pub gups_per_gflop: f64,
    /// Messages per second per active core at zero payload (1 / software
    /// overhead), in millions.
    pub msg_rate_m_per_core: f64,
}

/// Compute the balance ratios for `machine` in `mode`.
pub fn balance(machine: &MachineSpec, mode: ExecMode) -> Balance {
    let active = machine.ranks_per_node(mode) as f64;
    let core_flops = machine.processor.core_peak_flops();
    let mem_bw = machine.memory.stream_bw_socket_gbs * 1e9 / active;
    let nic = NicCost::new(machine, mode);
    let inj = nic.injection_bps() / active;
    let gups = machine.memory.random_gups_socket / active;
    let o = nic.message_overhead_s();
    Balance {
        mem_bytes_per_flop: mem_bw / core_flops,
        net_bytes_per_flop: inj / core_flops,
        gups_per_gflop: gups / (core_flops / 1e9),
        msg_rate_m_per_core: 1.0 / o / 1e6 / active,
    }
}

/// Text table of balance ratios for a set of machines (both modes for
/// multi-core machines).
pub fn balance_table(machines: &[&MachineSpec]) -> String {
    let mut out = String::from(
        "machine            mode  mem B/F   net B/F   GUPS/GF   Mmsg/s/core\n",
    );
    for m in machines {
        let modes: &[ExecMode] = if m.processor.cores_per_socket > 1 {
            &[ExecMode::SN, ExecMode::VN]
        } else {
            &[ExecMode::SN]
        };
        for &mode in modes {
            let b = balance(m, mode);
            out.push_str(&format!(
                "{:18} {:>4}  {:>7.3}  {:>8.4}  {:>8.5}  {:>10.3}\n",
                m.name, mode, b.mem_bytes_per_flop, b.net_bytes_per_flop,
                b.gups_per_gflop, b.msg_rate_m_per_core,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn xt4_sn_memory_balance_improves_over_xt3() {
        // DDR2-667 raised bytes/flop even though the clock also rose.
        let b3 = balance(&presets::xt3_single(), ExecMode::SN);
        let b4 = balance(&presets::xt4(), ExecMode::SN);
        assert!(b4.mem_bytes_per_flop > b3.mem_bytes_per_flop);
        assert!(b4.net_bytes_per_flop > b3.net_bytes_per_flop);
    }

    #[test]
    fn vn_mode_halves_per_core_balance() {
        let sn = balance(&presets::xt4(), ExecMode::SN);
        let vn = balance(&presets::xt4(), ExecMode::VN);
        assert!((sn.mem_bytes_per_flop / vn.mem_bytes_per_flop - 2.0).abs() < 1e-9);
        assert!((sn.net_bytes_per_flop / vn.net_bytes_per_flop - 2.0).abs() < 1e-9);
        // VN message rate per core drops by more than 2x (software penalty).
        assert!(sn.msg_rate_m_per_core > 2.0 * vn.msg_rate_m_per_core);
    }

    #[test]
    fn vn_xt4_memory_balance_regresses_below_xt3() {
        // The §7 conclusion: per-core, the dual-core XT4 in VN mode is
        // *worse*-balanced for bandwidth-bound codes than the XT3 was.
        let xt3 = balance(&presets::xt3_single(), ExecMode::SN);
        let vn = balance(&presets::xt4(), ExecMode::VN);
        assert!(vn.mem_bytes_per_flop < xt3.mem_bytes_per_flop);
    }

    #[test]
    fn table_lists_both_modes_for_dual_core() {
        let xt4 = presets::xt4();
        let t = balance_table(&[&xt4]);
        assert!(t.contains("SN"));
        assert!(t.contains("VN"));
        let t3 = balance_table(&[&presets::xt3_single()]);
        assert!(!t3.contains("VN"));
    }
}
