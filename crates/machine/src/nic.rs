//! NIC message prices — the one place where [`NicSpec`](crate::NicSpec)
//! fields become seconds and bytes per second.
//!
//! The wire model, the modeled collectives, the MPI eager/rendezvous switch
//! and the [balance table](crate::balance) all read their NIC numbers from a
//! [`NicCost`], so VN mode's shared-NIC software penalty and the
//! per-direction injection bandwidth are each written down once. Prices are
//! plain `f64`; callers round them to the simulator's picosecond clock.

use crate::spec::{ExecMode, MachineSpec};

/// NIC prices of one machine in one execution mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicCost {
    sw_overhead_us: f64,
    /// VN mode's extra per-message software overhead; zero in SN mode.
    vn_extra_us: f64,
    per_hop_ns: f64,
    injection_bw_gbs: f64,
    link_bw_gbs: f64,
    memcpy_bw_gbs: f64,
    eager_threshold_bytes: u64,
    rendezvous_latency_us: f64,
}

impl NicCost {
    /// The prices of `machine`'s NIC when the job runs in `mode`.
    pub fn new(machine: &MachineSpec, mode: ExecMode) -> NicCost {
        let nic = &machine.nic;
        NicCost {
            sw_overhead_us: nic.sw_overhead_us,
            vn_extra_us: match mode {
                ExecMode::SN => 0.0,
                ExecMode::VN => nic.vn_extra_overhead_us,
            },
            per_hop_ns: nic.per_hop_ns,
            injection_bw_gbs: nic.injection_bw_gbs,
            link_bw_gbs: nic.link_bw_gbs,
            memcpy_bw_gbs: nic.memcpy_bw_gbs,
            eager_threshold_bytes: nic.eager_threshold_bytes,
            rendezvous_latency_us: nic.rendezvous_latency_us,
        }
    }

    /// Software overhead of one whole message, both sides and the VN
    /// penalty included, s.
    pub fn message_overhead_s(&self) -> f64 {
        (self.sw_overhead_us + self.vn_extra_us) * 1e-6
    }

    /// Software overhead one side of a message pays through its node's
    /// NIC, half the VN penalty included, s.
    pub fn side_overhead_s(&self) -> f64 {
        (self.sw_overhead_us * 0.5 + self.vn_extra_us * 0.5) * 1e-6
    }

    /// Software overhead of a message between two cores of one node (the
    /// memcpy path, which bypasses the NIC), s.
    pub fn intra_overhead_s(&self) -> f64 {
        self.sw_overhead_us * 0.5e-6
    }

    /// Router latency of `hops` torus hops, s.
    pub fn hop_latency_s(&self, hops: f64) -> f64 {
        hops * self.per_hop_ns * 1e-9
    }

    /// Node injection bandwidth, both directions together, B/s.
    pub fn injection_bps(&self) -> f64 {
        self.injection_bw_gbs * 1e9
    }

    /// Injection (or ejection) bandwidth in one direction, B/s.
    pub fn injection_dir_bps(&self) -> f64 {
        self.injection_bps() / 2.0
    }

    /// Bandwidth of `links` torus links side by side, per direction, B/s.
    pub fn links_bps(&self, links: usize) -> f64 {
        links as f64 * self.link_bw_gbs * 1e9
    }

    /// Intra-node memcpy bandwidth, B/s.
    pub fn memcpy_bps(&self) -> f64 {
        self.memcpy_bw_gbs * 1e9
    }

    /// Largest payload sent eagerly; larger ones take the rendezvous path.
    pub fn eager_threshold_bytes(&self) -> u64 {
        self.eager_threshold_bytes
    }

    /// Uncontended time of one `bytes` message over `mean_hops` hops, s:
    /// whole-message overhead, router latency, the payload at the slower of
    /// one injection direction and one link, and above the eager threshold
    /// a flat rendezvous surcharge.
    pub fn message_estimate_s(&self, bytes: u64, mean_hops: f64) -> f64 {
        let lat_s = self.message_overhead_s() + self.hop_latency_s(mean_hops);
        let bw = self.injection_dir_bps().min(self.links_bps(1));
        let mut t = lat_s + bytes as f64 / bw;
        if bytes > self.eager_threshold_bytes {
            t += self.rendezvous_latency_us * 1e-6;
        }
        t
    }
}
