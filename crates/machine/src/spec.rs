//! Machine specification types.
//!
//! A [`MachineSpec`] captures the balance parameters the paper uses to
//! explain every result: core clock, per-socket memory bandwidth and latency,
//! NIC injection bandwidth, link bandwidth, and the execution-mode rules
//! (single-node vs virtual-node). All bandwidths are in **GB/s = 1e9
//! bytes/s**, latencies in the stated unit.

use serde::{impl_serde_struct, impl_serde_unit_enum};

/// Processor (socket) parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorSpec {
    /// Marketing name, e.g. "2.6GHz dual-core Opteron".
    pub name: String,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Double-precision flops per cycle per core (2 for K8 SSE2, 4 for
    /// POWER4/5 FMA×2, 8-wide for vector pipes).
    pub flops_per_cycle: f64,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// Fraction of peak achieved by a tuned DGEMM (library BLAS).
    pub dgemm_efficiency: f64,
}

impl ProcessorSpec {
    /// Peak double-precision flop rate of one core, flops/s.
    pub fn core_peak_flops(&self) -> f64 {
        self.clock_ghz * 1e9 * self.flops_per_cycle
    }

    /// Peak double-precision flop rate of the whole socket, flops/s.
    pub fn socket_peak_flops(&self) -> f64 {
        self.core_peak_flops() * self.cores_per_socket as f64
    }
}

/// Memory subsystem parameters (per socket — the Opteron's integrated
/// controller is the unit of sharing between cores).
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySpec {
    /// Technology label, e.g. "DDR2-667".
    pub technology: String,
    /// Theoretical peak bandwidth per socket, GB/s.
    pub peak_bw_gbs: f64,
    /// Achievable streaming (STREAM-triad) bandwidth per socket, GB/s. This
    /// is the capacity of the shared-controller fluid link.
    pub stream_bw_socket_gbs: f64,
    /// Effective single-core, single-stream bandwidth, GB/s. Governs the
    /// *serial* (non-contended) memory term of cache-unfriendly kernels.
    pub single_stream_bw_gbs: f64,
    /// Open-page load-to-use latency, ns.
    pub latency_ns: f64,
    /// Achievable random-access update rate per socket, GUPS. Capacity of the
    /// socket's random-access fluid link.
    pub random_gups_socket: f64,
    /// Installed capacity per core, GB.
    pub capacity_gb_per_core: f64,
}

/// Network interface + router parameters (SeaStar-style).
#[derive(Debug, Clone, PartialEq)]
pub struct NicSpec {
    /// Interconnect name, e.g. "Cray SeaStar2".
    pub name: String,
    /// Node injection bandwidth (bidirectional aggregate), GB/s.
    pub injection_bw_gbs: f64,
    /// Per-direction torus link bandwidth, GB/s.
    pub link_bw_gbs: f64,
    /// One-way per-message software overhead (send+receive sides combined), µs.
    pub sw_overhead_us: f64,
    /// Additional per-message NIC occupancy when the node runs in VN mode
    /// (the "immature software stack" sharing penalty of the paper), µs.
    pub vn_extra_overhead_us: f64,
    /// Router traversal latency per hop, ns.
    pub per_hop_ns: f64,
    /// Intra-node (core-to-core) memcpy bandwidth, GB/s.
    pub memcpy_bw_gbs: f64,
    /// Eager/rendezvous protocol switch, bytes.
    pub eager_threshold_bytes: u64,
    /// Extra rendezvous handshake latency (RTS/CTS round trip), µs.
    pub rendezvous_latency_us: f64,
}

/// How application-level sustained performance relates to peak — used only by
/// the cross-platform comparison figures (15 and 18), where machines we do
/// not model in detail (vector and fat-SMP systems) appear.
#[derive(Debug, Clone, PartialEq)]
pub struct AppPerfSpec {
    /// Fraction of peak a tuned scalar science code sustains.
    pub sustained_fraction: f64,
    /// Vector architecture behaviour, if any.
    pub vector: Option<VectorSpec>,
    /// OpenMP threads usable per MPI task (SMP platforms); 1 when pure MPI.
    pub smp_threads_per_task: u32,
}

/// Vector-pipeline behaviour: efficiency collapses once the vector length a
/// decomposition produces falls below `min_efficient_length` (the paper notes
/// this at 960 tasks for CAM on the X1E and Earth Simulator).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSpec {
    /// Vector length below which efficiency degrades.
    pub min_efficient_length: f64,
    /// Fraction of sustained performance retained at very short vector length.
    pub short_vector_fraction: f64,
}

/// Execution mode of a dual-core XT node (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Single/serial-node mode: one rank per socket, full memory bandwidth
    /// and exclusive NIC access.
    SN,
    /// Virtual-node mode: one rank per core; cores share the memory
    /// controller and the NIC (with a sharing penalty).
    VN,
}

impl ExecMode {
    /// Human-readable label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::SN => "SN",
            ExecMode::VN => "VN",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A complete machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Machine name as used in the paper's legends (e.g. "XT4").
    pub name: String,
    /// Processor/socket description.
    pub processor: ProcessorSpec,
    /// Memory subsystem description.
    pub memory: MemorySpec,
    /// NIC and router description.
    pub nic: NicSpec,
    /// 3-D torus dimensions (X, Y, Z); product = number of nodes.
    pub torus_dims: [usize; 3],
    /// Application-level sustained-performance model.
    pub app: AppPerfSpec,
}

impl MachineSpec {
    /// Number of compute nodes (= sockets for XT systems).
    pub fn node_count(&self) -> usize {
        self.torus_dims[0] * self.torus_dims[1] * self.torus_dims[2]
    }

    /// Total cores across the machine.
    pub fn core_count(&self) -> usize {
        self.node_count() * self.processor.cores_per_socket as usize
    }

    /// Ranks hosted per node in `mode`.
    pub fn ranks_per_node(&self, mode: ExecMode) -> usize {
        match mode {
            ExecMode::SN => 1,
            ExecMode::VN => self.processor.cores_per_socket as usize,
        }
    }

    /// Largest rank count runnable in `mode`.
    pub fn max_ranks(&self, mode: ExecMode) -> usize {
        self.node_count() * self.ranks_per_node(mode)
    }

    /// Memory available to one rank in `mode`, GB (VN mode splits the node
    /// memory evenly between the cores — paper §2).
    pub fn memory_per_rank_gb(&self, mode: ExecMode) -> f64 {
        let node_gb =
            self.memory.capacity_gb_per_core * self.processor.cores_per_socket as f64;
        node_gb / self.ranks_per_node(mode) as f64
    }

    /// Validate internal consistency; returns a list of problems (empty = ok).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let p = &self.processor;
        if p.clock_ghz.is_nan() || p.clock_ghz <= 0.0 {
            problems.push("clock must be positive".into());
        }
        if p.cores_per_socket == 0 {
            problems.push("cores_per_socket must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&p.dgemm_efficiency) {
            problems.push("dgemm_efficiency must be in [0,1]".into());
        }
        let m = &self.memory;
        if m.stream_bw_socket_gbs > m.peak_bw_gbs {
            problems.push("achievable stream bandwidth exceeds peak".into());
        }
        if m.single_stream_bw_gbs > m.stream_bw_socket_gbs {
            problems.push("single-stream bandwidth exceeds socket bandwidth".into());
        }
        let n = &self.nic;
        if n.injection_bw_gbs <= 0.0 || n.link_bw_gbs <= 0.0 {
            problems.push("NIC bandwidths must be positive".into());
        }
        if self.node_count() == 0 {
            problems.push("torus has zero nodes".into());
        }
        problems
    }
}

// JSON forms (field-keyed objects / variant-name strings) for specs: these
// feed the spec fingerprints the sweep-engine cache keys are built from, so
// every parameter field must be listed here.
impl_serde_struct!(ProcessorSpec { name, clock_ghz, flops_per_cycle, cores_per_socket, dgemm_efficiency });
impl_serde_struct!(MemorySpec {
    technology,
    peak_bw_gbs,
    stream_bw_socket_gbs,
    single_stream_bw_gbs,
    latency_ns,
    random_gups_socket,
    capacity_gb_per_core,
});
impl_serde_struct!(NicSpec {
    name,
    injection_bw_gbs,
    link_bw_gbs,
    sw_overhead_us,
    vn_extra_overhead_us,
    per_hop_ns,
    memcpy_bw_gbs,
    eager_threshold_bytes,
    rendezvous_latency_us,
});
impl_serde_struct!(AppPerfSpec { sustained_fraction, vector, smp_threads_per_task });
impl_serde_struct!(VectorSpec { min_efficient_length, short_vector_fraction });
impl_serde_unit_enum!(ExecMode { SN, VN });
impl_serde_struct!(MachineSpec { name, processor, memory, nic, torus_dims, app });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn exec_mode_rank_math() {
        let xt4 = presets::xt4();
        assert_eq!(xt4.ranks_per_node(ExecMode::SN), 1);
        assert_eq!(xt4.ranks_per_node(ExecMode::VN), 2);
        assert_eq!(xt4.max_ranks(ExecMode::VN), 2 * xt4.node_count());
        // VN halves memory per rank.
        assert!(
            (xt4.memory_per_rank_gb(ExecMode::SN) - 2.0 * xt4.memory_per_rank_gb(ExecMode::VN))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn peak_flops() {
        let p = ProcessorSpec {
            name: "test".into(),
            clock_ghz: 2.5,
            flops_per_cycle: 2.0,
            cores_per_socket: 2,
            dgemm_efficiency: 0.9,
        };
        assert_eq!(p.core_peak_flops(), 5.0e9);
        assert_eq!(p.socket_peak_flops(), 1.0e10);
    }

    #[test]
    fn presets_validate_clean() {
        for m in presets::all() {
            assert!(m.validate().is_empty(), "{}: {:?}", m.name, m.validate());
        }
    }

    #[test]
    fn spec_serde_roundtrip() {
        let m = presets::xt4();
        let json = serde_json::to_string(&m).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}

/// Compact 3-D torus dimensions for a job of `nodes` nodes: the smallest
/// near-cubic box with `a·b·c ≥ nodes` (models the compact partition a
/// scheduler would allocate; keeps mean hop counts realistic for small jobs).
pub fn fit_dims(nodes: usize) -> [usize; 3] {
    let nodes = nodes.max(1);
    let c = (nodes as f64).cbrt().floor().max(1.0) as usize;
    let mut best: Option<[usize; 3]> = None;
    for a in 1..=c + 1 {
        for b in a..=nodes.div_ceil(a) {
            let depth = nodes.div_ceil(a * b);
            let dims = [a, b, depth];
            let vol = a * b * depth;
            if vol >= nodes {
                let better = match best {
                    None => true,
                    Some(cur) => {
                        let cur_vol = cur[0] * cur[1] * cur[2];
                        vol < cur_vol
                            || (vol == cur_vol
                                && dims.iter().max() < cur.iter().max())
                    }
                };
                if better {
                    best = Some(dims);
                }
            }
            if a * b > nodes {
                break;
            }
        }
    }
    best.unwrap_or([1, 1, nodes])
}

#[cfg(test)]
mod fit_tests {
    use super::fit_dims;

    #[test]
    fn fits_exact_cubes() {
        assert_eq!(fit_dims(64), [4, 4, 4]);
        assert_eq!(fit_dims(1), [1, 1, 1]);
    }

    #[test]
    fn capacity_is_sufficient_and_tight() {
        for n in [1usize, 2, 3, 7, 13, 100, 500, 1152, 5212, 11508] {
            let d = fit_dims(n);
            let vol = d[0] * d[1] * d[2];
            assert!(vol >= n, "{n}: {d:?}");
            assert!(vol <= n + n / 2 + 8, "{n}: {d:?} too loose");
        }
    }

    #[test]
    fn dims_are_near_cubic() {
        let d = fit_dims(1000);
        assert!(*d.iter().max().unwrap() <= 2 * *d.iter().min().unwrap().max(&5));
    }
}
