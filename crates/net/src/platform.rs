//! The simulated compute platform: nodes, NICs, memory controllers, torus.
//!
//! A [`Platform`] instantiates one machine (a [`MachineSpec`]) inside a
//! discrete-event simulation and exposes the two operations every higher
//! layer is built from:
//!
//! * [`Platform::compute`] — execute a [`WorkPacket`] on a rank's core,
//!   contending on the socket's shared memory controller and random-access
//!   capacity (this is where SN/VN memory contention comes from);
//! * [`Platform::transmit`] — move a message between ranks, paying NIC
//!   software overhead (serialized through the node's NIC in VN mode), router
//!   hop latency, and a bandwidth phase over the injection port and torus
//!   links. Every one of these prices comes from the job's [`NicCost`].
//!
//! Two contention models are available for the bandwidth phase:
//! [`ContentionModel::Fluid`] (exact max-min sharing, for small/medium runs)
//! and [`ContentionModel::Counting`] (per-link active-flow counters sampled
//! at message start — cheap enough for 20k-rank runs).

use std::cell::RefCell;
use std::rc::Rc;

use xtsim_des::trace::{self, SpanCategory};
use xtsim_des::{join2, FifoStation, FluidPool, LinkId, RebalanceStats, SimDuration, SimHandle};
use xtsim_machine::{ExecMode, MachineSpec, NicCost, WorkPacket};

use crate::torus::{NodeId, Torus3D, TorusLink};

/// An MPI-style process index on the platform.
pub type Rank = usize;

/// How the bandwidth phase of a message is priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentionModel {
    /// Exact max-min fair sharing over injection/ejection ports and every
    /// torus link (FluidPool). Accurate; O(flows × links-in-use) per change.
    Fluid,
    /// Active-flow counters per link, sampled when the message starts.
    /// Approximate but O(hops) per message. The HPCC benchmarks pick it above
    /// 128 ranks and the application proxies above 256.
    Counting,
}

/// How ranks map to nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Consecutive ranks fill a node before moving on (XT default: in VN
    /// mode ranks 2i and 2i+1 share node i).
    Block,
    /// Ranks round-robin across nodes first.
    RoundRobin,
}

/// Configuration for [`Platform::new`].
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Machine description.
    pub spec: MachineSpec,
    /// SN or VN execution mode.
    pub mode: ExecMode,
    /// Number of ranks in the job.
    pub ranks: usize,
    /// Bandwidth contention model.
    pub contention: ContentionModel,
    /// Rank→node mapping policy.
    pub placement: Placement,
}

impl PlatformConfig {
    /// Convenience constructor with block placement and the exact
    /// [`ContentionModel::Fluid`]; a caller that runs large jobs sets
    /// [`ContentionModel::Counting`] itself.
    pub fn new(spec: MachineSpec, mode: ExecMode, ranks: usize) -> Self {
        PlatformConfig {
            spec,
            mode,
            ranks,
            contention: ContentionModel::Fluid,
            placement: Placement::Block,
        }
    }
}

/// Cumulative traffic statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficStats {
    /// Messages fully delivered.
    pub messages: u64,
    /// Payload bytes fully delivered.
    pub bytes: u64,
    /// Messages that stayed inside one node (core-to-core memcpy).
    pub intra_node_messages: u64,
}

struct PlatformInner {
    handle: SimHandle,
    spec: MachineSpec,
    mode: ExecMode,
    contention: ContentionModel,
    /// NIC prices of this machine in this mode, and the two overheads every
    /// message pays, rounded once to the clock.
    cost: NicCost,
    side_overhead: SimDuration,
    intra_overhead: SimDuration,
    torus: Torus3D,
    rank_node: Vec<NodeId>,
    /// Per-node NIC processing station (1 server: the paper's shared-NIC
    /// serialization in VN mode).
    nic: Vec<FifoStation>,
    /// Per-node memory pool: [stream link, random link].
    mem_pools: Vec<FluidPool>,
    mem_stream: Vec<LinkId>,
    mem_random: Vec<LinkId>,
    /// Network fluid pool (Fluid model only).
    net_pool: Option<FluidPool>,
    /// injection / ejection link per node (Fluid model).
    inj: Vec<LinkId>,
    ej: Vec<LinkId>,
    /// torus link ids indexed by `TorusLink::index()` (Fluid model).
    links: Vec<LinkId>,
    /// Counting model state: active flows per torus link / injection / ejection.
    link_load: RefCell<Vec<u32>>,
    inj_load: RefCell<Vec<u32>>,
    ej_load: RefCell<Vec<u32>>,
    /// Reusable per-message route buffers (torus hops, fluid link route):
    /// the transmit hot path must not allocate per message. Never held
    /// across an await.
    route_scratch: RefCell<(Vec<TorusLink>, Vec<LinkId>)>,
    stats: RefCell<TrafficStats>,
}

/// A simulated machine instance hosting `ranks` MPI-style processes.
#[derive(Clone)]
pub struct Platform {
    inner: Rc<PlatformInner>,
}

impl Platform {
    /// Instantiate the platform inside simulation `handle`.
    ///
    /// Panics if the job cannot fit (`ranks > max_ranks(mode)`).
    pub fn new(handle: SimHandle, config: PlatformConfig) -> Platform {
        let PlatformConfig {
            spec,
            mode,
            ranks,
            contention,
            placement,
        } = config;
        assert!(ranks >= 1, "need at least one rank");
        assert!(
            ranks <= spec.max_ranks(mode),
            "{ranks} ranks exceed {} ({} mode on {} nodes)",
            spec.max_ranks(mode),
            mode,
            spec.node_count()
        );
        let torus = Torus3D::new(spec.torus_dims);
        let nodes = torus.node_count();
        let rpn = spec.ranks_per_node(mode);
        let rank_node: Vec<NodeId> = (0..ranks)
            .map(|r| match placement {
                Placement::Block => r / rpn,
                Placement::RoundRobin => r % nodes,
            })
            .collect();
        let used_nodes = rank_node.iter().copied().max().unwrap_or(0) + 1;
        let cost = NicCost::new(&spec, mode);

        let nic: Vec<FifoStation> = (0..used_nodes)
            .map(|_| FifoStation::new(handle.clone(), 1))
            .collect();

        let mut mem_pools = Vec::with_capacity(used_nodes);
        let mut mem_stream = Vec::with_capacity(used_nodes);
        let mut mem_random = Vec::with_capacity(used_nodes);
        for _ in 0..used_nodes {
            let pool = FluidPool::new(handle.clone());
            mem_stream.push(pool.add_link(spec.memory.stream_bw_socket_gbs * 1e9));
            mem_random.push(pool.add_link(spec.memory.random_gups_socket * 1e9));
            mem_pools.push(pool);
        }

        let (net_pool, inj, ej, links) = match contention {
            ContentionModel::Fluid => {
                let pool = FluidPool::new(handle.clone());
                let inj_dir = cost.injection_dir_bps();
                let inj: Vec<LinkId> = (0..used_nodes).map(|_| pool.add_link(inj_dir)).collect();
                let ej: Vec<LinkId> = (0..used_nodes).map(|_| pool.add_link(inj_dir)).collect();
                let link_bw = cost.links_bps(1);
                let links: Vec<LinkId> = (0..torus.link_count())
                    .map(|_| pool.add_link(link_bw))
                    .collect();
                (Some(pool), inj, ej, links)
            }
            ContentionModel::Counting => (None, Vec::new(), Vec::new(), Vec::new()),
        };

        Platform {
            inner: Rc::new(PlatformInner {
                handle,
                spec,
                mode,
                contention,
                cost,
                side_overhead: SimDuration::from_secs_f64(cost.side_overhead_s()),
                intra_overhead: SimDuration::from_secs_f64(cost.intra_overhead_s()),
                link_load: RefCell::new(vec![0; torus.link_count()]),
                inj_load: RefCell::new(vec![0; used_nodes]),
                ej_load: RefCell::new(vec![0; used_nodes]),
                route_scratch: RefCell::new((Vec::new(), Vec::new())),
                torus,
                rank_node,
                nic,
                mem_pools,
                mem_stream,
                mem_random,
                net_pool,
                inj,
                ej,
                links,
                stats: RefCell::new(TrafficStats::default()),
            }),
        }
    }

    /// Simulation handle the platform lives in.
    pub fn handle(&self) -> &SimHandle {
        &self.inner.handle
    }

    /// Machine description.
    pub fn spec(&self) -> &MachineSpec {
        &self.inner.spec
    }

    /// Execution mode of this job.
    pub fn mode(&self) -> ExecMode {
        self.inner.mode
    }

    /// NIC prices of this machine in this job's mode.
    pub fn nic_cost(&self) -> &NicCost {
        &self.inner.cost
    }

    /// Number of ranks in the job.
    pub fn ranks(&self) -> usize {
        self.inner.rank_node.len()
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: Rank) -> NodeId {
        self.inner.rank_node[rank]
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> TrafficStats {
        *self.inner.stats.borrow()
    }

    /// Work counters of the network fluid pool's incremental rebalancer
    /// (all zero under the Counting model, which has no pool). See
    /// EXPERIMENTS.md, "Profiling the simulator".
    pub fn net_rebalance_stats(&self) -> RebalanceStats {
        self.inner
            .net_pool
            .as_ref()
            .map(|p| p.rebalance_stats())
            .unwrap_or_default()
    }

    /// Torus topology.
    pub fn torus(&self) -> &Torus3D {
        &self.inner.torus
    }

    /// Execute `work` on `rank`'s core. Contends with the node's other core
    /// for streaming bandwidth and random-access capacity.
    pub async fn compute(&self, rank: Rank, work: WorkPacket) {
        let inner = &self.inner;
        let node = inner.rank_node[rank];
        let spec = &inner.spec;
        let t_flop = work.flop_time(spec);
        let pool = &inner.mem_pools[node];
        // Flop phase overlaps the streaming phase (hardware prefetch).
        let flop_sleep = inner.handle.sleep(SimDuration::from_secs_f64(t_flop));
        let stream = pool.transfer(
            &[inner.mem_stream[node]],
            work.shared_dram_bytes,
            // One core alone may saturate the controller; the cap prevents a
            // single flow from exceeding the single-stream limit.
            Some(spec.memory.single_stream_bw_gbs * 1e9),
        );
        join2(flop_sleep, stream).await;
        // Serial (dependence-limited) memory phase: latency-bound traffic
        // that does not contend for controller bandwidth (see DESIGN.md).
        if work.serial_dram_bytes > 0.0 {
            let t = work.serial_dram_bytes / (spec.memory.single_stream_bw_gbs * 1e9);
            inner.handle.sleep(SimDuration::from_secs_f64(t)).await;
        }
        // Random-access phase: contends on the socket's GUPS capacity.
        if work.random_refs > 0.0 {
            pool.transfer(&[inner.mem_random[node]], work.random_refs, None)
                .await;
        }
    }

    /// Pure-math estimate of an uncontended message time over this torus's
    /// mean hop count (used by modeled collectives), rounded to the clock:
    /// [`NicCost::message_estimate_s`].
    pub fn message_time_estimate(&self, bytes: u64) -> SimDuration {
        let hops = self.inner.torus.mean_hops();
        SimDuration::from_secs_f64(self.inner.cost.message_estimate_s(bytes, hops))
    }

    /// Move `bytes` of payload from `src` to `dst`, resolving when the last
    /// byte has been delivered (wire-level: MPI matching is layered above).
    ///
    /// `bytes == 0` models a control message (latency only).
    pub async fn transmit(&self, src: Rank, dst: Rank, bytes: u64) {
        let inner = &self.inner;
        let src_node = inner.rank_node[src];
        let dst_node = inner.rank_node[dst];
        {
            let mut st = inner.stats.borrow_mut();
            st.messages += 1;
            st.bytes += bytes;
            if src_node == dst_node {
                st.intra_node_messages += 1;
            }
        }
        let t0 = trace::capture_active().then(|| inner.handle.now());
        if src_node == dst_node {
            self.transmit_intra(src_node, bytes).await;
        } else {
            self.transmit_inter(src_node, dst_node, bytes).await;
        }
        if let Some(t0) = t0 {
            let hops = if src_node == dst_node {
                0
            } else {
                inner.torus.hops(src_node, dst_node)
            };
            trace::span(
                SpanCategory::Flow,
                "flow",
                None,
                Some(src_node as u32),
                t0,
                inner.handle.now(),
                vec![
                    ("src", src as f64),
                    ("dst", dst as f64),
                    ("bytes", bytes as f64),
                    ("hops", hops as f64),
                ],
            );
        }
    }

    /// Intra-node path: a memory copy through the shared controller (§2 of
    /// the paper), with half the network software overhead.
    async fn transmit_intra(&self, node: NodeId, bytes: u64) {
        let inner = &self.inner;
        inner.handle.sleep(inner.intra_overhead).await;
        if bytes > 0 {
            inner.mem_pools[node]
                .transfer(
                    &[inner.mem_stream[node]],
                    bytes as f64,
                    Some(inner.cost.memcpy_bps()),
                )
                .await;
        }
    }

    async fn transmit_inter(&self, src_node: NodeId, dst_node: NodeId, bytes: u64) {
        let inner = &self.inner;

        // Send-side software overhead, serialized through the source NIC.
        inner.nic[src_node].serve(inner.side_overhead).await;

        // Router traversal.
        let hops = inner.torus.hops(src_node, dst_node);
        let hop_latency = SimDuration::from_secs_f64(inner.cost.hop_latency_s(hops as f64));
        inner.handle.sleep(hop_latency).await;

        // Bandwidth phase.
        if bytes > 0 {
            match inner.contention {
                ContentionModel::Fluid => {
                    let pool = inner.net_pool.as_ref().expect("fluid pool present");
                    // Build the fluid route in the reusable scratch; the
                    // transfer copies it, so the borrow ends before the await.
                    let transfer = {
                        let mut scratch = inner.route_scratch.borrow_mut();
                        let (hop_buf, route_buf) = &mut *scratch;
                        hop_buf.clear();
                        inner.torus.route_into(src_node, dst_node, hop_buf);
                        route_buf.clear();
                        route_buf.reserve(hop_buf.len() + 2);
                        route_buf.push(inner.inj[src_node]);
                        for l in hop_buf.iter() {
                            route_buf.push(inner.links[l.index()]);
                        }
                        route_buf.push(inner.ej[dst_node]);
                        pool.transfer(route_buf, bytes as f64, None)
                    };
                    transfer.await;
                }
                ContentionModel::Counting => {
                    // Sample the bottleneck and register load in one pass
                    // over the route (scratch-buffered, allocation-free).
                    let t = {
                        let mut scratch = inner.route_scratch.borrow_mut();
                        let (hop_buf, _) = &mut *scratch;
                        hop_buf.clear();
                        inner.torus.route_into(src_node, dst_node, hop_buf);
                        let t = self.counting_transfer_time(src_node, dst_node, bytes, hop_buf);
                        let mut ll = inner.link_load.borrow_mut();
                        for l in hop_buf.iter() {
                            ll[l.index()] += 1;
                        }
                        inner.inj_load.borrow_mut()[src_node] += 1;
                        inner.ej_load.borrow_mut()[dst_node] += 1;
                        t
                    };
                    inner.handle.sleep(t).await;
                    {
                        let mut scratch = inner.route_scratch.borrow_mut();
                        let (hop_buf, _) = &mut *scratch;
                        hop_buf.clear();
                        inner.torus.route_into(src_node, dst_node, hop_buf);
                        let mut ll = inner.link_load.borrow_mut();
                        for l in hop_buf.iter() {
                            ll[l.index()] -= 1;
                        }
                        inner.inj_load.borrow_mut()[src_node] -= 1;
                        inner.ej_load.borrow_mut()[dst_node] -= 1;
                    }
                }
            }
        }

        // Receive-side software overhead, serialized through the destination NIC.
        inner.nic[dst_node].serve(inner.side_overhead).await;
    }

    /// Counting-model bandwidth phase duration: the message runs at the
    /// bottleneck of its route (`hops`, precomputed by the caller) with the
    /// load sampled at start (self included).
    fn counting_transfer_time(
        &self,
        src_node: NodeId,
        dst_node: NodeId,
        bytes: u64,
        hops: &[TorusLink],
    ) -> SimDuration {
        let inner = &self.inner;
        let inj_dir = inner.cost.injection_dir_bps();
        let link_bw = inner.cost.links_bps(1);
        let inj_flows = (inner.inj_load.borrow()[src_node] + 1) as f64;
        let ej_flows = (inner.ej_load.borrow()[dst_node] + 1) as f64;
        let mut max_link_load = 1u32;
        {
            let ll = inner.link_load.borrow();
            for l in hops {
                max_link_load = max_link_load.max(ll[l.index()] + 1);
            }
        }
        let bw = (inj_dir / inj_flows)
            .min(inj_dir / ej_flows)
            .min(link_bw / max_link_load as f64);
        SimDuration::from_secs_f64(bytes as f64 / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use xtsim_des::Sim;
    use xtsim_machine::presets;

    fn small_xt4(ranks: usize, mode: ExecMode, contention: ContentionModel) -> PlatformConfig {
        let mut spec = presets::xt4();
        spec.torus_dims = [4, 4, 4];
        PlatformConfig {
            spec,
            mode,
            ranks,
            contention,
            placement: Placement::Block,
        }
    }

    fn run_one<F, Fut>(config: PlatformConfig, f: F) -> f64
    where
        F: FnOnce(Platform) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let mut sim = Sim::new(1);
        let plat = Platform::new(sim.handle(), config);
        sim.spawn(f(plat));
        sim.run().as_secs_f64()
    }

    #[test]
    fn block_placement_pairs_ranks_on_nodes() {
        let mut sim = Sim::new(0);
        let p = Platform::new(sim.handle(), small_xt4(8, ExecMode::VN, ContentionModel::Fluid));
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(1), 0);
        assert_eq!(p.node_of(2), 1);
        assert_eq!(p.node_of(7), 3);
        let p2 = Platform::new(sim.handle(), small_xt4(8, ExecMode::SN, ContentionModel::Fluid));
        assert_eq!(p2.node_of(1), 1);
        sim.run();
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversubscription_panics() {
        let mut sim = Sim::new(0);
        // 4x4x4 = 64 nodes, SN mode: max 64 ranks.
        let _ = Platform::new(sim.handle(), small_xt4(65, ExecMode::SN, ContentionModel::Fluid));
        sim.run();
    }

    #[test]
    fn small_message_latency_is_overhead_dominated() {
        // SN-mode XT4 8-byte message: ~ sw_overhead (3.8us) + hops*50ns.
        let t = run_one(
            small_xt4(2, ExecMode::SN, ContentionModel::Fluid),
            |p| async move {
                p.transmit(0, 1, 8).await;
            },
        );
        assert!(t > 3.8e-6 && t < 4.5e-6, "latency {t}");
    }

    #[test]
    fn vn_mode_latency_exceeds_sn() {
        let sn = run_one(
            small_xt4(4, ExecMode::SN, ContentionModel::Fluid),
            |p| async move { p.transmit(0, 2, 8).await },
        );
        // VN ranks 0,1 on node0; 4,5 on node2: same node distance (0->2 nodes).
        let vn = run_one(
            small_xt4(8, ExecMode::VN, ContentionModel::Fluid),
            |p| async move { p.transmit(0, 4, 8).await },
        );
        assert!(vn > sn, "vn {vn} <= sn {sn}");
    }

    #[test]
    fn large_message_bandwidth_approaches_injection_limit() {
        // 64 MB at ~2 GB/s per direction: ~32 ms.
        let bytes = 64u64 << 20;
        let t = run_one(
            small_xt4(2, ExecMode::SN, ContentionModel::Fluid),
            move |p| async move { p.transmit(0, 1, bytes).await },
        );
        let bw = bytes as f64 / t;
        assert!(bw > 1.8e9 && bw < 2.1e9, "bw {bw}");
    }

    #[test]
    fn counting_and_fluid_agree_without_contention() {
        let bytes = 8u64 << 20;
        let tf = run_one(
            small_xt4(2, ExecMode::SN, ContentionModel::Fluid),
            move |p| async move { p.transmit(0, 1, bytes).await },
        );
        let tc = run_one(
            small_xt4(2, ExecMode::SN, ContentionModel::Counting),
            move |p| async move { p.transmit(0, 1, bytes).await },
        );
        assert!((tf - tc).abs() / tf < 0.01, "fluid {tf} counting {tc}");
    }

    #[test]
    fn two_vn_senders_share_injection() {
        // Both cores of node 0 send large messages to different nodes: each
        // should see ~half the injection bandwidth.
        let bytes = 16u64 << 20;
        let solo = run_one(
            small_xt4(8, ExecMode::VN, ContentionModel::Fluid),
            move |p| async move { p.transmit(0, 4, bytes).await },
        );
        let both = run_one(small_xt4(8, ExecMode::VN, ContentionModel::Fluid), {
            move |p| async move {
                let p2 = p.clone();
                let h = p.handle().clone();
                let j = h.spawn(async move { p2.transmit(1, 6, bytes).await });
                p.transmit(0, 4, bytes).await;
                j.await;
            }
        });
        assert!(
            both > 1.7 * solo && both < 2.3 * solo,
            "solo {solo} both {both}"
        );
    }

    #[test]
    fn intra_node_message_skips_network() {
        let t = run_one(
            small_xt4(8, ExecMode::VN, ContentionModel::Fluid),
            |p| async move {
                p.transmit(0, 1, 0).await;
            },
        );
        // Half the software overhead only.
        assert!(t < 2.5e-6, "{t}");
    }

    #[test]
    fn compute_streaming_contends_between_cores() {
        // One core streaming 73 MB on XT4 (7.3 GB/s socket): 10 ms.
        let w = WorkPacket::streaming(1.0, 1.0, 73.0e6);
        let solo = run_one(
            small_xt4(8, ExecMode::VN, ContentionModel::Fluid),
            move |p| async move { p.compute(0, w).await },
        );
        assert!((solo - 0.01).abs() < 1e-4, "{solo}");
        let both = run_one(small_xt4(8, ExecMode::VN, ContentionModel::Fluid), {
            move |p| async move {
                let p2 = p.clone();
                let h = p.handle().clone();
                let j = h.spawn(async move { p2.compute(1, w).await });
                p.compute(0, w).await;
                j.await;
            }
        });
        assert!((both - 0.02).abs() < 2e-4, "{both}");
    }

    #[test]
    fn compute_flops_do_not_contend() {
        let w = WorkPacket::flops_only(5.2e7, 1.0); // 10 ms on a 5.2 GF core
        let both = run_one(small_xt4(8, ExecMode::VN, ContentionModel::Fluid), {
            move |p| async move {
                let p2 = p.clone();
                let h = p.handle().clone();
                let j = h.spawn(async move { p2.compute(1, w).await });
                p.compute(0, w).await;
                j.await;
            }
        });
        // Both cores finish in the same 10 ms: flops are core-private.
        assert!((both - 1e-2).abs() < 1e-5, "{both}");
    }

    #[test]
    fn random_refs_halve_per_core_in_vn() {
        // Paper Figure 6: EP-mode per-core GUPS is half of SP.
        let refs = 1.9e6; // 0.1 s at 0.019 GUPS
        let w = WorkPacket {
            random_refs: refs,
            flop_efficiency: 1.0,
            ..Default::default()
        };
        let solo = run_one(
            small_xt4(8, ExecMode::VN, ContentionModel::Fluid),
            move |p| async move { p.compute(0, w).await },
        );
        let both = run_one(small_xt4(8, ExecMode::VN, ContentionModel::Fluid), {
            move |p| async move {
                let p2 = p.clone();
                let h = p.handle().clone();
                let j = h.spawn(async move { p2.compute(1, w).await });
                p.compute(0, w).await;
                j.await;
            }
        });
        assert!((both / solo - 2.0).abs() < 0.01, "solo {solo} both {both}");
    }

    #[test]
    fn stats_accumulate() {
        let mut sim = Sim::new(0);
        let p = Platform::new(sim.handle(), small_xt4(8, ExecMode::VN, ContentionModel::Fluid));
        let p2 = p.clone();
        sim.spawn(async move {
            p2.transmit(0, 1, 100).await; // intra
            p2.transmit(0, 4, 200).await; // inter
        });
        sim.run();
        let s = p.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 300);
        assert_eq!(s.intra_node_messages, 1);
    }

    #[test]
    fn message_estimate_tracks_simulated_time() {
        let mut sim = Sim::new(0);
        let p = Platform::new(sim.handle(), small_xt4(2, ExecMode::SN, ContentionModel::Fluid));
        let est = p.message_time_estimate(1 << 20).as_secs_f64();
        let p2 = p.clone();
        let t = Rc::new(RefCell::new(0.0));
        let t2 = Rc::clone(&t);
        let h = sim.handle();
        sim.spawn(async move {
            p2.transmit(0, 1, 1 << 20).await;
            *t2.borrow_mut() = h.now().as_secs_f64();
        });
        sim.run();
        let sim_t = *t.borrow();
        assert!(
            (est - sim_t).abs() / sim_t < 0.25,
            "estimate {est} vs simulated {sim_t}"
        );
    }
}
