//! The MPI world: rank contexts, point-to-point matching, protocols.
//!
//! Matching semantics follow MPI: a receive names `(source, tag)` — either
//! may be a wildcard — and matches queued sends in arrival order. Two wire
//! protocols are modelled, switching at the NIC's eager threshold:
//!
//! * **eager** — payload travels immediately; the sender completes when the
//!   message is delivered into the receiver's unexpected-message queue;
//! * **rendezvous** — the sender transmits a zero-byte RTS, waits for the
//!   receiver's CTS (sent when the receive is matched), then streams the
//!   payload. This reproduces the large-message latency step in the paper's
//!   Figures 12–13.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;

use xtsim_des::trace::{self, SpanCategory};
use xtsim_des::{oneshot, JoinHandle, OneshotSender, Sim, SimDuration, SimHandle, SimTime};
use xtsim_machine::{ExecMode, MachineSpec, WorkPacket};
use xtsim_net::{Platform, PlatformConfig, Rank, TrafficStats};

use crate::comm::Comm;
use crate::message::Message;
use crate::profile::RankProfile;

/// Message tag.
pub type Tag = u64;

/// How collectives execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveMode {
    /// Run the real p2p algorithm (binomial trees, recursive doubling,
    /// pairwise exchange). Every message is simulated.
    Algorithmic,
    /// Use an analytic time model with a synchronization gate: O(ranks) per
    /// collective instead of O(ranks · log ranks) messages. Reductions still
    /// combine real data. For very large jobs (POP at 22,000 ranks); the
    /// application proxies pick it above 128 ranks.
    Modeled,
}

/// Configuration for [`World::new`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Platform (machine + mode + rank count + contention model).
    pub platform: PlatformConfig,
    /// Collective execution mode.
    pub collectives: CollectiveMode,
}

impl WorldConfig {
    /// Sensible defaults: algorithmic collectives.
    pub fn new(platform: PlatformConfig) -> Self {
        WorldConfig {
            platform,
            collectives: CollectiveMode::Algorithmic,
        }
    }
}

pub(crate) enum EnvelopeKind {
    Eager(Message),
    Rts {
        cts: OneshotSender<()>,
        payload: xtsim_des::OneshotReceiver<Message>,
    },
}

pub(crate) struct Envelope {
    pub src: Rank,
    pub tag: Tag,
    pub kind: EnvelopeKind,
}

struct PendingRecv {
    src: Option<Rank>,
    tag: Option<Tag>,
    slot: OneshotSender<Envelope>,
}

#[derive(Default)]
struct MatchEngine {
    unmatched: VecDeque<Envelope>,
    pending: VecDeque<PendingRecv>,
}

pub(crate) struct WorldInner {
    pub(crate) platform: Platform,
    engines: Vec<RefCell<MatchEngine>>,
    pub(crate) modeled_collectives: bool,
    pub(crate) gates: RefCell<std::collections::BTreeMap<(u64, u64), Rc<crate::gate::Gate>>>,
    pub(crate) profiles: RefCell<Vec<RankProfile>>,
    /// Collective nesting depth per rank: p2p inside a collective accrues
    /// to the collective, not to p2p.
    pub(crate) coll_depth: RefCell<Vec<u32>>,
}

/// A simulated MPI job on a simulated machine.
#[derive(Clone)]
pub struct World {
    pub(crate) inner: Rc<WorldInner>,
}

impl World {
    /// Build a world inside simulation `handle`.
    pub fn new(handle: SimHandle, config: WorldConfig) -> World {
        let ranks = config.platform.ranks;
        let platform = Platform::new(handle, config.platform);
        let modeled = config.collectives == CollectiveMode::Modeled;
        World {
            inner: Rc::new(WorldInner {
                platform,
                engines: (0..ranks).map(|_| RefCell::new(MatchEngine::default())).collect(),
                modeled_collectives: modeled,
                gates: RefCell::new(std::collections::BTreeMap::new()),
                profiles: RefCell::new(vec![RankProfile::default(); ranks]),
                coll_depth: RefCell::new(vec![0; ranks]),
            }),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.platform.ranks()
    }

    /// The per-rank MPI context (also the `MPI_COMM_WORLD` communicator).
    pub fn mpi(&self, rank: Rank) -> Mpi {
        assert!(rank < self.size(), "rank {rank} out of range");
        Mpi {
            world: Rc::clone(&self.inner),
            rank,
            world_comm: Comm::world(Rc::clone(&self.inner), rank),
        }
    }

    /// Underlying platform.
    pub fn platform(&self) -> &Platform {
        &self.inner.platform
    }

    /// Per-rank activity profiles accumulated so far.
    pub fn profiles(&self) -> Vec<RankProfile> {
        self.inner.profiles.borrow().clone()
    }
}

/// Per-rank MPI context handed to each simulated process.
#[derive(Clone)]
pub struct Mpi {
    pub(crate) world: Rc<WorldInner>,
    pub(crate) rank: Rank,
    world_comm: Comm,
}

impl Mpi {
    /// This process's rank in `MPI_COMM_WORLD`.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.platform.ranks()
    }

    /// The world communicator (collectives live on [`Comm`]).
    pub fn comm(&self) -> &Comm {
        &self.world_comm
    }

    /// Simulation handle (time queries, spawning, RNG streams).
    pub fn handle(&self) -> &SimHandle {
        self.world.platform.handle()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.handle().now()
    }

    /// Machine description this job runs on.
    pub fn machine(&self) -> &MachineSpec {
        self.world.platform.spec()
    }

    /// Execution mode (SN/VN).
    pub fn mode(&self) -> ExecMode {
        self.world.platform.mode()
    }

    /// Record a completed rank-attributed span into the active trace capture.
    fn trace_span(
        &self,
        category: SpanCategory,
        name: &'static str,
        t0: SimTime,
        args: Vec<(&'static str, f64)>,
    ) {
        trace::span(
            category,
            name,
            Some(self.rank as u32),
            Some(self.world.platform.node_of(self.rank) as u32),
            t0,
            self.now(),
            args,
        );
    }

    /// Execute a compute work packet on this rank's core.
    pub async fn compute(&self, work: WorkPacket) {
        let t0 = self.now();
        self.world.platform.compute(self.rank, work).await;
        let dt = (self.now() - t0).as_secs_f64();
        self.world.profiles.borrow_mut()[self.rank].compute_secs += dt;
        if trace::capture_active() {
            self.trace_span(SpanCategory::Compute, "compute", t0, Vec::new());
        }
    }

    /// This rank's accumulated activity profile.
    pub fn profile(&self) -> RankProfile {
        self.world.profiles.borrow()[self.rank]
    }

    fn in_collective(&self) -> bool {
        self.world.coll_depth.borrow()[self.rank] > 0
    }

    /// Sleep for simulated `dur` (models non-MPI serial work).
    pub async fn sleep(&self, dur: SimDuration) {
        self.handle().sleep(dur).await;
    }

    /// Wire-level transfer to `dst` without MPI matching: resolves when the
    /// payload has been delivered (NIC overheads, routing and contention all
    /// apply). Used by benchmarks whose traffic is one-sided by nature
    /// (e.g. MPI-RandomAccess update streams).
    pub async fn raw_transmit(&self, dst: Rank, bytes: u64) {
        let t0 = self.now();
        self.world.platform.transmit(self.rank, dst, bytes).await;
        if !self.in_collective() {
            let mut p = self.world.profiles.borrow_mut();
            p[self.rank].p2p_secs += (self.now() - t0).as_secs_f64();
            p[self.rank].messages_sent += 1;
            p[self.rank].bytes_sent += bytes;
            if trace::capture_active() {
                self.trace_span(
                    SpanCategory::P2p,
                    "transmit",
                    t0,
                    vec![("dst", dst as f64), ("bytes", bytes as f64)],
                );
            }
        }
    }

    /// Blocking send: completes when the message has been delivered to
    /// `dst`'s message queue (eager) or received (rendezvous).
    pub async fn send(&self, dst: Rank, tag: Tag, msg: Message) {
        let t0 = self.now();
        let bytes = msg.bytes;
        self.send_inner(dst, tag, msg).await;
        if !self.in_collective() {
            let mut p = self.world.profiles.borrow_mut();
            p[self.rank].p2p_secs += (self.now() - t0).as_secs_f64();
            p[self.rank].messages_sent += 1;
            p[self.rank].bytes_sent += bytes;
            drop(p);
            if trace::capture_active() {
                self.trace_span(
                    SpanCategory::P2p,
                    "send",
                    t0,
                    vec![("dst", dst as f64), ("bytes", bytes as f64)],
                );
            }
        }
    }

    async fn send_inner(&self, dst: Rank, tag: Tag, msg: Message) {
        let world = &self.world;
        let eager_limit = world.platform.nic_cost().eager_threshold_bytes();
        if msg.bytes <= eager_limit {
            world.platform.transmit(self.rank, dst, msg.bytes).await;
            deposit(
                world,
                dst,
                Envelope {
                    src: self.rank,
                    tag,
                    kind: EnvelopeKind::Eager(msg),
                },
            );
        } else {
            // Rendezvous: RTS → CTS → payload.
            let (cts_tx, cts_rx) = oneshot::<()>();
            let (payload_tx, payload_rx) = oneshot::<Message>();
            world.platform.transmit(self.rank, dst, 0).await; // RTS
            deposit(
                world,
                dst,
                Envelope {
                    src: self.rank,
                    tag,
                    kind: EnvelopeKind::Rts {
                        cts: cts_tx,
                        payload: payload_rx,
                    },
                },
            );
            cts_rx.await.expect("receiver vanished during rendezvous");
            world.platform.transmit(self.rank, dst, msg.bytes).await;
            payload_tx.send(msg);
        }
    }

    /// Nonblocking send: returns a handle to await for completion.
    pub fn isend(&self, dst: Rank, tag: Tag, msg: Message) -> JoinHandle<()> {
        let this = self.clone();
        self.handle()
            .spawn(async move { this.send(dst, tag, msg).await })
    }

    /// Blocking receive. `src`/`tag` of `None` are wildcards. Returns
    /// `(source, tag, message)`.
    pub async fn recv(&self, src: Option<Rank>, tag: Option<Tag>) -> (Rank, Tag, Message) {
        let t0 = self.now();
        let out = self.recv_inner(src, tag).await;
        if !self.in_collective() {
            self.world.profiles.borrow_mut()[self.rank].p2p_secs +=
                (self.now() - t0).as_secs_f64();
            if trace::capture_active() {
                self.trace_span(
                    SpanCategory::P2p,
                    "recv",
                    t0,
                    vec![("src", out.0 as f64), ("bytes", out.2.bytes as f64)],
                );
            }
        }
        out
    }

    async fn recv_inner(&self, src: Option<Rank>, tag: Option<Tag>) -> (Rank, Tag, Message) {
        let env = {
            let mut engine = self.world.engines[self.rank].borrow_mut();
            if let Some(pos) = engine
                .unmatched
                .iter()
                .position(|e| matches(src, tag, e.src, e.tag))
            {
                Ok(engine.unmatched.remove(pos).expect("position valid"))
            } else {
                let (slot, waiter) = oneshot::<Envelope>();
                engine.pending.push_back(PendingRecv { src, tag, slot });
                Err(waiter)
            }
        };
        let env = match env {
            Ok(env) => env,
            Err(waiter) => waiter.await.expect("world torn down mid-receive"),
        };
        self.complete_recv(env).await
    }

    /// Nonblocking receive.
    pub fn irecv(&self, src: Option<Rank>, tag: Option<Tag>) -> JoinHandle<(Rank, Tag, Message)> {
        let this = self.clone();
        self.handle()
            .spawn(async move { this.recv(src, tag).await })
    }

    /// Combined send+receive (both proceed concurrently, like
    /// `MPI_Sendrecv`). Returns the received `(source, tag, message)`.
    pub async fn sendrecv(
        &self,
        dst: Rank,
        send_tag: Tag,
        msg: Message,
        src: Option<Rank>,
        recv_tag: Option<Tag>,
    ) -> (Rank, Tag, Message) {
        let send = self.isend(dst, send_tag, msg);
        let out = self.recv(src, recv_tag).await;
        send.await;
        out
    }

    async fn complete_recv(&self, env: Envelope) -> (Rank, Tag, Message) {
        match env.kind {
            EnvelopeKind::Eager(msg) => (env.src, env.tag, msg),
            EnvelopeKind::Rts { cts, payload } => {
                // CTS control message back to the sender costs wire time.
                self.world.platform.transmit(self.rank, env.src, 0).await;
                cts.send(());
                let msg = payload.await.expect("sender vanished during rendezvous");
                (env.src, env.tag, msg)
            }
        }
    }

    /// Traffic statistics of the whole job.
    pub fn stats(&self) -> TrafficStats {
        self.world.platform.stats()
    }
}

fn matches(want_src: Option<Rank>, want_tag: Option<Tag>, src: Rank, tag: Tag) -> bool {
    want_src.is_none_or(|s| s == src) && want_tag.is_none_or(|t| t == tag)
}

fn deposit(world: &WorldInner, dst: Rank, env: Envelope) {
    let mut engine = world.engines[dst].borrow_mut();
    if let Some(pos) = engine
        .pending
        .iter()
        .position(|p| matches(p.src, p.tag, env.src, env.tag))
    {
        let pending = engine.pending.remove(pos).expect("position valid");
        drop(engine);
        pending.slot.send(env);
    } else {
        engine.unmatched.push_back(env);
    }
}

/// Outcome of [`simulate`].
#[derive(Debug, Clone, Copy)]
pub struct SimOutcome {
    /// Instant of the last event the run popped ([`Sim::run`]'s return).
    /// That is usually when the last rank finished, but not always: a fluid
    /// completion superseded when its flow sped up stays queued and fires
    /// as a no-op later, so this can lie past the last rank's finish.
    pub end_time: SimTime,
    /// Wire traffic totals.
    pub traffic: TrafficStats,
}

/// Run an SPMD program (`f` is instantiated once per rank) to completion and
/// return the simulated end time. The standard entry point for benchmarks:
///
/// ```
/// use xtsim_mpi::{simulate, WorldConfig, Message};
/// use xtsim_net::PlatformConfig;
/// use xtsim_machine::{presets, ExecMode};
///
/// let mut spec = presets::xt4();
/// spec.torus_dims = [2, 2, 2];
/// let cfg = WorldConfig::new(PlatformConfig::new(spec, ExecMode::SN, 2));
/// let out = simulate(7, cfg, |mpi| async move {
///     if mpi.rank() == 0 {
///         mpi.send(1, 0, Message::of_bytes(1024)).await;
///     } else {
///         mpi.recv(None, None).await;
///     }
/// });
/// assert!(out.end_time.as_secs_f64() > 0.0);
/// ```
pub fn simulate<F, Fut>(seed: u64, config: WorldConfig, f: F) -> SimOutcome
where
    F: Fn(Mpi) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    let mut sim = Sim::new(seed);
    let world = World::new(sim.handle(), config);
    for r in 0..world.size() {
        sim.spawn(f(world.mpi(r)));
    }
    let end_time = sim.run();
    SimOutcome {
        end_time,
        traffic: world.platform().stats(),
    }
}

/// Like [`simulate`], additionally returning the per-rank activity profiles
/// (see [`crate::RankProfile`]).
pub fn simulate_profiled<F, Fut>(
    seed: u64,
    config: WorldConfig,
    f: F,
) -> (SimOutcome, Vec<RankProfile>)
where
    F: Fn(Mpi) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    let mut sim = Sim::new(seed);
    let world = World::new(sim.handle(), config);
    for r in 0..world.size() {
        sim.spawn(f(world.mpi(r)));
    }
    let end_time = sim.run();
    (
        SimOutcome {
            end_time,
            traffic: world.platform().stats(),
        },
        world.profiles(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtsim_machine::{presets, NicCost};
    use xtsim_net::ContentionModel;

    pub(crate) fn tiny_config(ranks: usize, mode: ExecMode) -> WorldConfig {
        let mut spec = presets::xt4();
        spec.torus_dims = [4, 4, 4];
        let mut p = PlatformConfig::new(spec, mode, ranks);
        p.contention = ContentionModel::Fluid;
        WorldConfig::new(p)
    }

    #[test]
    fn send_recv_roundtrip_carries_data() {
        let out = simulate(0, tiny_config(2, ExecMode::SN), |mpi| async move {
            if mpi.rank() == 0 {
                mpi.send(1, 42, Message::from_values(vec![1.0, 2.0, 3.0]))
                    .await;
            } else {
                let (src, tag, msg) = mpi.recv(None, None).await;
                assert_eq!(src, 0);
                assert_eq!(tag, 42);
                assert_eq!(msg.values(), &[1.0, 2.0, 3.0]);
            }
        });
        assert!(out.end_time > SimTime::ZERO);
        assert_eq!(out.traffic.messages, 1);
    }

    #[test]
    fn tag_matching_selects_correct_message() {
        simulate(0, tiny_config(2, ExecMode::SN), |mpi| async move {
            if mpi.rank() == 0 {
                mpi.send(1, 7, Message::from_values(vec![7.0])).await;
                mpi.send(1, 8, Message::from_values(vec![8.0])).await;
            } else {
                // Receive tag 8 first even though 7 arrived first.
                let (_, tag, msg) = mpi.recv(None, Some(8)).await;
                assert_eq!(tag, 8);
                assert_eq!(msg.values(), &[8.0]);
                let (_, tag, msg) = mpi.recv(None, Some(7)).await;
                assert_eq!(tag, 7);
                assert_eq!(msg.values(), &[7.0]);
            }
        });
    }

    #[test]
    fn wildcard_recv_takes_arrival_order() {
        simulate(0, tiny_config(3, ExecMode::SN), |mpi| async move {
            match mpi.rank() {
                0 => {
                    // Serialize arrivals: rank 1 sends immediately, rank 2
                    // is farther; both deposit, rank 0 receives in order.
                    let (s1, _, _) = mpi.recv(None, None).await;
                    let (s2, _, _) = mpi.recv(None, None).await;
                    assert_ne!(s1, s2);
                }
                r => {
                    mpi.send(0, r as Tag, Message::of_bytes(8)).await;
                }
            }
        });
    }

    #[test]
    fn rendezvous_path_matches_large_messages() {
        let cfg = tiny_config(2, ExecMode::SN);
        let big = 1u64 << 20; // > 64 KiB eager threshold
        let out = simulate(0, cfg, move |mpi| async move {
            if mpi.rank() == 0 {
                mpi.send(1, 0, Message::of_bytes(big)).await;
            } else {
                // Receiver posts late: the RTS waits, then CTS releases payload.
                mpi.sleep(SimDuration::from_us(100)).await;
                let (_, _, msg) = mpi.recv(Some(0), Some(0)).await;
                assert_eq!(msg.bytes, big);
            }
        });
        // Payload cannot start before the receiver posts at 100us.
        assert!(out.end_time.as_secs_f64() > 100e-6);
        // RTS + CTS + payload = 3 wire messages.
        assert_eq!(out.traffic.messages, 3);
    }

    #[test]
    fn rendezvous_costs_three_nic_priced_messages() {
        // One hop, receiver posted at once: an eager message costs one
        // closed-form NicCost message, one byte more costs three (RTS, CTS,
        // payload). On XT4 that byte adds 7.701 µs in SN and 16.101 µs in
        // VN, while `message_time_estimate` adds its flat
        // `rendezvous_latency_us` (6 µs) and the byte.
        for mode in [ExecMode::SN, ExecMode::VN] {
            let cfg = tiny_config(4, mode);
            let cost = NicCost::new(&cfg.platform.spec, mode);
            // Rank `peer` is the first rank on node 1.
            let peer = cfg.platform.spec.ranks_per_node(mode);
            let price = |bytes: u64| {
                let side = SimDuration::from_secs_f64(cost.side_overhead_s());
                let hop = SimDuration::from_secs_f64(cost.hop_latency_s(1.0));
                let wire_bps = cost.injection_dir_bps().min(cost.links_bps(1));
                side + hop + SimDuration::from_secs_f64(bytes as f64 / wire_bps) + side
            };
            let time = |bytes: u64| {
                let out = simulate(0, cfg.clone(), move |mpi| async move {
                    if mpi.rank() == 0 {
                        mpi.send(peer, 0, Message::of_bytes(bytes)).await;
                    } else if mpi.rank() == peer {
                        mpi.recv(Some(0), Some(0)).await;
                    }
                });
                out.end_time - SimTime::ZERO
            };
            let eager = cost.eager_threshold_bytes();
            assert_eq!(time(eager), price(eager), "{mode} eager");
            assert_eq!(
                time(eager + 1),
                price(0) + price(0) + price(eager + 1),
                "{mode} rendezvous"
            );
        }
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        simulate(0, tiny_config(2, ExecMode::SN), |mpi| async move {
            let peer = 1 - mpi.rank();
            let mine = vec![mpi.rank() as f64; 4];
            let (src, _, msg) = mpi
                .sendrecv(peer, 5, Message::from_values(mine), Some(peer), Some(5))
                .await;
            assert_eq!(src, peer);
            assert_eq!(msg.values()[0], peer as f64);
        });
    }

    #[test]
    fn isend_overlaps_with_compute() {
        let out = simulate(0, tiny_config(2, ExecMode::SN), |mpi| async move {
            if mpi.rank() == 0 {
                let h = mpi.isend(1, 0, Message::of_bytes(1024));
                mpi.sleep(SimDuration::from_ms(1)).await; // overlapped work
                h.await;
                // Send (microseconds) hides entirely inside the 1 ms sleep.
                assert!(mpi.now().as_secs_f64() < 1.1e-3);
            } else {
                mpi.recv(None, None).await;
            }
        });
        assert!(out.end_time.as_secs_f64() < 1.1e-3);
    }

    #[test]
    fn ping_pong_latency_matches_platform() {
        // 8-byte ping-pong between adjacent nodes: RTT/2 ~ 4us on XT4 SN.
        let reps = 10u64;
        let out = simulate(0, tiny_config(2, ExecMode::SN), move |mpi| async move {
            for i in 0..reps {
                if mpi.rank() == 0 {
                    mpi.send(1, i, Message::of_bytes(8)).await;
                    mpi.recv(Some(1), Some(i)).await;
                } else {
                    mpi.recv(Some(0), Some(i)).await;
                    mpi.send(0, i, Message::of_bytes(8)).await;
                }
            }
        });
        let half_rtt = out.end_time.as_secs_f64() / (2.0 * reps as f64);
        assert!(
            half_rtt > 3.5e-6 && half_rtt < 5.5e-6,
            "one-way latency {half_rtt}"
        );
    }
}
