//! The discrete-event simulation core: event heap + single-threaded async executor.
//!
//! Every simulated entity (an MPI rank, a NIC, an I/O server) is an ordinary
//! Rust `Future` spawned onto the [`Sim`]. Futures block on simulated
//! conditions (timers, channels, resources); the executor interleaves them in
//! a strictly deterministic order:
//!
//! 1. run every ready task (FIFO) at the current instant;
//! 2. pop the earliest pending event, advance the clock, fire it (which
//!    typically wakes a task);
//! 3. repeat until no events and no ready tasks remain.
//!
//! Events at the same instant fire in the order they were scheduled, so two
//! runs of the same program produce identical schedules.
//!
//! The event queue is **time-bucketed**: a min-heap holds each *distinct*
//! pending timestamp once, and a side table maps the timestamp to the FIFO of
//! actions scheduled for it. Draining a burst of same-time events (an alltoall
//! step completing, a barrier releasing) then costs one heap pop for the whole
//! bucket instead of one sift-down per event, and scheduling into an existing
//! instant is O(1).
//!
//! # Tie-breaking at equal timestamps
//!
//! Every event carries a monotone **scheduling sequence number** (`seq`),
//! assigned at push time by [`SimCore::schedule`]. Within one instant, events
//! fire in ascending seq — i.e. *the order they were scheduled*, regardless
//! of which task scheduled them. This is the complete tie-break contract;
//! there is no secondary key. The push sites, audited:
//!
//! * [`SimHandle::sleep`] / [`SimHandle::sleep_until`] — the timer registers
//!   its wake on **first poll**, so two sleeps with the same deadline fire in
//!   the order the sleeping tasks first polled (for freshly spawned tasks:
//!   spawn order).
//! * [`SimHandle::call_at`] — scheduled immediately at call time.
//! * Oneshot/`Notify`/barrier wakes — not events at all: wakers go
//!   straight onto the ready FIFO and run at the *current* instant, ordered
//!   by wake order.
//! * Fluid-pool completions ([`crate::FluidPool`]) — the one exception: a
//!   pool's pending completions take the seq of the pool's **most recent
//!   rebalance** and order among themselves by flow uid. Each instant keeps
//!   them in one lane per pool, indexed by pool, plus a min-heap of the
//!   lanes' seqs; [`SimCore::touch_flow_source`] only ever raises a pool's
//!   seq, so a heap key can only be stale *low* and is re-keyed when it
//!   reaches the top. A pop fires the lower-seq one of the FIFO front and
//!   the heap's top lane, in O(log lanes), and picks exactly the lane a
//!   scan of every lane would (see [`Bucket`] for the invariant).
//!
//! Two runs of the same program therefore produce byte-identical schedules.
//!
//! # Task storage
//!
//! The task table is a slab of slots. [`SimHandle::spawn`] boxes the
//! caller's future once, together with the state its [`JoinHandle`] reads
//! (a [`Spawned`]), and parks it in a free slot with a [`Waker`] built for
//! it there and then. Every poll of the task hands out that same waker, so
//! polling allocates no waker. While a task is being polled its slot is empty;
//! a `Pending` poll parks it back, a `Ready` one drops it and puts the slot on
//! a free list, from which the next spawn takes it.
//!
//! Each slot carries a **generation**, bumped when its task finishes. The
//! waker and every ready-queue entry it pushes name the slot *and* the
//! generation, and the run loop skips an entry whose generation no longer
//! matches: a stale wake of a finished task (a timer it left behind, a
//! waker a peer kept) is dropped exactly as a wake of an empty slot is, and
//! never polls the task that now holds the slot. Slot ids and waker
//! identities are not observable, so recycling changes no poll order, event
//! order or `seq`.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::hash::{BuildHasherDefault, Hasher};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use crate::time::{SimDuration, SimTime};

type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// What happens when an event fires.
pub(crate) enum EventAction {
    /// Wake an async task waker.
    Wake(Waker),
    /// Run an arbitrary callback (used by the fluid model for flow completion).
    Call(Box<dyn FnOnce()>),
}

/// Identifies one registered flow source (a `FluidPool`) for deferred
/// same-instant ordering of its completion events.
pub(crate) type FlowSourceId = usize;

/// One pending instant's events.
///
/// The `fifo` lane holds ordinary events in schedule order (their seq is
/// recorded at push time and is monotone, so the deque is seq-sorted). Fluid
/// completion events sit in per-source lanes (`flows`, indexed by source),
/// each ordered by flow uid. A lane's effective seq is *dynamic* — the seq
/// of the owning pool's most recent rebalance (`flow_seq[source]`) — because
/// the legacy rebalancer re-enqueued every completion event of the pool on
/// every rebalance, which placed them behind any ordinary event scheduled
/// earlier. Replaying that ordering from a single per-pool counter keeps
/// schedules bit-identical to the historical global-rebalance
/// implementation without ever re-queueing an event whose ETA did not move.
///
/// `order` holds exactly one `(key, source)` entry per live lane, and a lane
/// is dropped as soon as it empties. Keys are refreshed lazily, which is
/// exact because of two invariants:
///
/// * a key is never above its source's current `flow_seq`:
///   [`SimCore::touch_flow_source`] only ever replaces that with a fresh,
///   larger counter value, so an entry can go stale only *low*;
/// * live lanes have pairwise distinct `flow_seq`s: a pool touches itself
///   before it queues a completion, and every touch draws a fresh value.
///
/// So a fresh top entry names the lane with the smallest effective seq —
/// the lane a scan of every lane would pick — and a stale top is re-keyed in
/// place and sifted down until the top is fresh.
#[derive(Default)]
struct Bucket {
    fifo: VecDeque<(u64, EventAction)>,
    flows: HashMap<FlowSourceId, BTreeMap<u64, EventAction>, BuildHasherDefault<WordHasher>>,
    order: BinaryHeap<Reverse<(u64, FlowSourceId)>>,
}

impl Bucket {
    fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.flows.is_empty()
    }

    /// `(flow_seq, source)` of the flow lane that fires next, re-keying
    /// stale heap tops on the way.
    fn first_flow(&mut self, flow_seq: &[u64]) -> Option<(u64, FlowSourceId)> {
        loop {
            let mut top = self.order.peek_mut()?;
            let Reverse((key, source)) = *top;
            let current = flow_seq[source];
            if key == current {
                return Some((key, source));
            }
            *top = Reverse((current, source)); // sifted down when `top` drops
        }
    }

    /// Pop the first event of `source`'s lane, which must be the heap's top,
    /// and drop the lane once it empties.
    fn pop_flow(&mut self, source: FlowSourceId) -> Option<EventAction> {
        let lane = self.flows.get_mut(&source)?;
        let (_, action) = lane.pop_first()?;
        if lane.is_empty() {
            self.flows.remove(&source);
            self.order.pop();
        }
        Some(action)
    }
}

/// Multiplicative hasher for the bucket table and the per-bucket lane
/// index, whose keys are single words (`u64` timestamps, flow-source ids).
/// The default SipHash showed up as the dominant per-event cost in
/// `des_events/sleep_chain_100k` (every push and pop does a bucket-table
/// probe); one Fibonacci-style multiply mixes the low bits into the high
/// bits hashbrown uses for control bytes, which is plenty for timestamps and
/// dense ids and costs ~1ns. Not DoS-resistant — irrelevant for a simulator
/// hashing its own clock values and pool numbers.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// How many drained buckets [`EventQueue::pop`] keeps for reuse.
const SPARE_BUCKETS: usize = 32;

/// Largest FIFO capacity a drained bucket may have and still be kept. A
/// lock-step instant (every POP rank finishing a phase together) grows its
/// FIFO to thousands of entries; keeping such a bucket would pin that
/// capacity for the rest of the run, while the small buckets of ordinary
/// instants are the ones worth reusing.
const SPARE_FIFO_CAP: usize = 256;

/// Time-bucketed pending-event queue.
///
/// Invariant: a timestamp is in `times` **iff** `buckets` holds a non-empty
/// bucket for it, and it appears in `times` exactly once. Draining a burst of
/// same-time events costs one heap pop for the whole bucket instead of one
/// sift-down per event, and scheduling into an existing instant is O(1).
#[derive(Default)]
struct EventQueue {
    /// Distinct pending timestamps (min-heap).
    times: BinaryHeap<Reverse<SimTime>>,
    buckets: HashMap<SimTime, Bucket, BuildHasherDefault<WordHasher>>,
    /// Drained buckets kept for reuse, so steady-state scheduling is
    /// allocation-free: at most [`SPARE_BUCKETS`] of them, each with a FIFO
    /// of at most [`SPARE_FIFO_CAP`] entries.
    spare: Vec<Bucket>,
    len: usize,
}

impl EventQueue {
    fn bucket_for(&mut self, time: SimTime) -> &mut Bucket {
        self.len += 1;
        match self.buckets.entry(time) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let bucket = self.spare.pop().unwrap_or_default();
                self.times.push(Reverse(time));
                e.insert(bucket)
            }
        }
    }

    fn push(&mut self, time: SimTime, seq: u64, action: EventAction) {
        self.bucket_for(time).fifo.push_back((seq, action));
    }

    /// Queue a fluid completion event for `(source, uid)`; `seq` is the
    /// source's current `flow_seq`. A stale entry for the same flow at the
    /// same instant (superseded generation) is simply overwritten — firing it
    /// once is equivalent to firing a no-op twice.
    fn push_flow(
        &mut self,
        time: SimTime,
        source: FlowSourceId,
        seq: u64,
        uid: u64,
        action: EventAction,
    ) {
        let bucket = self.bucket_for(time);
        match bucket.flows.entry(source) {
            Entry::Occupied(lane) => {
                if lane.into_mut().insert(uid, action).is_some() {
                    self.len -= 1;
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(BTreeMap::new()).insert(uid, action);
                bucket.order.push(Reverse((seq, source)));
            }
        }
    }

    /// Remove and return the earliest event. Within an instant, ordinary
    /// events fire in schedule order and each pool's completions fire in uid
    /// order at the position of the pool's latest rebalance (`flow_seq`).
    fn pop(&mut self, flow_seq: &[u64]) -> Option<(SimTime, EventAction)> {
        let &Reverse(time) = self.times.peek()?;
        let bucket = self.buckets.get_mut(&time).expect("bucket for queued time");
        // Fire whichever lane holds the smallest effective seq.
        let fifo_seq = bucket.fifo.front().map(|&(s, _)| s);
        let first_flow = bucket.first_flow(flow_seq);
        // The `?`s below are unreachable by construction — `fifo_seq` /
        // `first_flow` only name non-empty lanes — so the happy path is
        // untouched and the hot path stays panic-free.
        let action = match (fifo_seq, first_flow) {
            (Some(fs), Some((ps, source))) if ps < fs => bucket.pop_flow(source)?,
            (Some(_), _) => bucket.fifo.pop_front()?.1,
            (None, Some((_, source))) => bucket.pop_flow(source)?,
            (None, None) => unreachable!("queued time with empty bucket"),
        };
        self.len -= 1;
        if bucket.is_empty() {
            self.times.pop();
            if let Some(empty) = self.buckets.remove(&time) {
                if self.spare.len() < SPARE_BUCKETS && empty.fifo.capacity() <= SPARE_FIFO_CAP {
                    self.spare.push(empty);
                }
            }
        }
        Some((time, action))
    }

    /// Pre-size for `additional` more events beyond the current count.
    fn reserve(&mut self, additional: usize) {
        self.times.reserve(additional);
        self.buckets.reserve(additional);
    }

    fn clear(&mut self) {
        self.times.clear();
        self.buckets.clear();
        self.spare.clear();
        self.len = 0;
    }
}

/// A task's slot in the task table and the slot's generation when the task
/// was spawned (see "Task storage" in the module docs).
type TaskRef = (usize, u64);

/// Shared FIFO of runnable tasks. `Waker` must be `Send + Sync`, hence the
/// mutex, even though the simulation itself is single-threaded.
type ReadyQueue = Arc<Mutex<VecDeque<TaskRef>>>;

struct TaskWaker {
    task: TaskRef,
    ready: ReadyQueue,
}

impl std::task::Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        // A poisoned ready queue only means another thread panicked mid-push;
        // the VecDeque itself is still consistent, so waking must not turn
        // one panic into an abort-grade double panic.
        // xtsim-lint: allow(blocking-in-poll, "ready-queue mutex is held for one push_back; uncontended in the single-threaded executor (Waker: Sync forces a lock)")
        self.ready.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push_back(self.task);
    }
}

/// A spawned task: its future, boxed once, and the waker every poll of it
/// uses.
struct Task {
    fut: LocalFuture,
    waker: Waker,
}

struct TaskSlot {
    /// Bumped each time the slot's task finishes; wakes that name an older
    /// generation are stale.
    generation: u64,
    /// The task parked here between polls; `None` while it is being polled
    /// and while the slot is free.
    task: Option<Task>,
}

/// Slab of task slots with a free list of finished tasks' slots.
#[derive(Default)]
struct TaskTable {
    slots: Vec<TaskSlot>,
    free: Vec<usize>,
}

impl TaskTable {
    /// Store `fut` in a free slot (a fresh one if none is free) and return
    /// the task's reference.
    fn insert(&mut self, fut: LocalFuture, ready: &ReadyQueue) -> TaskRef {
        let slot = self.free.pop().unwrap_or(self.slots.len());
        let generation = self.slots.get(slot).map_or(0, |entry| entry.generation);
        let task = (slot, generation);
        let waker = Waker::from(Arc::new(TaskWaker { task, ready: Arc::clone(ready) }));
        let entry = TaskSlot { generation, task: Some(Task { fut, waker }) };
        match self.slots.get_mut(slot) {
            Some(free) => *free = entry,
            None => self.slots.push(entry),
        }
        task
    }

    /// Take `task` out of its slot for polling; `None` if the wake is stale
    /// (the task finished, so its slot's generation moved on).
    fn take(&mut self, (slot, generation): TaskRef) -> Option<Task> {
        let entry = self.slots.get_mut(slot)?;
        if entry.generation != generation {
            return None;
        }
        entry.task.take()
    }

    /// Put a task that returned `Pending` back into its slot.
    fn park(&mut self, (slot, _): TaskRef, task: Task) {
        if let Some(entry) = self.slots.get_mut(slot) {
            entry.task = Some(task);
        }
    }

    /// Free the slot of a finished task and stale its outstanding wakes.
    fn release(&mut self, (slot, _): TaskRef) {
        if let Some(entry) = self.slots.get_mut(slot) {
            entry.generation += 1;
            self.free.push(slot);
        }
    }

    /// Tasks spawned and not yet finished, including one being polled.
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

pub(crate) struct SimCore {
    now: Cell<SimTime>,
    events: RefCell<EventQueue>,
    /// Monotone scheduling counter; orders same-instant events.
    seq: Cell<u64>,
    /// Per flow source: seq of its most recent rebalance (see `Bucket`).
    flow_seq: RefCell<Vec<u64>>,
    tasks: RefCell<TaskTable>,
    ready: ReadyQueue,
    base_seed: u64,
}

impl SimCore {
    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// Schedule `action` to fire at `time` (clamped to never be in the past).
    pub(crate) fn schedule(&self, time: SimTime, action: EventAction) {
        let time = time.max(self.now.get());
        let seq = self.next_seq();
        self.events.borrow_mut().push(time, seq, action);
    }

    /// Register a fluid pool as a flow source and return its id.
    pub(crate) fn register_flow_source(&self) -> FlowSourceId {
        let mut fs = self.flow_seq.borrow_mut();
        fs.push(0);
        fs.len() - 1
    }

    /// Record that `source` just rebalanced: its pending completion events
    /// now order *after* every event scheduled so far at their instants.
    pub(crate) fn touch_flow_source(&self, source: FlowSourceId) {
        let seq = self.next_seq();
        self.flow_seq.borrow_mut()[source] = seq;
    }

    /// Schedule a fluid completion event for `(source, uid)` at `time`.
    pub(crate) fn schedule_flow(
        &self,
        time: SimTime,
        source: FlowSourceId,
        uid: u64,
        action: EventAction,
    ) {
        let time = time.max(self.now.get());
        let seq = self.flow_seq.borrow()[source];
        self.events.borrow_mut().push_flow(time, source, seq, uid, action);
    }

    /// Pre-size the event queue for `additional` more events (used by the
    /// fluid model, which keeps one live completion event per active flow).
    pub(crate) fn reserve_events(&self, additional: usize) {
        self.events.borrow_mut().reserve(additional);
    }

    /// Store a new task and queue its first poll at the current instant.
    fn spawn_task(&self, fut: LocalFuture) {
        let task = self.tasks.borrow_mut().insert(fut, &self.ready);
        self.ready.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push_back(task);
    }
}

/// A handle to the simulation, cheaply cloneable into spawned futures.
///
/// The handle is the ambient "operating system" of a simulated entity: it
/// tells the time, sleeps, spawns siblings, and hands out deterministic RNG
/// streams.
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) core: Rc<SimCore>,
}

impl SimHandle {
    /// Current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Sleep until `deadline` (completes immediately if already past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            core: Rc::clone(&self.core),
            deadline,
            registered: false,
        }
    }

    /// Sleep for `dur` simulated time.
    pub fn sleep(&self, dur: SimDuration) -> Sleep {
        self.sleep_until(self.now() + dur)
    }

    /// Spawn a new task. The returned [`JoinHandle`] resolves to the task's output.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let state: Rc<RefCell<JoinState<T>>> = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
        }));
        self.core.spawn_task(Box::pin(Spawned {
            fut: Some(fut),
            state: Rc::clone(&state),
        }));
        JoinHandle { state }
    }

    /// A deterministic RNG stream derived from the simulation seed and `stream`.
    ///
    /// Distinct `stream` values give statistically independent sequences, and
    /// the same `(seed, stream)` pair always yields the same sequence.
    pub fn rng(&self, stream: u64) -> rand_chacha::ChaCha8Rng {
        use rand::SeedableRng;
        let mixed = self
            .core
            .base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rand_chacha::ChaCha8Rng::seed_from_u64(mixed)
    }

    /// Schedule a callback to run at absolute time `at`.
    pub fn call_at(&self, at: SimTime, f: impl FnOnce() + 'static) {
        self.core.schedule(at, EventAction::Call(Box::new(f)));
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// What [`SimHandle::spawn`] boxes: the caller's future, stored once, and
/// the join state its output goes to.
///
/// An `async move { let out = fut.await; ... }` wrapper would keep `fut`
/// twice in its state machine, once as the captured variable and once as the
/// value being awaited, doubling every task's allocation.
struct Spawned<F: Future> {
    /// `None` once the future has finished and been dropped.
    fut: Option<F>,
    state: Rc<RefCell<JoinState<F::Output>>>,
}

impl<F: Future> Future for Spawned<F> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: pin projection. `fut` is structurally pinned: it is only
        // ever reached through the `Pin` made here, polled in place and
        // dropped in place by `Pin::set`, and `Spawned` has no `Drop` impl
        // that could move it. `state` is not pinned and only borrowed.
        let (mut fut, state) = unsafe {
            let this = self.get_unchecked_mut();
            (Pin::new_unchecked(&mut this.fut), &this.state)
        };
        let Some(inner) = fut.as_mut().as_pin_mut() else {
            return Poll::Ready(());
        };
        let Poll::Ready(out) = inner.poll(cx) else {
            return Poll::Pending;
        };
        // Drop the finished future before its output is published and the
        // joiner woken, as awaiting it inside a wrapper future would.
        fut.set(None);
        let mut st = state.borrow_mut();
        st.result = Some(out);
        if let Some(w) = st.waker.take() {
            w.wake();
        }
        Poll::Ready(())
    }
}

/// Future resolving to a spawned task's output.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if let Some(out) = st.result.take() {
            Poll::Ready(out)
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

impl<T> JoinHandle<T> {
    /// True once the task has finished (its output is buffered).
    pub fn is_finished(&self) -> bool {
        self.state.borrow().result.is_some()
    }
}

/// Timer future returned by [`SimHandle::sleep`] / [`SimHandle::sleep_until`].
pub struct Sleep {
    core: Rc<SimCore>,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.core.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            self.core
                .schedule(self.deadline, EventAction::Wake(cx.waker().clone()));
            self.registered = true;
        }
        Poll::Pending
    }
}

/// A deterministic discrete-event simulation.
pub struct Sim {
    handle: SimHandle,
}

impl Sim {
    /// Create a simulation whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Sim {
        let core = Rc::new(SimCore {
            now: Cell::new(SimTime::ZERO),
            events: RefCell::new(EventQueue::default()),
            seq: Cell::new(0),
            flow_seq: RefCell::new(Vec::new()),
            tasks: RefCell::new(TaskTable::default()),
            ready: Arc::new(Mutex::new(VecDeque::new())),
            base_seed: seed,
        });
        Sim {
            handle: SimHandle { core },
        }
    }

    /// Handle for spawning and time queries.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawn a root task.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        self.handle.spawn(fut)
    }

    /// Run until no ready tasks and no pending events remain.
    ///
    /// Returns the instant of the last event popped, which can be a stale
    /// fluid completion firing after every task has finished. Panics if the
    /// run ends with live tasks still blocked (a deadlock in the simulated
    /// program), because a silently half-finished simulation would corrupt
    /// every measurement derived from it.
    pub fn run(&mut self) -> SimTime {
        let core = &self.handle.core;
        loop {
            // Phase 1: drain the ready queue at the current instant.
            loop {
                let next = core
                    .ready
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .pop_front();
                let Some(task_ref) = next else { break };
                let task = core.tasks.borrow_mut().take(task_ref);
                let Some(mut task) = task else { continue }; // stale wake of a finished task
                let mut cx = Context::from_waker(&task.waker);
                match task.fut.as_mut().poll(&mut cx) {
                    Poll::Ready(()) => {
                        drop(task);
                        core.tasks.borrow_mut().release(task_ref);
                    }
                    Poll::Pending => core.tasks.borrow_mut().park(task_ref, task),
                }
            }
            // Phase 2: advance time to the next event.
            let entry = {
                let flow_seq = core.flow_seq.borrow();
                core.events.borrow_mut().pop(&flow_seq)
            };
            match entry {
                Some((time, action)) => {
                    debug_assert!(time >= core.now());
                    core.now.set(time);
                    match action {
                        EventAction::Wake(w) => w.wake(),
                        EventAction::Call(f) => f(),
                    }
                }
                None => break,
            }
        }
        self.assert_quiescent();
        core.now()
    }

    /// Panic unless every spawned task has completed.
    fn assert_quiescent(&self) {
        let leaked = self.handle.core.tasks.borrow().live();
        assert!(
            leaked == 0,
            "simulation deadlock: {leaked} task(s) still blocked at t={}",
            self.handle.core.now()
        );
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Break potential Rc cycles: tasks own SimHandle which owns the core
        // which owns the tasks. Dropping the futures here frees everything.
        *self.handle.core.tasks.borrow_mut() = TaskTable::default();
        self.handle.core.events.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn empty_sim_finishes_at_zero() {
        let mut sim = Sim::new(0);
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_time() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(SimDuration::from_us(5)).await;
        });
        assert_eq!(sim.run(), SimTime::from_ps(5_000_000));
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let order: Rc<RefCell<Vec<(u32, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(0);
        for id in 0..3u32 {
            let h = sim.handle();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                h.sleep(SimDuration::from_ns(10 * (3 - id) as u64)).await;
                order.borrow_mut().push((id, h.now().as_ps()));
                h.sleep(SimDuration::from_ns(100)).await;
                order.borrow_mut().push((id, h.now().as_ps()));
            });
        }
        sim.run();
        let got = order.borrow().clone();
        assert_eq!(
            got,
            vec![
                (2, 10_000),
                (1, 20_000),
                (0, 30_000),
                (2, 110_000),
                (1, 120_000),
                (0, 130_000)
            ]
        );
    }

    #[test]
    fn join_handle_returns_value() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let outer = sim.spawn(async move {
            let inner = h.spawn(async { 21 * 2 });
            inner.await
        });
        sim.run();
        assert!(outer.is_finished());
    }

    #[test]
    fn spawn_from_within_task_runs() {
        let hits = Rc::new(RefCell::new(0));
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let hits2 = Rc::clone(&hits);
        sim.spawn(async move {
            for _ in 0..10 {
                let hits3 = Rc::clone(&hits2);
                let hh = h.clone();
                h.spawn(async move {
                    hh.sleep(SimDuration::from_ns(1)).await;
                    *hits3.borrow_mut() += 1;
                });
            }
        });
        sim.run();
        assert_eq!(*hits.borrow(), 10);
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        use rand::RngCore;
        let sim = Sim::new(42);
        let mut a1 = sim.handle().rng(1);
        let mut a2 = sim.handle().rng(1);
        let mut b = sim.handle().rng(2);
        let xs: Vec<u64> = (0..4).map(|_| a1.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| a2.next_u64()).collect();
        let zs: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_panics() {
        let mut sim = Sim::new(0);
        sim.spawn(async {
            std::future::pending::<()>().await;
        });
        sim.run();
    }

    #[test]
    fn call_at_fires_in_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(0);
        let h = sim.handle();
        for (i, t) in [30u64, 10, 20].iter().enumerate() {
            let l = Rc::clone(&log);
            h.call_at(SimTime::from_ps(*t), move || l.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 0]);
    }

    /// Pins the documented seq tie-break: same-instant events fire in the
    /// order they were *scheduled*, across sleeps and call_at alike. Sleeps
    /// register on first poll, so the task spawned first schedules first
    /// even though the call_at below was issued before either task polled.
    #[test]
    fn same_instant_events_fire_in_schedule_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let t = SimTime::from_ps(50000);
        {
            let l = Rc::clone(&log);
            h.call_at(t, move || l.borrow_mut().push("call"));
        }
        for name in ["first", "second"] {
            let h2 = sim.handle();
            let l = Rc::clone(&log);
            sim.spawn(async move {
                h2.sleep_until(t).await;
                l.borrow_mut().push(name);
            });
        }
        sim.run();
        // call_at scheduled before either task first polled its sleep.
        assert_eq!(*log.borrow(), vec!["call", "first", "second"]);
    }

    /// Spawning and finishing tasks one after another reuses their slots:
    /// the table holds the root task and one child, not one slot per spawn.
    #[test]
    fn finished_task_slots_are_reused() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let done = sim.spawn(async move {
            for i in 0..10_000u64 {
                let hh = h.clone();
                let child = h.spawn(async move {
                    hh.sleep(SimDuration::from_ns(1)).await;
                    i
                });
                assert_eq!(child.await, i);
            }
        });
        sim.run();
        assert!(done.is_finished());
        let slots = sim.handle.core.tasks.borrow().slots.len();
        assert!(slots <= 2, "10,000 sequential spawns left {slots} task slots");
    }

    /// `spawn` boxes the caller's future once: a task holding a 4 KiB
    /// buffer across an await costs about 4 KiB, not twice that.
    #[test]
    fn spawn_stores_the_future_once() {
        const N: usize = 4096;
        let sim = Sim::new(0);
        let h = sim.handle();
        let fut = async move {
            let buf = [7u8; N];
            h.sleep(SimDuration::from_ns(1)).await;
            buf.iter().map(|&b| u64::from(b)).sum::<u64>()
        };
        assert!(std::mem::size_of_val(&fut) >= N);
        let _join = sim.spawn(fut);
        let tasks = sim.handle.core.tasks.borrow();
        let task = tasks.slots[0].task.as_ref().expect("spawned task is parked");
        let stored = std::mem::size_of_val(&*task.fut);
        assert!(stored < N + 256, "a {N}-byte future is stored in {stored} bytes");
    }

    /// Polls of the task it wraps, which sleeps once.
    struct CountPolls {
        polls: Rc<Cell<u32>>,
        sleep: Sleep,
    }

    impl Future for CountPolls {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            self.polls.set(self.polls.get() + 1);
            Pin::new(&mut self.sleep).poll(cx)
        }
    }

    /// A waker kept from a finished task, woken after the task's slot went
    /// to a new task, must not poll the new occupant: the generation in
    /// the wake no longer matches the slot's.
    #[test]
    fn stale_wake_never_polls_the_slots_next_task() {
        let mut sim = Sim::new(0);
        let kept: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let k = Rc::clone(&kept);
        sim.spawn(std::future::poll_fn(move |cx| {
            *k.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        sim.run();
        let stale = kept.borrow_mut().take().expect("first task kept its waker");

        let polls = Rc::new(Cell::new(0));
        let h = sim.handle();
        sim.spawn(CountPolls {
            polls: Rc::clone(&polls),
            sleep: h.sleep(SimDuration::from_ns(10)),
        });
        assert_eq!(sim.handle.core.tasks.borrow().slots.len(), 1, "slot reused");
        h.call_at(SimTime::from_ps(5_000), move || stale.wake());
        assert_eq!(sim.run(), SimTime::from_ps(10_000));
        // First poll at t=0 and the timer's wake at 10 ns; none at 5 ns.
        assert_eq!(polls.get(), 2);
    }

    /// The lane selection the indexed queue replaced, kept as the reference:
    /// each instant's flow lanes stay in first-push order until the instant
    /// drains, and every pop scans all of them for the smallest `flow_seq`.
    #[derive(Default)]
    struct ScanQueue {
        buckets: BTreeMap<SimTime, ScanBucket>,
    }

    #[derive(Default)]
    struct ScanBucket {
        fifo: VecDeque<(u64, EventAction)>,
        flows: Vec<(FlowSourceId, BTreeMap<u64, EventAction>)>,
    }

    impl ScanQueue {
        fn push(&mut self, time: SimTime, seq: u64, action: EventAction) {
            self.buckets.entry(time).or_default().fifo.push_back((seq, action));
        }

        fn push_flow(&mut self, time: SimTime, source: FlowSourceId, uid: u64, action: EventAction) {
            let bucket = self.buckets.entry(time).or_default();
            match bucket.flows.iter_mut().find(|(s, _)| *s == source) {
                Some((_, lane)) => {
                    lane.insert(uid, action);
                }
                None => bucket.flows.push((source, BTreeMap::from([(uid, action)]))),
            }
        }

        fn pop(&mut self, flow_seq: &[u64]) -> Option<(SimTime, EventAction)> {
            let mut entry = self.buckets.first_entry()?;
            let time = *entry.key();
            let bucket = entry.get_mut();
            let fifo_seq = bucket.fifo.front().map(|&(s, _)| s);
            let mut best_flow: Option<(u64, usize)> = None;
            for (i, (source, lane)) in bucket.flows.iter().enumerate() {
                let s = flow_seq[*source];
                if !lane.is_empty() && best_flow.is_none_or(|(bs, _)| s < bs) {
                    best_flow = Some((s, i));
                }
            }
            let action = match (fifo_seq, best_flow) {
                (Some(fs), Some((ps, i))) if ps < fs => bucket.flows[i].1.pop_first().unwrap().1,
                (Some(_), _) => bucket.fifo.pop_front().unwrap().1,
                (None, Some((_, i))) => bucket.flows[i].1.pop_first().unwrap().1,
                (None, None) => unreachable!("queued time with empty bucket"),
            };
            if bucket.fifo.is_empty() && bucket.flows.iter().all(|(_, lane)| lane.is_empty()) {
                entry.remove();
            }
            Some((time, action))
        }
    }

    /// [`EventQueue`] and [`ScanQueue`] fed the same operations, plus the
    /// executor state those operations read and write.
    struct Lockstep {
        indexed: EventQueue,
        scan: ScanQueue,
        flow_seq: Vec<u64>,
        touched: Vec<bool>,
        fired: Rc<Cell<u64>>,
        seq: u64,
        now: u64,
        label: u64,
        pops: u64,
        overwrites: u64,
        recycled: u64,
        widest: usize,
    }

    impl Lockstep {
        fn new(sources: usize) -> Lockstep {
            Lockstep {
                indexed: EventQueue::default(),
                scan: ScanQueue::default(),
                flow_seq: vec![0; sources],
                touched: vec![false; sources],
                fired: Rc::new(Cell::new(u64::MAX)),
                seq: 0,
                now: 0,
                label: 0,
                pops: 0,
                overwrites: 0,
                recycled: 0,
                widest: 0,
            }
        }

        /// A callback that records `self.label` when fired.
        fn action(&self) -> EventAction {
            let (fired, label) = (Rc::clone(&self.fired), self.label);
            EventAction::Call(Box::new(move || fired.set(label)))
        }

        fn fire(&self, action: EventAction) -> u64 {
            match action {
                EventAction::Call(f) => f(),
                EventAction::Wake(_) => unreachable!("only callbacks are queued"),
            }
            self.fired.get()
        }

        /// What [`SimCore::touch_flow_source`] does.
        fn touch(&mut self, source: usize) {
            self.flow_seq[source] = self.seq;
            self.seq += 1;
            self.touched[source] = true;
        }

        /// One ordinary push, flow push or re-sequencing drawn from `r`, at
        /// one of the four instants from `now` on.
        fn mutate(&mut self, r: u64) {
            let time = SimTime::from_ps(self.now + (r >> 8) % 4 * 1_000);
            let source = (r >> 16) as usize % self.flow_seq.len();
            match (r >> 40) % 8 {
                0 | 1 => {
                    self.indexed.push(time, self.seq, self.action());
                    self.scan.push(time, self.seq, self.action());
                    self.seq += 1;
                }
                2 => self.touch(source),
                _ => {
                    // A pool re-sequences before it queues a completion.
                    if !self.touched[source] || (r >> 48).is_multiple_of(3) {
                        self.touch(source);
                    }
                    let uid = (r >> 52) % 4;
                    let (len, spare) = (self.indexed.len, self.indexed.spare.len());
                    let seq = self.flow_seq[source];
                    self.indexed.push_flow(time, source, seq, uid, self.action());
                    self.scan.push_flow(time, source, uid, self.action());
                    self.overwrites += u64::from(self.indexed.len == len);
                    self.recycled += u64::from(self.indexed.spare.len() < spare);
                    let lanes = self.indexed.buckets.get(&time).map_or(0, |b| b.flows.len());
                    self.widest = self.widest.max(lanes);
                }
            }
            self.label += 1;
        }

        /// Pop both queues and require the same event; false once both are
        /// empty.
        fn pop(&mut self) -> bool {
            let n = self.pops;
            match (self.indexed.pop(&self.flow_seq), self.scan.pop(&self.flow_seq)) {
                (Some((ta, a)), Some((tb, b))) => {
                    assert_eq!(ta, tb, "pop {n}: instants differ");
                    assert_eq!(self.fire(a), self.fire(b), "pop {n} at {ta}: events differ");
                    self.now = ta.as_ps();
                    self.pops += 1;
                    true
                }
                (None, None) => false,
                _ => panic!("pop {n}: one queue is empty and the other is not"),
            }
        }
    }

    /// Drives the indexed queue and the linear-scan reference with one seeded
    /// stream of ordinary pushes, flow pushes (overwrites included) and pool
    /// re-sequencing over 1,000 sources sharing four instants, popping as it
    /// goes so instants drain and their buckets are recycled. Both must fire
    /// the same events in the same order.
    #[test]
    fn indexed_flow_lanes_pop_like_the_linear_scan() {
        let mut state = 0x5EED_u64;
        let mut rand = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut q = Lockstep::new(1_000);
        for round in 0..40usize {
            // A burst of mutations, then pops down to a fraction of what is
            // pending (every fourth round: to empty), still mutating
            // between pops.
            for _ in 0..2_500 {
                q.mutate(rand());
            }
            let target = if round % 4 == 3 { 0 } else { q.indexed.len / (2 + round % 3) };
            while q.indexed.len > target {
                let r = rand();
                if r % 4 == 0 {
                    q.mutate(r);
                } else {
                    q.pop();
                }
            }
        }
        while q.pop() {}
        assert_eq!(q.indexed.len, 0);
        // The stream exercised what it is meant to.
        let (pops, overwrites, recycled, widest) = (q.pops, q.overwrites, q.recycled, q.widest);
        assert!(pops > 50_000, "{pops} pops");
        assert!(overwrites > 1_000, "{overwrites} same-instant flow overwrites");
        assert!(recycled > 100, "{recycled} buckets reused from the spare list");
        assert!(widest > 300, "the widest instant held only {widest} flow lanes");
    }
}
