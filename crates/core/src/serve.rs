//! `clumsy serve` — a supervised, sharded, never-wedge packet service.
//!
//! Everything before this module runs at *job* granularity: a trace is
//! generated up front, a processor replays it, a report comes back.
//! The paper's clumsy processors are not batch experiments, though —
//! they are packet processors serving live traffic at a sub-critical
//! operating point, eating faults as they come. This module is the
//! stream-granularity engine: an unbounded
//! [`TrafficSource`] feeds `N` shards through
//! bounded ingress queues, each shard owning its own golden + measured
//! machine pair, dynamic controller and fault processes, selected by a
//! flow hash so one flow always lands on one shard.
//!
//! The robustness contract is **never wedge, only slow down or shed**:
//!
//! * A full queue applies backpressure to the pump; once the shed
//!   timeout passes the packet is counted as shed instead of queued —
//!   bounded memory, no unbounded allocation.
//! * A panicking shard is caught ([`std::panic::catch_unwind`], the
//!   same isolation the campaign driver uses), its in-flight packet
//!   accounted as abandoned, and the shard rebuilt with reseeded RNG
//!   streams while the other shards keep serving.
//! * A fatal packet error (runaway fuel, corrupted DMA) drops that
//!   packet — watchdog semantics are always on in serve.
//! * Fault storms trip the per-shard safe-mode clamp (when configured)
//!   and permanent faults degrade via way-disable, both *online*.
//!
//! Stopping (SIGTERM via the `stop` closure, or an exhausted packet
//! budget) drains every queue, joins every shard and returns a
//! [`ServeReport`] whose accounting identity —
//! `ingested == processed + dropped + abandoned` — is the proof that
//! no packet was lost untracked or processed twice.

use crate::campaign::{panic_message, RESEED_STRIDE};
use crate::config::ClumsyConfig;
use crate::processor::{GoldenPass, MeasuredPass};
use crate::telemetry::{Counter, Telemetry};
use cache_sim::MemStats;
use netbench::{
    diff_observations, fnv1a_fold, AppError, AppKind, FlowClassifier, Packet, Trace, TraceConfig,
    TrafficClass, TrafficSource, FNV_OFFSET,
};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Mixes the shard index into the base fault seed so sibling shards
/// draw independent streams (an arbitrary odd constant, distinct from
/// [`RESEED_STRIDE`] so shard 1 round 0 never collides with shard 0
/// round 1).
const SHARD_SEED_MIX: u64 = 0x517C_C1B7_2722_0A95;

/// Setup attempts per shard build before the shard gives up on
/// constructing a machine and degrades to shedding its queue. At sane
/// fault rates a control-plane fatal is already rare; eight reseeded
/// tries failing in a row means the operating point cannot boot at all.
const SETUP_RETRY_LIMIT: u64 = 8;

/// What happened to one pushed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued; carries the queue depth after the push (for the
    /// occupancy gauge).
    Enqueued(usize),
    /// The queue stayed full past the shed timeout; the packet was
    /// dropped at ingress.
    Shed,
    /// The packet's flow already holds its per-flow cap worth of queue
    /// slots; shed immediately, without blocking — the elephant pays,
    /// the mice keep their seats.
    ShedFlowCap,
    /// A control-class packet was enqueued into a full queue by
    /// evicting the newest data-class entry. Carries the queue depth
    /// after the swap and the evicted entry's flow, so the pump can
    /// move exactly one data packet from ingested to shed.
    Preempted {
        /// Queue depth after the swap (== capacity).
        depth: usize,
        /// Flow hash of the evicted data-class entry.
        evicted_flow: u64,
    },
    /// The queue is closed (drain in progress); the packet was
    /// discarded and the producer should stop.
    Closed,
}

/// Most entries a shard moves from its ingress queue into its local
/// batch under one lock. The shard never waits to fill a batch: it takes
/// whatever is queued, up to this many, so an idle-ish queue still hands
/// over single packets with no added delay.
const SHARD_BATCH: usize = 32;

/// DRR quantum in cost units (bytes of payload): one MTU-ish credit
/// per flow per round, so a flow of jumbo packets cannot outrun a flow
/// of minimum-size ones by packet count alone.
const DRR_QUANTUM: u64 = 1500;

/// One queued packet plus its routing metadata. The enqueue timestamp
/// is taken only when telemetry is attached (measurement must stay
/// strictly passive — no clock reads on the silent path).
#[derive(Debug)]
struct Entry {
    pkt: Packet,
    flow: u64,
    class: TrafficClass,
    enqueued: Option<Instant>,
}

/// One flow's FIFO inside a DRR-mode queue, with its deficit credit.
#[derive(Debug)]
struct FlowQueue {
    q: VecDeque<Entry>,
    deficit: u64,
}

/// Cost of dequeuing one entry: payload bytes (floor 1 so zero-length
/// packets still consume credit and the round always advances).
fn entry_cost(e: &Entry) -> u64 {
    (e.pkt.payload.len() as u64).max(1)
}

/// A bounded ingress queue between the traffic pump and one shard:
/// blocking push with a shed timeout on the producer side, blocking
/// pop-until-closed on the consumer side, occupancy high-water mark
/// for the bounded-memory telemetry contract.
///
/// Two dequeue modes share the bound:
///
/// * **FIFO** (no flow cap): exactly PR 8's queue — arrival order is
///   dequeue order, so per-shard digests stay bitwise reproducible.
/// * **DRR** (`flow_cap` set): entries are segregated per flow and
///   dequeued by deficit round robin, and a flow already holding
///   `flow_cap` slots is shed immediately instead of blocking the
///   pump. One elephant can then cost at most `flow_cap` slots of a
///   mouse's latency, not the whole queue.
#[derive(Debug)]
pub struct IngressQueue {
    inner: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    flow_cap: Option<usize>,
}

#[derive(Debug)]
struct QueueState {
    /// FIFO-mode storage (unused in DRR mode).
    fifo: VecDeque<Entry>,
    /// DRR-mode storage: one bounded FIFO per flow…
    flows: HashMap<u64, FlowQueue>,
    /// …visited in this round-robin order.
    active: VecDeque<u64>,
    /// Total entries across both modes (the capacity bound).
    len: usize,
    closed: bool,
    highwater: usize,
    /// DRR deficit top-ups performed (scheduler-effort gauge).
    drr_topups: u64,
    /// Structural invariants repaired while dequeuing (stale round-robin
    /// slot, empty per-flow queue). Always 0 unless queue state was
    /// corrupted — counted and recovered instead of panicking, because
    /// a panic here runs under the ingress Mutex and would poison it
    /// for every producer, wedging the whole service.
    invariant_repairs: u64,
    /// Producers blocked on `not_full` and consumers blocked on
    /// `not_empty`. A push or pop signals the other side only when
    /// someone is waiting there, so the uncontended handoff makes no
    /// wake syscall at all. Both are only touched under the Mutex, and
    /// a waiter registers before it sleeps, so no wakeup is lost.
    waiting_producers: usize,
    waiting_consumers: usize,
}

impl IngressQueue {
    /// An empty FIFO queue holding at most `capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_flow_cap(capacity, None)
    }

    /// An empty queue holding at most `capacity` packets; a flow cap
    /// switches it to per-flow DRR dequeue with at most `cap` queued
    /// packets per flow.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or the cap is zero or ≥ capacity
    /// (a cap the whole queue cannot violate would never bind).
    #[must_use]
    pub fn with_flow_cap(capacity: usize, flow_cap: Option<usize>) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        if let Some(cap) = flow_cap {
            assert!(
                cap >= 1 && cap < capacity,
                "flow cap must be at least 1 and below the queue capacity"
            );
        }
        IngressQueue {
            inner: Mutex::new(QueueState {
                fifo: VecDeque::new(),
                flows: HashMap::new(),
                active: VecDeque::new(),
                len: 0,
                closed: false,
                highwater: 0,
                drr_topups: 0,
                invariant_repairs: 0,
                waiting_producers: 0,
                waiting_consumers: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            flow_cap,
        }
    }

    /// Pushes a packet, blocking while the queue is full. Backpressure
    /// turns into shedding after `shed_timeout`: the packet is dropped
    /// at ingress rather than allocated beyond the bound.
    pub fn push(&self, pkt: Packet, shed_timeout: Duration) -> PushOutcome {
        let flow = flow_hash(&pkt);
        self.push_entry(
            Entry {
                pkt,
                flow,
                class: TrafficClass::Data,
                enqueued: None,
            },
            shed_timeout,
        )
    }

    /// Pushes one entry. In DRR mode a data-class flow at its cap is
    /// shed immediately; a full queue blocks until `timeout` has
    /// passed, then sheds. Control-class entries are exempt
    /// from the flow cap and, on a full queue, preempt the newest
    /// data-class entry instead of waiting ([`PushOutcome::Preempted`]);
    /// only when the queue holds nothing but control do they block.
    /// Data never evicts control.
    fn push_entry(&self, entry: Entry, timeout: Duration) -> PushOutcome {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let control = entry.class == TrafficClass::Control;
        if let Some(cap) = self.flow_cap {
            if !control && !state.closed {
                if let Some(fq) = state.flows.get(&entry.flow) {
                    if fq.q.len() >= cap {
                        return PushOutcome::ShedFlowCap;
                    }
                }
            }
        }
        let deadline = Instant::now() + timeout;
        while state.len >= self.capacity && !state.closed {
            if control {
                if let Some(victim) = Self::evict_newest_data(&mut state, self.flow_cap.is_some()) {
                    let depth = self.admit(state, entry);
                    return PushOutcome::Preempted {
                        depth,
                        evicted_flow: victim.flow,
                    };
                }
                // Nothing but control queued: control competes with
                // control under ordinary backpressure.
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return PushOutcome::Shed;
            };
            state.waiting_producers += 1;
            let (guard, _timeout) = self
                .not_full
                .wait_timeout(state, remaining)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
            state.waiting_producers -= 1;
        }
        if state.closed {
            return PushOutcome::Closed;
        }
        PushOutcome::Enqueued(self.admit(state, entry))
    }

    /// Inserts `entry` under the held lock, then wakes a consumer only
    /// if one is waiting. Returns the depth after the insert.
    fn admit(&self, mut state: std::sync::MutexGuard<'_, QueueState>, entry: Entry) -> usize {
        let s = &mut *state;
        Self::insert(s, entry, self.flow_cap.is_none());
        let depth = s.len;
        s.highwater = s.highwater.max(depth);
        let wake = s.waiting_consumers > 0;
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
        depth
    }

    /// Appends one entry to the mode's storage and bumps `len`.
    fn insert(s: &mut QueueState, entry: Entry, fifo: bool) {
        if fifo {
            s.fifo.push_back(entry);
        } else {
            let flow = entry.flow;
            if let Some(fq) = s.flows.get_mut(&flow) {
                fq.q.push_back(entry);
            } else {
                s.flows.insert(
                    flow,
                    FlowQueue {
                        q: VecDeque::from([entry]),
                        deficit: 0,
                    },
                );
                s.active.push_back(flow);
            }
        }
        s.len += 1;
    }

    /// Removes the newest data-class entry to make room for control.
    /// FIFO mode evicts the most recently arrived data entry exactly;
    /// DRR mode evicts the tail of the most backlogged data-class flow
    /// (smallest flow hash on ties) — the deterministic reading of
    /// "newest" once arrival order is only kept per flow. Returns
    /// `None` when no data-class entry is queued (control is never
    /// evicted). `len` is already decremented on `Some`.
    fn evict_newest_data(s: &mut QueueState, drr: bool) -> Option<Entry> {
        if !drr {
            let idx = s.fifo.iter().rposition(|e| e.class == TrafficClass::Data)?;
            let e = s.fifo.remove(idx)?;
            s.len = s.len.saturating_sub(1);
            return Some(e);
        }
        let victim_flow = s
            .flows
            .iter()
            .filter(|(_, fq)| fq.q.back().is_some_and(|e| e.class == TrafficClass::Data))
            .max_by(|(fa, a), (fb, b)| a.q.len().cmp(&b.q.len()).then(fb.cmp(fa)))
            .map(|(&f, _)| f)?;
        let fq = s.flows.get_mut(&victim_flow)?;
        let e = fq.q.pop_back()?;
        if fq.q.is_empty() {
            s.flows.remove(&victim_flow);
            if let Some(pos) = s.active.iter().position(|&f| f == victim_flow) {
                s.active.remove(pos);
            }
        }
        s.len = s.len.saturating_sub(1);
        Some(e)
    }

    /// Dequeues the next entry under the queue's mode. DRR: visit
    /// flows round-robin, topping a flow's deficit up by one quantum
    /// per visit until it can afford its head packet — each topped-up
    /// visit rotates to the next flow, so mice are served while an
    /// elephant saves up. A flow's credit dies with its backlog (no
    /// banking while idle).
    ///
    /// This function is deliberately **total**: it runs while holding
    /// the ingress Mutex, so a violated invariant must never panic —
    /// that would poison the lock and panic every producer, bypassing
    /// shard supervision and wedging the whole service. A stale
    /// round-robin slot or an empty per-flow queue is instead repaired
    /// in place and counted in `invariant_repairs`.
    fn dequeue(s: &mut QueueState, drr: bool) -> Option<Entry> {
        if !drr {
            let e = s.fifo.pop_front()?;
            s.len = s.len.saturating_sub(1);
            return Some(e);
        }
        while let Some(&flow) = s.active.front() {
            let Some(fq) = s.flows.get_mut(&flow) else {
                // Stale slot: the flow's queue is gone. Drop the slot
                // and keep serving.
                s.active.pop_front();
                s.invariant_repairs += 1;
                continue;
            };
            let Some(head) = fq.q.front() else {
                // Empty per-flow queue left behind: retire it.
                s.flows.remove(&flow);
                s.active.pop_front();
                s.invariant_repairs += 1;
                continue;
            };
            let cost = entry_cost(head);
            if fq.deficit < cost {
                fq.deficit += DRR_QUANTUM;
                s.drr_topups += 1;
                s.active.rotate_left(1);
                continue;
            }
            fq.deficit -= cost;
            let Some(e) = fq.q.pop_front() else {
                // Unreachable (front was Some under the same lock), but
                // repairing costs nothing and panicking costs the
                // service.
                s.flows.remove(&flow);
                s.active.pop_front();
                s.invariant_repairs += 1;
                continue;
            };
            if fq.q.is_empty() {
                s.flows.remove(&flow);
                s.active.pop_front();
            }
            s.len = s.len.saturating_sub(1);
            return Some(e);
        }
        None
    }

    /// Hands up to `max` entries, in dequeue order, to `sink` under one
    /// lock. Blocks only while the queue is empty and open — never to
    /// fill a batch. Returns `false` only once the queue is closed *and*
    /// drained — the consumer's signal to finish.
    fn pop_batch(&self, max: usize, mut sink: impl FnMut(Entry)) -> bool {
        let drr = self.flow_cap.is_some();
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let mut taken = 0;
            while taken < max {
                let Some(e) = Self::dequeue(&mut state, drr) else {
                    break;
                };
                sink(e);
                taken += 1;
            }
            if taken > 0 {
                let waiting = state.waiting_producers;
                drop(state);
                if waiting > 1 && taken > 1 {
                    self.not_full.notify_all();
                } else if waiting > 0 {
                    self.not_full.notify_one();
                }
                return true;
            }
            if state.closed {
                return false;
            }
            state.waiting_consumers += 1;
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
            state.waiting_consumers -= 1;
        }
    }

    /// Pops the next packet, blocking while the queue is empty and
    /// open. Returns `None` only once the queue is closed *and*
    /// drained — the consumer's signal to finish.
    pub fn pop(&self) -> Option<Packet> {
        let mut popped = None;
        self.pop_batch(1, |e| popped = Some(e.pkt));
        popped
    }

    /// Closes the queue: producers get [`PushOutcome::Closed`],
    /// consumers drain what is buffered and then see `None`.
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Highest occupancy the queue ever reached.
    #[must_use]
    pub fn highwater(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .highwater
    }

    /// DRR deficit top-ups performed so far (0 in FIFO mode).
    #[must_use]
    pub fn drr_topups(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drr_topups
    }

    /// Structural invariants repaired during dequeue. Always 0 unless
    /// the queue state was corrupted; a nonzero value means the queue
    /// recovered from damage instead of wedging.
    #[must_use]
    pub fn invariant_repairs(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .invariant_repairs
    }

    /// Test hook: plant a stale round-robin slot (an active entry with
    /// no backing flow queue) to exercise invariant repair.
    #[cfg(test)]
    fn corrupt_stale_active(&self, flow: u64) {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        state.active.push_front(flow);
    }

    /// Test hook: plant an empty per-flow queue (an invariant
    /// violation — empty flows must be retired) to exercise repair.
    #[cfg(test)]
    fn corrupt_empty_flow(&self, flow: u64) {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        state.flows.insert(
            flow,
            FlowQueue {
                q: VecDeque::new(),
                deficit: 0,
            },
        );
        state.active.push_front(flow);
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The flow hash behind shard selection: [`Packet::flow_hash`], the
/// one shared FNV-1a 5-tuple hash. The sharder and the classifier both
/// route by this single implementation, so they can never silently
/// diverge.
fn flow_hash(pkt: &Packet) -> u64 {
    pkt.flow_hash()
}

/// The shard a packet belongs to: a flow hash over the 5-tuple, so one
/// flow's packets always arrive at one shard in order.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn flow_shard(pkt: &Packet, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    shard_of(flow_hash(pkt), shards)
}

/// The natural shard of flow hash `flow` among `shards` (non-zero).
/// The remainder is below `shards`, itself a `usize`, so the narrowing
/// is lossless on every target.
fn shard_of(flow: u64, shards: usize) -> usize {
    (flow % shards as u64) as usize
}

/// Incremental FNV-1a fold of one packet outcome into a shard digest.
/// Deterministic across runs for the same packet sequence and seeds —
/// the panic-isolation tests compare these to prove sibling shards are
/// untouched by a restart.
fn digest_step(digest: u64, id: u32, verdict: u8) -> u64 {
    let h = if digest == 0 { FNV_OFFSET } else { digest };
    fnv1a_fold(h, id.to_le_bytes().into_iter().chain([verdict]))
}

/// How many pumped packets pass between SLO-trigger evaluations. The
/// histogram read takes the telemetry atomics, so once per packet
/// would be pure overhead; once per 64 keeps the trigger within one
/// queue-depth of the latency it reacts to.
const SLO_CHECK_INTERVAL: u64 = 64;

/// Minimum verdicts in a window before its p99 is trusted. Below this
/// the window is carried forward — a p99 over three samples is noise.
const SLO_MIN_SAMPLES: u64 = 16;

/// Conservative p99 in µs over log2-bucket count deltas
/// (`deltas[i]` = verdicts whose latency fell in bucket `i`, covering
/// `[2^i, 2^(i+1))` µs). Returns the **upper** edge `2^(i+1) − 1` of
/// the bucket holding the p99 sample, so the estimate over-reports
/// latency: the trigger errs toward shedding data, never toward
/// silently missing the budget. (The catch-all top bucket reports its
/// nominal edge — any budget it could under-report is blown anyway.)
/// `None` when the window is empty.
fn histogram_p99_us(deltas: &[u64]) -> Option<u64> {
    let total: u64 = deltas.iter().sum();
    if total == 0 {
        return None;
    }
    // 1-based rank of the p99 sample: the smallest k with
    // k/total ≥ 0.99, i.e. ceil(total·99/100), floored at 1.
    let rank = (total * 99).div_ceil(100).max(1);
    let mut seen = 0u64;
    for (i, &n) in deltas.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return Some((1u64 << (i as u32 + 1)) - 1);
        }
    }
    None
}

/// The latency-SLO shed trigger: watches the enqueue→verdict histogram
/// in windows of at least [`SLO_MIN_SAMPLES`] verdicts and goes active
/// while the window's conservative p99 exceeds the budget. While
/// active, the pump gives data-class pushes a zero shed deadline —
/// full queues shed data immediately instead of riding out the
/// backpressure timeout. Control is never tightened.
struct SloTrigger {
    budget_us: u64,
    /// Cumulative bucket counts at the last accepted window edge.
    prev: Vec<u64>,
    active: bool,
    activations: u64,
    shed: u64,
    last_p99_us: u64,
}

impl SloTrigger {
    fn new(budget_us: u64) -> Self {
        SloTrigger {
            budget_us,
            prev: Vec::new(),
            active: false,
            activations: 0,
            shed: 0,
            last_p99_us: 0,
        }
    }

    /// Feeds the current cumulative bucket counts. Windows smaller
    /// than [`SLO_MIN_SAMPLES`] are merged into the next evaluation.
    fn update(&mut self, cumulative: &[u64]) {
        if self.prev.len() != cumulative.len() {
            self.prev = vec![0; cumulative.len()];
        }
        let deltas: Vec<u64> = cumulative
            .iter()
            .zip(&self.prev)
            .map(|(c, p)| c.saturating_sub(*p))
            .collect();
        if deltas.iter().sum::<u64>() < SLO_MIN_SAMPLES {
            return;
        }
        self.prev.copy_from_slice(cumulative);
        let Some(p99) = histogram_p99_us(&deltas) else {
            return;
        };
        self.last_p99_us = p99;
        let blown = p99 > self.budget_us;
        if blown && !self.active {
            self.activations += 1;
        }
        self.active = blown;
    }
}

/// Configuration for [`run_serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shards (machine pairs). At least 1.
    pub shards: usize,
    /// Bounded ingress-queue depth per shard. At least 1.
    pub queue_depth: usize,
    /// Total packets to generate before draining; `0` = unbounded
    /// (serve until `stop` reports true).
    pub packet_budget: u64,
    /// The application every shard runs.
    pub app: AppKind,
    /// The design point every shard runs at (clock plan, detection,
    /// strikes, fault processes, seed).
    pub design: ClumsyConfig,
    /// Traffic shape (flows, prefixes, payloads, trace seed); the
    /// packet count inside is ignored — the stream is unbounded.
    pub traffic: TraceConfig,
    /// How long a full queue exerts backpressure before the packet is
    /// shed.
    pub shed_timeout: Duration,
    /// Per-flow queue cap; `Some` switches every ingress queue to
    /// deficit-round-robin dequeue with immediate shedding of flows at
    /// their cap. Must be ≥ 1 and below `queue_depth`. DRR trades the
    /// bitwise-reproducible dequeue order of FIFO mode for elephant
    /// isolation; accounting and per-flow ordering are unaffected.
    pub flow_queue_cap: Option<usize>,
    /// Number of flows classified as control (the `n` numerically
    /// lowest flow hashes of the traffic's flow table). `0` disables
    /// classification: every packet is data and the class report is
    /// absent. Control packets are exempt from the flow cap and the
    /// SLO trigger, and preempt queued data on a full queue.
    pub control_flows: usize,
    /// Latency-SLO shed budget in µs over the enqueue→verdict
    /// histogram. `Some(budget)` arms a trigger that sheds data-class
    /// packets immediately (deadline zero) while the windowed
    /// conservative p99 exceeds the budget — shedding on latency, not
    /// just occupancy. Requires the latency histogram, so serve
    /// attaches an internal telemetry sink when none is supplied.
    pub slo_p99_us: Option<u64>,
    /// Publish per-shard `MemStats` deltas to telemetry every this
    /// many packets (and always at drain).
    pub stats_interval: u32,
    /// Test hook: the shard that owns this packet id panics when it
    /// pops it (once per serve run). Exercises the supervisor without
    /// planting bugs.
    pub panic_on_packet: Option<u32>,
}

impl ServeConfig {
    /// A serving setup for `app` at `design`, with 4 shards, depth-1024
    /// queues, paper traffic, a 100 ms shed timeout and no budget.
    #[must_use]
    pub fn new(app: AppKind, design: ClumsyConfig) -> Self {
        ServeConfig {
            shards: 4,
            queue_depth: 1024,
            packet_budget: 0,
            app,
            design,
            traffic: TraceConfig::paper(),
            shed_timeout: Duration::from_millis(100),
            flow_queue_cap: None,
            control_flows: 0,
            slo_p99_us: None,
            stats_interval: 256,
            panic_on_packet: None,
        }
    }

    /// Returns the config with a different shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns the config with a different queue depth.
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Returns the config with a packet budget (`0` = unbounded).
    #[must_use]
    pub fn with_packet_budget(mut self, budget: u64) -> Self {
        self.packet_budget = budget;
        self
    }

    /// Returns the config with a different shed timeout.
    #[must_use]
    pub fn with_shed_timeout(mut self, timeout: Duration) -> Self {
        self.shed_timeout = timeout;
        self
    }

    /// Returns the config with a per-flow queue cap (enables DRR).
    #[must_use]
    pub fn with_flow_queue_cap(mut self, cap: usize) -> Self {
        self.flow_queue_cap = Some(cap);
        self
    }

    /// Returns the config with the `n` lowest-hash flows classified as
    /// control (`0` disables classification).
    #[must_use]
    pub fn with_control_flows(mut self, n: usize) -> Self {
        self.control_flows = n;
        self
    }

    /// Returns the config with the latency-SLO shed trigger armed at
    /// `budget_us` (p99 over the enqueue→verdict histogram).
    #[must_use]
    pub fn with_slo_p99_us(mut self, budget_us: u64) -> Self {
        self.slo_p99_us = Some(budget_us);
        self
    }

    /// Returns the config with a different traffic shape.
    #[must_use]
    pub fn with_traffic(mut self, traffic: TraceConfig) -> Self {
        self.traffic = traffic;
        self
    }

    /// Returns the config with the panic-injection test hook armed.
    #[must_use]
    pub fn with_panic_on_packet(mut self, id: u32) -> Self {
        self.panic_on_packet = Some(id);
        self
    }
}

/// What one shard did over the whole serve run, across every
/// restart generation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Packets fully processed (clean or erroneous).
    pub processed: u64,
    /// Processed packets whose marked values diverged from golden.
    pub erroneous: u64,
    /// Packets dropped by the always-on watchdog (fatal error
    /// contained) or by a shard that could not build a machine.
    pub dropped: u64,
    /// In-flight packets lost to a caught panic.
    pub abandoned: u64,
    /// Panics caught by the supervisor.
    pub panics: u64,
    /// Restarts performed (one per caught panic).
    pub restarts: u64,
    /// Reseeded machine builds after a control-plane fatal.
    pub setup_retries: u64,
    /// Epochs that tripped the safe-mode clamp, summed over
    /// generations.
    pub safe_mode_entries: u64,
    /// Faults injected into this shard's measured machine (published
    /// generations only — a generation that dies mid-interval loses
    /// its unpublished tail).
    pub faults_injected: u64,
    /// Faults detected by this shard's detection scheme (same
    /// publication caveat).
    pub faults_detected: u64,
    /// L1 ways this shard's machine mapped out while serving.
    pub ways_disabled: u64,
    /// Order-sensitive FNV digest over `(packet id, outcome)`.
    pub digest: u64,
    /// High-water occupancy of this shard's ingress queue.
    pub queue_highwater: usize,
    /// Relative cycle time when the shard drained (dynamic plans may
    /// have moved it).
    pub final_cycle: f64,
    /// Message of the most recent caught panic, if any.
    pub last_panic: Option<String>,
}

impl ShardReport {
    /// Packets this shard consumed from its queue, however they ended.
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.processed + self.dropped + self.abandoned
    }
}

/// One flow's ingress accounting (overload report's top talkers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTraffic {
    /// FNV-1a flow hash (the flow's identity; the 5-tuple itself is
    /// not retained).
    pub flow: u64,
    /// Packets the pump drew for this flow.
    pub offered: u64,
    /// Packets of this flow shed at ingress (deadline or flow cap).
    pub shed: u64,
}

/// Overload-policy accounting. Present on a [`ServeReport`] only when
/// a per-flow queue cap is set — the default path computes none of
/// this.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// Packets shed because their flow was at its per-flow cap (a
    /// subset of the report's total `shed`).
    pub shed_flow_cap: u64,
    /// DRR deficit top-ups across all queues.
    pub drr_deficit_topups: u64,
    /// Distinct flows the pump saw.
    pub flows_seen: u64,
    /// Heaviest flows by offered packets, descending (at most eight).
    pub top_flows: Vec<FlowTraffic>,
}

/// Per-class admission accounting plus the latency-SLO trigger's
/// state. Present on a [`ServeReport`] only when classification or the
/// SLO trigger is enabled — the default path computes none of this.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Control-class packets the pump drew.
    pub control_offered: u64,
    /// Control-class packets that made it into a shard queue
    /// (including by preemption).
    pub control_ingested: u64,
    /// Control-class packets shed at ingress. The whole point of the
    /// class policy is to keep this at zero while data absorbs the
    /// overload.
    pub control_shed: u64,
    /// Data-class packets the pump drew.
    pub data_offered: u64,
    /// Data-class packets shed at ingress (deadline, flow cap, SLO
    /// trigger or preemption).
    pub data_shed: u64,
    /// Data-class packets evicted from a queue by a control-class
    /// preemption (a subset of `data_shed`).
    pub preempt_shed: u64,
    /// The armed SLO budget in µs, if any.
    pub slo_budget_us: Option<u64>,
    /// Times the trigger transitioned inactive → active (windowed p99
    /// crossed the budget).
    pub slo_activations: u64,
    /// Data-class packets shed while the trigger was active (a subset
    /// of `data_shed`).
    pub slo_shed: u64,
    /// Most recent windowed conservative p99 estimate in µs (0 before
    /// the first full window).
    pub slo_last_p99_us: u64,
}

/// The outcome of a serve run: pump-side counts plus one
/// [`ShardReport`] per shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Packets drawn from the traffic source.
    pub generated: u64,
    /// Packets that made it into a shard queue.
    pub ingested: u64,
    /// Packets shed at ingress (backpressure deadline or per-flow
    /// cap).
    pub shed: u64,
    /// Per-shard accounting.
    pub shards: Vec<ShardReport>,
    /// Overload-policy accounting (`None` on the default fixed/FIFO
    /// path, whose output must stay bitwise identical across PRs).
    pub overload: Option<OverloadReport>,
    /// Per-class admission + SLO-trigger accounting (`None` unless
    /// classification or the SLO trigger is enabled).
    pub classes: Option<ClassReport>,
    /// Whether the run stopped via the `stop` closure (as opposed to
    /// exhausting its packet budget).
    pub interrupted: bool,
    /// Wall time of the whole run, pump start to last join.
    pub wall: Duration,
}

impl ServeReport {
    /// Packets fully processed across all shards.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Packets dropped (watchdog) across all shards.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped).sum()
    }

    /// Packets abandoned to panics across all shards.
    #[must_use]
    pub fn abandoned(&self) -> u64 {
        self.shards.iter().map(|s| s.abandoned).sum()
    }

    /// Shard restarts across the run.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// The drain-accounting identity: every generated packet is either
    /// shed at ingress or consumed by exactly one shard, and every
    /// consumed packet is processed, dropped or abandoned. False would
    /// mean a packet was lost untracked or processed twice.
    #[must_use]
    pub fn accounting_holds(&self) -> bool {
        let consumed: u64 = self.shards.iter().map(ShardReport::consumed).sum();
        self.ingested == consumed && self.generated == self.ingested + self.shed
    }

    /// Human-readable multi-line summary (the `clumsy serve` output).
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let secs = self.wall.as_secs_f64();
        let rate = if secs > 0.0 {
            self.processed() as f64 / secs
        } else {
            0.0
        };
        let mut out = format!(
            "served {} packets in {:.2}s ({rate:.0} pkt/s): \
             {} processed, {} shed, {} dropped, {} abandoned, {} restarts\n",
            self.generated,
            secs,
            self.processed(),
            self.shed,
            self.dropped(),
            self.abandoned(),
            self.restarts(),
        );
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>7} {:>6} {:>6} {:>8} {:>7} {:>8} {:>6} {:>18}",
            "shard",
            "processed",
            "errors",
            "drops",
            "aband",
            "restarts",
            "qdepth",
            "faults",
            "Cr",
            "digest"
        );
        for s in &self.shards {
            let _ = writeln!(
                out,
                "{:>5} {:>10} {:>7} {:>6} {:>6} {:>8} {:>7} {:>8} {:>6.2} {:>18}",
                s.shard,
                s.processed,
                s.erroneous,
                s.dropped,
                s.abandoned,
                s.restarts,
                s.queue_highwater,
                s.faults_injected,
                s.final_cycle,
                format!("{:016x}", s.digest),
            );
        }
        let _ = writeln!(
            out,
            "drained: accounting {} ({} ingested = {} consumed)",
            if self.accounting_holds() {
                "ok"
            } else {
                "BROKEN"
            },
            self.ingested,
            self.shards.iter().map(ShardReport::consumed).sum::<u64>(),
        );
        if let Some(o) = &self.overload {
            let _ = writeln!(
                out,
                "overload: shed_flow_cap={} drr_topups={} flows_seen={}",
                o.shed_flow_cap, o.drr_deficit_topups, o.flows_seen,
            );
            if let Some(top) = o.top_flows.first() {
                // Asymmetry proof for the soak gates: the heaviest flow
                // versus everyone else. `generated`/`shed` cover every
                // packet, so mice = totals minus the elephant.
                let _ = writeln!(
                    out,
                    "flow shed: elephant={:016x} elephant_shed={} elephant_offered={} \
                     mice_shed={} mice_offered={}",
                    top.flow,
                    top.shed,
                    top.offered,
                    self.shed - top.shed,
                    self.generated - top.offered,
                );
            }
        }
        if let Some(c) = &self.classes {
            let _ = writeln!(
                out,
                "class: control_offered={} control_ingested={} control_shed={} \
                 data_offered={} data_shed={} preempt_shed={}",
                c.control_offered,
                c.control_ingested,
                c.control_shed,
                c.data_offered,
                c.data_shed,
                c.preempt_shed,
            );
            if let Some(budget) = c.slo_budget_us {
                let _ = writeln!(
                    out,
                    "slo: budget_us={} activations={} slo_shed={} last_p99_us={}",
                    budget, c.slo_activations, c.slo_shed, c.slo_last_p99_us,
                );
            }
        }
        out
    }
}

/// How one packet ended inside a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PacketVerdict {
    /// Marked values matched golden.
    Clean,
    /// Processed, but marked values diverged.
    Erroneous,
    /// Fatal error contained by the watchdog; packet dropped.
    Dropped,
}

/// One generation of a shard: lock-stepped golden + measured machine
/// pair at stream granularity. The golden machine never injects, so
/// both apps see the same packet sequence and the per-packet diff is
/// exactly the batch runner's differential execution, just unbounded.
struct ShardState {
    golden: GoldenPass,
    measured: MeasuredPass,
    published: MemStats,
}

impl ShardState {
    /// Builds both machines and runs both control planes. A fatal in
    /// the measured control plane is an `Err` — the caller retries
    /// with a reseeded stream.
    fn build(cfg: &ServeConfig, context: &Trace, seed: u64) -> Result<ShardState, AppError> {
        let (golden, _) = GoldenPass::boot(cfg.app, context)?;
        let mut measured = MeasuredPass::new(&cfg.design, cfg.app, context, seed);
        measured.setup()?;
        let published = *measured.machine().stats();
        Ok(ShardState {
            golden,
            measured,
            published,
        })
    }

    /// Runs one packet through both machines and classifies it.
    fn process_packet(&mut self, pkt: &Packet) -> PacketVerdict {
        let golden = self.golden.step(pkt);
        let measured = self
            .measured
            .receive(pkt)
            .and_then(|view| self.measured.process(view));
        // Never wedge: a fatal on either side drops the packet and keeps
        // both machines alive (watchdog semantics, always on in serve).
        // Without a golden reference there is nothing to diff against,
        // so an oversized packet is a drop, not a panic.
        let verdict = match (golden, measured) {
            (Ok(golden_obs), Ok(obs)) => {
                if diff_observations(golden_obs, obs).has_error() {
                    PacketVerdict::Erroneous
                } else {
                    PacketVerdict::Clean
                }
            }
            _ => PacketVerdict::Dropped,
        };
        // Dynamic adaptation on the observed fault counter, exactly as
        // in the batch runner — but online, per shard, forever.
        self.measured.control_step();
        verdict
    }

    /// Publishes the fault counters accumulated since the last publish
    /// into telemetry and the shard report.
    fn publish(&mut self, rep: &mut ShardReport, telemetry: Option<&Telemetry>, worker: usize) {
        let now = *self.measured.machine().stats();
        let delta = now.since(&self.published);
        if let Some(t) = telemetry {
            t.record_stats(worker, &delta);
        }
        rep.faults_injected += delta.faults_injected;
        rep.faults_detected += delta.faults_detected;
        rep.ways_disabled += delta.ways_disabled;
        self.published = now;
    }
}

/// Seed for one shard build: base seed, shard mix, and a per-build
/// round multiplied by the campaign reseed stride — every rebuild
/// (setup retry or post-panic restart) draws a fresh stream.
fn shard_seed(base: u64, shard: usize, round: u64) -> u64 {
    base ^ (shard as u64).wrapping_mul(SHARD_SEED_MIX) ^ round.wrapping_mul(RESEED_STRIDE)
}

/// What a shard's supervisor carries from one generation to the next:
/// everything a caught panic must not lose.
#[derive(Debug, Default)]
struct Carry {
    /// The packet being processed, if any — abandoned on a panic.
    in_flight: Option<u32>,
    /// Machine builds so far; every rebuild draws the next reseed round.
    rounds: u64,
    /// Whether the test-only injected panic is still armed.
    panic_armed: bool,
    /// Entries taken from the queue and not yet started. A panic leaves
    /// them here and the next generation serves them first, so it costs
    /// only the packet in flight.
    batch: VecDeque<Entry>,
}

/// One shard generation: build a machine pair (reseeding past
/// control-plane fatals), then serve the carried batch and the queue,
/// [`SHARD_BATCH`] entries per lock, until the queue is closed and
/// drained. Panics propagate to the supervisor.
fn shard_loop(
    shard: usize,
    cfg: &ServeConfig,
    context: &Trace,
    queue: &IngressQueue,
    rep: &mut ShardReport,
    telemetry: Option<&Telemetry>,
    carry: &mut Carry,
) {
    let mut state = None;
    for _ in 0..=SETUP_RETRY_LIMIT {
        let round = carry.rounds;
        carry.rounds += 1;
        match ShardState::build(cfg, context, shard_seed(cfg.design.seed, shard, round)) {
            Ok(s) => {
                state = Some(s);
                break;
            }
            Err(_) => {
                rep.setup_retries += 1;
                if let Some(t) = telemetry {
                    t.count(shard, Counter::shard_setup_retries, 1);
                }
            }
        }
    }
    let Some(mut state) = state else {
        // Never wedge: a shard that cannot boot a machine at this
        // operating point degrades to shedding its queue so the pump
        // and the sibling shards keep moving.
        loop {
            for _ in carry.batch.drain(..) {
                rep.dropped += 1;
                if let Some(t) = telemetry {
                    t.packet_dropped(shard);
                }
            }
            if !queue.pop_batch(SHARD_BATCH, |e| carry.batch.push_back(e)) {
                return;
            }
        }
    };

    let mut since_publish = 0u32;
    loop {
        let Some(Entry { pkt, enqueued, .. }) = carry.batch.pop_front() else {
            if queue.pop_batch(SHARD_BATCH, |e| carry.batch.push_back(e)) {
                continue;
            }
            break;
        };
        carry.in_flight = Some(pkt.id);
        if cfg.panic_on_packet == Some(pkt.id) && carry.panic_armed {
            carry.panic_armed = false;
            panic!("injected serve test panic on packet {}", pkt.id);
        }
        let verdict = state.process_packet(&pkt);
        if let (Some(t), Some(at)) = (telemetry, enqueued) {
            t.serve_latency(at.elapsed());
        }
        rep.digest = digest_step(rep.digest, pkt.id, verdict as u8);
        match verdict {
            PacketVerdict::Clean => rep.processed += 1,
            PacketVerdict::Erroneous => {
                rep.processed += 1;
                rep.erroneous += 1;
            }
            PacketVerdict::Dropped => rep.dropped += 1,
        }
        if let Some(t) = telemetry {
            match verdict {
                PacketVerdict::Clean => t.packet_processed(shard, false),
                PacketVerdict::Erroneous => t.packet_processed(shard, true),
                PacketVerdict::Dropped => t.packet_dropped(shard),
            }
        }
        carry.in_flight = None;
        since_publish += 1;
        if since_publish >= cfg.stats_interval.max(1) {
            state.publish(rep, telemetry, shard);
            since_publish = 0;
        }
    }
    state.publish(rep, telemetry, shard);
    if let Some(ctl) = state.measured.controller() {
        rep.safe_mode_entries += u64::from(ctl.safe_mode_entries());
    }
    rep.final_cycle = state.measured.machine().cycle_time();
}

/// Supervises one shard for the lifetime of the run: every generation
/// runs under [`catch_unwind`]; a panic accounts the in-flight packet
/// as abandoned and restarts the loop with a reseeded stream on the
/// carried batch, then the same queue. Only returns once the queue is
/// closed and drained.
fn supervise_shard(
    shard: usize,
    cfg: &ServeConfig,
    context: &Trace,
    queue: &IngressQueue,
    telemetry: Option<&Telemetry>,
) -> ShardReport {
    let mut rep = ShardReport {
        shard,
        final_cycle: 1.0,
        ..ShardReport::default()
    };
    // The carry lives out here, outside `catch_unwind`: a panic unwinds
    // the generation but not its batch.
    let mut carry = Carry {
        panic_armed: cfg.panic_on_packet.is_some(),
        ..Carry::default()
    };
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| {
            shard_loop(shard, cfg, context, queue, &mut rep, telemetry, &mut carry);
        }));
        match result {
            Ok(()) => break,
            Err(payload) => {
                rep.panics += 1;
                rep.restarts += 1;
                rep.last_panic = Some(panic_message(payload));
                if carry.in_flight.take().is_some() {
                    rep.abandoned += 1;
                    if let Some(t) = telemetry {
                        t.count(shard, Counter::packets_abandoned, 1);
                    }
                }
                if let Some(t) = telemetry {
                    t.count(shard, Counter::shard_panics, 1);
                    t.count(shard, Counter::shard_restarts, 1);
                }
                // Loop: the next generation rebuilds with the next
                // reseed round and keeps consuming the same queue.
            }
        }
    }
    rep.queue_highwater = queue.highwater();
    rep
}

/// Runs the sharded service: spawns one supervised shard thread per
/// shard, pumps the traffic source through the flow-hash queues on the
/// calling thread, and on `stop` (or an exhausted budget) closes every
/// queue, drains, joins and reports.
///
/// `stop` is polled between packets; SIGTERM handling is the caller's
/// concern (the CLI passes [`crate::interrupt::interrupted`]).
///
/// # Panics
///
/// Panics if `cfg.shards` or `cfg.queue_depth` is zero (shard panics
/// themselves are caught and handled by the supervisor).
pub fn run_serve(
    cfg: &ServeConfig,
    telemetry: Option<&Telemetry>,
    stop: &(dyn Fn() -> bool + Sync),
) -> ServeReport {
    assert!(cfg.shards > 0, "need at least one shard");
    let clock = Instant::now();
    let mut source = TrafficSource::new(&cfg.traffic);

    // The SLO trigger feeds on the enqueue→verdict histogram, which
    // only exists when telemetry is attached; arm an internal sink if
    // the caller supplied none.
    let slo_local;
    let telemetry = match (telemetry, cfg.slo_p99_us) {
        (None, Some(_)) => {
            slo_local = Telemetry::with_shards(cfg.shards);
            Some(&slo_local)
        }
        (t, _) => t,
    };

    // Classifier: the n numerically lowest flow hashes are control.
    let classifier = (cfg.control_flows > 0)
        .then(|| FlowClassifier::lowest_hashes(&source.flow_hashes(), cfg.control_flows));
    let classes_on = classifier.is_some() || cfg.slo_p99_us.is_some();
    let mut slo = cfg.slo_p99_us.map(SloTrigger::new);
    let mut slo_reported_activations = 0u64;
    let mut control_offered = 0u64;
    let mut control_ingested = 0u64;
    let mut control_shed = 0u64;
    let mut data_offered = 0u64;
    let mut data_shed = 0u64;
    let mut preempt_shed = 0u64;

    let context = source.context();
    let queues: Vec<IngressQueue> = (0..cfg.shards)
        .map(|_| IngressQueue::with_flow_cap(cfg.queue_depth, cfg.flow_queue_cap))
        .collect();

    // The overload layer is fully absent on the default path: no flow
    // table and no clock reads — the FIFO pump, bitwise.
    let overload_on = cfg.flow_queue_cap.is_some();
    let mut flow_stats: HashMap<u64, (u64, u64)> = HashMap::new(); // (offered, shed)
    let mut shed_flow_cap = 0u64;

    let mut generated = 0u64;
    let mut ingested = 0u64;
    let mut shed = 0u64;
    let mut interrupted = false;

    let shard_reports = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.shards)
            .map(|i| {
                let queue = &queues[i];
                let context = &context;
                s.spawn(move || supervise_shard(i, cfg, context, queue, telemetry))
            })
            .collect();

        // The pump: draw from the unbounded source, shard by flow
        // hash, push with backpressure-then-shed. The stop poll sits
        // between packets so a signal is honored within one push.
        loop {
            if stop() {
                interrupted = true;
                break;
            }
            if cfg.packet_budget > 0 && generated >= cfg.packet_budget {
                break;
            }
            let pkt = source.next_packet();
            generated += 1;
            let flow = flow_hash(&pkt);
            let class = classifier
                .as_ref()
                .map_or(TrafficClass::Data, |c| c.classify(flow));
            if classes_on {
                match class {
                    TrafficClass::Control => control_offered += 1,
                    TrafficClass::Data => data_offered += 1,
                }
            }
            // Evaluate the SLO trigger on a sampled cadence; while it
            // is active, data-class pushes get a zero deadline (shed
            // on a full queue immediately) and control keeps the full
            // backpressure budget.
            let mut shed_timeout = cfg.shed_timeout;
            if let (Some(s), Some(t)) = (slo.as_mut(), telemetry) {
                if generated.is_multiple_of(SLO_CHECK_INTERVAL) {
                    s.update(&t.serve_latency_bucket_counts());
                    t.count(
                        0,
                        Counter::slo_trigger_activations,
                        s.activations - slo_reported_activations,
                    );
                    slo_reported_activations = s.activations;
                    t.count(0, Counter::slo_last_p99_us, s.last_p99_us);
                }
                if s.active && class == TrafficClass::Data {
                    shed_timeout = Duration::ZERO;
                }
            }
            let slo_tightened = shed_timeout.is_zero() && !cfg.shed_timeout.is_zero();
            let shard = shard_of(flow, cfg.shards);
            if overload_on {
                flow_stats.entry(flow).or_insert((0, 0)).0 += 1;
            }
            let entry = Entry {
                pkt,
                flow,
                class,
                enqueued: telemetry.map(|_| Instant::now()),
            };
            match queues[shard].push_entry(entry, shed_timeout) {
                PushOutcome::Enqueued(depth) => {
                    ingested += 1;
                    if class == TrafficClass::Control {
                        control_ingested += 1;
                    }
                    if let Some(t) = telemetry {
                        t.packet_ingested();
                        t.queue_depth_sample(depth as u64);
                    }
                }
                PushOutcome::Preempted {
                    depth,
                    evicted_flow,
                } => {
                    // A control packet entered by evicting one queued
                    // data packet: net ingested is unchanged (+1
                    // control in, −1 data out — the data packet was
                    // already counted when it was enqueued), and the
                    // eviction is one data-class shed attributed to
                    // the evicted flow. Telemetry mirrors this with
                    // monotone counters: no packet_ingested for the
                    // control packet, one packets_shed for the evicted
                    // one, so `generated = ingested + shed` stays
                    // exact on both ledgers.
                    shed += 1;
                    control_ingested += 1;
                    data_shed += 1;
                    preempt_shed += 1;
                    if overload_on {
                        flow_stats.entry(evicted_flow).or_insert((0, 0)).1 += 1;
                    }
                    if let Some(t) = telemetry {
                        t.count(0, Counter::packets_shed, 1);
                        t.count(0, Counter::packets_shed_data, 1);
                        t.count(0, Counter::packets_preempt_shed, 1);
                        t.queue_depth_sample(depth as u64);
                    }
                }
                PushOutcome::Shed => {
                    shed += 1;
                    if classes_on {
                        match class {
                            TrafficClass::Control => control_shed += 1,
                            TrafficClass::Data => data_shed += 1,
                        }
                    }
                    if slo_tightened {
                        if let Some(s) = slo.as_mut() {
                            s.shed += 1;
                        }
                    }
                    if overload_on {
                        flow_stats.entry(flow).or_insert((0, 0)).1 += 1;
                    }
                    if let Some(t) = telemetry {
                        t.count(0, Counter::packets_shed, 1);
                        if classes_on {
                            let counter = match class {
                                TrafficClass::Control => Counter::packets_shed_control,
                                TrafficClass::Data => Counter::packets_shed_data,
                            };
                            t.count(0, counter, 1);
                        }
                        if slo_tightened {
                            t.count(0, Counter::packets_shed_slo, 1);
                        }
                    }
                }
                PushOutcome::ShedFlowCap => {
                    shed += 1;
                    shed_flow_cap += 1;
                    if classes_on {
                        // Control is exempt from the flow cap, so this
                        // is always data.
                        data_shed += 1;
                    }
                    flow_stats.entry(flow).or_insert((0, 0)).1 += 1;
                    if let Some(t) = telemetry {
                        t.count(0, Counter::packets_shed, 1);
                        t.count(0, Counter::packets_shed_flow_cap, 1);
                        if classes_on {
                            t.count(0, Counter::packets_shed_data, 1);
                        }
                    }
                }
                PushOutcome::Closed => break,
            }
        }

        // Drain protocol: close every queue; shards finish what is
        // buffered, publish, and return their reports.
        for q in &queues {
            q.close();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("shard supervisors never panic"))
            .collect::<Vec<ShardReport>>()
    });

    if let Some(t) = telemetry {
        for q in &queues {
            t.queue_depth_sample(q.highwater() as u64);
        }
        let repairs: u64 = queues.iter().map(IngressQueue::invariant_repairs).sum();
        t.count(0, Counter::queue_invariant_repairs, repairs);
    }
    let overload = overload_on.then(|| {
        let drr_deficit_topups: u64 = queues.iter().map(IngressQueue::drr_topups).sum();
        if let Some(t) = telemetry {
            t.count(0, Counter::drr_deficit_topups, drr_deficit_topups);
        }
        let mut top_flows: Vec<FlowTraffic> = flow_stats
            .iter()
            .map(|(&flow, &(offered, shed))| FlowTraffic {
                flow,
                offered,
                shed,
            })
            .collect();
        top_flows.sort_by(|a, b| b.offered.cmp(&a.offered).then(a.flow.cmp(&b.flow)));
        let flows_seen = top_flows.len() as u64;
        top_flows.truncate(8);
        OverloadReport {
            shed_flow_cap,
            drr_deficit_topups,
            flows_seen,
            top_flows,
        }
    });
    let classes = classes_on.then(|| ClassReport {
        control_offered,
        control_ingested,
        control_shed,
        data_offered,
        data_shed,
        preempt_shed,
        slo_budget_us: cfg.slo_p99_us,
        slo_activations: slo.as_ref().map_or(0, |s| s.activations),
        slo_shed: slo.as_ref().map_or(0, |s| s.shed),
        slo_last_p99_us: slo.as_ref().map_or(0, |s| s.last_p99_us),
    });
    ServeReport {
        generated,
        ingested,
        shed,
        shards: shard_reports,
        overload,
        classes,
        interrupted,
        wall: clock.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn small_traffic() -> TraceConfig {
        TraceConfig::small()
    }

    fn serve_cfg(budget: u64) -> ServeConfig {
        ServeConfig::new(AppKind::Crc, ClumsyConfig::baseline())
            .with_traffic(small_traffic())
            .with_packet_budget(budget)
            .with_shards(3)
            .with_queue_depth(64)
            // Tests must be deterministic: never shed on scheduler
            // jitter.
            .with_shed_timeout(Duration::from_secs(300))
    }

    #[test]
    fn queue_backpressure_sheds_after_timeout() {
        let q = IngressQueue::new(2);
        let pkt = || Packet {
            id: 0,
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
            proto: 6,
            ttl: 9,
            payload: vec![0; 8],
        };
        let short = Duration::from_millis(5);
        assert!(matches!(q.push(pkt(), short), PushOutcome::Enqueued(1)));
        assert!(matches!(q.push(pkt(), short), PushOutcome::Enqueued(2)));
        assert_eq!(q.push(pkt(), short), PushOutcome::Shed);
        assert_eq!(q.highwater(), 2);
        q.close();
        assert_eq!(q.push(pkt(), short), PushOutcome::Closed);
        // Close drains what is buffered before signalling the end.
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn flow_shard_is_stable_and_in_range() {
        let mut src = TrafficSource::new(&small_traffic());
        for _ in 0..200 {
            let p = src.next_packet();
            let s = flow_shard(&p, 4);
            assert!(s < 4);
            assert_eq!(s, flow_shard(&p, 4), "same packet, same shard");
        }
    }

    #[test]
    fn bounded_serve_accounts_for_every_packet() {
        let report = run_serve(&serve_cfg(400), None, &|| false);
        assert_eq!(report.generated, 400);
        assert_eq!(report.shed, 0);
        assert!(report.accounting_holds(), "{report:?}");
        assert_eq!(report.processed(), 400);
        assert!(!report.interrupted);
        assert_eq!(report.restarts(), 0);
        let summary = report.summary();
        assert!(summary.contains("accounting ok"), "{summary}");
    }

    #[test]
    fn serve_is_deterministic() {
        let cfg = serve_cfg(300);
        let a = run_serve(&cfg, None, &|| false);
        let b = run_serve(&cfg, None, &|| false);
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.digest, y.digest, "shard {} digest", x.shard);
            assert_eq!(x.processed, y.processed);
        }
    }

    #[test]
    fn stop_drains_and_accounting_still_holds() {
        let polls = AtomicU64::new(0);
        let report = run_serve(&serve_cfg(0), None, &|| {
            polls.fetch_add(1, Ordering::Relaxed) >= 500
        });
        assert!(report.interrupted);
        assert_eq!(report.generated, 500);
        assert!(report.accounting_holds(), "{report:?}");
    }

    #[test]
    fn injected_panic_restarts_only_the_victim_shard() {
        let cfg = serve_cfg(400);
        // Pick a mid-stream packet and find which shard owns it.
        let victim_pkt = TrafficSource::new(&cfg.traffic)
            .nth(200)
            .expect("stream is unbounded");
        let victim = flow_shard(&victim_pkt, cfg.shards);
        let clean = run_serve(&cfg, None, &|| false);
        let faulty = run_serve(
            &cfg.clone().with_panic_on_packet(victim_pkt.id),
            None,
            &|| false,
        );

        assert!(faulty.accounting_holds(), "{faulty:?}");
        assert_eq!(faulty.restarts(), 1);
        assert_eq!(faulty.abandoned(), 1);
        let v = &faulty.shards[victim];
        assert_eq!(v.panics, 1);
        assert_eq!(v.abandoned, 1);
        assert!(
            v.last_panic.as_deref().unwrap_or("").contains("injected"),
            "{:?}",
            v.last_panic
        );
        // The victim lost exactly the in-flight packet but consumed
        // the same queue contents.
        assert_eq!(v.consumed(), clean.shards[victim].consumed());
        // Sibling shards are bitwise untouched by the restart.
        for (f, c) in faulty.shards.iter().zip(&clean.shards) {
            if f.shard == victim {
                continue;
            }
            assert_eq!(f.digest, c.digest, "shard {} digest changed", f.shard);
            assert_eq!(f.processed, c.processed, "shard {}", f.shard);
            assert_eq!(f.restarts, 0, "shard {}", f.shard);
        }
    }

    #[test]
    fn serve_feeds_the_telemetry_counters() {
        let t = Telemetry::with_shards(4);
        let report = run_serve(&serve_cfg(250), Some(&t), &|| false);
        let s = t.snapshot();
        assert_eq!(s.packets_ingested, report.ingested);
        assert_eq!(
            s.packets_processed,
            report.processed(),
            "processed mismatch"
        );
        assert_eq!(s.packets_dropped, report.dropped());
        assert_eq!(s.packets_shed, 0);
        assert!(s.queue_highwater >= 1);
        let json = t.metrics_json();
        for key in [
            "packets_ingested",
            "packets_shed",
            "packets_processed",
            "packets_erroneous",
            "packets_dropped",
            "packets_abandoned",
            "shard_panics",
            "shard_restarts",
            "shard_setup_retries",
            "queue_highwater",
        ] {
            assert!(json.contains(key), "metrics JSON lost {key}");
        }
    }

    /// A synthetic 5-tuple packet: `i` sweeps src/dst addresses so
    /// each index is a distinct flow.
    fn tuple_pkt(i: u32) -> Packet {
        Packet {
            id: i,
            src_ip: 0x0A00_0000 | i,
            dst_ip: 0xC0A8_0000 | i.wrapping_mul(7),
            src_port: 1024 + (i % 40_000) as u16,
            dst_port: 80,
            proto: 6,
            ttl: 64,
            payload: vec![0; 64],
        }
    }

    #[test]
    fn flow_hash_spreads_uniform_tuples_evenly() {
        // Chi-square goodness of fit for FNV-1a 5-tuple sharding over
        // 8192 distinct flows. Critical values at p = 0.001 for
        // df = shards − 1: a hash this bad would fail one in a
        // thousand universes, not this deterministic one.
        const N: usize = 8192;
        for (shards, crit) in [(2usize, 10.83f64), (4, 16.27), (8, 24.32)] {
            let mut counts = vec![0u64; shards];
            for i in 0..N {
                counts[flow_shard(&tuple_pkt(i as u32), shards)] += 1;
            }
            let expected = N as f64 / shards as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&c| {
                    let d = c as f64 - expected;
                    d * d / expected
                })
                .sum();
            assert!(
                chi2 < crit,
                "{shards} shards: chi2 {chi2:.2} >= {crit} ({counts:?})"
            );
        }
    }

    #[test]
    fn drr_serves_mice_ahead_of_an_elephant_backlog() {
        // One elephant flow enqueues 6 near-MTU packets, then two mice
        // one small packet each. FIFO would make the mice wait out the
        // whole elephant backlog; DRR must interleave them into the
        // first quantum round, because each elephant packet nearly
        // exhausts the 1500-byte deficit.
        let q = IngressQueue::with_flow_cap(64, Some(16));
        let long = Duration::from_secs(1);
        let elephant = tuple_pkt(0);
        for i in 0..6u32 {
            let mut p = elephant.clone();
            p.id = 1000 + i; // distinct ids, same 5-tuple
            p.payload = vec![0; 1400];
            assert!(matches!(q.push(p, long), PushOutcome::Enqueued(_)));
        }
        let (ma, mb) = (tuple_pkt(1), tuple_pkt(2));
        assert_ne!(flow_hash(&ma), flow_hash(&elephant));
        assert_ne!(flow_hash(&mb), flow_hash(&elephant));
        assert!(matches!(q.push(ma.clone(), long), PushOutcome::Enqueued(_)));
        assert!(matches!(q.push(mb.clone(), long), PushOutcome::Enqueued(_)));
        q.close();
        let drained: Vec<Packet> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained.len(), 8);
        let order: Vec<u64> = drained.iter().map(flow_hash).collect();
        let pos = |h: u64| order.iter().position(|&x| x == h).expect("flow served");
        // Both mice are served before the elephant's last packet.
        let last_elephant = order
            .iter()
            .rposition(|&x| x == flow_hash(&elephant))
            .unwrap();
        assert!(pos(flow_hash(&ma)) < last_elephant, "{order:?}");
        assert!(pos(flow_hash(&mb)) < last_elephant, "{order:?}");
        // Per-flow order is preserved: the elephant's ids ascend.
        let elephant_ids: Vec<u32> = drained
            .iter()
            .filter(|p| flow_hash(p) == flow_hash(&elephant))
            .map(|p| p.id)
            .collect();
        assert!(
            elephant_ids.windows(2).all(|w| w[0] < w[1]),
            "{elephant_ids:?}"
        );
        assert!(q.drr_topups() > 0, "round robin must have topped up");
    }

    #[test]
    fn flow_cap_sheds_the_elephant_not_the_queue() {
        let q = IngressQueue::with_flow_cap(64, Some(4));
        let long = Duration::from_secs(1);
        let elephant = tuple_pkt(0);
        for _ in 0..4 {
            assert!(matches!(
                q.push(elephant.clone(), long),
                PushOutcome::Enqueued(_)
            ));
        }
        // Fifth packet of the same flow: immediate flow-cap shed, no
        // blocking, even though the queue itself has plenty of room.
        let before = Instant::now();
        assert_eq!(q.push(elephant.clone(), long), PushOutcome::ShedFlowCap);
        assert!(before.elapsed() < Duration::from_millis(500));
        // A different flow still gets in.
        let mouse = tuple_pkt(1);
        assert!(matches!(q.push(mouse, long), PushOutcome::Enqueued(5)));
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn overload_serve_accounts_and_reports() {
        // The per-flow cap on, under a genuinely skewed mix.
        let cfg = serve_cfg(600)
            .with_shards(2)
            .with_queue_depth(32)
            .with_flow_queue_cap(4)
            .with_traffic(TraceConfig::small().with_pattern(netbench::TrafficPattern::Elephant));
        let report = run_serve(&cfg, None, &|| false);
        assert!(report.accounting_holds(), "{report:?}");
        let o = report.overload.as_ref().expect("overload report present");
        assert!(o.flows_seen >= 2, "{o:?}");
        assert!(!o.top_flows.is_empty());
        // Top talker is first and the ordering is by offered count.
        for w in o.top_flows.windows(2) {
            assert!(w[0].offered >= w[1].offered, "{o:?}");
        }
        // Flow-level shed accounting sums into the report total.
        let flow_shed: u64 = o.top_flows.iter().map(|f| f.shed).sum();
        assert!(flow_shed <= report.shed);
        let summary = report.summary();
        assert!(summary.contains("overload: shed_flow_cap="), "{summary}");
        assert!(summary.contains("flow shed: elephant="), "{summary}");
    }

    #[test]
    fn default_path_is_untouched_by_the_overload_layer() {
        // With every overload feature off, the report carries no
        // overload section and the summary is byte-identical to a
        // pre-overload run — the bitwise-stability contract.
        let cfg = serve_cfg(300);
        let report = run_serve(&cfg, None, &|| false);
        assert!(report.overload.is_none());
        let summary = report.summary();
        assert!(!summary.contains("overload:"), "{summary}");
        assert!(!summary.contains("flow shed:"), "{summary}");
        // And digests match a second identical run (determinism).
        let again = run_serve(&cfg, None, &|| false);
        for (a, b) in report.shards.iter().zip(&again.shards) {
            assert_eq!(a.digest, b.digest);
        }
    }

    #[test]
    fn overload_serve_feeds_the_new_telemetry() {
        let t = Telemetry::with_shards(2);
        let cfg = serve_cfg(400)
            .with_shards(2)
            .with_queue_depth(16)
            .with_flow_queue_cap(2)
            .with_traffic(TraceConfig::small().with_pattern(netbench::TrafficPattern::Elephant));
        let report = run_serve(&cfg, Some(&t), &|| false);
        let s = t.snapshot();
        let o = report.overload.as_ref().expect("overload report");
        assert_eq!(s.packets_shed_flow_cap, o.shed_flow_cap);
        assert_eq!(s.drr_deficit_topups, o.drr_deficit_topups);
        // Every processed packet was timed enqueue→verdict.
        assert_eq!(s.serve_latency_us_count, report.processed());
        assert!(s.serve_latency_us_count > 0);
    }

    #[test]
    fn digest_step_chain_is_pinned() {
        // The verdict digest is an FNV-1a fold seeded from FNV_OFFSET;
        // pin a short chain so the shared-hash refactor (and anything
        // after it) cannot silently change recorded shard digests.
        let mut d = 0u64;
        for (id, verdict) in [(1u32, 0u8), (2, 1), (3, 2)] {
            d = digest_step(d, id, verdict);
        }
        assert_eq!(d, 0x275A_EA1C_065C_FB14);
    }

    fn entry_of(pkt: Packet, class: TrafficClass) -> Entry {
        let flow = flow_hash(&pkt);
        Entry {
            pkt,
            flow,
            class,
            enqueued: None,
        }
    }

    #[test]
    fn control_preempts_the_newest_data_entry_in_fifo_mode() {
        let q = IngressQueue::new(2);
        let long = Duration::from_secs(300);
        let (a, b, c) = (tuple_pkt(1), tuple_pkt(2), tuple_pkt(3));
        assert!(matches!(q.push(a.clone(), long), PushOutcome::Enqueued(1)));
        assert!(matches!(q.push(b.clone(), long), PushOutcome::Enqueued(2)));
        // Full queue: a control push evicts the newest data entry
        // instead of waiting out the backpressure deadline.
        let before = Instant::now();
        let out = q.push_entry(entry_of(c.clone(), TrafficClass::Control), long);
        assert!(before.elapsed() < Duration::from_secs(1));
        assert_eq!(
            out,
            PushOutcome::Preempted {
                depth: 2,
                evicted_flow: flow_hash(&b),
            }
        );
        q.close();
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|p| p.id).collect();
        assert_eq!(drained, vec![a.id, c.id]);
    }

    #[test]
    fn control_preempts_the_most_backlogged_flow_in_drr_mode() {
        let q = IngressQueue::with_flow_cap(4, Some(3));
        let long = Duration::from_secs(300);
        let x = tuple_pkt(1); // 3 packets: the backlogged flow
        let y = tuple_pkt(2); // 1 packet
        for i in 0..3u32 {
            let mut p = x.clone();
            p.id = 100 + i;
            assert!(matches!(q.push(p, long), PushOutcome::Enqueued(_)));
        }
        assert!(matches!(q.push(y.clone(), long), PushOutcome::Enqueued(4)));
        let ctl = entry_of(tuple_pkt(3), TrafficClass::Control);
        let out = q.push_entry(ctl, long);
        assert_eq!(
            out,
            PushOutcome::Preempted {
                depth: 4,
                evicted_flow: flow_hash(&x),
            }
        );
        // The victim was the *tail* of the backlogged flow: its first
        // two packets and the mouse survive, per-flow order intact.
        q.close();
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|p| p.id).collect();
        assert_eq!(drained.len(), 4);
        assert!(drained.contains(&100) && drained.contains(&101));
        assert!(!drained.contains(&102), "{drained:?}");
        assert!(drained.contains(&y.id));
    }

    #[test]
    fn control_never_evicts_control() {
        let q = IngressQueue::new(1);
        let long = Duration::from_secs(300);
        let short = Duration::from_millis(5);
        assert!(matches!(
            q.push_entry(entry_of(tuple_pkt(1), TrafficClass::Control), long),
            PushOutcome::Enqueued(1)
        ));
        // All-control queue: a second control packet competes under
        // ordinary backpressure and sheds at the deadline.
        assert_eq!(
            q.push_entry(entry_of(tuple_pkt(2), TrafficClass::Control), short),
            PushOutcome::Shed
        );
        // Data never preempts anything.
        assert_eq!(q.push(tuple_pkt(3), short), PushOutcome::Shed);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn corrupted_drr_state_is_repaired_not_wedged() {
        // Regression for the invariant-panic-under-the-Mutex bug: a
        // stale round-robin slot or an empty per-flow queue used to
        // `expect()` while holding the ingress lock, poisoning it and
        // wedging every producer. Both must now be repaired in place.
        let q = IngressQueue::with_flow_cap(8, Some(4));
        q.corrupt_stale_active(0xDEAD);
        q.corrupt_empty_flow(0xBEEF);
        let p = tuple_pkt(1);
        assert!(matches!(
            q.push(p.clone(), Duration::from_secs(1)),
            PushOutcome::Enqueued(_)
        ));
        q.close();
        let got = q.pop().expect("queue must keep serving past corruption");
        assert_eq!(got.id, p.id);
        assert!(q.pop().is_none());
        assert_eq!(q.invariant_repairs(), 2);
    }

    #[test]
    fn histogram_p99_reports_conservative_upper_edges() {
        assert_eq!(histogram_p99_us(&[]), None);
        assert_eq!(histogram_p99_us(&[0, 0, 0]), None);
        // A single sample in bucket 3 ([8, 16)): rank 1, edge 15.
        assert_eq!(histogram_p99_us(&[0, 0, 0, 1]), Some(15));
        // 100 samples in bucket 0: p99 is the 99th, edge 1.
        assert_eq!(histogram_p99_us(&[100]), Some(1));
        // 98 fast + 2 slow: rank 99 lands in the slow bucket.
        let mut d = vec![0u64; 6];
        d[0] = 98;
        d[5] = 2;
        assert_eq!(histogram_p99_us(&d), Some(63));
        // 99 fast + 1 slow: rank 99 still lands in the fast bucket —
        // the slow sample is exactly the 1% tail the p99 excludes.
        d[0] = 99;
        d[5] = 1;
        assert_eq!(histogram_p99_us(&d), Some(1));
    }

    #[test]
    fn slo_trigger_needs_a_full_window_and_counts_activations() {
        let mut s = SloTrigger::new(100);
        // Too few samples: carried forward, still inactive.
        let mut cum = vec![0u64; 8];
        cum[7] = SLO_MIN_SAMPLES - 1;
        s.update(&cum);
        assert!(!s.active);
        assert_eq!(s.activations, 0);
        // One more slow verdict completes the window; bucket 7's upper
        // edge (255) blows the 100 µs budget.
        cum[7] = SLO_MIN_SAMPLES;
        s.update(&cum);
        assert!(s.active);
        assert_eq!(s.activations, 1);
        assert_eq!(s.last_p99_us, 255);
        // A fast window deactivates without a second activation.
        cum[0] += 64;
        s.update(&cum);
        assert!(!s.active);
        assert_eq!(s.activations, 1);
        assert_eq!(s.last_p99_us, 1);
    }

    #[test]
    fn classified_serve_spares_control_and_accounts_exactly() {
        // Queue depth above the run's total control packet count
        // (~350 of 1500 with 4 of 16 flows marked): a control shed
        // needs an all-control full queue, so the depth makes it
        // structurally impossible whatever the machine speed. The
        // elephant's flow-cap sheds supply the data-class overload.
        let cfg = serve_cfg(1500)
            .with_shards(2)
            .with_queue_depth(512)
            .with_flow_queue_cap(3)
            .with_control_flows(4)
            .with_traffic(TraceConfig::small().with_pattern(netbench::TrafficPattern::Elephant));
        let report = run_serve(&cfg, None, &|| false);
        assert!(report.accounting_holds(), "{report:?}");
        let c = report.classes.as_ref().expect("class report present");
        assert_eq!(c.control_shed, 0, "{c:?}");
        assert!(c.control_offered > 0, "{c:?}");
        assert!(c.data_shed > 0, "overload must bite the data class: {c:?}");
        // The class split is a partition of the totals.
        assert_eq!(c.control_offered + c.data_offered, report.generated);
        assert_eq!(c.control_shed + c.data_shed, report.shed);
        let summary = report.summary();
        assert!(summary.contains("class: control_offered="), "{summary}");
        assert!(!summary.contains("slo:"), "no SLO armed: {summary}");
    }

    #[test]
    fn slo_trigger_fires_in_process_and_reports() {
        // A 1 µs budget is unmeetable: the first full histogram window
        // must activate the trigger, and the summary gains an slo line.
        let t = Telemetry::with_shards(2);
        let cfg = serve_cfg(1500)
            .with_shards(2)
            .with_queue_depth(8)
            .with_slo_p99_us(1)
            .with_traffic(TraceConfig::small().with_pattern(netbench::TrafficPattern::Elephant));
        let report = run_serve(&cfg, Some(&t), &|| false);
        assert!(report.accounting_holds(), "{report:?}");
        let c = report.classes.as_ref().expect("class report present");
        assert_eq!(c.slo_budget_us, Some(1));
        assert!(c.slo_activations > 0, "{c:?}");
        assert!(c.slo_last_p99_us > 1, "{c:?}");
        // No classifier: everything is data, and control stays silent.
        assert_eq!(c.control_offered, 0);
        assert_eq!(c.control_shed, 0);
        let s = t.snapshot();
        assert_eq!(s.slo_trigger_activations, c.slo_activations);
        assert_eq!(s.packets_shed_slo, c.slo_shed);
        assert!(s.slo_last_p99_us > 1);
        let summary = report.summary();
        assert!(summary.contains("slo: budget_us=1"), "{summary}");
    }

    #[test]
    fn slo_without_caller_telemetry_still_triggers() {
        // The histogram lives in telemetry; when the caller passes
        // None the serve path must arm an internal sink rather than
        // silently disabling the trigger.
        let cfg = serve_cfg(1000)
            .with_shards(2)
            .with_queue_depth(8)
            .with_slo_p99_us(1);
        let report = run_serve(&cfg, None, &|| false);
        let c = report.classes.as_ref().expect("class report present");
        assert!(c.slo_activations > 0, "{c:?}");
    }

    #[test]
    fn default_path_carries_no_class_report() {
        let report = run_serve(&serve_cfg(200), None, &|| false);
        assert!(report.classes.is_none());
        let summary = report.summary();
        assert!(!summary.contains("class:"), "{summary}");
        assert!(!summary.contains("slo:"), "{summary}");
    }

    /// Runs `cfg` on its own thread and fails, instead of hanging, if
    /// the run does not finish within `limit`: a lost wakeup leaves a
    /// shard asleep on a queue that has work.
    fn run_serve_within(cfg: ServeConfig, limit: Duration) -> ServeReport {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run_serve(&cfg, None, &|| false));
        });
        rx.recv_timeout(limit)
            .expect("serve did not finish: a wakeup was lost")
    }

    #[test]
    fn tiny_queues_never_lose_a_wakeup() {
        for depth in [1, 2] {
            let cfg = serve_cfg(10_000).with_shards(1).with_queue_depth(depth);
            let report = run_serve_within(cfg, Duration::from_secs(120));
            assert_eq!(report.generated, 10_000, "depth {depth}");
            assert_eq!(report.shed, 0, "depth {depth}");
            assert_eq!(report.ingested, 10_000, "depth {depth}");
            assert_eq!(report.processed() + report.dropped(), 10_000);
            assert!(report.accounting_holds(), "depth {depth}: {report:?}");
        }
    }

    #[test]
    fn a_panic_mid_batch_abandons_only_the_packet_in_flight() {
        let cfg = serve_cfg(0).with_shards(1);
        let source = TrafficSource::new(&cfg.traffic);
        let context = source.context();
        let packets: Vec<Packet> = source.take(40).collect();
        let queue = IngressQueue::new(64);
        for p in &packets {
            assert!(matches!(
                queue.push(p.clone(), Duration::ZERO),
                PushOutcome::Enqueued(_)
            ));
        }
        queue.close();
        // The first batch takes packets 0..SHARD_BATCH; packet 5 dies
        // mid-batch and the next generation must serve the other 26.
        let victim = packets[5].id;
        let cfg = cfg.with_panic_on_packet(victim);
        let rep = supervise_shard(0, &cfg, &context, &queue, None);
        assert_eq!(rep.panics, 1);
        assert_eq!(rep.restarts, 1);
        assert_eq!(rep.abandoned, 1);
        assert_eq!(rep.processed, 39, "{rep:?}");
        assert_eq!(rep.consumed(), 40);
        assert!(queue.is_empty());
    }

    #[test]
    fn oversized_packets_are_dropped_without_a_restart() {
        let mut traffic = small_traffic();
        traffic.payload_min = 1900;
        traffic.payload_max = 2100;
        let mut dma = netbench::Machine::golden();
        let too_big = TrafficSource::new(&traffic)
            .take(300)
            .filter(|p| dma.dma_packet(p).is_err())
            .count() as u64;
        assert!(too_big > 0 && too_big < 300, "{too_big}");
        let report = run_serve(&serve_cfg(300).with_traffic(traffic), None, &|| false);
        assert_eq!(report.restarts(), 0, "{report:?}");
        assert_eq!(report.abandoned(), 0);
        assert_eq!(report.dropped(), too_big);
        assert_eq!(report.processed(), 300 - too_big);
        assert_eq!(report.generated, report.ingested + report.shed);
        assert!(report.accounting_holds(), "{report:?}");
    }

    #[test]
    fn dynamic_plan_serves_online() {
        let mut cfg = serve_cfg(350);
        cfg.design = ClumsyConfig::baseline().with_dynamic(crate::config::DynamicConfig::paper());
        let report = run_serve(&cfg, None, &|| false);
        assert!(report.accounting_holds());
        // With calibrated (tiny) fault rates the controllers climb off
        // the safe level on at least one shard that saw enough packets.
        assert!(
            report.shards.iter().any(|s| s.final_cycle < 1.0),
            "{report:?}"
        );
    }
}
