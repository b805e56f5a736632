//! The simulator: event loop, connections, and the world's mutable state.
//!
//! In sharded mode (see [`crate::shard`]) one `Simulator` instance is one
//! shard of a larger world and may be moved onto a worker thread, so all
//! state here must stay `Send` by construction.
// Per-shard state (DESIGN.md §3.2d): it moves onto worker threads, and a
// panic or a silent truncation here forks or ends every shard's history.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

use crate::arena::{ColdSubflow, FlowArena, NOT_RESIDENT};
use crate::cbr::{CbrId, CbrSource, CbrSpec};
use crate::event::{AckInfo, EventKind};
use crate::fault::{FaultAction, FaultPlan};
use crate::link::{GeState, Link, LinkId, LinkPath, LinkSpec, LinkStats};
use crate::mem::{deque_bytes, vec_bytes, MemBytes};
use crate::packet::{Packet, PacketOwner, DEFAULT_PACKET_SIZE};
use crate::perf::SimPerf;
use crate::probe::{
    CcPhase, LinkPoint, ProbeLog, ProbeSpec, ProbeState, SubflowPoint, Transition, TransitionKind,
};
use crate::scoreboard::MAX_CAP;
use crate::stats::{ConnectionStats, SubflowStats};
use crate::tcp::{SubflowReceiver, SubflowSender, TcpParams};
use crate::time::SimTime;
use crate::wheel::TimerWheel;
use mptcp_cc::{
    AlgorithmKind, CcDriver, Failover, FailoverEdge, MultipathCc, PureAdapter, SubflowSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::mem::{size_of, size_of_val};

/// Identifier of a connection within one [`Simulator`].
pub type ConnId = usize;

/// Upper bound of the uniform jitter added to each ACK's return delay, to
/// break the phase-locking artifacts drop-tail FIFO simulations are prone to.
const ACK_JITTER: SimTime = SimTime::from_micros(100);

/// One subflow's static configuration.
#[derive(Debug, Clone)]
pub struct SubflowSpec {
    /// Forward path: links traversed in order.
    pub path: Vec<LinkId>,
    /// Extra fixed delay added to the ACK return (models reverse-path /
    /// wide-area latency beyond the forward links' propagation delays).
    pub extra_rtt: SimTime,
    /// Backup priority (MP_JOIN `B` bit): the subflow is established and
    /// kept warm but carries no data while any primary subflow is usable.
    pub backup: bool,
}

impl SubflowSpec {
    /// A subflow over `path` with no extra return delay.
    pub fn new(path: Vec<LinkId>) -> Self {
        Self { path, extra_rtt: SimTime::ZERO, backup: false }
    }

    /// Add extra fixed return delay.
    pub fn extra_rtt(mut self, d: SimTime) -> Self {
        self.extra_rtt = d;
        self
    }

    /// Mark the subflow as backup priority.
    pub fn backup(mut self) -> Self {
        self.backup = true;
        self
    }
}

/// How the connection's congestion controller is chosen.
enum CcChoice {
    Kind(AlgorithmKind),
    Custom(Box<dyn MultipathCc>),
}

impl std::fmt::Debug for CcChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcChoice::Kind(k) => write!(f, "Kind({k:?})"),
            CcChoice::Custom(c) => write!(f, "Custom({})", c.name()),
        }
    }
}

/// Configuration of a (possibly multipath) connection, built fluently:
///
/// ```
/// # use mptcp_netsim::*;
/// # use mptcp_cc::AlgorithmKind;
/// let spec = ConnectionSpec::bulk(AlgorithmKind::Mptcp)
///     .path(vec![0])
///     .path(vec![1])
///     .start(SimTime::from_secs(1));
/// ```
pub struct ConnectionSpec {
    cc: CcChoice,
    pub(crate) subflows: Vec<SubflowSpec>,
    pub(crate) start: SimTime,
    /// Number of data packets to transfer; `None` = unlimited (bulk).
    size_pkts: Option<u64>,
    packet_size: u32,
    tcp: TcpParams,
}

impl ConnectionSpec {
    /// A long-lived bulk-transfer connection using a named algorithm.
    pub fn bulk(kind: AlgorithmKind) -> Self {
        Self {
            cc: CcChoice::Kind(kind),
            subflows: Vec::new(),
            start: SimTime::ZERO,
            size_pkts: None,
            packet_size: DEFAULT_PACKET_SIZE,
            tcp: TcpParams::default(),
        }
    }

    /// A finite transfer of `pkts` packets (for flow-arrival workloads).
    pub fn sized(kind: AlgorithmKind, pkts: u64) -> Self {
        let mut s = Self::bulk(kind);
        s.size_pkts = Some(pkts.max(1));
        s
    }

    /// A bulk connection with a custom congestion controller (for
    /// ablations).
    pub fn custom(cc: Box<dyn MultipathCc>) -> Self {
        let mut s = Self::bulk(AlgorithmKind::Mptcp);
        s.cc = CcChoice::Custom(cc);
        s
    }

    /// Add a subflow over `path` (shorthand for a default [`SubflowSpec`]).
    pub fn path(mut self, path: Vec<LinkId>) -> Self {
        self.subflows.push(SubflowSpec::new(path));
        self
    }

    /// Add a fully-specified subflow.
    pub fn subflow(mut self, sf: SubflowSpec) -> Self {
        self.subflows.push(sf);
        self
    }

    /// Mark the most recently added subflow as backup priority.
    ///
    /// # Panics
    /// Panics if no subflow has been added yet.
    #[expect(
        clippy::expect_used,
        reason = "builder API, runs at scenario construction before any event fires; the misuse is documented under # Panics and must fail loudly, not simulate a half-built world"
    )]
    pub fn backup(mut self) -> Self {
        self.subflows.last_mut().expect("backup() needs a preceding path()/subflow()").backup =
            true;
        self
    }

    /// Set the start time.
    pub fn start(mut self, at: SimTime) -> Self {
        self.start = at;
        self
    }

    /// Set the packet size in bytes.
    pub fn packet_size(mut self, bytes: u32) -> Self {
        self.packet_size = bytes;
        self
    }

    /// Override the TCP parameters.
    pub fn tcp(mut self, params: TcpParams) -> Self {
        self.tcp = params;
        self
    }

    /// One [`SubflowTiming`] per subflow, computed against a link table of
    /// `n_links` links whose specs `link` returns.
    ///
    /// # Panics
    /// Panics if the spec has no subflows, a subflow has an empty path, or
    /// a path names a link outside the table.
    pub(crate) fn timings(&self, n_links: usize, link: impl Fn(LinkId) -> LinkSpec) -> Vec<SubflowTiming> {
        assert!(!self.subflows.is_empty(), "connection needs at least one subflow");
        self.subflows
            .iter()
            .map(|sf| {
                assert!(!sf.path.is_empty(), "subflow path must traverse at least one link");
                let mut fwd = SimTime::ZERO;
                let mut residence = SimTime::ZERO;
                for &l in &sf.path {
                    assert!(l < n_links, "unknown link {l}");
                    let spec = link(l);
                    fwd += spec.delay;
                    let drain = spec.tx_time(self.packet_size).as_nanos();
                    residence += spec.delay
                        + SimTime(drain.saturating_mul(spec.queue_pkts as u64 + 1));
                }
                let ack_delay = fwd + sf.extra_rtt;
                let rtt_hint = (fwd + ack_delay).as_secs_f64().max(1e-4);
                SubflowTiming { ack_delay, rtt_hint, straggler: residence + ack_delay }
            })
            .collect()
    }
}

/// Per-subflow admission-time timing, computed against whichever link
/// table (local or world) owns the subflow's path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubflowTiming {
    /// Fixed delay from delivery at the destination to the ACK reaching
    /// the sender (reverse propagation + any extra RTT).
    pub(crate) ack_delay: SimTime,
    /// Initial RTT estimate handed to the sender.
    pub(crate) rtt_hint: f64,
    /// Conservative bound on how long after its send a packet — and the
    /// ACK it triggers — can still be in flight: the sum over hops of
    /// propagation delay plus a full drop-tail queue's serialization
    /// time, plus the ACK return delay. Feeds the flow-lifecycle
    /// retirement grace period (see [`Simulator::set_flow_lifecycle`]).
    pub(crate) straggler: SimTime,
}

/// Exactly-once bookkeeping for a data sequence number that exists (or may
/// exist) on more than one subflow because of reinjection.
#[derive(Debug, Clone, Copy, Default)]
struct ReinjectEntry {
    /// The dsn has reached the receiver (on any subflow copy).
    delivered: bool,
    /// The dsn has been acknowledged (on any subflow copy).
    acked: bool,
}

/// A connection's reinjection state, created when a failed or closed
/// subflow first strands data. Most connections never need one.
#[derive(Debug, Default)]
struct Reinjection {
    /// Data sequence numbers stranded on a potentially-failed subflow,
    /// waiting to be reinjected on a live one (each dsn is harvested at
    /// most once — see `reg`).
    queue: VecDeque<u64>,
    /// Per-dsn delivery/ack dedupe for data that was ever queued for
    /// reinjection. Data never reinjected has exactly one subflow copy and
    /// needs no entry here.
    reg: BTreeMap<u64, ReinjectEntry>,
    /// Arrivals of a dsn whose data the receiver already had via another
    /// subflow copy (the waste reinjection trades for robustness).
    dup_arrivals: u64,
    /// Reinjected copies handed to live subflows.
    sent: u64,
}

/// Per-call scratch buffers, one set per simulator: every use refills a
/// buffer before reading it, so no connection needs its own, and once
/// warm they stop growing.
#[derive(Debug, Default)]
struct Scratch {
    /// Congestion-control snapshots of one connection's subflows.
    snaps: Vec<SubflowSnapshot>,
    /// Data sequence numbers one ACK newly acknowledged.
    acked_dsns: Vec<u64>,
    /// A failed subflow's stranded `(seq, dsn)` pairs (see
    /// `SubflowSender::stranded`).
    stranded: Vec<(u64, u64)>,
    /// Capacity-growth events of the buffers above (allocation accounting
    /// for [`SimPerf::hot_allocs`]).
    allocs: u64,
}

impl Scratch {
    /// Refill the snapshots from one connection's hot and cold windows.
    fn refresh_snaps(&mut self, tx: &[SubflowSender], cold: &[ColdSubflow]) {
        let cap = self.snaps.capacity();
        self.snaps.clear();
        self.snaps.extend(tx.iter().zip(cold).map(|(t, c)| snapshot_of(t, c.closed)));
        if self.snaps.capacity() != cap {
            self.allocs += 1;
        }
    }

    fn heap_bytes(&self) -> u64 {
        vec_bytes(&self.snaps) + vec_bytes(&self.acked_dsns) + vec_bytes(&self.stranded)
    }
}

/// Runtime state of a connection.
///
/// Subflow state does not live here: every connection's subflows occupy a
/// contiguous window of the simulator-level [`FlowArena`] (struct-of-arrays
/// layout). Cold rows are addressed by the stable `(sub_base, sub_count)`
/// window; the hot columns by the recyclable `(hot_base, hot_gen)` window,
/// which under flow lifecycle is acquired at start and released one
/// straggler-grace after the transfer completes.
struct Connection {
    cc: CcDriver,
    /// TCP parameters every subflow's sender is armed with, here once
    /// rather than in every cold row or sender.
    tcp: TcpParams,
    /// First index of this connection's *cold* subflow rows in the arena
    /// (stable for the lifetime of the world).
    sub_base: u32,
    /// Number of subflows.
    sub_count: u32,
    /// First index of this connection's *hot* subflow columns in the
    /// arena, or [`NOT_RESIDENT`] (lifecycle mode: not yet started, or
    /// already retired).
    hot_base: u32,
    /// Generation of the hot window (stale-handle detection in debug
    /// builds; recycled windows bump it).
    hot_gen: u32,
    /// Lifecycle mode: the hot window has been released back to the
    /// arena and `final_stats` froze the subflow statistics.
    retired: bool,
    /// How long after the transfer completes the hot window may be
    /// recycled: twice the worst subflow's straggler bound, so every
    /// in-flight packet/ACK and stale timer has drained first.
    retire_grace: SimTime,
    /// Subflow statistics frozen at retirement (capacity reserved at
    /// admission so the retire path does not allocate).
    final_stats: Vec<SubflowStats>,
    /// Connection id carried inside packets: equal to this connection's
    /// own id in a standalone simulator, the world-level id in a sharded
    /// one (translated back to the local id at the delivery boundary).
    gid: ConnId,
    packet_size: u32,
    /// Remaining new packets to inject (finite flows).
    budget: Option<u64>,
    started_at: SimTime,
    started: bool,
    finished_at: Option<SimTime>,
    rr_next: usize,
    /// Next connection-level data sequence number to hand to a subflow.
    next_dsn: u64,
    /// Stranded data and its exactly-once registry, once any exists.
    reinject: Option<Box<Reinjection>>,
    /// Distinct data packets that reached the receiver (each dsn counted
    /// once, however many copies arrived).
    data_delivered: u64,
    /// Distinct data packets acknowledged (each dsn counted once).
    data_acked: u64,
    /// Backup-failover state machine, clocked in nanoseconds.
    failover: Failover,
    /// Addresses advertised to this connection at runtime
    /// ([`FaultAction::AddrAdd`] / [`Simulator::admin_open_subflow`]).
    addr_advertised: u64,
    /// Subflows (re)opened at runtime.
    subflows_joined: u64,
    /// Subflows administratively closed at runtime.
    subflows_closed: u64,
}

impl Connection {
    fn has_data(&self) -> bool {
        self.budget.is_none_or(|b| b > 0)
    }

    /// This connection's *cold* row window in the arena (stable indices).
    fn subs(&self) -> std::ops::Range<usize> {
        self.sub_base as usize..(self.sub_base + self.sub_count) as usize
    }

    /// This connection's *hot* column window in the arena. Only valid
    /// while resident (`hot_base != NOT_RESIDENT`).
    fn hots(&self) -> std::ops::Range<usize> {
        debug_assert!(self.hot_base != NOT_RESIDENT, "hot window accessed while not resident");
        self.hot_base as usize..(self.hot_base + self.sub_count) as usize
    }

    /// Whether the hot window is currently resident in the arena.
    fn resident(&self) -> bool {
        self.hot_base != NOT_RESIDENT
    }
}

/// One subflow's congestion-control snapshot: clamped window and RTT, plus
/// whether the subflow is administratively live. Closed subflows stay in
/// the arena (indices are stable) but must not count toward live-path
/// weights — this flag is what lets EWTCP's equal split and the OLIA/BALIA
/// path sums track churn.
fn snapshot_of(tx: &SubflowSender, closed: bool) -> SubflowSnapshot {
    SubflowSnapshot::new(tx.cwnd.max(1e-9), tx.cc_rtt().max(1e-6)).active(!closed)
}

/// One subflow's statistics, read from its live hot and cold state (shared
/// by [`Simulator::connection_stats`] and the lifecycle retirement
/// snapshot, so a retired flow's frozen stats are bit-identical to what a
/// live read at the same instant would have produced).
fn subflow_stats(tx: &SubflowSender, rx: &SubflowReceiver, cold: &ColdSubflow) -> SubflowStats {
    SubflowStats {
        delivered_pkts: rx.delivered(),
        sent_pkts: cold.sent_pkts,
        retransmits: tx.stats.retransmits,
        timeouts: tx.stats.timeouts,
        fast_recoveries: tx.stats.fast_recoveries,
        cwnd: tx.cwnd,
        ssthresh: tx.ssthresh,
        srtt: tx.timer.srtt().unwrap_or(0.0),
        rto: tx.timer.rto(),
        in_flight: tx.pipe(),
        rto_backoffs: tx.timer.backoffs(),
        potentially_failed: tx.timer.potentially_failed(),
        backup: cold.backup,
        closed: cold.closed,
    }
}

/// Per-shard routing context installed by [`crate::ShardedSimulator`]:
/// the world map (global link/connection placement and path hop tables)
/// plus this shard's cross-shard outbox buffers, one per destination
/// shard. Outboxes are emptied at the epoch barrier, never touched
/// concurrently.
pub(crate) struct ShardCtx {
    /// This shard's index in the world.
    pub(crate) id: u32,
    /// Shared placement/routing tables, read-only during a run.
    pub(crate) map: std::sync::Arc<crate::shard::WorldMap>,
    /// Buffered cross-shard arrivals generated during the current epoch,
    /// indexed by destination shard.
    pub(crate) outbox: Vec<Vec<(SimTime, Packet)>>,
}

/// The deterministic discrete-event simulator. See the crate docs for the
/// model scope and an end-to-end example.
pub struct Simulator {
    now: SimTime,
    /// Boxed: the wheel's slot array is ~1.5 KiB.
    queue: Box<TimerWheel>,
    links: Vec<Link>,
    conns: Vec<Connection>,
    /// Subflow arena: every connection's subflows live contiguously here
    /// in struct-of-arrays columns — [`Connection`] holds dense
    /// `(base, count)` windows instead of per-connection heap vectors, so
    /// the per-ACK hot state of the whole world sits in a few contiguous
    /// slabs while routes/flags/stats are parked in cold rows. Under
    /// [`Self::set_flow_lifecycle`], hot windows are recycled across flow
    /// churn.
    flows: FlowArena,
    /// Flow-lifecycle mode: defer hot-window acquisition to start and
    /// recycle the window one straggler-grace after the flow finishes.
    lifecycle: bool,
    /// Per-call scratch shared by every connection.
    scratch: Scratch,
    /// Routing context installed by [`crate::ShardedSimulator`] when this
    /// simulator is one shard of a partitioned world; `None` standalone.
    shard: Option<Box<ShardCtx>>,
    cbrs: Vec<CbrSource>,
    rng: StdRng,
    events_processed: u64,
    /// Dispatched events that were stale no-ops (lazy RTO timers, CBR sends
    /// from a superseded generation).
    events_cancelled: u64,
    /// Wall-clock nanoseconds spent inside `run_until`.
    wall_nanos: u64,
    /// Installed fault actions, indexed by `EventKind::Fault { idx }`.
    fault_actions: Vec<FaultAction>,
    /// Fault actions executed so far.
    faults_applied: u64,
    /// Stall watchdog threshold: if set and no data is delivered for this
    /// long while unfinished connections exist, `run_until` stops early
    /// and reports via [`SimPerf::stalled_at`].
    stall_watchdog: Option<SimTime>,
    /// Last time any data packet reached a destination (watchdog input).
    last_progress: SimTime,
    /// When the watchdog declared the world stalled, if it did.
    stalled_at: Option<SimTime>,
    /// When the event queue ran dry with unfinished connections left — a
    /// quiesced/deadlocked world (nothing will ever make progress again).
    quiesced_at: Option<SimTime>,
    /// Telemetry probe, when enabled (boxed: the log can grow large and
    /// the disabled case should cost one pointer).
    probe: Option<Box<ProbeState>>,
    /// Whether a `ProbeTick` event is pending in the queue (at most one,
    /// like the lazy RTO timers).
    probe_tick_pending: bool,
    /// Pool of in-flight ACK payloads; `EventKind::AckArrive` carries a
    /// slot index into this table instead of the ~100-byte payload itself,
    /// keeping queued events small and the steady-state ACK path free of
    /// allocation (slots are recycled through `ack_free`).
    ack_pool: Vec<AckInfo>,
    /// Recycled `ack_pool` slots.
    ack_free: Vec<u32>,
    /// Capacity-growth events of the ACK pool (allocation accounting).
    ack_pool_allocs: u64,
    /// [`Self::wrap_pure_in_adapter`]: wrap every subsequently added pure
    /// named algorithm in the stateful adapter.
    force_adapter: bool,
}

impl Simulator {
    /// Create a simulator with a deterministic RNG seed. Two simulators
    /// constructed with the same seed and fed the same calls produce
    /// identical histories.
    pub fn new(seed: u64) -> Self {
        Self {
            now: SimTime::ZERO,
            queue: Box::new(TimerWheel::new()),
            links: Vec::new(),
            conns: Vec::new(),
            flows: FlowArena::default(),
            lifecycle: false,
            scratch: Scratch::default(),
            shard: None,
            cbrs: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            events_processed: 0,
            events_cancelled: 0,
            wall_nanos: 0,
            fault_actions: Vec::new(),
            faults_applied: 0,
            stall_watchdog: None,
            last_progress: SimTime::ZERO,
            stalled_at: None,
            quiesced_at: None,
            probe: None,
            probe_tick_pending: false,
            ack_pool: Vec::new(),
            ack_free: Vec::new(),
            ack_pool_allocs: 0,
            force_adapter: false,
        }
    }

    /// Run every pure named algorithm added from now on through the
    /// stateful driver path, via the float-exact [`PureAdapter`]. A
    /// differential-testing hook — the histories must be bit-identical
    /// either way — that reaches specs built inside topology constructors.
    /// No effect on natively stateful kinds or custom controllers.
    pub fn wrap_pure_in_adapter(&mut self, on: bool) {
        self.force_adapter = on;
    }

    /// Park an ACK payload in the pool, returning the slot to carry in the
    /// event. Slots are recycled, so after warmup this never allocates.
    fn alloc_ack(&mut self, info: AckInfo) -> u32 {
        match self.ack_free.pop() {
            Some(slot) => {
                self.ack_pool[slot as usize] = info;
                slot
            }
            None => {
                if self.ack_pool.len() == self.ack_pool.capacity() {
                    self.ack_pool_allocs += 1;
                }
                self.ack_pool.push(info);
                crate::cast::slab_u32(self.ack_pool.len() - 1)
            }
        }
    }

    /// Read an ACK payload out of the pool and recycle its slot.
    fn take_ack(&mut self, slot: u32) -> AckInfo {
        if self.ack_free.len() == self.ack_free.capacity() {
            self.ack_pool_allocs += 1;
        }
        self.ack_free.push(slot);
        self.ack_pool[slot as usize]
    }

    /// Enable flow-lifecycle mode: connections acquire their hot subflow
    /// columns at start instead of admission, and release them one
    /// straggler-grace period after finishing, so the arena recycles hot
    /// windows across flow churn instead of growing with every admission.
    /// Off by default; with it off, histories (and [`DetDigest`] digests)
    /// are bit-identical to the pre-arena layout.
    ///
    /// # Panics
    /// Panics if connections have already been added — the mode governs
    /// admission-time layout and cannot change mid-run.
    pub fn set_flow_lifecycle(&mut self, on: bool) {
        assert!(
            self.conns.is_empty(),
            "set_flow_lifecycle must be called before any add_connection"
        );
        self.lifecycle = on;
    }

    /// Number of hot subflow slots currently materialized in the arena
    /// (resident + free-listed; cold rows are not counted).
    pub fn arena_hot_slots(&self) -> usize {
        self.flows.hot_len()
    }

    /// How many hot-window acquisitions were served by recycling a
    /// previously released window instead of growing the arena.
    pub fn arena_hot_reuses(&self) -> u64 {
        self.flows.reuses()
    }

    /// Bytes this simulator holds, by category (see [`MemBytes`]).
    /// Walks every slot, so it costs time proportional to the world; it
    /// reads nothing the simulation depends on.
    pub fn mem_bytes(&self) -> MemBytes {
        let mut m = MemBytes::default();
        self.flows.mem_bytes(&mut m);
        m.connections = vec_bytes(&self.conns);
        for c in &self.conns {
            m.connections += match &c.cc {
                CcDriver::Pure(cc) => size_of_val(&**cc),
                CcDriver::Stateful(cc) => size_of_val(&**cc),
            } as u64;
            if let Some(r) = &c.reinject {
                m.connections += (size_of::<Reinjection>()
                    + r.reg.len() * size_of::<(u64, ReinjectEntry)>())
                    as u64
                    + deque_bytes(&r.queue);
            }
            m.final_stats += vec_bytes(&c.final_stats);
        }
        m.scratch = self.scratch.heap_bytes();
        m.event_queue = self.queue.heap_bytes();
        m.links = vec_bytes(&self.links) + self.links.iter().map(|l| deque_bytes(&l.queue)).sum::<u64>();
        m.ack_pool = vec_bytes(&self.ack_pool) + vec_bytes(&self.ack_free);
        if let Some(ctx) = &self.shard {
            m.outboxes = size_of::<ShardCtx>() as u64
                + vec_bytes(&ctx.outbox)
                + ctx.outbox.iter().map(vec_bytes).sum::<u64>();
        }
        m
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far (a cheap progress/perf metric).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Snapshot of the event core's performance counters.
    pub fn perf(&self) -> SimPerf {
        SimPerf {
            events_scheduled: self.queue.scheduled(),
            events_fired: self.events_processed,
            events_cancelled: self.events_cancelled,
            pending: self.queue.len() as u64,
            peak_pending: self.queue.peak_pending() as u64,
            wall: std::time::Duration::from_nanos(self.wall_nanos),
            sim_elapsed: self.now,
            faults_applied: self.faults_applied,
            stalled_at: self.stalled_at,
            quiesced_at: self.quiesced_at,
            hot_allocs: self.hot_allocs(),
            queue_reinserts: self.queue.reinserts(),
        }
    }

    /// Sum of all logical allocation events on the hot paths — see
    /// [`SimPerf::hot_allocs`]. Alloc counters survive hot-window
    /// recycling (`reset_for_reuse` keeps them), so this stays monotone
    /// and flat-in-steady-state under flow churn.
    fn hot_allocs(&self) -> u64 {
        let tx: u64 = self.flows.tx.iter().map(|t| t.alloc_events()).sum();
        let rx: u64 = self.flows.rx.iter().map(|r| r.alloc_events()).sum();
        self.ack_pool_allocs + self.scratch.allocs + tx + rx + self.flows.alloc_events()
    }

    // ------------------------------------------------------------------
    // World construction
    // ------------------------------------------------------------------

    /// Add a link; returns its id.
    pub fn add_link(&mut self, spec: LinkSpec) -> LinkId {
        self.links.push(Link::new(spec));
        self.links.len() - 1
    }

    /// Add a connection; returns its id. Transmission begins at the spec's
    /// start time.
    ///
    /// # Panics
    /// Panics if the spec has no subflows, references unknown links,
    /// sets a finite `TcpParams::max_cwnd` above the 2^20-packet flight
    /// the SACK scoreboard can track, or exceeds what a packet header
    /// holds: 2^31 connections, 256 subflows, 255 hops, 65 535 bytes.
    pub fn add_connection(&mut self, spec: ConnectionSpec) -> ConnId {
        let delays = spec.timings(self.links.len(), |l| self.links[l].spec);
        let gid = self.conns.len();
        self.add_connection_inner(spec, gid, &delays, true)
    }

    /// Add a connection whose ACK delays and RTT hints were computed
    /// against the sharded world map instead of this shard's local link
    /// table (the spec's paths carry *global* link ids, which are neither
    /// validated nor resolvable here, so the cold rows keep no route:
    /// sharded routing reads the world map). `gid` is the world-level id
    /// stamped into packets.
    pub(crate) fn add_connection_sharded(
        &mut self,
        spec: ConnectionSpec,
        gid: ConnId,
        delays: &[SubflowTiming],
    ) -> ConnId {
        assert!(!spec.subflows.is_empty(), "connection needs at least one subflow");
        assert_eq!(spec.subflows.len(), delays.len());
        self.add_connection_inner(spec, gid, delays, false)
    }

    /// Shared tail of connection admission: `delays` holds one
    /// [`SubflowTiming`] per subflow, already computed against whichever
    /// link table (local or world) owns the paths; `local_routes` says
    /// whether the cold rows keep the paths (standalone) or not (sharded).
    fn add_connection_inner(
        &mut self,
        spec: ConnectionSpec,
        gid: ConnId,
        delays: &[SubflowTiming],
        local_routes: bool,
    ) -> ConnId {
        let cap = spec.tcp.max_cwnd;
        assert!(
            !(cap.is_finite() && cap > MAX_CAP as f64),
            "max_cwnd {cap} exceeds the {MAX_CAP}-packet flight the scoreboard can track"
        );
        let n = spec.subflows.len();
        let hops = spec.subflows.iter().map(|sf| sf.path.len()).max().unwrap_or(0);
        crate::packet::assert_packable(gid, n, hops, spec.packet_size);
        let cc = match spec.cc {
            CcChoice::Kind(kind) if self.force_adapter && !kind.is_stateful() => {
                CcDriver::Stateful(Box::new(PureAdapter::new(kind.build(n))))
            }
            CcChoice::Kind(kind) => kind.build_cc(n),
            CcChoice::Custom(cc) => CcDriver::Pure(cc),
        };
        let sub_base = crate::cast::slab_u32(self.flows.cold.len());
        let mut worst_straggler = SimTime::ZERO;
        for (sf, t) in spec.subflows.into_iter().zip(delays) {
            worst_straggler = worst_straggler.max(t.straggler);
            self.flows.push_cold(ColdSubflow {
                ack_delay: t.ack_delay,
                rtt_hint: t.rtt_hint,
                sent_pkts: 0,
                backup: sf.backup,
                closed: false,
            });
            if local_routes {
                self.flows.routes.push(LinkPath::from(sf.path));
            }
        }
        // Flow lifecycle: hot state materializes at start (ConnStart) so
        // slots freed by earlier retirements can be recycled; otherwise
        // acquire now, which appends fresh columns in admission order
        // (hot index == cold index, the pre-lifecycle layout).
        let (hot_base, hot_gen) = if self.lifecycle {
            (NOT_RESIDENT, 0)
        } else {
            self.flows.acquire_hot(
                sub_base as usize,
                n,
                false,
                spec.size_pkts.unwrap_or(u64::MAX),
                &spec.tcp,
            )
        };
        // Twice the worst subflow's straggler bound: nothing addressed to
        // this flow can still be in flight once the grace expires.
        let retire_grace = SimTime(worst_straggler.as_nanos().saturating_mul(2))
            + ACK_JITTER
            + SimTime::from_millis(1);
        let conn = Connection {
            cc,
            tcp: spec.tcp,
            sub_base,
            sub_count: crate::cast::slab_u32(n),
            hot_base,
            hot_gen,
            retired: false,
            retire_grace,
            final_stats: if self.lifecycle { Vec::with_capacity(n) } else { Vec::new() },
            gid,
            packet_size: spec.packet_size,
            budget: spec.size_pkts,
            started_at: spec.start,
            started: false,
            finished_at: None,
            rr_next: 0,
            next_dsn: 0,
            reinject: None,
            data_delivered: 0,
            data_acked: 0,
            failover: Failover::default(),
            addr_advertised: 0,
            subflows_joined: 0,
            subflows_closed: 0,
        };
        self.conns.push(conn);
        let id = self.conns.len() - 1;
        let start = spec.start.max(self.now);
        self.queue.push(start, EventKind::ConnStart { conn: id });
        // New work revives a previously quiesced world.
        self.quiesced_at = None;
        id
    }

    /// Add a CBR source; returns its id.
    ///
    /// # Panics
    /// Panics if the spec references unknown links, or exceeds what a
    /// packet header holds: 2^31 sources, 255 hops, 65 535 bytes.
    pub fn add_cbr(&mut self, spec: CbrSpec) -> CbrId {
        for &l in &spec.path {
            assert!(l < self.links.len(), "unknown link {l}");
        }
        let id = self.cbrs.len();
        crate::packet::assert_packable(id, 1, spec.path.len(), spec.packet_size);
        let start = spec.start.max(self.now);
        self.cbrs.push(CbrSource::new(spec));
        self.queue.push(start, EventKind::CbrToggle { src: id });
        id
    }

    // ------------------------------------------------------------------
    // Scenario scripting (call between `run_until` steps)
    // ------------------------------------------------------------------

    /// Change a link's rate (bits per second), e.g. for mobility traces.
    /// This is a lasting change: it also becomes the link's new nominal
    /// rate (the rate a [`FaultAction::Brownout`] scales and
    /// [`FaultAction::RestoreRate`] returns to).
    pub fn set_link_rate_bps(&mut self, link: LinkId, rate_bps: f64) {
        assert!(rate_bps > 0.0);
        self.links[link].spec.rate_bps = rate_bps;
        self.links[link].nominal_rate_bps = rate_bps;
    }

    /// Change a link's random-loss probability. The closed range `[0, 1]`
    /// is accepted: `p = 1` models total loss on an otherwise-up link.
    pub fn set_link_loss(&mut self, link: LinkId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0,1], got {p}");
        self.links[link].spec.loss_prob = p;
    }

    /// Take a link down (all arriving packets dropped, queue flushed) or
    /// bring it back up. Both the flushed queue and subsequent arrivals
    /// count as [`LinkStats::dropped_down`], not queue overflow.
    pub fn set_link_down(&mut self, link: LinkId, down: bool) {
        let l = &mut self.links[link];
        l.down = down;
        if down {
            l.stats.dropped_down += l.queue.len() as u64;
            l.queue.clear();
        }
    }

    /// Install a fault plan: every `(time, action)` pair becomes an event
    /// on the simulator's own queue, so faults execute at their exact
    /// nanosecond in deterministic order with all other events — results
    /// do not depend on how `run_until` is stepped. Actions scheduled in
    /// the past execute at the current time. Plans can be installed
    /// incrementally; actions from all installed plans coexist.
    ///
    /// # Panics
    /// Panics if any action references an unknown link.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for &(at, action) in plan.actions() {
            assert!(action.link() < self.links.len(), "unknown link {}", action.link());
            let idx = self.fault_actions.len();
            self.fault_actions.push(action);
            self.queue.push(at.max(self.now), EventKind::Fault { idx });
        }
        self.quiesced_at = None;
    }

    /// Arm the stall watchdog: if no data packet reaches any destination
    /// for `threshold` of simulated time while unfinished connections
    /// exist, `run_until` stops early and reports the stall through
    /// [`SimPerf::stalled_at`]. `None` disarms (the default).
    pub fn set_stall_watchdog(&mut self, threshold: Option<SimTime>) {
        self.stall_watchdog = threshold;
        self.last_progress = self.now;
    }

    /// Stop a connection injecting new data (in-flight data still drains
    /// and is retransmitted as needed; the connection finishes when all of
    /// it is acknowledged). Models a flow terminating, as in the §2.4
    /// load-change scenario (Fig. 5).
    pub fn stop_connection(&mut self, conn: ConnId) {
        self.conns[conn].budget = Some(0);
        self.try_finish(conn);
    }

    /// Administratively close subflow `sub` of `conn` — the REMOVE_ADDR
    /// path-management signal: the peer withdrew the subflow's address, so
    /// the subflow stops carrying data immediately, its RTO timer is
    /// disarmed, and its unacknowledged data is queued for reinjection on
    /// the remaining subflows (exactly once, shared with the
    /// potentially-failed harvest). Idempotent; closing every subflow
    /// leaves the connection to the stall/quiesce detectors, exactly like
    /// an all-paths outage.
    pub fn admin_close_subflow(&mut self, conn: ConnId, sub: usize) {
        assert!(sub < self.conns[conn].sub_count as usize, "unknown subflow {sub}");
        if self.conns[conn].retired {
            return;
        }
        let base = self.conns[conn].sub_base as usize;
        if self.flows.cold[base + sub].closed {
            return;
        }
        self.flows.cold[base + sub].closed = true;
        if self.conns[conn].resident() {
            let hot = self.conns[conn].hot_base as usize;
            self.flows.rto_deadline[hot + sub] = None;
        }
        self.conns[conn].subflows_closed += 1;
        self.harvest_stranded(conn, sub);
        self.pump(conn);
    }

    /// (Re)advertise subflow `sub`'s address to `conn` — the ADD_ADDR
    /// path-management signal. Counted per advertisement; if the subflow
    /// was administratively closed it reopens and rejoins the data
    /// scheduler (sender state intact, like a subflow-level rejoin), with
    /// its RTO re-armed if it still holds in-flight data. A no-op beyond
    /// the counter for a subflow that was never closed.
    pub fn admin_open_subflow(&mut self, conn: ConnId, sub: usize) {
        assert!(sub < self.conns[conn].sub_count as usize, "unknown subflow {sub}");
        if self.conns[conn].retired {
            return;
        }
        self.conns[conn].addr_advertised += 1;
        let base = self.conns[conn].sub_base as usize;
        if !self.flows.cold[base + sub].closed {
            return;
        }
        self.flows.cold[base + sub].closed = false;
        self.conns[conn].subflows_joined += 1;
        if self.conns[conn].resident() {
            let hot = self.conns[conn].hot_base as usize;
            if self.flows.tx[hot + sub].pipe() > 0.0 {
                self.schedule_rto(conn, sub);
            }
        }
        self.pump(conn);
    }

    /// Enable the telemetry probe: every `spec.interval` the simulator
    /// records one [`SubflowPoint`] per watched subflow and one
    /// [`LinkPoint`] per watched link, plus congestion transitions as they
    /// happen. Empty watch lists mean "everything that exists now".
    ///
    /// Enabling is history-neutral: sampling draws no randomness and sends
    /// nothing, so the packet-level run is bit-identical with the probe on
    /// or off. While enabled, the pending tick keeps the event queue
    /// non-empty, so quiesce detection ([`SimPerf::quiesced_at`]) is
    /// inhibited; the stall watchdog still works. Enabling again replaces
    /// the current probe and discards its log.
    ///
    /// # Panics
    /// Panics if the interval is zero or a watch list references an
    /// unknown connection or link.
    pub fn enable_probe(&mut self, spec: ProbeSpec) {
        assert!(spec.interval > SimTime::ZERO, "probe interval must be positive");
        let mut spec = spec;
        if spec.conns.is_empty() {
            spec.conns = (0..self.conns.len()).collect();
        }
        if spec.links.is_empty() {
            spec.links = (0..self.links.len()).collect();
        }
        for &c in &spec.conns {
            assert!(c < self.conns.len(), "unknown connection {c}");
        }
        for &l in &spec.links {
            assert!(l < self.links.len(), "unknown link {l}");
        }
        let first = self.now + spec.interval;
        let mut watch = vec![false; self.conns.len()];
        for &c in &spec.conns {
            watch[c] = true;
        }
        self.probe = Some(Box::new(ProbeState { spec, log: ProbeLog::default(), watch }));
        if !self.probe_tick_pending {
            self.probe_tick_pending = true;
            self.queue.push(first, EventKind::ProbeTick);
        }
    }

    /// Disable the probe and return everything it collected (or `None` if
    /// no probe was enabled). The pending tick becomes a stale no-op.
    pub fn disable_probe(&mut self) -> Option<ProbeLog> {
        self.probe.take().map(|p| p.log)
    }

    /// The currently collected probe log, if a probe is enabled.
    pub fn probe_log(&self) -> Option<&ProbeLog> {
        self.probe.as_deref().map(|p| &p.log)
    }

    /// Zero all link counters (discard a warm-up period).
    pub fn reset_link_stats(&mut self) {
        for l in &mut self.links {
            l.stats = LinkStats::default();
        }
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /// A link's accumulated counters.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.links[link].stats
    }

    /// A link's current spec (rate/delay/queue/loss).
    pub fn link_spec(&self, link: LinkId) -> LinkSpec {
        self.links[link].spec
    }

    /// Number of links in the world.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of connections in the world.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// A connection's statistics snapshot. Valid in every lifecycle state:
    /// resident flows read the live hot columns; retired flows return the
    /// snapshot frozen at retirement; never-started flows (lifecycle mode,
    /// before `ConnStart`) synthesize the untouched-sender view from the
    /// cold row.
    pub fn connection_stats(&self, conn: ConnId) -> ConnectionStats {
        let c = &self.conns[conn];
        let subflows: Vec<SubflowStats> = if c.retired {
            c.final_stats.clone()
        } else if c.resident() {
            c.hots()
                .zip(c.subs())
                .map(|(h, s)| {
                    subflow_stats(&self.flows.tx[h], &self.flows.rx[h], &self.flows.cold[s])
                })
                .collect()
        } else {
            c.subs()
                .map(|s| {
                    let cold = &self.flows.cold[s];
                    let tx = SubflowSender::new(&c.tcp, cold.rtt_hint);
                    subflow_stats(&tx, &SubflowReceiver::default(), cold)
                })
                .collect()
        };
        ConnectionStats {
            subflows,
            packet_size: c.packet_size,
            started_at: c.started_at,
            finished_at: c.finished_at,
            data_sent: c.next_dsn,
            data_delivered: c.data_delivered,
            data_acked: c.data_acked,
            dup_data_arrivals: c.reinject.as_ref().map_or(0, |r| r.dup_arrivals),
            reinjections_sent: c.reinject.as_ref().map_or(0, |r| r.sent),
            reinject_pending: c.reinject.as_ref().map_or(0, |r| r.queue.len() as u64),
            backup_active: c.failover.backup_active(),
            backup_activations: c.failover.activations(),
            addr_advertised: c.addr_advertised,
            subflows_joined: c.subflows_joined,
            subflows_closed: c.subflows_closed,
            failover_latency: c.failover.latency().map(SimTime),
        }
    }

    /// Packets delivered by a CBR source.
    pub fn cbr_delivered(&self, src: CbrId) -> u64 {
        self.cbrs[src].delivered
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Run the world forward to `horizon` (inclusive); the clock ends at
    /// exactly `horizon`.
    ///
    /// Two pathological-world detectors report through [`Self::perf`]:
    ///
    /// * if a [stall watchdog](Self::set_stall_watchdog) is armed and no
    ///   data is delivered for the threshold while unfinished connections
    ///   exist, the loop stops early (the clock stays at the stall time)
    ///   and `SimPerf::stalled_at` is set;
    /// * if the event queue runs dry before `horizon` with unfinished
    ///   connections left — a deadlocked world that can never progress —
    ///   `SimPerf::quiesced_at` records when.
    pub fn run_until(&mut self, horizon: SimTime) {
        assert!(horizon >= self.now, "time cannot run backwards");
        let started = crate::perf::wall_clock();
        let mut stalled = false;
        while let Some(ev) = self.queue.pop_before(horizon) {
            debug_assert!(ev.at >= self.now, "event from the past");
            self.now = ev.at;
            self.events_processed += 1;
            self.dispatch(ev.kind);
            if let Some(threshold) = self.stall_watchdog {
                if self.now.saturating_sub(self.last_progress) > threshold {
                    if self.has_unfinished_connections() {
                        if self.stalled_at.is_none() {
                            self.stalled_at = Some(self.now);
                        }
                        stalled = true;
                        break;
                    }
                    // Idle but with nothing left to do: not a stall.
                    self.last_progress = self.now;
                }
            }
        }
        if !stalled {
            if self.queue.len() == 0
                && self.quiesced_at.is_none()
                && self.has_unfinished_connections()
            {
                self.quiesced_at = Some(self.now);
            }
            self.now = horizon;
        }
        self.wall_nanos += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    /// Whether any started, unfinished connection still has data it is
    /// trying to move (the condition under which silence means deadlock).
    fn has_unfinished_connections(&self) -> bool {
        self.conns.iter().any(|c| c.started && c.finished_at.is_none())
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::TxDone { link } => self.on_tx_done(link),
            EventKind::Arrive { pkt } => self.on_arrive(pkt),
            EventKind::AckArrive { conn, sub, ack } => {
                let ack = self.take_ack(ack);
                self.on_ack(conn, sub, ack);
            }
            EventKind::RtoFire { conn, sub } => self.on_rto(conn, sub),
            EventKind::ConnStart { conn } => self.on_conn_start(conn),
            EventKind::ConnRetire { conn } => self.on_conn_retire(conn),
            EventKind::CbrSend { src, gen } => self.on_cbr_send(src, gen),
            EventKind::CbrToggle { src } => self.on_cbr_toggle(src),
            EventKind::Fault { idx } => self.apply_fault(idx),
            EventKind::ProbeTick => self.on_probe_tick(),
        }
    }

    /// Take one probe sample of every watched subflow and link, then
    /// re-schedule the tick. Stale ticks (probe disabled since the event
    /// was queued) are no-ops, like lazy RTO timers.
    fn on_probe_tick(&mut self) {
        let Some(probe) = self.probe.as_deref_mut() else {
            self.probe_tick_pending = false;
            self.events_cancelled += 1;
            return;
        };
        let at = self.now;
        for &conn in &probe.spec.conns {
            let c = &self.conns[conn];
            // Non-resident flows (not yet started, or retired, under flow
            // lifecycle) have no live hot state to sample.
            if !c.resident() {
                continue;
            }
            for (sub, h) in c.hots().enumerate() {
                let tx = &self.flows.tx[h];
                let phase = if tx.in_recovery {
                    if tx.rto_recovery {
                        CcPhase::RtoRecovery
                    } else {
                        CcPhase::FastRecovery
                    }
                } else if tx.in_slow_start() {
                    CcPhase::SlowStart
                } else if c.cc.delay_based() {
                    CcPhase::DelayAvoidance
                } else {
                    CcPhase::CongestionAvoidance
                };
                probe.log.subflow_points.push(SubflowPoint {
                    at,
                    conn,
                    sub,
                    cwnd: tx.cwnd,
                    ssthresh: tx.ssthresh,
                    srtt: tx.timer.srtt().unwrap_or(0.0),
                    rto: tx.timer.rto(),
                    backoffs: tx.timer.backoffs(),
                    in_flight: tx.pipe(),
                    phase,
                });
            }
        }
        for &link in &probe.spec.links {
            let l = &self.links[link];
            probe.log.link_points.push(LinkPoint {
                at,
                link,
                queue_depth: l.queue.len() + usize::from(l.in_service.is_some()),
                offered: l.stats.offered,
                dropped_queue: l.stats.dropped_queue,
                dropped_random: l.stats.dropped_random,
                dropped_down: l.stats.dropped_down,
                transmitted: l.stats.transmitted,
            });
        }
        let next = at + probe.spec.interval;
        self.queue.push(next, EventKind::ProbeTick);
    }

    /// Append a congestion transition to the probe log (the caller already
    /// checked the connection is watched).
    fn record_transition(&mut self, conn: ConnId, sub: usize, kind: TransitionKind) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.log.transitions.push(Transition { at: self.now, conn, sub, kind });
        }
    }

    /// Whether the probe is enabled and watching `conn` — the single
    /// branch congestion hooks pay when telemetry is disabled.
    fn probe_watches(&self, conn: ConnId) -> bool {
        self.probe.as_deref().is_some_and(|p| p.watch.get(conn).copied().unwrap_or(false))
    }

    /// Execute one installed fault action. Reuses the public scripting
    /// mutators so scripted and event-driven faults behave identically.
    fn apply_fault(&mut self, idx: usize) {
        let action = self.fault_actions[idx];
        self.faults_applied += 1;
        match action {
            FaultAction::Down { link } => self.set_link_down(link, true),
            FaultAction::Up { link } => self.set_link_down(link, false),
            FaultAction::SetRate { link, bps } => self.set_link_rate_bps(link, bps),
            FaultAction::Brownout { link, factor } => {
                let l = &mut self.links[link];
                l.spec.rate_bps = l.nominal_rate_bps * factor;
            }
            FaultAction::RestoreRate { link } => {
                let l = &mut self.links[link];
                l.spec.rate_bps = l.nominal_rate_bps;
            }
            FaultAction::SetLoss { link, p } => self.set_link_loss(link, p),
            FaultAction::ShrinkQueue { link, pkts } => {
                let l = &mut self.links[link];
                l.spec.queue_pkts = pkts;
                // Drop-tail semantics: excess waiting packets are shed from
                // the back of the queue immediately.
                while l.queue.len() > pkts {
                    l.queue.pop_back();
                    l.stats.dropped_queue += 1;
                }
            }
            FaultAction::RestoreQueue { link } => {
                let l = &mut self.links[link];
                l.spec.queue_pkts = l.nominal_queue_pkts;
            }
            FaultAction::GilbertElliott { link, params } => {
                self.links[link].ge = params.map(|params| GeState { params, bad: false });
            }
            FaultAction::AddrRemove { conn, sub, .. } => {
                let conn = self.local_conn(conn);
                self.admin_close_subflow(conn, sub);
            }
            FaultAction::AddrAdd { conn, sub, .. } => {
                let conn = self.local_conn(conn);
                self.admin_open_subflow(conn, sub);
            }
        }
    }

    /// The connection id to use against local tables for a packet-carried
    /// id (packets carry world-level ids in sharded mode).
    fn local_conn(&self, conn: ConnId) -> ConnId {
        match &self.shard {
            Some(ctx) => ctx.map.local_of(conn),
            None => conn,
        }
    }

    fn path_link(&self, pkt: &Packet) -> LinkId {
        match pkt.owner() {
            PacketOwner::Subflow { conn, sub, .. } => match &self.shard {
                // Sharded: the hop table yields this shard's local link id
                // (the router below guarantees we only ever look up hops
                // that live here).
                Some(ctx) => ctx.map.hop(conn, sub, pkt.hop()).1 as LinkId,
                None => {
                    // Cold rows are stable across hot-window recycling, so
                    // straggler packets of retired flows still route.
                    let c = &self.conns[conn];
                    self.flows.routes[c.sub_base as usize + sub][pkt.hop()]
                }
            },
            PacketOwner::Cbr { src } => self.cbrs[src].path[pkt.hop()],
        }
    }

    fn path_len(&self, pkt: &Packet) -> usize {
        match pkt.owner() {
            PacketOwner::Subflow { conn, sub, .. } => match &self.shard {
                Some(ctx) => ctx.map.path_len(conn, sub),
                None => {
                    let c = &self.conns[conn];
                    self.flows.routes[c.sub_base as usize + sub].len()
                }
            },
            PacketOwner::Cbr { src } => self.cbrs[src].path.len(),
        }
    }

    /// Offer a packet to the link at `pkt.hop` of its path.
    fn enqueue_packet(&mut self, pkt: Packet) {
        let link_id = self.path_link(&pkt);
        let (down, loss_prob) = {
            let l = &self.links[link_id];
            (l.down, l.spec.loss_prob)
        };
        self.links[link_id].stats.offered += 1;
        if down {
            self.links[link_id].stats.dropped_down += 1;
            return;
        }
        // Gilbert–Elliott bursty loss, when a chain is installed: one
        // transition attempt per offered packet, then a loss draw in the
        // resulting state. Both draws come from the simulator RNG, in
        // packet order — fully deterministic for a fixed seed.
        if let Some(mut ge) = self.links[link_id].ge {
            let flip = if ge.bad { ge.params.p_exit_bad } else { ge.params.p_enter_bad };
            if flip > 0.0 && self.rng.gen::<f64>() < flip {
                ge.bad = !ge.bad;
                self.links[link_id].ge = Some(ge);
            }
            let p = if ge.bad { ge.params.loss_bad } else { ge.params.loss_good };
            if p > 0.0 && self.rng.gen::<f64>() < p {
                self.links[link_id].stats.dropped_random += 1;
                return;
            }
        }
        if loss_prob > 0.0 && self.rng.gen::<f64>() < loss_prob {
            self.links[link_id].stats.dropped_random += 1;
            return;
        }
        let l = &mut self.links[link_id];
        if l.busy {
            if l.queue.len() >= l.spec.queue_pkts {
                l.stats.dropped_queue += 1;
            } else {
                l.queue.push_back(pkt);
            }
        } else {
            l.busy = true;
            l.in_service = Some(pkt);
            let done = self.now + l.tx_time(pkt.size());
            self.queue.push(done, EventKind::TxDone { link: link_id });
        }
    }

    fn on_tx_done(&mut self, link: LinkId) {
        let (mut pkt, delay) = {
            let l = &mut self.links[link];
            #[expect(
                clippy::expect_used,
                reason = "a TxDone with an idle link means the event history itself is corrupt; continuing would silently fork determinism, so this must fail loudly"
            )]
            let pkt = l.in_service.take().expect("TxDone with no packet in service");
            l.stats.transmitted += 1;
            l.stats.bytes += pkt.size() as u64;
            if let Some(next) = l.queue.pop_front() {
                l.in_service = Some(next);
                let done = self.now + l.tx_time(next.size());
                self.queue.push(done, EventKind::TxDone { link });
            } else {
                l.busy = false;
            }
            (pkt, l.spec.delay)
        };
        pkt.advance();
        let at = self.now + delay;
        // Sharded routing decision: after the hop advance the packet's
        // next stop is either the link at `hop` or, past the last link,
        // delivery at the owning connection. Either may live in another
        // shard; if so the arrival goes to that shard's outbox instead of
        // the local queue. Arrival time is `now + delay >= now + lookahead`
        // (the lookahead is the minimum delay over boundary-crossing
        // links), so cross-shard arrivals always land in a later epoch
        // than the one being processed — the causality invariant.
        if let Some(ctx) = &mut self.shard {
            if let PacketOwner::Subflow { conn, sub, .. } = pkt.owner() {
                let dst = if pkt.hop() < ctx.map.path_len(conn, sub) {
                    ctx.map.hop(conn, sub, pkt.hop()).0
                } else {
                    ctx.map.owner_of(conn)
                };
                if dst != ctx.id {
                    ctx.outbox[dst as usize].push((at, pkt));
                    return;
                }
            }
        }
        self.queue.push(at, EventKind::Arrive { pkt });
    }

    fn on_arrive(&mut self, pkt: Packet) {
        if pkt.hop() < self.path_len(&pkt) {
            self.enqueue_packet(pkt);
            return;
        }
        // Delivered to the destination. From here on everything is local:
        // the packet-carried (possibly world-level) connection id is
        // translated once, and the ACK event carries the local id.
        match pkt.owner() {
            PacketOwner::Subflow { conn, sub, seq } => {
                let conn = self.local_conn(conn);
                if self.conns[conn].retired {
                    // Straggler copy of a retired flow: its hot window may
                    // already belong to another connection, so drop it
                    // before touching any hot column.
                    self.events_cancelled += 1;
                    return;
                }
                self.last_progress = self.now;
                let base = self.conns[conn].sub_base as usize;
                let hot = self.conns[conn].hot_base as usize;
                {
                    let c = &mut self.conns[conn];
                    let FlowArena { tx, rx, .. } = &mut self.flows;
                    // Exactly-once data-level accounting. A first-time
                    // subflow arrival implies the packet is not yet
                    // cum-acked there, so its dsn metadata still exists.
                    if !rx[hot + sub].contains(seq) {
                        #[expect(
                            clippy::expect_used,
                            reason = "exactly-once accounting: !rx.contains(seq) just above implies the dsn metadata is still retained; losing it means data-level bookkeeping already diverged and must fail loudly"
                        )]
                        let dsn = tx[hot + sub]
                            .dsn_of(seq)
                            .expect("unacked first arrival keeps its metadata");
                        let reinjected = c.reinject.as_deref_mut().and_then(|r| {
                            let e = r.reg.get_mut(&dsn)?;
                            Some((e, &mut r.dup_arrivals))
                        });
                        match reinjected {
                            Some((e, dups)) if e.delivered => *dups += 1,
                            Some((e, _)) => {
                                e.delivered = true;
                                c.data_delivered += 1;
                            }
                            // Never reinjected: this is the only copy.
                            None => c.data_delivered += 1,
                        }
                    }
                }
                let (cum, _dup, sacks) = self.flows.rx[hot + sub].on_data(seq);
                let jitter = SimTime(self.rng.gen_range(0..=ACK_JITTER.as_nanos()));
                let back = self.now + self.flows.cold[base + sub].ack_delay + jitter;
                let ack = self.alloc_ack(AckInfo { cum, sacks });
                self.queue.push(back, EventKind::AckArrive { conn, sub, ack });
            }
            PacketOwner::Cbr { src } => {
                self.cbrs[src].delivered += 1;
            }
        }
    }

    fn on_conn_start(&mut self, conn: ConnId) {
        let c = &mut self.conns[conn];
        if c.started {
            return;
        }
        c.started = true;
        c.started_at = self.now;
        if !c.resident() {
            // Flow lifecycle: materialize the hot window now, preferring a
            // window recycled from an earlier retirement over fresh slots.
            let (hot_base, hot_gen) = self.flows.acquire_hot(
                c.sub_base as usize,
                c.sub_count as usize,
                true,
                c.budget.unwrap_or(u64::MAX),
                &c.tcp,
            );
            c.hot_base = hot_base;
            c.hot_gen = hot_gen;
        }
        // A newly transmitting connection counts as progress (otherwise a
        // late-starting flow trips the watchdog on its first event).
        self.last_progress = self.now;
        self.pump(conn);
    }

    /// Retire a finished flow one straggler-grace after completion: freeze
    /// its statistics snapshot and return the hot window to the arena's
    /// free lists. Only ever scheduled in [flow-lifecycle
    /// mode](Self::set_flow_lifecycle).
    fn on_conn_retire(&mut self, conn: ConnId) {
        let c = &mut self.conns[conn];
        if c.retired || !c.resident() {
            // A second stop/finish raced the first retirement.
            self.events_cancelled += 1;
            return;
        }
        debug_assert!(c.finished_at.is_some(), "retire scheduled only at finish");
        for (h, s) in c.hots().zip(c.subs()) {
            let st = subflow_stats(&self.flows.tx[h], &self.flows.rx[h], &self.flows.cold[s]);
            c.final_stats.push(st);
        }
        let (hot_base, n, gen) = (c.hot_base, c.sub_count as usize, c.hot_gen);
        // The window's warmed envelope: the *smallest* per-lane send-
        // metadata capacity, so the class promises what every lane holds.
        let env = c.hots().map(|h| self.flows.tx[h].meta_capacity()).min().unwrap_or(0);
        c.retired = true;
        c.hot_base = NOT_RESIDENT;
        self.flows.release_hot(hot_base, n, gen, env);
    }

    fn on_ack(&mut self, conn: ConnId, sub: usize, ack: AckInfo) {
        if self.conns[conn].retired {
            // Straggler ACK of a retired flow: its hot window may already
            // belong to another connection (the pool slot was recycled by
            // `take_ack` in dispatch, so nothing leaks).
            self.events_cancelled += 1;
            return;
        }
        let watching = self.probe_watches(conn);
        let mut transitions: [Option<TransitionKind>; 3] = [None; 3];
        let (arm, progressed) = {
            // Split borrow: the connection record, the arena columns and the
            // scratch are distinct `Simulator` fields, so all can be held
            // mutably.
            let c = &mut self.conns[conn];
            let FlowArena { tx, cold, .. } = &mut self.flows;
            let scratch = &mut self.scratch;
            let txs = &mut tx[c.hots()];
            let colds = &cold[c.subs()];
            scratch.acked_dsns.clear();
            let (was_recovering, was_failed) = if watching {
                (txs[sub].in_recovery, txs[sub].timer.potentially_failed())
            } else {
                (false, false)
            };
            let scratch_cap = scratch.acked_dsns.capacity();
            let outcome = txs[sub].on_ack(ack.cum, &ack.sacks, self.now, &mut scratch.acked_dsns);
            if scratch.acked_dsns.capacity() != scratch_cap {
                scratch.allocs += 1;
            }
            if watching {
                if outcome.entered_recovery {
                    transitions[0] = Some(TransitionKind::EnterFastRecovery);
                }
                if was_recovering && !txs[sub].in_recovery {
                    transitions[1] = Some(TransitionKind::ExitRecovery);
                }
                if was_failed && !txs[sub].timer.potentially_failed() {
                    transitions[2] = Some(TransitionKind::Revived);
                }
            }
            if outcome.newly_acked > 0 && txs[sub].growth_allowed() {
                // Grow once per newly acked packet: slow start adds one
                // packet per ACKed packet; congestion avoidance defers to
                // the coupled algorithm with a fresh snapshot each step
                // (windows are interdependent). Only *this* subflow's
                // window can change between steps, so the full snapshot
                // refresh happens once and later steps patch a single
                // entry in place instead of re-reading every subflow.
                let mut refreshed = false;
                match &mut c.cc {
                    CcDriver::Pure(cc) => {
                        for _ in 0..outcome.newly_acked {
                            let amount = if txs[sub].in_slow_start() {
                                1.0
                            } else {
                                if refreshed {
                                    scratch.snaps[sub] = snapshot_of(&txs[sub], colds[sub].closed);
                                } else {
                                    scratch.refresh_snaps(txs, colds);
                                    refreshed = true;
                                }
                                cc.increase_per_ack(sub, &scratch.snaps)
                            };
                            txs[sub].grow(amount);
                        }
                    }
                    CcDriver::Stateful(cc) => {
                        // Stateful hooks fire in slow start too (base-RTT
                        // filters, hybrid slow start watch every ACK), so
                        // the snapshot is kept fresh on every step here.
                        let floor = cc.min_window();
                        let now = self.now.as_secs_f64();
                        for _ in 0..outcome.newly_acked {
                            if refreshed {
                                scratch.snaps[sub] = snapshot_of(&txs[sub], colds[sub].closed);
                            } else {
                                scratch.refresh_snaps(txs, colds);
                                refreshed = true;
                            }
                            let in_ss = txs[sub].in_slow_start();
                            let act = cc.on_ack(sub, &scratch.snaps, now, in_ss);
                            txs[sub].grow(act.grow);
                            if act.grow < 0.0 && txs[sub].cwnd < floor {
                                // `grow` has no lower bound of its own;
                                // delay-based shrinks must not dig below
                                // the probing floor.
                                txs[sub].cwnd = floor;
                            }
                            if act.exit_slow_start && in_ss {
                                // Hybrid/Vegas slow-start exit: pin
                                // ssthresh to the current window so the
                                // sender runs congestion avoidance from
                                // the next ACK on.
                                let w = txs[sub].cwnd;
                                txs[sub].set_ssthresh(w);
                            }
                        }
                    }
                }
            }
            if outcome.entered_recovery {
                // One multiplicative decrease per loss episode, with the
                // level chosen by the coupled algorithm (for stateful
                // controllers this is also the loss-epoch hook).
                scratch.refresh_snaps(txs, colds);
                let level =
                    c.cc.clamped_window_after_loss(sub, &scratch.snaps, self.now.as_secs_f64());
                let floor = c.cc.min_window();
                txs[sub].shrink_to(level, floor);
            }
            (outcome.rearm_rto, outcome.newly_acked > 0)
        };
        for kind in transitions.into_iter().flatten() {
            self.record_transition(conn, sub, kind);
        }
        if progressed {
            let base = self.conns[conn].sub_base as usize;
            if !self.flows.cold[base + sub].backup {
                self.conns[conn].failover.on_primary_progress();
            }
        }
        // Data-level acknowledgment accounting: each dsn counts once,
        // across all subflow copies a reinjection may have created.
        {
            let c = &mut self.conns[conn];
            let acked = &self.scratch.acked_dsns;
            match c.reinject.as_deref_mut() {
                // Never reinjected: every dsn has exactly one copy.
                None => c.data_acked += acked.len() as u64,
                Some(r) => {
                    for dsn in acked {
                        match r.reg.get_mut(dsn) {
                            Some(e) if e.acked => {}
                            Some(e) => {
                                e.acked = true;
                                c.data_acked += 1;
                            }
                            None => c.data_acked += 1,
                        }
                    }
                }
            }
        }
        match arm {
            Some(true) => self.schedule_rto(conn, sub),
            Some(false) => {
                let hot = self.conns[conn].hot_base as usize;
                self.flows.rto_deadline[hot + sub] = None;
            }
            None => {}
        }
        self.try_finish(conn);
        self.pump(conn);
    }

    fn on_rto(&mut self, conn: ConnId, sub: usize) {
        if self.conns[conn].retired {
            // Straggler timer of a retired flow: its hot window may
            // already belong to another connection, so drop the event
            // before touching any hot column.
            self.events_cancelled += 1;
            return;
        }
        let base = self.conns[conn].sub_base as usize;
        let hot = self.conns[conn].hot_base as usize;
        self.flows.rto_event_at[hot + sub] = None;
        if self.conns[conn].finished_at.is_some() {
            // The transfer already completed at the data level (possibly
            // via reinjection around this very subflow); stop the timer
            // churn instead of probing a dead path forever.
            self.flows.rto_deadline[hot + sub] = None;
            self.events_cancelled += 1;
            return;
        }
        if self.flows.cold[base + sub].closed {
            // Administratively closed since the event was queued: the
            // address is gone, so there is no path left to probe.
            self.flows.rto_deadline[hot + sub] = None;
            self.events_cancelled += 1;
            return;
        }
        match self.flows.rto_deadline[hot + sub] {
            None => {
                // Disarmed since the event was queued.
                self.events_cancelled += 1;
                return;
            }
            Some(d) if d > self.now => {
                // The deadline moved later (ACK progress): lazily re-queue.
                self.events_cancelled += 1;
                self.queue.push(d, EventKind::RtoFire { conn, sub });
                self.flows.rto_event_at[hot + sub] = Some(d);
                return;
            }
            Some(_) => {}
        }
        let newly_failed = {
            let c = &mut self.conns[conn];
            let FlowArena { tx, cold, rto_deadline, .. } = &mut self.flows;
            let txs = &mut tx[c.hots()];
            let colds = &cold[c.subs()];
            // The coupled decrease sets the slow-start threshold; the
            // window itself collapses to the probing floor.
            self.scratch.refresh_snaps(txs, colds);
            let level =
                c.cc.clamped_window_after_loss(sub, &self.scratch.snaps, self.now.as_secs_f64());
            let floor = c.cc.min_window();
            let was_failed = txs[sub].timer.potentially_failed();
            if !txs[sub].on_rto(floor) {
                rto_deadline[hot + sub] = None;
                return; // spurious
            }
            txs[sub].set_ssthresh(level);
            if !colds[sub].backup {
                c.failover.on_primary_timeout(self.now.as_nanos());
            }
            !was_failed && txs[sub].timer.potentially_failed()
        };
        if self.probe_watches(conn) {
            self.record_transition(conn, sub, TransitionKind::RtoFired);
            if newly_failed {
                self.record_transition(conn, sub, TransitionKind::PotentiallyFailed);
            }
        }
        if newly_failed {
            // The subflow just crossed the potentially-failed threshold:
            // queue its stranded data for reinjection on live subflows.
            self.harvest_stranded(conn, sub);
        }
        self.schedule_rto(conn, sub);
        self.pump(conn);
    }

    /// Move a newly potentially-failed subflow's unacknowledged data into
    /// the reinjection queue, registering each dsn for exactly-once
    /// delivery/ack accounting. A dsn already registered (harvested from a
    /// previous failure episode) is never queued twice.
    fn harvest_stranded(&mut self, conn: ConnId, sub: usize) {
        let c = &mut self.conns[conn];
        if c.sub_count < 2 || !c.resident() {
            // Single path: nowhere to reinject, RTO probing is the only
            // recovery. Non-resident (lifecycle, pre-start): no sender
            // state exists yet, so nothing can be stranded.
            return;
        }
        let hot = c.hot_base as usize;
        let FlowArena { tx, rx, .. } = &mut self.flows;
        let scratch = &mut self.scratch;
        let cap = scratch.stranded.capacity();
        tx[hot + sub].stranded(&mut scratch.stranded);
        if scratch.stranded.capacity() != cap {
            scratch.allocs += 1;
        }
        for &(seq, dsn) in &scratch.stranded {
            let r = c.reinject.get_or_insert_with(Box::default);
            if r.reg.contains_key(&dsn) {
                continue;
            }
            // The copy may already sit in the remote reassembly buffer
            // with its ACK lost in the outage — seed the registry with
            // ground truth so a reinjected copy's arrival is not counted
            // as a fresh delivery.
            let delivered = rx[hot + sub].contains(seq);
            r.reg.insert(dsn, ReinjectEntry { delivered, acked: false });
            r.queue.push_back(dsn);
        }
    }

    /// (Re)arm the conceptual RTO at `now + RTO` and make sure an event is
    /// queued at or before that deadline. At most one pending event per
    /// subflow: an early firing re-queues itself (see [`Self::on_rto`]).
    fn schedule_rto(&mut self, conn: ConnId, sub: usize) {
        let c = &self.conns[conn];
        let (cold_idx, hot_idx) = (c.sub_base as usize + sub, c.hot_base as usize + sub);
        if self.flows.cold[cold_idx].closed {
            // No address, no timer: a closed subflow never probes.
            return;
        }
        let deadline = self.now + self.flows.tx[hot_idx].rto_interval();
        self.flows.rto_deadline[hot_idx] = Some(deadline);
        let needs_event = match self.flows.rto_event_at[hot_idx] {
            None => true,
            Some(at) => at > deadline,
        };
        if needs_event {
            self.flows.rto_event_at[hot_idx] = Some(deadline);
            self.queue.push(deadline, EventKind::RtoFire { conn, sub });
        }
    }

    fn send_subflow_packet(&mut self, conn: ConnId, sub: usize, seq: u64, retransmit: bool) {
        if retransmit {
            let hot = self.conns[conn].hot_base as usize;
            self.flows.tx[hot + sub].on_retransmit(seq, self.now);
        }
        let c = &self.conns[conn];
        // Packets carry the world-level id so they survive crossing
        // shard boundaries (equal to `conn` standalone).
        let owner = PacketOwner::Subflow { conn: c.gid, sub, seq };
        self.enqueue_packet(Packet::new(owner, c.packet_size));
    }

    /// Tell the connection's [`Failover`] machine which priorities still
    /// have a usable subflow — open and not potentially failed — and log
    /// the edge it takes, if any. Runs at the head of every `pump`, so the
    /// decision always precedes data scheduling.
    fn update_failover(&mut self, conn: ConnId) {
        let c = &self.conns[conn];
        let base = c.sub_base as usize;
        let hot = c.hot_base as usize;
        let n = c.sub_count as usize;
        let mut first_backup = None;
        let mut usable_primary = false;
        let mut usable_backup = false;
        for i in 0..n {
            let cold = &self.flows.cold[base + i];
            let usable = !cold.closed && !self.flows.tx[hot + i].timer.potentially_failed();
            if cold.backup {
                if first_backup.is_none() {
                    first_backup = Some(i);
                }
                usable_backup |= usable;
            } else {
                usable_primary |= usable;
            }
        }
        let Some(first_backup) = first_backup else { return };
        let now = self.now.as_nanos();
        let edge = self.conns[conn].failover.update(now, usable_primary, usable_backup);
        if let Some(edge) = edge {
            if self.probe_watches(conn) {
                let kind = match edge {
                    FailoverEdge::BackupActivated => TransitionKind::BackupActivated,
                    FailoverEdge::BackupStoodDown => TransitionKind::BackupStoodDown,
                };
                self.record_transition(conn, first_backup, kind);
            }
        }
    }

    /// Stripe new data onto whichever subflows have window space
    /// ("An MPTCP sender stripes packets across these subflows as space in
    /// the subflow windows becomes available", §2). Order of priority:
    /// hole retransmissions (including on potentially-failed subflows —
    /// those are the probes that detect restoration), then reinjections of
    /// stranded data onto live subflows, then new data on live subflows.
    fn pump(&mut self, conn: ConnId) {
        if !self.conns[conn].started || self.conns[conn].finished_at.is_some() {
            return;
        }
        self.update_failover(conn);
        let base = self.conns[conn].sub_base as usize;
        let hot = self.conns[conn].hot_base as usize;
        let n = self.conns[conn].sub_count as usize;
        // Holes first: retransmissions fill the windows before new data.
        for idx in 0..n {
            if self.flows.cold[base + idx].closed {
                continue;
            }
            while let Some(seq) = self.flows.tx[hot + idx].next_retransmit() {
                self.send_subflow_packet(conn, idx, seq, true);
            }
        }
        self.pump_reinjections(conn);
        loop {
            let mut sent_any = false;
            for i in 0..n {
                let idx = (self.conns[conn].rr_next + i) % n;
                let can = {
                    let cold = &self.flows.cold[base + idx];
                    let tx = &self.flows.tx[hot + idx];
                    self.conns[conn].has_data()
                        && !cold.closed
                        && (!cold.backup || self.conns[conn].failover.backup_active())
                        && !tx.timer.potentially_failed()
                        && tx.can_send_new()
                };
                if !can {
                    continue;
                }
                let (seq, newly_armed) = {
                    let c = &mut self.conns[conn];
                    if let Some(b) = &mut c.budget {
                        *b -= 1;
                    }
                    let dsn = c.next_dsn;
                    c.next_dsn += 1;
                    self.flows.cold[base + idx].sent_pkts += 1;
                    self.flows.tx[hot + idx].on_send_new(self.now, dsn)
                };
                if newly_armed {
                    self.schedule_rto(conn, idx);
                }
                self.send_subflow_packet(conn, idx, seq, false);
                sent_any = true;
            }
            self.conns[conn].rr_next = (self.conns[conn].rr_next + 1) % n;
            if !sent_any {
                break;
            }
        }
    }

    /// Drain the reinjection queue onto live subflows with window space.
    /// Each drained dsn becomes an ordinary new-sequence send on the
    /// chosen subflow; dsns already acknowledged (e.g. the original copy's
    /// ACK finally got through) are discarded unsent.
    fn pump_reinjections(&mut self, conn: ConnId) {
        let base = self.conns[conn].sub_base as usize;
        let hot = self.conns[conn].hot_base as usize;
        loop {
            let (dsn, idx) = {
                let c = &mut self.conns[conn];
                let Some(r) = c.reinject.as_deref_mut() else { return };
                let dsn = loop {
                    let Some(&dsn) = r.queue.front() else { return };
                    if r.reg.get(&dsn).is_some_and(|e| e.acked) {
                        r.queue.pop_front();
                        continue;
                    }
                    break dsn;
                };
                let n = c.sub_count as usize;
                let mut chosen = None;
                for i in 0..n {
                    let idx = (c.rr_next + i) % n;
                    let cold = &self.flows.cold[base + idx];
                    let tx = &self.flows.tx[hot + idx];
                    if !cold.closed
                        && (!cold.backup || c.failover.backup_active())
                        && !tx.timer.potentially_failed()
                        && tx.can_send_new()
                    {
                        chosen = Some(idx);
                        break;
                    }
                }
                let Some(idx) = chosen else { return };
                r.queue.pop_front();
                r.sent += 1;
                self.flows.cold[base + idx].sent_pkts += 1;
                (dsn, idx)
            };
            let (seq, newly_armed) = self.flows.tx[hot + idx].on_send_new(self.now, dsn);
            if newly_armed {
                self.schedule_rto(conn, idx);
            }
            self.send_subflow_packet(conn, idx, seq, false);
        }
    }

    fn try_finish(&mut self, conn: ConnId) {
        let c = &mut self.conns[conn];
        if c.finished_at.is_some() || !c.started {
            return;
        }
        // Completion is data-level: every data sequence number handed out
        // has been acknowledged on *some* subflow. Without faults this is
        // the moment every subflow is fully acked (each dsn has exactly
        // one copy); with reinjection it lets the transfer complete even
        // while a dead subflow still holds stranded sequence numbers.
        if c.budget == Some(0) && c.data_acked == c.next_dsn {
            c.finished_at = Some(self.now);
            if let Some(r) = c.reinject.as_deref_mut() {
                r.queue.clear();
            }
            let grace = c.retire_grace;
            if self.lifecycle && self.conns[conn].resident() {
                // Retirement waits out the straggler grace so every copy
                // and ACK launched before completion drains first; the
                // frozen snapshot then equals the end-of-run live stats,
                // and the recycled window can never see a stale event.
                self.queue.push(self.now + grace, EventKind::ConnRetire { conn });
            }
        }
    }

    // ------------------------------------------------------------------
    // Sharded-mode plumbing (driven by `crate::shard::ShardedSimulator`)
    // ------------------------------------------------------------------

    /// Install the routing context that turns this simulator into one
    /// shard of a partitioned world.
    pub(crate) fn set_shard_ctx(&mut self, ctx: ShardCtx) {
        self.shard = Some(Box::new(ctx));
    }

    /// Process every event strictly inside the epoch ending at
    /// `upto` (inclusive). Unlike [`Self::run_until`] this neither runs
    /// the watchdog/quiesce detectors nor measures wall time (both belong
    /// to the epoch driver), and it leaves `now` at the last event so the
    /// next epoch continues seamlessly.
    pub(crate) fn run_epoch(&mut self, upto: SimTime) {
        while let Some(ev) = self.queue.pop_before(upto) {
            debug_assert!(ev.at >= self.now, "event from the past");
            self.now = ev.at;
            self.events_processed += 1;
            self.dispatch(ev.kind);
        }
    }

    /// Drain this shard's outbox buffers: the driver moves them into the
    /// shared mailbox matrix at the epoch barrier.
    #[expect(
        clippy::expect_used,
        reason = "pub(crate) hook called only by the sharded driver, which created the shard state it is asking for; a None here is a driver bug, not a simulated condition"
    )]
    pub(crate) fn shard_outbox(&mut self) -> &mut Vec<Vec<(SimTime, Packet)>> {
        &mut self.shard.as_mut().expect("not in sharded mode").outbox
    }

    /// Enqueue a cross-shard arrival handed over by a peer shard.
    pub(crate) fn inject_arrive(&mut self, at: SimTime, pkt: Packet) {
        self.queue.push(at, EventKind::Arrive { pkt });
    }

    /// A time no later than this shard's next event (`None`: none pending).
    pub(crate) fn next_event_bound(&self) -> Option<SimTime> {
        self.queue.earliest_bound()
    }

    /// Advance the clock to the horizon at the end of a sharded run (the
    /// per-epoch loop leaves `now` at the last processed event).
    pub(crate) fn finish_epochs_at(&mut self, horizon: SimTime) {
        debug_assert!(horizon >= self.now, "time cannot run backwards");
        self.now = horizon;
    }

    // ------------------------------------------------------------------
    // CBR machinery
    // ------------------------------------------------------------------

    fn exp_sample(&mut self, mean: SimTime) -> SimTime {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        SimTime::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    fn on_cbr_toggle(&mut self, src: CbrId) {
        let (onoff, was_on) = {
            let s = &self.cbrs[src];
            (s.spec.onoff, s.on)
        };
        let Some((mean_on, mean_off)) = onoff else {
            // Plain start event for an always-on source.
            if !was_on {
                let s = &mut self.cbrs[src];
                s.on = true;
                s.gen += 1;
                let gen = s.gen;
                self.queue.push(self.now, EventKind::CbrSend { src, gen });
            }
            return;
        };
        if was_on {
            let s = &mut self.cbrs[src];
            s.on = false;
            s.gen += 1;
            let next = self.now + self.exp_sample(mean_off);
            self.queue.push(next, EventKind::CbrToggle { src });
        } else {
            {
                let s = &mut self.cbrs[src];
                s.on = true;
                s.gen += 1;
            }
            let gen = self.cbrs[src].gen;
            self.queue.push(self.now, EventKind::CbrSend { src, gen });
            let next = self.now + self.exp_sample(mean_on);
            self.queue.push(next, EventKind::CbrToggle { src });
        }
    }

    fn on_cbr_send(&mut self, src: CbrId, gen: u64) {
        let (on, cur_gen, size, interval) = {
            let s = &self.cbrs[src];
            (s.on, s.gen, s.spec.packet_size, s.spec.packet_interval())
        };
        if !on || cur_gen != gen {
            self.events_cancelled += 1;
            return;
        }
        self.cbrs[src].sent += 1;
        self.enqueue_packet(Packet::new(PacketOwner::Cbr { src }, size));
        self.queue.push(self.now + interval, EventKind::CbrSend { src, gen });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_cc::DetDigest;

    fn one_link_sim(mbps: f64, delay_ms: u64, queue: usize) -> (Simulator, LinkId) {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkSpec::mbps(mbps, SimTime::from_millis(delay_ms), queue));
        (sim, l)
    }

    #[test]
    fn single_tcp_fills_a_link() {
        let (mut sim, l) = one_link_sim(10.0, 10, 25);
        let c = sim.add_connection(
            ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![l]),
        );
        sim.run_until(SimTime::from_secs(30));
        let bps = sim.connection_stats(c).throughput_bps(sim.now());
        assert!(bps > 9.0e6, "single TCP should achieve >90% of 10 Mb/s, got {bps}");
    }

    #[test]
    fn two_tcps_share_a_link_roughly_equally() {
        let (mut sim, l) = one_link_sim(10.0, 10, 25);
        let c1 = sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![l]));
        let c2 = sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![l]));
        sim.run_until(SimTime::from_secs(60));
        let t1 = sim.connection_stats(c1).throughput_bps(sim.now());
        let t2 = sim.connection_stats(c2).throughput_bps(sim.now());
        let ratio = t1.min(t2) / t1.max(t2);
        assert!(ratio > 0.7, "shares too unequal: {t1} vs {t2}");
        assert!(t1 + t2 > 9.0e6, "aggregate should fill the link: {}", t1 + t2);
    }

    #[test]
    fn finite_flow_completes_and_stops() {
        let (mut sim, l) = one_link_sim(10.0, 5, 25);
        let c = sim.add_connection(
            ConnectionSpec::sized(AlgorithmKind::Uncoupled, 200).path(vec![l]),
        );
        sim.run_until(SimTime::from_secs(30));
        let stats = sim.connection_stats(c);
        assert_eq!(stats.delivered_pkts(), 200);
        let done = stats.completion_time().expect("flow should finish");
        assert!(done < SimTime::from_secs(5), "200 pkts over 10 Mb/s takes ~0.3s, got {done}");
    }

    #[test]
    fn random_loss_reduces_throughput() {
        let (mut sim_clean, l1) = one_link_sim(10.0, 10, 100);
        let c1 = sim_clean
            .add_connection(ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![l1]));
        sim_clean.run_until(SimTime::from_secs(30));

        let mut sim_lossy = Simulator::new(1);
        let l2 = sim_lossy
            .add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 100).with_loss(0.02));
        let c2 = sim_lossy
            .add_connection(ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![l2]));
        sim_lossy.run_until(SimTime::from_secs(30));

        let clean = sim_clean.connection_stats(c1).throughput_bps(sim_clean.now());
        let lossy = sim_lossy.connection_stats(c2).throughput_bps(sim_lossy.now());
        assert!(lossy < 0.8 * clean, "2% loss should hurt: {lossy} vs {clean}");
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let l = sim.add_link(LinkSpec::mbps(5.0, SimTime::from_millis(20), 20).with_loss(0.01));
            let c = sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l]));
            sim.run_until(SimTime::from_secs(10));
            (sim.connection_stats(c).delivered_pkts(), sim.events_processed())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, 0);
    }

    #[test]
    fn multipath_uses_both_links() {
        let mut sim = Simulator::new(3);
        let l1 = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 25));
        let l2 = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 25));
        let c = sim.add_connection(
            ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l1]).path(vec![l2]),
        );
        sim.run_until(SimTime::from_secs(30));
        let stats = sim.connection_stats(c);
        let bps = stats.throughput_bps(sim.now());
        assert!(bps > 15.0e6, "MPTCP alone should use both 10 Mb/s links: {bps}");
        for (i, sf) in stats.subflows.iter().enumerate() {
            assert!(sf.delivered_pkts > 0, "subflow {i} unused");
        }
    }

    #[test]
    fn cbr_delivers_at_configured_rate() {
        let (mut sim, l) = one_link_sim(100.0, 1, 100);
        let cbr = sim.add_cbr(CbrSpec::constant(vec![l], 12e6));
        sim.run_until(SimTime::from_secs(10));
        // 12 Mb/s of 1500B packets = 1000 pkt/s for 10 s = ~10000 pkts.
        let got = sim.cbr_delivered(cbr);
        assert!((9_900..=10_100).contains(&got), "delivered {got}");
    }

    #[test]
    fn onoff_cbr_duty_cycle_is_respected() {
        let (mut sim, l) = one_link_sim(200.0, 1, 1000);
        let cbr = sim.add_cbr(
            CbrSpec::constant(vec![l], 100e6)
                .onoff(SimTime::from_millis(10), SimTime::from_millis(100)),
        );
        sim.run_until(SimTime::from_secs(60));
        // Duty cycle 10/(10+100) ≈ 9.1% of 100 Mb/s ≈ 758 pkt/s on average.
        let rate = sim.cbr_delivered(cbr) as f64 / 60.0;
        assert!(
            (400.0..1200.0).contains(&rate),
            "on/off CBR mean rate {rate} pkt/s should be near 758"
        );
    }

    #[test]
    fn link_down_stops_traffic_and_up_resumes() {
        let (mut sim, l) = one_link_sim(10.0, 10, 25);
        let c = sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![l]));
        sim.run_until(SimTime::from_secs(10));
        let before = sim.connection_stats(c).delivered_pkts();
        sim.set_link_down(l, true);
        sim.run_until(SimTime::from_secs(20));
        let during = sim.connection_stats(c).delivered_pkts();
        assert!(during - before < 30, "almost nothing delivered while down");
        sim.set_link_down(l, false);
        sim.run_until(SimTime::from_secs(40));
        let after = sim.connection_stats(c).delivered_pkts();
        assert!(after > during + 1000, "traffic should resume after link comes back");
    }

    #[test]
    fn queue_limit_causes_drops_not_growth() {
        let (mut sim, l) = one_link_sim(1.0, 5, 5);
        sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![l]));
        sim.run_until(SimTime::from_secs(20));
        let stats = sim.link_stats(l);
        assert!(stats.dropped_queue > 0, "tiny buffer must overflow");
    }

    #[test]
    #[should_panic]
    fn connection_without_subflows_rejected() {
        let mut sim = Simulator::new(0);
        sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Mptcp));
    }

    #[test]
    #[should_panic(expected = "exceeds the 1048576-packet flight")]
    fn window_cap_beyond_the_scoreboard_span_rejected() {
        let (mut sim, l) = one_link_sim(10.0, 10, 25);
        let tcp = TcpParams { max_cwnd: 2e6, ..TcpParams::default() };
        sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l]).tcp(tcp));
    }

    /// What a 16-byte packet cannot carry is refused where the sender is
    /// admitted, in release builds too — not when its first packet packs.
    #[test]
    #[should_panic(expected = "a packet can count 255")]
    fn path_longer_than_a_packet_can_count_rejected() {
        let (mut sim, l) = one_link_sim(10.0, 10, 25);
        sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l; 256]));
    }

    #[test]
    #[should_panic(expected = "exceeds 65535 bytes")]
    fn cbr_packet_size_beyond_u16_rejected() {
        let (mut sim, l) = one_link_sim(10.0, 10, 25);
        sim.add_cbr(CbrSpec { packet_size: 65_536, ..CbrSpec::constant(vec![l], 1e6) });
    }

    /// The headline zero-alloc claim: once scratch buffers, the metadata
    /// ring, and the ACK pool have warmed up, a steady-state run — losses,
    /// retransmissions, SACK churn and all — performs no further hot-path
    /// allocation.
    #[test]
    fn steady_state_run_is_allocation_free() {
        let mut sim = Simulator::new(42);
        let l1 = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 25).with_loss(0.01));
        let l2 = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(20), 25).with_loss(0.01));
        let c = sim.add_connection(
            ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l1]).path(vec![l2]),
        );
        sim.run_until(SimTime::from_secs(20));
        let warmed = sim.perf().hot_allocs;
        let delivered_warm = sim.connection_stats(c).delivered_pkts();
        sim.run_until(SimTime::from_secs(60));
        assert!(
            sim.connection_stats(c).delivered_pkts() > delivered_warm + 10_000,
            "the steady-state window must carry real traffic"
        );
        assert_eq!(
            sim.perf().hot_allocs,
            warmed,
            "hot paths must not allocate after warmup"
        );
    }

    /// The connection's live EWTCP increase rule on path 0, together with
    /// the snapshots it saw (so a fresh controller can be replayed against
    /// the identical inputs).
    fn ewtcp_increase_seen(sim: &mut Simulator, conn: ConnId) -> (f64, Vec<SubflowSnapshot>) {
        let c = &sim.conns[conn];
        sim.scratch.refresh_snaps(&sim.flows.tx[c.hots()], &sim.flows.cold[c.subs()]);
        let CcDriver::Pure(cc) = &c.cc else { panic!("EWTCP is a pure rule") };
        (cc.increase_per_ack(0, &sim.scratch.snaps), sim.scratch.snaps.clone())
    }

    /// Regression (pre-fix failure): `Ewtcp::equal_split(n)` froze its
    /// `1/n` weight at connection build time, so after any runtime path
    /// churn the weight was wrong — a 3-path build running two-path kept
    /// aggressiveness 1/3, and a join never moved it back. The live weight
    /// must always equal `1/active_count`, bit-for-bit what a fresh
    /// fixed-weight build with the current path count computes.
    #[test]
    fn ewtcp_weight_tracks_live_subflow_count_under_churn() {
        let mut sim = Simulator::new(9);
        let mut links = Vec::new();
        for _ in 0..3 {
            links.push(sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 50)));
        }
        let c = sim.add_connection(
            ConnectionSpec::bulk(AlgorithmKind::Ewtcp)
                .path(vec![links[0]])
                .path(vec![links[1]])
                .path(vec![links[2]]),
        );
        // The third path's address is withdrawn before data moves: the
        // connection runs two-path for the first phase…
        sim.admin_close_subflow(c, 2);
        sim.run_until(SimTime::from_secs(10));
        let (inc, snaps) = ewtcp_increase_seen(&mut sim, c);
        let fresh2 = mptcp_cc::Ewtcp::equal_split(2);
        assert_eq!(
            inc.to_bits(),
            fresh2.increase_per_ack(0, &snaps).to_bits(),
            "two live paths must mean weight 1/2, not the build-time 1/3"
        );
        // …then the address is re-advertised and the subflow joins
        // mid-transfer: the rule must now match a fresh 3-path build.
        sim.admin_open_subflow(c, 2);
        sim.run_until(SimTime::from_secs(20));
        let (inc, snaps) = ewtcp_increase_seen(&mut sim, c);
        let fresh3 = mptcp_cc::Ewtcp::equal_split(3);
        assert_eq!(
            inc.to_bits(),
            fresh3.increase_per_ack(0, &snaps).to_bits(),
            "after the join the live weight must be 1/3"
        );
    }

    /// Every stateful controller in the zoo moves real data through the
    /// stateful driver arm (slow start, CA growth, loss decreases).
    #[test]
    fn stateful_zoo_controllers_move_data() {
        for kind in AlgorithmKind::zoo() {
            let mut sim = Simulator::new(3);
            let l0 = sim.add_link(LinkSpec::mbps(8.0, SimTime::from_millis(10), 50));
            let l1 = sim.add_link(LinkSpec::mbps(8.0, SimTime::from_millis(40), 50));
            let c = sim
                .add_connection(ConnectionSpec::bulk(kind).path(vec![l0]).path(vec![l1]));
            sim.run_until(SimTime::from_secs(30));
            let bps = sim.connection_stats(c).throughput_bps(sim.now());
            assert!(bps > 1.0e6, "{kind:?} moved too little data: {bps}");
        }
    }

    /// A pure rule behind the float-exact adapter must reproduce the pure
    /// history bit-for-bit — the unit-level core of the cross-scenario
    /// differential proptest in `tests/stateful_differential.rs`.
    #[test]
    fn wrapped_pure_rule_reproduces_the_pure_history() {
        let run = |wrapped: bool| {
            let mut sim = Simulator::new(11);
            let l0 = sim
                .add_link(LinkSpec::mbps(8.0, SimTime::from_millis(10), 25).with_loss(0.005));
            let l1 = sim.add_link(LinkSpec::mbps(4.0, SimTime::from_millis(40), 25));
            sim.wrap_pure_in_adapter(wrapped);
            let c = sim.add_connection(
                ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l0]).path(vec![l1]),
            );
            sim.run_until(SimTime::from_secs(40));
            let cwnds: Vec<u64> = {
                let range = sim.conns[c].hots();
                sim.flows.tx[range].iter().map(|t| t.cwnd.to_bits()).collect()
            };
            (sim.connection_stats(c).digest_value(), cwnds)
        };
        assert_eq!(run(false), run(true));
    }

    /// Build a small churn world: `flows` finite transfers with staggered
    /// starts over two lossy shared links, sizes and offsets drawn from
    /// the seed. Returns the per-connection stats digests at the horizon.
    fn churn_run(seed: u64, flows: u64, lifecycle: bool) -> Vec<u64> {
        let mut sim = Simulator::new(seed);
        sim.set_flow_lifecycle(lifecycle);
        let l1 = sim.add_link(LinkSpec::mbps(20.0, SimTime::from_millis(5), 25).with_loss(0.005));
        let l2 = sim.add_link(LinkSpec::mbps(12.0, SimTime::from_millis(15), 25));
        let mut conns = Vec::new();
        for i in 0..flows {
            // Deterministic per-flow size/offset mix, spread so early
            // flows finish well before late ones start (real churn).
            let pkts = 20 + (seed.wrapping_mul(31).wrapping_add(i * 17) % 60);
            let start = SimTime::from_millis(i * 400);
            let kind = if i % 2 == 0 { AlgorithmKind::Mptcp } else { AlgorithmKind::Ewtcp };
            conns.push(sim.add_connection(
                ConnectionSpec::sized(kind, pkts).path(vec![l1]).path(vec![l2]).start(start),
            ));
        }
        sim.run_until(SimTime::from_secs(1 + flows / 2 + 10));
        conns.iter().map(|&c| sim.connection_stats(c).digest_value()).collect()
    }

    /// The tentpole equivalence gate: flow-lifecycle mode (hot windows
    /// acquired at start, recycled one straggler-grace after finish) must
    /// leave every connection's statistics bit-identical to the
    /// non-lifecycle layout — recycling is invisible to behavior because
    /// nothing is sent after finish and the grace outlasts every
    /// straggler in flight.
    #[test]
    fn lifecycle_mode_is_stats_identical_to_the_flat_layout() {
        for seed in [3, 17, 92, 1031] {
            assert_eq!(
                churn_run(seed, 12, false),
                churn_run(seed, 12, true),
                "lifecycle on/off diverged for seed {seed}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// Randomized version of the equivalence gate: any seed/flow-count
        /// mix must digest identically under both layouts.
        #[test]
        fn lifecycle_equivalence_holds_for_random_churn(
            seed in 0u64..1_000_000,
            flows in 2u64..20,
        ) {
            proptest::prop_assert_eq!(
                churn_run(seed, flows, false),
                churn_run(seed, flows, true)
            );
        }
    }

    /// Sequential same-shape flows must recycle one hot window instead of
    /// growing the arena, and steady-state churn must not touch the
    /// allocator (`hot_allocs` flat after the first flow warms the slots).
    #[test]
    fn sequential_flows_reuse_one_hot_window_without_allocating() {
        let mut sim = Simulator::new(7);
        sim.set_flow_lifecycle(true);
        let l1 = sim.add_link(LinkSpec::mbps(20.0, SimTime::from_millis(5), 25));
        let l2 = sim.add_link(LinkSpec::mbps(20.0, SimTime::from_millis(10), 25));
        let flows = 30u64;
        let mut conns = Vec::new();
        for i in 0..flows {
            // 2s spacing: each 40-packet flow finishes (and out-retires
            // its grace) long before the next one starts.
            conns.push(sim.add_connection(
                ConnectionSpec::sized(AlgorithmKind::Mptcp, 40)
                    .path(vec![l1])
                    .path(vec![l2])
                    .start(SimTime::from_secs(2 * i)),
            ));
        }
        sim.run_until(SimTime::from_secs(4));
        let (warm_slots, warm_allocs) = (sim.arena_hot_slots(), sim.perf().hot_allocs);
        sim.run_until(SimTime::from_secs(2 * flows + 2));
        for &c in &conns {
            assert!(
                sim.connection_stats(c).finished_at.is_some(),
                "every sized flow must complete"
            );
        }
        assert_eq!(
            sim.arena_hot_slots(),
            warm_slots,
            "sequential same-shape flows must recycle the first flow's hot window"
        );
        assert_eq!(warm_slots, 2, "exactly one two-subflow window materialized");
        assert!(
            sim.arena_hot_reuses() >= flows - 2,
            "recycling must serve nearly every acquisition: {} of {flows}",
            sim.arena_hot_reuses()
        );
        assert_eq!(
            sim.perf().hot_allocs,
            warm_allocs,
            "flow churn must not allocate after warmup"
        );
    }

    /// Stats of a retired flow must be frozen — identical before and long
    /// after its hot window was recycled to another connection.
    #[test]
    fn retired_stats_are_frozen_across_window_recycling() {
        let mut sim = Simulator::new(5);
        sim.set_flow_lifecycle(true);
        let l = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 25));
        let a = sim.add_connection(ConnectionSpec::sized(AlgorithmKind::Mptcp, 50).path(vec![l]));
        let b = sim.add_connection(
            ConnectionSpec::bulk(AlgorithmKind::Mptcp)
                .path(vec![l])
                .start(SimTime::from_secs(10)),
        );
        sim.run_until(SimTime::from_secs(10));
        assert!(sim.connection_stats(a).finished_at.is_some());
        let frozen = sim.connection_stats(a).digest_value();
        sim.run_until(SimTime::from_secs(30));
        assert!(sim.connection_stats(b).delivered_pkts() > 0, "tenant b is live");
        assert_eq!(
            sim.connection_stats(a).digest_value(),
            frozen,
            "a retired flow's stats must not move when its window is re-tenanted"
        );
    }

    /// `[sacked, lost, reassembly]` ring capacities, in bits, of hot slot
    /// `slot`.
    fn ring_bits(sim: &Simulator, slot: usize) -> [u64; 3] {
        let [sacked, lost] = sim.flows.tx[slot].ring_bits();
        [sacked, lost, sim.flows.rx[slot].ring_bits()]
    }

    /// A short uncapped flow's three rings are sized to it, never above
    /// the 1024 bits a bulk flow's rings get; a capped flow's sender rings
    /// follow its cap.
    #[test]
    fn rings_are_sized_to_a_short_flow_and_unchanged_otherwise() {
        let (mut sim, l) = one_link_sim(10.0, 10, 25);
        let capped = TcpParams { max_cwnd: 16.0, ..TcpParams::default() };
        let specs = [
            (ConnectionSpec::sized(AlgorithmKind::Mptcp, 20), [256, 256, 256]),
            (ConnectionSpec::sized(AlgorithmKind::Mptcp, 100), [512, 512, 512]),
            (ConnectionSpec::sized(AlgorithmKind::Mptcp, 256), [1024, 1024, 1024]),
            (ConnectionSpec::sized(AlgorithmKind::Mptcp, 257), [1024, 1024, 1024]),
            (ConnectionSpec::bulk(AlgorithmKind::Mptcp), [1024, 1024, 1024]),
            (ConnectionSpec::sized(AlgorithmKind::Mptcp, 20).tcp(capped), [256, 256, 1024]),
        ];
        for (spec, want) in specs {
            let c = sim.add_connection(spec.path(vec![l]).path(vec![l]));
            for slot in sim.conns[c].hots() {
                assert_eq!(ring_bits(&sim, slot), want, "connection {c}");
            }
        }
    }

    /// A window a 20-packet flow left behind is re-tenanted by a longer
    /// flow: its rings grow as far as that flow needs, and every packet
    /// of it is delivered and acknowledged exactly once.
    #[test]
    fn a_short_flows_window_grows_for_a_longer_tenant() {
        for size in [200, 3000] {
            let mut sim = Simulator::new(4);
            sim.set_flow_lifecycle(true);
            // Slow start overflows a 300-packet queue with a window above
            // 256 in flight, so a long tenant's losses are SACKed, and
            // buffered, further above the cumulative point than 256.
            let l1 = sim.add_link(LinkSpec::mbps(100.0, SimTime::from_micros(500), 300));
            let l2 = sim.add_link(LinkSpec::mbps(80.0, SimTime::from_millis(1), 300));
            let short = sim.add_connection(
                ConnectionSpec::sized(AlgorithmKind::Mptcp, 20).path(vec![l1]).path(vec![l2]),
            );
            let long = sim.add_connection(
                ConnectionSpec::sized(AlgorithmKind::Mptcp, size)
                    .path(vec![l1])
                    .path(vec![l2])
                    .start(SimTime::from_secs(2)),
            );
            sim.run_until(SimTime::from_millis(1999));
            assert!(sim.conns[short].retired, "the short flow retires before the long one starts");
            assert_eq!(ring_bits(&sim, 0), [256; 3]);
            sim.run_until(SimTime::from_secs(20));
            assert_eq!((sim.arena_hot_slots(), sim.arena_hot_reuses()), (2, 1), "size {size}");
            let st = sim.connection_stats(long);
            assert!(st.finished_at.is_some(), "size {size}: {st:?}");
            assert_eq!((st.data_delivered, st.data_acked, st.dup_data_arrivals), (size, size, 0));
            assert_eq!(st.delivered_pkts(), size, "no subflow delivered a packet twice");
            let grew = (0..2).flat_map(|slot| ring_bits(&sim, slot)).any(|bits| bits > 256);
            assert_eq!(grew, size > 256, "size {size}: {:?}", [ring_bits(&sim, 0), ring_bits(&sim, 1)]);
        }
    }
}
