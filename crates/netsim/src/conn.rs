//! The connection layer: the paper's connection-level algorithm (§2) —
//! stripe packets across subflows as window space opens, couple the
//! increases, decrease per subflow — and §6's reinjection and backup
//! failover. [`Conns`] owns the connection records, the [`FlowArena`] their
//! subflows live in, the ACK pool and the scratch buffers. A call that
//! needs the network is handed `&mut Net`, whose `pub(crate)` methods are
//! the whole interface (see [`crate::sim`]).
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

use crate::arena::{ColdSubflow, FlowArena, NEVER, NOT_RESIDENT};
use crate::event::{AckInfo, EventKind};
use crate::link::{Link, LinkId};
use crate::mem::{deque_bytes, vec_bytes, MemBytes};
use crate::packet::{Packet, PacketOwner, DEFAULT_PACKET_SIZE};
use crate::probe::{CcPhase, ProbeState, SubflowPoint, TransitionKind};
use crate::sim::{ConnId, Net, Simulator, ACK_JITTER};
use crate::stats::{ConnectionStats, SubflowStats};
use crate::tcp::{SubflowReceiver, SubflowSender, TcpParams};
use crate::time::SimTime;
use mptcp_cc::{
    AlgorithmKind, CcDriver, Failover, FailoverEdge, MultipathCc, PureAdapter, SubflowSnapshot,
};
use std::collections::{BTreeMap, VecDeque};
use std::mem::{size_of, size_of_val};

/// One subflow's static configuration.
#[derive(Debug, Clone)]
pub struct SubflowSpec {
    /// Forward path: links traversed in order.
    pub path: Vec<LinkId>,
    /// Backup priority (MP_JOIN `B` bit): the subflow is established and
    /// kept warm but carries no data while any primary subflow is usable.
    pub backup: bool,
}

impl SubflowSpec {
    /// A primary subflow over `path`.
    pub fn new(path: Vec<LinkId>) -> Self {
        Self { path, backup: false }
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

    /// Override the TCP parameters.
    pub fn tcp(mut self, params: TcpParams) -> Self {
        self.tcp = params;
        self
    }

    /// One [`SubflowTiming`] per subflow, computed against a link table of
    /// `n_links` links, which `link` looks up.
    ///
    /// # Panics
    /// Panics if the spec has no subflows, a subflow has an empty path, or
    /// a path names a link outside the table.
    pub(crate) fn timings<'a>(
        &self,
        n_links: usize,
        link: impl Fn(LinkId) -> &'a Link,
    ) -> Vec<SubflowTiming> {
        assert!(!self.subflows.is_empty(), "connection needs at least one subflow");
        self.subflows
            .iter()
            .map(|sf| {
                assert!(!sf.path.is_empty(), "subflow path must traverse at least one link");
                let mut fwd = SimTime::ZERO;
                let mut residence = SimTime::ZERO;
                for &l in &sf.path {
                    assert!(l < n_links, "unknown link {l}");
                    let hop = link(l);
                    fwd += hop.delay;
                    let drain = hop.tx_time().as_nanos();
                    residence += hop.delay
                        + SimTime(drain.saturating_mul(u64::from(hop.queue_pkts) + 1));
                }
                SubflowTiming { ack_delay: fwd, straggler: residence + fwd }
            })
            .collect()
    }
}

/// Per-subflow admission-time timing, computed against whichever link
/// table (local or world) owns the subflow's path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubflowTiming {
    /// Fixed delay from delivery at the destination to the ACK reaching
    /// the sender: the forward path's propagation delay.
    pub(crate) ack_delay: SimTime,
    /// Conservative bound on how long after its send a packet — and the
    /// ACK it triggers — can still be in flight: the sum over hops of
    /// propagation delay plus a full drop-tail queue's serialization
    /// time, plus the ACK return delay. Feeds the flow-lifecycle
    /// retirement grace period (see [`crate::Simulator::set_flow_lifecycle`]).
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

/// A connection's reinjection state: stranded data and its exactly-once
/// registry, empty until a failed or closed subflow first strands data.
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
    /// for [`crate::SimPerf::hot_allocs`]).
    allocs: u64,
}

impl Scratch {
    /// Refill the snapshots from one connection's hot and cold windows.
    fn refresh_snaps(&mut self, tx: &[SubflowSender], cold: &[ColdSubflow]) {
        let cap = self.snaps.capacity();
        self.snaps.clear();
        self.snaps.extend(tx.iter().zip(cold).map(|(t, c)| snapshot_of(t, c)));
        if self.snaps.capacity() != cap {
            self.allocs += 1;
        }
    }

    fn heap_bytes(&self) -> u64 {
        vec_bytes(&self.snaps) + vec_bytes(&self.acked_dsns) + vec_bytes(&self.stranded)
    }
}

/// Path-management counters of one connection.
#[derive(Debug, Default)]
struct PathSignals {
    /// Addresses advertised at runtime ([`crate::FaultAction::AddrAdd`] /
    /// [`crate::Simulator::admin_open_subflow`]).
    addr_advertised: u64,
    /// Subflows (re)opened at runtime.
    subflows_joined: u64,
    /// Subflows administratively closed at runtime.
    subflows_closed: u64,
}

/// Records per [`FrozenStats`] chunk.
const FROZEN_CHUNK: usize = 512;

/// Every retired flow's [`SubflowStats`], in retirement order: `backup`
/// and `closed` cannot change once a flow has retired, because
/// [`Conns::flow`] refuses it, so each record is complete.
/// Storage grows by whole chunks, so growth never copies a record and
/// never leaves a freed buffer behind; a flow that has not retired holds
/// nothing here.
#[derive(Debug, Default)]
struct FrozenStats {
    chunks: Vec<Vec<SubflowStats>>,
}

impl FrozenStats {
    /// Index the next pushed record gets.
    fn len(&self) -> usize {
        self.chunks.last().map_or(0, |last| (self.chunks.len() - 1) * FROZEN_CHUNK + last.len())
    }

    fn push(&mut self, record: SubflowStats) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < FROZEN_CHUNK => last.push(record),
            _ => {
                let mut chunk = Vec::with_capacity(FROZEN_CHUNK);
                chunk.push(record);
                self.chunks.push(chunk);
            }
        }
    }

    fn get(&self, i: usize) -> &SubflowStats {
        &self.chunks[i / FROZEN_CHUNK][i % FROZEN_CHUNK]
    }

    fn heap_bytes(&self) -> u64 {
        vec_bytes(&self.chunks) + self.chunks.iter().map(vec_bytes).sum::<u64>()
    }
}

/// What only some connections need: the failover machine (a connection
/// with a backup subflow), reinjection (one whose subflow failed or
/// closed) and runtime path signals. It is created at admission for a
/// connection with a backup subflow, otherwise at the first stranding or
/// signal, and a default record behaves as none: without a backup subflow
/// the failover machine is never consulted, and an empty registry counts
/// every dsn once, as no registry does.
#[derive(Debug, Default)]
struct Rare {
    /// Backup-failover state machine, clocked in nanoseconds.
    failover: Failover,
    /// Stranded data and its exactly-once registry.
    reinject: Reinjection,
    /// Runtime path-management counters.
    signals: PathSignals,
}

/// [`Connection::frozen`] of a flow that has not retired.
const NOT_RETIRED: u32 = u32::MAX;

/// [`Connection::budget`] of a bulk flow. A sized flow of `u64::MAX`
/// packets gets it too: it could not spend that budget anyway.
const UNBOUNDED: u64 = u64::MAX;

/// Runtime state of a connection.
///
/// Subflow state does not live here: every connection's subflows occupy a
/// contiguous window of the [`FlowArena`] (struct-of-arrays layout). Cold
/// rows are addressed by the stable `(sub_base, sub_count)` window; the
/// hot columns by the recyclable `(hot_base, hot_gen)` window, which under
/// flow lifecycle is acquired at start and released one straggler-grace
/// after the transfer completes. [`Self::subs`] and [`Self::hots`] are the
/// only readers of the two bases.
pub(crate) struct Connection {
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
    /// Lifecycle mode, once the hot window has been released back to the
    /// arena: the index of this flow's first record in [`Conns::frozen`],
    /// one per subflow. [`NOT_RETIRED`] before.
    frozen: u32,
    /// Connection id carried inside packets: equal to this connection's
    /// own id in a standalone simulator, the world-level id in a sharded
    /// one (translated back to the local id at the delivery boundary).
    gid: u32,
    /// How long after the transfer completes the hot window may be
    /// recycled: twice the worst subflow's straggler bound, so every
    /// in-flight packet/ACK and stale timer has drained first.
    retire_grace: SimTime,
    /// Subflow the striping round starts at (below 256 subflows).
    rr_next: u8,
    started: bool,
    /// Remaining new packets to inject, or [`UNBOUNDED`].
    budget: u64,
    started_at: SimTime,
    /// When the last data was acknowledged, or [`NEVER`].
    finished_at: SimTime,
    /// Next connection-level data sequence number to hand to a subflow.
    next_dsn: u64,
    /// Failover, reinjection and path signals, once any is needed.
    rare: Option<Box<Rare>>,
    /// Distinct data packets that reached the receiver (each dsn counted
    /// once, however many copies arrived).
    data_delivered: u64,
    /// Distinct data packets acknowledged (each dsn counted once).
    data_acked: u64,
}

impl Connection {
    /// This connection's *cold* row window in the arena (stable indices).
    fn subs(&self) -> std::ops::Range<usize> {
        self.sub_base as usize..(self.sub_base + self.sub_count) as usize
    }

    /// This connection's *hot* column window in the arena; empty while
    /// not resident.
    fn hots(&self) -> std::ops::Range<usize> {
        if self.resident() {
            self.hot_base as usize..(self.hot_base + self.sub_count) as usize
        } else {
            0..0
        }
    }

    /// Whether the hot window is currently resident in the arena.
    fn resident(&self) -> bool {
        self.hot_base != NOT_RESIDENT
    }

    /// Whether the hot window went back to the arena for good and the
    /// subflow statistics are frozen.
    fn retired(&self) -> bool {
        self.frozen != NOT_RETIRED
    }

    /// Whether every data packet has been acknowledged.
    fn finished(&self) -> bool {
        self.finished_at != NEVER
    }

    /// The rare state, created on first use.
    fn rare(&mut self) -> &mut Rare {
        self.rare.get_or_insert_with(Box::default)
    }

    /// Whether the backup subflows carry data now.
    fn backup_active(&self) -> bool {
        self.rare.as_ref().is_some_and(|r| r.failover.backup_active())
    }
}

/// One subflow's congestion-control snapshot: clamped window and RTT, plus
/// whether the subflow is administratively live. Closed subflows stay in
/// the arena (indices are stable) but must not count toward live-path
/// weights — this flag is what lets EWTCP's equal split and the OLIA/BALIA
/// path sums track churn. The RTT is the smoothed estimate, or the path's
/// propagation-delay hint before the first sample.
fn snapshot_of(tx: &SubflowSender, cold: &ColdSubflow) -> SubflowSnapshot {
    let rtt = tx.timer.srtt().unwrap_or_else(|| cold.rtt_hint());
    SubflowSnapshot::new(tx.cwnd.max(1e-9), rtt.max(1e-6)).active(!cold.closed)
}

/// One subflow's statistics, read from its live hot and cold state (shared
/// by [`Simulator::connection_stats`] and the lifecycle retirement snapshot,
/// so a retired flow's frozen stats are bit-identical to what a live read
/// at the same instant would have produced).
fn subflow_stats(tx: &SubflowSender, rx: &SubflowReceiver, cold: &ColdSubflow) -> SubflowStats {
    SubflowStats {
        delivered_pkts: rx.delivered(),
        sent_pkts: tx.next_seq,
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

/// Whether a subflow could carry data: its address is up and it is not
/// potentially failed. The failover machine counts usable subflows per
/// priority; [`can_send`] adds priority and window space.
fn usable(cold: &ColdSubflow, tx: &SubflowSender) -> bool {
    !cold.closed && !tx.timer.potentially_failed()
}

/// Whether the scheduler may hand a subflow new or reinjected data now:
/// usable, a primary or an engaged backup, and with window space.
fn can_send(cold: &ColdSubflow, tx: &SubflowSender, backup_active: bool) -> bool {
    usable(cold, tx) && (!cold.backup || backup_active) && tx.can_send_new()
}

/// Every connection of one simulator, with the subflow arena, the ACK
/// pool and the scratch they share. See the [module docs](self).
#[derive(Default)]
pub(crate) struct Conns {
    conns: Vec<Connection>,
    /// Subflow arena: every connection's subflows live contiguously here
    /// in struct-of-arrays columns — [`Connection`] holds dense
    /// `(base, count)` windows instead of per-connection heap vectors, so
    /// the per-ACK hot state of the whole world sits in a few contiguous
    /// slabs while flags and stats are parked in cold rows. Under flow
    /// lifecycle, hot windows are recycled across flow churn.
    flows: FlowArena,
    /// Flow-lifecycle mode: defer hot-window acquisition to start and
    /// recycle the window one straggler-grace after the flow finishes.
    lifecycle: bool,
    /// Per-call scratch shared by every connection.
    scratch: Scratch,
    /// Subflow statistics of every retired flow (flow lifecycle).
    frozen: FrozenStats,
    /// Pool of in-flight ACK payloads; `EventKind::AckArrive` carries a
    /// slot index into this table instead of the ~100-byte payload itself,
    /// keeping queued events small and the steady-state ACK path free of
    /// allocation (slots are recycled through `ack_free`).
    ack_pool: Vec<AckInfo>,
    /// Recycled `ack_pool` slots.
    ack_free: Vec<u32>,
    /// Capacity-growth events of the ACK pool (allocation accounting).
    ack_pool_allocs: u64,
    /// Wrap every subsequently added pure named algorithm in the stateful
    /// adapter (see [`Simulator::wrap_pure_in_adapter`]).
    force_adapter: bool,
}

impl Conns {
    /// Add the connection layer's bytes to `m`.
    pub(crate) fn mem_bytes(&self, m: &mut MemBytes) {
        self.flows.mem_bytes(m);
        m.connections = vec_bytes(&self.conns);
        for c in &self.conns {
            m.connections += match &c.cc {
                CcDriver::Pure(cc) => size_of_val(&**cc),
                CcDriver::Stateful(cc) => size_of_val(&**cc),
            } as u64;
            if let Some(r) = &c.rare {
                m.connections += (size_of::<Rare>()
                    + r.reinject.reg.len() * size_of::<(u64, ReinjectEntry)>())
                    as u64
                    + deque_bytes(&r.reinject.queue);
            }
        }
        m.final_stats = self.frozen.heap_bytes();
        m.scratch = self.scratch.heap_bytes();
        m.ack_pool = vec_bytes(&self.ack_pool) + vec_bytes(&self.ack_free);
    }

    /// Sum of all logical allocation events on the hot paths — see
    /// [`crate::SimPerf::hot_allocs`]. Alloc counters survive hot-window
    /// recycling (`reset_for_reuse` keeps them), so this stays monotone
    /// and flat-in-steady-state under flow churn.
    pub(crate) fn hot_allocs(&self) -> u64 {
        let tx: u64 = self.flows.tx.iter().map(|t| t.alloc_events()).sum();
        let rx: u64 = self.flows.rx.iter().map(|r| r.alloc_events()).sum();
        self.ack_pool_allocs + self.scratch.allocs + tx + rx + self.flows.alloc_events()
    }

    /// Whether any started, unfinished connection still has data it is
    /// trying to move (the condition under which silence means deadlock).
    pub(crate) fn has_unfinished(&self) -> bool {
        self.conns.iter().any(|c| c.started && !c.finished())
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

    /// Connection `conn` with its subflow windows — unless it has
    /// retired. This is the one retired-flow guard: a retired flow's hot
    /// window may already belong to another connection, so nothing
    /// addressed to it may touch a hot column. A flow that has not started
    /// yet (flow lifecycle) comes with empty hot windows.
    fn flow(&mut self, conn: ConnId) -> Option<Flow<'_>> {
        let c = &mut self.conns[conn];
        if c.retired() {
            return None;
        }
        let hot = c.hots();
        let FlowArena { tx, rx, rto_deadline, rto_event_at, cold, .. } = &mut self.flows;
        Some(Flow {
            id: conn,
            cold: &mut cold[c.subs()],
            tx: &mut tx[hot.clone()],
            rx: &mut rx[hot.clone()],
            rto_deadline: &mut rto_deadline[hot.clone()],
            rto_event_at: &mut rto_event_at[hot],
            scratch: &mut self.scratch,
            lifecycle: self.lifecycle,
            c,
        })
    }

    /// [`Self::flow`] for an event addressed to `conn`: one for a retired
    /// flow is a straggler, dropped and counted as cancelled.
    fn event_flow(&mut self, net: &mut Net, conn: ConnId) -> Option<Flow<'_>> {
        let f = self.flow(conn);
        if f.is_none() {
            net.cancel();
        }
        f
    }

    /// # Panics
    /// Panics unless connection `conn` has a subflow `sub`.
    pub(crate) fn assert_subflow(&self, conn: ConnId, sub: usize) {
        assert!(conn < self.conns.len(), "unknown connection {conn}");
        assert!(sub < self.conns[conn].subs().len(), "unknown subflow {sub} of connection {conn}");
    }

    /// The flow an address signal for subflow `sub` of `conn` acts on.
    fn admin_flow(&mut self, conn: ConnId, sub: usize) -> Option<Flow<'_>> {
        self.assert_subflow(conn, sub);
        self.flow(conn)
    }

    /// Admit a connection: `delays` holds one [`SubflowTiming`] per
    /// subflow, already computed against whichever link table (local or
    /// world) owns the paths, and `gid` is the id stamped into its packets.
    pub(crate) fn add_connection(
        &mut self,
        net: &mut Net,
        spec: ConnectionSpec,
        gid: ConnId,
        delays: &[SubflowTiming],
    ) -> ConnId {
        let n = spec.subflows.len();
        let hops = spec.subflows.iter().map(|sf| sf.path.len()).max().unwrap_or(0);
        crate::packet::assert_packable(gid, n, hops);
        let cc = match spec.cc {
            CcChoice::Kind(kind) if self.force_adapter && !kind.is_stateful() => {
                CcDriver::Stateful(Box::new(PureAdapter::new(kind.build(n))))
            }
            CcChoice::Kind(kind) => kind.build_cc(n),
            CcChoice::Custom(cc) => CcDriver::Pure(cc),
        };
        let cold_base = self.flows.cold.len();
        let spec_has_backup = spec.subflows.iter().any(|sf| sf.backup);
        let mut worst_straggler = SimTime::ZERO;
        for (sf, t) in spec.subflows.into_iter().zip(delays) {
            worst_straggler = worst_straggler.max(t.straggler);
            let (ack_delay, backup) = (t.ack_delay, sf.backup);
            self.flows.cold.push(ColdSubflow { ack_delay, backup, closed: false });
        }
        // Flow lifecycle: hot state materializes at start (ConnStart) so
        // slots freed by earlier retirements can be recycled; otherwise
        // acquire now, which appends fresh columns in admission order
        // (hot index == cold index, the pre-lifecycle layout).
        let (hot_base, hot_gen) = if self.lifecycle {
            (NOT_RESIDENT, 0)
        } else {
            self.flows.acquire_hot(
                n,
                false,
                spec.size_pkts.unwrap_or(UNBOUNDED),
                &spec.tcp,
            )
        };
        // Twice the worst subflow's straggler bound: nothing addressed to
        // this flow can still be in flight once the grace expires.
        let retire_grace = SimTime(worst_straggler.as_nanos().saturating_mul(2))
            + ACK_JITTER
            + SimTime::from_millis(1);
        self.conns.push(Connection {
            cc,
            tcp: spec.tcp,
            sub_base: crate::cast::slab_u32(cold_base),
            sub_count: crate::cast::slab_u32(n),
            hot_base,
            hot_gen,
            frozen: NOT_RETIRED,
            gid: crate::cast::owner_u31(gid),
            retire_grace,
            rr_next: 0,
            started: false,
            budget: spec.size_pkts.unwrap_or(UNBOUNDED),
            started_at: spec.start,
            finished_at: NEVER,
            next_dsn: 0,
            rare: spec_has_backup.then(Box::default),
            data_delivered: 0,
            data_acked: 0,
        });
        let id = self.conns.len() - 1;
        let start = EventKind::ConnStart { conn: crate::cast::slab_u32(id) };
        net.schedule(spec.start.max(net.now()), start);
        id
    }

    /// The per-subflow half of a probe tick: one [`SubflowPoint`] per
    /// subflow of every watched connection that has a hot window.
    pub(crate) fn sample_subflows(&self, probe: &mut ProbeState, at: SimTime) {
        for &conn in &probe.spec.conns {
            let c = &self.conns[conn];
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
    }

    /// `ConnStart`: begin transmitting.
    pub(crate) fn on_conn_start(&mut self, net: &mut Net, conn: ConnId) {
        let c = &mut self.conns[conn];
        if c.started {
            return;
        }
        c.started = true;
        c.started_at = net.now();
        if !c.resident() {
            // Flow lifecycle: materialize the hot window now, preferring a
            // window recycled from an earlier retirement over fresh slots.
            (c.hot_base, c.hot_gen) =
                self.flows.acquire_hot(c.subs().len(), true, c.budget, &c.tcp);
        }
        // A newly transmitting connection counts as progress (otherwise a
        // late-starting flow trips the watchdog on its first event).
        net.progress();
        if let Some(mut f) = self.flow(conn) {
            f.pump(net);
        }
    }

    /// `ConnRetire`: one straggler-grace after completion, freeze the
    /// flow's statistics and return its hot window to the arena's free
    /// lists. Only ever scheduled in flow-lifecycle mode.
    pub(crate) fn on_conn_retire(&mut self, net: &mut Net, conn: ConnId) {
        let c = &mut self.conns[conn];
        if !c.resident() {
            // A second stop/finish raced the first retirement.
            net.cancel();
            return;
        }
        debug_assert!(c.finished(), "retire scheduled only at finish");
        let hots = c.hots();
        c.frozen = crate::cast::slab_u32(self.frozen.len());
        let FlowArena { tx, rx, cold, .. } = &self.flows;
        for (h, s) in hots.clone().zip(c.subs()) {
            self.frozen.push(subflow_stats(&tx[h], &rx[h], &cold[s]));
        }
        // The window's warmed envelope: the *smallest* per-lane send-
        // metadata capacity, so the class promises what every lane holds.
        let env = self.flows.tx[hots.clone()].iter().map(SubflowSender::meta_capacity).min();
        self.flows.release_hot(c.hot_base, hots.len(), c.hot_gen, env.unwrap_or(0));
        c.hot_base = NOT_RESIDENT;
    }

    /// The delivery half of an `Arrive`: subflow `sub` of `conn` received
    /// the packet whose sequence number has low 32 bits `seq_low`; account
    /// it at the data level and send the ACK back.
    pub(crate) fn on_deliver(&mut self, net: &mut Net, conn: ConnId, sub: usize, seq_low: u32) {
        let Some(f) = self.event_flow(net, conn) else { return };
        net.progress();
        // Every packet of the subflow in flight lies within `MAX_CAP` of
        // the sequence the receiver expects next.
        let seq = crate::cast::widen_seq(seq_low, f.rx[sub].delivered());
        // Exactly-once data-level accounting. A first-time subflow arrival
        // implies the packet is not yet cum-acked there, so its dsn
        // metadata still exists.
        if !f.rx[sub].contains(seq) {
            #[expect(
                clippy::expect_used,
                reason = "exactly-once accounting: !rx.contains(seq) just above implies the dsn metadata is still retained; losing it means data-level bookkeeping already diverged and must fail loudly"
            )]
            let dsn = f.tx[sub].dsn_of(seq).expect("unacked first arrival keeps its metadata");
            let c = &mut *f.c;
            let reinjected = c.rare.as_deref_mut().and_then(|r| {
                let r = &mut r.reinject;
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
        let (cum, _dup, sacks) = f.rx[sub].on_data(seq);
        let back = net.now() + f.cold[sub].ack_delay + net.ack_jitter();
        let ack = self.alloc_ack(AckInfo { cum, sacks });
        let (conn, sub) = (crate::cast::slab_u32(conn), crate::cast::slab_u32(sub));
        net.schedule(back, EventKind::AckArrive { conn, sub, ack });
    }

    /// `AckArrive`: the ACK parked in pool slot `slot` reaches subflow
    /// `sub` of `conn`.
    pub(crate) fn on_ack(&mut self, net: &mut Net, conn: ConnId, sub: usize, slot: u32) {
        // Recycle the pool slot first, so a straggler's does not leak.
        let ack = self.take_ack(slot);
        if let Some(mut f) = self.event_flow(net, conn) {
            f.on_ack(net, sub, ack);
        }
    }

    /// `RtoFire` for subflow `sub` of `conn`.
    pub(crate) fn on_rto(&mut self, net: &mut Net, conn: ConnId, sub: usize) {
        if let Some(mut f) = self.event_flow(net, conn) {
            f.on_rto(net, sub);
        }
    }
}

/// The connection half of the public API.
impl Simulator {
    /// Run every pure named algorithm added from now on through the
    /// stateful driver path, via the float-exact [`PureAdapter`]. A
    /// differential-testing hook — the histories must be bit-identical
    /// either way — that reaches specs built inside topology constructors.
    /// No effect on natively stateful kinds or custom controllers.
    pub fn wrap_pure_in_adapter(&mut self, on: bool) {
        self.conns.force_adapter = on;
    }

    /// Enable flow-lifecycle mode: connections acquire their hot subflow
    /// columns at start instead of admission, and release them one
    /// straggler-grace period after finishing, so the arena recycles hot
    /// windows across flow churn instead of growing with every admission.
    /// Off by default; with it off, histories (and
    /// [`DetDigest`](mptcp_cc::DetDigest) digests) are bit-identical to the
    /// pre-arena layout.
    ///
    /// # Panics
    /// Panics if connections have already been added — the mode governs
    /// admission-time layout and cannot change mid-run.
    pub fn set_flow_lifecycle(&mut self, on: bool) {
        assert!(
            self.conns.conns.is_empty(),
            "set_flow_lifecycle must be called before any add_connection"
        );
        self.conns.lifecycle = on;
    }

    /// Number of hot subflow slots currently materialized in the arena
    /// (resident + free-listed; cold rows are not counted).
    pub fn arena_hot_slots(&self) -> usize {
        self.conns.flows.hot_len()
    }

    /// How many hot-window acquisitions were served by recycling a
    /// previously released window instead of growing the arena.
    pub fn arena_hot_reuses(&self) -> u64 {
        self.conns.flows.reuses()
    }

    /// Number of connections in the world.
    pub fn connection_count(&self) -> usize {
        self.conns.conns.len()
    }

    /// Stop a connection injecting new data (in-flight data still drains
    /// and is retransmitted as needed; the connection finishes when all of
    /// it is acknowledged). Models a flow terminating, as in the §2.4
    /// load-change scenario (Fig. 5).
    pub fn stop_connection(&mut self, conn: ConnId) {
        self.conns.conns[conn].budget = 0;
        if let Some(mut f) = self.conns.flow(conn) {
            f.try_finish(&mut self.net);
        }
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
        let Some(mut f) = self.conns.admin_flow(conn, sub) else { return };
        if f.cold[sub].closed {
            return;
        }
        f.cold[sub].closed = true;
        // A flow that has not started has no timer to disarm.
        if let Some(deadline) = f.rto_deadline.get_mut(sub) {
            *deadline = NEVER;
        }
        f.c.rare().signals.subflows_closed += 1;
        f.harvest_stranded(sub);
        f.pump(&mut self.net);
    }

    /// (Re)advertise subflow `sub`'s address to `conn` — the ADD_ADDR
    /// path-management signal. Counted per advertisement; if the subflow
    /// was administratively closed it reopens and rejoins the data
    /// scheduler (sender state intact, like a subflow-level rejoin), with
    /// its RTO re-armed if it still holds in-flight data. A no-op beyond
    /// the counter for a subflow that was never closed.
    pub fn admin_open_subflow(&mut self, conn: ConnId, sub: usize) {
        let Some(mut f) = self.conns.admin_flow(conn, sub) else { return };
        f.c.rare().signals.addr_advertised += 1;
        if !f.cold[sub].closed {
            return;
        }
        f.cold[sub].closed = false;
        f.c.rare().signals.subflows_joined += 1;
        if f.tx.get(sub).is_some_and(|tx| tx.pipe() > 0.0) {
            f.schedule_rto(&mut self.net, sub);
        }
        f.pump(&mut self.net);
    }

    /// A connection's statistics snapshot. Valid in every lifecycle state:
    /// resident flows read the live hot columns; retired flows return the
    /// snapshot frozen at retirement; never-started flows (lifecycle mode,
    /// before `ConnStart`) synthesize the untouched-sender view from the
    /// cold row.
    pub fn connection_stats(&self, conn: ConnId) -> ConnectionStats {
        let Conns { conns, flows, frozen, .. } = &self.conns;
        let c = &conns[conn];
        let subflows: Vec<SubflowStats> = if c.retired() {
            let first = c.frozen as usize;
            (first..first + c.subs().len()).map(|i| *frozen.get(i)).collect()
        } else if c.resident() {
            c.hots()
                .zip(c.subs())
                .map(|(h, s)| subflow_stats(&flows.tx[h], &flows.rx[h], &flows.cold[s]))
                .collect()
        } else {
            c.subs()
                .map(|s| {
                    let cold = &flows.cold[s];
                    let tx = SubflowSender::new(&c.tcp);
                    subflow_stats(&tx, &SubflowReceiver::default(), cold)
                })
                .collect()
        };
        let rare = c.rare.as_deref();
        let reinject = rare.map(|r| &r.reinject);
        let signals = rare.map(|r| &r.signals);
        let failover = rare.map(|r| &r.failover);
        ConnectionStats {
            subflows,
            packet_size: DEFAULT_PACKET_SIZE,
            started_at: c.started_at,
            finished_at: c.finished().then_some(c.finished_at),
            data_sent: c.next_dsn,
            data_delivered: c.data_delivered,
            data_acked: c.data_acked,
            dup_data_arrivals: reinject.map_or(0, |r| r.dup_arrivals),
            reinjections_sent: reinject.map_or(0, |r| r.sent),
            reinject_pending: reinject.map_or(0, |r| r.queue.len() as u64),
            backup_active: c.backup_active(),
            backup_activations: failover.map_or(0, Failover::activations),
            addr_advertised: signals.map_or(0, |p| p.addr_advertised),
            subflows_joined: signals.map_or(0, |p| p.subflows_joined),
            subflows_closed: signals.map_or(0, |p| p.subflows_closed),
            failover_latency: failover.and_then(Failover::latency).map(SimTime),
        }
    }
}

/// One resident-or-pending connection and its subflow windows: cold rows,
/// hot columns (empty before a lifecycle flow starts) and the shared
/// scratch, each indexed by subflow number. Built only by [`Conns::flow`].
struct Flow<'a> {
    id: ConnId,
    c: &'a mut Connection,
    cold: &'a mut [ColdSubflow],
    tx: &'a mut [SubflowSender],
    rx: &'a mut [SubflowReceiver],
    rto_deadline: &'a mut [SimTime],
    rto_event_at: &'a mut [SimTime],
    scratch: &'a mut Scratch,
    lifecycle: bool,
}

impl Flow<'_> {
    /// The coupled response to a loss on `sub`: the level the controller
    /// picks from a fresh snapshot of every subflow (for stateful
    /// controllers this is also the loss-epoch hook), and its floor.
    fn loss_response(&mut self, sub: usize, now: SimTime) -> (f64, f64) {
        self.scratch.refresh_snaps(self.tx, self.cold);
        let now = now.as_secs_f64();
        let level = self.c.cc.clamped_window_after_loss(sub, &self.scratch.snaps, now);
        (level, self.c.cc.min_window())
    }

    fn on_ack(&mut self, net: &mut Net, sub: usize, ack: AckInfo) {
        let now = net.now();
        let watching = net.probe_watches(self.id);
        let (was_recovering, was_failed) = if watching {
            (self.tx[sub].in_recovery, self.tx[sub].timer.potentially_failed())
        } else {
            (false, false)
        };
        let scratch = &mut *self.scratch;
        scratch.acked_dsns.clear();
        let scratch_cap = scratch.acked_dsns.capacity();
        let outcome = self.tx[sub].on_ack(ack.cum, &ack.sacks, now, &mut scratch.acked_dsns);
        if scratch.acked_dsns.capacity() != scratch_cap {
            scratch.allocs += 1;
        }
        if watching {
            let tx = &self.tx[sub];
            for (taken, kind) in [
                (outcome.entered_recovery, TransitionKind::EnterFastRecovery),
                (was_recovering && !tx.in_recovery, TransitionKind::ExitRecovery),
                (was_failed && !tx.timer.potentially_failed(), TransitionKind::Revived),
            ] {
                if taken {
                    net.record_transition(self.id, sub, kind);
                }
            }
        }
        if outcome.newly_acked > 0 && self.tx[sub].growth_allowed() {
            self.grow(sub, outcome.newly_acked, now);
        }
        if outcome.entered_recovery {
            // One multiplicative decrease per loss episode.
            let (level, floor) = self.loss_response(sub, now);
            self.tx[sub].shrink_to(level, floor);
        }
        if outcome.newly_acked > 0 && !self.cold[sub].backup {
            if let Some(r) = self.c.rare.as_deref_mut() {
                r.failover.on_primary_progress();
            }
        }
        // Data-level acknowledgment accounting: each dsn counts once,
        // across all subflow copies a reinjection may have created.
        let c = &mut *self.c;
        let acked = &self.scratch.acked_dsns;
        match c.rare.as_deref_mut().map(|r| &mut r.reinject) {
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
        match outcome.rearm_rto {
            Some(true) => self.schedule_rto(net, sub),
            Some(false) => self.rto_deadline[sub] = NEVER,
            None => {}
        }
        self.try_finish(net);
        self.pump(net);
    }

    /// Grow subflow `sub` once per newly acked packet: slow start adds one
    /// packet per ACKed packet; congestion avoidance defers to the coupled
    /// algorithm with a fresh snapshot each step (windows are
    /// interdependent). Only *this* subflow's window can change between
    /// steps, so the full snapshot refresh happens once and later steps
    /// patch a single entry in place instead of re-reading every subflow.
    fn grow(&mut self, sub: usize, newly_acked: u64, now: SimTime) {
        let (txs, colds, scratch) = (&mut *self.tx, &*self.cold, &mut *self.scratch);
        let mut refreshed = false;
        let mut refresh = |txs: &[SubflowSender], scratch: &mut Scratch| {
            if refreshed {
                scratch.snaps[sub] = snapshot_of(&txs[sub], &colds[sub]);
            } else {
                scratch.refresh_snaps(txs, colds);
                refreshed = true;
            }
        };
        match &mut self.c.cc {
            CcDriver::Pure(cc) => {
                for _ in 0..newly_acked {
                    let amount = if txs[sub].in_slow_start() {
                        1.0
                    } else {
                        refresh(txs, scratch);
                        cc.increase_per_ack(sub, &scratch.snaps)
                    };
                    txs[sub].grow(amount);
                }
            }
            CcDriver::Stateful(cc) => {
                // Stateful hooks fire in slow start too (base-RTT filters,
                // hybrid slow start watch every ACK), so the snapshot is
                // kept fresh on every step here.
                let floor = cc.min_window();
                let now = now.as_secs_f64();
                for _ in 0..newly_acked {
                    refresh(txs, scratch);
                    let in_ss = txs[sub].in_slow_start();
                    let act = cc.on_ack(sub, &scratch.snaps, now, in_ss);
                    txs[sub].grow(act.grow);
                    if act.grow < 0.0 && txs[sub].cwnd < floor {
                        // `grow` has no lower bound of its own; delay-based
                        // shrinks must not dig below the probing floor.
                        txs[sub].cwnd = floor;
                    }
                    if act.exit_slow_start && in_ss {
                        // Hybrid/Vegas slow-start exit: pin ssthresh to the
                        // current window so the sender runs congestion
                        // avoidance from the next ACK on.
                        let w = txs[sub].cwnd;
                        txs[sub].set_ssthresh(w);
                    }
                }
            }
        }
    }

    fn on_rto(&mut self, net: &mut Net, sub: usize) {
        self.rto_event_at[sub] = NEVER;
        if self.c.finished() || self.cold[sub].closed {
            // The transfer already completed at the data level (possibly
            // via reinjection around this very subflow), or the address
            // was withdrawn since the event was queued: either way there
            // is no path left worth probing.
            self.rto_deadline[sub] = NEVER;
            net.cancel();
            return;
        }
        let now = net.now();
        let d = self.rto_deadline[sub];
        if d == NEVER {
            // Disarmed since the event was queued.
            net.cancel();
            return;
        }
        if d > now {
            // The deadline moved later (ACK progress): lazily re-queue.
            net.cancel();
            net.schedule(d, self.rto_event(sub));
            self.rto_event_at[sub] = d;
            return;
        }
        // The coupled decrease sets the slow-start threshold; the window
        // itself collapses to the probing floor.
        let (level, floor) = self.loss_response(sub, now);
        let was_failed = self.tx[sub].timer.potentially_failed();
        if !self.tx[sub].on_rto(floor) {
            self.rto_deadline[sub] = NEVER;
            return; // spurious
        }
        self.tx[sub].set_ssthresh(level);
        if !self.cold[sub].backup {
            if let Some(r) = self.c.rare.as_deref_mut() {
                r.failover.on_primary_timeout(now.as_nanos());
            }
        }
        let newly_failed = !was_failed && self.tx[sub].timer.potentially_failed();
        if net.probe_watches(self.id) {
            net.record_transition(self.id, sub, TransitionKind::RtoFired);
            if newly_failed {
                net.record_transition(self.id, sub, TransitionKind::PotentiallyFailed);
            }
        }
        if newly_failed {
            // The subflow just crossed the potentially-failed threshold:
            // queue its stranded data for reinjection on live subflows.
            self.harvest_stranded(sub);
        }
        self.schedule_rto(net, sub);
        self.pump(net);
    }

    /// Move a newly potentially-failed (or closed) subflow's
    /// unacknowledged data into the reinjection queue, registering each
    /// dsn for exactly-once delivery/ack accounting. A dsn already
    /// registered (harvested from a previous failure episode) is never
    /// queued twice.
    fn harvest_stranded(&mut self, sub: usize) {
        if self.tx.len() < 2 {
            // Single path: nowhere to reinject, RTO probing is the only
            // recovery. No hot window (lifecycle, pre-start): no sender
            // state exists yet, so nothing can be stranded.
            return;
        }
        let scratch = &mut *self.scratch;
        let cap = scratch.stranded.capacity();
        self.tx[sub].stranded(&mut scratch.stranded);
        if scratch.stranded.capacity() != cap {
            scratch.allocs += 1;
        }
        for &(seq, dsn) in &scratch.stranded {
            let r = &mut self.c.rare().reinject;
            if r.reg.contains_key(&dsn) {
                continue;
            }
            // The copy may already sit in the remote reassembly buffer
            // with its ACK lost in the outage — seed the registry with
            // ground truth so a reinjected copy's arrival is not counted
            // as a fresh delivery.
            let delivered = self.rx[sub].contains(seq);
            r.reg.insert(dsn, ReinjectEntry { delivered, acked: false });
            r.queue.push_back(dsn);
        }
    }

    /// The `RtoFire` event of subflow `sub`.
    fn rto_event(&self, sub: usize) -> EventKind {
        EventKind::RtoFire { conn: crate::cast::slab_u32(self.id), sub: crate::cast::slab_u32(sub) }
    }

    /// (Re)arm the conceptual RTO at `now + RTO` and make sure an event is
    /// queued at or before that deadline. At most one pending event per
    /// subflow: an early firing re-queues itself (see [`Self::on_rto`]).
    fn schedule_rto(&mut self, net: &mut Net, sub: usize) {
        if self.cold[sub].closed {
            // No address, no timer: a closed subflow never probes.
            return;
        }
        let deadline = net.now() + self.tx[sub].rto_interval();
        self.rto_deadline[sub] = deadline;
        // `NEVER` (no event queued) is later than any deadline.
        if self.rto_event_at[sub] > deadline {
            self.rto_event_at[sub] = deadline;
            net.schedule(deadline, self.rto_event(sub));
        }
    }

    /// Put subflow `sub`'s packet `seq` on the wire. Packets carry the
    /// world-level id so they survive crossing shard boundaries.
    fn send(&mut self, net: &mut Net, sub: usize, seq: u64) {
        let seq = crate::cast::seq_low32(seq);
        let owner = PacketOwner::Subflow { conn: self.c.gid as ConnId, sub, seq };
        net.send(Packet::new(owner));
    }

    /// Hand subflow `sub` data sequence number `dsn` as new data.
    fn send_new(&mut self, net: &mut Net, sub: usize, dsn: u64) {
        let (seq, newly_armed) = self.tx[sub].on_send_new(net.now(), dsn);
        if newly_armed {
            self.schedule_rto(net, sub);
        }
        self.send(net, sub, seq);
    }

    /// Tell the connection's [`Failover`] machine which priorities still
    /// have a usable subflow, and log the edge it takes, if any. Runs at
    /// the head of every `pump`, so the decision always precedes data
    /// scheduling.
    fn update_failover(&mut self, net: &mut Net) {
        let mut first_backup = None;
        let mut usable_primary = false;
        let mut usable_backup = false;
        for (i, (cold, tx)) in self.cold.iter().zip(&*self.tx).enumerate() {
            let usable = usable(cold, tx);
            if cold.backup {
                first_backup = first_backup.or(Some(i));
                usable_backup |= usable;
            } else {
                usable_primary |= usable;
            }
        }
        let Some(first_backup) = first_backup else { return };
        // A connection with a backup subflow has its rare state from
        // admission on.
        let failover = &mut self.c.rare().failover;
        let edge = failover.update(net.now().as_nanos(), usable_primary, usable_backup);
        if let Some(edge) = edge {
            if net.probe_watches(self.id) {
                let kind = match edge {
                    FailoverEdge::BackupActivated => TransitionKind::BackupActivated,
                    FailoverEdge::BackupStoodDown => TransitionKind::BackupStoodDown,
                };
                net.record_transition(self.id, first_backup, kind);
            }
        }
    }

    /// Stripe new data onto whichever subflows have window space
    /// ("An MPTCP sender stripes packets across these subflows as space in
    /// the subflow windows becomes available", §2). Order of priority:
    /// hole retransmissions (including on potentially-failed subflows —
    /// those are the probes that detect restoration), then reinjections of
    /// stranded data onto live subflows, then new data on live subflows.
    fn pump(&mut self, net: &mut Net) {
        if !self.c.started || self.c.finished() {
            return;
        }
        self.update_failover(net);
        let n = self.cold.len();
        // Holes first: retransmissions fill the windows before new data.
        for idx in 0..n {
            if self.cold[idx].closed {
                continue;
            }
            while let Some(seq) = self.tx[idx].next_retransmit() {
                self.tx[idx].on_retransmit(seq);
                self.send(net, idx, seq);
            }
        }
        self.pump_reinjections(net);
        loop {
            let mut sent_any = false;
            for i in 0..n {
                if self.c.budget == 0 {
                    break; // a finite flow handed out its last packet
                }
                let idx = (usize::from(self.c.rr_next) + i) % n;
                if !can_send(&self.cold[idx], &self.tx[idx], self.c.backup_active()) {
                    continue;
                }
                if self.c.budget != UNBOUNDED {
                    self.c.budget -= 1;
                }
                let dsn = self.c.next_dsn;
                self.c.next_dsn += 1;
                self.send_new(net, idx, dsn);
                sent_any = true;
            }
            self.c.rr_next = crate::cast::sub_u8((usize::from(self.c.rr_next) + 1) % n);
            if !sent_any {
                break;
            }
        }
    }

    /// Drain the reinjection queue onto live subflows with window space.
    /// Each drained dsn becomes an ordinary new-sequence send on the
    /// chosen subflow; dsns already acknowledged (e.g. the original copy's
    /// ACK finally got through) are discarded unsent.
    fn pump_reinjections(&mut self, net: &mut Net) {
        let n = self.cold.len();
        let (rr, backup_active) = (usize::from(self.c.rr_next), self.c.backup_active());
        while let Some(r) = self.c.rare.as_deref_mut().map(|r| &mut r.reinject) {
            while r.queue.front().is_some_and(|dsn| r.reg.get(dsn).is_some_and(|e| e.acked)) {
                r.queue.pop_front();
            }
            let Some(&dsn) = r.queue.front() else { return };
            let Some(idx) = (0..n)
                .map(|i| (rr + i) % n)
                .find(|&i| can_send(&self.cold[i], &self.tx[i], backup_active))
            else {
                return;
            };
            r.queue.pop_front();
            r.sent += 1;
            self.send_new(net, idx, dsn);
        }
    }

    fn try_finish(&mut self, net: &mut Net) {
        let c = &mut *self.c;
        if c.finished() || !c.started {
            return;
        }
        // Completion is data-level: every data sequence number handed out
        // has been acknowledged on *some* subflow. Without faults this is
        // the moment every subflow is fully acked (each dsn has exactly
        // one copy); with reinjection it lets the transfer complete even
        // while a dead subflow still holds stranded sequence numbers.
        if c.budget == 0 && c.data_acked == c.next_dsn {
            c.finished_at = net.now();
            if let Some(r) = c.rare.as_deref_mut() {
                r.reinject.queue.clear();
            }
            if self.lifecycle && c.resident() {
                // Retirement waits out the straggler grace so every copy
                // and ACK launched before completion drains first; the
                // frozen snapshot then equals the end-of-run live stats,
                // and the recycled window can never see a stale event.
                let retire = EventKind::ConnRetire { conn: crate::cast::slab_u32(self.id) };
                net.schedule(net.now() + c.retire_grace, retire);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::link::LinkSpec;
    use mptcp_cc::DetDigest;

    /// The connection's live EWTCP increase rule on path 0, together with
    /// the snapshots it saw (so a fresh controller can be replayed against
    /// the identical inputs).
    fn ewtcp_increase_seen(sim: &Simulator, conn: ConnId) -> (f64, Vec<SubflowSnapshot>) {
        let conns = &sim.conns;
        let c = &conns.conns[conn];
        let mut scratch = Scratch::default();
        scratch.refresh_snaps(&conns.flows.tx[c.hots()], &conns.flows.cold[c.subs()]);
        let CcDriver::Pure(cc) = &c.cc else { panic!("EWTCP is a pure rule") };
        (cc.increase_per_ack(0, &scratch.snaps), scratch.snaps)
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
        let (inc, snaps) = ewtcp_increase_seen(&sim, c);
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
        let (inc, snaps) = ewtcp_increase_seen(&sim, c);
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
                let conns = &sim.conns;
                conns.flows.tx[conns.conns[c].hots()].iter().map(|t| t.cwnd.to_bits()).collect()
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

    /// Every field of a [`SubflowStats`], floats as bits. Destructured
    /// without `..`, so a new field does not compile until it is listed.
    fn stats_fields(st: &SubflowStats) -> [u64; 14] {
        let SubflowStats {
            delivered_pkts,
            sent_pkts,
            retransmits,
            timeouts,
            fast_recoveries,
            cwnd,
            ssthresh,
            srtt,
            rto,
            in_flight,
            rto_backoffs,
            potentially_failed,
            backup,
            closed,
        } = *st;
        [
            delivered_pkts,
            sent_pkts,
            retransmits,
            timeouts,
            fast_recoveries,
            cwnd.to_bits(),
            ssthresh.to_bits(),
            srtt.to_bits(),
            rto.to_bits(),
            in_flight.to_bits(),
            u64::from(rto_backoffs),
            u64::from(potentially_failed),
            u64::from(backup),
            u64::from(closed),
        ]
    }

    /// The two engines, as the frozen-stats test drives them.
    trait Engine {
        fn run_until(&mut self, t: SimTime);
        fn stats(&self, conn: ConnId) -> ConnectionStats;
        fn retired(&self, conn: ConnId) -> bool;
    }

    impl Engine for Simulator {
        fn run_until(&mut self, t: SimTime) {
            Simulator::run_until(self, t);
        }
        fn stats(&self, conn: ConnId) -> ConnectionStats {
            self.connection_stats(conn)
        }
        fn retired(&self, conn: ConnId) -> bool {
            self.conns.conns[conn].retired()
        }
    }

    impl Engine for crate::ShardedSimulator {
        fn run_until(&mut self, t: SimTime) {
            crate::ShardedSimulator::run_until(self, t);
        }
        fn stats(&self, conn: ConnId) -> ConnectionStats {
            self.connection_stats(conn)
        }
        fn retired(&self, conn: ConnId) -> bool {
            let (shard, local) = self.owner(conn);
            shard.conns.conns[local].retired()
        }
    }

    /// Run `world` until `conn` retires; return its stats read at the last
    /// step before `ConnRetire` and right after it.
    fn stats_around_retirement(
        world: &mut impl Engine,
        conn: ConnId,
    ) -> (ConnectionStats, ConnectionStats) {
        let mut t = SimTime::ZERO;
        while world.stats(conn).finished_at.is_none() {
            assert!(t < SimTime::from_secs(60), "the flow never finished");
            t += SimTime::from_millis(10);
            world.run_until(t);
        }
        let mut before = world.stats(conn);
        while !world.retired(conn) {
            assert!(t < SimTime::from_secs(61), "the flow never retired");
            before = world.stats(conn);
            t += SimTime::from_micros(100);
            world.run_until(t);
        }
        (before, world.stats(conn))
    }

    /// A retired flow reports, field by field, the [`SubflowStats`] it
    /// reported live just before `ConnRetire`: the frozen record keeps
    /// every field. The flow retransmits on a lossy primary, times out
    /// through that primary's outage, fails over to its backup subflow,
    /// and loses its third subflow's address. Serial and sharded engines.
    #[test]
    fn frozen_stats_equal_the_live_stats_before_retirement() {
        const SIZE: u64 = 600;
        fn check(engine: &str, world: &mut impl Engine, conn: ConnId) {
            let (live, frozen) = stats_around_retirement(world, conn);
            assert_eq!(live.subflows.len(), 3, "{engine}");
            for (sub, (l, f)) in live.subflows.iter().zip(&frozen.subflows).enumerate() {
                let msg = format!("{engine} subflow {sub}: {l:?} vs {f:?}");
                assert_eq!(stats_fields(l), stats_fields(f), "{msg}");
            }
            let st = &frozen;
            assert_eq!((st.data_delivered, st.data_acked), (SIZE, SIZE), "{engine}: {st:?}");
            assert!(st.backup_activations > 0, "{engine}: the backup never engaged");
            let any = |f: fn(&SubflowStats) -> bool| st.subflows.iter().any(f);
            assert!(any(|s| s.retransmits > 0), "{engine}: no retransmit");
            assert!(any(|s| s.timeouts > 0), "{engine}: no RTO");
            assert!(any(|s| s.backup) && any(|s| s.closed), "{engine}: {st:?}");
        }
        let (primary, backup, third) = (
            LinkSpec::mbps(10.0, SimTime::from_millis(10), 20).with_loss(0.01),
            LinkSpec::mbps(10.0, SimTime::from_millis(20), 20),
            LinkSpec::mbps(8.0, SimTime::from_millis(15), 20),
        );
        let spec = |l: [LinkId; 3], tail: &[LinkId]| {
            let path = |first: LinkId| [&[first][..], tail].concat();
            ConnectionSpec::sized(AlgorithmKind::Mptcp, SIZE)
                .path(path(l[0]))
                .subflow(SubflowSpec::new(path(l[1])).backup())
                .path(path(l[2]))
        };
        let faults = |l: [LinkId; 3], conn: ConnId| {
            FaultPlan::new()
                .addr_remove(SimTime::from_millis(300), conn, 2)
                .outage(l[0], SimTime::from_millis(500), SimTime::from_millis(2500))
        };

        let mut sim = Simulator::new(21);
        sim.set_flow_lifecycle(true);
        let l = [primary, backup, third].map(|spec| sim.add_link(spec));
        let c = sim.add_connection(spec(l, &[]));
        sim.install_fault_plan(&faults(l, c));
        check("serial", &mut sim, c);

        // Two shards: each path leaves from shard 0 and crosses to shard 1.
        let mut sim = crate::ShardedSimulator::new(21, 2);
        sim.set_flow_lifecycle(true);
        let l = [primary, backup, third].map(|spec| sim.add_link(0, spec));
        let far = sim.add_link(1, LinkSpec::mbps(100.0, SimTime::from_millis(1), 100));
        let c = sim.add_connection(spec(l, &[far]));
        sim.install_fault_plan(&faults(l, c));
        check("sharded", &mut sim, c);
    }

    /// `[sacked, lost, reassembly]` ring capacities, in bits, of hot slot
    /// `slot`.
    fn ring_bits(sim: &Simulator, slot: usize) -> [u64; 3] {
        let flows = &sim.conns.flows;
        let [sacked, lost] = flows.tx[slot].ring_bits();
        [sacked, lost, flows.rx[slot].ring_bits()]
    }

    /// Every flow's three rings start at 256 bits, whatever its size, and
    /// grow on demand.
    #[test]
    fn every_ring_starts_at_256_bits_whatever_the_flow_size() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 25));
        let specs = [20, 100, 256, 257]
            .map(|pkts| ConnectionSpec::sized(AlgorithmKind::Mptcp, pkts))
            .into_iter()
            .chain([ConnectionSpec::bulk(AlgorithmKind::Mptcp)]);
        for spec in specs {
            let c = sim.add_connection(spec.path(vec![l]).path(vec![l]));
            for slot in sim.conns.conns[c].hots() {
                assert_eq!(ring_bits(&sim, slot), [256; 3], "connection {c}");
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
            assert!(sim.conns.conns[short].retired(), "the short flow retires before the long one starts");
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
    /// A bulk subflow's rings start at 256 bits. Slow start overflows a
    /// 300-packet queue with a flight above 256, so its sender and
    /// receiver rings grow as far as the flight needs, and every packet is
    /// still delivered and acknowledged exactly once: a 3000-packet flow
    /// (sized like a bulk one) completes with no duplicate, and a bulk
    /// flow delivers each data packet once.
    #[test]
    fn a_bulk_subflows_rings_grow_once_its_flight_passes_256() {
        const SIZE: u64 = 3000;
        let specs = [
            (ConnectionSpec::sized(AlgorithmKind::Mptcp, SIZE), true),
            (ConnectionSpec::bulk(AlgorithmKind::Mptcp), false),
        ];
        for (spec, sized) in specs {
            let mut sim = Simulator::new(4);
            let l1 = sim.add_link(LinkSpec::mbps(100.0, SimTime::from_micros(500), 300));
            let l2 = sim.add_link(LinkSpec::mbps(80.0, SimTime::from_millis(1), 300));
            let c = sim.add_connection(spec.path(vec![l1]).path(vec![l2]));
            assert_eq!([ring_bits(&sim, 0), ring_bits(&sim, 1)], [[256; 3]; 2]);
            sim.run_until(SimTime::from_secs(5));
            let st = sim.connection_stats(c);
            let rings = [ring_bits(&sim, 0), ring_bits(&sim, 1)];
            assert!(rings.iter().flatten().any(|&bits| bits > 256), "{rings:?}");
            assert!(st.data_delivered > 256 && st.dup_data_arrivals == 0, "{st:?}");
            if sized {
                assert!(st.finished_at.is_some(), "{st:?}");
                assert_eq!((st.data_delivered, st.data_acked), (SIZE, SIZE));
                assert_eq!(st.delivered_pkts(), SIZE, "no subflow delivered a packet twice");
            } else {
                assert!(st.data_acked <= st.data_delivered, "{st:?}");
                assert!(st.delivered_pkts() <= st.data_delivered, "{st:?}");
            }
        }
    }
}
