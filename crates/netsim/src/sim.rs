//! The simulator: clock, event loop and the network it runs on.
//!
//! A [`Simulator`] is two inline halves. `Net`, here, owns the clock, the
//! event queue, links and routes, CBR sources, the RNG, the probe, faults,
//! the stall watchdog and the shard plumbing; [`crate::conn`] owns the
//! connections. `Simulator` hands each event to the half that owns it.
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

use crate::cast;
use crate::cbr::{CbrId, CbrSource, CbrSpec};
use crate::conn::{ConnectionSpec, Conns, SubflowTiming};
use crate::event::{Event, EventKind};
use crate::fault::{FaultAction, FaultPlan};
use crate::link::{GeState, Link, LinkId, LinkPath, LinkSpec, LinkStats};
use crate::mem::{deque_bytes, vec_bytes, MemBytes};
use crate::packet::{Packet, PacketOwner, DEFAULT_PACKET_SIZE};
use crate::perf::SimPerf;
use crate::probe::{LinkPoint, ProbeLog, ProbeSpec, ProbeState, Transition, TransitionKind};
use crate::time::SimTime;
use crate::wheel::TimerWheel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::mem::size_of;

/// Identifier of a connection within one [`Simulator`].
pub type ConnId = usize;

/// Upper bound of the uniform jitter added to each ACK's return delay, to
/// break the phase-locking artifacts drop-tail FIFO simulations are prone to.
pub(crate) const ACK_JITTER: SimTime = SimTime::from_micros(100);

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
    pub(crate) net: Net,
    pub(crate) conns: Conns,
}

/// The network half of a [`Simulator`]: everything but the connections.
/// The connection layer borrows it mutably for the length of one call.
pub(crate) struct Net {
    now: SimTime,
    /// Boxed: the wheel's slot array is ~1.5 KiB.
    queue: Box<TimerWheel>,
    links: Vec<Link>,
    /// Standalone routes, one per subflow, connection by connection
    /// (a shard leaves both empty: sharded routing reads the world map).
    /// Kept for the world's lifetime, so straggler packets of retired
    /// flows still route.
    routes: Vec<LinkPath>,
    /// Index in `routes` of each connection's first subflow.
    route_base: Vec<u32>,
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
}

impl Simulator {
    /// Create a simulator with a deterministic RNG seed. Two simulators
    /// constructed with the same seed and fed the same calls produce
    /// identical histories.
    pub fn new(seed: u64) -> Self {
        let net = Net {
            now: SimTime::ZERO,
            queue: Box::new(TimerWheel::new()),
            links: Vec::new(),
            routes: Vec::new(),
            route_base: Vec::new(),
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
        };
        Self { net, conns: Conns::default() }
    }

    /// Bytes this simulator holds, by category (see [`MemBytes`]).
    /// Walks every slot, so it costs time proportional to the world; it
    /// reads nothing the simulation depends on.
    pub fn mem_bytes(&self) -> MemBytes {
        let mut m = MemBytes::default();
        self.conns.mem_bytes(&mut m);
        let net = &self.net;
        m.routes += vec_bytes(&net.routes)
            + net.routes.iter().map(LinkPath::heap_bytes).sum::<u64>()
            + vec_bytes(&net.route_base);
        m.event_queue = net.queue.heap_bytes();
        m.link_records =
            vec_bytes(&net.links) + net.links.iter().map(Link::cold_bytes).sum::<u64>();
        m.link_queues = net.links.iter().map(|l| deque_bytes(&l.queue)).sum();
        if let Some(ctx) = &net.shard {
            m.outboxes = size_of::<ShardCtx>() as u64
                + vec_bytes(&ctx.outbox)
                + ctx.outbox.iter().map(vec_bytes).sum::<u64>();
        }
        m
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now
    }

    /// Total events processed so far (a cheap progress/perf metric).
    pub fn events_processed(&self) -> u64 {
        self.net.events_processed
    }

    /// Snapshot of the event core's performance counters.
    pub fn perf(&self) -> SimPerf {
        let net = &self.net;
        SimPerf {
            events_scheduled: net.queue.scheduled(),
            events_fired: net.events_processed,
            events_cancelled: net.events_cancelled,
            pending: net.queue.len() as u64,
            peak_pending: net.queue.peak_pending() as u64,
            wall: std::time::Duration::from_nanos(net.wall_nanos),
            sim_elapsed: net.now,
            faults_applied: net.faults_applied,
            stalled_at: net.stalled_at,
            quiesced_at: net.quiesced_at,
            hot_allocs: self.conns.hot_allocs(),
            queue_reinserts: net.queue.reinserts(),
        }
    }

    // ------------------------------------------------------------------
    // World construction
    // ------------------------------------------------------------------

    /// Add a link; returns its id.
    ///
    /// # Panics
    /// Panics on a queue limit of 2^32 packets or more.
    pub fn add_link(&mut self, spec: LinkSpec) -> LinkId {
        self.net.links.push(Link::new(spec));
        self.net.links.len() - 1
    }

    /// Add a connection; returns its id. Transmission begins at the spec's
    /// start time.
    ///
    /// # Panics
    /// Panics if the spec has no subflows, references unknown links, or
    /// exceeds what a packet header holds: 2^31 connections, 256
    /// subflows, 255 hops.
    pub fn add_connection(&mut self, spec: ConnectionSpec) -> ConnId {
        let net = &mut self.net;
        let delays = spec.timings(net.links.len(), |l| net.links[l].spec());
        net.route_base.push(cast::slab_u32(net.routes.len()));
        net.routes.extend(spec.subflows.iter().map(|sf| LinkPath::from(&sf.path[..])));
        let gid = self.connection_count();
        self.admit(spec, gid, &delays)
    }

    /// Admit a connection whose `delays` were computed against whichever
    /// link table owns its paths: this shard's (after
    /// [`Self::add_connection`] stored the routes) or the sharded world
    /// map, whose paths carry global link ids that are not resolvable
    /// here. `gid` is the id stamped into its packets.
    pub(crate) fn admit(
        &mut self,
        spec: ConnectionSpec,
        gid: ConnId,
        delays: &[SubflowTiming],
    ) -> ConnId {
        debug_assert_eq!(spec.subflows.len(), delays.len());
        let id = self.conns.add_connection(&mut self.net, spec, gid, delays);
        // New work revives a previously quiesced world.
        self.net.quiesced_at = None;
        id
    }

    /// Add a CBR source; returns its id.
    ///
    /// # Panics
    /// Panics if the spec references unknown links, or exceeds what a
    /// packet header holds: 2^31 sources, 255 hops.
    pub fn add_cbr(&mut self, spec: CbrSpec) -> CbrId {
        let net = &mut self.net;
        for &l in &spec.path {
            assert!(l < net.links.len(), "unknown link {l}");
        }
        let id = net.cbrs.len();
        crate::packet::assert_packable(id, 1, spec.path.len());
        let start = spec.start.max(net.now);
        net.cbrs.push(CbrSource::new(spec));
        net.queue.push(start, EventKind::CbrToggle { src: cast::slab_u32(id) });
        id
    }

    // ------------------------------------------------------------------
    // Scenario scripting (call between `run_until` steps)
    // ------------------------------------------------------------------

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
        let net = &mut self.net;
        for &(at, action) in plan.actions() {
            assert!(action.link() < net.links.len(), "unknown link {}", action.link());
            let idx = net.fault_actions.len();
            net.fault_actions.push(action);
            net.queue.push(at.max(net.now), EventKind::Fault { idx: cast::slab_u32(idx) });
        }
        net.quiesced_at = None;
    }

    /// Arm the stall watchdog: if no data packet reaches any destination
    /// for `threshold` of simulated time while unfinished connections
    /// exist, `run_until` stops early and reports the stall through
    /// [`SimPerf::stalled_at`]. `None` disarms (the default).
    pub fn set_stall_watchdog(&mut self, threshold: Option<SimTime>) {
        self.net.stall_watchdog = threshold;
        self.net.last_progress = self.net.now;
    }

    /// Enable the telemetry probe: every `spec.interval` the simulator
    /// records one [`SubflowPoint`](crate::SubflowPoint) per watched
    /// subflow and one [`LinkPoint`] per watched link, plus congestion
    /// transitions as they happen. Empty watch lists mean "everything that
    /// exists now".
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
        let (n_conns, net) = (self.connection_count(), &mut self.net);
        let mut spec = spec;
        if spec.conns.is_empty() {
            spec.conns = (0..n_conns).collect();
        }
        if spec.links.is_empty() {
            spec.links = (0..net.links.len()).collect();
        }
        for &c in &spec.conns {
            assert!(c < n_conns, "unknown connection {c}");
        }
        for &l in &spec.links {
            assert!(l < net.links.len(), "unknown link {l}");
        }
        let first = net.now + spec.interval;
        let mut watch = vec![false; n_conns];
        for &c in &spec.conns {
            watch[c] = true;
        }
        net.probe = Some(Box::new(ProbeState { spec, log: ProbeLog::default(), watch }));
        if !net.probe_tick_pending {
            net.probe_tick_pending = true;
            net.queue.push(first, EventKind::ProbeTick);
        }
    }

    /// Disable the probe and return everything it collected (or `None` if
    /// no probe was enabled). The pending tick becomes a stale no-op.
    pub fn disable_probe(&mut self) -> Option<ProbeLog> {
        self.net.probe.take().map(|p| p.log)
    }

    /// The currently collected probe log, if a probe is enabled.
    pub fn probe_log(&self) -> Option<&ProbeLog> {
        self.net.probe.as_deref().map(|p| &p.log)
    }

    /// Zero all link counters (discard a warm-up period).
    pub fn reset_link_stats(&mut self) {
        for l in &mut self.net.links {
            l.stats = LinkStats::default();
        }
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /// A link's accumulated counters.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.net.links[link].stats
    }

    /// A link's current spec (rate/delay/queue/loss).
    pub fn link_spec(&self, link: LinkId) -> LinkSpec {
        self.net.links[link].spec()
    }

    /// Number of links in the world.
    pub fn link_count(&self) -> usize {
        self.net.links.len()
    }

    /// Packets delivered by a CBR source.
    pub fn cbr_delivered(&self, src: CbrId) -> u64 {
        self.net.cbrs[src].delivered
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
        assert!(horizon >= self.net.now, "time cannot run backwards");
        let started = crate::perf::wall_clock();
        let mut stalled = false;
        while let Some(ev) = self.net.queue.pop_before(horizon) {
            self.dispatch(ev);
            if let Some(threshold) = self.net.stall_watchdog {
                if self.net.now.saturating_sub(self.net.last_progress) > threshold {
                    if self.conns.has_unfinished() {
                        if self.net.stalled_at.is_none() {
                            self.net.stalled_at = Some(self.net.now);
                        }
                        stalled = true;
                        break;
                    }
                    // Idle but with nothing left to do: not a stall.
                    self.net.last_progress = self.net.now;
                }
            }
        }
        let net = &mut self.net;
        if !stalled {
            if net.queue.len() == 0 && net.quiesced_at.is_none() && self.conns.has_unfinished() {
                net.quiesced_at = Some(net.now);
            }
            net.now = horizon;
        }
        net.wall_nanos += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    /// Advance the clock to `ev` and hand it to the half that owns it.
    fn dispatch(&mut self, ev: Event) {
        let (net, conns) = (&mut self.net, &mut self.conns);
        debug_assert!(ev.at >= net.now, "event from the past");
        net.now = ev.at;
        net.events_processed += 1;
        match ev.kind {
            EventKind::TxDone { link } => net.on_tx_done(link as LinkId),
            EventKind::Arrive { pkt } => {
                if let Some((conn, sub, seq)) = net.on_arrive(pkt) {
                    conns.on_deliver(net, conn, sub, seq);
                }
            }
            EventKind::AckArrive { conn, sub, ack } => {
                conns.on_ack(net, conn as ConnId, sub as usize, ack);
            }
            EventKind::RtoFire { conn, sub } => conns.on_rto(net, conn as ConnId, sub as usize),
            EventKind::ConnStart { conn } => conns.on_conn_start(net, conn as ConnId),
            EventKind::ConnRetire { conn } => conns.on_conn_retire(net, conn as ConnId),
            EventKind::CbrSend { src, gen } => net.on_cbr_send(src as CbrId, gen),
            EventKind::CbrToggle { src } => net.on_cbr_toggle(src as CbrId),
            EventKind::Fault { idx } => self.apply_fault(idx as usize),
            EventKind::ProbeTick => self.on_probe_tick(),
        }
    }

    /// Take one probe sample of every watched subflow and link, then
    /// re-schedule the tick. Stale ticks (probe disabled since the event
    /// was queued) are no-ops, like lazy RTO timers.
    fn on_probe_tick(&mut self) {
        let net = &mut self.net;
        let Some(probe) = net.probe.as_deref_mut() else {
            net.probe_tick_pending = false;
            net.events_cancelled += 1;
            return;
        };
        let at = net.now;
        self.conns.sample_subflows(probe, at);
        for &link in &probe.spec.links {
            let l = &net.links[link];
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
        net.queue.push(next, EventKind::ProbeTick);
    }

    /// Execute one installed fault action: the only way a link changes
    /// mid-run. [`FaultPlan::push`] validated its operands.
    fn apply_fault(&mut self, idx: usize) {
        let action = self.net.fault_actions[idx];
        self.net.faults_applied += 1;
        match action {
            FaultAction::Down { link } | FaultAction::Up { link } => {
                // Both the flushed queue and later arrivals count as
                // `dropped_down`, not queue overflow.
                let down = matches!(action, FaultAction::Down { .. });
                let l = &mut self.net.links[link];
                l.cold().down = down;
                if down {
                    l.stats.dropped_down += l.queue.len() as u64;
                    l.queue.clear();
                }
            }
            FaultAction::SetRate { link, bps } => {
                let l = &mut self.net.links[link];
                l.set_rate_bps(bps);
                if let Some(cold) = l.cold.as_deref_mut() {
                    cold.nominal_rate_bps = bps;
                }
            }
            FaultAction::Brownout { link, factor } => {
                let l = &mut self.net.links[link];
                let nominal = l.cold().nominal_rate_bps;
                l.set_rate_bps(nominal * factor);
            }
            FaultAction::RestoreRate { link } => {
                let l = &mut self.net.links[link];
                if let Some(nominal) = l.cold.as_deref().map(|c| c.nominal_rate_bps) {
                    l.set_rate_bps(nominal);
                }
            }
            FaultAction::SetLoss { link, p } => self.net.links[link].loss_prob = p,
            FaultAction::ShrinkQueue { link, pkts } => {
                let l = &mut self.net.links[link];
                // Box the cold record first: it keeps the nominal limit.
                l.cold();
                l.queue_pkts = cast::queue_u32(pkts);
                // Drop-tail semantics: excess waiting packets are shed from
                // the back of the queue immediately.
                l.stats.dropped_queue += l.queue.len().saturating_sub(pkts) as u64;
                l.queue.truncate(pkts);
            }
            FaultAction::RestoreQueue { link } => {
                let l = &mut self.net.links[link];
                if let Some(cold) = l.cold.as_deref() {
                    l.queue_pkts = cold.nominal_queue_pkts;
                }
            }
            FaultAction::GilbertElliott { link, params } => {
                let ge = params.map(|params| GeState { params, bad: false });
                self.net.links[link].cold().ge = ge;
            }
            FaultAction::AddrRemove { conn, sub, .. } => {
                self.admin_close_subflow(self.net.local_conn(conn), sub);
            }
            FaultAction::AddrAdd { conn, sub, .. } => {
                self.admin_open_subflow(self.net.local_conn(conn), sub);
            }
        }
    }

    // ------------------------------------------------------------------
    // Sharded-mode plumbing (driven by `crate::shard::ShardedSimulator`)
    // ------------------------------------------------------------------

    /// Install the routing context that turns this simulator into one
    /// shard of a partitioned world.
    pub(crate) fn set_shard_ctx(&mut self, ctx: ShardCtx) {
        self.net.shard = Some(Box::new(ctx));
    }

    /// Process every event strictly inside the epoch ending at
    /// `upto` (inclusive). Unlike [`Self::run_until`] this neither runs
    /// the watchdog/quiesce detectors nor measures wall time (both belong
    /// to the epoch driver), and it leaves `now` at the last event so the
    /// next epoch continues seamlessly.
    pub(crate) fn run_epoch(&mut self, upto: SimTime) {
        while let Some(ev) = self.net.queue.pop_before(upto) {
            self.dispatch(ev);
        }
    }

    /// This shard's outbox buffers: the driver empties them at the epoch
    /// barrier, into the destination queue or the shared mailbox matrix.
    #[expect(
        clippy::expect_used,
        reason = "pub(crate) hook called only by the sharded driver, which created the shard state it is asking for; a None here is a driver bug, not a simulated condition"
    )]
    pub(crate) fn shard_outbox(&mut self) -> &mut Vec<Vec<(SimTime, Packet)>> {
        &mut self.net.shard.as_mut().expect("not in sharded mode").outbox
    }

    /// Enqueue a cross-shard arrival handed over by a peer shard.
    pub(crate) fn inject_arrive(&mut self, at: SimTime, pkt: Packet) {
        self.net.queue.push(at, EventKind::Arrive { pkt });
    }

    /// A time no later than this shard's next event (`None`: none pending).
    pub(crate) fn next_event_bound(&self) -> Option<SimTime> {
        self.net.queue.earliest_bound()
    }

    /// Advance the clock to the horizon at the end of a sharded run (the
    /// per-epoch loop leaves `now` at the last processed event).
    pub(crate) fn finish_epochs_at(&mut self, horizon: SimTime) {
        debug_assert!(horizon >= self.net.now, "time cannot run backwards");
        self.net.now = horizon;
    }
}

/// What the connection layer may do to the network: the whole interface
/// between the two halves.
impl Net {
    /// Current simulated time.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Queue an event at `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, kind: EventKind) {
        self.queue.push(at, kind);
    }

    /// Count the event being dispatched as a stale no-op.
    pub(crate) fn cancel(&mut self) {
        self.events_cancelled += 1;
    }

    /// Record forward progress for the stall watchdog.
    pub(crate) fn progress(&mut self) {
        self.last_progress = self.now;
    }

    /// One ACK's return-delay jitter, drawn uniformly from `[0, ACK_JITTER]`.
    pub(crate) fn ack_jitter(&mut self) -> SimTime {
        SimTime(self.rng.gen_range(0..=ACK_JITTER.as_nanos()))
    }

    /// Whether the probe is enabled and watching `conn` — the single
    /// branch congestion hooks pay when telemetry is disabled.
    pub(crate) fn probe_watches(&self, conn: ConnId) -> bool {
        self.probe.as_deref().is_some_and(|p| p.watch.get(conn).copied().unwrap_or(false))
    }

    /// Append a congestion transition to the probe log (the caller already
    /// checked the connection is watched).
    pub(crate) fn record_transition(&mut self, conn: ConnId, sub: usize, kind: TransitionKind) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.log.transitions.push(Transition { at: self.now, conn, sub, kind });
        }
    }

    /// Send a packet onto the first link of its path.
    pub(crate) fn send(&mut self, pkt: Packet) {
        if let Some(link) = self.next_link(&pkt) {
            self.offer(pkt, link);
        }
    }
}

impl Net {
    /// Offer a packet to link `link_id`, the one at `pkt.hop` of its path.
    fn offer(&mut self, pkt: Packet, link_id: LinkId) {
        let l = &mut self.links[link_id];
        l.stats.offered += 1;
        if let Some(cold) = l.cold.as_deref_mut() {
            if cold.down {
                l.stats.dropped_down += 1;
                return;
            }
            // Gilbert–Elliott bursty loss, when a chain is installed: one
            // transition attempt per offered packet, then a loss draw in
            // the resulting state. Both draws come from the simulator RNG,
            // in packet order — fully deterministic for a fixed seed.
            if let Some(ge) = &mut cold.ge {
                let flip = if ge.bad { ge.params.p_exit_bad } else { ge.params.p_enter_bad };
                if flip > 0.0 && self.rng.gen::<f64>() < flip {
                    ge.bad = !ge.bad;
                }
                let p = if ge.bad { ge.params.loss_bad } else { ge.params.loss_good };
                if p > 0.0 && self.rng.gen::<f64>() < p {
                    l.stats.dropped_random += 1;
                    return;
                }
            }
        }
        if l.loss_prob > 0.0 && self.rng.gen::<f64>() < l.loss_prob {
            l.stats.dropped_random += 1;
            return;
        }
        if l.in_service.is_none() {
            l.in_service = Some(pkt);
            let done = self.now + l.tx_time();
            self.queue.push(done, EventKind::TxDone { link: cast::slab_u32(link_id) });
        } else if l.queue.len() < l.queue_pkts as usize {
            l.reserve_slot();
            l.queue.push_back(pkt);
        } else {
            l.stats.dropped_queue += 1;
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

    /// The link at `pkt.hop` of the packet's path, or `None` once it has
    /// crossed the last one.
    fn next_link(&self, pkt: &Packet) -> Option<LinkId> {
        let hop = pkt.hop();
        let route = match pkt.owner() {
            PacketOwner::Subflow { conn, sub, .. } => match &self.shard {
                // Sharded: the hop table yields this shard's local link id
                // (the router in `on_tx_done` guarantees we only ever look
                // up hops that live here).
                Some(ctx) => {
                    return (hop < ctx.map.path_len(conn, sub))
                        .then(|| ctx.map.hop(conn, sub, hop).1 as LinkId);
                }
                None => &self.routes[self.route_base[conn] as usize + sub],
            },
            PacketOwner::Cbr { src } => &self.cbrs[src].path,
        };
        route.as_slice().get(hop).copied()
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
            l.stats.bytes += u64::from(DEFAULT_PACKET_SIZE);
            if let Some(next) = l.queue.pop_front() {
                l.in_service = Some(next);
                let done = self.now + l.tx_time();
                self.queue.push(done, EventKind::TxDone { link: cast::slab_u32(link) });
            }
            (pkt, l.delay)
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

    /// Move an arriving packet on: onto the next link of its path or, past
    /// the last one, to its destination. A CBR delivery is counted here; a
    /// subflow delivery is returned as its local `(conn, sub, seq)` for
    /// the connection layer, with the low 32 bits of its sequence number.
    fn on_arrive(&mut self, pkt: Packet) -> Option<(ConnId, usize, u32)> {
        if let Some(link) = self.next_link(&pkt) {
            self.offer(pkt, link);
            return None;
        }
        match pkt.owner() {
            PacketOwner::Subflow { conn, sub, seq } => Some((self.local_conn(conn), sub, seq)),
            PacketOwner::Cbr { src } => {
                self.cbrs[src].delivered += 1;
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // CBR machinery
    // ------------------------------------------------------------------

    fn exp_sample(&mut self, mean: SimTime) -> SimTime {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        SimTime::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    fn on_cbr_toggle(&mut self, src: CbrId) {
        let s = &mut self.cbrs[src];
        let onoff = s.spec.onoff;
        if s.on && onoff.is_none() {
            // An always-on source toggles once, to start.
            return;
        }
        s.on = !s.on;
        s.gen += 1;
        let (on, gen) = (s.on, s.gen);
        if on {
            let (src, gen) = (cast::slab_u32(src), cast::gen_u32(gen));
            self.queue.push(self.now, EventKind::CbrSend { src, gen });
        }
        if let Some((mean_on, mean_off)) = onoff {
            let next = self.now + self.exp_sample(if on { mean_on } else { mean_off });
            self.queue.push(next, EventKind::CbrToggle { src: cast::slab_u32(src) });
        }
    }

    fn on_cbr_send(&mut self, src: CbrId, gen: u32) {
        let (on, cur_gen, interval) = {
            let s = &self.cbrs[src];
            (s.on, s.gen, s.spec.packet_interval())
        };
        if !on || cur_gen != u64::from(gen) {
            self.events_cancelled += 1;
            return;
        }
        self.cbrs[src].sent += 1;
        self.send(Packet::new(PacketOwner::Cbr { src }));
        let next = EventKind::CbrSend { src: cast::slab_u32(src), gen };
        self.queue.push(self.now + interval, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_cc::AlgorithmKind;

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
        let s = SimTime::from_secs;
        sim.install_fault_plan(&FaultPlan::new().outage(l, s(10), s(20)));
        sim.run_until(SimTime::from_secs(20));
        let during = sim.connection_stats(c).delivered_pkts();
        assert!(during - before < 30, "almost nothing delivered while down");
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

    /// What a 12-byte packet cannot carry is refused where the sender is
    /// admitted, in release builds too — not when its first packet packs.
    #[test]
    #[should_panic(expected = "a packet can count 255")]
    fn path_longer_than_a_packet_can_count_rejected() {
        let (mut sim, l) = one_link_sim(10.0, 10, 25);
        sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l; 256]));
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
    /// One link of drop-tail limit `limit` under a constant and a bursty
    /// CBR source (1.3× the link's rate while both send), squeezed to `limit / 3` over 300–500 ms and down over
    /// 800–900 ms, sampled by the probe every millisecond. Returns the
    /// link's counters, an FNV-1a digest of the probe's queue depths, and
    /// the largest waiting-buffer capacity seen.
    fn squeezed_link_run(limit: usize) -> ([u64; 5], u64, usize) {
        let (mut sim, l) = one_link_sim(12.0, 1, limit);
        sim.add_cbr(CbrSpec::constant(vec![l], 9.6e6));
        let bursty = CbrSpec::constant(vec![l], 6e6)
            .onoff(SimTime::from_millis(20), SimTime::from_millis(30));
        sim.add_cbr(bursty);
        let ms = SimTime::from_millis;
        let plan = FaultPlan::new().queue_squeeze(l, ms(300), ms(500), limit / 3);
        sim.install_fault_plan(&plan.outage(l, ms(800), ms(900)));
        sim.enable_probe(ProbeSpec::every(ms(1)).links(vec![l]));
        let mut cap = 0;
        for step in 1..=1_200 {
            sim.run_until(SimTime::from_micros(step * 1_000));
            cap = cap.max(sim.net.links[l].queue.capacity());
        }
        let s = sim.link_stats(l);
        let points = sim.probe_log().map_or(&[][..], |p| &p.link_points[..]);
        let digest = points.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
            (h ^ p.queue_depth as u64).wrapping_mul(0x100_0000_01b3)
        });
        ([s.offered, s.dropped_queue, s.dropped_down, s.transmitted, s.bytes], digest, cap)
    }

    /// A link holds at most `limit + 1` packets: the one in service, in
    /// its record, and a waiting buffer that doubles only up to the
    /// `limit` packets the drop-tail limit lets wait — also for limits
    /// below the first doubling step of 4. Every counter and every probed
    /// queue depth equals the constants below: the ones the simulator
    /// recorded on this schedule while packets still carried a size field,
    /// and whose counts had matched the model with an uncapped buffer.
    #[test]
    fn link_buffers_stop_at_their_limit_and_count_as_before() {
        // [offered, dropped_queue, dropped_down, transmitted, bytes] and
        // the digest of the probed queue depths, per limit.
        let pinned: [(usize, [u64; 5], u64); 4] = [
            (0, [1268, 275, 112, 880, 1_320_000], 0x03ea_0f27_0906_b3f4),
            (1, [1268, 194, 112, 961, 1_441_500], 0xa67f_ef92_8559_2751),
            (3, [1268, 134, 114, 1019, 1_528_500], 0xe20e_9951_137c_2d9c),
            (100, [1268, 8, 162, 1093, 1_639_500], 0x4b54_ae64_e097_d606),
        ];
        for (limit, counters, digest) in pinned {
            let got = squeezed_link_run(limit);
            assert_eq!((got.0, got.1), (counters, digest), "limit {limit}");
            assert!(got.2 <= limit, "limit {limit}: a waiting buffer of {} packets", got.2);
        }
    }
}
