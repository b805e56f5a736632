//! The MPTCP endpoint: the §6 design, executable.
//!
//! An [`Endpoint`] is one side of a multipath connection. It is entirely
//! poll-based: the caller feeds arriving segments in with
//! [`Endpoint::on_segment`] and collects segments to transmit with
//! [`Endpoint::poll`]; time is a number the caller advances. The design
//! points follow §6 exactly:
//!
//! * subflow sequence numbers (per subflow, in bytes) drive loss detection
//!   and fast retransmission;
//! * every payload is mapped into the data stream by a 64-bit data
//!   sequence number in a DSS option;
//! * the receive buffer is a **single shared pool**, and the advertised
//!   window is measured from the **data-level** cumulative ACK (the
//!   per-subflow alternative is implemented behind
//!   [`RecvBufferMode::PerSubflow`] purely so its deadlock can be
//!   demonstrated in tests);
//! * data ACKs are explicit, in options, on every segment;
//! * after a subflow's retransmission timer fires, its unacknowledged data
//!   is **reinjected** on another subflow, so a dead path cannot stall the
//!   stream.

use crate::path::{PathEvent, PathManager};
use crate::segment::{MptcpOption, SegFlags, Segment};
use crate::Micros;
use mptcp_cc::{AlgorithmKind, CcDriver, Failover, RtoEstimator, SubflowSnapshot};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Which side initiates subflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Initiates the connection and all additional subflows.
    Client,
    /// Accepts the connection.
    Server,
}

/// Receive-buffer accounting mode (§6 "Flow Control": "Two choices seem
/// feasible…"). `Shared` is the paper's chosen design; `PerSubflow` is the
/// rejected one, kept so the deadlock is demonstrable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvBufferMode {
    /// "a single buffer pool is maintained at the receiver, and its
    /// occupancy is signalled relative to the data sequence space".
    Shared,
    /// "separate buffer pools are maintained at the receiver for each
    /// subflow" — suffers deadlock when one subflow stalls.
    PerSubflow,
}

/// Endpoint configuration.
#[derive(Debug, Clone, Copy)]
pub struct EndpointConfig {
    /// Maximum payload bytes per segment.
    pub mss: usize,
    /// Send-buffer capacity, bytes (data kept until data-level ACK).
    pub send_buf: usize,
    /// Receive-buffer capacity, bytes (total for `Shared`; per subflow for
    /// `PerSubflow`).
    pub recv_buf: usize,
    /// Buffer accounting mode.
    pub recv_mode: RecvBufferMode,
    /// Congestion-control algorithm for the subflow windows.
    pub algorithm: AlgorithmKind,
    /// Minimum retransmission timeout, µs.
    pub min_rto: Micros,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        Self {
            mss: 1200,
            send_buf: 64 * 1024,
            recv_buf: 64 * 1024,
            recv_mode: RecvBufferMode::Shared,
            algorithm: AlgorithmKind::Mptcp,
            min_rto: 200_000,
        }
    }
}

/// Diagnostic snapshot of one subflow (see [`Endpoint::stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubflowStats {
    /// Handshake completed.
    pub established: bool,
    /// Congestion window, bytes.
    pub cwnd_bytes: f64,
    /// Smoothed RTT, µs (None before the first sample).
    pub srtt_us: Option<f64>,
    /// Unacknowledged bytes outstanding.
    pub bytes_in_flight: u32,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// Retransmission timeouts suffered.
    pub timeouts: u64,
    /// In repeated RTO backoff: probing only, no new data mappings.
    pub potentially_failed: bool,
    /// Negotiated at backup priority: warm but carrying no data while any
    /// non-backup subflow is healthy.
    pub backup: bool,
    /// Torn down by the path manager (may be rejoined later).
    pub closed: bool,
    /// Data payload bytes ever mapped onto this subflow.
    pub data_bytes_sent: u64,
}

/// Diagnostic snapshot of a connection (see [`Endpoint::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointStats {
    /// Handshake outcome (None = unresolved; Some(false) = fallback).
    pub mp_enabled: Option<bool>,
    /// Data bytes mapped onto subflows so far.
    pub data_sent: u64,
    /// Peer's data-level cumulative ACK.
    pub data_acked: u64,
    /// In-order data bytes received.
    pub data_received: u64,
    /// Bytes waiting in the send buffer.
    pub send_buffered: usize,
    /// In-order bytes the application has not read yet.
    pub recv_buffered: usize,
    /// Bytes held out of order awaiting reassembly.
    pub recv_out_of_order: usize,
    /// Reinjections waiting for a subflow with window space.
    pub reinjections_queued: usize,
    /// Distinct data ranges ever reinjected.
    pub reinjections_total: usize,
    /// Zero-window persist probes sent.
    pub persist_probes: u64,
    /// Times the failover state machine moved data onto backup subflows
    /// (every non-backup subflow potentially failed).
    pub backup_activations: u64,
    /// Distinct `ADD_ADDR` advertisements transmitted.
    pub addr_advertised: u64,
    /// Subflows that completed a join handshake (initial joins included).
    pub subflows_joined: u64,
    /// Subflows torn down by the path manager.
    pub subflows_closed: u64,
    /// Most recent failover latency: µs from the first unanswered primary
    /// RTO to data moving onto a backup subflow.
    pub failover_latency_us: Option<Micros>,
    /// Per-subflow snapshots.
    pub subflows: Vec<SubflowStats>,
}

/// A segment the sender still holds for possible retransmission.
#[derive(Debug, Clone)]
struct SentSeg {
    sub_seq: u32,
    data_seq: u64,
    payload: Vec<u8>,
    sent_at: Micros,
    retransmitted: bool,
    /// A FIN occupies one subflow sequence number and is retransmitted by
    /// the same machinery as data.
    is_fin: bool,
}

impl SentSeg {
    /// Subflow sequence space this segment occupies.
    fn seq_len(&self) -> u32 {
        if self.is_fin {
            1
        } else {
            self.payload.len() as u32
        }
    }
}

/// Per-subflow state.
#[derive(Debug)]
struct Subflow {
    established: bool,
    syn_sent: bool,
    /// Backup priority (negotiated in the `MP_JOIN` backup bit).
    backup: bool,
    /// Torn down by the path manager; stays closed until rejoined.
    closed: bool,
    /// Client-side: initiate a join on this subflow when possible.
    want_join: bool,
    /// Data payload bytes ever mapped onto this subflow (diagnostics; the
    /// backup-semantics tests assert this stays zero while primaries are
    /// healthy).
    data_bytes_sent: u64,
    /// When the last SYN / SYN-ACK went out (they are retransmitted on a
    /// fixed timer until the handshake completes — a lost SYN must not
    /// wedge the connection).
    syn_sent_at: Micros,
    // --- sender ---
    snd_next: u32,
    snd_una: u32,
    inflight: VecDeque<SentSeg>,
    dup_acks: u32,
    in_recovery: bool,
    recovery_point: u32,
    cwnd_bytes: f64,
    ssthresh_bytes: f64,
    /// RTT estimate, RTO with backoff and the potentially-failed state
    /// (in seconds; this file converts at the edge). A potentially failed
    /// subflow keeps probing with retransmissions but receives no new
    /// data mappings until an ACK shows progress.
    timer: RtoEstimator,
    rto_deadline: Option<Micros>,
    /// Peer's advertised window as last seen on this subflow (meaning
    /// depends on the receive mode).
    peer_window: u32,
    retransmits: u64,
    timeouts: u64,
    // --- receiver (subflow level) ---
    rcv_next: u32,
    /// Received subflow byte ranges beyond `rcv_next` (start → end).
    rcv_ranges: BTreeMap<u32, u32>,
    ack_pending: bool,
    /// Bytes held in the receive buffer attributed to this subflow
    /// (PerSubflow mode accounting).
    held_bytes: usize,
}

/// Initial congestion window of every subflow incarnation, in MSS units.
const INITIAL_CWND: f64 = 2.0;

/// The retransmission timer of a subflow incarnation that has sent nothing
/// yet: 1 s initial RTO, 60 s ceiling (RFC 6298).
fn fresh_timer(cfg: &EndpointConfig) -> RtoEstimator {
    RtoEstimator::new(1.0, cfg.min_rto as f64 / 1e6, 60.0)
}

impl Subflow {
    fn new(cfg: &EndpointConfig) -> Self {
        Self {
            established: false,
            syn_sent: false,
            backup: false,
            closed: false,
            want_join: true,
            data_bytes_sent: 0,
            syn_sent_at: 0,
            snd_next: 0,
            snd_una: 0,
            inflight: VecDeque::new(),
            dup_acks: 0,
            in_recovery: false,
            recovery_point: 0,
            cwnd_bytes: INITIAL_CWND * cfg.mss as f64,
            ssthresh_bytes: f64::INFINITY,
            timer: fresh_timer(cfg),
            rto_deadline: None,
            peer_window: u32::MAX,
            retransmits: 0,
            timeouts: 0,
            rcv_next: 0,
            rcv_ranges: BTreeMap::new(),
            ack_pending: false,
            held_bytes: 0,
        }
    }

    fn bytes_in_flight(&self) -> u32 {
        self.snd_next.wrapping_sub(self.snd_una)
    }

    /// The (clamped) retransmission timeout, µs.
    fn rto_us(&self) -> Micros {
        (self.timer.rto() * 1e6).round() as Micros
    }

    /// Record an incoming subflow byte range.
    fn receive_range(&mut self, start: u32, len: u32) {
        let end = start.wrapping_add(len);
        // Transfers in this userspace model stay < 4 GiB; compare directly.
        if len == 0 || end <= self.rcv_next {
            return; // nothing, or an old duplicate
        }
        let start = start.max(self.rcv_next);
        if start == self.rcv_next && self.rcv_ranges.is_empty() {
            self.rcv_next = end; // in order, nothing held: no node to insert
            return;
        }
        self.rcv_ranges
            .entry(start)
            .and_modify(|e| *e = (*e).max(end))
            .or_insert(end);
        // Merge contiguous ranges starting at rcv_next.
        while let Some((&s, &e)) = self.rcv_ranges.range(..=self.rcv_next).next_back() {
            self.rcv_ranges.remove(&s);
            if e > self.rcv_next {
                self.rcv_next = e;
            }
        }
    }

    /// Take a SYN's sequence number as the peer's ISN: jump the receive
    /// cursor forward to it, never back, and drop ranges it passes. A
    /// rejoin's SYN carries the peer's resumed `snd_next`, so segments from
    /// a previous incarnation can never alias new data; a first SYN carries
    /// the ISN as its path delivers it (`WireFault::RewriteIsn` shifts it),
    /// and the ACKs returned must map back into what the peer sent.
    fn resume_receive_at(&mut self, isn: u32) {
        self.rcv_next = self.rcv_next.max(isn);
        let cut = self.rcv_next;
        self.rcv_ranges.retain(|_, e| *e > cut);
    }
}

/// One side of a multipath connection. See the module docs.
pub struct Endpoint {
    cfg: EndpointConfig,
    role: Role,
    key: u64,
    /// `None` until the handshake resolves; then whether MPTCP is in use
    /// (false = fallback to regular TCP on subflow 0).
    mp_enabled: Option<bool>,
    subs: Vec<Subflow>,
    cc: CcDriver,

    // --- data-level send state ---
    send_buf: VecDeque<u8>,
    /// Data seq of `send_buf[0]` (oldest un-data-acked byte).
    snd_data_base: u64,
    /// Next data seq to map onto a subflow.
    snd_data_next: u64,
    /// Peer's data-level cumulative ACK.
    data_acked: u64,
    /// Data ranges to reinject on another subflow (after a subflow RTO):
    /// `(data_seq, payload, is_fin)`.
    reinject_queue: VecDeque<(u64, Vec<u8>, bool)>,
    fin_queued: bool,
    /// Data sequence number the FIN occupies, once first sent.
    fin_seq: Option<u64>,
    /// Data sequence numbers already reinjected once (avoid duplicates).
    reinjected: std::collections::BTreeSet<u64>,

    // --- data-level receive state ---
    /// Next data seq expected in order.
    rcv_data_next: u64,
    /// Out-of-order data held (data_seq → (arrival subflow, bytes)).
    recv_ooo: BTreeMap<u64, (usize, Vec<u8>)>,
    /// Retransmissions produced during ACK processing, flushed by `poll`.
    pending_out: Vec<(usize, Segment)>,
    /// Scratch: the subflows `poll_data` may map data onto this poll.
    usable: Vec<usize>,
    /// Scratch: congestion-control snapshots of every subflow.
    snap_buf: Vec<SubflowSnapshot>,
    /// In-order data not yet read by the application.
    recv_app: VecDeque<u8>,
    /// FIFO attribution of buffered bytes to subflows (PerSubflow mode).
    recv_attribution: VecDeque<(usize, usize)>,
    /// Data seq of the peer's FIN, once seen.
    peer_fin: Option<u64>,

    // --- zero-window persist (RFC 9293 §3.8.6.1) ---
    /// Armed when data is queued but every subflow is flow-control-blocked
    /// with nothing in flight: no ACK can ever arrive to reopen the window
    /// (the reopening window update is a pure ACK, which is never
    /// retransmitted), so without this timer a single lost window update
    /// would deadlock the connection.
    persist_deadline: Option<Micros>,
    /// Zero-window probes sent (diagnostics).
    persist_probes: u64,

    // --- path management & failover (graceful-degradation state machine:
    // active → degraded → failover → recovered) ---
    /// Subflow limit and advertisement retransmit state.
    path: PathManager,
    /// Backup-failover state machine, clocked in µs.
    failover: Failover,
    /// Subflows that completed a join handshake.
    subflows_joined: u64,
    /// Subflows torn down by the path manager.
    subflows_closed: u64,

    /// Before this instant [`Endpoint::poll`] has nothing to do: the full
    /// poll stores [`Endpoint::next_deadline`] here, and every call that
    /// can create work resets it to 0 through [`Endpoint::wake`].
    wake_at: Micros,

    /// Total application bytes received in order (diagnostics).
    total_received: u64,
}

impl Endpoint {
    /// Create a client endpoint with `n_subflows` paths.
    ///
    /// # Panics
    /// Panics unless `1 ≤ n_subflows ≤ 256`: a subflow's address id is
    /// one byte on the wire.
    pub fn client(cfg: EndpointConfig, n_subflows: usize, key: u64) -> Self {
        Self::new(cfg, Role::Client, n_subflows, key)
    }

    /// Create a server endpoint able to accept `n_subflows` paths.
    ///
    /// # Panics
    /// Panics unless `1 ≤ n_subflows ≤ 256`.
    pub fn server(cfg: EndpointConfig, n_subflows: usize, key: u64) -> Self {
        Self::new(cfg, Role::Server, n_subflows, key)
    }

    fn new(cfg: EndpointConfig, role: Role, n_subflows: usize, key: u64) -> Self {
        assert!(n_subflows >= 1, "need at least one subflow");
        assert!(n_subflows <= 256, "{n_subflows} subflows: an address id names 256");
        assert!(cfg.mss > 0 && cfg.send_buf >= cfg.mss && cfg.recv_buf >= cfg.mss);
        let cc = cfg.algorithm.build_cc(n_subflows);
        Self {
            cfg,
            role,
            key,
            mp_enabled: None,
            subs: (0..n_subflows).map(|_| Subflow::new(&cfg)).collect(),
            cc,
            send_buf: VecDeque::new(),
            snd_data_base: 0,
            snd_data_next: 0,
            data_acked: 0,
            reinject_queue: VecDeque::new(),
            fin_queued: false,
            fin_seq: None,
            reinjected: std::collections::BTreeSet::new(),
            rcv_data_next: 0,
            recv_ooo: BTreeMap::new(),
            pending_out: Vec::new(),
            usable: Vec::new(),
            snap_buf: Vec::new(),
            recv_app: VecDeque::new(),
            recv_attribution: VecDeque::new(),
            peer_fin: None,
            persist_deadline: None,
            persist_probes: 0,
            path: PathManager::new(n_subflows),
            failover: Failover::default(),
            subflows_joined: 0,
            subflows_closed: 0,
            wake_at: 0,
            total_received: 0,
        }
    }

    /// Poll next tick: the caller changed state `next_deadline` was
    /// computed from.
    fn wake(&mut self) {
        self.wake_at = 0;
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Queue application data; returns how many bytes were accepted
    /// (bounded by send-buffer space). Data is retained until the peer's
    /// data-level cumulative ACK covers it.
    #[inline]
    pub fn write(&mut self, data: &[u8]) -> usize {
        assert!(!self.fin_queued, "write after close");
        if self.send_buf.len() >= self.cfg.send_buf {
            return 0; // send buffer full
        }
        self.write_buffered(data)
    }

    #[inline(never)]
    fn write_buffered(&mut self, data: &[u8]) -> usize {
        let space = self.cfg.send_buf.saturating_sub(self.send_buf.len());
        let n = space.min(data.len());
        if n > 0 {
            self.wake();
        }
        self.send_buf.extend(&data[..n]);
        n
    }

    /// Signal end of stream once all queued data has been sent.
    pub fn close(&mut self) {
        self.wake();
        self.fin_queued = true;
    }

    /// Read in-order received data into `buf`; returns bytes read.
    #[inline]
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        if self.recv_app.is_empty() {
            return 0; // nothing in order
        }
        self.read_buffered(buf)
    }

    #[inline(never)]
    fn read_buffered(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.recv_app.len());
        if n == 0 {
            return 0;
        }
        self.wake();
        // Window update: if reading reopened a window that had closed below
        // one MSS, tell the peer — otherwise a sender blocked on a zero
        // window would deadlock (TCP's window-update rule).
        let mss = self.cfg.mss as u32;
        let reopened = |before: u32, after: u32| before < mss && after >= mss;
        let per_subflow = self.cfg.recv_mode == RecvBufferMode::PerSubflow;
        // `Shared` advertises one window on every subflow.
        let shared_before = self.advertised_window(0);
        let (head, tail) = ring_halves(&self.recv_app, 0, n);
        buf[..head.len()].copy_from_slice(head);
        buf[head.len()..n].copy_from_slice(tail);
        self.recv_app.drain(..n);
        // Release attribution FIFO (PerSubflow accounting). A subflow's
        // window only grows here, so it crosses one MSS in at most one step.
        let mut remaining = n;
        while remaining > 0 {
            let Some((sub, len)) = self.recv_attribution.front_mut() else { break };
            let (sub, take) = (*sub, remaining.min(*len));
            *len -= take;
            if *len == 0 {
                self.recv_attribution.pop_front();
            }
            remaining -= take;
            let before = self.advertised_window(sub);
            self.subs[sub].held_bytes -= take;
            if per_subflow
                && self.subs[sub].established
                && reopened(before, self.advertised_window(sub))
            {
                self.subs[sub].ack_pending = true;
            }
        }
        if !per_subflow && reopened(shared_before, self.advertised_window(0)) {
            for s in self.subs.iter_mut().filter(|s| s.established) {
                s.ack_pending = true;
            }
        }
        n
    }

    /// Whether the peer closed and every byte has been read.
    pub fn at_eof(&self) -> bool {
        self.peer_fin.is_some_and(|f| self.rcv_data_next > f) && self.recv_app.is_empty()
    }

    /// Whether everything written (and the FIN, if closed) has been
    /// data-acknowledged by the peer. The FIN occupies one data sequence
    /// number, so "acknowledged" is observable.
    pub fn send_complete(&self) -> bool {
        let data_done = self.send_buf.is_empty() && self.snd_data_next == self.snd_data_base;
        let fin_done =
            !self.fin_queued || self.fin_seq.is_some_and(|f| self.data_acked > f);
        data_done && fin_done
    }

    /// Whether the connection fell back to regular TCP (options stripped).
    pub fn is_fallback(&self) -> bool {
        self.mp_enabled == Some(false)
    }

    /// Whether subflow `i` completed its handshake.
    pub fn subflow_established(&self, i: usize) -> bool {
        self.subs[i].established
    }

    /// Data-level cumulative ACK received from the peer.
    pub fn peer_data_acked(&self) -> u64 {
        self.data_acked
    }

    /// Retransmission counters per subflow (diagnostics).
    pub fn subflow_retransmits(&self, i: usize) -> (u64, u64) {
        (self.subs[i].retransmits, self.subs[i].timeouts)
    }

    // ------------------------------------------------------------------
    // Path management (the `ip mptcp` endpoint surface)
    // ------------------------------------------------------------------

    /// Whether data is currently carried by backup subflows (the failover
    /// state of the graceful-degradation machine).
    pub fn backup_active(&self) -> bool {
        self.failover.backup_active()
    }

    /// Mark subflow `sub` as backup priority before it joins: its `MP_JOIN`
    /// will carry the backup bit and it will carry no data while any
    /// non-backup subflow is healthy.
    pub fn set_backup(&mut self, sub: usize, backup: bool) {
        self.wake();
        self.subs[sub].backup = backup;
    }

    /// Stop subflow `sub` from joining automatically; it joins only when
    /// the peer advertises the address or [`Endpoint::join_subflow`] is
    /// called.
    pub fn defer_join(&mut self, sub: usize) {
        assert!(sub > 0, "the initial subflow cannot be deferred");
        self.wake();
        self.subs[sub].want_join = false;
    }

    /// Client-side: initiate (or re-initiate) a join on subflow `sub` at
    /// the given priority.
    pub fn join_subflow(&mut self, sub: usize, backup: bool) {
        assert!(sub > 0 && sub < self.subs.len(), "unknown subflow {sub}");
        self.wake();
        let s = &mut self.subs[sub];
        s.closed = false;
        s.want_join = true;
        s.backup = backup;
        s.syn_sent = false; // SYN promptly on the next poll
    }

    /// Advertise local address `addr_id` to the peer via `ADD_ADDR`
    /// (retransmitted until echoed). The peer joins it at the given
    /// priority, subject to its subflow limit.
    pub fn advertise_addr(&mut self, addr_id: u8, backup: bool) {
        self.wake();
        self.path.advertise(addr_id, backup);
    }

    /// Withdraw address `addr_id`: tear the local subflow down (stranded
    /// in-flight data is reinjected exactly once) and signal `REMOVE_ADDR`
    /// so the peer tears its side down too.
    pub fn withdraw_addr(&mut self, addr_id: u8) {
        self.wake();
        self.path.withdraw(addr_id);
        self.teardown_subflow(addr_id as usize);
    }

    /// Tear down subflow `sub` and notify the peer (equivalent to
    /// [`Endpoint::withdraw_addr`] with the subflow's address id).
    pub fn close_subflow(&mut self, sub: usize) {
        assert!(sub < self.subs.len(), "unknown subflow {sub}");
        // Below 256: `new` admits no more subflows than one byte names.
        self.withdraw_addr(sub as u8); // wakes the endpoint
    }

    /// Graceful teardown: strand this subflow's unacknowledged in-flight
    /// data into the reinjection queue (each data range requeued at most
    /// once per teardown; the receiver's data-level reassembly discards
    /// any copy that still arrives twice), silence its timers, and mark it
    /// closed. The subflow sequence space is *not* rolled back: a later
    /// rejoin resumes at `snd_next`, carried as the SYN's sequence number,
    /// and the peer jumps its receive cursor forward — so segments from
    /// the old incarnation can never alias new data.
    fn teardown_subflow(&mut self, sub: usize) {
        if sub == 0 || sub >= self.subs.len() {
            return; // the initial subflow carries the connection
        }
        if self.subs[sub].closed {
            return; // idempotent (duplicate REMOVE_ADDR)
        }
        let was_established = self.subs[sub].established;
        let s = &mut self.subs[sub];
        let stranded: Vec<SentSeg> = s.inflight.drain(..).collect();
        s.snd_una = s.snd_next;
        s.established = false;
        s.syn_sent = false;
        s.want_join = false;
        s.closed = true;
        s.rto_deadline = None;
        s.timer = fresh_timer(&self.cfg);
        s.dup_acks = 0;
        s.in_recovery = false;
        s.ack_pending = false;
        s.cwnd_bytes = INITIAL_CWND * self.cfg.mss as f64;
        s.ssthresh_bytes = f64::INFINITY;
        if was_established {
            self.subflows_closed += 1;
        }
        if self.mp_enabled == Some(true) {
            for h in stranded {
                let len = (h.payload.len() as u64).max(1);
                if h.data_seq + len <= self.data_acked {
                    continue; // already data-acked: nothing to save
                }
                if self.reinject_queue.iter().any(|(d, _, _)| *d == h.data_seq) {
                    continue; // already queued once
                }
                self.reinjected.insert(h.data_seq);
                self.reinject_queue.push_back((h.data_seq, h.payload, h.is_fin));
            }
        }
    }

    /// A diagnostic snapshot of the connection.
    pub fn stats(&self) -> EndpointStats {
        EndpointStats {
            mp_enabled: self.mp_enabled,
            data_sent: self.snd_data_next,
            data_acked: self.data_acked,
            data_received: self.total_received,
            send_buffered: self.send_buf.len(),
            recv_buffered: self.recv_app.len(),
            recv_out_of_order: self.recv_ooo.values().map(|(_, v)| v.len()).sum(),
            reinjections_queued: self.reinject_queue.len(),
            reinjections_total: self.reinjected.len(),
            persist_probes: self.persist_probes,
            backup_activations: self.failover.activations(),
            addr_advertised: self.path.addr_advertised(),
            subflows_joined: self.subflows_joined,
            subflows_closed: self.subflows_closed,
            failover_latency_us: self.failover.latency(),
            subflows: self
                .subs
                .iter()
                .map(|s| SubflowStats {
                    established: s.established,
                    cwnd_bytes: s.cwnd_bytes,
                    srtt_us: s.timer.srtt().map(|secs| secs * 1e6),
                    bytes_in_flight: s.bytes_in_flight(),
                    retransmits: s.retransmits,
                    timeouts: s.timeouts,
                    potentially_failed: s.timer.potentially_failed(),
                    backup: s.backup,
                    closed: s.closed,
                    data_bytes_sent: s.data_bytes_sent,
                })
                .collect(),
        }
    }

    // ------------------------------------------------------------------
    // Receive-buffer accounting
    // ------------------------------------------------------------------

    /// Advertised window for segments sent on subflow `sub`.
    ///
    /// * `Shared` (the paper's design): capacity minus in-order unread
    ///   bytes, measured **from the data-level cumulative ACK**. Data held
    ///   out of order lives *inside* this allowance, so a retransmission of
    ///   the missing data at the cumulative point is always admissible —
    ///   this is exactly what makes the design deadlock-free (§6).
    /// * `PerSubflow` (the rejected design): capacity minus the bytes this
    ///   subflow has delivered that the application has not read, measured
    ///   from the *subflow* ACK. A stalled sibling subflow lets this
    ///   allowance fill up with data beyond the stream hole, wedging the
    ///   connection.
    ///
    /// The window field is 32 bits wide: a buffer of 4 GiB or more
    /// advertises `u32::MAX` until it fills below that.
    fn advertised_window(&self, sub: usize) -> u32 {
        let held = match self.cfg.recv_mode {
            RecvBufferMode::Shared => self.recv_app.len(),
            RecvBufferMode::PerSubflow => self.subs[sub].held_bytes,
        };
        u32::try_from(self.cfg.recv_buf.saturating_sub(held)).unwrap_or(u32::MAX)
    }

    /// Whether an arriving payload is within the window this receiver has
    /// advertised (a segment beyond it is dropped as the network would drop
    /// it; the admission rule is the crux of the §6 deadlock argument).
    fn admissible(&self, sub: usize, seg: &Segment, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        match self.cfg.recv_mode {
            RecvBufferMode::Shared => {
                let Some((Some(dseq), _)) = seg.dss() else {
                    // Fallback mode: the subflow stream is the data stream.
                    let end = seg.subflow_seq as u64 + len as u64;
                    return end
                        <= self.rcv_data_next + self.advertised_window(sub) as u64;
                };
                dseq + (len as u64)
                    <= self.rcv_data_next + self.advertised_window(sub) as u64
            }
            RecvBufferMode::PerSubflow => {
                let end = seg.subflow_seq.wrapping_add(len as u32);
                end as u64
                    <= self.subs[sub].rcv_next as u64 + self.advertised_window(sub) as u64
            }
        }
    }

    // ------------------------------------------------------------------
    // Segment ingestion
    // ------------------------------------------------------------------

    /// Process a segment arriving on subflow `sub` at time `now`.
    pub fn on_segment(&mut self, now: Micros, sub: usize, mut seg: Segment) {
        assert!(sub < self.subs.len(), "unknown subflow {sub}");
        self.wake();
        if seg.flags.syn {
            self.on_syn(sub, &seg);
            // SYN segments may still carry an ACK (SYN-ACK) but no data.
            if seg.flags.ack {
                self.on_subflow_ack(now, sub, &seg);
            }
            return;
        }
        if !self.subs[sub].established {
            return; // segment on a dead subflow
        }
        if seg.flags.ack {
            self.on_subflow_ack(now, sub, &seg);
        }
        if let Some((_, Some(dack))) = seg.dss() {
            self.on_data_ack(dack);
        }
        // Path-manager options (only meaningful with MPTCP in use; in
        // fallback mode a stray advertisement is ignored, keeping the
        // connection a plain TCP stream).
        if self.mp_enabled == Some(true) {
            for i in 0..seg.options.len() {
                let opt = seg.options[i];
                self.on_path_option(&opt);
            }
        }
        if !seg.payload.is_empty() || seg.flags.fin {
            self.on_data(sub, &mut seg);
        }
    }

    /// Act on one received `ADD_ADDR`/`REMOVE_ADDR` (other options are
    /// ignored by the path manager).
    fn on_path_option(&mut self, opt: &MptcpOption) {
        let Some(ev) = self.path.on_option(opt) else { return };
        match ev {
            PathEvent::Join { addr_id, backup } => {
                let i = addr_id as usize;
                // Joins are client-initiated in this model; the server just
                // echoes the advertisement.
                if !matches!(self.role, Role::Client) || i == 0 || i >= self.subs.len() {
                    return;
                }
                if self.subs[i].established {
                    self.subs[i].backup = backup; // priority update only
                    return;
                }
                let live = self
                    .subs
                    .iter()
                    .filter(|s| !s.closed && (s.established || s.want_join))
                    .count();
                let already_joining = self.subs[i].want_join && !self.subs[i].closed;
                if !already_joining && live >= self.path.subflow_limit() {
                    return; // at the per-connection subflow limit
                }
                self.join_subflow(i, backup);
            }
            PathEvent::Close { addr_id } => {
                self.teardown_subflow(addr_id as usize);
            }
        }
    }

    fn on_syn(&mut self, sub: usize, seg: &Segment) {
        let capable = seg
            .options
            .iter()
            .any(|o| matches!(o, MptcpOption::MpCapable { .. }));
        let join = seg.options.iter().find_map(|o| {
            if let MptcpOption::MpJoin { token, backup } = o {
                Some((*token, *backup))
            } else {
                None
            }
        });
        match self.role {
            Role::Server => {
                if sub == 0 && !seg.flags.ack {
                    // First-subflow SYN: capability negotiation.
                    self.mp_enabled = Some(capable);
                    let s = &mut self.subs[0];
                    s.resume_receive_at(seg.subflow_seq);
                    s.established = true;
                    s.ack_pending = true; // triggers SYN-ACK in poll
                    s.syn_sent = false; // we owe a SYN-ACK
                } else if !seg.flags.ack {
                    // Additional-subflow SYN: must join with the right token
                    // and multipath must be enabled.
                    if self.mp_enabled == Some(true) && join.map(|(t, _)| t) == Some(self.key) {
                        let was_established = self.subs[sub].established;
                        let live = self.subs.iter().filter(|s| s.established).count();
                        if !was_established && live >= self.path.subflow_limit() {
                            return; // at the per-connection subflow limit
                        }
                        let s = &mut self.subs[sub];
                        if !was_established {
                            s.resume_receive_at(seg.subflow_seq);
                        }
                        s.closed = false;
                        s.backup = join.map(|(_, b)| b).unwrap_or(false);
                        s.established = true;
                        s.ack_pending = true;
                        // A duplicate join SYN means our SYN-ACK was lost:
                        // emit another.
                        s.syn_sent = false;
                        if !was_established {
                            self.subflows_joined += 1;
                        }
                    }
                    // else: silently ignore (subflow never establishes).
                }
            }
            Role::Client => {
                if seg.flags.ack && self.subs[sub].syn_sent && !self.subs[sub].established {
                    // SYN-ACK.
                    if sub == 0 {
                        self.mp_enabled = Some(capable);
                    }
                    if sub == 0 || capable || join.is_some() {
                        let s = &mut self.subs[sub];
                        s.resume_receive_at(seg.subflow_seq);
                        s.established = true;
                        if sub > 0 {
                            self.subflows_joined += 1;
                        }
                    }
                }
            }
        }
    }

    fn on_subflow_ack(&mut self, now: Micros, sub: usize, seg: &Segment) {
        let s = &mut self.subs[sub];
        let ack = seg.subflow_ack;
        if ack > s.snd_next {
            return; // acknowledges bytes never sent (RFC 9293 §3.10.7.4)
        }
        s.peer_window = seg.window;
        if ack > s.snd_una {
            // Cumulative advance: RTT sample (Karn) from the newest fully
            // acked segment, drop acked segments, exit/continue recovery.
            let mut sample: Option<f64> = None;
            while let Some(front) = s.inflight.front() {
                let end = front.sub_seq.wrapping_add(front.seq_len());
                if end <= ack {
                    if !front.retransmitted {
                        sample = Some((now - front.sent_at) as f64);
                    }
                    s.inflight.pop_front();
                } else {
                    break;
                }
            }
            let newly = ack.wrapping_sub(s.snd_una);
            s.snd_una = ack;
            s.dup_acks = 0;
            s.timer.on_progress();
            match sample {
                Some(us) => s.timer.on_sample(us / 1e6),
                // Cumulative progress collapses exponential RTO backoff even
                // when Karn's rule yields no sample (RFC 6298 §5.7).
                None => s.timer.collapse_backoff(),
            }
            let retransmit_head = if s.in_recovery {
                if s.snd_una >= s.recovery_point {
                    s.in_recovery = false;
                    false
                } else {
                    true // NewReno partial ACK
                }
            } else {
                false
            };
            // Window growth (not during recovery).
            if !s.in_recovery {
                let mss = self.cfg.mss as f64;
                let acked_pkts = newly as f64 / mss;
                match &mut self.cc {
                    CcDriver::Pure(cc) => {
                        let s = &mut self.subs[sub];
                        if s.cwnd_bytes < s.ssthresh_bytes {
                            s.cwnd_bytes += newly as f64; // slow start
                        } else {
                            refresh_snapshots(&mut self.snap_buf, &self.subs, mss);
                            let inc_pkts = cc.increase_per_ack(sub, &self.snap_buf);
                            self.subs[sub].cwnd_bytes += inc_pkts * acked_pkts * mss;
                        }
                    }
                    CcDriver::Stateful(cc) => {
                        // The stateful contract is per-ACKed-*packet*, so a
                        // cumulative advance of N·mss bytes is fed through
                        // `on_ack` in up-to-one-packet steps, each with a
                        // fresh snapshot (the hooks fire in slow start too:
                        // base-RTT filters and hybrid slow start watch
                        // every ACK).
                        let floor_bytes = cc.min_window() * mss;
                        let now_s = now as f64 / 1e6;
                        let mut remaining = acked_pkts;
                        while remaining > 0.0 {
                            let step = remaining.min(1.0);
                            refresh_snapshots(&mut self.snap_buf, &self.subs, mss);
                            let s = &mut self.subs[sub];
                            let in_ss = s.cwnd_bytes < s.ssthresh_bytes;
                            let act = cc.on_ack(sub, &self.snap_buf, now_s, in_ss);
                            s.cwnd_bytes += act.grow * step * mss;
                            if act.grow < 0.0 && s.cwnd_bytes < floor_bytes {
                                // Delay-based shrinks must not dig below
                                // the probing floor.
                                s.cwnd_bytes = floor_bytes;
                            }
                            if act.exit_slow_start && in_ss {
                                // Hybrid/Vegas slow-start exit: pin
                                // ssthresh to the current window.
                                s.ssthresh_bytes = s.cwnd_bytes.max(2.0 * mss);
                            }
                            remaining -= step;
                        }
                    }
                }
            }
            let s = &mut self.subs[sub];
            s.rto_deadline =
                if s.inflight.is_empty() { None } else { Some(now + s.rto_us()) };
            if retransmit_head {
                self.retransmit_first_unacked(now, sub);
            }
            // In fallback mode the subflow stream *is* the data stream, so
            // the subflow cumulative ACK doubles as the data ACK.
            if self.is_fallback() && sub == 0 {
                self.on_data_ack(ack as u64);
            }
            if !self.subs[sub].backup {
                self.failover.on_primary_progress();
            }
        } else if ack == s.snd_una
            && seg.payload.is_empty()
            && !s.inflight.is_empty()
        {
            s.dup_acks += 1;
            if s.dup_acks == 3 && !s.in_recovery {
                // Fast retransmit + coupled multiplicative decrease (the
                // loss-epoch hook for stateful controllers).
                let mss = self.cfg.mss as f64;
                let new_pkts = self.window_after_loss(now, sub);
                let s = &mut self.subs[sub];
                s.in_recovery = true;
                s.recovery_point = s.snd_next;
                s.cwnd_bytes = new_pkts * mss;
                s.ssthresh_bytes = s.cwnd_bytes.max(2.0 * mss);
                self.retransmit_first_unacked(now, sub);
            }
        }
    }

    fn on_data_ack(&mut self, dack: u64) {
        // The FIN occupies one data sequence number once it is mapped.
        if dack > self.snd_data_next + u64::from(self.fin_seq.is_some()) {
            return; // acknowledges data never sent (RFC 8684 §3.3.2)
        }
        if dack > self.data_acked {
            self.data_acked = dack;
        }
        // Release send-buffer bytes the peer has at the data level.
        let acked = (self.data_acked - self.snd_data_base).min(self.send_buf.len() as u64);
        self.send_buf.drain(..acked as usize);
        self.snd_data_base += acked;
        // Drop reinjections that are no longer needed (a FIN occupies one
        // data sequence number).
        self.reinject_queue
            .retain(|(seq, data, _)| seq + (data.len() as u64).max(1) > self.data_acked);
    }

    fn on_data(&mut self, sub: usize, seg: &mut Segment) {
        let len = seg.payload.len();
        // Buffer admission control: a receiver out of window drops the
        // payload as if the network had lost it — but it still owes the
        // peer an ACK carrying the current window (RFC 9293 §3.10.7.4:
        // an unacceptable segment elicits an ACK). Without this, a
        // zero-window probe could never learn that the window reopened.
        if !self.admissible(sub, seg, len) {
            self.subs[sub].ack_pending = true;
            return;
        }
        // Subflow-level bookkeeping → drives the peer's loss detection.
        // A FIN consumes one subflow sequence number, like real TCP.
        let sub_len = len as u32 + u32::from(seg.flags.fin);
        self.subs[sub].receive_range(seg.subflow_seq, sub_len);
        self.subs[sub].ack_pending = true;

        // Data-level reassembly.
        if let Some((Some(dseq), _)) = seg.dss() {
            if len > 0 {
                self.insert_data(sub, dseq, &mut seg.payload);
            }
            if seg.flags.fin {
                let fin_seq = dseq + len as u64;
                self.peer_fin = Some(self.peer_fin.map_or(fin_seq, |f| f.max(fin_seq)));
            }
        } else if self.is_fallback() && sub == 0 {
            // Fallback: the subflow stream *is* the data stream.
            if len > 0 {
                self.insert_data(sub, seg.subflow_seq as u64, &mut seg.payload);
            }
            if seg.flags.fin {
                self.peer_fin = Some(seg.subflow_seq as u64 + len as u64);
            }
        }
        // The FIN occupies one data sequence number: consume it once all
        // preceding data has been delivered, so the data ACK covers it.
        if self.peer_fin == Some(self.rcv_data_next) {
            self.rcv_data_next += 1;
        }
    }

    /// File an arriving, non-empty payload: copy what is in order into the
    /// receive ring, or keep an out-of-order payload's own buffer (taken
    /// from `payload`) until the gap before it fills.
    fn insert_data(&mut self, sub: usize, dseq: u64, payload: &mut Vec<u8>) {
        let end = dseq + payload.len() as u64;
        if end <= self.rcv_data_next {
            return; // stale duplicate (e.g. a reinjected copy)
        }
        // Clip any prefix we already have.
        let skip = self.rcv_data_next.saturating_sub(dseq) as usize;
        let dseq = dseq + skip as u64;
        if dseq == self.rcv_data_next {
            let payload = &payload[skip..];
            self.recv_app.extend(payload);
            self.recv_attribution.push_back((sub, payload.len()));
            self.subs[sub].held_bytes += payload.len();
            self.rcv_data_next += payload.len() as u64;
            self.total_received += payload.len() as u64;
            // Drain contiguous out-of-order data. Its buffer charge was
            // taken at insert time; only the attribution FIFO entry and the
            // cumulative counters move here.
            while let Some((&s, _)) = self.recv_ooo.iter().next() {
                if s > self.rcv_data_next {
                    break;
                }
                let (s, (src, v)) = self.recv_ooo.pop_first().expect("peeked");
                let skip = (self.rcv_data_next - s) as usize;
                if skip < v.len() {
                    let rest = &v[skip..];
                    self.recv_app.extend(rest);
                    self.recv_attribution.push_back((src, rest.len()));
                    self.rcv_data_next += rest.len() as u64;
                    self.total_received += rest.len() as u64;
                    // The charge for the skipped (duplicate) prefix is
                    // released now.
                    self.subs[src].held_bytes -= skip;
                } else {
                    self.subs[src].held_bytes -= v.len();
                }
            }
        } else if let std::collections::btree_map::Entry::Vacant(e) = self.recv_ooo.entry(dseq) {
            // Out-of-order bytes occupy the buffer from arrival; charge the
            // arrival subflow now and release when drained or read. Past a
            // gap nothing is clipped, so the payload keeps its buffer.
            self.subs[sub].held_bytes += payload.len();
            e.insert((sub, std::mem::take(payload)));
        }
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Collect segments to transmit at time `now`. Also fires due
    /// retransmission timers.
    ///
    /// An idle endpoint does no work: until the [`Endpoint::next_deadline`]
    /// the last full poll left, this returns an empty (unallocated) `Vec`.
    /// A call that can create work wakes it for the next poll:
    /// [`Endpoint::on_segment`], [`Endpoint::close`], a `write` that
    /// accepts bytes, a `read` that returns some, and the path-manager
    /// calls.
    #[inline]
    pub fn poll(&mut self, now: Micros) -> Vec<(usize, Segment)> {
        if now < self.wake_at {
            return Vec::new();
        }
        self.poll_all(now)
    }

    /// Every pass of [`Endpoint::poll`], then the time it next has work.
    #[inline(never)]
    fn poll_all(&mut self, now: Micros) -> Vec<(usize, Segment)> {
        let mut out: Vec<(usize, Segment)> = Vec::new();
        self.poll_handshake(now, &mut out);
        self.poll_path(now, &mut out);
        self.poll_timers(now, &mut out);
        self.poll_data(now, &mut out);
        self.poll_persist(now, &mut out);
        self.poll_acks(&mut out);
        self.wake_at = self.next_deadline().unwrap_or(Micros::MAX);
        out
    }

    /// Retransmission interval for SYN / SYN-ACK segments.
    const SYN_RTO: Micros = 500_000;

    /// The earliest time at which [`Endpoint::poll`] has something to do
    /// that no arriving segment or application call will prompt (for
    /// event-driven harnesses): a queued retransmission or owed ACK, a SYN
    /// or advertisement (re)transmission, a retransmission or persist
    /// timer. A value at or before the caller's clock (0 included) means
    /// "poll now"; `None` means only a call on the endpoint
    /// ([`Endpoint::on_segment`], [`Endpoint::write`], …) can create work.
    ///
    /// `poll` itself sleeps until this time, so it must be complete: a
    /// timer missing here would fire late or never. The lazy-versus-full
    /// differential in this file's tests holds it to that.
    pub fn next_deadline(&self) -> Option<Micros> {
        let owed = self.subs.iter().any(|s| s.established && s.ack_pending);
        if owed || !self.pending_out.is_empty() {
            return Some(0);
        }
        let syns = (0..self.subs.len()).filter_map(|i| self.syn_due_at(i));
        let adverts = self.path_carrier().and_then(|_| self.path.next_deadline());
        self.subs
            .iter()
            .filter_map(|s| s.rto_deadline)
            .chain(self.persist_deadline)
            .chain(syns)
            .chain(adverts)
            .min()
    }

    /// When `poll_handshake` owes subflow `i` its next SYN (client: first
    /// transmission at once, then every `SYN_RTO` until answered — a lost
    /// handshake segment must not wedge the subflow) or SYN-ACK (server).
    fn syn_due_at(&self, i: usize) -> Option<Micros> {
        let s = &self.subs[i];
        let due = match self.role {
            // Joins wait until multipath is confirmed.
            Role::Client => {
                !s.established
                    && (i == 0 || (self.mp_enabled == Some(true) && s.want_join && !s.closed))
            }
            Role::Server => s.established && !s.syn_sent,
        };
        due.then(|| if s.syn_sent { s.syn_sent_at + Self::SYN_RTO } else { 0 })
    }

    /// The subflow that carries due path-manager signaling: the first open
    /// one, once multipath is confirmed and something is pending.
    fn path_carrier(&self) -> Option<usize> {
        if self.mp_enabled != Some(true) || !self.path.has_pending() {
            return None;
        }
        self.subs.iter().position(|s| s.established && !s.closed)
    }

    /// Zero-window persist timer. After `poll_data`, if the connection
    /// still has work queued but *nothing in flight on any subflow*, no ACK
    /// will ever arrive: the peer's window-reopening update is a pure ACK
    /// and pure ACKs are not retransmitted, so its loss would wedge the
    /// connection forever. Arm a timer; when it fires, force one byte of
    /// data out past the flow-control limit. The probe either gets accepted
    /// (the window really had reopened) or is dropped by the receiver's
    /// admission control — which still elicits an ACK carrying the current
    /// window. Either way the probe sits in `inflight`, so the ordinary RTO
    /// machinery provides the exponential persist backoff for free.
    fn poll_persist(&mut self, now: Micros, out: &mut Vec<(usize, Segment)>) {
        if self.mp_enabled.is_none() {
            return; // handshake unresolved; SYN timers own liveness
        }
        let unsent = (self.snd_data_base + self.send_buf.len() as u64)
            .saturating_sub(self.snd_data_next);
        let work = unsent > 0 || !self.reinject_queue.is_empty();
        let idle = self.subs.iter().all(|s| s.inflight.is_empty());
        // Probe on a healthy primary when one exists; fall back to any
        // established subflow (a lone backup is better than deadlock).
        let Some(sub) = self
            .subs
            .iter()
            .position(|s| s.established && !s.closed && !s.backup)
            .or_else(|| self.subs.iter().position(|s| s.established && !s.closed))
        else {
            return;
        };
        if !(work && idle) {
            self.persist_deadline = None;
            return;
        }
        match self.persist_deadline {
            None => self.persist_deadline = Some(now + self.subs[sub].rto_us()),
            Some(d) if d <= now => {
                self.persist_deadline = None;
                self.persist_probes += 1;
                if unsent > 0 {
                    let off = (self.snd_data_next - self.snd_data_base) as usize;
                    let byte = self.send_buf[off];
                    let dseq = self.snd_data_next;
                    self.snd_data_next += 1;
                    self.transmit_mapped(now, sub, dseq, vec![byte], false, out);
                } else if let Some((dseq, data, is_fin)) = self.reinject_queue.pop_front() {
                    // A stranded reinjection with nothing in flight is the
                    // same trap: force it out on the probe subflow.
                    self.transmit_mapped(now, sub, dseq, data, is_fin, out);
                }
            }
            Some(_) => {}
        }
    }

    fn poll_handshake(&mut self, now: Micros, out: &mut Vec<(usize, Segment)>) {
        let due = |ep: &Self, i: usize| ep.syn_due_at(i).is_some_and(|t| t <= now);
        match self.role {
            Role::Client => {
                // Subflow 0 negotiates capability; the others join once
                // multipath is confirmed. A SYN carries the subflow's
                // `snd_next` as its ISN, so a rejoin after teardown cannot
                // alias the old incarnation (subflow 0 sends nothing
                // before it is established: its ISN is 0).
                for i in 0..self.subs.len() {
                    if !due(self, i) {
                        continue;
                    }
                    let s = &mut self.subs[i];
                    s.syn_sent = true;
                    s.syn_sent_at = now;
                    let option = if i == 0 {
                        MptcpOption::MpCapable { key: self.key }
                    } else {
                        MptcpOption::MpJoin { token: self.key, backup: s.backup }
                    };
                    out.push((
                        i,
                        Segment {
                            flags: SegFlags { syn: true, ..Default::default() },
                            subflow_seq: s.snd_next,
                            options: vec![option],
                            window: self.advertised_window(i),
                            ..Segment::new()
                        },
                    ));
                }
            }
            Role::Server => {
                // SYN-ACK replies are produced in poll_acks (ack_pending on
                // a just-established subflow that hasn't SYN-ACKed yet).
                for i in 0..self.subs.len() {
                    if due(self, i) {
                        self.subs[i].syn_sent = true;
                        self.subs[i].syn_sent_at = now;
                        let mut options = Vec::new();
                        if self.mp_enabled == Some(true) {
                            options.push(if i == 0 {
                                MptcpOption::MpCapable { key: self.key }
                            } else {
                                MptcpOption::MpJoin {
                                    token: self.key,
                                    backup: self.subs[i].backup,
                                }
                            });
                        }
                        out.push((
                            i,
                            Segment {
                                flags: SegFlags { syn: true, ack: true, fin: false },
                                subflow_seq: self.subs[i].snd_next,
                                subflow_ack: self.subs[i].rcv_next,
                                options,
                                window: self.advertised_window(i),
                                ..Segment::new()
                            },
                        ));
                        self.subs[i].ack_pending = false;
                    }
                }
            }
        }
    }

    /// Emit due path-manager signaling: owed `ADD_ADDR`/`REMOVE_ADDR`
    /// echoes plus unacknowledged advertisements (first transmission or
    /// [`crate::path::ADVERT_RTO`] retransmit), carried on a pure ACK on
    /// the first open subflow.
    fn poll_path(&mut self, now: Micros, out: &mut Vec<(usize, Segment)>) {
        let Some(sub) = self.path_carrier() else {
            return; // nothing pending, or no carrier yet: advertisements stay queued
        };
        let mut options = self.path.due_options(now);
        if options.is_empty() {
            return;
        }
        self.subs[sub].ack_pending = false; // this segment is itself an ACK
        let mut seg = self.segment(sub, self.subs[sub].snd_next, None, false, Vec::new());
        options.append(&mut seg.options);
        seg.options = options;
        out.push((sub, seg));
    }

    fn poll_timers(&mut self, now: Micros, out: &mut Vec<(usize, Segment)>) {
        for sub in 0..self.subs.len() {
            let due = self.subs[sub]
                .rto_deadline
                .is_some_and(|d| d <= now);
            if !due {
                continue;
            }
            let s = &mut self.subs[sub];
            if s.inflight.is_empty() {
                s.rto_deadline = None;
                continue;
            }
            s.timeouts += 1;
            s.timer.on_timeout();
            s.rto_deadline = Some(now + s.rto_us());
            if !s.backup {
                self.failover.on_primary_timeout(now);
            }
            // Collapse to one MSS, slow-start back (standard RTO response).
            // The threshold level is the controller's loss rule — for
            // stateful controllers also their loss-epoch hook (CUBIC's
            // w_max, OLIA's counters must see RTO losses too).
            let mss = self.cfg.mss as f64;
            let level_pkts = self.window_after_loss(now, sub);
            let s = &mut self.subs[sub];
            s.ssthresh_bytes = (level_pkts * mss).max(2.0 * mss);
            s.cwnd_bytes = mss;
            s.in_recovery = false;
            s.dup_acks = 0;
            for seg in &mut s.inflight {
                seg.retransmitted = true; // Karn
            }
            // Queue everything this subflow still holds for reinjection on
            // another subflow — a dead path must not stall the stream (§6).
            // Each data range is reinjected at most once; the receiver's
            // data-level reassembly discards whichever copy arrives second.
            // Only meaningful with MPTCP in use: in fallback mode there is
            // no DSS mapping, so a reinjected copy (with a fresh subflow
            // sequence number) would corrupt the stream.
            if self.mp_enabled == Some(true) && self.subs.len() > 1 {
                let pending: Vec<(u64, Vec<u8>, bool)> = self.subs[sub]
                    .inflight
                    .iter()
                    .filter(|h| {
                        h.data_seq + (h.payload.len() as u64).max(1) > self.data_acked
                            && !self.reinjected.contains(&h.data_seq)
                    })
                    .map(|h| (h.data_seq, h.payload.clone(), h.is_fin))
                    .collect();
                for (dseq, data, is_fin) in pending {
                    self.reinjected.insert(dseq);
                    self.reinject_queue.push_back((dseq, data, is_fin));
                }
            }
            self.retransmit_first_unacked_into(now, sub, out);
        }
    }

    /// Retransmit from ACK-processing context: buffered until the next
    /// `poll`, which keeps segment emission on a single channel.
    fn retransmit_first_unacked(&mut self, now: Micros, sub: usize) {
        let mut pending = std::mem::take(&mut self.pending_out);
        self.retransmit_first_unacked_into(now, sub, &mut pending);
        self.pending_out = pending;
    }

    fn retransmit_first_unacked_into(
        &mut self,
        now: Micros,
        sub: usize,
        out: &mut Vec<(usize, Segment)>,
    ) {
        let s = &mut self.subs[sub];
        let Some(h) = s.inflight.front_mut() else { return };
        h.sent_at = now;
        h.retransmitted = true;
        let (seq, dseq, fin, payload) = (h.sub_seq, h.data_seq, h.is_fin, h.payload.clone());
        s.retransmits += 1;
        out.push((sub, self.segment(sub, seq, Some(dseq), fin, payload)));
    }

    fn poll_data(&mut self, now: Micros, out: &mut Vec<(usize, Segment)>) {
        // Flush retransmissions queued from ACK processing first.
        out.append(&mut self.pending_out);
        if self.mp_enabled.is_none() {
            return; // handshake not finished
        }
        let mut usable = std::mem::take(&mut self.usable);
        usable.clear();
        if self.is_fallback() {
            usable.push(0);
        } else {
            // A subflow in repeated RTO backoff is "potentially failed":
            // it keeps probing via its own retransmissions, but gets no
            // new data mappings and no reinjections until it recovers.
            let healthy =
                |s: &Subflow| s.established && !s.closed && !s.timer.potentially_failed();
            let primary = self.subs.iter().any(|s| healthy(s) && !s.backup);
            let backup = self.subs.iter().any(|s| healthy(s) && s.backup);
            // Data stays on the primaries while one is usable and moves
            // onto the warm backups when none is.
            self.failover.update(now, primary, backup);
            let on_backups = !primary;
            usable.extend(
                (0..self.subs.len())
                    .filter(|&i| healthy(&self.subs[i]) && self.subs[i].backup == on_backups),
            );
        }
        if !usable.is_empty() {
            self.map_data(now, &usable, out);
        }
        self.usable = usable;
    }

    /// Map queued reinjections, new data and the FIN onto the `usable`
    /// subflows, as far as their windows allow.
    fn map_data(&mut self, now: Micros, usable: &[usize], out: &mut Vec<(usize, Segment)>) {
        // Reinjections take priority: send each on the least-loaded usable
        // subflow with window space.
        while let Some((dseq, data, is_fin)) = self.reinject_queue.pop_front() {
            let Some(&sub) = usable
                .iter()
                .find(|&&i| {
                    (self.subs[i].bytes_in_flight() as f64) + (data.len() as f64)
                        <= self.subs[i].cwnd_bytes
                })
            else {
                self.reinject_queue.push_front((dseq, data, is_fin));
                break;
            };
            self.transmit_mapped(now, sub, dseq, data, is_fin, out);
        }
        // New data, striped round-robin over subflows with window space.
        loop {
            let mut progressed = false;
            for &sub in usable {
                let mss = self.cfg.mss;
                let s = &self.subs[sub];
                let cwnd_space =
                    s.cwnd_bytes - s.bytes_in_flight() as f64 >= 1.0;
                // Peer flow control: in Shared mode the window is measured
                // from the peer's data-level cumulative ACK; in PerSubflow
                // mode from the subflow ACK.
                let fc_ok = match self.cfg.recv_mode {
                    RecvBufferMode::Shared => {
                        self.snd_data_next < self.data_acked + s.peer_window as u64
                    }
                    RecvBufferMode::PerSubflow => {
                        s.bytes_in_flight() < s.peer_window
                    }
                };
                let unsent = (self.snd_data_base + self.send_buf.len() as u64)
                    .saturating_sub(self.snd_data_next);
                if !cwnd_space || !fc_ok || unsent == 0 {
                    continue;
                }
                let fc_room = match self.cfg.recv_mode {
                    RecvBufferMode::Shared => {
                        (self.data_acked + s.peer_window as u64)
                            .saturating_sub(self.snd_data_next)
                    }
                    RecvBufferMode::PerSubflow => {
                        (s.peer_window - s.bytes_in_flight()) as u64
                    }
                };
                let len = (mss as u64).min(unsent).min(fc_room) as usize;
                if len == 0 {
                    continue;
                }
                let off = (self.snd_data_next - self.snd_data_base) as usize;
                let (head, tail) = ring_halves(&self.send_buf, off, len);
                let mut data = Vec::with_capacity(len);
                data.extend_from_slice(head);
                data.extend_from_slice(tail);
                let dseq = self.snd_data_next;
                self.snd_data_next += len as u64;
                self.transmit_mapped(now, sub, dseq, data, false, out);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        // FIN once everything is mapped. The FIN occupies one subflow
        // sequence number and is retransmitted by the normal RTO machinery
        // like any data segment, so its loss cannot wedge the teardown.
        let all_mapped =
            self.snd_data_next == self.snd_data_base + self.send_buf.len() as u64;
        if self.fin_queued && all_mapped && self.fin_seq.is_none() {
            let fin_seq = *self.fin_seq.get_or_insert(self.snd_data_next);
            self.transmit_mapped(now, usable[0], fin_seq, Vec::new(), true, out);
        }
    }

    /// Send `data` (or, with `is_fin`, the FIN) mapped at data sequence
    /// number `dseq` as fresh subflow sequence space on `sub`: kept in
    /// `inflight` for retransmission, with the RTO armed if it was idle.
    fn transmit_mapped(
        &mut self,
        now: Micros,
        sub: usize,
        dseq: u64,
        data: Vec<u8>,
        is_fin: bool,
        out: &mut Vec<(usize, Segment)>,
    ) {
        let s = &mut self.subs[sub];
        let seq = s.snd_next;
        let sent = SentSeg {
            sub_seq: seq,
            data_seq: dseq,
            payload: data.clone(),
            sent_at: now,
            retransmitted: false,
            is_fin,
        };
        s.snd_next = seq.wrapping_add(sent.seq_len());
        s.data_bytes_sent += data.len() as u64;
        s.inflight.push_back(sent);
        if s.rto_deadline.is_none() {
            s.rto_deadline = Some(now + s.rto_us());
        }
        out.push((sub, self.segment(sub, seq, Some(dseq), is_fin, data)));
    }

    fn poll_acks(&mut self, out: &mut Vec<(usize, Segment)>) {
        for sub in 0..self.subs.len() {
            let s = &mut self.subs[sub];
            if !s.established || !s.ack_pending {
                continue;
            }
            s.ack_pending = false;
            let seq = s.snd_next;
            out.push((sub, self.segment(sub, seq, None, false, Vec::new())));
        }
    }

    /// Every segment after the handshake, in one shape: it acknowledges
    /// the subflow (`subflow_ack`) and advertises the window, and with
    /// MPTCP in use carries a DSS option with the data ACK and, for a
    /// payload or a FIN, its data sequence number.
    fn segment(
        &self,
        sub: usize,
        seq: u32,
        data_seq: Option<u64>,
        fin: bool,
        payload: Vec<u8>,
    ) -> Segment {
        let options = if self.mp_enabled == Some(true) {
            vec![MptcpOption::Dss { data_seq, data_ack: Some(self.rcv_data_next) }]
        } else {
            Vec::new()
        };
        Segment {
            subflow_seq: seq,
            subflow_ack: self.subs[sub].rcv_next,
            flags: SegFlags { ack: true, fin, syn: false },
            window: self.advertised_window(sub),
            options,
            payload,
        }
    }

    /// The controller's post-loss window for `sub`, in packets (for
    /// stateful controllers also their loss-epoch hook).
    fn window_after_loss(&mut self, now: Micros, sub: usize) -> f64 {
        refresh_snapshots(&mut self.snap_buf, &self.subs, self.cfg.mss as f64);
        self.cc.clamped_window_after_loss(sub, &self.snap_buf, now as f64 / 1e6)
    }
}

/// Refill `buf` with the congestion-control snapshot of every subflow. A
/// free function over the fields (not a method) so ACK processing can call
/// it while the controller field is mutably borrowed. Closed subflows are
/// marked inactive: they must not count toward live-path weights (EWTCP's
/// equal split, OLIA/BALIA's path sums).
fn refresh_snapshots(buf: &mut Vec<SubflowSnapshot>, subs: &[Subflow], mss: f64) {
    buf.clear();
    buf.extend(subs.iter().map(|s| {
        SubflowSnapshot::new((s.cwnd_bytes / mss).max(1e-6), s.timer.srtt().unwrap_or(0.1))
            .active(!s.closed)
    }));
}

/// The one or two contiguous slices that cover `ring[off..off + len]`.
fn ring_halves(ring: &VecDeque<u8>, off: usize, len: usize) -> (&[u8], &[u8]) {
    let (front, back) = ring.as_slices();
    if off >= front.len() {
        let off = off - front.len();
        (&back[off..off + len], &[])
    } else {
        let k = len.min(front.len() - off);
        (&front[off..off + k], &back[..len - k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harness;
    use crate::path::ADVERT_RTO;
    use crate::wire::{Wire, WireFault};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pair() -> (Endpoint, Endpoint) {
        let cfg = EndpointConfig::default();
        (Endpoint::client(cfg, 2, 7), Endpoint::server(cfg, 2, 7))
    }

    /// Shuttle every pending segment between the two endpoints once.
    fn exchange(now: Micros, a: &mut Endpoint, b: &mut Endpoint) {
        for (sub, seg) in a.poll(now) {
            b.on_segment(now, sub, seg);
        }
        for (sub, seg) in b.poll(now) {
            a.on_segment(now, sub, seg);
        }
    }

    #[test]
    fn handshake_establishes_all_subflows() {
        let (mut c, mut s) = pair();
        for t in 1..6 {
            exchange(t * 1000, &mut c, &mut s);
        }
        assert!(c.subflow_established(0) && c.subflow_established(1));
        assert!(s.subflow_established(0) && s.subflow_established(1));
        assert!(!c.is_fallback());
    }

    #[test]
    fn stripped_capability_triggers_fallback() {
        let (mut c, mut s) = pair();
        // Deliver the client's SYN with its options removed.
        let mut syns = c.poll(1000);
        assert_eq!(syns.len(), 1, "only the first subflow SYNs initially");
        let (sub, mut syn) = syns.remove(0);
        syn.options.clear();
        s.on_segment(1000, sub, syn);
        for t in 2..6 {
            exchange(t * 1000, &mut c, &mut s);
        }
        assert!(c.is_fallback() && s.is_fallback());
        assert!(!c.subflow_established(1), "no join after fallback");
    }

    #[test]
    fn join_with_wrong_token_is_ignored() {
        let cfg = EndpointConfig::default();
        let mut c = Endpoint::client(cfg, 2, 7);
        let mut s = Endpoint::server(cfg, 2, 1234); // different key
        for t in 1..8 {
            exchange(t * 1000, &mut c, &mut s);
        }
        // Subflow 0 negotiates MP (keys aren't checked on MP_CAPABLE in
        // this model) but the join token mismatch kills subflow 1.
        assert!(!s.subflow_established(1), "server must reject a bad join token");
    }

    #[test]
    fn write_respects_send_buffer_capacity() {
        let (mut c, _s) = pair();
        let big = vec![0u8; 1_000_000];
        let n = c.write(&big);
        assert_eq!(n, EndpointConfig::default().send_buf);
        assert_eq!(c.write(&big), 0, "buffer full");
    }

    #[test]
    fn data_flows_after_handshake_and_data_acks_free_the_buffer() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        let data = vec![9u8; 5_000];
        assert_eq!(c.write(&data), 5_000);
        for t in 4..40 {
            exchange(t * 1000, &mut c, &mut s);
        }
        let mut buf = [0u8; 8_192];
        let n = s.read(&mut buf);
        assert_eq!(n, 5_000);
        assert!(buf[..n].iter().all(|&b| b == 9));
        assert_eq!(c.peer_data_acked(), 5_000, "data ACK must cover the stream");
        assert!(c.write(&vec![1u8; 1_000]) > 0, "buffer space freed");
    }

    /// Single subflow, a 2-MSS shared receive buffer, and a 10 kB stream:
    /// the sender must fill the window, stall, and resume cleanly when the
    /// application drains the buffer.
    fn small_window_pair() -> (Endpoint, Endpoint) {
        let cfg = EndpointConfig {
            mss: 1000,
            send_buf: 10_000,
            recv_buf: 2_000,
            ..Default::default()
        };
        (Endpoint::client(cfg, 1, 7), Endpoint::server(cfg, 1, 7))
    }

    /// Drive a `small_window_pair` to the zero-window stall: 2 000 bytes
    /// buffered at the receiver, nothing in flight, 8 000 still queued.
    fn fill_to_zero_window(c: &mut Endpoint, s: &mut Endpoint) {
        for t in 1..4 {
            exchange(t * 1000, c, s);
        }
        assert_eq!(c.write(&vec![8u8; 10_000]), 10_000);
        for t in 4..50 {
            exchange(t * 1000, c, s);
        }
        assert_eq!(s.stats().recv_buffered, 2_000, "receive buffer must be full");
        assert_eq!(c.peer_data_acked(), 2_000);
        assert_eq!(c.stats().subflows[0].bytes_in_flight, 0, "all copies acked");
        assert_eq!(c.stats().send_buffered, 8_000);
    }

    #[test]
    fn zero_window_fill_drain_resume() {
        let (mut c, mut s) = small_window_pair();
        fill_to_zero_window(&mut c, &mut s);
        // Drain; the reader's window update lets the sender resume at once.
        let mut buf = [0u8; 4096];
        let mut total = s.read(&mut buf);
        assert_eq!(total, 2_000);
        for t in 50..1500 {
            exchange(t * 1000, &mut c, &mut s);
            total += s.read(&mut buf);
        }
        assert_eq!(total, 10_000, "stream must complete after the drain");
        assert_eq!(
            c.stats().persist_probes,
            0,
            "window update arrived promptly; no probe should have fired"
        );
    }

    #[test]
    fn lost_window_update_does_not_deadlock() {
        let (mut c, mut s) = small_window_pair();
        fill_to_zero_window(&mut c, &mut s);
        let mut buf = [0u8; 4096];
        let mut total = s.read(&mut buf);
        assert_eq!(total, 2_000);
        // The window-update ACK is a pure ACK: lose it. Pre-persist-timer,
        // this wedged the connection forever (sender flow-control-blocked
        // with an empty inflight has no timer left to fire).
        let lost = s.poll(50 * 1000);
        assert!(
            lost.iter().any(|(_, seg)| seg.flags.ack && seg.payload.is_empty()),
            "the drain must have produced a window update to lose: {lost:?}"
        );
        for t in 51..3000 {
            exchange(t * 1000, &mut c, &mut s);
            total += s.read(&mut buf);
        }
        assert_eq!(total, 10_000, "persist probe must rescue the transfer");
        assert!(
            c.stats().persist_probes >= 1,
            "recovery must have come from the zero-window probe"
        );
    }

    #[test]
    fn striping_uses_both_subflows() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        c.write(&vec![3u8; 40_000]);
        let mut used = [false, false];
        for t in 4..200 {
            for (sub, seg) in c.poll(t * 1000) {
                if !seg.payload.is_empty() {
                    used[sub] = true;
                }
                s.on_segment(t * 1000, sub, seg);
            }
            for (sub, seg) in s.poll(t * 1000) {
                c.on_segment(t * 1000, sub, seg);
            }
            let mut buf = [0u8; 4096];
            while s.read(&mut buf) > 0 {}
        }
        assert!(used[0] && used[1], "data must be striped over both subflows: {used:?}");
    }

    #[test]
    fn lost_segment_is_fast_retransmitted() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        c.write(&vec![5u8; 30_000]);
        let mut dropped_one = false;
        for t in 4..3000 {
            for (sub, seg) in c.poll(t * 1000) {
                // Drop the first data segment on subflow 0 only.
                if !dropped_one && sub == 0 && !seg.payload.is_empty() {
                    dropped_one = true;
                    continue;
                }
                s.on_segment(t * 1000, sub, seg);
            }
            for (sub, seg) in s.poll(t * 1000) {
                c.on_segment(t * 1000, sub, seg);
            }
            let mut buf = [0u8; 4096];
            while s.read(&mut buf) > 0 {}
        }
        let (retx, _) = c.subflow_retransmits(0);
        assert!(dropped_one);
        assert!(retx >= 1, "the hole must be retransmitted");
        assert_eq!(s.stats().data_received, 30_000, "stream completes despite the drop");
    }

    #[test]
    fn fin_is_retransmitted_after_rto_until_acked() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        c.close();
        // First FIN is lost (we just don't deliver it).
        let out = c.poll(10_000);
        assert!(out.iter().any(|(_, seg)| seg.flags.fin), "FIN emitted");
        assert!(!c.send_complete(), "FIN unacked");
        // After the retransmission timeout the FIN is re-sent and this
        // time delivered (it occupies a subflow sequence number, so the
        // ordinary RTO machinery owns it).
        let mut seen_fin_again = false;
        for t in 0..10 {
            let now = 1_200_000 + t * 100_000;
            for (sub, seg) in c.poll(now) {
                seen_fin_again |= seg.flags.fin;
                s.on_segment(now, sub, seg);
            }
            for (sub, seg) in s.poll(now) {
                c.on_segment(now, sub, seg);
            }
        }
        assert!(seen_fin_again, "FIN must be retransmitted");
        assert!(c.send_complete(), "FIN data-acked");
        assert!(s.at_eof());
    }

    #[test]
    fn rto_threshold_follows_the_controllers_loss_rule() {
        // COUPLED's decrease is w_r − w_total/2, not w_r/2: the RTO must
        // ask the controller, as fast retransmit does.
        let cfg = EndpointConfig { algorithm: AlgorithmKind::Coupled, ..Default::default() };
        let (mut c, mut s) = (Endpoint::client(cfg, 2, 7), Endpoint::server(cfg, 2, 7));
        for t in 1..6 {
            exchange(t * 1000, &mut c, &mut s);
        }
        let mss = cfg.mss as f64;
        c.subs[0].cwnd_bytes = 20.0 * mss;
        c.subs[1].cwnd_bytes = 10.0 * mss;
        // One segment, never delivered: only subflow 0 has data in flight.
        assert_eq!(c.write(&vec![1u8; cfg.mss]), cfg.mss);
        let sent = c.poll(6_000);
        assert_eq!(sent.iter().filter(|(_, seg)| !seg.payload.is_empty()).count(), 1);
        let deadline = c.subs[0].rto_deadline.expect("timer armed by the send");
        c.poll(deadline);
        let st = c.stats();
        assert_eq!((st.subflows[0].timeouts, st.subflows[1].timeouts), (1, 0));
        assert_eq!(c.subs[0].ssthresh_bytes, 5.0 * mss, "20 − (20 + 10)/2 packets");
        assert_eq!(c.subs[0].cwnd_bytes, mss, "window collapses to one MSS");
    }

    #[test]
    fn stale_data_duplicates_are_discarded() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        c.write(&vec![8u8; 2_000]);
        // Capture and deliver the data twice.
        let mut captured = Vec::new();
        for t in 4..20 {
            for (sub, seg) in c.poll(t * 1000) {
                if !seg.payload.is_empty() {
                    captured.push((sub, seg.clone()));
                }
                s.on_segment(t * 1000, sub, seg);
            }
            for (sub, seg) in s.poll(t * 1000) {
                c.on_segment(t * 1000, sub, seg);
            }
        }
        let before = s.stats().data_received;
        for (sub, seg) in captured {
            s.on_segment(21_000, sub, seg);
        }
        assert_eq!(s.stats().data_received, before, "duplicates must not re-deliver");
    }

    #[test]
    fn stats_reflect_connection_state() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        c.write(&vec![1u8; 10_000]);
        for t in 4..60 {
            exchange(t * 1000, &mut c, &mut s);
        }
        let mut buf = [0u8; 16_384];
        let n = s.read(&mut buf);
        let cs = c.stats();
        let ss = s.stats();
        assert_eq!(cs.mp_enabled, Some(true));
        assert_eq!(cs.data_sent, 10_000);
        assert_eq!(cs.data_acked, 10_000);
        assert_eq!(ss.data_received, 10_000);
        assert_eq!(n, 10_000);
        assert_eq!(ss.recv_buffered, 0, "read drained the buffer");
        assert_eq!(cs.subflows.len(), 2);
        assert!(cs.subflows.iter().all(|f| f.established && !f.potentially_failed));
    }

    /// A pure ACK as a peer would send it on subflow 0.
    fn pure_ack(subflow_ack: u32, data_ack: u64) -> Segment {
        Segment {
            subflow_ack,
            flags: SegFlags { ack: true, ..Default::default() },
            window: 64 * 1024,
            options: vec![MptcpOption::Dss { data_seq: None, data_ack: Some(data_ack) }],
            ..Segment::new()
        }
    }

    /// Finish a 40 kB transfer of `5`s after a forged ACK was injected.
    fn finish_40k(c: &mut Endpoint, s: &mut Endpoint) {
        let mut buf = [0u8; 4096];
        let mut got = 0;
        for t in 5..2000 {
            exchange(t * 1000, c, s);
            loop {
                let n = s.read(&mut buf);
                if n == 0 {
                    break;
                }
                assert!(buf[..n].iter().all(|&b| b == 5));
                got += n;
            }
        }
        assert_eq!(got, 40_000, "every written byte must still arrive");
        assert_eq!(c.peer_data_acked(), 40_000);
    }

    #[test]
    fn data_ack_for_unsent_data_is_ignored() {
        for forged in [30_000, u64::MAX] {
            let (mut c, mut s) = pair();
            for t in 1..4 {
                exchange(t * 1000, &mut c, &mut s);
            }
            assert_eq!(c.write(&vec![5u8; 40_000]), 40_000);
            let sent = c.poll(4_000);
            assert!(c.stats().data_sent < 30_000, "the initial windows map a few segments");
            // Obeying this would discard send-buffer bytes never transmitted.
            c.on_segment(4_500, 0, pure_ack(0, forged));
            assert_eq!(c.peer_data_acked(), 0);
            assert_eq!(c.stats().send_buffered, 40_000, "nothing was acknowledged");
            for (sub, seg) in sent {
                s.on_segment(4_500, sub, seg);
            }
            finish_40k(&mut c, &mut s);
        }
    }

    #[test]
    fn subflow_ack_for_unsent_bytes_is_ignored() {
        let (mut c, mut s) = pair();
        for t in 1..4 {
            exchange(t * 1000, &mut c, &mut s);
        }
        assert_eq!(c.write(&vec![5u8; 40_000]), 40_000);
        let sent = c.poll(4_000);
        let before = c.stats().subflows[0];
        assert!(before.bytes_in_flight > 0);
        // Obeying this would move `snd_una` past `snd_next`.
        c.on_segment(4_500, 0, pure_ack(before.bytes_in_flight + 10_000, 0));
        assert_eq!(c.stats().subflows[0], before, "the segment must leave the sender untouched");
        for (sub, seg) in sent {
            s.on_segment(4_500, sub, seg);
        }
        finish_40k(&mut c, &mut s);
    }

    /// The clock jumps straight to the next wire delivery or
    /// `next_deadline`; nothing polls in between. One-way delay is fixed, so
    /// the wire is a FIFO. The first SYN, `ADD_ADDR`, data segment and FIN
    /// are dropped: the first two come back on the fixed `SYN_RTO` and
    /// `ADVERT_RTO`, the hole by duplicate ACKs, and the FIN, alone in
    /// flight, only when the harness wakes at its retransmission timer.
    #[test]
    fn event_driven_stepping_survives_a_lost_syn_advert_and_data_segment() {
        const DELAY: Micros = 4_000;
        let cfg = EndpointConfig::default();
        let (mut c, mut s) = (Endpoint::client(cfg, 2, 7), Endpoint::server(cfg, 2, 7));
        c.defer_join(1);
        s.advertise_addr(1, false);
        let data: Vec<u8> = (0..60_000).map(|i| (i % 251) as u8).collect();
        let mut wire: VecDeque<(Micros, bool, usize, Segment)> = VecDeque::new();
        let mut dropped = [false; 4];
        let (mut now, mut written, mut closed, mut instants) = (0, 0, false, 0);
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            instants += 1;
            assert!(instants < 1_000, "not converging: {now} µs, {} bytes read", got.len());
            while wire.front().is_some_and(|f| f.0 <= now) {
                let (_, to_server, sub, seg) = wire.pop_front().expect("peeked");
                if to_server { &mut s } else { &mut c }.on_segment(now, sub, seg);
            }
            if written < data.len() {
                written += c.write(&data[written..]);
            } else if !closed {
                c.close();
                closed = true;
            }
            for to_server in [true, false] {
                for (sub, seg) in if to_server { &mut c } else { &mut s }.poll(now) {
                    let advert = |o: &MptcpOption| {
                        matches!(o, MptcpOption::AddAddr { echo: false, .. })
                    };
                    let kind = if seg.flags.syn && !seg.flags.ack {
                        0
                    } else if seg.options.iter().any(advert) {
                        1
                    } else if !seg.payload.is_empty() {
                        2
                    } else if seg.flags.fin {
                        3
                    } else {
                        wire.push_back((now + DELAY, to_server, sub, seg));
                        continue;
                    };
                    if std::mem::replace(&mut dropped[kind], true) {
                        wire.push_back((now + DELAY, to_server, sub, seg));
                    }
                }
            }
            loop {
                let n = s.read(&mut buf);
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            if closed && s.at_eof() && c.send_complete() {
                break;
            }
            let next = wire
                .front()
                .map(|f| f.0)
                .into_iter()
                .chain(c.next_deadline())
                .chain(s.next_deadline())
                .min()
                .expect("wedged: nothing in flight and neither endpoint has a deadline");
            now = now.max(next);
        }
        assert_eq!(got, data);
        assert_eq!(dropped, [true; 4], "each loss must have happened");
        assert!(c.subflow_established(1), "the re-advertised address must have been joined");
        let st = c.stats();
        assert!(st.subflows[0].retransmits >= 1, "the hole must have been retransmitted");
        assert!(st.subflows.iter().any(|f| f.timeouts >= 1), "the lost FIN needed its RTO");
        assert!(now > Endpoint::SYN_RTO + ADVERT_RTO, "both fixed timers must have fired");
        assert!(instants < 100, "{instants} instants; a 100 µs tick would take {}", now / 100);
    }

    fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
        (0..n).map(|_| rng.gen()).collect()
    }

    /// Buffers of 3 001 bytes (not a multiple of the MSS) and a stream 66
    /// times that: both rings cross their wrap point again and again, with
    /// write and read sizes that line up with nothing.
    #[test]
    fn rings_wrap_byte_exact_in_both_buffer_modes() {
        for mode in [RecvBufferMode::Shared, RecvBufferMode::PerSubflow] {
            let cfg = EndpointConfig {
                send_buf: 3_001,
                recv_buf: 3_001,
                recv_mode: mode,
                ..Default::default()
            };
            let wire = |delay, seed| {
                Wire::new(delay, seed)
                    .with_fault(WireFault::Loss(0.02))
                    .with_fault(WireFault::Jitter(1_000))
            };
            let mut h = Harness::new(cfg, vec![wire(2_000, 1), wire(3_000, 2)], 7);
            let mut rng = StdRng::seed_from_u64(19);
            let data = random_bytes(&mut rng, 200_000);
            let (mut written, mut closed) = (0, false);
            let mut got = Vec::with_capacity(data.len());
            let mut buf = [0u8; 1_500];
            while !(closed && h.server.at_eof() && h.client.send_complete()) {
                assert!(h.now < 600_000_000, "{mode:?} stalled after {} bytes", got.len());
                if written < data.len() {
                    let chunk = rng.gen_range(1..=2_000usize).min(data.len() - written);
                    written += h.client.write(&data[written..written + chunk]);
                } else if !closed {
                    h.client.close();
                    closed = true;
                }
                h.step();
                loop {
                    let k = rng.gen_range(1..=buf.len());
                    let n = h.server.read(&mut buf[..k]);
                    if n == 0 {
                        break;
                    }
                    got.extend_from_slice(&buf[..n]);
                }
            }
            assert!(got == data, "{mode:?}: received stream differs from the sent one");
            assert_eq!(h.client.snd_data_base, 200_000, "{mode:?}: send ring released it all");
            assert_eq!(h.server.stats().data_received, 200_000);
            assert!(h.client.send_buf.capacity() < 10_000 && h.server.recv_app.capacity() < 10_000);
        }
    }

    /// `read` against a `pop_front` loop on rings whose live bytes start
    /// anywhere, straddling the end of the allocation or not.
    #[test]
    fn read_matches_a_byte_at_a_time_reference_on_rotated_rings() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut straddling = 0;
        for _ in 0..300 {
            let mut ring: VecDeque<u8> = VecDeque::with_capacity(rng.gen_range(1..4_000));
            // Move the head: an emptied deque would rewind it, so one byte
            // stays in until the data is behind it.
            let rotate = rng.gen_range(1..=ring.capacity());
            ring.extend(std::iter::repeat_n(0, rotate));
            ring.drain(..rotate - 1);
            let len = rng.gen_range(0..ring.capacity());
            ring.extend(random_bytes(&mut rng, len));
            ring.pop_front();
            straddling += usize::from(!ring.as_slices().1.is_empty());

            let mut e = Endpoint::server(EndpointConfig::default(), 1, 7);
            e.recv_app = ring.clone();
            e.recv_attribution.push_back((0, ring.len()));
            e.subs[0].held_bytes = ring.len();
            let mut reference = ring;
            while !reference.is_empty() {
                let mut buf = vec![0xAA; rng.gen_range(1..=1_500)];
                let n = e.read(&mut buf);
                let want: Vec<u8> = (0..buf.len()).map_while(|_| reference.pop_front()).collect();
                assert_eq!(buf[..n], want[..]);
                assert!(buf[n..].iter().all(|&b| b == 0xAA), "bytes past the count were written");
            }
            assert_eq!(e.read(&mut [0; 8]), 0);
            assert_eq!(e.subs[0].held_bytes, 0);
        }
        assert!(straddling > 100, "only {straddling} of 300 rings had two halves");
    }

    #[test]
    #[should_panic]
    fn write_after_close_panics() {
        let (mut c, _s) = pair();
        c.close();
        c.write(b"late");
    }

    /// Address ids are one byte, so subflow 256 could not be withdrawn by
    /// its own id: `close_subflow(256)` would close subflow 0's address.
    #[test]
    #[should_panic(expected = "an address id names 256")]
    fn more_subflows_than_address_ids_are_refused() {
        let _ = Endpoint::client(EndpointConfig::default(), 257, 1);
    }

    #[test]
    #[should_panic]
    fn unknown_subflow_index_panics() {
        let (mut c, _s) = pair();
        c.on_segment(0, 5, Segment::new());
    }
}

/// `poll` against the body it skips. Two identical client/server pairs
/// step the same 100 µs tick over identically seeded wires: one pair
/// through [`Endpoint::poll`], the other through `poll_all` on every tick.
/// Every tick, each side of both pairs must emit the same encoded
/// segments on the same subflows, report the same `next_deadline`, and
/// hand its application the same bytes. A call that creates work without
/// waking the endpoint, or a pass `next_deadline` does not cover, shows up
/// as a tick on which only the full pair sends.
#[cfg(test)]
mod lazy_poll_differential {
    use super::*;
    use crate::wire::{Wire, WireFault};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const TICK: Micros = 100;
    /// Four simulated seconds: room for RTO backoff after a black hole and
    /// for the persist timer behind a lost window update.
    const MAX_TICKS: u64 = 40_000;

    fn chaos_cases() -> u32 {
        std::env::var("MPTCP_CHAOS_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
    }

    #[derive(Debug, Clone)]
    struct WireSpec {
        delay: Micros,
        faults: Vec<WireFault>,
    }

    impl WireSpec {
        fn build(&self, seed: u64) -> Wire {
            self.faults.iter().fold(Wire::new(self.delay, seed), |w, &f| w.with_fault(f))
        }
    }

    /// A call made on both pairs at the same tick. `client` picks the side.
    #[derive(Debug, Clone, Copy)]
    enum Action {
        SetBackup { client: bool, sub: usize, backup: bool },
        CloseSubflow { client: bool, sub: usize },
        Advertise { client: bool, addr_id: u8, backup: bool },
        Withdraw { client: bool, addr_id: u8 },
        /// Client only; subflow 0 cannot be joined and is skipped.
        Join { sub: usize, backup: bool },
        /// The wire drops everything until its `Restore`.
        BlackHole { wire: usize },
        Restore { wire: usize },
    }

    #[derive(Debug, Clone)]
    struct Plan {
        cfg: EndpointConfig,
        wires: Vec<WireSpec>,
        /// The client joins subflows ≥ 1 only when the server advertises
        /// them or a `Join` comes.
        defer_joins: bool,
        /// Stream lengths, client→server and server→client.
        bytes: [usize; 2],
        /// Per-tick chance that an application writes / reads.
        write_p: f64,
        read_p: f64,
        /// `(tick, action)`, ascending.
        events: Vec<(u64, Action)>,
        /// Ticks run after both streams complete, so timers that fire
        /// only on a quiet connection (SYN, `ADD_ADDR`, persist) get to.
        tail: u64,
        seed: u64,
    }

    fn config() -> impl Strategy<Value = EndpointConfig> {
        (
            prop::sample::select(vec![RecvBufferMode::Shared, RecvBufferMode::PerSubflow]),
            any::<bool>(),
            prop::sample::select(AlgorithmKind::all().to_vec()),
            prop::sample::select(vec![20_000, 200_000]),
        )
            .prop_map(|(recv_mode, small, algorithm, min_rto)| {
                // 3 000-byte buffers hold two and a half segments: the
                // windows close, reopen on reads, and need the persist
                // timer when a window update is lost.
                let buf = if small { 3_000 } else { 64 * 1024 };
                EndpointConfig {
                    send_buf: buf,
                    recv_buf: buf,
                    recv_mode,
                    algorithm,
                    min_rto,
                    ..EndpointConfig::default()
                }
            })
    }

    fn wire_spec() -> impl Strategy<Value = WireSpec> {
        (
            1_000..20_000_u64,
            prop::sample::select(vec![0.0, 0.0, 0.01, 0.05]),
            prop::option::of(1..3_000_u64),
            0..8_u8,
            1..0x8000_0000_u32,
        )
            .prop_map(|(delay, loss, jitter, middlebox, offset)| {
                let mut faults = Vec::new();
                if loss > 0.0 {
                    faults.push(WireFault::Loss(loss));
                }
                faults.extend(jitter.map(WireFault::Jitter));
                match middlebox {
                    0 => faults.push(WireFault::StripOptions),
                    1 => faults.push(WireFault::RewriteIsn(offset)),
                    _ => {}
                }
                WireSpec { delay, faults }
            })
    }

    /// A raw action on a connection of `n` subflows; a black hole comes
    /// with the number of ticks until its restore.
    fn action(n: usize) -> impl Strategy<Value = (Action, u64)> {
        let (sub, addr) = (0..n, 0..n as u8);
        prop_oneof![
            (any::<bool>(), sub.clone(), any::<bool>())
                .prop_map(|(client, sub, backup)| (Action::SetBackup { client, sub, backup }, 0)),
            (any::<bool>(), sub.clone())
                .prop_map(|(client, sub)| (Action::CloseSubflow { client, sub }, 0)),
            (any::<bool>(), addr.clone(), any::<bool>()).prop_map(|(client, addr_id, backup)| {
                (Action::Advertise { client, addr_id, backup }, 0)
            }),
            (any::<bool>(), addr).prop_map(|(client, addr_id)| (Action::Withdraw { client, addr_id }, 0)),
            (sub.clone(), any::<bool>()).prop_map(|(sub, backup)| (Action::Join { sub, backup }, 0)),
            (sub, 100..5_000_u64).prop_map(|(wire, gap)| (Action::BlackHole { wire }, gap)),
        ]
    }

    fn plan() -> impl Strategy<Value = Plan> {
        // Most streams finish within 4 000 ticks; the calls land inside.
        let rates = || prop::sample::select(vec![0.003, 0.03, 0.3, 1.0]);
        (1..=3_usize).prop_flat_map(move |n| {
            (
                config(),
                prop::collection::vec(wire_spec(), n),
                any::<bool>(),
                (0..60_000_usize, 0..20_000_usize),
                (rates(), rates()),
                prop::collection::vec((0..4_000_u64, action(n)), 0..10),
                0..10_000_u64,
                any::<u64>(),
            )
                .prop_map(|(cfg, wires, defer_joins, (up, down), (write_p, read_p), raw, tail, seed)| {
                    let mut events = Vec::new();
                    for (at, (action, gap)) in raw {
                        events.push((at, action));
                        if let Action::BlackHole { wire } = action {
                            events.push((at + gap, Action::Restore { wire }));
                        }
                    }
                    events.sort_by_key(|&(at, _)| at);
                    Plan {
                        cfg,
                        wires,
                        defer_joins,
                        bytes: [up, down],
                        write_p,
                        read_p,
                        events,
                        tail,
                        seed,
                    }
                })
        })
    }

    /// One client/server pair and its wires. `ends[0]` is the client
    /// (wire side A), `ends[1]` the server.
    struct World {
        ends: [Endpoint; 2],
        wires: Vec<Wire>,
        lazy: bool,
    }

    impl World {
        fn new(plan: &Plan, lazy: bool) -> Self {
            let n = plan.wires.len();
            let mut client = Endpoint::client(plan.cfg, n, 7);
            if plan.defer_joins {
                (1..n).for_each(|i| client.defer_join(i));
            }
            Self {
                ends: [client, Endpoint::server(plan.cfg, n, 7)],
                wires: plan.wires.iter().zip(1..).map(|(w, seed)| w.build(seed)).collect(),
                lazy,
            }
        }

        fn deliver(&mut self, now: Micros) {
            for (i, wire) in self.wires.iter_mut().enumerate() {
                for seg in wire.recv_a(now) {
                    self.ends[0].on_segment(now, i, seg);
                }
                for seg in wire.recv_b(now) {
                    self.ends[1].on_segment(now, i, seg);
                }
            }
        }

        fn apply(&mut self, action: Action, plan: &Plan) {
            let side = |client: bool| usize::from(!client);
            match action {
                Action::SetBackup { client, sub, backup } => {
                    self.ends[side(client)].set_backup(sub, backup)
                }
                Action::CloseSubflow { client, sub } => self.ends[side(client)].close_subflow(sub),
                Action::Advertise { client, addr_id, backup } => {
                    self.ends[side(client)].advertise_addr(addr_id, backup)
                }
                Action::Withdraw { client, addr_id } => {
                    self.ends[side(client)].withdraw_addr(addr_id)
                }
                Action::Join { sub, backup } => {
                    if sub > 0 {
                        self.ends[0].join_subflow(sub, backup);
                    }
                }
                Action::BlackHole { wire } => {
                    self.wires[wire] =
                        Wire::new(plan.wires[wire].delay, 0).with_fault(WireFault::Loss(1.0));
                }
                Action::Restore { wire } => {
                    self.wires[wire] = plan.wires[wire].build(100 + wire as u64);
                }
            }
        }

        /// Poll one side and put what it emits on the wires; returns the
        /// emitted segments, encoded.
        fn poll(&mut self, side: usize, now: Micros) -> Vec<(usize, Vec<u8>)> {
            let end = &mut self.ends[side];
            let out = if self.lazy { end.poll(now) } else { end.poll_all(now) };
            let encoded = out.iter().map(|(sub, seg)| (*sub, seg.encode())).collect();
            for (sub, seg) in out {
                if side == 0 {
                    self.wires[sub].send_a(now, seg);
                } else {
                    self.wires[sub].send_b(now, seg);
                }
            }
            encoded
        }

        fn done(&self) -> bool {
            self.ends.iter().all(|e| e.at_eof() && e.send_complete())
        }
    }

    /// Drive both pairs to completion and through the plan's tail, or to
    /// `MAX_TICKS`; returns how many of the lazy pair's polls skipped the
    /// body, and how many polls it made.
    fn run(plan: &Plan) -> Result<(u64, u64), TestCaseError> {
        let [mut lazy, mut full] = [true, false].map(|l| World::new(plan, l));
        let mut rng = StdRng::seed_from_u64(plan.seed);
        let streams: [Vec<u8>; 2] = [0, 1].map(|side| {
            (0..plan.bytes[side]).map(|i| ((i * 7 + side) % 251) as u8).collect()
        });
        let (mut written, mut read, mut closed) = ([0; 2], [0; 2], [false; 2]);
        let mut buf = [0u8; 4_096];
        let mut events = plan.events.iter().peekable();
        let (mut skipped, mut polls, mut done_at) = (0, 0, None);
        for tick in 1..=MAX_TICKS {
            let now = tick * TICK;
            lazy.deliver(now);
            full.deliver(now);
            while let Some(&(_, action)) = events.next_if(|e| e.0 <= tick) {
                lazy.apply(action, plan);
                full.apply(action, plan);
            }
            for side in 0..2 {
                let stream = &streams[side];
                if written[side] < stream.len() {
                    if rng.gen_bool(plan.write_p) {
                        let k = rng.gen_range(1..=4_000_usize).min(stream.len() - written[side]);
                        let chunk = &stream[written[side]..written[side] + k];
                        let n = lazy.ends[side].write(chunk);
                        prop_assert_eq!(n, full.ends[side].write(chunk), "write at tick {}", tick);
                        written[side] += n;
                    }
                } else if !closed[side] && rng.gen_bool(0.01) {
                    lazy.ends[side].close();
                    full.ends[side].close();
                    closed[side] = true;
                }
            }
            for side in 0..2 {
                polls += 1;
                skipped += u64::from(now < lazy.ends[side].wake_at);
                let (a, b) = (lazy.poll(side, now), full.poll(side, now));
                prop_assert!(
                    a == b,
                    "tick {}, side {}: lazy poll sent {:?}, full poll sent {:?}",
                    tick,
                    side,
                    a.iter().map(|(i, s)| (i, Segment::decode(s))).collect::<Vec<_>>(),
                    b.iter().map(|(i, s)| (i, Segment::decode(s))).collect::<Vec<_>>()
                );
            }
            for side in 0..2 {
                if rng.gen_bool(plan.read_p) {
                    let k = rng.gen_range(1..=buf.len());
                    let n = lazy.ends[side].read(&mut buf[..k]);
                    let got = buf[..n].to_vec();
                    let m = full.ends[side].read(&mut buf[..k]);
                    prop_assert!(got[..] == buf[..m], "tick {}, side {}: reads differ", tick, side);
                    let sent = &streams[1 - side][read[side]..read[side] + n];
                    prop_assert!(got[..] == sent[..], "tick {}, side {}: stream corrupted", tick, side);
                    read[side] += n;
                }
                let (a, b) = (lazy.ends[side].next_deadline(), full.ends[side].next_deadline());
                prop_assert_eq!(a, b, "tick {}, side {}: next_deadline", tick, side);
            }
            if done_at.is_none() && closed == [true; 2] && lazy.done() && full.done() {
                done_at = Some(tick);
            }
            if done_at.is_some_and(|t| tick >= t + plan.tail) {
                break;
            }
        }
        for side in 0..2 {
            prop_assert_eq!(lazy.ends[side].stats(), full.ends[side].stats());
        }
        Ok((skipped, polls))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

        /// Loss, jitter, option stripping, ISN rewriting, black holes,
        /// both buffer modes, 3 000-byte buffers, every controller, and
        /// path-manager calls mid-transfer: the lazy pair never differs
        /// from the full one, and it skips most of its polls.
        #[test]
        fn lazy_poll_matches_the_full_poll_on_every_tick(plan in plan()) {
            let (skipped, polls) = run(&plan)?;
            prop_assert!(2 * skipped > polls, "only {} of {} polls skipped", skipped, polls);
        }
    }
}
