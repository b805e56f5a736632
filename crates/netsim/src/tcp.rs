//! Per-subflow TCP machinery: SACK-based loss recovery in the style of
//! RFC 6675, with the window *amounts* delegated to the connection's
//! [`MultipathCc`](mptcp_cc::MultipathCc).
//!
//! Each subflow of a multipath connection runs its own loss detection and
//! recovery, exactly as the paper's implementation does ("The sequence
//! numbers and cumulative ack in the TCP header are per-subflow, allowing
//! efficient loss detection and fast retransmission", §6). Like the Linux
//! stack the paper built on, loss recovery is selective-ACK driven: the
//! receiver reports which out-of-order packets it holds, the sender keeps
//! a scoreboard (sacked / lost / retransmitted), estimates the packets
//! actually in the network (`pipe`), and retransmits all the holes of a
//! loss burst within about a round trip — without which a slow-start
//! overshoot would take one RTT *per lost packet* to repair and corrupt
//! every throughput measurement.
//!
//! The scoreboard sets themselves are the rotating bitmaps of
//! [`crate::scoreboard`]: a [`BitmapScoreboard`] in the sender and a
//! [`BitRing`] reassembly buffer in the receiver. The B-tree bookkeeping
//! they replaced is test code, the reference model a differential holds
//! them to call by call. The retransmission timer is
//! [`mptcp_cc::RtoEstimator`], the copy the protocol endpoint runs too.

// Per-ACK hot path and per-shard state (DESIGN.md §3.2d): a panic here
// tears down every shard, a silent truncation forks the history.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

use crate::scoreboard::{BitRing, BitmapScoreboard, RingPool, MAX_CAP};
use crate::time::SimTime;
use mptcp_cc::RtoEstimator;
use std::collections::VecDeque;

/// Maximum SACK ranges carried per ACK (real TCP fits 3–4 in options).
pub(crate) const MAX_SACK_RANGES: usize = 4;

/// SACK ranges: up to [`MAX_SACK_RANGES`] half-open intervals
/// `[start, end)` of packets the receiver holds above the cumulative ACK.
pub(crate) type SackRanges = [Option<(u64, u64)>; MAX_SACK_RANGES];

/// Initial congestion window, packets.
const INITIAL_CWND: f64 = 2.0;
/// Initial slow-start threshold, packets: slow start until the first loss.
const INITIAL_SSTHRESH: f64 = f64::INFINITY;
/// Minimum retransmission timeout, seconds (Linux uses 200 ms).
const MIN_RTO: f64 = 0.2;
/// RTO before any RTT sample exists, seconds (RFC 6298 says 1 s).
const INITIAL_RTO: f64 = 1.0;
/// Packets SACKed above a hole before the hole is declared lost
/// (DupThresh).
const DUPACK_THRESHOLD: u64 = 3;

/// Tunable TCP parameters shared by every subflow of a connection. The
/// window is never capped: as in the paper's simulator, no receive window
/// limits it.
#[derive(Debug, Clone, Copy)]
pub struct TcpParams {
    /// Maximum retransmission timeout.
    pub max_rto: SimTime,
}

impl Default for TcpParams {
    fn default() -> Self {
        Self { max_rto: SimTime::from_secs(60) }
    }
}

/// Metadata the sender keeps per in-flight packet: RTT sampling (Karn's
/// rule: never sample a retransmitted packet) plus the connection-level
/// data sequence number the packet carries, so stranded data on a failed
/// subflow can be identified and reinjected elsewhere. 16 bytes: the two
/// flags ride in the top bits of the dsn word.
#[derive(Debug, Clone, Copy)]
struct SentMeta {
    sent_at: SimTime,
    /// Connection-level data sequence number carried by this packet, with
    /// [`Self::RETRANSMITTED`] and [`Self::DATA_ACKED`] above it.
    dsn_flags: u64,
}

impl SentMeta {
    /// The packet was retransmitted: its RTT sample is unreliable.
    const RETRANSMITTED: u64 = 1 << 63;
    /// The dsn was reported received on *this* subflow (cum-acked or
    /// SACKed) — used to report each dsn's first acknowledgment exactly
    /// once per subflow.
    const DATA_ACKED: u64 = 1 << 62;

    fn new(sent_at: SimTime, dsn: u64) -> Self {
        assert!(dsn < Self::DATA_ACKED, "dsn {dsn} collides with the send-metadata flags");
        Self { sent_at, dsn_flags: dsn }
    }

    fn dsn(self) -> u64 {
        self.dsn_flags & (Self::DATA_ACKED - 1)
    }

    fn retransmitted(self) -> bool {
        self.dsn_flags & Self::RETRANSMITTED != 0
    }

    fn data_acked(self) -> bool {
        self.dsn_flags & Self::DATA_ACKED != 0
    }
}

/// Receiver-side reassembly state of one subflow (kept with the sender for
/// simulation convenience; content-wise it is the remote endpoint's state).
#[derive(Debug, Default)]
pub(crate) struct SubflowReceiver {
    /// Out-of-order packets held for reassembly. The ring's base is the
    /// next subflow sequence number expected in order, and every member
    /// lies above it.
    ooo: BitRing,
}

impl SubflowReceiver {
    /// Process an arriving data packet; returns the ACK to send:
    /// `(cumulative_ack, is_duplicate, sack_ranges)`.
    pub fn on_data(&mut self, seq: u64) -> (u64, bool, SackRanges) {
        let dup;
        let next_expected = self.ooo.base();
        if seq == next_expected {
            let mut next = seq + 1;
            while self.ooo.remove(next) {
                next += 1;
            }
            self.ooo.advance_to(next);
            dup = false;
        } else if seq > next_expected {
            self.ooo.insert(seq);
            dup = true;
        } else {
            // Old duplicate (spurious retransmission).
            dup = true;
        }
        (self.ooo.base(), dup, self.sack_ranges())
    }

    /// The first [`MAX_SACK_RANGES`] contiguous runs of out-of-order
    /// packets, in ascending order.
    fn sack_ranges(&self) -> SackRanges {
        let mut out: SackRanges = [None; MAX_SACK_RANGES];
        let mut cur: Option<(u64, u64)> = None;
        let mut n = 0;
        self.ooo.for_each_ascending(|s| {
            match cur {
                Some((_, ref mut end)) if s == *end => *end += 1,
                Some(range) => {
                    if let Some(slot) = out.get_mut(n) {
                        *slot = Some(range);
                    }
                    n += 1;
                    if n == MAX_SACK_RANGES {
                        cur = None;
                        return false;
                    }
                    cur = Some((s, s + 1));
                }
                None => cur = Some((s, s + 1)),
            }
            true
        });
        if let Some(range) = cur {
            if let Some(slot) = out.get_mut(n) {
                *slot = Some(range);
            }
        }
        out
    }

    /// Packets delivered in order so far, which is also the next subflow
    /// sequence number expected in order.
    pub fn delivered(&self) -> u64 {
        self.ooo.base()
    }

    /// Whether the receiver already holds `seq` (in order or buffered).
    pub fn contains(&self, seq: u64) -> bool {
        seq < self.ooo.base() || self.ooo.contains(seq)
    }

    /// Allocation events in the reassembly buffer (ring growth); feeds
    /// [`crate::SimPerf::hot_allocs`].
    pub fn alloc_events(&self) -> u64 {
        self.ooo.alloc_events()
    }

    /// Heap bytes of the reassembly ring (see [`crate::MemBytes::rings`]).
    pub fn heap_bytes(&self) -> u64 {
        self.ooo.heap_bytes()
    }

    /// Fresh receiver whose reassembly ring draws its storage from
    /// `pool`.
    pub fn new_pooled(pool: &mut RingPool) -> Self {
        Self { ooo: BitRing::pooled(pool) }
    }

    /// Reset to the initial state in place: the reassembly ring keeps its
    /// storage and its monotone allocation counter, so a recycled arena
    /// slot starts a new flow without allocating.
    pub fn reset_for_reuse(&mut self) {
        self.ooo.reset_for_reuse();
    }

    /// Surrender ring storage into `pool`; the husk must not be reused.
    pub fn gut_into(&mut self, pool: &mut RingPool) {
        self.ooo.gut_into(pool);
    }

    /// Capacity of the reassembly ring, in bits.
    #[cfg(test)]
    pub(crate) fn ring_bits(&self) -> u64 {
        self.ooo.cap()
    }
}

/// What an ACK did to the sender's state; the caller (the simulator's
/// connection layer) turns these into congestion-controller calls.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct AckOutcome {
    /// Packets newly covered by the cumulative ACK.
    pub newly_acked: u64,
    /// The scoreboard marked new losses and recovery started now — the
    /// caller applies the (single) multiplicative decrease.
    pub entered_recovery: bool,
    /// Timer must be (re)armed / disarmed.
    pub rearm_rto: Option<bool>,
}

/// Cold per-subflow counters, split out of [`SubflowSender`] so the
/// cache lines the per-ACK path touches stay free of write-rarely stats.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SenderCounters {
    /// Count of retransmissions performed.
    pub retransmits: u64,
    /// Count of RTO events.
    pub timeouts: u64,
    /// Count of fast-recovery episodes.
    pub fast_recoveries: u64,
}

/// Sender-side state of one TCP subflow (SACK scoreboard variant).
///
/// Field order is deliberate (`repr(C)` keeps the compiler from
/// rearranging it): the scalars every ACK reads and writes — window,
/// sequence edges, retransmission timer — sit first, packed into the
/// leading cache lines; the scoreboard and send metadata follow;
/// rarely-touched counters trail at the end. [`TcpParams`] only seed the
/// timer, so the connection keeps them for re-arming and the sender does
/// not.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct SubflowSender {
    // --- hot: read/written on every ACK ---
    /// Congestion window, packets (fractional growth accumulates).
    pub cwnd: f64,
    /// Slow-start threshold, packets.
    pub ssthresh: f64,
    /// Next new sequence number to send.
    pub next_seq: u64,
    /// Oldest unacknowledged sequence number.
    pub una: u64,
    /// RTT estimate, RTO with backoff, potentially-failed state (seconds).
    pub timer: RtoEstimator,
    /// Monotone count of sequences ever newly SACKed.
    sack_events: u64,
    /// In loss recovery (one window decrease per recovery episode).
    pub in_recovery: bool,
    /// The current recovery was triggered by an RTO: the window collapsed
    /// to the floor and must slow-start back while the holes are repaired
    /// (fast recovery, by contrast, holds the window at the post-decrease
    /// level until the recovery point is reached).
    pub rto_recovery: bool,
    /// Whether a timer is conceptually armed (the simulator tracks the
    /// actual deadline and uses lazy re-scheduling).
    pub rto_armed: bool,
    /// Recovery ends when `una` reaches this point.
    pub recovery_point: u64,
    /// Per-packet send metadata, indexed by `seq - una`.
    meta: VecDeque<SentMeta>,
    /// SACK scoreboard: sacked / lost / retransmitted-out sets.
    board: BitmapScoreboard,
    // --- cold: stats and configuration ---
    /// Growth events of `meta` (allocation accounting).
    meta_allocs: u64,
    /// Retransmit / timeout / recovery counters (stats reads only).
    pub stats: SenderCounters,
}

/// Floor applied to every slow-start threshold, in packets.
///
/// A ssthresh below one MSS is meaningless — `cwnd < ssthresh` could then
/// never hold, permanently disabling slow start — and RFC 5681 §3.1 floors
/// the post-loss threshold at 2 segments. [`SubflowSender::set_ssthresh`]
/// clamps here.
pub const MIN_SSTHRESH_PKTS: f64 = 2.0;

/// The retransmission timer of a subflow that has sent nothing yet.
fn fresh_timer(params: &TcpParams) -> RtoEstimator {
    RtoEstimator::new(INITIAL_RTO, MIN_RTO, params.max_rto.as_secs_f64())
}

impl SubflowSender {
    /// A fresh sender.
    pub fn new(params: &TcpParams) -> Self {
        Self::new_pooled(params, &mut RingPool::default())
    }

    /// Like [`SubflowSender::new`], with scoreboard ring storage drawn
    /// from `pool`.
    pub fn new_pooled(params: &TcpParams, pool: &mut RingPool) -> Self {
        Self {
            cwnd: INITIAL_CWND,
            ssthresh: INITIAL_SSTHRESH,
            next_seq: 0,
            una: 0,
            timer: fresh_timer(params),
            sack_events: 0,
            in_recovery: false,
            rto_recovery: false,
            rto_armed: false,
            recovery_point: 0,
            meta: VecDeque::new(),
            board: BitmapScoreboard::new(pool),
            meta_allocs: 0,
            stats: SenderCounters::default(),
        }
    }

    /// Reset this sender to the state [`SubflowSender::new`] would produce
    /// for `params` — in place. Send metadata keeps its ring
    /// capacity and the scoreboard keeps its bitmap storage, so starting a
    /// new flow in a recycled arena slot is allocation-free; the monotone
    /// allocation counters (`meta_allocs`, scoreboard growth) keep
    /// counting across flows. Per-flow stats reset to zero.
    pub fn reset_for_reuse(&mut self, params: &TcpParams) {
        self.cwnd = INITIAL_CWND;
        self.ssthresh = INITIAL_SSTHRESH;
        self.next_seq = 0;
        self.una = 0;
        self.timer = fresh_timer(params);
        self.sack_events = 0;
        self.in_recovery = false;
        self.rto_recovery = false;
        self.rto_armed = false;
        self.recovery_point = 0;
        self.meta.clear();
        self.board.reset_for_reuse();
        self.stats = SenderCounters::default();
    }

    /// Surrender scoreboard storage into `pool`; the husk must not send
    /// again (the containing arena slot is being tombstoned).
    pub fn gut_into(&mut self, pool: &mut RingPool) {
        self.meta = VecDeque::new();
        self.next_seq = 0;
        self.una = 0;
        self.board.gut_into(pool);
    }

    /// RFC 6675-style pipe: packets believed to be in the network.
    /// Everything sent and unacked, minus what the receiver holds (sacked)
    /// and what the scoreboard wrote off as lost; retransmissions put their
    /// sequence back in the pipe by moving it out of `lost`.
    pub fn pipe(&self) -> f64 {
        let outstanding = self.next_seq - self.una;
        (outstanding - self.board.sacked_len() - self.board.lost_len()) as f64
    }

    /// Whether the window permits sending one more new packet (holes are
    /// always retransmitted first; see [`SubflowSender::next_retransmit`]).
    /// The flight is also bounded at [`MAX_CAP`] packets, the span the
    /// scoreboard rings can represent.
    pub fn can_send_new(&self) -> bool {
        self.board.lost_is_empty()
            && self.pipe() + 1.0 <= self.cwnd + 1e-9
            && self.next_seq - self.una < MAX_CAP
    }

    /// The next lost sequence to retransmit, if the window allows it.
    /// Moves the sequence into the retransmitted set.
    pub fn next_retransmit(&mut self) -> Option<u64> {
        if self.pipe() + 1.0 > self.cwnd + 1e-9 {
            return None;
        }
        self.board.pop_lost_for_retx(self.sack_events)
    }

    /// Record that a *new* packet with the next sequence number, carrying
    /// connection-level data sequence `dsn`, was sent at `now`; returns
    /// the sequence number used and whether this send armed the
    /// retransmission timer (so the caller can schedule the event).
    pub fn on_send_new(&mut self, now: SimTime, dsn: u64) -> (u64, bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert_eq!(self.una + self.meta.len() as u64, seq);
        if self.meta.len() == self.meta.capacity() {
            self.meta_allocs += 1;
        }
        self.meta.push_back(SentMeta::new(now, dsn));
        let newly_armed = !self.rto_armed;
        if newly_armed {
            self.arm_rto();
        }
        (seq, newly_armed)
    }

    /// The data sequence number carried by outstanding packet `seq`
    /// (`None` once the packet is cumulatively acknowledged or for
    /// never-sent sequences).
    pub fn dsn_of(&self, seq: u64) -> Option<u64> {
        let idx = usize::try_from(seq.checked_sub(self.una)?).ok()?;
        self.meta.get(idx).map(|m| m.dsn())
    }

    /// Collect into `out` the outstanding `(seq, dsn)` pairs whose data has
    /// not been reported received on this subflow — the candidates for
    /// reinjection when the subflow is declared potentially failed. Takes
    /// caller-owned scratch (cleared first) so the rare failure transition
    /// stays allocation-free once the scratch has warmed up.
    pub fn stranded(&self, out: &mut Vec<(u64, u64)>) {
        out.clear();
        for s in self.una..self.next_seq {
            if self.board.sacked_contains(s) {
                continue;
            }
            let Some(m) = usize::try_from(s - self.una).ok().and_then(|i| self.meta.get(i))
            else {
                continue;
            };
            if !m.data_acked() {
                out.push((s, m.dsn()));
            }
        }
    }

    /// Record a retransmission of `seq` at `now` (Karn bookkeeping).
    pub fn on_retransmit(&mut self, seq: u64, now: SimTime) {
        self.stats.retransmits += 1;
        if seq >= self.una {
            if let Some(m) =
                usize::try_from(seq - self.una).ok().and_then(|i| self.meta.get_mut(i))
            {
                m.sent_at = now;
                m.dsn_flags |= SentMeta::RETRANSMITTED;
            }
        }
    }

    fn arm_rto(&mut self) {
        self.rto_armed = true;
    }

    fn disarm_rto(&mut self) {
        self.rto_armed = false;
    }

    /// Current (clamped) RTO as simulation time.
    pub fn rto_interval(&self) -> SimTime {
        SimTime::from_secs_f64(self.timer.rto())
    }

    /// Process an incoming ACK: cumulative point `cum` plus SACK ranges.
    ///
    /// Every data sequence number first reported received by this ACK
    /// (cumulatively or via SACK) is appended to `newly_acked_dsns`, so
    /// the connection layer can keep exactly-once data-level accounting
    /// across subflows and reinjections.
    pub fn on_ack(
        &mut self,
        cum: u64,
        sacks: &SackRanges,
        now: SimTime,
        newly_acked_dsns: &mut Vec<u64>,
    ) -> AckOutcome {
        let mut out = AckOutcome::default();
        let mut progressed = false;
        if cum > self.una {
            out.newly_acked = cum - self.una;
            progressed = true;
            // RTT sample from the newest packet this ACK covers, if clean.
            let idx = usize::try_from(cum - 1 - self.una).ok();
            if let Some(m) = idx.and_then(|i| self.meta.get(i)) {
                if !m.retransmitted() {
                    let sample = (now.saturating_sub(m.sent_at)).as_secs_f64();
                    if sample > 0.0 {
                        self.timer.on_sample(sample);
                    }
                }
            }
            // The metadata deque starts at `una`: drop what `cum` covers.
            for _ in self.una..cum {
                if let Some(m) = self.meta.pop_front() {
                    if !m.data_acked() {
                        newly_acked_dsns.push(m.dsn());
                    }
                }
            }
            self.una = cum;
            // Drop scoreboard state below the new cumulative point.
            self.board.advance_to(cum);
            if self.in_recovery && self.una >= self.recovery_point {
                self.in_recovery = false;
                self.rto_recovery = false;
            }
        } else if cum < self.una {
            return out; // stale (reordered) ACK
        }
        // Fold in SACK information.
        for range in sacks.iter().flatten() {
            for seq in range.0.max(self.una)..range.1.min(self.next_seq) {
                if self.board.sack_one(seq) {
                    self.sack_events += 1;
                    progressed = true;
                    let idx = usize::try_from(seq - self.una).ok();
                    if let Some(m) = idx.and_then(|i| self.meta.get_mut(i)) {
                        if !m.data_acked() {
                            m.dsn_flags |= SentMeta::DATA_ACKED;
                            newly_acked_dsns.push(m.dsn());
                        }
                    }
                }
            }
        }
        // Any forward progress proves the path is alive again: clear the
        // RTO backoff run so a potentially-failed subflow revives on the
        // first ACK after an outage ends.
        if progressed {
            self.timer.on_progress();
        }
        // Loss detection (IsLost): a hole is lost once DupThresh packets
        // above it have been SACKed.
        let newly_lost = self.detect_losses();
        if newly_lost && !self.in_recovery {
            self.in_recovery = true;
            self.rto_recovery = false;
            self.stats.fast_recoveries += 1;
            self.recovery_point = self.next_seq;
            out.entered_recovery = true;
        }
        if self.una < self.next_seq {
            self.arm_rto();
            out.rearm_rto = Some(true);
        } else {
            self.disarm_rto();
            out.rearm_rto = Some(false);
        }
        out
    }

    /// Mark holes with ≥ DupThresh SACKed packets above them as lost.
    /// Returns whether any sequence was newly marked.
    fn detect_losses(&mut self) -> bool {
        if self.board.sacked_len() < DUPACK_THRESHOLD {
            return false;
        }
        // The DupThresh-th highest SACKed sequence: every unsacked packet
        // below it has at least DupThresh SACKed packets above. The length
        // guard just above guarantees it exists; if the scoreboard ever
        // disagrees, bail conservatively (mark nothing lost this round).
        let nth = usize::try_from(DUPACK_THRESHOLD)
            .ok()
            .and_then(|t| self.board.nth_highest_sacked(t - 1));
        let Some(cutoff) = nth else {
            debug_assert!(false, "sacked_len() >= DupThresh guarantees a DupThresh-th highest");
            return false;
        };
        let mut any = self.board.mark_holes_lost(self.una, cutoff);
        // RACK-style: a retransmission with ≥ DupThresh *new* SACKs since
        // it went out was lost again.
        if self.board.remark_lost_retx(cutoff, self.sack_events, DUPACK_THRESHOLD) {
            any = true;
        }
        any
    }

    /// Handle an RTO firing (the caller verified generation freshness).
    /// Returns whether anything was outstanding (i.e. the timeout is real);
    /// the caller then applies the decrease and pumps retransmissions.
    pub fn on_rto(&mut self, floor: f64) -> bool {
        if self.una >= self.next_seq {
            self.disarm_rto();
            return false;
        }
        self.stats.timeouts += 1;
        self.timer.on_timeout();
        // Everything unsacked is presumed lost; the network is drained.
        self.board.rto_collapse(self.una, self.next_seq);
        self.in_recovery = true;
        self.rto_recovery = true;
        self.recovery_point = self.next_seq;
        self.cwnd = floor.max(1.0);
        // Karn: every outstanding packet's RTT sample is now unreliable.
        for m in &mut self.meta {
            m.dsn_flags |= SentMeta::RETRANSMITTED;
        }
        self.arm_rto();
        true
    }

    /// Set the slow-start threshold after a loss event (the congestion
    /// controller decides the level; the subflow just records it).
    pub fn set_ssthresh(&mut self, ssthresh: f64) {
        // NaN-safe: `f64::max` propagates the floor, not the NaN.
        self.ssthresh = ssthresh.max(MIN_SSTHRESH_PKTS);
    }

    /// Whether congestion-window growth applies right now: always outside
    /// recovery, and during RTO recovery (which slow-starts back); frozen
    /// during fast recovery.
    pub fn growth_allowed(&self) -> bool {
        !self.in_recovery || self.rto_recovery
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Grow the window by `amount` packets (already computed by the caller
    /// from the slow-start rule or the coupled algorithm).
    pub fn grow(&mut self, amount: f64) {
        self.cwnd += amount;
    }

    /// Shrink the window to `level` (a loss decrease), honoring `floor`.
    pub fn shrink_to(&mut self, level: f64, floor: f64) {
        self.cwnd = level.max(floor);
        self.set_ssthresh(self.cwnd);
    }

    /// Allocation events since creation: send-metadata growth plus
    /// scoreboard growth/spills. Feeds [`crate::SimPerf::hot_allocs`].
    pub fn alloc_events(&self) -> u64 {
        self.meta_allocs + self.board.alloc_events()
    }

    /// Heap bytes held: `(scoreboard rings, send metadata)` (see
    /// [`crate::MemBytes`]).
    pub fn heap_bytes(&self) -> (u64, u64) {
        (self.board.heap_bytes(), crate::mem::deque_bytes(&self.meta))
    }

    /// Warmed capacity of the send-metadata ring, in packets. The arena
    /// classes released windows by this envelope so a recycled window is
    /// handed to a flow whose storage is already sized for it.
    pub(crate) fn meta_capacity(&self) -> u64 {
        self.meta.capacity() as u64
    }

    /// All data handed to this subflow has been acknowledged.
    #[cfg(test)]
    pub fn fully_acked(&self) -> bool {
        self.una == self.next_seq
    }

    /// Capacities of the sacked and lost rings, in bits.
    #[cfg(test)]
    pub(crate) fn ring_bits(&self) -> [u64; 2] {
        self.board.ring_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_SACKS: SackRanges = [None; MAX_SACK_RANGES];

    fn sender() -> SubflowSender {
        SubflowSender::new(&TcpParams::default())
    }

    fn sacks(ranges: &[(u64, u64)]) -> SackRanges {
        let mut out = NO_SACKS;
        for (i, &r) in ranges.iter().take(MAX_SACK_RANGES).enumerate() {
            out[i] = Some(r);
        }
        out
    }

    /// The floor is an invariant, not a one-shot: no sequence of decreases
    /// (shrink_to with degenerate levels, RTO plus controller-set
    /// thresholds) may drive ssthresh below one MSS.
    #[test]
    fn ssthresh_floor_survives_repeated_decreases() {
        let mut tx = sender();
        for level in [1.0, 0.25, 0.0, -3.0, f64::NAN, 1e-9] {
            tx.shrink_to(level, 1.0);
            assert!(
                tx.ssthresh >= MIN_SSTHRESH_PKTS,
                "shrink_to({level}) left ssthresh at {}",
                tx.ssthresh
            );
            tx.set_ssthresh(level);
            assert!(
                tx.ssthresh >= MIN_SSTHRESH_PKTS,
                "set_ssthresh({level}) left ssthresh at {}",
                tx.ssthresh
            );
        }
        // The RTO path: the caller applies the controller's level afterwards.
        tx.on_send_new(SimTime::ZERO, 0);
        assert!(tx.on_rto(0.0));
        tx.set_ssthresh(0.1);
        assert!(tx.ssthresh >= MIN_SSTHRESH_PKTS);
    }

    #[test]
    fn receiver_in_order_delivery() {
        let mut rx: SubflowReceiver = SubflowReceiver::default();
        assert_eq!(rx.on_data(0).0, 1);
        assert_eq!(rx.on_data(1).0, 2);
        assert_eq!(rx.delivered(), 2);
    }

    #[test]
    fn receiver_out_of_order_reports_sack_ranges() {
        let mut rx: SubflowReceiver = SubflowReceiver::default();
        rx.on_data(0);
        // Packet 1 lost; 2, 3 and 5 arrive.
        let (cum, dup, s) = rx.on_data(2);
        assert_eq!((cum, dup), (1, true));
        assert_eq!(s[0], Some((2, 3)));
        let (_, _, s) = rx.on_data(3);
        assert_eq!(s[0], Some((2, 4)));
        let (_, _, s) = rx.on_data(5);
        assert_eq!(s[0], Some((2, 4)));
        assert_eq!(s[1], Some((5, 6)));
        // Retransmitted 1 fills the hole up to 4.
        let (cum, dup, s) = rx.on_data(1);
        assert_eq!((cum, dup), (4, false));
        assert_eq!(s[0], Some((5, 6)));
    }

    #[test]
    fn receiver_ignores_stale_duplicates() {
        let mut rx: SubflowReceiver = SubflowReceiver::default();
        rx.on_data(0);
        let (cum, dup, _) = rx.on_data(0);
        assert_eq!((cum, dup), (1, true));
    }

    #[test]
    fn sender_window_gates_new_packets() {
        let mut tx = sender();
        assert!(tx.can_send_new());
        tx.on_send_new(SimTime::ZERO, 0);
        assert!(tx.can_send_new());
        tx.on_send_new(SimTime::ZERO, 0);
        // INITIAL_CWND = 2: third packet must wait.
        assert!(!tx.can_send_new());
    }

    #[test]
    fn cumulative_ack_advances_and_samples_rtt() {
        let mut tx = sender();
        tx.on_send_new(SimTime::ZERO, 0);
        tx.on_send_new(SimTime::ZERO, 0);
        let out = tx.on_ack(2, &NO_SACKS, SimTime::from_millis(50), &mut Vec::new());
        assert_eq!(out.newly_acked, 2);
        assert_eq!(tx.una, 2);
        let srtt = tx.timer.srtt().expect("sample taken");
        assert!((srtt - 0.050).abs() < 1e-9);
        assert!(tx.fully_acked());
        assert_eq!(out.rearm_rto, Some(false));
    }

    #[test]
    fn three_sacked_packets_mark_the_hole_lost_once() {
        let mut tx = sender();
        tx.cwnd = 10.0;
        for _ in 0..6 {
            tx.on_send_new(SimTime::ZERO, 0);
        }
        // Packet 0 lost; 1..4 SACKed one at a time.
        let out = tx.on_ack(0, &sacks(&[(1, 2)]), SimTime::from_millis(10), &mut Vec::new());
        assert!(!out.entered_recovery);
        let out = tx.on_ack(0, &sacks(&[(1, 3)]), SimTime::from_millis(11), &mut Vec::new());
        assert!(!out.entered_recovery);
        let out = tx.on_ack(0, &sacks(&[(1, 4)]), SimTime::from_millis(12), &mut Vec::new());
        assert!(out.entered_recovery, "DupThresh SACKed above the hole");
        assert!(tx.in_recovery);
        // The hole is queued for retransmission exactly once.
        assert_eq!(tx.next_retransmit(), Some(0));
        assert_eq!(tx.next_retransmit(), None);
        let out = tx.on_ack(0, &sacks(&[(1, 5)]), SimTime::from_millis(13), &mut Vec::new());
        assert!(!out.entered_recovery, "one decrease per episode");
    }

    #[test]
    fn pipe_excludes_sacked_and_lost() {
        let mut tx = sender();
        tx.cwnd = 20.0;
        for _ in 0..10 {
            tx.on_send_new(SimTime::ZERO, 0);
        }
        assert_eq!(tx.pipe(), 10.0);
        tx.on_ack(0, &sacks(&[(1, 5)]), SimTime::from_millis(10), &mut Vec::new());
        // 4 sacked, packet 0 lost (3+ above), 9 - 4 - 1 ... total out 10.
        assert_eq!(tx.pipe(), 10.0 - 4.0 - 1.0);
        // Retransmitting the hole puts it back in the pipe.
        assert_eq!(tx.next_retransmit(), Some(0));
        assert_eq!(tx.pipe(), 6.0);
    }

    #[test]
    fn burst_loss_is_retransmitted_within_window_not_one_per_rtt() {
        let mut tx = sender();
        tx.cwnd = 40.0;
        for _ in 0..40 {
            tx.on_send_new(SimTime::ZERO, 0);
        }
        // Packets 0..20 lost, 20..40 received.
        tx.on_ack(0, &sacks(&[(20, 40)]), SimTime::from_millis(10), &mut Vec::new());
        assert!(tx.in_recovery);
        let mut retx = Vec::new();
        while let Some(seq) = tx.next_retransmit() {
            retx.push(seq);
        }
        // Pipe was 40-20(sacked)-20(lost)=0, so the whole burst fits the
        // window immediately.
        assert_eq!(retx.len(), 20, "all holes retransmitted at once");
        assert_eq!(retx[0], 0);
        assert_eq!(retx[19], 19);
    }

    #[test]
    fn recovery_exits_at_recovery_point() {
        let mut tx = sender();
        tx.cwnd = 10.0;
        for _ in 0..8 {
            tx.on_send_new(SimTime::ZERO, 0);
        }
        tx.on_ack(0, &sacks(&[(1, 5)]), SimTime::from_millis(10), &mut Vec::new());
        assert!(tx.in_recovery);
        assert_eq!(tx.recovery_point, 8);
        tx.on_ack(5, &NO_SACKS, SimTime::from_millis(20), &mut Vec::new());
        assert!(tx.in_recovery, "partial ACK keeps recovery");
        tx.on_ack(8, &NO_SACKS, SimTime::from_millis(30), &mut Vec::new());
        assert!(!tx.in_recovery);
    }

    #[test]
    fn rto_marks_everything_lost_and_backs_off() {
        let mut tx = sender();
        tx.cwnd = 16.0;
        for _ in 0..10 {
            tx.on_send_new(SimTime::ZERO, 0);
        }
        let before_rto = tx.timer.rto();
        assert!(tx.on_rto(1.0));
        assert!((tx.cwnd - 1.0).abs() < 1e-12);
        assert!(tx.timer.rto() > before_rto, "exponential backoff");
        assert_eq!(tx.stats.timeouts, 1);
        // Window 1: exactly one retransmission allowed now.
        assert_eq!(tx.next_retransmit(), Some(0));
        assert_eq!(tx.next_retransmit(), None, "window of 1 is full");
    }

    #[test]
    fn rto_with_nothing_outstanding_is_spurious() {
        let mut tx = sender();
        assert!(!tx.on_rto(1.0));
        assert_eq!(tx.stats.timeouts, 0);
    }

    #[test]
    fn karns_rule_skips_retransmitted_samples() {
        let mut tx = sender();
        tx.on_send_new(SimTime::ZERO, 0);
        tx.on_retransmit(0, SimTime::from_millis(10));
        tx.on_ack(1, &NO_SACKS, SimTime::from_millis(15), &mut Vec::new());
        assert!(tx.timer.srtt().is_none(), "no sample from a retransmitted packet");
    }

    #[test]
    fn stale_reordered_ack_is_ignored() {
        let mut tx = sender();
        tx.cwnd = 10.0;
        for _ in 0..5 {
            tx.on_send_new(SimTime::ZERO, 0);
        }
        tx.on_ack(4, &NO_SACKS, SimTime::from_millis(10), &mut Vec::new());
        let out = tx.on_ack(2, &NO_SACKS, SimTime::from_millis(11), &mut Vec::new());
        assert_eq!(out.newly_acked, 0);
        assert_eq!(tx.una, 4);
    }

    #[test]
    fn slow_start_flag_follows_ssthresh() {
        let mut tx = sender();
        assert!(tx.in_slow_start());
        tx.ssthresh = 8.0;
        tx.cwnd = 10.0;
        assert!(!tx.in_slow_start());
    }

    #[test]
    fn shrink_respects_floor() {
        let mut tx = sender();
        tx.cwnd = 12.0;
        tx.shrink_to(-5.0, 1.0); // COUPLED's decrease can go negative
        assert!((tx.cwnd - 1.0).abs() < 1e-12);
        assert!(tx.ssthresh >= 2.0);
    }

    #[test]
    fn cumulative_ack_clears_scoreboard_below_it() {
        let mut tx = sender();
        tx.cwnd = 20.0;
        for _ in 0..10 {
            tx.on_send_new(SimTime::ZERO, 0);
        }
        tx.on_ack(0, &sacks(&[(2, 8)]), SimTime::from_millis(10), &mut Vec::new());
        assert!(tx.in_recovery);
        assert_eq!(tx.next_retransmit(), Some(0));
        assert_eq!(tx.next_retransmit(), Some(1));
        tx.on_ack(10, &NO_SACKS, SimTime::from_millis(20), &mut Vec::new());
        assert_eq!(tx.pipe(), 0.0);
        assert!(tx.fully_acked());
        assert!(!tx.in_recovery);
    }

    #[test]
    fn each_dsn_is_reported_acked_exactly_once() {
        let mut tx = sender();
        tx.cwnd = 10.0;
        for dsn in [100, 101, 102, 103] {
            tx.on_send_new(SimTime::ZERO, dsn);
        }
        // SACK packet 2 (dsn 102) first, then cum-ack everything: dsn 102
        // must not be reported twice.
        let mut acked = Vec::new();
        tx.on_ack(0, &sacks(&[(2, 3)]), SimTime::from_millis(5), &mut acked);
        assert_eq!(acked, vec![102]);
        acked.clear();
        tx.on_ack(4, &NO_SACKS, SimTime::from_millis(10), &mut acked);
        assert_eq!(acked, vec![100, 101, 103]);
    }

    #[test]
    fn stranded_excludes_sacked_and_acked_data() {
        let mut tx = sender();
        tx.cwnd = 10.0;
        for dsn in [7, 8, 9, 10] {
            tx.on_send_new(SimTime::ZERO, dsn);
        }
        tx.on_ack(1, &sacks(&[(2, 3)]), SimTime::from_millis(5), &mut Vec::new());
        // seq 0 (dsn 7) cum-acked, seq 2 (dsn 9) sacked → stranded: 1, 3.
        let mut stranded = vec![(99, 99)]; // stale content must be cleared
        tx.stranded(&mut stranded);
        assert_eq!(stranded, vec![(1, 8), (3, 10)]);
        assert_eq!(tx.dsn_of(1), Some(8));
        assert_eq!(tx.dsn_of(0), None, "cum-acked metadata is gone");
    }

    #[test]
    fn sack_only_progress_revives_a_potentially_failed_subflow() {
        let mut tx = sender();
        tx.cwnd = 4.0;
        for dsn in 0..4 {
            tx.on_send_new(SimTime::ZERO, dsn);
        }
        assert!(tx.on_rto(1.0));
        assert!(tx.on_rto(1.0));
        assert!(tx.timer.potentially_failed(), "two consecutive timeouts");
        // No cumulative advance, but the path demonstrably works.
        tx.on_ack(0, &sacks(&[(1, 2)]), SimTime::from_millis(10), &mut Vec::new());
        assert!(!tx.timer.potentially_failed(), "first ACK after restore revives");
    }

    #[test]
    fn retransmission_lost_again_is_remarked_without_reneging() {
        // A retransmitted hole that is itself lost must be re-marked once
        // DupThresh *new* SACK events accumulate — and re-marking must not
        // renege already-SACKed sequences back into the pipe.
        let mut tx = sender();
        tx.cwnd = 20.0;
        for _ in 0..12 {
            tx.on_send_new(SimTime::ZERO, 0);
        }
        // Hole at 0, SACKs 1..4 mark it lost; retransmit it.
        tx.on_ack(0, &sacks(&[(1, 4)]), SimTime::from_millis(10), &mut Vec::new());
        assert_eq!(tx.next_retransmit(), Some(0));
        tx.on_retransmit(0, SimTime::from_millis(11));
        let pipe_after_retx = tx.pipe();
        // Three more *new* SACKs (4..7): the retransmission is declared
        // lost again and queued once more.
        tx.on_ack(0, &sacks(&[(1, 7)]), SimTime::from_millis(12), &mut Vec::new());
        assert_eq!(tx.next_retransmit(), Some(0), "re-marked after 3 new SACKs");
        assert_eq!(tx.next_retransmit(), None, "exactly once");
        // No reneging: every SACKed sequence stays out of the pipe.
        assert!(tx.pipe() <= pipe_after_retx, "re-mark cannot grow the pipe");
        // Re-delivering identical SACK ranges changes nothing.
        let fp_before = tx.pipe();
        let ev_before = tx.sack_events;
        tx.on_ack(0, &sacks(&[(1, 7)]), SimTime::from_millis(13), &mut Vec::new());
        assert_eq!(tx.sack_events, ev_before, "duplicate SACKs are no-ops");
        assert_eq!(tx.pipe().to_bits(), fp_before.to_bits());
    }

    #[test]
    fn receiver_sack_ranges_are_the_lowest_runs_in_order() {
        let mut rx: SubflowReceiver = SubflowReceiver::default();
        rx.on_data(0);
        for s in [2, 3, 5, 8] {
            rx.on_data(s);
        }
        let (_, _, r) = rx.on_data(9);
        assert_eq!(r, [Some((2, 4)), Some((5, 6)), Some((8, 10)), None]);
    }

    #[test]
    fn receiver_sack_ranges_stop_after_four_runs() {
        let mut rx: SubflowReceiver = SubflowReceiver::default();
        for s in [1, 3, 5, 7, 9] {
            rx.on_data(s);
        }
        let (_, _, r) = rx.on_data(11);
        assert_eq!(r, [Some((1, 2)), Some((3, 4)), Some((5, 6)), Some((7, 8))]);
    }

    /// Everything observable about a sender, bit-exact, for comparing a
    /// recycled sender with a fresh one.
    #[derive(Debug, PartialEq, Eq)]
    struct Fingerprint {
        cwnd: u64,
        ssthresh: u64,
        una: u64,
        next_seq: u64,
        pipe: u64,
        rto: u64,
        srtt: Option<u64>,
        sack_events: u64,
        flags: (bool, bool, bool),
        recovery_point: u64,
        backoffs: u32,
        sacked_len: u64,
        lost_len: u64,
        retransmits: u64,
        timeouts: u64,
        stranded: Vec<(u64, u64)>,
    }

    fn fingerprint(tx: &SubflowSender) -> Fingerprint {
        let mut stranded = Vec::new();
        tx.stranded(&mut stranded);
        Fingerprint {
            cwnd: tx.cwnd.to_bits(),
            ssthresh: tx.ssthresh.to_bits(),
            una: tx.una,
            next_seq: tx.next_seq,
            pipe: tx.pipe().to_bits(),
            rto: tx.timer.rto().to_bits(),
            srtt: tx.timer.srtt().map(f64::to_bits),
            sack_events: tx.sack_events,
            flags: (tx.in_recovery, tx.rto_recovery, tx.rto_armed),
            recovery_point: tx.recovery_point,
            backoffs: tx.timer.backoffs(),
            sacked_len: tx.board.sacked_len(),
            lost_len: tx.board.lost_len(),
            retransmits: tx.stats.retransmits,
            timeouts: tx.stats.timeouts,
            stranded,
        }
    }

    use proptest::prelude::*;

    /// Drive a sender through a script, then reset it for reuse and replay
    /// a second script on it alongside a genuinely fresh sender: every
    /// observable bit must match — slot recycling may not leak any state
    /// from the previous flow.
    fn assert_reuse_equals_fresh(first: &[(u8, u8, u8, u8)], second: &[(u8, u8, u8, u8)]) {
        let params = TcpParams::default();
        let mut reused: SubflowSender = SubflowSender::new(&params);
        let mut now = SimTime::ZERO;
        let mut dsn = 0u64;
        for &(op, x, _, _) in first {
            now += SimTime::from_micros(700);
            match op % 3 {
                0 => {
                    for _ in 0..(x % 8 + 1) {
                        if !reused.can_send_new() {
                            break;
                        }
                        reused.on_send_new(now, dsn);
                        dsn += 1;
                    }
                }
                1 => {
                    let cum = reused.una + (x as u64 % (reused.next_seq - reused.una + 1));
                    let r = sacks(&[(cum + 1, cum + 3)]);
                    reused.on_ack(cum, &r, now, &mut Vec::new());
                }
                _ => {
                    reused.on_rto(1.0);
                    while let Some(seq) = reused.next_retransmit() {
                        reused.on_retransmit(seq, now);
                    }
                }
            }
        }
        reused.reset_for_reuse(&params);
        let mut fresh: SubflowSender = SubflowSender::new(&params);
        let mut now = SimTime::ZERO;
        let mut dsn = 0u64;
        for (step, &(op, x, y, z)) in second.iter().enumerate() {
            now += SimTime::from_micros(500 + x as u64 * 97);
            match op % 4 {
                0 => {
                    for _ in 0..(x % 8 + 1) {
                        assert_eq!(reused.can_send_new(), fresh.can_send_new(), "step {step}");
                        if !fresh.can_send_new() {
                            break;
                        }
                        assert_eq!(
                            reused.on_send_new(now, dsn),
                            fresh.on_send_new(now, dsn),
                            "step {step}"
                        );
                        dsn += 1;
                    }
                }
                1 => {
                    let outstanding = fresh.next_seq - fresh.una;
                    let cum = fresh.una + (x as u64 % (outstanding + 1));
                    let s1 = cum + 1 + (y as u64 % 16);
                    let ranges = sacks(&[(s1, s1 + 1 + z as u64 % 8)]);
                    let (mut da, mut db) = (Vec::new(), Vec::new());
                    reused.on_ack(cum, &ranges, now, &mut da);
                    fresh.on_ack(cum, &ranges, now, &mut db);
                    assert_eq!(da, db, "step {step}: newly-acked dsns");
                }
                2 => {
                    assert_eq!(reused.on_rto(1.0), fresh.on_rto(1.0), "step {step}");
                }
                _ => loop {
                    let (ra, rb) = (reused.next_retransmit(), fresh.next_retransmit());
                    assert_eq!(ra, rb, "step {step}");
                    let Some(seq) = ra else { break };
                    reused.on_retransmit(seq, now);
                    fresh.on_retransmit(seq, now);
                },
            }
            assert_eq!(
                fingerprint(&reused),
                fingerprint(&fresh),
                "step {step}: recycled slot leaked state"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn a_reset_sender_is_bit_identical_to_a_fresh_one(
            first in prop::collection::vec(
                (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..80),
            second in prop::collection::vec(
                (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..120),
        ) {
            assert_reuse_equals_fresh(&first, &second);
        }
    }

    #[test]
    fn receiver_reset_forgets_prior_flow_completely() {
        let mut rx: SubflowReceiver = SubflowReceiver::default();
        rx.on_data(0);
        rx.on_data(5);
        rx.on_data(9);
        rx.reset_for_reuse();
        assert_eq!(rx.delivered(), 0);
        assert!(!rx.contains(5) && !rx.contains(9));
        let (cum, dup, s) = rx.on_data(0);
        assert_eq!((cum, dup), (1, false));
        assert_eq!(s[0], None);
    }

    #[test]
    fn scoreboard_survives_many_ring_wraps_at_max_window() {
        // Deterministic long-run: a 64-packet flight (ring capacity 256
        // bits) driven far past the ring size, with a loss pattern in
        // every third congestion epoch. Each loss is repaired exactly, and
        // once warm, wrapping the ring allocates nothing.
        let mut tx = sender();
        tx.cwnd = 64.0;
        let mut now = SimTime::ZERO;
        let mut warmed_allocs = 0;
        for epoch in 0u64..200 {
            if epoch == 20 {
                warmed_allocs = tx.alloc_events();
            }
            now += SimTime::from_millis(10);
            // Fill the window, at most 64 packets.
            while tx.can_send_new() && tx.next_seq - tx.una < 64 {
                let dsn = tx.next_seq;
                tx.on_send_new(now, dsn);
            }
            let una = tx.una;
            let sent = tx.next_seq;
            // Every 3rd epoch: drop the first two packets of the window,
            // SACK the rest, recover; otherwise ack everything.
            if epoch % 3 == 0 && sent - una > 4 {
                let r = sacks(&[(una + 2, sent)]);
                tx.on_ack(una, &r, now, &mut Vec::new());
                assert!(tx.in_recovery, "epoch {epoch}");
                let mut retx = Vec::new();
                while let Some(seq) = tx.next_retransmit() {
                    tx.on_retransmit(seq, now);
                    retx.push(seq);
                }
                assert_eq!(retx, [una, una + 1], "epoch {epoch}: exactly the two holes");
                now += SimTime::from_millis(10);
            }
            let out = tx.on_ack(sent, &NO_SACKS, now, &mut Vec::new());
            assert_eq!(out.newly_acked, sent - una, "epoch {epoch}");
            assert!(tx.fully_acked() && !tx.in_recovery, "epoch {epoch}");
        }
        assert!(tx.next_seq > 8_000, "ran far past the 256-bit ring: {}", tx.next_seq);
        assert_eq!(tx.ring_bits(), [256; 2], "a 64-packet flight never grows the ring");
        assert_eq!(
            tx.alloc_events(),
            warmed_allocs,
            "after warmup, wrapping the ring forever allocates nothing"
        );
    }

    #[test]
    fn steady_state_ack_path_stops_allocating() {
        // After the first few windows warm the metadata ring up, a loss-free
        // send/ack cycle must not allocate at all.
        let mut tx = sender();
        tx.cwnd = 32.0;
        let mut now = SimTime::ZERO;
        let mut scratch = Vec::with_capacity(64);
        for _ in 0..10 {
            now += SimTime::from_millis(1);
            while tx.can_send_new() {
                let dsn = tx.next_seq;
                tx.on_send_new(now, dsn);
            }
            scratch.clear();
            tx.on_ack(tx.next_seq, &NO_SACKS, now, &mut scratch);
        }
        let warmed = tx.alloc_events();
        for _ in 0..1000 {
            now += SimTime::from_millis(1);
            while tx.can_send_new() {
                let dsn = tx.next_seq;
                tx.on_send_new(now, dsn);
            }
            scratch.clear();
            tx.on_ack(tx.next_seq, &NO_SACKS, now, &mut scratch);
        }
        assert_eq!(tx.alloc_events(), warmed, "zero allocations in steady state");
    }
}
