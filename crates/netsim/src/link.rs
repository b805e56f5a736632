//! Links: rate, propagation delay, drop-tail queue, optional random loss.

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

use crate::packet::Packet;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Identifier of a link within one [`Simulator`](crate::Simulator).
pub type LinkId = usize;

/// Links a path can hold without spilling to the heap. FatTree/BCube paths
/// top out at 7 hops, so in practice every route is inline.
const INLINE_PATH: usize = 8;

/// A route: the links a packet traverses in order. Stored inline for up to
/// [`INLINE_PATH`] hops so the per-hop link lookup on the
/// simulator's hot path touches no separately-allocated buffer.
#[derive(Debug, Clone)]
pub(crate) enum LinkPath {
    /// The common case: the whole route in the struct itself.
    Inline { len: u8, ids: [LinkId; INLINE_PATH] },
    /// Fallback for unusually long routes.
    Heap(Vec<LinkId>),
}

impl From<&[LinkId]> for LinkPath {
    fn from(v: &[LinkId]) -> Self {
        if v.len() <= INLINE_PATH {
            let mut ids = [0; INLINE_PATH];
            ids[..v.len()].copy_from_slice(v);
            LinkPath::Inline { len: crate::cast::path_u8(v.len()), ids }
        } else {
            LinkPath::Heap(v.to_vec())
        }
    }
}

impl LinkPath {
    pub(crate) fn as_slice(&self) -> &[LinkId] {
        match self {
            LinkPath::Inline { len, ids } => &ids[..*len as usize],
            LinkPath::Heap(v) => v,
        }
    }

    /// Heap bytes of a spilled route (none when inline).
    pub(crate) fn heap_bytes(&self) -> u64 {
        match self {
            LinkPath::Inline { .. } => 0,
            LinkPath::Heap(v) => crate::mem::vec_bytes(v),
        }
    }
}

/// Static configuration of a link.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Transmission rate in bits per second.
    pub rate_bps: f64,
    /// One-way propagation delay.
    pub delay: SimTime,
    /// Drop-tail queue capacity in packets (excluding the packet currently
    /// being serialized).
    pub queue_pkts: usize,
    /// Bernoulli random-loss probability applied on enqueue, for modelling
    /// lossy wireless links. 0.0 for wired links.
    pub loss_prob: f64,
}

impl LinkSpec {
    /// A wired link specified in megabits per second.
    ///
    /// # Panics
    /// Panics on non-positive rate or invalid loss probability.
    pub fn mbps(mbps: f64, delay: SimTime, queue_pkts: usize) -> Self {
        Self::new(mbps * 1e6, delay, queue_pkts)
    }

    /// A link specified in packets per second of 1500-byte packets, the
    /// unit several of the paper's scenarios use (e.g. "capacity 1000
    /// pkt/s" in Fig. 8, "C1 = 250 pkt/s" in §5).
    pub fn pkts_per_sec(pps: f64, delay: SimTime, queue_pkts: usize) -> Self {
        Self::new(pps * crate::packet::DEFAULT_PACKET_SIZE as f64 * 8.0, delay, queue_pkts)
    }

    /// A link with an explicit bit rate.
    pub fn new(rate_bps: f64, delay: SimTime, queue_pkts: usize) -> Self {
        assert!(rate_bps > 0.0 && rate_bps.is_finite(), "rate must be positive");
        Self { rate_bps, delay, queue_pkts, loss_prob: 0.0 }
    }

    /// Add Bernoulli random loss with probability `p` on enqueue. `p = 1`
    /// is valid and models total loss (every packet dropped) — distinct
    /// from a *down* link only in accounting.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0,1]");
        self.loss_prob = p;
        self
    }

    /// Serialization time of one packet on this link.
    pub fn tx_time(&self) -> SimTime {
        let bits = f64::from(crate::packet::DEFAULT_PACKET_SIZE) * 8.0;
        SimTime::from_secs_f64(bits / self.rate_bps)
    }
}

/// Counters a link accumulates over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets offered to the link (enqueue attempts).
    pub offered: u64,
    /// Packets dropped because the queue was full.
    pub dropped_queue: u64,
    /// Packets dropped by the random-loss process (Bernoulli or
    /// Gilbert–Elliott).
    pub dropped_random: u64,
    /// Packets dropped because the link was down: in-flight arrivals at a
    /// down link plus the queue flushed when the link went down.
    pub dropped_down: u64,
    /// Packets fully transmitted.
    pub transmitted: u64,
}

impl LinkStats {
    /// Total packets dropped for any reason: queue overflow
    /// (`dropped_queue`) + random loss (`dropped_random`) + down-link
    /// drops (`dropped_down`).
    pub fn dropped(&self) -> u64 {
        self.dropped_queue + self.dropped_random + self.dropped_down
    }

    /// Loss rate: drops / offered, where drops include **all three**
    /// categories (queue overflow, random loss, down-link). Diff
    /// `dropped_queue` / `dropped_random` / `dropped_down` directly to
    /// attribute loss to congestion vs. channel vs. outage. Zero if
    /// nothing was offered.
    pub fn loss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.offered as f64
        }
    }

    /// Mean utilization over `elapsed`, as delivered bits / capacity
    /// (every packet is [`crate::DEFAULT_PACKET_SIZE`] bytes).
    pub fn utilization(&self, rate_bps: f64, elapsed: SimTime) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            let bits = self.transmitted as f64 * f64::from(crate::packet::DEFAULT_PACKET_SIZE) * 8.0;
            bits / (rate_bps * secs)
        }
    }
}

/// Live state of a link's Gilbert–Elliott loss chain, when one is
/// installed by a fault plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GeState {
    pub params: crate::fault::GeParams,
    /// Whether the chain is currently in the bad (bursty-loss) state.
    pub bad: bool,
}

/// The state only faults read or write, boxed on a link's first fault so
/// that every other link pays one null pointer for it. While a link has
/// none, it is up, has no Gilbert–Elliott chain, and its nominal rate and
/// queue capacity are its current ones.
#[derive(Debug)]
pub(crate) struct LinkCold {
    /// The rate the link returns to when a brownout ends; updated by
    /// lasting rate changes ([`crate::FaultAction::SetRate`]).
    pub nominal_rate_bps: f64,
    /// The queue capacity restored when a queue squeeze ends.
    pub nominal_queue_pkts: u32,
    /// If `true`, packets are dropped at enqueue regardless of queue space —
    /// models total loss of connectivity (walking out of WiFi coverage).
    pub down: bool,
    /// Gilbert–Elliott chain, when a bursty-loss episode is active.
    pub ge: Option<GeState>,
}

/// Runtime state of a link: its [`LinkSpec`] stored field by field, the
/// packets it holds and its counters. A FatTree world holds thousands, so
/// the record is kept at 136 bytes on 64-bit targets.
#[derive(Debug)]
pub(crate) struct Link {
    /// Transmission rate in bits per second; fault plans change it mid-run
    /// (mobility, Fig. 17) through [`Self::set_rate_bps`].
    rate_bps: f64,
    /// One-way propagation delay.
    pub delay: SimTime,
    /// Bernoulli random-loss probability applied on enqueue.
    pub loss_prob: f64,
    /// Drop-tail limit: packets that may wait behind the one in service.
    pub queue_pkts: u32,
    /// The packet being serialized, if any: the link is busy while it is
    /// `Some`. It stays in the record rather than at the front of `queue`
    /// so that an idle link's first packet touches no other cache line.
    pub in_service: Option<Packet>,
    /// Waiting packets, at most `queue_pkts`. [`Self::reserve_slot`]
    /// grows the buffer.
    pub queue: VecDeque<Packet>,
    /// Fault-only state, boxed on first use.
    pub cold: Option<Box<LinkCold>>,
    /// Counters.
    pub stats: LinkStats,
    /// [`LinkSpec::tx_time`] at the current rate, refreshed by every rate
    /// change.
    tx_time: SimTime,
}

impl Link {
    pub(crate) fn new(spec: LinkSpec) -> Self {
        Self {
            rate_bps: spec.rate_bps,
            delay: spec.delay,
            loss_prob: spec.loss_prob,
            queue_pkts: crate::cast::queue_u32(spec.queue_pkts),
            in_service: None,
            queue: VecDeque::new(),
            cold: None,
            stats: LinkStats::default(),
            tx_time: spec.tx_time(),
        }
    }

    /// The link's current configuration.
    pub(crate) fn spec(&self) -> LinkSpec {
        LinkSpec {
            rate_bps: self.rate_bps,
            delay: self.delay,
            queue_pkts: self.queue_pkts as usize,
            loss_prob: self.loss_prob,
        }
    }

    /// Change the transmission rate.
    pub(crate) fn set_rate_bps(&mut self, rate_bps: f64) {
        self.rate_bps = rate_bps;
        self.tx_time = self.spec().tx_time();
    }

    /// The fault-only state, boxed now if no fault has touched the link.
    pub(crate) fn cold(&mut self) -> &mut LinkCold {
        self.cold.get_or_insert_with(|| {
            Box::new(LinkCold {
                nominal_rate_bps: self.rate_bps,
                nominal_queue_pkts: self.queue_pkts,
                down: false,
                ge: None,
            })
        })
    }

    /// Make room in the waiting buffer for one more packet when it is
    /// full, doubling it (from 4) but never past the `queue_pkts` packets
    /// the limit lets wait. Call only while fewer than `queue_pkts` wait.
    pub(crate) fn reserve_slot(&mut self) {
        let len = self.queue.len();
        if len == self.queue.capacity() {
            let want = (2 * len).max(4).min(self.queue_pkts as usize);
            self.queue.reserve_exact(want - len);
        }
    }

    /// `spec().tx_time()`, with the division and rounding paid once per
    /// rate rather than once per packet.
    pub(crate) fn tx_time(&self) -> SimTime {
        self.tx_time
    }

    /// Heap bytes of the fault-only box, if any.
    pub(crate) fn cold_bytes(&self) -> u64 {
        self.cold.as_ref().map_or(0, |_| std::mem::size_of::<LinkCold>() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pkts_per_sec_matches_mbps_for_1500_byte_packets() {
        let a = LinkSpec::pkts_per_sec(1000.0, SimTime::ZERO, 100);
        let b = LinkSpec::mbps(12.0, SimTime::ZERO, 100);
        assert!((a.rate_bps - b.rate_bps).abs() < 1e-6);
    }

    #[test]
    fn tx_time_of_1500_bytes_at_12mbps_is_1ms() {
        let l = LinkSpec::mbps(12.0, SimTime::ZERO, 100);
        assert_eq!(l.tx_time(), SimTime::from_millis(1));
    }

    #[test]
    fn remembered_tx_time_follows_rate_changes() {
        let mut l = Link::new(LinkSpec::mbps(12.0, SimTime::ZERO, 100));
        assert_eq!(l.tx_time(), SimTime::from_millis(1));
        for rate_bps in [12e6, 3.3e6, 3.3e6, 100e6, 12e6] {
            // A mid-run rate change, as `SetRate`, `Brownout` and
            // `RestoreRate` make it.
            l.set_rate_bps(rate_bps);
            assert_eq!(l.tx_time(), l.spec().tx_time(), "at {rate_bps} b/s");
        }
    }

    #[test]
    fn loss_rate_counts_all_three_kinds_of_drops() {
        let s = LinkStats {
            offered: 100,
            dropped_queue: 5,
            dropped_random: 3,
            dropped_down: 2,
            transmitted: 90,
        };
        assert_eq!(s.dropped(), 10);
        assert!((s.loss_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn total_loss_probability_is_expressible() {
        let l = LinkSpec::mbps(1.0, SimTime::ZERO, 10).with_loss(1.0);
        assert_eq!(l.loss_prob, 1.0);
    }

    #[test]
    fn empty_link_has_zero_loss() {
        assert_eq!(LinkStats::default().loss_rate(), 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_loss_probability_rejected() {
        let _ = LinkSpec::mbps(1.0, SimTime::ZERO, 10).with_loss(1.5);
    }
}
