//! A hierarchical timer wheel: the simulator's event queue.
//!
//! The seed drove every event through a `BinaryHeap` — O(log n) per
//! operation with poor cache behaviour once tens of thousands of events
//! are pending (FatTree-128 runs). This wheel gives O(1) amortized push
//! and pop while preserving the **exact** `(at, seq)` pop order of the
//! heap, which is what keeps runs bit-for-bit deterministic (the
//! differential property test in `event.rs` pins this down). The wheel
//! numbers the events it is given (`seq`, the tie-breaker) and counts them.
//!
//! Layout, following the hierarchical wheel of Varghese & Lauck with the
//! level rule of the Linux and tokio timer subsystems:
//!
//! * time is bucketed into ticks of `2^GRAN_BITS` ns (1.024 µs), and a
//!   tick is read as `LEVELS` groups of `SLOT_BITS` bits, one per level;
//! * an event of tick `t` is filed by **XOR prefix**: at the level of the
//!   highest group in which `t` differs from the cursor `origin`, in the
//!   slot named by `t`'s own bits of that group. `t == origin` goes to
//!   the drain bucket; a difference above the top group (≈ 19.5 hours of
//!   simulated time) goes to an unsorted overflow list, which RTO backoff
//!   capped at seconds never reaches in real workloads;
//! * events live in a **slab** of nodes with an intrusive free list —
//!   after warm-up the steady state allocates nothing per event. An event
//!   is written once, at `push`, and read once, at `pop_before`; moving
//!   it between slots in between only relinks its node;
//! * each level keeps a 64-bit occupancy bitmap and slots hold unsorted
//!   intrusive lists. When the cursor reaches a level-0 slot (exactly one
//!   tick) its nodes are listed in a scratch bucket as `(key, node)`, the
//!   key being the ns within the tick above a 54-bit `seq`, and sorted
//!   **descending** so pops are `Vec::pop` from the back, in `(at, seq)`
//!   order. Events pushed into the current tick while it drains are
//!   inserted in order.
//!
//! Three invariants follow from the rule, for every pending `t ≥ origin`:
//!
//! 1. **The cursor's own slot is empty at every level.** An event of
//!    level `L` differs from `origin` in group `L`, so it never shares the
//!    cursor's slot there, and nothing the cursor sits in needs a look.
//! 2. **No level holds two revolutions.** The groups above `L` are equal
//!    and `t > origin`, so `t`'s slot index at `L` is *greater* than the
//!    cursor's: the next slot of a level is `trailing_zeros` of its
//!    bitmap, with no rotation and no wrap.
//! 3. **Every event of level `L` fires before every event of level
//!    `L + 1`**, and every wheel event before every overflow event: the
//!    lower level shares a longer prefix with `origin`.
//!
//! So advancing is: take the first slot of the lowest non-empty level; if
//! its range starts past the horizon, park the cursor at the horizon
//! (which is below every occupied slot's range start, so every event
//! keeps its level); otherwise move the cursor to the range start and
//! re-file the slot's events, which now share that group with the cursor
//! and land on lower levels or in the drain bucket. The cursor only ever
//! moves to such a range start or to a horizon below all of them, which
//! is what preserves the invariants — and exactness: a drained level-0
//! slot is a single tick, earlier ticks are gone and later ones sort
//! after it.

use crate::event::{Event, EventKind};
use crate::time::SimTime;

/// log2 of the level-0 tick width in nanoseconds.
const GRAN_BITS: u32 = 10;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels; the wheel spans `64^LEVELS` ticks.
pub(crate) const LEVELS: usize = 6;
/// Null index in the node slab.
const NIL: u32 = u32::MAX;
/// log2 of the ticks the wheel can tell apart from its cursor.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Low bits of a drain-bucket key that hold `seq`; the `GRAN_BITS` of ns
/// within the tick sit above them. 2^54 events is 57 years at 10 M/s.
const SEQ_BITS: u32 = 64 - GRAN_BITS;

/// Bytes of one slab node, for the size bound in `event.rs`'s tests.
#[cfg(test)]
pub(crate) fn node_size() -> usize {
    std::mem::size_of::<Node>()
}

#[derive(Debug, Clone, Copy)]
struct Node {
    at: SimTime,
    seq: u64,
    kind: EventKind,
    next: u32,
}

/// The timer wheel. See the module docs for the invariants.
#[derive(Debug)]
pub(crate) struct TimerWheel {
    /// Intrusive singly-linked slot heads, indexed `[level][slot]`.
    slots: [[u32; SLOTS]; LEVELS],
    /// Per-level slot occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Node slab; freed nodes are chained through `next`.
    nodes: Vec<Node>,
    /// Head of the slab free list.
    free: u32,
    /// Current tick: `cur` holds the events of exactly this tick, and
    /// every other pending event has a later one.
    origin: u64,
    /// Drain bucket for the current tick: `(key, node)` sorted descending
    /// by key so the next event to fire is at the back.
    cur: Vec<(u64, u32)>,
    /// Nodes whose tick differs from `origin` above the top level, kept
    /// unsorted (rare).
    overflow: Vec<u32>,
    /// Total events pending.
    len: usize,
    /// Events a cascade moved from a slot to a lower level.
    reinserts: u64,
    /// Events ever pushed; also the next event's `seq`.
    scheduled: u64,
    /// High-water mark of `len`.
    peak_pending: usize,
}

fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> GRAN_BITS
}

/// Sort key of an event among the events of its own tick.
fn key_of(at: SimTime, seq: u64) -> u64 {
    (at.as_nanos() & ((1 << GRAN_BITS) - 1)) << SEQ_BITS | seq
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            slots: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            nodes: Vec::with_capacity(1024),
            free: NIL,
            origin: 0,
            cur: Vec::with_capacity(64),
            overflow: Vec::new(),
            len: 0,
            reinserts: 0,
            scheduled: 0,
            peak_pending: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Total events ever scheduled.
    pub(crate) fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// High-water mark of simultaneously pending events.
    pub(crate) fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Events moved down a level by a cascade so far. Each event descends
    /// at most `LEVELS - 1` times, so this is O(pushes) however the pops
    /// are spaced.
    pub(crate) fn reinserts(&self) -> u64 {
        self.reinserts
    }

    /// Bytes the wheel holds: itself (it lives in a box), its node slab,
    /// drain bucket and overflow list.
    pub(crate) fn heap_bytes(&self) -> u64 {
        use crate::mem::vec_bytes;
        std::mem::size_of::<Self>() as u64
            + vec_bytes(&self.nodes)
            + vec_bytes(&self.cur)
            + vec_bytes(&self.overflow)
    }

    /// Schedule `kind` at `at`, after every event already pushed for the
    /// same instant.
    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.scheduled;
        assert!(seq >> SEQ_BITS == 0, "event seq {seq} does not fit the drain bucket's key");
        debug_assert!(tick_of(at) >= self.origin, "event scheduled before the wheel cursor");
        self.scheduled += 1;
        self.len += 1;
        self.peak_pending = self.peak_pending.max(self.len);
        let node = Node { at, seq, kind, next: NIL };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        if tick_of(at) <= self.origin {
            // Lands in the tick currently draining: insert in descending
            // key position so pop order stays exact.
            let key = key_of(at, seq);
            let pos = self.cur.partition_point(|&(k, _)| k > key);
            self.cur.insert(pos, (key, idx));
        } else {
            self.file(idx);
        }
    }

    /// Pop the earliest event if it fires at or before `horizon`.
    pub(crate) fn pop_before(&mut self, horizon: SimTime) -> Option<Event> {
        loop {
            if let Some(&(_, idx)) = self.cur.last() {
                let Node { at, seq, kind, .. } = self.nodes[idx as usize];
                if at > horizon {
                    return None;
                }
                self.cur.pop();
                self.nodes[idx as usize].next = self.free;
                self.free = idx;
                self.len -= 1;
                return Some(Event { at, seq, kind });
            }
            if !self.advance(tick_of(horizon)) {
                return None;
            }
        }
    }

    /// A time no later than the earliest pending event, `None` when empty:
    /// the back of the drain bucket exactly, else the first tick of the
    /// first occupied slot of the lowest level (invariant 3), else the
    /// overflow minimum.
    pub(crate) fn earliest_bound(&self) -> Option<SimTime> {
        if let Some(&(_, idx)) = self.cur.last() {
            return Some(self.nodes[idx as usize].at);
        }
        if let Some(level) = self.occupied.iter().position(|&occ| occ != 0) {
            // The slot's first tick, as `advance` computes it (inlined
            // there: a shared helper cost `fattree_k8` ~6% of `cpu_s`).
            let slot = u64::from(self.occupied[level].trailing_zeros());
            let shift = SLOT_BITS * level as u32;
            let prefix = (self.origin >> shift) & !(SLOTS as u64 - 1);
            return Some(SimTime(((prefix | slot) << shift) << GRAN_BITS));
        }
        self.overflow.iter().map(|&i| self.nodes[i as usize].at).min()
    }

    /// Link node `idx`, of tick `origin` or later, where its XOR prefix with
    /// the cursor says: the drain bucket (unsorted — `advance` sorts once),
    /// a wheel slot, or the overflow list.
    fn file(&mut self, idx: u32) {
        let Node { at, seq, .. } = self.nodes[idx as usize];
        let t = tick_of(at);
        let diff = t ^ self.origin;
        if diff == 0 {
            self.cur.push((key_of(at, seq), idx));
        } else if diff >> WHEEL_BITS != 0 {
            self.overflow.push(idx);
        } else {
            let level = (diff.ilog2() / SLOT_BITS) as usize;
            let slot = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            self.nodes[idx as usize].next = self.slots[level][slot];
            self.slots[level][slot] = idx;
            self.occupied[level] |= 1 << slot;
        }
    }

    /// Advance the cursor to the next occupied tick ≤ `h_tick` and list
    /// its events in the drain bucket. Returns `false` (leaving the
    /// cursor at `h_tick` at most) when no event fires by the horizon.
    fn advance(&mut self, h_tick: u64) -> bool {
        debug_assert!(self.cur.is_empty());
        while self.cur.is_empty() {
            if let Some(level) = self.occupied.iter().position(|&occ| occ != 0) {
                let slot = self.occupied[level].trailing_zeros() as usize;
                let shift = SLOT_BITS * level as u32;
                // The slot's first tick: the cursor's prefix above this
                // level, the slot's index, zeros below.
                let prefix = (self.origin >> shift) & !(SLOTS as u64 - 1);
                let start = (prefix | slot as u64) << shift;
                if start > h_tick {
                    self.origin = self.origin.max(h_tick);
                    return false;
                }
                self.origin = start;
                let mut node = self.slots[level][slot];
                self.slots[level][slot] = NIL;
                self.occupied[level] &= !(1 << slot);
                let mut moved = 0;
                while node != NIL {
                    let next = self.nodes[node as usize].next;
                    self.file(node);
                    moved += 1;
                    node = next;
                }
                // What did not reach the drain bucket went down a level.
                self.reinserts += moved - self.cur.len() as u64;
            } else if h_tick >> WHEEL_BITS <= self.origin >> WHEEL_BITS {
                // Nothing in the wheel, and every overflow event is past
                // the horizon: park the cursor there so later pushes
                // (which are ≥ now) stay ahead of it.
                self.origin = self.origin.max(h_tick);
                return false;
            } else {
                // The horizon leaves the span the empty wheel can tell
                // apart: move to the overflow's first tick (or the
                // horizon, if that comes first) and re-file what now fits.
                let first = self.overflow.iter().map(|&i| tick_of(self.nodes[i as usize].at)).min();
                self.origin = first.map_or(h_tick, |m| m.min(h_tick));
                for idx in std::mem::take(&mut self.overflow) {
                    self.file(idx);
                }
            }
        }
        // Descending, so the earliest (at, seq) pops from the back.
        self.cur.sort_unstable_by_key(|&(key, _)| std::cmp::Reverse(key));
        true
    }
}

#[cfg(test)]
impl TimerWheel {
    /// Assert the structural facts `advance` relies on: every slotted
    /// event sits in the slot its XOR prefix with the cursor names (so the
    /// cursor's own slot is empty at every level), the bitmaps match the
    /// lists, the bucket is sorted by its nodes' keys, and every slab node
    /// is held exactly once — by a slot, the bucket, the overflow list or
    /// the free list — with `len` counting the first three.
    pub(crate) fn check_invariants(&self) {
        // Each slab node must be reached by exactly one holder.
        let mut holders = vec![0u8; self.nodes.len()];
        let mut in_slots = 0;
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let own = (self.origin >> shift) & (SLOTS as u64 - 1);
            assert_eq!(self.occupied[level] >> own & 1, 0, "cursor's own slot, level {level}");
            for slot in 0..SLOTS {
                let mut node = self.slots[level][slot];
                assert_eq!(node != NIL, self.occupied[level] >> slot & 1 == 1);
                while node != NIL {
                    let n = &self.nodes[node as usize];
                    let diff = tick_of(n.at) ^ self.origin;
                    assert!(tick_of(n.at) > self.origin && diff >> WHEEL_BITS == 0);
                    assert_eq!((diff.ilog2() / SLOT_BITS) as usize, level);
                    assert_eq!((tick_of(n.at) >> shift) & (SLOTS as u64 - 1), slot as u64);
                    holders[node as usize] += 1;
                    in_slots += 1;
                    node = n.next;
                }
            }
        }
        let mut node = self.free;
        while node != NIL {
            holders[node as usize] += 1;
            node = self.nodes[node as usize].next;
        }
        assert!(self.cur.windows(2).all(|w| w[0].0 > w[1].0), "bucket out of order");
        for &(key, i) in &self.cur {
            let n = &self.nodes[i as usize];
            assert!(tick_of(n.at) == self.origin && key == key_of(n.at, n.seq));
            holders[i as usize] += 1;
        }
        let span = self.origin >> WHEEL_BITS;
        for &i in &self.overflow {
            assert!(tick_of(self.nodes[i as usize].at) >> WHEEL_BITS > span);
            holders[i as usize] += 1;
        }
        assert!(holders.iter().all(|&h| h == 1), "a slab node held twice or by nothing");
        assert_eq!(self.len, in_slots + self.cur.len() + self.overflow.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop_before(SimTime::MAX).map(|e| (e.at.as_nanos(), e.seq)))
            .collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        let times = [5_000u64, 1_000, 3_000, 1_000, 7_919_999, 64 * 1024, 1_000_000_000];
        for (seq, &t) in times.iter().enumerate() {
            w.push(SimTime(t), EventKind::ConnStart { conn: crate::cast::slab_u32(seq) });
        }
        let got = drain(&mut w);
        let mut want: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(s, &t)| (t, s as u64)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn same_tick_bursts_fire_in_seq_order() {
        let mut w = TimerWheel::new();
        // All in one 1.024 µs tick but with distinct nanosecond times.
        for seq in 0..100u64 {
            w.push(SimTime(500 + (seq % 7)), EventKind::ConnStart { conn: 0 });
        }
        let got = drain(&mut w);
        let mut want: Vec<(u64, u64)> = (0..100u64).map(|s| (500 + (s % 7), s)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn far_future_overflow_events_come_back() {
        let mut w = TimerWheel::new();
        let far = SimTime::from_secs(100_000); // beyond the wheel span
        w.push(far, EventKind::ConnStart { conn: 1 });
        w.push(SimTime::from_millis(1), EventKind::ConnStart { conn: 2 });
        assert_eq!(w.pop_before(SimTime::from_secs(1)).map(|e| e.seq), Some(1));
        assert_eq!(w.pop_before(SimTime::from_secs(1)), None);
        assert_eq!(w.pop_before(SimTime::MAX).map(|e| e.seq), Some(0));
    }

    #[test]
    fn horizon_bounded_cursor_allows_later_near_pushes() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_secs(5), EventKind::ConnStart { conn: 0 });
        // Nothing before 1 s; the cursor must not run past the horizon...
        assert!(w.pop_before(SimTime::from_secs(1)).is_none());
        // ...so a push at 2 s (later "now" is 1 s) still works and pops first.
        w.push(SimTime::from_secs(2), EventKind::ConnStart { conn: 1 });
        let got = drain(&mut w);
        assert_eq!(got, vec![(SimTime::from_secs(2).as_nanos(), 1), (SimTime::from_secs(5).as_nanos(), 0)]);
    }

    #[test]
    fn interleaved_push_pop_with_current_tick_inserts() {
        let mut w = TimerWheel::new();
        w.push(SimTime(100), EventKind::ConnStart { conn: 0 });
        w.push(SimTime(200), EventKind::ConnStart { conn: 1 });
        let first = w.pop_before(SimTime::MAX).unwrap();
        assert_eq!(first.seq, 0);
        // Push into the tick currently draining (tick 0 covers 0..1024 ns).
        w.push(SimTime(150), EventKind::ConnStart { conn: 2 });
        w.push(SimTime(120), EventKind::ConnStart { conn: 3 });
        let rest = drain(&mut w);
        assert_eq!(rest, vec![(120, 3), (150, 2), (200, 1)]);
    }

    /// The cliff this rule removed: lazy RTO timers parked a few hundred
    /// ms out used to sit in the cursor's own coarse slot and be walked on
    /// every `advance` of a busy packet stream. Under the XOR rule an event
    /// only ever moves down, at most once per level.
    #[test]
    fn parked_timers_are_not_rewalked_across_coarse_slot_boundaries() {
        const PARK: u64 = 300_000_000;
        let mut w = TimerWheel::new();
        // conn 0: 1 000 timers parked 300 ms out, re-armed when they fire;
        // conn 1: a 2 µs-spaced stream crossing the 268 ms and 537 ms
        // boundaries of the level-3 slots.
        for i in 0..1_000u64 {
            w.push(SimTime(PARK + i * 1_000), EventKind::ConnStart { conn: 0 });
        }
        w.push(SimTime(0), EventKind::ConnStart { conn: 1 });
        let (mut pushes, mut last) = (1_001u64, SimTime(0));
        while let Some(e) = w.pop_before(SimTime::from_millis(600)) {
            assert!(e.at >= last, "pop order");
            last = e.at;
            let EventKind::ConnStart { conn } = e.kind else { unreachable!() };
            let delta = if conn == 1 { 2_000 } else { PARK };
            w.push(SimTime(e.at.as_nanos() + delta), e.kind);
            pushes += 1;
            if pushes % 4_096 == 0 {
                w.check_invariants();
            }
        }
        w.check_invariants();
        assert!(pushes > 300_000, "the stream ran: {pushes} pushes");
        assert!(
            w.reinserts() <= (LEVELS as u64 - 1) * pushes,
            "{} re-inserts for {pushes} pushes",
            w.reinserts()
        );
    }

    #[test]
    fn slab_recycles_nodes() {
        let mut w = TimerWheel::new();
        for round in 0..50u64 {
            for i in 0..100u64 {
                w.push(SimTime(round * 1_000_000 + i * 900), EventKind::ConnStart { conn: 0 });
            }
            // Drain with a bounded horizon so the cursor stays behind the
            // next round's pushes (the simulator's `now` contract).
            while w.pop_before(SimTime(round * 1_000_000 + 500_000)).is_some() {}
        }
        // 100 live events at a time → the slab never needs more than the
        // high-water mark even over 5000 total events.
        assert!(w.nodes.len() <= 128, "slab grew to {}", w.nodes.len());
    }
}
