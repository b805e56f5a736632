//! The simulator's events, and the reference heap its queue is checked
//! against.
//!
//! Every simulation runs on the hierarchical timer wheel in
//! [`crate::wheel`]. The seed's `BinaryHeap` future-event list stays here
//! as a private reference, not a configuration: [`queue_churn`] times the
//! wheel against it, and the tests at the bottom of this file drive both
//! with identical schedules. Both pop in ascending `(at, seq)` order — the
//! determinism contract the whole simulator rests on — and the property
//! test requires identical pop sequences under random schedules
//! (deadlines at every scale from one wheel tick to past the wheel span,
//! RTO-shaped timers, pops that cross occupied slot boundaries).

use crate::packet::Packet;
use crate::time::SimTime;
use crate::wheel::TimerWheel;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::tcp::SackRanges;

/// Which queue [`queue_churn`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueBackend {
    /// The hierarchical timer wheel every simulation runs on: O(1)
    /// amortized, allocation-free steady state.
    TimerWheel,
    /// The seed's `std::collections::BinaryHeap` future-event list:
    /// O(log n), the reference the wheel is timed and tested against.
    BinaryHeap,
}

/// Information carried by an ACK back to the sender. The ACK's content is
/// fixed at the moment the receiver generates it, so it is computed at
/// delivery time and carried in the event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AckInfo {
    /// Receiver's cumulative ACK: the next subflow sequence number expected.
    pub cum: u64,
    /// Selective acknowledgment ranges above the cumulative point.
    pub sacks: SackRanges,
}

/// Everything that can happen in the simulated world.
///
/// Ids are stored as `u32` — a [`crate::LinkId`], [`crate::ConnId`],
/// subflow index, [`crate::CbrId`] or fault index narrowed through
/// [`crate::cast::slab_u32`] — so that with a 12-byte, 4-aligned
/// [`Packet`] every variant fits in 16 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// A link finished serializing the packet in service.
    TxDone { link: u32 },
    /// A packet finished propagating and arrives at `pkt.hop` of its path
    /// (or at the destination if the path is exhausted).
    Arrive { pkt: Packet },
    /// An ACK reaches the sender of `conn`/`sub`. The ACK's content (fixed
    /// at delivery time) lives in the simulator's [`AckInfo`] pool; `ack`
    /// is its slot index, freed when the event is dispatched. Carrying the
    /// 4-byte slot instead of the ~100-byte `AckInfo` inline keeps every
    /// queued `Event` small: the wheel's slab holds one node per pending
    /// event, and a node is as large as the largest variant here.
    AckArrive { conn: u32, sub: u32, ack: u32 },
    /// A retransmission-timer event. Timers are lazy: at most one event is
    /// pending per subflow, and a firing that arrives before the current
    /// deadline simply re-schedules itself — this keeps the event queue at
    /// O(subflows) instead of one stale entry per ACK.
    RtoFire { conn: u32, sub: u32 },
    /// A connection begins transmitting.
    ConnStart { conn: u32 },
    /// A finished connection's hot arena window is recycled (flow
    /// lifecycle mode only — see [`crate::Simulator::set_flow_lifecycle`]).
    /// Scheduled one straggler-grace period after the transfer completed,
    /// so every in-flight packet, ACK and stale timer for the flow has
    /// drained before its slots are handed to another connection.
    ConnRetire { conn: u32 },
    /// A CBR source emits its next packet, unless it has toggled since
    /// (`gen` is its on/off generation, see [`crate::cast::gen_u32`]).
    CbrSend { src: u32, gen: u32 },
    /// A CBR source toggles between its on and off states.
    CbrToggle { src: u32 },
    /// A scripted fault fires: `idx` indexes the simulator's installed
    /// fault-action table (see [`crate::Simulator::install_fault_plan`]).
    /// Faults are ordinary events, so they execute at their exact time in
    /// deterministic order with everything else — never "between steps".
    Fault { idx: u32 },
    /// The telemetry probe samples the world and re-schedules itself (see
    /// [`crate::Simulator::enable_probe`]). Sampling draws no randomness
    /// and emits no packets, so the tick cannot perturb packet history.
    ProbeTick,
}

#[derive(Debug)]
pub(crate) struct Event {
    pub at: SimTime,
    /// Monotonic tie-breaker: simultaneous events fire in insertion order,
    /// making runs fully deterministic.
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// The reference future-event list: a `BinaryHeap` numbering its pushes
/// and counting its high-water mark as the wheel does.
#[derive(Debug, Default)]
struct RefHeap {
    heap: BinaryHeap<Event>,
    scheduled: u64,
    peak_pending: usize,
}

impl RefHeap {
    fn push(&mut self, at: SimTime, kind: EventKind) {
        self.heap.push(Event { at, seq: self.scheduled, kind });
        self.scheduled += 1;
        self.peak_pending = self.peak_pending.max(self.heap.len());
    }

    fn pop_before(&mut self, horizon: SimTime) -> Option<Event> {
        self.heap.peek_mut().filter(|e| e.at <= horizon).map(PeekMut::pop)
    }
}

/// Scheduler-only micro-benchmark: hold `pending` events resident and do
/// `ops` pop-then-push steps (each pop re-schedules one event a pseudo-random
/// RTT-scale delta ahead), returning the wall time of the churn loop.
///
/// This isolates the event queue from the rest of the simulator so the
/// wheel-vs-heap comparison is not diluted by per-event TCP processing.
/// The schedule is deterministic (internal xorshift), so both queues see
/// the identical workload.
pub fn queue_churn(backend: QueueBackend, pending: usize, ops: u64) -> std::time::Duration {
    match backend {
        QueueBackend::TimerWheel => {
            churn(TimerWheel::new(), TimerWheel::push, TimerWheel::pop_before, pending, ops)
        }
        QueueBackend::BinaryHeap => {
            churn(RefHeap::default(), RefHeap::push, RefHeap::pop_before, pending, ops)
        }
    }
}

fn churn<Q>(
    mut q: Q,
    push: impl Fn(&mut Q, SimTime, EventKind),
    pop_before: impl Fn(&mut Q, SimTime) -> Option<Event>,
    pending: usize,
    ops: u64,
) -> std::time::Duration {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Deltas up to 100 ms spread events across several wheel levels, like
    // the mix of serialization, propagation and RTO timers in a real run.
    const SPREAD: u64 = 100_000_000;
    for _ in 0..pending {
        push(&mut q, SimTime(next() % SPREAD), EventKind::ConnStart { conn: 0 });
    }
    let started = crate::perf::wall_clock();
    for _ in 0..ops {
        let e = pop_before(&mut q, SimTime::MAX).expect("queue stays at `pending` events");
        push(&mut q, SimTime(e.at.as_nanos() + 1 + next() % SPREAD), EventKind::ConnStart { conn: 0 });
    }
    started.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The wheel's read-only accessors, mirrored for tests that run on both
    /// queues.
    impl RefHeap {
        fn len(&self) -> usize {
            self.heap.len()
        }

        fn earliest_bound(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }

        fn scheduled(&self) -> u64 {
            self.scheduled
        }

        fn peak_pending(&self) -> usize {
            self.peak_pending
        }
    }

    /// Run `body` with `q` bound to a fresh wheel, then to a fresh
    /// reference heap.
    macro_rules! on_both {
        (|$q:ident| $body:block) => {{
            {
                let mut $q = TimerWheel::new();
                $body
            }
            {
                let mut $q = RefHeap::default();
                $body
            }
        }};
    }

    #[test]
    fn events_pop_in_time_order() {
        on_both!(|q| {
            q.push(SimTime::from_millis(5), EventKind::ConnStart { conn: 0 });
            q.push(SimTime::from_millis(1), EventKind::ConnStart { conn: 1 });
            q.push(SimTime::from_millis(3), EventKind::ConnStart { conn: 2 });
            let order: Vec<SimTime> =
                std::iter::from_fn(|| q.pop_before(SimTime::MAX).map(|e| e.at)).collect();
            assert_eq!(
                order,
                vec![SimTime::from_millis(1), SimTime::from_millis(3), SimTime::from_millis(5)]
            );
        });
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        on_both!(|q| {
            let t = SimTime::from_millis(1);
            for conn in 0..10 {
                q.push(t, EventKind::ConnStart { conn });
            }
            let mut seen = Vec::new();
            while let Some(e) = q.pop_before(SimTime::MAX) {
                if let EventKind::ConnStart { conn } = e.kind {
                    seen.push(conn);
                }
            }
            assert_eq!(seen, (0..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn pop_respects_horizon() {
        // Satellite regression: an event exactly AT the horizon pops; one
        // nanosecond past it does not — on both queues.
        on_both!(|q| {
            let name = std::any::type_name_of_val(&q);
            q.push(SimTime::from_millis(10), EventKind::ConnStart { conn: 0 });
            assert!(q.pop_before(SimTime::from_millis(5)).is_none(), "{name}: early horizon must not pop");
            assert_eq!(q.len(), 1);
            assert!(
                q.pop_before(SimTime::from_millis(10)).is_some(),
                "{name}: event exactly at the horizon must pop"
            );
        });
        on_both!(|q| {
            let name = std::any::type_name_of_val(&q);
            let at = SimTime::from_millis(10);
            q.push(at, EventKind::ConnStart { conn: 0 });
            let just_before = SimTime(at.as_nanos() - 1);
            assert!(q.pop_before(just_before).is_none(), "{name}: horizon 1 ns short must not pop");
            assert!(q.pop_before(at).is_some(), "{name}");
            assert!(q.pop_before(SimTime::MAX).is_none());
        });
    }

    #[test]
    fn counters_track_scheduled_and_peak() {
        on_both!(|q| {
            for i in 0..5u64 {
                q.push(SimTime(i * 100), EventKind::ConnStart { conn: 0 });
            }
            for _ in 0..3 {
                q.pop_before(SimTime::MAX);
            }
            q.push(SimTime(1_000), EventKind::ConnStart { conn: 0 });
            assert_eq!(q.scheduled(), 6);
            assert_eq!(q.peak_pending(), 5);
            assert_eq!(q.len(), 3);
        });
    }

    /// One step of a random schedule: push an event at `now + delta`, or
    /// pop everything up to a horizon `delta` from now.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push { delta: u64 },
        PopUntil { delta: u64 },
    }

    /// 1 µs … 100 s with every decade equally likely, so each wheel level
    /// (65 µs, 4.19 ms, 268 ms, 17 s, 18 min slots) gets its share.
    fn log_uniform_ns() -> impl Strategy<Value = u64> {
        (3.0f64..11.0).prop_map(|e| 10f64.powf(e) as u64)
    }

    fn op_strategy() -> BoxedStrategy<Op> {
        prop_oneof![
            // Near-term deltas (sub-tick to a few ms)...
            (0u64..5_000_000).prop_map(|delta| Op::Push { delta }),
            // ...same-tick bursts (several events inside one 1.024 µs tick),
            (0u64..1_024).prop_map(|delta| Op::Push { delta }),
            // ...every scale in between,
            log_uniform_ns().prop_map(|delta| Op::Push { delta }),
            // ...RTO-shaped deadlines (min RTO, its backoffs, the initial
            // RTO) with ±1 ms of jitter, which park in level-3/4 slots the
            // cursor later walks into,
            (prop::sample::select(vec![200u64, 400, 1_000, 3_000]), 0u64..2_000_000)
                .prop_map(|(ms, jitter)| Op::Push { delta: ms * 1_000_000 - 1_000_000 + jitter }),
            // ...far-future deadlines (up to and beyond the wheel span at
            // ~19 h),
            (0u64..80_000_000_000_000).prop_map(|delta| Op::Push { delta }),
            // ...and pops that advance simulated time, by a few ms or far
            // enough to cross occupied coarse-slot boundaries.
            (0u64..10_000_000).prop_map(|delta| Op::PopUntil { delta }),
            log_uniform_ns().prop_map(|delta| Op::PopUntil { delta }),
        ]
        .boxed()
    }

    /// Where the schedule starts: zero, anywhere in the first minutes, or
    /// a few ticks below a multiple of the wheel span (2^36 ticks ≈ 19.5
    /// h), where an event two ticks ahead differs from the cursor above
    /// the top level and so routes through the overflow list.
    fn start_strategy() -> BoxedStrategy<u64> {
        const SPAN_NS: u64 = 1 << 46;
        prop_oneof![
            Just(0u64),
            log_uniform_ns(),
            (1u64..4, 0u64..6_000).prop_map(|(k, below)| k * SPAN_NS - below),
        ]
        .boxed()
    }

    /// Push the same event on both queues and check the wheel's structure.
    fn push_both(wheel: &mut TimerWheel, heap: &mut RefHeap, at: u64) {
        wheel.push(SimTime(at), EventKind::ConnStart { conn: 0 });
        heap.push(SimTime(at), EventKind::ConnStart { conn: 0 });
        wheel.check_invariants();
    }

    /// Pop both queues up to `horizon`, requiring identical `(at, seq)`
    /// sequences and an earliest-event bound no later than each pop (exact
    /// on the heap); returns the last pop time (or `now` if none).
    fn pop_both(
        wheel: &mut TimerWheel,
        heap: &mut RefHeap,
        horizon: SimTime,
        mut now: u64,
    ) -> Result<u64, TestCaseError> {
        loop {
            let (wb, hb) = (wheel.earliest_bound(), heap.earliest_bound());
            prop_assert_eq!(wb.is_none(), heap.len() == 0);
            prop_assert!(wb <= hb);
            let a = wheel.pop_before(horizon);
            let b = heap.pop_before(horizon);
            wheel.check_invariants();
            if let Some(e) = &b {
                prop_assert_eq!(hb, Some(e.at));
            }
            prop_assert_eq!(
                a.as_ref().map(|e| (e.at, e.seq)),
                b.as_ref().map(|e| (e.at, e.seq))
            );
            match a {
                Some(e) => now = now.max(e.at.as_nanos()),
                None => return Ok(now),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential test: the wheel pops the exact same (at, seq)
        /// sequence as the reference heap under arbitrary interleavings of
        /// pushes and horizon-bounded pops, and keeps its structural
        /// invariants after every operation.
        #[test]
        fn wheel_matches_heap_pop_order(
            start in start_strategy(),
            ops in prop::collection::vec(op_strategy(), 1..300),
        ) {
            let mut wheel = TimerWheel::new();
            let mut heap = RefHeap::default();
            // Simulated "now": pushes are never scheduled in the past,
            // matching the simulator's contract. An empty pop parks the
            // wheel's cursor at the start time.
            let mut now = pop_both(&mut wheel, &mut heap, SimTime(start), start)?;
            for op in ops {
                match op {
                    Op::Push { delta } => push_both(&mut wheel, &mut heap, now + delta),
                    Op::PopUntil { delta } => {
                        let horizon = SimTime(now + delta);
                        now = pop_both(&mut wheel, &mut heap, horizon, now)?;
                        now = now.max(horizon.as_nanos());
                    }
                }
            }
            // Drain both fully; the tails must agree too.
            pop_both(&mut wheel, &mut heap, SimTime::MAX, now)?;
            prop_assert_eq!(wheel.len(), 0);
            prop_assert_eq!(heap.len(), 0);
            prop_assert_eq!(wheel.peak_pending(), heap.peak_pending());
            // An event moves down at most once per level below the top.
            let bound = (crate::wheel::LEVELS as u64 - 1) * wheel.scheduled();
            prop_assert!(wheel.reinserts() <= bound);
        }
    }

    /// Every pending event is a slab node of the wheel, so its size sets
    /// the queue's cache footprint. `AckArrive` must carry its pool slot,
    /// never an inline `AckInfo` (which alone is bigger than this whole
    /// bound), `Arrive` a 12-byte packed `Packet`, and every id a `u32`.
    /// The bounds are the sizes on x86_64.
    #[test]
    fn queued_events_stay_small() {
        use std::mem::size_of;
        assert!(size_of::<AckInfo>() > 64, "payload belongs in the pool");
        for (name, size, bound) in [
            ("Packet", size_of::<Packet>(), 12),
            ("EventKind", size_of::<EventKind>(), 20),
            ("Event", size_of::<Event>(), 40),
            ("wheel Node", crate::wheel::node_size(), 40),
        ] {
            assert!(size <= bound, "{name} grew to {size} bytes (bound {bound})");
        }
    }

    /// The records that scale with flows: a hot slot holds one sender and
    /// one receiver (three rings between them), and every connection and
    /// subflow ever admitted keeps its record and cold row. A FatTree
    /// holds a link record per port. The bounds are the sizes on x86_64.
    #[test]
    fn per_flow_records_stay_small() {
        use std::mem::size_of;
        for (name, size, bound) in [
            ("SubflowSender", size_of::<crate::tcp::SubflowSender>(), 304),
            ("SubflowReceiver", size_of::<crate::tcp::SubflowReceiver>(), 48),
            ("BitRing", size_of::<crate::scoreboard::BitRing>(), 48),
            ("Connection", size_of::<crate::conn::Connection>(), 128),
            ("ColdSubflow", size_of::<crate::arena::ColdSubflow>(), 24),
            ("Link", size_of::<crate::link::Link>(), 144),
        ] {
            assert!(size <= bound, "{name} grew to {size} bytes (bound {bound})");
        }
    }

    /// One tick holding more events than std's small-sort cut-over (20), at
    /// mixed and tied ns offsets, with pushes into the tick while it
    /// drains: the bucket's packed keys must order exactly as `(at, seq)`.
    #[test]
    fn crowded_tick_with_pushes_while_draining_matches_heap() {
        let mut wheel = TimerWheel::new();
        let mut heap = RefHeap::default();
        const TICK_START: u64 = 5_000 << 10;
        for i in 0..64u64 {
            push_both(&mut wheel, &mut heap, TICK_START + ((i * 389 % 1024) & !3));
        }
        let mut popped = 0u64;
        loop {
            let (a, b) = (wheel.pop_before(SimTime::MAX), heap.pop_before(SimTime::MAX));
            wheel.check_invariants();
            assert_eq!(a.as_ref().map(|e| (e.at, e.seq)), b.as_ref().map(|e| (e.at, e.seq)));
            let Some(e) = a else { break };
            popped += 1;
            if popped.is_multiple_of(2) {
                push_both(&mut wheel, &mut heap, e.at.as_nanos() + popped % 7 * 5);
            }
        }
        // 64 up front and one more after every second pop: N = 64 + ⌊N/2⌋.
        assert_eq!(popped, 127);
    }

    /// Regression pinned from a proptest shrink against the first wheel
    /// (which picked the level from the tick distance): two horizon-bounded
    /// pops park the cursor mid-slot, then two pushes land one event in the
    /// cursor's own level-1 slot and one in a later slot with an earlier
    /// tick, which that wheel's candidate search skipped. Under the XOR
    /// rule the first of them files at level 2 instead.
    #[test]
    fn cursor_slot_does_not_shadow_later_slots() {
        let mut wheel = TimerWheel::new();
        let mut heap = RefHeap::default();
        assert!(wheel.pop_before(SimTime(180_074)).is_none());
        assert!(wheel.pop_before(SimTime(6_203_118)).is_none());
        for at in [10_396_556, 9_002_129] {
            push_both(&mut wheel, &mut heap, at);
        }
        pop_both(&mut wheel, &mut heap, SimTime::MAX, 0).expect("identical drains");
    }

    /// A cursor parked two ticks below a multiple of 2^36 ticks: events a
    /// few ticks ahead differ from it above the top level and wait in the
    /// overflow list, yet must fire in order with their neighbours — also
    /// when an empty pop carries the cursor across the boundary first and
    /// a later push then files in the wheel proper.
    #[test]
    fn near_events_across_the_wheel_span_boundary_stay_ordered() {
        const TICK: u64 = 1 << 10;
        const SPAN: u64 = TICK << 36;
        let mut wheel = TimerWheel::new();
        let mut heap = RefHeap::default();
        assert!(wheel.pop_before(SimTime(SPAN - 2 * TICK)).is_none());
        for at in [SPAN + 5 * TICK, SPAN - TICK] {
            push_both(&mut wheel, &mut heap, at);
        }
        assert_eq!(wheel.pop_before(SimTime(SPAN - 1)).map(|e| e.at), Some(SimTime(SPAN - TICK)));
        assert_eq!(heap.pop_before(SimTime(SPAN - 1)).map(|e| e.at), Some(SimTime(SPAN - TICK)));
        // Nothing due by +2 ticks: the wheel's cursor crosses with the +5
        // event still held in the overflow list.
        assert!(wheel.pop_before(SimTime(SPAN + 2 * TICK)).is_none());
        assert!(heap.pop_before(SimTime(SPAN + 2 * TICK)).is_none());
        wheel.check_invariants();
        push_both(&mut wheel, &mut heap, SPAN + 70 * TICK);
        pop_both(&mut wheel, &mut heap, SimTime::MAX, 0).expect("identical drains");
    }
}
