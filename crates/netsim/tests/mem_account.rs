//! `mem_bytes()` against the allocator, on a scaled churn world: FatTree
//! K=8 in eight pod shards, 4000 two-subflow flows of 4–20 packets (a
//! burst resident at once, then a trickle that re-tenants what it left),
//! with budgets for a hot slot at the burst's high-water, for a retired
//! flow and for the allocator calls the trickle makes. And the
//! steady-state ACK path against the allocator: once warm, bulk transfer
//! over clean and lossy links makes no allocation at all.
//!
//! This file is its own crate, so its counting allocator does not touch
//! the library's `#![forbid(unsafe_code)]`. The count is per thread: the
//! world is built and run on the test's thread (`jobs = 1`), and
//! whatever another test thread allocates is not counted here.

#![expect(
    clippy::disallowed_macros,
    reason = "the counter is per thread by design: `thread_local!` keeps other test threads' allocations out of the count"
)]

use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{
    ConnectionSpec, LinkId, LinkSpec, MemBytes, ShardedSimulator, SimTime, Simulator,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not yet freed. `const`-built
    /// and without a destructor, so reading it never allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Allocation calls (including reallocations) this thread has made.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: i64) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

fn count_call() {
    let _ = CALLS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        count_call();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through the methods of this impl.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        count_call();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        count_call();
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

const K: usize = 8;
const HALF: usize = K / 2;
const HOSTS: usize = K * K * K / 4;
const BURST: usize = 3000;
const TRICKLE: usize = 1000;

/// The FatTree's links in the order and pod placement of
/// `mptcp_topology::FatTree::build_sharded`.
struct FatTree {
    host_up: Vec<LinkId>,
    host_down: Vec<LinkId>,
    /// `[edge][agg position]`.
    edge_up: Vec<Vec<LinkId>>,
    /// `[agg][edge position]`.
    agg_down: Vec<Vec<LinkId>>,
    /// `[agg][core position]`.
    agg_up: Vec<Vec<LinkId>>,
    /// `[core][pod]`.
    core_down: Vec<Vec<LinkId>>,
}

impl FatTree {
    fn build(sim: &mut ShardedSimulator) -> Self {
        let link = LinkSpec::mbps(100.0, SimTime::from_micros(10), 100);
        let shards = sim.num_shards();
        let mut add = |pod: usize| sim.add_link(pod % shards, link);
        let mut t = FatTree {
            host_up: Vec::new(),
            host_down: Vec::new(),
            edge_up: vec![Vec::new(); K * HALF],
            agg_down: vec![Vec::new(); K * HALF],
            agg_up: vec![Vec::new(); K * HALF],
            core_down: vec![Vec::new(); HALF * HALF],
        };
        for h in 0..HOSTS {
            t.host_up.push(add(h / (HALF * HALF)));
            t.host_down.push(add(h / (HALF * HALF)));
        }
        for e in 0..K * HALF {
            for j in 0..HALF {
                t.edge_up[e].push(add(e / HALF));
                t.agg_down[e / HALF * HALF + j].push(add(e / HALF));
            }
        }
        for a in 0..K * HALF {
            for c in 0..HALF {
                t.agg_up[a].push(add(a / HALF));
                t.core_down[a % HALF * HALF + c].push(add(a / HALF));
            }
        }
        t
    }

    /// The inter-pod path through agg position `j` and core position `c`.
    fn path(&self, src: usize, dst: usize, j: usize, c: usize) -> Vec<LinkId> {
        let (es, ed) = (src / HALF, dst / HALF);
        vec![
            self.host_up[src],
            self.edge_up[es][j],
            self.agg_up[es / HALF * HALF + j][c],
            self.core_down[j * HALF + c][ed / HALF],
            self.agg_down[ed / HALF * HALF + j][ed % HALF],
            self.host_down[dst],
        ]
    }
}

/// Build the world, run nothing yet; returns it with each flow's size.
fn churn_world() -> (ShardedSimulator, Vec<u64>) {
    let mut sim = ShardedSimulator::new(11, 8);
    sim.set_flow_lifecycle(true);
    let ft = FatTree::build(&mut sim);
    let mut sizes = Vec::with_capacity(BURST + TRICKLE);
    for i in 0..BURST + TRICKLE {
        // Sources walk every host; destinations land half the fabric or
        // more away, in another pod (the churn workload's placement).
        let src = (i * 37) % HOSTS;
        let dst = (src + HOSTS / 2 + (i * 31) % (HOSTS / 2 - 1) + 1) % HOSTS;
        let start = if i < BURST {
            SimTime::from_micros((i * 10_000 / BURST) as u64)
        } else {
            SimTime::from_millis(200) + SimTime::from_micros(10 * (i - BURST) as u64)
        };
        let size = 4 + (i as u64 * 7919) % 17;
        let (j, c) = (i % HALF, i / HALF % HALF);
        sim.add_connection(
            ConnectionSpec::sized(AlgorithmKind::Mptcp, size)
                .path(ft.path(src, dst, j, c))
                .path(ft.path(src, dst, (j + 1) % HALF, (c + 1 + i % 3) % HALF))
                .start(start),
        );
        sizes.push(size);
    }
    (sim, sizes)
}

/// Assert `mem_bytes()` is within 5% of what the allocator holds for the
/// world (`held` bytes), and return it.
fn counted_within_5_percent(sim: &ShardedSimulator, held: i64) -> MemBytes {
    let m = sim.mem_bytes();
    let counted = m.total() as i64;
    assert!(
        (counted - held).abs() * 20 <= held,
        "mem_bytes() counts {counted} bytes, the allocator holds {held}: {m:?}"
    );
    m
}

#[test]
fn mem_bytes_names_every_live_byte_of_a_churn_world() {
    let before = live();
    let (mut sim, sizes) = churn_world();
    sim.run_until(SimTime::from_millis(600));
    let held = live() - before - (sizes.capacity() * 8) as i64;
    for (c, &size) in sizes.iter().enumerate() {
        let st = sim.connection_stats(c);
        assert!(st.finished_at.is_some() && st.data_delivered == size, "flow {c}: {st:?}");
    }
    assert!(sim.arena_hot_slots() < 2 * (BURST + TRICKLE), "the trickle re-tenanted no window");

    let m = counted_within_5_percent(&sim, held);

    // Every flow has retired: what each keeps is its connection record,
    // frozen stats, cold rows and its share of the world map.
    let MemBytes { connections, final_stats, cold, routes, world_map, .. } = m;
    let per_flow = (connections + final_stats + cold + routes + world_map) / sizes.len() as u64;
    assert!(per_flow <= RETIRED_FLOW_BYTES, "a retired flow holds {per_flow} bytes: {m:?}");
}

#[test]
fn a_resident_hot_slot_holds_its_budget_at_the_burst_high_water() {
    let before = live();
    let (mut sim, sizes) = churn_world();
    // Every burst flow has started by 10 ms and none retires before its
    // straggler grace, well past 100 ms: the burst is resident at once.
    sim.run_until(SimTime::from_millis(100));
    let held = live() - before - (sizes.capacity() * 8) as i64;
    assert_eq!(sim.arena_hot_slots(), 2 * BURST, "every burst flow holds a two-slot window");
    let m = counted_within_5_percent(&sim, held);
    let per_slot = (m.hot + m.rings + m.sent_meta) / sim.arena_hot_slots() as u64;
    assert!(per_slot <= HOT_SLOT_BYTES, "a hot slot holds {per_slot} bytes: {m:?}");
}

/// The trickle re-tenants the windows the burst left behind: every
/// trickle flow reuses one, and the real allocator calls it makes —
/// connection records, event-queue and link-queue growth — stay within
/// budget. A recycler that appends fresh slots instead, or that moves
/// ring storage between windows, makes several ring and metadata
/// allocations per flow and fails this.
#[test]
fn the_trickle_reuses_windows_within_its_allocation_budget() {
    let (mut sim, _sizes) = churn_world();
    sim.run_until(SimTime(SimTime::from_millis(200).as_nanos() - 1));
    let (before, reuses) = (calls(), sim.arena_hot_reuses());
    sim.run_until(SimTime::from_millis(600));
    let (allocs, reused) = (calls() - before, sim.arena_hot_reuses() - reuses);
    assert_eq!(reused, TRICKLE as u64, "every trickle flow re-tenants a window");
    assert!(
        allocs <= TRICKLE_ALLOC_CALLS,
        "the trickle's {TRICKLE} flows made {allocs} allocation calls"
    );
}

/// Allocation calls the trickle makes: 364 measured, plus 10%.
const TRICKLE_ALLOC_CALLS: u64 = 400;

/// Bytes a retired flow of this world holds: 431 measured, plus 10%.
const RETIRED_FLOW_BYTES: u64 = 474;

/// Bytes of hot columns, rings and send metadata per hot slot at the
/// burst high-water, column capacity included: 666 measured, plus 10%.
const HOT_SLOT_BYTES: u64 = 733;

/// The per-ACK path allocates nothing once warm: scoreboards and
/// reassembly rings are sized, the event wheel's slots and the links'
/// queues have grown to their working size, and every scratch buffer is
/// reused. Two two-subflow bulk connections (the coupled MPTCP rule and
/// OLIA) share a 10 and an 8 Mb/s link, once clean and once at 1% loss
/// (SACK recovery, retransmission and RTO timers). A B-tree insert or a
/// `Vec` clone per ACK fails this.
///
/// What a warm simulator may still do is grow a buffer to a new high-water
/// mark. Over seeds 1–12 the clean window never does; four of the twelve
/// lossy windows double a `VecDeque` once or twice in 40 s, either a
/// sender's flight record (`SubflowSender::on_send_new`) or a link queue
/// (`Net::offer`), when the flight or the queue first
/// reaches a new maximum. This seed's windows reach none.
#[test]
fn the_ack_path_allocates_nothing_once_warm() {
    for loss in [0.0, 0.01] {
        let mut sim = Simulator::new(5);
        let a = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 50).with_loss(loss));
        let b = sim.add_link(LinkSpec::mbps(8.0, SimTime::from_millis(20), 50).with_loss(loss));
        for kind in [AlgorithmKind::Mptcp, AlgorithmKind::Olia] {
            sim.add_connection(ConnectionSpec::bulk(kind).path(vec![a]).path(vec![b]));
        }
        sim.run_until(SimTime::from_secs(20));
        let (before, events) = (calls(), sim.perf().events_fired);
        sim.run_until(SimTime::from_secs(60));
        let (allocs, events) = (calls() - before, sim.perf().events_fired - events);
        assert!(events > 50_000, "loss {loss}: only {events} events in the window");
        assert_eq!(allocs, 0, "loss {loss}: {allocs} allocations in {events} steady-state events");
    }
}
