//! The idle-tick contract, allocation half: a tick on which nothing
//! arrives, neither endpoint has a segment to send and the application
//! reads nothing makes no heap allocation. Fixed-tick harnesses spend
//! almost all their ticks that way (98.7% of `proto_bulk`'s polls return
//! nothing). Most such ticks never reach the endpoint's passes: `poll`
//! returns an empty `Vec` before the wake time the last full poll left
//! (DESIGN.md §3.4), and `write` into a full buffer, `read` with nothing in
//! order and `Wire::recv_*` with nothing due return at once. A tick that
//! reaches a deadline with nothing to send runs the full poll, which must
//! not allocate either; this test counts both kinds. That the skipped
//! polls really had nothing to do is the lazy-poll differential's job.
//!
//! Busy ticks have a budget too: at most 4 allocations per segment the
//! wires carry, counted over the whole transfer. A data segment's payload
//! and options are allocated once by the sender; the wire's
//! encode/decode round trip writes into the wire's scratch buffer and back
//! into the segment's own buffers, and an out-of-order payload moves into
//! the receiver's reassembly map as it arrived (DESIGN.md §3.4). Run with
//! `-- --nocapture` to print the count.
//!
//! This file is its own crate, so its counting allocator does not touch
//! the library's `#![forbid(unsafe_code)]`. Keep it to one `#[test]`: the
//! count is per thread, but a second test would share the allocator.

#![expect(
    clippy::disallowed_macros,
    reason = "the counter is per thread by design: `thread_local!` keeps other test threads' allocations out of the count"
)]

use mptcp_proto::{EndpointConfig, Harness, Wire, WireFault};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread. `const`-built
    /// and without a destructor, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods of this impl.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn idle_ticks_allocate_nothing_and_busy_ticks_stay_in_budget() {
    let wires = vec![
        Wire::new(5_000, 1).with_fault(WireFault::Loss(0.01)),
        Wire::new(20_000, 2).with_fault(WireFault::Loss(0.01)).with_fault(WireFault::Jitter(2_000)),
    ];
    let mut h = Harness::new(EndpointConfig::default(), wires, 7);
    let data: Vec<u8> = (0..2_000_000).map(|i| (i % 251) as u8).collect();
    let mut buf = vec![0u8; 16 * 1024];
    let (mut written, mut read, mut closed) = (0, 0, false);
    let (mut idle_ticks, mut busy_ticks, mut idle_allocs, mut busy_allocs) = (0u64, 0, 0, 0);

    while !(closed && h.server.at_eof() && h.client.send_complete()) {
        assert!(h.now < 120_000_000, "transfer stalled with {read} bytes read");
        if written < data.len() {
            written += h.client.write(&data[written..]);
        } else if !closed {
            h.client.close();
            closed = true;
        }

        // One 100 µs tick, then the application's read.
        let before = allocs();
        let moved = h.step();
        let n = h.server.read(&mut buf);
        let spent = allocs() - before;

        read += n;
        let joined =
            (0..2).all(|i| h.client.subflow_established(i) && h.server.subflow_established(i));
        if joined && moved == 0 && n == 0 {
            idle_ticks += 1;
            idle_allocs += spent;
        } else {
            busy_ticks += 1;
            busy_allocs += spent;
        }
    }
    assert_eq!(read, data.len());
    assert!(busy_ticks > 1_000 && idle_ticks > 10 * busy_ticks, "{idle_ticks} idle, {busy_ticks} busy");
    assert_eq!(idle_allocs, 0, "{idle_allocs} allocations over {idle_ticks} idle ticks");
    let carried: u64 = h.wires.iter().map(|w| w.carried).sum();
    let per_segment = busy_allocs as f64 / carried as f64;
    println!(
        "{busy_allocs} allocations over {busy_ticks} busy ticks, {carried} segments carried: \
         {per_segment:.2} per segment"
    );
    assert!(
        per_segment <= 4.0,
        "{per_segment:.2} allocations per carried segment ({busy_allocs} over {carried})"
    );
}
