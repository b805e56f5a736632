//! Slab-backed struct-of-arrays arena for per-subflow flow state.
//!
//! The simulator used to keep one `Vec<SubflowState>` of fat mixed
//! hot/cold structs. At FatTree K=32+ scale the per-ACK path walked
//! cache lines full of routing tables and write-rarely stats to reach
//! the few fields it actually needed, and flow churn (Poisson short-flow
//! arrivals) hit the global allocator on every open/close. This module
//! replaces that with a [`FlowArena`]:
//!
//! * **Hot columns** — [`SubflowSender`] (cwnd/una/next_seq/srtt and the
//!   scoreboard), [`SubflowReceiver`], and the lazy RTO timer pair — live
//!   in parallel `Vec`s indexed by a *hot* slot index. A connection's
//!   subflows occupy a contiguous window `[hot_base, hot_base + n)`.
//!   Windows are generation-indexed and **recycled** under one rule: a
//!   retiring connection's window goes on a free list keyed by its width
//!   and envelope class, and a later connection of exactly that width
//!   re-tenants it in place via `reset_for_reuse` — the smallest class
//!   whose envelope covers the new flow, else the largest class below
//!   it. No allocator traffic, and counters stay monotone. Free windows
//!   never change width and no
//!   storage moves between them; a flow with no free window of its width
//!   appends fresh slots.
//! * **Cold rows** — [`ColdSubflow`]: only what a subflow without a hot
//!   window needs: ACK-return delay and backup/closed flags. Cold rows
//!   are append-only and their indices are *stable for the lifetime of
//!   the world*. The TCP params
//!   that re-arm a recycled sender are the connection's, passed to
//!   [`FlowArena::acquire_hot`].
//!
//! The arena is purely a storage layout: simulation *behavior* is
//! unchanged, which `conn.rs`'s lifecycle differential proptest and the
//! committed `chaos_smoke` digest pin down.

// Per-shard slab storage (DESIGN.md §3.2d): panic-free and cast-audited
// like the sender state it holds, but slab indexing is the storage idiom
// here and its own methods run at flow open/close (the churn path), so
// `indexing_slicing` stays off. The free-list BTreeMap is churn-path-only.
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

use crate::mem::{vec_bytes, MemBytes};
use crate::tcp::{SubflowReceiver, SubflowSender, TcpParams};
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::mem::size_of;

/// Sentinel hot base for a connection whose window is not resident (not
/// yet started under flow lifecycle, or already retired).
pub(crate) const NOT_RESIDENT: u32 = u32::MAX;

/// A time that never comes, as "none" in eight bytes where an
/// `Option<SimTime>` takes sixteen: an RTO deadline that is not armed, no
/// pending `RtoFire`, a connection that has not finished. No simulated
/// time reaches it.
pub(crate) const NEVER: SimTime = SimTime::MAX;

/// Cold per-subflow state: what a subflow without a hot window needs.
/// Rows are append-only and indexed by the connection's stable
/// `sub_base`; they survive hot-window recycling so late packets still
/// find their admin/path-management flags.
#[derive(Debug)]
pub(crate) struct ColdSubflow {
    /// Fixed delay from delivery at the destination to the ACK reaching
    /// the sender (the path's reverse propagation delay).
    pub(crate) ack_delay: SimTime,
    /// Backup priority (MP_JOIN `B` bit).
    pub(crate) backup: bool,
    /// Administratively closed (address withdrawn).
    pub(crate) closed: bool,
}

impl ColdSubflow {
    /// The RTT the congestion controller sees before the sender's first
    /// sample: twice the one-way propagation delay, at least 100 µs.
    pub(crate) fn rtt_hint(&self) -> f64 {
        (self.ack_delay + self.ack_delay).as_secs_f64().max(1e-4)
    }
}

/// Struct-of-arrays storage for every subflow in the world: hot columns
/// in recycled generation-indexed windows, cold rows parked separately.
/// See the [module docs](self) for the layout rationale.
#[derive(Debug, Default)]
pub(crate) struct FlowArena {
    /// Hot column: sender state (window, scoreboard, RTT estimator).
    pub(crate) tx: Vec<SubflowSender>,
    /// Hot column: receiver/reassembly state.
    pub(crate) rx: Vec<SubflowReceiver>,
    /// Hot column: absolute RTO deadline if conceptually armed, else
    /// [`NEVER`].
    pub(crate) rto_deadline: Vec<SimTime>,
    /// Hot column: time of the earliest pending `RtoFire` event, or
    /// [`NEVER`] (lazy timers re-queue themselves when they fire early).
    pub(crate) rto_event_at: Vec<SimTime>,
    /// Hot column: slot generation, bumped on every acquisition. Lets
    /// debug builds catch a stale `(base, gen)` handle touching a slot
    /// that has since been recycled to another connection.
    pub(crate) gen: Vec<u32>,
    /// Cold rows, indexed by the stable `sub_base` space.
    pub(crate) cold: Vec<ColdSubflow>,
    /// Free hot windows keyed by `(window size, envelope class)`: the
    /// class is the `⌈log2⌉` of the smallest warmed per-packet-metadata
    /// capacity across the window's lanes (see
    /// [`crate::cast::env_class_u8`]). Acquisition matches a flow to a
    /// window whose storage is already sized for it, so a short clean
    /// flow never re-tenants — and then regrows — a window a congested
    /// tiny-flight flow left behind.
    free: BTreeMap<(u32, u8), Vec<u32>>,
    /// Capacity-growth events of the hot columns (folded into
    /// `SimPerf::hot_allocs`; flat once churn reuses windows).
    grows: u64,
    /// Windows served from the free lists instead of fresh storage.
    reuses: u64,
}

impl FlowArena {
    /// Number of hot slots (resident + free).
    pub(crate) fn hot_len(&self) -> usize {
        self.tx.len()
    }

    /// Allocation accounting: hot-column capacity growth events, for
    /// [`crate::SimPerf::hot_allocs`]. Initial admission-time column
    /// fills are not counted (matching the sender/scoreboard discipline
    /// of not counting constructor allocations); growth during lifecycle
    /// churn is.
    pub(crate) fn alloc_events(&self) -> u64 {
        self.grows
    }

    /// Hot windows served by recycling instead of fresh storage.
    pub(crate) fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Add the arena's bytes to `m`: hot columns and free lists, the rings
    /// and send metadata behind them, and cold rows.
    pub(crate) fn mem_bytes(&self, m: &mut MemBytes) {
        m.hot += vec_bytes(&self.tx)
            + vec_bytes(&self.rx)
            + vec_bytes(&self.rto_deadline)
            + vec_bytes(&self.rto_event_at)
            + vec_bytes(&self.gen);
        m.hot += self
            .free
            .values()
            .map(|bases| vec_bytes(bases) + size_of::<((u32, u8), Vec<u32>)>() as u64)
            .sum::<u64>();
        for tx in &self.tx {
            let (rings, meta) = tx.heap_bytes();
            m.rings += rings;
            m.sent_meta += meta;
        }
        m.rings += self.rx.iter().map(SubflowReceiver::heap_bytes).sum::<u64>();
        m.cold += vec_bytes(&self.cold);
    }

    /// Acquire a hot window of `n` slots armed with the connection's
    /// `params`, and return `(hot_base, generation)`.
    /// `want_env` is the flow's expected per-lane flight envelope in
    /// packets (its transfer size for sized flows, `u64::MAX` for bulk).
    /// One rule: take a free window of exactly `n` slots — of the smallest
    /// envelope class that covers `want_env`, else of the largest class
    /// below it (least growth for the new tenant to pay) — or, if none is
    /// free, append fresh slots. `count_growth` controls whether fresh
    /// column growth is charged to `alloc_events` — admission-time fills
    /// pass `false` (constructor allocations are uncounted by
    /// convention), lifecycle-churn acquisitions pass `true`.
    pub(crate) fn acquire_hot(
        &mut self,
        n: usize,
        count_growth: bool,
        want_env: u64,
        params: &TcpParams,
    ) -> (u32, u32) {
        debug_assert!(n > 0);
        let want = crate::cast::slab_u32(n);
        let want_class = crate::cast::env_class_u8(want_env);
        let key = self
            .free
            .range((want, want_class)..=(want, u8::MAX))
            .next()
            .or_else(|| self.free.range((want, 0)..(want, want_class)).next_back())
            .map(|(&k, _)| k);
        if let Some(key) = key {
            #[expect(
                clippy::expect_used,
                reason = "the key was just yielded by the range scans above; empty stacks are removed eagerly on pop"
            )]
            let stack = self.free.get_mut(&key).expect("free-list key just seen");
            #[expect(
                clippy::expect_used,
                reason = "empty stacks are removed eagerly below, so a present key always holds at least one base"
            )]
            let base = stack.pop().expect("free-list stacks are never left empty");
            if stack.is_empty() {
                self.free.remove(&key);
            }
            self.reuses += 1;
            let gen = self.reset_window(base as usize, n, params);
            return (base, gen);
        }
        let base = crate::cast::slab_u32(self.tx.len());
        let cap = self.tx.capacity();
        for _ in 0..n {
            self.tx.push(SubflowSender::new(params));
            self.rx.push(SubflowReceiver::default());
            self.rto_deadline.push(NEVER);
            self.rto_event_at.push(NEVER);
            self.gen.push(0);
        }
        if count_growth && self.tx.capacity() != cap {
            // The columns grow in lockstep; one charge covers the slab.
            self.grows += 1;
        }
        (base, 0)
    }

    /// Re-arm a recycled window in place: every slot ends bit-identical
    /// to a freshly constructed one (pinned by the `reset_for_reuse`
    /// differential proptests in `tcp.rs`), storage and monotone
    /// allocation counters are kept, and the generation is bumped.
    fn reset_window(&mut self, base: usize, n: usize, params: &TcpParams) -> u32 {
        for i in 0..n {
            self.tx[base + i].reset_for_reuse(params);
            self.rx[base + i].reset_for_reuse();
            self.rto_deadline[base + i] = NEVER;
            self.rto_event_at[base + i] = NEVER;
            self.gen[base + i] = self.gen[base + i].wrapping_add(1);
        }
        self.gen[base]
    }

    /// Return a hot window to the free lists for reuse. `env` is the
    /// warmed envelope the retiring tenant leaves behind (its smallest
    /// per-lane metadata capacity, packets) — it becomes the window's
    /// class key so acquisition can match flows to pre-sized storage.
    /// `gen` is the generation handed out by [`Self::acquire_hot`]; a
    /// mismatch means a stale handle released someone else's window
    /// (debug-asserted).
    pub(crate) fn release_hot(&mut self, hot_base: u32, n: usize, gen: u32, env: u64) {
        debug_assert!(hot_base != NOT_RESIDENT && (hot_base as usize) + n <= self.tx.len());
        debug_assert_eq!(self.gen[hot_base as usize], gen, "stale window handle at release");
        self.free
            .entry((crate::cast::slab_u32(n), crate::cast::env_class_u8(env)))
            .or_default()
            .push(hot_base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_with_cold(n: usize) -> FlowArena {
        let mut a = FlowArena::default();
        for _ in 0..n {
            let ack_delay = SimTime::from_millis(10);
            a.cold.push(ColdSubflow { ack_delay, backup: false, closed: false });
        }
        a
    }

    #[test]
    fn released_windows_are_reused_in_place_with_a_bumped_generation() {
        let mut a = FlowArena::default();
        let (b0, g0) = a.acquire_hot(2, true, 8, &TcpParams::default());
        let (b1, _g1) = a.acquire_hot(2, true, 8, &TcpParams::default());
        assert_eq!((b0, b1), (0, 2), "fresh windows are appended in order");
        let len = a.hot_len();
        a.release_hot(b0, 2, g0, 8);
        let (b2, g2) = a.acquire_hot(2, true, 8, &TcpParams::default());
        assert_eq!(b2, b0, "a same-shape acquisition must recycle the freed window");
        assert_eq!(g2, g0 + 1, "recycling must bump the generation");
        assert_eq!(a.hot_len(), len, "reuse must not grow the columns");
        assert_eq!(a.reuses(), 1);
    }

    #[test]
    fn free_windows_serve_only_flows_of_their_own_width() {
        let mut a = FlowArena::default();
        let (b4, g4) = a.acquire_hot(4, true, 8, &TcpParams::default());
        let (b1, g1) = a.acquire_hot(1, true, 8, &TcpParams::default());
        a.release_hot(b4, 4, g4, 8);
        a.release_hot(b1, 1, g1, 8);
        // A 2-wide flow fits neither free window: it appends fresh slots
        // and leaves both where they were, at their own widths.
        let (b2, _) = a.acquire_hot(2, true, 8, &TcpParams::default());
        assert_eq!(b2, 5, "no free window of width 2: fresh slots are appended");
        assert_eq!(a.reuses(), 0);
        // A wider acquisition leaves the narrower free window on its list
        // for the next flow of that width.
        let (b4_again, _) = a.acquire_hot(4, true, 8, &TcpParams::default());
        assert_eq!(b4_again, b4, "the 4-wide flow re-tenants the 4-wide window whole");
        let (b1_again, _) = a.acquire_hot(1, true, 8, &TcpParams::default());
        assert_eq!(b1_again, b1, "the 1-wide window waited for a 1-wide flow");
        assert_eq!(a.hot_len(), 7, "both reuses served from recycled storage");
        assert_eq!(a.reuses(), 2);
    }

    #[test]
    fn cold_rows_are_stable_across_hot_churn() {
        let mut a = arena_with_cold(2);
        a.cold[1].closed = true;
        let (b, g) = a.acquire_hot(2, false, 8, &TcpParams::default());
        a.release_hot(b, 2, g, 8);
        let _ = a.acquire_hot(2, true, 8, &TcpParams::default());
        assert!(a.cold[1].closed && !a.cold[0].closed, "cold rows must survive hot recycling");
        assert_eq!(a.cold.len(), 2);
    }

    #[test]
    fn acquisition_matches_flows_to_windows_sized_for_them() {
        let mut a = FlowArena::default();
        let (b_small, g_small) = a.acquire_hot(2, true, 4, &TcpParams::default());
        let (b_big, g_big) = a.acquire_hot(2, true, 64, &TcpParams::default());
        let (b_mid, g_mid) = a.acquire_hot(2, true, 16, &TcpParams::default());
        a.release_hot(b_small, 2, g_small, 4);
        a.release_hot(b_big, 2, g_big, 64);
        a.release_hot(b_mid, 2, g_mid, 16);
        // A 40-packet flow needs class 6 (33..=64): only the big window
        // qualifies, even though the small ones were released later.
        let (b0, _) = a.acquire_hot(2, true, 40, &TcpParams::default());
        assert_eq!(b0, b_big, "the 64-envelope window serves the 40-packet flow");
        // A 3-packet flow takes the *smallest* sufficient envelope.
        let (b1, _) = a.acquire_hot(2, true, 3, &TcpParams::default());
        assert_eq!(b1, b_small, "the 4-envelope window serves the 3-packet flow");
        // Nothing sufficient left: fall back to the largest envelope
        // below the request rather than growing fresh columns.
        let len = a.hot_len();
        let (b2, _) = a.acquire_hot(2, true, 1000, &TcpParams::default());
        assert_eq!(b2, b_mid, "largest-below fallback picks the 16-envelope window");
        assert_eq!(a.hot_len(), len, "fallback reuse must not grow the columns");
        assert_eq!(a.reuses(), 3);
    }
}
