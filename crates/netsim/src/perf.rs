//! Simulator performance counters.
//!
//! [`SimPerf`] is a cheap, always-on snapshot of what the event core has
//! done: how many events were scheduled, fired, and cancelled, how deep
//! the queue got, and how fast simulated events are being retired per
//! wall-clock second. The benchmark harness reports event throughput from
//! it and the invariant tests use it to pin down the event-accounting
//! identities.

// lint:digest-surface — every pub struct here is sim-visible state and must
// implement `DetDigest` (enforced by `cargo xtask lint`). Wall-clock-derived
// fields are `skip`ped from the digest explicitly.

use crate::time::SimTime;
use mptcp_cc::impl_det_digest;
use std::time::Duration;

/// A snapshot of the simulator's event-processing counters, obtained from
/// [`crate::Simulator::perf`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimPerf {
    /// Events ever pushed onto the queue.
    pub events_scheduled: u64,
    /// Events popped and dispatched (includes cancelled ones).
    pub events_fired: u64,
    /// Fired events that turned out to be stale and did no work: lazy RTO
    /// timers that were disarmed or whose deadline had moved later, and
    /// CBR send events from a superseded on/off generation.
    pub events_cancelled: u64,
    /// Events currently pending in the queue.
    pub pending: u64,
    /// High-water mark of simultaneously pending events.
    pub peak_pending: u64,
    /// Wall-clock time spent inside `run_until`.
    pub wall: Duration,
    /// Simulated time the clock has advanced to.
    pub sim_elapsed: SimTime,
    /// Scripted fault actions executed so far (see
    /// [`crate::Simulator::install_fault_plan`]).
    pub faults_applied: u64,
    /// When the stall watchdog declared the world stalled — no data
    /// delivered for the armed threshold while unfinished connections
    /// existed (see [`crate::Simulator::set_stall_watchdog`]). `run_until`
    /// returned early at this time.
    pub stalled_at: Option<SimTime>,
    /// When the event queue ran dry with unfinished connections left: a
    /// quiesced (deadlocked) world that can never make progress again.
    pub quiesced_at: Option<SimTime>,
    /// Logical allocation events on the simulator's hot paths: scoreboard
    /// ring growth, send-metadata growth, ACK-pool growth, growth of the
    /// simulator's one set of per-call scratch buffers, and hot-column
    /// growth under flow lifecycle. After warmup this must stop moving —
    /// the steady-state ACK path is allocation-free (asserted by tests).
    /// The owning structures count these events; bytes actually held are
    /// [`crate::Simulator::mem_bytes`], which `tests/mem_account.rs`
    /// checks against a counting global allocator.
    pub hot_allocs: u64,
    /// Events the timer wheel's cascades moved down a level. Each event
    /// descends at most once per level, so this stays within a small
    /// multiple of `events_scheduled`; a count far above that means the
    /// scheduler is re-walking a slot.
    pub queue_reinserts: u64,
}

impl_det_digest!(SimPerf {
    events_scheduled,
    events_fired,
    events_cancelled,
    pending,
    peak_pending,
    sim_elapsed,
    faults_applied,
    stalled_at,
    quiesced_at,
} skip {
    // Wall-clock measurement: legitimately differs run to run and must not
    // perturb the determinism digest.
    wall,
    // Allocation accounting describes the host-side storage, not the
    // simulated history, so it stays out of the determinism digest, like
    // `wall`.
    hot_allocs,
    // A property of the wheel's layout, not of the simulated history.
    queue_reinserts,
});

/// The workspace's **single audited wall-clock read**.
///
/// Determinism policy (DESIGN.md §3.2d): simulation logic may never consult
/// the host clock — simulated time is [`SimTime`], advanced only by the
/// event loop. The one legitimate use of `Instant` is *measuring ourselves*
/// (the `SimPerf::wall` counter and the benchmark harness), and every such
/// read routes through this helper so `cargo xtask lint` can allow exactly
/// one `Instant::now` site in library code.
pub fn wall_clock() -> std::time::Instant {
    // lint:allow(wall-clock, reason = "the single audited perf-measurement entropy site; every elapsed-time read routes through here")
    std::time::Instant::now()
}

impl SimPerf {
    /// Simulated events dispatched per wall-clock second — the headline
    /// throughput number for backend comparisons. Zero if no wall time has
    /// been accumulated yet.
    pub fn events_per_wall_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events_fired as f64 / secs
        } else {
            0.0
        }
    }

    /// Accounting identity: every scheduled event is either fired or still
    /// pending, and every applied fault was a fired event. Used by the
    /// invariant tests.
    pub fn is_consistent(&self) -> bool {
        self.events_scheduled == self.events_fired + self.pending
            && self.events_cancelled <= self.events_fired
            && self.pending <= self.peak_pending
            && self.faults_applied <= self.events_fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_per_wall_sec_handles_zero_wall() {
        let p = SimPerf::default();
        assert_eq!(p.events_per_wall_sec(), 0.0);
    }

    #[test]
    fn consistency_identity() {
        let p = SimPerf {
            events_scheduled: 100,
            events_fired: 60,
            events_cancelled: 5,
            pending: 40,
            peak_pending: 50,
            wall: Duration::from_millis(10),
            sim_elapsed: SimTime::from_secs(1),
            faults_applied: 3,
            stalled_at: None,
            quiesced_at: None,
            hot_allocs: 0,
            queue_reinserts: 0,
        };
        assert!(p.is_consistent());
        assert!(p.events_per_wall_sec() > 0.0);
        let bad = SimPerf { faults_applied: 61, ..p };
        assert!(!bad.is_consistent(), "more faults than fired events is impossible");
    }
}
