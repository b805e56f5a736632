//! Deterministic flow-churn schedules for the arena-lifecycle benches.
//!
//! The [`arrivals`](crate::arrivals) module generates the paper's §3
//! Poisson workload; this module generates the *stress* shape the
//! struct-of-arrays flow arena is built for: a dense **burst** of short
//! flows that are all simultaneously resident (the concurrency high-water
//! that sizes the arena), followed by a steady **trickle** of late
//! arrivals that must re-tenant the hot windows and scoreboard rings the
//! burst left behind — by the trickle phase, a steady-state simulator
//! performs zero new hot-path allocations.
//!
//! Everything here is closed-form deterministic (no RNG): the schedule is
//! part of a benchmark's identity, so two runs — or the jobs=1 and jobs=8
//! arms of a determinism check — must get byte-identical arrivals.

use crate::arrivals::FlowArrival;
use mptcp_netsim::SimTime;

/// A two-phase burst-then-trickle churn schedule.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSchedule {
    /// Flows in the opening burst, spread uniformly over `burst_window`.
    pub burst_flows: usize,
    /// Length of the burst arrival window. Keep it shorter than a flow's
    /// retirement grace so every burst flow is resident at once.
    pub burst_window: SimTime,
    /// Flows in the trickle phase.
    pub trickle_flows: usize,
    /// When the first trickle flow starts (leave room for the burst to
    /// drain and retire).
    pub trickle_start: SimTime,
    /// Gap between consecutive trickle arrivals.
    pub trickle_spacing: SimTime,
    /// Smallest flow size, packets (inclusive).
    pub min_pkts: u64,
    /// Largest flow size, packets (inclusive). Trickle sizes never exceed
    /// burst sizes, so recycled scoreboards always have the capacity.
    pub max_pkts: u64,
}

impl ChurnSchedule {
    /// Deterministic size for flow `i`: cycles through
    /// `[min_pkts, max_pkts]` with a coprime stride so neighbouring
    /// arrivals get unrelated sizes.
    pub fn size_pkts(&self, i: usize) -> u64 {
        debug_assert!(self.min_pkts >= 1 && self.max_pkts >= self.min_pkts);
        let span = self.max_pkts - self.min_pkts + 1;
        self.min_pkts + (i as u64).wrapping_mul(13).wrapping_add(7) % span
    }

    /// All arrivals of both phases, sorted by start time.
    pub fn arrivals(&self) -> Vec<FlowArrival> {
        let mut out = Vec::with_capacity(self.burst_flows + self.trickle_flows);
        let burst_ns = self.burst_window.as_nanos();
        for i in 0..self.burst_flows {
            // i * window / n without overflow risk: window is ns-scale
            // (< 2^40), flow counts are < 2^24.
            let start = SimTime(burst_ns * i as u64 / self.burst_flows.max(1) as u64);
            out.push(FlowArrival { start, size_pkts: self.size_pkts(i) });
        }
        for i in 0..self.trickle_flows {
            let start =
                self.trickle_start + SimTime(self.trickle_spacing.as_nanos() * i as u64);
            out.push(FlowArrival { start, size_pkts: self.size_pkts(self.burst_flows + i) });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChurnSchedule {
        ChurnSchedule {
            burst_flows: 1000,
            burst_window: SimTime::from_millis(100),
            trickle_flows: 50,
            trickle_start: SimTime::from_secs(5),
            trickle_spacing: SimTime::from_millis(1),
            min_pkts: 4,
            max_pkts: 20,
        }
    }

    #[test]
    fn arrivals_are_sorted_sized_and_phased() {
        let s = sample();
        let a = s.arrivals();
        assert_eq!(a.len(), 1050);
        for w in a.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert!(a.iter().all(|f| (4..=20).contains(&f.size_pkts)));
        // Burst stays inside its window; trickle starts where asked.
        assert!(a[999].start < SimTime::from_millis(100));
        assert_eq!(a[1000].start, SimTime::from_secs(5));
        assert_eq!(a[1049].start, SimTime::from_secs(5) + SimTime::from_millis(49));
    }

    #[test]
    fn sizes_cycle_through_the_whole_range() {
        let s = sample();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..200 {
            seen.insert(s.size_pkts(i));
        }
        assert_eq!(seen.len(), 17, "stride 13 is coprime with span 17: all sizes hit");
    }

    #[test]
    fn schedule_is_deterministic() {
        assert_eq!(sample().arrivals(), sample().arrivals());
    }
}
