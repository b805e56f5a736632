//! The per-subflow state visible to a congestion-control rule.

// lint:digest-surface — every pub struct here is sim-visible state and must
// implement `DetDigest` (checked by `xtask/tests/lint_fixtures.rs`).

/// A read-only snapshot of one subflow's congestion state, in the units the
/// paper uses: congestion windows in **packets** and round-trip times in
/// **seconds**.
///
/// The paper (§2) notes that real implementations maintain windows in bytes;
/// like the paper's exposition we use packets throughout, and the simulator
/// and protocol layer convert at their boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubflowSnapshot {
    /// Congestion window of this subflow, in packets. Always ≥ the
    /// algorithm's probing floor (1 packet in our implementation, §2.4).
    pub cwnd: f64,
    /// Smoothed round-trip time of this subflow, in seconds
    /// ("We use a smoothed RTT estimator, computed similarly to TCP", §2).
    pub rtt: f64,
    /// Whether the subflow currently exists as a usable path. Runtime path
    /// management (ADD/REMOVE_ADDR, §3.2g) can close subflows mid-transfer;
    /// a closed subflow keeps its arena slot (and therefore its snapshot
    /// slot) but must not count toward path-cardinality-dependent rules
    /// such as EWTCP's `1/n` weight.
    pub active: bool,
}

crate::impl_det_digest!(SubflowSnapshot { cwnd, rtt, active });

impl SubflowSnapshot {
    /// Convenience constructor for an active subflow.
    pub fn new(cwnd: f64, rtt: f64) -> Self {
        Self { cwnd, rtt, active: true }
    }

    /// Override the active flag (builder style).
    pub fn active(mut self, active: bool) -> Self {
        self.active = active;
        self
    }

    /// The subflow's instantaneous rate estimate `w_r / RTT_r` in packets
    /// per second — the quantity the fairness goals (3)–(4) are written in.
    pub fn rate(&self) -> f64 {
        self.cwnd / self.rtt
    }
}

/// Sum of windows across subflows (`w_total` in the paper).
pub fn total_window(subs: &[SubflowSnapshot]) -> f64 {
    subs.iter().map(|s| s.cwnd).sum()
}

/// Number of live (non-closed) subflows in a snapshot slice. At least one
/// subflow is always counted: a connection whose every path was withdrawn
/// still holds its last subflow at the probing floor, and cardinality-based
/// weights (EWTCP's `1/n`) must not divide by zero meanwhile.
pub fn active_count(subs: &[SubflowSnapshot]) -> usize {
    subs.iter().filter(|s| s.active).count().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_window_over_rtt() {
        let s = SubflowSnapshot::new(20.0, 0.1);
        assert!((s.rate() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn total_window_sums() {
        let subs = [SubflowSnapshot::new(3.0, 0.1), SubflowSnapshot::new(7.0, 0.2)];
        assert!((total_window(&subs) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn total_window_empty_is_zero() {
        assert_eq!(total_window(&[]), 0.0);
    }

    #[test]
    fn active_count_ignores_closed_subflows_with_a_floor_of_one() {
        let subs = [
            SubflowSnapshot::new(3.0, 0.1),
            SubflowSnapshot::new(7.0, 0.2).active(false),
            SubflowSnapshot::new(5.0, 0.3),
        ];
        assert_eq!(active_count(&subs), 2);
        let all_closed = [SubflowSnapshot::new(1.0, 0.1).active(false)];
        assert_eq!(active_count(&all_closed), 1, "floor of one live path");
        assert_eq!(active_count(&[]), 1);
    }
}
