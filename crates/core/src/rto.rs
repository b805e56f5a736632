//! The retransmission timer every subflow runs: RFC 6298 SRTT/RTTVAR
//! estimation, exponential backoff, and the "potentially failed" threshold
//! the paper's §6 failure handling hinges on. One copy, driven by both the
//! packet-level simulator's sender and the userspace endpoint.

use crate::POTENTIALLY_FAILED_RTO_BACKOFFS;

/// RFC 6298 retransmission-timeout estimator for one subflow, in seconds.
///
/// Karn's rule is the caller's job: feed [`RtoEstimator::on_sample`] only
/// round trips of segments that were never retransmitted.
#[derive(Debug, Clone, Copy)]
pub struct RtoEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    /// Unclamped RTO including backoff; [`RtoEstimator::rto`] clamps it.
    rto: f64,
    min_rto: f64,
    max_rto: f64,
    backoffs: u32,
}

impl RtoEstimator {
    /// A timer with no RTT sample yet: the RTO is `initial_rto` until the
    /// first sample, always clamped to `[min_rto, max_rto]`.
    pub fn new(initial_rto: f64, min_rto: f64, max_rto: f64) -> Self {
        Self { srtt: None, rttvar: 0.0, rto: initial_rto, min_rto, max_rto, backoffs: 0 }
    }

    /// Smoothed RTT, once a sample has been taken.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// Consecutive timeouts with no ACK progress in between.
    pub fn backoffs(&self) -> u32 {
        self.backoffs
    }

    /// The effective timeout: estimate plus backoff, clamped to the
    /// configured range.
    pub fn rto(&self) -> f64 {
        self.rto.clamp(self.min_rto, self.max_rto)
    }

    /// At least [`POTENTIALLY_FAILED_RTO_BACKOFFS`] consecutive timeouts
    /// without progress. Derived state: [`RtoEstimator::on_progress`]
    /// revives the subflow.
    pub fn potentially_failed(&self) -> bool {
        self.backoffs >= POTENTIALLY_FAILED_RTO_BACKOFFS
    }

    /// Fold in a fresh RTT sample.
    pub fn on_sample(&mut self, sample: f64) {
        self.srtt = Some(match self.srtt {
            None => {
                self.rttvar = sample / 2.0;
                sample
            }
            Some(prev) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (prev - sample).abs();
                0.875 * prev + 0.125 * sample
            }
        });
        // A valid sample recomputes the RTO from fresh srtt/rttvar,
        // discarding any backed-off value (RFC 6298 §5.7). It does NOT
        // touch `backoffs`: only forward ACK progress proves the path is
        // alive, and keeping that reset in `on_progress` alone makes the
        // revive rule auditable.
        self.collapse_backoff();
    }

    /// An ACK showed forward progress: the path is alive, so the backoff
    /// run ends and a potentially-failed subflow revives.
    pub fn on_progress(&mut self) {
        self.backoffs = 0;
    }

    /// The timer fired with data outstanding.
    pub fn on_timeout(&mut self) {
        self.backoffs += 1;
        // Exponential backoff doubles the *effective* (min_rto-clamped)
        // timeout, per RFC 6298 §5.5. Doubling the raw value lets a small
        // sampled rto (e.g. 60 ms on a LAN) sit below min_rto for several
        // backoffs, so consecutive timeouts all fire at min_rto with no
        // backoff at all.
        self.rto = (self.rto.max(self.min_rto) * 2.0).min(self.max_rto);
    }

    /// Recompute the RTO from the current estimate, dropping any backoff;
    /// a no-op before the first sample. For progress that Karn's rule
    /// leaves sample-less: without it a subflow recovering from a long
    /// outage retransmits its stranded window one segment per backed-off
    /// RTO. Leaves `backoffs` alone.
    pub fn collapse_backoff(&mut self) {
        if let Some(srtt) = self.srtt {
            self.rto = srtt + (4.0 * self.rttvar).max(0.001);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN: f64 = 0.2;

    fn timer() -> RtoEstimator {
        RtoEstimator::new(1.0, MIN, 60.0)
    }

    #[test]
    fn first_sample_seeds_srtt_and_rto_is_clamped() {
        let mut t = timer();
        assert_eq!(t.rto(), 1.0, "initial rto before any sample");
        t.on_sample(0.050);
        assert_eq!(t.srtt(), Some(0.050));
        assert_eq!(t.rto(), MIN, "50 ms + 4·25 ms clamps up to min_rto");
        let mut t = RtoEstimator::new(100.0, MIN, 60.0);
        assert_eq!(t.rto(), 60.0, "max_rto caps the initial value too");
        t.on_sample(0.5);
        assert_eq!(t.rto(), 0.5 + 4.0 * 0.25);
    }

    #[test]
    fn backoff_doubles_the_effective_min_clamped_rto() {
        // A LAN-grade RTT sample leaves the raw rto (srtt + 4·rttvar) well
        // below min_rto. The first backoff must still double the *effective*
        // timeout: doubling only the raw value keeps rto() pinned at
        // min_rto for several consecutive timeouts — no backoff at all.
        let mut t = timer();
        t.on_sample(0.020);
        assert_eq!(t.rto(), MIN, "sampled rto clamps up to min_rto");
        t.on_timeout();
        assert!(t.rto() >= 2.0 * MIN, "one backoff at least doubles: {}", t.rto());
        t.on_timeout();
        assert!(t.rto() >= 4.0 * MIN, "second backoff doubles again");
        for _ in 0..20 {
            t.on_timeout();
        }
        assert_eq!(t.rto(), 60.0, "backoff saturates at max_rto");
    }

    #[test]
    fn fresh_sample_after_backoff_recomputes_rto_from_estimator() {
        // RFC 6298 §5.7: once retransmission stops, the next valid sample
        // recomputes rto from srtt/rttvar — the backed-off value is not
        // inherited.
        let mut t = timer();
        t.on_sample(0.020);
        t.on_timeout();
        t.on_timeout();
        assert!(t.rto() >= 4.0 * MIN);
        t.on_sample(0.030);
        assert_eq!(t.rto(), MIN, "rto returns to the sampled (min_rto-clamped) range");
        assert_eq!(t.backoffs(), 2, "a sample alone does not end the backoff run");
    }

    #[test]
    fn progress_revives_a_potentially_failed_subflow() {
        let mut t = timer();
        t.on_timeout();
        assert!(!t.potentially_failed(), "one timeout is not enough");
        t.on_timeout();
        assert!(t.potentially_failed(), "two consecutive backoffs");
        t.on_progress();
        assert!(!t.potentially_failed(), "first ACK progress revives");
        assert_eq!(t.backoffs(), 0);
    }

    #[test]
    fn collapse_backoff_needs_a_sample_and_keeps_the_backoff_count() {
        let mut t = timer();
        t.on_timeout();
        let backed_off = t.rto();
        t.collapse_backoff();
        assert_eq!(t.rto(), backed_off, "no-op before the first sample");

        let mut t = timer();
        t.on_sample(0.020);
        t.on_timeout();
        t.on_timeout();
        assert!(t.rto() >= 4.0 * MIN);
        t.collapse_backoff();
        assert_eq!(t.rto(), MIN, "4×-backed-off rto returns to the sampled range");
        assert_eq!(t.backoffs(), 2, "backoffs are on_progress's to clear");
    }
}
