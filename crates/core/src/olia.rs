//! OLIA — the Opportunistic Linked-Increases Algorithm (Khalili et al.,
//! RFC 6356's successor proposal; fluid dynamics in Peng et al.,
//! arXiv:1308.3119).
//!
//! OLIA fixes LIA's non-Pareto-optimality by steering window toward the
//! *best* paths (largest inter-loss distance per RTT²) away from the paths
//! that merely have the largest windows. That steering term needs per-path
//! **inter-loss counters** — genuinely mutable state — so the packet-level
//! controller is a [`StatefulCc`] ([`Olia`]), while the fluid oracle uses
//! the pure twin [`OliaFluid`] whose inter-loss distances are pinned to
//! the measured loss rates (`ℓ_p ≈ 1/p_p`).
//!
//! Per ACK on path `r` (windows in packets, RTTs in seconds):
//!
//! ```text
//! Δw_r = (w_r/rtt_r²) / (Σ_k w_k/rtt_k)²  +  ε_r / w_r
//! ```
//!
//! with the ε terms assigned from two path sets: `M` = paths with the
//! largest window, `B` = best paths by `ℓ_p/rtt_p²`. If some best path is
//! not a max-window path (`B\M ≠ ∅`), those paths get
//! `ε = 1/(n·|B\M|)` and the max-window paths get `ε = −1/(n·|M|)`;
//! otherwise all ε are zero. Per loss: `w_r ← w_r/2`.
//!
//! Set membership is evaluated with a relative tie band (`TIE_TOL`): exact
//! float argmax would make the ε terms chatter between equivalent paths,
//! which both the packet sender and the fluid integrator (a sliding-mode
//! equilibrium otherwise) are sensitive to.
// lint:digest-surface

use crate::algorithm::MultipathCc;
use crate::digest::{DetDigest, DigestWriter};
use crate::snapshot::{active_count, SubflowSnapshot};
use crate::stateful::{AckAction, StatefulCc};

/// Relative tie tolerance for the `B` (best-path) and `M` (max-window)
/// set memberships.
const TIE_TOL: f64 = 1e-6;

/// The shared increase rule: `l(p)` supplies path `p`'s inter-loss
/// distance estimate (counters for the packet controller, `1/p_p` for the
/// fluid twin).
fn olia_increase(r: usize, subs: &[SubflowSnapshot], l: impl Fn(usize) -> f64) -> f64 {
    let n = active_count(subs) as f64;
    let mut sum_rate = 0.0_f64;
    let mut max_metric = f64::NEG_INFINITY;
    let mut max_w = f64::NEG_INFINITY;
    for s in subs.iter().filter(|s| s.active) {
        sum_rate += s.cwnd / s.rtt;
    }
    if sum_rate <= 0.0 || !sum_rate.is_finite() {
        return 0.0;
    }
    for (p, s) in subs.iter().enumerate().filter(|(_, s)| s.active) {
        max_metric = max_metric.max(l(p) / (s.rtt * s.rtt));
        max_w = max_w.max(s.cwnd);
    }
    // Membership with a relative tie band, and the counts the ε terms need.
    let in_m = |p: usize| subs[p].cwnd >= max_w * (1.0 - TIE_TOL);
    let in_b = |p: usize| l(p) / (subs[p].rtt * subs[p].rtt) >= max_metric * (1.0 - TIE_TOL);
    let mut n_m = 0usize;
    let mut n_b_not_m = 0usize;
    for (p, _) in subs.iter().enumerate().filter(|(_, s)| s.active) {
        if in_m(p) {
            n_m += 1;
        } else if in_b(p) {
            n_b_not_m += 1;
        }
    }
    let eps = if n_b_not_m > 0 && subs[r].active {
        if !in_m(r) && in_b(r) {
            1.0 / (n * n_b_not_m as f64)
        } else if in_m(r) {
            -1.0 / (n * n_m as f64)
        } else {
            0.0
        }
    } else {
        0.0
    };
    let base = (subs[r].cwnd / (subs[r].rtt * subs[r].rtt)) / (sum_rate * sum_rate);
    base + eps / subs[r].cwnd
}

/// Per-path inter-loss counters: `l1` is the number of packets ACKed
/// between the last two losses, `l2` the packets ACKed since the last
/// loss; the estimate used is `max(l1, l2)` so a path that stopped losing
/// keeps looking better as it proves itself.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct OliaPathState {
    /// Packets ACKed between the previous two loss events.
    pub l1: f64,
    /// Packets ACKed since the most recent loss event.
    pub l2: f64,
}

crate::impl_det_digest!(OliaPathState { l1, l2 });

impl OliaPathState {
    fn inter_loss(&self) -> f64 {
        self.l1.max(self.l2).max(1.0)
    }
}

/// The packet-level OLIA controller.
#[derive(Debug, Clone, Default)]
pub struct Olia {
    /// One counter pair per subflow slot, grown on demand (runtime joins
    /// extend the snapshot slice).
    paths: Vec<OliaPathState>,
}

crate::impl_det_digest!(Olia { paths });

impl Olia {
    /// A fresh controller (no loss history).
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, len: usize) {
        if self.paths.len() < len {
            self.paths.resize(len, OliaPathState::default());
        }
    }
}

impl StatefulCc for Olia {
    fn name(&self) -> &'static str {
        "OLIA"
    }

    fn on_ack(
        &mut self,
        r: usize,
        subs: &[SubflowSnapshot],
        _now: f64,
        in_slow_start: bool,
    ) -> AckAction {
        self.ensure(subs.len());
        self.paths[r].l2 += 1.0;
        if in_slow_start {
            return AckAction::grow(1.0);
        }
        let paths = &self.paths;
        AckAction::grow(olia_increase(r, subs, |p| paths[p].inter_loss()))
    }

    fn window_after_loss(&mut self, r: usize, subs: &[SubflowSnapshot], _now: f64) -> f64 {
        self.ensure(subs.len());
        self.paths[r].l1 = self.paths[r].l2;
        self.paths[r].l2 = 0.0;
        subs[r].cwnd / 2.0
    }

    fn digest_state(&self, h: &mut DigestWriter) {
        self.det_digest(h);
    }
}

/// OLIA's pure fluid twin: the same increase rule with the inter-loss
/// distances pinned to fixed per-path loss rates (`ℓ_p = 1/p_p`), which is
/// their expectation in steady state. This is what makes OLIA
/// oracle-checkable by [`crate::fluid::equilibrium`] even though the
/// packet-level controller is stateful.
#[derive(Debug, Clone)]
pub struct OliaFluid {
    inter_loss: Vec<f64>,
}

crate::impl_det_digest!(OliaFluid { inter_loss });

impl OliaFluid {
    /// Build from per-path loss rates (each in `(0, 1]`).
    ///
    /// # Panics
    /// Panics if any loss rate is not in `(0, 1]`.
    pub fn from_loss_rates(losses: &[f64]) -> Self {
        let inter_loss = losses
            .iter()
            .map(|&p| {
                assert!(p > 0.0 && p <= 1.0, "loss rate must be in (0,1], got {p}");
                1.0 / p
            })
            .collect();
        Self { inter_loss }
    }

    fn l(&self, p: usize) -> f64 {
        self.inter_loss.get(p).copied().unwrap_or(1.0)
    }
}

impl MultipathCc for OliaFluid {
    fn name(&self) -> &'static str {
        "OLIA"
    }

    fn increase_per_ack(&self, r: usize, subs: &[SubflowSnapshot]) -> f64 {
        olia_increase(r, subs, |p| self.l(p))
    }

    fn window_after_loss(&self, r: usize, subs: &[SubflowSnapshot]) -> f64 {
        subs[r].cwnd / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::equilibrium;

    /// Two identical paths: B = M = both paths, so every ε is zero and the
    /// equilibrium total must equal one TCP's √(2/p) window (Peng et al.
    /// table 1: OLIA is TCP-fair at a shared bottleneck).
    #[test]
    fn two_equal_paths_aggregate_to_one_tcp() {
        let p = 0.01;
        let cc = OliaFluid::from_loss_rates(&[p, p]);
        let w = equilibrium(&cc, &[p, p], &[0.1, 0.1]);
        let total: f64 = w.iter().sum();
        let tcp = (2.0_f64 / p).sqrt();
        assert!(
            (total - tcp).abs() / tcp < 0.05,
            "total {total} vs single-TCP {tcp}"
        );
        assert!((w[0] - w[1]).abs() / w[0] < 0.05, "equal paths split evenly: {w:?}");
    }

    /// The ε terms move window *toward* the better path: with equal RTTs
    /// but unequal loss, the low-loss path must end up with the larger
    /// window.
    #[test]
    fn epsilon_steers_toward_the_less_congested_path() {
        let losses = [0.04, 0.01];
        let cc = OliaFluid::from_loss_rates(&losses);
        let w = equilibrium(&cc, &losses, &[0.05, 0.05]);
        assert!(w[1] > 2.0 * w[0], "low-loss path dominates: {w:?}");
    }

    /// Stateful counter bookkeeping: ACKs advance `l2`, a loss rotates it
    /// into `l1`, and the estimate is the max of the two.
    #[test]
    fn inter_loss_counters_rotate_on_loss() {
        let mut cc = Olia::new();
        let subs = [SubflowSnapshot::new(10.0, 0.1), SubflowSnapshot::new(10.0, 0.1)];
        for _ in 0..5 {
            cc.on_ack(0, &subs, 0.0, true);
        }
        assert_eq!(cc.paths[0].l2, 5.0);
        assert_eq!(cc.window_after_loss(0, &subs, 1.0), 5.0);
        assert_eq!(cc.paths[0], OliaPathState { l1: 5.0, l2: 0.0 });
        assert_eq!(cc.paths[0].inter_loss(), 5.0);
        // The untouched path floors its estimate at one packet.
        assert_eq!(cc.paths[1].inter_loss(), 1.0);
    }

    /// In congestion avoidance with converged counters, the stateful
    /// controller's increase equals the fluid twin's bit for bit — the
    /// oracle checks the packet sim against exactly this rule.
    #[test]
    fn stateful_increase_matches_fluid_twin_with_pinned_counters() {
        let p = [0.02, 0.005];
        let mut cc = Olia::new();
        let subs = [SubflowSnapshot::new(8.0, 0.02), SubflowSnapshot::new(14.0, 0.1)];
        // Pin the counters to the fluid twin's 1/p expectation.
        cc.ensure(2);
        cc.paths[0] = OliaPathState { l1: 1.0 / p[0], l2: 0.0 };
        cc.paths[1] = OliaPathState { l1: 1.0 / p[1], l2: 0.0 };
        let fluid = OliaFluid::from_loss_rates(&p);
        for r in 0..2 {
            // The on_ack advances l2 by one before computing; compensate by
            // re-pinning per call.
            cc.paths[r].l2 = 0.0;
            let got = cc.on_ack(r, &subs, 0.0, false).grow;
            let want = fluid.increase_per_ack(r, &subs);
            assert_eq!(got.to_bits(), want.to_bits(), "path {r}: {got} vs {want}");
        }
    }

    #[test]
    fn single_path_olia_is_near_regular_tcp() {
        // One path: base term = (w/rtt²)/(w/rtt)² = 1/w, ε = 0.
        let cc = OliaFluid::from_loss_rates(&[0.01]);
        let subs = [SubflowSnapshot::new(10.0, 0.1)];
        assert!((cc.increase_per_ack(0, &subs) - 0.1).abs() < 1e-12);
        assert!((cc.window_after_loss(0, &subs) - 5.0).abs() < 1e-12);
    }
}
