//! Stateful congestion controllers and the driver that lets them share the
//! sender plumbing with the pure [`MultipathCc`] layer.
//!
//! The paper's algorithms are pairs of *pure* update rules — that is what
//! [`MultipathCc`] models, and it is what makes them fluid-checkable. What
//! production stacks actually run (CUBIC epochs, OLIA's inter-loss
//! counters, wVegas's base-RTT filters) needs per-connection mutable state
//! and a notion of time. [`StatefulCc`] is that layer: per-ACK and per-loss
//! hooks that take `&mut self` plus the simulation clock, returning an
//! [`AckAction`] instead of a bare increment so controllers can also drive
//! phase changes (hybrid slow start's early exit).
//!
//! Determinism rules (DESIGN.md §3.2h): controller state is part of the
//! simulated world, so it must be `Send` (connections migrate across shard
//! worker threads), must expose its state to [`DetDigest`] (the chaos
//! digests must see it), and must derive every decision from snapshot
//! slices and the *simulated* clock — never wall time, never iteration
//! order of an unordered container.
// lint:digest-surface

use crate::algorithm::MultipathCc;
use crate::digest::{DetDigest, DigestWriter};
use crate::snapshot::SubflowSnapshot;

/// What a stateful controller wants done after one ACKed packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckAction {
    /// Window change in packets (may be negative: delay-based controllers
    /// shrink without a loss; drivers clamp at the probing floor).
    pub grow: f64,
    /// Leave slow start now even though `cwnd < ssthresh` — hybrid slow
    /// start's delay-increase exit. The driver pins ssthresh to the current
    /// window so the sender re-enters congestion avoidance.
    pub exit_slow_start: bool,
}

crate::impl_det_digest!(AckAction { grow, exit_slow_start });

impl AckAction {
    /// Plain window growth, no phase change.
    pub fn grow(amount: f64) -> Self {
        Self { grow: amount, exit_slow_start: false }
    }
}

/// A congestion controller with per-connection mutable state.
///
/// Call contract (both the simulator and the protocol endpoint follow it):
///
/// * [`StatefulCc::on_ack`] fires once per newly ACKed **packet** while
///   growth is allowed, with a fresh snapshot slice, the simulated time in
///   seconds, and whether the sender considers itself in slow start;
/// * [`StatefulCc::window_after_loss`] fires once per loss episode (fast
///   retransmit or RTO), *before* the window is moved, and is where
///   loss-epoch state (CUBIC's `w_max`, OLIA's inter-loss counters) is
///   recorded;
/// * `Send` (no `Sync` requirement — unlike pure rules, a stateful
///   controller is owned by exactly one connection) so sharded simulators
///   can move connections across worker threads.
pub trait StatefulCc: Send {
    /// Short stable name, used in experiment output ("CUBIC", "OLIA", …).
    fn name(&self) -> &'static str;

    /// Process one newly ACKed packet on subflow `r`.
    fn on_ack(
        &mut self,
        r: usize,
        subs: &[SubflowSnapshot],
        now: f64,
        in_slow_start: bool,
    ) -> AckAction;

    /// The window subflow `r` should drop to on a loss event (before the
    /// probing floor is applied). Mutable: this is the loss-epoch hook.
    fn window_after_loss(&mut self, r: usize, subs: &[SubflowSnapshot], now: f64) -> f64;

    /// Probing floor, as in [`MultipathCc::min_window`].
    fn min_window(&self) -> f64 {
        1.0
    }

    /// Whether congestion avoidance is driven by delay rather than loss
    /// (labels probe-telemetry phases for controllers like wVegas).
    fn delay_based(&self) -> bool {
        false
    }

    /// Fold the controller's mutable state into a determinism digest.
    fn digest_state(&self, h: &mut DigestWriter);

    /// [`StatefulCc::window_after_loss`] with the probing floor applied —
    /// the same clamp as [`MultipathCc::clamped_window_after_loss`].
    fn clamped_window_after_loss(
        &mut self,
        r: usize,
        subs: &[SubflowSnapshot],
        now: f64,
    ) -> f64 {
        let raw = self.window_after_loss(r, subs, now);
        let floor = self.min_window();
        if raw.is_finite() {
            raw.max(floor)
        } else {
            floor
        }
    }
}

/// A pure [`MultipathCc`] rule worn as a [`StatefulCc`].
///
/// The adapter is *float-exact*: in slow start it grows by 1.0 per ACKed
/// packet and in congestion avoidance it returns `increase_per_ack`
/// verbatim, which is precisely the arithmetic the drivers perform on the
/// pure path. The stateful-vs-pure differential proptest pins the two
/// paths `DetDigest`-bit-identical on the chaos scenarios.
pub struct PureAdapter {
    inner: Box<dyn MultipathCc>,
}

impl PureAdapter {
    /// Wrap a pure rule.
    pub fn new(inner: Box<dyn MultipathCc>) -> Self {
        Self { inner }
    }
}

impl StatefulCc for PureAdapter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_ack(
        &mut self,
        r: usize,
        subs: &[SubflowSnapshot],
        _now: f64,
        in_slow_start: bool,
    ) -> AckAction {
        if in_slow_start {
            AckAction::grow(1.0)
        } else {
            AckAction::grow(self.inner.increase_per_ack(r, subs))
        }
    }

    fn window_after_loss(&mut self, r: usize, subs: &[SubflowSnapshot], _now: f64) -> f64 {
        self.inner.window_after_loss(r, subs)
    }

    fn min_window(&self) -> f64 {
        self.inner.min_window()
    }

    fn digest_state(&self, h: &mut DigestWriter) {
        self.inner.name().det_digest(h);
    }
}

/// The controller a connection actually drives: either a pure paper rule
/// (the default — its call sequence is kept byte-for-byte identical to the
/// pre-stateful code so existing histories cannot shift) or a stateful
/// controller behind the per-ACK/per-loss hooks.
pub enum CcDriver {
    /// A pure, stateless paper rule.
    Pure(Box<dyn MultipathCc>),
    /// A controller with per-connection mutable state.
    Stateful(Box<dyn StatefulCc>),
}

impl CcDriver {
    /// The controller's stable name.
    pub fn name(&self) -> &'static str {
        match self {
            CcDriver::Pure(cc) => cc.name(),
            CcDriver::Stateful(cc) => cc.name(),
        }
    }

    /// The probing floor.
    pub fn min_window(&self) -> f64 {
        match self {
            CcDriver::Pure(cc) => cc.min_window(),
            CcDriver::Stateful(cc) => cc.min_window(),
        }
    }

    /// Whether congestion avoidance is delay-driven (see
    /// [`StatefulCc::delay_based`]); pure paper rules are all loss-driven.
    pub fn delay_based(&self) -> bool {
        match self {
            CcDriver::Pure(_) => false,
            CcDriver::Stateful(cc) => cc.delay_based(),
        }
    }

    /// The post-loss window with the probing floor applied. For a stateful
    /// controller this is also the loss-epoch hook (hence `&mut self` and
    /// the simulated clock); pure rules ignore `now`.
    pub fn clamped_window_after_loss(
        &mut self,
        r: usize,
        subs: &[SubflowSnapshot],
        now: f64,
    ) -> f64 {
        match self {
            CcDriver::Pure(cc) => cc.clamped_window_after_loss(r, subs),
            CcDriver::Stateful(cc) => cc.clamped_window_after_loss(r, subs, now),
        }
    }
}

impl std::fmt::Debug for CcDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcDriver::Pure(cc) => write!(f, "Pure({})", cc.name()),
            CcDriver::Stateful(cc) => write!(f, "Stateful({})", cc.name()),
        }
    }
}

impl DetDigest for CcDriver {
    fn det_digest(&self, h: &mut DigestWriter) {
        match self {
            CcDriver::Pure(cc) => {
                h.write_u64(0);
                cc.name().det_digest(h);
            }
            CcDriver::Stateful(cc) => {
                h.write_u64(1);
                cc.digest_state(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlgorithmKind, Mptcp};

    fn snaps() -> [SubflowSnapshot; 2] {
        [SubflowSnapshot::new(8.0, 0.02), SubflowSnapshot::new(12.0, 0.1)]
    }

    /// The adapter must be float-exact against the pure rule it wraps:
    /// same bits in congestion avoidance, exactly 1.0 in slow start, same
    /// loss level. This is the unit-level core of the differential digest
    /// property.
    #[test]
    fn pure_adapter_is_float_exact() {
        for kind in AlgorithmKind::all() {
            let Some(pure) = kind.try_build(2) else { continue };
            let mut adapted = PureAdapter::new(kind.try_build(2).unwrap());
            let subs = snaps();
            for r in 0..subs.len() {
                let act = adapted.on_ack(r, &subs, 1.5, false);
                assert_eq!(act.grow.to_bits(), pure.increase_per_ack(r, &subs).to_bits());
                assert!(!act.exit_slow_start);
                assert_eq!(adapted.on_ack(r, &subs, 1.5, true), AckAction::grow(1.0));
                assert_eq!(
                    adapted.clamped_window_after_loss(r, &subs, 2.0).to_bits(),
                    pure.clamped_window_after_loss(r, &subs).to_bits()
                );
            }
        }
    }

    #[test]
    fn stateful_clamp_matches_the_pure_clamp_contract() {
        struct Bad;
        impl StatefulCc for Bad {
            fn name(&self) -> &'static str {
                "BAD"
            }
            fn on_ack(&mut self, _: usize, _: &[SubflowSnapshot], _: f64, _: bool) -> AckAction {
                AckAction::grow(0.0)
            }
            fn window_after_loss(&mut self, _: usize, _: &[SubflowSnapshot], _: f64) -> f64 {
                f64::NAN
            }
            fn digest_state(&self, _: &mut DigestWriter) {}
        }
        let subs = snaps();
        assert_eq!(Bad.clamped_window_after_loss(0, &subs, 0.0), 1.0, "NaN → floor");
    }

    #[test]
    fn driver_reports_name_floor_and_digest_arm() {
        let pure = CcDriver::Pure(Box::new(Mptcp::new()));
        let adapted = CcDriver::Stateful(Box::new(PureAdapter::new(Box::new(Mptcp::new()))));
        assert_eq!(pure.name(), "MPTCP");
        assert_eq!(adapted.name(), "MPTCP");
        assert!((pure.min_window() - 1.0).abs() < 1e-12);
        assert!(!pure.delay_based() && !adapted.delay_based());
        // Same controller behind different arms digests differently (the
        // arm is part of the simulated configuration).
        assert_ne!(pure.digest_value(), adapted.digest_value());
    }

    /// `Box<dyn StatefulCc>` must stay `Send`: sharded simulators move
    /// connections (and therefore their controllers) across worker threads.
    #[test]
    fn driver_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CcDriver>();
        assert_send::<Box<dyn StatefulCc>>();
    }
}
