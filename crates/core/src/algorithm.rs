//! The [`MultipathCc`] trait and a serializable algorithm selector.

use crate::snapshot::SubflowSnapshot;
use crate::stateful::CcDriver;
use crate::{Balia, Coupled, Cubic, Ewtcp, Mptcp, Olia, OliaFluid, Rfc6356, SemiCoupled, UncoupledReno, Wvegas};

/// A multipath congestion-control rule: how much to open a subflow's window
/// on each ACK, and where to set it after a loss event.
///
/// Implementations are **pure**: they read the state of all subflows of the
/// connection and return the new value; they hold no per-connection mutable
/// state. This mirrors the paper's presentation, where every algorithm is a
/// pair of update rules, and lets the same object drive the fluid model, the
/// simulator, and the protocol stack.
///
/// Conventions:
/// * windows are in packets, RTTs in seconds ([`SubflowSnapshot`]);
/// * `r` indexes into `subs`;
/// * callers apply the probing floor [`MultipathCc::min_window`] after a
///   decrease (the paper bounds windows to ≥ 1 packet in its implementation,
///   §2.4, precisely so a flow keeps probing paths that might improve).
pub trait MultipathCc: Send + Sync {
    /// Short stable name, used in experiment output ("MPTCP", "EWTCP", …).
    fn name(&self) -> &'static str;

    /// Window increment (in packets) granted to subflow `r` for one ACK of
    /// one packet, given the current state of all subflows.
    fn increase_per_ack(&self, r: usize, subs: &[SubflowSnapshot]) -> f64;

    /// The window subflow `r` should drop to on a loss event (before the
    /// probing floor is applied).
    fn window_after_loss(&self, r: usize, subs: &[SubflowSnapshot]) -> f64;

    /// Probing floor: the minimum window a subflow is held at so that it
    /// keeps sampling its path's congestion (§2.4). One packet by default.
    fn min_window(&self) -> f64 {
        1.0
    }

    /// [`MultipathCc::window_after_loss`] with the probing floor applied —
    /// the value an actual sender sets its window to.
    ///
    /// The raw decrease rules can go below one packet or even negative
    /// (COUPLED subtracts `w_total/2` from any subflow, which the fluid
    /// model integrates verbatim to show path abandonment, footnote 5).
    /// A packet-level sender must never do that: a window under one MSS
    /// strands the subflow — it can neither send nor sample its path.
    /// Every simulator/protocol loss event goes through this method.
    fn clamped_window_after_loss(&self, r: usize, subs: &[SubflowSnapshot]) -> f64 {
        let raw = self.window_after_loss(r, subs);
        let floor = self.min_window();
        if raw.is_finite() {
            raw.max(floor)
        } else {
            floor
        }
    }
}

/// A selector for the algorithms evaluated in the paper, used by the
/// experiment harness to sweep algorithms from one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Regular TCP on every subflow, fully uncoupled (§2.1's strawman).
    Uncoupled,
    /// Equally-weighted TCP with per-subflow throughput weight `1/n` (§2.1).
    Ewtcp,
    /// Fully coupled: all traffic moves to the least-congested path (§2.2).
    Coupled,
    /// Semi-coupled with linked increases but per-subflow decreases (§2.4).
    SemiCoupled,
    /// The paper's final algorithm, eq. (1) — RTT-compensated coupling (§2.5).
    Mptcp,
    /// The RFC 6356 restatement of the paper's algorithm (deployed LIA).
    Rfc6356,
    /// RFC 8312 CUBIC with hybrid slow start, uncoupled per subflow
    /// (stateful — the production single-path baseline).
    Cubic,
    /// OLIA, the opportunistic linked-increases successor (stateful:
    /// inter-loss counters).
    Olia,
    /// BALIA, the balanced linked-adaptation successor (pure).
    Balia,
    /// wVegas, delay-based weighted Vegas (stateful: base-RTT filters).
    Wvegas,
}

impl AlgorithmKind {
    /// Number of algorithm kinds. Kept in lockstep with the enum by
    /// [`AlgorithmKind::ordinal`]'s exhaustive match: adding a variant
    /// without growing this constant fails to compile at [`AlgorithmKind::all`]'s
    /// array type.
    pub const COUNT: usize = 10;

    /// The kind's position in [`AlgorithmKind::all`]. The match is
    /// deliberately exhaustive (no wildcard): a new variant forces an arm
    /// here, and the `all()` array type forces [`AlgorithmKind::COUNT`] to
    /// grow with it — the sweep lists can no longer silently drop a kind.
    pub const fn ordinal(self) -> usize {
        match self {
            AlgorithmKind::Uncoupled => 0,
            AlgorithmKind::Ewtcp => 1,
            AlgorithmKind::Coupled => 2,
            AlgorithmKind::SemiCoupled => 3,
            AlgorithmKind::Mptcp => 4,
            AlgorithmKind::Rfc6356 => 5,
            AlgorithmKind::Cubic => 6,
            AlgorithmKind::Olia => 7,
            AlgorithmKind::Balia => 8,
            AlgorithmKind::Wvegas => 9,
        }
    }

    /// Whether the packet-level controller needs per-connection mutable
    /// state (built by [`AlgorithmKind::build_cc`] only).
    pub const fn is_stateful(self) -> bool {
        matches!(self, AlgorithmKind::Cubic | AlgorithmKind::Olia | AlgorithmKind::Wvegas)
    }

    /// Instantiate the pure rule for a connection with `n_subflows` paths,
    /// or `None` for the stateful-only kinds.
    ///
    /// `n_subflows` is unused since EWTCP derives its `1/n` weight from the
    /// live snapshot slice; it is kept so call sites document the intended
    /// path count.
    pub fn try_build(self, n_subflows: usize) -> Option<Box<dyn MultipathCc>> {
        let _ = n_subflows;
        match self {
            AlgorithmKind::Uncoupled => Some(Box::new(UncoupledReno::new())),
            AlgorithmKind::Ewtcp => Some(Box::new(Ewtcp::live_equal_split())),
            AlgorithmKind::Coupled => Some(Box::new(Coupled::new())),
            AlgorithmKind::SemiCoupled => Some(Box::new(SemiCoupled::new())),
            AlgorithmKind::Mptcp => Some(Box::new(Mptcp::new())),
            AlgorithmKind::Rfc6356 => Some(Box::new(Rfc6356::new())),
            AlgorithmKind::Balia => Some(Box::new(Balia::new())),
            AlgorithmKind::Cubic | AlgorithmKind::Olia | AlgorithmKind::Wvegas => None,
        }
    }

    /// Instantiate the pure rule for a connection with `n_subflows` paths.
    ///
    /// # Panics
    /// Panics for the stateful-only kinds (CUBIC, OLIA, wVegas) — use
    /// [`AlgorithmKind::build_cc`] for a driver that covers every kind.
    pub fn build(self, n_subflows: usize) -> Box<dyn MultipathCc> {
        self.try_build(n_subflows).unwrap_or_else(|| {
            panic!(
                "{self:?} needs per-connection state; build it with AlgorithmKind::build_cc"
            )
        })
    }

    /// Instantiate the controller driver for a connection with
    /// `n_subflows` paths — the universal constructor covering both pure
    /// and stateful kinds.
    pub fn build_cc(self, n_subflows: usize) -> CcDriver {
        match self {
            AlgorithmKind::Cubic => CcDriver::Stateful(Box::new(Cubic::new())),
            AlgorithmKind::Olia => CcDriver::Stateful(Box::new(Olia::new())),
            AlgorithmKind::Wvegas => CcDriver::Stateful(Box::new(Wvegas::new())),
            AlgorithmKind::Uncoupled
            | AlgorithmKind::Ewtcp
            | AlgorithmKind::Coupled
            | AlgorithmKind::SemiCoupled
            | AlgorithmKind::Mptcp
            | AlgorithmKind::Rfc6356
            | AlgorithmKind::Balia => CcDriver::Pure(self.build(n_subflows)),
        }
    }

    /// The pure rule the fluid oracle should compare a packet-level run of
    /// this kind against, given the per-path loss rates the run measured.
    ///
    /// * Pure kinds ignore `losses` — the rule itself is the model.
    /// * OLIA's stateful inter-loss counters have the known steady-state
    ///   expectation `ℓ_p = 1/p_p`, so its model is [`OliaFluid`] pinned to
    ///   the measured losses.
    /// * CUBIC and wVegas return `None`: their dynamics (real-time epochs,
    ///   delay equilibria) are outside the loss-driven fluid solver.
    pub fn fluid_model(self, losses: &[f64]) -> Option<Box<dyn MultipathCc>> {
        match self {
            AlgorithmKind::Olia => Some(Box::new(OliaFluid::from_loss_rates(losses))),
            AlgorithmKind::Cubic | AlgorithmKind::Wvegas => None,
            AlgorithmKind::Uncoupled
            | AlgorithmKind::Ewtcp
            | AlgorithmKind::Coupled
            | AlgorithmKind::SemiCoupled
            | AlgorithmKind::Mptcp
            | AlgorithmKind::Rfc6356
            | AlgorithmKind::Balia => self.try_build(losses.len().max(1)),
        }
    }

    /// All kinds, in the order the paper introduces them (plus the RFC
    /// restatement and the post-paper zoo last). Derived from
    /// [`AlgorithmKind::ordinal`]: the array length is [`AlgorithmKind::COUNT`],
    /// so a new variant that grows `ordinal`'s match without being added
    /// here is caught by the `all_is_ordered_by_ordinal` test, and a
    /// variant missing from `ordinal` fails to compile.
    pub fn all() -> [AlgorithmKind; Self::COUNT] {
        [
            AlgorithmKind::Uncoupled,
            AlgorithmKind::Ewtcp,
            AlgorithmKind::Coupled,
            AlgorithmKind::SemiCoupled,
            AlgorithmKind::Mptcp,
            AlgorithmKind::Rfc6356,
            AlgorithmKind::Cubic,
            AlgorithmKind::Olia,
            AlgorithmKind::Balia,
            AlgorithmKind::Wvegas,
        ]
    }

    /// The three algorithms the paper's evaluation sections compare head to
    /// head (EWTCP, COUPLED, MPTCP).
    pub fn evaluated() -> [AlgorithmKind; 3] {
        [AlgorithmKind::Ewtcp, AlgorithmKind::Coupled, AlgorithmKind::Mptcp]
    }

    /// The post-paper controller zoo (everything beyond the six rules the
    /// paper states), derived from [`AlgorithmKind::all`] so new kinds are
    /// swept automatically.
    pub fn zoo() -> Vec<AlgorithmKind> {
        Self::all().into_iter().filter(|k| k.ordinal() > AlgorithmKind::Rfc6356.ordinal()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_cc_produces_named_algorithms() {
        let names: Vec<&str> =
            AlgorithmKind::all().iter().map(|k| k.build_cc(2).name()).collect();
        assert_eq!(
            names,
            [
                "UNCOUPLED",
                "EWTCP",
                "COUPLED",
                "SEMICOUPLED",
                "MPTCP",
                "RFC6356",
                "CUBIC",
                "OLIA",
                "BALIA",
                "WVEGAS"
            ]
        );
    }

    /// The anti-drift contract: `all()` and `ordinal()` must agree index
    /// for index. `ordinal`'s exhaustive match means a new variant cannot
    /// compile without an arm; the `COUNT`-typed array means it cannot get
    /// an arm without also appearing here.
    #[test]
    fn all_is_ordered_by_ordinal() {
        for (i, kind) in AlgorithmKind::all().into_iter().enumerate() {
            assert_eq!(kind.ordinal(), i, "{kind:?} out of place in all()");
        }
    }

    #[test]
    fn evaluated_and_zoo_are_subsets_of_all() {
        let all = AlgorithmKind::all();
        for kind in AlgorithmKind::evaluated() {
            assert!(all.contains(&kind));
        }
        let zoo = AlgorithmKind::zoo();
        assert_eq!(zoo.len(), 4);
        for kind in zoo {
            assert!(all.contains(&kind));
            assert!(kind.ordinal() > AlgorithmKind::Rfc6356.ordinal());
        }
    }

    #[test]
    fn build_and_build_cc_cover_the_right_kinds() {
        for kind in AlgorithmKind::all() {
            // The universal constructor covers every kind…
            assert_eq!(kind.build_cc(2).name(), kind.build_cc(3).name());
            // …and the pure constructor exactly the non-stateful ones.
            assert_eq!(kind.try_build(2).is_some(), !kind.is_stateful(), "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "build_cc")]
    fn build_panics_for_stateful_only_kinds() {
        let _ = AlgorithmKind::Cubic.build(2);
    }

    #[test]
    fn fluid_model_covers_the_loss_driven_kinds() {
        let losses = [0.01, 0.02];
        for kind in AlgorithmKind::all() {
            let model = kind.fluid_model(&losses);
            match kind {
                AlgorithmKind::Cubic | AlgorithmKind::Wvegas => assert!(model.is_none()),
                AlgorithmKind::Uncoupled
                | AlgorithmKind::Ewtcp
                | AlgorithmKind::Coupled
                | AlgorithmKind::SemiCoupled
                | AlgorithmKind::Mptcp
                | AlgorithmKind::Rfc6356
                | AlgorithmKind::Olia
                | AlgorithmKind::Balia => {
                    assert!(model.is_some(), "{kind:?} should be fluid-checkable");
                }
            }
        }
        assert_eq!(AlgorithmKind::Olia.fluid_model(&losses).unwrap().name(), "OLIA");
    }

    #[test]
    fn default_min_window_is_one_packet() {
        for kind in AlgorithmKind::all() {
            assert!((kind.build_cc(3).min_window() - 1.0).abs() < 1e-12);
        }
    }
}
