//! Declarative, deterministic fault injection.
//!
//! A [`FaultPlan`] is a time-ordered list of [`FaultAction`]s — link
//! down/up flaps, Gilbert–Elliott bursty-loss episodes, rate brownouts and
//! queue squeezes. [`Simulator::install_fault_plan`](crate::Simulator::install_fault_plan)
//! turns each entry into a first-class event on the simulator's own queue,
//! so faults fire at their exact nanosecond regardless of how the caller
//! chops `run_until` into steps — no between-step polling, no
//! granularity-dependent results.
//!
//! ## Determinism
//!
//! Everything random about a fault schedule is resolved from seeds the
//! caller provides: [`FaultPlan::randomized`] expands a seed into concrete
//! timed actions *before* the plan is installed, and the Gilbert–Elliott
//! chain advances on the simulator's own seeded RNG in packet-arrival
//! order. A fixed simulator seed plus a fixed plan therefore yields a
//! bit-identical run — including under `MPTCP_JOBS` parallelism, where
//! each job owns its whole simulator and no state is shared.
//!
//! ## Gilbert–Elliott parameters
//!
//! The two-state chain is parameterized by per-packet transition
//! probabilities (`p_enter_bad`, `p_exit_bad`) and per-state loss rates
//! (`loss_good`, `loss_bad`). Mean burst length is `1/p_exit_bad` packets,
//! mean gap `1/p_enter_bad`; [`GeParams::bursty`] builds the common
//! "clean good state, lossy bad state" configuration from those means.

use crate::link::LinkId;
use crate::sim::ConnId;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a two-state Gilbert–Elliott loss chain. The chain makes
/// one transition attempt per packet offered to the link, then drops the
/// packet with the current state's loss probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeParams {
    /// Per-packet probability of moving good → bad.
    pub p_enter_bad: f64,
    /// Per-packet probability of moving bad → good.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GeParams {
    /// A bursty-loss chain with the given mean burst and gap lengths (in
    /// packets) and loss rate inside a burst; the good state is clean.
    ///
    /// # Panics
    /// Panics unless both means are ≥ 1 packet and `loss_bad ∈ [0, 1]`.
    pub fn bursty(mean_burst_pkts: f64, mean_gap_pkts: f64, loss_bad: f64) -> Self {
        assert!(mean_burst_pkts >= 1.0 && mean_gap_pkts >= 1.0, "means must be ≥ 1 packet");
        let p = Self {
            p_enter_bad: 1.0 / mean_gap_pkts,
            p_exit_bad: 1.0 / mean_burst_pkts,
            loss_good: 0.0,
            loss_bad,
        };
        p.validate();
        p
    }

    pub(crate) fn validate(&self) {
        for (name, v) in [
            ("p_enter_bad", self.p_enter_bad),
            ("p_exit_bad", self.p_exit_bad),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} must be a probability, got {v}");
        }
    }

    /// Long-run fraction of time spent in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.p_enter_bad + self.p_exit_bad;
        if denom == 0.0 {
            0.0
        } else {
            self.p_enter_bad / denom
        }
    }

    /// Long-run average loss rate of the chain.
    pub fn mean_loss(&self) -> f64 {
        let b = self.stationary_bad();
        b * self.loss_bad + (1.0 - b) * self.loss_good
    }
}

/// One scripted change to the world. All actions are idempotent state
/// assignments, so replaying a plan over a restored snapshot is safe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Take the link down: arriving packets are dropped, the queue is
    /// flushed (counted as [`LinkStats::dropped_down`](crate::LinkStats)).
    Down {
        /// Target link.
        link: LinkId,
    },
    /// Bring the link back up.
    Up {
        /// Target link.
        link: LinkId,
    },
    /// Set the link rate to an absolute value and make it the new nominal
    /// rate (a lasting change, e.g. a mobility trace's new basestation).
    SetRate {
        /// Target link.
        link: LinkId,
        /// New rate in bits per second.
        bps: f64,
    },
    /// Scale the link's *nominal* rate by `factor` (a brownout); the
    /// nominal rate itself is remembered for [`FaultAction::RestoreRate`].
    Brownout {
        /// Target link.
        link: LinkId,
        /// Multiplier applied to the nominal rate, in `(0, 1]`.
        factor: f64,
    },
    /// Restore the link to its nominal rate, ending a brownout.
    RestoreRate {
        /// Target link.
        link: LinkId,
    },
    /// Set the link's Bernoulli loss probability (closed range `[0, 1]`).
    SetLoss {
        /// Target link.
        link: LinkId,
        /// New loss probability.
        p: f64,
    },
    /// Shrink (or grow) the drop-tail queue capacity; packets over the new
    /// cap are dropped from the tail immediately.
    ShrinkQueue {
        /// Target link.
        link: LinkId,
        /// New queue capacity in packets.
        pkts: usize,
    },
    /// Restore the queue capacity the link was built with.
    RestoreQueue {
        /// Target link.
        link: LinkId,
    },
    /// Start a Gilbert–Elliott bursty-loss episode on the link (the chain
    /// starts in the good state), or stop it with `None`.
    GilbertElliott {
        /// Target link.
        link: LinkId,
        /// Chain parameters, or `None` to turn the chain off.
        params: Option<GeParams>,
    },
    /// Withdraw an address (`REMOVE_ADDR`-style path-management
    /// signaling): administratively close subflow `sub` of connection
    /// `conn`, reinjecting its stranded in-flight data on the remaining
    /// subflows. The link stays untouched — this models the *endpoint*
    /// withdrawing the path, not the path failing.
    AddrRemove {
        /// First link of the target subflow's path. Not mutated; carried
        /// so the action can be validated and routed to the shard that
        /// owns the connection (a connection's subflows all leave from
        /// their first link's shard).
        link: LinkId,
        /// Target connection.
        conn: ConnId,
        /// Subflow index within the connection.
        sub: usize,
    },
    /// (Re)advertise an address (`ADD_ADDR`-style signaling): reopen
    /// subflow `sub` of connection `conn` so it may carry traffic again.
    AddrAdd {
        /// First link of the target subflow's path (see
        /// [`FaultAction::AddrRemove`]).
        link: LinkId,
        /// Target connection.
        conn: ConnId,
        /// Subflow index within the connection.
        sub: usize,
    },
}

impl FaultAction {
    /// The link this action targets.
    pub fn link(&self) -> LinkId {
        match *self {
            FaultAction::Down { link }
            | FaultAction::Up { link }
            | FaultAction::SetRate { link, .. }
            | FaultAction::Brownout { link, .. }
            | FaultAction::RestoreRate { link }
            | FaultAction::SetLoss { link, .. }
            | FaultAction::ShrinkQueue { link, .. }
            | FaultAction::RestoreQueue { link }
            | FaultAction::GilbertElliott { link, .. }
            | FaultAction::AddrRemove { link, .. }
            | FaultAction::AddrAdd { link, .. } => link,
        }
    }

    /// The same action retargeted at `link` — used by the sharded
    /// simulator to translate world-level link ids into shard-local ones
    /// when splitting a plan across shards.
    pub(crate) fn with_link(mut self, link: LinkId) -> FaultAction {
        match &mut self {
            FaultAction::Down { link: l }
            | FaultAction::Up { link: l }
            | FaultAction::SetRate { link: l, .. }
            | FaultAction::Brownout { link: l, .. }
            | FaultAction::RestoreRate { link: l }
            | FaultAction::SetLoss { link: l, .. }
            | FaultAction::ShrinkQueue { link: l, .. }
            | FaultAction::RestoreQueue { link: l }
            | FaultAction::GilbertElliott { link: l, .. }
            | FaultAction::AddrRemove { link: l, .. }
            | FaultAction::AddrAdd { link: l, .. } => *l = link,
        }
        self
    }
}

/// A declarative fault schedule: `(time, action)` pairs executed through
/// the event queue. Build one fluently:
///
/// ```
/// # use mptcp_netsim::{FaultPlan, GeParams, SimTime};
/// let s = SimTime::from_secs;
/// let plan = FaultPlan::new()
///     .outage(0, s(10), s(25))
///     .brownout(1, s(5), s(8), 0.25)
///     .bursty_loss(1, s(30), s(40), GeParams::bursty(20.0, 500.0, 0.5));
/// assert_eq!(plan.len(), 6);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    timed: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an action at `at` (builder style).
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.push(at, action);
        self
    }

    /// Append an action at `at`.
    ///
    /// # Panics
    /// Panics on an operand the action could not apply when it fires: a
    /// rate that is not positive and finite, a loss probability outside
    /// `[0, 1]`, a brownout factor outside `(0, 1]`, a queue limit of 2^32
    /// packets or more, or invalid Gilbert–Elliott parameters.
    pub fn push(&mut self, at: SimTime, action: FaultAction) {
        match action {
            FaultAction::GilbertElliott { params: Some(p), .. } => p.validate(),
            FaultAction::SetRate { bps, .. } => {
                let ok = bps.is_finite() && bps > 0.0;
                assert!(ok, "rate must be positive and finite, got {bps}");
            }
            FaultAction::SetLoss { p, .. } => {
                assert!((0.0..=1.0).contains(&p), "loss probability must be in [0,1], got {p}");
            }
            FaultAction::Brownout { factor, .. } => {
                let ok = factor > 0.0 && factor <= 1.0;
                assert!(ok, "brownout factor must be in (0,1], got {factor}");
            }
            FaultAction::ShrinkQueue { pkts, .. } => {
                assert!(u32::try_from(pkts).is_ok(), "queue limit {pkts} exceeds u32");
            }
            FaultAction::GilbertElliott { params: None, .. }
            | FaultAction::Down { .. }
            | FaultAction::Up { .. }
            | FaultAction::RestoreRate { .. }
            | FaultAction::RestoreQueue { .. }
            | FaultAction::AddrRemove { .. }
            | FaultAction::AddrAdd { .. } => {}
        }
        self.timed.push((at, action));
    }

    /// A complete outage of `link` over `[from, until)`.
    pub fn outage(self, link: LinkId, from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "outage must end after it starts");
        self.at(from, FaultAction::Down { link }).at(until, FaultAction::Up { link })
    }

    /// A rate brownout of `link` to `factor` of nominal over `[from, until)`.
    pub fn brownout(self, link: LinkId, from: SimTime, until: SimTime, factor: f64) -> Self {
        assert!(until > from, "brownout must end after it starts");
        self.at(from, FaultAction::Brownout { link, factor })
            .at(until, FaultAction::RestoreRate { link })
    }

    /// A queue squeeze of `link` to `pkts` over `[from, until)`.
    pub fn queue_squeeze(self, link: LinkId, from: SimTime, until: SimTime, pkts: usize) -> Self {
        assert!(until > from, "squeeze must end after it starts");
        self.at(from, FaultAction::ShrinkQueue { link, pkts })
            .at(until, FaultAction::RestoreQueue { link })
    }

    /// A Gilbert–Elliott bursty-loss episode on `link` over `[from, until)`.
    pub fn bursty_loss(
        self,
        link: LinkId,
        from: SimTime,
        until: SimTime,
        params: GeParams,
    ) -> Self {
        assert!(until > from, "episode must end after it starts");
        self.at(from, FaultAction::GilbertElliott { link, params: Some(params) })
            .at(until, FaultAction::GilbertElliott { link, params: None })
    }

    /// Withdraw subflow `sub` of `conn` at `at` (`REMOVE_ADDR`-style).
    /// `link` must be the first link of the subflow's path.
    pub fn addr_remove(self, at: SimTime, link: LinkId, conn: ConnId, sub: usize) -> Self {
        self.at(at, FaultAction::AddrRemove { link, conn, sub })
    }

    /// (Re)advertise subflow `sub` of `conn` at `at` (`ADD_ADDR`-style).
    /// `link` must be the first link of the subflow's path.
    pub fn addr_add(self, at: SimTime, link: LinkId, conn: ConnId, sub: usize) -> Self {
        self.at(at, FaultAction::AddrAdd { link, conn, sub })
    }

    /// Concatenate another plan's actions onto this one.
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.timed.extend(other.timed);
        self
    }

    /// The scheduled `(time, action)` pairs, in insertion order. Entries
    /// with equal times execute in this order (the queue breaks ties by
    /// insertion sequence).
    pub fn actions(&self) -> &[(SimTime, FaultAction)] {
        &self.timed
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.timed.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.timed.is_empty()
    }

    /// Expand `seed` into a concrete random fault schedule over `links`
    /// within `[0, horizon)`: per link, up to two outages, at most one
    /// brownout, one queue squeeze and one bursty-loss episode. Every
    /// fault ends by `0.8 × horizon`, so a sized flow always gets a
    /// fault-free tail to finish in. The expansion is purely a function of
    /// `(seed, links, horizon)` — same inputs, same plan.
    pub fn randomized(seed: u64, links: &[LinkId], horizon: SimTime) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let span = horizon.as_nanos();
        assert!(span > 0, "horizon must be positive");
        // All faults live in [2% , 80%) of the horizon.
        let lo = span / 50;
        let hi = span * 4 / 5;
        let window = |rng: &mut StdRng, max_frac: u64| {
            let start = rng.gen_range(lo..hi);
            let max_len = ((hi - start) / max_frac).max(1);
            let end = start + rng.gen_range(1..=max_len);
            (SimTime(start), SimTime(end.min(hi)))
        };
        for &link in links {
            for _ in 0..rng.gen_range(0..=2u32) {
                let (from, until) = window(&mut rng, 4);
                if until > from {
                    plan = plan.outage(link, from, until);
                }
            }
            if rng.gen_bool(0.5) {
                let (from, until) = window(&mut rng, 2);
                let factor = rng.gen_range(0.1..=0.9);
                if until > from {
                    plan = plan.brownout(link, from, until, factor);
                }
            }
            if rng.gen_bool(0.5) {
                let (from, until) = window(&mut rng, 2);
                let pkts = rng.gen_range(1..=4usize);
                if until > from {
                    plan = plan.queue_squeeze(link, from, until, pkts);
                }
            }
            if rng.gen_bool(0.5) {
                let (from, until) = window(&mut rng, 2);
                let params = GeParams::bursty(
                    rng.gen_range(2.0..=50.0),
                    rng.gen_range(50.0..=2000.0),
                    rng.gen_range(0.2..=1.0),
                );
                if until > from {
                    plan = plan.bursty_loss(link, from, until, params);
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_emit_paired_actions() {
        let s = SimTime::from_secs;
        let plan = FaultPlan::new().outage(3, s(1), s(2));
        assert_eq!(
            plan.actions(),
            &[(s(1), FaultAction::Down { link: 3 }), (s(2), FaultAction::Up { link: 3 })]
        );
    }

    #[test]
    fn ge_params_bursty_means() {
        let p = GeParams::bursty(10.0, 990.0, 0.5);
        assert!((p.stationary_bad() - 0.01).abs() < 1e-12);
        assert!((p.mean_loss() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn randomized_is_a_pure_function_of_its_inputs() {
        let links = [0, 1, 2];
        let h = SimTime::from_secs(60);
        let a = FaultPlan::randomized(9, &links, h);
        let b = FaultPlan::randomized(9, &links, h);
        assert_eq!(a, b);
        // Different seeds almost surely differ (this seed pair does).
        let c = FaultPlan::randomized(10, &links, h);
        assert_ne!(a, c);
    }

    #[test]
    fn randomized_faults_end_before_80_percent_of_horizon() {
        let h = SimTime::from_secs(100);
        for seed in 0..50 {
            let plan = FaultPlan::randomized(seed, &[0, 1], h);
            for &(at, _) in plan.actions() {
                assert!(at <= SimTime::from_secs(80), "fault at {at} past the 80% fence");
            }
        }
    }

    #[test]
    #[should_panic]
    fn total_loss_is_a_valid_action_but_above_one_is_not() {
        let mut plan = FaultPlan::new();
        plan.push(SimTime::ZERO, FaultAction::SetLoss { link: 0, p: 1.0 }); // fine
        plan.push(SimTime::ZERO, FaultAction::SetLoss { link: 0, p: 1.1 }); // panics
    }

    /// A rate or queue limit the link could not take is refused when the
    /// plan is built, not when the action fires mid-run (in a sharded
    /// world, inside a worker).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_unusable_rate_or_queue_limit_is_refused_at_push() {
        fn refused(action: FaultAction) -> bool {
            std::panic::catch_unwind(|| FaultPlan::new().push(SimTime::ZERO, action)).is_err()
        }
        for bps in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(refused(FaultAction::SetRate { link: 0, bps }), "{bps} b/s");
        }
        assert!(!refused(FaultAction::SetRate { link: 0, bps: 1.0 }));
        assert!(refused(FaultAction::ShrinkQueue { link: 0, pkts: 1 << 32 }));
        assert!(!refused(FaultAction::ShrinkQueue { link: 0, pkts: u32::MAX as usize }));
    }

    #[test]
    #[should_panic(expected = "rate must be positive and finite")]
    fn zero_rate_is_refused_at_push() {
        FaultPlan::new().push(SimTime::ZERO, FaultAction::SetRate { link: 0, bps: 0.0 });
    }
}
