//! Structured telemetry probes: periodic per-subflow and per-link time
//! series plus congestion-event transitions, sampled from inside the event
//! loop.
//!
//! Diffing [`crate::ConnectionStats`] between `run_until` steps answers
//! the paper's *figure* questions (goodput per interval); the probe
//! subsystem answers *diagnosis* questions: what did
//! cwnd/ssthresh/srtt/rto actually do over time, when did recovery modes
//! switch, how deep were the queues, and which drop cause dominated. It is
//! the measurement substrate for the fluid-model differential oracle in
//! `mptcp-bench`.
//!
//! Design constraints:
//!
//! * **Zero cost when disabled.** The simulator holds an
//!   `Option<Box<ProbeState>>`; every hook is a single `is_some()` branch
//!   on an otherwise untouched hot path, and sampling itself is driven by a
//!   self-rescheduling [`ProbeTick`](crate::event) event, so the per-packet
//!   code never loops over watch lists.
//! * **History-neutral.** Sampling draws no randomness and sends no
//!   packets, so enabling probes cannot perturb the simulated packet
//!   history: a run with probes on and a run with probes off deliver the
//!   identical byte stream (asserted in `benches/sim_micro.rs`).
//! * **Quiesce detection.** A pending tick keeps the event queue non-empty,
//!   so [`SimPerf::quiesced_at`](crate::SimPerf) cannot trigger while a
//!   probe is enabled; the stall watchdog is unaffected (ticks do not count
//!   as progress). Disable the probe before relying on quiesce detection.

use crate::link::{LinkId, LinkStats};
use crate::sim::ConnId;
use crate::time::SimTime;

/// What to sample and how often. Watch lists are fixed at enable time.
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    /// Sampling period. Each tick records one [`SubflowPoint`] per watched
    /// subflow and one [`LinkPoint`] per watched link.
    pub interval: SimTime,
    /// Connections to sample; empty means every connection that exists
    /// when the probe is enabled.
    pub conns: Vec<ConnId>,
    /// Links to sample; empty means every link that exists when the probe
    /// is enabled.
    pub links: Vec<LinkId>,
}

impl ProbeSpec {
    /// Sample everything in the world at `interval`.
    pub fn every(interval: SimTime) -> Self {
        Self { interval, conns: Vec::new(), links: Vec::new() }
    }

    /// Restrict to specific connections.
    pub fn conns(mut self, conns: Vec<ConnId>) -> Self {
        self.conns = conns;
        self
    }

    /// Restrict to specific links.
    pub fn links(mut self, links: Vec<LinkId>) -> Self {
        self.links = links;
        self
    }
}

/// Which congestion-control regime a subflow sender was in at a sample
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcPhase {
    /// cwnd below ssthresh, exponential growth.
    SlowStart,
    /// Additive increase driven by the coupled algorithm.
    CongestionAvoidance,
    /// Steady state of a delay-based controller (wVegas): the window is
    /// steered by queueing delay, not loss — distinguished from
    /// [`CcPhase::CongestionAvoidance`] because "no losses here" means
    /// opposite things for the two regimes.
    DelayAvoidance,
    /// SACK-driven hole repair; window held at the post-decrease level.
    FastRecovery,
    /// Post-timeout: window collapsed to the floor, slow-starting back.
    RtoRecovery,
}

impl CcPhase {
    /// Stable lowercase name (used in JSONL output).
    pub fn as_str(self) -> &'static str {
        match self {
            CcPhase::SlowStart => "slow_start",
            CcPhase::CongestionAvoidance => "congestion_avoidance",
            CcPhase::DelayAvoidance => "delay_avoidance",
            CcPhase::FastRecovery => "fast_recovery",
            CcPhase::RtoRecovery => "rto_recovery",
        }
    }
}

/// One periodic sample of one subflow's sender state.
#[derive(Debug, Clone, Copy)]
pub struct SubflowPoint {
    /// Sample time.
    pub at: SimTime,
    /// Connection sampled.
    pub conn: ConnId,
    /// Subflow index within the connection.
    pub sub: usize,
    /// Congestion window, packets.
    pub cwnd: f64,
    /// Slow-start threshold, packets (∞ before the first loss).
    pub ssthresh: f64,
    /// Smoothed RTT, seconds (0 before the first sample).
    pub srtt: f64,
    /// Current effective RTO, seconds (min/max-clamped).
    pub rto: f64,
    /// Consecutive RTO backoffs without forward ACK progress.
    pub backoffs: u32,
    /// Estimated packets in the network (SACK scoreboard `pipe`).
    pub in_flight: f64,
    /// Congestion-control regime at the sample point.
    pub phase: CcPhase,
}

/// One periodic sample of one link's state. The counters are cumulative
/// (diff successive points for per-interval rates).
#[derive(Debug, Clone, Copy)]
pub struct LinkPoint {
    /// Sample time.
    pub at: SimTime,
    /// Link sampled.
    pub link: LinkId,
    /// Packets waiting or in service on the link right now.
    pub queue_depth: usize,
    /// The link's counters at the sample time.
    pub stats: LinkStats,
}

/// A congestion-control state transition, recorded at the event that caused
/// it (not at the next sampling tick, so ordering against other transitions
/// is exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// Loss detected via SACK/dupacks; fast recovery began.
    EnterFastRecovery,
    /// A retransmission timeout fired (window collapsed to the floor).
    RtoFired,
    /// Recovery (fast or RTO) completed; normal growth resumed.
    ExitRecovery,
    /// The subflow crossed the potentially-failed backoff threshold.
    PotentiallyFailed,
    /// Forward ACK progress revived a potentially-failed subflow.
    Revived,
    /// Every usable primary subflow failed; data moved onto the
    /// connection's backup subflows (recorded against the first backup).
    BackupActivated,
    /// A primary subflow became usable again; the backups stood down.
    BackupStoodDown,
}

impl TransitionKind {
    /// Stable lowercase name (used in JSONL output).
    pub fn as_str(self) -> &'static str {
        match self {
            TransitionKind::EnterFastRecovery => "enter_fast_recovery",
            TransitionKind::RtoFired => "rto_fired",
            TransitionKind::ExitRecovery => "exit_recovery",
            TransitionKind::PotentiallyFailed => "potentially_failed",
            TransitionKind::Revived => "revived",
            TransitionKind::BackupActivated => "backup_activated",
            TransitionKind::BackupStoodDown => "backup_stood_down",
        }
    }
}

/// One recorded transition.
#[derive(Debug, Clone, Copy)]
pub struct Transition {
    /// When the transition happened.
    pub at: SimTime,
    /// Connection it happened on.
    pub conn: ConnId,
    /// Subflow index within the connection.
    pub sub: usize,
    /// What changed.
    pub kind: TransitionKind,
}

/// Everything a probe collected: three append-only, time-ordered series.
#[derive(Debug, Default, Clone)]
pub struct ProbeLog {
    /// Periodic subflow samples, in time order.
    pub subflow_points: Vec<SubflowPoint>,
    /// Periodic link samples, in time order.
    pub link_points: Vec<LinkPoint>,
    /// Congestion transitions, in event order.
    pub transitions: Vec<Transition>,
}

impl ProbeLog {
    /// Iterator over the samples of one subflow taken at or after `from`.
    pub fn subflow_series(
        &self,
        conn: ConnId,
        sub: usize,
        from: SimTime,
    ) -> impl Iterator<Item = &SubflowPoint> {
        self.subflow_points
            .iter()
            .filter(move |p| p.conn == conn && p.sub == sub && p.at >= from)
    }

    /// Time-averaged congestion window of one subflow over samples taken at
    /// or after `from` (packets). Returns `None` with no samples.
    pub fn mean_cwnd(&self, conn: ConnId, sub: usize, from: SimTime) -> Option<f64> {
        mean(self.subflow_series(conn, sub, from).map(|p| p.cwnd))
    }

    /// Time-averaged smoothed RTT of one subflow at or after `from`,
    /// ignoring pre-first-sample zeros. Returns `None` with no samples.
    pub fn mean_srtt(&self, conn: ConnId, sub: usize, from: SimTime) -> Option<f64> {
        mean(self.subflow_series(conn, sub, from).map(|p| p.srtt).filter(|&s| s > 0.0))
    }

    /// Transitions of one subflow, in order.
    pub fn transitions_of(&self, conn: ConnId, sub: usize) -> Vec<Transition> {
        self.transitions.iter().filter(|t| t.conn == conn && t.sub == sub).copied().collect()
    }
}

fn mean(it: impl Iterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Internal probe state carried by the simulator while a probe is enabled.
#[derive(Debug)]
pub(crate) struct ProbeState {
    pub spec: ProbeSpec,
    pub log: ProbeLog,
    /// `watch[conn]` — dense O(1) mirror of `spec.conns`, consulted on
    /// every ACK and RTO while the probe is enabled (a watch-list scan
    /// there would put a per-event O(conns) term back on the hot path).
    pub watch: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_helpers_handle_empty_and_zero_series() {
        let log = ProbeLog::default();
        assert_eq!(log.mean_cwnd(0, 0, SimTime::ZERO), None);
        let log = ProbeLog {
            subflow_points: vec![
                SubflowPoint {
                    at: SimTime::from_secs(1),
                    conn: 0,
                    sub: 0,
                    cwnd: 4.0,
                    ssthresh: f64::INFINITY,
                    srtt: 0.0,
                    rto: 1.0,
                    backoffs: 0,
                    in_flight: 2.0,
                    phase: CcPhase::SlowStart,
                },
                SubflowPoint {
                    at: SimTime::from_secs(2),
                    conn: 0,
                    sub: 0,
                    cwnd: 8.0,
                    ssthresh: f64::INFINITY,
                    srtt: 0.1,
                    rto: 0.3,
                    backoffs: 0,
                    in_flight: 6.0,
                    phase: CcPhase::SlowStart,
                },
            ],
            ..Default::default()
        };
        // srtt == 0 (no sample yet) must not drag the mean down.
        assert_eq!(log.mean_srtt(0, 0, SimTime::ZERO), Some(0.1));
        assert_eq!(log.mean_cwnd(0, 0, SimTime::ZERO), Some(6.0));
        // `from` filters out the early sample.
        assert_eq!(log.mean_cwnd(0, 0, SimTime::from_secs(2)), Some(8.0));
        assert_eq!(log.mean_cwnd(1, 0, SimTime::ZERO), None);
    }

    #[test]
    fn phase_and_transition_names_are_stable() {
        assert_eq!(CcPhase::SlowStart.as_str(), "slow_start");
        assert_eq!(CcPhase::DelayAvoidance.as_str(), "delay_avoidance");
        assert_eq!(CcPhase::RtoRecovery.as_str(), "rto_recovery");
        assert_eq!(TransitionKind::RtoFired.as_str(), "rto_fired");
        assert_eq!(TransitionKind::Revived.as_str(), "revived");
        assert_eq!(TransitionKind::BackupActivated.as_str(), "backup_activated");
        assert_eq!(TransitionKind::BackupStoodDown.as_str(), "backup_stood_down");
    }
}
