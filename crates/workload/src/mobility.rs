//! Scripted connectivity traces for the §5 mobile experiment (Fig. 17).
//!
//! The paper's subject walks around a building for ~12 minutes: WiFi is
//! good on most floors but absent on the stairwell; 3G is acceptable but
//! sometimes congested; around minute 9 the subject takes the stairs to a
//! coffee machine, losing WiFi but gaining 3G quality, then reacquires a
//! new WiFi basestation. A [`MobilityTrace`] encodes that walk as timed
//! link-condition changes and turns them into a [`FaultPlan`] the
//! simulator executes at their exact timestamps.

use mptcp_netsim::{ConnId, FaultAction, FaultPlan, LinkId, SimTime};

/// A condition to apply to one link at a point in the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCondition {
    /// New rate in bits per second (`None` = unchanged).
    pub rate_bps: Option<f64>,
    /// New random-loss probability (`None` = unchanged).
    pub loss: Option<f64>,
    /// Whether the link is down entirely (out of coverage).
    pub down: Option<bool>,
}

impl LinkCondition {
    /// Change only the rate.
    pub fn rate(bps: f64) -> Self {
        Self { rate_bps: Some(bps), loss: None, down: None }
    }

    /// Change rate and loss together.
    pub fn rate_loss(bps: f64, loss: f64) -> Self {
        Self { rate_bps: Some(bps), loss: Some(loss), down: None }
    }

    /// Total loss of coverage.
    pub fn outage() -> Self {
        Self { rate_bps: None, loss: None, down: Some(true) }
    }

    /// Coverage restored (optionally with a new rate — a new basestation).
    pub fn restore(bps: Option<f64>) -> Self {
        Self { rate_bps: bps, loss: None, down: Some(false) }
    }
}

/// One timed change in the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// Which link changes.
    pub link: LinkId,
    /// The new condition.
    pub condition: LinkCondition,
}

/// A time-ordered list of link-condition changes.
#[derive(Debug, Clone, Default)]
pub struct MobilityTrace {
    events: Vec<TraceEvent>,
}

impl MobilityTrace {
    /// Build a trace from events (sorted by time internally).
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        Self { events }
    }

    /// The walk of Fig. 17, parameterized by the WiFi and 3G link ids:
    ///
    /// * 0–9 min: WiFi good (≈14 Mb/s, 1% loss); 3G congested (≈1 Mb/s);
    /// * 9–10.5 min: stairwell — WiFi outage, 3G improves to ≈2.5 Mb/s;
    /// * 10.5 min: new WiFi basestation acquired (≈10 Mb/s), 3G stays good.
    pub fn paper_walk(wifi: LinkId, three_g: LinkId) -> Self {
        let m = |min: f64| SimTime::from_secs_f64(min * 60.0);
        Self::new(vec![
            TraceEvent { at: m(0.0), link: wifi, condition: LinkCondition::rate_loss(14e6, 0.01) },
            TraceEvent { at: m(0.0), link: three_g, condition: LinkCondition::rate(1.0e6) },
            TraceEvent { at: m(9.0), link: wifi, condition: LinkCondition::outage() },
            TraceEvent { at: m(9.0), link: three_g, condition: LinkCondition::rate(2.5e6) },
            TraceEvent { at: m(10.5), link: wifi, condition: LinkCondition::restore(Some(10e6)) },
        ])
    }

    /// All events (for inspection / plotting).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Re-express the trace as a declarative [`FaultPlan`] executed through
    /// the simulator's own event queue, so every change fires at its
    /// *exact* trace timestamp however the driver steps `run_until`. Within
    /// one timestamp the rate change is queued before the loss change
    /// before the up/down change.
    pub fn to_fault_plan(&self) -> FaultPlan {
        // No `(link, subflow)` pairs: no signal is sent, so the connection
        // id is never read.
        self.to_signal_plan(0, &[])
    }

    /// Re-express the trace as explicit path-management signaling for
    /// `conn`: the same physical link changes as
    /// [`to_fault_plan`](Self::to_fault_plan) — identical rates, losses and
    /// up/down timeline — plus ADD_ADDR/REMOVE_ADDR at every coverage edge
    /// of a link listed in `subflow_of`, naming the subflow paired with it
    /// (pairs of `(link, subflow index)`).
    ///
    /// This is the mobile host *telling* the scheduler about the handover
    /// instead of leaving it to discover the outage by retransmission
    /// timeouts: losing coverage signals the withdrawal **before** the link
    /// goes down (the subflow closes gracefully and strands nothing), and
    /// reacquisition brings the link up **before** the re-advertisement
    /// rejoins it. Links not listed keep fault-plan behavior.
    pub fn to_signal_plan(&self, conn: ConnId, subflow_of: &[(LinkId, usize)]) -> FaultPlan {
        let sub = |link: LinkId| subflow_of.iter().find(|&&(l, _)| l == link).map(|&(_, s)| s);
        let mut plan = FaultPlan::new();
        for ev in &self.events {
            if let Some(bps) = ev.condition.rate_bps {
                plan.push(ev.at, FaultAction::SetRate { link: ev.link, bps });
            }
            if let Some(p) = ev.condition.loss {
                plan.push(ev.at, FaultAction::SetLoss { link: ev.link, p });
            }
            if let Some(down) = ev.condition.down {
                if down {
                    if let Some(s) = sub(ev.link) {
                        plan.push(ev.at, FaultAction::AddrRemove { conn, sub: s });
                    }
                    plan.push(ev.at, FaultAction::Down { link: ev.link });
                } else {
                    plan.push(ev.at, FaultAction::Up { link: ev.link });
                    if let Some(s) = sub(ev.link) {
                        plan.push(ev.at, FaultAction::AddrAdd { conn, sub: s });
                    }
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_netsim::{LinkSpec, Simulator};

    #[test]
    fn paper_walk_toggles_wifi_coverage() {
        let mut sim = Simulator::new(1);
        let wifi = sim.add_link(LinkSpec::mbps(14.0, SimTime::from_millis(5), 20));
        let tg = sim.add_link(LinkSpec::mbps(2.0, SimTime::from_millis(75), 200));
        sim.install_fault_plan(&MobilityTrace::paper_walk(wifi, tg).to_fault_plan());
        // The stairwell: WiFi down, 3G improved, the new basestation not yet
        // acquired.
        sim.run_until(SimTime::from_secs_f64(9.5 * 60.0));
        assert_eq!(sim.perf().faults_applied, 5);
        assert!((sim.link_spec(tg).rate_bps - 2.5e6).abs() < 1.0);
        sim.run_until(SimTime::from_secs_f64(11.0 * 60.0));
        assert_eq!(sim.perf().faults_applied, 7, "rate and coverage restored at 10.5 min");
        assert!((sim.link_spec(wifi).rate_bps - 10e6).abs() < 1.0, "new basestation rate");
    }

    #[test]
    fn to_fault_plan_preserves_times_and_per_event_ordering() {
        use mptcp_netsim::FaultAction;
        let plan = MobilityTrace::paper_walk(0, 1).to_fault_plan();
        // 5 trace events expand to 7 actions: rate+loss, rate, down, rate,
        // rate+up — with rate ordered before loss before up/down at each
        // timestamp.
        assert_eq!(plan.len(), 7);
        let kinds: Vec<&str> = plan
            .actions()
            .iter()
            .map(|(_, a)| match a {
                FaultAction::SetRate { .. } => "rate",
                FaultAction::SetLoss { .. } => "loss",
                FaultAction::Down { .. } => "down",
                FaultAction::Up { .. } => "up",
                FaultAction::Brownout { .. }
                | FaultAction::RestoreRate { .. }
                | FaultAction::ShrinkQueue { .. }
                | FaultAction::RestoreQueue { .. }
                | FaultAction::GilbertElliott { .. }
                | FaultAction::AddrAdd { .. }
                | FaultAction::AddrRemove { .. } => "other",
            })
            .collect();
        assert_eq!(kinds, ["rate", "loss", "rate", "down", "rate", "rate", "up"]);
        assert!(plan.actions().windows(2).all(|w| w[0].0 <= w[1].0), "time-sorted");
        assert_eq!(plan.actions()[3].0, SimTime::from_secs_f64(9.0 * 60.0));
        // Events given out of order come out sorted, each exactly once.
        let rate = |secs, bps| TraceEvent {
            at: SimTime::from_secs(secs),
            link: 0,
            condition: LinkCondition::rate(bps),
        };
        let plan = MobilityTrace::new(vec![rate(10, 5e6), rate(5, 7e6)]).to_fault_plan();
        let want = [(SimTime::from_secs(5), 7e6), (SimTime::from_secs(10), 5e6)];
        let rates: Vec<(SimTime, f64)> = plan
            .actions()
            .iter()
            .filter_map(|&(at, a)| {
                if let FaultAction::SetRate { bps, .. } = a {
                    Some((at, bps))
                } else {
                    None
                }
            })
            .collect();
        assert_eq!((plan.len(), &rates[..]), (2, &want[..]));
    }

    /// One 15 s reading of the paper walk: per-subflow cumulative
    /// `(delivered_pkts, cwnd bits)` and the WiFi link's `(offered, dropped)`.
    type WalkSample = (SimTime, Vec<(u64, u64)>, (u64, u64));

    /// Drive the paper walk as a fault plan in `outer_step` slices of
    /// `run_until`, reading the counters on every 15 s boundary.
    fn walk_samples(outer_step: SimTime) -> Vec<WalkSample> {
        use mptcp_cc::AlgorithmKind;
        use mptcp_topology::{AccessLink, WirelessClient};

        let mut sim = Simulator::new(81);
        let w = WirelessClient::build(&mut sim, AccessLink::wifi(), AccessLink::three_g());
        let conn = w.add_multipath(&mut sim, AlgorithmKind::Mptcp, SimTime::ZERO);
        let plan = MobilityTrace::paper_walk(w.link1, w.link2).to_fault_plan();
        sim.install_fault_plan(&plan);
        let every = SimTime::from_secs(15).as_nanos();
        let horizon = SimTime::from_secs(11 * 60);
        let mut samples = Vec::new();
        let mut now = SimTime::ZERO;
        while now < horizon {
            now = (now + outer_step).min(horizon);
            sim.run_until(now);
            if now.as_nanos().is_multiple_of(every) {
                let subflows = sim
                    .connection_stats(conn)
                    .subflows
                    .iter()
                    .map(|s| (s.delivered_pkts, s.cwnd.to_bits()))
                    .collect();
                let wifi = sim.link_stats(w.link1);
                samples.push((now, subflows, (wifi.offered, wifi.dropped())));
            }
        }
        samples
    }

    #[test]
    fn signal_plan_pins_the_fault_plan_link_availability_timeline() {
        // Differential pin: signaling mode changes *who learns what when*,
        // never the physics. Both plans must encode the identical
        // link-availability timeline, with the ADD_ADDR/REMOVE_ADDR
        // signals riding exactly on the coverage edges — withdrawal before
        // the link drops, re-advertisement after it returns.
        let trace = MobilityTrace::paper_walk(0, 1);
        let fault = trace.to_fault_plan();
        let signal = trace.to_signal_plan(0, &[(0, 0), (1, 1)]);
        let availability = |plan: &FaultPlan| -> Vec<(SimTime, LinkId, bool)> {
            plan.actions()
                .iter()
                .filter_map(|&(at, a)| match a {
                    FaultAction::Down { link } => Some((at, link, false)),
                    FaultAction::Up { link } => Some((at, link, true)),
                    FaultAction::SetRate { .. }
                    | FaultAction::Brownout { .. }
                    | FaultAction::RestoreRate { .. }
                    | FaultAction::SetLoss { .. }
                    | FaultAction::ShrinkQueue { .. }
                    | FaultAction::RestoreQueue { .. }
                    | FaultAction::GilbertElliott { .. }
                    | FaultAction::AddrAdd { .. }
                    | FaultAction::AddrRemove { .. } => None,
                })
                .collect()
        };
        assert_eq!(availability(&fault), availability(&signal));
        let physical = |plan: &FaultPlan| -> Vec<(SimTime, FaultAction)> {
            plan.actions()
                .iter()
                .filter(|(_, a)| {
                    !matches!(a, FaultAction::AddrRemove { .. } | FaultAction::AddrAdd { .. })
                })
                .copied()
                .collect()
        };
        assert_eq!(physical(&fault), physical(&signal), "identical physics, signals aside");
        let signals: Vec<(SimTime, FaultAction)> = signal
            .actions()
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::AddrRemove { .. } | FaultAction::AddrAdd { .. }))
            .copied()
            .collect();
        assert_eq!(signals.len(), 2, "one withdrawal, one re-advertisement: {signals:?}");
        let m = |min: f64| SimTime::from_secs_f64(min * 60.0);
        assert!(matches!(signals[0], (at, FaultAction::AddrRemove { conn: 0, sub: 0 }) if at == m(9.0)));
        assert!(matches!(signals[1], (at, FaultAction::AddrAdd { conn: 0, sub: 0 }) if at == m(10.5)));
    }

    #[test]
    fn signaled_walk_spares_the_wifi_subflow_its_timeouts() {
        // Behavioral differential: under the fault plan the scheduler
        // discovers the stairwell outage by RTO probing on the dead WiFi
        // subflow; under the signal plan it is told, closes the subflow,
        // and probes nothing. Same walk, strictly fewer WiFi timeouts.
        use mptcp_cc::AlgorithmKind;
        use mptcp_topology::{AccessLink, WirelessClient};

        let run = |signaled: bool| {
            let mut sim = Simulator::new(81);
            let w = WirelessClient::build(&mut sim, AccessLink::wifi(), AccessLink::three_g());
            let conn = w.add_multipath(&mut sim, AlgorithmKind::Mptcp, SimTime::ZERO);
            let trace = MobilityTrace::paper_walk(w.link1, w.link2);
            let plan = if signaled {
                trace.to_signal_plan(conn, &[(w.link1, 0), (w.link2, 1)])
            } else {
                trace.to_fault_plan()
            };
            sim.install_fault_plan(&plan);
            sim.run_until(SimTime::from_secs(11 * 60));
            sim.connection_stats(conn)
        };
        let faulted = run(false);
        let signaled = run(true);
        assert_eq!(signaled.subflows_closed, 1, "the stairwell withdraws WiFi once");
        assert_eq!(signaled.subflows_joined, 1, "the new basestation rejoins it");
        assert_eq!(faulted.subflows_closed, 0, "fault mode signals nothing");
        assert!(
            signaled.subflows[0].timeouts < faulted.subflows[0].timeouts,
            "signaling must spare the dead-path RTO probing: {} vs {}",
            signaled.subflows[0].timeouts,
            faulted.subflows[0].timeouts
        );
        assert!(!signaled.subflows[0].closed, "WiFi is open again after the walk");
        // Both modes keep moving data across the whole walk.
        assert!(faulted.data_delivered > 10_000 && signaled.data_delivered > 10_000);
    }

    #[test]
    fn paper_walk_fault_plan_is_stepping_granularity_invariant() {
        // Faults fire from the event queue at their exact timestamps, so
        // how coarsely the driver slices `run_until` cannot change the
        // physics: 100 ms steps and 1 s steps must agree bit-for-bit.
        let fine = walk_samples(SimTime::from_millis(100));
        let coarse = walk_samples(SimTime::from_secs(1));
        assert_eq!(fine.len(), 44, "one reading per 15 s of the 11-minute walk");
        assert_eq!(fine.len(), coarse.len());
        for (a, b) in fine.iter().zip(&coarse) {
            assert_eq!(a, b, "counters differ at {:?}", a.0);
        }
    }
}
