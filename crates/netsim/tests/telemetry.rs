//! Integration tests for the probe subsystem and the RFC 6298 backoff
//! behaviour it makes observable.

use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{
    ConnectionSpec, FaultPlan, LinkSpec, ProbeSpec, SimTime, Simulator, TransitionKind,
};

/// A dual-homed MPTCP connection suffers a 7 s blackout on one path. The
/// probe series must show the RTO backing off exponentially during the
/// outage, and after the link returns the effective RTO must fall back to
/// the sampled (min_rto-clamped) range — i.e. the backed-off value is not
/// inherited once fresh RTT samples arrive (RFC 6298 §5.5/§5.7).
#[test]
fn rto_backs_off_during_blackout_and_recovers_to_sampled_range() {
    let mut sim = Simulator::new(42);
    let a = sim.add_link(LinkSpec::mbps(5.0, SimTime::from_millis(20), 25));
    let b = sim.add_link(LinkSpec::mbps(5.0, SimTime::from_millis(20), 25));
    let c = sim.add_connection(
        ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![a]).path(vec![b]),
    );
    sim.enable_probe(ProbeSpec::every(SimTime::from_millis(100)));
    // Path b is down over [5 s, 12 s).
    let s = SimTime::from_secs;
    sim.install_fault_plan(&FaultPlan::new().outage(b, s(5), s(12)));

    sim.run_until(SimTime::from_secs(5));
    let min_rto = sim.connection_stats(c).subflows[1].rto;
    assert!(
        (min_rto - 0.2).abs() < 1e-9,
        "clean 40 ms path: effective rto sits at min_rto, got {min_rto}"
    );

    sim.run_until(SimTime::from_secs(12));
    let during = sim.connection_stats(c).subflows[1];
    assert!(during.timeouts >= 3, "blackout must fire repeated RTOs: {}", during.timeouts);
    assert!(during.rto_backoffs >= 2, "backoff run: {}", during.rto_backoffs);
    assert!(
        during.rto >= 4.0 * min_rto,
        "7 s in, the effective rto must have at least quadrupled: {} vs min {min_rto}",
        during.rto
    );
    assert!(during.potentially_failed, "path is potentially failed mid-outage");

    sim.run_until(SimTime::from_secs(25));
    let after = sim.connection_stats(c).subflows[1];
    assert_eq!(after.rto_backoffs, 0, "forward progress clears the backoff run");
    assert!(!after.potentially_failed, "revived after the outage");
    assert!(
        (after.rto - min_rto).abs() < 1e-9,
        "post-recovery rto returns to the sampled range: {} vs {min_rto}",
        after.rto
    );

    // The probe saw the whole story, in order: an RTO fired, the subflow
    // was declared potentially failed, then revived.
    let log = sim.disable_probe().expect("probe enabled");
    let kinds: Vec<TransitionKind> =
        log.transitions_of(c, 1).iter().map(|t| t.kind).collect();
    let pos = |k: TransitionKind| kinds.iter().position(|&x| x == k);
    let fired = pos(TransitionKind::RtoFired).expect("RtoFired recorded");
    let failed = pos(TransitionKind::PotentiallyFailed).expect("PotentiallyFailed recorded");
    let revived = pos(TransitionKind::Revived).expect("Revived recorded");
    assert!(fired < failed && failed < revived, "transition order: {kinds:?}");

    // And the rto time series itself shows the backoff peak inside the
    // outage window and the recovery afterwards.
    let peak = log
        .subflow_series(c, 1, SimTime::from_secs(5))
        .filter(|p| p.at <= SimTime::from_secs(12))
        .map(|p| p.rto)
        .fold(0.0_f64, f64::max);
    assert!(peak >= 4.0 * min_rto, "probe series must capture the backoff peak: {peak}");
    let last = log.subflow_series(c, 1, SimTime::from_secs(20)).map(|p| p.rto).last();
    assert!(last.is_some_and(|r| (r - min_rto).abs() < 1e-9), "series tail: {last:?}");
}

/// Steady random loss: every loss event's decrease lands at or above the
/// probing floor of one packet, across algorithms — no subflow is ever
/// stranded below 1 pkt, even under COUPLED's raw `w_r − w_total/2` rule.
#[test]
fn post_loss_windows_never_fall_below_the_probing_floor() {
    for kind in AlgorithmKind::all() {
        let mut sim = Simulator::new(9);
        let a = sim.add_link(LinkSpec::mbps(4.0, SimTime::from_millis(10), 8).with_loss(0.05));
        let b = sim.add_link(LinkSpec::mbps(4.0, SimTime::from_millis(50), 8).with_loss(0.05));
        let c = sim.add_connection(ConnectionSpec::bulk(kind).path(vec![a]).path(vec![b]));
        sim.enable_probe(ProbeSpec::every(SimTime::from_millis(50)));
        sim.run_until(SimTime::from_secs(30));
        let log = sim.disable_probe().unwrap();
        for p in &log.subflow_points {
            assert!(
                p.cwnd >= 1.0 - 1e-9,
                "{:?} sub {} at {}: cwnd {} below the probing floor",
                kind,
                p.sub,
                p.at,
                p.cwnd
            );
        }
        let st = sim.connection_stats(c);
        assert!(
            st.subflows.iter().all(|s| s.cwnd >= 1.0 - 1e-9),
            "{kind:?}: final windows {:?}",
            st.subflows.iter().map(|s| s.cwnd).collect::<Vec<_>>()
        );
    }
}
