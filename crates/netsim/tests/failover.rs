//! Path management and backup failover at the packet level: backup
//! subflows stay cold while primaries are healthy, engage when every
//! primary fails, stand down on recovery; ADD_ADDR/REMOVE_ADDR fault
//! actions close and reopen subflows at runtime with exactly-once
//! reinjection; and all of it stays digest-invariant across shard job
//! counts.

use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{
    ConnectionSpec, ConnectionStats, DetDigest, FaultPlan, LinkSpec, ProbeSpec, ShardedSimulator,
    SimTime, Simulator, TcpParams, TransitionKind,
};

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// The paper's mobile scenario in miniature: a fast primary (WiFi) and a
/// slow backup (3G) that must carry nothing until the primary blacks out.
#[test]
fn backup_stays_cold_fails_over_and_stands_down() {
    let mut sim = Simulator::new(42);
    let wifi = sim.add_link(LinkSpec::mbps(10.0, ms(10), 25));
    let cell = sim.add_link(LinkSpec::mbps(2.0, ms(40), 25));
    let conn = sim.add_connection(
        ConnectionSpec::sized(AlgorithmKind::Mptcp, 30_000)
            .path(vec![wifi])
            .path(vec![cell])
            .backup()
            .tcp(TcpParams { max_rto: SimTime::from_secs(2) }),
    );
    sim.enable_probe(ProbeSpec::every(ms(100)));
    // Outage of the only primary from 10 s to 25 s.
    sim.install_fault_plan(&FaultPlan::new().outage(wifi, SimTime::from_secs(10), SimTime::from_secs(25)));

    // Phase A: primary healthy — the backup carries nothing.
    sim.run_until(SimTime::from_secs(10));
    let st = sim.connection_stats(conn);
    assert!(st.subflows[1].backup && !st.subflows[0].backup);
    assert!(!st.subflows[0].closed);
    assert_eq!(st.subflows[1].sent_pkts, 0, "backup sent data while primary healthy: {st:?}");
    assert!(!st.backup_active && st.backup_activations == 0);
    assert!(st.data_delivered > 1_000, "primary made no progress");

    // Phase B: blackout — the backup engages within a bounded latency.
    sim.run_until(SimTime::from_secs(25));
    let mid = sim.connection_stats(conn);
    assert!(mid.backup_active, "backup never activated during the blackout: {mid:?}");
    assert_eq!(mid.backup_activations, 1);
    assert!(mid.subflows[1].sent_pkts > 0, "active backup moved no data");
    let lat = mid.failover_latency.expect("activation stamps a latency");
    // The failover clock starts at the primary's first unanswered RTO and
    // stops when the potentially-failed threshold (2 backoffs) engages the
    // backup: at most two backed-off intervals of the capped RTO.
    assert!(
        lat > SimTime::ZERO && lat <= SimTime::from_secs(4),
        "failover latency out of range: {lat:?}"
    );

    // Phase C: the primary revives — backups stand down, transfer finishes.
    sim.run_until(SimTime::from_secs(120));
    let end = sim.connection_stats(conn);
    assert!(!end.backup_active, "backup must stand down once the primary revives: {end:?}");
    assert_eq!(end.backup_activations, 1, "no flapping on a single outage");
    assert!(end.finished_at.is_some(), "transfer must complete: {end:?}");
    assert_eq!(end.data_delivered, 30_000, "exactly-once delivery");
    assert_eq!(end.data_acked, 30_000, "exactly-once ack accounting");
    assert!(end.dup_data_arrivals <= end.reinjections_sent);

    let log = sim.disable_probe().expect("probe was enabled");
    let kinds: Vec<TransitionKind> =
        log.transitions_of(conn, 1).into_iter().map(|t| t.kind).collect();
    assert!(kinds.contains(&TransitionKind::BackupActivated), "missing activation: {kinds:?}");
    assert!(kinds.contains(&TransitionKind::BackupStoodDown), "missing stand-down: {kinds:?}");
}

/// REMOVE_ADDR closes a subflow mid-transfer (stranded data reinjected
/// exactly once onto the survivor); a later ADD_ADDR rejoins it and the
/// transfer finishes using both paths again.
#[test]
fn addr_remove_then_add_rejoins_the_subflow() {
    let mut sim = Simulator::new(7);
    let l1 = sim.add_link(LinkSpec::mbps(8.0, ms(10), 25));
    let l2 = sim.add_link(LinkSpec::mbps(8.0, ms(15), 25));
    let conn = sim.add_connection(
        ConnectionSpec::sized(AlgorithmKind::Mptcp, 20_000).path(vec![l1]).path(vec![l2]),
    );
    sim.install_fault_plan(
        &FaultPlan::new()
            .addr_remove(SimTime::from_secs(3), conn, 0)
            .addr_add(SimTime::from_secs(8), conn, 0),
    );

    sim.run_until(SimTime::from_secs(5));
    let mid = sim.connection_stats(conn);
    assert!(mid.subflows[0].closed, "subflow 0 must be closed after REMOVE_ADDR");
    assert_eq!(mid.subflows_closed, 1);
    let sent_while_closed = mid.subflows[0].sent_pkts;

    sim.run_until(SimTime::from_secs(120));
    let end = sim.connection_stats(conn);
    assert!(!end.subflows[0].closed, "ADD_ADDR must reopen the subflow");
    assert_eq!(end.addr_advertised, 1);
    assert_eq!(end.subflows_joined, 1);
    assert!(
        end.subflows[0].sent_pkts > sent_while_closed,
        "rejoined subflow must carry data again: {end:?}"
    );
    assert!(end.finished_at.is_some(), "transfer must complete: {end:?}");
    assert_eq!(end.data_delivered, 20_000, "exactly-once delivery");
    assert_eq!(end.data_acked, 20_000, "exactly-once ack accounting");
    assert!(end.dup_data_arrivals <= end.reinjections_sent);
}

/// Closing every subflow of a connection mid-transfer must not finish or
/// crash it — the world just goes quiet (and revives on a rejoin).
#[test]
fn closing_all_subflows_parks_the_connection() {
    let mut sim = Simulator::new(3);
    let l = sim.add_link(LinkSpec::mbps(8.0, ms(10), 25));
    let conn =
        sim.add_connection(ConnectionSpec::sized(AlgorithmKind::Mptcp, 50_000).path(vec![l]));
    sim.run_until(SimTime::from_secs(2));
    sim.admin_close_subflow(conn, 0);
    sim.run_until(SimTime::from_secs(10));
    let parked = sim.connection_stats(conn);
    assert!(parked.finished_at.is_none(), "a parked transfer is not a finished one");
    let frozen = parked.data_delivered;
    sim.admin_open_subflow(conn, 0);
    sim.run_until(SimTime::from_secs(180));
    let end = sim.connection_stats(conn);
    assert!(end.finished_at.is_some(), "rejoin must revive the transfer: {end:?}");
    assert!(end.data_delivered > frozen);
    assert_eq!(end.data_acked, 50_000);
}

/// Address signals aimed at a flow that holds no hot window — under flow
/// lifecycle, one not started yet or one already retired — change only
/// its cold rows and counters. Flow `a` starts with subflow 1 closed (the
/// pre-start ADD_ADDR names the open subflow 0, so it only counts); flow
/// `b` sees its subflow 1 closed and reopened before it starts. Both
/// retire long before the second round of signals, which must change
/// nothing: a retired flow's window may belong to another flow by then.
#[test]
fn addr_signals_to_a_flow_without_a_hot_window() {
    let mut sim = Simulator::new(5);
    sim.set_flow_lifecycle(true);
    let l1 = sim.add_link(LinkSpec::mbps(10.0, ms(10), 25));
    let l2 = sim.add_link(LinkSpec::mbps(10.0, ms(15), 25));
    let sized = |start| {
        ConnectionSpec::sized(AlgorithmKind::Mptcp, 300).path(vec![l1]).path(vec![l2]).start(start)
    };
    let a = sim.add_connection(sized(SimTime::from_secs(1)));
    let b = sim.add_connection(sized(SimTime::from_secs(2)));
    let (pre, late) = (ms(500), SimTime::from_secs(30));
    sim.install_fault_plan(
        &FaultPlan::new()
            .addr_remove(pre, a, 1)
            .addr_add(pre, a, 0)
            .addr_remove(pre, b, 1)
            .addr_add(pre, b, 1)
            .addr_remove(late, a, 0)
            .addr_add(late, a, 1)
            .addr_remove(late, b, 1)
            .addr_add(late, b, 1),
    );
    sim.run_until(SimTime::from_secs(10));
    let (a_done, b_done) = (sim.connection_stats(a), sim.connection_stats(b));
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(sim.perf().faults_applied, 8);
    let (a_end, b_end) = (sim.connection_stats(a), sim.connection_stats(b));
    assert_eq!(a_end.digest_value(), a_done.digest_value(), "signals to retired a changed it");
    assert_eq!(b_end.digest_value(), b_done.digest_value(), "signals to retired b changed it");

    let counters = |st: &ConnectionStats| {
        (st.subflows_closed, st.subflows_joined, st.addr_advertised)
    };
    assert_eq!(counters(&a_end), (1, 0, 1));
    assert_eq!(counters(&b_end), (1, 1, 1));
    for st in [&a_end, &b_end] {
        assert!(st.finished_at.is_some_and(|t| t < SimTime::from_secs(10)), "{st:?}");
        assert_eq!((st.data_delivered, st.data_acked, st.dup_data_arrivals), (300, 300, 0));
    }
    assert!(a_end.subflows[1].closed, "a's subflow 1 never reopened");
    assert_eq!(a_end.subflows[1].sent_pkts, 0, "a closed subflow carries nothing");
    assert_eq!(a_end.subflows[0].delivered_pkts, 300, "a ran on subflow 0 alone, once each");
    assert_eq!(a_end.reinjections_sent, 0);
    assert!(!b_end.subflows[1].closed && b_end.subflows[1].sent_pkts > 0);
}

/// Address churn — removes, re-adds, and a primary outage driving a backup
/// activation — is part of the deterministic event history: the world
/// digest is bit-identical across shard job counts. The top count defaults
/// to 4 and is swept by CI's nightly `MPTCP_SHARD_JOBS` matrix.
#[test]
fn addr_churn_is_jobs_invariant() {
    let world = || {
        let mut sim = ShardedSimulator::new(23, 2);
        let a0 = sim.add_link(0, LinkSpec::mbps(10.0, ms(10), 25));
        let a1 = sim.add_link(0, LinkSpec::mbps(8.0, ms(15), 25));
        let b0 = sim.add_link(1, LinkSpec::mbps(10.0, ms(10), 25));
        let b1 = sim.add_link(1, LinkSpec::mbps(6.0, ms(20), 25));
        let _c0 = sim.add_connection(
            ConnectionSpec::sized(AlgorithmKind::Mptcp, 4_000)
                .path(vec![a0, b0])
                .path(vec![a1, b1])
                .backup()
                .tcp(TcpParams { max_rto: SimTime::from_secs(2) }),
        );
        let c1 = sim.add_connection(
            ConnectionSpec::sized(AlgorithmKind::Mptcp, 3_000).path(vec![b0, a0]).path(vec![b1, a1]),
        );
        // The outage engages c0's backup.
        sim.install_fault_plan(
            &FaultPlan::new()
                .addr_remove(SimTime::from_secs(2), c1, 1)
                .addr_add(SimTime::from_secs(6), c1, 1)
                .outage(a0, SimTime::from_secs(3), SimTime::from_secs(9)),
        );
        sim
    };
    let run = |jobs: usize| {
        let mut sim = world();
        sim.set_jobs(jobs);
        sim.run_until(SimTime::from_secs(40));
        (
            sim.det_digest(),
            sim.connection_stats(0).backup_activations,
            sim.connection_stats(1).subflows_joined,
        )
    };
    let (d1, activations, joined) = run(1);
    assert_eq!(activations, 1, "the outage must engage c0's backup");
    assert_eq!(joined, 1, "the ADD_ADDR must rejoin c1's subflow");
    assert_eq!(d1, run(2).0, "jobs=2 diverged from jobs=1");
    let top =
        std::env::var("MPTCP_SHARD_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);
    let top = top.max(2);
    assert_eq!(d1, run(top).0, "jobs={top} diverged from jobs=1");
}

/// A withdrawal closes a subflow of the connection it names, whichever
/// shards that subflow's path crosses. Connection `a` leaves from shard 0
/// and crosses into shard 1, which owns `b`; each is connection 0 of its
/// own shard.
#[test]
fn a_withdrawal_closes_only_the_named_connections_subflow() {
    for jobs in [1, 2] {
        let mut sim = ShardedSimulator::new(29, 2);
        let a0 = sim.add_link(0, LinkSpec::mbps(10.0, ms(10), 25));
        let b0 = sim.add_link(1, LinkSpec::mbps(10.0, ms(10), 25));
        let sized = |path| ConnectionSpec::sized(AlgorithmKind::Mptcp, 2_000).path(path);
        let a = sim.add_connection(sized(vec![a0, b0]));
        let b = sim.add_connection(sized(vec![b0, a0]));
        sim.install_fault_plan(&FaultPlan::new().addr_remove(SimTime::from_secs(1), a, 0));
        sim.set_jobs(jobs);
        sim.run_until(SimTime::from_secs(3));
        let (sa, sb) = (sim.connection_stats(a), sim.connection_stats(b));
        assert!(sa.subflows[0].closed && sa.subflows_closed == 1, "jobs={jobs}: {sa:?}");
        assert!(!sb.subflows[0].closed && sb.subflows_closed == 0, "jobs={jobs}: {sb:?}");
    }
}

/// Two one-subflow connections on each engine. In the sharded world the
/// second lives in shard 1, where its local id is 0.
fn two_connections() -> (Simulator, ShardedSimulator) {
    let spec = |l| ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l]);
    let mut serial = Simulator::new(1);
    let l = serial.add_link(LinkSpec::mbps(10.0, ms(10), 25));
    serial.add_connection(spec(l));
    serial.add_connection(spec(l));
    let mut sharded = ShardedSimulator::new(1, 2);
    for shard in 0..2 {
        let l = sharded.add_link(shard, LinkSpec::mbps(10.0, ms(10), 25));
        sharded.add_connection(spec(l));
    }
    (serial, sharded)
}

/// An address signal naming a connection or a subflow the world does not
/// have is refused when the plan is installed, not when it fires mid-run.
#[test]
#[should_panic(expected = "unknown connection 2")]
fn the_serial_engine_refuses_a_signal_to_an_unknown_connection() {
    two_connections().0.install_fault_plan(&FaultPlan::new().addr_remove(ms(10), 2, 0));
}

#[test]
#[should_panic(expected = "unknown subflow 1 of connection 1")]
fn the_serial_engine_refuses_a_signal_to_an_unknown_subflow() {
    two_connections().0.install_fault_plan(&FaultPlan::new().addr_add(ms(10), 1, 1));
}

#[test]
#[should_panic(expected = "unknown connection 2")]
fn the_sharded_engine_refuses_a_signal_to_an_unknown_connection() {
    two_connections().1.install_fault_plan(&FaultPlan::new().addr_add(ms(10), 2, 0));
}

#[test]
#[should_panic(expected = "unknown subflow 1 of connection 1")]
fn the_sharded_engine_refuses_a_signal_to_an_unknown_subflow() {
    two_connections().1.install_fault_plan(&FaultPlan::new().addr_remove(ms(10), 1, 1));
}
