//! Chaos tests: randomized fault schedules over dual-homed topologies.
//!
//! Each case expands a seed into a [`FaultPlan`] (outages, brownouts,
//! queue squeezes, Gilbert–Elliott bursts — all ending by 80% of the
//! horizon) and runs a sized MPTCP flow through it. The properties are
//! the robustness contract of the fault subsystem:
//!
//! * **completion** — every sized flow finishes despite the faults;
//! * **exactly-once** — the data stream is delivered and acknowledged
//!   once per packet, with duplicates (the price of reinjection) counted
//!   separately and bounded by the reinjections actually sent;
//! * **conservation** — per-link packet accounting still balances, with
//!   down-drops tracked separately from queue and random drops;
//! * **determinism** — same seeds, bit-identical history.
//!
//! The default case count is modest so the suite stays fast; CI's nightly
//! chaos job raises it via `MPTCP_CHAOS_CASES`.

use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{
    ConnectionSpec, FaultAction, FaultPlan, LinkSpec, SimTime, Simulator, TcpParams,
};
use proptest::prelude::*;

fn chaos_cases() -> u32 {
    std::env::var("MPTCP_CHAOS_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

/// Horizon for every chaos run. `FaultPlan::randomized` confines faults to
/// the first 80%, leaving a fault-free tail to finish in.
const HORIZON: SimTime = SimTime::from_secs(60);

#[derive(Debug, Clone)]
struct Chaos {
    sim_seed: u64,
    fault_seed: u64,
    pkts: u64,
    rate_mbps: f64,
    queue: usize,
}

fn chaos() -> impl Strategy<Value = Chaos> {
    (0_u64..10_000, 0_u64..10_000, 50_u64..400, 6.0_f64..20.0, 8_usize..40).prop_map(
        |(sim_seed, fault_seed, pkts, rate_mbps, queue)| Chaos {
            sim_seed,
            fault_seed,
            pkts,
            rate_mbps,
            queue,
        },
    )
}

/// Dual-homed client: two disjoint single-link paths, one sized MPTCP flow
/// striped over both, a randomized fault plan over both links.
fn run_chaos(c: &Chaos) -> (Simulator, usize, Vec<usize>, FaultPlan) {
    let mut sim = Simulator::new(c.sim_seed);
    let l1 = sim.add_link(LinkSpec::mbps(c.rate_mbps, SimTime::from_millis(8), c.queue));
    let l2 = sim.add_link(LinkSpec::mbps(c.rate_mbps * 0.4, SimTime::from_millis(30), c.queue));
    let conn = sim.add_connection(
        ConnectionSpec::sized(AlgorithmKind::Mptcp, c.pkts)
            .path(vec![l1])
            .path(vec![l2])
            // Cap RTO backoff so recovery after a long blackout fits well
            // inside the fault-free tail of the horizon.
            .tcp(TcpParams { max_rto: SimTime::from_secs(4) }),
    );
    let plan = FaultPlan::randomized(c.fault_seed, &[l1, l2], HORIZON);
    sim.install_fault_plan(&plan);
    sim.run_until(HORIZON);
    (sim, conn, vec![l1, l2], plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    /// Every sized flow completes, exactly once per data packet.
    #[test]
    fn sized_flows_survive_random_faults(c in chaos()) {
        let (sim, conn, _links, plan) = run_chaos(&c);
        let st = sim.connection_stats(conn);
        prop_assert!(
            st.finished_at.is_some(),
            "flow of {} pkts did not finish under plan of {} actions: \
             delivered {} acked {} pending reinjects {}",
            c.pkts, plan.len(), st.data_delivered, st.data_acked, st.reinject_pending
        );
        prop_assert_eq!(st.data_sent, c.pkts, "every packet assigned a dsn exactly once");
        prop_assert_eq!(st.data_delivered, c.pkts, "exactly-once delivery");
        prop_assert_eq!(st.data_acked, c.pkts, "exactly-once data ack");
        prop_assert!(
            st.dup_data_arrivals <= st.reinjections_sent,
            "dups ({}) can only come from reinjected copies ({})",
            st.dup_data_arrivals, st.reinjections_sent
        );
        prop_assert_eq!(st.reinject_pending, 0u64, "no stranded data after completion");
    }

    /// Per-link conservation still balances when links flap, shrink their
    /// queues and turn loss on and off mid-flight.
    #[test]
    fn link_conservation_holds_under_faults(c in chaos()) {
        let (sim, _conn, links, _plan) = run_chaos(&c);
        for l in links {
            let st = sim.link_stats(l);
            prop_assert!(
                st.transmitted + st.dropped() <= st.offered,
                "link {l}: transmitted {} + dropped {} > offered {}",
                st.transmitted, st.dropped(), st.offered
            );
            let in_system = st.offered - st.transmitted - st.dropped();
            prop_assert!(
                in_system <= sim.link_spec(l).queue_pkts as u64 + 1,
                "link {l} holds {in_system} packets"
            );
        }
        let perf = sim.perf();
        prop_assert!(perf.is_consistent(), "inconsistent perf counters: {perf:?}");
        prop_assert!(perf.quiesced_at.is_none(), "a live world must never quiesce");
    }

    /// Fault execution is part of the deterministic event history: the
    /// same seeds reproduce the exact same run, faults and all.
    #[test]
    fn chaos_runs_are_reproducible(c in chaos()) {
        let (sim_a, conn_a, _, plan_a) = run_chaos(&c);
        let (sim_b, conn_b, _, plan_b) = run_chaos(&c);
        prop_assert_eq!(plan_a.actions(), plan_b.actions());
        prop_assert_eq!(sim_a.events_processed(), sim_b.events_processed());
        prop_assert_eq!(sim_a.perf().faults_applied, plan_a.len() as u64);
        let (a, b) = (sim_a.connection_stats(conn_a), sim_b.connection_stats(conn_b));
        prop_assert_eq!(a.data_delivered, b.data_delivered);
        prop_assert_eq!(a.dup_data_arrivals, b.dup_data_arrivals);
        prop_assert_eq!(a.reinjections_sent, b.reinjections_sent);
        prop_assert_eq!(a.finished_at, b.finished_at);
    }
}

/// Regression: the runtime loss setter used to assert the half-open range
/// `[0, 1)`, rejecting `p = 1.0` — which is exactly what a blackout
/// scenario wants for total loss on an otherwise-up link.
#[test]
fn total_loss_is_settable_at_runtime() {
    let mut sim = Simulator::new(1);
    let l = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(5), 10));
    let total_loss = FaultAction::SetLoss { link: l, p: 1.0 };
    sim.install_fault_plan(&FaultPlan::new().at(SimTime::ZERO, total_loss));
    let conn = sim.add_connection(ConnectionSpec::sized(AlgorithmKind::Mptcp, 50).path(vec![l]));
    sim.run_until(SimTime::from_secs(2));
    let st = sim.link_stats(l);
    assert!(st.dropped_random > 0, "every offered packet is a random drop");
    assert_eq!(st.transmitted, 0, "nothing gets through at p = 1");
    assert_eq!(sim.connection_stats(conn).data_delivered, 0);
}

/// A permanently dead path strands a single-homed flow; the watchdog
/// notices that deliveries stopped and ends the run early instead of
/// grinding RTO probes to the horizon.
#[test]
fn watchdog_flags_a_stalled_world() {
    let mut sim = Simulator::new(7);
    let l = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 25));
    let conn = sim.add_connection(ConnectionSpec::sized(AlgorithmKind::Mptcp, 5_000).path(vec![l]));
    // The link dies at 2 s and never comes back.
    sim.install_fault_plan(&FaultPlan::new().at(SimTime::from_secs(2), FaultAction::Down { link: l }));
    sim.set_stall_watchdog(Some(SimTime::from_secs(5)));
    sim.run_until(SimTime::from_secs(120));
    let perf = sim.perf();
    let stalled = perf.stalled_at.expect("watchdog must trip");
    assert!(stalled >= SimTime::from_secs(7), "no trip before threshold elapses: {stalled:?}");
    assert!(stalled < SimTime::from_secs(120), "run ended early");
    assert_eq!(perf.sim_elapsed, stalled, "clock stops at the stall");
    assert!(sim.connection_stats(conn).finished_at.is_none());
}

/// The watchdog stays quiet on a healthy run and on one that merely
/// suffers (and survives) a long outage shorter than the threshold.
#[test]
fn watchdog_stays_quiet_when_progress_continues() {
    let mut sim = Simulator::new(8);
    let l1 = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 25));
    let l2 = sim.add_link(LinkSpec::mbps(4.0, SimTime::from_millis(25), 25));
    let conn = sim.add_connection(
        ConnectionSpec::sized(AlgorithmKind::Mptcp, 10_000).path(vec![l1]).path(vec![l2]),
    );
    // l1 blacks out for 10 s mid-transfer; l2 keeps delivering throughout.
    sim.install_fault_plan(
        &FaultPlan::new().outage(l1, SimTime::from_secs(3), SimTime::from_secs(13)),
    );
    sim.set_stall_watchdog(Some(SimTime::from_secs(5)));
    sim.run_until(SimTime::from_secs(120));
    let perf = sim.perf();
    assert_eq!(perf.stalled_at, None, "deliveries on l2 keep resetting the watchdog");
    assert!(sim.connection_stats(conn).finished_at.is_some(), "transfer completes");
}
