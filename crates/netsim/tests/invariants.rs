//! Property-based invariant tests for the simulator.

use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{CbrSpec, ConnectionSpec, LinkSpec, SimTime, Simulator};
use proptest::prelude::*;

/// A random small scenario: 1–3 links in series per subflow, 1–3 subflows,
/// a competing CBR, random rates/queues/loss.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    n_links: usize,
    n_subflows: usize,
    rate_mbps: f64,
    queue: usize,
    loss: f64,
    algorithm: AlgorithmKind,
    secs: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        0_u64..10_000,
        1_usize..=3,
        1_usize..=3,
        1.0_f64..50.0,
        2_usize..60,
        0.0_f64..0.05,
        prop::sample::select(vec![
            AlgorithmKind::Uncoupled,
            AlgorithmKind::Ewtcp,
            AlgorithmKind::Coupled,
            AlgorithmKind::SemiCoupled,
            AlgorithmKind::Mptcp,
        ]),
        2_u64..8,
    )
        .prop_map(
            |(seed, n_links, n_subflows, rate_mbps, queue, loss, algorithm, secs)| Scenario {
                seed,
                n_links,
                n_subflows,
                rate_mbps,
                queue,
                loss,
                algorithm,
                secs,
            },
        )
}

fn build_and_run(sc: &Scenario) -> (Simulator, usize, Vec<usize>) {
    let mut sim = Simulator::new(sc.seed);
    let mut links = Vec::new();
    let mut spec = ConnectionSpec::bulk(sc.algorithm);
    for s in 0..sc.n_subflows {
        let mut path = Vec::new();
        for l in 0..sc.n_links {
            let id = sim.add_link(
                LinkSpec::mbps(
                    sc.rate_mbps * (1.0 + 0.3 * l as f64),
                    SimTime::from_millis(5 + 7 * (s as u64 + 1)),
                    sc.queue,
                )
                .with_loss(sc.loss),
            );
            links.push(id);
            path.push(id);
        }
        spec = spec.path(path);
    }
    let conn = sim.add_connection(spec);
    // A CBR sharing the first link keeps things contended.
    sim.add_cbr(CbrSpec::constant(vec![links[0]], sc.rate_mbps * 1e6 / 4.0));
    sim.run_until(SimTime::from_secs(sc.secs));
    (sim, conn, links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation per link: offered = transmitted + dropped + queued, so
    /// nothing is created or silently destroyed.
    #[test]
    fn link_packet_conservation(sc in scenario()) {
        let (sim, _conn, links) = build_and_run(&sc);
        for l in links {
            let st = sim.link_stats(l);
            prop_assert!(
                st.transmitted + st.dropped() <= st.offered,
                "link {l}: transmitted {} + dropped {} > offered {}",
                st.transmitted, st.dropped(), st.offered
            );
            // The difference is what is still queued/in service: bounded by
            // queue capacity + 1.
            let in_system = st.offered - st.transmitted - st.dropped();
            prop_assert!(
                in_system <= sim.link_spec(l).queue_pkts as u64 + 1,
                "link {l} holds {in_system} packets"
            );
        }
    }

    /// The receiver never delivers more than the sender sent, and windows
    /// stay at or above the probing floor.
    #[test]
    fn delivery_and_window_sanity(sc in scenario()) {
        let (sim, conn, _links) = build_and_run(&sc);
        let st = sim.connection_stats(conn);
        for (i, sf) in st.subflows.iter().enumerate() {
            prop_assert!(
                sf.delivered_pkts <= sf.sent_pkts + sf.retransmits,
                "subflow {i}: delivered {} > sent {} + retx {}",
                sf.delivered_pkts, sf.sent_pkts, sf.retransmits
            );
            prop_assert!(sf.cwnd >= 1.0 - 1e-9, "subflow {i} cwnd {} below floor", sf.cwnd);
            prop_assert!(sf.cwnd.is_finite());
        }
    }

    /// Determinism: the same scenario and seed produce the exact same
    /// history (event count and delivery counters).
    #[test]
    fn identical_seeds_identical_histories(sc in scenario()) {
        let (sim_a, conn_a, _) = build_and_run(&sc);
        let (sim_b, conn_b, _) = build_and_run(&sc);
        prop_assert_eq!(sim_a.perf().events_fired, sim_b.perf().events_fired);
        prop_assert_eq!(
            sim_a.connection_stats(conn_a).delivered_pkts(),
            sim_b.connection_stats(conn_b).delivered_pkts()
        );
    }

    /// Event accounting: after any run, the perf counters obey their
    /// identities — every scheduled event is fired or still pending,
    /// cancellations are a subset of firings, the pending count never
    /// exceeds its own high-water mark, and the wall/sim clocks advanced.
    #[test]
    fn perf_counters_stay_consistent(sc in scenario()) {
        let (sim, _conn, _links) = build_and_run(&sc);
        let perf = sim.perf();
        prop_assert!(perf.is_consistent(), "inconsistent counters: {perf:?}");
        prop_assert!(perf.events_fired > 0, "a contended run must fire events");
        prop_assert!(perf.peak_pending > 0);
        prop_assert!(perf.sim_elapsed == SimTime::from_secs(sc.secs));
        prop_assert!(perf.wall.as_nanos() > 0, "run_until must accumulate wall time");
        prop_assert!(perf.events_per_wall_sec() > 0.0);
    }

    /// A finite transfer either completes with exactly its size delivered,
    /// or is still in progress with less delivered — never overshoot.
    #[test]
    fn finite_flows_never_overshoot(
        seed in 0_u64..1000,
        pkts in 1_u64..500,
        loss in 0.0_f64..0.1,
    ) {
        let mut sim = Simulator::new(seed);
        let l = sim.add_link(
            LinkSpec::mbps(10.0, SimTime::from_millis(10), 25).with_loss(loss),
        );
        let c = sim.add_connection(
            ConnectionSpec::sized(AlgorithmKind::Mptcp, pkts).path(vec![l]),
        );
        sim.run_until(SimTime::from_secs(30));
        let st = sim.connection_stats(c);
        prop_assert!(st.delivered_pkts() <= pkts);
        if let Some(done) = st.completion_time() {
            prop_assert_eq!(st.delivered_pkts(), pkts);
            prop_assert!(done > SimTime::ZERO);
        }
    }
}
