//! Cross-crate integration tests: scaled-down §4 data-center scenarios.
//!
//! The full 128-host FatTree and 125-host BCube runs live in the bench
//! harness; these tests pin the qualitative claims on small instances so
//! they run in CI time.

use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{ConnectionSpec, LinkSpec, QueueBackend, SimTime, Simulator};
use mptcp_topology::{BCube, FatTree};
use mptcp_workload::{random_permutation_pairs, sparse_pairs};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dc_link() -> LinkSpec {
    LinkSpec::mbps(100.0, SimTime::from_micros(10), 100)
}

fn mean_goodput_mbps(sim: &mut Simulator, conns: &[usize], secs: u64) -> f64 {
    sim.run_until(SimTime::from_secs(2));
    let before: Vec<u64> =
        conns.iter().map(|&c| sim.connection_stats(c).delivered_pkts()).collect();
    sim.run_until(SimTime::from_secs(2 + secs));
    let total: f64 = conns
        .iter()
        .zip(before)
        .map(|(&c, b)| (sim.connection_stats(c).delivered_pkts() - b) as f64)
        .sum();
    total * 1500.0 * 8.0 / secs as f64 / conns.len() as f64 / 1e6
}

/// TP1 on FatTree(k=4): MPTCP with all 4 paths clearly beats ECMP
/// single-path (the Fig. 12 / TAB_FATTREE claim, small scale).
#[test]
fn fattree_tp1_multipath_beats_single_path() {
    let run = |multi: bool| -> f64 {
        let mut sim = Simulator::new(3);
        let ft = FatTree::build(&mut sim, 4, dc_link());
        let mut rng = StdRng::seed_from_u64(14);
        let pairs = random_permutation_pairs(ft.host_count(), &mut rng);
        let conns: Vec<usize> = pairs
            .iter()
            .map(|&(s, d)| {
                if multi {
                    let mut spec = ConnectionSpec::bulk(AlgorithmKind::Mptcp);
                    for p in ft.random_paths(s, d, 4, &mut rng) {
                        spec = spec.path(p);
                    }
                    sim.add_connection(spec)
                } else {
                    sim.add_connection(
                        ConnectionSpec::bulk(AlgorithmKind::Uncoupled)
                            .path(ft.ecmp_path(s, d, &mut rng)),
                    )
                }
            })
            .collect();
        mean_goodput_mbps(&mut sim, &conns, 8)
    };
    let single = run(false);
    let multi = run(true);
    assert!(
        multi > 1.15 * single,
        "MPTCP ({multi:.1} Mb/s) should clearly beat ECMP single path ({single:.1} Mb/s)"
    );
    assert!(multi > 55.0, "MPTCP should reach a large share of the 100 Mb/s NIC: {multi:.1}");
}

/// Sparse traffic on BCube: multipath can use all `k+1` interfaces, so it
/// beats single-path by a large factor when the core is idle (TP3 claim).
#[test]
fn bcube_tp3_multipath_uses_all_interfaces() {
    let run = |multi: bool| -> f64 {
        let mut sim = Simulator::new(4);
        let bc = BCube::build(&mut sim, 3, 1, dc_link()); // 9 hosts, 2 ifaces
        let mut rng = StdRng::seed_from_u64(15);
        let pairs = sparse_pairs(bc.host_count(), 0.3, &mut rng);
        let conns: Vec<usize> = pairs
            .iter()
            .map(|&(s, d)| {
                if multi {
                    let mut spec = ConnectionSpec::bulk(AlgorithmKind::Mptcp);
                    for p in bc.path_set(s, d, &mut rng) {
                        spec = spec.path(p);
                    }
                    sim.add_connection(spec)
                } else {
                    sim.add_connection(
                        ConnectionSpec::bulk(AlgorithmKind::Uncoupled)
                            .path(bc.single_path(s, d)),
                    )
                }
            })
            .collect();
        mean_goodput_mbps(&mut sim, &conns, 8)
    };
    let single = run(false);
    let multi = run(true);
    assert!(single < 105.0, "single-path is NIC-bound at 100 Mb/s, got {single:.1}");
    assert!(
        multi > 1.3 * single,
        "2-interface BCube multipath ({multi:.1}) should far exceed single ({single:.1})"
    );
}

/// Fig. 12's dose-response at small scale: more paths, more throughput
/// (monotone up to the path diversity the fabric has).
#[test]
fn fattree_throughput_rises_with_path_count() {
    let run = |paths: usize| -> f64 {
        let mut sim = Simulator::new(5);
        let ft = FatTree::build(&mut sim, 4, dc_link());
        let mut rng = StdRng::seed_from_u64(16);
        let pairs = random_permutation_pairs(ft.host_count(), &mut rng);
        let conns: Vec<usize> = pairs
            .iter()
            .map(|&(s, d)| {
                let mut spec = ConnectionSpec::bulk(AlgorithmKind::Mptcp);
                for p in ft.random_paths(s, d, paths, &mut rng) {
                    spec = spec.path(p);
                }
                sim.add_connection(spec)
            })
            .collect();
        mean_goodput_mbps(&mut sim, &conns, 8)
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four > 1.1 * one,
        "4 paths ({four:.1} Mb/s) should beat 1 path ({one:.1} Mb/s)"
    );
}

/// Whole-simulator differential: the timer wheel and the reference heap
/// drive the same FatTree(k=4) world — 16 hosts, 8-subflow MPTCP, so 128
/// lazy RTO timers parked 200+ ms out under a dense packet stream — to the
/// same history. The run crosses the wheel's 268 ms level-3 slot boundaries
/// at 0.268, 0.537, 0.805 and 1.074 s, where parked timers cascade.
#[test]
fn fattree_history_is_identical_on_wheel_and_heap() {
    let run = |backend: QueueBackend| {
        let mut sim = Simulator::with_backend(6, backend);
        let ft = FatTree::build(&mut sim, 4, dc_link());
        let mut rng = StdRng::seed_from_u64(17);
        let pairs = random_permutation_pairs(ft.host_count(), &mut rng);
        let conns: Vec<usize> = pairs
            .iter()
            .map(|&(s, d)| {
                // k=4 has at most 4 distinct paths; reuse them to reach 8.
                let paths = ft.random_paths(s, d, 8, &mut rng);
                let spec = paths
                    .iter()
                    .cycle()
                    .take(8)
                    .fold(ConnectionSpec::bulk(AlgorithmKind::Mptcp), |spec, p| spec.path(p.clone()));
                sim.add_connection(spec)
            })
            .collect();
        sim.run_until(SimTime::from_millis(1_200));
        let delivered: Vec<u64> =
            conns.iter().map(|&c| sim.connection_stats(c).delivered_pkts()).collect();
        (delivered, sim.perf())
    };
    let (wheel_pkts, wheel) = run(QueueBackend::TimerWheel);
    let (heap_pkts, heap) = run(QueueBackend::BinaryHeap);
    assert!(wheel_pkts.iter().all(|&p| p > 0), "every host delivers: {wheel_pkts:?}");
    assert_eq!(wheel_pkts, heap_pkts, "per-host goodput");
    assert_eq!(wheel.events_scheduled, heap.events_scheduled);
    assert_eq!(wheel.events_fired, heap.events_fired);
    assert_eq!(wheel.events_cancelled, heap.events_cancelled);
    assert_eq!(wheel.peak_pending, heap.peak_pending);
    assert!(wheel.is_consistent() && heap.is_consistent());
    // The wheel moved events down its levels, but never re-walked a slot:
    // at most one move per level per event.
    assert!(wheel.queue_reinserts > 0 && heap.queue_reinserts == 0);
    assert!(wheel.queue_reinserts <= 5 * wheel.events_scheduled);
}
