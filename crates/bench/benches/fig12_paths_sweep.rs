//! **Fig. 12 (§4)** — "Multipath needs 8 paths to get good utilization in
//! FatTree": throughput (% of optimal) as a function of paths used, TP1.
//!
//! Paper shape: single-path TCP sits around 50%; MPTCP climbs steeply with
//! path count and reaches ≈90% of optimal by 8 paths.

use mptcp_bench::datacenter::{run_fattree, Routing, Tp};
use mptcp_bench::runner::run_parallel;
use mptcp_bench::{banner, f1, scaled, Table};
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::SimTime;

fn main() {
    banner("FIG12", "FatTree(k=8) TP1: throughput vs number of paths");
    let warmup = scaled(SimTime::from_secs(2));
    let window = scaled(SimTime::from_secs(5));
    // "Optimal" = every host saturates its 100 Mb/s NIC.
    let optimal = 100.0;
    // The whole sweep is independent runs: single-path plus one multipath
    // run per path count, fanned out over the parallel runner.
    let path_counts = [1usize, 2, 3, 4, 6, 8];
    let jobs: Vec<Routing> = std::iter::once(Routing::SinglePath)
        .chain(path_counts.iter().map(|&n| Routing::Multipath(AlgorithmKind::Mptcp, n)))
        .collect();
    let pcts = run_parallel(&jobs, |&routing| {
        let (res, _) = run_fattree(8, Tp::Permutation, routing, 13, warmup, window);
        100.0 * res.mean_host_mbps() / optimal
    });
    let single_pct = pcts[0];
    let mut t = Table::new(&["paths", "TCP (% optimal)", "MPTCP (% optimal)"]);
    for (n, mp_pct) in path_counts.iter().zip(&pcts[1..]) {
        t.row(vec![n.to_string(), f1(single_pct), f1(*mp_pct)]);
    }
    t.print();
    println!("\n  paper shape: MPTCP rises with path count, ≈90% by 8 paths;");
    println!("  single-path TCP stays ≈50% regardless.");
}
