//! **Fig. 13 (§4)** — distributions of per-flow throughput and per-link
//! loss rate in the 128-host FatTree under TP1.
//!
//! The paper plots rank distributions: MPTCP allocates throughput more
//! fairly than EWTCP (flatter throughput curve, no starved flows) and
//! balances congestion better (flatter loss-rate curve on core links).
//! We print deciles of both distributions for the three schemes.

use mptcp_bench::datacenter::{run_fattree, DcResult, Routing, Tp};
use mptcp_bench::plot::{deciles, ranked, Chart};
use mptcp_bench::runner::run_parallel;
use mptcp_bench::{banner, scaled, Table};
use mptcp_cc::fluid::fairness::jains_index;
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::SimTime;

fn main() {
    banner("FIG13", "FatTree(k=8) TP1: flow-throughput and link-loss distributions");
    let warmup = scaled(SimTime::from_secs(2));
    let window = scaled(SimTime::from_secs(5));
    // Three independent runs fanned out over the parallel runner.
    let schemes: [(&str, Routing); 3] = [
        ("SinglePath", Routing::SinglePath),
        ("EWTCP", Routing::Multipath(AlgorithmKind::Ewtcp, 8)),
        ("MPTCP", Routing::Multipath(AlgorithmKind::Mptcp, 8)),
    ];
    let runs: Vec<(&str, DcResult)> = schemes
        .iter()
        .map(|&(name, _)| name)
        .zip(run_parallel(&schemes, |&(_, routing)| {
            run_fattree(8, Tp::Permutation, routing, 17, warmup, window).0
        }))
        .collect();

    println!("  flow throughput deciles (Mb/s), worst flow → best flow:");
    let mut t = Table::new(&[
        "scheme", "p0", "p10", "p20", "p30", "p40", "p50", "p60", "p70", "p80", "p90", "p100",
        "Jain",
    ]);
    for (name, res) in &runs {
        let d = deciles(res.per_flow_bps.clone());
        let mut cells = vec![name.to_string()];
        cells.extend(d.iter().map(|x| format!("{:.0}", x / 1e6)));
        cells.push(format!("{:.3}", jains_index(&res.per_flow_bps)));
        t.row(cells);
    }
    t.print();

    println!("\n  core-link loss-rate deciles (%), least → most congested link:");
    let mut t = Table::new(&[
        "scheme", "p0", "p10", "p20", "p30", "p40", "p50", "p60", "p70", "p80", "p90", "p100",
    ]);
    for (name, res) in &runs {
        let d = deciles(res.core_loss.clone());
        let mut cells = vec![name.to_string()];
        cells.extend(d.iter().map(|x| format!("{:.2}", x * 100.0)));
        t.row(cells);
    }
    t.print();

    println!("\n  flow-throughput rank plot (Mb/s vs rank of flow, best → worst):");
    let mut chart = Chart::new(60, 12, "Mb/s");
    for ((_, res), marker) in runs.iter().zip(['s', 'e', 'm']) {
        let series: Vec<f64> =
            ranked(&res.per_flow_bps).iter().map(|x| x / 1e6).collect();
        chart = chart.series(marker, &series);
    }
    chart.print(&[('s', "SinglePath"), ('e', "EWTCP"), ('m', "MPTCP")]);

    println!("\n  core-link loss rank plot (% vs rank of link, most → least congested):");
    let mut chart = Chart::new(60, 10, "% loss");
    for ((_, res), marker) in runs.iter().zip(['s', 'e', 'm']) {
        let series: Vec<f64> = ranked(&res.core_loss).iter().map(|x| x * 100.0).collect();
        chart = chart.series(marker, &series);
    }
    chart.print(&[('s', "SinglePath"), ('e', "EWTCP"), ('m', "MPTCP")]);

    println!("\n  paper shape: MPTCP's throughput curve is flatter (fairer) than");
    println!("  EWTCP's and far above single-path; its loss curve shows fewer");
    println!("  heavily-congested core links.");
}
