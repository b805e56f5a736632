//! **§4 FatTree table** — per-host throughput under TP1/TP2/TP3.
//!
//! FatTree with k = 8 (128 hosts, 80 eight-port switches), 100 Mb/s links,
//! 8 random paths for multipath, random-shortest-path (ECMP mimic) for
//! single-path.
//!
//! Paper per-host throughputs (Mb/s):
//!
//! |             | TP1 | TP2  | TP3 |
//! |-------------|----:|-----:|----:|
//! | SINGLE-PATH |  51 |  94  |  60 |
//! | EWTCP       |  92 |  92.5|  99 |
//! | MPTCP       |  95 |  97  |  99 |
//!
//! The nine cells are independent simulations, so they fan out over the
//! parallel runner (`MPTCP_JOBS` pins the worker count; results come back
//! in job order, so the table is byte-identical to a serial run). The
//! aggregate events per wall second lands in `BENCH_sim.json`, beside a
//! queue-only churn of the timer wheel against the reference heap at the
//! largest pending set any cell reached.

use mptcp_bench::datacenter::{run_fattree, DcResult, Routing, Tp};
use mptcp_bench::report::{merge_bench_sim, Record};
use mptcp_bench::runner::run_parallel;
use mptcp_bench::{banner, f1, f2, quick_mode, scaled, Table};
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{queue_churn, QueueBackend, SimPerf, SimTime};

fn main() {
    banner("TAB_FATTREE", "§4 FatTree(k=8) per-host throughput, Mb/s");
    let warmup = scaled(SimTime::from_secs(2));
    let window = scaled(SimTime::from_secs(5));
    let rows: [(&str, Routing, [&str; 3]); 3] = [
        ("SINGLE-PATH", Routing::SinglePath, ["51", "94", "60"]),
        ("EWTCP", Routing::Multipath(AlgorithmKind::Ewtcp, 8), ["92", "92.5", "99"]),
        ("MPTCP", Routing::Multipath(AlgorithmKind::Mptcp, 8), ["95", "97", "99"]),
    ];
    let tps = [Tp::Permutation, Tp::OneToMany, Tp::Sparse];

    // One job per (scheme, traffic pattern).
    let jobs: Vec<(usize, usize)> =
        (0..rows.len()).flat_map(|r| (0..tps.len()).map(move |c| (r, c))).collect();
    let results: Vec<(DcResult, SimPerf)> =
        run_parallel(&jobs, |&(r, c)| run_fattree(8, tps[c], rows[r].1, 11, warmup, window));

    let mut t = Table::new(&[
        "scheme", "TP1 paper", "TP1", "TP2 paper", "TP2", "TP3 paper", "TP3",
    ]);
    for (r, (name, _, paper)) in rows.iter().enumerate() {
        let mut cells = vec![name.to_string()];
        for (c, p) in paper.iter().enumerate() {
            cells.push(p.to_string());
            cells.push(f1(results[r * tps.len() + c].0.mean_host_mbps()));
        }
        t.row(cells);
    }
    t.print();

    let events: u64 = results.iter().map(|(_, p)| p.events_fired).sum();
    let wall: std::time::Duration = results.iter().map(|(_, p)| p.wall).sum();
    let wheel_eps = events as f64 / wall.as_secs_f64();
    println!("\n  paper shape: multipath ≫ single-path on TP1 and TP3;");
    println!("  TP2 is NIC-bound so all schemes are close; MPTCP ≥ EWTCP throughout.");
    println!("\n  end-to-end: wheel {} Mev/s over {events} events", f2(wheel_eps / 1e6));

    // Scheduler-isolated comparison at this experiment's scale: churn the
    // bare queue with the largest pending set any cell actually reached,
    // on the wheel and on the reference heap it replaced.
    let peak = results.iter().map(|(_, p)| p.peak_pending).max().unwrap_or(0).max(1024);
    let ops: u64 = 2_000_000;
    let wheel_q =
        ops as f64 / queue_churn(QueueBackend::TimerWheel, peak as usize, ops).as_secs_f64();
    let heap_q =
        ops as f64 / queue_churn(QueueBackend::BinaryHeap, peak as usize, ops).as_secs_f64();
    println!(
        "  queue only ({peak} pending): wheel {} Mev/s vs heap {} Mev/s ({}x)",
        f2(wheel_q / 1e6),
        f2(heap_q / 1e6),
        f2(wheel_q / heap_q),
    );
    merge_bench_sim(
        "tab_fattree/",
        &[
            // Each cell is one single-threaded simulation (the fan-out is
            // across cells) and `wall` sums per-cell walls, so the
            // aggregate events/sec here is per-core by construction:
            // jobs = 1 and the per-core field equals the aggregate.
            Record::new("tab_fattree/scheduler")
                .field("events", events)
                .field("peak_pending", peak)
                .field("jobs", 1u64)
                .field("wheel_events_per_sec", wheel_eps)
                .field("wheel_events_per_sec_per_core", wheel_eps)
                .field("quick", quick_mode()),
            Record::new("tab_fattree/queue_churn")
                .field("pending", peak)
                .field("ops", ops)
                .field("jobs", 1u64)
                .field("wheel_events_per_sec", wheel_q)
                .field("wheel_events_per_sec_per_core", wheel_q)
                .field("heap_events_per_sec", heap_q)
                .field("heap_events_per_sec_per_core", heap_q)
                .field("speedup", wheel_q / heap_q)
                .field("quick", quick_mode()),
        ],
    );
}
