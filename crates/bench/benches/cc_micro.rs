//! Micro-benchmarks for the congestion-control hot path.
//!
//! The eq. (1) increase runs on every ACK in a live stack, so its cost
//! matters. One timing loop ([`rate`]) measures, and records in
//! `BENCH_sim.json` under `cc_micro/`:
//!
//! * one ACK through the [`CcDriver`] for every [`AlgorithmKind`]
//!   (`cc_micro/<Kind>_per_ack`, `acks_per_sec`);
//! * the appendix's linear search against the exhaustive subset
//!   enumeration it replaces, at n = 2, 4, 8, 12 paths
//!   (`cc_micro/lia_n<n>`, `linear_per_sec` and `exhaustive_per_sec`) —
//!   the linear form should win decisively as n grows;
//! * one fluid-model equilibrium of MPTCP over two paths
//!   (`cc_micro/fluid_equilibrium`, `solves_per_sec`).
//!
//! Every rate is a `_per_sec` field, so `cargo xtask bench-check` compares
//! it against the committed baseline like any simulator throughput.
//! `MPTCP_QUICK=<n>` divides every iteration count by n.

use std::hint::black_box;

use mptcp_bench::report::{merge_bench_sim, Record};
use mptcp_bench::{quick_factor, quick_mode};
use mptcp_cc::{
    lia_increase_exhaustive, lia_increase_linear, AlgorithmKind, CcDriver, Mptcp,
    SubflowSnapshot,
};

fn subflows(n: usize) -> Vec<SubflowSnapshot> {
    (0..n)
        .map(|i| SubflowSnapshot::new(4.0 + (i as f64) * 7.3, 0.01 + (i as f64) * 0.037))
        .collect()
}

/// Call `f(0)`, …, `f(iters - 1)` and return the calls per wall-clock
/// second. The results are summed into a `black_box` so no call can be
/// optimised away.
fn rate(iters: u64, mut f: impl FnMut(u64) -> f64) -> f64 {
    let mut acc = 0.0_f64;
    let start = mptcp_netsim::wall_clock();
    for i in 0..iters {
        acc += f(i);
    }
    let dt = start.elapsed().as_secs_f64();
    black_box(acc);
    iters as f64 / dt
}

/// One ACK in congestion avoidance through `kind`'s driver. Pure kinds
/// exercise `increase_per_ack` directly; stateful kinds pay their full
/// bookkeeping (CUBIC's epoch arithmetic, OLIA's counters, wVegas's
/// base-RTT filter) per call, which is exactly the per-ACK cost a live
/// sender pays.
fn acks_per_sec(kind: AlgorithmKind, iters: u64) -> f64 {
    let subs = subflows(4);
    match &mut kind.build_cc(4) {
        CcDriver::Pure(cc) => {
            rate(iters, |i| cc.increase_per_ack((i % 4) as usize, black_box(&subs)))
        }
        CcDriver::Stateful(cc) => rate(iters, |i| {
            let now = (i + 1) as f64 * 1e-4;
            cc.on_ack((i % 4) as usize, black_box(&subs), now, false).grow
        }),
    }
}

fn main() {
    let calls = |full: u64| (full / quick_factor().unwrap_or(1)).max(1);
    let quick = quick_mode();
    let mut records = Vec::new();

    let iters = calls(2_000_000);
    println!("per-ACK driver cost ({iters} ACKs each):");
    for kind in AlgorithmKind::all() {
        let acks = acks_per_sec(kind, iters);
        println!("  {kind:?}: {:.1} M acks/s", acks / 1e6);
        records.push(
            Record::new(format!("cc_micro/{kind:?}_per_ack"))
                .field("iters", iters)
                .field("acks_per_sec", acks)
                .field("quick", quick),
        );
    }

    // The enumeration visits 2^(n-1) subsets per call: its call count
    // shrinks by 2^n so that n = 12 stays short.
    println!("eq. (1) increase, linear search vs exhaustive enumeration:");
    for n in [2_usize, 4, 8, 12] {
        let subs = subflows(n);
        let r = |i: u64| (i % n as u64) as usize;
        let linear = rate(iters, |i| lia_increase_linear(r(i), black_box(&subs)));
        let exhaustive =
            rate(calls((1 << 24) >> n), |i| lia_increase_exhaustive(r(i), black_box(&subs)));
        println!(
            "  n={n:2}: linear {:.3} M calls/s, exhaustive {:.3} M calls/s",
            linear / 1e6,
            exhaustive / 1e6
        );
        records.push(
            Record::new(format!("cc_micro/lia_n{n}"))
                .field("linear_per_sec", linear)
                .field("exhaustive_per_sec", exhaustive)
                .field("quick", quick),
        );
    }

    let (loss, rtt) = ([0.04, 0.01], [0.010, 0.100]);
    let solves = rate(calls(160), |_| {
        mptcp_cc::fluid::equilibrium(&Mptcp::new(), black_box(&loss), black_box(&rtt))[0]
    });
    println!("fluid equilibrium (MPTCP, 2 paths): {solves:.1} solves/s");
    records.push(
        Record::new("cc_micro/fluid_equilibrium")
            .field("solves_per_sec", solves)
            .field("quick", quick),
    );

    merge_bench_sim("cc_micro/", &records);
}
