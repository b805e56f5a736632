//! Chaos smoke — fixed-seed fault schedules on the torus and a dual-homed
//! client, run through the parallel experiment runner.
//!
//! This is the CI gate for the fault subsystem: a handful of known seeds
//! expand into [`FaultPlan::randomized`] schedules (flaps, brownouts,
//! queue squeezes, Gilbert–Elliott bursts), every sized flow must survive
//! them with exactly-once delivery, and the whole batch must produce
//! **bit-identical digests on one runner worker and on four** — the
//! determinism claim of the runner extended to fault execution. Any
//! divergence or a lost flow aborts the process with a nonzero exit.
//!
//! Two scenarios run on the **sharded engine** ([`ShardedSimulator`]) with
//! their intra-sim worker count equal to the batch's, so the same batch
//! comparison also proves the stronger claim: a *single* sharded
//! simulation's merged `DetDigest` is bit-identical at jobs = 1 vs
//! jobs = N (DESIGN.md §3.2f).

use mptcp_bench::runner::run_parallel_on;
use mptcp_bench::{banner, scaled, Table};
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{
    ConnectionSpec, DetDigest, DigestWriter, FaultPlan, LinkSpec, ShardedSimulator, SimPerf,
    SimTime, Simulator, TcpParams,
};
use mptcp_topology::Torus;

/// One scenario's reproducible outcome; compared bit-for-bit across runs.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    label: String,
    events: u64,
    faults: u64,
    delivered: Vec<u64>,
    dups: Vec<u64>,
    reinjected: Vec<u64>,
    finished: Vec<bool>,
    /// Structural [`DetDigest`] fold over every connection's full
    /// [`ConnectionStats`](mptcp_netsim::ConnectionStats) and the run's
    /// `SimPerf` — the whole digest-surface, not just the hand-picked
    /// columns above. New sim-state fields enter this digest automatically
    /// (the `impl_det_digest!` destructuring is exhaustive, and
    /// `xtask/tests/lint_fixtures.rs` requires the impl for every
    /// digest-surface struct).
    state: u64,
}

#[derive(Clone, Copy)]
enum Scenario {
    Torus { seed: u64 },
    DualHomed { seed: u64, pkts: u64 },
    /// The torus, partitioned over 3 shards with the batch's worker count
    /// — the intra-sim jobs=1 vs jobs=N bit-identity gate.
    ShardedTorus { seed: u64 },
    /// The dual-homed download, its two access links on different shards.
    ShardedDualHomed { seed: u64, pkts: u64 },
}

/// Run one scenario; the sharded ones on `workers` threads.
fn run_one(sc: &Scenario, workers: usize) -> Digest {
    let horizon = scaled(SimTime::from_secs(60));
    match *sc {
        Scenario::Torus { seed } => {
            let mut sim = Simulator::new(seed);
            let t = Torus::build(&mut sim, [1000.0; 5], AlgorithmKind::Mptcp);
            let plan = FaultPlan::randomized(seed ^ 0xFA17, &t.links, horizon);
            sim.install_fault_plan(&plan);
            sim.run_until(horizon);
            digest(format!("torus/{seed}"), &sim, &t.flows)
        }
        Scenario::DualHomed { seed, pkts } => {
            let mut sim = Simulator::new(seed);
            let l1 = sim.add_link(LinkSpec::mbps(12.0, SimTime::from_millis(8), 25));
            let l2 = sim.add_link(LinkSpec::mbps(4.0, SimTime::from_millis(30), 25));
            let conn = sim.add_connection(
                ConnectionSpec::sized(AlgorithmKind::Mptcp, pkts)
                    .path(vec![l1])
                    .path(vec![l2])
                    .tcp(TcpParams { max_rto: SimTime::from_secs(4) }),
            );
            let plan = FaultPlan::randomized(seed ^ 0xD0A1, &[l1, l2], horizon);
            sim.install_fault_plan(&plan);
            sim.run_until(horizon);
            digest(format!("dual/{seed}"), &sim, &[conn])
        }
        Scenario::ShardedTorus { seed } => {
            let mut sim = ShardedSimulator::new(seed, 3);
            let t = Torus::build_sharded(&mut sim, [1000.0; 5], AlgorithmKind::Mptcp);
            let plan = FaultPlan::randomized(seed ^ 0xFA17, &t.links, horizon);
            sim.install_fault_plan(&plan);
            sim.set_jobs(workers);
            sim.run_until(horizon);
            let stats: Vec<_> = t.flows.iter().map(|&c| sim.connection_stats(c)).collect();
            digest_parts(format!("storus/{seed}"), stats, sim.perf())
        }
        Scenario::ShardedDualHomed { seed, pkts } => {
            let mut sim = ShardedSimulator::new(seed, 2);
            let l1 = sim.add_link(0, LinkSpec::mbps(12.0, SimTime::from_millis(8), 25));
            let l2 = sim.add_link(1, LinkSpec::mbps(4.0, SimTime::from_millis(30), 25));
            // Both subflows enter on shard 0 (the owner) via uncongested
            // 1 ms ingress stubs, then cross to their access links.
            let stub = LinkSpec::pkts_per_sec(100_000.0, SimTime::from_millis(1), 10_000);
            let s1 = sim.add_link(0, stub);
            let s2 = sim.add_link(0, stub);
            let conn = sim.add_connection(
                ConnectionSpec::sized(AlgorithmKind::Mptcp, pkts)
                    .path(vec![s1, l1])
                    .path(vec![s2, l2])
                    .tcp(TcpParams { max_rto: SimTime::from_secs(4) }),
            );
            let plan = FaultPlan::randomized(seed ^ 0xD0A1, &[l1, l2], horizon);
            sim.install_fault_plan(&plan);
            sim.set_jobs(workers);
            sim.run_until(horizon);
            digest_parts(format!("sdual/{seed}"), vec![sim.connection_stats(conn)], sim.perf())
        }
    }
}

fn digest(label: String, sim: &Simulator, conns: &[usize]) -> Digest {
    // `events_processed() == perf().events_fired`, so serial and sharded
    // digests share one constructor.
    let stats: Vec<_> = conns.iter().map(|&c| sim.connection_stats(c)).collect();
    digest_parts(label, stats, sim.perf())
}

fn digest_parts(label: String, stats: Vec<mptcp_netsim::ConnectionStats>, perf: SimPerf) -> Digest {
    let mut w = DigestWriter::new();
    stats.det_digest(&mut w);
    perf.det_digest(&mut w);
    let state = w.finish();
    Digest {
        label,
        events: perf.events_fired,
        faults: perf.faults_applied,
        delivered: stats.iter().map(|s| s.data_delivered).collect(),
        dups: stats.iter().map(|s| s.dup_data_arrivals).collect(),
        reinjected: stats.iter().map(|s| s.reinjections_sent).collect(),
        finished: stats.iter().map(|s| s.finished_at.is_some()).collect(),
        state,
    }
}

fn run_batch(jobs: &[Scenario], workers: usize) -> Vec<Digest> {
    run_parallel_on(workers, jobs, |sc| run_one(sc, workers))
}

fn main() {
    banner("CHAOS", "fixed-seed fault schedules: survival + runner determinism");
    let mut jobs = Vec::new();
    for seed in [11, 23, 47] {
        jobs.push(Scenario::Torus { seed });
    }
    for seed in [5, 17, 29, 61] {
        jobs.push(Scenario::DualHomed { seed, pkts: 4_000 });
    }
    for seed in [11, 23] {
        jobs.push(Scenario::ShardedTorus { seed });
    }
    for seed in [5, 17] {
        jobs.push(Scenario::ShardedDualHomed { seed, pkts: 4_000 });
    }

    let serial = run_batch(&jobs, 1);
    let parallel = run_batch(&jobs, 4);
    assert_eq!(serial, parallel, "1-worker and 4-worker runs must be bit-identical");

    // Persist the digests so CI can `diff` them against the committed
    // `tests/golden/chaos_digest_quick8.txt`: a change that claims to
    // preserve behaviour must reproduce every history down to the event
    // count (DESIGN.md §6).
    {
        use std::fmt::Write as _;
        let dir = mptcp_bench::report::trace_dir();
        std::fs::create_dir_all(&dir).expect("create trace dir");
        let path = dir.join("chaos_digest.txt");
        let mut body = String::new();
        for d in &serial {
            writeln!(body, "{} events={} faults={} state={:016x}", d.label, d.events, d.faults, d.state)
                .expect("format digest line");
        }
        std::fs::write(&path, body).expect("write chaos digest");
        println!("  digest file for the golden-file comparison: {}", path.display());
    }

    let mut t = Table::new(&["scenario", "events", "faults", "delivered", "reinject", "dups", "done"]);
    let mut all_ok = true;
    for d in &serial {
        let sized = d.label.contains("dual");
        let ok = !sized || d.finished.iter().all(|&f| f);
        all_ok &= ok;
        t.row(vec![
            d.label.clone(),
            d.events.to_string(),
            d.faults.to_string(),
            d.delivered.iter().sum::<u64>().to_string(),
            d.reinjected.iter().sum::<u64>().to_string(),
            d.dups.iter().sum::<u64>().to_string(),
            if sized {
                if ok { "yes".into() } else { "NO".into() }
            } else {
                "bulk".into()
            },
        ]);
    }
    t.print();
    assert!(all_ok, "every sized flow must complete under its fault schedule");
    println!("\n  parallel (4 workers) and serial (1 worker) digests identical over");
    println!("  {} scenarios — fault execution is part of the deterministic history,", jobs.len());
    println!("  and the sharded scenarios (storus/sdual) run on the batch's worker count,");
    println!("  so jobs=1 vs jobs=N on a single sharded sim is gated too.");
}
