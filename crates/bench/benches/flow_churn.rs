//! **Flow churn** — allocation-free open/close of short flows at scale.
//!
//! The struct-of-arrays flow arena exists so a simulator that opens and
//! retires flows mid-run stays allocation-free in steady state: a retiring
//! flow's hot subflow window and scoreboard rings are recycled into the
//! next admission instead of round-tripping through the allocator, and
//! each shard has one set of per-call scratch buffers that every flow
//! shares. This bench is the payoff measurement, on a FatTree k = 16
//! (1024 hosts, 8 pod-sharded shards) under the
//! [`ChurnSchedule`](mptcp_workload::ChurnSchedule) stress shape:
//!
//! 1. **Burst**: 110,000 short 2-subflow MPTCP flows arrive inside a
//!    100 ms window — shorter than any flow's retirement grace, so every
//!    burst flow is *resident at once* and the arena's high-water mark
//!    proves ≥ 100k concurrent flows (the quick-mode run scales the count
//!    down and skips that assertion).
//! 2. **Trickle**: long after the burst has drained and retired, a steady
//!    trickle of late flows arrives. Every one must re-tenant a recycled
//!    window (`arena_hot_reuses ≥ trickle flows`) and the merged
//!    `hot_allocs` counter must not move at all across the trickle —
//!    steady-state churn performs **zero** hot-path allocations.
//!
//! `BENCH_sim.json` gets one `flow_churn/k16` record with the end-to-end
//! events/sec, the flow-churn rate (admissions handled per wall-second)
//! and peak RSS, all gated by `cargo xtask bench-check`.

use mptcp_bench::datacenter::dc_link;
use mptcp_bench::report::{host_cores, merge_bench_sim, peak_rss_bytes, Record};
use mptcp_bench::{banner, f1, f2, quick_factor, quick_mode, Table};
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{ConnectionSpec, ShardedSimulator, SimTime};
use mptcp_topology::FatTree;
use mptcp_workload::ChurnSchedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner("FLOW_CHURN", "100k+ concurrent short flows: arena recycling keeps churn allocation-free");
    let quick = quick_mode();
    let f = quick_factor().unwrap_or(1) as usize;

    let sched = ChurnSchedule {
        burst_flows: 110_000 / f,
        burst_window: SimTime::from_millis(100),
        trickle_flows: 2_000 / f.min(4),
        trickle_start: SimTime::from_secs(5),
        trickle_spacing: SimTime::from_micros(100),
        min_pkts: 4,
        max_pkts: 20,
    };

    let seed = 11u64;
    let mut sim = ShardedSimulator::new(seed, 8);
    sim.set_flow_lifecycle(true);
    let ft = FatTree::build_sharded(&mut sim, 16, dc_link());
    let hosts = ft.host_count();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);

    // Deterministic src/dst spread: a coprime stride walks every host;
    // destinations land in other pods so paths cross shards.
    let arrivals = sched.arrivals();
    for (i, a) in arrivals.iter().enumerate() {
        let src = (i * 9973) % hosts;
        let dst = (src + hosts / 2 + (i * 31) % (hosts / 2 - 1) + 1) % hosts;
        let mut spec =
            ConnectionSpec::sized(AlgorithmKind::Mptcp, a.size_pkts).start(a.start);
        for p in ft.random_paths(src, dst, 2, &mut rng) {
            spec = spec.path(p);
        }
        sim.add_connection(spec);
    }
    sim.set_jobs(8);

    // Phase 1: the burst arrives, drains and retires. By `trickle_start`
    // the arena holds a free list the size of the whole burst. Stop one
    // tick short: the first trickle flow starts *at* `trickle_start` and
    // `run_until` is inclusive, so its reuse must not leak into the
    // baseline counters.
    let wall0 = mptcp_netsim::wall_clock();
    sim.run_until(SimTime(sched.trickle_start.as_nanos() - 1));
    let peak_slots = sim.arena_hot_slots();
    let peak_flows = peak_slots / 2; // two subflows per flow
    let allocs_before = sim.perf().hot_allocs;
    let reuses_before = sim.arena_hot_reuses();

    // Phase 2: the trickle re-tenants retired windows. Half a second of
    // settle margin after the last arrival lets stragglers finish (flow
    // service time plus the ~150 ms retirement grace).
    let trickle_span = SimTime(sched.trickle_spacing.as_nanos() * sched.trickle_flows as u64);
    sim.run_until(sched.trickle_start + trickle_span + SimTime::from_millis(500));
    let wall = wall0.elapsed();
    let perf = sim.perf();
    assert!(perf.is_consistent(), "perf counters out of balance: {perf:?}");

    let trickle_allocs = perf.hot_allocs - allocs_before;
    let trickle_reuses = sim.arena_hot_reuses() - reuses_before;
    let flows = arrivals.len();
    assert_eq!(
        trickle_allocs, 0,
        "steady-state churn must be allocation-free: {trickle_allocs} hot allocs \
         across {} trickle flows",
        sched.trickle_flows
    );
    assert!(
        trickle_reuses >= sched.trickle_flows as u64,
        "every trickle flow must recycle a retired window: {trickle_reuses} reuses \
         for {} flows",
        sched.trickle_flows
    );
    if !quick {
        assert!(
            peak_flows >= 100_000,
            "full mode must demonstrate >= 100k concurrent flows, saw {peak_flows}"
        );
    }

    let eps = perf.events_fired as f64 / wall.as_secs_f64();
    let churn_per_sec = flows as f64 / wall.as_secs_f64();
    let rss = peak_rss_bytes();
    let mut t = Table::new(&[
        "flows", "peak conc", "events", "Mev/s", "churn/s", "trickle allocs", "reuses", "peak RSS MiB",
    ]);
    t.row(vec![
        flows.to_string(),
        peak_flows.to_string(),
        perf.events_fired.to_string(),
        f2(eps / 1e6),
        f1(churn_per_sec),
        trickle_allocs.to_string(),
        trickle_reuses.to_string(),
        rss.map_or("-".into(), |b| f1(b as f64 / (1 << 20) as f64)),
    ]);
    t.print();

    merge_bench_sim(
        "flow_churn/",
        &[Record::new("flow_churn/k16")
            .field("flows", flows as u64)
            .field("peak_concurrent_flows", peak_flows as u64)
            .field("jobs", 8u64)
            .field("events", perf.events_fired)
            .field("events_per_sec", eps)
            // Divided by cores actually occupied, not worker threads — see
            // the same convention in `scale_sweep`.
            .field("events_per_sec_per_core", eps / 8.0f64.min(host_cores() as f64))
            .field("flow_churn_per_sec", churn_per_sec)
            .field("trickle_hot_allocs", trickle_allocs)
            .field("arena_hot_reuses", trickle_reuses)
            .field("peak_rss_bytes", rss.unwrap_or(0))
            .field("host_cores", host_cores())
            .field("quick", quick)],
    );
}
