//! **Scale sweep** — end-to-end simulator throughput vs world size.
//!
//! The hot-path work (timer-wheel queue, bitmap scoreboards, pooled ACK
//! scratch, the struct-of-arrays subflow arena and the sharded parallel
//! engine) is justified by how the simulator behaves as the world grows,
//! not by any single scenario. This bench runs the §4 FatTree MPTCP
//! workload at five rungs — k = 4 (16 hosts) and k = 8 (128 hosts, the
//! `tab_fattree` scale) on the serial engine, then k = 16 (1024 hosts),
//! k = 32 (8192 hosts) and k = 48 (27,648 hosts) on the sharded engine —
//! and records events/sec,
//! events/sec *per core* (per core actually occupied — `jobs` capped at
//! the host's core count), the `jobs` column and the process peak RSS for
//! each rung in `BENCH_sim.json` under `scale_sweep/*`, so time, per-core
//! and memory regressions at scale are all visible to
//! `cargo xtask bench-check`.
//!
//! The k = 16 rung runs twice on the same binary and topology — jobs = 1
//! and jobs = 8 (`scale_sweep/fattree_k16` vs `…_k16_par`) — and the two
//! runs must produce the same merged `DetDigest`: thread count may only
//! change wall time, never the history. Sharded-rung throughput is
//! measured over the warm-up-excluded steady-state window only, so the
//! number is not dominated by connection-setup transients.
//!
//! Simulated durations shrink as k grows so every rung retires a
//! comparable event count (event rate scales roughly linearly with hosts);
//! `MPTCP_QUICK` shrinks them further. Peak RSS is read from
//! `/proc/self/status` (`VmHWM`) and is a process-wide high-water mark:
//! rungs run in ascending size order, so each reading is dominated by the
//! largest world built so far.

use mptcp_bench::datacenter::{run_fattree, run_fattree_sharded, Routing, Tp};
use mptcp_bench::report::{merge_bench_sim, peak_rss_bytes, Record};
use mptcp_bench::{banner, f1, f2, quick_mode, scaled, Table};
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::SimTime;

const MPTCP8: Routing = Routing::Multipath(AlgorithmKind::Mptcp, 8);

fn main() {
    banner("SCALE_SWEEP", "FatTree MPTCP events/sec (total and per core) and peak RSS vs host count");
    let quick = quick_mode();

    let mut t = Table::new(&[
        "k", "hosts", "jobs", "sim s", "events", "Mev/s", "Mev/s/core", "peak RSS MiB", "host Mb/s",
    ]);
    let mut records = Vec::new();
    let mut push = |t: &mut Table,
                    name: String,
                    k: usize,
                    jobs: usize,
                    sim_s: f64,
                    events: u64,
                    eps: f64,
                    peak_pending: u64,
                    mean_mbps: f64| {
        let hosts = k * k * k / 4;
        let rss = peak_rss_bytes();
        // Per-core divides by the cores the run can actually occupy: on a
        // host with fewer cores than worker threads, the threads share
        // cores and dividing by `jobs` would count each core many times.
        let cores_used = (jobs as u64).min(mptcp_bench::report::host_cores());
        let per_core = eps / cores_used as f64;
        t.row(vec![
            k.to_string(),
            hosts.to_string(),
            jobs.to_string(),
            f2(sim_s),
            events.to_string(),
            f2(eps / 1e6),
            f2(per_core / 1e6),
            rss.map_or("-".into(), |b| f1(b as f64 / (1 << 20) as f64)),
            f1(mean_mbps),
        ]);
        records.push(
            Record::new(name)
                .field("hosts", hosts as u64)
                .field("jobs", jobs as u64)
                .field("sim_seconds", sim_s)
                .field("events", events)
                .field("peak_pending", peak_pending)
                .field("events_per_sec", eps)
                .field("events_per_sec_per_core", per_core)
                .field("peak_rss_bytes", rss.unwrap_or(0))
                .field("mean_host_mbps", mean_mbps)
                .field("host_cores", mptcp_bench::report::host_cores())
                .field("quick", quick),
        );
    };

    // Serial rungs: the single-queue engine, whole-run events/sec.
    for (k, warmup, window) in
        [(4, SimTime::from_secs(2), SimTime::from_secs(6)), (8, SimTime::from_secs(1), SimTime::from_secs(2))]
    {
        let (warmup, window) = (scaled(warmup), scaled(window));
        let (res, perf) = run_fattree(k, Tp::Permutation, MPTCP8, 11, warmup, window);
        assert!(perf.is_consistent(), "perf counters out of balance: {perf:?}");
        let sim_s = (warmup + window).as_secs_f64();
        push(
            &mut t,
            format!("scale_sweep/fattree_k{k}"),
            k,
            1,
            sim_s,
            perf.events_fired,
            perf.events_per_wall_sec(),
            perf.peak_pending,
            res.mean_host_mbps(),
        );
    }

    // Sharded rungs: 8 pod-partitioned shards, steady-state (window-only)
    // events/sec. k=16 runs at jobs=1 and jobs=8 on the same topology; the
    // merged digests must match — threads change wall time, not history.
    let (w16, m16) = (scaled(SimTime::from_secs(1)), scaled(SimTime::from_secs(2)));
    let mut digests = [0u64; 2];
    for (i, (jobs, name)) in [(1, "scale_sweep/fattree_k16"), (8, "scale_sweep/fattree_k16_par")]
        .into_iter()
        .enumerate()
    {
        let run = run_fattree_sharded(16, Tp::Permutation, MPTCP8, 11, w16, m16, 8, jobs);
        assert!(run.perf.is_consistent(), "perf counters out of balance: {:?}", run.perf);
        digests[i] = run.digest;
        let eps = run.window_events as f64 / run.window_wall.as_secs_f64();
        push(
            &mut t,
            name.to_string(),
            16,
            jobs,
            (w16 + m16).as_secs_f64(),
            run.window_events,
            eps,
            run.perf.peak_pending,
            run.res.mean_host_mbps(),
        );
    }
    assert_eq!(digests[0], digests[1], "k16 digests diverged between jobs=1 and jobs=8");

    // The top rungs keep shrinking the simulated horizon: event rate grows
    // roughly linearly with hosts, so k=48 covers ~27k hosts in tens of
    // milliseconds of simulated time without dwarfing the smaller rungs.
    for (k, warmup, window) in [
        (32, SimTime::from_millis(100), SimTime::from_millis(150)),
        (48, SimTime::from_millis(50), SimTime::from_millis(100)),
    ] {
        let (w, m) = (scaled(warmup), scaled(window));
        let run = run_fattree_sharded(k, Tp::Permutation, MPTCP8, 11, w, m, 8, 8);
        assert!(run.perf.is_consistent(), "perf counters out of balance: {:?}", run.perf);
        let eps = run.window_events as f64 / run.window_wall.as_secs_f64();
        push(
            &mut t,
            format!("scale_sweep/fattree_k{k}"),
            k,
            8,
            (w + m).as_secs_f64(),
            run.window_events,
            eps,
            run.perf.peak_pending,
            run.res.mean_host_mbps(),
        );
    }

    t.print();
    merge_bench_sim("scale_sweep/", &records);
}
