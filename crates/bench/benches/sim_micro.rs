//! Micro-benchmarks for the packet-level simulator's hot path.
//!
//! The paper's simulator is described as "high-speed"; this bench tracks
//! event throughput so regressions in the hot path (event queue, link
//! service, ACK processing) stay visible. The results land in
//! `BENCH_sim.json`:
//!
//! * `queue_churn` isolates the scheduler itself (pop + re-push with a
//!   large resident event set) and times the timer wheel against the
//!   reference binary heap, where the wheel's O(1) beats the heap's
//!   O(log n) directly;
//! * `scoreboard_churn` does the same for the bitmap scoreboard against
//!   its B-tree reference;
//! * `two_tcps` / `mptcp4` are end-to-end simulations on the wheel, where
//!   per-event TCP processing dilutes the queue's share of the wall time.

use mptcp_bench::report::{merge_bench_sim, read_bench_field, Record};
use mptcp_bench::{banner, f2, quick_mode, Table};
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{
    queue_churn, scoreboard_churn, ConnectionSpec, LinkSpec, ProbeSpec, QueueBackend,
    ScoreboardKind, SimPerf, SimTime, Simulator,
};

const WHEEL: QueueBackend = QueueBackend::TimerWheel;
const HEAP: QueueBackend = QueueBackend::BinaryHeap;

/// One bottleneck, two competing TCPs, one simulated second.
fn run_duel() -> SimPerf {
    let mut sim = Simulator::new(1);
    let l = sim.add_link(LinkSpec::mbps(100.0, SimTime::from_millis(5), 100));
    sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![l]));
    sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![l]));
    sim.run_until(SimTime::from_secs(1));
    sim.perf()
}

/// A 4-subflow MPTCP connection across four lossy links, one simulated
/// second — exercises the coupled-increase path. `probe` enables a 1 ms
/// telemetry probe, the worst realistic sampling rate. Returns perf plus a
/// packet-history fingerprint for the probe's neutrality assertion.
fn run_multipath(probe: bool) -> (SimPerf, Vec<(u64, u64, u64, u64)>) {
    let mut sim = Simulator::new(2);
    let mut spec = ConnectionSpec::bulk(AlgorithmKind::Mptcp);
    for i in 0..4 {
        let l = sim.add_link(
            LinkSpec::mbps(50.0, SimTime::from_millis(5 + 10 * i), 50).with_loss(0.001),
        );
        spec = spec.path(vec![l]);
    }
    let conn = sim.add_connection(spec);
    if probe {
        sim.enable_probe(ProbeSpec::every(SimTime::from_millis(1)));
    }
    sim.run_until(SimTime::from_secs(1));
    let fp = sim
        .connection_stats(conn)
        .subflows
        .iter()
        .map(|s| (s.delivered_pkts, s.retransmits, s.timeouts, s.cwnd.to_bits()))
        .collect();
    (sim.perf(), fp)
}

/// Best (highest events/wall-s) of `reps` runs — minimum wall time is the
/// standard low-noise estimator for micro-benchmarks.
fn best_eps(reps: usize, run: impl Fn() -> SimPerf) -> (SimPerf, f64) {
    let mut best: Option<(SimPerf, f64)> = None;
    for _ in 0..reps {
        let perf = run();
        assert!(perf.is_consistent(), "perf counters out of balance: {perf:?}");
        let eps = perf.events_per_wall_sec();
        if best.as_ref().is_none_or(|&(_, b)| eps > b) {
            best = Some((perf, eps));
        }
    }
    best.expect("reps >= 1")
}

fn main() {
    banner("SIM_MICRO", "simulator hot-path: timer wheel vs binary heap");
    let quick = quick_mode();
    let reps = if quick { 3 } else { 10 };
    let mut records = Vec::new();
    let mut t = Table::new(&["scenario", "events", "wheel Mev/s", "heap Mev/s", "speedup"]);

    // Scheduler-only churn: a large resident event set is where the heap's
    // O(log n) hurts most; sized near the peak_pending of the big §4 runs.
    let pending = 1 << 16;
    let ops: u64 = if quick { 400_000 } else { 4_000_000 };
    let mut wheel_best = f64::INFINITY;
    let mut heap_best = f64::INFINITY;
    for _ in 0..reps {
        wheel_best = wheel_best.min(queue_churn(WHEEL, pending, ops).as_secs_f64());
        heap_best = heap_best.min(queue_churn(HEAP, pending, ops).as_secs_f64());
    }
    let wheel_eps = ops as f64 / wheel_best;
    let heap_eps = ops as f64 / heap_best;
    t.row(vec![
        format!("queue_churn({pending} pending)"),
        ops.to_string(),
        f2(wheel_eps / 1e6),
        f2(heap_eps / 1e6),
        format!("{:.2}x", wheel_eps / heap_eps),
    ]);
    records.push(
        Record::new("sim_micro/queue_churn")
            .field("pending", pending as u64)
            .field("ops", ops)
            .field("wheel_events_per_sec", wheel_eps)
            .field("heap_events_per_sec", heap_eps)
            .field("speedup", wheel_eps / heap_eps)
            .field("quick", quick),
    );

    // Small-pending crossover: the wheel pays a constant per-op cost
    // (hash into a slot, find the lowest occupied level, occasionally
    // cascade) that the heap's O(log n) on a cache-hot array undercuts
    // while the resident set is very small. Sweep the resident size to
    // pin where the lines cross (between 16 and 92 events), and record
    // the row at pending = 92 — `two_tcps`' measured peak_pending, the
    // smallest any workload here runs at — so a wheel change that pushes
    // the crossover back above it is gated (see DESIGN.md §3.2,
    // "Scheduler performance", small-pending crossover).
    let sweep_ops: u64 = if quick { 200_000 } else { 2_000_000 };
    let mut small_row = None;
    for pending in [16usize, 92, 256, 1024, 4096] {
        let (mut w, mut h) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps.min(5) {
            w = w.min(queue_churn(WHEEL, pending, sweep_ops).as_secs_f64());
            h = h.min(queue_churn(HEAP, pending, sweep_ops).as_secs_f64());
        }
        let (weps, heps) = (sweep_ops as f64 / w, sweep_ops as f64 / h);
        t.row(vec![
            format!("queue_churn({pending} pending)"),
            sweep_ops.to_string(),
            f2(weps / 1e6),
            f2(heps / 1e6),
            format!("{:.2}x", weps / heps),
        ]);
        if pending == 92 {
            small_row = Some((weps, heps));
        }
    }
    let (weps, heps) = small_row.expect("sweep includes pending=92");
    records.push(
        Record::new("sim_micro/queue_churn_small")
            .field("pending", 92u64)
            .field("ops", sweep_ops)
            .field("wheel_events_per_sec", weps)
            .field("heap_events_per_sec", heps)
            .field("speedup", weps / heps)
            .field("quick", quick),
    );

    // Scoreboard-only churn: the structure the per-ACK path spends its
    // time in, isolated from the event loop — the rotating bitmap vs the
    // BTreeSet reference it replaced, driven through the identical
    // synthetic SACK/loss/retransmit cycle (see
    // `mptcp_netsim::scoreboard_churn`).
    let sb_window = 512u64;
    let sb_ops: u64 = if quick { 400_000 } else { 4_000_000 };
    let mut bitmap_best = f64::INFINITY;
    let mut btree_best = f64::INFINITY;
    for _ in 0..reps {
        bitmap_best = bitmap_best
            .min(scoreboard_churn(ScoreboardKind::Bitmap, sb_window, sb_ops).as_secs_f64());
        btree_best = btree_best
            .min(scoreboard_churn(ScoreboardKind::BTree, sb_window, sb_ops).as_secs_f64());
    }
    let bitmap_ops = sb_ops as f64 / bitmap_best;
    let btree_ops = sb_ops as f64 / btree_best;
    println!(
        "  scoreboard churn (window {sb_window}): bitmap {} Mop/s vs btree {} Mop/s ({}x)",
        f2(bitmap_ops / 1e6),
        f2(btree_ops / 1e6),
        f2(bitmap_ops / btree_ops),
    );
    records.push(
        Record::new("sim_micro/scoreboard_churn")
            .field("window", sb_window)
            .field("ops", sb_ops)
            .field("bitmap_ops_per_sec", bitmap_ops)
            .field("btree_ops_per_sec", btree_ops)
            .field("speedup", bitmap_ops / btree_ops)
            .field("quick", quick),
    );

    // End-to-end scenarios.
    for (name, (wp, weps)) in [
        ("two_tcps", best_eps(reps, run_duel)),
        ("mptcp4", best_eps(reps, || run_multipath(false).0)),
    ] {
        t.row(vec![name.into(), wp.events_fired.to_string(), f2(weps / 1e6), "-".into(), "-".into()]);
        records.push(
            Record::new(format!("sim_micro/{name}"))
                .field("events", wp.events_fired)
                .field("peak_pending", wp.peak_pending)
                .field("wheel_events_per_sec", weps)
                .field("quick", quick),
        );
    }

    // --- telemetry probe guard ---------------------------------------
    // The probe subsystem must (a) never perturb the simulated packet
    // history and (b) cost nothing on the hot path while disabled. (a) is
    // asserted unconditionally: probed and unprobed runs must produce the
    // identical per-subflow history. For (b), the disabled run above
    // (`mptcp4`) is compared against the baseline checked into
    // BENCH_sim.json; wall-clock comparisons across machines are noise, so
    // the hard <2% assertion only arms under MPTCP_PERF_GUARD=1 (set it
    // when re-validating on the machine that recorded the baseline).
    let (plain_perf, plain_fp) = run_multipath(false);
    let probed_reps = if quick { 3 } else { 5 };
    let mut probed_best = f64::INFINITY;
    let mut probed_fp = Vec::new();
    for _ in 0..probed_reps {
        let (perf, fp) = run_multipath(true);
        probed_best = probed_best.min(perf.wall.as_secs_f64());
        probed_fp = fp;
    }
    assert_eq!(
        plain_fp, probed_fp,
        "probe guard: telemetry sampling perturbed the packet history"
    );
    let (disabled_perf, disabled_eps) = best_eps(reps, || run_multipath(false).0);
    assert_eq!(plain_perf.events_fired, disabled_perf.events_fired);
    let probed_eps = disabled_perf.events_fired as f64 / probed_best;
    let overhead = disabled_eps / probed_eps - 1.0;
    println!(
        "  probe guard: history identical; probing at 1 ms costs {:.1}% \
         ({:.2} vs {:.2} Mev/s disabled)",
        overhead * 100.0,
        probed_eps / 1e6,
        disabled_eps / 1e6,
    );
    let baseline = read_bench_field("sim_micro/mptcp4", "wheel_events_per_sec");
    if let Some(base) = baseline {
        let regression = 1.0 - disabled_eps / base;
        println!(
            "  probe guard: probes-disabled run at {:.1}% of the recorded baseline",
            100.0 * disabled_eps / base
        );
        if std::env::var_os("MPTCP_PERF_GUARD").is_some() {
            assert!(
                regression < 0.02,
                "probes-disabled hot path regressed {:.1}% vs BENCH_sim.json \
                 (baseline {base:.0} ev/s, now {disabled_eps:.0} ev/s)",
                regression * 100.0
            );
        }
    }
    records.push(
        Record::new("sim_micro/probe_guard")
            .field("probe_interval_ms", 1u64)
            .field("disabled_events_per_sec", disabled_eps)
            .field("probed_events_per_sec", probed_eps)
            .field("probe_overhead", overhead)
            .field("identical_history", true)
            .field("quick", quick),
    );

    t.print();
    println!();
    merge_bench_sim("sim_micro/", &records);
}
