//! Per-layer metrics of one traced run: counts and span times taken
//! around the benchmark's own calls, and the shares computed from them.
//!
//! A share is a probe's unit cost × a count from the run ÷ the host time
//! the run had (wall × threads). It says what the layer would cost at the
//! probe's price, not what it did cost in place; what the shares leave
//! over is `sim.unattributed_share`, which tracing inside the library has
//! to explain.

use crate::probes::Probes;
use crate::stats::Quartiles;
use crate::trace::Tracer;
use crate::world::Engine;
use crate::{Rep, Traffic};
use mptcp_bench::datacenter::dc_link;

fn probe(probes: &Probes, name: &str) -> f64 {
    probes.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
}

/// The event-queue probe whose resident size is nearest (in ratio) to the
/// run's pending events per queue.
fn event_probe(pending_per_queue: f64) -> &'static str {
    const SIZES: [(f64, &str); 4] = [
        (256.0, "event.wheel_ns_per_op_p256"),
        (4096.0, "event.wheel_ns_per_op_p4k"),
        (32768.0, "event.wheel_ns_per_op_p32k"),
        (262144.0, "event.wheel_ns_per_op_p256k"),
    ];
    let distance = |size: f64| (pending_per_queue.max(1.0) / size).ln().abs();
    SIZES
        .into_iter()
        .min_by(|a, b| distance(a.0).total_cmp(&distance(b.0)))
        .map_or(SIZES[0].1, |(_, name)| name)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics of the traced repetition `traced`, with `reference` the
/// untraced repetition of the same workload in the same process.
pub fn of_run(
    engine: Engine,
    traffic: Traffic,
    traced: &Rep,
    reference: &Rep,
    tr: &Tracer,
    probes: &Probes,
) -> Vec<(&'static str, f64)> {
    let mut out = vec![
        ("trace.wall_s", traced.wall_s),
        ("trace.overhead_share", traced.cpu_s / reference.cpu_s - 1.0),
        ("topology.build_s", tr.total_secs("topology.build")),
        ("topology.paths_s", tr.total_secs("topology.paths")),
        ("arena.add_conn_s", tr.total_secs("arena.add_connections")),
    ];

    if let Some(w) = &traced.window {
        let (jobs, shards) = match engine {
            Engine::Serial => (1, 1),
            Engine::Sharded { shards, jobs } => (jobs, shards),
        };
        // Host seconds the run had: every worker thread for the whole wall.
        let cpu_ns = w.wall_s * jobs as f64 * 1e9;
        let acks = w.tcp.subflow_delivered as f64;
        let event = probe(probes, event_probe(w.peak_pending as f64 / shards as f64));
        let cc = traffic.cc_paths.map_or(0.0, |n| match n {
            ..=2 => probe(probes, "cc.lia_ns_per_ack_n2"),
            3..=4 => probe(probes, "cc.lia_ns_per_ack_n4"),
            _ => probe(probes, "cc.lia_ns_per_ack_n8"),
        });
        let scoreboard = probe(
            probes,
            if traffic.wide_windows { "scoreboard.ns_per_op_w512" } else { "scoreboard.ns_per_op_w64" },
        );
        let epochs = match engine {
            Engine::Serial => 0.0,
            Engine::Sharded { .. } => w.sim_s * 1e9 / dc_link().delay.as_nanos() as f64,
        };
        let idle_epoch =
            probe(probes, if jobs > 1 { "shard.idle_epoch_ns_j2" } else { "shard.idle_epoch_ns_j1" });
        let shares = [
            ("event.share", w.events as f64 * event / cpu_ns),
            ("cc.share", acks * cc / cpu_ns),
            ("scoreboard.share", acks * scoreboard / cpu_ns),
            ("link.share", w.link_offered as f64 * probe(probes, "link.ns_per_pkt_hop") / cpu_ns),
            // Barriers hold every thread, so an epoch's cost is wall, not CPU.
            ("shard.share", epochs * idle_epoch / (w.wall_s * 1e9)),
        ];
        let attributed: f64 = shares.iter().map(|s| s.1).sum();
        out.extend(shares);
        let slices = Quartiles::of(if w.slice_ms.is_empty() { &[0.0] } else { &w.slice_ms });
        let slice_max = w.slice_ms.iter().copied().fold(0.0, f64::max);
        let attempts = (w.tcp.sent + w.tcp.retransmits) as f64;
        out.extend([
            ("sim.unattributed_share", 1.0 - attributed),
            ("sim.events", w.events as f64),
            ("sim.events_cancelled", w.events_cancelled as f64),
            ("sim.peak_pending", w.peak_pending as f64),
            ("sim.ns_per_event", ratio(w.wall_s * 1e9, w.events as f64)),
            ("sim.events_per_pkt", ratio(w.events as f64, w.pkts() as f64)),
            ("sim.slice_ms_p50", slices.median),
            ("sim.slice_ms_max", slice_max),
            ("sim.slice_max_over_p50", ratio(slice_max, slices.median)),
            ("tcp.retransmits", w.tcp.retransmits as f64),
            ("tcp.timeouts", w.tcp.timeouts as f64),
            ("tcp.fast_recoveries", w.tcp.fast_recoveries as f64),
            ("tcp.retx_share", ratio(w.tcp.retransmits as f64, attempts)),
            ("link.offered", w.link_offered as f64),
            ("link.dropped", w.link_dropped as f64),
            ("link.drop_share", ratio(w.link_dropped as f64, w.link_offered as f64)),
            ("shard.epochs", epochs),
            ("shard.events_per_epoch", ratio(w.events as f64, epochs)),
        ]);
    }

    if let Some(a) = &traced.arena {
        out.extend([
            ("arena.hot_allocs", a.hot_allocs as f64),
            ("arena.trickle_hot_allocs", a.trickle_hot_allocs as f64),
            ("arena.hot_reuses", a.hot_reuses as f64),
            ("arena.peak_hot_slots", a.peak_hot_slots as f64),
        ]);
    }

    if let Some(p) = &traced.proto {
        let polls_empty = ratio(p.polls_empty as f64, p.polls as f64);
        out.extend([
            ("proto.endpoint.poll_s", p.poll.as_secs_f64()),
            ("proto.endpoint.on_segment_s", p.on_segment.as_secs_f64()),
            ("proto.endpoint.write_s", p.write.as_secs_f64()),
            ("proto.endpoint.read_s", p.read.as_secs_f64()),
            ("proto.wire.send_s", p.wire_send.as_secs_f64()),
            ("proto.wire.recv_s", p.wire_recv.as_secs_f64()),
            ("proto.unattributed_share", 1.0 - p.attributed().as_secs_f64() / traced.wall_s),
            ("proto.ticks", p.ticks as f64),
            ("proto.segments", p.segments as f64),
            // Against the untraced wall: the per-call clocks of the traced
            // pass would otherwise count as segment cost.
            ("proto.ns_per_segment", ratio(reference.wall_s * 1e9, p.segments as f64)),
            ("proto.polls_empty_share", polls_empty),
            ("proto.retransmits", p.retransmits as f64),
            ("proto.wire.dropped", p.wire_dropped as f64),
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_event_probe_follows_the_queue_size() {
        assert_eq!(event_probe(245.0), "event.wheel_ns_per_op_p256");
        assert_eq!(event_probe(3_800.0), "event.wheel_ns_per_op_p4k");
        assert_eq!(event_probe(31_000.0 / 8.0), "event.wheel_ns_per_op_p4k");
        assert_eq!(event_probe(241_000.0 / 8.0), "event.wheel_ns_per_op_p32k");
        assert_eq!(event_probe(660_000.0), "event.wheel_ns_per_op_p256k");
        assert_eq!(event_probe(0.0), "event.wheel_ns_per_op_p256");
    }
}
