//! Per-layer probes: each times one layer's public entry point alone, at
//! an operating point the workloads reach.
//!
//! A probe's number is a unit cost. The `*.share` metrics multiply it by a
//! count taken from a workload run; they are computed, not measured in
//! place, and the traced record says so.

use crate::simload::{Churn, FatTreeBulk};
use crate::trace::Tracer;
use crate::world::{Engine, World};
use crate::Workload;
use mptcp_bench::datacenter::dc_link;
use mptcp_cc::{AlgorithmKind, CcDriver, SubflowSnapshot};
use mptcp_netsim::{
    queue_churn, scoreboard_churn, CbrSpec, ConnectionSpec, LinkSpec, QueueBackend,
    ScoreboardKind, SimTime, Simulator,
};
use mptcp_proto::{MptcpOption, SegFlags, Segment};
use mptcp_workload::random_permutation_pairs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Probe results by metric name.
pub type Probes = Vec<(&'static str, f64)>;

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Pop-and-push cost of the event queue with `pending` resident events.
/// Two million operations move simulated time across several of the
/// wheel's 268 ms level-3 spans even at the largest size.
fn event_ns_per_op(backend: QueueBackend, pending: usize) -> f64 {
    const OPS: u64 = 2_000_000;
    queue_churn(backend, pending, OPS).as_secs_f64() * 1e9 / OPS as f64
}

/// One congestion-avoidance ACK through the MPTCP (LIA) controller with
/// `n` subflows.
fn lia_ns_per_ack(n: usize) -> f64 {
    const ACKS: u64 = 1_000_000;
    let subs: Vec<SubflowSnapshot> = (0..n)
        .map(|i| SubflowSnapshot::new(4.0 + (i as f64) * 7.3, 0.01 + (i as f64) * 0.037))
        .collect();
    let mut grown = 0.0_f64;
    let mut cc = AlgorithmKind::Mptcp.build_cc(n);
    let t = mptcp_netsim::wall_clock();
    match &mut cc {
        CcDriver::Pure(cc) => {
            for i in 0..ACKS {
                grown += cc.increase_per_ack(i as usize % n, black_box(&subs));
            }
        }
        CcDriver::Stateful(cc) => {
            for i in 0..ACKS {
                let now = (i + 1) as f64 * 1e-4;
                grown += cc.on_ack(i as usize % n, black_box(&subs), now, false).grow;
            }
        }
    }
    let ns = secs_since(t) * 1e9 / ACKS as f64;
    black_box(grown);
    ns
}

fn scoreboard_ns_per_op(window: u64) -> f64 {
    const OPS: u64 = 2_000_000;
    scoreboard_churn(ScoreboardKind::Bitmap, window, OPS).as_secs_f64() * 1e9 / OPS as f64
}

/// Whole-simulator cost per delivered packet of one single-path flow on
/// one 1 Gb/s, 1 ms link: the TCP sender and receiver with everything
/// under them, without or with random loss.
fn tcp_ns_per_pkt(loss: f64, horizon: SimTime) -> f64 {
    let mut sim = Simulator::new(1);
    let link = sim.add_link(LinkSpec::mbps(1000.0, SimTime::from_millis(1), 100).with_loss(loss));
    let conn = sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![link]));
    let t = mptcp_netsim::wall_clock();
    sim.run_until(horizon);
    let secs = secs_since(t);
    secs * 1e9 / sim.connection_stats(conn).data_delivered as f64
}

/// Link service alone: three always-on CBR sources load a chain of six
/// 1 Gb/s links to 90%, so no transport runs and every packet takes six
/// hops.
fn link_ns_per_pkt_hop() -> f64 {
    let mut sim = Simulator::new(1);
    let chain: Vec<_> =
        (0..6).map(|_| sim.add_link(LinkSpec::mbps(1000.0, SimTime::from_micros(10), 100))).collect();
    for _ in 0..3 {
        sim.add_cbr(CbrSpec::constant(chain.clone(), 0.3e9));
    }
    let t = mptcp_netsim::wall_clock();
    sim.run_until(SimTime::from_secs(2));
    let secs = secs_since(t);
    let hops: u64 = chain.iter().map(|&l| sim.link_stats(l).transmitted).sum();
    secs * 1e9 / hops as f64
}

/// Microseconds per `add_connection` in the batch `setup` runs, from the
/// span the workload itself records.
fn add_conn_us<W: Workload>(w: &W, flows: usize) -> f64 {
    let mut tr = Tracer::on();
    drop(w.setup(1, &mut tr));
    tr.total_secs("arena.add_connections") * 1e6 / flows as f64
}

/// An epoch with nothing to do: a K=4 world in four shards whose only flow
/// starts at the horizon, so the queue is never empty and every 10 µs
/// epoch runs its barriers over idle shards.
fn idle_epoch_ns(jobs: usize) -> f64 {
    let horizon = SimTime::from_millis(100);
    let mut world = World::new(1, Engine::Sharded { shards: 4, jobs }, false);
    let ft = world.build_fattree(4, dc_link());
    let far = ft.host_count() - 1;
    let spec = ft
        .random_paths(0, far, 1, &mut StdRng::seed_from_u64(1))
        .into_iter()
        .fold(ConnectionSpec::bulk(AlgorithmKind::Mptcp).start(horizon), ConnectionSpec::path);
    world.add_connection(spec);
    let t = mptcp_netsim::wall_clock();
    world.run_until(horizon);
    secs_since(t) * 1e9 / (horizon.as_nanos() / dc_link().delay.as_nanos()) as f64
}

fn random_paths_us() -> f64 {
    let ft = World::new(1, Engine::Serial, false).build_fattree(16, dc_link());
    let hosts = ft.host_count();
    let mut rng = StdRng::seed_from_u64(1);
    let t = mptcp_netsim::wall_clock();
    for src in 0..hosts {
        black_box(ft.random_paths(src, (src + hosts / 2) % hosts, 8, &mut rng));
    }
    secs_since(t) * 1e6 / hosts as f64
}

fn perm_pairs_us_1024() -> f64 {
    const CALLS: u32 = 200;
    let mut rng = StdRng::seed_from_u64(1);
    let t = mptcp_netsim::wall_clock();
    for _ in 0..CALLS {
        black_box(random_permutation_pairs(1024, &mut rng));
    }
    secs_since(t) * 1e6 / f64::from(CALLS)
}

fn churn_arrivals_ms_80k() -> f64 {
    const CALLS: u32 = 10;
    let sched = Churn::K16_SHARDED.sched;
    let t = mptcp_netsim::wall_clock();
    for _ in 0..CALLS {
        black_box(black_box(&sched).arrivals());
    }
    secs_since(t) * 1e3 / f64::from(CALLS)
}

/// A full data segment: 1200-byte payload, data sequence mapping and data
/// ACK.
fn data_segment() -> Segment {
    Segment {
        subflow_seq: 0x0102_0304,
        subflow_ack: 0x0506_0708,
        flags: SegFlags { ack: true, ..SegFlags::default() },
        window: 512 * 1024,
        options: vec![MptcpOption::Dss { data_seq: Some(1 << 33), data_ack: Some(1 << 32) }],
        payload: vec![0xa5; 1200],
    }
}

const CODEC_CALLS: u32 = 200_000;

fn segment_encode_ns() -> f64 {
    let seg = data_segment();
    let t = mptcp_netsim::wall_clock();
    for _ in 0..CODEC_CALLS {
        black_box(black_box(&seg).encode());
    }
    secs_since(t) * 1e9 / f64::from(CODEC_CALLS)
}

fn segment_decode_ns() -> f64 {
    let bytes = data_segment().encode();
    let t = mptcp_netsim::wall_clock();
    for _ in 0..CODEC_CALLS {
        black_box(Segment::decode(black_box(&bytes)).is_ok());
    }
    secs_since(t) * 1e9 / f64::from(CODEC_CALLS)
}

/// Run every probe once, each inside its own span.
pub fn run_all(tr: &mut Tracer) -> Probes {
    use QueueBackend::{BinaryHeap as Heap, TimerWheel as Wheel};
    let mut out = Probes::new();
    let mut probe = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        out.push((name, tr.span(name, f)));
    };
    probe("event.wheel_ns_per_op_p256", &mut || event_ns_per_op(Wheel, 256));
    probe("event.wheel_ns_per_op_p4k", &mut || event_ns_per_op(Wheel, 4 << 10));
    probe("event.wheel_ns_per_op_p32k", &mut || event_ns_per_op(Wheel, 32 << 10));
    probe("event.wheel_ns_per_op_p256k", &mut || event_ns_per_op(Wheel, 256 << 10));
    probe("event.heap_ns_per_op_p256", &mut || event_ns_per_op(Heap, 256));
    probe("event.heap_ns_per_op_p4k", &mut || event_ns_per_op(Heap, 4 << 10));
    probe("cc.lia_ns_per_ack_n2", &mut || lia_ns_per_ack(2));
    probe("cc.lia_ns_per_ack_n4", &mut || lia_ns_per_ack(4));
    probe("cc.lia_ns_per_ack_n8", &mut || lia_ns_per_ack(8));
    probe("scoreboard.ns_per_op_w64", &mut || scoreboard_ns_per_op(64));
    probe("scoreboard.ns_per_op_w512", &mut || scoreboard_ns_per_op(512));
    probe("tcp.ns_per_pkt_clean", &mut || tcp_ns_per_pkt(0.0, SimTime::from_secs(2)));
    probe("tcp.ns_per_pkt_lossy", &mut || tcp_ns_per_pkt(0.01, SimTime::from_secs(20)));
    probe("link.ns_per_pkt_hop", &mut link_ns_per_pkt_hop);
    probe("arena.add_conn_us_bulk8", &mut || add_conn_us(&FatTreeBulk::K8, 128));
    probe("arena.add_conn_us_sized2", &mut || {
        let w = Churn::K16_SHARDED.scaled(16).on(Engine::Serial);
        add_conn_us(&w, w.sched.burst_flows + w.sched.trickle_flows)
    });
    probe("shard.idle_epoch_ns_j1", &mut || idle_epoch_ns(1));
    probe("shard.idle_epoch_ns_j2", &mut || idle_epoch_ns(2));
    probe("topology.random_paths_us", &mut random_paths_us);
    probe("workload.perm_pairs_us_1024", &mut perm_pairs_us_1024);
    probe("workload.churn_arrivals_ms_80k", &mut churn_arrivals_ms_80k);
    probe("proto.segment.encode_ns", &mut segment_encode_ns);
    probe("proto.segment.decode_ns", &mut segment_decode_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cheap probes return a positive finite cost; the others run the
    /// same library calls the workload tests already cover.
    #[test]
    fn unit_costs_are_positive_and_finite() {
        for (name, v) in [
            ("cc", lia_ns_per_ack(8)),
            ("perm_pairs", perm_pairs_us_1024()),
            ("arrivals", churn_arrivals_ms_80k()),
            ("encode", segment_encode_ns()),
            ("decode", segment_decode_ns()),
            ("idle_epoch", idle_epoch_ns(1)),
            ("add_conn", add_conn_us(&FatTreeBulk::K8, 128)),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name}: {v}");
        }
    }
}
