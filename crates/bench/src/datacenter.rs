//! Shared machinery for the §4 data-center experiments (FatTree & BCube).

use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{ConnId, ConnectionSpec, LinkSpec, ShardedSimulator, SimPerf, SimTime, Simulator};
use mptcp_topology::{BCube, FatTree};
use mptcp_workload::{one_to_many_random, random_permutation_pairs, sparse_pairs};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three §4 traffic patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tp {
    /// TP1: random permutation.
    Permutation,
    /// TP2: one-to-many (12 flows per host).
    OneToMany,
    /// TP3: sparse (30% of hosts).
    Sparse,
}

/// How flows route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Single-path TCP over a random shortest path (the ECMP mimic).
    SinglePath,
    /// Multipath with `n_paths` subflows under the given algorithm.
    Multipath(AlgorithmKind, usize),
}

/// Result of one data-center run.
pub struct DcResult {
    /// Goodput per source host, bits/s (sum of its flows).
    pub per_host_bps: Vec<f64>,
    /// Goodput per flow, bits/s.
    pub per_flow_bps: Vec<f64>,
    /// Loss rate of every core link over the measurement window.
    pub core_loss: Vec<f64>,
    /// Loss rate of every access link over the measurement window.
    pub access_loss: Vec<f64>,
}

impl DcResult {
    /// Mean per-host goodput in Mb/s (the paper's table unit).
    pub fn mean_host_mbps(&self) -> f64 {
        let active: Vec<&f64> = self.per_host_bps.iter().filter(|&&b| b > 0.0).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().copied().sum::<f64>() / active.len() as f64 / 1e6
    }
}

/// The link spec used for every data-center link: 100 Mb/s, 10 µs
/// propagation, 100-packet buffers.
pub fn dc_link() -> LinkSpec {
    LinkSpec::mbps(100.0, SimTime::from_micros(10), 100)
}

fn host_pairs(tp: Tp, hosts: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    match tp {
        Tp::Permutation => random_permutation_pairs(hosts, rng),
        Tp::OneToMany => one_to_many_random(hosts, 12, rng),
        Tp::Sparse => sparse_pairs(hosts, 0.3, rng),
    }
}

fn finish(
    sim: &mut Simulator,
    conns: &[(usize, ConnId)],
    hosts: usize,
    warmup: SimTime,
    window: SimTime,
    core: &[usize],
    access: &[usize],
) -> DcResult {
    let ids: Vec<ConnId> = conns.iter().map(|&(_, c)| c).collect();
    let flows = crate::measure_goodput_bps(sim, &ids, warmup, window);
    let mut per_host = vec![0.0; hosts];
    for (&(src, _), &bps) in conns.iter().zip(&flows) {
        per_host[src] += bps;
    }
    DcResult {
        per_host_bps: per_host,
        per_flow_bps: flows,
        core_loss: core.iter().map(|&l| sim.link_stats(l).loss_rate()).collect(),
        access_loss: access.iter().map(|&l| sim.link_stats(l).loss_rate()).collect(),
    }
}

/// Every FatTree run's flows: the source host of each and its spec. The
/// workload rng draws the host pairs, then each pair's paths in pair order.
fn fattree_specs(
    ft: &FatTree,
    tp: Tp,
    routing: Routing,
    seed: u64,
) -> Vec<(usize, ConnectionSpec)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    host_pairs(tp, ft.host_count(), &mut rng)
        .into_iter()
        .map(|(s, d)| {
            let spec = match routing {
                Routing::SinglePath => ConnectionSpec::bulk(AlgorithmKind::Uncoupled)
                    .path(ft.ecmp_path(s, d, &mut rng)),
                Routing::Multipath(alg, n) => ft
                    .random_paths(s, d, n, &mut rng)
                    .into_iter()
                    .fold(ConnectionSpec::bulk(alg), ConnectionSpec::path),
            };
            (s, spec)
        })
        .collect()
}

/// Run one FatTree experiment, also returning the simulator's [`SimPerf`]
/// counters for the throughput benchmarks.
pub fn run_fattree(
    k: usize,
    tp: Tp,
    routing: Routing,
    seed: u64,
    warmup: SimTime,
    window: SimTime,
) -> (DcResult, SimPerf) {
    let mut sim = Simulator::new(seed);
    let ft = FatTree::build(&mut sim, k, dc_link());
    let conns: Vec<(usize, ConnId)> = fattree_specs(&ft, tp, routing, seed)
        .into_iter()
        .map(|(s, spec)| (s, sim.add_connection(spec)))
        .collect();
    let core = ft.core_links();
    let access = ft.access_links();
    let res = finish(&mut sim, &conns, ft.host_count(), warmup, window, &core, &access);
    (res, sim.perf())
}

/// Result of one sharded FatTree run: the usual [`DcResult`], the merged
/// perf counters for the whole run, and warm-up-excluded measurement-window
/// deltas so steady-state events/sec can be reported without the
/// connection-setup transient.
pub struct ShardedDcRun {
    /// Goodput results over the measurement window.
    pub res: DcResult,
    /// Merged perf counters for the whole run (warm-up included).
    pub perf: SimPerf,
    /// Events fired during the measurement window only.
    pub window_events: u64,
    /// Wall-clock time spent simulating the measurement window only.
    pub window_wall: std::time::Duration,
    /// Deterministic digest of the final state (per-connection stats +
    /// per-shard perf), for jobs-invariance checks.
    pub digest: u64,
}

/// [`run_fattree`] on a [`ShardedSimulator`]: the same topology, workload
/// rng and path selection, but partitioned pod-by-pod over `num_shards`
/// shards advanced by `jobs` worker threads. The merged deterministic
/// history is independent of `jobs`.
#[expect(
    clippy::too_many_arguments,
    reason = "run_fattree's six scenario knobs plus the shard count and worker threads, passed straight through by every caller"
)]
pub fn run_fattree_sharded(
    k: usize,
    tp: Tp,
    routing: Routing,
    seed: u64,
    warmup: SimTime,
    window: SimTime,
    num_shards: usize,
    jobs: usize,
) -> ShardedDcRun {
    let mut sim = ShardedSimulator::new(seed, num_shards);
    let ft = FatTree::build_sharded(&mut sim, k, dc_link());
    let conns: Vec<(usize, ConnId)> = fattree_specs(&ft, tp, routing, seed)
        .into_iter()
        .map(|(s, spec)| (s, sim.add_connection(spec)))
        .collect();
    sim.set_jobs(jobs);
    sim.run_until(warmup);
    sim.reset_link_stats();
    let perf_before = sim.perf();
    let before: Vec<u64> =
        conns.iter().map(|&(_, c)| sim.connection_stats(c).delivered_pkts()).collect();
    sim.run_until(warmup + window);
    let perf = sim.perf();
    let secs = window.as_secs_f64();
    let per_flow_bps: Vec<f64> = conns
        .iter()
        .zip(&before)
        .map(|(&(_, c), &b)| {
            let st = sim.connection_stats(c);
            (st.delivered_pkts() - b) as f64 * st.packet_size as f64 * 8.0 / secs
        })
        .collect();
    let mut per_host = vec![0.0; ft.host_count()];
    for (&(src, _), &bps) in conns.iter().zip(&per_flow_bps) {
        per_host[src] += bps;
    }
    let res = DcResult {
        per_host_bps: per_host,
        per_flow_bps,
        core_loss: ft.core_links().iter().map(|&l| sim.link_stats(l).loss_rate()).collect(),
        access_loss: ft.access_links().iter().map(|&l| sim.link_stats(l).loss_rate()).collect(),
    };
    ShardedDcRun {
        res,
        window_events: perf.events_fired - perf_before.events_fired,
        window_wall: perf.wall.saturating_sub(perf_before.wall),
        digest: sim.det_digest(),
        perf,
    }
}

/// Run one BCube experiment.
pub fn run_bcube(
    n: usize,
    levels_k: usize,
    tp: Tp,
    routing: Routing,
    seed: u64,
    warmup: SimTime,
    window: SimTime,
) -> DcResult {
    let mut sim = Simulator::new(seed);
    let bc = BCube::build(&mut sim, n, levels_k, dc_link());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbcbe);
    let hosts = bc.host_count();
    // TP2 in BCube: "the destinations are the host's neighbors in the
    // three levels".
    let pairs: Vec<(usize, usize)> = match tp {
        Tp::OneToMany => (0..hosts)
            .flat_map(|h| bc.level_neighbors(h).into_iter().map(move |d| (h, d)))
            .collect(),
        Tp::Permutation | Tp::Sparse => host_pairs(tp, hosts, &mut rng),
    };
    let conns: Vec<(usize, ConnId)> = pairs
        .iter()
        .map(|&(s, d)| {
            let conn = match routing {
                Routing::SinglePath => sim.add_connection(
                    ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(bc.single_path(s, d)),
                ),
                Routing::Multipath(alg, _) => {
                    let mut spec = ConnectionSpec::bulk(alg);
                    for p in bc.path_set(s, d, &mut rng) {
                        spec = spec.path(p);
                    }
                    sim.add_connection(spec)
                }
            };
            (s, conn)
        })
        .collect();
    // All links in BCube are host↔switch; treat them all as "core" for the
    // loss distribution and also as access (they are NIC links).
    let all: Vec<usize> = (0..sim.link_count()).collect();
    finish(&mut sim, &conns, hosts, warmup, window, &all, &[])
}
