//! Where a bulk FatTree world's bytes live: the one-world memory probe.
//!
//! Builds the world of perfbench's `fattree_k8` / `fattree_k16_sharded`
//! workloads — FatTree(k) on `dc_link`, TP1 permutation traffic with one
//! 8-subflow MPTCP bulk flow per host, seed 11, the pods spread over 8
//! shards at k ≥ 16 — then runs it in 10 ms slices to 0.8 s, reading
//! `mem_bytes()` after each slice. It prints the categories of the largest
//! reading and the process's peak resident set (VmHWM). `mem_bytes()`
//! counts capacity, and untouched capacity is not resident, so VmHWM can
//! read below the total.
//!
//! Run with: `cargo run --release --example mem_bytes -- 16` (k = 16 takes
//! about 20 s; k defaults to 8).

use mptcp_bench::datacenter::dc_link;
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{ConnectionSpec, MemBytes, ShardedSimulator, SimTime, Simulator};
use mptcp_topology::FatTree;
use mptcp_workload::random_permutation_pairs;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 11;
const SUBFLOWS: usize = 8;
const SLICE: SimTime = SimTime::from_millis(10);
const HORIZON: SimTime = SimTime::from_millis(800);
/// Shards of a sharded world, and the smallest k that is sharded.
const SHARDS: usize = 8;
const SHARDED_FROM_K: usize = 16;

/// The two engines under the calls the probe makes.
trait World {
    fn add_connection(&mut self, spec: ConnectionSpec);
    fn run_until(&mut self, t: SimTime);
    fn mem_bytes(&self) -> MemBytes;
}

impl World for Simulator {
    fn add_connection(&mut self, spec: ConnectionSpec) {
        Simulator::add_connection(self, spec);
    }
    fn run_until(&mut self, t: SimTime) {
        Simulator::run_until(self, t);
    }
    fn mem_bytes(&self) -> MemBytes {
        Simulator::mem_bytes(self)
    }
}

impl World for ShardedSimulator {
    fn add_connection(&mut self, spec: ConnectionSpec) {
        ShardedSimulator::add_connection(self, spec);
    }
    fn run_until(&mut self, t: SimTime) {
        ShardedSimulator::run_until(self, t);
    }
    fn mem_bytes(&self) -> MemBytes {
        ShardedSimulator::mem_bytes(self)
    }
}

/// Add the permutation flows (perfbench's path stream: `seed ^ 0x5eed`),
/// run to the horizon and return the largest reading with its time.
fn probe(world: &mut dyn World, ft: &FatTree) -> (SimTime, MemBytes) {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5eed);
    for (src, dst) in random_permutation_pairs(ft.host_count(), &mut rng) {
        let paths = ft.random_paths(src, dst, SUBFLOWS, &mut rng);
        world.add_connection(
            paths
                .into_iter()
                .fold(ConnectionSpec::bulk(AlgorithmKind::Mptcp), ConnectionSpec::path),
        );
    }
    let mut peak = (SimTime::ZERO, world.mem_bytes());
    let mut t = SimTime::ZERO;
    while t < HORIZON {
        t += SLICE;
        world.run_until(t);
        let m = world.mem_bytes();
        if m.total() > peak.1.total() {
            peak = (t, m);
        }
    }
    peak
}

/// The process's peak resident set in KiB, where `/proc` reports it.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let k: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("usage: mem_bytes [k], k an even port count"),
        None => 8,
    };
    assert!(k >= 4 && k.is_multiple_of(2), "FatTree needs an even k >= 4, got {k}");
    let (at, m, engine) = if k >= SHARDED_FROM_K {
        let mut sim = ShardedSimulator::new(SEED, SHARDS);
        sim.set_jobs(1);
        let ft = FatTree::build_sharded(&mut sim, k, dc_link());
        let (at, m) = probe(&mut sim, &ft);
        (at, m, format!("{SHARDS} pod shards"))
    } else {
        let mut sim = Simulator::new(SEED);
        let ft = FatTree::build(&mut sim, k, dc_link());
        let (at, m) = probe(&mut sim, &ft);
        (at, m, "one simulator".to_string())
    };
    let hosts = k * k * k / 4;
    println!(
        "FatTree(k={k}) bulk world: {hosts} flows x {SUBFLOWS} subflows, seed {SEED}, {engine}"
    );
    println!("mem_bytes() high-water at t = {at}: {:.3} MiB", mib(m.total()));
    for (name, bytes) in m.categories() {
        println!("  {name:<12} {:8.3} MiB", mib(bytes));
    }
    match vm_hwm_kib() {
        Some(kib) => println!("VmHWM {:.1} MiB", kib as f64 / 1024.0),
        None => println!("VmHWM unavailable"),
    }
}
