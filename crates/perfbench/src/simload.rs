//! The four simulator workloads: FatTree bulk traffic (serial and
//! sharded), flow churn, and the long lossy WAN run.
//!
//! Every size here is a constant of the benchmark, the same on every
//! commit. `scaled(d)` divides the simulated horizons by `d` for the
//! crate's own tests and changes nothing else.

use crate::inputs::{churn_flows, permutation_flows, Flow};
use crate::trace::Tracer;
use crate::world::{run_window, Baseline, Engine, Window, World};
use crate::{Rep, Traffic, Workload};
use mptcp_bench::datacenter::dc_link;
use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{ConnectionSpec, LinkSpec, SimTime, Simulator, DEFAULT_PACKET_SIZE};
use mptcp_workload::ChurnSchedule;

fn spec_of(flow: Flow) -> ConnectionSpec {
    let spec = match flow.size_pkts {
        Some(pkts) => ConnectionSpec::sized(AlgorithmKind::Mptcp, pkts),
        None => ConnectionSpec::bulk(AlgorithmKind::Mptcp),
    };
    flow.paths.into_iter().fold(spec.start(flow.start), ConnectionSpec::path)
}

fn div(t: SimTime, d: u64) -> SimTime {
    SimTime(t.as_nanos() / d)
}

/// Simulated payload Mb/s per source over a window.
fn goodput_mbps(w: &Window, sources: usize) -> f64 {
    w.pkts() as f64 * f64::from(DEFAULT_PACKET_SIZE) * 8.0 / w.sim_s / sources as f64 / 1e6
}

fn rep_of(mut w: Window, sources: usize, attempted: u64, failed: u64) -> Rep {
    Rep {
        wall_s: w.wall_s,
        cpu_s: w.cpu_s,
        pkts: w.pkts(),
        goodput_mbps: goodput_mbps(&w, sources),
        attempted,
        failed,
        repeatable: vec![w.events, w.pkts(), w.digest],
        errors: std::mem::take(&mut w.errors),
        window: Some(w),
        ..Rep::default()
    }
}

/// A world that is built and ready to run.
pub struct Ready {
    world: World,
    /// Packets each flow has to deliver (sized flows only).
    sizes: Vec<u64>,
}

/// TP1 permutation traffic on FatTree(k): one bulk MPTCP flow per host
/// over `subflows` random shortest paths, measured in steady state.
#[derive(Debug, Clone, Copy)]
pub struct FatTreeBulk {
    /// Switch port count.
    pub k: usize,
    /// Engine the world runs on.
    pub engine: Engine,
    /// Subflows per flow.
    pub subflows: usize,
    /// Simulated time run before the timed window.
    pub warmup: SimTime,
    /// Simulated length of the timed window.
    pub window: SimTime,
    /// Length of one `run_until` slice in the traced pass.
    pub slice: SimTime,
    /// Mean host goodput below which the run is not the steady state the
    /// benchmark means to time.
    pub min_host_mbps: f64,
}

impl FatTreeBulk {
    /// The paper's §4 cell: 128 hosts on one thread. Goodput is within 1%
    /// of steady state after 0.5 s; the 1.5 s window spans several 268 ms
    /// timer-wheel periods on purpose.
    pub const K8: Self = Self {
        k: 8,
        engine: Engine::Serial,
        subflows: 8,
        warmup: SimTime::from_millis(500),
        window: SimTime::from_millis(1500),
        slice: SimTime::from_millis(100),
        // The paper reports 95 Mb/s per host for this cell.
        min_host_mbps: 85.0,
    };

    /// 1024 hosts in 8 pod shards, dense epochs. Timed on one thread: two
    /// threads on the two shared cores of the reference host spread 20–30%
    /// from run to run, so they are a leg of the traced pass instead.
    pub const K16_SHARDED: Self = Self {
        k: 16,
        engine: Engine::Sharded { shards: 8, jobs: 1 },
        window: SimTime::from_millis(300),
        ..Self::K8
    };

    /// The same workload with its horizons divided by `d`. A shortened
    /// warm-up ends before the steady state, so the goodput floor is
    /// lifted; every other check stays.
    pub fn scaled(self, d: u64) -> Self {
        Self {
            warmup: div(self.warmup, d),
            window: div(self.window, d),
            slice: div(self.slice, d),
            min_host_mbps: 0.0,
            ..self
        }
    }

    /// The same workload on another engine (the comparison legs).
    pub fn on(self, engine: Engine) -> Self {
        Self { engine, ..self }
    }

    /// Hosts, which is also flows and sources.
    pub fn hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }
}

impl Workload for FatTreeBulk {
    type Ready = Ready;

    fn engine(&self) -> Engine {
        self.engine
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Ready {
        let mut world = World::new(seed, self.engine, false);
        let ft = tr.span("topology.build", || world.build_fattree(self.k, dc_link()));
        let flows = tr.span("topology.paths", || permutation_flows(&ft, seed, self.subflows));
        tr.span("arena.add_connections", || {
            for flow in flows {
                world.add_connection(spec_of(flow));
            }
        });
        Ready { world, sizes: Vec::new() }
    }

    fn run(&self, ready: Ready, tr: &mut Tracer) -> Rep {
        let mut world = ready.world;
        tr.span("sim.warmup", || world.run_until(self.warmup));
        let base = Baseline::read(&world);
        let until = self.warmup + self.window;
        let mut w = run_window(&mut world, base, until, self.slice, tr, |_| {}, |_, _, _| {});
        let idle = w.delivered.iter().filter(|&&d| d == 0).count() as u64;
        let mbps = goodput_mbps(&w, self.hosts());
        if mbps < self.min_host_mbps {
            w.errors.push(format!(
                "mean host goodput {mbps:.1} Mb/s is below {}",
                self.min_host_mbps
            ));
        }
        rep_of(w, self.hosts(), self.hosts() as u64, idle)
    }

    fn traffic(&self) -> Traffic {
        Traffic { cc_paths: Some(self.subflows), wide_windows: false }
    }
}

/// Arena counters of one churn run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaCounts {
    /// Hot-path allocations over the whole run.
    pub hot_allocs: u64,
    /// Of those, after the first trickle flow had started.
    pub trickle_hot_allocs: u64,
    /// Hot windows acquired by recycling.
    pub hot_reuses: u64,
    /// Hot subflow slots the arena grew to.
    pub peak_hot_slots: u64,
}

/// Short flows opening and closing on sharded FatTree(k): a burst that is
/// resident all at once, then a trickle that re-tenants what it left.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Switch port count.
    pub k: usize,
    /// Engine the world runs on.
    pub engine: Engine,
    /// Arrival schedule.
    pub sched: ChurnSchedule,
    /// Simulated end of the run; the whole run is timed.
    pub horizon: SimTime,
    /// Length of one `run_until` slice in the traced pass.
    pub slice: SimTime,
}

impl Churn {
    /// 80k flows on the K=16 world: 40k at once, then one every 10 µs
    /// (the lookahead), so most of the 140k epochs have nothing to do.
    /// Timed on one thread, like [`FatTreeBulk::K16_SHARDED`].
    pub const K16_SHARDED: Self = Self {
        k: 16,
        engine: Engine::Sharded { shards: 8, jobs: 1 },
        sched: ChurnSchedule {
            burst_flows: 40_000,
            burst_window: SimTime::from_millis(100),
            trickle_flows: 40_000,
            trickle_start: SimTime::from_millis(500),
            trickle_spacing: SimTime::from_micros(10),
            min_pkts: 4,
            max_pkts: 20,
        },
        horizon: SimTime::from_millis(1400),
        slice: SimTime::from_millis(50),
    };

    /// The same shape with the flow counts and the burst window divided by
    /// `d`. The gap before the trickle and the tail after it are drain and
    /// retirement time, which do not shrink with the flow count.
    pub fn scaled(self, d: u64) -> Self {
        let trickle_flows = self.sched.trickle_flows / d as usize;
        let fewer = (self.sched.trickle_flows - trickle_flows) as u64;
        let sched = ChurnSchedule {
            burst_flows: self.sched.burst_flows / d as usize,
            burst_window: div(self.sched.burst_window, d),
            trickle_flows,
            ..self.sched
        };
        let horizon = self.horizon - SimTime(self.sched.trickle_spacing.as_nanos() * fewer);
        Self { sched, horizon, ..self }
    }

    /// The same workload on another engine (the comparison leg).
    pub fn on(self, engine: Engine) -> Self {
        Self { engine, ..self }
    }

    fn hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }
}

impl Workload for Churn {
    type Ready = Ready;

    fn engine(&self) -> Engine {
        self.engine
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Ready {
        let mut world = World::new(seed, self.engine, true);
        let ft = tr.span("topology.build", || world.build_fattree(self.k, dc_link()));
        let flows = tr.span("topology.paths", || churn_flows(&ft, seed, &self.sched));
        let sizes = flows.iter().map(|f| f.size_pkts.unwrap_or(0)).collect();
        tr.span("arena.add_connections", || {
            for flow in flows {
                world.add_connection(spec_of(flow));
            }
        });
        Ready { world, sizes }
    }

    fn run(&self, ready: Ready, tr: &mut Tracer) -> Rep {
        let Ready { mut world, sizes } = ready;
        let base = Baseline::at_time_zero(&world);
        // The traced pass reads the allocation counter once mid-run, at
        // the first slice boundary the trickle has reached.
        let mut allocs_at_trickle = None;
        let mut unfinished = 0u64;
        let w = run_window(
            &mut world,
            base,
            self.horizon,
            self.slice,
            tr,
            |world| {
                if allocs_at_trickle.is_none() && world.now() >= self.sched.trickle_start {
                    allocs_at_trickle = Some(world.perf().hot_allocs);
                }
            },
            |c, st, errors| {
                if st.finished_at.is_none() || st.data_delivered != sizes[c] {
                    unfinished += 1;
                    if unfinished == 1 {
                        errors.push(format!(
                            "flow {c} delivered {} of {} packets by the horizon",
                            st.data_delivered, sizes[c]
                        ));
                    }
                }
            },
        );
        let hot_allocs = world.perf().hot_allocs;
        let arena = ArenaCounts {
            hot_allocs,
            trickle_hot_allocs: allocs_at_trickle.map_or(0, |a| hot_allocs - a),
            hot_reuses: world.arena_hot_reuses(),
            peak_hot_slots: world.arena_hot_slots() as u64,
        };
        let mut rep = rep_of(w, self.hosts(), sizes.len() as u64, unfinished);
        rep.repeatable.extend([arena.hot_allocs, arena.hot_reuses, arena.peak_hot_slots]);
        rep.arena = Some(arena);
        rep
    }
}

/// One MPTCP connection over four lossy WAN links for a long simulated
/// time: few flows, long horizon, a near-empty event queue.
#[derive(Debug, Clone, Copy)]
pub struct WanLossy {
    /// Simulated end of the run; the whole run is timed.
    pub horizon: SimTime,
    /// Length of one `run_until` slice in the traced pass.
    pub slice: SimTime,
}

impl WanLossy {
    /// The `sim_micro/mptcp4` world for 2400 simulated seconds.
    pub const FOUR_PATHS: Self =
        Self { horizon: SimTime::from_secs(2400), slice: SimTime::from_secs(60) };

    /// The same workload with its horizon divided by `d`.
    pub fn scaled(self, d: u64) -> Self {
        Self { horizon: div(self.horizon, d), slice: div(self.slice, d) }
    }

    /// The four links: 50 Mb/s, one-way delay 5/15/25/35 ms, 50-packet
    /// buffers, 0.1% random loss.
    pub fn links() -> [LinkSpec; 4] {
        [5, 15, 25, 35]
            .map(|ms| LinkSpec::mbps(50.0, SimTime::from_millis(ms), 50).with_loss(0.001))
    }
}

impl Workload for WanLossy {
    type Ready = Ready;

    fn engine(&self) -> Engine {
        Engine::Serial
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Ready {
        let mut sim = Simulator::new(seed);
        let paths: Vec<_> =
            tr.span("topology.build", || Self::links().map(|l| vec![sim.add_link(l)]).into());
        let mut world = World::Serial(Box::new(sim));
        tr.span("arena.add_connections", || {
            world.add_connection(spec_of(Flow {
                src: 0,
                dst: 1,
                paths,
                start: SimTime::ZERO,
                size_pkts: None,
            }));
        });
        Ready { world, sizes: Vec::new() }
    }

    fn run(&self, ready: Ready, tr: &mut Tracer) -> Rep {
        let mut world = ready.world;
        let base = Baseline::at_time_zero(&world);
        let mut idle_subflows = 0;
        let mut w = run_window(
            &mut world,
            base,
            self.horizon,
            self.slice,
            tr,
            |_| {},
            |_, st, _| idle_subflows += st.subflows.iter().filter(|s| s.delivered_pkts == 0).count(),
        );
        if idle_subflows > 0 {
            w.errors.push(format!("{idle_subflows} of 4 subflows delivered nothing"));
        }
        if w.tcp.retransmits == 0 {
            w.errors.push("a 0.1% loss rate caused no retransmission".into());
        }
        rep_of(w, 1, 4, idle_subflows as u64)
    }

    /// 50 Mb/s over 10 to 70 ms of RTT is 40 to 290 packets in flight.
    fn traffic(&self) -> Traffic {
        Traffic { cc_paths: Some(4), wide_windows: true }
    }
}
