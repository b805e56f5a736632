//! One simulated world on either engine, and the measurement of one timed
//! window of it.
//!
//! `Simulator` and `ShardedSimulator` offer the same calls under the same
//! names but share no trait; [`World`] lets one workload body run on both,
//! which is how the serial and sharded legs of a comparison are kept the
//! same workload.

use crate::clock::Stopwatch;
use crate::trace::Tracer;
use mptcp_netsim::{
    ConnId, ConnectionSpec, ConnectionStats, DetDigest, DigestWriter, LinkSpec, ShardedSimulator,
    SimPerf, SimTime, Simulator,
};
use mptcp_topology::FatTree;

/// Which engine runs a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The single-queue `Simulator`.
    Serial,
    /// `ShardedSimulator` with this many shards and worker threads.
    Sharded {
        /// Number of shards.
        shards: usize,
        /// Worker threads.
        jobs: usize,
    },
}

impl Engine {
    /// Threads that run the world.
    pub fn jobs(self) -> usize {
        match self {
            Engine::Serial => 1,
            Engine::Sharded { jobs, .. } => jobs,
        }
    }
}

/// A world under construction or being run.
pub enum World {
    /// On the serial engine.
    Serial(Box<Simulator>),
    /// On the sharded engine.
    Sharded(ShardedSimulator),
}

macro_rules! each {
    ($self:expr, $w:ident => $body:expr) => {
        match $self {
            World::Serial($w) => $body,
            World::Sharded($w) => $body,
        }
    };
}

impl World {
    /// An empty world. `lifecycle` turns on arena recycling of finished
    /// flows (`set_flow_lifecycle`).
    pub fn new(seed: u64, engine: Engine, lifecycle: bool) -> Self {
        match engine {
            Engine::Serial => {
                let mut sim = Simulator::new(seed);
                sim.set_flow_lifecycle(lifecycle);
                World::Serial(Box::new(sim))
            }
            Engine::Sharded { shards, jobs } => {
                let mut sim = ShardedSimulator::new(seed, shards);
                sim.set_flow_lifecycle(lifecycle);
                sim.set_jobs(jobs);
                World::Sharded(sim)
            }
        }
    }

    /// Build FatTree(k) into the world (pod-sharded on the sharded engine).
    pub fn build_fattree(&mut self, k: usize, link: LinkSpec) -> FatTree {
        match self {
            World::Serial(sim) => FatTree::build(sim, k, link),
            World::Sharded(sim) => FatTree::build_sharded(sim, k, link),
        }
    }

    /// Add one connection.
    pub fn add_connection(&mut self, spec: ConnectionSpec) -> ConnId {
        each!(self, w => w.add_connection(spec))
    }

    /// Advance simulated time to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        each!(self, w => w.run_until(t))
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        each!(self, w => w.now())
    }

    /// Event counters (summed over shards).
    pub fn perf(&self) -> SimPerf {
        each!(self, w => w.perf())
    }

    /// One connection's statistics.
    pub fn connection_stats(&self, conn: ConnId) -> ConnectionStats {
        each!(self, w => w.connection_stats(conn))
    }

    /// Number of connections.
    pub fn connection_count(&self) -> usize {
        each!(self, w => w.connection_count())
    }

    /// Zero every link's counters.
    pub fn reset_link_stats(&mut self) {
        each!(self, w => w.reset_link_stats())
    }

    /// `(offered, dropped)` summed over every link.
    pub fn link_totals(&self) -> (u64, u64) {
        each!(self, w => (0..w.link_count()).fold((0, 0), |(o, d), l| {
            let s = w.link_stats(l);
            (o + s.offered, d + s.dropped())
        }))
    }

    /// Hot subflow slots the arena holds (its high-water mark).
    pub fn arena_hot_slots(&self) -> usize {
        each!(self, w => w.arena_hot_slots())
    }

    /// Hot-window acquisitions served by recycling.
    pub fn arena_hot_reuses(&self) -> u64 {
        each!(self, w => w.arena_hot_reuses())
    }

    /// Digest of every connection's statistics and the event counters. On
    /// the sharded engine it is the library's own merged digest, equal for
    /// any `jobs`.
    pub fn digest(&self) -> u64 {
        match self {
            World::Serial(sim) => {
                let mut w = DigestWriter::new();
                for c in 0..sim.connection_count() {
                    sim.connection_stats(c).det_digest(&mut w);
                }
                sim.perf().det_digest(&mut w);
                w.finish()
            }
            World::Sharded(sim) => sim.det_digest(),
        }
    }
}

/// Subflow-level counters summed over every connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpTotals {
    /// New data packets sent.
    pub sent: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Fast-recovery episodes.
    pub fast_recoveries: u64,
    /// Packets delivered in order on their subflow — one ACK each.
    pub subflow_delivered: u64,
}

impl TcpTotals {
    fn add(&mut self, st: &ConnectionStats) {
        for s in &st.subflows {
            self.sent += s.sent_pkts;
            self.retransmits += s.retransmits;
            self.timeouts += s.timeouts;
            self.fast_recoveries += s.fast_recoveries;
            self.subflow_delivered += s.delivered_pkts;
        }
    }

    fn since(self, before: TcpTotals) -> TcpTotals {
        TcpTotals {
            sent: self.sent - before.sent,
            retransmits: self.retransmits - before.retransmits,
            timeouts: self.timeouts - before.timeouts,
            fast_recoveries: self.fast_recoveries - before.fast_recoveries,
            subflow_delivered: self.subflow_delivered - before.subflow_delivered,
        }
    }
}

/// What a world's counters read at the start of a timed window.
pub struct Baseline {
    perf: SimPerf,
    delivered: Vec<u64>,
    tcp: TcpTotals,
}

impl Baseline {
    /// Read the counters of a world that has already run (after warm-up).
    pub fn read(world: &World) -> Self {
        let mut tcp = TcpTotals::default();
        let delivered = (0..world.connection_count())
            .map(|c| {
                let st = world.connection_stats(c);
                tcp.add(&st);
                st.data_delivered
            })
            .collect();
        Self { perf: world.perf(), delivered, tcp }
    }

    /// The counters of a world that has not run yet. Nothing is read per
    /// connection: a never-started flow's statistics are synthesized on
    /// demand, which for 80k flows would cost more than the set-up.
    pub fn at_time_zero(world: &World) -> Self {
        Self {
            perf: world.perf(),
            delivered: vec![0; world.connection_count()],
            tcp: TcpTotals::default(),
        }
    }
}

/// One timed window of a world.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Host seconds the window took on the wall clock.
    pub wall_s: f64,
    /// Host seconds the calling thread ran on a CPU in it.
    pub cpu_s: f64,
    /// Simulated seconds it covers.
    pub sim_s: f64,
    /// Events fired in it.
    pub events: u64,
    /// Of those, stale events that did no work.
    pub events_cancelled: u64,
    /// High-water mark of pending events (whole run).
    pub peak_pending: u64,
    /// Data packets delivered exactly once in it, per connection.
    pub delivered: Vec<u64>,
    /// Subflow counters accumulated in it.
    pub tcp: TcpTotals,
    /// Packets offered to links in it.
    pub link_offered: u64,
    /// Packets links dropped in it.
    pub link_dropped: u64,
    /// Host milliseconds of each `run_until` slice (traced pass only).
    pub slice_ms: Vec<f64>,
    /// Digest of the world when the window ended.
    pub digest: u64,
    /// Output checks that failed.
    pub errors: Vec<String>,
}

impl Window {
    /// Total data packets delivered exactly once in the window.
    pub fn pkts(&self) -> u64 {
        self.delivered.iter().sum()
    }
}

/// Run `world` from now to `until` and measure it. Untraced, the window is
/// one `run_until` call; traced, it is cut into `slice`-long calls with a
/// span around each, and `observe` sees the world between them. `inspect`
/// sees every connection's final statistics, for the workload's own checks.
pub fn run_window(
    world: &mut World,
    base: Baseline,
    until: SimTime,
    slice: SimTime,
    tr: &mut Tracer,
    mut observe: impl FnMut(&World),
    mut inspect: impl FnMut(ConnId, &ConnectionStats, &mut Vec<String>),
) -> Window {
    let from = world.now();
    world.reset_link_stats();
    let mut slice_ms = Vec::new();
    let started = Stopwatch::start();
    if tr.is_on() {
        let open = tr.begin("sim.run_until");
        let mut t = from;
        while t < until {
            t = (t + slice).min(until);
            let s0 = mptcp_netsim::wall_clock();
            tr.span("sim.run_until.slice", || world.run_until(t));
            slice_ms.push(s0.elapsed().as_secs_f64() * 1e3);
            observe(world);
        }
        tr.end(open);
    } else {
        world.run_until(until);
    }
    let took = started.stop();

    let stats = tr.begin("sim.collect_stats");
    let perf = world.perf();
    let mut errors = Vec::new();
    if !perf.is_consistent() {
        errors.push(format!("event counters out of balance: {perf:?}"));
    }
    if let Some(at) = perf.stalled_at.or(perf.quiesced_at) {
        errors.push(format!("world stalled or ran dry at {at}"));
    }
    let mut tcp = TcpTotals::default();
    let delivered = base
        .delivered
        .iter()
        .enumerate()
        .map(|(c, &before)| {
            let st = world.connection_stats(c);
            tcp.add(&st);
            inspect(c, &st, &mut errors);
            st.data_delivered - before
        })
        .collect();
    let (link_offered, link_dropped) = world.link_totals();
    tr.end(stats);
    let digest = tr.span("sim.det_digest", || world.digest());
    Window {
        wall_s: took.wall_s,
        cpu_s: took.cpu_s,
        sim_s: (until - from).as_secs_f64(),
        events: perf.events_fired - base.perf.events_fired,
        events_cancelled: perf.events_cancelled - base.perf.events_cancelled,
        peak_pending: perf.peak_pending,
        delivered,
        tcp: tcp.since(base.tcp),
        link_offered,
        link_dropped,
        slice_ms,
        digest,
        errors,
    }
}
