//! Sharded intra-simulation parallelism: one world partitioned across
//! several [`Simulator`] shards, synchronized with conservative lookahead.
//!
//! ## Model
//!
//! A [`ShardedSimulator`] owns `num_shards` ordinary [`Simulator`]s. Every
//! link is added to exactly one shard (`add_link(shard, spec)`); every
//! connection lives in the shard that owns the first link of its first
//! subflow (the *owner* shard), and the first link of **every** subflow
//! must live there — the sender side of all subflows is one host. Packets
//! carry world-level connection ids; each shard resolves them through the
//! shared [`WorldMap`], which holds the world's only copy of every route.
//!
//! ## Synchronization (conservative lookahead)
//!
//! The only events that cross shards are packet arrivals, and a crossing
//! arrival is always scheduled at least `lookahead` after the event that
//! produced it, where `lookahead` is the minimum propagation delay over
//! all *boundary-crossing* links (a packet leaves a link in shard A for a
//! link — or final delivery — in shard B no earlier than A's clock plus
//! that link's delay). Time therefore advances in epochs of length
//! `lookahead`: within an epoch every shard processes its queue
//! independently, buffering cross-shard arrivals in per-destination
//! outboxes; at the epoch barrier each destination drains them in
//! ascending source-shard order — straight from the outbox when one
//! worker owns both shards, through a mailbox matrix when two do. Every
//! cross-shard arrival lands in a strictly later epoch than the one that
//! produced it, so no shard ever receives an event in its past. The
//! workers then agree on the earliest pending event and skip the epochs
//! before it (an empty epoch drains nothing, so skipping it changes no
//! queue's history). One loop serves every worker count: two meetings
//! per epoch, none when one worker runs alone.
//!
//! ## Determinism
//!
//! Each shard's `(at, seq)` event history is a pure function of the seed
//! and the (deterministic) sequence of epoch boundaries and mailbox
//! drains, none of which depend on the worker-thread count: `jobs = 1`
//! and `jobs = N` produce bit-identical merged [`DetDigest`]s
//! ([`ShardedSimulator::det_digest`]), gated by `chaos_smoke` and the
//! `shard_determinism` proptest.

use crate::conn::{ConnectionSpec, SubflowSpec};
use crate::fault::FaultPlan;
use crate::link::{LinkId, LinkSpec, LinkStats};
use crate::mem::{vec_bytes, MemBytes};
use crate::packet::Packet;
use crate::perf::SimPerf;
use crate::sim::{ConnId, ShardCtx, Simulator};
use crate::stats::ConnectionStats;
use crate::time::SimTime;
use mptcp_cc::{DetDigest, DigestWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Placement and routing tables shared by every shard of a partitioned
/// world (struct-of-arrays: dense ids indexing flat vectors). The only copy
/// of each route: [`ShardedSimulator::add_connection`] appends to it, and
/// a run hands the shards the current `Arc`, read-only while they run.
#[derive(Clone)]
pub(crate) struct WorldMap {
    /// Per global link id: `(owning shard, shard-local link id)`, packed
    /// by [`crate::cast::hop_u32`].
    link_home: Vec<u32>,
    /// Per global connection id: owning shard.
    conn_owner: Vec<u32>,
    /// Per global connection id: local id within the owner shard.
    conn_local: Vec<u32>,
    /// Prefix sums: global subflow index of each connection's first
    /// subflow (`len = conns + 1`).
    conn_sub_base: Vec<u32>,
    /// Prefix sums: index of each global subflow's first hop in `hops`
    /// (`len = total_subflows + 1`).
    sub_hop_base: Vec<u32>,
    /// Flattened per-subflow paths: `(shard, shard-local link id)` per
    /// hop, packed like `link_home`.
    hops: Vec<u32>,
    /// Minimum propagation delay over boundary-crossing links — the epoch
    /// length. `SimTime(u64::MAX)` when nothing ever crosses (the whole
    /// horizon becomes one epoch).
    lookahead: SimTime,
}

impl WorldMap {
    fn new() -> Self {
        Self {
            link_home: Vec::new(),
            conn_owner: Vec::new(),
            conn_local: Vec::new(),
            conn_sub_base: vec![0],
            sub_hop_base: vec![0],
            hops: Vec::new(),
            lookahead: SimTime(u64::MAX),
        }
    }

    /// Append one connection's subflow routes (global link ids, owner
    /// shard `owner`) and lower the lookahead to cover them. A packet
    /// crosses a boundary when it leaves the link at hop `i` for a link
    /// (or final delivery) in a different shard; the crossing takes hop
    /// `i`'s propagation delay, so the minimum over all such links bounds
    /// how far any cross-shard arrival can lag the event that produced it.
    fn push_conn(&mut self, subflows: &[SubflowSpec], owner: u32, local: u32, specs: &[LinkSpec]) {
        for path in subflows.iter().map(|sf| &sf.path) {
            for (i, &gl) in path.iter().enumerate() {
                let next = path.get(i + 1).map_or(owner, |&nl| self.home(nl).0);
                if self.home(gl).0 != next {
                    self.lookahead = self.lookahead.min(specs[gl].delay);
                }
                self.hops.push(self.link_home[gl]);
            }
            self.sub_hop_base.push(crate::cast::slab_u32(self.hops.len()));
        }
        self.conn_sub_base.push(crate::cast::slab_u32(self.sub_hop_base.len() - 1));
        self.conn_owner.push(owner);
        self.conn_local.push(local);
    }

    /// Heap bytes of the tables.
    fn heap_bytes(&self) -> u64 {
        vec_bytes(&self.link_home)
            + vec_bytes(&self.conn_owner)
            + vec_bytes(&self.conn_local)
            + vec_bytes(&self.conn_sub_base)
            + vec_bytes(&self.sub_hop_base)
            + vec_bytes(&self.hops)
    }

    #[inline]
    fn gsub(&self, conn: ConnId, sub: usize) -> usize {
        self.conn_sub_base[conn] as usize + sub
    }

    /// `(shard, local link id)` of a world-level link.
    #[inline]
    fn home(&self, link: LinkId) -> (u32, u32) {
        crate::cast::unpack_hop(self.link_home[link])
    }

    /// `(shard, local link id)` of one hop of a subflow's path.
    #[inline]
    pub(crate) fn hop(&self, conn: ConnId, sub: usize, hop: usize) -> (u32, u32) {
        crate::cast::unpack_hop(self.hops[self.sub_hop_base[self.gsub(conn, sub)] as usize + hop])
    }

    /// Number of links on a subflow's path.
    #[inline]
    pub(crate) fn path_len(&self, conn: ConnId, sub: usize) -> usize {
        let g = self.gsub(conn, sub);
        (self.sub_hop_base[g + 1] - self.sub_hop_base[g]) as usize
    }

    /// The shard owning a connection (where delivery and ACK processing
    /// happen).
    #[inline]
    pub(crate) fn owner_of(&self, conn: ConnId) -> u32 {
        self.conn_owner[conn]
    }

    /// A connection's local id within its owner shard.
    #[inline]
    pub(crate) fn local_of(&self, conn: ConnId) -> ConnId {
        self.conn_local[conn] as ConnId
    }
}

/// A single simulated world partitioned across shards, each with its own
/// event queue, advanced in lockstep epochs of one conservative lookahead
/// (conservative lookahead, DESIGN.md §3.2f). The thread count is a pure execution
/// detail: results are bit-identical for any `jobs`.
pub struct ShardedSimulator {
    shards: Vec<Simulator>,
    /// Per global link id: the spec it was created with (delays feed ACK
    /// timing and the lookahead computation).
    link_specs: Vec<LinkSpec>,
    /// Placement, routes and lookahead. Shards hold clones of this `Arc`
    /// from their first run on, so growing the world after a run copies
    /// the map once (`Arc::make_mut`) and the next run hands the copy out.
    map: Arc<WorldMap>,
    jobs: usize,
    now: SimTime,
    wall_nanos: u64,
    /// Epochs executed over every run so far.
    epochs: u64,
    /// Test-only reference: run every epoch instead of skipping idle ones.
    #[cfg(test)]
    lockstep: bool,
}

impl ShardedSimulator {
    /// Create a world of `num_shards` shards. Each shard gets its own
    /// deterministic RNG derived from `seed`, so the world's history is a
    /// pure function of `(seed, construction calls)` — independent of
    /// [`Self::set_jobs`].
    pub fn new(seed: u64, num_shards: usize) -> Self {
        assert!(num_shards > 0, "world needs at least one shard");
        let shards = (0..num_shards as u64)
            .map(|i| Simulator::new(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        Self {
            shards,
            link_specs: Vec::new(),
            map: Arc::new(WorldMap::new()),
            jobs: 1,
            now: SimTime::ZERO,
            wall_nanos: 0,
            epochs: 0,
            #[cfg(test)]
            lockstep: false,
        }
    }

    /// Number of shards the world is partitioned into.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Set the worker-thread count for subsequent [`Self::run_until`]
    /// calls (clamped to `[1, num_shards]` at run time). Purely an
    /// execution knob: any value produces the identical history.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// Current worker-thread setting.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Forward [`Simulator::set_flow_lifecycle`] to every shard: hot
    /// subflow windows are acquired at connection start and recycled one
    /// straggler-grace after the flow finishes. Call before any
    /// connection is added.
    pub fn set_flow_lifecycle(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.set_flow_lifecycle(on);
        }
    }

    /// Total hot subflow-window slots across every shard's arena — the
    /// world-wide high-water mark of simultaneously *resident* subflows
    /// (retired windows are recycled, so the count does not grow with
    /// total flows, only with peak concurrency).
    pub fn arena_hot_slots(&self) -> usize {
        self.shards.iter().map(|s| s.arena_hot_slots()).sum()
    }

    /// Total recycled hot-window acquisitions across every shard's arena.
    pub fn arena_hot_reuses(&self) -> u64 {
        self.shards.iter().map(|s| s.arena_hot_reuses()).sum()
    }

    /// Bytes the world holds, by category: every shard's
    /// [`Simulator::mem_bytes`] plus the world map and link specs, counted
    /// once however many shards share the map.
    pub fn mem_bytes(&self) -> MemBytes {
        let mut m = MemBytes::default();
        for shard in &self.shards {
            m += shard.mem_bytes();
        }
        m.world_map += self.map.heap_bytes() + vec_bytes(&self.link_specs);
        m
    }

    /// The shard owning world-level connection `conn`, and `conn`'s id
    /// there.
    #[cfg(test)]
    pub(crate) fn owner(&self, conn: ConnId) -> (&Simulator, ConnId) {
        (&self.shards[self.map.owner_of(conn) as usize], self.map.local_of(conn))
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Epochs executed by every [`Self::run_until`] so far. Epochs in
    /// which no shard has an event are skipped, so this can be far below
    /// the simulated span ÷ lookahead; like the history, it does not
    /// depend on [`Self::jobs`].
    pub fn epochs_run(&self) -> u64 {
        self.epochs
    }

    /// Add a link to `shard`; returns its world-level id (valid in every
    /// shard's connection paths).
    pub fn add_link(&mut self, shard: usize, spec: LinkSpec) -> LinkId {
        assert!(shard < self.shards.len(), "unknown shard {shard}");
        let local = self.shards[shard].add_link(spec);
        let map = Arc::make_mut(&mut self.map);
        map.link_home.push(crate::cast::hop_u32(shard, local));
        self.link_specs.push(spec);
        map.link_home.len() - 1
    }

    /// Add a connection whose subflow paths are world-level link ids;
    /// returns its world-level id. The connection lives in the shard
    /// owning the first link of its first subflow.
    ///
    /// # Panics
    /// Panics if the spec has no subflows, references unknown links, or
    /// has a subflow whose first link lives outside the owner shard (all
    /// subflows of one connection leave from the same host).
    pub fn add_connection(&mut self, spec: ConnectionSpec) -> ConnId {
        let delays = spec.timings(self.link_specs.len(), |l| self.link_specs[l]);
        let owner = self.map.home(spec.subflows[0].path[0]).0;
        for (i, sf) in spec.subflows.iter().enumerate() {
            assert_eq!(
                self.map.home(sf.path[0]).0,
                owner,
                "subflow {i}: first link must live in the owner shard {owner} \
                 (all subflows of a connection leave from one host)"
            );
        }
        let gid = self.map.conn_owner.len();
        let shard = &mut self.shards[owner as usize];
        let local = shard.connection_count();
        Arc::make_mut(&mut self.map).push_conn(
            &spec.subflows,
            owner,
            crate::cast::slab_u32(local),
            &self.link_specs,
        );
        let added = shard.admit(spec, gid, &delays);
        debug_assert_eq!(added, local);
        gid
    }

    /// Install a fault plan given in world-level link ids: each action is
    /// translated and installed into the shard owning its link, where it
    /// becomes an ordinary deterministic event.
    ///
    /// # Panics
    /// Panics if any action references an unknown link.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        let mut per_shard: Vec<FaultPlan> = vec![FaultPlan::new(); self.shards.len()];
        for &(at, action) in plan.actions() {
            let gl = action.link();
            assert!(gl < self.link_count(), "unknown link {gl}");
            let (shard, local) = self.map.home(gl);
            per_shard[shard as usize].push(at, action.with_link(local as LinkId));
        }
        for (shard, plan) in self.shards.iter_mut().zip(&per_shard) {
            if !plan.is_empty() {
                shard.install_fault_plan(plan);
            }
        }
    }

    /// A link's accumulated counters (world-level id).
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        let (shard, local) = self.map.home(link);
        self.shards[shard as usize].link_stats(local as LinkId)
    }

    /// A link's current spec (world-level id).
    pub fn link_spec(&self, link: LinkId) -> LinkSpec {
        let (shard, local) = self.map.home(link);
        self.shards[shard as usize].link_spec(local as LinkId)
    }

    /// Number of links in the world.
    pub fn link_count(&self) -> usize {
        self.map.link_home.len()
    }

    /// Number of connections in the world.
    pub fn connection_count(&self) -> usize {
        self.map.conn_owner.len()
    }

    /// Zero all link counters in every shard (discard a warm-up period).
    pub fn reset_link_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_link_stats();
        }
    }

    /// A connection's statistics snapshot (world-level id).
    pub fn connection_stats(&self, conn: ConnId) -> ConnectionStats {
        self.shards[self.map.owner_of(conn) as usize].connection_stats(self.map.local_of(conn))
    }

    /// Merged performance counters: event counts summed over shards, wall
    /// time as measured around the epoch loop (not per shard — workers
    /// run concurrently). The stall/quiesce detectors are per-`Simulator`
    /// facilities and stay `None` here.
    pub fn perf(&self) -> SimPerf {
        let mut merged = SimPerf {
            sim_elapsed: self.now,
            wall: std::time::Duration::from_nanos(self.wall_nanos),
            ..SimPerf::default()
        };
        for shard in &self.shards {
            let p = shard.perf();
            merged.events_scheduled += p.events_scheduled;
            merged.events_fired += p.events_fired;
            merged.events_cancelled += p.events_cancelled;
            merged.pending += p.pending;
            merged.peak_pending += p.peak_pending;
            merged.faults_applied += p.faults_applied;
            merged.hot_allocs += p.hot_allocs;
            merged.queue_reinserts += p.queue_reinserts;
        }
        merged
    }

    /// Merged determinism digest of the whole world: every connection's
    /// [`ConnectionStats`] in world id order, then every shard's
    /// [`SimPerf`] in shard order. Bit-identical across `jobs` settings
    /// for a fixed world — the property `chaos_smoke` gates in CI.
    pub fn det_digest(&self) -> u64 {
        let mut w = DigestWriter::new();
        for gid in 0..self.connection_count() {
            self.connection_stats(gid).det_digest(&mut w);
        }
        for shard in &self.shards {
            shard.perf().det_digest(&mut w);
        }
        w.finish()
    }

    /// Run the whole world forward to `horizon` (inclusive), advancing
    /// every shard in epochs of one lookahead on up to [`Self::jobs`]
    /// workers, each owning a contiguous chunk of shards. Worker 0 is the
    /// calling thread; the others are scoped threads. The clock ends at
    /// exactly `horizon`; the run ends early only if every shard's queue
    /// drains.
    pub fn run_until(&mut self, horizon: SimTime) {
        assert!(horizon >= self.now, "time cannot run backwards");
        let started = crate::perf::wall_clock();
        let n = self.shards.len();
        // Every outbox was emptied by the last drain of the previous run.
        for (id, shard) in self.shards.iter_mut().enumerate() {
            shard.set_shard_ctx(ShardCtx {
                id: id as u32,
                map: Arc::clone(&self.map),
                outbox: (0..n).map(|_| Vec::new()).collect(),
            });
        }
        let chunk = n.div_ceil(self.jobs.min(n));
        let workers = n.div_ceil(chunk);
        let run = EpochLoop {
            start: self.now.0,
            lookahead: self.map.lookahead.0.max(1),
            // Exclusive end of the run: `run_until(h)` processes events at
            // exactly `h`, matching the single-simulator contract.
            hlimit: horizon.0.saturating_add(1),
            chunk,
            mailboxes: (0..n).map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect()).collect(),
            bounds: (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect(),
            meeting: Barrier::new(workers),
            #[cfg(test)]
            lockstep: self.lockstep,
        };
        let (first, rest) = self.shards.split_at_mut(chunk);
        self.epochs += std::thread::scope(|scope| {
            for (w, shards) in rest.chunks_mut(chunk).enumerate() {
                let run = &run;
                scope.spawn(move || run.work(w + 1, shards));
            }
            run.work(0, first)
        });
        for shard in &mut self.shards {
            shard.finish_epochs_at(horizon);
        }
        self.now = horizon;
        self.wall_nanos += started.elapsed().as_nanos() as u64;
    }
}

/// The arrivals one shard hands another at the epoch barrier.
type Mailbox = Mutex<Vec<(SimTime, Packet)>>;

/// What the workers of one [`ShardedSimulator::run_until`] share.
struct EpochLoop {
    /// Start of the epoch grid `start + i·lookahead`.
    start: u64,
    lookahead: u64,
    /// Exclusive end of the run.
    hlimit: u64,
    /// Shards per worker; worker `w` owns shards `w·chunk ..`.
    chunk: usize,
    /// Cell `[src][dst]` holds the arrivals shard `src` hands shard `dst`
    /// when different workers own them: written by `src`'s worker before
    /// the first meeting, read by `dst`'s worker after it.
    mailboxes: Vec<Vec<Mailbox>>,
    /// Per worker: the earliest `next_event_bound()` over its shards after
    /// the drain (`u64::MAX`: none pending). Worker `w` writes slot `w`
    /// between the two meetings and everyone reads every slot after the
    /// second; `w` rewrites it only past the next first meeting, which no
    /// worker reaches before it has read, so one slot per worker suffices.
    bounds: Vec<AtomicU64>,
    meeting: Barrier,
    /// Test-only reference: run every epoch of the grid.
    #[cfg(test)]
    lockstep: bool,
}

impl EpochLoop {
    /// Worker `w`'s epoch loop over its chunk `shards`; returns the epochs
    /// run, the same count on every worker. Each epoch: run the chunk,
    /// post arrivals for other workers' shards, meet, drain every owned
    /// shard (destination-major, ascending source: the order that makes
    /// each queue's `seq` assignment independent of the worker count),
    /// publish the chunk's bound, meet, and jump. The jump goes to the
    /// epoch of the grid holding the earliest pending event: the epochs
    /// jumped over would have popped nothing and so handed nothing over,
    /// which leaves every queue's `(at, seq)` history as the lockstep loop
    /// makes it.
    fn work(&self, w: usize, shards: &mut [Simulator]) -> u64 {
        let own = w * self.chunk..w * self.chunk + shards.len();
        let (mut t, mut epochs) = (self.start, 0);
        loop {
            let window_end = t.saturating_add(self.lookahead).min(self.hlimit);
            for (src, shard) in own.clone().zip(shards.iter_mut()) {
                shard.run_epoch(SimTime(window_end - 1));
                // `Vec::append` keeps the outbox's capacity.
                for (dst, buf) in shard.shard_outbox().iter_mut().enumerate() {
                    if !buf.is_empty() && !own.contains(&dst) {
                        self.mailboxes[src][dst].lock().expect("mailbox poisoned").append(buf);
                    }
                }
            }
            epochs += 1;
            self.meet();
            for dst in own.clone() {
                for src in 0..self.mailboxes.len() {
                    if own.contains(&src) {
                        hand_over(shards, own.start, src, dst);
                    } else {
                        let mut m = self.mailboxes[src][dst].lock().expect("mailbox poisoned");
                        for (at, pkt) in m.drain(..) {
                            shards[dst - own.start].inject_arrive(at, pkt);
                        }
                    }
                }
            }
            let bound = shards.iter().filter_map(Simulator::next_event_bound).min();
            self.bounds[w].store(bound.map_or(u64::MAX, |b| b.0), Ordering::Relaxed);
            self.meet();
            let next = self.bounds.iter().map(|b| b.load(Ordering::Relaxed)).min();
            let Some(next) = next.filter(|&b| b != u64::MAX) else {
                break;
            };
            // A wheel's bound is the start of the slot holding its next
            // event and may lie below `window_end`: then take the lockstep
            // step.
            let aligned =
                self.start + next.saturating_sub(self.start) / self.lookahead * self.lookahead;
            t = window_end.max(aligned);
            #[cfg(test)]
            if self.lockstep {
                t = window_end;
            }
            if t >= self.hlimit {
                break;
            }
        }
        epochs
    }

    /// Wait for every other worker; a lone worker has no one to meet.
    fn meet(&self) {
        if self.bounds.len() > 1 {
            self.meeting.wait();
        }
    }
}

/// Move shard `src`'s buffered arrivals for shard `dst` into `dst`'s
/// queue, keeping the outbox's capacity. Both are world ids of shards in
/// the chunk `shards`, which starts at world id `base`.
fn hand_over(shards: &mut [Simulator], base: usize, src: usize, dst: usize) {
    let (s, d) = (src - base, dst - base);
    if shards[s].shard_outbox()[dst].is_empty() {
        return;
    }
    let mut buf = std::mem::take(&mut shards[s].shard_outbox()[dst]);
    for (at, pkt) in buf.drain(..) {
        shards[d].inject_arrive(at, pkt);
    }
    shards[s].shard_outbox()[dst] = buf;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use mptcp_cc::AlgorithmKind;

    /// Two shards, two multipath connections, every subflow crossing the
    /// boundary in one direction or the other.
    fn cross_world(seed: u64, num_shards: usize) -> (ShardedSimulator, Vec<ConnId>) {
        let mut sim = ShardedSimulator::new(seed, num_shards);
        let ms = SimTime::from_millis;
        let a0 = sim.add_link(0, LinkSpec::mbps(10.0, ms(10), 25));
        let a1 = sim.add_link(0, LinkSpec::mbps(8.0, ms(15), 25));
        let b0 = sim.add_link(1 % num_shards, LinkSpec::mbps(10.0, ms(10), 25));
        let b1 = sim.add_link(1 % num_shards, LinkSpec::mbps(6.0, ms(20), 25));
        let c0 = sim.add_connection(
            ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![a0, b0]).path(vec![a1, b1]),
        );
        let c1 = sim.add_connection(
            ConnectionSpec::sized(AlgorithmKind::Mptcp, 2000).path(vec![b0, a0]).path(vec![b1, a1]),
        );
        (sim, vec![c0, c1])
    }

    #[test]
    fn sharded_world_moves_data_across_the_boundary() {
        let (mut sim, conns) = cross_world(7, 2);
        sim.run_until(SimTime::from_secs(20));
        for &c in &conns {
            let stats = sim.connection_stats(c);
            assert!(stats.data_delivered > 100, "conn {c} moved no data: {stats:?}");
        }
        assert!(sim.connection_stats(conns[1]).finished_at.is_some(), "sized flow must finish");
        assert!(sim.perf().is_consistent());
    }

    #[test]
    fn jobs_do_not_change_the_history() {
        let run = |jobs: usize| {
            let (mut sim, _) = cross_world(11, 2);
            sim.set_jobs(jobs);
            sim.run_until(SimTime::from_secs(15));
            (sim.det_digest(), sim.epochs_run())
        };
        let one = run(1);
        assert_eq!(one, run(2), "jobs=2 diverged from jobs=1");
        assert_eq!(one, run(8), "jobs=8 diverged from jobs=1");
    }

    #[test]
    fn stepped_runs_match_one_shot_runs() {
        let (mut a, conns) = cross_world(13, 2);
        a.run_until(SimTime::from_secs(12));
        let stepped = |jobs: usize| {
            let (mut b, _) = cross_world(13, 2);
            b.set_jobs(jobs);
            for s in 1..=12 {
                b.run_until(SimTime::from_secs(s));
            }
            (b.det_digest(), b.epochs_run())
        };
        let one = stepped(1);
        assert_eq!(a.det_digest(), one.0);
        assert_eq!(one, stepped(2), "stepped jobs=2 diverged from jobs=1");
        assert_eq!(one, stepped(8), "stepped jobs=8 diverged from jobs=1");
        assert!(a.connection_stats(conns[0]).data_delivered > 0);
    }

    #[test]
    fn single_shard_world_degenerates_to_one_epoch() {
        // No subflow crosses a boundary → infinite lookahead → the whole
        // run is one epoch per run_until call.
        let (mut sim, conns) = cross_world(5, 1);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.epochs_run(), 1);
        assert!(sim.connection_stats(conns[0]).data_delivered > 100);
        assert!(sim.perf().is_consistent());
    }

    /// A link and a connection admitted after a run (the map is shared with
    /// the shards by then, so both copy it on write) route and deliver, and
    /// every job count still makes the same history.
    #[test]
    fn a_world_grown_after_a_run_routes_the_newcomers() {
        let run = |jobs: usize| {
            let (mut sim, _) = cross_world(19, 2);
            sim.set_jobs(jobs);
            sim.run_until(SimTime::from_secs(3));
            let c = sim.add_link(1, LinkSpec::mbps(10.0, SimTime::from_millis(5), 25));
            let late = sim.add_connection(
                ConnectionSpec::sized(AlgorithmKind::Mptcp, 500)
                    .path(vec![0, c])
                    .path(vec![1, 3])
                    .start(SimTime::from_secs(4)),
            );
            // `c` lives in shard 1 and delivers to the owner, shard 0: its
            // 5 ms delay is the new shortest crossing.
            assert_eq!(sim.map.lookahead, SimTime::from_millis(5));
            sim.run_until(SimTime::from_secs(12));
            let st = sim.connection_stats(late);
            assert!(st.finished_at.is_some() && st.data_delivered == 500, "{jobs}: {st:?}");
            (sim.det_digest(), sim.epochs_run())
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    /// The lookahead kept connection by connection equals one recomputed
    /// from every route at once, and the hop table holds each route.
    #[test]
    fn the_kept_lookahead_equals_a_recomputation() {
        let mut sim = ShardedSimulator::new(1, 3);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let links: Vec<LinkId> = (0..12)
            .map(|i| {
                let delay = SimTime::from_micros(10 + 7 * next(100) as u64);
                sim.add_link(i % 3, LinkSpec::mbps(10.0, delay, 25))
            })
            .collect();
        let mut routes: Vec<Vec<Vec<LinkId>>> = Vec::new();
        for _ in 0..40 {
            let first = links[next(links.len())];
            let owner_links: Vec<LinkId> =
                links.iter().copied().filter(|&l| l % 3 == first % 3).collect();
            let paths: Vec<Vec<LinkId>> = (0..1 + next(3))
                .map(|_| {
                    let mut p = vec![owner_links[next(owner_links.len())]];
                    p.extend((0..next(4)).map(|_| links[next(links.len())]));
                    p
                })
                .collect();
            let spec = paths
                .iter()
                .cloned()
                .fold(ConnectionSpec::bulk(AlgorithmKind::Mptcp), ConnectionSpec::path);
            sim.add_connection(spec);
            routes.push(paths);
        }
        let home = |l: LinkId| sim.map.home(l);
        let mut want = SimTime(u64::MAX);
        for (conn, paths) in routes.iter().enumerate() {
            let owner = home(paths[0][0]).0;
            for (sub, path) in paths.iter().enumerate() {
                assert_eq!(sim.map.path_len(conn, sub), path.len());
                for (h, &l) in path.iter().enumerate() {
                    assert_eq!(sim.map.hop(conn, sub, h), home(l));
                    let next_shard = path.get(h + 1).map_or(owner, |&n| home(n).0);
                    if home(l).0 != next_shard {
                        want = want.min(sim.link_spec(l).delay);
                    }
                }
            }
        }
        assert!(want < SimTime(u64::MAX), "some route must cross");
        assert_eq!(sim.map.lookahead, want);
    }

    /// Flows far apart in time on a 100 µs lookahead: every worker count
    /// runs only the epochs that hold events, the same number of them, and
    /// makes the history of the lockstep loop that runs all of them.
    #[test]
    fn idle_epochs_are_skipped_at_every_worker_count_without_changing_the_history() {
        let horizon = SimTime::from_secs(10);
        let run = |jobs: usize, lockstep: bool| {
            let mut sim = ShardedSimulator::new(23, 2);
            let us = SimTime::from_micros;
            let a = sim.add_link(0, LinkSpec::mbps(10.0, us(100), 25));
            let b = sim.add_link(1, LinkSpec::mbps(10.0, us(150), 25));
            for i in 0..5 {
                let start = SimTime::from_secs(2 * i);
                let (p, q) = if i % 2 == 0 { (a, b) } else { (b, a) };
                sim.add_connection(
                    ConnectionSpec::sized(AlgorithmKind::Mptcp, 20).path(vec![p, q]).start(start),
                );
            }
            sim.set_jobs(jobs);
            sim.lockstep = lockstep;
            sim.run_until(horizon);
            for c in 0..sim.connection_count() {
                assert_eq!(sim.connection_stats(c).data_delivered, 20, "jobs={jobs} conn {c}");
            }
            (sim.det_digest(), sim.epochs_run())
        };
        let (one, skipped) = run(1, false);
        for jobs in [2, 8] {
            assert_eq!(run(jobs, false), (one, skipped), "jobs={jobs} diverged from jobs=1");
        }
        let (reference, all) = run(2, true);
        assert_eq!(one, reference, "skipping changed the history");
        let span = horizon.as_nanos() / SimTime::from_micros(100).as_nanos();
        assert!(skipped * 20 < span, "{skipped} of {span} epochs ran");
        assert!(all > skipped * 10, "the lockstep reference ran {all} epochs, skipping {skipped}");
    }

    #[test]
    fn faults_are_split_per_shard_and_fire() {
        let (mut sim, conns) = cross_world(17, 2);
        let horizon = SimTime::from_secs(20);
        let links: Vec<LinkId> = (0..sim.link_count()).collect();
        sim.install_fault_plan(&FaultPlan::randomized(0xFA11, &links, horizon));
        let plan_len = FaultPlan::randomized(0xFA11, &links, horizon).len() as u64;
        sim.set_jobs(2);
        sim.run_until(horizon);
        assert_eq!(sim.perf().faults_applied, plan_len);
        assert!(sim.connection_stats(conns[0]).data_delivered > 0);
    }

    #[test]
    #[should_panic(expected = "first link must live in the owner shard")]
    fn split_first_links_are_rejected() {
        let mut sim = ShardedSimulator::new(1, 2);
        let a = sim.add_link(0, LinkSpec::mbps(10.0, SimTime::from_millis(10), 25));
        let b = sim.add_link(1, LinkSpec::mbps(10.0, SimTime::from_millis(10), 25));
        sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![a]).path(vec![b]));
    }
}
