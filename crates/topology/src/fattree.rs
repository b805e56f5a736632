//! FatTree(k) — the data-center topology of §4 (Al-Fares et al., Fig. 11a).
//!
//! A FatTree built from `k`-port switches has `k` pods, each with `k/2`
//! edge and `k/2` aggregation switches, plus `(k/2)²` core switches, and
//! supports `k³/4` hosts. The paper's configuration is `k = 8`: "128
//! single-interface hosts and 80 eight-port switches".
//!
//! Between hosts in different pods there are `(k/2)²` shortest paths (one
//! per core switch); within a pod but across edge switches there are `k/2`;
//! under the same edge switch there is one. The paper selects **8 paths at
//! random** for multipath and mimics **ECMP** by picking one shortest path
//! at random per single-path flow.

use mptcp_netsim::{LinkId, LinkSpec, ShardedSimulator, Simulator};
use rand::seq::SliceRandom;
use rand::Rng;

/// A built FatTree: link-id tables for every adjacency, in both directions.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Switch port count; must be even.
    pub k: usize,
    /// `host_up[h]`: host `h` → its edge switch.
    host_up: Vec<LinkId>,
    /// `host_down[h]`: edge switch → host `h`.
    host_down: Vec<LinkId>,
    /// `edge_agg_up[e][j]`: edge switch `e` (global index) → `j`-th agg
    /// switch of its pod.
    edge_agg_up: Vec<Vec<LinkId>>,
    /// `agg_edge_down[a][i]`: agg switch `a` (global) → `i`-th edge switch
    /// of its pod.
    agg_edge_down: Vec<Vec<LinkId>>,
    /// `agg_core_up[a][c]`: agg switch `a` → `c`-th core switch of its
    /// group (cores `a_pos*k/2 .. a_pos*k/2+k/2` where `a_pos` is the agg's
    /// index within the pod).
    agg_core_up: Vec<Vec<LinkId>>,
    /// `core_agg_down[core][p]`: core switch → the matching agg switch of
    /// pod `p`.
    core_agg_down: Vec<Vec<LinkId>>,
}

impl FatTree {
    /// Number of hosts: `k³/4`.
    pub fn host_count(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Number of switches: `5k²/4` (k·k/2 edge + k·k/2 agg + (k/2)² core).
    pub fn switch_count(&self) -> usize {
        5 * self.k * self.k / 4
    }

    /// Number of simplex links: `3k³/2` — `k³/2` host↕edge, `k³/2`
    /// edge↕agg and `k³/2` agg↕core, each counted in both directions.
    /// `build`/`build_sharded` create exactly this many, so large builds
    /// (the k = 48 scale rung is 165,888 links) can pre-size and verify.
    pub fn link_count(&self) -> usize {
        3 * self.k * self.k * self.k / 2
    }

    /// Build a FatTree of `k`-port switches where every (simplex) link has
    /// the given spec.
    ///
    /// # Panics
    /// Panics if `k` is odd or < 2.
    pub fn build(sim: &mut Simulator, k: usize, link: LinkSpec) -> Self {
        Self::build_inner(k, &mut |_pod| sim.add_link(link))
    }

    /// Build the same FatTree into a [`ShardedSimulator`], partitioning by
    /// pod: pod `p` (its hosts, edge and aggregation links, plus the
    /// core→agg down-links *descending into* it) lives on shard
    /// `p % num_shards`. Only the agg→core hop crosses shards, so the
    /// conservative lookahead equals one link propagation delay.
    ///
    /// Global link ids are created in exactly the same order as
    /// [`FatTree::build`], so path tables — and the deterministic `(at,
    /// seq)` history they induce — are interchangeable between the serial
    /// and sharded builds.
    pub fn build_sharded(sim: &mut ShardedSimulator, k: usize, link: LinkSpec) -> Self {
        let n = sim.num_shards();
        Self::build_inner(k, &mut |pod| sim.add_link(pod % n, link))
    }

    /// Shared construction: `add(pod)` makes the next global link, owned by
    /// `pod`'s shard in a sharded build (ignored by the serial build). The
    /// call order here *is* the global link-id order — both front-ends must
    /// stay in lockstep.
    fn build_inner(k: usize, add: &mut dyn FnMut(usize) -> LinkId) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "FatTree requires even k ≥ 2");
        let half = k / 2;
        let pods = k;
        let hosts = k * k * k / 4;
        let edges = pods * half; // global edge index = pod*half + e
        let aggs = pods * half; // global agg index = pod*half + j
        let cores = half * half; // global core index = j*half + c

        let mut t = FatTree {
            k,
            host_up: Vec::with_capacity(hosts),
            host_down: Vec::with_capacity(hosts),
            edge_agg_up: vec![Vec::with_capacity(half); edges],
            agg_edge_down: vec![Vec::with_capacity(half); aggs],
            agg_core_up: vec![Vec::with_capacity(half); aggs],
            core_agg_down: vec![Vec::with_capacity(pods); cores],
        };

        for h in 0..hosts {
            let pod = h / (half * half);
            t.host_up.push(add(pod));
            t.host_down.push(add(pod));
        }
        for e in 0..edges {
            let pod = e / half;
            for j in 0..half {
                let a = pod * half + j;
                t.edge_agg_up[e].push(add(pod));
                // agg→edge down links are indexed by the edge's position in
                // the pod; create them in lockstep so indices line up.
                let down = add(pod);
                t.agg_edge_down[a].push(down);
                // NOTE: agg_edge_down[a] must be indexed by edge position
                // e%half. Since we iterate e in order and push per (e, j),
                // agg_edge_down[a] receives its entry for edge position
                // e%half when j matches a's position; order is correct
                // because for fixed a = pod*half+j, the pushes happen for
                // e = pod*half+0 .. pod*half+half-1 in order.
            }
        }
        for a in 0..aggs {
            let pod = a / half;
            let j = a % half; // position of agg within the pod
            for c in 0..half {
                let core = j * half + c;
                t.agg_core_up[a].push(add(pod));
                // The down-link lands in the *destination* pod's shard
                // (which is `pod` here: entry `core_agg_down[core][pod]` is
                // created while visiting agg `pod*half + j`), so the only
                // shard boundary on an inter-pod path is agg→core.
                let down = add(pod);
                // core_agg_down[core][pod]: push in pod order — a iterates
                // pods in order for each fixed j.
                t.core_agg_down[core].push(down);
            }
        }
        t
    }

    /// Edge switch (global index) of host `h`.
    fn edge_of(&self, h: usize) -> usize {
        h / (self.k / 2)
    }

    /// Pod of host `h`.
    fn pod_of(&self, h: usize) -> usize {
        self.edge_of(h) / (self.k / 2)
    }

    /// Number of shortest paths from host `src` to host `dst`: one under
    /// the same edge switch, `k/2` within a pod, `(k/2)²` across pods.
    ///
    /// # Panics
    /// Panics if `src == dst` or either host is out of range.
    fn path_count(&self, src: usize, dst: usize) -> usize {
        assert!(src != dst, "no path from a host to itself");
        assert!(src < self.host_count() && dst < self.host_count());
        let half = self.k / 2;
        if self.edge_of(src) == self.edge_of(dst) {
            1
        } else if self.pod_of(src) == self.pod_of(dst) {
            half
        } else {
            half * half
        }
    }

    /// The `i`-th of [`Self::all_paths`]: within a pod path `i` goes up
    /// through agg `i`; across pods through agg `i / (k/2)` and core
    /// `i % (k/2)` of that agg's group. `i < path_count(src, dst)`.
    fn path_at(&self, src: usize, dst: usize, i: usize) -> Vec<LinkId> {
        let half = self.k / 2;
        let (e_src, e_dst) = (self.edge_of(src), self.edge_of(dst));
        let (p_src, p_dst) = (self.pod_of(src), self.pod_of(dst));
        if e_src == e_dst {
            vec![self.host_up[src], self.host_down[dst]]
        } else if p_src == p_dst {
            // Up to agg i of the pod, straight back down.
            vec![
                self.host_up[src],
                self.edge_agg_up[e_src][i],
                self.agg_edge_down[p_src * half + i][e_dst % half],
                self.host_down[dst],
            ]
        } else {
            // Up via agg j and core c of j's group, down the same way.
            let (j, c) = (i / half, i % half);
            vec![
                self.host_up[src],
                self.edge_agg_up[e_src][j],
                self.agg_core_up[p_src * half + j][c],
                self.core_agg_down[j * half + c][p_dst],
                self.agg_edge_down[p_dst * half + j][e_dst % half],
                self.host_down[dst],
            ]
        }
    }

    /// All shortest paths from host `src` to host `dst`, as link sequences.
    ///
    /// # Panics
    /// Panics if `src == dst` or either host is out of range.
    pub fn all_paths(&self, src: usize, dst: usize) -> Vec<Vec<LinkId>> {
        (0..self.path_count(src, dst)).map(|i| self.path_at(src, dst, i)).collect()
    }

    /// The paper's multipath path selection: up to `n` distinct paths
    /// chosen at random ("for each pair of hosts we selected 8 paths at
    /// random", §4).
    ///
    /// Returns exactly what shuffling [`Self::all_paths`] with `rng` and
    /// keeping the first `n` would, and leaves `rng` in the same state, but
    /// shuffles path *indices*: the cost is O(path count) in `u32`s plus
    /// the `n` paths kept, not O(path count) in paths.
    pub fn random_paths<R: Rng>(
        &self,
        src: usize,
        dst: usize,
        n: usize,
        rng: &mut R,
    ) -> Vec<Vec<LinkId>> {
        let count = self.path_count(src, dst) as u32;
        let mut picks: Vec<u32> = (0..count).collect();
        picks.shuffle(rng);
        picks.truncate(n.max(1));
        picks.into_iter().map(|i| self.path_at(src, dst, i as usize)).collect()
    }

    /// The ECMP mimic: one shortest path chosen uniformly at random
    /// (§4: "we mimicked ECMP in our simulator by making each TCP source
    /// pick one of the shortest-hop paths at random").
    pub fn ecmp_path<R: Rng>(&self, src: usize, dst: usize, rng: &mut R) -> Vec<LinkId> {
        let i = rng.gen_range(0..self.path_count(src, dst));
        self.path_at(src, dst, i)
    }

    /// All core-layer links (for loss-distribution plots, Fig. 13).
    pub fn core_links(&self) -> Vec<LinkId> {
        let mut v = Vec::new();
        for a in &self.agg_core_up {
            v.extend_from_slice(a);
        }
        for c in &self.core_agg_down {
            v.extend_from_slice(c);
        }
        v
    }

    /// All access (host) links (Fig. 13 splits distributions into core vs
    /// access links).
    pub fn access_links(&self) -> Vec<LinkId> {
        let mut v = self.host_up.clone();
        v.extend_from_slice(&self.host_down);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_netsim::SimTime;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn build_k4() -> (Simulator, FatTree) {
        let mut sim = Simulator::new(0);
        let spec = LinkSpec::mbps(100.0, SimTime::from_micros(10), 100);
        let t = FatTree::build(&mut sim, 4, spec);
        (sim, t)
    }

    #[test]
    fn paper_configuration_sizes() {
        let mut sim = Simulator::new(0);
        let spec = LinkSpec::mbps(100.0, SimTime::from_micros(10), 100);
        let t = FatTree::build(&mut sim, 8, spec);
        assert_eq!(t.host_count(), 128, "paper: 128 hosts");
        assert_eq!(t.switch_count(), 80, "paper: 80 eight-port switches");
    }

    #[test]
    fn path_counts_by_locality() {
        let (_sim, t) = build_k4();
        // k=4: hosts 0,1 share an edge switch; 0,2 share a pod; 0,4+ differ.
        assert_eq!(t.all_paths(0, 1).len(), 1);
        assert_eq!(t.all_paths(0, 2).len(), 2); // k/2 aggs
        assert_eq!(t.all_paths(0, 4).len(), 4); // (k/2)² cores
    }

    #[test]
    fn paths_start_and_end_at_the_right_hosts() {
        let (_sim, t) = build_k4();
        for dst in 1..t.host_count() {
            for p in t.all_paths(0, dst) {
                assert_eq!(p[0], t.host_up[0]);
                assert_eq!(*p.last().unwrap(), t.host_down[dst]);
                // No repeated links within one shortest path.
                let mut sorted = p.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), p.len(), "loop in path {p:?}");
            }
        }
    }

    #[test]
    fn inter_pod_paths_are_distinct() {
        let (_sim, t) = build_k4();
        let paths = t.all_paths(0, 15);
        let mut dedup = paths.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), paths.len());
    }

    #[test]
    fn random_paths_respects_n() {
        let (_sim, t) = build_k4();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(t.random_paths(0, 4, 3, &mut rng).len(), 3);
        assert_eq!(t.random_paths(0, 1, 8, &mut rng).len(), 1, "only one path exists");
    }

    /// The enumeration `all_paths` had before `path_at`: nested loops over
    /// aggs and cores building every path.
    fn reference_all_paths(t: &FatTree, src: usize, dst: usize) -> Vec<Vec<LinkId>> {
        let half = t.k / 2;
        let (e_src, e_dst) = (t.edge_of(src), t.edge_of(dst));
        let (p_src, p_dst) = (t.pod_of(src), t.pod_of(dst));
        if e_src == e_dst {
            return vec![vec![t.host_up[src], t.host_down[dst]]];
        }
        let mut paths = Vec::new();
        for j in 0..half {
            if p_src == p_dst {
                paths.push(vec![
                    t.host_up[src],
                    t.edge_agg_up[e_src][j],
                    t.agg_edge_down[p_src * half + j][e_dst % half],
                    t.host_down[dst],
                ]);
                continue;
            }
            for c in 0..half {
                paths.push(vec![
                    t.host_up[src],
                    t.edge_agg_up[e_src][j],
                    t.agg_core_up[p_src * half + j][c],
                    t.core_agg_down[j * half + c][p_dst],
                    t.agg_edge_down[p_dst * half + j][e_dst % half],
                    t.host_down[dst],
                ]);
            }
        }
        paths
    }

    /// Every host pair of K=4; at K=8/16 each sampled source with a host
    /// under its edge switch, one elsewhere in its pod and two far away.
    fn pairs(t: &FatTree) -> Vec<(usize, usize)> {
        let hosts = t.host_count();
        let half = t.k / 2;
        if t.k == 4 {
            let all = (0..hosts).flat_map(|s| (0..hosts).map(move |d| (s, d)));
            return all.filter(|(s, d)| s != d).collect();
        }
        (0..hosts)
            .step_by(37)
            .flat_map(|s| {
                [s ^ 1, s ^ half, (s + hosts / 2) % hosts, (s * 7 + 13) % hosts].map(|d| (s, d))
            })
            .filter(|(s, d)| s != d)
            .collect()
    }

    /// Index selection returns what shuffling every path did and leaves
    /// the RNG at the same position, so every seeded experiment keeps its
    /// traffic.
    #[test]
    fn index_selection_matches_shuffling_every_path() {
        let spec = LinkSpec::mbps(100.0, SimTime::from_micros(10), 100);
        for k in [4usize, 8, 16] {
            let t = FatTree::build(&mut Simulator::new(0), k, spec);
            for (i, (s, d)) in pairs(&t).into_iter().enumerate() {
                let all = reference_all_paths(&t, s, d);
                assert_eq!(t.all_paths(s, d), all, "k={k} {s}→{d}");
                assert_eq!(t.path_count(s, d), all.len());
                for n in [1usize, 2, 3, 8, 64] {
                    let mut got_rng = StdRng::seed_from_u64((i * 5 + n) as u64);
                    let mut want_rng = got_rng.clone();
                    let mut want = all.clone();
                    want.shuffle(&mut want_rng);
                    want.truncate(n);
                    let got = t.random_paths(s, d, n, &mut got_rng);
                    assert_eq!(got, want, "k={k} {s}→{d} n={n}");
                    assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "RNG, k={k} n={n}");
                }
                let mut got_rng = StdRng::seed_from_u64(i as u64);
                let mut want_rng = got_rng.clone();
                let want = all[want_rng.gen_range(0..all.len())].clone();
                assert_eq!(t.ecmp_path(s, d, &mut got_rng), want, "ecmp k={k} {s}→{d}");
                assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "ecmp RNG position");
            }
        }
    }

    #[test]
    fn ecmp_picks_a_valid_shortest_path() {
        let (_sim, t) = build_k4();
        let mut rng = StdRng::seed_from_u64(2);
        let all = t.all_paths(0, 12);
        for _ in 0..20 {
            let p = t.ecmp_path(0, 12, &mut rng);
            assert!(all.contains(&p));
        }
    }

    #[test]
    fn link_count_matches_what_build_creates() {
        for k in [2usize, 4, 8] {
            let mut sim = Simulator::new(0);
            let spec = LinkSpec::mbps(100.0, SimTime::from_micros(10), 100);
            let t = FatTree::build(&mut sim, k, spec);
            assert_eq!(sim.link_count(), t.link_count(), "k={k}");
        }
    }

    #[test]
    fn k48_scale_rung_topology_builds_with_the_advertised_dimensions() {
        // The scale_sweep k=48 rung: 27,648 hosts across 8 shards. Only
        // the topology is built here (no traffic), so the test stays
        // cheap while pinning the sizes the bench banner claims.
        let spec = LinkSpec::mbps(100.0, SimTime::from_micros(10), 100);
        let mut sim = ShardedSimulator::new(0, 8);
        let t = FatTree::build_sharded(&mut sim, 48, spec);
        assert_eq!(t.host_count(), 27_648);
        assert_eq!(t.switch_count(), 2_880);
        assert_eq!(t.link_count(), 165_888);
        assert_eq!(sim.link_count(), t.link_count());
        // Inter-pod hosts see the full (k/2)² = 576 core paths.
        assert_eq!(t.all_paths(0, t.host_count() - 1).len(), 576);
    }

    #[test]
    fn sharded_build_reproduces_the_serial_link_table() {
        let spec = LinkSpec::mbps(100.0, SimTime::from_micros(10), 100);
        let mut serial = Simulator::new(0);
        let st = FatTree::build(&mut serial, 4, spec);
        let mut sharded = ShardedSimulator::new(0, 3);
        let pt = FatTree::build_sharded(&mut sharded, 4, spec);
        assert_eq!(sharded.link_count(), serial.link_count());
        assert_eq!(st.host_up, pt.host_up);
        assert_eq!(st.host_down, pt.host_down);
        assert_eq!(st.edge_agg_up, pt.edge_agg_up);
        assert_eq!(st.agg_edge_down, pt.agg_edge_down);
        assert_eq!(st.agg_core_up, pt.agg_core_up);
        assert_eq!(st.core_agg_down, pt.core_agg_down);
    }

    #[test]
    fn sharded_transfer_crosses_pods_identically_under_any_job_count() {
        let spec = LinkSpec::mbps(100.0, SimTime::from_micros(10), 100);
        let digest_at = |jobs: usize| {
            let mut sim = ShardedSimulator::new(7, 4);
            let t = FatTree::build_sharded(&mut sim, 4, spec);
            let mut rng = StdRng::seed_from_u64(3);
            // Host 0 (pod 0) → host 12 (pod 3): every path crosses shards.
            let mut cs = mptcp_netsim::ConnectionSpec::bulk(mptcp_cc_kind());
            for p in t.random_paths(0, 12, 4, &mut rng) {
                cs = cs.path(p);
            }
            let c = sim.add_connection(cs);
            sim.set_jobs(jobs);
            sim.run_until(SimTime::from_secs(5));
            let bps = sim.connection_stats(c).throughput_bps(sim.now());
            assert!(bps > 80e6, "lone flow should fill its 100 Mb/s NIC: {bps}");
            sim.det_digest()
        };
        assert_eq!(digest_at(1), digest_at(4), "jobs must not change the history");
    }

    #[test]
    fn simulated_transfer_crosses_the_fabric() {
        let (mut sim, t) = build_k4();
        let mut rng = StdRng::seed_from_u64(3);
        let paths = t.random_paths(0, 12, 4, &mut rng);
        let mut spec = mptcp_netsim::ConnectionSpec::bulk(mptcp_cc_kind());
        for p in paths {
            spec = spec.path(p);
        }
        let c = sim.add_connection(spec);
        sim.run_until(SimTime::from_secs(5));
        let bps = sim.connection_stats(c).throughput_bps(sim.now());
        assert!(bps > 80e6, "lone flow should fill its 100 Mb/s NIC: {bps}");
    }

    fn mptcp_cc_kind() -> mptcp_cc::AlgorithmKind {
        mptcp_cc::AlgorithmKind::Mptcp
    }
}
