//! The five-link torus of Fig. 7 — the §3 congestion-balancing scenario.
//!
//! "Fig. 7 shows a scenario with five bottleneck links arranged in a torus,
//! each used by two multipath flows. All paths have equal RTT of 100 ms,
//! and the buffers are one bandwidth-delay product."
//!
//! Flow *i* (i = 0..5) has one subflow over link *i* and one over link
//! *i+1 mod 5*, so each link carries two multipath flows. The experiment
//! shrinks the capacity of one link (link "C", index 2) and measures how
//! well each algorithm balances the loss rates across the ring.

use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{ConnId, ConnectionSpec, LinkId, LinkSpec, ShardedSimulator, SimTime, Simulator};

/// The built torus: five bottleneck links and five two-path flows.
#[derive(Debug, Clone)]
pub struct Torus {
    /// The five bottleneck links (A, B, C, D, E → indices 0..5).
    pub links: [LinkId; 5],
    /// The five multipath connections; flow `i` uses links `i` and `i+1`.
    pub flows: [ConnId; 5],
}

impl Torus {
    /// Index of link "A" in [`Torus::links`] (reference link of Fig. 8).
    pub const LINK_A: usize = 0;
    /// Index of link "C" (the link whose capacity the experiment varies).
    pub const LINK_C: usize = 2;

    /// Build the torus.
    ///
    /// * `capacities_pps` — capacity of each link in packets per second
    ///   (Fig. 8 keeps four at 1000 pkt/s and sweeps link C);
    /// * `algorithm` — the multipath algorithm all five flows run;
    /// * every path has an RTT of 100 ms (propagation 50 ms one way) and a
    ///   buffer of one bandwidth-delay product, as in the paper.
    pub fn build(sim: &mut Simulator, capacities_pps: [f64; 5], algorithm: AlgorithmKind) -> Self {
        let one_way = SimTime::from_millis(50);
        let rtt_secs = 0.1;
        let links: [LinkId; 5] = std::array::from_fn(|i| {
            let bdp_pkts = (capacities_pps[i] * rtt_secs).round().max(2.0) as usize;
            sim.add_link(LinkSpec::pkts_per_sec(capacities_pps[i], one_way, bdp_pkts))
        });
        let flows: [ConnId; 5] = std::array::from_fn(|i| {
            sim.add_connection(
                ConnectionSpec::bulk(algorithm)
                    .path(vec![links[i]])
                    .path(vec![links[(i + 1) % 5]]),
            )
        });
        Self { links, flows }
    }

    /// Build the torus across the shards of a [`ShardedSimulator`]:
    /// bottleneck link `i` lives on shard `i % num_shards`.
    ///
    /// Because flow `i`'s two subflows enter at different links (possibly on
    /// different shards) while the sharded engine keeps every connection's
    /// sender state on one owner shard, each subflow is fronted by a
    /// high-capacity 1 ms ingress stub on flow `i`'s owner shard (the shard
    /// of link `i`). The stubs model the sender's own uncongested NIC; the
    /// five torus links remain the only bottlenecks.
    pub fn build_sharded(
        sim: &mut ShardedSimulator,
        capacities_pps: [f64; 5],
        algorithm: AlgorithmKind,
    ) -> Self {
        let n = sim.num_shards();
        let one_way = SimTime::from_millis(50);
        let rtt_secs = 0.1;
        let links: [LinkId; 5] = std::array::from_fn(|i| {
            let bdp_pkts = (capacities_pps[i] * rtt_secs).round().max(2.0) as usize;
            sim.add_link(i % n, LinkSpec::pkts_per_sec(capacities_pps[i], one_way, bdp_pkts))
        });
        let stub = LinkSpec::pkts_per_sec(100_000.0, SimTime::from_millis(1), 10_000);
        let flows: [ConnId; 5] = std::array::from_fn(|i| {
            let owner = i % n;
            let s0 = sim.add_link(owner, stub);
            let s1 = sim.add_link(owner, stub);
            sim.add_connection(
                ConnectionSpec::bulk(algorithm)
                    .path(vec![s0, links[i]])
                    .path(vec![s1, links[(i + 1) % 5]]),
            )
        });
        Self { links, flows }
    }

    /// Ratio of measured loss rates `p_A / p_C` — Fig. 8's y-axis (1.0 means
    /// perfectly balanced congestion).
    pub fn loss_ratio_a_over_c(&self, sim: &Simulator) -> f64 {
        let pa = sim.link_stats(self.links[Self::LINK_A]).loss_rate();
        let pc = sim.link_stats(self.links[Self::LINK_C]).loss_rate();
        if pc == 0.0 {
            f64::NAN
        } else {
            pa / pc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_wires_five_links_and_flows() {
        let mut sim = Simulator::new(0);
        let t = Torus::build(&mut sim, [1000.0; 5], AlgorithmKind::Mptcp);
        assert_eq!(sim.link_count(), 5);
        assert_eq!(sim.connection_count(), 5);
        // Each link must be used by exactly two flows: check flow paths via
        // stats after a short run.
        sim.run_until(SimTime::from_secs(5));
        for (i, &f) in t.flows.iter().enumerate() {
            let st = sim.connection_stats(f);
            assert_eq!(st.subflows.len(), 2, "flow {i} has two subflows");
            assert!(st.delivered_pkts() > 0, "flow {i} moved data");
        }
    }

    #[test]
    fn sharded_torus_runs_and_is_jobs_invariant() {
        let run = |jobs: usize| {
            let mut sim = ShardedSimulator::new(11, 3);
            let t = Torus::build_sharded(&mut sim, [1000.0; 5], AlgorithmKind::Mptcp);
            sim.set_jobs(jobs);
            sim.run_until(SimTime::from_secs(30));
            for (i, &f) in t.flows.iter().enumerate() {
                let st = sim.connection_stats(f);
                assert_eq!(st.subflows.len(), 2, "flow {i} has two subflows");
                assert!(st.delivered_pkts() > 0, "flow {i} moved data");
            }
            sim.det_digest()
        };
        assert_eq!(run(1), run(2), "jobs must not change the history");
    }

    #[test]
    fn equal_capacities_balance_loss() {
        let mut sim = Simulator::new(1);
        let t = Torus::build(&mut sim, [1000.0; 5], AlgorithmKind::Mptcp);
        sim.run_until(SimTime::from_secs(60));
        sim.reset_link_stats();
        sim.run_until(SimTime::from_secs(260));
        let ratio = t.loss_ratio_a_over_c(&sim);
        assert!(
            (0.5..2.0).contains(&ratio),
            "symmetric torus should have roughly equal loss rates, got {ratio}"
        );
    }
}
