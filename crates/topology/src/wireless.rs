//! The WiFi + 3G multipath wireless client of §5.
//!
//! The paper characterizes the two technologies (§5):
//!
//! * **WiFi** — "much higher throughput and short RTTs, but … performance
//!   was very variable with quite high loss rates" and the basestation "is
//!   underbuffered";
//! * **3G** — "tends to vary on longer timescales, and we found that it is
//!   overbuffered leading to RTTs of well over a second".
//!
//! [`WirelessClient`] builds the two access links with those
//! characteristics; §2.3's reference configuration (10 ms / 4% WiFi vs
//! 100 ms / 1% 3G) and the §5 testbed rates (≈14.4 Mb/s WiFi, ≈2.1 Mb/s 3G)
//! are provided as presets. The same struct also builds the §5 *wired*
//! simulation variant (Fig. 14/16) with two lossless wired links of
//! configurable rate and RTT.

use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{ConnId, ConnectionSpec, LinkId, LinkSpec, SimTime, Simulator, SubflowSpec};

/// Parameters of one access link.
#[derive(Debug, Clone, Copy)]
pub struct AccessLink {
    /// Capacity, bits per second.
    pub rate_bps: f64,
    /// One-way propagation delay of the whole path through this access.
    pub one_way: SimTime,
    /// Buffer, packets.
    pub queue_pkts: usize,
    /// Random loss probability (wireless interference).
    pub loss: f64,
}

impl AccessLink {
    /// §5's WiFi: ≈14.4 Mb/s, ~5 ms one-way, underbuffered, lossy
    /// (interference in the 2.4 GHz band).
    pub fn wifi() -> Self {
        Self {
            rate_bps: 14.4e6,
            one_way: SimTime::from_millis(5),
            queue_pkts: 12, // underbuffered: well below the BDP-sized buffer
            loss: 0.01,
        }
    }

    /// §5's 3G: ≈2.1 Mb/s, long RTT, heavily overbuffered so queueing delay
    /// can reach "well over a second".
    pub fn three_g() -> Self {
        Self {
            rate_bps: 2.1e6,
            one_way: SimTime::from_millis(75),
            queue_pkts: 200, // overbuffered: ~1.1 s of queue at 175 pkt/s
            loss: 0.0,
        }
    }
}

/// A client with two access links to the same server.
#[derive(Debug, Clone)]
pub struct WirelessClient {
    /// Access link 1 (WiFi in the §5 experiments).
    pub link1: LinkId,
    /// Access link 2 (3G in the §5 experiments).
    pub link2: LinkId,
}

impl WirelessClient {
    /// Build the two access links.
    pub fn build(sim: &mut Simulator, l1: AccessLink, l2: AccessLink) -> Self {
        let mk = |sim: &mut Simulator, a: AccessLink| {
            sim.add_link(LinkSpec::new(a.rate_bps, a.one_way, a.queue_pkts).with_loss(a.loss))
        };
        Self { link1: mk(sim, l1), link2: mk(sim, l2) }
    }

    /// The §5 static-experiment configuration (WiFi + 3G).
    pub fn build_wifi_3g(sim: &mut Simulator) -> Self {
        Self::build(sim, AccessLink::wifi(), AccessLink::three_g())
    }

    /// A single-path TCP flow over link 1 (the competing WiFi flow S1).
    pub fn add_single_path_1(&self, sim: &mut Simulator, start: SimTime) -> ConnId {
        sim.add_connection(
            ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![self.link1]).start(start),
        )
    }

    /// A single-path TCP flow over link 2 (the competing 3G flow S2).
    pub fn add_single_path_2(&self, sim: &mut Simulator, start: SimTime) -> ConnId {
        sim.add_connection(
            ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![self.link2]).start(start),
        )
    }

    /// The multipath flow M using both access links.
    pub fn add_multipath(
        &self,
        sim: &mut Simulator,
        algorithm: AlgorithmKind,
        start: SimTime,
    ) -> ConnId {
        sim.add_connection(
            ConnectionSpec::bulk(algorithm)
                .subflow(SubflowSpec::new(vec![self.link1]))
                .subflow(SubflowSpec::new(vec![self.link2]))
                .start(start),
        )
    }

    /// The multipath flow with link 2 at backup priority: established and
    /// kept warm, but carrying no data until every subflow on link 1 is
    /// closed or potentially failed (the path-management failover
    /// experiments — a phone keeping 3G as insurance against losing WiFi).
    pub fn add_multipath_backup(
        &self,
        sim: &mut Simulator,
        algorithm: AlgorithmKind,
        start: SimTime,
    ) -> ConnId {
        sim.add_connection(
            ConnectionSpec::bulk(algorithm)
                .subflow(SubflowSpec::new(vec![self.link1]))
                .subflow(SubflowSpec::new(vec![self.link2]).backup())
                .start(start),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_alone_approaches_its_capacity() {
        let mut sim = Simulator::new(11);
        let w = WirelessClient::build_wifi_3g(&mut sim);
        let c = w.add_single_path_1(&mut sim, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(30));
        let bps = sim.connection_stats(c).throughput_bps(sim.now());
        // Lossy and underbuffered: should get a large share of 14.4 Mb/s
        // but not all of it.
        assert!(bps > 6e6, "wifi throughput too low: {bps}");
        assert!(bps < 14.4e6, "cannot exceed capacity");
    }

    #[test]
    fn three_g_rtt_inflates_with_queue() {
        let mut sim = Simulator::new(12);
        let w = WirelessClient::build_wifi_3g(&mut sim);
        let c = w.add_single_path_2(&mut sim, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(60));
        let stats = sim.connection_stats(c);
        // Overbuffered: smoothed RTT should grow well beyond the 150 ms
        // propagation RTT ("RTTs of well over a second" in the worst case).
        assert!(
            stats.subflows[0].srtt > 0.4,
            "3G srtt should inflate, got {}",
            stats.subflows[0].srtt
        );
    }

    #[test]
    fn multipath_uses_both_radios() {
        let mut sim = Simulator::new(13);
        let w = WirelessClient::build_wifi_3g(&mut sim);
        let m = w.add_multipath(&mut sim, AlgorithmKind::Mptcp, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(30));
        let stats = sim.connection_stats(m);
        assert!(stats.subflows[0].delivered_pkts > 0);
        assert!(stats.subflows[1].delivered_pkts > 0);
        // §5 static single-flow experiment: MPTCP ≈ sum of both accesses.
        let bps = stats.throughput_bps(sim.now());
        assert!(bps > 8e6, "should aggregate both links: {bps}");
    }
}
