//! Workload inputs, each a pure function of `--seed`.
//!
//! The library never sees the seed of these generators, only what they
//! produce: host pairs, link paths, arrival times and payload bytes.

use mptcp_netsim::{LinkId, SimTime};
use mptcp_topology::FatTree;
use mptcp_workload::{random_permutation_pairs, ChurnSchedule};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One flow to add: where it runs, when it starts and how much it sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Source host.
    pub src: usize,
    /// Destination host.
    pub dst: usize,
    /// One link path per subflow.
    pub paths: Vec<Vec<LinkId>>,
    /// Start time.
    pub start: SimTime,
    /// Packets to send; `None` is a bulk flow that never finishes.
    pub size_pkts: Option<u64>,
}

/// The pair/path generator the repo's FatTree experiments use, so the
/// benchmark's traffic is the traffic `tab_fattree` and `scale_sweep` run.
fn path_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5eed)
}

/// TP1: a random permutation of the hosts, each pair a bulk flow over
/// `subflows` randomly chosen shortest paths.
pub fn permutation_flows(ft: &FatTree, seed: u64, subflows: usize) -> Vec<Flow> {
    let mut rng = path_rng(seed);
    random_permutation_pairs(ft.host_count(), &mut rng)
        .into_iter()
        .map(|(src, dst)| Flow {
            src,
            dst,
            paths: ft.random_paths(src, dst, subflows, &mut rng),
            start: SimTime::ZERO,
            size_pkts: None,
        })
        .collect()
}

/// Short sized flows arriving on `sched`, up to two subflows each. Sources
/// walk every host with a coprime stride and destinations land at least
/// half the fabric away, so nearly all paths cross shards (the `flow_churn`
/// bench's placement).
pub fn churn_flows(ft: &FatTree, seed: u64, sched: &ChurnSchedule) -> Vec<Flow> {
    let mut rng = path_rng(seed);
    let hosts = ft.host_count();
    sched
        .arrivals()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let src = (i * 9973) % hosts;
            let dst = (src + hosts / 2 + (i * 31) % (hosts / 2 - 1) + 1) % hosts;
            Flow {
                src,
                dst,
                paths: ft.random_paths(src, dst, 2, &mut rng),
                start: a.start,
                size_pkts: Some(a.size_pkts),
            }
        })
        .collect()
}

/// Length of the repeating payload pattern `proto_bulk` sends.
pub const PATTERN_LEN: usize = 64 * 1024;

/// The payload pattern: `PATTERN_LEN` seeded bytes. The stream is this
/// block repeated, so the byte at stream offset `i` is `block[i %
/// PATTERN_LEN]` and the reader can verify without keeping the stream.
pub fn payload_pattern(seed: u64) -> Vec<u8> {
    let mut block = vec![0u8; PATTERN_LEN];
    StdRng::seed_from_u64(seed ^ 0x5eed).fill_bytes(&mut block);
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_bench::datacenter::dc_link;
    use mptcp_netsim::Simulator;

    fn k4() -> FatTree {
        FatTree::build(&mut Simulator::new(0), 4, dc_link())
    }

    fn sched() -> ChurnSchedule {
        ChurnSchedule {
            burst_flows: 300,
            burst_window: SimTime::from_millis(10),
            trickle_flows: 100,
            trickle_start: SimTime::from_millis(50),
            trickle_spacing: SimTime::from_micros(10),
            min_pkts: 4,
            max_pkts: 20,
        }
    }

    #[test]
    fn generators_are_a_pure_function_of_the_seed() {
        let ft = k4();
        assert_eq!(permutation_flows(&ft, 11, 4), permutation_flows(&ft, 11, 4));
        assert_ne!(permutation_flows(&ft, 11, 4), permutation_flows(&ft, 12, 4));
        assert_eq!(churn_flows(&ft, 11, &sched()), churn_flows(&ft, 11, &sched()));
        assert_ne!(churn_flows(&ft, 11, &sched()), churn_flows(&ft, 12, &sched()));
        assert_eq!(payload_pattern(11), payload_pattern(11));
        assert_ne!(payload_pattern(11), payload_pattern(12));
    }

    #[test]
    fn permutation_flows_cover_every_host_once_each_way() {
        let ft = k4();
        let flows = permutation_flows(&ft, 3, 4);
        let mut dsts: Vec<usize> = flows.iter().map(|f| f.dst).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, (0..ft.host_count()).collect::<Vec<_>>());
        assert!(flows.iter().enumerate().all(|(i, f)| f.src == i && f.dst != i));
        assert!(flows.iter().all(|f| !f.paths.is_empty() && f.paths.len() <= 4));
    }

    #[test]
    fn churn_flows_follow_the_schedule() {
        let ft = k4();
        let flows = churn_flows(&ft, 5, &sched());
        assert_eq!(flows.len(), 400);
        assert!(flows.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(flows.iter().all(|f| f.src != f.dst && (1..=2).contains(&f.paths.len())));
        assert!(flows.iter().all(|f| f.size_pkts.is_some_and(|s| (4..=20).contains(&s))));
    }
}
