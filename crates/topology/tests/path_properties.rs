//! Property tests on topology construction and path selection.

use mptcp_netsim::{LinkSpec, SimTime, Simulator};
use mptcp_topology::{BCube, FatTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

fn link() -> LinkSpec {
    LinkSpec::mbps(100.0, SimTime::from_micros(10), 50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every FatTree shortest path is loop-free, starts at the source's
    /// uplink, ends at the destination's downlink, and has the right hop
    /// count for the host pair's locality.
    #[test]
    fn fattree_paths_are_wellformed(
        k in prop::sample::select(vec![4_usize, 6, 8]),
        seed in 0_u64..1_000,
    ) {
        let mut sim = Simulator::new(0);
        let ft = FatTree::build(&mut sim, k, link());
        let hosts = ft.host_count();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let src = rng.gen_range(0..hosts);
        let mut dst = rng.gen_range(0..hosts - 1);
        if dst >= src {
            dst += 1;
        }
        let paths = ft.all_paths(src, dst);
        prop_assert!(!paths.is_empty());
        let mut seen = BTreeSet::new();
        for p in &paths {
            prop_assert!(p.len() == 2 || p.len() == 4 || p.len() == 6, "bad length {p:?}");
            let uniq: BTreeSet<_> = p.iter().collect();
            prop_assert_eq!(uniq.len(), p.len(), "loop in path");
            prop_assert!(seen.insert(p.clone()), "duplicate path");
            for &l in p {
                prop_assert!(l < sim.link_count());
            }
        }
        // Path-count formula: 1 same-edge, k/2 same-pod, (k/2)² inter-pod.
        let expected = match paths[0].len() {
            2 => 1,
            4 => k / 2,
            _ => (k / 2) * (k / 2),
        };
        prop_assert_eq!(paths.len(), expected);
    }

    /// BCube path sets are edge-disjoint and loop-free for every host pair
    /// and RNG seed.
    #[test]
    fn bcube_path_sets_edge_disjoint(
        n in 3_usize..=5,
        levels in 1_usize..=2,
        seed in 0_u64..1_000,
    ) {
        let mut sim = Simulator::new(0);
        let bc = BCube::build(&mut sim, n, levels, link());
        let hosts = bc.host_count();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let src = rng.gen_range(0..hosts);
        let mut dst = rng.gen_range(0..hosts - 1);
        if dst >= src {
            dst += 1;
        }
        let paths = bc.path_set(src, dst, &mut rng);
        prop_assert_eq!(paths.len(), levels + 1);
        let mut seen = BTreeSet::new();
        for p in &paths {
            prop_assert!(!p.is_empty());
            prop_assert_eq!(p.len() % 2, 0, "paths alternate up/down links");
            for &l in p {
                prop_assert!(seen.insert(l), "link {l} shared between paths");
            }
        }
    }

    /// BCube single-path routing visits exactly one hop per differing
    /// digit.
    #[test]
    fn bcube_single_path_hop_count(
        seed in 0_u64..1_000,
    ) {
        let mut sim = Simulator::new(0);
        let bc = BCube::build(&mut sim, 4, 2, link());
        let hosts = bc.host_count();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let src = rng.gen_range(0..hosts);
        let mut dst = rng.gen_range(0..hosts - 1);
        if dst >= src {
            dst += 1;
        }
        let differing = {
            let (mut a, mut b, mut d) = (src, dst, 0);
            for _ in 0..3 {
                if a % 4 != b % 4 {
                    d += 1;
                }
                a /= 4;
                b /= 4;
            }
            d
        };
        let path = bc.single_path(src, dst);
        prop_assert_eq!(path.len(), 2 * differing, "2 links per corrected digit");
    }
}
