//! # mptcp-topology — the paper's evaluation topologies
//!
//! Builders that populate an [`mptcp_netsim::Simulator`] with the network
//! shapes the paper evaluates on, and the path-selection logic each
//! scenario uses:
//!
//! * [`torus`] — the five-link torus of Fig. 7 (§3, congestion balancing);
//! * [`dualhomed`] — the multihomed-server testbed of Fig. 10 (§3);
//! * [`fattree`] — FatTree(k) (Al-Fares et al.), §4: 128 hosts and 80
//!   eight-port switches at k = 8, with the "8 random paths" selection and
//!   an ECMP mimic ("each TCP source picks one of the shortest-hop paths at
//!   random", §4 footnote);
//! * [`bcube`] — BCube(n, k) (Guo et al.), §4: 125 three-interface hosts at
//!   n = 5, k = 2, with the BCube edge-disjoint path set;
//! * [`wireless`] — the WiFi + 3G mobile-client scenarios of §5, with the
//!   paper's link characterizations (WiFi: fast, short RTT, lossy,
//!   underbuffered; 3G: slow, overbuffered so RTTs grow to seconds).
//!
//! Every physical cable is modelled as two simplex links (one per
//! direction), so forward data of one flow and forward data of a
//! reverse-direction flow do not falsely contend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// D3 (DESIGN.md §3.2d): no exact float equality in library code. Zero
// guards are exempt; tests may assert exact values.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod bcube;
pub mod dualhomed;
pub mod fattree;
pub mod torus;
pub mod wireless;

pub use bcube::BCube;
pub use dualhomed::{DualHomedServer, ShardedDualHomed};
pub use fattree::FatTree;
pub use torus::Torus;
pub use wireless::{AccessLink, WirelessClient};
