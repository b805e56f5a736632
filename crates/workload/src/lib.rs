//! # mptcp-workload — traffic and scenario generators
//!
//! The workloads the paper's evaluation runs:
//!
//! * [`patterns`] — the §4 data-center traffic patterns: **TP1** (random
//!   permutation: "each host opens a flow to a single destination chosen
//!   uniformly at random, such that each host has a single incoming
//!   flow"), **TP2** (one-to-many: "each host opens 12 flows to 12
//!   destination hosts"), **TP3** (sparse: "30% of the hosts open one flow
//!   to a single destination chosen uniformly at random");
//! * [`arrivals`] — the §3 server-load-balancing workload: "Poisson
//!   arrivals of TCP flows with rate alternating between 10/s (light load)
//!   and 60/s (heavy load), with file sizes drawn from a Pareto
//!   distribution with mean 200 kB";
//! * [`mobility`] — the §5 walk-about-the-building connectivity trace for
//!   Fig. 17 (WiFi coverage lost on the stairwell, 3G improving, a new
//!   basestation acquired);
//! * [`churn`] — a deterministic burst-then-trickle flow-churn shape (no
//!   paper counterpart): the stress workload for the flow arena's
//!   allocation-free open/close path, used by the `flow_churn` bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// D3 (DESIGN.md §3.2d): no exact float equality in library code. Zero
// guards are exempt; tests may assert exact values.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod arrivals;
pub mod churn;
pub mod mobility;
pub mod patterns;

pub use arrivals::{AlternatingPoisson, FlowArrival, ParetoSizes};
pub use churn::ChurnSchedule;
pub use mobility::{LinkCondition, MobilityTrace, TraceEvent};
pub use patterns::{one_to_many_random, random_permutation_pairs, sparse_pairs};
