//! # mptcp-netsim — deterministic packet-level network simulator
//!
//! The paper evaluates its congestion-control designs "by means of
//! simulations with a high-speed custom packet-level simulator, and with
//! testbed experiments on a Linux implementation" (§1). This crate is that
//! simulator, rebuilt in Rust:
//!
//! * a **discrete-event core** ([`Simulator`]) with nanosecond timestamps
//!   and fully deterministic execution (a seeded RNG drives every random
//!   choice; ties in the event queue break on insertion order);
//! * **links** with a configurable rate, propagation delay, drop-tail queue
//!   and optional Bernoulli random loss (for modelling lossy wireless);
//! * a **TCP NewReno sender/receiver** per subflow: slow start, congestion
//!   avoidance, fast retransmit on three duplicate ACKs, NewReno partial-ACK
//!   recovery, and the RFC 6298 retransmission timer
//!   ([`mptcp_cc::RtoEstimator`], the copy `mptcp-proto` runs too);
//! * **multipath connections** that stripe one data stream across several
//!   subflows "as space in the subflow windows becomes available" (§2),
//!   with the window dynamics delegated to any
//!   [`MultipathCc`](mptcp_cc::MultipathCc) implementation from `mptcp-cc`
//!   and backup-priority failover decided by [`mptcp_cc::Failover`];
//! * **constant-bit-rate sources** with optional Markov on/off bursting,
//!   used for the §3 dynamic-load experiments (Fig. 9).
//!
//! Following the smoltcp design ethos, everything is a plain poll/event
//! state machine — no async runtime, no clever type-level tricks, and no
//! hidden allocation on the per-packet hot path beyond the event queue.
//!
//! There is one simulator configuration: the event queue is the timer
//! wheel and the SACK scoreboards are rotating bitmaps, and no cargo
//! feature or constructor picks another. The `BinaryHeap` event queue the
//! wheel replaced stays compiled, private, as the reference [`queue_churn`]
//! times it against; the B-tree scoreboards are compiled only into the
//! tests that hold the bitmaps to them. [`scoreboard_churn`] times the
//! bitmap scoreboard alone.
//!
//! ## Model scope
//!
//! As in the paper's simulator, every packet is [`DEFAULT_PACKET_SIZE`] =
//! 1500 bytes, so each link's serialization time is one constant at its
//! current rate, and no receive window caps a congestion window. A link
//! changes mid-run only through a [`FaultPlan`].
//!
//! Data packets consume link capacity and queue space hop by hop; ACKs
//! return to the sender after the path's reverse propagation delay without
//! consuming queue capacity (the paper's experiments are all bottlenecked in
//! the data direction). Connection-level reassembly, receive-buffer flow
//! control and the wire protocol live in the `mptcp-proto` crate; this crate
//! measures what the paper's figures measure — subflow and link dynamics.
//!
//! ## Quick example
//!
//! ```
//! use mptcp_netsim::{ConnectionSpec, LinkSpec, Simulator, SimTime};
//! use mptcp_cc::AlgorithmKind;
//!
//! let mut sim = Simulator::new(42);
//! // One 10 Mb/s bottleneck, 10 ms one-way delay, 25-packet buffer.
//! let link = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 25));
//! let conn = sim.add_connection(
//!     ConnectionSpec::bulk(AlgorithmKind::Mptcp)
//!         .path(vec![link])
//!         .start(SimTime::ZERO),
//! );
//! sim.run_until(SimTime::from_secs(20));
//! let goodput = sim.connection_stats(conn).throughput_bps(SimTime::from_secs(20));
//! assert!(goodput > 8.0e6, "should nearly fill the 10 Mb/s link: {goodput}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// D3 (DESIGN.md §3.2d): no exact float equality in library code. Zero
// guards are exempt; tests may assert exact values.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

mod arena;
mod cast;
mod cbr;
mod conn;
mod event;
mod fault;
mod link;
mod mem;
mod packet;
mod perf;
mod probe;
mod scoreboard;
#[cfg(test)]
mod scoreboard_ref;
#[cfg(test)]
mod sent_meta_ref;
mod shard;
mod sim;
mod stats;
mod tcp;
mod time;
mod trace;
mod wheel;

pub use cbr::{CbrId, CbrSpec};
pub use conn::{ConnectionSpec, SubflowSpec};
pub use event::{queue_churn, QueueBackend};
pub use fault::{FaultAction, FaultPlan, GeParams};
pub use link::{LinkId, LinkSpec, LinkStats};
pub use mem::MemBytes;
pub use packet::DEFAULT_PACKET_SIZE;
pub use perf::{wall_clock, SimPerf};
// Re-exported so downstream crates digest sim state without naming the core
// crate (the trait behind the chaos_smoke bit-identity gate).
pub use mptcp_cc::{DetDigest, DigestWriter};
pub use probe::{
    CcPhase, LinkPoint, ProbeLog, ProbeSpec, SubflowPoint, Transition, TransitionKind,
};
pub use scoreboard::{scoreboard_churn, ScoreboardKind};
pub use shard::ShardedSimulator;
pub use sim::{ConnId, Simulator};
pub use stats::{ConnectionStats, SubflowStats};
pub use tcp::TcpParams;
pub use time::SimTime;
pub use trace::TraceWriter;
