//! # mptcp-proto — the Multipath TCP protocol layer of §6
//!
//! The paper's §6 describes the protocol changes TCP needs to carry one
//! data stream over several subflows, and argues that "careful
//! consideration of corner cases forced us to our specific implementation".
//! This crate implements that design as a userspace endpoint:
//!
//! * **Dual sequence spaces** — subflow sequence numbers in the header for
//!   loss detection and fast retransmission, plus a 64-bit **data sequence
//!   number** carried in a TCP-option-like structure ([`segment::MptcpOption::Dss`])
//!   for stream reassembly. A middlebox that rewrites one subflow's initial
//!   sequence number (the `pf` firewall example) therefore cannot corrupt
//!   the stream — see [`wire::WireFault::RewriteIsn`] and the tests.
//! * **Explicit data ACKs** as options, not inferred from subflow ACKs and
//!   not embedded in the payload. The §6 inference counterexample (ACK
//!   reordering makes the receive-window's trailing edge unrecoverable) and
//!   the payload-encoding deadlock are both reproduced in tests.
//! * **A single shared receive buffer**, with the advertised window
//!   measured from the data-level cumulative ACK. The per-subflow-buffer
//!   deadlock (subflow 1 stalls, subflow 2's buffer fills, the missing
//!   packet can no longer be delivered) is reproduced with the
//!   per-subflow-buffer mode switched on.
//! * **Subflow establishment** with `MP_CAPABLE`/`MP_JOIN`-style options and
//!   graceful **fallback to regular TCP** when a middlebox strips them.
//! * **Reinjection**: data unacknowledged at the data level may be
//!   retransmitted on a different subflow after a subflow RTO, so one dead
//!   path cannot stall the connection.
//!
//! The *rejected* alternatives are executable too, so each corner case is
//! a test rather than an argument: per-subflow receive buffers are
//! [`endpoint::RecvBufferMode::PerSubflow`], a mode of the same endpoint,
//! and the [`scenarios`] module replays the failure schedules
//! ([`scenarios::per_subflow_buffer_wedges`],
//! [`scenarios::inferred_data_ack_drops_packet`],
//! [`scenarios::payload_encoded_data_acks_deadlock`]).
//!
//! Congestion control is pluggable via [`mptcp_cc::MultipathCc`]; the
//! endpoint drives it with the same ACK/loss events the simulator uses.
//! Each subflow's retransmission timer is [`mptcp_cc::RtoEstimator`] and
//! backup failover is [`mptcp_cc::Failover`], the objects the simulator's
//! sender embeds: the endpoint converts its µs clock at that edge and
//! keeps no timer or failover rule of its own.
//!
//! Everything is poll-based (smoltcp-style): [`endpoint::Endpoint::poll`]
//! returns segments to transmit, [`endpoint::Endpoint::on_segment`] ingests
//! arrivals, and [`wire::Wire`] provides a deterministic lossy/reordering
//! in-memory path for tests and examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// D3 (DESIGN.md §3.2d): no exact float equality in library code. Zero
// guards are exempt; tests may assert exact values.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod endpoint;
pub mod harness;
mod path;
pub mod scenarios;
pub mod segment;
pub mod wire;

pub use endpoint::{Endpoint, EndpointConfig, EndpointStats, RecvBufferMode, SubflowStats};
pub use harness::Harness;
pub use segment::{DecodeError, MptcpOption, SegFlags, Segment};
pub use wire::{Wire, WireFault};

/// Protocol time: microseconds since an arbitrary origin. The protocol
/// layer is driven explicitly (poll-based), so this is just a number the
/// harness advances.
pub type Micros = u64;
