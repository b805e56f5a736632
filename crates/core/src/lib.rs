//! # mptcp-cc — Multipath TCP coupled congestion control
//!
//! This crate implements the congestion-control algorithms from
//! *"Design, implementation and evaluation of congestion control for
//! multipath TCP"* (Wischik, Raiciu, Greenhalgh, Handley — NSDI 2011),
//! the paper that became the basis for RFC 6356 ("LIA").
//!
//! The algorithms are expressed as **pure window-update rules** behind the
//! [`MultipathCc`] trait, completely decoupled from any particular packet
//! transport. The same objects drive:
//!
//! * the packet-level discrete-event simulator (`mptcp-netsim`),
//! * the userspace protocol stack (`mptcp-proto`),
//! * and the fluid-model equilibrium solvers in [`fluid`], which reproduce
//!   every worked example from §2 of the paper.
//!
//! ## Algorithms
//!
//! | Type | Paper section | Per-ACK increase on subflow *r* | Per-loss decrease |
//! |---|---|---|---|
//! | [`UncoupledReno`] | §2 "REGULAR TCP" | `1/w_r` | `w_r/2` |
//! | [`Ewtcp`] | §2.1 | `b²/w_r` (weight `b`) | `w_r/2` |
//! | [`Coupled`] | §2.2 | `1/w_total` | `w_total/2` |
//! | [`SemiCoupled`] | §2.4 | `a/w_total` | `w_r/2` |
//! | [`Mptcp`] | §2 / §2.5 (eq. 1) | `min_{S∋r} max_{s∈S}(w_s/RTT_s²) / (Σ_{s∈S} w_s/RTT_s)²` | `w_r/2` |
//!
//! The MPTCP rule's minimum over subsets is computed with the **linear
//! search** proved correct in the paper's appendix; an exhaustive
//! exponential-time oracle is kept in the crate for property testing.
//!
//! ## Shared transport state
//!
//! The two senders also share the per-subflow retransmission timer
//! ([`RtoEstimator`]: RFC 6298 estimation, backoff, the potentially-failed
//! threshold) and the per-connection backup-failover machine
//! ([`Failover`]). Neither does I/O or reads a clock; the caller passes
//! samples and its own notion of "now".
//!
//! ## Quick example
//!
//! ```
//! use mptcp_cc::{Mptcp, MultipathCc, SubflowSnapshot};
//!
//! let cc = Mptcp::new();
//! // Two subflows: a short fat path and a long thin one.
//! let subs = [
//!     SubflowSnapshot::new(10.0, 0.010),
//!     SubflowSnapshot::new(4.0, 0.100),
//! ];
//! let inc = cc.increase_per_ack(0, &subs);
//! // The increase is always capped by regular TCP's 1/w_r
//! // (the singleton set S = {r} is among the candidates).
//! assert!(inc <= 1.0 / subs[0].cwnd + 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// D3 (DESIGN.md §3.2d): no exact float equality in library code. Zero
// guards are exempt; tests may assert exact values.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

mod algorithm;
mod balia;
mod coupled;
mod cubic;
mod ewtcp;
mod failover;
mod lia;
mod olia;
mod reno;
mod rfc6356;
mod rto;
mod semicoupled;
mod snapshot;
mod wvegas;

pub mod digest;
pub mod fluid;
pub mod stateful;

pub use algorithm::{AlgorithmKind, MultipathCc};
pub use digest::{DetDigest, DigestWriter};
pub use stateful::{AckAction, CcDriver, PureAdapter, StatefulCc};

/// Consecutive RTO backoffs without any ACK progress after which a subflow
/// is treated as **potentially failed**: no new data is scheduled on it
/// (retransmission probes continue), and any stranded unacknowledged data
/// becomes eligible for reinjection on the remaining subflows. The first
/// ACK that shows progress clears the state ("fast revive").
///
/// Compared in one place, [`RtoEstimator::potentially_failed`], which the
/// packet-level simulator (`mptcp-netsim`) and the userspace stack
/// (`mptcp-proto`) both embed — the paper's §6 failure handling hinges on
/// this threshold being small enough that a WiFi blackout fails over
/// within a couple of RTOs.
pub const POTENTIALLY_FAILED_RTO_BACKOFFS: u32 = 2;
pub use balia::Balia;
pub use coupled::Coupled;
pub use cubic::Cubic;
pub use ewtcp::Ewtcp;
pub use failover::{Failover, FailoverEdge};
pub use lia::{lia_increase_exhaustive, lia_increase_linear, Mptcp};
pub use olia::{Olia, OliaFluid};
pub use reno::UncoupledReno;
pub use rfc6356::Rfc6356;
pub use rto::RtoEstimator;
pub use semicoupled::{semicoupled_equilibrium, SemiCoupled};
pub use snapshot::{active_count, total_window, SubflowSnapshot};
pub use wvegas::Wvegas;
