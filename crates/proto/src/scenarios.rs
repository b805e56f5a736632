//! Executable counterexamples for the protocol designs §6 rejects.
//!
//! The paper's §6 is an argument by corner case: each rejected design is
//! dismissed with a concrete failure schedule. This module makes those
//! schedules executable:
//!
//! 1. [`per_subflow_buffer_wedges`] — per-subflow receive buffers wedge
//!    when one subflow stalls while the other fills its pool (and the
//!    chosen shared-buffer design completes on the identical schedule);
//! 2. [`inferred_data_ack_drops_packet`] — inferring the data cumulative
//!    ACK from subflow ACKs mis-tracks the receive window's trailing edge
//!    when ACKs reorder across subflows (the paper's i–iv walkthrough),
//!    forcing the receiver to drop a packet the sender believed it could
//!    send;
//! 3. [`payload_encoded_data_acks_deadlock`] — carrying data ACKs inside
//!    the payload stream subjects them to flow control, producing the A/B
//!    pipelining deadlock.

use crate::endpoint::{EndpointConfig, EndpointStats, RecvBufferMode};
use crate::harness::Harness;
use crate::wire::{Wire, WireFault};
use crate::Micros;
use mptcp_cc::DigestWriter;

/// Outcome of running one of the §6 schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Whether the transfer (or exchange) completed within the step budget.
    pub completed: bool,
    /// Steps executed before completion (or the full budget).
    pub steps: usize,
}

/// §6 "Flow Control", choice 1 vs choice 2.
///
/// Schedule: a two-subflow connection with a small receive buffer. After a
/// short warm-up, subflow 0's wire turns into a black hole *while a data
/// segment of the stream's next hole is in flight on it*. Subflow 1 keeps
/// delivering later data until the receiver's (per-subflow) allowance for
/// it is exhausted. The sender's RTO eventually reinjects the hole on
/// subflow 1:
///
/// * with **per-subflow buffers** the reinjection is outside subflow 1's
///   advertised window (the pool is full of post-hole data) → wedged;
/// * with the **shared buffer** the window is measured from the data-level
///   cumulative ACK, so the hole is always admissible → completes.
pub fn per_subflow_buffer_wedges(mode: RecvBufferMode, budget: usize) -> ScenarioOutcome {
    let cfg = EndpointConfig {
        recv_buf: 6_000, // 5 × MSS: small enough to fill quickly
        mss: 1200,
        min_rto: 20_000, // fast RTOs keep the schedule short
        recv_mode: mode,
        ..EndpointConfig::default()
    };
    let mut h = Harness::new(cfg, vec![Wire::new(1_000, 1), Wire::new(1_000, 2)], 9);
    h.tick = 500;
    let data = vec![0xAB_u8; 30_000];
    let mut written = 0;
    let mut closed = false;
    let mut received = 0_usize;
    let mut buf = [0u8; 4096];
    let mut sub0_dead = false;

    for step in 0..budget {
        // Kill subflow 0 shortly after data starts flowing, so a hole is
        // stranded there.
        if !sub0_dead && h.client.peer_data_acked() > 2_400 {
            h.wires[0] = Wire::new(1_000, 3).with_fault(WireFault::Loss(0.9999999));
            sub0_dead = true;
        }
        if written < data.len() {
            written += h.client.write(&data[written..]);
        } else if !closed {
            h.client.close();
            closed = true;
        }
        h.step();
        // The application reads eagerly; the wedge (if any) is in the
        // transport, not the app.
        loop {
            let n = h.server.read(&mut buf);
            if n == 0 {
                break;
            }
            received += n;
        }
        if received == data.len() && h.server.at_eof() {
            return ScenarioOutcome { completed: true, steps: step + 1 };
        }
    }
    ScenarioOutcome { completed: false, steps: budget }
}

// ---------------------------------------------------------------------
// Scenario 2: inferring data ACKs from subflow ACKs (§6's i–iv schedule).
// ---------------------------------------------------------------------

/// What the §6 walkthrough produces under each design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckDesign {
    /// The sender infers the data cumulative ACK from subflow ACKs plus
    /// its own mapping records (the rejected design).
    Inferred,
    /// The receiver states the data cumulative ACK explicitly in an option
    /// (the paper's design).
    Explicit,
}

/// Replay §6's exact schedule: a receiver with buffer space for two
/// packets; data 1 on subflow 1, data 2 on subflow 2; the two ACKs arrive
/// in the opposite order because subflow 2's RTT is shorter. Each ACK
/// advertises the window **relative to its own reference point** (the
/// inferred data cumulative ACK at the receiver when it sent the ACK).
///
/// Returns `true` if the sender ends up transmitting packet 3 while the
/// receiver has no room for it — the drop the paper predicts. Under
/// [`AckDesign::Explicit`] this never happens.
pub fn inferred_data_ack_drops_packet(design: AckDesign) -> bool {
    // Receiver state: buffer for 2 packets, application reads nothing.
    let buffer_capacity = 2_u64;
    let mut buffered: u64 = 0; // packets held
    let mut rcv_data_cum: u64 = 0; // data packets received in order

    // The receiver gets data 1 (subflow 1, seq 10) and data 2 (subflow 2,
    // seq 20), in order. It emits two ACKs; each carries the subflow ack,
    // the window relative to the *current* data cumulative point, and —
    // in Explicit mode — that data cumulative point itself.
    struct Ack {
        subflow: usize,
        window_pkts: u64,
        data_cum: u64, // receiver's data cum when the ACK was generated
    }
    let mut acks: Vec<Ack> = Vec::new();
    for _data in [1_u64, 2] {
        rcv_data_cum += 1;
        buffered += 1;
        acks.push(Ack {
            subflow: if rcv_data_cum == 1 { 0 } else { 1 },
            window_pkts: buffer_capacity - buffered,
            data_cum: rcv_data_cum,
        });
    }
    // "Unfortunately the acks are reordered simply because the RTT on
    // path 2 is shorter than that on path 1."
    acks.reverse();

    // Sender state: it knows data 1 went on subflow 1 and data 2 on
    // subflow 2 (its scoreboard), and tracks an inferred data cum ack.
    let mut sub_acked = [false, false]; // subflow-level delivery knowledge
    let mut snd_data_cum: u64 = 0;
    let mut sent_packet_3_into_full_buffer = false;

    for ack in acks {
        sub_acked[ack.subflow] = true;
        // The window field is always taken from the newest ACK — that is
        // all TCP semantics allow. The question is what reference point
        // the sender adds it to.
        let latest_window = ack.window_pkts;
        let send_allowance = match design {
            AckDesign::Inferred => {
                // Infer the data cumulative ACK from which subflow ACKs
                // have arrived. The window from THIS ack gets added to a
                // cum reconstructed from a DIFFERENT instant — the paper's
                // "it is not possible to reliably infer the trailing edge".
                snd_data_cum =
                    if sub_acked[0] { if sub_acked[1] { 2 } else { 1 } } else { 0 };
                snd_data_cum + latest_window
            }
            AckDesign::Explicit => {
                // The explicit data ACK travels WITH its window: the pair
                // is consistent, so the trailing edge never overshoots.
                snd_data_cum = snd_data_cum.max(ack.data_cum);
                ack.data_cum + ack.window_pkts
            }
        };
        if send_allowance >= 3 {
            // Sender transmits packet 3. Does the receiver have room?
            if buffered >= buffer_capacity {
                sent_packet_3_into_full_buffer = true;
            }
        }
    }
    sent_packet_3_into_full_buffer
}

// ---------------------------------------------------------------------
// Scenario 3: data ACKs embedded in the payload stream (§6 "Encoding").
// ---------------------------------------------------------------------

/// A minimal model of two hosts whose data ACKs travel *inside* the data
/// stream (an SSL-like chunking design), and are therefore subject to the
/// peer's receive-window flow control.
///
/// Schedule (the paper's): B pipelines requests to A until **A's receive
/// buffer is full** (A's application will not read until it finishes
/// sending its response). A sends its response filling **B's send path**:
/// B wants to emit a data-ACK chunk so A can free its send buffer, but
/// B's chunk must enter the B→A stream, which A's zero receive window
/// blocks. Nobody can make progress.
///
/// Returns `true` if the exchange deadlocks within the step budget under
/// the payload-encoded design; with option-encoded ACKs (modelled by
/// letting ACK information bypass flow control) the same schedule
/// completes.
pub fn payload_encoded_data_acks_deadlock(acks_in_payload: bool, budget: usize) -> bool {
    // Byte-level toy model, two unidirectional streams with windows.
    const BUF: usize = 4; // tiny buffers, in chunks
    // A's state.
    let mut a_recv_used = BUF; // full: B pipelined requests A hasn't read
    let mut a_send_queue = 6; // response chunks A must deliver to B
    let mut a_send_buf_used = 0; // unacked chunks held in A's send buffer
    const A_SEND_BUF: usize = 3;
    // B's state.
    let mut b_recv_used = 0;
    let mut b_wants_to_ack = 0_usize; // data-ack chunks B owes A

    for _step in 0..budget {
        // A transmits response chunks while its send buffer has room and
        // B's receive buffer has room.
        if a_send_queue > 0 && a_send_buf_used < A_SEND_BUF && b_recv_used < BUF {
            a_send_queue -= 1;
            a_send_buf_used += 1;
            b_recv_used += 1;
            b_wants_to_ack += 1;
        }
        // B emits data ACKs.
        if b_wants_to_ack > 0 {
            let can_send = if acks_in_payload {
                // The ACK chunk is payload on the B→A stream: it needs
                // space in A's receive buffer.
                a_recv_used < BUF
            } else {
                // Option-encoded ACKs ride on pure TCP ACK segments,
                // exempt from flow control.
                true
            };
            if can_send {
                b_wants_to_ack -= 1;
                a_send_buf_used = a_send_buf_used.saturating_sub(1); // A frees acked response data
                if acks_in_payload {
                    a_recv_used += 1; // the chunk occupies A's buffer
                }
            }
        }
        // B's application consumes response chunks it has received.
        b_recv_used = b_recv_used.saturating_sub(1);
        // A's application reads its requests ONLY once it finished sending
        // the whole response (the paper's pipelining assumption).
        if a_send_queue == 0 && a_send_buf_used == 0 && a_recv_used > 0 {
            a_recv_used -= 1;
        }
        if a_send_queue == 0 && a_send_buf_used == 0 {
            return false; // response fully delivered and acked: no deadlock
        }
    }
    true
}

// ---------------------------------------------------------------------
// Endpoint churn: runtime path management under faults (PR 7 tentpole).
// ---------------------------------------------------------------------

/// One path-management or fault action in a churn schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnAction {
    /// Server advertises address `addr_id` via `ADD_ADDR`; the client
    /// joins it (subject to its subflow limit).
    Advertise {
        /// Address (wire/subflow index) to advertise.
        addr_id: u8,
        /// Advertise at backup priority.
        backup: bool,
    },
    /// Server withdraws address `addr_id` via `REMOVE_ADDR`; both sides
    /// tear the subflow down, reinjecting stranded in-flight data.
    Withdraw {
        /// Address to withdraw.
        addr_id: u8,
    },
    /// Client tears subflow `addr_id` down locally (its `REMOVE_ADDR`
    /// flows client → server).
    ClientClose {
        /// Subflow to close.
        addr_id: u8,
    },
    /// Client (re)joins subflow `addr_id` directly.
    ClientJoin {
        /// Subflow to join.
        addr_id: u8,
        /// Join at backup priority.
        backup: bool,
    },
    /// Wire `wire` becomes a black hole (its in-flight segments are lost).
    Blackout {
        /// Wire index.
        wire: usize,
    },
    /// Wire `wire` is restored with delay `delay_us`.
    Restore {
        /// Wire index.
        wire: usize,
        /// One-way delay of the restored wire, µs.
        delay_us: Micros,
    },
}

/// A timed churn action (fires once when the driver reaches `at_step`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// Driver step at which the action fires.
    pub at_step: usize,
    /// What happens.
    pub action: ChurnAction,
}

/// Outcome of [`run_endpoint_churn`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// The transfer finished (client closed, server at EOF) in budget.
    pub completed: bool,
    /// Steps executed.
    pub steps: usize,
    /// The received stream was byte-identical to the sent one.
    pub byte_exact: bool,
    /// FNV-1a fold over every delivered segment (time, direction, subflow,
    /// wire bytes) — two runs of the same schedule must agree exactly.
    pub digest: u64,
    /// Client-side diagnostics at the end of the run.
    pub client: EndpointStats,
    /// Server-side diagnostics at the end of the run.
    pub server: EndpointStats,
}

/// Drive a client/server pair over `n_wires` wires through a timed churn
/// schedule: addresses advertised and withdrawn, subflows joined and torn
/// down, wires blacked out and restored — all while a fixed-length stream
/// transfers client → server. The driver is fully deterministic: wire
/// seeds and restore seeds derive from the schedule, so the same inputs
/// produce the same [`ChurnOutcome::digest`] bit for bit.
///
/// Subflows beyond the first start *deferred* on the client: they join
/// only when the schedule advertises or joins them, so the schedule owns
/// the whole path-management lifecycle.
///
/// `write_per_step` app-limits the sender (0 = write as fast as the send
/// buffer drains). Throttling pins the transfer's duration to
/// `data_len / write_per_step` steps, so schedules reliably land while
/// data is in flight instead of racing a wide-open window.
pub fn run_endpoint_churn(
    cfg: EndpointConfig,
    n_wires: usize,
    events: &[ChurnEvent],
    data_len: usize,
    write_per_step: usize,
    budget: usize,
) -> ChurnOutcome {
    assert!(n_wires >= 1);
    let wires =
        (0..n_wires).map(|i| Wire::new(2_000 + 1_000 * i as Micros, i as u64 + 1)).collect();
    let mut h = Harness::new(cfg, wires, 7);
    h.tick = 500;
    for i in 1..n_wires {
        h.client.defer_join(i);
    }
    let mut events: Vec<ChurnEvent> = events.to_vec();
    events.sort_by_key(|e| e.at_step);
    let mut next_event = 0;
    let data: Vec<u8> = (0..data_len).map(|i| (i % 251) as u8).collect();
    let mut written = 0;
    let mut closed = false;
    let mut received: Vec<u8> = Vec::with_capacity(data_len);
    let mut buf = [0u8; 4096];
    let mut digest = DigestWriter::new();
    let mut restores: u64 = 0;
    let (mut completed, mut steps) = (false, budget);

    for step in 0..budget {
        while next_event < events.len() && events[next_event].at_step <= step {
            let ev = events[next_event];
            next_event += 1;
            match ev.action {
                ChurnAction::Advertise { addr_id, backup } => {
                    h.server.advertise_addr(addr_id, backup);
                }
                ChurnAction::Withdraw { addr_id } => h.server.withdraw_addr(addr_id),
                ChurnAction::ClientClose { addr_id } => {
                    h.client.close_subflow(addr_id as usize);
                }
                ChurnAction::ClientJoin { addr_id, backup } => {
                    h.client.join_subflow(addr_id as usize, backup);
                }
                ChurnAction::Blackout { wire } => {
                    h.wires[wire] = Wire::new(2_000, 1_000 + wire as u64)
                        .with_fault(WireFault::Loss(1.0 - 1e-12));
                }
                ChurnAction::Restore { wire, delay_us } => {
                    restores += 1;
                    h.wires[wire] = Wire::new(delay_us.max(100), 2_000 + restores);
                }
            }
        }
        if written < data.len() {
            let cap = if write_per_step == 0 {
                data.len()
            } else {
                (written + write_per_step).min(data.len())
            };
            written += h.client.write(&data[written..cap]);
        } else if !closed {
            h.client.close();
            closed = true;
        }
        h.step_observed(|now, to_server, i, seg| {
            digest.write_bytes(&now.to_be_bytes());
            digest.write_bytes(&[u8::from(to_server), i as u8]);
            digest.write_bytes(&seg.encode());
        });
        loop {
            let n = h.server.read(&mut buf);
            if n == 0 {
                break;
            }
            received.extend_from_slice(&buf[..n]);
        }
        if closed && h.server.at_eof() && h.client.send_complete() {
            (completed, steps) = (true, step + 1);
            break;
        }
    }
    ChurnOutcome {
        completed,
        steps,
        byte_exact: received == data,
        digest: digest.finish(),
        client: h.client.stats(),
        server: h.server.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_buffer_completes_where_per_subflow_wedges() {
        let shared = per_subflow_buffer_wedges(RecvBufferMode::Shared, 400_000);
        assert!(shared.completed, "the paper's chosen design must not wedge");
        let per_subflow = per_subflow_buffer_wedges(RecvBufferMode::PerSubflow, 400_000);
        assert!(
            !per_subflow.completed,
            "the rejected design must wedge on this schedule (finished in {} steps)",
            per_subflow.steps
        );
    }

    #[test]
    fn inferred_data_acks_lose_the_window_trailing_edge() {
        assert!(
            inferred_data_ack_drops_packet(AckDesign::Inferred),
            "the i–iv schedule must force a drop under inference"
        );
        assert!(
            !inferred_data_ack_drops_packet(AckDesign::Explicit),
            "explicit data ACKs keep sender and receiver consistent"
        );
    }

    #[test]
    fn churn_schedule_completes_byte_exact_and_reproducibly() {
        // A full path-management lifecycle mid-transfer: the server
        // advertises address 1, the client joins it; the address is
        // withdrawn with data in flight (stranded ranges reinjected on
        // subflow 0); it is re-advertised and rejoined; a blackout hits
        // wire 1 and is restored. The stream must arrive byte-exact and
        // the whole run must be digest-reproducible.
        let events = [
            ChurnEvent { at_step: 4, action: ChurnAction::Advertise { addr_id: 1, backup: false } },
            ChurnEvent { at_step: 120, action: ChurnAction::Withdraw { addr_id: 1 } },
            ChurnEvent { at_step: 200, action: ChurnAction::Advertise { addr_id: 1, backup: false } },
            ChurnEvent { at_step: 300, action: ChurnAction::Blackout { wire: 1 } },
            ChurnEvent { at_step: 450, action: ChurnAction::Restore { wire: 1, delay_us: 3_000 } },
        ];
        let run = || {
            run_endpoint_churn(EndpointConfig::default(), 2, &events, 200_000, 400, 200_000)
        };
        let a = run();
        assert!(a.completed, "churn schedule must complete: {:?}", a.steps);
        assert!(a.steps > 450, "the transfer must outlast the schedule: {}", a.steps);
        assert!(a.byte_exact, "stream must be byte-exact under churn");
        assert_eq!(a.server.data_received, 200_000, "exactly-once delivery accounting");
        assert!(a.client.subflows_joined >= 2, "join, teardown, rejoin: {:?}", a.client);
        assert!(a.client.subflows_closed >= 1, "withdrawal must close the subflow");
        assert_eq!(a.server.addr_advertised, 2, "two distinct advertisements");
        let b = run();
        assert_eq!(a, b, "identical schedules must produce identical outcomes");
    }

    #[test]
    fn payload_acks_deadlock_option_acks_do_not() {
        assert!(
            payload_encoded_data_acks_deadlock(true, 10_000),
            "payload-encoded data ACKs must deadlock the pipelined exchange"
        );
        assert!(
            !payload_encoded_data_acks_deadlock(false, 10_000),
            "option-encoded data ACKs complete the same exchange"
        );
    }
}
