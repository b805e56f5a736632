//! Cross-crate integration tests: the §6 protocol layer end to end,
//! including property-based stream-integrity tests under randomized
//! network faults.

use mptcp_cc::{AlgorithmKind, DigestWriter};
use mptcp_proto::scenarios::{
    inferred_data_ack_drops_packet, payload_encoded_data_acks_deadlock,
    per_subflow_buffer_wedges, run_endpoint_churn, AckDesign, ChurnAction, ChurnEvent,
};
use mptcp_proto::{EndpointConfig, Harness, RecvBufferMode, Wire, WireFault};
use proptest::prelude::*;

fn patterned(n: usize, salt: u8) -> Vec<u8> {
    (0..n).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
}

#[test]
fn big_transfer_over_three_subflows() {
    let wires = vec![Wire::new(2_000, 1), Wire::new(7_000, 2), Wire::new(15_000, 3)];
    let mut h = Harness::new(EndpointConfig::default(), wires, 99);
    let data = patterned(500_000, 1);
    let got = h.transfer(&data, 200_000).expect("must complete");
    assert_eq!(got, data);
    for i in 0..3 {
        assert!(h.client.subflow_established(i), "subflow {i} joined");
    }
}

#[test]
fn rejected_designs_fail_and_chosen_design_does_not() {
    // The §6 counterexamples as a single integration check.
    assert!(per_subflow_buffer_wedges(RecvBufferMode::Shared, 400_000).completed);
    assert!(!per_subflow_buffer_wedges(RecvBufferMode::PerSubflow, 400_000).completed);
    assert!(inferred_data_ack_drops_packet(AckDesign::Inferred));
    assert!(!inferred_data_ack_drops_packet(AckDesign::Explicit));
    assert!(payload_encoded_data_acks_deadlock(true, 10_000));
    assert!(!payload_encoded_data_acks_deadlock(false, 10_000));
}

/// Three churn schedules. Each carries 39 one-step outages, which drop
/// what a wire holds in flight: the repeated losses bring the windows
/// down into congestion avoidance, where the controllers part ways. On
/// top: join / withdraw / rejoin on two wires; a backup advertisement
/// with a client-side close and rejoin on three; a long outage and the
/// withdrawal of a not-yet-advertised address on three.
fn golden_schedules() -> [(usize, Vec<ChurnEvent>); 3] {
    use ChurnAction::*;
    let ev = |at_step, action| ChurnEvent { at_step, action };
    let with_blips = |mut events: Vec<ChurnEvent>, wires: &[usize], every: usize| {
        for k in 1..40 {
            let wire = wires[k % wires.len()];
            let delay_us = 2_000 + 1_000 * wire as u64;
            events.push(ev(k * every, Blackout { wire }));
            events.push(ev(k * every + 1, Restore { wire, delay_us }));
        }
        events
    };
    [
        (
            2,
            with_blips(
                vec![
                    ev(4, Advertise { addr_id: 1, backup: false }),
                    ev(120, Withdraw { addr_id: 1 }),
                    ev(200, Advertise { addr_id: 1, backup: false }),
                ],
                &[1, 0, 1],
                30,
            ),
        ),
        (
            3,
            with_blips(
                vec![
                    ev(2, Advertise { addr_id: 1, backup: false }),
                    ev(10, Advertise { addr_id: 2, backup: true }),
                    ev(150, ClientClose { addr_id: 1 }),
                    ev(260, ClientJoin { addr_id: 1, backup: false }),
                ],
                &[0, 1, 2],
                30,
            ),
        ),
        (
            3,
            with_blips(
                vec![
                    ev(0, ClientJoin { addr_id: 2, backup: false }),
                    ev(30, Withdraw { addr_id: 1 }),
                    ev(60, Advertise { addr_id: 1, backup: true }),
                    ev(100, Blackout { wire: 1 }),
                    ev(500, Restore { wire: 1, delay_us: 800 }),
                    ev(700, Withdraw { addr_id: 2 }),
                ],
                &[0, 2],
                35,
            ),
        ),
    ]
}

/// The protocol's observable behaviour, pinned bit for bit: the FNV-1a
/// digest of every segment `run_endpoint_churn` delivers (time, direction,
/// subflow, wire bytes) over three controllers × both receive-buffer modes
/// × three schedules, and a fold of the finishing time and both endpoints'
/// `stats()` of three `Harness::transfer`s over lossy-jittery, ISN-rewriting
/// and option-stripping wires, and the step at which the shared buffer
/// completes `per_subflow_buffer_wedges`' schedule. A refactor of the endpoint must leave every
/// constant as it is; a change that means to alter the protocol's
/// behaviour re-records them in the same commit.
#[test]
fn wire_bytes_match_the_golden_digest() {
    let mut churn = Vec::new();
    for algorithm in [AlgorithmKind::Mptcp, AlgorithmKind::Cubic, AlgorithmKind::Olia] {
        for recv_mode in [RecvBufferMode::Shared, RecvBufferMode::PerSubflow] {
            for (n_wires, events) in golden_schedules() {
                let cfg = EndpointConfig {
                    algorithm,
                    recv_mode,
                    send_buf: 1 << 18,
                    recv_buf: 1 << 18,
                    min_rto: 20_000,
                    ..EndpointConfig::default()
                };
                let out = run_endpoint_churn(cfg, n_wires, &events, 3_000_000, 3_000, 40_000);
                assert!(out.completed && out.byte_exact, "{algorithm:?} {recv_mode:?}: {out:?}");
                churn.push(format!("{:016x}", out.digest));
            }
        }
    }
    let wire_sets = [
        vec![
            Wire::new(3_000, 1)
                .with_fault(WireFault::Loss(0.04))
                .with_fault(WireFault::Jitter(2_500)),
            Wire::new(9_000, 2).with_fault(WireFault::Loss(0.02)),
        ],
        vec![
            Wire::new(3_000, 3).with_fault(WireFault::RewriteIsn(0x5A5A_0000)),
            Wire::new(5_000, 4),
        ],
        vec![Wire::new(3_000, 5).with_fault(WireFault::StripOptions), Wire::new(3_000, 6)],
    ];
    let mut transfers = Vec::new();
    for wires in wire_sets {
        let mut h = Harness::new(EndpointConfig::default(), wires, 11);
        let data = patterned(120_000, 3);
        assert_eq!(h.transfer(&data, 400_000).as_deref(), Some(&data[..]), "transfer completes");
        let mut digest = DigestWriter::new();
        digest.write_bytes(&h.now.to_be_bytes());
        digest.write_bytes(format!("{:?}", h.client.stats()).as_bytes());
        digest.write_bytes(format!("{:?}", h.server.stats()).as_bytes());
        transfers.push(format!("{:016x}", digest.finish()));
    }
    // Mptcp, Cubic, Olia; within each, Shared then PerSubflow; within
    // each, the three schedules in order.
    let golden_churn = [
        "7687274a8c6653e6", "39362bc05143bb90", "d03d0de2bebe5646",
        "9f98b6d1300b440c", "c67038f93e3959ae", "0bf5da77cf4c3ccf",
        "ff46a2d3c668e5ab", "87eb693f88688c00", "d33e077f7eba3eac",
        "278ecd20137c60d9", "36630476d50f71fd", "8c9463f40bebcc01",
        "c35292b8db54e959", "1df8057045366084", "9d7527ffc4a8eb4b",
        "4d936773732ae5fc", "c8182e0edd4f5699", "83bb4958c1f729a9",
    ];
    let golden_transfers = ["09f2d60c9278fb59", "32f5fb27f083534f", "6ec6396b434aa4a2"];
    assert_eq!(churn, golden_churn, "run_endpoint_churn wire digests");
    assert_eq!(transfers, golden_transfers, "Harness::transfer time and stats");
    let shared = per_subflow_buffer_wedges(RecvBufferMode::Shared, 400_000);
    assert_eq!(shared.steps, 135, "the §6 wedge schedule's completion step");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stream integrity: whatever combination of loss, jitter, and ISN
    /// rewriting the two paths apply, the receiver reads exactly the bytes
    /// the sender wrote.
    #[test]
    fn stream_is_byte_exact_under_random_faults(
        loss0 in 0.0_f64..0.10,
        loss1 in 0.0_f64..0.10,
        jitter in 0_u64..3_000,
        isn_offset in prop::option::of(1_u32..u32::MAX / 2),
        size in 10_000_usize..80_000,
        seed in 0_u64..1_000,
    ) {
        let mut w0 = Wire::new(3_000, seed).with_fault(WireFault::Loss(loss0));
        if jitter > 0 {
            w0 = w0.with_fault(WireFault::Jitter(jitter));
        }
        if let Some(off) = isn_offset {
            w0 = w0.with_fault(WireFault::RewriteIsn(off));
        }
        let w1 = Wire::new(8_000, seed + 1).with_fault(WireFault::Loss(loss1));
        let mut h = Harness::new(EndpointConfig::default(), vec![w0, w1], 5);
        let data = patterned(size, (seed % 251) as u8);
        let got = h.transfer(&data, 600_000);
        prop_assert!(got.is_some(), "transfer timed out");
        prop_assert_eq!(got.unwrap(), data);
    }

    /// Fallback safety: stripping options on the FIRST subflow must always
    /// produce a working regular-TCP connection, never a broken hybrid.
    #[test]
    fn fallback_under_random_loss(
        loss in 0.0_f64..0.05,
        size in 5_000_usize..40_000,
        seed in 0_u64..1_000,
    ) {
        let wires = vec![
            Wire::new(3_000, seed)
                .with_fault(WireFault::StripOptions)
                .with_fault(WireFault::Loss(loss)),
            Wire::new(3_000, seed + 9),
        ];
        let mut h = Harness::new(EndpointConfig::default(), wires, 5);
        let data = patterned(size, 7);
        let got = h.transfer(&data, 600_000);
        prop_assert!(got.is_some(), "fallback transfer timed out");
        prop_assert_eq!(got.unwrap(), data);
        prop_assert!(h.client.is_fallback());
    }
}
