//! Acceptance scenario for the fault subsystem: a mid-transfer WiFi
//! blackout on the §5 dual-homed client (WiFi ≈14.4 Mb/s + 3G ≈2.1 Mb/s).
//!
//! A sized MPTCP transfer is cut off from WiFi between t = 10 s and
//! t = 25 s by a scripted [`FaultPlan`]. The connection must:
//!
//! * declare the WiFi subflow potentially failed and reinject its
//!   stranded packets onto 3G (`reinjections_sent > 0`);
//! * keep data-level goodput during the outage at (most of) the surviving
//!   3G path's capacity;
//! * finish the transfer with exactly-once delivery — every packet
//!   delivered and acknowledged once, duplicate arrivals (the cost of
//!   reinjection) discarded and counted separately;
//! * reproduce the entire history bit-identically on a re-run.

use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{ConnectionSpec, FaultPlan, SimTime, Simulator, TcpParams};
use mptcp_topology::WirelessClient;

const SIZE_PKTS: u64 = 25_000;
const OUTAGE_FROM: SimTime = SimTime::from_secs(10);
const OUTAGE_UNTIL: SimTime = SimTime::from_secs(25);
const HORIZON: SimTime = SimTime::from_secs(120);

struct Outcome {
    events: u64,
    finished_at: Option<SimTime>,
    data_delivered: u64,
    data_acked: u64,
    data_sent: u64,
    dup_data_arrivals: u64,
    reinjections_sent: u64,
    outage_goodput_bps: f64,
    wifi_failed_mid_outage: bool,
}

fn run_wifi_blackout(seed: u64) -> Outcome {
    let mut sim = Simulator::new(seed);
    let w = WirelessClient::build_wifi_3g(&mut sim);
    let conn = sim.add_connection(
        ConnectionSpec::sized(AlgorithmKind::Mptcp, SIZE_PKTS)
            .path(vec![w.link1])
            .path(vec![w.link2])
            // A mobile client retries briskly; the default 60 s RTO cap
            // would otherwise dominate recovery after a 15 s blackout.
            .tcp(TcpParams { max_rto: SimTime::from_secs(4) }),
    );
    sim.install_fault_plan(&FaultPlan::new().outage(w.link1, OUTAGE_FROM, OUTAGE_UNTIL));

    sim.run_until(OUTAGE_FROM);
    let at_start = sim.connection_stats(conn).data_delivered;
    // Mid-outage: WiFi has been dark for 10 s — long past the RTO-backoff
    // threshold that declares it potentially failed.
    sim.run_until(SimTime::from_secs(20));
    let wifi_failed_mid_outage = sim.connection_stats(conn).subflows[0].potentially_failed;
    sim.run_until(OUTAGE_UNTIL);
    let at_end = sim.connection_stats(conn).data_delivered;
    sim.run_until(HORIZON);

    let st = sim.connection_stats(conn);
    let outage_secs = OUTAGE_UNTIL.saturating_sub(OUTAGE_FROM).as_secs_f64();
    Outcome {
        events: sim.events_processed(),
        finished_at: st.finished_at,
        data_delivered: st.data_delivered,
        data_acked: st.data_acked,
        data_sent: st.data_sent,
        dup_data_arrivals: st.dup_data_arrivals,
        reinjections_sent: st.reinjections_sent,
        outage_goodput_bps: (at_end - at_start) as f64 * st.packet_size as f64 * 8.0
            / outage_secs,
        wifi_failed_mid_outage,
    }
}

#[test]
fn wifi_blackout_is_survived_exactly_once() {
    let o = run_wifi_blackout(4242);
    let done = o.finished_at.expect("transfer must complete despite the 15 s WiFi blackout");
    assert!(
        done > OUTAGE_UNTIL && done < HORIZON,
        "completion should land after the outage, well before the horizon: {done:?}"
    );
    assert_eq!(o.data_sent, SIZE_PKTS, "each packet assigned one data sequence number");
    assert_eq!(o.data_delivered, SIZE_PKTS, "zero duplicate deliveries at the data level");
    assert_eq!(o.data_acked, SIZE_PKTS, "each packet acknowledged exactly once");
    assert!(o.wifi_failed_mid_outage, "WiFi subflow must be declared potentially failed");
    assert!(
        o.reinjections_sent > 0,
        "packets stranded on the dead WiFi subflow must be reinjected on 3G"
    );
    assert!(
        o.dup_data_arrivals <= o.reinjections_sent,
        "duplicates ({}) can only come from reinjected copies ({})",
        o.dup_data_arrivals,
        o.reinjections_sent
    );
}

#[test]
fn goodput_during_outage_tracks_the_surviving_3g_path() {
    let o = run_wifi_blackout(4242);
    // 3G is ≈2.1 Mb/s; demand at least 75% of it — the transfer must keep
    // riding the surviving path, not stall waiting for WiFi.
    let floor = 0.75 * 2.1e6;
    assert!(
        o.outage_goodput_bps >= floor,
        "goodput during the WiFi outage fell to {:.2} Mb/s (< {:.2} Mb/s)",
        o.outage_goodput_bps / 1e6,
        floor / 1e6
    );
}

#[test]
fn blackout_scenario_is_bit_reproducible() {
    let a = run_wifi_blackout(77);
    let b = run_wifi_blackout(77);
    assert_eq!(a.events, b.events);
    assert_eq!(a.finished_at, b.finished_at);
    assert_eq!(a.data_delivered, b.data_delivered);
    assert_eq!(a.dup_data_arrivals, b.dup_data_arrivals);
    assert_eq!(a.reinjections_sent, b.reinjections_sent);
    assert_eq!(a.outage_goodput_bps.to_bits(), b.outage_goodput_bps.to_bits());
}
