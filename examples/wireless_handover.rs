//! Wireless handover: the Fig. 17 walk, live.
//!
//! An MPTCP connection rides WiFi + 3G while the user walks around a
//! building: WiFi disappears on the stairwell, 3G picks up the slack, a
//! new basestation is acquired on the next floor. Prints a bandwidth
//! timeline with a crude ASCII area chart.
//!
//! Run with: `cargo run --release --example wireless_handover`

use mptcp_cc::AlgorithmKind;
use mptcp_netsim::{SimTime, Simulator};
use mptcp_topology::WirelessClient;
use mptcp_workload::MobilityTrace;

fn main() {
    let mut sim = Simulator::new(99);
    let w = WirelessClient::build_wifi_3g(&mut sim);
    let conn = w.add_multipath(&mut sim, AlgorithmKind::Mptcp, SimTime::ZERO);
    // The walk runs from the simulator's own queue, so every change lands
    // on its minute, not on the 15 s step boundary before it.
    sim.install_fault_plan(&MobilityTrace::paper_walk(w.link1, w.link2).to_fault_plan());

    println!("minute  wifi Mb/s  3g Mb/s   total  (w = wifi, g = 3G)");
    let step = SimTime::from_secs(15);
    let total = SimTime::from_secs(12 * 60);
    let mut now = SimTime::ZERO;
    let mut prev = (0u64, 0u64);
    while now < total {
        now += step;
        sim.run_until(now);
        let st = sim.connection_stats(conn);
        let cur = (st.subflows[0].delivered_pkts, st.subflows[1].delivered_pkts);
        let secs = step.as_secs_f64();
        let wifi = (cur.0 - prev.0) as f64 * 1500.0 * 8.0 / secs / 1e6;
        let tg = (cur.1 - prev.1) as f64 * 1500.0 * 8.0 / secs / 1e6;
        prev = cur;
        let bar = format!(
            "{}{}",
            "w".repeat(wifi.round() as usize),
            "g".repeat(tg.round() as usize)
        );
        println!(
            "{:5.2}   {:8.2}  {:7.2}  {:6.2}  {bar}",
            now.as_secs_f64() / 60.0,
            wifi,
            tg,
            wifi + tg
        );
    }
    println!();
    println!("Minutes 9–10.5 are the stairwell: WiFi gone, the 3G subflow carries");
    println!("the connection without any application-visible reconnect — the");
    println!("robustness benefit §5 demonstrates.");
}
