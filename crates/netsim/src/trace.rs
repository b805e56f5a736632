//! Export of the probe's time series ([`crate::ProbeLog`]) as JSON Lines,
//! for the paper's timeline figures (Fig. 10, Fig. 15, Fig. 17).

use crate::probe::ProbeLog;
use std::io::{self, Write};

/// Writes a [`ProbeLog`] as JSON Lines: one self-describing object per
/// line, `kind` ∈ `{"subflow", "link", "transition"}`, times in seconds.
///
/// The format is deliberately flat so any JSONL-aware tool (jq, pandas,
/// gnuplot via a filter) can consume it without a schema; see
/// EXPERIMENTS.md for plotting recipes. JSON is hand-rolled — this crate
/// takes no serialization dependency — and non-finite floats (ssthresh is
/// ∞ before the first loss) are emitted as `null`.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
}

impl<W: Write> TraceWriter<W> {
    /// Wrap a byte sink (a `File`, a `Vec<u8>`, a `BufWriter`, …).
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Write every point and transition of `log`, time-ordered within each
    /// series, and return the sink.
    pub fn write_log(mut self, log: &ProbeLog) -> io::Result<W> {
        for p in &log.subflow_points {
            writeln!(
                self.out,
                "{{\"kind\":\"subflow\",\"at\":{},\"conn\":{},\"sub\":{},\"cwnd\":{},\
                 \"ssthresh\":{},\"srtt\":{},\"rto\":{},\"backoffs\":{},\"in_flight\":{},\
                 \"phase\":\"{}\"}}",
                json_f64(p.at.as_secs_f64()),
                p.conn,
                p.sub,
                json_f64(p.cwnd),
                json_f64(p.ssthresh),
                json_f64(p.srtt),
                json_f64(p.rto),
                p.backoffs,
                json_f64(p.in_flight),
                p.phase.as_str(),
            )?;
        }
        for p in &log.link_points {
            writeln!(
                self.out,
                "{{\"kind\":\"link\",\"at\":{},\"link\":{},\"queue_depth\":{},\"offered\":{},\
                 \"dropped_queue\":{},\"dropped_random\":{},\"dropped_down\":{},\
                 \"transmitted\":{}}}",
                json_f64(p.at.as_secs_f64()),
                p.link,
                p.queue_depth,
                p.stats.offered,
                p.stats.dropped_queue,
                p.stats.dropped_random,
                p.stats.dropped_down,
                p.stats.transmitted,
            )?;
        }
        for t in &log.transitions {
            writeln!(
                self.out,
                "{{\"kind\":\"transition\",\"at\":{},\"conn\":{},\"sub\":{},\"event\":\"{}\"}}",
                json_f64(t.at.as_secs_f64()),
                t.conn,
                t.sub,
                t.kind.as_str(),
            )?;
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

/// JSON-safe float formatting: finite values print as-is (Rust's `{}` for
/// f64 round-trips), non-finite become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{LinkPoint, ProbeSpec, TransitionKind};
    use crate::{ConnectionSpec, LinkSpec, LinkStats, SimTime, Simulator};
    use mptcp_cc::AlgorithmKind;

    #[test]
    fn probe_samples_subflows_links_and_transitions() {
        let mut sim = Simulator::new(7);
        // Tiny buffer forces drop-tail losses → fast recoveries.
        let l = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 5));
        let c = sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l]));
        sim.enable_probe(ProbeSpec::every(SimTime::from_millis(100)));
        sim.run_until(SimTime::from_secs(10));
        let log = sim.probe_log().expect("probe enabled");
        assert_eq!(log.subflow_points.len(), 100, "one point per 100 ms tick");
        assert_eq!(log.link_points.len(), 100);
        assert!(log.subflow_points.iter().all(|p| p.conn == c && p.sub == 0));
        // Congestion avoidance with real losses: transitions were recorded
        // and the series shows the sawtooth (cwnd varies).
        assert!(
            log.transitions.iter().any(|t| t.kind == TransitionKind::EnterFastRecovery),
            "drop-tail losses must enter fast recovery"
        );
        let cwnds: Vec<f64> = log.subflow_series(c, 0, SimTime::ZERO).map(|p| p.cwnd).collect();
        let (min, max) =
            cwnds.iter().fold((f64::MAX, 0.0_f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
        assert!(max > min + 1.0, "sawtooth should be visible: {min}..{max}");
        // Link series: cumulative counters are monotone, queue bounded.
        for pair in log.link_points.windows(2) {
            assert!(pair[1].stats.offered >= pair[0].stats.offered);
            assert!(pair[1].stats.dropped_queue >= pair[0].stats.dropped_queue);
        }
        assert!(log.link_points.iter().all(|p| p.queue_depth <= 6));
        // Means are available for the oracle.
        assert!(log.mean_cwnd(c, 0, SimTime::from_secs(2)).unwrap() > 1.0);
        assert!(log.mean_srtt(c, 0, SimTime::from_secs(2)).unwrap() > 0.02);
    }

    #[test]
    fn probe_is_history_neutral() {
        // Identical seed with and without the probe → identical delivery
        // history (sampling must not perturb the packet-level run).
        let run = |probe: bool| {
            let mut sim = Simulator::new(11);
            let l = sim.add_link(LinkSpec::mbps(8.0, SimTime::from_millis(20), 10).with_loss(0.01));
            let c = sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l]));
            if probe {
                sim.enable_probe(ProbeSpec::every(SimTime::from_millis(37)));
            }
            sim.run_until(SimTime::from_secs(15));
            let st = sim.connection_stats(c);
            (
                st.delivered_pkts(),
                st.subflows[0].retransmits,
                st.subflows[0].timeouts,
                st.subflows[0].cwnd.to_bits(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn disable_probe_returns_log_and_stops_sampling() {
        let mut sim = Simulator::new(3);
        let l = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 25));
        sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Uncoupled).path(vec![l]));
        sim.enable_probe(ProbeSpec::every(SimTime::from_secs(1)));
        sim.run_until(SimTime::from_secs(5));
        let log = sim.disable_probe().expect("was enabled");
        assert_eq!(log.subflow_points.len(), 5);
        assert!(sim.probe_log().is_none());
        sim.run_until(SimTime::from_secs(10));
        assert!(sim.disable_probe().is_none(), "no further log accumulates");
    }

    /// A link sample's line, byte for byte: the field names and their
    /// order are what plotting scripts read.
    #[test]
    fn a_link_sample_writes_its_counters_in_order() {
        let stats = LinkStats {
            offered: 15,
            dropped_queue: 1,
            dropped_random: 2,
            dropped_down: 3,
            transmitted: 4,
        };
        let point = LinkPoint { at: SimTime::from_millis(1500), link: 2, queue_depth: 5, stats };
        let log = ProbeLog { link_points: vec![point], ..ProbeLog::default() };
        let bytes = TraceWriter::new(Vec::new()).write_log(&log).unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "{\"kind\":\"link\",\"at\":1.5,\"link\":2,\"queue_depth\":5,\"offered\":15,\
             \"dropped_queue\":1,\"dropped_random\":2,\"dropped_down\":3,\"transmitted\":4}\n"
        );
    }

    #[test]
    fn trace_writer_emits_valid_jsonl() {
        let mut sim = Simulator::new(5);
        let l = sim.add_link(LinkSpec::mbps(10.0, SimTime::from_millis(10), 5));
        sim.add_connection(ConnectionSpec::bulk(AlgorithmKind::Mptcp).path(vec![l]));
        // 10 ms ticks: the first few samples land during initial slow
        // start, while ssthresh is still ∞.
        sim.enable_probe(ProbeSpec::every(SimTime::from_millis(10)));
        sim.run_until(SimTime::from_secs(5));
        let log = sim.disable_probe().unwrap();
        let bytes = TraceWriter::new(Vec::new()).write_log(&log).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            log.subflow_points.len() + log.link_points.len() + log.transitions.len()
        );
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
            assert!(line.contains("\"kind\":\""));
            // ssthresh starts at ∞ → must serialize as null, never `inf`.
            assert!(!line.contains("inf") && !line.contains("NaN"), "bad float: {line}");
        }
        assert!(text.contains("\"kind\":\"subflow\""));
        assert!(text.contains("\"kind\":\"link\""));
        assert!(text.contains("\"ssthresh\":null"), "pre-loss ssthresh is ∞ → null");
    }
}
