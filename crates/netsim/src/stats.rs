//! Measurement: per-subflow and per-connection statistics.

// lint:digest-surface — every pub struct here is sim-visible state and must
// implement `DetDigest` (checked by `xtask/tests/lint_fixtures.rs`), so it
// feeds the chaos_smoke bit-identity digest and cannot silently drift.

use crate::time::SimTime;
use mptcp_cc::impl_det_digest;

/// Counters for one subflow, as observed at the end of a run (or at a
/// sampling point — callers can diff successive snapshots for time series).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubflowStats {
    /// Packets delivered in order at the receiver (goodput, packets).
    pub delivered_pkts: u64,
    /// New data packets sent (excluding retransmissions).
    pub sent_pkts: u64,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// Retransmission timeouts suffered.
    pub timeouts: u64,
    /// Fast-recovery episodes entered.
    pub fast_recoveries: u64,
    /// Congestion window at sampling time, packets.
    pub cwnd: f64,
    /// Slow-start threshold at sampling time, packets (∞ before the first
    /// loss).
    pub ssthresh: f64,
    /// Smoothed RTT at sampling time, seconds (0 if no sample yet).
    pub srtt: f64,
    /// Effective (min/max-clamped) retransmission timeout at sampling
    /// time, seconds.
    pub rto: f64,
    /// Estimated packets in the network at sampling time (SACK `pipe`).
    pub in_flight: f64,
    /// Consecutive RTO backoffs without ACK progress at sampling time.
    pub rto_backoffs: u32,
    /// Whether the subflow currently counts as potentially failed
    /// (`rto_backoffs ≥` [`mptcp_cc::POTENTIALLY_FAILED_RTO_BACKOFFS`]):
    /// no new data is scheduled on it until an ACK revives it.
    pub potentially_failed: bool,
    /// Whether the subflow runs at backup priority: it carries no data
    /// while any primary subflow is usable, and activates only when the
    /// connection's failover state machine engages.
    pub backup: bool,
    /// Whether the subflow is administratively closed (its address was
    /// withdrawn via [`crate::FaultAction::AddrRemove`] or
    /// [`crate::Simulator::admin_close_subflow`]).
    pub closed: bool,
}

impl_det_digest!(SubflowStats {
    delivered_pkts,
    sent_pkts,
    retransmits,
    timeouts,
    fast_recoveries,
    cwnd,
    ssthresh,
    srtt,
    rto,
    in_flight,
    rto_backoffs,
    potentially_failed,
    backup,
    closed,
});

/// Statistics of a whole multipath connection.
#[derive(Debug, Clone, Default)]
pub struct ConnectionStats {
    /// Per-subflow counters.
    pub subflows: Vec<SubflowStats>,
    /// Packet size used by this connection, bytes.
    pub packet_size: u32,
    /// When the connection started sending.
    pub started_at: SimTime,
    /// When the last byte was acknowledged (finite flows only).
    pub finished_at: Option<SimTime>,
    /// Distinct data packets handed to subflows (data sequence numbers
    /// assigned so far).
    pub data_sent: u64,
    /// Distinct data packets that reached the receiver — each counted
    /// **once**, no matter how many subflow copies (original plus
    /// reinjections) arrived.
    pub data_delivered: u64,
    /// Distinct data packets acknowledged (each counted once).
    pub data_acked: u64,
    /// Arrivals of data the receiver already held via another subflow
    /// copy — the duplicate traffic reinjection trades for robustness.
    /// Exactly-once delivery means `data_delivered + dup_data_arrivals`
    /// equals total first-time subflow arrivals.
    pub dup_data_arrivals: u64,
    /// Reinjected copies handed to live subflows after another subflow
    /// was declared potentially failed.
    pub reinjections_sent: u64,
    /// Stranded data packets still waiting for a live subflow with window
    /// space.
    pub reinject_pending: u64,
    /// Whether backup subflows are carrying data right now (the failover
    /// state machine is engaged).
    pub backup_active: bool,
    /// Times the failover state machine engaged the backup subflows
    /// (every usable primary closed or potentially failed).
    pub backup_activations: u64,
    /// Runtime address advertisements received
    /// ([`crate::FaultAction::AddrAdd`] /
    /// [`crate::Simulator::admin_open_subflow`]).
    pub addr_advertised: u64,
    /// Subflows (re)opened at runtime.
    pub subflows_joined: u64,
    /// Subflows administratively closed at runtime
    /// ([`crate::FaultAction::AddrRemove`]).
    pub subflows_closed: u64,
    /// Latency of the most recent backup activation: from the first
    /// unanswered primary RTO to data moving onto the backups (zero when
    /// the primaries were closed by explicit signaling).
    pub failover_latency: Option<SimTime>,
}

impl_det_digest!(ConnectionStats {
    subflows,
    packet_size,
    started_at,
    finished_at,
    data_sent,
    data_delivered,
    data_acked,
    dup_data_arrivals,
    reinjections_sent,
    reinject_pending,
    backup_active,
    backup_activations,
    addr_advertised,
    subflows_joined,
    subflows_closed,
    failover_latency,
});

impl ConnectionStats {
    /// Total packets delivered in order across subflows.
    pub fn delivered_pkts(&self) -> u64 {
        self.subflows.iter().map(|s| s.delivered_pkts).sum()
    }

    /// Goodput in bits/s measured from connection start to `now` (or to
    /// completion for a finished finite flow).
    pub fn throughput_bps(&self, now: SimTime) -> f64 {
        let end = self.finished_at.unwrap_or(now);
        let secs = end.saturating_sub(self.started_at).as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.delivered_pkts() as f64 * self.packet_size as f64 * 8.0 / secs
    }

    /// Goodput in packets/s (the unit of several of the paper's scenarios).
    pub fn throughput_pps(&self, now: SimTime) -> f64 {
        let end = self.finished_at.unwrap_or(now);
        let secs = end.saturating_sub(self.started_at).as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.delivered_pkts() as f64 / secs
    }

    /// Completion time for a finite flow, if it finished.
    pub fn completion_time(&self) -> Option<SimTime> {
        self.finished_at.map(|end| end.saturating_sub(self.started_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_accounts_for_start_offset() {
        let stats = ConnectionStats {
            subflows: vec![SubflowStats { delivered_pkts: 1000, ..Default::default() }],
            packet_size: 1500,
            started_at: SimTime::from_secs(10),
            ..Default::default()
        };
        let bps = stats.throughput_bps(SimTime::from_secs(20));
        // 1000 pkts * 1500 B * 8 b / 10 s = 1.2 Mb/s.
        assert!((bps - 1.2e6).abs() < 1.0);
        assert!((stats.throughput_pps(SimTime::from_secs(20)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn finished_flow_uses_completion_time() {
        let stats = ConnectionStats {
            subflows: vec![SubflowStats { delivered_pkts: 100, ..Default::default() }],
            packet_size: 1500,
            finished_at: Some(SimTime::from_secs(1)),
            ..Default::default()
        };
        assert!((stats.throughput_pps(SimTime::from_secs(100)) - 100.0).abs() < 1e-9);
        assert_eq!(stats.completion_time(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn zero_elapsed_yields_zero_throughput() {
        let stats = ConnectionStats {
            packet_size: 1500,
            ..Default::default()
        };
        assert_eq!(stats.throughput_bps(SimTime::ZERO), 0.0);
    }
}
