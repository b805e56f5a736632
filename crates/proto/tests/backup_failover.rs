//! Acceptance test for backup-path semantics (ISSUE PR 7, satellite 3).
//!
//! A dual-homed client runs one primary subflow (wire 0) and one backup
//! subflow (wire 1, negotiated at backup priority in the `MP_JOIN`). The
//! backup must stay warm but carry **zero data** while the primary is
//! healthy; when the primary blacks out for 15 s it must activate within
//! two RTOs of the failure clock starting, keep the stream moving, and
//! stand down once the primary revives — with exactly-once delivery
//! throughout.

use mptcp_proto::{EndpointConfig, Harness, Micros, Wire, WireFault};

const STEP_US: Micros = 500;
/// App-limited write rate: bytes offered per driver step.
const WRITE_PER_STEP: usize = 600;

struct Driver {
    h: Harness,
    data: Vec<u8>,
    written: usize,
    received: Vec<u8>,
    writing: bool,
    closed: bool,
}

impl Driver {
    fn new(cfg: EndpointConfig) -> Self {
        let mut h = Harness::new(cfg, vec![Wire::new(2_000, 1), Wire::new(3_000, 2)], 7);
        h.tick = STEP_US;
        // Subflow 1 joins at backup priority from the start.
        h.client.defer_join(1);
        h.client.join_subflow(1, true);
        Driver {
            h,
            data: Vec::new(),
            written: 0,
            received: Vec::new(),
            writing: true,
            closed: false,
        }
    }

    fn step(&mut self) {
        if self.writing {
            let fresh: Vec<u8> = (self.data.len()..self.data.len() + WRITE_PER_STEP)
                .map(|i| (i % 251) as u8)
                .collect();
            self.data.extend_from_slice(&fresh);
        }
        if self.written < self.data.len() {
            self.written += self.h.client.write(&self.data[self.written..]);
        } else if !self.writing && !self.closed {
            self.h.client.close();
            self.closed = true;
        }
        self.h.step();
        let mut buf = [0u8; 4096];
        loop {
            let n = self.h.server.read(&mut buf);
            if n == 0 {
                break;
            }
            self.received.extend_from_slice(&buf[..n]);
        }
    }

    fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }
}

#[test]
fn backup_stays_cold_activates_on_blackout_stands_down_on_revival() {
    let cfg = EndpointConfig::default();
    let mut d = Driver::new(cfg);

    // --- Phase A: 2 s healthy. Backup established but carries no data. ---
    d.run(4_000);
    let cs = d.h.client.stats();
    assert!(cs.subflows[0].established && cs.subflows[1].established);
    assert!(cs.subflows[1].backup, "subflow 1 negotiated as backup");
    assert!(d.h.server.stats().subflows[1].backup, "server learned backup priority");
    assert_eq!(
        cs.subflows[1].data_bytes_sent, 0,
        "backup must carry zero data while primaries are healthy"
    );
    assert!(!d.h.client.backup_active());
    assert!(cs.subflows[0].data_bytes_sent > 0, "primary carries the stream");
    let received_pre_blackout = d.received.len();

    // --- Phase B: primary blacks out for 15 s. ---
    d.h.wires[0] = Wire::new(2_000, 101).with_fault(WireFault::Loss(1.0 - 1e-12));
    d.run(30_000);
    let cs = d.h.client.stats();
    assert!(d.h.client.backup_active(), "failover must engage during the blackout");
    assert_eq!(cs.backup_activations, 1, "exactly one activation");
    assert!(cs.subflows[1].data_bytes_sent > 0, "backup now carries the stream");
    let lat = cs.failover_latency_us.expect("failover latency recorded");
    // The failure clock starts at the first unanswered primary RTO; the
    // subflow is potentially-failed at the second (backed-off) RTO, so the
    // latency is bounded by two minimum RTOs plus a step of slack.
    assert!(
        lat <= 2 * cfg.min_rto + 2 * STEP_US,
        "failover latency {lat} µs exceeds two RTOs"
    );
    assert!(
        d.received.len() > received_pre_blackout + 1_000_000,
        "the stream must keep moving on the backup during the blackout"
    );

    // --- Phase C: primary revives; backups stand down. The revival is
    // detected by the primary's own backed-off RTO retransmit, which after
    // a 15 s blackout can sit up to ~11 s out — give it 13 s. ---
    d.h.wires[0] = Wire::new(2_000, 102);
    d.run(26_000);
    let cs = d.h.client.stats();
    assert!(!d.h.client.backup_active(), "backups stand down once a primary revives");
    assert_eq!(cs.backup_activations, 1, "revival must not re-count activations");
    assert!(!cs.subflows[0].potentially_failed, "primary is healthy again");

    // --- Drain: finish the stream, assert exactly-once delivery. ---
    d.writing = false;
    for _ in 0..400_000 {
        d.step();
        if d.closed && d.h.server.at_eof() && d.h.client.send_complete() {
            break;
        }
    }
    assert!(
        d.closed && d.h.server.at_eof(),
        "transfer must complete after recovery: closed={} written={}/{} recvd={} client={:?} server={:?}",
        d.closed,
        d.written,
        d.data.len(),
        d.received.len(),
        d.h.client.stats(),
        d.h.server.stats()
    );
    assert_eq!(d.received, d.data, "byte-exact, zero duplicate deliveries");
    assert_eq!(
        d.h.server.stats().data_received as usize,
        d.data.len(),
        "exactly-once accounting on the receiver"
    );
}
