//! A deterministic two-endpoint test harness.
//!
//! Connects a client and a server endpoint over one [`Wire`] per subflow
//! and steps the world forward on a fixed tick, delivering due segments
//! and polling both endpoints. Used by the crate's tests and the
//! repository's examples; it is the userspace analogue of the paper's
//! testbed.

use crate::endpoint::{Endpoint, EndpointConfig};
use crate::segment::Segment;
use crate::wire::Wire;
use crate::Micros;

/// A client and server pair joined by per-subflow wires.
pub struct Harness {
    /// The initiating endpoint (sends data in the common tests).
    pub client: Endpoint,
    /// The accepting endpoint.
    pub server: Endpoint,
    /// One wire per subflow; `client` is side A.
    pub wires: Vec<Wire>,
    /// Current time, µs.
    pub now: Micros,
    /// Step size, µs.
    pub tick: Micros,
}

impl Harness {
    /// Build a harness with `wires.len()` subflows and the same config on
    /// both ends.
    pub fn new(cfg: EndpointConfig, wires: Vec<Wire>, key: u64) -> Self {
        let n = wires.len();
        assert!(n >= 1);
        Self {
            client: Endpoint::client(cfg, n, key),
            server: Endpoint::server(cfg, n, key),
            wires,
            now: 0,
            tick: 100,
        }
    }

    /// Advance one tick: deliver due segments, then poll both endpoints.
    /// Returns the number of segments moved, delivered plus sent.
    pub fn step(&mut self) -> usize {
        self.step_observed(|_, _, _, _| {})
    }

    /// [`Harness::step`], showing `seen` each delivered segment before the
    /// endpoint takes it: the time, whether it travels to the server, the
    /// subflow and the segment. The crate's drivers all step through here,
    /// so this is the one place that fixes the order of a tick (the
    /// benchmark's `protoload.rs` writes the same order out to time it).
    pub fn step_observed(&mut self, mut seen: impl FnMut(Micros, bool, usize, &Segment)) -> usize {
        self.now += self.tick;
        let now = self.now;
        let mut moved = 0;
        for (i, wire) in self.wires.iter_mut().enumerate() {
            for seg in wire.recv_a(now) {
                seen(now, false, i, &seg);
                self.client.on_segment(now, i, seg);
                moved += 1;
            }
            for seg in wire.recv_b(now) {
                seen(now, true, i, &seg);
                self.server.on_segment(now, i, seg);
                moved += 1;
            }
        }
        for (sub, seg) in self.client.poll(now) {
            self.wires[sub].send_a(now, seg);
            moved += 1;
        }
        for (sub, seg) in self.server.poll(now) {
            self.wires[sub].send_b(now, seg);
            moved += 1;
        }
        moved
    }

    /// Run until `cond` returns true or `max_ticks` elapse; returns whether
    /// the condition was met.
    pub fn run_until(&mut self, max_ticks: usize, mut cond: impl FnMut(&Harness) -> bool) -> bool {
        for _ in 0..max_ticks {
            if cond(self) {
                return true;
            }
            self.step();
        }
        cond(self)
    }

    /// Convenience: push `data` through client → server, reading at the
    /// server as it arrives; returns the received bytes, or `None` on
    /// timeout.
    pub fn transfer(&mut self, data: &[u8], max_ticks: usize) -> Option<Vec<u8>> {
        let mut written = 0;
        let mut received = Vec::new();
        let mut buf = [0u8; 4096];
        let mut closed = false;
        for _ in 0..max_ticks {
            if written < data.len() {
                written += self.client.write(&data[written..]);
            } else if !closed {
                self.client.close();
                closed = true;
            }
            self.step();
            loop {
                let n = self.server.read(&mut buf);
                if n == 0 {
                    break;
                }
                received.extend_from_slice(&buf[..n]);
            }
            if closed && self.server.at_eof() && self.client.send_complete() {
                return Some(received);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::RecvBufferMode;
    use crate::wire::WireFault;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn clean_single_subflow_transfer() {
        let mut h = Harness::new(EndpointConfig::default(), vec![Wire::new(5_000, 1)], 7);
        let data = payload(50_000);
        let got = h.transfer(&data, 20_000).expect("transfer completes");
        assert_eq!(got, data);
    }

    #[test]
    fn clean_two_subflow_transfer_uses_both() {
        let cfg = EndpointConfig::default();
        let mut h =
            Harness::new(cfg, vec![Wire::new(5_000, 1), Wire::new(8_000, 2)], 7);
        let data = payload(200_000);
        let got = h.transfer(&data, 60_000).expect("transfer completes");
        assert_eq!(got, data);
        assert!(h.client.subflow_established(0));
        assert!(h.client.subflow_established(1));
    }

    #[test]
    fn a_receive_buffer_past_the_window_field_advertises_its_maximum() {
        // The window field is 32 bits: a 4 GiB buffer must advertise
        // `u32::MAX`, not wrap to a zero window that admits nothing.
        for recv_mode in [RecvBufferMode::Shared, RecvBufferMode::PerSubflow] {
            let cfg = EndpointConfig { recv_buf: 1 << 32, recv_mode, ..EndpointConfig::default() };
            let mut h = Harness::new(cfg, vec![Wire::new(5_000, 1), Wire::new(8_000, 2)], 7);
            let data = payload(200_000);
            let got = h.transfer(&data, 100_000);
            assert_eq!(got.as_deref(), Some(&data[..]), "{recv_mode:?}: 10 s of simulated time");
        }
    }

    #[test]
    fn lossy_reordering_paths_still_deliver_exactly() {
        let cfg = EndpointConfig::default();
        let wires = vec![
            Wire::new(3_000, 1)
                .with_fault(WireFault::Loss(0.03))
                .with_fault(WireFault::Jitter(2_000)),
            Wire::new(9_000, 2).with_fault(WireFault::Loss(0.05)),
        ];
        let mut h = Harness::new(cfg, wires, 7);
        let data = payload(120_000);
        let got = h.transfer(&data, 400_000).expect("transfer completes despite loss");
        assert_eq!(got, data, "stream must be byte-exact");
        let (r0, _) = h.client.subflow_retransmits(0);
        let (r1, _) = h.client.subflow_retransmits(1);
        assert!(r0 + r1 > 0, "losses must have forced retransmissions");
    }

    #[test]
    fn option_stripping_falls_back_to_single_path_tcp() {
        let cfg = EndpointConfig::default();
        let wires = vec![
            Wire::new(3_000, 1).with_fault(WireFault::StripOptions),
            Wire::new(3_000, 2),
        ];
        let mut h = Harness::new(cfg, wires, 7);
        let data = payload(30_000);
        let got = h.transfer(&data, 100_000).expect("fallback transfer completes");
        assert_eq!(got, data);
        assert!(h.client.is_fallback(), "client must detect the stripped options");
        assert!(h.server.is_fallback());
        assert!(
            !h.client.subflow_established(1),
            "no joins once fallen back to regular TCP"
        );
    }

    #[test]
    fn isn_rewriting_firewall_is_harmless_with_dual_sequence_spaces() {
        // The pf example of §6: one subflow's ISN is rewritten in flight.
        // Because reassembly uses data sequence numbers from options, the
        // stream survives byte-exact.
        let cfg = EndpointConfig::default();
        let wires = vec![
            Wire::new(3_000, 1).with_fault(WireFault::RewriteIsn(0x5A5A_0000)),
            Wire::new(5_000, 2),
        ];
        let mut h = Harness::new(cfg, wires, 7);
        let data = payload(80_000);
        let got = h.transfer(&data, 120_000).expect("transfer completes");
        assert_eq!(got, data);
        assert!(!h.client.is_fallback(), "multipath stays enabled");
    }

    #[test]
    fn dead_subflow_does_not_stall_the_stream() {
        // Subflow 1 goes down mid-transfer (100% loss). Reinjection after
        // the subflow RTO must keep the stream moving on subflow 0.
        let cfg = EndpointConfig::default();
        let mut h = Harness::new(cfg, vec![Wire::new(3_000, 1), Wire::new(3_000, 2)], 7);
        let data = payload(150_000);
        let mut received = Vec::new();
        let mut buf = [0u8; 4096];
        // Warm up with the app writing and reading continuously; stop as
        // soon as the stream is moving briskly, so both subflows still
        // have data in flight at kill time.
        let mut written = 0;
        while h.client.peer_data_acked() < 30_000 {
            if written < data.len() {
                written += h.client.write(&data[written..]);
            }
            h.step();
            loop {
                let n = h.server.read(&mut buf);
                if n == 0 {
                    break;
                }
                received.extend_from_slice(&buf[..n]);
            }
            assert!(h.now < 10_000_000, "warmup stalled");
        }
        // Kill subflow 1 by replacing its wire with a black hole; whatever
        // it holds in flight must be reinjected on subflow 0.
        h.wires[1] = Wire::new(3_000, 3).with_fault(WireFault::Loss(1.0 - 1e-12));
        let mut closed = false;
        let ok = (0..400_000).any(|_| {
            if written < data.len() {
                written += h.client.write(&data[written..]);
            } else if !closed {
                h.client.close();
                closed = true;
            }
            h.step();
            loop {
                let n = h.server.read(&mut buf);
                if n == 0 {
                    break;
                }
                received.extend_from_slice(&buf[..n]);
            }
            closed && h.server.at_eof()
        });
        assert!(ok, "stream stalled after subflow death");
        assert_eq!(received, data);
        let (_, timeouts) = h.client.subflow_retransmits(1);
        assert!(timeouts > 0, "the dead subflow must have timed out");
    }

    #[test]
    fn per_subflow_receive_buffers_deadlock_where_shared_does_not() {
        // §6's flow-control deadlock: subflow 0 stalls holding a data hole;
        // subflow 1 keeps delivering later data until its buffer fills. In
        // PerSubflow mode the retransmitted hole can never be buffered on
        // subflow 1 — the transfer wedges. In Shared mode the window is
        // measured from the data-level cumulative ACK and admits the hole.
        let run = |mode: RecvBufferMode| {
            let cfg = EndpointConfig {
                recv_mode: mode,
                recv_buf: 8 * 1024, // small buffer to hit the corner fast
                ..EndpointConfig::default()
            };
            let wires = vec![
                // Subflow 0: long outage early on (drops a window of data),
                // then recovers.
                Wire::new(3_000, 5).with_fault(WireFault::Loss(0.25)),
                Wire::new(3_000, 6),
            ];
            let mut h = Harness::new(cfg, wires, 7);
            let data = payload(100_000);
            h.transfer(&data, 300_000).map(|got| got == data)
        };
        assert_eq!(run(RecvBufferMode::Shared), Some(true), "shared buffer completes");
        // The per-subflow variant may or may not wedge on a given seed, but
        // it must never corrupt data; and with the shared buffer the same
        // workload always completes. Deterministic wedging is demonstrated
        // in tests/deadlocks.rs with a crafted schedule.
        if let Some(ok) = run(RecvBufferMode::PerSubflow) {
            assert!(ok, "if it completes, data must be intact");
        }
    }
}
