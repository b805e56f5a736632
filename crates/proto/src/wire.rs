//! A deterministic in-memory path with middlebox misbehaviour.
//!
//! One `Wire` carries one subflow's segments in both directions, each
//! direction with its own queue. Faults model the §6 middleboxes: random
//! loss, reordering, option stripping (a firewall that does not understand
//! MPTCP options), and initial-sequence-number rewriting (the `pf`
//! example: "the pf firewall can re-write TCP sequence numbers to improve
//! the randomness of the initial sequence number").

use crate::segment::Segment;
use crate::Micros;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// Middlebox / path misbehaviours a wire can apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireFault {
    /// Drop each segment with this probability.
    Loss(f64),
    /// Delay each segment by an extra uniform amount in `[0, max_us]`,
    /// which reorders segments relative to each other.
    Jitter(Micros),
    /// Strip every MPTCP option (firewall that sanitizes unknown options).
    /// SYN segments lose their capability/join options → fallback.
    StripOptions,
    /// Rewrite endpoint A's initial sequence number by a fixed offset, as
    /// `pf` does when randomizing ISNs: segments A→B get `seq += offset`,
    /// and the ACK numbers B→A (which reference A's space) get
    /// `ack -= offset`, so the rewrite is transparent to both plain-TCP
    /// endpoints. The data sequence numbers in options are untouched —
    /// which is precisely why MPTCP carries them separately: a design that
    /// striped ONE sequence space across subflows could not survive this
    /// middlebox (§6 "Loss Detection and Stream Reassembly").
    RewriteIsn(u32),
}

#[derive(Debug)]
struct InFlight {
    deliver_at: Micros,
    tie: u64,
    seg: Segment,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.tie == other.tie
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap: earliest delivery first.
        other.deliver_at.cmp(&self.deliver_at).then(other.tie.cmp(&self.tie))
    }
}

/// One direction of a subflow path.
#[derive(Debug)]
struct Direction {
    queue: BinaryHeap<InFlight>,
    tie: u64,
}

impl Direction {
    fn new() -> Self {
        Self { queue: BinaryHeap::new(), tie: 0 }
    }

    /// Whether the earliest segment in flight is delivered by `now`.
    #[inline]
    fn due(&self, now: Micros) -> bool {
        self.queue.peek().is_some_and(|f| f.deliver_at <= now)
    }
}

/// A bidirectional, faulty, deterministic in-memory path.
#[derive(Debug)]
pub struct Wire {
    /// Base one-way delay.
    pub delay: Micros,
    faults: Vec<WireFault>,
    a_to_b: Direction,
    b_to_a: Direction,
    rng: StdRng,
    /// The encoded image of the segment being sent, kept for its capacity.
    scratch: Vec<u8>,
    /// Segments dropped so far (both directions).
    pub dropped: u64,
    /// Segments carried so far (both directions).
    pub carried: u64,
}

impl Wire {
    /// A clean wire with the given one-way delay.
    pub fn new(delay: Micros, seed: u64) -> Self {
        Self {
            delay,
            faults: Vec::new(),
            a_to_b: Direction::new(),
            b_to_a: Direction::new(),
            rng: StdRng::seed_from_u64(seed),
            scratch: Vec::new(),
            dropped: 0,
            carried: 0,
        }
    }

    /// Add a fault.
    pub fn with_fault(mut self, fault: WireFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Send a segment from endpoint A toward endpoint B at time `now`.
    pub fn send_a(&mut self, now: Micros, seg: Segment) {
        self.send(true, now, seg);
    }

    /// Send a segment from endpoint B toward endpoint A at time `now`.
    pub fn send_b(&mut self, now: Micros, seg: Segment) {
        self.send(false, now, seg);
    }

    /// Apply the faults, then pass the segment through the byte-level
    /// format: encode it into the wire's scratch buffer and decode it back
    /// into its own options and payload. Every segment crosses the format,
    /// and once the scratch has grown the round trip allocates nothing.
    fn send(&mut self, from_a: bool, now: Micros, mut seg: Segment) {
        self.carried += 1;
        let mut deliver_at = now + self.delay;
        for fault in &self.faults {
            match *fault {
                WireFault::Loss(p) => {
                    if self.rng.gen::<f64>() < p {
                        self.dropped += 1;
                        return;
                    }
                }
                WireFault::Jitter(max_us) => {
                    deliver_at += self.rng.gen_range(0..=max_us);
                }
                WireFault::StripOptions => {
                    seg.options.clear();
                }
                WireFault::RewriteIsn(offset) => {
                    if from_a {
                        seg.subflow_seq = seg.subflow_seq.wrapping_add(offset);
                    } else if seg.flags.ack {
                        seg.subflow_ack = seg.subflow_ack.wrapping_sub(offset);
                    }
                }
            }
        }
        // Model the middlebox at byte level: encode/decode roundtrip keeps
        // the wire format honest.
        seg.encode_into(&mut self.scratch);
        Segment::decode_into(&self.scratch, &mut seg).expect("wire format roundtrips");
        let dir = if from_a { &mut self.a_to_b } else { &mut self.b_to_a };
        dir.tie += 1;
        dir.queue.push(InFlight { deliver_at, tie: dir.tie, seg });
    }

    /// Segments due at endpoint B by `now` (sent by A).
    #[inline]
    pub fn recv_b(&mut self, now: Micros) -> Vec<Segment> {
        if !self.a_to_b.due(now) {
            return Vec::new();
        }
        Self::drain(&mut self.a_to_b, now)
    }

    /// Segments due at endpoint A by `now` (sent by B).
    #[inline]
    pub fn recv_a(&mut self, now: Micros) -> Vec<Segment> {
        if !self.b_to_a.due(now) {
            return Vec::new();
        }
        Self::drain(&mut self.b_to_a, now)
    }

    #[inline(never)]
    fn drain(dir: &mut Direction, now: Micros) -> Vec<Segment> {
        let mut out = Vec::new();
        while dir.due(now) {
            out.push(dir.queue.pop().unwrap().seg);
        }
        out
    }

    /// Whether anything is still in flight.
    pub fn idle(&self) -> bool {
        self.a_to_b.queue.is_empty() && self.b_to_a.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{MptcpOption, SegFlags};

    fn seg(seq: u32) -> Segment {
        Segment {
            subflow_seq: seq,
            flags: SegFlags { ack: true, ..Default::default() },
            subflow_ack: 7,
            options: vec![MptcpOption::Dss { data_seq: Some(seq as u64), data_ack: None }],
            payload: vec![1, 2, 3],
            ..Segment::new()
        }
    }

    #[test]
    fn delivers_after_delay_in_order() {
        let mut w = Wire::new(1000, 0);
        w.send_a(0, seg(1));
        w.send_a(10, seg(2));
        assert!(w.recv_b(999).is_empty());
        let got = w.recv_b(1010);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].subflow_seq, 1);
        assert_eq!(got[1].subflow_seq, 2);
        assert!(w.idle());
    }

    #[test]
    fn directions_are_independent() {
        let mut w = Wire::new(100, 0);
        w.send_a(0, seg(1));
        w.send_b(0, seg(2));
        assert_eq!(w.recv_a(100).len(), 1);
        assert_eq!(w.recv_b(100).len(), 1);
    }

    #[test]
    fn loss_fault_drops_deterministically() {
        let run = |seed| {
            let mut w = Wire::new(10, seed).with_fault(WireFault::Loss(0.5));
            for i in 0..100 {
                w.send_a(i, seg(i as u32));
            }
            w.dropped
        };
        assert_eq!(run(1), run(1), "same seed, same drops");
        let d = run(1);
        assert!((20..80).contains(&d), "about half dropped: {d}");
    }

    #[test]
    fn strip_options_removes_mptcp_signalling() {
        let mut w = Wire::new(10, 0).with_fault(WireFault::StripOptions);
        w.send_a(0, seg(5));
        let got = w.recv_b(10);
        assert!(!got[0].has_mptcp_options());
        assert_eq!(got[0].payload, vec![1, 2, 3], "payload untouched");
    }

    #[test]
    fn rewrite_isn_shifts_subflow_numbers_only() {
        let mut w = Wire::new(10, 0).with_fault(WireFault::RewriteIsn(1000));
        w.send_a(0, seg(5));
        let got = w.recv_b(10);
        assert_eq!(got[0].subflow_seq, 1005, "A→B data seq shifted");
        assert_eq!(got[0].subflow_ack, 7, "A→B ack (B's space) untouched");
        // Data sequence numbers in options are not visible to the firewall.
        assert_eq!(got[0].dss(), Some((Some(5), None)));
        // B acks what it saw (1005-based); the middlebox translates back.
        let mut reply = seg(0);
        reply.subflow_ack = 1008;
        w.send_b(20, reply);
        let back = w.recv_a(30);
        assert_eq!(back[0].subflow_ack, 8, "B→A ack translated into A's space");
        assert_eq!(back[0].subflow_seq, 0, "B→A seq (B's space) untouched");
    }

    #[test]
    fn jitter_can_reorder() {
        let mut w = Wire::new(100, 3).with_fault(WireFault::Jitter(1000));
        for i in 0..50 {
            w.send_a(i, seg(i as u32));
        }
        let got = w.recv_b(10_000);
        assert_eq!(got.len(), 50);
        let in_order = got.windows(2).all(|p| p[0].subflow_seq < p[1].subflow_seq);
        assert!(!in_order, "jitter should reorder at least one pair");
    }
}
