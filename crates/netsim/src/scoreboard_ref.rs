//! The B-tree reference model of the SACK scoreboard and the reassembly
//! buffer, and the differentials that hold the rotating bitmaps to it.
//! Test code only: `lib.rs` declares this module `#[cfg(test)]`.
//!
//! [`BTreeScoreboard`] and [`BTreeOoo`] are the `BTreeSet`/`BTreeMap`
//! bookkeeping from before the bitmap rewrite. The sender differential
//! keeps `una`, `next_seq` and the SACK-event count as `SubflowSender`
//! does, and makes the sender's calls on a [`BitmapScoreboard`] and a
//! [`BTreeScoreboard`] in lock-step: SACKs inside `[una, next_seq)`, a
//! monotone cumulative ACK, hole marking up to the DupThresh cutoff, the
//! RACK-style re-mark, retransmission pops and the RTO collapse. After
//! every call it compares every answer and the observable state. Each case
//! draws the most packets its script keeps in flight, 64 to 1536, over
//! rings that start at 256 bits, so the larger flights wrap the rings and
//! grow them; `the_differential_reaches_the_ring` counts how often. The receiver
//! differential feeds a `SubflowReceiver` and [`BTreeOoo`] reordered
//! arrivals spanning more than four ring capacities.
//!
//! B-tree containers are its whole point; the simulator's own per-ACK path
//! is held allocation-free by `tests/mem_account.rs`.

use crate::scoreboard::{BitmapScoreboard, RingPool};
use crate::tcp::{SackRanges, SubflowReceiver, MAX_SACK_RANGES};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The pre-rewrite sender scoreboard: ordered sets with per-node heap
/// allocation. Method for method, what [`BitmapScoreboard`] must answer.
#[derive(Debug, Default)]
struct BTreeScoreboard {
    /// Sequences (≥ una) the receiver reported holding.
    sacked: BTreeSet<u64>,
    /// Sequences deemed lost and not yet retransmitted this episode.
    lost: BTreeSet<u64>,
    /// Sequences retransmitted and presumed back in the network, mapped to
    /// the value of `sack_events` when they were retransmitted.
    retx_out: BTreeMap<u64, u64>,
}

impl BTreeScoreboard {
    fn sacked_len(&self) -> u64 {
        self.sacked.len() as u64
    }

    fn sacked_contains(&self, seq: u64) -> bool {
        self.sacked.contains(&seq)
    }

    fn lost_len(&self) -> u64 {
        self.lost.len() as u64
    }

    fn lost_is_empty(&self) -> bool {
        self.lost.is_empty()
    }

    fn pop_lost_for_retx(&mut self, sack_events: u64) -> Option<u64> {
        let seq = self.lost.pop_first()?;
        self.retx_out.insert(seq, sack_events);
        Some(seq)
    }

    fn advance_to(&mut self, cum: u64) {
        self.sacked = self.sacked.split_off(&cum);
        self.lost = self.lost.split_off(&cum);
        self.retx_out = self.retx_out.split_off(&cum);
    }

    fn sack_one(&mut self, seq: u64) -> bool {
        if !self.sacked.insert(seq) {
            return false;
        }
        self.lost.remove(&seq);
        self.retx_out.remove(&seq);
        true
    }

    fn nth_highest_sacked(&self, n: usize) -> Option<u64> {
        self.sacked.iter().nth_back(n).copied()
    }

    fn mark_holes_lost(&mut self, una: u64, cutoff: u64) -> bool {
        let mut any = false;
        for seq in una..cutoff {
            if !self.sacked.contains(&seq) && !self.retx_out.contains_key(&seq) {
                any |= self.lost.insert(seq);
            }
        }
        any
    }

    fn remark_lost_retx(&mut self, cutoff: u64, sack_events: u64, thresh: u64) -> bool {
        let remark: Vec<u64> = self
            .retx_out
            .iter()
            .filter(|&(&s, &ev)| s < cutoff && sack_events >= ev + thresh)
            .map(|(&s, _)| s)
            .collect();
        for &s in &remark {
            self.retx_out.remove(&s);
            self.lost.insert(s);
        }
        !remark.is_empty()
    }

    fn rto_collapse(&mut self, una: u64, next_seq: u64) {
        self.retx_out.clear();
        for seq in una..next_seq {
            if !self.sacked.contains(&seq) {
                self.lost.insert(seq);
            }
        }
    }
}

/// The pre-rewrite receiver: the in-order edge plus a `BTreeSet` of the
/// packets held above it. What `SubflowReceiver` must answer.
#[derive(Debug, Default)]
struct BTreeOoo {
    next_expected: u64,
    ooo: BTreeSet<u64>,
}

impl BTreeOoo {
    /// The ACK for an arriving packet: `(cumulative_ack, is_duplicate,
    /// sack_ranges)`.
    fn on_data(&mut self, seq: u64) -> (u64, bool, SackRanges) {
        let in_order = seq == self.next_expected;
        if in_order {
            self.next_expected += 1;
            while self.ooo.remove(&self.next_expected) {
                self.next_expected += 1;
            }
        } else if seq > self.next_expected {
            self.ooo.insert(seq);
        }
        (self.next_expected, !in_order, self.sack_ranges())
    }

    fn contains(&self, seq: u64) -> bool {
        seq < self.next_expected || self.ooo.contains(&seq)
    }

    fn sack_ranges(&self) -> SackRanges {
        let mut out: SackRanges = [None; MAX_SACK_RANGES];
        let mut it = self.ooo.iter().copied();
        let Some(first) = it.next() else { return out };
        let mut start = first;
        let mut end = first + 1;
        let mut n = 0;
        for s in it {
            if s == end {
                end += 1;
            } else {
                out[n] = Some((start, end));
                n += 1;
                if n == MAX_SACK_RANGES {
                    return out;
                }
                start = s;
                end = s + 1;
            }
        }
        out[n] = Some((start, end));
        out
    }
}

// ---- sender differential ----

/// Cases per sender-differential run.
const CASES: u32 = 128;

/// One call the sender makes on its scoreboard, with operands the test
/// maps into the live window `[una, next_seq)`.
#[derive(Debug, Clone, Copy)]
enum Call {
    /// Put `n` more packets in flight, up to the case's flight bound (the
    /// board is not told: it learns of a sequence when it is SACKed or
    /// lost).
    Send(u64),
    /// `sack_one` on every `stride`-th sequence of the run of `len` that
    /// starts at `una + off % flight`, clipped to `next_seq`.
    Sack { off: u64, len: u64, stride: usize },
    /// A cumulative ACK covering `eighths`/8 of the flight.
    Advance { eighths: u64 },
    /// `SubflowSender::detect_losses` at DupThresh `thresh`: mark the holes
    /// below the `thresh`-th highest SACK lost, then re-mark.
    DetectLosses { thresh: u64 },
    /// Up to `n` retransmissions.
    Retransmit(u64),
    /// A re-mark pass at `cutoff = una + off % (flight + 1)`.
    Remark { off: u64, thresh: u64 },
    /// The retransmission timer fires.
    Rto,
}

/// Decode three random operands into a [`Call`]. Sends average 64 packets
/// and two in sixteen calls slide `una` by a quarter of the flight on
/// average, so a script's flight settles near 500 packets.
fn call((op, a, b): (u8, u16, u8)) -> Call {
    let (a, b) = (u64::from(a), u64::from(b));
    match op {
        0..=3 => Call::Send(1 + a % 128),
        4..=7 => Call::Sack { off: a, len: 1 + b % 32, stride: 1 + usize::from(b >= 192) },
        8 | 9 => Call::Advance { eighths: if b % 64 == 63 { 8 } else { b % 5 } },
        10 | 11 => Call::DetectLosses { thresh: 1 + b % 4 },
        12 | 13 => Call::Retransmit(1 + a % 64),
        14 => Call::Remark { off: a, thresh: b % 4 },
        _ => Call::Rto,
    }
}

/// The most packets a case keeps in flight: within the 256-bit rings,
/// just past them, or far past them. The sender's own bound is `MAX_CAP`;
/// 1536 keeps a debug-build case fast.
fn flights() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![64, 300, 1536])
}

fn scripts() -> impl Strategy<Value = Vec<Call>> {
    prop::collection::vec((0u8..16, any::<u16>(), any::<u8>()).prop_map(call), 1..200)
}

/// How far a script took the rings.
#[derive(Debug, Default, Clone, Copy)]
struct Reach {
    /// Largest flight, `next_seq - una`.
    max_flight: u64,
    /// A ring held members on both sides of its slot-0 boundary.
    wrapped: bool,
    /// A ring grew past the 256 bits it started at.
    grew: bool,
}

/// Whether a ring of `cap` bits holding `set` has wrapped: its members
/// sit on both sides of a multiple of `cap`.
fn straddles(set: &BTreeSet<u64>, cap: u64) -> bool {
    match (set.first(), set.last()) {
        (Some(lo), Some(hi)) => lo / cap != hi / cap,
        _ => false,
    }
}

/// Make the calls of `script`, with at most `flight_cap` packets in
/// flight, on a bitmap scoreboard and on the B-tree model, asserting
/// identical answers and state after each.
fn run(flight_cap: u64, script: &[Call]) -> Reach {
    let mut bitmap = BitmapScoreboard::new(&mut RingPool::default());
    let mut btree = BTreeScoreboard::default();
    let initial_bits = bitmap.ring_bits();
    let (mut una, mut next_seq, mut sack_events) = (0u64, 0u64, 0u64);
    let mut reach = Reach::default();
    for (step, &call) in script.iter().enumerate() {
        let flight = next_seq - una;
        match call {
            Call::Send(n) => next_seq += n.min(flight_cap - flight),
            Call::Sack { off, len, stride } => {
                let from = una + off % flight.max(1);
                for seq in (from..next_seq.min(from + len)).step_by(stride) {
                    let new = bitmap.sack_one(seq);
                    assert_eq!(new, btree.sack_one(seq), "step {step}: sack_one({seq})");
                    sack_events += u64::from(new);
                }
            }
            Call::Advance { eighths } => {
                una += flight * eighths / 8;
                bitmap.advance_to(una);
                btree.advance_to(una);
            }
            Call::DetectLosses { thresh } => {
                if bitmap.sacked_len() >= thresh {
                    let nth = thresh as usize - 1;
                    let cutoff = bitmap.nth_highest_sacked(nth);
                    assert_eq!(cutoff, btree.nth_highest_sacked(nth), "step {step}: cutoff");
                    let cutoff = cutoff.expect("sacked_len() >= thresh");
                    assert_eq!(
                        bitmap.mark_holes_lost(una, cutoff),
                        btree.mark_holes_lost(una, cutoff),
                        "step {step}: mark_holes_lost({una}, {cutoff})"
                    );
                    assert_eq!(
                        bitmap.remark_lost_retx(cutoff, sack_events, thresh),
                        btree.remark_lost_retx(cutoff, sack_events, thresh),
                        "step {step}: remark_lost_retx({cutoff}, {sack_events}, {thresh})"
                    );
                }
            }
            Call::Retransmit(n) => {
                for _ in 0..n {
                    let seq = bitmap.pop_lost_for_retx(sack_events);
                    assert_eq!(seq, btree.pop_lost_for_retx(sack_events), "step {step}: pop");
                    if seq.is_none() {
                        break;
                    }
                }
            }
            Call::Remark { off, thresh } => {
                let cutoff = una + off % (flight + 1);
                assert_eq!(
                    bitmap.remark_lost_retx(cutoff, sack_events, thresh),
                    btree.remark_lost_retx(cutoff, sack_events, thresh),
                    "step {step}: remark_lost_retx({cutoff}, {sack_events}, {thresh})"
                );
            }
            Call::Rto => {
                bitmap.rto_collapse(una, next_seq);
                btree.rto_collapse(una, next_seq);
            }
        }
        assert_eq!(
            (
                bitmap.sacked_len(),
                bitmap.lost_len(),
                bitmap.lost_is_empty(),
                [0, 1, 2, 3].map(|n| bitmap.nth_highest_sacked(n)),
            ),
            (
                btree.sacked_len(),
                btree.lost_len(),
                btree.lost_is_empty(),
                [0, 1, 2, 3].map(|n| btree.nth_highest_sacked(n)),
            ),
            "step {step} after {call:?}: (sacked_len, lost_len, lost_is_empty, nth_highest_sacked(0..4))"
        );
        for seq in una.saturating_sub(2)..next_seq + 2 {
            assert_eq!(
                bitmap.sacked_contains(seq),
                btree.sacked_contains(seq),
                "step {step} after {call:?}: sacked_contains({seq})"
            );
        }
        let [sacked_bits, lost_bits] = bitmap.ring_bits();
        reach.max_flight = reach.max_flight.max(next_seq - una);
        reach.wrapped |= straddles(&btree.sacked, sacked_bits) || straddles(&btree.lost, lost_bits);
        reach.grew |= [sacked_bits, lost_bits] != initial_bits;
    }
    reach
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn scoreboards_agree_call_by_call(flight_cap in flights(), script in scripts()) {
        run(flight_cap, &script);
    }
}

/// The proptest above is only as strong as the states it visits. Replay
/// its cases (the stand-in seeds each from the test path and the case
/// index) and require that some of them reach a 256-packet flight, wrap
/// a ring and grow one. `--nocapture` prints the shares.
#[test]
fn the_differential_reaches_the_ring() {
    let (mut big, mut wrapped, mut grew) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng =
            TestRng::deterministic(concat!(module_path!(), "::scoreboards_agree_call_by_call"), case);
        let flight_cap = flights().new_value(&mut rng);
        let reach = run(flight_cap, &scripts().new_value(&mut rng));
        big += u32::from(reach.max_flight >= 256);
        wrapped += u32::from(reach.wrapped);
        grew += u32::from(reach.grew);
    }
    eprintln!(
        "of {CASES} cases: flight >= 256 in {big}, ring wrapped in {wrapped}, ring grew in {grew}"
    );
    assert!(big > 0 && wrapped > 0 && grew > 0, "the differential never reached the ring's hard cases");
}

/// One fixed script reaches every hard case: 600-packet sends SACKed at
/// every other packet on 256-bit rings, losses
/// detected, retransmitted and some retransmissions SACKed, the window
/// slid by half a flight at a time, then a timeout.
#[test]
fn a_pinned_script_wraps_and_grows_the_ring() {
    let mut script = Vec::new();
    for _ in 0..6 {
        script.extend([Call::Send(150); 4]);
        script.push(Call::Sack { off: 1, len: 600, stride: 2 });
        script.push(Call::DetectLosses { thresh: 3 });
        script.push(Call::Retransmit(64));
        script.push(Call::Sack { off: 0, len: 8, stride: 1 });
        script.push(Call::DetectLosses { thresh: 3 });
        script.push(Call::Advance { eighths: 4 });
    }
    script.extend([Call::Rto, Call::Retransmit(u64::MAX), Call::Advance { eighths: 8 }]);
    let reach = run(1536, &script);
    assert!(reach.max_flight >= 600 && reach.wrapped && reach.grew, "{reach:?}");
}

// ---- receiver differential ----

proptest! {
    #[test]
    fn receivers_agree_on_arrivals_spanning_many_rings(
        arrivals in prop::collection::vec((0u16..320, 0u8..16), 1100..2000),
    ) {
        // Sequence `seq` arrives `late` places behind its turn; one in
        // sixteen arrives a second time, later still. The ring starts at
        // 256 bits, so the sequences span more than four of it, and a
        // late packet holds up to 320 above the in-order edge.
        let mut rx = SubflowReceiver::new_pooled(&mut RingPool::default());
        let n = arrivals.len() as u64;
        assert!(n > 4 * rx.ring_bits(), "{n} sequences over a {}-bit ring", rx.ring_bits());
        let mut order = Vec::new();
        for (seq, &(late, again)) in (0u64..).zip(&arrivals) {
            let late = u64::from(late);
            order.push((seq + late, seq));
            if again == 0 {
                order.push((seq + 2 * late + 1, seq));
            }
        }
        order.sort_unstable();
        let mut reference = BTreeOoo::default();
        for (i, &(_, seq)) in order.iter().enumerate() {
            assert_eq!(rx.on_data(seq), reference.on_data(seq), "arrival {i}: seq {seq}");
            if i % 32 == 0 {
                let edge = reference.next_expected;
                for probe in edge.saturating_sub(2)..edge + 640 {
                    assert_eq!(rx.contains(probe), reference.contains(probe), "arrival {i}: {probe}");
                }
            }
        }
        assert_eq!(rx.delivered(), n);
    }
}
