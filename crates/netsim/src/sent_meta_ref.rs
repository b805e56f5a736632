//! The 16-byte send-metadata model, and the differential that holds the
//! sender's packed 8-byte entries to it. Test code only: `lib.rs` declares
//! this module `#[cfg(test)]`.
//!
//! [`WideMeta`] is the record from before the packing: the full send time
//! and the dsn with both flags in its top bits. [`RefSender`] keeps a
//! flight of them exactly as `SubflowSender` used to — the RTT sample of
//! the newest clean packet a cumulative ACK covers, the dsns first
//! reported by each ACK, the stranded `(seq, dsn)` pairs and `dsn_of`.
//! The differential makes the same sends, retransmissions, cumulative
//! ACKs, SACKs and timeouts on a real `SubflowSender` and on the model and
//! compares every answer after every call. Its clock jumps by up to 5 s at
//! a time and its dsns jump by up to 2^31, so clean packets are first
//! ACKed more than 4.29 s after they were sent and flights span more dsns
//! than a packed entry holds: both spill (`the_differential_reaches_the_spills`
//! counts how often).

use crate::tcp::{SackRanges, SubflowSender, TcpParams, MAX_SACK_RANGES};
use crate::time::SimTime;
use mptcp_cc::RtoEstimator;
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

/// The pre-packing send metadata, 16 bytes per packet in flight.
#[derive(Debug, Clone, Copy)]
struct WideMeta {
    sent_at: SimTime,
    /// Connection-level data sequence number carried by this packet, with
    /// [`Self::RETRANSMITTED`] and [`Self::DATA_ACKED`] above it.
    dsn_flags: u64,
}

impl WideMeta {
    const RETRANSMITTED: u64 = 1 << 63;
    const DATA_ACKED: u64 = 1 << 62;

    fn new(sent_at: SimTime, dsn: u64) -> Self {
        assert!(dsn < Self::DATA_ACKED, "dsn {dsn} collides with the send-metadata flags");
        Self { sent_at, dsn_flags: dsn }
    }

    fn dsn(self) -> u64 {
        self.dsn_flags & (Self::DATA_ACKED - 1)
    }

    fn retransmitted(self) -> bool {
        self.dsn_flags & Self::RETRANSMITTED != 0
    }

    fn data_acked(self) -> bool {
        self.dsn_flags & Self::DATA_ACKED != 0
    }
}

/// The send-metadata half of the pre-packing sender: `una`, `next_seq`,
/// the flight of [`WideMeta`] indexed by `seq - una`, the SACKed set the
/// scoreboard kept and the smoothed RTT the samples feed.
#[derive(Debug)]
struct RefSender {
    una: u64,
    next_seq: u64,
    meta: VecDeque<WideMeta>,
    sacked: BTreeSet<u64>,
    srtt: RtoEstimator,
}

impl RefSender {
    fn new() -> Self {
        Self {
            una: 0,
            next_seq: 0,
            meta: VecDeque::new(),
            sacked: BTreeSet::new(),
            srtt: RtoEstimator::new(1.0, 0.2, 60.0),
        }
    }

    fn on_send_new(&mut self, now: SimTime, dsn: u64) -> u64 {
        self.meta.push_back(WideMeta::new(now, dsn));
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn entry(&self, seq: u64) -> Option<&WideMeta> {
        self.meta.get(usize::try_from(seq.checked_sub(self.una)?).ok()?)
    }

    fn dsn_of(&self, seq: u64) -> Option<u64> {
        self.entry(seq).map(|m| m.dsn())
    }

    fn on_retransmit(&mut self, seq: u64, now: SimTime) {
        if seq >= self.una {
            if let Some(m) = self.meta.get_mut((seq - self.una) as usize) {
                m.sent_at = now;
                m.dsn_flags |= WideMeta::RETRANSMITTED;
            }
        }
    }

    fn rtt_sample(&self, cum: u64, now: SimTime) -> Option<f64> {
        if cum <= self.una {
            return None;
        }
        let m = self.entry(cum - 1)?;
        let sample = now.saturating_sub(m.sent_at).as_secs_f64();
        (!m.retransmitted() && sample > 0.0).then_some(sample)
    }

    fn on_ack(
        &mut self,
        cum: u64,
        sacks: &SackRanges,
        now: SimTime,
        newly_acked_dsns: &mut Vec<u64>,
    ) {
        if let Some(sample) = self.rtt_sample(cum, now) {
            self.srtt.on_sample(sample);
        }
        if cum > self.una {
            for _ in self.una..cum {
                let m = self.meta.pop_front().expect("cum <= next_seq");
                if !m.data_acked() {
                    newly_acked_dsns.push(m.dsn());
                }
            }
            self.una = cum;
            self.sacked = self.sacked.split_off(&cum);
        } else if cum < self.una {
            return;
        }
        for range in sacks.iter().flatten() {
            for seq in range.0.max(self.una)..range.1.min(self.next_seq) {
                if self.sacked.insert(seq) {
                    let m = &mut self.meta[(seq - self.una) as usize];
                    if !m.data_acked() {
                        m.dsn_flags |= WideMeta::DATA_ACKED;
                        newly_acked_dsns.push(m.dsn());
                    }
                }
            }
        }
    }

    fn on_rto(&mut self) {
        for m in &mut self.meta {
            m.dsn_flags |= WideMeta::RETRANSMITTED;
        }
    }

    fn stranded(&self) -> Vec<(u64, u64)> {
        (self.una..self.next_seq)
            .filter(|s| !self.sacked.contains(s))
            .filter_map(|s| self.entry(s).filter(|m| !m.data_acked()).map(|m| (s, m.dsn())))
            .collect()
    }
}

/// Cases per differential run.
const CASES: u32 = 128;

/// The most packets a script keeps in flight.
const MAX_FLIGHT: u64 = 400;

/// How the dsn of a sent packet is picked.
#[derive(Debug, Clone, Copy)]
enum Dsn {
    /// The connection's next dsn.
    Next,
    /// The next dsn after the connection ran on by `2^29 + 2^21·k`, as
    /// when other subflows carried that much data meanwhile.
    Jump(u64),
    /// A dsn `back` below the next one: a reinjection of older data.
    Old(u64),
}

/// One call the sender's connection makes, with operands the test maps
/// into the live flight `[una, next_seq)`.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Send `n` new packets (up to [`MAX_FLIGHT`] in flight).
    Send(u64, Dsn),
    /// Advance the clock by this many nanoseconds.
    Wait(u64),
    /// Retransmit the packet `off % flight` past `una`.
    Retransmit(u64),
    /// An ACK: cumulative point `eighths`/8 of the flight past `una` (a
    /// stale one below `una` when `eighths` is 9), plus SACKs of the run
    /// of `len` that starts `off % flight` past the new `una`.
    Ack { eighths: u64, off: u64, len: u64 },
    /// The retransmission timer fires.
    Rto,
}

/// Decode random operands into an [`Op`]. One call in fifteen is a
/// 1–5 s wait, so a script's clock runs for minutes.
fn op((code, a, b): (u8, u32, u8)) -> Op {
    let (a64, b64) = (u64::from(a), u64::from(b));
    match code {
        0..=2 => Op::Send(1 + b64 % 32, Dsn::Next),
        3 if b % 2 == 0 => Op::Send(1 + b64 % 8, Dsn::Jump(a64 % 512)),
        3 => Op::Send(1 + b64 % 8, Dsn::Old(a64 << (b % 8))),
        4..=6 => Op::Wait(1_000 + a64 % 2_000_000),
        7 => Op::Wait(1_000_000_000 + a64 % 4_000_000_000),
        8 | 9 => Op::Retransmit(a64),
        10..=13 => Op::Ack { eighths: b64 % 10, off: a64, len: b64 % 24 },
        _ => Op::Rto,
    }
}

fn scripts() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..15, any::<u32>(), any::<u8>()).prop_map(op), 1..200)
}

/// How far a script took the packed entries.
#[derive(Debug, Default, Clone, Copy)]
struct Reach {
    /// A clean packet's sample exceeded the 4.29 s a packed offset spans.
    long_sample: bool,
    /// One such packet's metadata had been spilled.
    spilled_long_sample: bool,
    /// A flight's dsns spanned more than a packed offset holds.
    wide_flight: bool,
    /// The most entries the spill list held.
    max_spilled: usize,
}

/// Run `script` on a `SubflowSender` and on [`RefSender`], asserting equal
/// answers after every call.
fn run(script: &[Op]) -> Reach {
    let mut tx = SubflowSender::new(&TcpParams::default());
    let mut model = RefSender::new();
    let (mut now, mut next_dsn) = (SimTime::from_millis(1), 0u64);
    let mut reach = Reach::default();
    for (step, &op) in script.iter().enumerate() {
        let flight = model.next_seq - model.una;
        match op {
            Op::Send(n, pick) => {
                for _ in 0..n.min(MAX_FLIGHT - flight) {
                    let dsn = match pick {
                        Dsn::Next => next_dsn,
                        Dsn::Jump(k) => next_dsn + (1 << 29) + (k << 21),
                        Dsn::Old(back) => next_dsn.saturating_sub(back),
                    };
                    next_dsn = next_dsn.max(dsn + 1);
                    let (seq, _) = tx.on_send_new(now, dsn);
                    assert_eq!(seq, model.on_send_new(now, dsn), "step {step}: seq");
                }
            }
            Op::Wait(dt) => now += SimTime(dt),
            Op::Retransmit(off) => {
                let seq = model.una + off % flight.max(1);
                tx.on_retransmit(seq);
                model.on_retransmit(seq, now);
            }
            Op::Ack { eighths, off, len } => {
                let cum = match eighths {
                    9 => model.una.saturating_sub(1),
                    e => model.una + flight * e.min(8) / 8,
                };
                let from = cum.max(model.una) + off % flight.max(1);
                let mut sacks: SackRanges = [None; MAX_SACK_RANGES];
                sacks[0] = Some((from, from + len));
                sacks[1] = Some((from + len + 1, from + len + 3));
                let sample = model.rtt_sample(cum, now);
                assert_eq!(
                    tx.rtt_sample(cum, now).map(f64::to_bits),
                    sample.map(f64::to_bits),
                    "step {step}: RTT sample of an ACK up to {cum}"
                );
                if sample.is_some_and(|s| s > 4.294_967_295) {
                    reach.long_sample = true;
                    reach.spilled_long_sample |= tx.is_spilled(cum - 1);
                }
                let (mut got, mut want) = (Vec::new(), Vec::new());
                tx.on_ack(cum, &sacks, now, &mut got);
                model.on_ack(cum, &sacks, now, &mut want);
                assert_eq!(got, want, "step {step}: newly acked dsns of an ACK up to {cum}");
                assert_eq!(
                    tx.timer.srtt().map(f64::to_bits),
                    model.srtt.srtt().map(f64::to_bits),
                    "step {step}: smoothed RTT"
                );
            }
            Op::Rto => {
                tx.on_rto(1.0);
                model.on_rto();
            }
        }
        let (una, next_seq) = (model.una, model.next_seq);
        for seq in una.saturating_sub(2)..next_seq + 2 {
            assert_eq!(
                tx.dsn_of(seq),
                model.dsn_of(seq),
                "step {step} after {op:?}: dsn_of({seq})"
            );
        }
        let mut stranded = Vec::new();
        tx.stranded(&mut stranded);
        assert_eq!(stranded, model.stranded(), "step {step} after {op:?}: stranded");
        let dsns = model.meta.iter().map(|m| m.dsn());
        let span = dsns.clone().max().zip(dsns.min()).map_or(0, |(hi, lo)| hi - lo);
        reach.wide_flight |= span >= 1 << 30;
        reach.max_spilled = reach.max_spilled.max(tx.spilled_len());
    }
    reach
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn packed_and_wide_metadata_agree_call_by_call(script in scripts()) {
        run(&script);
    }
}

/// The proptest above is only as strong as the states it visits. Replay
/// its cases and require that some take a clean packet's sample from a
/// spilled entry more than 4.29 s after its send, and some hold a flight
/// wider than a packed dsn. `--nocapture` prints the counts.
#[test]
fn the_differential_reaches_the_spills() {
    let (mut long, mut spilled_long, mut wide, mut spilled) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = TestRng::deterministic(
            concat!(module_path!(), "::packed_and_wide_metadata_agree_call_by_call"),
            case,
        );
        let reach = run(&scripts().new_value(&mut rng));
        long += u32::from(reach.long_sample);
        spilled_long += u32::from(reach.spilled_long_sample);
        wide += u32::from(reach.wide_flight);
        spilled += u32::from(reach.max_spilled > 0);
    }
    eprintln!(
        "of {CASES} cases: a sample over 4.29 s in {long} ({spilled_long} with a spilled entry), \
         a flight wider than 2^30 dsns in {wide}, a spill in {spilled}"
    );
    assert!(spilled_long > 0 && wide > 0, "the differential never reached a spill");
}

/// One fixed script reaches both fallbacks: a clean packet ACKed 4.5 s
/// after its send with a send in between, and a flight of dsns 2^31 apart.
#[test]
fn a_pinned_script_spills_both_ways() {
    let script = [
        Op::Send(4, Dsn::Next),
        Op::Wait(4_500_000_000),
        Op::Send(2, Dsn::Next),
        Op::Ack { eighths: 2, off: 0, len: 0 },
        Op::Send(3, Dsn::Jump(511)),
        Op::Send(3, Dsn::Jump(511)),
        Op::Send(2, Dsn::Old(3 << 30)),
        Op::Ack { eighths: 1, off: 2, len: 3 },
        Op::Wait(1_000_000),
        Op::Ack { eighths: 8, off: 0, len: 0 },
    ];
    let reach = run(&script);
    assert!(reach.spilled_long_sample && reach.wide_flight && reach.max_spilled >= 2, "{reach:?}");
}
