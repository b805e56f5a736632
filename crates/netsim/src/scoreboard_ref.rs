//! Reference scoreboard implementations: the original `BTreeSet`/`BTreeMap`
//! bookkeeping from before the bitmap rewrite, preserved verbatim behind
//! the [`Scoreboard`]/[`OooBuf`] traits.
//!
//! These are the *semantic ground truth* for the differential proptests in
//! `tcp.rs`: the bitmap scoreboards must produce bit-identical outcomes
//! when driven through identical ACK/SACK/loss sequences. The sender
//! board is also the `ScoreboardKind::BTree` side of
//! [`crate::scoreboard_churn`]; no simulation runs on either.
//!
//! This file deliberately is **not** marked `lint:hot-path`: B-tree
//! containers are its whole point.

use crate::scoreboard::Scoreboard;
#[cfg(test)]
use crate::{
    scoreboard::OooBuf,
    tcp::{SackRanges, MAX_SACK_RANGES},
};
use std::collections::{BTreeMap, BTreeSet};

/// The pre-rewrite sender scoreboard: ordered sets with per-node heap
/// allocation. `alloc_events` reports accepted inserts as a proxy for the
/// node churn (the bitmap impl reports actual growth events instead).
#[derive(Debug)]
pub(crate) struct BTreeScoreboard {
    /// Sequences (≥ una) the receiver reported holding.
    sacked: BTreeSet<u64>,
    /// Sequences deemed lost and not yet retransmitted this episode.
    lost: BTreeSet<u64>,
    /// Sequences retransmitted and presumed back in the network, mapped to
    /// the value of `sack_events` when they were retransmitted.
    retx_out: BTreeMap<u64, u64>,
    /// Scratch for the re-mark pass (kept to match the old allocation
    /// discipline exactly).
    remark_scratch: Vec<u64>,
    inserts: u64,
}

impl Scoreboard for BTreeScoreboard {
    fn with_window_hint(_max_window: f64) -> Self {
        Self {
            sacked: BTreeSet::new(),
            lost: BTreeSet::new(),
            retx_out: BTreeMap::new(),
            remark_scratch: Vec::new(),
            inserts: 0,
        }
    }

    fn reset_for_reuse(&mut self) {
        self.sacked.clear();
        self.lost.clear();
        self.retx_out.clear();
        self.remark_scratch.clear();
    }

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
        self.inserts += 1;
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
        self.inserts += 1;
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
            if !self.sacked.contains(&seq)
                && !self.retx_out.contains_key(&seq)
                && self.lost.insert(seq)
            {
                self.inserts += 1;
                any = true;
            }
        }
        any
    }

    fn remark_lost_retx(&mut self, cutoff: u64, sack_events: u64, thresh: u64) -> bool {
        let mut remark = std::mem::take(&mut self.remark_scratch);
        remark.clear();
        remark.extend(
            self.retx_out
                .iter()
                .filter(|&(&s, &ev)| s < cutoff && sack_events >= ev + thresh)
                .map(|(&s, _)| s),
        );
        let mut any = false;
        for &s in &remark {
            self.retx_out.remove(&s);
            self.lost.insert(s);
            self.inserts += 1;
            any = true;
        }
        self.remark_scratch = remark;
        any
    }

    fn rto_collapse(&mut self, una: u64, next_seq: u64) {
        self.retx_out.clear();
        for seq in una..next_seq {
            if !self.sacked.contains(&seq) && self.lost.insert(seq) {
                self.inserts += 1;
            }
        }
    }

    fn alloc_events(&self) -> u64 {
        self.inserts
    }
}

/// The pre-rewrite receiver reassembly buffer; only the differential tests
/// construct it.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct BTreeOoo {
    ooo: BTreeSet<u64>,
    inserts: u64,
}

#[cfg(test)]
impl OooBuf for BTreeOoo {
    fn reset_for_reuse(&mut self) {
        self.ooo.clear();
    }

    fn insert(&mut self, seq: u64) {
        if self.ooo.insert(seq) {
            self.inserts += 1;
        }
    }

    fn remove(&mut self, seq: u64) -> bool {
        self.ooo.remove(&seq)
    }

    fn contains(&self, seq: u64) -> bool {
        self.ooo.contains(&seq)
    }

    fn advance_watermark(&mut self, _next_expected: u64) {}

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

    fn alloc_events(&self) -> u64 {
        self.inserts
    }
}
