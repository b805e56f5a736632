//! Rotating bitmap scoreboards for the per-ACK hot path.
//!
//! The SACK scoreboard (`sacked` / `lost` / retransmitted-out) and the
//! receiver's out-of-order buffer are *windowed* sets: every member lies in
//! `[una, una + w)` for a window `w` bounded by the flight, and the window
//! only ever slides forward. A `BTreeSet<u64>` pays an
//! allocation plus O(log w) pointer-chasing per operation for ordering
//! guarantees the access pattern never needs; a rotating bitmap indexed by
//! `seq & mask` gives O(1) insert/remove/contains with zero steady-state
//! allocations, and the ordered queries the scoreboard *does* make
//! (pop-lowest-lost, DupThresh-th-highest-sacked, first-k SACK runs) are
//! short masked word scans bounded by lo/hi hints.
//!
//! Every ring starts at [`DEFAULT_CAP`] bits, and a sequence landing above
//! the ring capacity grows the ring (doubling, up to [`MAX_CAP`] bits).
//! [`MAX_CAP`] is a hard limit: the sender keeps its flight below it
//! (`SubflowSender::can_send_new`), and an insert past it panics in every
//! build. Growth is counted as an allocation event and surfaces in
//! [`crate::SimPerf::hot_allocs`], which is how the zero-alloc
//! steady-state claim is asserted rather than assumed.
//!
//! These are the only scoreboards the simulator has. The `BTreeSet`
//! bookkeeping they replaced survives as a test-only reference model in
//! `scoreboard_ref.rs`, whose differential makes the calls
//! `SubflowSender` makes — with flights in the hundreds, on rings that
//! wrap and grow — on both boards and compares every answer.

// Per-ACK hot path and per-shard state (DESIGN.md §3.2d): a panic here
// tears down every shard, a silent truncation forks the history.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

/// Ring capacity in bits every ring starts at: a subflow's three rings
/// double only when its flight outruns them, so the many subflows of a
/// datacenter world whose windows stay small pay for no headroom they
/// never use.
const DEFAULT_CAP: u64 = 1 << 8;

/// Rings never grow beyond this many bits (128 KiB of words): the most
/// packets a subflow may have in flight.
pub(crate) const MAX_CAP: u64 = 1 << 20;

/// Pool of retired ring word-buffers: flow close → open recycles bitmap
/// storage here instead of round-tripping the global allocator. Buffers
/// keep their (power-of-two-bit) capacity; `take` hands out the smallest
/// one of at least [`DEFAULT_CAP`] bits, and the ring adopts its capacity.
#[derive(Debug, Default)]
pub(crate) struct RingPool {
    bufs: Vec<Box<[u64]>>,
    hits: u64,
    misses: u64,
}

impl RingPool {
    /// Park a retired word-buffer for reuse (empty buffers are dropped).
    pub fn put(&mut self, buf: Box<[u64]>) {
        if !buf.is_empty() {
            self.bufs.push(buf);
        }
    }

    /// Take the smallest buffer of at least [`DEFAULT_CAP`] bits, zeroed
    /// and ready for use. `None` (a pool miss) means the caller allocates
    /// fresh.
    pub fn take(&mut self) -> Option<Box<[u64]>> {
        let want_words = (DEFAULT_CAP / 64) as usize;
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in self.bufs.iter().enumerate() {
            let n = buf.len();
            if n >= want_words && best.is_none_or(|(_, b)| n < b) {
                best = Some((i, n));
            }
        }
        match best {
            Some((i, _)) => {
                self.hits += 1;
                let mut buf = self.bufs.swap_remove(i);
                buf.fill(0);
                Some(buf)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Heap bytes of the parked buffers and the list holding them.
    pub fn heap_bytes(&self) -> u64 {
        let words: usize = self.bufs.iter().map(|b| b.len()).sum();
        (words * 8) as u64 + crate::mem::vec_bytes(&self.bufs)
    }

    /// Buffers currently parked.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// `(hits, misses)` over the pool's lifetime.
    #[cfg(test)]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// A set of `u64` sequence numbers stored as a rotating bitmap: a power-of-
/// two ring of bits indexed by `seq & mask`, valid for members in
/// `[base, base + capacity)`. `base` only moves forward
/// ([`BitRing::advance_to`]), clearing as it goes, so a slot is never
/// ambiguous: within the valid span each slot maps to exactly one sequence.
///
/// 48 bytes, three per hot slot: the capacity is read off `words`, and the
/// two counters are `u32` because a ring holds at most [`MAX_CAP`] bits and
/// grows at most `log2(MAX_CAP / 64)` times.
#[derive(Debug, Clone)]
pub(crate) struct BitRing {
    /// Lowest sequence the ring can represent; members are ≥ `base`.
    base: u64,
    /// The bits: a power-of-two count of words, so the capacity
    /// `words.len() * 64` is a power of two ≥ 64 bits (0 once gutted).
    words: Box<[u64]>,
    /// Lower bound on the smallest bitmap member (`≥ base` once clamped).
    lo: u64,
    /// One past an upper bound on the largest bitmap member.
    hi: u64,
    /// Set bits in `words`.
    len: u32,
    /// Ring growths (allocation events).
    allocs: u32,
}

impl Default for BitRing {
    /// An empty ring of [`DEFAULT_CAP`] bits.
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAP)
    }
}

impl BitRing {
    pub fn with_capacity(cap_bits: u64) -> Self {
        let cap = cap_bits.clamp(64, MAX_CAP).next_power_of_two();
        // Allocated, then zeroed, rather than `vec![0; n]`, which becomes a
        // `calloc`: glibc serves `calloc` past its per-thread cache, and
        // with 32-byte bulk rings that made a `wan_lossy4` set-up 0.4 µs
        // (20%) slower. `black_box` keeps the fill from being folded back
        // into a `calloc`.
        let n = (cap / 64) as usize;
        let mut words = Vec::with_capacity(n);
        words.resize(n, std::hint::black_box(0u64));
        Self::from_words(words.into_boxed_slice())
    }

    /// An empty ring over zeroed `words` (a power-of-two count).
    fn from_words(words: Box<[u64]>) -> Self {
        debug_assert!(words.len().is_power_of_two());
        Self { base: 0, words, len: 0, lo: 0, hi: 0, allocs: 0 }
    }

    /// An empty ring of at least [`DEFAULT_CAP`] bits: the smallest
    /// parked buffer of `pool` that holds as many, capacity and all, or a
    /// fresh one.
    pub fn pooled(pool: &mut RingPool) -> Self {
        pool.take().map_or_else(Self::default, Self::from_words)
    }

    /// Return to the freshly-constructed empty state without dropping the
    /// word storage; the monotone `allocs` counter is preserved so
    /// steady-state flatness assertions keep holding across slot reuse.
    pub fn reset_for_reuse(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
        }
        self.base = 0;
        self.len = 0;
        self.lo = 0;
        self.hi = 0;
    }

    /// Gut this ring: move its word storage into `pool` and leave behind a
    /// zero-capacity husk that must never be used again (the caller is
    /// tombstoning the containing slot).
    pub fn gut_into(&mut self, pool: &mut RingPool) {
        let words = std::mem::replace(&mut self.words, Vec::new().into_boxed_slice());
        pool.put(words);
        self.base = 0;
        self.len = 0;
        self.lo = 0;
        self.hi = 0;
    }

    #[inline]
    pub fn len(&self) -> u64 {
        u64::from(self.len)
    }

    /// Lowest sequence the ring can represent: [`Self::advance_to`]'s last
    /// argument, or 0.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn alloc_events(&self) -> u64 {
        u64::from(self.allocs)
    }

    /// Heap bytes of the ring's words.
    pub fn heap_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// Ring capacity, in bits (0 once gutted).
    #[inline]
    pub fn cap(&self) -> u64 {
        self.words.len() as u64 * 64
    }

    /// Ring capacity minus one: the slot of `seq` is `seq & mask`.
    #[inline]
    fn mask(&self) -> u64 {
        self.cap().wrapping_sub(1)
    }

    #[inline]
    fn word_bit(&self, seq: u64) -> (usize, u64) {
        let slot = seq & self.mask();
        ((slot >> 6) as usize, 1u64 << (slot & 63))
    }

    /// The ring word holding masked slot-word index `w`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "w = (seq & mask) >> 6 comes from word_bit, so w < words.len() = cap/64 by construction; a miss means the mask/words invariant is broken and must fail loudly"
    )]
    fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Mutable access to the ring word at masked slot-word index `w`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "w = (seq & mask) >> 6 comes from word_bit, so w < words.len() = cap/64 by construction; a miss means the mask/words invariant is broken and must fail loudly"
    )]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        &mut self.words[w]
    }

    #[inline]
    pub fn contains(&self, seq: u64) -> bool {
        if seq < self.base || seq - self.base >= self.cap() {
            return false;
        }
        let (w, bit) = self.word_bit(seq);
        self.word(w) & bit != 0
    }

    /// Insert `seq`; returns whether it is new.
    ///
    /// # Panics
    /// Panics, in release builds too, if `seq` is outside
    /// `[base, base + MAX_CAP)` or the ring was gutted: dropping the
    /// member silently would corrupt loss recovery.
    pub fn insert(&mut self, seq: u64) -> bool {
        // A `seq` below `base` wraps to a huge offset and fails the same
        // check.
        let off = seq.wrapping_sub(self.base);
        if off >= self.cap() {
            assert!(
                off < MAX_CAP && !self.words.is_empty(),
                "scoreboard insert of {seq} outside the ring at base {} ({} words)",
                self.base,
                self.words.len()
            );
            self.grow_to_fit(seq);
        }
        let (w, bit) = self.word_bit(seq);
        if self.word(w) & bit != 0 {
            return false;
        }
        *self.word_mut(w) |= bit;
        if self.len == 0 {
            self.lo = seq;
            self.hi = seq + 1;
        } else {
            self.lo = self.lo.min(seq);
            self.hi = self.hi.max(seq + 1);
        }
        self.len += 1;
        true
    }

    /// Remove `seq`; returns whether it was held.
    pub fn remove(&mut self, seq: u64) -> bool {
        if seq < self.base || seq - self.base >= self.cap() {
            return false;
        }
        let (w, bit) = self.word_bit(seq);
        if self.word(w) & bit == 0 {
            return false;
        }
        *self.word_mut(w) &= !bit;
        self.len -= 1;
        if self.len == 0 {
            self.lo = self.base;
            self.hi = self.base;
        }
        true
    }

    /// Slide the window: drop every member below `new_base` and make
    /// `new_base` the new floor. O(1) when empty (the steady-state case),
    /// otherwise a masked word-range clear.
    pub fn advance_to(&mut self, new_base: u64) {
        if new_base <= self.base {
            return;
        }
        if self.len > 0 {
            let from = self.lo.max(self.base);
            let to = new_base.min(self.hi);
            if to > from {
                self.clear_seq_span(from, to);
            }
            if self.len == 0 {
                self.lo = new_base;
                self.hi = new_base;
            } else {
                self.lo = self.lo.max(new_base);
            }
        } else {
            self.lo = new_base;
            self.hi = new_base;
        }
        self.base = new_base;
    }

    /// Pop the smallest member.
    pub fn pop_first(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        // len > 0 guarantees a member in [lo, hi); if the ring ever
        // disagrees, report empty instead of panicking mid-simulation.
        let Some(seq) = self.first_in(self.lo.max(self.base), self.hi) else {
            debug_assert!(false, "len > 0 must yield a member in [lo, hi)");
            return None;
        };
        self.remove(seq);
        if self.len > 0 {
            self.lo = seq + 1;
        }
        Some(seq)
    }

    /// The `n`-th highest member (0 = highest).
    pub fn nth_back(&self, n: usize) -> Option<u64> {
        let n = n as u64;
        if n >= self.len() {
            return None;
        }
        self.nth_back_in(self.lo.max(self.base), self.hi, n)
    }

    /// Visit members in ascending order; stop early when `f` returns false.
    pub fn for_each_ascending(&self, mut f: impl FnMut(u64) -> bool) {
        if self.len == 0 {
            return;
        }
        let (from, to) = (self.lo.max(self.base), self.hi);
        self.spans(from, to, |words, a, b, seq_at_a| {
            let mut slot = a;
            while let Some(s) = span_first(words, slot, b) {
                if !f(seq_at_a + (s - a)) {
                    return false;
                }
                slot = s + 1;
            }
            true
        });
    }

    /// Decompose the seq range `[from, to)` (within the valid span) into
    /// ≤ 2 linear slot spans and fold `f` over them; `f` gets
    /// `(words, slot_start, slot_end, seq_at_slot_start)` and returns
    /// whether to continue. Returns whether every span ran to completion.
    fn spans(&self, from: u64, to: u64, mut f: impl FnMut(&[u64], u64, u64, u64) -> bool) -> bool {
        debug_assert!(to - from <= self.cap());
        let a = from & self.mask();
        let d = to - from;
        if a + d <= self.cap() {
            f(&self.words, a, a + d, from)
        } else {
            let first_len = self.cap() - a;
            f(&self.words, a, self.cap(), from)
                && f(&self.words, 0, d - first_len, from + first_len)
        }
    }

    fn first_in(&self, from: u64, to: u64) -> Option<u64> {
        let mut found = None;
        self.spans(from, to, |words, a, b, seq0| {
            if let Some(slot) = span_first(words, a, b) {
                found = Some(seq0 + (slot - a));
                false
            } else {
                true
            }
        });
        found
    }

    fn nth_back_in(&self, from: u64, to: u64, mut n: u64) -> Option<u64> {
        // Collect the ≤2 spans, then walk them from the top.
        let mut spans: [(u64, u64, u64); 2] = [(0, 0, 0); 2];
        let mut count = 0;
        self.spans(from, to, |_, a, b, seq0| {
            if let Some(slot) = spans.get_mut(count) {
                *slot = (a, b, seq0);
                count += 1;
            }
            true
        });
        for &(a, b, seq0) in spans.iter().take(count).rev() {
            if let Some(slot) = span_nth_back(&self.words, a, b, &mut n) {
                return Some(seq0 + (slot - a));
            }
        }
        None
    }

    /// Clear bits for the seq range `[from, to)`, updating `len`.
    fn clear_seq_span(&mut self, from: u64, to: u64) {
        let (cap, mask) = (self.cap(), self.mask());
        let mut cleared = 0u32;
        let words = &mut self.words;
        // Inline `spans` logic over &mut words.
        let a = from & mask;
        let d = to - from;
        let ranges = if a + d <= cap { [(a, a + d), (0, 0)] } else { [(a, cap), (0, a + d - cap)] };
        for (s, e) in ranges {
            if s >= e {
                continue;
            }
            let first_w = (s / 64) as usize;
            let last_w = ((e - 1) / 64) as usize;
            for (w, word) in words.iter_mut().enumerate().take(last_w + 1).skip(first_w) {
                let mut m = !0u64;
                if w == first_w {
                    m &= !0u64 << (s % 64);
                }
                if w == last_w {
                    let top = e % 64;
                    if top != 0 {
                        m &= (1u64 << top) - 1;
                    }
                }
                cleared += (*word & m).count_ones();
                *word &= !m;
            }
        }
        self.len -= cleared;
    }

    /// Grow the ring (doubling) until `seq` fits, re-placing members.
    fn grow_to_fit(&mut self, seq: u64) {
        let mut new_cap = self.cap();
        while seq - self.base >= new_cap {
            new_cap *= 2;
        }
        debug_assert!(new_cap <= MAX_CAP);
        let new_words = vec![0u64; (new_cap / 64) as usize].into_boxed_slice();
        let old = std::mem::replace(&mut self.words, new_words);
        let old_mask = old.len() as u64 * 64 - 1;
        self.allocs += 1;
        if self.len > 0 {
            // Re-place every member: slots move when the mask changes.
            let (from, to) = (self.lo.max(self.base), self.hi);
            let relocated = self.len;
            self.len = 0;
            let lo = self.lo;
            let hi = self.hi;
            for_each_in_ring(&old, old_mask, from, to, |s| {
                let (w, bit) = self.word_bit(s);
                *self.word_mut(w) |= bit;
            });
            self.len = relocated;
            self.lo = lo;
            self.hi = hi;
        }
    }
}

/// First set slot in the linear slot span `[a, b)`.
#[inline]
fn span_first(words: &[u64], a: u64, b: u64) -> Option<u64> {
    if a >= b {
        return None;
    }
    let first_w = (a / 64) as usize;
    let last_w = ((b - 1) / 64) as usize;
    for (w, &word) in words.iter().enumerate().take(last_w + 1).skip(first_w) {
        let mut m = word;
        if w == first_w {
            m &= !0u64 << (a % 64);
        }
        if w == last_w {
            let top = b % 64;
            if top != 0 {
                m &= (1u64 << top) - 1;
            }
        }
        if m != 0 {
            return Some(w as u64 * 64 + m.trailing_zeros() as u64);
        }
    }
    None
}

/// The slot of the `(*n)`-th highest set bit in the linear slot span
/// `[a, b)`, decrementing `*n` past the bits it skips when there are not
/// enough.
#[inline]
fn span_nth_back(words: &[u64], a: u64, b: u64, n: &mut u64) -> Option<u64> {
    if a >= b {
        return None;
    }
    let first_w = (a / 64) as usize;
    let last_w = ((b - 1) / 64) as usize;
    for w in (first_w..=last_w).rev() {
        // Out-of-range reads see an empty word (skipped by the count
        // check below); callers keep [a, b) inside the slab.
        let mut m = words.get(w).copied().unwrap_or(0);
        if w == first_w {
            m &= !0u64 << (a % 64);
        }
        if w == last_w {
            let top = b % 64;
            if top != 0 {
                m &= (1u64 << top) - 1;
            }
        }
        let cnt = m.count_ones() as u64;
        if *n >= cnt {
            *n -= cnt;
            continue;
        }
        for _ in 0..*n {
            m &= !(1u64 << (63 - m.leading_zeros()));
        }
        return Some(w as u64 * 64 + (63 - m.leading_zeros()) as u64);
    }
    None
}

/// Visit set bits of a foreign ring (used while re-placing during growth).
fn for_each_in_ring(words: &[u64], mask: u64, from: u64, to: u64, mut f: impl FnMut(u64)) {
    let cap = mask + 1;
    debug_assert!(to - from <= cap);
    let a = from & mask;
    let d = to - from;
    let ranges = if a + d <= cap { [(a, a + d, from), (0, 0, 0)] } else { [(a, cap, from), (0, a + d - cap, from + (cap - a))] };
    for (s, e, seq0) in ranges {
        if s >= e {
            continue;
        }
        let mut slot = s;
        while let Some(found) = span_first(words, slot, e) {
            f(seq0 + (found - s));
            slot = found + 1;
        }
    }
}

/// The allocation-free sender scoreboard: two [`BitRing`]s plus a small
/// sorted vector for retransmitted-out sequences (a handful of entries at
/// most — binary-searched, cache-resident).
#[derive(Debug)]
pub(crate) struct BitmapScoreboard {
    sacked: BitRing,
    lost: BitRing,
    /// `(seq, sack_events at retransmit)`, sorted by `seq`.
    retx: Vec<(u64, u64)>,
    retx_allocs: u64,
}

impl BitmapScoreboard {
    #[inline]
    fn retx_contains(&self, seq: u64) -> bool {
        self.retx.binary_search_by_key(&seq, |&(s, _)| s).is_ok()
    }

    fn retx_remove(&mut self, seq: u64) {
        if let Ok(i) = self.retx.binary_search_by_key(&seq, |&(s, _)| s) {
            self.retx.remove(i);
        }
    }

    /// Capacities of the sacked and lost rings, in bits.
    #[cfg(test)]
    pub(crate) fn ring_bits(&self) -> [u64; 2] {
        [self.sacked.cap(), self.lost.cap()]
    }

    /// Fresh scoreboard, drawing ring storage from `pool` when a retired
    /// buffer fits.
    pub(crate) fn new(pool: &mut RingPool) -> Self {
        Self {
            sacked: BitRing::pooled(pool),
            lost: BitRing::pooled(pool),
            retx: Vec::new(),
            retx_allocs: 0,
        }
    }

    /// Return to the freshly-constructed empty state *in place*: storage
    /// stays allocated and the monotone allocation counters keep counting,
    /// so a recycled flow slot starts clean without touching the global
    /// allocator.
    pub(crate) fn reset_for_reuse(&mut self) {
        self.sacked.reset_for_reuse();
        self.lost.reset_for_reuse();
        self.retx.clear();
    }

    /// Surrender the ring storage into `pool`, leaving a gutted (empty,
    /// never-used-again) husk behind.
    pub(crate) fn gut_into(&mut self, pool: &mut RingPool) {
        self.sacked.gut_into(pool);
        self.lost.gut_into(pool);
        self.retx = Vec::new();
    }

    /// Number of sequences the receiver reported holding (≥ `una`).
    pub(crate) fn sacked_len(&self) -> u64 {
        self.sacked.len()
    }

    /// Whether `seq` has been SACKed.
    pub(crate) fn sacked_contains(&self, seq: u64) -> bool {
        self.sacked.contains(seq)
    }

    /// Number of sequences currently deemed lost and not yet retransmitted.
    pub(crate) fn lost_len(&self) -> u64 {
        self.lost.len()
    }

    /// Whether no sequence is waiting for retransmission.
    pub(crate) fn lost_is_empty(&self) -> bool {
        self.lost.is_empty()
    }

    /// Pop the lowest lost sequence and record it as retransmitted-out at
    /// SACK-event count `sack_events` (for the RACK-style re-mark rule).
    pub(crate) fn pop_lost_for_retx(&mut self, sack_events: u64) -> Option<u64> {
        let seq = self.lost.pop_first()?;
        let i = self.retx.partition_point(|&(s, _)| s < seq);
        if self.retx.len() == self.retx.capacity() {
            self.retx_allocs += 1;
        }
        self.retx.insert(i, (seq, sack_events));
        Some(seq)
    }

    /// Drop all state below the new cumulative ACK point.
    pub(crate) fn advance_to(&mut self, cum: u64) {
        self.sacked.advance_to(cum);
        self.lost.advance_to(cum);
        let below = self.retx.partition_point(|&(s, _)| s < cum);
        if below > 0 {
            self.retx.drain(..below);
        }
    }

    /// Mark `seq` SACKed; returns whether it is newly marked. A newly
    /// SACKed sequence leaves the lost and retransmitted-out sets.
    pub(crate) fn sack_one(&mut self, seq: u64) -> bool {
        if !self.sacked.insert(seq) {
            return false;
        }
        self.lost.remove(seq);
        self.retx_remove(seq);
        true
    }

    /// The `n`-th highest SACKed sequence (0 = highest), if it exists.
    pub(crate) fn nth_highest_sacked(&self, n: usize) -> Option<u64> {
        self.sacked.nth_back(n)
    }

    /// Mark every hole in `[una, cutoff)` — neither SACKed nor already
    /// lost nor retransmitted-out — as lost. Returns whether any was new.
    pub(crate) fn mark_holes_lost(&mut self, una: u64, cutoff: u64) -> bool {
        let mut any = false;
        for seq in una..cutoff {
            if self.sacked.contains(seq) || self.lost.contains(seq) || self.retx_contains(seq) {
                continue;
            }
            self.lost.insert(seq);
            any = true;
        }
        any
    }

    /// RACK-style re-mark: retransmissions below `cutoff` with ≥ `thresh`
    /// *new* SACK events since they went out are moved back to lost.
    /// Returns whether any was moved.
    pub(crate) fn remark_lost_retx(&mut self, cutoff: u64, sack_events: u64, thresh: u64) -> bool {
        let lost = &mut self.lost;
        let mut any = false;
        self.retx.retain(|&(s, ev)| {
            if s < cutoff && sack_events >= ev + thresh {
                lost.insert(s);
                any = true;
                false
            } else {
                true
            }
        });
        any
    }

    /// RTO collapse: clear retransmitted-out, mark everything unsacked in
    /// `[una, next_seq)` lost (the network is presumed drained).
    pub(crate) fn rto_collapse(&mut self, una: u64, next_seq: u64) {
        self.retx.clear();
        for seq in una..next_seq {
            if !self.sacked.contains(seq) {
                self.lost.insert(seq);
            }
        }
    }

    /// Allocation events so far: ring growths plus retransmitted-out list
    /// growths. Feeds [`crate::SimPerf::hot_allocs`].
    pub(crate) fn alloc_events(&self) -> u64 {
        self.sacked.alloc_events() + self.lost.alloc_events() + self.retx_allocs
    }

    /// Heap bytes the sets hold (see [`crate::MemBytes::rings`]).
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.sacked.heap_bytes() + self.lost.heap_bytes() + crate::mem::vec_bytes(&self.retx)
    }
}

/// Which scoreboard [`scoreboard_churn`] drives: the rotating bitmap, the
/// only one there is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreboardKind {
    /// The rotating-bitmap scoreboard.
    Bitmap,
}

/// Micro-benchmark hook: drive the scoreboard through a synthetic
/// SACK/loss/retransmit/advance cycle and return the wall time, the
/// counterpart of [`crate::queue_churn`] for the structure the per-ACK
/// path spends its time in. The workload holds `window` packets
/// outstanding, SACKs every other one (worst-case fragmentation), marks
/// the holes lost past a DupThresh cutoff, retransmits them, then advances
/// cumulatively — at least `ops` scoreboard operations in total.
pub fn scoreboard_churn(kind: ScoreboardKind, window: u64, ops: u64) -> std::time::Duration {
    let ScoreboardKind::Bitmap = kind;
    let window = window.max(8);
    let mut board = BitmapScoreboard::new(&mut RingPool::default());
    let mut una = 0u64;
    let mut sack_events = 0u64;
    let mut done = 0u64;
    let start = crate::perf::wall_clock();
    while done < ops {
        let next = una + window;
        // Receiver holds every other packet above the first hole.
        let mut seq = una + 1;
        while seq < next {
            if board.sack_one(seq) {
                sack_events += 1;
            }
            done += 1;
            seq += 2;
        }
        // DupThresh reached: everything below the cutoff not SACKed is lost.
        if let Some(cutoff) = board.nth_highest_sacked(2) {
            board.mark_holes_lost(una, cutoff);
            done += cutoff - una;
        }
        // Retransmit every hole, then re-mark a late loss episode.
        while board.pop_lost_for_retx(sack_events).is_some() {
            done += 1;
        }
        // Three further SACK arrivals without the retransmissions being
        // covered: the re-mark rule sends them again.
        sack_events += 3;
        board.remark_lost_retx(next, sack_events, 3);
        while board.pop_lost_for_retx(sack_events).is_some() {
            done += 1;
        }
        // The cumulative ACK catches up; the window slides forward whole.
        una = next;
        board.advance_to(una);
        done += 1;
    }
    std::hint::black_box(board.sacked_len());
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut r = BitRing::with_capacity(64);
        assert!(r.is_empty());
        assert!(r.insert(5));
        assert!(!r.insert(5), "duplicate insert");
        assert!(r.contains(5));
        assert!(!r.contains(4));
        assert!(r.remove(5));
        assert!(!r.remove(5));
        assert!(r.is_empty());
    }

    #[test]
    fn advance_drops_members_below() {
        let mut r = BitRing::with_capacity(64);
        for s in [1, 3, 10, 40] {
            r.insert(s);
        }
        r.advance_to(10);
        assert_eq!(r.len(), 2);
        assert!(!r.contains(1));
        assert!(!r.contains(3));
        assert!(r.contains(10));
        assert!(r.contains(40));
    }

    #[test]
    fn ring_wraps_across_the_boundary() {
        // cap 64: seqs 60..68 straddle the slot wrap at 64.
        let mut r = BitRing::with_capacity(64);
        r.advance_to(60);
        for s in 60..68 {
            assert!(r.insert(s));
        }
        assert_eq!(r.len(), 8);
        for s in 60..68 {
            assert!(r.contains(s), "seq {s} across the wrap");
        }
        assert_eq!(r.pop_first(), Some(60));
        assert_eq!(r.nth_back(0), Some(67));
        assert_eq!(r.nth_back(2), Some(65));
        let mut seen = Vec::new();
        r.for_each_ascending(|s| {
            seen.push(s);
            true
        });
        assert_eq!(seen, (61..68).collect::<Vec<_>>());
    }

    #[test]
    fn growth_preserves_members() {
        let mut r = BitRing::with_capacity(64);
        r.insert(0);
        r.insert(63);
        assert_eq!(r.alloc_events(), 0);
        r.insert(100); // forces a grow
        assert!(r.alloc_events() >= 1);
        for s in [0, 63, 100] {
            assert!(r.contains(s));
        }
        assert_eq!(r.len(), 3);
    }

    #[test]
    #[should_panic(expected = "outside the ring")]
    fn insert_past_max_cap_panics_instead_of_dropping() {
        let mut r = BitRing::with_capacity(64);
        r.insert(1);
        assert!(r.insert(MAX_CAP - 1), "the last representable offset grows the ring");
        r.insert(MAX_CAP);
    }

    #[test]
    #[should_panic(expected = "outside the ring")]
    fn insert_into_a_gutted_ring_panics_instead_of_regrowing() {
        let mut r = BitRing::with_capacity(64);
        r.gut_into(&mut RingPool::default());
        r.insert(5);
    }

    #[test]
    fn reset_for_reuse_restores_fresh_semantics_without_dropping_storage() {
        let mut r = BitRing::with_capacity(256);
        for s in [3, 7, 200] {
            r.insert(s);
        }
        r.advance_to(5);
        let words_before = r.words.len();
        let allocs_before = r.alloc_events();
        r.reset_for_reuse();
        assert!(r.is_empty());
        assert_eq!(r.words.len(), words_before, "storage survives the reset");
        assert_eq!(r.alloc_events(), allocs_before, "alloc counter is monotone");
        assert!(!r.contains(7) && !r.contains(200));
        // Behaves exactly like a fresh ring from base 0.
        assert!(r.insert(0));
        assert!(r.insert(255));
        assert_eq!(r.pop_first(), Some(0));
        assert_eq!(r.nth_back(0), Some(255));
    }

    #[test]
    fn ring_pool_recycles_gutted_storage() {
        let mut pool = RingPool::default();
        let mut r = BitRing::with_capacity(512);
        r.insert(17);
        r.gut_into(&mut pool);
        assert_eq!(pool.len(), 1);
        // A parked buffer is reused, zeroed.
        let reused = BitRing::pooled(&mut pool);
        assert_eq!(pool.len(), 0);
        assert_eq!(reused.cap(), 512, "adopts the parked buffer's capacity");
        assert!(reused.is_empty());
        assert!(!reused.contains(17), "recycled storage arrives clean");
        assert_eq!(pool.stats(), (1, 0));
        // An empty pool misses and allocates fresh.
        let fresh = BitRing::pooled(&mut pool);
        assert_eq!(fresh.cap(), DEFAULT_CAP);
        assert_eq!(pool.stats(), (1, 1));
    }

    #[test]
    fn ring_pool_take_prefers_the_smallest_fitting_buffer() {
        let mut pool = RingPool::default();
        for cap in [4096, 128, 1024] {
            BitRing::with_capacity(cap).gut_into(&mut pool);
        }
        let mut bits = || pool.take().map(|b| b.len() as u64 * 64);
        assert_eq!(bits(), Some(1024), "best fit, not first fit");
        assert_eq!(bits(), Some(4096));
        assert_eq!(bits(), None, "128 bits are below the 256 a ring starts at");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn scoreboard_reset_clears_all_three_sets_in_place() {
        let mut b = BitmapScoreboard::new(&mut RingPool::default());
        for s in 1..5 {
            b.sack_one(s);
        }
        b.mark_holes_lost(0, 2);
        b.pop_lost_for_retx(4);
        b.reset_for_reuse();
        assert_eq!(b.sacked_len(), 0);
        assert!(b.lost_is_empty());
        assert!(!b.retx_contains(0));
        // Fresh recovery cycle works from sequence zero again.
        assert!(b.sack_one(1));
        assert!(b.mark_holes_lost(0, 1));
        assert_eq!(b.pop_lost_for_retx(1), Some(0));
    }

    #[test]
    fn scoreboard_basic_recovery_cycle() {
        let mut b = BitmapScoreboard::new(&mut RingPool::default());
        // 0..6 outstanding; 1..5 sacked, hole at 0.
        for s in 1..5 {
            assert!(b.sack_one(s));
            assert!(!b.sack_one(s));
        }
        assert_eq!(b.sacked_len(), 4);
        assert_eq!(b.nth_highest_sacked(2), Some(2));
        assert!(b.mark_holes_lost(0, 2));
        assert!(!b.mark_holes_lost(0, 2), "idempotent");
        assert_eq!(b.lost_len(), 1);
        assert_eq!(b.pop_lost_for_retx(4), Some(0));
        assert!(b.lost_is_empty());
        // The retransmission is itself lost: 3 new sack events re-mark it.
        assert!(!b.remark_lost_retx(2, 6, 3));
        assert!(b.remark_lost_retx(2, 7, 3));
        assert_eq!(b.pop_lost_for_retx(7), Some(0));
        b.advance_to(6);
        assert_eq!(b.sacked_len(), 0);
        assert!(b.lost_is_empty());
    }
}
