//! Checked narrowing casts for the simulator's hot/shard state.
//!
//! The cast lints (D9, DESIGN.md §3.2d) ban bare `as` casts that can
//! truncate, wrap or drop a sign in the files that carry the per-ACK and
//! shard-state `#![deny(clippy::cast_possible_truncation, …)]` header:
//! `as` truncates and saturates silently, and a clipped sequence number or subflow id corrupts the
//! deterministic history without tripping anything. These helpers are the
//! sanctioned route: each one states its domain invariant and enforces it
//! with `assert!` — in release builds too, where a compare and a
//! never-taken branch cost nothing next to a silently forked history.
//!
//! The helpers live in one unmarked file on purpose — the invariant text
//! and the assertion sit next to the cast, so the call sites in the linted
//! files stay clean without per-site expectations.

/// A slab/pool index (`ack_pool`, `subflows`, …) or a link, connection,
/// subflow, CBR-source or fault-action id narrowed to the `u32` stored in
/// packet headers and queued events.
///
/// Invariant: the simulator's pools and tables are bounded far below
/// `u32::MAX` entries (a million-host run still keeps per-shard pools in
/// the thousands).
#[inline]
pub(crate) fn slab_u32(n: usize) -> u32 {
    assert!(u32::try_from(n).is_ok(), "slab index {n} exceeds u32");
    n as u32
}

/// A world-map hop `(shard, shard-local link id)` packed into one `u32`:
/// the shard in the top 8 bits, the link in the low 24.
///
/// Invariant: a sharded world has at most 256 shards, and a shard fewer
/// than 2^24 links; `ShardedSimulator::add_link` rejects a link past
/// either, in every build.
#[inline]
pub(crate) fn hop_u32(shard: usize, local: usize) -> u32 {
    assert!(shard < 1 << 8, "shard {shard} exceeds the world map's 8 bits");
    assert!(local < 1 << 24, "link {local} of shard {shard} exceeds the world map's 24 bits");
    (shard << 24 | local) as u32
}

/// The `(shard, shard-local link id)` a [`hop_u32`] packed.
#[inline]
pub(crate) fn unpack_hop(hop: u32) -> (u32, u32) {
    (hop >> 24, hop & 0x00FF_FFFF)
}

/// A path length or hop position narrowed to `u8`: the length field of
/// `LinkPath::Inline` and `Packet`'s hop counter.
///
/// Invariant: the inline arm is only taken for at most `INLINE_PATH`
/// (currently 8) hops, and `packet::assert_packable` admits no path longer
/// than 255.
#[inline]
pub(crate) fn path_u8(n: usize) -> u8 {
    assert!(u8::try_from(n).is_ok(), "path position {n} exceeds u8");
    n as u8
}

/// A subflow index narrowed to `Packet`'s `u8`.
///
/// Invariant: `packet::assert_packable` admits at most 256 subflows per
/// connection.
#[inline]
pub(crate) fn sub_u8(sub: usize) -> u8 {
    assert!(u8::try_from(sub).is_ok(), "subflow index {sub} exceeds u8");
    sub as u8
}

/// A connection or CBR-source id narrowed to the 31 bits `Packet` keeps
/// beside its CBR flag.
///
/// Invariant: `packet::assert_packable` admits no id of 2^31 or above.
#[inline]
pub(crate) fn owner_u31(id: usize) -> u32 {
    assert!(id < 1 << 31, "sender id {id} exceeds 31 bits");
    id as u32
}

/// A link's drop-tail limit, in packets, narrowed to the `u32` its record
/// keeps.
///
/// Invariant: a queue holds fewer than 2^32 packets (at 12 bytes each,
/// 48 GiB of buffer); `Simulator::add_link` and `FaultPlan::push` reject
/// a larger limit in every build.
#[inline]
pub(crate) fn queue_u32(pkts: usize) -> u32 {
    assert!(u32::try_from(pkts).is_ok(), "queue limit {pkts} exceeds u32");
    pkts as u32
}

/// A CBR source's on/off generation narrowed to the `u32` its queued
/// `CbrSend` events carry.
///
/// Invariant: a source toggles fewer than 2^32 times in one run (at the
/// 10 ms mean on period of Fig. 9, that is over a year of simulated time).
#[inline]
pub(crate) fn gen_u32(gen: u64) -> u32 {
    assert!(u32::try_from(gen).is_ok(), "CBR generation {gen} exceeds u32");
    gen as u32
}

/// The low 32 bits of a subflow sequence number, as a [`crate::Packet`]
/// carries it. Truncation is the point: [`widen_seq`] restores the rest.
#[inline]
pub(crate) fn seq_low32(seq: u64) -> u32 {
    seq as u32
}

/// The subflow sequence number whose low 32 bits are `low` and which lies
/// nearest `base`: the inverse of [`seq_low32`] for any sequence within
/// 2^31 of `base`.
///
/// Invariant: the receiver widens against the sequence it expects next,
/// and every packet of a subflow in flight lies within
/// `scoreboard::MAX_CAP` (2^20) of it, far inside 2^31.
#[inline]
pub(crate) fn widen_seq(low: u32, base: u64) -> u64 {
    let delta = low.wrapping_sub(base as u32) as i32;
    base.wrapping_add_signed(i64::from(delta))
}

/// A warmed-capacity envelope (packets) collapsed to its power-of-two
/// class index — `⌈log2⌉`, so envelopes 9..=16 share class 4. The arena
/// keys its free window lists by this class so a recycled window is
/// matched to a flow its storage is already sized for.
///
/// Invariant: `⌈log2⌉` of a `u64` is at most 64, which fits `u8`.
#[inline]
pub(crate) fn env_class_u8(env: u64) -> u8 {
    let e = env.max(1);
    let c = if e.is_power_of_two() { e.ilog2() } else { e.ilog2() + 1 };
    assert!(c <= 64);
    c as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_pass_through() {
        assert_eq!(slab_u32(0), 0);
        assert_eq!(slab_u32(70_000), 70_000);
        assert_eq!(gen_u32(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(path_u8(255), 255);
        assert_eq!(sub_u8(255), 255);
        assert_eq!(owner_u31((1 << 31) - 1), (1 << 31) - 1);
        assert_eq!(unpack_hop(hop_u32(255, (1 << 24) - 1)), (255, (1 << 24) - 1));
        assert_eq!(unpack_hop(hop_u32(3, 70_000)), (3, 70_000));
    }

    /// A sequence survives its trip through a packet's 32 bits when it
    /// lies within ±2^20 (the longest flight) of the base it is widened
    /// against, also where the low bits wrap at 2^32 and 2^33.
    #[test]
    fn a_sequence_widens_back_from_its_low_32_bits() {
        const SPAN: i64 = 1 << 20;
        for base in [0u64, 1 << 20, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 33) - 7, 1 << 33] {
            let offsets = (-SPAN..=SPAN).step_by(4093).chain([-SPAN, -1, 0, 1, SPAN - 1, SPAN]);
            for off in offsets {
                let Some(seq) = base.checked_add_signed(off) else { continue };
                assert_eq!(widen_seq(seq_low32(seq), base), seq, "seq {seq} against base {base}");
            }
        }
        assert_eq!(widen_seq(5, 1 << 32), (1 << 32) + 5);
        assert_eq!(widen_seq(u32::MAX, 1 << 32), (1 << 32) - 1);
    }

    #[test]
    fn env_class_is_the_log2_ceiling() {
        assert_eq!(env_class_u8(0), 0, "zero clamps to class 0");
        assert_eq!(env_class_u8(1), 0);
        assert_eq!(env_class_u8(2), 1);
        assert_eq!(env_class_u8(9), 4);
        assert_eq!(env_class_u8(16), 4);
        assert_eq!(env_class_u8(17), 5);
        assert_eq!(env_class_u8(u64::MAX), 64);
    }

    #[test]
    #[should_panic(expected = "exceeds u8")]
    fn out_of_range_is_caught_in_every_build() {
        let _ = path_u8(300);
    }

    #[test]
    #[should_panic(expected = "exceeds the world map's 8 bits")]
    fn a_257th_shard_is_caught_in_every_build() {
        let _ = hop_u32(256, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the world map's 24 bits")]
    fn a_shard_of_2_pow_24_links_is_caught_in_every_build() {
        let _ = hop_u32(0, 1 << 24);
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    #[cfg(target_pointer_width = "64")]
    fn slab_index_past_u32_is_caught_in_every_build() {
        let _ = slab_u32(1 << 32);
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn a_cbr_generation_past_u32_is_caught_in_every_build() {
        let _ = gen_u32(1 << 32);
    }
}
