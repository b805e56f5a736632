//! Packets as they move through the simulated network.

use crate::cast;
use crate::cbr::CbrId;
use crate::sim::ConnId;

/// The size of every packet, in bytes (the paper expresses link rates in
/// both Mb/s and pkt/s; 1500-byte packets make 12 Mb/s ≈ 1000 pkt/s).
pub const DEFAULT_PACKET_SIZE: u32 = 1500;

/// Who owns a packet in flight: a TCP subflow or a CBR source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PacketOwner {
    /// A data packet of subflow `sub` of connection `conn`, carrying the
    /// low 32 bits of its subflow sequence number `seq` (in packets,
    /// starting at 0). The receiver widens them back against the sequence
    /// it expects next (see [`crate::cast::widen_seq`]).
    Subflow {
        /// Owning connection.
        conn: ConnId,
        /// Subflow index within the connection.
        sub: usize,
        /// Subflow-level sequence number, in packets, modulo 2^32.
        seq: u32,
    },
    /// A packet from a constant-bit-rate source.
    Cbr {
        /// Owning source.
        src: CbrId,
    },
}

/// Bit of [`Packet::id`] that marks the id as a CBR source's.
const CBR_BIT: u32 = 1 << 31;

/// A packet in flight: 12 bytes, 4-aligned, of which link queues, the
/// event slab and shard mailboxes hold tens of thousands. The forward path
/// is looked up from the owner, and [`PacketOwner`] is the unpacked view
/// of `seq`, `id` and `sub`. The narrow fields bound what a world can hold
/// — [`assert_packable`] rejects at admission a source that would not fit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packet {
    /// Low 32 bits of the subflow sequence number (0 for CBR).
    seq: u32,
    /// Connection id, or CBR source id with [`CBR_BIT`] set.
    id: u32,
    /// Subflow index within the connection (0 for CBR).
    sub: u8,
    /// Index of the *next* hop in the owner's path the packet must enter
    /// (0 before the first link).
    hop: u8,
}

impl Packet {
    /// A packet about to enter the first link of its path.
    pub(crate) fn new(owner: PacketOwner) -> Self {
        let (seq, id, sub) = match owner {
            PacketOwner::Subflow { conn, sub, seq } => {
                (seq, cast::owner_u31(conn), cast::sub_u8(sub))
            }
            PacketOwner::Cbr { src } => (0, cast::owner_u31(src) | CBR_BIT, 0),
        };
        Packet { seq, id, sub, hop: 0 }
    }

    /// Originating sender.
    pub(crate) fn owner(&self) -> PacketOwner {
        if self.id & CBR_BIT != 0 {
            PacketOwner::Cbr { src: (self.id & !CBR_BIT) as usize }
        } else {
            PacketOwner::Subflow { conn: self.id as usize, sub: self.sub as usize, seq: self.seq }
        }
    }

    /// Index of the next hop of the owner's path the packet must enter.
    pub(crate) fn hop(&self) -> usize {
        self.hop as usize
    }

    /// The packet left the link at [`Self::hop`].
    pub(crate) fn advance(&mut self) {
        self.hop = cast::path_u8(self.hop() + 1);
    }
}

/// Reject — once, where a connection or CBR source is admitted, in release
/// builds too — a sender whose packets [`Packet`] cannot carry: `id` is the
/// connection's world-level id or the CBR source's, `hops` its longest path.
pub(crate) fn assert_packable(id: usize, subflows: usize, hops: usize) {
    assert!(id < CBR_BIT as usize, "sender id {id} does not fit a packet's 31 bits");
    assert!(subflows <= 1 << 8, "{subflows} subflows: a packet can name 256");
    assert!(hops <= u8::MAX as usize, "a path of {hops} hops: a packet can count 255");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_is_small() {
        // Per-packet state stays compact: the event queue holds many.
        assert_eq!(std::mem::size_of::<Packet>(), 12);
        assert_eq!(std::mem::align_of::<Packet>(), 4);
    }

    #[test]
    fn owner_equality() {
        let a = PacketOwner::Subflow { conn: 1, sub: 0, seq: 5 };
        let b = PacketOwner::Subflow { conn: 1, sub: 0, seq: 5 };
        assert_eq!(a, b);
        assert_ne!(a, PacketOwner::Cbr { src: 0 });
    }

    const MAX_ID: usize = (1 << 31) - 1;

    #[test]
    fn packed_fields_round_trip_at_their_maxima() {
        for owner in [
            PacketOwner::Subflow { conn: MAX_ID, sub: 255, seq: u32::MAX },
            PacketOwner::Subflow { conn: 0, sub: 0, seq: 0 },
            PacketOwner::Cbr { src: MAX_ID },
            PacketOwner::Cbr { src: 0 },
        ] {
            let mut pkt = Packet::new(owner);
            assert_eq!((pkt.owner(), pkt.hop()), (owner, 0));
            for hop in 1..=255 {
                pkt.advance();
                assert_eq!(pkt.hop(), hop);
            }
            assert_eq!(pkt.owner(), owner);
        }
        assert_packable(MAX_ID, 256, 255);
    }

    /// One past each maximum panics, in release builds too, both where the
    /// field is packed and at admission.
    #[test]
    fn one_past_each_maximum_is_rejected() {
        fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
            std::panic::catch_unwind(f).is_err()
        }
        for owner in [
            PacketOwner::Subflow { conn: MAX_ID + 1, sub: 0, seq: 0 },
            PacketOwner::Subflow { conn: 0, sub: 256, seq: 0 },
            PacketOwner::Cbr { src: MAX_ID + 1 },
        ] {
            assert!(panics(|| _ = Packet::new(owner)), "{owner:?}");
        }
        assert!(panics(|| {
            let mut pkt = Packet::new(PacketOwner::Cbr { src: 0 });
            (0..256).for_each(|_| pkt.advance());
        }));
        assert!(panics(|| assert_packable(MAX_ID + 1, 1, 1)));
        assert!(panics(|| assert_packable(0, 257, 1)));
        assert!(panics(|| assert_packable(0, 1, 256)));
    }
}
