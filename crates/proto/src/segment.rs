//! Segments and their wire encoding.
//!
//! The format mirrors how real MPTCP rides on TCP: a conventional header
//! (subflow sequence/ACK numbers, flags, advertised window) plus a list of
//! options. MPTCP-specific information — capability negotiation, join
//! tokens, data sequence mappings and data ACKs — travels **only** in
//! options, which is exactly what lets a middlebox strip them and the
//! endpoints fall back to regular TCP (§6).

/// TCP-style header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegFlags {
    /// Connection/subflow setup.
    pub syn: bool,
    /// The `subflow_ack` field is valid.
    pub ack: bool,
    /// Sender is done writing.
    pub fin: bool,
}

/// MPTCP options (§6 "Encoding": "Our implementation conveys data acks
/// using TCP options … we also encode data sequence numbers in TCP
/// options").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MptcpOption {
    /// First-subflow SYN: negotiate multipath capability.
    MpCapable {
        /// Key identifying the connection (simplified from the real
        /// crypto handshake).
        key: u64,
    },
    /// Additional-subflow SYN: "a TCP option in the SYN packets of the new
    /// subflows allows the recipient to tie the subflow into the existing
    /// connection".
    MpJoin {
        /// Token derived from the connection key.
        token: u64,
        /// Backup-priority bit: the subflow is negotiated and kept warm but
        /// must carry no data while any non-backup subflow is healthy.
        backup: bool,
    },
    /// Data Sequence Signal: maps this segment's payload into the data
    /// stream and/or carries the data-level cumulative ACK.
    Dss {
        /// Data sequence number of the first payload byte, if the segment
        /// carries a mapping.
        data_seq: Option<u64>,
        /// Data-level cumulative ACK ("an explicit data acknowledgment
        /// field in addition to the subflow acknowledgment field").
        data_ack: Option<u64>,
    },
    /// Path-manager advertisement: the sender has an additional address the
    /// peer may join a subflow to. `addr_id` names the endpoint (here: the
    /// wire/subflow index); `echo` turns the option into the peer's
    /// acknowledgment of a received advertisement, which stops the
    /// deterministic retransmit of the original.
    AddAddr {
        /// Stable identifier of the advertised endpoint.
        addr_id: u8,
        /// Advertised endpoint should be joined at backup priority.
        backup: bool,
        /// This option acknowledges a received `AddAddr` rather than
        /// advertising (mirrors the RFC 8684 echo bit).
        echo: bool,
    },
    /// Path-manager withdrawal: the address is gone; the peer must tear
    /// down any subflow using it. Carries an echo/ack bit like [`AddAddr`]
    /// so withdrawals are also retransmitted until acknowledged (a
    /// determinism-friendly extension of RFC 8684, which leaves
    /// `REMOVE_ADDR` unacknowledged).
    RemoveAddr {
        /// Identifier of the withdrawn endpoint.
        addr_id: u8,
        /// This option acknowledges a received `RemoveAddr`.
        echo: bool,
    },
}

/// A segment on a subflow. Sequence numbers are in **bytes**, like TCP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Subflow sequence number of the first payload byte.
    pub subflow_seq: u32,
    /// Subflow-level cumulative ACK (valid when `flags.ack`).
    pub subflow_ack: u32,
    /// Header flags.
    pub flags: SegFlags,
    /// Advertised receive window in bytes. With the shared receive buffer
    /// this is measured relative to the data-level cumulative ACK (§6
    /// "Flow Control"); in the rejected per-subflow mode it is relative to
    /// the subflow ACK.
    pub window: u32,
    /// Options.
    pub options: Vec<MptcpOption>,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Segment {
    /// An empty segment template.
    pub fn new() -> Self {
        Self {
            subflow_seq: 0,
            subflow_ack: 0,
            flags: SegFlags::default(),
            window: 0,
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// The DSS option of this segment, if present.
    pub fn dss(&self) -> Option<(Option<u64>, Option<u64>)> {
        self.options.iter().find_map(|o| {
            if let MptcpOption::Dss { data_seq, data_ack } = o {
                Some((*data_seq, *data_ack))
            } else {
                None
            }
        })
    }

    /// Whether this segment carries any MPTCP option (a middlebox that
    /// strips options turns this off — see [`crate::wire::WireFault`]).
    pub fn has_mptcp_options(&self) -> bool {
        !self.options.is_empty()
    }

    /// Serialize to bytes. The format is length-prefixed and versionless;
    /// it exists so that middlebox interference (byte-level rewriting) can
    /// be modelled faithfully and so the decoder's bounds checking is real.
    ///
    /// # Panics
    ///
    /// If the segment carries more than 255 options or a payload of 4 GiB
    /// or more: the option count is one byte and the payload length four,
    /// and a truncated field would encode a different segment.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`Segment::encode`] into `out`, which is cleared first so that its
    /// capacity can be reused.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let Ok(n_opts) = u8::try_from(self.options.len()) else {
            panic!("{} options do not fit the one-byte option count", self.options.len());
        };
        let Ok(len) = u32::try_from(self.payload.len()) else {
            panic!("a {}-byte payload does not fit the four-byte length", self.payload.len());
        };
        out.clear();
        // Header and length are 18 bytes, and no option takes more than 18.
        out.reserve(18 + 18 * self.options.len() + self.payload.len());
        let mut flags = 0u8;
        if self.flags.syn {
            flags |= 0x01;
        }
        if self.flags.ack {
            flags |= 0x02;
        }
        if self.flags.fin {
            flags |= 0x04;
        }
        out.push(flags);
        out.extend_from_slice(&self.subflow_seq.to_be_bytes());
        out.extend_from_slice(&self.subflow_ack.to_be_bytes());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.push(n_opts);
        for opt in &self.options {
            match opt {
                MptcpOption::MpCapable { key } => {
                    out.push(0x01);
                    out.extend_from_slice(&key.to_be_bytes());
                }
                MptcpOption::MpJoin { token, backup } => {
                    out.push(0x02);
                    out.extend_from_slice(&token.to_be_bytes());
                    out.push(u8::from(*backup));
                }
                MptcpOption::Dss { data_seq, data_ack } => {
                    out.push(0x03);
                    let mut present = 0u8;
                    if data_seq.is_some() {
                        present |= 0x01;
                    }
                    if data_ack.is_some() {
                        present |= 0x02;
                    }
                    out.push(present);
                    if let Some(s) = data_seq {
                        out.extend_from_slice(&s.to_be_bytes());
                    }
                    if let Some(a) = data_ack {
                        out.extend_from_slice(&a.to_be_bytes());
                    }
                }
                MptcpOption::AddAddr { addr_id, backup, echo } => {
                    out.push(0x04);
                    out.push(*addr_id);
                    let mut bits = 0u8;
                    if *echo {
                        bits |= 0x01;
                    }
                    if *backup {
                        bits |= 0x02;
                    }
                    out.push(bits);
                }
                MptcpOption::RemoveAddr { addr_id, echo } => {
                    out.push(0x05);
                    out.push(*addr_id);
                    out.push(u8::from(*echo));
                }
            }
        }
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Parse from bytes.
    pub fn decode(buf: &[u8]) -> Result<Segment, DecodeError> {
        let mut seg = Segment::new();
        Self::decode_into(buf, &mut seg)?;
        Ok(seg)
    }

    /// [`Segment::decode`] into `seg`, overwriting every field and reusing
    /// the capacity of its options and payload. On error `seg` holds
    /// whatever was parsed before the error.
    #[inline]
    pub(crate) fn decode_into(buf: &[u8], seg: &mut Segment) -> Result<(), DecodeError> {
        let mut r = Reader { buf, pos: 0 };
        let flags = r.u8()?;
        seg.flags = SegFlags {
            syn: flags & 0x01 != 0,
            ack: flags & 0x02 != 0,
            fin: flags & 0x04 != 0,
        };
        if flags & !0x07 != 0 {
            return Err(DecodeError::BadFlags(flags));
        }
        seg.subflow_seq = r.u32()?;
        seg.subflow_ack = r.u32()?;
        seg.window = r.u32()?;
        let n_opts = r.u8()?;
        seg.options.clear();
        for _ in 0..n_opts {
            let kind = r.u8()?;
            let opt = match kind {
                0x01 => MptcpOption::MpCapable { key: r.u64()? },
                0x02 => {
                    let token = r.u64()?;
                    let bits = r.u8()?;
                    if bits & !0x01 != 0 {
                        return Err(DecodeError::BadOption(kind));
                    }
                    MptcpOption::MpJoin { token, backup: bits & 0x01 != 0 }
                }
                0x03 => {
                    let present = r.u8()?;
                    if present & !0x03 != 0 {
                        return Err(DecodeError::BadOption(kind));
                    }
                    let data_seq = if present & 0x01 != 0 { Some(r.u64()?) } else { None };
                    let data_ack = if present & 0x02 != 0 { Some(r.u64()?) } else { None };
                    MptcpOption::Dss { data_seq, data_ack }
                }
                0x04 => {
                    let addr_id = r.u8()?;
                    let bits = r.u8()?;
                    if bits & !0x03 != 0 {
                        return Err(DecodeError::BadOption(kind));
                    }
                    MptcpOption::AddAddr {
                        addr_id,
                        backup: bits & 0x02 != 0,
                        echo: bits & 0x01 != 0,
                    }
                }
                0x05 => {
                    let addr_id = r.u8()?;
                    let bits = r.u8()?;
                    if bits & !0x01 != 0 {
                        return Err(DecodeError::BadOption(kind));
                    }
                    MptcpOption::RemoveAddr { addr_id, echo: bits & 0x01 != 0 }
                }
                other => return Err(DecodeError::BadOption(other)),
            };
            seg.options.push(opt);
        }
        let len = r.u32()? as usize;
        let payload = r.bytes(len)?;
        if r.pos != buf.len() {
            return Err(DecodeError::TrailingBytes(buf.len() - r.pos));
        }
        // Into the empty payload of `decode` this allocates exactly `len`
        // bytes (at least 8), as `to_vec` would.
        seg.payload.clear();
        seg.payload.extend_from_slice(payload);
        Ok(())
    }
}

impl Default for Segment {
    fn default() -> Self {
        Self::new()
    }
}

/// Errors from [`Segment::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure did.
    Truncated,
    /// Unknown flag bits set.
    BadFlags(u8),
    /// Unknown or malformed option kind.
    BadOption(u8),
    /// Bytes left over after the payload.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "segment truncated"),
            DecodeError::BadFlags(b) => write!(f, "unknown flag bits {b:#04x}"),
            DecodeError::BadOption(k) => write!(f, "unknown option kind {k:#04x}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.bytes(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Segment {
        Segment {
            subflow_seq: 1000,
            subflow_ack: 555,
            flags: SegFlags { syn: false, ack: true, fin: false },
            window: 65535,
            options: vec![MptcpOption::Dss { data_seq: Some(1 << 40), data_ack: Some(777) }],
            payload: b"hello multipath world".to_vec(),
        }
    }

    #[test]
    fn roundtrip_data_segment() {
        let seg = sample();
        let bytes = seg.encode();
        assert_eq!(Segment::decode(&bytes).unwrap(), seg);
    }

    #[test]
    fn roundtrip_syn_with_capable() {
        let seg = Segment {
            flags: SegFlags { syn: true, ack: false, fin: false },
            options: vec![MptcpOption::MpCapable { key: 0xDEADBEEF }],
            ..Segment::new()
        };
        assert_eq!(Segment::decode(&seg.encode()).unwrap(), seg);
    }

    #[test]
    fn roundtrip_join_and_partial_dss() {
        for dss in [
            MptcpOption::Dss { data_seq: Some(9), data_ack: None },
            MptcpOption::Dss { data_seq: None, data_ack: Some(3) },
            MptcpOption::Dss { data_seq: None, data_ack: None },
        ] {
            let seg = Segment {
                options: vec![MptcpOption::MpJoin { token: 42, backup: false }, dss],
                ..Segment::new()
            };
            assert_eq!(Segment::decode(&seg.encode()).unwrap(), seg);
        }
    }

    #[test]
    fn roundtrip_path_manager_options() {
        for opt in [
            MptcpOption::MpJoin { token: 7, backup: true },
            MptcpOption::AddAddr { addr_id: 2, backup: false, echo: false },
            MptcpOption::AddAddr { addr_id: 3, backup: true, echo: true },
            MptcpOption::RemoveAddr { addr_id: 1, echo: false },
            MptcpOption::RemoveAddr { addr_id: 9, echo: true },
        ] {
            let seg = Segment { options: vec![opt], ..Segment::new() };
            assert_eq!(Segment::decode(&seg.encode()).unwrap(), seg);
        }
    }

    #[test]
    fn bad_option_bits_rejected() {
        // Reserved bits in the AddAddr/RemoveAddr/MpJoin flag bytes must
        // error, not silently decode to something else.
        for (opt, flag_bit) in [
            (MptcpOption::AddAddr { addr_id: 1, backup: false, echo: false }, 0x04u8),
            (MptcpOption::RemoveAddr { addr_id: 1, echo: false }, 0x02),
            (MptcpOption::MpJoin { token: 1, backup: false }, 0x02),
        ] {
            let seg = Segment { options: vec![opt], ..Segment::new() };
            let mut bytes = seg.encode();
            // The flag byte is the last option byte, just before the 4-byte
            // payload length (payload is empty).
            let idx = bytes.len() - 5;
            bytes[idx] |= flag_bit;
            assert!(
                matches!(Segment::decode(&bytes), Err(DecodeError::BadOption(_))),
                "reserved bit {flag_bit:#04x} in {opt:?} must be rejected"
            );
        }
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let res = Segment::decode(&bytes[..cut]);
            assert!(res.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(Segment::decode(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_option_rejected() {
        let mut seg = sample();
        seg.options.clear();
        let mut bytes = seg.encode();
        // Splice in a bogus option count/kind: set option count to 1 and
        // append kind 0x7F before the payload length. Easier: hand-craft.
        bytes[13] = 1; // option count offset: 1 flags + 4 + 4 + 4 = 13
        bytes.insert(14, 0x7F);
        assert!(matches!(Segment::decode(&bytes), Err(DecodeError::BadOption(0x7F))));
    }

    #[test]
    #[should_panic(expected = "256 options do not fit")]
    fn encode_refuses_more_options_than_the_count_holds() {
        let options = vec![MptcpOption::MpCapable { key: 1 }; 256];
        let _ = Segment { options, ..Segment::new() }.encode();
    }

    fn arb_option() -> impl Strategy<Value = MptcpOption> {
        prop_oneof![
            any::<u64>().prop_map(|key| MptcpOption::MpCapable { key }),
            (any::<u64>(), any::<bool>())
                .prop_map(|(token, backup)| MptcpOption::MpJoin { token, backup }),
            (prop::option::of(any::<u64>()), prop::option::of(any::<u64>()))
                .prop_map(|(data_seq, data_ack)| MptcpOption::Dss { data_seq, data_ack }),
            (any::<u8>(), any::<bool>(), any::<bool>())
                .prop_map(|(addr_id, backup, echo)| MptcpOption::AddAddr { addr_id, backup, echo }),
            (any::<u8>(), any::<bool>())
                .prop_map(|(addr_id, echo)| MptcpOption::RemoveAddr { addr_id, echo }),
        ]
    }

    fn arb_segment() -> impl Strategy<Value = Segment> {
        (
            (any::<u32>(), any::<u32>(), any::<u32>()),
            (any::<bool>(), any::<bool>(), any::<bool>()),
            prop::collection::vec(arb_option(), 0..6),
            prop::collection::vec(any::<u8>(), 0..1500),
        )
            .prop_map(|((subflow_seq, subflow_ack, window), (syn, ack, fin), options, payload)| {
                Segment {
                    subflow_seq,
                    subflow_ack,
                    flags: SegFlags { syn, ack, fin },
                    window,
                    options,
                    payload,
                }
            })
    }

    /// An encoded segment, then damaged: up to three bytes XORed, then cut
    /// short, extended, or left at its length.
    fn arb_wire_bytes() -> impl Strategy<Value = Vec<u8>> {
        (
            arb_segment(),
            prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            prop_oneof![Just(None), any::<usize>().prop_map(Some)],
            prop::collection::vec(any::<u8>(), 0..3),
        )
            .prop_map(|(seg, flips, cut, tail)| {
                let mut bytes = seg.encode();
                for (at, mask) in flips {
                    let n = bytes.len();
                    bytes[at % n] ^= mask;
                }
                if let Some(at) = cut {
                    bytes.truncate(at % (bytes.len() + 1));
                }
                bytes.extend(tail);
                bytes
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Decoding into a segment that already holds options and payload
        /// gives what a fresh `decode` gives: the same segment or the same
        /// error, whatever the prior contents.
        #[test]
        fn decode_into_a_dirty_segment_matches_decode(
            prior in arb_segment(),
            bytes in prop_oneof![
                arb_wire_bytes(),
                prop::collection::vec(any::<u8>(), 0..64),
            ],
        ) {
            let mut seg = prior;
            let into = Segment::decode_into(&bytes, &mut seg).map(|()| seg);
            prop_assert_eq!(into, Segment::decode(&bytes));
        }
    }

    #[test]
    fn dss_accessor_finds_option() {
        let seg = sample();
        assert_eq!(seg.dss(), Some((Some(1 << 40), Some(777))));
        assert!(Segment::new().dss().is_none());
        assert!(seg.has_mptcp_options());
    }
}
