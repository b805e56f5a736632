//! Good fixture: D9, under `sim.rs`'s header. The same slab work done
//! honestly: widening conversions, `From`/`TryFrom`, and one reasoned
//! expectation where truncation is the documented semantics.

pub struct Slab {
    entries: Vec<u64>,
}

impl Slab {
    pub fn id_of(&self, idx: u32) -> u64 {
        u64::from(idx) + self.entries.len() as u64
    }

    pub fn hop_count(&self, raw: u64) -> Option<u8> {
        u8::try_from(raw).ok()
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "truncation IS the semantics: the wire format stores only the low 8 bits of the rolling checksum"
    )]
    pub fn checksum_low_byte(&self, sum: u64) -> u8 {
        sum as u8
    }
}
