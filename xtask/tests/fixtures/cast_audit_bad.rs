//! Bad fixture: D9, under the `#![deny(…)]` header of each real per-ACK
//! and shard-state file: narrowing casts (usize→u32, u64→u8, usize→i32)
//! and a float→integer cast, each a silently clipped value.

pub struct Slab {
    entries: Vec<u64>,
}

impl Slab {
    pub fn id_of(&self, idx: usize) -> u32 {
        idx as u32
    }

    pub fn hop_count(&self, raw: u64) -> u8 {
        raw as u8
    }

    pub fn signed_offset(&self) -> i32 {
        self.entries.len() as i32
    }

    pub fn window_packets(&self, cwnd: f64) -> u64 {
        (cwnd * 2.0) as u64
    }
}
