//! Bad fixture: D7, under the `#![deny(…)]` header of each real per-ACK
//! and shard-state file: `unwrap`, `expect`, `panic!`, `unreachable!` and
//! slice indexing (denied on the per-ACK path only).

pub struct Board {
    words: Vec<u64>,
    srtt: Option<f64>,
}

impl Board {
    pub fn rto(&self) -> f64 {
        self.srtt.unwrap() * 2.0
    }

    pub fn cutoff(&self, ranked: &[u64]) -> u64 {
        ranked.first().copied().expect("caller checked len")
    }

    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    pub fn classify(&self, kind: u8) -> &'static str {
        match kind {
            0 => "cum",
            1 => "sack",
            2 => panic!("corrupt kind"),
            _ => unreachable!("kinds are 0..=2"),
        }
    }
}
