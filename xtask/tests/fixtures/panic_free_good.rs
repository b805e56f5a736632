//! Good fixture: D7, under `tcp.rs`'s header. The same work with
//! non-panicking forms, one reasoned expectation where the invariant wants
//! a loud failure, free use of `debug_assert!`, and a test module where
//! `unwrap` is idiomatic (clippy.toml's `allow-unwrap-in-tests`).

pub struct Board {
    words: Vec<u64>,
    srtt: Option<f64>,
}

impl Board {
    pub fn rto(&self) -> f64 {
        self.srtt.map_or(1.0, |s| s * 2.0)
    }

    pub fn cutoff(&self, ranked: &[u64]) -> Option<u64> {
        debug_assert!(!ranked.is_empty(), "caller checks len");
        ranked.first().copied()
    }

    pub fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "w is masked to words.len() by every caller; a miss is a broken ring invariant and must fail loudly"
    )]
    pub fn word_mut(&mut self, w: usize) -> &mut u64 {
        &mut self.words[w]
    }
}

#[cfg(test)]
mod tests {
    use super::Board;

    #[test]
    fn cutoff_reads_the_first_rank() {
        let b = Board { words: vec![0; 4], srtt: None };
        assert_eq!(b.cutoff(&[7, 3]).unwrap(), 7);
        assert_eq!(b.words[0], 0);
    }
}
