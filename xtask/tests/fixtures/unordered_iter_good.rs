//! Good fixture: D1. Ordered containers, plus one hash set whose use is
//! order-insensitive (a pure count), behind a reasoned expectation.

use std::collections::BTreeMap;

pub fn per_link_totals(samples: &[(usize, u64)]) -> Vec<(usize, u64)> {
    let mut totals: BTreeMap<usize, u64> = BTreeMap::new();
    for &(link, bytes) in samples {
        *totals.entry(link).or_insert(0) += bytes;
    }
    totals.into_iter().collect() // BTreeMap: key order, seed-free
}

#[expect(
    clippy::disallowed_types,
    reason = "only the cardinality is read; no iteration order can escape"
)]
pub fn distinct_links(samples: &[(usize, u64)]) -> usize {
    let set: std::collections::HashSet<usize> = samples.iter().map(|s| s.0).collect();
    set.len()
}
