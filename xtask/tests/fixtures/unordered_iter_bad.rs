//! Bad fixture: D1, clippy.toml's `HashMap`/`HashSet` ban
//! (`disallowed_types`). Hash order depends on the per-process seed, so
//! folding it into an ordered sink (the Vec below) diverges across runs.

use std::collections::{HashMap, HashSet};

pub fn per_link_totals(samples: &[(usize, u64)]) -> Vec<(usize, u64)> {
    let mut totals: HashMap<usize, u64> = HashMap::new();
    for &(link, bytes) in samples {
        *totals.entry(link).or_insert(0) += bytes;
    }
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (link, bytes) in &totals {
        if seen.insert(*link) {
            out.push((*link, *bytes)); // hash order escapes into the Vec
        }
    }
    out
}
