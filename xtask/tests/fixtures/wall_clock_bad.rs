//! Bad fixture: D2, clippy.toml's host-clock and entropy bans
//! (`disallowed_methods`, `disallowed_types`). Simulation logic that reads
//! them is no longer a pure function of the seed.

use std::hash::{BuildHasher, DefaultHasher, RandomState};

pub fn jittered_deadline(base_ns: u64) -> u64 {
    let t = std::time::Instant::now(); // host clock in sim logic
    let wall = std::time::SystemTime::now(); // ditto, non-monotonic too
    let _ = (t, wall);
    base_ns + RandomState::new().hash_one(base_ns) % 100 // per-process seed
}

pub fn fresh_hasher() -> DefaultHasher {
    DefaultHasher::new() // hides a per-process RandomState
}
