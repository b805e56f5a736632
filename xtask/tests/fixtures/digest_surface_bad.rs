//! Bad fixture: D4 (the line-level digest-surface check). A marked file
//! with a pub struct that never implements `DetDigest`: its fields escape
//! the chaos_smoke digest, so a nondeterminism bug in them goes unnoticed.

// lint:digest-surface

/// Per-path reinjection accounting (sim-visible outcome state).
pub struct ReinjectStats {
    pub attempted: u64,
    pub succeeded: u64,
}

impl ReinjectStats {
    pub fn failure_count(&self) -> u64 {
        self.attempted - self.succeeded
    }
}
