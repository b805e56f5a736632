//! Good fixture: D4 (the line-level digest-surface check). Every pub
//! struct in this marked file implements `DetDigest` through the
//! exhaustive-destructuring macro.

// lint:digest-surface

/// Sim-visible outcome state: digested.
pub struct ReinjectStats {
    pub attempted: u64,
    pub succeeded: u64,
    pub wall_secs: f64,
}

impl_det_digest!(ReinjectStats { attempted, succeeded } skip { wall_secs });

/// Sim-visible configuration: digested too.
pub struct ReinjectConfig {
    pub max_attempts: u32,
}

crate::impl_det_digest!(ReinjectConfig { max_attempts });
