//! Good fixture: D2. Simulated time comes from `SimTime`; the one
//! wall-clock read is the audited perf site, behind a reasoned expectation.

pub fn deadline(now_ns: u64, delta_ns: u64) -> u64 {
    now_ns + delta_ns // SimTime arithmetic: deterministic
}

/// The audited perf site (mirrors `mptcp_netsim::perf::wall_clock`).
#[expect(
    clippy::disallowed_methods,
    reason = "audited perf-measurement site; elapsed wall time never feeds simulation state"
)]
pub fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn measure<F: FnOnce()>(f: F) -> std::time::Duration {
    let started = wall_clock(); // routed through the audited helper
    f();
    started.elapsed()
}
