//! Constant-bit-rate sources with optional Markov on/off bursting.
//!
//! §3's dynamic-load experiment (Fig. 9) uses "an additional bursty CBR flow
//! which sends at 100 Mb/s for a random duration of mean 10 ms, then is
//! quiet for a random duration of mean 100 ms". [`CbrSpec::onoff`] models
//! exactly that: exponentially distributed on and off periods.

use crate::link::{LinkId, LinkPath};
use crate::packet::DEFAULT_PACKET_SIZE;
use crate::time::SimTime;

/// Identifier of a CBR source within one [`Simulator`](crate::Simulator).
pub type CbrId = usize;

/// Configuration of a CBR source.
#[derive(Debug, Clone)]
pub struct CbrSpec {
    /// Forward path (links traversed, in order).
    pub path: Vec<LinkId>,
    /// Sending rate while "on", bits per second.
    pub rate_bps: f64,
    /// Mean on/off durations for the bursty (exponential) modulation;
    /// `None` means always on.
    pub onoff: Option<(SimTime, SimTime)>,
    /// When the source starts.
    pub start: SimTime,
}

impl CbrSpec {
    /// An always-on CBR source.
    ///
    /// # Panics
    /// Panics on an empty path or non-positive rate.
    pub fn constant(path: Vec<LinkId>, rate_bps: f64) -> Self {
        assert!(!path.is_empty(), "CBR path must traverse at least one link");
        assert!(rate_bps > 0.0, "CBR rate must be positive");
        Self { path, rate_bps, onoff: None, start: SimTime::ZERO }
    }

    /// Add Markov on/off modulation with the given mean durations (both
    /// exponentially distributed, as in Fig. 9).
    pub fn onoff(mut self, mean_on: SimTime, mean_off: SimTime) -> Self {
        self.onoff = Some((mean_on, mean_off));
        self
    }

    /// Set the start time.
    pub fn start(mut self, at: SimTime) -> Self {
        self.start = at;
        self
    }

    /// Inter-packet gap while on.
    pub fn packet_interval(&self) -> SimTime {
        SimTime::from_secs_f64(f64::from(DEFAULT_PACKET_SIZE) * 8.0 / self.rate_bps)
    }
}

/// Runtime state of a CBR source.
#[derive(Debug)]
pub(crate) struct CbrSource {
    pub spec: CbrSpec,
    /// The spec's path in hot-path form (inline storage for short routes).
    pub path: LinkPath,
    /// Currently in the "on" state.
    pub on: bool,
    /// Generation counter so stale send events are ignored after toggles.
    pub gen: u64,
    /// Packets handed to the first link.
    pub sent: u64,
    /// Packets that reached the end of the path.
    pub delivered: u64,
}

impl CbrSource {
    pub fn new(spec: CbrSpec) -> Self {
        let path = LinkPath::from(&spec.path[..]);
        Self { spec, path, on: false, gen: 0, sent: 0, delivered: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_interval_for_100mbps_1500b_is_120us() {
        let spec = CbrSpec::constant(vec![0], 100e6);
        assert_eq!(spec.packet_interval(), SimTime::from_micros(120));
    }

    #[test]
    fn builder_sets_fields() {
        let spec = CbrSpec::constant(vec![1, 2], 5e6)
            .onoff(SimTime::from_millis(10), SimTime::from_millis(100))
            .start(SimTime::from_secs(3));
        assert_eq!(spec.path, vec![1, 2]);
        assert_eq!(spec.onoff, Some((SimTime::from_millis(10), SimTime::from_millis(100))));
        assert_eq!(spec.start, SimTime::from_secs(3));
    }

    #[test]
    #[should_panic]
    fn empty_path_rejected() {
        let _ = CbrSpec::constant(vec![], 1e6);
    }
}
