//! Poisson flow arrivals with Pareto-distributed sizes (§3's second server
//! load-balancing experiment).

use mptcp_netsim::{SimTime, DEFAULT_PACKET_SIZE};
use rand::Rng;

/// One generated flow arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowArrival {
    /// When the flow starts.
    pub start: SimTime,
    /// Transfer size in packets.
    pub size_pkts: u64,
}

/// Samples are truncated here, in bytes, so a single elephant cannot
/// dominate an entire finite run.
const MAX_BYTES: f64 = 50e6;

/// Pareto file-size distribution. The paper: "file sizes drawn from a
/// Pareto distribution with mean 200 kB". We use shape α = 1.5 (a common
/// heavy-tail choice for flow sizes; the paper does not state α) and set
/// the scale so the mean matches: mean = α·x_m/(α−1) ⇒ x_m = mean·(α−1)/α.
/// Samples are truncated at 50 MB and counted in the simulator's
/// [`DEFAULT_PACKET_SIZE`]-byte packets.
#[derive(Debug, Clone, Copy)]
pub struct ParetoSizes {
    /// Shape parameter α > 1.
    pub alpha: f64,
    /// Scale (minimum value), bytes.
    pub x_m: f64,
}

impl ParetoSizes {
    /// The paper's configuration: mean 200 kB (α = 1.5, truncated at 50 MB).
    pub fn paper_mean_200kb() -> Self {
        Self::with_mean(200_000.0, 1.5)
    }

    /// A Pareto with the given mean (bytes) and shape α > 1.
    ///
    /// # Panics
    /// Panics unless `alpha > 1` and `mean_bytes > 0`.
    pub fn with_mean(mean_bytes: f64, alpha: f64) -> Self {
        assert!(alpha > 1.0, "Pareto mean requires α > 1");
        assert!(mean_bytes > 0.0);
        Self { alpha, x_m: mean_bytes * (alpha - 1.0) / alpha }
    }

    /// Draw one size, in packets (≥ 1).
    pub fn sample_pkts<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let bytes = (self.x_m / u.powf(1.0 / self.alpha)).min(MAX_BYTES);
        ((bytes / f64::from(DEFAULT_PACKET_SIZE)).ceil() as u64).max(1)
    }
}

/// Poisson arrivals whose rate alternates between two levels with a fixed
/// phase length (§3: "rate alternating between 10/s (light load) and 60/s
/// (heavy load)"; the paper does not give the phase length — we default to
/// 30 s phases and expose it).
#[derive(Debug, Clone, Copy)]
pub struct AlternatingPoisson {
    /// Arrival rate in phase A, flows/s.
    pub rate_a: f64,
    /// Arrival rate in phase B, flows/s.
    pub rate_b: f64,
    /// Length of each phase.
    pub phase: SimTime,
}

impl AlternatingPoisson {
    /// The paper's 10/s ↔ 60/s alternation with 30 s phases.
    pub fn paper() -> Self {
        Self { rate_a: 10.0, rate_b: 60.0, phase: SimTime::from_secs(30) }
    }

    /// Generate all arrivals in `[0, until)` with sizes from `sizes`.
    pub fn generate<R: Rng>(
        &self,
        until: SimTime,
        sizes: &ParetoSizes,
        rng: &mut R,
    ) -> Vec<FlowArrival> {
        assert!(self.rate_a > 0.0 && self.rate_b > 0.0);
        let mut out = Vec::new();
        let mut t = 0.0_f64;
        let until_s = until.as_secs_f64();
        let phase_s = self.phase.as_secs_f64();
        while t < until_s {
            let in_a = ((t / phase_s) as u64).is_multiple_of(2);
            let rate = if in_a { self.rate_a } else { self.rate_b };
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            if t >= until_s {
                break;
            }
            out.push(FlowArrival {
                start: SimTime::from_secs_f64(t),
                size_pkts: sizes.sample_pkts(rng),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pareto_mean_is_roughly_200kb() {
        let sizes = ParetoSizes::paper_mean_200kb();
        let mut rng = StdRng::seed_from_u64(0);
        let n = 200_000;
        let total: u64 = (0..n).map(|_| sizes.sample_pkts(&mut rng)).sum();
        let mean_bytes = total as f64 * 1500.0 / n as f64;
        // Truncation biases the mean slightly down; accept 150–250 kB.
        assert!(
            (120_000.0..260_000.0).contains(&mean_bytes),
            "empirical mean {mean_bytes}"
        );
    }

    #[test]
    fn pareto_minimum_is_at_least_one_packet() {
        let sizes = ParetoSizes::with_mean(2000.0, 1.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(sizes.sample_pkts(&mut rng) >= 1);
        }
    }

    #[test]
    fn arrivals_alternate_between_rates() {
        let gen = AlternatingPoisson::paper();
        let sizes = ParetoSizes::paper_mean_200kb();
        let mut rng = StdRng::seed_from_u64(2);
        let arrivals = gen.generate(SimTime::from_secs(120), &sizes, &mut rng);
        // Phases: [0,30) light, [30,60) heavy, [60,90) light, [90,120) heavy.
        let count_in = |a: u64, b: u64| {
            arrivals
                .iter()
                .filter(|f| f.start >= SimTime::from_secs(a) && f.start < SimTime::from_secs(b))
                .count() as f64
        };
        let light = (count_in(0, 30) + count_in(60, 90)) / 60.0;
        let heavy = (count_in(30, 60) + count_in(90, 120)) / 60.0;
        assert!((6.0..14.0).contains(&light), "light-phase rate {light}");
        assert!((48.0..72.0).contains(&heavy), "heavy-phase rate {heavy}");
    }

    #[test]
    fn arrivals_are_sorted_and_bounded() {
        let gen = AlternatingPoisson { rate_a: 5.0, rate_b: 5.0, phase: SimTime::from_secs(10) };
        let sizes = ParetoSizes::with_mean(10_000.0, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = gen.generate(SimTime::from_secs(50), &sizes, &mut rng);
        for w in arrivals.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert!(arrivals.iter().all(|f| f.start < SimTime::from_secs(50)));
    }
}
