//! The §2.5 fairness requirements and Jain's fairness index.
//!
//! The paper proposes two requirements for multipath congestion control:
//!
//! 1. **Incentive** (eq. 3): a multipath flow should get at least as much
//!    throughput as a single-path TCP on the best of its paths:
//!    `Σ_r ŵ_r/RTT_r ≥ max_r ŵ_TCP_r/RTT_r`.
//! 2. **Do no harm** (eq. 4): on *every* subset of paths it should take no
//!    more than one single-path TCP using the best path of that subset:
//!    `Σ_{r∈S} ŵ_r/RTT_r ≤ max_{r∈S} ŵ_TCP_r/RTT_r` for all `S ⊆ R`.
//!
//! The functions here evaluate the constraints for given equilibrium
//! windows, loss rates and RTTs, where `ŵ_TCP_r = √(2/p_r)`.

use crate::fluid::tcp_window;

/// Report from checking the §2.5 fairness constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// Aggregate multipath rate `Σ ŵ_r/RTT_r` (pkt/s).
    pub multipath_rate: f64,
    /// `max_r ŵ_TCP_r/RTT_r`: the best single-path TCP rate (pkt/s).
    pub best_single_path_rate: f64,
    /// Whether the incentive constraint (3) holds, up to `tol`.
    pub incentive_ok: bool,
    /// Whether constraint (4) holds for every subset, up to `tol`.
    pub no_harm_ok: bool,
    /// The subset (as indices) most in violation of (4), if any.
    pub worst_subset: Option<Vec<usize>>,
    /// Max relative violation of (4) over all subsets (0 if none).
    pub worst_violation: f64,
}

/// Check both fairness requirements for equilibrium windows `w`, path loss
/// rates `loss` and RTTs `rtt`, with relative tolerance `tol`.
///
/// Subset enumeration is exponential; intended for the small path counts of
/// the paper's scenarios (≤ ~16 paths).
///
/// # Panics
/// Panics on length mismatches, empty input, or invalid loss/RTT values.
pub fn check_fairness(w: &[f64], loss: &[f64], rtt: &[f64], tol: f64) -> FairnessReport {
    assert!(!w.is_empty(), "need at least one path");
    assert!(w.len() == loss.len() && w.len() == rtt.len(), "length mismatch");
    assert!(w.len() <= 20, "subset enumeration is exponential");
    let n = w.len();
    let tcp_rates: Vec<f64> =
        loss.iter().zip(rtt).map(|(&p, &t)| tcp_window(p) / t).collect();
    let rates: Vec<f64> = w.iter().zip(rtt).map(|(&wr, &t)| wr / t).collect();

    let multipath_rate: f64 = rates.iter().sum();
    let best_single_path_rate = tcp_rates.iter().cloned().fold(f64::MIN, f64::max);
    let incentive_ok = multipath_rate >= best_single_path_rate * (1.0 - tol);

    let mut worst_subset = None;
    let mut worst_violation = 0.0_f64;
    for mask in 1_u64..(1 << n) {
        let mut sum = 0.0;
        let mut best = f64::MIN;
        for r in 0..n {
            if mask & (1 << r) != 0 {
                sum += rates[r];
                best = best.max(tcp_rates[r]);
            }
        }
        let violation = (sum - best) / best;
        if violation > worst_violation {
            worst_violation = violation;
            worst_subset =
                Some((0..n).filter(|r| mask & (1 << r) != 0).collect::<Vec<_>>());
        }
    }
    let no_harm_ok = worst_violation <= tol;
    if no_harm_ok {
        worst_subset = None;
        worst_violation = 0.0;
    }
    FairnessReport {
        multipath_rate,
        best_single_path_rate,
        incentive_ok,
        no_harm_ok,
        worst_subset,
        worst_violation,
    }
}

/// Jain's fairness index of a set of rates:
/// `(Σx)² / (n·Σx²)` — 1.0 means perfectly equal shares. Used by §3's torus
/// experiment ("Jain's fairness index is 0.99 for COUPLED, 0.986 for MPTCP
/// and 0.92 for EWTCP").
///
/// Returns 1.0 for an empty slice (vacuously fair).
pub fn jains_index(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sum_sq: f64 = rates.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (rates.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::{equilibrium, tcp_window};
    use crate::{Coupled, Ewtcp, Mptcp, UncoupledReno};

    // §2.3's WiFi / 3G scenario: the canonical RTT-mismatch test.
    const LOSS: [f64; 2] = [0.04, 0.01];
    const RTT: [f64; 2] = [0.010, 0.100];

    #[test]
    fn mptcp_satisfies_both_goals_under_rtt_mismatch() {
        let w = equilibrium(&Mptcp::new(), &LOSS, &RTT);
        let rep = check_fairness(&w, &LOSS, &RTT, 0.05);
        assert!(rep.incentive_ok, "incentive violated: {rep:?}");
        assert!(rep.no_harm_ok, "no-harm violated: {rep:?}");
    }

    #[test]
    fn uncoupled_violates_no_harm() {
        // Two TCPs take twice one TCP's share on a shared bottleneck.
        let p = [0.01, 0.01];
        let rtt = [0.1, 0.1];
        let w = equilibrium(&UncoupledReno::new(), &p, &rtt);
        let rep = check_fairness(&w, &p, &rtt, 0.05);
        assert!(!rep.no_harm_ok, "uncoupled should violate (4): {rep:?}");
    }

    #[test]
    fn ewtcp_violates_incentive_under_rtt_mismatch() {
        // §2.3: EWTCP gets (707+141)/2 = 424 pkt/s < 707 pkt/s.
        let w = equilibrium(&Ewtcp::equal_split(2), &LOSS, &RTT);
        let rep = check_fairness(&w, &LOSS, &RTT, 0.05);
        assert!(!rep.incentive_ok, "EWTCP should violate (3): {rep:?}");
    }

    #[test]
    fn coupled_violates_incentive_under_rtt_mismatch() {
        // §2.3: COUPLED collapses to the 3G path, 141 pkt/s.
        let w = equilibrium(&Coupled::new(), &LOSS, &RTT);
        let rep = check_fairness(&w, &LOSS, &RTT, 0.05);
        assert!(!rep.incentive_ok, "COUPLED should violate (3): {rep:?}");
    }

    #[test]
    fn violation_report_names_the_worst_subset() {
        // Hand-crafted gross violation: both paths at full TCP window, so
        // the pair takes 2× one TCP at a (potential) shared bottleneck.
        let p = [0.01, 0.01];
        let rtt = [0.1, 0.1];
        let w = [tcp_window(0.01), tcp_window(0.01)];
        let rep = check_fairness(&w, &p, &rtt, 0.05);
        assert!(!rep.no_harm_ok);
        assert_eq!(rep.worst_subset, Some(vec![0, 1]), "the pair is the violator");
        assert!(rep.worst_violation > 0.9, "≈2× is a ~100% violation");
        // A compliant point reports no subset.
        let w = [tcp_window(0.01) / 2.0, tcp_window(0.01) / 2.0];
        let rep = check_fairness(&w, &p, &rtt, 0.05);
        assert!(rep.no_harm_ok);
        assert_eq!(rep.worst_subset, None);
        assert_eq!(rep.worst_violation, 0.0);
    }

    #[test]
    fn single_path_tcp_point_is_trivially_fair() {
        let rep = check_fairness(&[tcp_window(0.02)], &[0.02], &[0.05], 0.01);
        assert!(rep.incentive_ok && rep.no_harm_ok);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_rejected() {
        let _ = check_fairness(&[1.0, 2.0], &[0.01], &[0.1, 0.1], 0.05);
    }

    #[test]
    fn jains_index_extremes() {
        assert!((jains_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One flow hogging everything among n flows gives 1/n.
        assert!((jains_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jains_index(&[]), 1.0);
        assert_eq!(jains_index(&[0.0, 0.0]), 1.0);
    }
}
