//! MPTCP — the paper's final algorithm (§2, eq. (1)), with the appendix's
//! linear-time computation of the increase parameter.

use crate::algorithm::MultipathCc;
use crate::snapshot::SubflowSnapshot;

/// The MPTCP coupled congestion-control algorithm ("LIA"), as specified at
/// the start of §2 of the paper:
///
/// * **Each ACK on subflow `r`**: for each subset `S ⊆ R` containing `r`,
///   compute
///
///   ```text
///         max_{s∈S} w_s / RTT_s²
///       ──────────────────────────
///        ( Σ_{s∈S} w_s / RTT_s )²
///   ```
///
///   and increase `w_r` by the **minimum** over all such `S`.
///
/// * **Each loss on subflow `r`**: decrease `w_r` by `w_r/2`.
///
/// Properties the paper proves / demonstrates, all of which are tested in
/// this crate:
///
/// * the singleton `S = {r}` term equals `1/w_r`, so the increase is never
///   more aggressive than regular TCP on any one path (the cap of §2.5);
/// * the equilibrium satisfies both fairness goals (3)–(4): the connection
///   gets at least the throughput a single-path TCP would get on its best
///   path, and takes no more than one TCP's worth on any set of paths;
/// * the minimum can be found with a linear search over an ordering of the
///   subflows (appendix), not a combinatorial one — see
///   [`lia_increase_linear`] vs [`lia_increase_exhaustive`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Mptcp;

impl Mptcp {
    /// Create the MPTCP algorithm.
    pub fn new() -> Self {
        Self
    }
}

impl MultipathCc for Mptcp {
    fn name(&self) -> &'static str {
        "MPTCP"
    }

    fn increase_per_ack(&self, r: usize, subs: &[SubflowSnapshot]) -> f64 {
        lia_increase_linear(r, subs)
    }

    /// "Each loss on subflow r, decrease the window w_r by w_r/2."
    fn window_after_loss(&self, r: usize, subs: &[SubflowSnapshot]) -> f64 {
        subs[r].cwnd / 2.0
    }
}

/// A snapshot eq. (1) can evaluate: positive finite window and RTT.
fn is_sane(s: &SubflowSnapshot) -> bool {
    s.cwnd.is_finite() && s.cwnd > 0.0 && s.rtt.is_finite() && s.rtt > 0.0
}

/// The subset term of eq. (1):
/// `max_{s∈S} (w_s/RTT_s²) / (Σ_{s∈S} w_s/RTT_s)²`.
fn subset_term(subset: &[usize], subs: &[SubflowSnapshot]) -> f64 {
    debug_assert!(!subset.is_empty());
    let mut max_num = 0.0_f64;
    let mut sum = 0.0_f64;
    for &s in subset {
        let w = subs[s].cwnd;
        let rtt = subs[s].rtt;
        max_num = max_num.max(w / (rtt * rtt));
        sum += w / rtt;
    }
    max_num / (sum * sum)
}

/// Reference implementation of eq. (1): enumerate **every** subset
/// `S ⊆ R` with `r ∈ S` and take the minimum term. Exponential in the number
/// of subflows — kept as the oracle that [`lia_increase_linear`] is
/// property-tested against, and usable directly for small path counts.
///
/// # Panics
/// Panics if `subs` is empty or `r` is out of range.
pub fn lia_increase_exhaustive(r: usize, subs: &[SubflowSnapshot]) -> f64 {
    assert!(r < subs.len(), "subflow index out of range");
    let n = subs.len();
    assert!(n <= 24, "exhaustive search is exponential; use the linear form");
    let mut best = f64::INFINITY;
    let mut members: Vec<usize> = Vec::with_capacity(n);
    // Iterate bitmasks of the other subflows; r is always included.
    let others: Vec<usize> = (0..n).filter(|&i| i != r).collect();
    for mask in 0..(1_u64 << others.len()) {
        members.clear();
        members.push(r);
        for (bit, &o) in others.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                members.push(o);
            }
        }
        best = best.min(subset_term(&members, subs));
    }
    best
}

/// The appendix's linear-time computation of the eq. (1) increase.
///
/// Order the subflows so that `√w_1/RTT_1 ≤ … ≤ √w_n/RTT_n` (equivalently by
/// `w/RTT²`, since both orderings square to the same comparison). For a set
/// whose maximal element (in that order) is `u`, the term's numerator is
/// fixed at `w_u/RTT_u²`, and the denominator is maximized by including
/// *every* subflow `t ≤ u`; the set must contain `r`, so `u` ranges over the
/// positions at or after `r`:
///
/// ```text
/// min_{u ≥ pos(r)}  (w_u/RTT_u²) / ( Σ_{t ≤ u} w_t/RTT_t )²
/// ```
///
/// Cost is `O(n log n)` for the sort plus `O(n)` for the scan.
///
/// # Panics
/// Panics if `subs` is empty or `r` is out of range.
pub fn lia_increase_linear(r: usize, subs: &[SubflowSnapshot]) -> f64 {
    assert!(r < subs.len(), "subflow index out of range");
    let n = subs.len();
    // Degenerate snapshots (rtt == 0 before the first sample, NaN/∞ windows
    // mid-handover) would make the sort keys incomparable and the prefix
    // sums meaningless. Fall back to the singleton bound 1/w_r, the term
    // eq. (1) yields for S = {r}: it never over-increases relative to the
    // true minimum, and it only depends on our own window.
    if subs.iter().any(|s| !is_sane(s)) {
        let w = subs[r].cwnd;
        return if w.is_finite() && w > 0.0 { 1.0 / w } else { 0.0 };
    }
    if n == 1 {
        return 1.0 / subs[0].cwnd;
    }
    // Sort indices by w/RTT² ascending (same order as √w/RTT). This runs
    // on every ACK of a live connection, so small path counts (the
    // overwhelmingly common case) use stack arrays, and each key is
    // computed once, not twice per comparison.
    const STACK: usize = 16;
    let (mut key_stack, mut order_stack) = ([0.0_f64; STACK], [0usize; STACK]);
    let (mut key_heap, mut order_heap);
    let (keys, order): (&mut [f64], &mut [usize]) = if n <= STACK {
        (&mut key_stack[..n], &mut order_stack[..n])
    } else {
        (key_heap, order_heap) = (vec![0.0; n], vec![0; n]);
        (&mut key_heap, &mut order_heap)
    };
    for (i, s) in subs.iter().enumerate() {
        keys[i] = s.cwnd / (s.rtt * s.rtt);
        order[i] = i;
    }
    order.sort_unstable_by(|&a, &b| keys[a].total_cmp(&keys[b]));
    let pos_r = order.iter().position(|&i| i == r).expect("r is in the order");

    let mut best = f64::INFINITY;
    let mut prefix_sum = 0.0_f64; // Σ_{t ≤ u} w_t/RTT_t as u advances.
    for (pos, &u) in order.iter().enumerate() {
        prefix_sum += subs[u].cwnd / subs[u].rtt;
        if pos >= pos_r {
            best = best.min(keys[u] / (prefix_sum * prefix_sum));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(f64, f64)]) -> Vec<SubflowSnapshot> {
        pairs.iter().map(|&(w, rtt)| SubflowSnapshot::new(w, rtt)).collect()
    }

    #[test]
    fn single_subflow_reduces_to_regular_tcp() {
        let subs = snap(&[(10.0, 0.1)]);
        assert!((lia_increase_linear(0, &subs) - 0.1).abs() < 1e-12);
        assert!((lia_increase_exhaustive(0, &subs) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn increase_capped_by_one_over_own_window() {
        // The singleton subset gives exactly 1/w_r, so the min can't exceed it.
        let subs = snap(&[(10.0, 0.01), (5.0, 0.2), (80.0, 0.05)]);
        for r in 0..subs.len() {
            let inc = lia_increase_linear(r, &subs);
            assert!(inc <= 1.0 / subs[r].cwnd + 1e-15);
        }
    }

    #[test]
    fn equal_rtts_reduce_to_semicoupled_like_total_window_term() {
        // With equal RTTs and equal windows the full set dominates:
        // term(S=R) = (w/RTT²) / (n·w/RTT)² = 1/(n²·w) < 1/w.
        let subs = snap(&[(10.0, 0.1), (10.0, 0.1)]);
        let inc = lia_increase_linear(0, &subs);
        assert!((inc - 1.0 / (4.0 * 10.0)).abs() < 1e-12);
    }

    #[test]
    fn linear_matches_exhaustive_on_fixed_cases() {
        let cases = [
            snap(&[(10.0, 0.01), (5.0, 0.2)]),
            snap(&[(1.0, 0.5), (100.0, 0.01), (20.0, 0.05)]),
            snap(&[(7.0, 0.08), (7.0, 0.08), (7.0, 0.08), (7.0, 0.08)]),
            snap(&[(3.0, 1.2), (44.0, 0.013), (2.0, 0.4), (18.0, 0.09), (9.0, 0.9)]),
        ];
        for subs in &cases {
            for r in 0..subs.len() {
                let lin = lia_increase_linear(r, subs);
                let exh = lia_increase_exhaustive(r, subs);
                assert!(
                    (lin - exh).abs() <= 1e-12 * exh.max(1e-30),
                    "mismatch at r={r}: linear {lin} vs exhaustive {exh}"
                );
            }
        }
    }

    #[test]
    fn loss_halves_own_window() {
        let cc = Mptcp::new();
        let subs = snap(&[(10.0, 0.01), (6.0, 0.2)]);
        assert!((cc.window_after_loss(1, &subs) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rtt_snapshot_falls_back_to_singleton_bound() {
        // Before the first RTT sample a subflow can legitimately report
        // rtt == 0; the increase must not panic and must stay at the
        // singleton cap 1/w_r.
        let subs = snap(&[(10.0, 0.1), (4.0, 0.0)]);
        assert!((lia_increase_linear(0, &subs) - 0.1).abs() < 1e-12);
        assert!((lia_increase_linear(1, &subs) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn nan_window_snapshot_does_not_panic() {
        let subs = snap(&[(f64::NAN, 0.1), (4.0, 0.2)]);
        assert_eq!(lia_increase_linear(0, &subs), 0.0);
        assert!((lia_increase_linear(1, &subs) - 0.25).abs() < 1e-12);
        let subs = snap(&[(f64::INFINITY, 0.1), (4.0, 0.2)]);
        assert_eq!(lia_increase_linear(0, &subs), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_subflow_panics() {
        let subs = snap(&[(10.0, 0.01)]);
        let _ = lia_increase_linear(1, &subs);
    }

    /// §2.5's two-path algorithm wrote the increase as min(a/w_total, 1/w_r)
    /// with `a` from eq. (5) computed at equilibrium. Check that at an
    /// RTT-symmetric equilibrium point eq. (1) agrees with a/w_total where
    /// a = ŵ_total·(max_r ŵ_r/RTT²) / (Σ ŵ_r/RTT)².
    #[test]
    fn matches_closed_form_a_at_symmetric_point() {
        let subs = snap(&[(12.0, 0.1), (20.0, 0.1)]);
        let w_total = 32.0;
        let max_term = subs.iter().map(|s| s.cwnd / (s.rtt * s.rtt)).fold(0.0, f64::max);
        let sum: f64 = subs.iter().map(|s| s.cwnd / s.rtt).sum();
        let a = w_total * max_term / (sum * sum);
        let expected = (a / w_total).min(1.0 / subs[0].cwnd);
        let got = lia_increase_linear(0, &subs);
        assert!((got - expected).abs() < 1e-12);
    }
}
