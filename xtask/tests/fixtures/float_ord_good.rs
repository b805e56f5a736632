//! Good fixture: D3. Total orderings (`total_cmp`), tolerance
//! comparisons, and an exact zero-guard, which `float_cmp` exempts.

pub fn rank_windows(ws: &mut [f64]) {
    ws.sort_by(f64::total_cmp); // IEEE 754 total order, NaN-safe
}

pub fn is_saturated(cwnd: f64, limit: f64) -> bool {
    (cwnd - limit).abs() < 1e-9
}

pub fn mean_rate(bytes: f64, secs: f64) -> f64 {
    if secs == 0.0 {
        return 0.0;
    }
    bytes / secs
}
