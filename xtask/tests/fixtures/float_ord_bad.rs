//! Bad fixture: D3. Exact float equality (`float_cmp`, the library crates'
//! header), `f32` (`disallowed_types`), and a partial ordering that panics
//! on NaN (the line-level `.partial_cmp(` check).

pub fn rank_windows(ws: &mut [f64]) {
    ws.sort_by(|a, b| a.partial_cmp(b).unwrap()); // panics on NaN
}

pub fn is_saturated(cwnd: f64) -> bool {
    cwnd == 64.0 // exact equality on a computed window
}

pub fn precision_loss(srtt: f32) -> f32 {
    srtt * 0.875 // f32 in window arithmetic
}
