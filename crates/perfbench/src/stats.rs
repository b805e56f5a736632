//! Median and quartiles of a small sample.

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
    /// (linear interpolation at rank `i·(n+1)/4`, clamped to the sample),
    /// so a spread computed here equals the one computed from the printed
    /// values. A single value is all three of its own quartiles.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Self { q1: v[0], median: v[0], q3: v[0] };
        }
        let cut = |i: usize| {
            let rank = i * (n + 1);
            let j = (rank / 4).clamp(1, n - 1);
            let delta = rank as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Self { q1: cut(1), median: cut(2), q3: cut(3) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_python_exclusive_rule() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let q = Quartiles::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((q.q1, q.median, q.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn one_value_is_its_own_quartiles() {
        let q = Quartiles::of(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
        assert_eq!(Quartiles::of(&[3.0, 9.0, 1.0]).median, 3.0);
    }
}
