//! Deterministic state digests — the trait behind the `chaos_smoke`
//! bit-identity gate.
//!
//! The repo's strongest runtime guarantee is that a simulation is
//! bit-for-bit reproducible given a seed; `chaos_smoke` enforces it by
//! comparing digests of end-of-run state across serial and parallel
//! executions. [`DetDigest`] is how state gets *into* that digest: a
//! structural fold over every field, hashed with a fixed-constant FNV-1a
//! (never `std`'s seeded `RandomState`), so the digest itself is stable
//! across processes, platforms and runs.
//!
//! Implementations come from [`impl_det_digest!`](crate::impl_det_digest),
//! which **destructures the struct exhaustively**: adding a field without
//! deciding whether it is digest-relevant is a compile error, so new sim
//! state cannot silently escape the determinism gate. Fields that are
//! legitimately wall-clock dependent (e.g. `SimPerf::wall`) are listed in
//! the macro's `skip` block, which still names them in the destructuring
//! pattern.
//!
//! A line-level test in `xtask/tests/lint_fixtures.rs` closes the loop:
//! every `pub struct` or `pub enum` in a file marked
//! `// lint:digest-surface` must have a `DetDigest` impl (normally via the
//! macro) somewhere in its crate.

/// Structural, order-sensitive digest of sim-visible state.
///
/// The contract: two values that are `==`-equal in every digest-relevant
/// field produce the same digest, and the digest depends on **no**
/// per-process state (hasher seeds, addresses, wall-clock readings).
pub trait DetDigest {
    /// Fold `self` into the writer.
    fn det_digest(&self, h: &mut DigestWriter);

    /// Convenience: digest `self` alone and return the 64-bit value.
    fn digest_value(&self) -> u64 {
        let mut h = DigestWriter::new();
        self.det_digest(&mut h);
        h.finish()
    }
}

/// FNV-1a (64-bit) with the standard offset basis and prime — fixed
/// constants, deliberately *not* `DefaultHasher`/`RandomState`, which are
/// seeded per process.
#[derive(Debug, Clone)]
pub struct DigestWriter(u64);

impl DigestWriter {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh writer at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET_BASIS)
    }

    /// Fold raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for DigestWriter {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! digest_as_u64 {
    ($($ty:ty),+) => {
        $(impl DetDigest for $ty {
            fn det_digest(&self, h: &mut DigestWriter) {
                h.write_u64(*self as u64);
            }
        })+
    };
}

digest_as_u64!(u8, u16, u32, u64, usize, bool);

impl DetDigest for i64 {
    fn det_digest(&self, h: &mut DigestWriter) {
        h.write_u64(*self as u64);
    }
}

impl DetDigest for f64 {
    /// Digest the exact bit pattern (`to_bits`), so `-0.0` vs `0.0` and
    /// distinct NaN payloads are distinguished — a digest, unlike an
    /// ordering, must never conflate states that arithmetic can tell apart.
    fn det_digest(&self, h: &mut DigestWriter) {
        h.write_u64(self.to_bits());
    }
}

impl DetDigest for str {
    fn det_digest(&self, h: &mut DigestWriter) {
        h.write_u64(self.len() as u64);
        h.write_bytes(self.as_bytes());
    }
}

impl DetDigest for String {
    fn det_digest(&self, h: &mut DigestWriter) {
        self.as_str().det_digest(h);
    }
}

impl<T: DetDigest> DetDigest for Option<T> {
    /// Tagged: `None` and `Some(default)` digest differently.
    fn det_digest(&self, h: &mut DigestWriter) {
        match self {
            None => h.write_u64(0),
            Some(v) => {
                h.write_u64(1);
                v.det_digest(h);
            }
        }
    }
}

impl<T: DetDigest> DetDigest for [T] {
    /// Length-prefixed so `[[a], [b]]` and `[[a, b]]` digest differently.
    fn det_digest(&self, h: &mut DigestWriter) {
        h.write_u64(self.len() as u64);
        for v in self {
            v.det_digest(h);
        }
    }
}

impl<T: DetDigest> DetDigest for Vec<T> {
    fn det_digest(&self, h: &mut DigestWriter) {
        self.as_slice().det_digest(h);
    }
}

impl<T: DetDigest + ?Sized> DetDigest for &T {
    fn det_digest(&self, h: &mut DigestWriter) {
        (**self).det_digest(h);
    }
}

/// Implement [`DetDigest`] for a struct by exhaustively destructuring it.
///
/// ```
/// use mptcp_cc::impl_det_digest;
///
/// pub struct Counters {
///     pub hits: u64,
///     pub misses: u64,
///     pub wall_secs: f64, // measurement artefact, not sim state
/// }
/// impl_det_digest!(Counters { hits, misses } skip { wall_secs });
/// ```
///
/// Every field must appear in either the digest list or the `skip` block;
/// a newly added field makes the generated `let Self { .. }` pattern
/// non-exhaustive and the crate stops compiling until the author decides
/// where the field belongs. Skip only fields that are *not* part of the
/// reproducible simulation outcome (wall-clock measurements and the like).
#[macro_export]
macro_rules! impl_det_digest {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::impl_det_digest!($ty { $($field),+ } skip {});
    };
    ($ty:ident { $($field:ident),+ $(,)? } skip { $($skipped:ident),* $(,)? }) => {
        impl $crate::digest::DetDigest for $ty {
            fn det_digest(&self, h: &mut $crate::digest::DigestWriter) {
                // Exhaustive: a new field fails to compile until it is
                // added to the digest list or the skip block.
                let Self { $($field,)+ $($skipped: _,)* } = self;
                $($crate::digest::DetDigest::det_digest($field, h);)+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_constants_are_the_reference_ones() {
        // FNV-1a test vector: the empty input hashes to the offset basis,
        // and "a" to the well-known 0xaf63dc4c8601ec8c.
        assert_eq!(DigestWriter::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = DigestWriter::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn option_tagging_distinguishes_none_from_default() {
        assert_ne!(None::<u64>.digest_value(), Some(0u64).digest_value());
    }

    #[test]
    fn length_prefix_distinguishes_splits() {
        let a: Vec<Vec<u64>> = vec![vec![1], vec![2]];
        let b: Vec<Vec<u64>> = vec![vec![1, 2]];
        assert_ne!(a.digest_value(), b.digest_value());
    }

    #[test]
    fn float_digest_is_bitwise() {
        assert_ne!(0.0f64.digest_value(), (-0.0f64).digest_value());
        // NaN digests to something stable (bit pattern), not a panic.
        let n = f64::NAN.digest_value();
        assert_eq!(n, f64::NAN.digest_value());
    }

    #[test]
    fn macro_digests_fields_and_skips_listed_ones() {
        struct S {
            a: u64,
            b: f64,
            wall: f64,
        }
        impl_det_digest!(S { a, b } skip { wall });
        let x = S { a: 1, b: 2.0, wall: 0.123 };
        let y = S { a: 1, b: 2.0, wall: 9.876 };
        assert_ne!(x.wall, y.wall);
        assert_eq!(x.digest_value(), y.digest_value(), "skipped field must not matter");
        let z = S { a: 1, b: 2.5, wall: 0.123 };
        assert_ne!(x.digest_value(), z.digest_value());
    }
}
