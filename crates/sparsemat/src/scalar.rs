//! Numeric scalar abstraction used by every matrix format.

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Element type usable inside the sparse formats and kernels.
///
/// The trait is sealed to the two IEEE-754 widths the Copernicus platform
/// models (the paper streams 4-byte values; `f64` is provided for users who
/// need double precision in the software kernels). Sealing keeps the numeric
/// contract — exact additive identity, commutative `+` on integral values —
/// under this crate's control.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + PartialOrd
    + Default
    + Add<Output = Self>
    + AddAssign
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + Sum
    + private::Sealed
    + Send
    + Sync
    + 'static
{
    /// The additive identity.
    const ZERO: Self;

    /// Size of one stored element in bytes on the streaming interface
    /// (the Copernicus platform transfers 4-byte values and 4-byte indices).
    const STREAM_BYTES: usize;

    /// `true` when the value equals the additive identity exactly.
    ///
    /// Formats use this to decide whether an entry is worth storing; it is a
    /// bit-exact comparison, not an epsilon test.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Lossy conversion from `f64`, used by generators and test fixtures.
    fn from_f64(v: f64) -> Self;
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const STREAM_BYTES: usize = 4;

    fn from_f64(v: f64) -> Self {
        v as f32
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const STREAM_BYTES: usize = 8;

    fn from_f64(v: f64) -> Self {
        v
    }
}

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        assert!(f32::ZERO.is_zero());
        assert!(!1.0f32.is_zero());
        assert!(f64::ZERO.is_zero());
    }

    #[test]
    fn from_f64_converts() {
        assert_eq!(f64::from_f64(3.25), 3.25);
        assert_eq!(f32::from_f64(3.25), 3.25f32);
    }

    #[test]
    fn negative_zero_counts_as_zero() {
        // IEEE-754 -0.0 == 0.0, so formats will drop it like any other zero.
        assert!((-0.0f32).is_zero());
    }

    #[test]
    fn stream_widths_match_paper() {
        // The paper's bandwidth-utilization figures assume equal-width values
        // and indices (COO utilization is 1/3); f32 matches the 4-byte index.
        assert_eq!(f32::STREAM_BYTES, 4);
        assert_eq!(f64::STREAM_BYTES, 8);
    }
}
