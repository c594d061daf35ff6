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

    /// `true` when the value equals the additive identity exactly.
    ///
    /// Formats use this to decide whether an entry is worth storing; it is a
    /// bit-exact comparison, not an epsilon test.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
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
    fn negative_zero_counts_as_zero() {
        // IEEE-754 -0.0 == 0.0, so formats will drop it like any other zero.
        assert!((-0.0f32).is_zero());
    }
}
