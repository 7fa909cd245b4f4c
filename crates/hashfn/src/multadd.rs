//! Multiply-add-shift hashing (paper §3.2).
//!
//! `h_{a,b}(x) = ((x·a + b) mod 2^(2w)) div 2^(2w-d)` with `w = 64`,
//! i.e. 128-bit arithmetic over random 128-bit `a, b`. The family is
//! 2-independent with collision probability `1/2^d` — stronger than
//! multiply-shift, at the cost of heavier arithmetic.
//!
//! Two implementations are provided:
//!
//! * [`MultAddShift`] uses Rust's native `u128`, the analogue of running on
//!   hardware with 128-bit multiply support.
//! * [`MultAddShift64`] decomposes the computation into 64-bit operations
//!   following Thorup ("String hashing for linear probing", SODA'09) — the
//!   route the paper had to take because its Xeon lacked native 128-bit
//!   arithmetic, and the reason MultAdd lost to Murmur on speed there
//!   (two multiplications, six additions, plus masks and shifts).
//!
//! Both compute the identical function for the same `(a, b)`, which the
//! tests verify exhaustively on random keys.

use crate::{HashFamily, HashFn64};
use rand::Rng;

/// Multiply-add-shift over native 128-bit arithmetic.
///
/// Returns the top 64 bits of `x·a + b (mod 2^128)`; a `d`-bit table then
/// takes the top `d` of those, which equals `div 2^(128-d)` of the 128-bit
/// sum as in the definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultAddShift {
    a: u128,
    b: u128,
}

impl MultAddShift {
    /// Create from explicit 128-bit parameters.
    #[inline]
    pub fn new(a: u128, b: u128) -> Self {
        Self { a, b }
    }

    /// The multiplicative parameter.
    #[inline]
    pub fn a(&self) -> u128 {
        self.a
    }

    /// The additive parameter.
    #[inline]
    pub fn b(&self) -> u128 {
        self.b
    }
}

impl HashFn64 for MultAddShift {
    #[inline(always)]
    fn hash(&self, key: u64) -> u64 {
        let v = (key as u128).wrapping_mul(self.a).wrapping_add(self.b);
        (v >> 64) as u64
    }

    fn name() -> &'static str {
        "MultAdd"
    }
}

impl HashFamily for MultAddShift {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::new(rng.gen::<u128>(), rng.gen::<u128>())
    }
}

/// Multiply-add-shift computed with 64-bit operations only.
///
/// Splits `a = a_hi·2^64 + a_lo` and computes the top half of
/// `x·a + b` via three partial products:
///
/// ```text
/// x·a + b = (x·a_hi << 64) + x·a_lo + b
/// top64   = x·a_hi  +  carry(x·a_lo + b)  computed with 64-bit mul/add
/// ```
///
/// `x·a_lo` itself needs a 64×64→128 product, emulated with four 32-bit
/// partials — this is where the paper's "two multiplications, six
/// additions" cost materialises (we count the 32-bit partials in the same
/// spirit). Kept distinct from [`MultAddShift`] so the benchmark harness
/// can measure the exact trade-off the paper describes in §4.4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultAddShift64 {
    a_lo: u64,
    a_hi: u64,
    b_lo: u64,
    b_hi: u64,
}

impl MultAddShift64 {
    /// Create from the same 128-bit parameters as [`MultAddShift`].
    #[inline]
    pub fn new(a: u128, b: u128) -> Self {
        Self { a_lo: a as u64, a_hi: (a >> 64) as u64, b_lo: b as u64, b_hi: (b >> 64) as u64 }
    }

    /// 64×64→128 multiplication from four 32-bit partial products,
    /// deliberately avoiding `u128` (returns `(lo, hi)`).
    #[inline(always)]
    fn mul_64x64(x: u64, y: u64) -> (u64, u64) {
        const MASK32: u64 = 0xFFFF_FFFF;
        let (x_lo, x_hi) = (x & MASK32, x >> 32);
        let (y_lo, y_hi) = (y & MASK32, y >> 32);

        let ll = x_lo * y_lo;
        let lh = x_lo * y_hi;
        let hl = x_hi * y_lo;
        let hh = x_hi * y_hi;

        // Middle column with carry tracking.
        let mid = (ll >> 32) + (lh & MASK32) + (hl & MASK32);
        let lo = (ll & MASK32) | (mid << 32);
        let hi = hh + (lh >> 32) + (hl >> 32) + (mid >> 32);
        (lo, hi)
    }
}

impl HashFn64 for MultAddShift64 {
    #[inline(always)]
    fn hash(&self, key: u64) -> u64 {
        // x·a = (x·a_hi << 64) + x·a_lo ; only low 128 bits are kept.
        let (p_lo, p_hi) = Self::mul_64x64(key, self.a_lo);
        let hi = key.wrapping_mul(self.a_hi).wrapping_add(p_hi);
        // + b with carry propagation into the top half.
        let (sum_lo, carry) = p_lo.overflowing_add(self.b_lo);
        let _ = sum_lo; // the low 64 bits are discarded by the final shift
        hi.wrapping_add(self.b_hi).wrapping_add(carry as u64)
    }

    fn name() -> &'static str {
        "MultAdd64"
    }
}

impl HashFamily for MultAddShift64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::new(rng.gen::<u128>(), rng.gen::<u128>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_definition_u128() {
        let a: u128 = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3211;
        let b: u128 = 0x1111_2222_3333_4444_5555_6666_7777_8888;
        let h = MultAddShift::new(a, b);
        let x = 0xDEAD_BEEF_CAFE_F00Du64;
        let expect = ((x as u128).wrapping_mul(a).wrapping_add(b)) >> 64;
        assert_eq!(h.hash(x), expect as u64);
    }

    #[test]
    fn emulated_matches_native_exhaustively() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..2000 {
            let a = rng.gen::<u128>();
            let b = rng.gen::<u128>();
            let native = MultAddShift::new(a, b);
            let emulated = MultAddShift64::new(a, b);
            for _ in 0..16 {
                let x = rng.gen::<u64>();
                assert_eq!(native.hash(x), emulated.hash(x), "a={a:#x} b={b:#x} x={x:#x}");
            }
            // Edge keys.
            for x in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
                assert_eq!(native.hash(x), emulated.hash(x));
            }
        }
    }

    #[test]
    fn mul_64x64_matches_u128() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen::<u64>();
            let y = rng.gen::<u64>();
            let (lo, hi) = MultAddShift64::mul_64x64(x, y);
            let wide = (x as u128) * (y as u128);
            assert_eq!(lo, wide as u64);
            assert_eq!(hi, (wide >> 64) as u64);
        }
    }

    #[test]
    fn additive_part_decouples_zero() {
        // Unlike multiply-shift, key 0 does not map to hash 0:
        // h(0) = top64(b).
        let b: u128 = 0xABCD_EF01_2345_6789_9876_5432_10FE_DCBA;
        let h = MultAddShift::new(1, b);
        assert_eq!(h.hash(0), (b >> 64) as u64);
    }
}
