//! Seeded families of hash functions for 64-bit integer keys.
//!
//! This crate implements the four hash function classes studied in
//! *"A Seven-Dimensional Analysis of Hashing Methods and its Implications on
//! Query Processing"* (Richter, Alvarez, Dittrich; PVLDB 9(3), 2015), §3:
//!
//! * [`MultShift`] — multiply-shift (Dietzfelbinger et al.), universal.
//! * [`MultAddShift`] — multiply-add-shift (Dietzfelbinger), 2-independent.
//!   Two implementations: native `u128` arithmetic and a 64-bit-only variant
//!   ([`MultAddShift64`]) following Thorup's pair-multiply trick, matching
//!   the paper's observation that 128-bit arithmetic was not native on its
//!   evaluation machine.
//! * [`Tabulation`] — simple tabulation hashing (Pătraşcu & Thorup),
//!   3-independent; eight 256-entry tables of random 64-bit codes (16 KiB).
//! * [`Murmur`] — the Murmur3 64-bit finalizer, an engineered hash without
//!   formal guarantees but excellent empirical behaviour.
//!
//! # Bit-significance convention
//!
//! Every function returns a full 64-bit hash whose **high bits** carry the
//! strongest guarantees. Multiply-shift's universality statement concerns
//! `(x·z mod 2^w) div 2^(w-d)` — i.e. the *top* `d` bits of the product.
//! Hash tables in this workspace therefore derive a bucket for a
//! `2^d`-slot table as `hash >> (64 - d)` (see [`fold_to_bits`]), never by
//! masking low bits. Murmur and tabulation distribute all 64 bits uniformly,
//! so the convention costs them nothing.
//!
//! # Families and seeding
//!
//! Each type represents one *member* of its family, sampled via
//! [`HashFamily::sample`] from an [`rand::Rng`]. Cuckoo hashing and rehashing
//! after failure require fresh, independent members — `sample` provides them.
//! All members are `Clone + Send + Sync` and hashing is `&self` (read-only).

#![deny(unsafe_code)]

pub mod multadd;
pub mod multshift;
pub mod murmur;
pub mod quality;
pub mod tabulation;

pub use multadd::{MultAddShift, MultAddShift64};
pub use multshift::MultShift;
pub use murmur::Murmur;
pub use tabulation::Tabulation;

use rand::Rng;

/// A single hash function for 64-bit keys.
///
/// Implementations must be pure: the same key always maps to the same hash
/// for a given function instance.
pub trait HashFn64: Clone + Send + Sync + 'static {
    /// Hash a 64-bit key to a 64-bit value whose high bits are
    /// well-distributed (see the crate-level documentation).
    fn hash(&self, key: u64) -> u64;

    /// A short human-readable name used by the benchmark harness
    /// (e.g. `"Mult"`, `"Murmur"`).
    fn name() -> &'static str;
}

/// A family of hash functions that can be sampled with fresh randomness.
///
/// Sampling twice with independent randomness yields (statistically)
/// independent functions, as required by Cuckoo hashing and by rehashing
/// after insertion failure.
pub trait HashFamily: HashFn64 {
    /// Draw a random member of the family.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// Draw a member deterministically from a 64-bit seed.
    ///
    /// Convenience over [`HashFamily::sample`] for reproducible experiments.
    fn from_seed(seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self::sample(&mut rng)
    }
}

/// Extract a `bits`-wide bucket index from a 64-bit hash by taking the
/// **top** `bits` bits.
///
/// `bits == 0` always yields bucket 0 (a one-slot table).
///
/// ```
/// # use hashfn::fold_to_bits;
/// assert_eq!(fold_to_bits(u64::MAX, 4), 15);
/// assert_eq!(fold_to_bits(1 << 63, 1), 1);
/// assert_eq!(fold_to_bits(0x1234, 0), 0);
/// ```
#[inline(always)]
pub fn fold_to_bits(hash: u64, bits: u8) -> usize {
    debug_assert!(bits <= 64);
    if bits == 0 {
        0
    } else {
        (hash >> (64 - bits as u32)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fold_to_bits_is_top_bits() {
        assert_eq!(fold_to_bits(0, 16), 0);
        assert_eq!(fold_to_bits(u64::MAX, 16), 0xFFFF);
        // Only the top bit set: lands in the upper half of any table.
        assert_eq!(fold_to_bits(1 << 63, 10), 512);
        // Low bits are ignored entirely.
        assert_eq!(fold_to_bits(0xFFFF, 16), 0);
    }

    #[test]
    fn fold_to_bits_zero_bits() {
        assert_eq!(fold_to_bits(u64::MAX, 0), 0);
    }

    #[test]
    fn from_seed_is_deterministic() {
        let a = MultShift::from_seed(7);
        let b = MultShift::from_seed(7);
        let c = MultShift::from_seed(8);
        for k in [0u64, 1, 42, u64::MAX / 3] {
            assert_eq!(a.hash(k), b.hash(k));
        }
        // Different seeds should give a different function (w.h.p.).
        assert!((0..64u64).any(|k| a.hash(k) != c.hash(k)));
    }

    #[test]
    fn families_sampled_from_same_rng_differ() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(999);
        let f1 = Murmur::sample(&mut rng);
        let f2 = Murmur::sample(&mut rng);
        assert!((0..64u64).any(|k| f1.hash(k) != f2.hash(k)));
    }
}
