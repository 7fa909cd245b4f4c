//! Linear probing in struct-of-arrays layout (paper §7).
//!
//! Keys and values live in two separate, index-aligned arrays ("similar to
//! column layout"). A probe touches keys only — twice as many keys per
//! cache line as AoS — but every *successful* lookup pays a second cache
//! line for the value. The paper's Figure 7 maps out the resulting
//! trade-off against [`crate::LinearProbing`] (AoS): AoS wins inserts and
//! successful-heavy lookups, SoA wins long unsuccessful scans, and SIMD
//! favours SoA because packed keys load straight into vector registers
//! while AoS needs gathers.
//!
//! The implementation is the [`Soa`] × [`Linear`] cell of
//! [`OpenAddressing`]: semantics (probe order, optimized tombstones, map
//! behaviour) are those of [`crate::LinearProbing`] by construction.

use crate::open_addressing::{Linear, OpenAddressing, Soa};

/// Linear probing over split key/value arrays, optionally SIMD-probed.
pub type LinearProbingSoA<H> = OpenAddressing<H, Soa, Linear>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_common::*;
    use crate::HashTable;
    use hashfn::{MultShift, Murmur};

    fn scalar(bits: u8) -> LinearProbingSoA<Murmur> {
        LinearProbingSoA::with_seed(bits, 42)
    }

    fn simd(bits: u8) -> LinearProbingSoA<Murmur> {
        LinearProbingSoA::with_seed_simd(bits, 42)
    }

    #[test]
    fn roundtrip_scalar() {
        check_roundtrip(&mut scalar(8));
    }

    #[test]
    fn roundtrip_simd() {
        check_roundtrip(&mut simd(8));
    }

    #[test]
    fn replace_semantics_both_kinds() {
        check_replace_semantics(&mut scalar(8));
        check_replace_semantics(&mut simd(8));
    }

    #[test]
    fn reserved_keys_both_kinds() {
        check_reserved_keys(&mut scalar(4));
        check_reserved_keys(&mut simd(4));
    }

    #[test]
    fn model_test_scalar() {
        check_against_model(&mut scalar(10), 5000, 0x50A);
    }

    #[test]
    fn model_test_simd() {
        check_against_model(&mut simd(10), 5000, 0x50B);
    }

    #[test]
    fn batch_ops_match_single_key_path() {
        check_batch_matches_single(&mut scalar(9), &mut scalar(9), 0x50A7);
        check_batch_matches_single(&mut simd(9), &mut simd(9), 0x50A8);
    }

    #[test]
    fn memory_is_16_bytes_per_slot_total() {
        // Same total footprint as AoS, just split.
        assert_eq!(scalar(10).memory_bytes(), 1024 * 16);
    }

    #[test]
    fn layouts_agree_slot_by_slot() {
        // Same hash function => identical probe decisions => identical
        // key placement between AoS and SoA.
        let h = MultShift::new(0x9E37_79B9_7F4A_7C15);
        let mut aos = crate::LinearProbing::with_hash(8, h);
        let mut soa = LinearProbingSoA::with_hash(8, h);
        let mut rng_state = 1u64;
        for _ in 0..180 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = rng_state >> 8;
            assert_eq!(aos.insert(k, k).is_ok(), soa.insert(k, k).is_ok());
        }
        for (i, &k) in soa.raw_keys().iter().enumerate() {
            assert_eq!(aos.raw_slots()[i].key, k, "slot {i} diverged");
        }
        // Deletes keep them in lockstep too.
        let victims: Vec<u64> =
            soa.raw_keys().iter().copied().filter(|&k| k < u64::MAX - 1).step_by(3).collect();
        for k in victims {
            assert_eq!(aos.delete(k), soa.delete(k));
        }
        for (i, &k) in soa.raw_keys().iter().enumerate() {
            assert_eq!(aos.raw_slots()[i].key, k, "slot {i} diverged after deletes");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(scalar(4).display_name(), "LPSoAMurmur");
        assert_eq!(simd(4).display_name(), "LPSoAMurmurSIMD");
        let t: LinearProbingSoA<MultShift> = LinearProbingSoA::with_seed(4, 1);
        assert_eq!(t.display_name(), "LPSoAMult");
    }
}
