//! Bucketized fingerprint hashing (Swiss-table / F14 lineage): the probing
//! scheme the paper's SIMD findings (§7) point at but stop short of.
//!
//! The paper vectorizes *per-slot* linear probing — four 8-byte keys per
//! AVX2 comparison — and finds the win limited by memory traffic: every
//! probe step still drags full key cache lines through the hierarchy.
//! Bucketized fingerprint probing inverts the layout: a contiguous array
//! of **1-byte tags** (a 7-bit fingerprint of each key's hash, with the
//! high bit reserved for the EMPTY/TOMBSTONE control values) is probed
//! **group-at-a-time** — one 16-byte SSE2 comparison classifies sixteen
//! slots (see [`crate::simd::scan_tags`]) — and the 8-byte keys, kept in a
//! struct-of-arrays payload next to their values, are touched only for
//! the (rare) tag matches. An unsuccessful lookup at 87% load reads ~one
//! tag line and usually zero key lines, versus a whole cluster of key
//! lines for LP; this is the bucket-of-candidates idea of multilevel hash
//! tables (multiple candidate slots resolved per probe step) fused with
//! open addressing.
//!
//! # One cell of the open-addressing table
//!
//! [`FingerprintTable`] is the `Soa × Grouped` cell of [`OpenAddressing`]:
//! the tag array lives in the table, and [`Grouped`] selects the group
//! probe, the group kernel and the group delete rule (see
//! [`crate::open_addressing`]). Groups are probed linearly and circularly
//! from the key's home group; a group holding an EMPTY tag ends a probe,
//! and a delete tombstones only when its group holds none. Inserts
//! recycle tombstones, and a blocked insert rehashes in place before
//! reporting [`TableError::TableFull`](crate::TableError::TableFull).
//!
//! The hash's top bits pick the home slot, whose group is the home group;
//! the fingerprint is the 7 hash bits just below those. The low bits would
//! not do for multiply-shift, whose low hash bits depend only on the key's
//! low bits: grid keys (every byte in 1..=14) would share 14 of 128 tags.
//!
//! # Group size
//!
//! `G` is a const parameter (default [`GROUP_SLOTS`] = 16, the size one
//! SSE2 register classifies per instruction). The `ablation_fp` binary
//! sweeps 4/8/16/32 to show why 16 is the sweet spot: smaller groups probe
//! more often, larger ones scan scalar (no single-register compare) and
//! evict more payload per miss.

use crate::open_addressing::{Grouped, OpenAddressing, Soa};

/// Slots per probe group: what one SSE2 byte-compare classifies.
pub const GROUP_SLOTS: usize = 16;

/// Bucketized open addressing over a 1-byte tag array and an SoA
/// key/value payload, 17 B per slot. `FPMult` in the builder grid is
/// `FingerprintTable<MultShift>`.
pub type FingerprintTable<H, const G: usize = GROUP_SLOTS> = OpenAddressing<H, Soa, Grouped<G>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{EMPTY_TAG, TOMBSTONE_TAG};
    use crate::tests_common::*;
    use crate::{HashTable, InsertOutcome, TableError, EMPTY_KEY, TOMBSTONE_KEY};
    use hashfn::{fold_to_bits, HashFn64, MultShift, Murmur};

    fn scalar(bits: u8) -> FingerprintTable<Murmur> {
        FingerprintTable::with_seed(bits, 42)
    }

    fn simd(bits: u8) -> FingerprintTable<Murmur> {
        FingerprintTable::with_seed_simd(bits, 42)
    }

    #[test]
    fn model_test_scalar() {
        check_against_model(&mut scalar(10), 5000, 0xF1A);
    }

    #[test]
    fn model_test_simd() {
        check_against_model(&mut simd(10), 5000, 0xF1B);
    }

    #[test]
    fn model_test_single_group_table() {
        // 2^4 slots = exactly one 16-slot group: the probe loop's
        // degenerate circular case.
        check_against_model(&mut scalar(4), 3000, 0xF1C);
    }

    #[test]
    fn model_test_non_default_group_sizes() {
        let mut g4: FingerprintTable<Murmur, 4> = FingerprintTable::with_seed(9, 1);
        check_against_model(&mut g4, 4000, 0xF1D);
        let mut g32: FingerprintTable<Murmur, 32> = FingerprintTable::with_seed(9, 2);
        check_against_model(&mut g32, 4000, 0xF1E);
    }

    #[test]
    fn simd_and_scalar_tables_agree_step_by_step() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF00);
        let mut a = scalar(9);
        let mut b = simd(9);
        for step in 0..6000 {
            let k = rng.gen_range(1..300u64);
            match rng.gen_range(0..3u8) {
                0 => assert_eq!(a.insert(k, k), b.insert(k, k), "step {step}"),
                1 => assert_eq!(a.delete(k), b.delete(k), "step {step}"),
                _ => assert_eq!(a.lookup(k), b.lookup(k), "step {step}"),
            }
            assert_eq!(a.len(), b.len(), "step {step}");
        }
        assert_eq!(a.raw_tags(), b.raw_tags(), "kinds must place identically");
    }

    #[test]
    fn tags_are_fingerprints_of_live_keys() {
        let mut t = scalar(8);
        for k in 1..=150u64 {
            t.insert(k, k).unwrap();
        }
        for k in (1..=150u64).step_by(3) {
            t.delete(k);
        }
        for (i, (&tag, &key)) in t.raw_tags().iter().zip(t.raw_keys()).enumerate() {
            // The key array mirrors the control tags; a live tag is the 7
            // hash bits below the 8 home-slot bits.
            let expect = match key {
                EMPTY_KEY => EMPTY_TAG,
                TOMBSTONE_KEY => TOMBSTONE_TAG,
                _ => (fold_to_bits(t.hash_fn().hash(key), 8 + 7) & 0x7F) as u8,
            };
            assert_eq!(tag, expect, "slot {i}");
        }
        let count = |c: u8| t.raw_tags().iter().filter(|&&tag| tag == c).count();
        assert_eq!(count(TOMBSTONE_TAG), t.tombstone_count());
        assert_eq!(t.capacity() - count(EMPTY_TAG) - count(TOMBSTONE_TAG), t.len());
    }

    #[test]
    fn multiply_shift_fingerprints_spread_over_grid_keys() {
        // Grid keys have every byte in 1..=14. Multiply-shift's low hash
        // bits depend only on the key's low bits, so a fingerprint taken
        // from them reaches at most 14 of the 128 tags.
        let grid_key = |mut i: u64| {
            (0..8).fold(0u64, |k, b| {
                let digit = i % 14;
                i /= 14;
                k | (digit + 1) << (8 * b)
            })
        };
        let mut t: FingerprintTable<MultShift> = FingerprintTable::with_seed(16, 7);
        for i in 0..(0.7 * 65536.0) as u64 {
            t.insert(grid_key(i), i).unwrap();
        }
        let mut seen = [false; 128];
        for &tag in t.raw_tags().iter().filter(|&&tag| tag < EMPTY_TAG) {
            seen[tag as usize] = true;
        }
        let distinct = seen.iter().filter(|&&s| s).count();
        assert!(distinct >= 100, "{distinct} distinct live tags of 128");
    }

    #[test]
    fn delete_clears_in_groups_with_empties_and_tombstones_otherwise() {
        // Multiplier 1 ⇒ home group = top bits ⇒ small keys all hit group
        // 0; fill it completely so deletes must tombstone.
        let mut t: FingerprintTable<MultShift> = FingerprintTable::with_hash(5, MultShift::new(1));
        for k in 1..=16u64 {
            t.insert(k, k).unwrap();
        }
        // Group 0 full: deleting from it must tombstone.
        assert_eq!(t.delete(3), Some(3));
        assert_eq!(t.tombstone_count(), 1);
        assert_eq!(t.raw_tags().iter().filter(|&&x| x == TOMBSTONE_TAG).count(), 1);
        // A half-empty group clears instead.
        let mut t: FingerprintTable<MultShift> = FingerprintTable::with_hash(5, MultShift::new(1));
        t.insert(1, 1).unwrap();
        t.insert(2, 2).unwrap();
        assert_eq!(t.delete(1), Some(1));
        assert_eq!(t.tombstone_count(), 0);
    }

    #[test]
    fn overflow_spills_to_the_next_group_and_stays_reachable() {
        let mut t: FingerprintTable<MultShift> = FingerprintTable::with_hash(6, MultShift::new(1));
        // 20 colliding keys: 16 fill group 0, 4 spill into group 1.
        for k in 1..=20u64 {
            t.insert(k, k * 10).unwrap();
        }
        for k in 1..=20u64 {
            assert_eq!(t.lookup(k), Some(k * 10), "key {k}");
        }
        // Deleting a home-group key tombstones (group 0 is full) and the
        // spilled keys stay reachable across the tombstone.
        assert_eq!(t.delete(5), Some(50));
        for k in (1..=20u64).filter(|&k| k != 5) {
            assert_eq!(t.lookup(k), Some(k * 10), "key {k} after delete");
        }
        // The tombstone is recycled by the next colliding insert.
        assert_eq!(t.insert(21, 210), Ok(InsertOutcome::Inserted));
        assert_eq!(t.tombstone_count(), 0);
    }

    #[test]
    fn rehash_in_place_drops_tombstones() {
        let mut t = scalar(8);
        for k in 1..=200u64 {
            t.insert(k, k).unwrap();
        }
        for k in 1..=100u64 {
            t.delete(k);
        }
        assert!(t.tombstone_count() > 0, "a 78%-full table must tombstone some deletes");
        t.rehash_in_place();
        assert_eq!(t.tombstone_count(), 0);
        assert_eq!(t.len(), 100);
        for k in 101..=200u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn memory_is_17_bytes_per_slot() {
        assert_eq!(scalar(10).memory_bytes(), 1024 * 17);
        assert_eq!(scalar(10).capacity(), 1024);
    }

    #[test]
    fn display_names() {
        // The shared checks cover the 16-slot names; a group size of its
        // own shows in an infix.
        assert_eq!(FingerprintTable::<MultShift, 4>::with_seed(4, 1).display_name(), "FPG4Mult");
        assert_eq!(FingerprintTable::<MultShift, 8>::with_seed(4, 1).display_name(), "FPG8Mult");
        let t = FingerprintTable::<MultShift, 32>::with_seed_simd(5, 1);
        assert_eq!(t.display_name(), "FPG32MultSIMD");
    }

    #[test]
    #[should_panic(expected = "smaller than one")]
    fn rejects_capacity_below_one_group() {
        let _: FingerprintTable<Murmur> = FingerprintTable::with_seed(2, 1);
    }

    #[test]
    fn fills_to_capacity_minus_one() {
        let mut t = scalar(4); // one 16-slot group
        let mut inserted = 0u64;
        for k in 1..=16u64 {
            match t.insert(k, k) {
                Ok(InsertOutcome::Inserted) => inserted += 1,
                Err(TableError::TableFull) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(inserted, 15, "one slot must stay empty as probe terminator");
        for k in 1..=inserted {
            assert_eq!(t.lookup(k), Some(k));
        }
        assert_eq!(t.lookup(100), None);
        // Delete-then-reinsert at max load reclaims via rehash.
        assert_eq!(t.delete(2), Some(2));
        assert_eq!(t.insert(99, 99), Ok(InsertOutcome::Inserted));
        assert_eq!(t.lookup(99), Some(99));
    }

    #[test]
    fn reserved_keys_flow_through_batches_inert() {
        let mut t = simd(8);
        let items = [(7u64, 70u64), (EMPTY_KEY, 1), (TOMBSTONE_KEY, 2), (8, 80)];
        let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
        t.insert_batch(&items, &mut out);
        assert_eq!(
            out,
            vec![
                Ok(InsertOutcome::Inserted),
                Err(TableError::ReservedKey),
                Err(TableError::ReservedKey),
                Ok(InsertOutcome::Inserted),
            ]
        );
        let keys = [EMPTY_KEY, 7, TOMBSTONE_KEY, 8];
        let mut vals = vec![None; keys.len()];
        t.lookup_batch(&keys, &mut vals);
        assert_eq!(vals, vec![None, Some(70), None, Some(80)]);
    }
}
