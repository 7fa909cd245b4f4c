//! Linear probing with optimized tombstone deletion (paper §2.2).
//!
//! The hash function is `h(k, i) = (h'(k) + i) mod l`: on a collision the
//! probe walks consecutive slots circularly until it finds the key, an
//! empty slot, or (for inserts) a reusable tombstone. Low code complexity
//! and a sequential access pattern make LP the fastest scheme at low load
//! factors; primary clustering makes it degrade beyond ~60–70%, and
//! unsuccessful lookups must scan whole clusters.
//!
//! The implementation is the [`Aos`] × [`Linear`] cell of
//! [`OpenAddressing`] — see [`crate::open_addressing`] for the probe
//! kernel and the deletion rule.

use crate::open_addressing::{Aos, Linear, OpenAddressing};

/// Linear probing over an array-of-structs slot array.
///
/// `LPMult` in the paper is `LinearProbing<MultShift>`, `LPMurmur` is
/// `LinearProbing<Murmur>`.
pub type LinearProbing<H> = OpenAddressing<H, Aos, Linear>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_common::*;
    use crate::{HashTable, InsertOutcome, TableError};
    use hashfn::{MultShift, Murmur};

    fn table(bits: u8) -> LinearProbing<Murmur> {
        LinearProbing::with_seed(bits, 42)
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        check_roundtrip(&mut table(8));
    }

    #[test]
    fn map_semantics_replace() {
        check_replace_semantics(&mut table(8));
    }

    #[test]
    fn reserved_keys_rejected() {
        check_reserved_keys(&mut table(4));
    }

    #[test]
    fn fills_to_capacity_minus_one() {
        let mut t = table(4); // 16 slots
        let mut inserted = 0;
        for k in 0..16u64 {
            match t.insert(k, k) {
                Ok(InsertOutcome::Inserted) => inserted += 1,
                Err(TableError::TableFull) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(inserted, 15, "one slot must stay empty as probe terminator");
        // All inserted keys still found.
        for k in 0..inserted as u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
        assert_eq!(t.lookup(100), None);
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        // Multiplier 1 ⇒ home slot = top bits of the raw key: keys below
        // 2^60 all land in slot 0 of a 16-slot table.
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(4, MultShift::new(1));
        for k in 1..=5u64 {
            t.insert(k, k * 100).unwrap();
        }
        // They occupy slots 0..5 in insertion order.
        for (i, k) in (1..=5u64).enumerate() {
            assert_eq!(t.raw_slots()[i].key, k);
        }
        for k in 1..=5u64 {
            assert_eq!(t.lookup(k), Some(k * 100));
        }
        assert_eq!(t.lookup(6), None);
    }

    #[test]
    fn probe_wraps_around_table_end() {
        // Put home slots at the last slot and force wraparound.
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(4, MultShift::new(1));
        // Keys with top-4 bits = 15 → home slot 15.
        let base = 0xF000_0000_0000_0000u64;
        t.insert(base, 1).unwrap();
        t.insert(base + 1, 2).unwrap(); // wraps to slot 0
        t.insert(base + 2, 3).unwrap(); // slot 1
        assert_eq!(t.raw_slots()[15].key, base);
        assert_eq!(t.raw_slots()[0].key, base + 1);
        assert_eq!(t.raw_slots()[1].key, base + 2);
        assert_eq!(t.lookup(base + 2), Some(3));
        // Deleting the middle of a wrapped cluster keeps it connected.
        assert_eq!(t.delete(base + 1), Some(2));
        assert_eq!(t.lookup(base + 2), Some(3));
    }

    #[test]
    fn tombstone_only_when_cluster_continues() {
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(4, MultShift::new(1));
        let base = 0x1000_0000_0000_0000u64; // home slot 1
        t.insert(base, 1).unwrap(); // slot 1
        t.insert(base + 1, 2).unwrap(); // slot 2
                                        // Deleting the tail entry: next slot (3) is empty → no tombstone.
        t.delete(base + 1);
        assert_eq!(t.tombstone_count(), 0);
        assert!(t.raw_slots()[2].is_empty());
        // Re-insert and delete the head: next slot occupied → tombstone.
        t.insert(base + 1, 2).unwrap();
        t.delete(base);
        assert_eq!(t.tombstone_count(), 1);
        assert!(t.raw_slots()[1].is_tombstone());
        // Lookup scans across the tombstone.
        assert_eq!(t.lookup(base + 1), Some(2));
    }

    #[test]
    fn insert_recycles_tombstones() {
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(4, MultShift::new(1));
        let base = 0x1000_0000_0000_0000u64;
        t.insert(base, 1).unwrap();
        t.insert(base + 1, 2).unwrap();
        t.delete(base); // tombstone at slot 1
        assert_eq!(t.tombstone_count(), 1);
        // A new colliding key reuses the tombstone slot.
        t.insert(base + 2, 3).unwrap();
        assert_eq!(t.tombstone_count(), 0);
        assert_eq!(t.raw_slots()[1].key, base + 2);
        assert_eq!(t.lookup(base + 1), Some(2));
        assert_eq!(t.lookup(base + 2), Some(3));
    }

    #[test]
    fn duplicate_insert_does_not_take_earlier_tombstone() {
        // Key present *behind* a tombstone: insert must replace, not
        // duplicate into the tombstone.
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(4, MultShift::new(1));
        let base = 0x1000_0000_0000_0000u64;
        t.insert(base, 1).unwrap();
        t.insert(base + 1, 2).unwrap();
        t.delete(base); // tombstone at slot 1; base+1 still at slot 2
        assert_eq!(t.insert(base + 1, 99), Ok(InsertOutcome::Replaced(2)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(base + 1), Some(99));
    }

    #[test]
    fn rehash_in_place_drops_tombstones() {
        let mut t = table(8);
        for k in 0..100u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..50u64 {
            t.delete(k);
        }
        let before = t.tombstone_count();
        assert!(before > 0, "expect some tombstones after deletions");
        t.rehash_in_place();
        assert_eq!(t.tombstone_count(), 0);
        assert_eq!(t.len(), 50);
        for k in 50..100u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn saturated_with_tombstones_still_terminates() {
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(2, MultShift::new(1));
        // Fill 3 of 4 slots, delete them all (head deletes leave tombstones
        // where clusters continue), then look up a missing key.
        t.insert(1, 1).unwrap();
        t.insert(2, 2).unwrap();
        t.insert(3, 3).unwrap();
        t.delete(1);
        t.delete(2);
        t.delete(3);
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup(9), None);
        // And inserting still works by recycling tombstones.
        t.insert(7, 70).unwrap();
        assert_eq!(t.lookup(7), Some(70));
    }

    #[test]
    fn model_test_against_std_hashmap() {
        check_against_model(&mut table(10), 5000, 0xC0FFEE);
    }

    #[test]
    fn model_test_simd_probing() {
        let mut t: LinearProbing<Murmur> = LinearProbing::with_seed_simd(10, 42);
        check_against_model(&mut t, 5000, 0x51D);
    }

    #[test]
    fn batch_ops_match_single_key_path() {
        check_batch_matches_single(&mut table(9), &mut table(9), 0xBA7C);
        let mut a: LinearProbing<Murmur> = LinearProbing::with_seed_simd(9, 42);
        let mut b: LinearProbing<Murmur> = LinearProbing::with_seed_simd(9, 42);
        check_batch_matches_single(&mut a, &mut b, 0xBA7D);
    }
}
