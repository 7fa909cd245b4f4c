//! Quadratic probing (paper §2.3).
//!
//! The probe sequence is `h(k, i) = (h'(k) + c1·i + c2·i²) mod l` with the
//! textbook constants `c1 = c2 = 1/2`, i.e. triangular-number offsets
//! `0, 1, 3, 6, 10, …`. With a power-of-two capacity this sequence visits
//! **every slot exactly once** in `l` probes (CLRS; verified exhaustively in
//! the tests), so an insert finds a free slot whenever one exists.
//!
//! Compared to LP, QP trades locality for reduced primary clustering:
//! after the third probe every step touches a new cache line, but
//! collisions scatter instead of piling into runs. It still suffers
//! *secondary* clustering — keys with the same home slot share their whole
//! probe sequence. Deletion uses tombstones ("we can apply the same
//! strategies as in LP", §2.3) — but **always** places one, see the
//! deletion section of [`crate::open_addressing`].
//!
//! The implementation is the [`Aos`] × [`Triangular`] cell of
//! [`OpenAddressing`].

use crate::open_addressing::{Aos, OpenAddressing, Triangular};

/// Quadratic (triangular) probing over an AoS slot array.
pub type QuadraticProbing<H> = OpenAddressing<H, Aos, Triangular>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashTable, InsertOutcome, TableError};
    use hashfn::MultShift;

    #[test]
    fn triangular_sequence_covers_all_slots() {
        // The CLRS property behind QP with c1 = c2 = 1/2: for any
        // power-of-two l, {i(i+1)/2 mod l : 0 ≤ i < l} = {0..l}.
        for bits in 1..=12u32 {
            let l = 1usize << bits;
            let mut seen = vec![false; l];
            let mut pos = 0usize;
            for i in 1..=l {
                seen[pos] = true;
                pos = (pos + i) & (l - 1);
            }
            assert!(seen.iter().all(|&s| s), "coverage gap at l = {l}");
        }
    }

    #[test]
    fn colliding_keys_follow_triangular_offsets() {
        let mut t: QuadraticProbing<MultShift> = QuadraticProbing::with_hash(4, MultShift::new(1));
        // All keys below 2^60 have home slot 0 in a 16-slot table.
        for k in 1..=4u64 {
            t.insert(k, k).unwrap();
        }
        // Offsets 0, 1, 3, 6 from slot 0.
        assert_eq!(t.raw_slots()[0].key, 1);
        assert_eq!(t.raw_slots()[1].key, 2);
        assert_eq!(t.raw_slots()[3].key, 3);
        assert_eq!(t.raw_slots()[6].key, 4);
        for k in 1..=4u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
        assert_eq!(t.lookup(5), None);
    }

    #[test]
    fn fills_to_capacity_minus_one_despite_collisions() {
        // All keys collide to slot 0; full coverage still lets QP fill
        // every slot but the terminator.
        let mut t: QuadraticProbing<MultShift> = QuadraticProbing::with_hash(4, MultShift::new(1));
        let mut inserted = 0;
        for k in 1..=16u64 {
            match t.insert(k, k) {
                Ok(InsertOutcome::Inserted) => inserted += 1,
                Err(TableError::TableFull) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(inserted, 15);
        for k in 1..=15u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn delete_always_places_tombstone() {
        let mut t: QuadraticProbing<MultShift> = QuadraticProbing::with_hash(4, MultShift::new(1));
        t.insert(1, 10).unwrap(); // slot 0
        t.insert(2, 20).unwrap(); // slot 1
        t.insert(3, 30).unwrap(); // slot 3
        t.delete(3);
        assert_eq!(t.tombstone_count(), 1);
        assert!(t.raw_slots()[3].is_tombstone());
        t.delete(1);
        assert_eq!(t.tombstone_count(), 2);
        assert!(t.raw_slots()[0].is_tombstone());
        // Key 2 still reachable across the tombstone.
        assert_eq!(t.lookup(2), Some(20));
        // Insert recycles the first tombstone on its probe path.
        t.insert(4, 40).unwrap();
        assert_eq!(t.tombstone_count(), 1);
        assert_eq!(t.raw_slots()[0].key, 4);
    }

    #[test]
    fn clearing_would_break_crossing_chains() {
        // The scenario that forced always-tombstone: key B passes through
        // A's slot at a different iteration. Deleting A must not cut B's
        // chain. Home slots (mult=1, 16 slots): craft keys in bucket 0 and
        // bucket 1. B (home 1) probes 1, 2, 4, 7, ... A keys (home 0)
        // occupy 0, 1, 3, ... so bucket-1 key lands at slot 2 after
        // colliding at 1.
        let mut t: QuadraticProbing<MultShift> = QuadraticProbing::with_hash(4, MultShift::new(1));
        let a1 = 0x0000_0000_0000_0001u64; // home 0 → slot 0
        let a2 = 0x0000_0000_0000_0002u64; // home 0 → slot 1
        let b = 0x1000_0000_0000_0001u64; // home 1 → collides at 1, lands 2
        t.insert(a1, 1).unwrap();
        t.insert(a2, 2).unwrap();
        t.insert(b, 3).unwrap();
        assert_eq!(t.raw_slots()[2].key, b);
        // Delete a2 (slot 1). If the slot were cleared instead of
        // tombstoned, lookup(b) would stop at the empty slot 1 and miss b.
        t.delete(a2);
        assert_eq!(t.lookup(b), Some(3), "crossing chain must survive");
    }

    #[test]
    fn secondary_clustering_shared_probe_path() {
        // Two keys with the same home slot share the whole probe sequence:
        // key B inserted after A sits exactly one triangular step further.
        let mut t: QuadraticProbing<MultShift> = QuadraticProbing::with_hash(8, MultShift::new(1));
        let a = 1u64; // home 0
        let b = 2u64; // home 0
        t.insert(a, 1).unwrap();
        t.insert(b, 2).unwrap();
        assert_eq!(t.raw_slots()[0].key, a);
        assert_eq!(t.raw_slots()[1].key, b);
    }

    #[test]
    fn wraparound_probing() {
        let mut t: QuadraticProbing<MultShift> = QuadraticProbing::with_hash(4, MultShift::new(1));
        let base = 0xF000_0000_0000_0000u64; // home slot 15
        t.insert(base, 1).unwrap(); // slot 15
        t.insert(base + 1, 2).unwrap(); // 15+1 = 0
        t.insert(base + 2, 3).unwrap(); // 15+3 = 2
        assert_eq!(t.raw_slots()[15].key, base);
        assert_eq!(t.raw_slots()[0].key, base + 1);
        assert_eq!(t.raw_slots()[2].key, base + 2);
        for (k, v) in [(base, 1), (base + 1, 2), (base + 2, 3)] {
            assert_eq!(t.lookup(k), Some(v));
        }
    }
}
