//! Robin Hood hashing on linear probing, tuned as in the paper (§2.4).
//!
//! Robin Hood resolves each collision in favour of the entry that is
//! further from its home slot ("take from the rich, give to the poor"):
//! during insertion, when the incoming entry's displacement exceeds the
//! resident's, they swap and the probe continues with the displaced
//! resident. Total displacement is unchanged versus LP, but clusters
//! become sorted by home slot, which enables early termination of
//! unsuccessful lookups.
//!
//! The paper evaluates several abort criteria and settles on a cheap one:
//! recompute the resident's displacement **once per cache line** (every
//! fourth slot for 16-byte AoS entries) and stop as soon as
//! `d(resident) < i` — by the cluster ordering the key cannot appear
//! further. Checking every slot would cost a hash computation per probe;
//! checking once per line amortizes it to ¼. Bounding the probe by the
//! largest displacement `dmax` was rejected too: at high load `dmax` is
//! often an order of magnitude above the mean. Deletion uses backward
//! shift (partial cluster rehash): tombstones are unusable here because
//! they carry no displacement information.
//!
//! The implementation is the [`Aos`] × [`Ordered`] cell of
//! [`OpenAddressing`] — see [`crate::open_addressing`] for the ordered
//! insert, delete and lookup rules.

use crate::open_addressing::{Aos, OpenAddressing, Ordered};

/// Robin Hood hashing over an array-of-structs slot array.
///
/// `RHMult` in the paper is `RobinHood<MultShift>`.
pub type RobinHood<H> = OpenAddressing<H, Aos, Ordered>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_common::*;
    use crate::{HashTable, InsertOutcome, TableError};
    use hashfn::{MultShift, Murmur};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn table(bits: u8) -> RobinHood<Murmur> {
        RobinHood::with_seed(bits, 42)
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
    fn displacement_ordering_after_inserts() {
        let mut t = table(8);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            t.insert(rng.gen_range(1..1_000_000), 0).unwrap();
        }
        t.check_invariant().unwrap();
    }

    #[test]
    fn invariant_holds_under_churn() {
        let mut t = table(8);
        let mut rng = StdRng::seed_from_u64(2);
        let mut live: Vec<u64> = Vec::new();
        for step in 0..3000 {
            if (rng.gen_bool(0.6) && t.len() < 220) || live.is_empty() {
                let k = rng.gen_range(1..100_000u64);
                t.insert(k, step).unwrap();
                live.push(k);
            } else {
                let idx = rng.gen_range(0..live.len());
                let k = live.swap_remove(idx);
                t.delete(k);
            }
            if step % 100 == 0 {
                t.check_invariant().unwrap();
            }
        }
        t.check_invariant().unwrap();
    }

    #[test]
    fn robin_hood_swaps_favor_poor_entries() {
        // With multiplier 1: key k << 60 gives home = k (top-4 bits) in a
        // 16-slot table. Build: A at home 0, B at home 0 (displaced to 1),
        // then C with home 1. LP would put C at 2 (displacement 2 with B at
        // its home... actually d(C)=1). In RH, C probes slot 1: d(B at 1)=1
        // vs d(C)=0 → B stays (richer check: 1 < 0 false... B is poorer),
        // C continues to slot 2.
        let mut t: RobinHood<MultShift> = RobinHood::with_hash(4, MultShift::new(1));
        let a = 0x0000_0000_0000_0001u64; // home 0
        let b = 0x0000_0000_0000_0002u64; // home 0
        let c = 0x1000_0000_0000_0001u64; // home 1
        t.insert(a, 1).unwrap(); // slot 0, d=0
        t.insert(b, 2).unwrap(); // slot 1, d=1
        t.insert(c, 3).unwrap();
        // c (d would be 0 at slot 1) must NOT displace b (d=1): b is
        // poorer. c lands at slot 2 with d=1.
        assert_eq!(t.raw_slots()[1].key, b);
        assert_eq!(t.raw_slots()[2].key, c);
        t.check_invariant().unwrap();

        // Now a key with home 0 inserted late: D probes 0 (d(a)=0 vs 0 →
        // equal, continue), 1 (d(b)=1 vs 1 → equal, continue), 2 (d(c)=1 <
        // 2 → c is richer, D takes slot 2, c displaced to 3).
        let d = 0x0000_0000_0000_0003u64; // home 0
        t.insert(d, 4).unwrap();
        assert_eq!(t.raw_slots()[2].key, d);
        assert_eq!(t.raw_slots()[3].key, c);
        t.check_invariant().unwrap();
        for (k, v) in [(a, 1), (b, 2), (c, 3), (d, 4)] {
            assert_eq!(t.lookup(k), Some(v));
        }
    }

    #[test]
    fn unsuccessful_lookup_early_abort_is_safe() {
        // Dense cluster at high load: every miss must return None, never a
        // wrong hit, and never abort before a real key.
        let mut t = table(8);
        for k in 1..=230u64 {
            t.insert(k, k).unwrap(); // 90% load factor
        }
        for probe in 1000..2000u64 {
            assert_eq!(t.lookup(probe), None);
        }
        for k in 1..=230u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn backward_shift_delete_leaves_no_tombstones() {
        let mut t = table(6);
        for k in 1..=40u64 {
            t.insert(k, k).unwrap();
        }
        for k in (1..=40u64).step_by(2) {
            assert_eq!(t.delete(k), Some(k));
        }
        // No slot is ever tombstoned; the invariant must hold and all
        // remaining keys must be found.
        assert_eq!(t.tombstone_count(), 0);
        assert!(t.raw_slots().iter().all(|p| !p.is_tombstone()));
        t.check_invariant().unwrap();
        for k in (2..=40u64).step_by(2) {
            assert_eq!(t.lookup(k), Some(k));
        }
        assert_eq!(t.len(), 20);
    }

    #[test]
    fn delete_shifts_wrapped_cluster() {
        let mut t: RobinHood<MultShift> = RobinHood::with_hash(4, MultShift::new(1));
        let base = 0xF000_0000_0000_0000u64; // home 15
        t.insert(base, 1).unwrap(); // slot 15
        t.insert(base + 1, 2).unwrap(); // wraps to 0
        t.insert(base + 2, 3).unwrap(); // slot 1
        assert_eq!(t.delete(base), Some(1));
        // Cluster shifted back across the wrap point.
        assert_eq!(t.raw_slots()[15].key, base + 1);
        assert_eq!(t.raw_slots()[0].key, base + 2);
        assert!(t.raw_slots()[1].is_empty());
        assert_eq!(t.lookup(base + 1), Some(2));
        assert_eq!(t.lookup(base + 2), Some(3));
        t.check_invariant().unwrap();
    }

    #[test]
    fn fills_to_capacity_minus_one() {
        let mut t = table(4);
        let mut inserted = 0u64;
        for k in 1..=16u64 {
            match t.insert(k, k) {
                Ok(InsertOutcome::Inserted) => inserted += 1,
                Err(TableError::TableFull) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(inserted, 15);
        // Updates still possible at the cap.
        assert_eq!(t.insert(1, 99), Ok(InsertOutcome::Replaced(1)));
        assert_eq!(t.insert(999, 1), Err(TableError::TableFull));
    }

    #[test]
    fn model_test_against_std_hashmap() {
        check_against_model(&mut table(10), 5000, 0xF00D);
    }

    #[test]
    fn model_test_with_weak_hash_function() {
        let mut t: RobinHood<MultShift> = RobinHood::with_hash(8, MultShift::new(1));
        check_against_model(&mut t, 4000, 0x1234);
    }

    #[test]
    fn batch_ops_match_single_key_path() {
        check_batch_matches_single(&mut table(9), &mut table(9), 0x12BA);
    }

    #[test]
    fn optimistic_scan_is_capacity_bounded_on_a_saturated_table() {
        use crate::open_addressing::tests::{assert_saturated_miss_is_bounded, saturated};
        use crate::{EMPTY_KEY, TOMBSTONE_KEY};
        // Zero empty slots — a state only a racing writer can produce.
        for bits in [1u8, 6] {
            let t: RobinHood<MultShift> = saturated(bits);
            assert_saturated_miss_is_bounded(&t, &[1, EMPTY_KEY, 7, TOMBSTONE_KEY, 999]);
        }
    }

    #[test]
    fn dmax_often_far_above_mean_at_high_load() {
        // The paper's footnote: "for high load factor α, dmax can often be
        // an order of magnitude higher than the average displacement" —
        // the reason the dmax abort disappoints.
        let mut t: RobinHood<Murmur> = RobinHood::with_seed(12, 9);
        for k in 1..=(4096u64 * 9 / 10) {
            t.insert(k, k).unwrap();
        }
        let stats = t.displacement_stats();
        assert!(stats.max as f64 >= 3.0 * stats.mean, "dmax {} vs mean {}", stats.max, stats.mean);
    }
}
