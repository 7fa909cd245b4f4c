//! Property-based invariant tests (proptest) across the workspace.
//!
//! Complements the seeded differential suites with *shrinkable* random
//! inputs: when one of these fails, proptest minimizes the operation
//! sequence, which is worth a day of debugging. Covered invariants:
//!
//! * map conformance of each scheme against `HashMap` under arbitrary
//!   operation sequences (including reserved-key probes);
//! * the Robin Hood cluster ordering invariant under churn;
//! * scalar/SIMD scan-kernel equivalence on arbitrary slot and tag
//!   arrays;
//! * fingerprint-table churn at max load (tombstone reclamation);
//! * [`ShardedTable`] batch routing: arbitrary interleavings of
//!   `insert_batch`/`delete_batch`/`lookup_batch` — duplicate keys
//!   within one batch included — stay element-wise identical to an
//!   unsharded twin across shard counts 1/2/8;
//! * algebraic identities of the hash-function families;
//! * order and digit-range properties of the grid key generator.

use proptest::prelude::*;
use seven_dim_hashing::prelude::*;
use seven_dim_hashing::tables::simd::{
    scan_keys, scan_keys_scalar, scan_pairs, scan_tags, scan_tags_scalar, ProbeKind, EMPTY_TAG,
    TOMBSTONE_TAG,
};
use seven_dim_hashing::tables::{Pair, EMPTY_KEY, TOMBSTONE_KEY};
use std::collections::HashMap;

/// A randomized table operation over a small key universe (forces
/// collisions, duplicate inserts, deletes of absent keys).
#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u64),
    Delete(u64),
    Lookup(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 1u64..60;
    prop_oneof![
        (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v >> 1)),
        key.clone().prop_map(Op::Delete),
        key.prop_map(Op::Lookup),
    ]
}

/// [`op_strategy`] over a 15-key universe: exactly the distinct-key
/// maximum of a `2^4`-slot open-addressing table, so insert-heavy
/// sequences run it at max load without ever overfilling.
fn op_strategy_max_load() -> impl Strategy<Value = Op> {
    let key = 1u64..=15;
    prop_oneof![
        (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v >> 1)),
        key.clone().prop_map(Op::Delete),
        key.prop_map(Op::Lookup),
    ]
}

fn run_conformance<T: HashTable>(
    mut table: T,
    ops: &[Op],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut model: HashMap<u64, u64> = HashMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                // Universe (≤60 keys) always fits the 2^8 tables.
                let expect = match model.insert(k, v) {
                    None => InsertOutcome::Inserted,
                    Some(old) => InsertOutcome::Replaced(old),
                };
                prop_assert_eq!(table.insert(k, v), Ok(expect));
            }
            Op::Delete(k) => {
                prop_assert_eq!(table.delete(k), model.remove(&k));
            }
            Op::Lookup(k) => {
                prop_assert_eq!(table.lookup(k), model.get(&k).copied());
            }
        }
        prop_assert_eq!(table.len(), model.len());
    }
    Ok(())
}

// The closure bodies return Result via prop_assert!; wrap per scheme.
macro_rules! conformance_prop {
    ($name:ident, $ctor:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
            #[test]
            fn $name(ops in proptest::collection::vec(op_strategy(), 1..250)) {
                run_conformance($ctor, &ops)?;
            }
        }
    };
}

conformance_prop!(lp_conforms, LinearProbing::<MultShift>::with_seed(8, 1));
conformance_prop!(lp_simd_conforms, LinearProbing::<Murmur>::with_seed_simd(8, 2));
conformance_prop!(lp_soa_conforms, LinearProbingSoA::<Murmur>::with_seed(8, 3));
conformance_prop!(lp_soa_simd_conforms, LinearProbingSoA::<MultShift>::with_seed_simd(8, 4));
conformance_prop!(qp_conforms, QuadraticProbing::<Murmur>::with_seed(8, 5));
conformance_prop!(rh_conforms, RobinHood::<MultShift>::with_seed(8, 6));
conformance_prop!(cuckoo4_conforms, CuckooH4::<Murmur>::with_seed(8, 7));
conformance_prop!(cuckoo2_conforms, CuckooH2::<Murmur>::with_seed(8, 8));
conformance_prop!(chained8_conforms, ChainedTable8::<Murmur>::with_seed(6, 9));
conformance_prop!(chained24_conforms, ChainedTable24::<MultShift>::with_seed(6, 10));
conformance_prop!(fp_conforms, FingerprintTable::<Murmur>::with_seed(8, 11));
conformance_prop!(fp_simd_conforms, FingerprintTable::<MultShift>::with_seed_simd(8, 12));

// A deliberately awful hash function: maps everything to a handful of
// buckets. Conformance must hold regardless of hash quality.
#[derive(Clone)]
struct AwfulHash;
impl HashFn64 for AwfulHash {
    fn hash(&self, key: u64) -> u64 {
        (key % 3) << 62
    }
    fn name() -> &'static str {
        "Awful"
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    #[test]
    fn lp_conforms_under_awful_hashing(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        run_conformance(LinearProbing::with_hash(8, AwfulHash), &ops)?;
    }

    #[test]
    fn qp_conforms_under_awful_hashing(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        run_conformance(QuadraticProbing::with_hash(8, AwfulHash), &ops)?;
    }

    #[test]
    fn fp_conforms_under_awful_hashing(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        // AwfulHash gives every key the same 7-bit fingerprint (low bits
        // are all zero), so every occupied slot of a probed group is a
        // tag match: conformance must survive the degenerate filter.
        run_conformance(FingerprintTable::<AwfulHash>::with_hash(8, AwfulHash), &ops)?;
    }

    #[test]
    fn fp_max_load_churn_conforms(ops in proptest::collection::vec(op_strategy_max_load(), 1..250)) {
        // A single 16-slot group holding at most its 15-key maximum:
        // every delete/reinsert cycle rides the tombstone-vs-clear rule
        // and, at saturation, the reclaiming rehash.
        run_conformance(FingerprintTable::<Murmur>::with_seed(4, 13), &ops)?;
    }

    #[test]
    fn rh_invariant_under_churn(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        let mut t = RobinHood::<Murmur>::with_seed(8, 11);
        for op in &ops {
            match *op {
                Op::Insert(k, v) => { t.insert(k, v).unwrap(); }
                Op::Delete(k) => { t.delete(k); }
                Op::Lookup(k) => { t.lookup(k); }
            }
        }
        prop_assert!(t.check_invariant().is_ok(), "{:?}", t.check_invariant());
    }

    #[test]
    fn rh_invariant_under_awful_hashing(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut t = RobinHood::with_hash(8, AwfulHash);
        for op in &ops {
            match *op {
                Op::Insert(k, v) => { t.insert(k, v).unwrap(); }
                Op::Delete(k) => { t.delete(k); }
                Op::Lookup(k) => { t.lookup(k); }
            }
        }
        prop_assert!(t.check_invariant().is_ok());
    }
}

/// [`op_strategy`] over a 400-key universe with an insert-heavy mix:
/// enough distinct keys to push a `2^4`-slot growing table through
/// several doublings within one 250-op sequence.
fn op_strategy_growing() -> impl Strategy<Value = Op> {
    let key = 1u64..=400;
    prop_oneof![
        4 => (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v >> 1)),
        1 => key.clone().prop_map(Op::Delete),
        2 => key.prop_map(Op::Lookup),
    ]
}

/// An incrementally growing table and its stop-the-world twin must be
/// element-wise identical at *every* step of an arbitrary operation
/// sequence — that is, at every intermediate migration state, not just
/// after the drain completes. `capacity` is compared too: the
/// incremental table reports its target generation, which doubles at
/// exactly the same trigger points as the twin.
fn check_growth_twin(
    scheme: TableScheme,
    step: usize,
    ops: &[Op],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let base = TableBuilder::new(scheme).hash(HashKind::Murmur).bits(4).seed(0x9077).grow_at(0.7);
    let mut inc = base.clone().incremental(step).build();
    let mut aao = base.build();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                prop_assert_eq!(inc.insert(k, v), aao.insert(k, v), "insert {}", k);
            }
            Op::Delete(k) => {
                prop_assert_eq!(inc.delete(k), aao.delete(k), "delete {}", k);
            }
            Op::Lookup(k) => {
                prop_assert_eq!(inc.lookup(k), aao.lookup(k), "lookup {}", k);
            }
        }
        prop_assert_eq!(inc.len(), aao.len());
        prop_assert_eq!(inc.capacity(), aao.capacity());
    }
    // Final sweep: every key of the universe agrees.
    for k in 1..=400u64 {
        prop_assert_eq!(inc.lookup(k), aao.lookup(k), "final lookup {}", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    #[test]
    fn incremental_growth_matches_all_at_once_lp(
        ops in proptest::collection::vec(op_strategy_growing(), 1..250),
    ) {
        for step in [1usize, 7] {
            check_growth_twin(TableScheme::LinearProbing, step, &ops)?;
        }
    }

    #[test]
    fn incremental_growth_matches_all_at_once_fp(
        ops in proptest::collection::vec(op_strategy_growing(), 1..250),
    ) {
        for step in [1usize, 7] {
            check_growth_twin(TableScheme::Fingerprint, step, &ops)?;
        }
    }

    #[test]
    fn incremental_growth_matches_all_at_once_chained(
        ops in proptest::collection::vec(op_strategy_growing(), 1..250),
    ) {
        check_growth_twin(TableScheme::Chained24, 1, &ops)?;
    }
}

/// Every scheme is a switch target, indexable by a proptest strategy.
const SWITCH_TARGETS: [TableScheme; 10] = TableScheme::ALL;

/// A cross-scheme [`DynamicTable::switch_to`] fired at an arbitrary point
/// of an arbitrary operation sequence must leave the incrementally
/// draining table element-wise identical to a stop-the-world twin at
/// *every* step — every intermediate drain state, not just the end.
/// `bits(4)` + `grow_at(0.7)` under the 60-key universe forces growth
/// migrations to overlap the switch (a switch landing mid-growth-drain
/// finishes the growth first).
fn check_switch_twin(
    scheme: TableScheme,
    target: TableScheme,
    step: usize,
    switch_at: usize,
    ops: &[Op],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let factory = TableBuilder::new(scheme).hash(HashKind::Murmur);
    let mut inc = DynamicTable::with_policy(
        factory.clone(),
        4,
        0x9077,
        0.7,
        GrowthPolicy::Incremental { step },
    );
    let mut aao = DynamicTable::with_policy(factory, 4, 0x9077, 0.7, GrowthPolicy::AllAtOnce);
    for (i, op) in ops.iter().enumerate() {
        if i == switch_at % ops.len() {
            let switched = inc.switch_to(target).unwrap();
            prop_assert_eq!(
                aao.switch_to(target).unwrap(),
                switched,
                "twins disagree on switch feasibility"
            );
        }
        match *op {
            Op::Insert(k, v) => {
                prop_assert_eq!(inc.insert(k, v), aao.insert(k, v), "insert {}", k);
            }
            Op::Delete(k) => {
                prop_assert_eq!(inc.delete(k), aao.delete(k), "delete {}", k);
            }
            Op::Lookup(k) => {
                prop_assert_eq!(inc.lookup(k), aao.lookup(k), "lookup {}", k);
            }
        }
        prop_assert_eq!(inc.len(), aao.len());
        prop_assert_eq!(inc.capacity(), aao.capacity());
    }
    for k in 1..60u64 {
        prop_assert_eq!(inc.lookup(k), aao.lookup(k), "final lookup {}", k);
    }
    prop_assert_eq!(inc.scheme_switches(), aao.scheme_switches());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]
    #[test]
    fn mid_switch_matches_stop_the_world_from_lp(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        target_ix in 0..SWITCH_TARGETS.len(),
        switch_at in 0usize..250,
    ) {
        for step in [1usize, 7] {
            check_switch_twin(
                TableScheme::LinearProbing, SWITCH_TARGETS[target_ix], step, switch_at, &ops,
            )?;
        }
    }

    #[test]
    fn mid_switch_matches_stop_the_world_from_fp(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        target_ix in 0..SWITCH_TARGETS.len(),
        switch_at in 0usize..250,
    ) {
        for step in [1usize, 7] {
            check_switch_twin(
                TableScheme::Fingerprint, SWITCH_TARGETS[target_ix], step, switch_at, &ops,
            )?;
        }
    }

    #[test]
    fn mid_switch_matches_stop_the_world_from_off_graph_source(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        target_ix in 0..SWITCH_TARGETS.len(),
        switch_at in 0usize..250,
    ) {
        // Cuckoo2 is never a decision-graph answer, so only the Cuckoo2
        // target leaves the table where it is.
        check_switch_twin(TableScheme::Cuckoo2, SWITCH_TARGETS[target_ix], 1, switch_at, &ops)?;
    }
}

/// A one-shard sharded table of `scheme`, built directly (fingerprint
/// with its SIMD tag scan), growing from 64 slots at half load with a
/// step-1 incremental drain (`grow_at(0.5)`, `incremental(1)`) and with
/// optimistic reads on or off, must stay conformant with a `HashMap`
/// model through the shared-reference single-key API at every step: the
/// lock-free reads run mid-drain, across both generations. No scheme
/// switch happens here; `check_switch_twin` covers `switch_to`.
fn check_sharded_growth(
    optimistic: bool,
    scheme: TableScheme,
    ops: &[Op],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let sharded = TableBuilder::new(scheme)
        .hash(HashKind::Murmur)
        .simd(scheme == TableScheme::Fingerprint)
        .bits(6)
        .seed(0x5A17)
        .grow_at(0.5)
        .incremental(1)
        .optimistic_reads(optimistic)
        .shards(1)
        .build_sharded();
    let mut model: HashMap<u64, u64> = HashMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                let expect = match model.insert(k, v) {
                    None => InsertOutcome::Inserted,
                    Some(old) => InsertOutcome::Replaced(old),
                };
                prop_assert_eq!(sharded.insert_shared(k, v), Ok(expect));
            }
            Op::Delete(k) => {
                prop_assert_eq!(sharded.delete_shared(k), model.remove(&k));
            }
            Op::Lookup(k) => {
                prop_assert_eq!(sharded.lookup_shared(k), model.get(&k).copied());
            }
        }
        prop_assert_eq!(sharded.len(), model.len());
    }
    for k in 1..60u64 {
        prop_assert_eq!(sharded.lookup_shared(k), model.get(&k).copied(), "final lookup {}", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]
    #[test]
    fn sharded_switch_conforms_with_and_without_optimistic_reads(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        target_ix in 0..SWITCH_TARGETS.len(),
        optimistic in any::<bool>(),
    ) {
        check_sharded_growth(optimistic, SWITCH_TARGETS[target_ix], &ops)?;
    }
}

/// One batch-level operation against a table, sized 0..12 over a 16-key
/// universe so duplicate keys *within a single batch* are common — the
/// case where sharded radix routing must preserve in-batch ordering
/// (a stable partition, or results diverge from sequential execution).
#[derive(Clone, Debug)]
enum BatchOp {
    Insert(Vec<(u64, u64)>),
    Delete(Vec<u64>),
    Lookup(Vec<u64>),
}

fn batch_op_strategy() -> impl Strategy<Value = BatchOp> {
    let key = 1u64..=16;
    prop_oneof![
        proptest::collection::vec((key.clone(), any::<u64>()), 0..12).prop_map(|items| {
            BatchOp::Insert(items.into_iter().map(|(k, v)| (k, v >> 1)).collect())
        }),
        proptest::collection::vec(key.clone(), 0..12).prop_map(BatchOp::Delete),
        proptest::collection::vec(key, 0..12).prop_map(BatchOp::Lookup),
    ]
}

/// Drive a sharded table and its unsharded twin through the same batch
/// script; every element-wise observable must match at every step.
fn check_sharded_routing(
    scheme: TableScheme,
    shard_bits: u8,
    ops: &[BatchOp],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let desc = TableBuilder::new(scheme).hash(HashKind::Murmur).bits(9).seed(0x5A);
    let mut sharded = desc.clone().shards(shard_bits).build_sharded();
    let mut plain = desc.build();
    for op in ops {
        match op {
            BatchOp::Insert(items) => {
                let mut a = vec![Ok(InsertOutcome::Inserted); items.len()];
                let mut b = a.clone();
                sharded.insert_batch(items, &mut a);
                plain.insert_batch(items, &mut b);
                prop_assert_eq!(a, b, "insert_batch diverged ({:?})", items);
            }
            BatchOp::Delete(keys) => {
                let mut a = vec![None; keys.len()];
                let mut b = a.clone();
                sharded.delete_batch(keys, &mut a);
                plain.delete_batch(keys, &mut b);
                prop_assert_eq!(a, b, "delete_batch diverged ({:?})", keys);
            }
            BatchOp::Lookup(keys) => {
                let mut a = vec![None; keys.len()];
                let mut b = a.clone();
                sharded.lookup_batch(keys, &mut a);
                plain.lookup_batch(keys, &mut b);
                prop_assert_eq!(a, b, "lookup_batch diverged ({:?})", keys);
            }
        }
        prop_assert_eq!(sharded.len(), plain.len());
    }
    // Final sweep across the whole universe in one batch.
    let keys: Vec<u64> = (1..=16).collect();
    let mut a = vec![None; keys.len()];
    let mut b = a.clone();
    sharded.lookup_batch(&keys, &mut a);
    plain.lookup_batch(&keys, &mut b);
    prop_assert_eq!(a, b);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]
    #[test]
    fn sharded_lp_routing_matches_unsharded(
        ops in proptest::collection::vec(batch_op_strategy(), 1..32),
    ) {
        // Shard counts 1 (k=0: one locked shard), 2, and 8.
        for shard_bits in [0u8, 1, 3] {
            check_sharded_routing(TableScheme::LinearProbing, shard_bits, &ops)?;
        }
    }

    #[test]
    fn sharded_fp_routing_matches_unsharded(
        ops in proptest::collection::vec(batch_op_strategy(), 1..32),
    ) {
        for shard_bits in [0u8, 1, 3] {
            check_sharded_routing(TableScheme::Fingerprint, shard_bits, &ops)?;
        }
    }
}

/// Slot-array strategy mixing live keys, empties, and tombstones.
fn slots_strategy() -> impl Strategy<Value = Vec<u64>> {
    let slot = prop_oneof![
        3 => 1u64..40,
        2 => Just(EMPTY_KEY),
        1 => Just(TOMBSTONE_KEY),
    ];
    prop_oneof![
        proptest::collection::vec(slot.clone(), 4..=4),
        proptest::collection::vec(slot.clone(), 16..=16),
        proptest::collection::vec(slot.clone(), 64..=64),
        proptest::collection::vec(slot, 128..=128),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
    #[test]
    fn simd_scan_equals_scalar_scan(
        keys in slots_strategy(),
        start_frac in 0usize..128,
        target in 1u64..40,
    ) {
        let start = start_frac % keys.len();
        let expect = scan_keys_scalar(&keys, start, target);
        prop_assert_eq!(scan_keys(&keys, start, target, ProbeKind::Simd), expect);
        let pairs: Vec<Pair> =
            keys.iter().map(|&k| Pair { key: k, value: k ^ 0xF0F0 }).collect();
        prop_assert_eq!(scan_pairs(&pairs, start, target, ProbeKind::Simd), expect);
        prop_assert_eq!(scan_pairs(&pairs, start, target, ProbeKind::Scalar), expect);
    }

    #[test]
    fn simd_tag_scan_equals_scalar_tag_scan(
        tags in proptest::collection::vec(
            prop_oneof![
                4 => 0u8..8,
                2 => Just(EMPTY_TAG),
                1 => Just(TOMBSTONE_TAG),
            ],
            16..=16,
        ),
        tag in 0u8..8,
    ) {
        let expect = scan_tags_scalar(&tags, tag);
        prop_assert_eq!(scan_tags(&tags, tag, ProbeKind::Simd), expect);
        prop_assert_eq!(scan_tags(&tags, tag, ProbeKind::Scalar), expect);
        // Every lane is classified exactly once or not at all.
        prop_assert_eq!(expect.matches & expect.empties, 0);
        prop_assert_eq!(expect.matches & expect.tombstones, 0);
        prop_assert_eq!(expect.empties & expect.tombstones, 0);
    }

    #[test]
    fn multadd_native_equals_emulated(a in any::<u128>(), b in any::<u128>(), x in any::<u64>()) {
        prop_assert_eq!(
            MultAddShift::new(a, b).hash(x),
            MultAddShift64::new(a, b).hash(x)
        );
    }

    #[test]
    fn murmur_finalizer_is_bijective(x in any::<u64>()) {
        prop_assert_eq!(Murmur::fmix64_inverse(Murmur::fmix64(x)), x);
        prop_assert_eq!(Murmur::fmix64(Murmur::fmix64_inverse(x)), x);
    }

    #[test]
    fn multshift_is_linear_in_key_difference(z in any::<u64>(), x in any::<u64>(), d in any::<u64>()) {
        // h_z(x + d) - h_z(x) ≡ z·d (mod 2^64): the structure behind the
        // dense-distribution arithmetic progression.
        let h = MultShift::new(z);
        prop_assert_eq!(
            h.hash(x.wrapping_add(d)).wrapping_sub(h.hash(x)),
            h.multiplier().wrapping_mul(d)
        );
    }

    #[test]
    fn grid_keys_strictly_monotonic(i in 0u64..1_000_000, j in 0u64..1_000_000) {
        prop_assume!(i != j);
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        prop_assert!(workloads::grid_key(lo) < workloads::grid_key(hi));
    }

    #[test]
    fn grid_key_bytes_in_range(i in 0u64..1_475_789_056) {
        let k = workloads::grid_key(i);
        for b in k.to_le_bytes() {
            prop_assert!((1..=14).contains(&b));
        }
    }

    #[test]
    fn fold_to_bits_is_monotone_partition(h1 in any::<u64>(), h2 in any::<u64>(), bits in 1u8..=32) {
        // Bucket assignment by top bits preserves order: a smaller hash
        // never lands in a larger bucket.
        let (lo, hi) = if h1 < h2 { (h1, h2) } else { (h2, h1) };
        prop_assert!(hashfn::fold_to_bits(lo, bits) <= hashfn::fold_to_bits(hi, bits));
    }
}
