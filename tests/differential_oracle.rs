//! Differential oracle: the **full** scheme × hash-function grid against
//! `std::collections::HashMap`.
//!
//! Complements `model_conformance` (which samples the grid with long
//! random streams) by covering *every* table variant — including the
//! SIMD-probing LP layouts and all three cuckoo arities — with every hash
//! family, over 10 000 mixed insert/replace/delete/lookup operations per
//! key distribution, followed by churn phases that specifically stress
//! the deletion machinery:
//!
//! * **drain**: delete every live key (backward-shift paths in RH,
//!   tombstone writes in LP/QP) and verify the table is observably empty;
//! * **refill**: reinsert the whole key set into the tombstone-saturated
//!   table (tombstone reuse on insert) and verify every entry;
//! * **reserved keys**: [`EMPTY_KEY`] / [`TOMBSTONE_KEY`] must be
//!   rejected by insert and inert for lookup/delete at any point in the
//!   table's life, while [`MAX_KEY`] (the largest legal key) must
//!   round-trip.
//!
//! Every grid cell additionally runs a **batch oracle**: mixed
//! `lookup_batch`/`insert_batch`/`delete_batch` calls of random sizes
//! (reserved keys sprinkled in) must agree element-wise with the
//! `HashMap` model *and* with a twin table driven through the single-key
//! path, and batches crossing the capacity boundary must report the same
//! per-element `TableFull` errors the sequential path reports.
//!
//! `upsert_batch` has no single-key form, so its oracle's twin is the
//! element-wise `lookup` + `insert` loop the trait defines it as: on
//! static, growing and sharded builds of every scheme, at the capacity
//! boundary, through the tombstone-reclaiming retry and along Robin
//! Hood's displacement chain.

mod tests_common;

use rand::{rngs::StdRng, Rng, SeedableRng};
use seven_dim_hashing::prelude::*;
use seven_dim_hashing::tables::simd::PREFETCH_BATCH;
use seven_dim_hashing::tables::{EMPTY_KEY, MAX_KEY, TOMBSTONE_KEY};
use std::collections::{BTreeMap, HashMap};

/// Slots per open-addressing table (2^11). The 800-key universe tops out
/// at ~39% load, inside every scheme's comfort zone (CuckooH2 included).
const BITS: u8 = 11;

/// Distinct keys per distribution.
const UNIVERSE: usize = 800;

/// Mixed operations in the main phase.
const OPS: usize = 10_000;

/// Reserved keys must bounce off every observable without disturbing it.
fn check_reserved_keys_inert<T: HashTable>(table: &mut T, context: &str) {
    let len_before = table.len();
    for reserved in [EMPTY_KEY, TOMBSTONE_KEY] {
        assert_eq!(
            table.insert(reserved, 1),
            Err(TableError::ReservedKey),
            "{context}: insert({reserved:#x}) must be rejected"
        );
        assert_eq!(table.lookup(reserved), None, "{context}: lookup({reserved:#x})");
        assert_eq!(table.delete(reserved), None, "{context}: delete({reserved:#x})");
    }
    assert_eq!(table.len(), len_before, "{context}: reserved-key probes changed len");
}

/// Drive `table` and a `HashMap` model through identical operations;
/// every observable must match at every step.
fn oracle<T: HashTable>(mut table: T, keys: &[u64], seed: u64) {
    let name = table.display_name();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);

    // Phase 1: mixed stream — inserts (with frequent replacements), 20%
    // deletes, 30% lookups over a key universe small enough that every
    // key sees all three operations repeatedly.
    for step in 0..OPS {
        let key = keys[rng.gen_range(0..keys.len())];
        match rng.gen_range(0..10u8) {
            0..=4 => {
                let value = rng.gen::<u64>() >> 1;
                let expect = match model.insert(key, value) {
                    None => InsertOutcome::Inserted,
                    Some(old) => InsertOutcome::Replaced(old),
                };
                assert_eq!(
                    table.insert(key, value),
                    Ok(expect),
                    "{name} step {step}: insert {key}"
                );
            }
            5..=6 => {
                assert_eq!(
                    table.delete(key),
                    model.remove(&key),
                    "{name} step {step}: delete {key}"
                );
            }
            _ => {
                assert_eq!(
                    table.lookup(key),
                    model.get(&key).copied(),
                    "{name} step {step}: lookup {key}"
                );
            }
        }
        assert_eq!(table.len(), model.len(), "{name} step {step}: len");
        if step % 1024 == 0 {
            check_reserved_keys_inert(&mut table, &format!("{name} step {step}"));
        }
    }

    // The largest legal key must round-trip even at the reserved boundary.
    assert_eq!(table.insert(MAX_KEY, 7), Ok(InsertOutcome::Inserted), "{name}: insert MAX_KEY");
    assert_eq!(table.lookup(MAX_KEY), Some(7), "{name}: lookup MAX_KEY");
    assert_eq!(table.delete(MAX_KEY), Some(7), "{name}: delete MAX_KEY");

    // Phases 2+3, twice: drain everything, then refill from the full key
    // set. The second round reinserts into a table whose free slots are
    // mostly tombstones, catching delete-then-reinsert bugs on the
    // LP/QP tombstone and RH backward-shift paths.
    for round in 0..2 {
        let mut live: Vec<u64> = model.keys().copied().collect();
        live.sort_unstable();
        for key in live {
            assert_eq!(
                table.delete(key),
                model.remove(&key),
                "{name} drain round {round}: delete {key}"
            );
        }
        assert_eq!(table.len(), 0, "{name} drain round {round}: table not empty");
        assert!(table.is_empty(), "{name} drain round {round}: is_empty");
        for &key in keys.iter().take(64) {
            assert_eq!(
                table.lookup(key),
                None,
                "{name} drain round {round}: drained table still finds {key}"
            );
        }
        check_reserved_keys_inert(&mut table, &format!("{name} drained round {round}"));

        for (i, &key) in keys.iter().enumerate() {
            let value = key ^ (round as u64) << 32;
            assert_eq!(
                table.insert(key, value),
                Ok(InsertOutcome::Inserted),
                "{name} refill round {round}: insert #{i} ({key})"
            );
            model.insert(key, value);
        }
        assert_eq!(table.len(), keys.len(), "{name} refill round {round}: len");
        for &key in keys {
            assert_eq!(
                table.lookup(key),
                model.get(&key).copied(),
                "{name} refill round {round}: lookup {key}"
            );
        }
    }

    // Cross-check iteration: for_each must visit exactly the live map.
    let mut seen: HashMap<u64, u64> = HashMap::new();
    table.for_each(&mut |k, v| {
        assert!(seen.insert(k, v).is_none(), "{name}: for_each visited {k} twice");
    });
    assert_eq!(seen, model, "{name}: for_each contents");
}

/// Drive one table through mixed `*_batch` calls and a twin through the
/// single-key path; a `HashMap` model arbitrates. Element-wise, all three
/// must agree at every step.
fn batch_oracle<T: HashTable>(mut batched: T, mut single: T, keys: &[u64], seed: u64) {
    let name = batched.display_name();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let gen_key = |rng: &mut StdRng, keys: &[u64]| match rng.gen_range(0..24u8) {
        // Reserved keys must flow through batches as inert elements.
        0 => EMPTY_KEY,
        1 => TOMBSTONE_KEY,
        2 => MAX_KEY,
        _ => keys[rng.gen_range(0..keys.len())],
    };
    for round in 0..120 {
        let len = rng.gen_range(0..64usize);
        match rng.gen_range(0..10u8) {
            0..=4 => {
                let items: Vec<(u64, u64)> =
                    (0..len).map(|_| (gen_key(&mut rng, keys), rng.gen::<u64>() >> 1)).collect();
                let mut out = vec![Ok(InsertOutcome::Inserted); len];
                batched.insert_batch(&items, &mut out);
                for (i, &(k, v)) in items.iter().enumerate() {
                    let expect = if k >= TOMBSTONE_KEY {
                        Err(TableError::ReservedKey)
                    } else {
                        Ok(match model.insert(k, v) {
                            None => InsertOutcome::Inserted,
                            Some(old) => InsertOutcome::Replaced(old),
                        })
                    };
                    assert_eq!(out[i], expect, "{name} round {round}: insert_batch[{i}] ({k:#x})");
                    assert_eq!(
                        single.insert(k, v),
                        expect,
                        "{name} round {round}: single insert {k:#x}"
                    );
                }
            }
            5..=6 => {
                let probe: Vec<u64> = (0..len).map(|_| gen_key(&mut rng, keys)).collect();
                let mut out = vec![None; len];
                batched.delete_batch(&probe, &mut out);
                for (i, &k) in probe.iter().enumerate() {
                    let expect = if k >= TOMBSTONE_KEY { None } else { model.remove(&k) };
                    assert_eq!(out[i], expect, "{name} round {round}: delete_batch[{i}] ({k:#x})");
                    assert_eq!(
                        single.delete(k),
                        expect,
                        "{name} round {round}: single delete {k:#x}"
                    );
                }
            }
            _ => {
                let probe: Vec<u64> = (0..len).map(|_| gen_key(&mut rng, keys)).collect();
                let mut out = vec![None; len];
                batched.lookup_batch(&probe, &mut out);
                for (i, &k) in probe.iter().enumerate() {
                    let expect = if k >= TOMBSTONE_KEY { None } else { model.get(&k).copied() };
                    assert_eq!(out[i], expect, "{name} round {round}: lookup_batch[{i}] ({k:#x})");
                    assert_eq!(
                        single.lookup(k),
                        expect,
                        "{name} round {round}: single lookup {k:#x}"
                    );
                }
            }
        }
        assert_eq!(batched.len(), model.len(), "{name} round {round}: batched len");
        assert_eq!(single.len(), model.len(), "{name} round {round}: single len");
    }
    // Final sweep: one big batch over the whole universe.
    let mut out = vec![None; keys.len()];
    batched.lookup_batch(keys, &mut out);
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(out[i], model.get(&k).copied(), "{name} final sweep: {k}");
    }
}

macro_rules! oracle_case {
    ($name:ident, $ty:ty, $ctor:expr) => {
        #[test]
        fn $name() {
            for (i, dist) in [Distribution::Dense, Distribution::Grid, Distribution::Sparse]
                .into_iter()
                .enumerate()
            {
                let keys = dist.generate(UNIVERSE, 0xD1FF + i as u64);
                let table: $ty = $ctor;
                oracle(table, &keys, 0x0AC1E + 31 * i as u64);
                // Batch grid: same cell, `*_batch` vs single-key twin.
                let batched: $ty = $ctor;
                let single: $ty = $ctor;
                batch_oracle(batched, single, &keys, 0xBA7C4 + 17 * i as u64);
            }
        }
    };
}

// Chained hashing — directory of 8-byte links / 24-byte inline entries.
oracle_case!(chained8_mult, ChainedTable8<MultShift>, ChainedTable8::with_seed(BITS, 1));
oracle_case!(chained8_multadd, ChainedTable8<MultAddShift>, ChainedTable8::with_seed(BITS, 2));
oracle_case!(chained8_tab, ChainedTable8<Tabulation>, ChainedTable8::with_seed(BITS, 3));
oracle_case!(chained8_murmur, ChainedTable8<Murmur>, ChainedTable8::with_seed(BITS, 4));
oracle_case!(chained24_mult, ChainedTable24<MultShift>, ChainedTable24::with_seed(BITS, 5));
oracle_case!(chained24_multadd, ChainedTable24<MultAddShift>, ChainedTable24::with_seed(BITS, 6));
oracle_case!(chained24_tab, ChainedTable24<Tabulation>, ChainedTable24::with_seed(BITS, 7));
oracle_case!(chained24_murmur, ChainedTable24<Murmur>, ChainedTable24::with_seed(BITS, 8));

// Linear probing, AoS layout, scalar probing.
oracle_case!(lp_mult, LinearProbing<MultShift>, LinearProbing::with_seed(BITS, 9));
oracle_case!(lp_multadd, LinearProbing<MultAddShift>, LinearProbing::with_seed(BITS, 10));
oracle_case!(lp_tab, LinearProbing<Tabulation>, LinearProbing::with_seed(BITS, 11));
oracle_case!(lp_murmur, LinearProbing<Murmur>, LinearProbing::with_seed(BITS, 12));

// Linear probing, AoS layout, SIMD probing (scalar fallback off x86-64
// AVX2 — either way the observable behaviour must match the model).
oracle_case!(lp_simd_mult, LinearProbing<MultShift>, LinearProbing::with_seed_simd(BITS, 13));
oracle_case!(lp_simd_multadd, LinearProbing<MultAddShift>, LinearProbing::with_seed_simd(BITS, 14));
oracle_case!(lp_simd_tab, LinearProbing<Tabulation>, LinearProbing::with_seed_simd(BITS, 15));
oracle_case!(lp_simd_murmur, LinearProbing<Murmur>, LinearProbing::with_seed_simd(BITS, 16));

// Linear probing, SoA layout, scalar + SIMD probing.
oracle_case!(lp_soa_mult, LinearProbingSoA<MultShift>, LinearProbingSoA::with_seed(BITS, 17));
oracle_case!(lp_soa_multadd, LinearProbingSoA<MultAddShift>, LinearProbingSoA::with_seed(BITS, 18));
oracle_case!(lp_soa_tab, LinearProbingSoA<Tabulation>, LinearProbingSoA::with_seed(BITS, 19));
oracle_case!(lp_soa_murmur, LinearProbingSoA<Murmur>, LinearProbingSoA::with_seed(BITS, 20));
oracle_case!(
    lp_soa_simd_mult,
    LinearProbingSoA<MultShift>,
    LinearProbingSoA::with_seed_simd(BITS, 21)
);
oracle_case!(
    lp_soa_simd_multadd,
    LinearProbingSoA<MultAddShift>,
    LinearProbingSoA::with_seed_simd(BITS, 22)
);
oracle_case!(
    lp_soa_simd_tab,
    LinearProbingSoA<Tabulation>,
    LinearProbingSoA::with_seed_simd(BITS, 23)
);
oracle_case!(
    lp_soa_simd_murmur,
    LinearProbingSoA<Murmur>,
    LinearProbingSoA::with_seed_simd(BITS, 24)
);

// Quadratic (triangular) probing.
oracle_case!(qp_mult, QuadraticProbing<MultShift>, QuadraticProbing::with_seed(BITS, 25));
oracle_case!(qp_multadd, QuadraticProbing<MultAddShift>, QuadraticProbing::with_seed(BITS, 26));
oracle_case!(qp_tab, QuadraticProbing<Tabulation>, QuadraticProbing::with_seed(BITS, 27));
oracle_case!(qp_murmur, QuadraticProbing<Murmur>, QuadraticProbing::with_seed(BITS, 28));

// Robin Hood (displacement-ordered LP, backward-shift deletion).
oracle_case!(rh_mult, RobinHood<MultShift>, RobinHood::with_seed(BITS, 29));
oracle_case!(rh_multadd, RobinHood<MultAddShift>, RobinHood::with_seed(BITS, 30));
oracle_case!(rh_tab, RobinHood<Tabulation>, RobinHood::with_seed(BITS, 31));
oracle_case!(rh_murmur, RobinHood<Murmur>, RobinHood::with_seed(BITS, 32));

// Cuckoo hashing, 2/3/4 sub-tables.
oracle_case!(cuckoo2_mult, CuckooH2<MultShift>, CuckooH2::with_seed(BITS, 33));
oracle_case!(cuckoo2_multadd, CuckooH2<MultAddShift>, CuckooH2::with_seed(BITS, 34));
oracle_case!(cuckoo2_tab, CuckooH2<Tabulation>, CuckooH2::with_seed(BITS, 35));
oracle_case!(cuckoo2_murmur, CuckooH2<Murmur>, CuckooH2::with_seed(BITS, 36));
oracle_case!(cuckoo3_mult, CuckooH3<MultShift>, CuckooH3::with_seed(BITS, 37));
oracle_case!(cuckoo3_multadd, CuckooH3<MultAddShift>, CuckooH3::with_seed(BITS, 38));
oracle_case!(cuckoo3_tab, CuckooH3<Tabulation>, CuckooH3::with_seed(BITS, 39));
oracle_case!(cuckoo3_murmur, CuckooH3<Murmur>, CuckooH3::with_seed(BITS, 40));
oracle_case!(cuckoo4_mult, CuckooH4<MultShift>, CuckooH4::with_seed(BITS, 41));
oracle_case!(cuckoo4_multadd, CuckooH4<MultAddShift>, CuckooH4::with_seed(BITS, 42));
oracle_case!(cuckoo4_tab, CuckooH4<Tabulation>, CuckooH4::with_seed(BITS, 43));
oracle_case!(cuckoo4_murmur, CuckooH4<Murmur>, CuckooH4::with_seed(BITS, 44));

// Bucketized fingerprint probing, scalar + SIMD tag scans.
oracle_case!(fp_mult, FingerprintTable<MultShift>, FingerprintTable::with_seed(BITS, 45));
oracle_case!(fp_multadd, FingerprintTable<MultAddShift>, FingerprintTable::with_seed(BITS, 46));
oracle_case!(fp_tab, FingerprintTable<Tabulation>, FingerprintTable::with_seed(BITS, 47));
oracle_case!(fp_murmur, FingerprintTable<Murmur>, FingerprintTable::with_seed(BITS, 48));
oracle_case!(fp_simd_mult, FingerprintTable<MultShift>, FingerprintTable::with_seed_simd(BITS, 49));
oracle_case!(
    fp_simd_multadd,
    FingerprintTable<MultAddShift>,
    FingerprintTable::with_seed_simd(BITS, 50)
);
oracle_case!(fp_simd_tab, FingerprintTable<Tabulation>, FingerprintTable::with_seed_simd(BITS, 51));
oracle_case!(fp_simd_murmur, FingerprintTable<Murmur>, FingerprintTable::with_seed_simd(BITS, 52));

/// The builder-driven twin of the concrete grid above, with its scheme
/// list derived from the shared [`tests_common::all_cells_for_hash`]
/// helper (ultimately `TableScheme::ALL`): a newly added scheme enters
/// the differential oracle *automatically*, instead of silently missing
/// it until someone hand-writes cells. One distribution per cell keeps
/// the sweep proportionate — the concrete grid still covers all three.
fn builder_grid(hash: HashKind) {
    for (i, cell) in tests_common::all_cells_for_hash(hash, BITS, 0xA11).into_iter().enumerate() {
        let keys = Distribution::Sparse.generate(UNIVERSE, 0xD1FF ^ i as u64);
        oracle(cell.build(), &keys, 0x0AC1E + 997 * i as u64);
        batch_oracle(cell.build(), cell.build(), &keys, 0xBA7C4 + 991 * i as u64);
    }
}

#[test]
fn builder_grid_mult() {
    builder_grid(HashKind::Mult);
}

#[test]
fn builder_grid_multadd() {
    builder_grid(HashKind::MultAdd);
}

#[test]
fn builder_grid_tab() {
    builder_grid(HashKind::Tab);
}

#[test]
fn builder_grid_murmur() {
    builder_grid(HashKind::Murmur);
}

/// Growth-path oracle: drive a *growing* table, its stop-the-world twin,
/// and a `HashMap` model through identical interleaved
/// `insert_batch`/`delete_batch`/`lookup_batch` calls sized to cross at
/// least two growth generations; every element-wise observable must
/// match at every batch — including batches that straddle a generation
/// switch and deletes of keys still sitting in the draining generation
/// (early-insert keys are preferentially deleted below, which is exactly
/// the not-yet-migrated population under `Incremental { step: 1 }`).
fn growth_oracle(table_desc: &TableBuilder, twin_desc: &TableBuilder, seed: u64) {
    let mut table = table_desc.build();
    let mut twin = twin_desc.build();
    let name = format!("{} (shards {})", table_desc.label(), table_desc.shard_bits());
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = Distribution::Sparse.generate(4000, seed ^ 0x9077);
    let mut next_fresh = 0usize;
    let mut live: Vec<u64> = Vec::new();
    let initial_capacity = table.capacity();
    for round in 0..12 {
        // Insert batch: mostly fresh keys (growth pressure), a few
        // replacements, sized to cross the 70% trigger mid-batch.
        let mut items: Vec<(u64, u64)> = Vec::new();
        for i in 0..40usize {
            let k = if i % 8 == 7 && !live.is_empty() {
                live[rng.gen_range(0..live.len())]
            } else {
                let k = keys[next_fresh % keys.len()];
                next_fresh += 1;
                k
            };
            items.push((k, rng.gen::<u64>() >> 1));
        }
        let mut out_a = vec![Ok(InsertOutcome::Inserted); items.len()];
        let mut out_b = out_a.clone();
        table.insert_batch(&items, &mut out_a);
        twin.insert_batch(&items, &mut out_b);
        for (i, &(k, v)) in items.iter().enumerate() {
            let expect = Ok(match model.insert(k, v) {
                None => InsertOutcome::Inserted,
                Some(old) => InsertOutcome::Replaced(old),
            });
            assert_eq!(out_a[i], expect, "{name} round {round}: insert_batch[{i}] ({k:#x})");
            assert_eq!(out_b[i], expect, "{name} round {round}: twin insert_batch[{i}] ({k:#x})");
            if !live.contains(&k) {
                live.push(k);
            }
        }
        assert_eq!(table.len(), model.len(), "{name} round {round}: len after inserts");
        assert_eq!(twin.len(), model.len(), "{name} round {round}: twin len after inserts");

        // Delete batch: prefer the *oldest* live keys — under incremental
        // growth these are the ones most likely still in the draining
        // generation — plus some misses.
        let mut victims: Vec<u64> = live.iter().take(10).copied().collect();
        victims.push(keys[(next_fresh + 1000) % keys.len()]); // absent
        let mut del_a = vec![None; victims.len()];
        let mut del_b = del_a.clone();
        table.delete_batch(&victims, &mut del_a);
        twin.delete_batch(&victims, &mut del_b);
        for (i, &k) in victims.iter().enumerate() {
            let expect = model.remove(&k);
            assert_eq!(del_a[i], expect, "{name} round {round}: delete_batch[{i}] ({k:#x})");
            assert_eq!(del_b[i], expect, "{name} round {round}: twin delete_batch[{i}] ({k:#x})");
        }
        live.retain(|k| model.contains_key(k));

        // Lookup batch over a live/absent mix.
        let probe: Vec<u64> =
            (0..48).map(|_| keys[rng.gen_range(0..keys.len().min(next_fresh + 50))]).collect();
        let mut look_a = vec![None; probe.len()];
        let mut look_b = look_a.clone();
        table.lookup_batch(&probe, &mut look_a);
        twin.lookup_batch(&probe, &mut look_b);
        for (i, &k) in probe.iter().enumerate() {
            let expect = model.get(&k).copied();
            assert_eq!(look_a[i], expect, "{name} round {round}: lookup_batch[{i}] ({k:#x})");
            assert_eq!(look_b[i], expect, "{name} round {round}: twin lookup_batch[{i}] ({k:#x})");
        }
    }
    assert!(
        table.capacity() >= initial_capacity * 4,
        "{name}: stream must cross at least two growth generations \
         (capacity {} from {initial_capacity})",
        table.capacity()
    );
    // Final audit: every live entry visible, for_each visits exactly the
    // model (both generations of a mid-migration table included).
    let mut seen: HashMap<u64, u64> = HashMap::new();
    table.for_each(&mut |k, v| {
        assert!(seen.insert(k, v).is_none(), "{name}: for_each visited {k} twice");
    });
    assert_eq!(seen, model, "{name}: for_each contents");
}

/// The builder-driven `grow_at × incremental × shards` growth grid over
/// every scheme (from the shared [`tests_common::all_schemes`] list, so
/// new schemes join automatically). The twin is always the unsharded
/// stop-the-world build of the same cell: sharding and incremental
/// migration must both be observationally transparent.
fn growth_grid(shard_bits: u8, step: usize) {
    for (i, scheme) in tests_common::all_schemes().into_iter().enumerate() {
        // bits = 6 keeps every scheme feasible (FP needs one 16-slot
        // group per shard) and puts the first doubling a few batches in.
        let base = TableBuilder::new(scheme).hash(HashKind::Mult).bits(6).seed(0xD11).grow_at(0.7);
        let desc = base.clone().incremental(step).shards(shard_bits);
        growth_oracle(&desc, &base, 0x6A0 + 131 * i as u64 + step as u64);
    }
}

#[test]
fn growth_grid_incremental_step1() {
    growth_grid(0, 1);
}

#[test]
fn growth_grid_incremental_step16() {
    growth_grid(0, 16);
}

/// A step of 17 makes drain budgets that are not multiples of the batch
/// kernels' 16-key prefetch distance, so drain runs end part-way into
/// the pipeline's steady state.
#[test]
fn growth_grid_incremental_step17() {
    growth_grid(0, 17);
}

/// The served step: a single-key op's whole budget is one full drain run.
#[test]
fn growth_grid_incremental_step64() {
    growth_grid(0, 64);
}

#[test]
fn growth_grid_incremental_sharded() {
    growth_grid(2, 1);
}

#[test]
fn growth_grid_all_at_once_sharded() {
    // Sharded stop-the-world growth against the unsharded twin: isolates
    // the sharding dimension of the grid.
    for (i, scheme) in tests_common::all_schemes().into_iter().enumerate() {
        let base = TableBuilder::new(scheme).hash(HashKind::Mult).bits(6).seed(0xD12).grow_at(0.7);
        growth_oracle(&base.clone().shards(2), &base, 0x7B1 + 131 * i as u64);
    }
}

/// Capacity-boundary churn. Open-addressing tables keep one empty slot
/// as a probe terminator, so a `2^bits` table holds at most
/// `2^bits - 1` distinct keys; beyond that, a *fresh* key must be
/// rejected with [`TableError::TableFull`] while replacements, deletes,
/// and delete-then-reinsert cycles keep working. Reinserting after a
/// delete at max load is the regression this suite originally flushed
/// out: the insert used to report `TableFull` instead of reclaiming
/// tombstones by rehashing in place.
fn full_table_edges<T: HashTable>(mut table: T, cap: usize) {
    let name = table.display_name();
    let n = cap - 1;
    for k in 1..=n as u64 {
        table.insert(k, k * 10).unwrap();
    }
    assert_eq!(table.len(), n, "{name}: fill to capacity - 1");
    assert_eq!(table.insert(999, 1), Err(TableError::TableFull), "{name}: overfull insert");
    assert_eq!(table.insert(1, 11), Ok(InsertOutcome::Replaced(10)), "{name}: replace at max load");
    assert_eq!(table.lookup(999), None, "{name}: absent lookup at max load");
    assert_eq!(table.delete(2), Some(20), "{name}: delete at max load");
    assert_eq!(
        table.insert(999, 1),
        Ok(InsertOutcome::Inserted),
        "{name}: delete-then-reinsert at max load"
    );
    for k in [1u64, 999] {
        assert!(table.lookup(k).is_some(), "{name}: key {k} lost");
    }
    let mut live = Vec::new();
    table.for_each(&mut |k, _| live.push(k));
    for k in live {
        table.delete(k).unwrap();
    }
    assert_eq!(table.len(), 0, "{name}: drained");
    assert_eq!(table.lookup(1), None, "{name}: lookup on all-tombstone table");
    for k in 1..=n as u64 {
        table.insert(k, k).unwrap();
    }
    assert_eq!(table.len(), n, "{name}: refill over tombstones");
    for k in 1..=n as u64 {
        assert_eq!(table.lookup(k), Some(k), "{name}: refilled key {k}");
    }
}

#[test]
fn lp_capacity_boundary() {
    full_table_edges(LinearProbing::<Murmur>::with_seed(2, 1), 4);
    full_table_edges(LinearProbing::<MultShift>::with_seed(6, 2), 64);
}

#[test]
fn lp_simd_capacity_boundary() {
    full_table_edges(LinearProbing::<Murmur>::with_seed_simd(2, 3), 4);
    full_table_edges(LinearProbing::<MultShift>::with_seed_simd(6, 4), 64);
}

#[test]
fn lp_soa_capacity_boundary() {
    full_table_edges(LinearProbingSoA::<Murmur>::with_seed(2, 5), 4);
    full_table_edges(LinearProbingSoA::<MultShift>::with_seed(6, 6), 64);
}

#[test]
fn lp_soa_simd_capacity_boundary() {
    full_table_edges(LinearProbingSoA::<Murmur>::with_seed_simd(2, 7), 4);
    full_table_edges(LinearProbingSoA::<MultShift>::with_seed_simd(6, 8), 64);
}

#[test]
fn qp_capacity_boundary() {
    full_table_edges(QuadraticProbing::<Murmur>::with_seed(2, 9), 4);
    full_table_edges(QuadraticProbing::<MultShift>::with_seed(6, 10), 64);
}

#[test]
fn rh_capacity_boundary() {
    full_table_edges(RobinHood::<Murmur>::with_seed(2, 11), 4);
    full_table_edges(RobinHood::<MultShift>::with_seed(6, 12), 64);
}

#[test]
fn fp_capacity_boundary() {
    // 2^4 slots = exactly one 16-slot group — the degenerate probe loop.
    full_table_edges(FingerprintTable::<Murmur>::with_seed(4, 13), 16);
    full_table_edges(FingerprintTable::<MultShift>::with_seed(6, 14), 64);
}

#[test]
fn fp_simd_capacity_boundary() {
    full_table_edges(FingerprintTable::<Murmur>::with_seed_simd(4, 15), 16);
    full_table_edges(FingerprintTable::<MultShift>::with_seed_simd(6, 16), 64);
}

/// Capacity-boundary batches: one `insert_batch` that crosses the
/// one-empty-slot boundary must report, element-wise, exactly what the
/// sequential path reports — successes up to `capacity - 1` live keys,
/// `TableFull` for the overflowing fresh keys, while replacements inside
/// the same batch still succeed. Delete-then-reinsert batches over a
/// tombstone-saturated table must also match.
fn full_table_batch_edges<T: HashTable>(mut table: T, cap: usize) {
    let name = table.display_name();
    let n = cap - 1;
    // One batch that overfills: n fresh keys fit, two more don't, and a
    // trailing replacement of an in-batch key must still land.
    let mut items: Vec<(u64, u64)> = (1..=(n as u64 + 2)).map(|k| (k, k * 10)).collect();
    items.push((1, 11));
    let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
    table.insert_batch(&items, &mut out);
    for (i, r) in out.iter().enumerate() {
        let expect = match i {
            i if i < n => Ok(InsertOutcome::Inserted),
            i if i == items.len() - 1 => Ok(InsertOutcome::Replaced(10)),
            _ => Err(TableError::TableFull),
        };
        assert_eq!(*r, expect, "{name}: overfill batch element {i}");
    }
    assert_eq!(table.len(), n, "{name}: len after overfill batch");

    // Drain half by batch, then refill over the tombstones in one batch.
    let victims: Vec<u64> = (1..=n as u64).step_by(2).collect();
    let mut removed = vec![None; victims.len()];
    table.delete_batch(&victims, &mut removed);
    assert!(removed.iter().all(|r| r.is_some()), "{name}: batched drain missed a live key");
    let refill: Vec<(u64, u64)> = victims.iter().map(|&k| (k, k + 500)).collect();
    let mut out = vec![Ok(InsertOutcome::Inserted); refill.len()];
    table.insert_batch(&refill, &mut out);
    assert!(
        out.iter().all(|r| *r == Ok(InsertOutcome::Inserted)),
        "{name}: refill over tombstones at max load"
    );
    let keys: Vec<u64> = (1..=n as u64).collect();
    let mut values = vec![None; keys.len()];
    table.lookup_batch(&keys, &mut values);
    for (&k, v) in keys.iter().zip(&values) {
        // Odd keys were drained and refilled; even keys kept their build
        // value (key 1's in-batch replacement was erased by the drain).
        let expect = if k % 2 == 1 { Some(k + 500) } else { Some(k * 10) };
        assert_eq!(*v, expect, "{name}: key {k} after batched churn");
    }
}

#[test]
fn batch_capacity_boundaries() {
    full_table_batch_edges(LinearProbing::<Murmur>::with_seed(4, 1), 16);
    full_table_batch_edges(LinearProbing::<Murmur>::with_seed_simd(4, 2), 16);
    full_table_batch_edges(LinearProbingSoA::<MultShift>::with_seed(4, 3), 16);
    full_table_batch_edges(LinearProbingSoA::<MultShift>::with_seed_simd(4, 4), 16);
    full_table_batch_edges(QuadraticProbing::<Murmur>::with_seed(4, 5), 16);
    full_table_batch_edges(RobinHood::<MultShift>::with_seed(4, 6), 16);
    full_table_batch_edges(LinearProbing::<Murmur>::with_seed(6, 7), 64);
    full_table_batch_edges(QuadraticProbing::<MultShift>::with_seed(6, 8), 64);
    full_table_batch_edges(RobinHood::<Murmur>::with_seed(6, 9), 64);
    full_table_batch_edges(FingerprintTable::<Murmur>::with_seed(4, 10), 16);
    full_table_batch_edges(FingerprintTable::<Murmur>::with_seed_simd(4, 11), 16);
    full_table_batch_edges(FingerprintTable::<MultShift>::with_seed(6, 12), 64);
}

/// Table-level scalar-fallback equivalence: an LP table probing with the
/// SIMD kernels must be step-for-step indistinguishable from one probing
/// scalar, given the same hash function. On machines without AVX2 the
/// "SIMD" table silently runs the scalar fallback, so this test also
/// certifies that the fallback dispatch preserves behaviour there.
#[test]
fn simd_and_scalar_probing_tables_agree_step_by_step() {
    let mut scalar: LinearProbing<Murmur> = LinearProbing::with_seed(BITS, 77);
    let mut simd: LinearProbing<Murmur> = LinearProbing::with_seed_simd(BITS, 77);
    let mut soa_scalar: LinearProbingSoA<Murmur> = LinearProbingSoA::with_seed(BITS, 78);
    let mut soa_simd: LinearProbingSoA<Murmur> = LinearProbingSoA::with_seed_simd(BITS, 78);

    let keys = Distribution::Sparse.generate(UNIVERSE, 4242);
    let mut rng = StdRng::seed_from_u64(4243);
    for step in 0..OPS {
        let key = keys[rng.gen_range(0..keys.len())];
        match rng.gen_range(0..3u8) {
            0 => {
                let value = rng.gen::<u64>() >> 1;
                assert_eq!(
                    scalar.insert(key, value),
                    simd.insert(key, value),
                    "AoS step {step}: insert {key}"
                );
                assert_eq!(
                    soa_scalar.insert(key, value),
                    soa_simd.insert(key, value),
                    "SoA step {step}: insert {key}"
                );
            }
            1 => {
                assert_eq!(scalar.delete(key), simd.delete(key), "AoS step {step}: delete {key}");
                assert_eq!(
                    soa_scalar.delete(key),
                    soa_simd.delete(key),
                    "SoA step {step}: delete {key}"
                );
            }
            _ => {
                assert_eq!(scalar.lookup(key), simd.lookup(key), "AoS step {step}: lookup {key}");
                assert_eq!(
                    soa_scalar.lookup(key),
                    soa_simd.lookup(key),
                    "SoA step {step}: lookup {key}"
                );
            }
        }
        assert_eq!(scalar.len(), simd.len(), "AoS step {step}: len");
        assert_eq!(soa_scalar.len(), soa_simd.len(), "SoA step {step}: len");
    }
}

/// The upserts' fold: neither commutative nor idempotent, so an
/// argument swap, a skipped fold or a doubled one all show.
fn fold(acc: u64, v: u64) -> u64 {
    acc.wrapping_mul(31) ^ v
}

type Outcomes = Vec<Result<InsertOutcome, TableError>>;

/// What `upsert_batch` is defined as: `lookup`, then `insert` of the
/// fold or of the value, element by element.
fn upsert_twin<T: HashTable + ?Sized>(table: &mut T, items: &[(u64, u64)]) -> Outcomes {
    items
        .iter()
        .map(|&(k, v)| match table.lookup(k) {
            Some(old) => table.insert(k, fold(old, v)),
            None => table.insert(k, v),
        })
        .collect()
}

/// One `upsert_batch` on `batched` and its twin on `twin`; the outcomes
/// must agree element-wise. Returns them.
fn upsert_both<T: HashTable + ?Sized>(
    batched: &mut T,
    twin: &mut T,
    items: &[(u64, u64)],
    context: &str,
) -> Outcomes {
    let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
    batched.upsert_batch(items, &fold, &mut out);
    let expect = upsert_twin(twin, items);
    for (i, (got, want)) in out.iter().zip(&expect).enumerate() {
        assert_eq!(got, want, "{context}: upsert_batch[{i}] ({:#x})", items[i].0);
    }
    out
}

fn contents<T: HashTable + ?Sized>(table: &T) -> BTreeMap<u64, u64> {
    let mut seen = BTreeMap::new();
    table.for_each(&mut |k, v| assert!(seen.insert(k, v).is_none(), "for_each visited {k} twice"));
    seen
}

/// Random `upsert_batch` calls (with deletes between them, so upserts
/// land on tombstones and freed slots) against the twin and a `HashMap`
/// model. Half of each batch draws from four hot keys, so a key repeats
/// inside the prefetch distance — the second upsert must fold into what
/// the first stored — and reserved keys are sprinkled in.
fn upsert_oracle(desc: &TableBuilder, keys: &[u64], seed: u64) {
    let (mut batched, mut twin) = (desc.build(), desc.build());
    let name = format!("{} (shards {})", desc.label(), desc.shard_bits());
    let initial_capacity = batched.capacity();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);

    // The same key three times within the prefetch distance.
    let k = keys[0];
    let out = upsert_both(&mut batched, &mut twin, &[(k, 1), (k, 2), (k, 3)], &name);
    let second = fold(1, 2);
    let expect =
        [InsertOutcome::Inserted, InsertOutcome::Replaced(1), InsertOutcome::Replaced(second)];
    assert_eq!(out, expect.map(Ok), "{name}: one key thrice within the distance");
    model.insert(k, fold(second, 3));

    let mut next_fresh = 1;
    for round in 0..150 {
        let hot: Vec<u64> = (0..4).map(|_| keys[rng.gen_range(0..next_fresh)]).collect();
        let len = rng.gen_range(0..4 * PREFETCH_BATCH);
        let items: Vec<(u64, u64)> = (0..len)
            .map(|_| {
                let k = match rng.gen_range(0..32u8) {
                    0 => EMPTY_KEY,
                    1 => TOMBSTONE_KEY,
                    2..=15 => hot[rng.gen_range(0..hot.len())],
                    _ if next_fresh < keys.len() && rng.gen_bool(0.5) => {
                        next_fresh += 1;
                        keys[next_fresh - 1]
                    }
                    _ => keys[rng.gen_range(0..next_fresh)],
                };
                (k, rng.gen::<u64>())
            })
            .collect();
        let context = format!("{name} round {round}");
        let out = upsert_both(&mut batched, &mut twin, &items, &context);
        for (i, &(k, v)) in items.iter().enumerate() {
            let expect = if k >= TOMBSTONE_KEY {
                Err(TableError::ReservedKey)
            } else {
                Ok(match model.get(&k).copied() {
                    Some(old) => {
                        model.insert(k, fold(old, v));
                        InsertOutcome::Replaced(old)
                    }
                    None => {
                        model.insert(k, v);
                        InsertOutcome::Inserted
                    }
                })
            };
            assert_eq!(out[i], expect, "{context}: upsert_batch[{i}] ({k:#x}) vs model");
        }
        assert_eq!(batched.len(), model.len(), "{context}: len");
        if round % 3 == 2 {
            let victims: Vec<u64> = (0..8).map(|_| keys[rng.gen_range(0..next_fresh)]).collect();
            let (mut a, mut b) = (vec![None; victims.len()], vec![None; victims.len()]);
            batched.delete_batch(&victims, &mut a);
            twin.delete_batch(&victims, &mut b);
            assert_eq!(a, b, "{context}: delete_batch");
            for k in &victims {
                model.remove(k);
            }
        }
    }
    let expect: BTreeMap<u64, u64> = model.into_iter().collect();
    assert_eq!(contents(&batched), expect, "{name}: final contents");
    assert_eq!(contents(&twin), expect, "{name}: twin's final contents");
    if initial_capacity < keys.len() {
        assert!(
            batched.capacity() >= initial_capacity * 4,
            "{name}: upserts must cross at least two growth generations (capacity {})",
            batched.capacity()
        );
    }
}

/// The three key distributions, 800 keys each.
fn upsert_key_sets(seed: u64) -> Vec<Vec<u64>> {
    [Distribution::Dense, Distribution::Grid, Distribution::Sparse]
        .into_iter()
        .map(|dist| dist.generate(UNIVERSE, seed))
        .collect()
}

#[test]
fn upsert_batch_matches_lookup_insert_on_static_tables() {
    for (i, scheme) in tests_common::all_schemes().into_iter().enumerate() {
        for cell in tests_common::scheme_cells(scheme, HashKind::Mult, BITS, 0x5E + i as u64) {
            for (j, keys) in upsert_key_sets(0x0B5 + i as u64).iter().enumerate() {
                upsert_oracle(&cell, keys, 0x1A + 7 * i as u64 + j as u64);
            }
        }
    }
}

/// Every upsert after the first doubling lands while a generation drains
/// (`incremental(1)` moves one entry per op), so folds meet keys still in
/// the old generation.
#[test]
fn upsert_batch_matches_lookup_insert_on_growing_tables() {
    for (i, scheme) in tests_common::all_schemes().into_iter().enumerate() {
        let desc = TableBuilder::new(scheme)
            .hash(HashKind::Mult)
            .bits(6)
            .seed(0x6E + i as u64)
            .grow_at(0.7)
            .incremental(1);
        for (j, keys) in upsert_key_sets(0x6B5 + i as u64).iter().enumerate() {
            upsert_oracle(&desc, keys, 0x2B + 7 * i as u64 + j as u64);
        }
    }
}

#[test]
fn upsert_batch_matches_lookup_insert_on_sharded_tables() {
    for (i, scheme) in tests_common::all_schemes().into_iter().enumerate() {
        let desc = TableBuilder::new(scheme).hash(HashKind::Mult).bits(BITS).seed(0x7E).shards(2);
        for (j, keys) in upsert_key_sets(0x7B5 + i as u64).iter().enumerate() {
            upsert_oracle(&desc, keys, 0x3C + 7 * i as u64 + j as u64);
        }
    }
}

/// Fill to `capacity - 1` live keys by upsert, then one batch past it: a
/// fresh key is refused with `TableFull` and changes nothing, while a
/// present key still folds — also when it repeats in the batch.
fn upsert_at_capacity<T: HashTable>(mut batched: T, mut twin: T) {
    let name = batched.display_name();
    let n = batched.capacity() as u64 - 1;
    let fill: Vec<(u64, u64)> = (1..=n).map(|k| (k, k * 10)).collect();
    upsert_both(&mut batched, &mut twin, &fill, &format!("{name}: fill"));
    let items = [(n + 1, 1), (1, 5), (n + 2, 2), (1, 6)];
    let out = upsert_both(&mut batched, &mut twin, &items, &format!("{name}: overfill"));
    let expect = [
        Err(TableError::TableFull),
        Ok(InsertOutcome::Replaced(10)),
        Err(TableError::TableFull),
        Ok(InsertOutcome::Replaced(fold(10, 5))),
    ];
    assert_eq!(out, expect, "{name}: overfill outcomes");
    assert_eq!(batched.len(), n as usize, "{name}: a refused upsert changed len");
    assert_eq!(contents(&batched), contents(&twin), "{name}: contents at capacity");
}

#[test]
fn upsert_batch_at_capacity_reports_table_full() {
    upsert_at_capacity(LinearProbing::<Murmur>::with_seed(4, 1), LinearProbing::with_seed(4, 1));
    upsert_at_capacity(
        LinearProbing::<Murmur>::with_seed_simd(4, 2),
        LinearProbing::with_seed_simd(4, 2),
    );
    upsert_at_capacity(
        LinearProbingSoA::<MultShift>::with_seed(6, 3),
        LinearProbingSoA::with_seed(6, 3),
    );
    upsert_at_capacity(
        QuadraticProbing::<Murmur>::with_seed(6, 4),
        QuadraticProbing::with_seed(6, 4),
    );
    upsert_at_capacity(RobinHood::<MultShift>::with_seed(6, 5), RobinHood::with_seed(6, 5));
    upsert_at_capacity(
        FingerprintTable::<Murmur>::with_seed(4, 6),
        FingerprintTable::with_seed(4, 6),
    );
    upsert_at_capacity(
        FingerprintTable::<MultShift>::with_seed_simd(6, 7),
        FingerprintTable::with_seed_simd(6, 7),
    );
}

/// Delete-then-upsert at maximum load: two tombstones and one empty slot.
/// A fresh key whose probe meets the empty slot before either tombstone
/// cannot take it (the table keeps one terminator), so the upsert
/// rehashes the tombstones away and retries. That key is found by trial
/// on a clone: only the retry leaves no tombstone behind. The batch then
/// upserts it twice, so the retry's insert is folded into at once.
fn upsert_reclaims_at_max_load<T: HashTable + Clone>(table: T, tombstones: impl Fn(&T) -> usize) {
    let name = table.display_name();
    let (mut batched, mut twin) = (table.clone(), table);
    let n = batched.capacity() as u64 - 1;
    let fill: Vec<(u64, u64)> = (1..=n).map(|k| (k, k)).collect();
    upsert_both(&mut batched, &mut twin, &fill, &format!("{name}: fill"));
    // Deleting a key with an empty successor clears its slot instead, and
    // the table would drop below maximum load: skip such keys.
    for k in 1..=n {
        if tombstones(&batched) == 2 {
            break;
        }
        let mut trial = batched.clone();
        trial.delete(k);
        if tombstones(&trial) > tombstones(&batched) {
            batched.delete(k);
            twin.delete(k);
        }
    }
    assert_eq!(tombstones(&batched), 2, "{name}: two tombstones at max load");
    let fresh = (n + 1..n + 10_000)
        .find(|&k| {
            let mut trial = batched.clone();
            trial.insert(k, 0).is_ok() && tombstones(&trial) == 0
        })
        .expect("some fresh key probes the empty slot first");
    let items = [(fresh, 7), (1_000_000, 9), (fresh, 8), (n, 3)];
    let out = upsert_both(&mut batched, &mut twin, &items, &format!("{name}: reclaim"));
    assert_eq!(out[0], Ok(InsertOutcome::Inserted), "{name}: reclaiming upsert");
    assert_eq!(out[2], Ok(InsertOutcome::Replaced(7)), "{name}: fold after the retry");
    assert_eq!(tombstones(&batched), 0, "{name}: the retry rehashed the tombstones away");
    assert_eq!(batched.lookup(fresh), Some(fold(7, 8)), "{name}: folded value");
    assert_eq!(contents(&batched), contents(&twin), "{name}: contents after the retry");
}

#[test]
fn upsert_batch_reclaims_tombstones_at_max_load() {
    upsert_reclaims_at_max_load(LinearProbing::<Murmur>::with_seed(4, 1), |t| t.tombstone_count());
    upsert_reclaims_at_max_load(LinearProbing::<Murmur>::with_seed_simd(5, 2), |t| {
        t.tombstone_count()
    });
    upsert_reclaims_at_max_load(QuadraticProbing::<MultShift>::with_seed(4, 3), |t| {
        t.tombstone_count()
    });
    upsert_reclaims_at_max_load(FingerprintTable::<Murmur>::with_seed(6, 4), |t| {
        t.tombstone_count()
    });
    upsert_reclaims_at_max_load(FingerprintTable::<MultShift>::with_seed_simd(6, 5), |t| {
        t.tombstone_count()
    });
}

/// Robin Hood at 95% load: fresh keys displace richer residents down a
/// chain, and folds must find keys wherever the chains moved them. The
/// cluster order must hold after every batch.
#[test]
fn upsert_batch_follows_robin_hood_displacement_chains() {
    let (mut batched, mut twin) =
        (RobinHood::<MultShift>::with_seed(8, 9), RobinHood::<MultShift>::with_seed(8, 9));
    let mut rng = StdRng::seed_from_u64(0x2B);
    let keys = Distribution::Sparse.generate(243, 0x2C);
    for (round, chunk) in keys.chunks(27).enumerate() {
        let mut items: Vec<(u64, u64)> = chunk.iter().map(|&k| (k, rng.gen())).collect();
        items.extend((0..9).map(|_| (keys[rng.gen_range(0..keys.len())], rng.gen())));
        upsert_both(&mut batched, &mut twin, &items, &format!("RH round {round}"));
        batched.check_invariant().unwrap_or_else(|e| panic!("RH round {round}: {e}"));
    }
    let longest = (0..batched.capacity())
        .filter(|&pos| batched.raw_slots()[pos].is_occupied())
        .map(|pos| batched.displacement_at(pos))
        .max();
    assert!(longest >= Some(3), "RH: 95% load must displace entries (longest {longest:?})");
    assert_eq!(contents(&batched), contents(&twin), "RH: final contents");
}
