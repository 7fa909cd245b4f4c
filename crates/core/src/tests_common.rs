//! Shared behavioural checks used by every scheme's unit tests.
//!
//! Each function takes a freshly built table and drives it through a
//! scenario that any conforming [`HashTable`] must pass, so the six schemes
//! get identical semantic coverage without copy-pasted test bodies.

use crate::simd::PREFETCH_BATCH;
use crate::{HashTable, InsertOutcome, TableError, EMPTY_KEY, TOMBSTONE_KEY};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

/// Insert a batch, look everything up, delete half, verify the rest.
pub fn check_roundtrip<T: HashTable>(t: &mut T) {
    let n = 100u64;
    for k in 1..=n {
        assert_eq!(t.insert(k, k * 2), Ok(InsertOutcome::Inserted), "insert {k}");
    }
    assert_eq!(t.len(), n as usize);
    for k in 1..=n {
        assert_eq!(t.lookup(k), Some(k * 2), "lookup {k}");
    }
    assert_eq!(t.lookup(n + 1), None);
    assert_eq!(t.lookup(0), None);
    for k in 1..=n / 2 {
        assert_eq!(t.delete(k), Some(k * 2), "delete {k}");
        assert_eq!(t.delete(k), None, "double delete {k}");
    }
    assert_eq!(t.len(), (n / 2) as usize);
    for k in 1..=n {
        let expect = if k <= n / 2 { None } else { Some(k * 2) };
        assert_eq!(t.lookup(k), expect, "post-delete lookup {k}");
    }
}

/// Inserting an existing key must replace and return the old value.
pub fn check_replace_semantics<T: HashTable>(t: &mut T) {
    assert_eq!(t.insert(7, 70), Ok(InsertOutcome::Inserted));
    assert_eq!(t.insert(7, 71), Ok(InsertOutcome::Replaced(70)));
    assert_eq!(t.insert(7, 72), Ok(InsertOutcome::Replaced(71)));
    assert_eq!(t.len(), 1);
    assert_eq!(t.lookup(7), Some(72));
    assert_eq!(t.delete(7), Some(72));
    assert!(t.is_empty());
}

/// Reserved control keys must be refused by insert and inert elsewhere.
pub fn check_reserved_keys<T: HashTable>(t: &mut T) {
    assert_eq!(t.insert(EMPTY_KEY, 1), Err(TableError::ReservedKey));
    assert_eq!(t.insert(TOMBSTONE_KEY, 1), Err(TableError::ReservedKey));
    assert_eq!(t.len(), 0);
    assert_eq!(t.lookup(EMPTY_KEY), None);
    assert_eq!(t.lookup(TOMBSTONE_KEY), None);
    assert_eq!(t.delete(EMPTY_KEY), None);
    assert_eq!(t.delete(TOMBSTONE_KEY), None);
}

/// `for_each` must visit exactly the live entries; `walk` from unit 0
/// must visit the same ones in non-decreasing unit order, and resume
/// (see [`check_walk_resumes`]).
pub fn check_walk<T: HashTable>(t: &mut T) {
    for k in 1..=50u64 {
        t.insert(k, k + 1000).unwrap();
    }
    for k in 1..=10u64 {
        t.delete(k);
    }
    let mut seen = HashMap::new();
    t.for_each(&mut |k, v| {
        assert!(seen.insert(k, v).is_none(), "duplicate visit of key {k}");
    });
    assert_eq!(seen.len(), 40);
    for k in 11..=50u64 {
        assert_eq!(seen.get(&k), Some(&(k + 1000)));
    }
    assert_eq!(walk_from(t, 0), seen, "walk(0) and for_each disagree");
    check_walk_resumes(t, 7);
}

/// Everything `walk(from)` visits, asserting units never decrease and no
/// key comes twice.
pub fn walk_from<T: HashTable>(t: &T, from: usize) -> HashMap<u64, u64> {
    let (mut seen, mut last) = (HashMap::new(), from);
    t.walk(from, &mut |unit, k, v| {
        assert!(unit >= last, "walk went back from unit {last} to {unit}");
        last = unit;
        assert!(seen.insert(k, v).is_none(), "walk visited key {k} twice");
        true
    });
    seen
}

/// The drain's use of `walk`, until the table is empty: stop a walk
/// after `k` entries, delete them, and resume at the first unit it
/// visited — which must then meet every remaining entry exactly once,
/// whatever the deletes moved.
pub fn check_walk_resumes<T: HashTable>(t: &mut T, k: usize) {
    let mut left = walk_from(t, 0);
    let mut cursor = 0;
    while !left.is_empty() {
        let (mut run, mut first) = (Vec::new(), None);
        t.walk(cursor, &mut |unit, key, value| {
            first.get_or_insert(unit);
            run.push((key, value));
            run.len() < k
        });
        assert!(run.len() <= k, "the walk went on after `f` returned false");
        cursor = first.expect("a walk from the cursor met nothing, yet entries remain");
        for (key, value) in run {
            assert_eq!(left.remove(&key), Some(value), "walk visited {key} absent or stale");
            assert_eq!(t.delete(key), Some(value));
        }
        assert_eq!(walk_from(t, cursor), left, "resuming at unit {cursor} lost or duplicated");
    }
    assert!(t.is_empty());
}

/// Batch operations must agree element-wise with the single-key path.
///
/// Drives two identically seeded tables through the same randomized
/// mixed stream — one via `*_batch` (random batch sizes, reserved keys
/// sprinkled in), one key by key — and checks every outcome pairwise,
/// and after every round `len`, `capacity` and the rehash count (a
/// growing table must grow on the same element either way). Keys come
/// from a universe of half the starting capacity.
pub fn check_batch_matches_single<T: HashTable>(batched: &mut T, single: &mut T, seed: u64) {
    let universe = (batched.capacity() / 2).max(16) as u64;
    check_batch_matches_single_over(batched, single, seed, universe);
}

/// Distances at which every batch of [`check_batch_matches_single_over`]
/// repeats a key: the item before, and around the batch driver's prefetch
/// distance, where a later item is prepared before an earlier one with
/// the same key is probed.
const REPEAT_DISTANCES: [usize; 4] = [1, PREFETCH_BATCH - 1, PREFETCH_BATCH, PREFETCH_BATCH + 1];

/// [`check_batch_matches_single`] over keys `1..=universe` — pick one far
/// above a growing table's starting capacity and growth steps (and their
/// mid-drain states) fall inside batches. Each batch repeats the key of
/// item `2j` at item `2j + REPEAT_DISTANCES[j]` where it has one. Upserts
/// sum, and their single-key twin is a lookup followed by an insert.
pub fn check_batch_matches_single_over<T: HashTable>(
    batched: &mut T,
    single: &mut T,
    seed: u64,
    universe: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Vec::new();
    let sum = |old: u64, v: u64| old.wrapping_add(v);
    for round in 0..200 {
        let batch_len = rng.gen_range(0..4 * PREFETCH_BATCH);
        keys.clear();
        keys.extend((0..batch_len).map(|_| match rng.gen_range(0..20u8) {
            // Reserved keys must flow through batches as inert elements.
            0 => EMPTY_KEY,
            1 => TOMBSTONE_KEY,
            _ => rng.gen_range(1..=universe),
        }));
        for (j, d) in REPEAT_DISTANCES.into_iter().enumerate() {
            if 2 * j + d < batch_len {
                keys[2 * j + d] = keys[2 * j];
            }
        }
        match rng.gen_range(0..4u8) {
            op @ (0 | 1) => {
                let items: Vec<(u64, u64)> =
                    keys.iter().map(|&k| (k, rng.gen::<u64>() >> 1)).collect();
                let mut out = vec![Ok(InsertOutcome::Inserted); batch_len];
                if op == 0 {
                    batched.insert_batch(&items, &mut out);
                } else {
                    batched.upsert_batch(&items, &sum, &mut out);
                }
                for (i, &(k, v)) in items.iter().enumerate() {
                    let stored = match op {
                        1 => single.lookup(k).map_or(v, |old| sum(old, v)),
                        _ => v,
                    };
                    assert_eq!(
                        out[i],
                        single.insert(k, stored),
                        "round {round} op {op} #{i} ({k})"
                    );
                }
            }
            2 => {
                let mut out = vec![None; batch_len];
                batched.delete_batch(&keys, &mut out);
                for (i, &k) in keys.iter().enumerate() {
                    assert_eq!(out[i], single.delete(k), "round {round} delete #{i} ({k})");
                }
            }
            _ => {
                let mut out = vec![None; batch_len];
                batched.lookup_batch(&keys, &mut out);
                for (i, &k) in keys.iter().enumerate() {
                    assert_eq!(out[i], single.lookup(k), "round {round} lookup #{i} ({k})");
                }
            }
        }
        assert_eq!(batched.len(), single.len(), "round {round} len");
        assert_eq!(batched.capacity(), single.capacity(), "round {round} capacity");
        assert_eq!(
            batched.table_stats().map(|s| s.rehashes),
            single.table_stats().map(|s| s.rehashes),
            "round {round} rehashes"
        );
    }
}

/// Randomized differential test against `std::collections::HashMap`.
///
/// Drives `ops` random operations and checks every observable result
/// against the model: single-key inserts, deletes and lookups of present
/// and absent keys, and batches of up to eight writes — an `insert_batch`
/// or an `upsert_batch`, whose last item repeats its first key. The key
/// universe is the starting capacity, so the model settles at its load
/// cap — 70 % of the capacity, plus the one entry that crosses a growth
/// threshold there — since inserts outnumber deletes 5 to 2. That is
/// where probe runs are long and cuckoo chains cycle.
pub fn check_against_model<T: HashTable>(t: &mut T, ops: usize, seed: u64) {
    let universe = t.capacity().max(16) as u64;
    check_against_model_over(t, ops, seed, universe);
}

/// [`check_against_model`] over keys `1..=universe` — pick one far above
/// a growing table's starting capacity and it grows, and batched writes
/// land mid-drain.
pub fn check_against_model_over<T: HashTable>(t: &mut T, ops: usize, seed: u64, universe: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model: HashMap<u64, u64> = HashMap::new();
    // Not commutative, so a fold applied out of order shows.
    let combine = |old: u64, v: u64| old.wrapping_mul(31).wrapping_add(v);
    let (mut items, mut expect, mut out) = (Vec::new(), Vec::new(), Vec::new());
    for step in 0..ops {
        let key = rng.gen_range(1..=universe);
        let cap = t.capacity() * 7 / 10;
        match rng.gen_range(0..10) {
            // 50% writes: a single-key insert, or one time in five a batch
            // of two to eight whose first and last items share a key
            0..=4 => {
                let n = if rng.gen_range(0..5) == 0 { rng.gen_range(2..=8) } else { 1 };
                let upsert = n > 1 && rng.gen::<bool>();
                items.clear();
                expect.clear();
                for i in 0..n {
                    let k = if i == 0 || i + 1 == n { key } else { rng.gen_range(1..=universe) };
                    if model.len() > cap && !model.contains_key(&k) {
                        continue;
                    }
                    let value = rng.gen::<u64>() >> 1;
                    let (stored, outcome) = match model.get(&k) {
                        Some(&old) if upsert => (combine(old, value), InsertOutcome::Replaced(old)),
                        Some(&old) => (value, InsertOutcome::Replaced(old)),
                        None => (value, InsertOutcome::Inserted),
                    };
                    model.insert(k, stored);
                    items.push((k, value));
                    expect.push(Ok(outcome));
                }
                out.clear();
                out.resize(items.len(), Ok(InsertOutcome::Inserted));
                match (&items[..], upsert) {
                    (&[(k, v)], false) => out[0] = t.insert(k, v),
                    (_, true) => t.upsert_batch(&items, &combine, &mut out),
                    (_, false) => t.insert_batch(&items, &mut out),
                }
                assert_eq!(out, expect, "step {step} writes {items:?}, upsert {upsert}");
            }
            // 20% deletes
            5..=6 => {
                assert_eq!(t.delete(key), model.remove(&key), "step {step} delete {key}");
            }
            // 30% lookups
            _ => {
                assert_eq!(t.lookup(key), model.get(&key).copied(), "step {step} lookup {key}");
            }
        }
        assert_eq!(t.len(), model.len(), "step {step} len");
    }
    // Final full verification.
    for (&k, &v) in &model {
        assert_eq!(t.lookup(k), Some(v), "final lookup {k}");
    }
    let mut visited = 0usize;
    t.for_each(&mut |k, v| {
        assert_eq!(model.get(&k), Some(&v), "final for_each {k}");
        visited += 1;
    });
    assert_eq!(visited, model.len());
}

/// A key no test inserts: deleting it is a mutating operation that
/// changes nothing.
pub const ABSENT_KEY: u64 = 1 << 62;

/// Pin the epoch from this thread. Other tests pin too, and one may hold
/// every slot for a moment, so retry (bounded) until a slot is free.
pub fn hold_pin() -> crate::epoch::Guard {
    for _ in 0..1_000_000 {
        if let Some(guard) = crate::epoch::pin() {
            return guard;
        }
        std::thread::yield_now();
    }
    panic!("no epoch slot came free");
}

/// Drive mutating operations (one batch deleting 64 absent keys, which
/// reaches every shard of a sharded table) until `t` holds at most `bytes`
/// of retired generations. With no other pin the first batch frees them;
/// the epoch is global, so another test's reader may hold an older pin for
/// a moment, hence the bound.
pub fn settle_to<T: HashTable>(t: &mut T, bytes: usize) {
    let absent: Vec<u64> = (ABSENT_KEY..ABSENT_KEY + 64).collect();
    let mut out = vec![None; absent.len()];
    for _ in 0..100_000 {
        if t.retired_bytes() <= bytes {
            return;
        }
        t.delete_batch(&absent, &mut out);
        std::thread::yield_now();
    }
    panic!("{} retired bytes outlived every pin", t.retired_bytes());
}

/// [`settle_to`] nothing retired.
pub fn settle<T: HashTable>(t: &mut T) {
    settle_to(t, 0);
}
