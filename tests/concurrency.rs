//! Concurrency suite: sharded tables against their unsharded twins, and
//! the shared (`&self`) paths under real threads.
//!
//! Three layers of evidence:
//!
//! * **differential oracle** — for *every* scheme × hash cell, a sharded
//!   table (4 shards) and an unsharded table built from the same
//!   [`TableBuilder`] description are driven through one 10 000-op mixed
//!   insert/replace/delete/lookup script and must agree element-wise on
//!   every observable (outcomes, values, lengths) at every step — a
//!   sharded table *is* the table it shards;
//! * **batch routing** — the same equivalence through the radix-
//!   partitioned `*_batch` path, random batch sizes with reserved keys
//!   sprinkled in;
//! * **multi-thread smoke** — T threads over disjoint key ranges and over
//!   the RW stream driver against one shared table, verifying nothing is
//!   lost, duplicated, or torn.

mod tests_common;

use rand::{rngs::StdRng, Rng, SeedableRng};
use seven_dim_hashing::prelude::*;
use seven_dim_hashing::tables::{EMPTY_KEY, TOMBSTONE_KEY};
use seven_dim_hashing::workload::rw::run_concurrent;
use std::time::{Duration, Instant};

/// Capacity exponent of the *unsharded* table; the sharded twin splits
/// the same total across 4 shards. The 640-key universe tops out at ~31%
/// average load — comfortable for every scheme (CuckooH2 included) even
/// under worst-case shard skew.
const BITS: u8 = 11;
const SHARD_BITS: u8 = 2;
const UNIVERSE: u64 = 640;
const OPS: usize = 10_000;

/// Drive a sharded table and its unsharded twin through the same mixed
/// single-key script; every observable must match at every step. Runs
/// with the seqlock read path on or off (`optimistic`): reads through
/// the lock-free path must be element-wise identical to locked reads.
fn sharded_oracle(scheme: TableScheme, hash: HashKind, optimistic: bool) {
    let desc = TableBuilder::new(scheme).hash(hash).bits(BITS).seed(0x0AC1E);
    let mut sharded = desc.clone().shards(SHARD_BITS).optimistic_reads(optimistic).build_sharded();
    let mut plain = desc.build();
    let label = plain.display_name();
    let mut rng = StdRng::seed_from_u64(0x5AA2D ^ scheme as u64 ^ (hash as u64) << 8);
    for step in 0..OPS {
        let key = rng.gen_range(1..=UNIVERSE);
        match rng.gen_range(0..10u8) {
            0..=4 => {
                let value = rng.gen::<u64>() >> 1;
                assert_eq!(
                    sharded.insert(key, value),
                    plain.insert(key, value),
                    "{label} step {step}: insert {key}"
                );
            }
            5..=6 => {
                assert_eq!(
                    sharded.delete(key),
                    plain.delete(key),
                    "{label} step {step}: delete {key}"
                );
            }
            _ => {
                assert_eq!(
                    sharded.lookup(key),
                    plain.lookup(key),
                    "{label} step {step}: lookup {key}"
                );
            }
        }
        assert_eq!(sharded.len(), plain.len(), "{label} step {step}: len");
    }
    // Reserved keys bounce off both identically.
    for reserved in [EMPTY_KEY, TOMBSTONE_KEY] {
        assert_eq!(sharded.insert(reserved, 1), Err(TableError::ReservedKey), "{label}");
        assert_eq!(sharded.lookup(reserved), None, "{label}");
        assert_eq!(sharded.delete(reserved), None, "{label}");
    }
    // Final sweep: identical contents.
    for key in 1..=UNIVERSE {
        assert_eq!(sharded.lookup(key), plain.lookup(key), "{label} final: {key}");
    }
}

/// The same equivalence through the radix-partitioned batch path: the
/// sharded table executes `*_batch` calls of random sizes, the unsharded
/// twin executes the same elements key by key.
fn sharded_batch_oracle(scheme: TableScheme, hash: HashKind, optimistic: bool) {
    let desc = TableBuilder::new(scheme).hash(hash).bits(BITS).seed(0xBA7C4);
    let mut sharded = desc.clone().shards(SHARD_BITS).optimistic_reads(optimistic).build_sharded();
    let mut plain = desc.build();
    let label = plain.display_name();
    let mut rng = StdRng::seed_from_u64(0xC0 ^ scheme as u64 ^ (hash as u64) << 8);
    let gen_key = |rng: &mut StdRng| match rng.gen_range(0..24u8) {
        0 => EMPTY_KEY,
        1 => TOMBSTONE_KEY,
        _ => rng.gen_range(1..=UNIVERSE),
    };
    for round in 0..120 {
        let len = rng.gen_range(0..64usize);
        match rng.gen_range(0..10u8) {
            0..=4 => {
                let items: Vec<(u64, u64)> =
                    (0..len).map(|_| (gen_key(&mut rng), rng.gen::<u64>() >> 1)).collect();
                let mut out = vec![Ok(InsertOutcome::Inserted); len];
                sharded.insert_batch(&items, &mut out);
                for (i, &(k, v)) in items.iter().enumerate() {
                    assert_eq!(
                        out[i],
                        plain.insert(k, v),
                        "{label} round {round}: insert_batch[{i}] ({k:#x})"
                    );
                }
            }
            5..=6 => {
                let keys: Vec<u64> = (0..len).map(|_| gen_key(&mut rng)).collect();
                let mut out = vec![None; len];
                sharded.delete_batch(&keys, &mut out);
                for (i, &k) in keys.iter().enumerate() {
                    assert_eq!(
                        out[i],
                        plain.delete(k),
                        "{label} round {round}: delete_batch[{i}] ({k:#x})"
                    );
                }
            }
            _ => {
                let keys: Vec<u64> = (0..len).map(|_| gen_key(&mut rng)).collect();
                let mut out = vec![None; len];
                sharded.lookup_batch(&keys, &mut out);
                for (i, &k) in keys.iter().enumerate() {
                    assert_eq!(
                        out[i],
                        plain.lookup(k),
                        "{label} round {round}: lookup_batch[{i}] ({k:#x})"
                    );
                }
            }
        }
        assert_eq!(sharded.len(), plain.len(), "{label} round {round}: len");
    }
}

/// One test per scheme, each covering all four hash families (the full
/// scheme × hash grid, like `differential_oracle`) — plus a completeness
/// test derived from the shared `tests_common::all_schemes()` helper, so
/// a newly added scheme fails this suite until it gets a grid row.
macro_rules! sharded_oracle_grid {
    ($(($name:ident, $scheme:expr)),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                for hash in HashKind::ALL {
                    for optimistic in [true, false] {
                        sharded_oracle($scheme, hash, optimistic);
                        sharded_batch_oracle($scheme, hash, optimistic);
                    }
                }
            }
        )+

        #[test]
        fn sharded_grid_covers_every_scheme() {
            let covered = [$($scheme),+];
            for scheme in tests_common::all_schemes() {
                assert!(
                    covered.contains(&scheme),
                    "scheme {scheme:?} is missing from the sharded oracle grid — \
                     add a sharded_oracle_grid! row for it"
                );
            }
        }
    };
}

sharded_oracle_grid![
    (sharded_matches_unsharded_chained8, TableScheme::Chained8),
    (sharded_matches_unsharded_chained24, TableScheme::Chained24),
    (sharded_matches_unsharded_lp, TableScheme::LinearProbing),
    (sharded_matches_unsharded_lp_soa, TableScheme::LinearProbingSoA),
    (sharded_matches_unsharded_qp, TableScheme::Quadratic),
    (sharded_matches_unsharded_rh, TableScheme::RobinHood),
    (sharded_matches_unsharded_cuckoo2, TableScheme::Cuckoo2),
    (sharded_matches_unsharded_cuckoo3, TableScheme::Cuckoo3),
    (sharded_matches_unsharded_cuckoo4, TableScheme::Cuckoo4),
    (sharded_matches_unsharded_fingerprint, TableScheme::Fingerprint),
];

/// T threads, each owning a disjoint key range, hammer one shared table
/// through the `*_shared` batch API; afterwards every key from every
/// range must be present exactly once with its thread's value.
#[test]
fn threads_with_disjoint_ranges_lose_nothing() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 5_000;
    let table =
        TableBuilder::new(TableScheme::RobinHood).bits(16).seed(0x7EAD).shards(3).build_sharded();
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let table = &table;
            scope.spawn(move || {
                let base = 1 + thread * PER_THREAD;
                let items: Vec<(u64, u64)> =
                    (base..base + PER_THREAD).map(|k| (k, k * 10 + thread)).collect();
                let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
                table.insert_batch_shared(&items, &mut out);
                assert!(out.iter().all(|o| o.is_ok()), "thread {thread}: insert failed");
                // Read back own range while other threads keep writing.
                let keys: Vec<u64> = (base..base + PER_THREAD).collect();
                let mut values = vec![None; keys.len()];
                table.lookup_batch_shared(&keys, &mut values);
                for (&k, v) in keys.iter().zip(&values) {
                    assert_eq!(*v, Some(k * 10 + thread), "thread {thread}: key {k}");
                }
                // Delete and reinsert a stripe: churn across shard locks.
                let victims: Vec<u64> = keys.iter().copied().step_by(7).collect();
                let mut removed = vec![None; victims.len()];
                table.delete_batch_shared(&victims, &mut removed);
                assert!(removed.iter().all(|r| r.is_some()), "thread {thread}: delete missed");
                let refill: Vec<(u64, u64)> =
                    victims.iter().map(|&k| (k, k * 10 + thread)).collect();
                let mut out = vec![Ok(InsertOutcome::Inserted); refill.len()];
                table.insert_batch_shared(&refill, &mut out);
                assert!(out.iter().all(|o| o == &Ok(InsertOutcome::Inserted)));
            });
        }
    });
    assert_eq!(table.len_shared(), (THREADS * PER_THREAD) as usize);
    let mut seen = std::collections::HashMap::new();
    table.for_each(&mut |k, v| {
        assert!(seen.insert(k, v).is_none(), "key {k} visited twice");
    });
    assert_eq!(seen.len(), (THREADS * PER_THREAD) as usize);
    for (&k, &v) in &seen {
        let thread = (k - 1) / PER_THREAD;
        assert_eq!(v, k * 10 + thread, "key {k} has a torn or foreign value");
    }
}

/// The multi-threaded RW driver over a per-shard-growing table: the full
/// configured stream executes (every per-thread expectation checked by
/// `run_chunk_shared`'s debug asserts), across a thread sweep.
#[test]
fn concurrent_rw_driver_sweeps_threads() {
    for threads in [1, 2, 4] {
        let table = TableBuilder::new(TableScheme::LinearProbing)
            .bits(13)
            .seed(0x5CA1E)
            .concurrency(threads)
            .grow_at(0.7)
            .build_sharded();
        let cfg = RwConfig { initial_keys: 3000, operations: 40_000, update_pct: 50, seed: 11 };
        let t = run_concurrent(&table, &cfg, threads).unwrap();
        assert_eq!(t.ops, 40_000, "{threads} threads: stream truncated");
        assert!(table.len_shared() >= cfg.initial_keys, "{threads} threads: keys lost");
        // Growth stayed per-shard: no shard exceeds its threshold.
        table.for_each_shard(|i, shard| {
            assert!(shard.load_factor() <= 0.7 + 1e-9, "shard {i} over threshold");
        });
    }
}

/// Lock-free readers racing writers that insert, delete, *and grow*:
/// the seqlock tentpole's correctness test. Writers populate disjoint
/// key ranges (with periodic deletes) into a sharded table whose shards
/// double repeatedly; readers concurrently probe random keys through
/// both the single-key and the batched shared-lookup paths.
///
/// The oracle is the per-key "ever inserted" model: every key's one
/// committed value is a pure function of the key, so a racing reader
/// must observe either `None` or exactly that value — anything else is
/// a torn read the seqlock validation failed to discard — and a key no
/// writer ever inserts must never be observed present.
///
/// The overlap is forced, not hoped for: readers publish their hits as
/// they go, and each writer holds at its half-way key until some reader
/// has scored one — so the second half of every writer's work (growth
/// included) runs against readers known to be live.
#[test]
fn optimistic_readers_race_inserting_deleting_growing_writers() {
    const WRITERS: u64 = 2;
    const READERS: usize = 2;
    const PER_WRITER: u64 = 6_000;
    const UNIVERSE_TOP: u64 = WRITERS * PER_WRITER + 1_000; // tail never inserted
    fn committed(k: u64) -> u64 {
        k * 31 + 7
    }
    // Small initial shards + growth: the run crosses many generation
    // swaps while readers hold lock-free probes in flight.
    let table = TableBuilder::new(TableScheme::LinearProbing)
        .bits(10)
        .seed(0x0CC)
        .shards(2)
        .grow_at(0.7)
        .incremental(8)
        .build_sharded();
    assert!(table.optimistic_reads(), "the stress test must exercise the seqlock path");
    let stop = std::sync::atomic::AtomicBool::new(false);
    let hits = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (table, hits) = (&table, &hits);
                scope.spawn(move || {
                    let base = 1 + w * PER_WRITER;
                    for k in base..base + PER_WRITER {
                        if k == base + PER_WRITER / 2 {
                            let deadline = Instant::now() + Duration::from_secs(60);
                            while hits.load(std::sync::atomic::Ordering::Acquire) == 0 {
                                assert!(
                                    Instant::now() < deadline,
                                    "writer {w}: half its keys are in and no reader has seen one"
                                );
                                std::thread::yield_now();
                            }
                        }
                        table.insert_shared(k, committed(k)).unwrap();
                        // Churn: delete an earlier stripe so readers race
                        // tombstones too, not just fresh inserts.
                        if k % 5 == 0 && k > base + 16 {
                            table.delete_shared(k - 16);
                        }
                    }
                })
            })
            .collect();
        for r in 0..READERS {
            let (table, stop, hits) = (&table, &stop, &hits);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xEAD + r as u64);
                let mut batch = vec![0u64; 256];
                let mut values = vec![None; 256];
                // Always one full pass, so a reader scheduled late still
                // reads; `stop` is only checked between passes.
                loop {
                    let mut seen = 0u64;
                    let k = rng.gen_range(1..=UNIVERSE_TOP);
                    if let Some(v) = table.lookup_shared(k) {
                        assert!(k <= WRITERS * PER_WRITER, "reader {r}: phantom key {k}");
                        assert_eq!(v, committed(k), "reader {r}: torn value for key {k}");
                        seen += 1;
                    }
                    for slot in batch.iter_mut() {
                        *slot = rng.gen_range(1..=UNIVERSE_TOP);
                    }
                    table.lookup_batch_shared(&batch, &mut values);
                    for (&k, v) in batch.iter().zip(&values) {
                        if let Some(v) = *v {
                            assert!(k <= WRITERS * PER_WRITER, "reader {r}: phantom key {k}");
                            assert_eq!(v, committed(k), "reader {r}: torn batch value for {k}");
                            seen += 1;
                        }
                    }
                    hits.fetch_add(seen, std::sync::atomic::Ordering::AcqRel);
                    if stop.load(std::sync::atomic::Ordering::Acquire) {
                        break;
                    }
                }
            });
        }
        for w in writers {
            w.join().expect("writer panicked");
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
    });
    assert!(
        hits.load(std::sync::atomic::Ordering::Acquire) > 0,
        "readers never observed a committed key — the race never happened"
    );
    // Quiescent sweep: the undeleted majority is present and exact.
    let keys: Vec<u64> = (1..=WRITERS * PER_WRITER).collect();
    let mut out = vec![None; keys.len()];
    table.lookup_batch_shared(&keys, &mut out);
    let present = out.iter().flatten().count();
    assert!(present as u64 >= WRITERS * PER_WRITER * 7 / 10, "only {present} keys survived");
    for (&k, v) in keys.iter().zip(&out) {
        if let Some(v) = *v {
            assert_eq!(v, committed(k), "key {k} settled on a torn value");
        }
    }
    // The growth the readers raced really happened, and its retired
    // generations are reclaimable now that the threads are gone
    // (`ReadView` comes in through the prelude).
    let mut table = table;
    assert!(table.retired_bytes() > 0, "no generation swap ever raced the readers");
    table.reclaim_retired();
    assert_eq!(table.retired_bytes(), 0);
}

/// The state a sharded table is brought to before its locked and lock-free
/// reads are compared.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ReadState {
    /// Fixed-capacity shards: no `DynamicTable`, so no runtime stats.
    Static,
    /// Every shard a `DynamicTable` with a growth drain in flight.
    MidGrowth,
    /// Every shard a `DynamicTable` with a cross-scheme drain in flight.
    MidSwitch,
}

/// Look `keys` up with the lock-free path on, then off. The answers must
/// be element-wise identical (and the model's), and each call must advance
/// `lookups` by exactly `keys.len()` and `misses` by the exact miss count —
/// or, for shards that keep no stats, leave both at zero.
fn assert_optimistic_flag_only_skips_the_mutex<T: HashTable + Send>(
    table: &mut ShardedTable<T>,
    keys: &[u64],
    counted: bool,
    label: &str,
) {
    let mut model = std::collections::HashMap::new();
    table.for_each_shared(&mut |k, v| {
        model.insert(k, v);
    });
    let expect: Vec<Option<u64>> = keys.iter().map(|k| model.get(k).copied()).collect();
    let misses = expect.iter().filter(|v| v.is_none()).count() as u64;
    assert!(misses > 0 && misses < keys.len() as u64, "{label}: the mix must hit and miss");
    let (lookups, misses) = if counted { (keys.len() as u64, misses) } else { (0, 0) };
    for optimistic in [true, false] {
        table.set_optimistic_reads(optimistic);
        let before = table.stats_shared();
        let mut got = vec![Some(u64::MAX); keys.len()];
        table.lookup_batch_shared(keys, &mut got);
        assert_eq!(got, expect, "{label}, optimistic {optimistic}");
        let after = table.stats_shared();
        assert_eq!(after.lookups - before.lookups, lookups, "{label}, optimistic {optimistic}");
        assert_eq!(after.misses - before.misses, misses, "{label}, optimistic {optimistic}");
    }
}

#[test]
fn optimistic_flag_changes_neither_answers_nor_stats() {
    const RESIDENT: u64 = 600;
    // 1 000 keys: residents, absent keys and both reserved keys, mixed.
    let keys: Vec<u64> = (0..1000u64)
        .map(|i| match i % 50 {
            0 => EMPTY_KEY,
            25 => TOMBSTONE_KEY,
            _ if i % 2 == 0 => 1 + i * 7 % RESIDENT,
            _ => 1_000_000 + i,
        })
        .collect();
    // Routing depends on the shard count and seed only, so a throwaway
    // table tells which shard to preload a key into.
    let router =
        TableBuilder::new(TableScheme::LinearProbing).bits(8).shards(SHARD_BITS).build_sharded();
    for scheme in TableScheme::ALL {
        for state in [ReadState::Static, ReadState::MidGrowth, ReadState::MidSwitch] {
            let label = format!("{scheme:?} {state:?}");
            let desc = TableBuilder::new(scheme).bits(BITS).seed(0xF02C);
            if state == ReadState::Static {
                let mut table = desc.shards(SHARD_BITS).build_sharded();
                for k in 1..=RESIDENT {
                    table.insert(k, k * 3).unwrap();
                }
                assert_optimistic_flag_only_skips_the_mutex(&mut table, &keys, false, &label);
                continue;
            }
            let target = if scheme == TableScheme::RobinHood {
                TableChoice::LPMult
            } else {
                TableChoice::RHMult
            };
            let mut table = ShardedTable::new(SHARD_BITS, 0, |shard| {
                // Growth starts from 2^6 slots and stops mid-drain; a
                // switch drains 2^9 slots a third full.
                let bits = if state == ReadState::MidGrowth { 6 } else { 9 };
                let mut t = DynamicTable::with_policy(
                    desc.clone(),
                    bits,
                    shard as u64,
                    0.5,
                    GrowthPolicy::Incremental { step: 1 },
                );
                let mut mine = (1..).filter(|&k| router.shard_of(k) == shard);
                for k in mine.by_ref().take_while(|&k| k <= RESIDENT) {
                    t.insert(k, k * 3).unwrap();
                }
                match state {
                    ReadState::MidGrowth => {
                        while !t.is_migrating() {
                            let k = mine.next().expect("an endless key supply");
                            t.insert(k, k * 3).unwrap();
                        }
                    }
                    _ => assert_eq!(t.switch_to(target), Ok(true), "{label}"),
                }
                assert!(t.is_migrating() && t.migration_backlog() > 0, "{label}: not mid-drain");
                t
            });
            // What the builder does for growing optimistic shards.
            table.retain_retired_allocations(true);
            assert_optimistic_flag_only_skips_the_mutex(&mut table, &keys, true, &label);
        }
    }
}

/// The adaptive controller sees lock-free reads: a sharded LP table, built
/// the way the server builds it (optimistic reads on), under a 97 %-miss
/// batched read stream with a trickle of deletes to fund the ticks, moves
/// every shard to fingerprints — the LP→FP switch the unsharded `adaptive`
/// bench shows — and loses no key.
#[test]
fn sharded_optimistic_reads_drive_every_shard_from_lp_to_fp() {
    const RESIDENT: u64 = 2400; // about 59 % of each 2^10-slot shard
    let mut table = TableBuilder::new(TableScheme::LinearProbing)
        .bits(12)
        .seed(0xADA7)
        .shards(SHARD_BITS)
        .incremental(8)
        .migration(MigrationPolicy::Adaptive(AdaptiveConfig { check_every: 16, cooldown: 64 }))
        .build_sharded();
    assert!(table.optimistic_reads());
    for k in 1..=RESIDENT {
        table.insert(k, k * 3).unwrap();
    }
    let mut lp_bytes = Vec::new();
    table.for_each_shard(|_, t| {
        assert!(t.display_name().starts_with("LP"), "{}", t.display_name());
        lp_bytes.push(t.memory_bytes());
    });
    // A shard has finished its drain once the LP generation it left is
    // retired (the optimistic build retains retirees): then its retired
    // bytes are exactly the LP table's.
    let drained = |table: &ShardedTable<BoxedTable>| {
        let mut all = true;
        table.for_each_shard(|i, t| all &= t.retired_bytes() == lp_bytes[i]);
        all
    };
    let mut keys = Vec::with_capacity(100);
    let mut got = vec![None; 100];
    let rounds = (0..5_000u64).find(|round| {
        keys.clear();
        keys.extend((0..97).map(|i| 1_000_000 + round * 100 + i));
        keys.extend((0..3).map(|i| 1 + (round * 3 + i) % RESIDENT));
        table.lookup_batch_shared(&keys, &mut got);
        for (&k, &v) in keys.iter().zip(&got) {
            assert_eq!(v, (k <= RESIDENT).then_some(k * 3), "round {round}: key {k}");
        }
        assert_eq!(table.delete_shared(2_000_000 + round), None);
        drained(&table)
    });
    assert!(rounds.is_some(), "not every shard switched and drained");
    table.for_each_shard(|i, t| {
        assert!(t.display_name().starts_with("FP"), "shard {i}: {}", t.display_name());
        assert_eq!(t.table_stats().map(|s| s.scheme_switches), Some(1), "shard {i}");
    });
    let stats = table.stats_shared();
    assert_eq!(stats.scheme_switches, 4);
    assert!(stats.miss_ratio() > 0.9, "miss ratio {:.3}", stats.miss_ratio());
    let resident: Vec<u64> = (1..=RESIDENT).collect();
    let mut answers = vec![None; resident.len()];
    table.lookup_batch_shared(&resident, &mut answers);
    for (&k, &v) in resident.iter().zip(&answers) {
        assert_eq!(v, Some(k * 3), "key {k} lost by the switch");
    }
}

/// Measure shared-lookup throughput (M ops/s) of `table` at `threads`
/// workers: a coordinator-clocked barrier region, each worker probing a
/// strided permutation of `keys` in 1024-key `lookup_batch_shared`
/// calls.
fn shared_lookup_mops(
    table: &ShardedTable<BoxedTable>,
    keys: &[u64],
    threads: usize,
    probes_per_thread: usize,
) -> f64 {
    let barrier = std::sync::Barrier::new(threads + 1);
    let (ops, elapsed) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (table, keys, barrier) = (table, keys, &barrier);
                scope.spawn(move || {
                    let stride = (2_654_435_761usize % keys.len()) | 1;
                    let mut pos = (t * keys.len()) / threads;
                    let mut probe = vec![0u64; 1024];
                    let mut values = vec![None; 1024];
                    barrier.wait();
                    let mut done = 0usize;
                    while done < probes_per_thread {
                        let batch = probe.len().min(probes_per_thread - done);
                        for slot in probe[..batch].iter_mut() {
                            *slot = keys[pos];
                            pos = (pos + stride) % keys.len();
                        }
                        table.lookup_batch_shared(&probe[..batch], &mut values[..batch]);
                        assert!(values[..batch].iter().all(|v| v.is_some()), "thread {t} missed");
                        done += batch;
                    }
                    done as u64
                })
            })
            .collect();
        let start = std::time::Instant::now();
        barrier.wait();
        let ops: u64 = workers.into_iter().map(|w| w.join().expect("worker panicked")).sum();
        (ops, start.elapsed())
    });
    ops as f64 / elapsed.as_secs_f64() / 1e6
}

/// PR-3's thread-sweep caveat, fixed properly: the *functional* half of
/// the sweep (all probes answered, nothing lost) runs everywhere, but
/// the throughput-**ratio** assertion is gated on
/// `std::thread::available_parallelism()` — a single-core host runs 4
/// "parallel" threads sequentially, so flat curves are the *correct*
/// result there and asserting a speedup would make tier-1 flaky by
/// hardware. On ≥4 cores the ratio check is enforced.
#[test]
fn thread_sweep_scaling_gated_on_available_parallelism() {
    const KEYS: usize = 20_000;
    const PROBES_PER_THREAD: usize = 60_000;
    let table = TableBuilder::new(TableScheme::Fingerprint)
        .bits(16)
        .seed(0x5CA1E)
        .shards(3)
        .build_sharded();
    let keys: Vec<u64> = (1..=KEYS as u64).collect();
    let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k * 3)).collect();
    let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
    table.insert_batch_shared(&items, &mut out);
    assert!(out.iter().all(|o| o.is_ok()));

    let t1 = shared_lookup_mops(&table, &keys, 1, 4 * PROBES_PER_THREAD);
    let t4 = shared_lookup_mops(&table, &keys, 4, PROBES_PER_THREAD);
    assert!(t1 > 0.0 && t4 > 0.0, "both sweeps must complete: {t1:.2} / {t4:.2} Mops");

    // Enforce the ratio only with genuine headroom: the sweep needs 4
    // workers while the libtest harness runs sibling tests (some with
    // their own thread pools) concurrently, so a host with exactly 4
    // cores is legitimately oversubscribed and flat-ish curves are not a
    // regression there. 6+ cores leave room for the neighbours.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // available_parallelism() reports core *count*, not core
    // *availability*: a host sharing its cores with other CPU-heavy work
    // can legitimately measure flat curves. The env knob lets such hosts
    // (busy CI fleets, parallel local builds) keep tier-1 deterministic
    // without losing the default enforcement on idle multicore machines.
    let skip_ratio = std::env::var_os("SEVENDIM_SKIP_SCALING_ASSERT").is_some();
    if cores >= 6 && !skip_ratio {
        // Any single measurement can still be deflated by a scheduling
        // hiccup: take the best ratio over a few attempts and require one
        // clean run. A real scaling regression fails every attempt.
        let mut best_ratio = t4 / t1;
        for attempt in 0..3 {
            if best_ratio > 1.2 {
                break;
            }
            eprintln!("attempt {attempt}: ratio {best_ratio:.2} below 1.2, re-measuring");
            let t4 = shared_lookup_mops(&table, &keys, 4, PROBES_PER_THREAD);
            let t1 = shared_lookup_mops(&table, &keys, 1, 4 * PROBES_PER_THREAD);
            best_ratio = best_ratio.max(t4 / t1);
        }
        assert!(
            best_ratio > 1.2,
            "4 threads never outscaled 1 on a {cores}-core host (best ratio {best_ratio:.2})"
        );
    } else {
        eprintln!(
            "host has {cores} core(s): skipping the throughput-ratio assertion \
             (1-thread {t1:.2} vs 4-thread {t4:.2} M ops/s measured functionally)"
        );
    }
}

/// The parallel query operators agree with their sequential forms when
/// run over a meaningful relation through real threads.
#[test]
fn parallel_operators_match_sequential() {
    let build: Vec<(u64, u64)> = (1..=4_000u64).map(|k| (k, k * 7)).collect();
    let probe: Vec<(u64, u64)> = (0..12_000u64).map(|i| (i % 5_000 + 1, i)).collect();
    let builder = TableBuilder::new(TableScheme::LinearProbing).bits(13).seed(0x10);
    let mut table = builder.build();
    let sequential = hash_join(&mut table, &build, &probe).unwrap();
    let parallel = hash_join_parallel(&builder, &build, &probe, 4).unwrap();
    assert_eq!(parallel.probe_misses, sequential.probe_misses);
    let (mut a, mut b) = (sequential.rows, parallel.rows);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);

    let rows: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i % 257, i * 3 % 1001)).collect();
    for f in [AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count] {
        let mut table = builder.build();
        let mut sequential = group_aggregate(&mut table, &rows, f).unwrap();
        let mut parallel = group_aggregate_parallel(&builder, &rows, f, 4).unwrap();
        sequential.sort_unstable();
        parallel.sort_unstable();
        assert_eq!(sequential, parallel, "{f:?}");
    }
}
