//! `group_aggregate`'s cost in counts, not in time: one `upsert_batch`
//! item per row and no lookups (one probe per row) — through a box, the
//! generations of a growing table (static and mid-drain: one probe per
//! doubling, none per row) and the shards of a sharded one — and no heap
//! scratch: the only allocation is the returned `Vec`. The chunk buffers live on the stack, so the operator
//! leaves the heap as it found it apart from its answer.
//!
//! This binary installs a counting global allocator. Counts are per
//! thread, so the tests may run in parallel.

use hashfn::MultShift;
use query::aggregate::AGG_BATCH;
use query::{group_aggregate, AggFn};
use sevendim_core::{
    DynamicTable, GrowthPolicy, HashTable, InsertOutcome, LinearProbing, ReadView, ShardedTable,
    TableBuilder, TableError, TableFactory, TableScheme,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while thread-locals are torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a `const`-initialised thread-local
// `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// `n` rows over `n / 10` groups.
fn rows(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| (i % (n / 10) + 1, i)).collect()
}

#[test]
fn group_aggregate_allocates_only_its_output() {
    let open_addressing = [
        TableScheme::LinearProbing,
        TableScheme::LinearProbingSoA,
        TableScheme::Quadratic,
        TableScheme::RobinHood,
        TableScheme::Fingerprint,
    ];
    for n in [1_000u64, 100_000] {
        let rows = rows(n);
        for scheme in open_addressing {
            // Twice as many slots as groups.
            let bits = (n / 5).next_power_of_two().trailing_zeros() as u8;
            let mut table = TableBuilder::new(scheme).bits(bits).seed(3).build();
            let before = allocations();
            let groups = group_aggregate(&mut table, &rows, AggFn::Sum).expect("the groups fit");
            let made = allocations() - before;
            assert_eq!(made, 1, "{} over {n} rows: {made} allocations", table.display_name());
            assert_eq!(groups.len() as u64, n / 10);
        }
    }
}

/// What the tables sharing one `Counts` were asked to do: the
/// generations of a growing table, or the shards of a sharded one.
#[derive(Default)]
struct Counts {
    lookups: AtomicUsize,
    inserts: AtomicUsize,
    upsert_calls: AtomicUsize,
    upserted: AtomicUsize,
    deleted: AtomicUsize,
}

impl Counts {
    fn add(n: &AtomicUsize, by: usize) {
        n.fetch_add(by, Ordering::Relaxed);
    }

    /// `(lookups, single-key inserts, upserted items, deleted keys)`.
    fn calls(&self) -> (usize, usize, usize, usize) {
        let get = |n: &AtomicUsize| n.load(Ordering::Relaxed);
        (get(&self.lookups), get(&self.inserts), get(&self.upserted), get(&self.deleted))
    }
}

/// A table that counts the calls made on it. It forwards `upsert_batch`
/// and keeps the provided `insert_batch`, so every batched write counts as
/// upserted items.
struct Counted<T> {
    inner: T,
    counts: Arc<Counts>,
}

impl<T: HashTable> ReadView for Counted<T> {}

impl<T: HashTable> HashTable for Counted<T> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        Counts::add(&self.counts.inserts, 1);
        self.inner.insert(key, value)
    }

    fn lookup(&self, key: u64) -> Option<u64> {
        Counts::add(&self.counts.lookups, 1);
        self.inner.lookup(key)
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        Counts::add(&self.counts.deleted, 1);
        self.inner.delete(key)
    }

    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        Counts::add(&self.counts.lookups, keys.len());
        self.inner.lookup_batch(keys, out)
    }

    fn delete_batch(&mut self, keys: &[u64], out: &mut [Option<u64>]) {
        Counts::add(&self.counts.deleted, keys.len());
        self.inner.delete_batch(keys, out)
    }

    fn upsert_batch(
        &mut self,
        items: &[(u64, u64)],
        combine: &dyn Fn(u64, u64) -> u64,
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        Counts::add(&self.counts.upsert_calls, 1);
        Counts::add(&self.counts.upserted, items.len());
        self.inner.upsert_batch(items, combine, out)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn walk(&self, from: usize, f: &mut dyn FnMut(usize, u64, u64) -> bool) {
        self.inner.walk(from, f)
    }

    fn display_name(&self) -> String {
        self.inner.display_name()
    }
}

type CountedLp = Counted<LinearProbing<MultShift>>;

fn counted_lp(bits: u8, seed: u64, counts: &Arc<Counts>) -> CountedLp {
    Counted { inner: LinearProbing::with_seed(bits, seed), counts: Arc::clone(counts) }
}

/// Builds the generations of a growing table, all counting into one
/// `Counts`.
#[derive(Clone)]
struct CountedFactory(Arc<Counts>);

impl TableFactory for CountedFactory {
    type Table = CountedLp;

    fn build(&self, bits: u8, seed: u64) -> CountedLp {
        counted_lp(bits, seed, &self.0)
    }
}

/// `group_aggregate(Sum)` over `rows` into `table`, checked against a
/// `HashMap`.
fn sum_checked(table: &mut impl HashTable, rows: &[(u64, u64)]) {
    let mut want = HashMap::new();
    for &(k, v) in rows {
        *want.entry(k).or_insert(0u64) += v;
    }
    let groups = group_aggregate(table, rows, AggFn::Sum).expect("the groups fit");
    assert_eq!(groups.len(), want.len(), "groups");
    for (k, sum) in groups {
        assert_eq!(Some(&sum), want.get(&k), "group {k}");
    }
}

#[test]
fn group_aggregate_upserts_each_row_once_and_looks_nothing_up() {
    for n in [1_000u64, 100_000] {
        let rows = rows(n);
        let bits = (n / 5).next_power_of_two().trailing_zeros() as u8;
        // Boxed, as the builder hands tables out: the box must forward the
        // upsert.
        let counts = Arc::new(Counts::default());
        let mut table = Box::new(counted_lp(bits, 5, &counts));
        let groups = group_aggregate(&mut table, &rows, AggFn::Count).expect("the groups fit");
        assert!(groups.iter().all(|&(_, count)| count == 10), "{n} rows: counts");
        assert_eq!(counts.calls(), (0, 0, rows.len(), 0), "{n} rows: calls");
        let batches = counts.upsert_calls.load(Ordering::Relaxed);
        assert_eq!(batches, rows.len().div_ceil(AGG_BATCH), "{n} rows: batches");
    }
}

/// The drain-audit rows: 2,868 distinct keys, the 2,868th of which
/// crosses the growth threshold of a 4,096-slot table at 0.7 (2,867
/// entries), then 600 rows after the crossing — 150 keys of the first
/// part and 150 new ones, each twice in a row.
fn drain_rows() -> (Vec<(u64, u64)>, usize) {
    let first: Vec<(u64, u64)> = (1..=2_868u64).map(|k| (k, k)).collect();
    let after = (0..600u64).map(|i| (if i % 4 < 2 { i / 4 + 1 } else { 10_000 + i / 4 }, i));
    (first.into_iter().chain(after).collect(), 600)
}

#[test]
fn a_growing_state_table_writes_each_row_once_and_looks_nothing_up() {
    let (rows, after) = drain_rows();
    // Static: 8,192 slots never reach their threshold.
    let counts = Arc::new(Counts::default());
    let mut table = DynamicTable::new(CountedFactory(Arc::clone(&counts)), 13, 7, 0.7);
    sum_checked(&mut table, &rows);
    assert_eq!(table.rehash_count(), 0);
    assert_eq!(counts.calls(), (0, 0, rows.len(), 0), "static: calls");
    // Mid-drain: the crossing row doubles the table after one replacement
    // check (a probe of the one generation there is), then claims its key
    // from the draining generation; every row after it pays one move
    // (step 1) before it claims its key. The drain outlasts the aggregate.
    let step = 1;
    let counts = Arc::new(Counts::default());
    let factory = CountedFactory(Arc::clone(&counts));
    let policy = GrowthPolicy::Incremental { step };
    let mut table = DynamicTable::with_policy(factory, 12, 7, 0.7, policy);
    sum_checked(&mut table, &rows);
    assert_eq!((table.rehash_count(), table.capacity()), (1, 8_192));
    assert!(table.is_migrating(), "the drain must outlast the aggregate");
    let moved = step * after;
    let calls = (1, 0, rows.len() + moved, 1 + after + moved);
    assert_eq!(counts.calls(), calls, "mid-drain: calls (lookups, inserts, upserted, deleted)");
}

#[test]
fn a_sharded_state_table_writes_each_row_once_and_looks_nothing_up() {
    let (rows, _) = drain_rows();
    let counts = Arc::new(Counts::default());
    let mut table = ShardedTable::new(2, 7, |i| counted_lp(12, 20 + i as u64, &counts));
    sum_checked(&mut table, &rows);
    assert_eq!(counts.calls(), (0, 0, rows.len(), 0), "sharded: calls");
}
