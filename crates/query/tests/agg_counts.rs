//! `group_aggregate`'s cost in counts, not in time: one `upsert_batch`
//! item per row and no lookups (one probe per row), and no heap scratch —
//! the only allocation is the returned `Vec`. The chunk buffers live on
//! the stack, so the operator leaves the heap as it found it apart from
//! its answer.
//!
//! This binary installs a counting global allocator. Counts are per
//! thread, so the tests may run in parallel.

use query::aggregate::AGG_BATCH;
use query::{group_aggregate, AggFn};
use sevendim_core::{
    HashTable, InsertOutcome, LinearProbing, ReadView, TableBuilder, TableError, TableScheme,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// A table that counts the calls `group_aggregate` makes on it.
struct Counted<T> {
    inner: T,
    lookups: Cell<usize>,
    inserts: usize,
    upsert_calls: usize,
    upserted: usize,
}

impl<T: HashTable> ReadView for Counted<T> {}

impl<T: HashTable> HashTable for Counted<T> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        self.inserts += 1;
        self.inner.insert(key, value)
    }

    fn lookup(&self, key: u64) -> Option<u64> {
        self.lookups.set(self.lookups.get() + 1);
        self.inner.lookup(key)
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        self.inner.delete(key)
    }

    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        self.lookups.set(self.lookups.get() + keys.len());
        self.inner.lookup_batch(keys, out)
    }

    fn insert_batch(
        &mut self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        self.inserts += items.len();
        self.inner.insert_batch(items, out)
    }

    fn upsert_batch(
        &mut self,
        items: &[(u64, u64)],
        combine: &dyn Fn(u64, u64) -> u64,
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        self.upsert_calls += 1;
        self.upserted += items.len();
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

#[test]
fn group_aggregate_upserts_each_row_once_and_looks_nothing_up() {
    for n in [1_000u64, 100_000] {
        let rows = rows(n);
        let bits = (n / 5).next_power_of_two().trailing_zeros() as u8;
        // Boxed, as the builder hands tables out: the box must forward the
        // upsert, not fall back to the trait's lookup + insert default.
        let mut table = Box::new(Counted {
            inner: LinearProbing::<hashfn::MultShift>::with_seed(bits, 5),
            lookups: Cell::new(0),
            inserts: 0,
            upsert_calls: 0,
            upserted: 0,
        });
        let groups = group_aggregate(&mut table, &rows, AggFn::Count).expect("the groups fit");
        assert!(groups.iter().all(|&(_, count)| count == 10), "{n} rows: counts");
        assert_eq!(table.lookups.get(), 0, "{n} rows: lookups");
        assert_eq!(table.inserts, 0, "{n} rows: inserts");
        assert_eq!(table.upserted, rows.len(), "{n} rows: upserted items");
        assert_eq!(table.upsert_calls, rows.len().div_ceil(AGG_BATCH), "{n} rows: batches");
    }
}
