//! The lock-free read path allocates nothing of its own: a read call pins
//! the epoch in a static slot array, remembers its slot in a
//! `const`-initialised thread-local with no destructor, and releases the
//! slot on return. So once a table's scratch pool is warm, a fresh
//! thread's very first `lookup_batch_shared` is as allocation-free as its
//! ten-thousandth.
//!
//! Two counts, since not every allocation passes through Rust's global
//! allocator: this binary installs a counting one, and on glibc it also
//! reads the C heap's bytes in use (`mallinfo2`), which is where a
//! thread-local destructor's registration record would land. The
//! allocator count is per thread, the heap figure is not, so the binary
//! holds exactly one test and the other threads wait while it measures.

use sevendim_core::{ConcurrentTable, HashTable, ReadView, TableBuilder, TableScheme};
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

/// glibc's `struct mallinfo2`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Bytes the C heap has handed out, in arenas and in mapped chunks.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn heap_in_use() -> usize {
    // SAFETY: `mallinfo2` takes no arguments and returns a plain struct.
    let info = unsafe { mallinfo2() };
    info.uordblks + info.hblkhd
}

/// Elsewhere only the global allocator's count is taken.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn heap_in_use() -> usize {
    0
}

#[test]
fn pinned_batch_reads_allocate_nothing_from_a_fresh_threads_first_call() {
    const CALLS: usize = 10_000;
    const RESIDENT: u64 = 20_000;
    // The served shape: growing, incrementally draining, optimistic shards.
    let table = TableBuilder::new(TableScheme::LinearProbing)
        .bits(10)
        .seed(0x9A11)
        .shards(2)
        .grow_at(0.7)
        .incremental(64)
        .build_sharded();
    assert!(table.optimistic_reads());
    for k in 1..=RESIDENT {
        table.insert_shared(k, k * 3).unwrap();
    }
    assert!(table.capacity() > 1 << 10, "the table must have grown");
    assert_eq!(table.retired_bytes(), 0, "no reader was pinned while it grew");
    // Half hits, half misses.
    let keys: Vec<u64> =
        (0..256).map(|i| if i % 2 == 0 { 1 + i * 61 } else { RESIDENT + i }).collect();
    let mut out = vec![None; keys.len()];
    // Warm the scratch pool at this batch size.
    table.lookup_batch_shared(&keys, &mut out);

    let (allocated, heap, out) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut out = vec![None; keys.len()];
                let (before, heap_before) = (allocations(), heap_in_use());
                for _ in 0..=CALLS {
                    table.lookup_batch_shared(&keys, &mut out);
                }
                (allocations() - before, heap_in_use().abs_diff(heap_before), out)
            })
            .join()
            .expect("the reader thread panicked")
    });
    assert_eq!(allocated, 0, "{} pinned batch reads allocated {allocated} times", CALLS + 1);
    assert_eq!(heap, 0, "{} pinned batch reads moved the C heap by {heap} bytes", CALLS + 1);
    for (&k, &v) in keys.iter().zip(&out) {
        assert_eq!(v, (k <= RESIDENT).then_some(k * 3), "key {k}");
    }
}
