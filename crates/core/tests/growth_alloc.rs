//! Growth allocates the new generation and nothing else sized by the
//! table: the draining generation is its own list of what is left to
//! move, and whatever must move at once — the current generation of a
//! stop-the-world doubling, the draining one of a mid-drain switch — is
//! walked into the new table through a stack buffer. Measured on a
//! linear-probing `DynamicTable` doubling from 2^16 to 2^17 slots at a 0.7
//! threshold (45,875 entries), where a copy of the keys would be
//! 8 B × 45,875 and a copy of the pairs 16 B × 45,875.
//!
//! A cuckoo cycle obeys the same rule at one size: it builds one fresh
//! slot array with new functions and walks the table into it, so it
//! allocates that array and nothing else — no clone of the old array, no
//! list of its entries.
//!
//! This binary installs a global allocator that counts the bytes each
//! thread asks for, so the tests may run in parallel.

use hashfn::MultShift;
use sevendim_core::{Cuckoo, DynamicTable, GrowthPolicy, HashTable, TableBuilder, TableScheme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes this thread allocates (a
/// reallocation counts its new size).
struct Counting;

impl Counting {
    fn count(bytes: usize) {
        // `try_with`: the allocator also runs while thread-locals are torn down.
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a `const`-initialised thread-local
// `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
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

/// Bytes this thread allocates while running `f`.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATED.with(Cell::get);
    let r = f();
    (ALLOCATED.with(Cell::get) - before, r)
}

/// What growth (or a cuckoo cycle) may allocate beyond the new slot
/// array: the boxes around it, nothing proportional to the entries.
const SLACK: usize = 1024;

/// Entries a 2^16-slot generation holds at a 0.7 threshold.
const FULL: u64 = 45_875;

/// A linear-probing table of 2^16 slots filled to its growth threshold.
fn filled(policy: GrowthPolicy) -> DynamicTable<TableBuilder> {
    let mut t = DynamicTable::with_policy(
        TableBuilder::new(TableScheme::LinearProbing),
        16,
        0x6A11,
        0.7,
        policy,
    );
    for k in 1..=FULL {
        t.insert(k, k * 3).unwrap();
    }
    assert_eq!((t.capacity(), t.rehash_count()), (1 << 16, 0), "filled to the threshold only");
    t
}

/// The next fresh key crosses the threshold: `bytes` it allocated must be
/// the new 2^17-slot generation and at most [`SLACK`] beyond it.
fn assert_only_the_new_generation(t: &DynamicTable<TableBuilder>, bytes: usize, what: &str) {
    assert_eq!((t.capacity(), t.rehash_count()), (1 << 17, 1), "{what}: the insert must double");
    assert_only_a_2_17_slot_generation(t, bytes, what);
}

/// `bytes` must be the current 2^17-slot generation and at most [`SLACK`]
/// beyond it.
fn assert_only_a_2_17_slot_generation(t: &DynamicTable<TableBuilder>, bytes: usize, what: &str) {
    let generation = t.inner().memory_bytes();
    assert_eq!(generation, 16 << 17, "a 2^17-slot generation");
    assert!(
        (generation..=generation + SLACK).contains(&bytes),
        "{what} allocated {bytes} B for a {generation} B generation ({} B beyond it)",
        bytes.saturating_sub(generation)
    );
}

#[test]
fn opening_an_incremental_migration_allocates_only_the_new_generation() {
    let mut t = filled(GrowthPolicy::Incremental { step: 8 });
    let (bytes, outcome) = allocated_by(|| t.insert(FULL + 1, 0));
    assert!(outcome.is_ok());
    assert!(t.is_migrating());
    assert_only_the_new_generation(&t, bytes, "opening the migration");
    // The drain reads what is left from the draining generation itself.
    let (drained, ops) = allocated_by(|| {
        let mut ops = 0;
        while t.is_migrating() {
            t.delete(u64::MAX >> 2);
            ops += 1;
        }
        ops
    });
    assert_eq!(ops, (FULL as usize).div_ceil(8), "eight moves per op");
    assert_eq!(drained, 0, "the drain allocated {drained} B over {ops} ops");
    assert_eq!(t.len(), FULL as usize + 1);
    for k in (1..=FULL).step_by(97) {
        assert_eq!(t.lookup(k), Some(k * 3));
    }
}

#[test]
fn a_stop_the_world_rebuild_allocates_only_the_new_generation() {
    let mut t = filled(GrowthPolicy::AllAtOnce);
    let (bytes, outcome) = allocated_by(|| t.insert(FULL + 1, 0));
    assert!(outcome.is_ok());
    assert_only_the_new_generation(&t, bytes, "the rebuild");
    assert_eq!(t.len(), FULL as usize + 1);
    for k in (1..=FULL).step_by(97) {
        assert_eq!(t.lookup(k), Some(k * 3));
    }
}

#[test]
fn a_mid_drain_switch_allocates_only_the_new_generation() {
    let mut t = filled(GrowthPolicy::Incremental { step: 8 });
    t.insert(FULL + 1, 0).unwrap();
    let backlog = t.migration_backlog();
    assert!(backlog > 0, "the doubling's drain must be in flight");
    // The switch walks the draining generation into the new one.
    let (bytes, switched) = allocated_by(|| t.switch_to(TableScheme::RobinHood));
    assert_eq!(switched, Ok(true));
    assert_eq!(t.migration_backlog(), FULL as usize + 1 - backlog, "only the current drains");
    assert_only_a_2_17_slot_generation(&t, bytes, "the switch");
    assert_eq!(t.len(), FULL as usize + 1);
    for k in (1..=FULL).step_by(97) {
        assert_eq!(t.lookup(k), Some(k * 3));
    }
}

#[test]
fn a_cuckoo_cycle_allocates_one_slot_array() {
    let mut t = Cuckoo::<MultShift, 4>::with_seed(16, 0xC1C1E);
    let slots = t.memory_bytes();
    assert_eq!(slots, 16 << 16, "a 2^16-slot cuckoo");
    let mut key = 0u64;
    let bytes = loop {
        key += 1;
        let (bytes, outcome) = allocated_by(|| t.insert(key, key * 3));
        assert!(outcome.is_ok(), "key {key} refused at len {}", t.len());
        match t.rehash_count() {
            0 => assert_eq!(bytes, 0, "key {key} allocated without a cycle"),
            1 => break bytes,
            n => panic!("key {key}'s cycle took {n} fresh tables; this seed tests the first"),
        }
    };
    assert!(
        bytes <= slots + SLACK,
        "the cycle at len {} allocated {bytes} B for a {slots} B slot array ({} B beyond it)",
        t.len(),
        bytes.saturating_sub(slots)
    );
    for k in (1..=key).step_by(97) {
        assert_eq!(t.lookup(k), Some(k * 3));
    }
}
