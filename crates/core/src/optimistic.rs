//! The read side of the seqlock protocol: optimistic, lock-free probing.
//!
//! [`ShardedTable`](crate::ShardedTable) guards each shard with a mutex
//! *and* a generation counter (a seqlock: even = stable, odd = writer
//! active). Readers may probe a shard **without** taking the mutex — they
//! read the counter, probe, and accept the answer only if the counter is
//! unchanged and still even. A probe that raced a writer is simply
//! discarded and retried (bounded), then falls back to the locked path.
//!
//! [`ReadView`] is what a table must provide for that to be sound: a
//! batch probe that can run concurrently with a writer mutating the same
//! table, reading slot contents through [`std::ptr::read_volatile`] so a
//! torn slot is only ever *data the validation step throws away*, never a
//! pointer that gets dereferenced. The trait is a supertrait of
//! [`HashTable`](crate::HashTable), with conservative defaults — a scheme
//! that doesn't opt in keeps the default probe, which bails (returns
//! `false`) on every call, and every read of it goes through the lock.
//!
//! The lock-free probe is not a second algorithm. The open-addressing
//! tables (Robin Hood included) instantiate the one capacity-bounded lookup
//! kernel of [`crate::open_addressing`] with volatile loads, through the
//! same hash-prefetch-probe batch driver their locked `lookup_batch`
//! uses; the fingerprint table does the same with its group kernel. Whether
//! a shard's reads are optimistic decides whether its mutex is taken, not
//! which probe code runs.
//!
//! # Statistics
//!
//! A [`DynamicTable`](crate::DynamicTable) counts optimistic lookups in
//! its [`TableStats`](crate::TableStats) like locked ones: once per
//! sub-batch (one relaxed `fetch_add`, two when some key missed), after
//! both generations were probed. Those adds are the path's only stores:
//! it takes no lock and writes nothing else in the shard. The count is made
//! before the caller validates, so an attempt the seqlock rejects is
//! counted, and its retry — optimistic or locked — is counted again; in a
//! quiescent table the counts are exact.
//!
//! # What makes an implementation sound
//!
//! The probe runs while a writer may be mid-mutation, so the usual
//! invariants ("an empty slot exists", "displacements are monotone") can
//! be *transiently false*. An implementation must therefore guarantee,
//! for any byte garbage in the slot arrays:
//!
//! 1. **In-bounds**: every address read is inside an allocation that
//!    stays alive and fixed for the table's lifetime. The open-addressing
//!    schemes guarantee this by never reallocating their slot arrays
//!    after construction (same-capacity rehashes rebuild in place);
//!    [`DynamicTable`](crate::DynamicTable) guarantees it by publishing
//!    generations through atomic pointers and retiring replaced ones
//!    through [`crate::epoch`]: a retired generation is freed only once no
//!    reader is pinned at or below its stamp, and every optimistic reader
//!    pins before it loads a published address.
//! 2. **Termination**: every probe loop is bounded by the capacity (not
//!    by an invariant like "probing stops at an empty slot").
//! 3. **No trusted derefs**: raced data may be *returned* (the seqlock
//!    validation discards it) but never *dereferenced* or used to index.
//!
//! Wrong answers are fine; crashes and infinite loops are not.
//!
//! # Memory ordering
//!
//! The counter protocol lives in [`ShardedTable`](crate::ShardedTable):
//! writers do
//! `fetch_add(1, AcqRel)` on entry (odd) and `fetch_add(1, Release)` on
//! exit (even); readers load the counter with `Acquire` before probing
//! and re-check it after an `Acquire` fence. A validated read is thus
//! fully ordered against every writer critical section: the initial
//! `Acquire` load sees all writes published by the previous `Release`
//! increment, and the trailing fence + re-check proves no writer entered
//! during the probe. The slot reads themselves are `read_volatile` — not
//! atomic, so formally a data race, which is the standard seqlock
//! compromise: the values are discarded unless validation proves the race
//! did not happen.

/// Number of optimistic attempts before a reader falls back to the lock.
pub const OPTIMISTIC_RETRIES: usize = 2;

/// A racy, validated-later read view over a hash table — the read side of
/// the seqlock protocol (see the [module docs](self)).
///
/// Every method has a conservative default, so implementing the trait is
/// opt-in per scheme: [`ReadView::lookup_batch_optimistic`] defaults to
/// "bail to the locked path".
pub trait ReadView {
    /// Probe for `keys[i]` into `out[i]` for every `i` without any
    /// synchronization, tolerating a racing writer.
    ///
    /// Returns `false` to bail (`out` is then unspecified and the caller
    /// must use the locked path), or `true` with *candidate* answers that
    /// are only correct if the caller's seqlock validation proves no
    /// writer ran during the probe. A table that cannot probe under a
    /// racing writer bails on every call; a
    /// [`DynamicTable`](crate::DynamicTable) bails when a generation it
    /// publishes does, so a scheme switch may gain or lose the path.
    ///
    /// # Safety
    ///
    /// `self` may alias a table that another thread is concurrently
    /// mutating. The caller must
    ///
    /// * only invoke this between a seqlock stamp acquisition and
    ///   validation, and discard the result if validation fails;
    /// * ensure the table outlives the call (the owning shard must not be
    ///   dropped mid-probe);
    /// * when a writer may run concurrently, hold an epoch pin
    ///   ([`crate::epoch`]; the sharded read path takes one per call) for
    ///   the whole call, so a generation a growing table retires mid-probe
    ///   stays allocated.
    ///
    /// Implementations must uphold the soundness rules in the
    /// [module docs](self): in-bounds reads only, capacity-bounded loops,
    /// volatile slot reads, and no dereference of raced data.
    ///
    /// # Panics
    /// Panics if `keys.len() != out.len()`.
    unsafe fn lookup_batch_optimistic(&self, keys: &[u64], out: &mut [Option<u64>]) -> bool {
        let _ = (keys, out);
        false
    }

    /// Bytes held by retired allocations: generations a
    /// [`DynamicTable`](crate::DynamicTable) replaced while a reader pinned
    /// at or below their stamp may still be probing them (0 for tables
    /// that never replace an allocation). Each is freed by the table's
    /// first mutating operation after that pin is released.
    fn retired_bytes(&self) -> usize {
        0
    }
}

/// Boxed views forward through the vtable, mirroring the
/// `impl HashTable for Box<T>` blanket so builder-produced trait objects
/// keep their optimistic path.
impl<T: ReadView + ?Sized> ReadView for Box<T> {
    unsafe fn lookup_batch_optimistic(&self, keys: &[u64], out: &mut [Option<u64>]) -> bool {
        // SAFETY: the caller's contract, passed through to the boxed view.
        unsafe { (**self).lookup_batch_optimistic(keys, out) }
    }

    fn retired_bytes(&self) -> usize {
        (**self).retired_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashTable, InsertOutcome, TableError};

    struct Plain;
    impl ReadView for Plain {}
    impl HashTable for Plain {
        fn insert(&mut self, _k: u64, _v: u64) -> Result<InsertOutcome, TableError> {
            Ok(InsertOutcome::Inserted)
        }
        fn lookup(&self, _k: u64) -> Option<u64> {
            None
        }
        fn delete(&mut self, _k: u64) -> Option<u64> {
            None
        }
        fn len(&self) -> usize {
            0
        }
        fn capacity(&self) -> usize {
            1
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn walk(&self, _: usize, _: &mut dyn FnMut(usize, u64, u64) -> bool) {}
        fn display_name(&self) -> String {
            "Plain".into()
        }
    }

    #[test]
    fn defaults_are_conservative() {
        let p = Plain;
        // SAFETY: the default probe reads nothing.
        assert!(!unsafe { p.lookup_batch_optimistic(&[7], &mut [None]) });
        assert_eq!(p.retired_bytes(), 0);
    }

    #[test]
    fn boxed_view_forwards() {
        let b: Box<dyn HashTable + Send> = Box::new(Plain);
        // SAFETY: the default probe reads nothing.
        assert!(!unsafe { b.lookup_batch_optimistic(&[7], &mut [None]) });
    }
}
