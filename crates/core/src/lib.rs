//! Hashing schemes for 64-bit integer keys and values, as studied in
//! *"A Seven-Dimensional Analysis of Hashing Methods and its Implications on
//! Query Processing"* (Richter, Alvarez, Dittrich; PVLDB 9(3), 2015).
//!
//! # Schemes (paper §2)
//!
//! | Type | Paper name | Collision handling |
//! |---|---|---|
//! | [`ChainedTable8`]  | ChainedH8  | [`Chained`]`<H, Links>`: directory of 8-byte links; all entries in a slab |
//! | [`ChainedTable24`] | ChainedH24 | [`Chained`]`<H, Inline>`: 24-byte directory slots with the first entry inline |
//! | [`LinearProbing`]  | LP | [`OpenAddressing`]`<H, Aos, Linear>`: step 1, optimized tombstones |
//! | [`LinearProbingSoA`] | LP (SoA layout) | [`OpenAddressing`]`<H, Soa, Linear>`: as LP, keys/values in split arrays |
//! | [`QuadraticProbing`] | QP | [`OpenAddressing`]`<H, Aos, Triangular>`: `h + i(i+1)/2`, full slot coverage, always-tombstone deletes |
//! | [`RobinHood`] | RH | [`OpenAddressing`]`<H, Aos, Ordered>`: LP + displacement-ordered clusters, cache-line early abort, backward-shift deletes |
//! | [`Cuckoo`] | CuckooH2/3/4 | k independently hashed sub-tables, kick-out chains, rehash on failure |
//! | [`FingerprintTable`] | FP (beyond the paper) | [`OpenAddressing`]`<H, Soa, Grouped<16>>`: 16-slot groups over a 1-byte tag array, SSE2 group probing |
//!
//! Every scheme is generic over the hash function (see the [`hashfn`]
//! crate), giving the paper's scheme × function grid (e.g. `LPMult` is
//! `LinearProbing<MultShift>`).
//!
//! # Map semantics and reserved keys
//!
//! All tables are maps from `u64` keys to `u64` values: inserting an
//! existing key replaces its value. Open-addressing slots store control
//! values in-band, exactly like the paper's C++ tables, so two keys are
//! reserved: [`EMPTY_KEY`] and [`TOMBSTONE_KEY`]. Inserting them yields
//! [`TableError::ReservedKey`].
//!
//! # Layout
//!
//! Open-addressing tables default to array-of-structs (AoS) — interleaved
//! 16-byte key/value pairs — which the paper found superior in most cases
//! (§7). Layout and probe sequence are independent type parameters of
//! [`OpenAddressing`] ([`open_addressing::Aos`] / [`open_addressing::Soa`]
//! × [`open_addressing::Linear`] / [`open_addressing::Triangular`] /
//! [`open_addressing::Ordered`] / [`open_addressing::Grouped`]);
//! [`LinearProbingSoA`] names the struct-of-arrays cell, and both linear
//! layouts have AVX2-accelerated probing variants (see [`simd`]) used by
//! the Figure 7 reproduction.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod adaptive;
pub mod budget;
pub mod builder;
pub mod chained;
pub mod cuckoo;
pub mod decision;
pub mod dynamic;
pub mod epoch;
pub mod fingerprint;
pub mod linear_probing;
pub mod lp_soa;
pub mod open_addressing;
pub mod optimistic;
pub mod quadratic;
pub mod robin_hood;
pub mod sharded;
pub mod simd;
pub mod stats;

#[cfg(test)]
pub(crate) mod tests_common;

pub use adaptive::AdaptiveConfig;
pub use budget::MemoryBudget;
pub use builder::{profile_choice, BoxedTable, FsyncPolicy, HashKind, TableBuilder, TableScheme};
pub use chained::{Chained, ChainedTable24, ChainedTable8};
pub use cuckoo::Cuckoo;
pub use decision::{recommend, WorkloadProfile};
pub use dynamic::{DynamicTable, GrowthPolicy, TableFactory};
pub use fingerprint::{FingerprintTable, GROUP_SLOTS};
pub use linear_probing::LinearProbing;
pub use lp_soa::LinearProbingSoA;
pub use open_addressing::OpenAddressing;
pub use optimistic::{ReadView, OPTIMISTIC_RETRIES};
pub use quadratic::QuadraticProbing;
pub use robin_hood::RobinHood;
pub use sharded::{Closing, ClosingRule, ConcurrentTable, ShardedTable};
pub use stats::{RuntimeStats, TableStats};

use hashfn::HashFn64;

/// In-band marker for a free open-addressing slot.
///
/// The paper stores "special values denoting whether the corresponding slot
/// is free" directly in the table (§2); we reserve the top two key values
/// for that purpose.
pub const EMPTY_KEY: u64 = u64::MAX;

/// In-band marker for a deleted open-addressing slot (LP/QP tombstones).
pub const TOMBSTONE_KEY: u64 = u64::MAX - 1;

/// Largest key a table accepts (`u64::MAX - 2`).
pub const MAX_KEY: u64 = u64::MAX - 2;

/// Returns `true` for keys that collide with the in-band slot markers.
#[inline(always)]
pub fn is_reserved_key(key: u64) -> bool {
    key >= TOMBSTONE_KEY
}

/// A 16-byte key/value pair — one AoS slot ("similar to a row layout").
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pair {
    /// The key, or [`EMPTY_KEY`] / [`TOMBSTONE_KEY`] for control slots.
    pub key: u64,
    /// The value (meaningless in control slots).
    pub value: u64,
}

const _: () = assert!(std::mem::size_of::<Pair>() == 16);

impl Pair {
    /// A free slot.
    #[inline(always)]
    pub const fn empty() -> Self {
        Pair { key: EMPTY_KEY, value: 0 }
    }

    /// A tombstone slot.
    #[inline(always)]
    pub const fn tombstone() -> Self {
        Pair { key: TOMBSTONE_KEY, value: 0 }
    }

    /// Whether this slot is free.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.key == EMPTY_KEY
    }

    /// Whether this slot is a tombstone.
    #[inline(always)]
    pub fn is_tombstone(&self) -> bool {
        self.key == TOMBSTONE_KEY
    }

    /// Whether this slot holds a live entry.
    #[inline(always)]
    pub fn is_occupied(&self) -> bool {
        self.key < TOMBSTONE_KEY
    }
}

/// What an insert did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was new; the table grew by one entry.
    Inserted,
    /// The key existed; its previous value is returned.
    Replaced(u64),
}

/// Why an insert was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableError {
    /// Every slot is occupied (open addressing) — the fixed-capacity table
    /// cannot take another distinct key.
    TableFull,
    /// The key collides with an in-band control value
    /// ([`EMPTY_KEY`] / [`TOMBSTONE_KEY`]).
    ReservedKey,
    /// A chained table would exceed its memory budget (paper §4.5) by
    /// allocating another entry.
    MemoryBudgetExceeded,
    /// Cuckoo insertion failed: a kick chain hit its limit, and none of the
    /// configured number of fresh tables (each with newly drawn hash
    /// functions) took every entry.
    CuckooFailure,
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::TableFull => write!(f, "hash table is full"),
            TableError::ReservedKey => {
                write!(f, "key collides with reserved control value (u64::MAX or u64::MAX-1)")
            }
            TableError::MemoryBudgetExceeded => {
                write!(f, "chained table memory budget exceeded")
            }
            TableError::CuckooFailure => {
                write!(f, "cuckoo insertion failed after maximum rehash attempts")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Common interface of all hash tables in the study.
///
/// The trait is deliberately narrow — exactly the operations the paper's
/// workloads exercise — so the workload drivers and the query-processing
/// layer stay generic over scheme × hash function.
///
/// # Batch operations
///
/// Query processing feeds tables keys in bulk (join probes, group-by
/// updates), so every operation also exists in a `*_batch` form that is
/// **semantically identical** to calling the single-key form element by
/// element, in order. The read and delete defaults are exactly that loop;
/// the open-addressing and cuckoo tables override them with a two-pass
/// hash-then-probe implementation that precomputes candidate slots and
/// issues software prefetches so independent cache misses overlap (see
/// [`simd::prefetch_read`]).
///
/// Writes have one batched form, [`HashTable::upsert_batch`], which every
/// table implements: a group-by's update (insert, or fold into the present
/// value) in one probe per item. [`HashTable::insert_batch`] is its
/// keep-new case, so each table has one batched write path.
///
/// # Optimistic reads
///
/// [`ReadView`] is a supertrait: every table also
/// describes its lock-free read capability. The defaults are
/// conservative (no optimistic support — all reads go through locks), so
/// a scheme opts in by overriding the `ReadView` methods; see the
/// [`optimistic`] module for the protocol and soundness rules.
pub trait HashTable: optimistic::ReadView {
    /// Insert or update `key → value`.
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError>;

    /// Look up `key`, returning its value if present.
    fn lookup(&self, key: u64) -> Option<u64>;

    /// Look up `key` and also report how many probe steps the scheme
    /// examined: slots for the linearly addressed schemes, but groups (one
    /// tag scan each) for the fingerprint table. The unit is scheme-relative
    /// (compare against the *same* scheme's steady state only).
    ///
    /// An instrumented probe for measurement, not for the serving path:
    /// the benchmark's exact `core.kernel.probes_per_hit` and
    /// `probes_per_miss` counts come from it. The default reports one step
    /// for schemes without an instrumented probe path.
    fn lookup_probed(&self, key: u64) -> (Option<u64>, usize) {
        (self.lookup(key), 1)
    }

    /// Remove `key`, returning its value if it was present.
    fn delete(&mut self, key: u64) -> Option<u64>;

    /// Look up `keys[i]` into `out[i]` for every `i`, exactly as if
    /// [`HashTable::lookup`] had been called element by element.
    ///
    /// # Panics
    /// Panics if `keys.len() != out.len()`.
    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        assert_eq!(keys.len(), out.len(), "lookup_batch: keys and out lengths differ");
        for (o, &k) in out.iter_mut().zip(keys) {
            *o = self.lookup(k);
        }
    }

    /// Insert every `(key, value)` of `items` in order, recording each
    /// outcome in `out[i]`, exactly as if [`HashTable::insert`] had been
    /// called element by element (later elements still run after an
    /// earlier element fails): the [`HashTable::upsert_batch`] that keeps
    /// the new value.
    ///
    /// # Panics
    /// Panics if `items.len() != out.len()`.
    fn insert_batch(
        &mut self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        self.upsert_batch(items, &|_, v| v, out)
    }

    /// Delete `keys[i]` into `out[i]` for every `i`, exactly as if
    /// [`HashTable::delete`] had been called element by element.
    ///
    /// # Panics
    /// Panics if `keys.len() != out.len()`.
    fn delete_batch(&mut self, keys: &[u64], out: &mut [Option<u64>]) {
        assert_eq!(keys.len(), out.len(), "delete_batch: keys and out lengths differ");
        for (o, &k) in out.iter_mut().zip(keys) {
            *o = self.delete(k);
        }
    }

    /// Upsert every `(key, value)` of `items` in order, recording each
    /// outcome in `out[i]`: if `key` is present with value `old`, store
    /// `combine(old, value)` and report [`InsertOutcome::Replaced`]`(old)`;
    /// otherwise store `value` and report [`InsertOutcome::Inserted`].
    /// Element-wise, the same as [`HashTable::lookup`] followed by
    /// [`HashTable::insert`], but in one probe per item (later elements
    /// still run after an earlier element fails; a reserved key is
    /// refused and changes nothing).
    ///
    /// # Panics
    /// Panics if `items.len() != out.len()`.
    fn upsert_batch(
        &mut self,
        items: &[(u64, u64)],
        combine: &dyn Fn(u64, u64) -> u64,
        out: &mut [Result<InsertOutcome, TableError>],
    );

    /// Number of live entries.
    fn len(&self) -> usize;

    /// `len() == 0`.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Nominal slot capacity: `l` for open addressing; for chained tables,
    /// the open-addressing-equivalent capacity they are budgeted against
    /// (falling back to the directory size for unbudgeted tables).
    fn capacity(&self) -> usize;

    /// `len() / capacity()` — the paper's α (only meaningful for chained
    /// tables in the budgeted sense, see §4.5).
    fn load_factor(&self) -> f64 {
        self.len() as f64 / self.capacity() as f64
    }

    /// Bytes owned by the table (directory + slabs + auxiliary arrays),
    /// the quantity plotted in the paper's Figure 3 / Figure 5(d–f).
    fn memory_bytes(&self) -> usize;

    /// Visit the live entries of units `from..` in unit order, passing
    /// each entry's unit, key and value to `f`; stop as soon as `f`
    /// returns `false`. A unit is a slot for open addressing and cuckoo,
    /// a directory bucket for chained tables, and a part for the wrappers
    /// (a shard of [`ShardedTable`], a generation of [`DynamicTable`]:
    /// 0 the current one, 1 the draining one). Order within a unit is
    /// unspecified.
    ///
    /// The walk is resumable: resuming at a unit visits whatever that
    /// unit still holds. So a caller that stops a walk, deletes the
    /// entries it was shown, and resumes at the first unit it visited
    /// meets every remaining entry exactly once: deletes that move
    /// entries (Robin Hood's backward shift, a chained bucket promoting
    /// its overflow) move none to a unit before the first one a deleted
    /// entry occupied. This is how a draining generation is read in place.
    fn walk(&self, from: usize, f: &mut dyn FnMut(usize, u64, u64) -> bool);

    /// Visit every live entry: [`HashTable::walk`] from unit 0.
    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        self.walk(0, &mut |_, k, v| {
            f(k, v);
            true
        })
    }

    /// Display name in the paper's naming style, e.g. `"LPMult"`.
    fn display_name(&self) -> String;

    /// Live runtime signals ([`stats::TableStats`]), if this table collects
    /// them. Plain schemes return `None` — only the wrappers that own a
    /// [`stats::RuntimeStats`] (the dynamic/migrating table, and sharded
    /// aggregation on top) report here, so the raw probe kernels stay
    /// counter-free.
    fn table_stats(&self) -> Option<stats::TableStats> {
        None
    }
}

/// Boxed tables are tables: every method some table overrides — including
/// the batch forms, so a `Box<dyn HashTable>` still reaches the
/// prefetching kernels through the vtable — delegates to the boxed value;
/// the rest (`insert_batch` over the forwarded `upsert_batch`, `is_empty`,
/// `load_factor`, `for_each`) are the provided ones. This is what lets
/// [`TableBuilder`]-built trait objects flow through every generic
/// workload driver unchanged.
impl<T: HashTable + ?Sized> HashTable for Box<T> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        (**self).insert(key, value)
    }

    fn lookup(&self, key: u64) -> Option<u64> {
        (**self).lookup(key)
    }

    fn lookup_probed(&self, key: u64) -> (Option<u64>, usize) {
        (**self).lookup_probed(key)
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        (**self).delete(key)
    }

    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        (**self).lookup_batch(keys, out)
    }

    fn delete_batch(&mut self, keys: &[u64], out: &mut [Option<u64>]) {
        (**self).delete_batch(keys, out)
    }

    fn upsert_batch(
        &mut self,
        items: &[(u64, u64)],
        combine: &dyn Fn(u64, u64) -> u64,
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        (**self).upsert_batch(items, combine, out)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn capacity(&self) -> usize {
        (**self).capacity()
    }

    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    fn walk(&self, from: usize, f: &mut dyn FnMut(usize, u64, u64) -> bool) {
        (**self).walk(from, f)
    }

    fn display_name(&self) -> String {
        (**self).display_name()
    }

    fn table_stats(&self) -> Option<stats::TableStats> {
        (**self).table_stats()
    }
}

/// [`HashTable::walk`] over all of `part` as unit `unit` of a wrapper
/// whose units are its parts. Returns `false` once `f` stopped the walk.
pub(crate) fn walk_part<T: HashTable + ?Sized>(
    part: &T,
    unit: usize,
    f: &mut dyn FnMut(usize, u64, u64) -> bool,
) -> bool {
    let mut more = true;
    part.walk(0, &mut |_, k, v| {
        more = f(unit, k, v);
        more
    });
    more
}

/// Most pairs one [`walk_runs`] run holds: four
/// [`PREFETCH_BATCH`](simd::PREFETCH_BATCH) windows of a batch kernel.
pub const WALK_RUN: usize = 64;

/// Walk every entry of `table` in runs of up to [`WALK_RUN`] pairs
/// gathered on the stack, handing each run to `f`: how a batch kernel
/// (`insert_batch`, `upsert_batch`) takes in a whole table without a copy
/// of it. The first error `f` returns stops the walk and is returned.
pub fn walk_runs<T: HashTable + ?Sized>(
    table: &T,
    mut f: impl FnMut(&[(u64, u64)]) -> Result<(), TableError>,
) -> Result<(), TableError> {
    let (mut run, mut n, mut result) = ([(0u64, 0u64); WALK_RUN], 0, Ok(()));
    table.walk(0, &mut |_, key, value| {
        (run[n], n) = ((key, value), n + 1);
        if n == WALK_RUN {
            (n, result) = (0, f(&run));
        }
        result.is_ok()
    });
    result.and_then(|()| f(&run[..n]))
}

/// Derive the home slot of `key` in a `2^bits`-slot table using hash
/// function `h` (top-bits convention, see [`hashfn::fold_to_bits`]).
#[inline(always)]
pub fn home_slot<H: HashFn64>(h: &H, key: u64, bits: u8) -> usize {
    hashfn::fold_to_bits(h.hash(key), bits)
}

/// Validate a capacity expressed as a power-of-two exponent.
///
/// Exponents up to 32 (4 Gi slots) are accepted; the paper's largest table
/// is 2^30.
#[inline]
pub(crate) fn check_capacity_bits(bits: u8) -> usize {
    assert!((1..=32).contains(&bits), "capacity bits must be in 1..=32, got {bits}");
    1usize << bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_key_predicate() {
        assert!(is_reserved_key(EMPTY_KEY));
        assert!(is_reserved_key(TOMBSTONE_KEY));
        assert!(!is_reserved_key(MAX_KEY));
        assert!(!is_reserved_key(0));
    }

    #[test]
    fn pair_slot_states_are_disjoint() {
        let e = Pair::empty();
        let t = Pair::tombstone();
        let o = Pair { key: 42, value: 7 };
        assert!(e.is_empty() && !e.is_tombstone() && !e.is_occupied());
        assert!(!t.is_empty() && t.is_tombstone() && !t.is_occupied());
        assert!(!o.is_empty() && !o.is_tombstone() && o.is_occupied());
    }

    #[test]
    #[should_panic(expected = "capacity bits")]
    fn zero_capacity_bits_rejected() {
        check_capacity_bits(0);
    }

    #[test]
    fn error_display_strings() {
        assert!(TableError::TableFull.to_string().contains("full"));
        assert!(TableError::ReservedKey.to_string().contains("reserved"));
        assert!(TableError::MemoryBudgetExceeded.to_string().contains("budget"));
        assert!(TableError::CuckooFailure.to_string().contains("cuckoo"));
    }
}
