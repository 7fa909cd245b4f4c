//! Sharded concurrent tables: one logical map, `2^k` independently locked
//! sub-tables.
//!
//! The paper's read/write-ratio and table-size dimensions (§5, §6) stop at
//! a single core. [`ShardedTable`] takes any scheme × hash variant across
//! that boundary by partitioning the key space into `N = 2^k` **shards**,
//! each a complete table of its own behind a [`Mutex`]: operations on
//! different shards proceed in parallel, and operations on the same shard
//! serialize exactly as they would on one table. The literature motivates
//! both halves of the design — per-partition buffering of updates beats
//! per-key access (*Dynamic External Hashing: The Limit of Buffering*),
//! and splitting one logical table into cooperating sub-tables is the
//! multilevel-table idea (*The Usefulness of Multilevel Hash Tables with
//! Multiple Hash Functions*).
//!
//! # Shard selection vs. table bits
//!
//! A key's shard is chosen by the **high bits of an independent selector
//! hash** (a dedicated Murmur finalizer, salted so it can never coincide
//! with a shard's own hash function): `shard = selector(key) >> (64 - k)`.
//! Independence matters: every table in this crate also consumes the *top*
//! bits of its own hash to pick the home slot, so reusing the table hash
//! for shard selection would pin each shard's keys to a `1/N` stripe of
//! its slots. With an independent selector, a sharded table built from a
//! `2^bits` description gives each shard `2^(bits - k)` slots and the
//! same expected load factor as the unsharded table.
//!
//! # Optimistic (lock-free) reads
//!
//! Each shard pairs its mutex with a **seqlock generation counter**:
//! writers make the counter odd on entry and even again on exit, so an
//! even, unchanged counter brackets a quiescent window. Pure readers
//! ([`ConcurrentTable::lookup_shared`] and the per-shard sub-batches of
//! [`ConcurrentTable::lookup_batch_shared`]) first probe **without the
//! mutex** through the table's [`ReadView`], then accept the answer only
//! if the counter was even before the probe and unchanged after it — a
//! probe that raced a writer is discarded and retried up to
//! [`OPTIMISTIC_RETRIES`] times before falling back to the lock. Each read
//! call first pins the epoch once ([`crate::epoch`]), so a generation a
//! growing shard retires mid-probe stays allocated until the call
//! returns; a call that finds every epoch slot busy reads under the locks.
//! Tables that cannot probe safely under a racing writer bail out of
//! [`ReadView::lookup_batch_optimistic`] and keep the locked path. See
//! [`crate::optimistic`] for the soundness rules and the memory-ordering
//! argument, and [`ShardedTable::set_optimistic_reads`] for the toggle.
//!
//! # Interaction with [`DynamicTable`](crate::DynamicTable) growth
//!
//! When a [`TableBuilder`](crate::TableBuilder) description carries both
//! `.shards(k)` and `.grow_at(t)`, each shard is its *own*
//! [`DynamicTable`](crate::DynamicTable): a shard that crosses its load
//! threshold doubles and rehashes **only its `1/N` of the keys** while
//! the other shards keep serving — the pause per rehash shrinks by the
//! shard count. Adding
//! [`TableBuilder::incremental`](crate::TableBuilder::incremental)
//! removes even that per-shard pause: each shard then migrates its
//! doubling a bounded number of entries per operation
//! ([`GrowthPolicy::Incremental`](crate::GrowthPolicy)), so no operation
//! anywhere in the table ever waits for a rehash. The shard count itself
//! never changes after construction (the selector bits are fixed), so
//! shard routing stays valid across any number of per-shard growth
//! steps.
//!
//! # Batch routing
//!
//! The `*_batch` operations radix-partition each batch by shard (one
//! stable counting sort; the selector hash is computed once per element
//! and cached for the scatter pass), run one sub-batch per shard —
//! preserving the per-shard hash-then-prefetch path of the underlying
//! tables — and scatter results back to the caller's element order.
//! Scratch buffers for the partition are pooled and reused across calls
//! (the pool is bounded, and buffers grown by an outlier batch are
//! trimmed on return), so steady-state batches allocate nothing. Because
//! a key always routes to the same shard and the partition is stable,
//! every element observes exactly the state it would have observed under
//! in-order execution: batch results are element-wise identical to the
//! single-key loop, as the [`HashTable`] contract requires.

use crate::epoch;
use crate::optimistic::{ReadView, OPTIMISTIC_RETRIES};
use crate::{HashTable, InsertOutcome, TableError};
use hashfn::{fold_to_bits, HashFamily, HashFn64, Murmur};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Salt folded into the selector seed so the shard selector is never the
/// same function as any shard's table hash.
const SELECTOR_SALT: u64 = 0x5AA2_D5E1_EC70_25AB;

/// Scratch buffers kept pooled per table. Beyond this, returned scratch
/// is dropped: steady state needs one scratch per concurrently in-flight
/// batch, and more threads than this contend on the shard locks long
/// before they contend on the pool.
const SCRATCH_POOL_CAP: usize = 8;

/// Largest per-buffer element capacity a pooled scratch may keep. One
/// outlier batch (say a 10M-row join build) would otherwise pin its
/// buffers in the pool forever; trimming on return caps the steady-state
/// pool footprint while keeping every common batch size allocation-free.
const SCRATCH_RETAIN_ELEMS: usize = 4096;

/// Operations a table offers to concurrent callers through a shared
/// reference. [`ShardedTable`] implements this by locking only the shards
/// an operation touches; threads working disjoint shards never contend.
///
/// Semantics match the corresponding [`HashTable`] methods except for
/// cross-thread ordering: concurrent calls from different threads are
/// linearized per shard in lock-acquisition order (reads that commit on
/// the optimistic path linearize at their validation point: the counter
/// check proves no writer ran during the probe, so the answer equals the
/// one the lock would have produced at that instant).
pub trait ConcurrentTable: Send + Sync {
    /// [`HashTable::insert`] through a shared reference.
    fn insert_shared(&self, key: u64, value: u64) -> Result<InsertOutcome, TableError>;

    /// [`HashTable::lookup`] through a shared reference.
    fn lookup_shared(&self, key: u64) -> Option<u64>;

    /// [`HashTable::delete`] through a shared reference.
    fn delete_shared(&self, key: u64) -> Option<u64>;

    /// [`HashTable::lookup_batch`] through a shared reference.
    fn lookup_batch_shared(&self, keys: &[u64], out: &mut [Option<u64>]);

    /// [`HashTable::insert_batch`] through a shared reference.
    fn insert_batch_shared(
        &self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    );

    /// [`HashTable::delete_batch`] through a shared reference.
    fn delete_batch_shared(&self, keys: &[u64], out: &mut [Option<u64>]);

    /// [`ConcurrentTable::insert_batch_shared`] with the durability wait
    /// split off: the batch is applied and its outcomes are final when
    /// this returns, but a table that logs its mutations may not have
    /// logged them yet. Returns whether a flush is **owed**: `true` means
    /// the caller must not acknowledge the batch to anyone until a later
    /// [`ConcurrentTable::flush_shared`] has returned. A caller with
    /// several batches in hand (a server worker with several connections
    /// readable in one turn) issues them all and pays one flush — one
    /// device wait — for the lot.
    ///
    /// The default is the blocking form, which owes nothing; only a
    /// logging wrapper overrides it.
    fn insert_batch_deferred(
        &self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) -> bool {
        self.insert_batch_shared(items, out);
        false
    }

    /// [`ConcurrentTable::delete_batch_shared`] with the durability wait
    /// split off; see [`ConcurrentTable::insert_batch_deferred`].
    fn delete_batch_deferred(&self, keys: &[u64], out: &mut [Option<u64>]) -> bool {
        self.delete_batch_shared(keys, out);
        false
    }

    /// Block until every mutation issued through a `*_deferred` call that
    /// returned before this call began is as durable as the table's
    /// policy asks. The fence is the table's, not the thread's: it covers
    /// what *any* thread deferred before the call, so it needs no
    /// per-caller state. Nothing to do — the default — for a table whose
    /// deferred calls never owe a flush.
    fn flush_shared(&self) {}

    /// [`HashTable::len`] through a shared reference.
    fn len_shared(&self) -> usize;

    /// Visit every live entry through a shared reference — the snapshot /
    /// migration iteration primitive. [`ShardedTable`] walks one shard at
    /// a time (via [`ShardedTable::for_each_shard`]), holding only that
    /// shard's lock for the duration of its scan, so mutations to every
    /// other shard proceed concurrently: iteration never stops the world.
    /// On a growing shard ([`DynamicTable`](crate::DynamicTable)) both
    /// generations are visited, so entries mid-migration are not missed.
    ///
    /// The visit is *per-shard consistent*, not a global atomic view:
    /// entries mutated concurrently in a not-yet-visited shard may or may
    /// not be observed, but every `(key, value)` passed to `f` was live at
    /// the moment its shard was scanned.
    fn for_each_shared(&self, f: &mut dyn FnMut(u64, u64));

    /// Merged runtime statistics ([`crate::TableStats`]) through a shared
    /// reference — every counter summed over shards. Defaults to zeros
    /// for tables that do not track
    /// runtime stats (only [`DynamicTable`](crate::DynamicTable)-wrapped
    /// shards do). Lookups are counted once per per-shard sub-batch on
    /// the locked and the lock-free path alike (relaxed atomics, so a
    /// lock-free reader writing them races nothing); an optimistic attempt
    /// that the seqlock rejects was already counted and is counted again
    /// by its retry, so under write contention `lookups` can overstate.
    /// Mutations always lock, so write counts are exact.
    fn stats_shared(&self) -> crate::TableStats {
        crate::TableStats::default()
    }
}

/// What a flush that could cover more than one writer does about the
/// writers it expects, as [`ClosingRule::closing`] decides it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Closing {
    /// Nobody is missing: flush now.
    Close,
    /// An expected writer has not come yet and the bound has time left.
    Wait,
    /// An expected writer has not come and the bound has run out.
    Expired,
}

/// The closing rule of group commit, for any kind of writer `W`, and what
/// it remembers between flushes: who rode each of the last two, and what a
/// flush has been costing.
///
/// Two closed-loop writers never share a flush on their own — the first to
/// arrive starts its flush before the second has staged, the second then
/// flushes alone, and they alternate for ever at one batch per flush. So a
/// flush is held open for every writer that rode either of the last two
/// flushes until it has come again, but for no longer than half of what a
/// flush costs: a wait that long costs less than the second flush it
/// saves. A lone writer expects nobody; a device that costs nothing bounds
/// the wait at nothing; a writer that stops coming drops out after two
/// flushes. There is nothing to configure — the bound is measured.
///
/// Two committers keep one each: a logging table's group leader, whose
/// writers are threads, and a KV server worker's turn, whose writers are
/// its connections (two connections on one worker are one thread to the
/// table, so only the worker can merge them).
#[derive(Clone, Debug)]
pub struct ClosingRule<W> {
    /// Who rode each of the last two flushes, newest first.
    riders: [Vec<W>; 2],
    /// Running mean (weight 1/8 on the newest) of what a flush has cost.
    mean_cost: Duration,
}

impl<W> Default for ClosingRule<W> {
    fn default() -> Self {
        Self { riders: Default::default(), mean_cost: Duration::ZERO }
    }
}

impl<W> ClosingRule<W> {
    /// Whether to flush now: wait while a recent rider has not `came` and
    /// the flush has `waited` less than half its mean cost.
    pub fn closing(&self, came: impl Fn(&W) -> bool, waited: Duration) -> Closing {
        if self.riders.iter().flatten().all(came) {
            Closing::Close
        } else if waited < self.mean_cost / 2 {
            Closing::Wait
        } else {
            Closing::Expired
        }
    }

    /// A flush that covered `riders` has returned after `cost`: they are
    /// the newest riders, and the oldest are forgotten.
    pub fn flushed(&mut self, riders: impl IntoIterator<Item = W>, cost: Duration) {
        self.riders.swap(0, 1);
        self.riders[0].clear();
        self.riders[0].extend(riders);
        self.mean_cost =
            if self.mean_cost.is_zero() { cost } else { (self.mean_cost * 7 + cost) / 8 };
    }
}

/// One shard: a table plus the two halves of its synchronization — the
/// mutex every mutation (and locked read) takes, and the seqlock
/// generation counter that lets optimistic readers skip the mutex.
///
/// The table lives in an [`UnsafeCell`] because optimistic readers take
/// `&T` while a writer may hold `&mut T`: exactly the aliasing a seqlock
/// is designed to make harmless (reads are volatile, results are
/// discarded unless the counter proves the race did not happen — see
/// [`crate::optimistic`]).
struct Shard<T> {
    /// Generation counter: even = stable, odd = writer in its critical
    /// section. Writers bump it on entry (`AcqRel`) and exit (`Release`).
    seq: AtomicU64,
    lock: Mutex<()>,
    data: UnsafeCell<T>,
}

/// SAFETY: all `&mut` access to `data` goes through the mutex
/// ([`Shard::write`]); shared access is either mutex-protected
/// ([`Shard::read_locked`]) or an optimistic probe whose result is
/// discarded unless the generation counter proves no writer ran
/// ([`ReadView::lookup_batch_optimistic`]'s contract).
unsafe impl<T: Send> Sync for Shard<T> {}

impl<T: HashTable> Shard<T> {
    fn new(data: T) -> Self {
        Self { seq: AtomicU64::new(0), lock: Mutex::new(()), data: UnsafeCell::new(data) }
    }

    /// Locked shared access. Leaves the generation counter untouched:
    /// locked readers don't invalidate concurrent optimistic readers.
    fn read_locked(&self) -> ReadGuard<'_, T> {
        let guard = lock(&self.lock);
        // SAFETY: the mutex is held, so no writer (which also takes the
        // mutex) can hold `&mut` to the table for the guard's lifetime.
        ReadGuard { _lock: guard, data: unsafe { &*self.data.get() } }
    }

    /// Locked exclusive access, bracketed by the generation counter: odd
    /// on entry, even again when the guard drops — including on unwind,
    /// so a panicking writer cannot wedge readers on a stale-but-even
    /// stamp that validates a torn probe.
    fn write(&self) -> WriteGuard<'_, T> {
        let guard = lock(&self.lock);
        let prev = self.seq.fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev & 1 == 0, "writer entered with an odd generation counter");
        WriteGuard { shard: self, _lock: guard }
    }

    /// One bounded run of optimistic attempts at a sub-batch: probe it under
    /// one stamp — one [`ReadView`] call — and validate once. `true` means
    /// `out` holds *validated* answers (as good as locked reads); `false`
    /// (with `out` in an unspecified state) means the caller must redo the
    /// sub-batch under the lock — the probe bailed (the table cannot
    /// probe lock-free) or a writer raced every attempt. The
    /// caller's epoch pin keeps every generation the probe can reach
    /// allocated (see [`crate::epoch`]).
    fn try_optimistic_batch(
        &self,
        _pin: &epoch::Guard,
        keys: &[u64],
        out: &mut [Option<u64>],
    ) -> bool {
        // SAFETY: the shard outlives this call, so the reference never
        // dangles, and it serves nothing but the `ReadView` probe below,
        // whose contract tolerates a racing writer. It is not aliasing-clean:
        // a writer may hold `&mut` to the same table while it lives, which
        // the seqlock tolerates in practice but Rust's rules do not allow.
        let data = unsafe { &*self.data.get() };
        for _ in 0..OPTIMISTIC_RETRIES {
            let stamp = self.seq.load(Ordering::Acquire);
            if stamp & 1 == 1 {
                continue; // writer mid-flight; this attempt is spent
            }
            // SAFETY: the probe tolerates a racing writer (the ReadView
            // contract); its answers are discarded unless validation below
            // proves the race did not happen. The shard outlives the call,
            // and the pin keeps every generation it publishes allocated.
            if !unsafe { data.lookup_batch_optimistic(keys, out) } {
                return false; // table-level bail: the lock is the only path
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == stamp {
                return true;
            }
        }
        false
    }

    /// The one-key case of [`Shard::try_optimistic_batch`]: `Some(answer)`
    /// is validated, `None` sends the caller to the lock.
    fn try_optimistic_lookup(&self, pin: &epoch::Guard, key: u64) -> Option<Option<u64>> {
        let mut out = [None];
        self.try_optimistic_batch(pin, &[key], &mut out).then_some(out[0])
    }
}

/// Locked shared access to a shard's table (see [`Shard::read_locked`]).
struct ReadGuard<'a, T> {
    _lock: MutexGuard<'a, ()>,
    data: &'a T,
}

impl<T> Deref for ReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.data
    }
}

/// Locked exclusive access to a shard's table, seqlock-bracketed (see
/// [`Shard::write`]).
struct WriteGuard<'a, T> {
    shard: &'a Shard<T>,
    _lock: MutexGuard<'a, ()>,
}

impl<T> Deref for WriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard holds the shard mutex.
        unsafe { &*self.shard.data.get() }
    }
}

impl<T> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the shard mutex, and optimistic readers
        // never trust data read while the counter is odd.
        unsafe { &mut *self.shard.data.get() }
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    fn drop(&mut self) {
        self.shard.seq.fetch_add(1, Ordering::Release);
    }
}

/// Reusable buffers for one in-flight batch partition. Pooled on the
/// table so repeated batch calls — including concurrent ones, each
/// holding its own scratch — stop allocating after warm-up.
#[derive(Default)]
struct Scratch {
    /// Original index of the element at each partitioned position.
    perm: Vec<u32>,
    /// Shard id of each element, computed once in the counting pass and
    /// reused by the scatter pass (`shard_bits ≤ 8`, so a `u8` holds it).
    shard_ids: Vec<u8>,
    /// Per-shard sub-range starts (`num_shards + 1` entries).
    starts: Vec<usize>,
    /// Scatter cursors (reset from `starts` per batch).
    cursor: Vec<usize>,
    /// Keys in partitioned order.
    keys: Vec<u64>,
    /// Items in partitioned order (insert batches).
    items: Vec<(u64, u64)>,
    /// Value results in partitioned order.
    values: Vec<Option<u64>>,
    /// Insert outcomes in partitioned order.
    outcomes: Vec<Result<InsertOutcome, TableError>>,
}

impl Scratch {
    /// Trim any buffer an outlier batch grew beyond `max_elems` elements
    /// so the pool's steady-state footprint stays bounded. The buffers'
    /// *contents* are per-batch state, so clearing before shrinking loses
    /// nothing.
    fn trim(&mut self, max_elems: usize) {
        fn trim_vec<T>(v: &mut Vec<T>, max_elems: usize) {
            if v.capacity() > max_elems {
                v.clear();
                v.shrink_to(max_elems);
            }
        }
        trim_vec(&mut self.perm, max_elems);
        trim_vec(&mut self.shard_ids, max_elems);
        trim_vec(&mut self.starts, max_elems);
        trim_vec(&mut self.cursor, max_elems);
        trim_vec(&mut self.keys, max_elems);
        trim_vec(&mut self.items, max_elems);
        trim_vec(&mut self.values, max_elems);
        trim_vec(&mut self.outcomes, max_elems);
    }
}

/// A pooled [`Scratch`] on loan to one batch call. Returning it to the
/// pool lives in `Drop`, so a panicking shard sub-batch (e.g. a poisoned
/// allocator deep in a chained table) can't leak the buffers — before
/// this guard existed, every in-flight scratch of a panicking batch was
/// simply lost.
struct ScratchGuard<'a, T: HashTable> {
    table: &'a ShardedTable<T>,
    scratch: Option<Scratch>,
}

impl<T: HashTable> Deref for ScratchGuard<'_, T> {
    type Target = Scratch;

    fn deref(&self) -> &Scratch {
        self.scratch.as_ref().expect("scratch taken")
    }
}

impl<T: HashTable> DerefMut for ScratchGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.scratch.as_mut().expect("scratch taken")
    }
}

impl<T: HashTable> Drop for ScratchGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.table.put_scratch(scratch);
        }
    }
}

/// A hash table sharded into `2^k` independently locked sub-tables. See
/// the [module docs](self) for the design.
///
/// `ShardedTable` implements [`HashTable`], so it flows through every
/// generic consumer (workload drivers, `hash_join`, `group_aggregate`)
/// unchanged, and [`ConcurrentTable`], which exposes the same operations
/// through `&self` for multi-threaded callers.
pub struct ShardedTable<T: HashTable> {
    shards: Box<[Shard<T>]>,
    shard_bits: u8,
    selector: Murmur,
    /// Whether pure reads may use the lock-free seqlock path (on by
    /// default; the locked path is always the fallback).
    optimistic: bool,
    scratch_pool: Mutex<Vec<Scratch>>,
}

impl<T: HashTable> ShardedTable<T> {
    /// Build a table of `2^shard_bits` shards; `make_shard(i)` supplies
    /// shard `i`. The selector hash is derived from `seed` (salted, so it
    /// differs from any table hash drawn from the same seed).
    ///
    /// `shard_bits` up to 8 (256 shards) are accepted; `0` degenerates to
    /// a single-shard table, useful as a mutex-protected table.
    pub fn new(shard_bits: u8, seed: u64, mut make_shard: impl FnMut(usize) -> T) -> Self {
        Self::try_new(shard_bits, seed, |i| Ok(make_shard(i)))
            .expect("an infallible shard factory cannot refuse a shard")
    }

    /// Fallible twin of [`ShardedTable::new`] for factories that can
    /// refuse a shard (e.g. an infeasible chained memory budget).
    pub fn try_new(
        shard_bits: u8,
        seed: u64,
        mut make_shard: impl FnMut(usize) -> Result<T, TableError>,
    ) -> Result<Self, TableError> {
        assert!(shard_bits <= 8, "shard bits must be in 0..=8, got {shard_bits}");
        let n = 1usize << shard_bits;
        let shards: Result<Box<[Shard<T>]>, TableError> =
            (0..n).map(|i| make_shard(i).map(Shard::new)).collect();
        Ok(Self {
            shards: shards?,
            shard_bits,
            selector: Murmur::from_seed(seed ^ SELECTOR_SALT),
            optimistic: true,
            scratch_pool: Mutex::new(Vec::new()),
        })
    }

    /// Number of shards (`2^shard_bits`).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard-count exponent `k`.
    pub fn shard_bits(&self) -> u8 {
        self.shard_bits
    }

    /// Enable or disable the lock-free read path (enabled by default).
    ///
    /// Disabling routes every read through the shard mutex — useful as a
    /// baseline in benchmarks and as a big hammer when debugging. Takes
    /// `&mut self`: flipping the flag mid-read would be harmless (the
    /// locked path is always correct) but racy flips make benchmarks
    /// unrepeatable.
    pub fn set_optimistic_reads(&mut self, on: bool) {
        self.optimistic = on;
    }

    /// Whether the lock-free read path is enabled (a shard whose table
    /// bails out of [`ReadView::lookup_batch_optimistic`] still reads
    /// under its lock).
    pub fn optimistic_reads(&self) -> bool {
        self.optimistic
    }

    /// Which shard `key` routes to.
    #[inline(always)]
    pub fn shard_of(&self, key: u64) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            fold_to_bits(self.selector.hash(key), self.shard_bits)
        }
    }

    /// Live entries per shard (locks each shard briefly; a snapshot, not
    /// an atomic view).
    #[cfg(test)]
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read_locked().len()).collect()
    }

    /// Run `f` over a shared reference to each shard in turn (each shard
    /// locked for the duration of its call).
    pub fn for_each_shard(&self, mut f: impl FnMut(usize, &T)) {
        for (i, shard) in self.shards.iter().enumerate() {
            f(i, &shard.read_locked());
        }
    }

    fn take_scratch(&self) -> ScratchGuard<'_, T> {
        let scratch = lock(&self.scratch_pool).pop().unwrap_or_default();
        ScratchGuard { table: self, scratch: Some(scratch) }
    }

    fn put_scratch(&self, mut s: Scratch) {
        let mut pool = lock(&self.scratch_pool);
        if pool.len() >= SCRATCH_POOL_CAP {
            return; // bounded pool: surplus scratch is dropped
        }
        s.trim(SCRATCH_RETAIN_ELEMS);
        pool.push(s);
    }

    /// Stable counting sort of `len` elements into per-shard sub-ranges.
    /// `shard_key(i)` must return the key of element `i`. Fills
    /// `s.perm[pos] = original index` and `s.starts` with the sub-range
    /// boundaries. The selector hash runs once per element: the counting
    /// pass caches each element's shard id and the scatter pass reuses it.
    fn partition(&self, len: usize, s: &mut Scratch, shard_key: impl Fn(usize) -> u64) {
        let n = self.shards.len();
        s.starts.clear();
        s.starts.resize(n + 1, 0);
        s.perm.clear();
        s.perm.resize(len, 0);
        // Pass 1: count per shard (starts[shard + 1] accumulates), caching
        // the shard ids.
        s.shard_ids.clear();
        s.shard_ids.reserve(len);
        for i in 0..len {
            let shard = self.shard_of(shard_key(i)) as u8;
            s.shard_ids.push(shard);
            s.starts[shard as usize + 1] += 1;
        }
        for shard in 0..n {
            s.starts[shard + 1] += s.starts[shard];
        }
        // Pass 2: stable scatter of indices, from the cached ids.
        s.cursor.clear();
        s.cursor.extend_from_slice(&s.starts[..n]);
        for (i, &shard) in s.shard_ids.iter().enumerate() {
            s.perm[s.cursor[shard as usize]] = i as u32;
            s.cursor[shard as usize] += 1;
        }
    }

    /// Run one locked sub-batch per non-empty shard.
    fn for_each_subrange(&self, starts: &[usize], mut run: impl FnMut(usize, usize, usize)) {
        for shard in 0..self.shards.len() {
            let (lo, hi) = (starts[shard], starts[shard + 1]);
            if lo < hi {
                run(shard, lo, hi);
            }
        }
    }

    /// Pin the epoch for one read call's optimistic attempts: `None` when
    /// the lock-free path is off or every epoch slot is busy, and the
    /// call then reads under the shard locks.
    fn pin(&self) -> Option<epoch::Guard> {
        if self.optimistic {
            epoch::pin()
        } else {
            None
        }
    }

    /// Look up one per-shard sub-batch: optimistically when pinned, under
    /// the shard lock otherwise (or when validation keeps failing).
    fn lookup_subrange(
        &self,
        pin: Option<&epoch::Guard>,
        shard: usize,
        keys: &[u64],
        out: &mut [Option<u64>],
    ) {
        let shard = &self.shards[shard];
        if pin.is_some_and(|pin| shard.try_optimistic_batch(pin, keys, out)) {
            return;
        }
        shard.read_locked().lookup_batch(keys, out);
    }
}

/// `Mutex::lock` that survives a poisoned lock: the tables hold no
/// invariant that a panicking *reader* could have broken, and a panicked
/// writer aborts the workload anyway — propagating the poison would only
/// turn one thread's panic into everyone's.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<T: HashTable + Send> ConcurrentTable for ShardedTable<T> {
    fn insert_shared(&self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        self.shards[self.shard_of(key)].write().insert(key, value)
    }

    fn lookup_shared(&self, key: u64) -> Option<u64> {
        let shard = &self.shards[self.shard_of(key)];
        if let Some(answer) = self.pin().and_then(|pin| shard.try_optimistic_lookup(&pin, key)) {
            return answer;
        }
        shard.read_locked().lookup(key)
    }

    fn delete_shared(&self, key: u64) -> Option<u64> {
        self.shards[self.shard_of(key)].write().delete(key)
    }

    fn lookup_batch_shared(&self, keys: &[u64], out: &mut [Option<u64>]) {
        assert_eq!(keys.len(), out.len(), "lookup_batch: keys and out lengths differ");
        let pin = self.pin();
        if self.shards.len() == 1 {
            return self.lookup_subrange(pin.as_ref(), 0, keys, out);
        }
        let mut guard = self.take_scratch();
        let s: &mut Scratch = &mut guard;
        self.partition(keys.len(), s, |i| keys[i]);
        s.keys.clear();
        s.keys.extend(s.perm.iter().map(|&p| keys[p as usize]));
        s.values.clear();
        s.values.resize(keys.len(), None);
        self.for_each_subrange(&s.starts, |shard, lo, hi| {
            self.lookup_subrange(pin.as_ref(), shard, &s.keys[lo..hi], &mut s.values[lo..hi]);
        });
        for (&p, &v) in s.perm.iter().zip(&s.values) {
            out[p as usize] = v;
        }
    }

    fn insert_batch_shared(
        &self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        assert_eq!(items.len(), out.len(), "insert_batch: items and out lengths differ");
        if self.shards.len() == 1 {
            return self.shards[0].write().insert_batch(items, out);
        }
        let mut guard = self.take_scratch();
        let s: &mut Scratch = &mut guard;
        self.partition(items.len(), s, |i| items[i].0);
        s.items.clear();
        s.items.extend(s.perm.iter().map(|&p| items[p as usize]));
        s.outcomes.clear();
        s.outcomes.resize(items.len(), Ok(InsertOutcome::Inserted));
        self.for_each_subrange(&s.starts, |shard, lo, hi| {
            self.shards[shard].write().insert_batch(&s.items[lo..hi], &mut s.outcomes[lo..hi]);
        });
        for (&p, &o) in s.perm.iter().zip(&s.outcomes) {
            out[p as usize] = o;
        }
    }

    fn delete_batch_shared(&self, keys: &[u64], out: &mut [Option<u64>]) {
        assert_eq!(keys.len(), out.len(), "delete_batch: keys and out lengths differ");
        if self.shards.len() == 1 {
            return self.shards[0].write().delete_batch(keys, out);
        }
        let mut guard = self.take_scratch();
        let s: &mut Scratch = &mut guard;
        self.partition(keys.len(), s, |i| keys[i]);
        s.keys.clear();
        s.keys.extend(s.perm.iter().map(|&p| keys[p as usize]));
        s.values.clear();
        s.values.resize(keys.len(), None);
        self.for_each_subrange(&s.starts, |shard, lo, hi| {
            self.shards[shard].write().delete_batch(&s.keys[lo..hi], &mut s.values[lo..hi]);
        });
        for (&p, &v) in s.perm.iter().zip(&s.values) {
            out[p as usize] = v;
        }
    }

    fn len_shared(&self) -> usize {
        self.shards.iter().map(|s| s.read_locked().len()).sum()
    }

    fn for_each_shared(&self, f: &mut dyn FnMut(u64, u64)) {
        self.for_each_shard(|_, t| t.for_each(f));
    }

    fn stats_shared(&self) -> crate::TableStats {
        let mut merged = crate::TableStats::default();
        self.for_each_shard(|_, t| {
            if let Some(s) = t.table_stats() {
                merged = merged.merge(&s);
            }
        });
        merged
    }
}

/// The sharded wrapper is itself never a shard, so it keeps the
/// conservative default probe, which bails (optimism happens *per shard*,
/// inside the `ConcurrentTable` methods). Its retired bytes are
/// the shards' sum: generations a pinned lock-free reader may still be
/// probing, each freed by its shard's first mutating operation after the
/// pin is released.
impl<T: HashTable + Send> ReadView for ShardedTable<T> {
    fn retired_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.read_locked().retired_bytes()).sum()
    }
}

/// A sharded table is a table: single-key calls route to one shard, batch
/// calls radix-partition and fan out, aggregates sum over shards. The
/// `&mut self` methods still lock — uncontended locks cost nanoseconds —
/// so the implementation is shared with the [`ConcurrentTable`] path.
impl<T: HashTable + Send> HashTable for ShardedTable<T> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        self.insert_shared(key, value)
    }

    fn lookup(&self, key: u64) -> Option<u64> {
        self.lookup_shared(key)
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        self.delete_shared(key)
    }

    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        self.lookup_batch_shared(keys, out)
    }

    fn insert_batch(
        &mut self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        self.insert_batch_shared(items, out)
    }

    fn delete_batch(&mut self, keys: &[u64], out: &mut [Option<u64>]) {
        self.delete_batch_shared(keys, out)
    }

    fn len(&self) -> usize {
        self.len_shared()
    }

    fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.read_locked().capacity()).sum()
    }

    fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.read_locked().memory_bytes()).sum()
    }

    fn walk(&self, from: usize, f: &mut dyn FnMut(usize, u64, u64) -> bool) {
        for (i, shard) in self.shards.iter().enumerate().skip(from) {
            if !crate::walk_part(&*shard.read_locked(), i, f) {
                return;
            }
        }
    }

    fn display_name(&self) -> String {
        format!("Sharded{}x{}", self.shards.len(), self.shards[0].read_locked().display_name())
    }

    fn table_stats(&self) -> Option<crate::TableStats> {
        let merged = self.stats_shared();
        (merged != crate::TableStats::default()).then_some(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_common::{hold_pin, settle, settle_to};
    use crate::{LinearProbing, RobinHood};
    use hashfn::Murmur as MurmurHash;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sharded_lp(shard_bits: u8) -> ShardedTable<LinearProbing<MurmurHash>> {
        ShardedTable::new(shard_bits, 42, |i| LinearProbing::with_seed(11, 100 + i as u64))
    }

    #[test]
    fn closing_rule_waits_for_recent_riders_and_at_most_half_a_group_cost() {
        use Closing::{Close, Expired, Wait};
        let (none, cost) = (Duration::ZERO, Duration::from_micros(200));
        let half = cost / 2;
        // The rule after flushes of these riders, oldest first, each `cost`.
        let after = |flushes: &[&[u64]], cost| {
            let mut rule = ClosingRule::default();
            flushes.iter().for_each(|riders| rule.flushed(riders.iter().copied(), cost));
            rule
        };
        // Writer 1 is the one that would flush; the others came if staged.
        let came = |staged: &'static [u64]| move |w: &u64| *w == 1 || staged.contains(w);
        // A lone writer never waits, however slow the device: nobody
        // else rode, and it is not missing itself — not even when it
        // flushes without having staged.
        assert_eq!(ClosingRule::default().closing(came(&[1]), none), Close);
        assert_eq!(after(&[&[1], &[1]], cost).closing(came(&[1]), none), Close);
        assert_eq!(after(&[&[1], &[1]], cost).closing(came(&[]), none), Close);
        // A rider of either of the last two flushes is waited for, until
        // it has staged again.
        assert_eq!(after(&[&[1], &[1, 2]], cost).closing(came(&[1]), none), Wait);
        assert_eq!(after(&[&[1, 2], &[1]], cost).closing(came(&[1]), none), Wait);
        assert_eq!(after(&[&[3], &[1, 2]], cost).closing(came(&[1, 2]), none), Wait);
        assert_eq!(after(&[&[3], &[1, 2]], cost).closing(came(&[3, 1, 2]), none), Close);
        // Two flushes without it and it is forgotten.
        assert_eq!(after(&[&[1, 2], &[1], &[1]], cost).closing(came(&[1]), none), Close);
        // The bound is half the mean cost of a flush...
        let rule = after(&[&[1, 2]], cost);
        assert_eq!(rule.closing(came(&[1]), half - Duration::from_nanos(1)), Wait);
        assert_eq!(rule.closing(came(&[1]), half), Expired);
        // ...a mean that gives the newest flush an eighth...
        let rule = after(&[&[1, 2], &[1, 2]], cost);
        let mut slower = rule.clone();
        slower.flushed([1, 2], cost * 9);
        assert_eq!(rule.closing(came(&[1]), half), Expired);
        let almost = cost - Duration::from_nanos(1);
        assert_eq!(slower.closing(came(&[1]), almost), Wait, "mean (7 + 9) / 8 = 2 costs");
        assert_eq!(slower.closing(came(&[1]), cost), Expired);
        // ...so a device that costs nothing is never waited on.
        assert_eq!(after(&[&[1, 2]], none).closing(came(&[1]), none), Expired);
    }

    #[test]
    fn routes_every_key_to_one_fixed_shard() {
        let t = sharded_lp(3);
        assert_eq!(t.num_shards(), 8);
        for key in [0u64, 1, 7, 1 << 40, u64::MAX - 2] {
            let s = t.shard_of(key);
            assert!(s < 8);
            assert_eq!(s, t.shard_of(key), "routing must be deterministic");
        }
    }

    #[test]
    fn shard_distribution_is_roughly_uniform() {
        let mut t = sharded_lp(2);
        for k in 1..=2000u64 {
            t.insert(k, k).unwrap();
        }
        let lens = t.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 2000);
        for (i, &l) in lens.iter().enumerate() {
            assert!((400..=600).contains(&l), "shard {i} holds {l} of 2000 keys");
        }
    }

    #[test]
    fn behaves_like_a_map() {
        let mut t = sharded_lp(2);
        crate::tests_common::check_roundtrip(&mut t);
        let mut t = sharded_lp(2);
        crate::tests_common::check_replace_semantics(&mut t);
        let mut t = sharded_lp(2);
        crate::tests_common::check_reserved_keys(&mut t);
        let mut t = sharded_lp(2);
        crate::tests_common::check_walk(&mut t);
    }

    #[test]
    fn model_test_against_std_hashmap() {
        let mut t = sharded_lp(2);
        crate::tests_common::check_against_model(&mut t, 5000, 0x5AA4D);
    }

    #[test]
    fn batch_ops_match_single_key_path() {
        let mut batched = sharded_lp(3);
        let mut single = sharded_lp(3);
        crate::tests_common::check_batch_matches_single(&mut batched, &mut single, 0x5AA4E);
    }

    #[test]
    fn aggregates_sum_over_shards() {
        let mut t: ShardedTable<RobinHood<MurmurHash>> =
            ShardedTable::new(2, 7, |i| RobinHood::with_seed(8, i as u64));
        assert_eq!(t.capacity(), 4 * 256);
        assert!(t.is_empty());
        for k in 1..=300u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.len(), 300);
        assert_eq!(t.memory_bytes(), 4 * 256 * 16);
        assert!(t.display_name().starts_with("Sharded4xRH"));
    }

    #[test]
    fn zero_shard_bits_is_a_single_locked_table() {
        let mut t = sharded_lp(0);
        assert_eq!(t.num_shards(), 1);
        for k in 1..=100u64 {
            t.insert(k, k * 3).unwrap();
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.lookup(50), Some(150));
    }

    #[test]
    fn concurrent_disjoint_writers_preserve_every_entry() {
        let t = sharded_lp(3);
        const PER_THREAD: u64 = 2000;
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let t = &t;
                scope.spawn(move || {
                    let base = 1 + thread * PER_THREAD;
                    let items: Vec<(u64, u64)> =
                        (base..base + PER_THREAD).map(|k| (k, k * 2)).collect();
                    let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
                    t.insert_batch_shared(&items, &mut out);
                    assert!(out.iter().all(|o| o == &Ok(InsertOutcome::Inserted)));
                });
            }
        });
        assert_eq!(t.len_shared(), 4 * PER_THREAD as usize);
        let keys: Vec<u64> = (1..=4 * PER_THREAD).collect();
        let mut values = vec![None; keys.len()];
        t.lookup_batch_shared(&keys, &mut values);
        for (&k, v) in keys.iter().zip(&values) {
            assert_eq!(*v, Some(k * 2), "key {k}");
        }
    }

    #[test]
    fn concurrent_mixed_readers_and_writers() {
        let t = sharded_lp(2);
        let mut rng = StdRng::seed_from_u64(9);
        let warm: Vec<(u64, u64)> = (1..=1000u64).map(|k| (k, k)).collect();
        let mut out = vec![Ok(InsertOutcome::Inserted); warm.len()];
        t.insert_batch_shared(&warm, &mut out);
        let probe: Vec<u64> = (0..4000).map(|_| rng.gen_range(1..=2000u64)).collect();
        std::thread::scope(|scope| {
            for thread in 0..4usize {
                let (t, probe) = (&t, &probe);
                scope.spawn(move || {
                    if thread % 2 == 0 {
                        let mut values = vec![None; probe.len()];
                        t.lookup_batch_shared(probe, &mut values);
                        for (&k, v) in probe.iter().zip(&values) {
                            if k <= 1000 {
                                assert_eq!(*v, Some(k), "warm key {k} must stay visible");
                            }
                        }
                    } else {
                        let base = 10_000 + thread as u64 * 1000;
                        for k in base..base + 500 {
                            t.insert_shared(k, k).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(t.len_shared(), 1000 + 2 * 500);
    }

    #[test]
    fn optimistic_and_locked_reads_agree() {
        let mut t = sharded_lp(2);
        assert!(t.optimistic_reads(), "optimistic reads must default on");
        for k in 1..=800u64 {
            t.insert(k, k * 5).unwrap();
        }
        // Quiescent: the optimistic path must commit and agree with the
        // locked path for hits and misses alike.
        for k in 1..=1000u64 {
            let optimistic = t.lookup_shared(k);
            t.set_optimistic_reads(false);
            let locked = t.lookup_shared(k);
            t.set_optimistic_reads(true);
            assert_eq!(optimistic, locked, "key {k}");
        }
        // Same for the batch path.
        let keys: Vec<u64> = (1..=1000u64).collect();
        let mut fast = vec![None; keys.len()];
        t.lookup_batch_shared(&keys, &mut fast);
        t.set_optimistic_reads(false);
        let mut slow = vec![None; keys.len()];
        t.lookup_batch_shared(&keys, &mut slow);
        assert_eq!(fast, slow);
    }

    #[test]
    fn seqlock_counter_brackets_writes() {
        let t = sharded_lp(0);
        let before = t.shards[0].seq.load(Ordering::SeqCst);
        assert_eq!(before & 1, 0, "counter must rest even");
        t.insert_shared(1, 1).unwrap();
        let after = t.shards[0].seq.load(Ordering::SeqCst);
        assert_eq!(after, before + 2, "one write = entry bump + exit bump");
        // Reads (locked or optimistic) must not move the counter.
        let _ = t.lookup_shared(1);
        let keys = [1u64, 2, 3];
        let mut out = [None; 3];
        t.lookup_batch_shared(&keys, &mut out);
        assert_eq!(t.shards[0].seq.load(Ordering::SeqCst), after, "reads bumped the counter");
        // Quiescent, so the lock-free path itself must commit — the reads
        // above did not quietly fall back to the lock.
        let pin = hold_pin();
        assert!(t.shards[0].try_optimistic_batch(&pin, &keys, &mut out));
        assert_eq!(out, [Some(1), None, None]);
        assert_eq!(t.shards[0].try_optimistic_lookup(&pin, 1), Some(Some(1)));
    }

    #[test]
    fn racing_reader_sees_only_committed_values() {
        // A writer hammers one shard while readers probe the same keys
        // lock-free: every answer must be a value some insert committed
        // (k * 2), never a torn or half-written one.
        let t = std::sync::Arc::new(sharded_lp(0));
        const KEYS: u64 = 512;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let (t, stop) = (t.clone(), stop.clone());
            std::thread::spawn(move || {
                for round in 0..200u64 {
                    for k in 1..=KEYS {
                        t.insert_shared(k, k * 2).unwrap();
                    }
                    for k in (1..=KEYS).step_by(3) {
                        t.delete_shared(k);
                    }
                    std::hint::black_box(round);
                }
                stop.store(true, Ordering::Release);
            })
        };
        let mut checked = 0u64;
        while !stop.load(Ordering::Acquire) {
            for k in 1..=KEYS {
                if let Some(v) = t.lookup_shared(k) {
                    assert_eq!(v, k * 2, "torn value for key {k}");
                    checked += 1;
                }
            }
        }
        writer.join().unwrap();
        assert!(checked > 0, "reader never observed a present key");
    }

    #[test]
    fn scratch_pool_is_bounded_and_trimmed() {
        let t = sharded_lp(3);
        // A deliberately huge batch grows the scratch buffers …
        let keys: Vec<u64> = (1..=100_000u64).collect();
        let mut out = vec![None; keys.len()];
        t.lookup_batch_shared(&keys, &mut out);
        {
            let pool = lock(&t.scratch_pool);
            assert_eq!(pool.len(), 1);
            // … but the returned scratch was trimmed back to the retain cap.
            for s in pool.iter() {
                assert!(s.keys.capacity() <= SCRATCH_RETAIN_ELEMS, "keys kept outlier capacity");
                assert!(s.perm.capacity() <= SCRATCH_RETAIN_ELEMS, "perm kept outlier capacity");
                assert!(
                    s.shard_ids.capacity() <= SCRATCH_RETAIN_ELEMS,
                    "shard_ids kept outlier capacity"
                );
            }
        }
        // Many concurrent batches may be in flight, but the pool retains
        // at most SCRATCH_POOL_CAP scratches afterwards.
        std::thread::scope(|scope| {
            for _ in 0..(SCRATCH_POOL_CAP * 4) {
                let t = &t;
                scope.spawn(move || {
                    let keys: Vec<u64> = (1..=256u64).collect();
                    let mut out = vec![None; keys.len()];
                    for _ in 0..50 {
                        t.lookup_batch_shared(&keys, &mut out);
                    }
                });
            }
        });
        assert!(
            lock(&t.scratch_pool).len() <= SCRATCH_POOL_CAP,
            "pool exceeded its cap: {}",
            lock(&t.scratch_pool).len()
        );
    }

    /// A table whose batch lookups panic — the scenario that used to leak
    /// the in-flight scratch.
    struct PanickyTable;

    impl crate::optimistic::ReadView for PanickyTable {}

    impl HashTable for PanickyTable {
        fn insert(&mut self, _k: u64, _v: u64) -> Result<InsertOutcome, TableError> {
            Ok(InsertOutcome::Inserted)
        }
        fn lookup(&self, _k: u64) -> Option<u64> {
            None
        }
        fn delete(&mut self, _k: u64) -> Option<u64> {
            None
        }
        fn lookup_batch(&self, _keys: &[u64], _out: &mut [Option<u64>]) {
            panic!("injected batch failure");
        }
        fn len(&self) -> usize {
            0
        }
        fn capacity(&self) -> usize {
            16
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn walk(&self, _: usize, _: &mut dyn FnMut(usize, u64, u64) -> bool) {}
        fn display_name(&self) -> String {
            "Panicky".into()
        }
    }

    /// A thread-per-core network front end shares one
    /// `Arc<dyn ConcurrentTable>` across N worker threads: that is only
    /// sound if the sharded table (over the builder's `BoxedTable`) is
    /// `Send + Sync + 'static` and the trait object itself carries the
    /// bounds. Compile-time assertions — a removed bound fails the
    /// build here, not in a downstream crate at 2 a.m.
    #[test]
    fn sharded_tables_are_shareable_across_worker_threads() {
        fn assert_send_sync_static<T: Send + Sync + 'static>() {}
        assert_send_sync_static::<ShardedTable<crate::BoxedTable>>();
        assert_send_sync_static::<std::sync::Arc<dyn ConcurrentTable>>();
        // And the builder's product coerces to the shared trait object.
        let table: std::sync::Arc<dyn ConcurrentTable> = std::sync::Arc::new(
            crate::TableBuilder::new(crate::TableScheme::LinearProbing)
                .bits(6)
                .shards(1)
                .build_sharded(),
        );
        let t2 = std::sync::Arc::clone(&table);
        let handle = std::thread::spawn(move || {
            t2.insert_shared(1, 10).expect("insert");
            t2.lookup_shared(1)
        });
        assert_eq!(handle.join().expect("worker thread"), Some(10));
        assert_eq!(table.lookup_shared(1), Some(10), "write visible across threads");
    }

    #[test]
    fn panicking_sub_batch_returns_scratch_to_pool() {
        let t: ShardedTable<PanickyTable> = ShardedTable::new(2, 1, |_| PanickyTable);
        let keys: Vec<u64> = (1..=64u64).collect();
        for round in 0..3 {
            let mut out = vec![None; keys.len()];
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.lookup_batch_shared(&keys, &mut out);
            }));
            assert!(r.is_err(), "round {round}: injected panic must surface");
            assert_eq!(
                lock(&t.scratch_pool).len(),
                1,
                "round {round}: panic leaked the in-flight scratch"
            );
        }
    }

    /// Linear probing that counts the lock-free probes it is asked for.
    struct CountedProbes(LinearProbing<MurmurHash>, AtomicU64);

    impl ReadView for CountedProbes {
        unsafe fn lookup_batch_optimistic(&self, keys: &[u64], out: &mut [Option<u64>]) -> bool {
            self.1.fetch_add(1, Ordering::Relaxed);
            // SAFETY: the caller's contract, passed through.
            unsafe { self.0.lookup_batch_optimistic(keys, out) }
        }
    }

    impl HashTable for CountedProbes {
        fn insert(&mut self, k: u64, v: u64) -> Result<InsertOutcome, TableError> {
            self.0.insert(k, v)
        }
        fn lookup(&self, k: u64) -> Option<u64> {
            self.0.lookup(k)
        }
        fn delete(&mut self, k: u64) -> Option<u64> {
            self.0.delete(k)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn capacity(&self) -> usize {
            self.0.capacity()
        }
        fn memory_bytes(&self) -> usize {
            self.0.memory_bytes()
        }
        fn walk(&self, from: usize, f: &mut dyn FnMut(usize, u64, u64) -> bool) {
            self.0.walk(from, f)
        }
        fn display_name(&self) -> String {
            self.0.display_name()
        }
    }

    #[test]
    fn with_every_epoch_slot_held_reads_go_through_the_locks() {
        let mut t = ShardedTable::new(2, 9, |i| {
            CountedProbes(LinearProbing::with_seed(8, 200 + i as u64), AtomicU64::new(0))
        });
        for k in 1..=300u64 {
            t.insert(k, k * 5).unwrap();
        }
        let probes = |t: &ShardedTable<CountedProbes>| {
            t.shards.iter().map(|s| s.read_locked().1.load(Ordering::Relaxed)).sum::<u64>()
        };
        let keys: Vec<u64> = (1..=400).collect();
        let mut out = vec![None; keys.len()];
        // Other tests' readers hold slots for a moment and free them, so
        // a slot may come free between taking them all and reading: then
        // the read goes lock-free, and the test tries again.
        for _ in 0..1000 {
            let held: Vec<epoch::Guard> = std::iter::from_fn(epoch::pin).collect();
            let before = probes(&t);
            t.lookup_batch_shared(&keys, &mut out);
            let single = t.lookup_shared(7);
            let lock_free = probes(&t) - before;
            drop(held);
            for (&k, &v) in keys.iter().zip(&out) {
                assert_eq!(v, (k <= 300).then_some(k * 5), "key {k}");
            }
            assert_eq!(single, Some(35));
            if lock_free == 0 {
                return;
            }
        }
        panic!("an epoch slot came free during every attempt");
    }

    /// Sets its flag when dropped, also on unwind.
    struct SetOnDrop<'a>(&'a std::sync::atomic::AtomicBool);

    impl Drop for SetOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    /// An adaptive table whose every shard switches LP→FP→RH under two
    /// racing readers retires eight generations, and keeps at most one per
    /// shard.
    #[test]
    fn an_adaptive_flip_flop_under_racing_readers_keeps_at_most_a_generation_per_shard() {
        use crate::{AdaptiveConfig, TableBuilder, TableScheme};
        use std::sync::atomic::AtomicBool;
        const RESIDENT: u64 = 2400; // about 59 % of each 2^10-slot shard
        let mut t = TableBuilder::new(TableScheme::LinearProbing)
            .bits(12)
            .seed(0xF11F)
            .shards(2)
            .incremental(8)
            .adaptive(AdaptiveConfig { check_every: 16, cooldown: 64 })
            .build_sharded();
        assert!(t.optimistic_reads());
        for k in 1..=RESIDENT {
            t.insert(k, k * 3).unwrap();
        }
        let answer = |k: u64| (k <= RESIDENT).then_some(k * 3);
        // The phase's reads: at this load misses want fingerprints, and
        // hits want Robin Hood.
        let phase_key =
            |misses: bool, i: u64| if misses { 1_000_000 + i } else { 1 + i % RESIDENT };
        let (misses, stop) = (AtomicBool::new(true), AtomicBool::new(false));
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for r in 0..2u64 {
                let (t, misses, stop, start) = (&t, &misses, &stop, &start);
                scope.spawn(move || {
                    let (mut keys, mut got) = (vec![0; 64], vec![None; 64]);
                    start.wait();
                    let mut i = r << 32;
                    while !stop.load(Ordering::Acquire) {
                        let phase = misses.load(Ordering::Relaxed);
                        for k in keys.iter_mut() {
                            i += 1;
                            *k = phase_key(phase, i);
                        }
                        t.lookup_batch_shared(&keys, &mut got);
                        for (&k, &v) in keys.iter().zip(&got) {
                            assert_eq!(v, answer(k), "reader {r}: key {k}");
                        }
                    }
                });
            }
            // A failed assertion below must still stop the readers.
            let _stop = SetOnDrop(&stop);
            let (mut keys, mut got) = (vec![0; 400], vec![None; 400]);
            let (mut doomed, mut gone) = ([0u64; 8], [None; 8]);
            start.wait();
            for round in 0u64.. {
                assert!(round < 200_000, "only {} switches", t.stats_shared().scheme_switches);
                let phase = misses.load(Ordering::Relaxed);
                for (i, k) in keys.iter_mut().enumerate() {
                    *k = phase_key(phase, (1 << 40) + round * 400 + i as u64);
                }
                t.lookup_batch_shared(&keys, &mut got);
                for (&k, &v) in keys.iter().zip(&got) {
                    assert_eq!(v, answer(k), "round {round}: key {k}");
                }
                // The rare mutations that fund the controller and the drain.
                for (j, k) in doomed.iter_mut().enumerate() {
                    *k = (1 << 50) + round * 8 + j as u64;
                }
                t.delete_batch_shared(&doomed, &mut gone);
                if t.stats_shared().scheme_switches >= 8 {
                    break;
                }
                let mut arrived = true;
                t.for_each_shard(|_, s| arrived &= s.display_name().starts_with("FP") == phase);
                if arrived {
                    misses.store(!phase, Ordering::Relaxed);
                }
            }
        });
        // The largest generation a shard can retire, per shard.
        let bytes = |scheme| TableBuilder::new(scheme).bits(10).build().memory_bytes();
        let generation =
            [TableScheme::LinearProbing, TableScheme::Fingerprint, TableScheme::RobinHood]
                .map(bytes)
                .into_iter()
                .max();
        let generations = t.num_shards() * generation.unwrap_or(0);
        settle_to(&mut t, generations);
        settle(&mut t);
        let resident: Vec<u64> = (1..=RESIDENT).collect();
        let mut got = vec![None; resident.len()];
        t.lookup_batch_shared(&resident, &mut got);
        assert!(resident.iter().zip(&got).all(|(&k, &v)| v == answer(k)), "a key was lost");
    }
}
