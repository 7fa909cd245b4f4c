//! Growing tables for the read-write workload (paper §6).
//!
//! The RW experiment lets tables grow "over a long sequence of operations":
//! when the load factor crosses a threshold (the paper sweeps 50%, 70%,
//! 90%), the table doubles its capacity and rehashes every entry. This
//! module provides [`DynamicTable`], a scheme-agnostic wrapper implementing
//! that policy over a [`TableFactory`] — in practice
//! [`crate::TableBuilder`], which builds every scheme in the study.
//!
//! Growing at 50% keeps collisions rare but can waste up to 75% of the
//! allocated space right after a doubling; growing at 90% is space-frugal
//! but lives with heavy collisions before each rehash — the trade-off
//! Figure 5 quantifies.
//!
//! # Growth policies
//!
//! *How* the rehash happens is a [`GrowthPolicy`]:
//!
//! * [`GrowthPolicy::AllAtOnce`] is the paper's stop-the-world rebuild:
//!   one operation pays for rehashing every live entry. Mean throughput
//!   barely notices; the latency tail is owned by it (see the
//!   `growth_tail` bench).
//! * [`GrowthPolicy::Incremental`] keeps **two generations** alive during
//!   a growth step: the doubling allocates the next generation and takes
//!   over all inserts, while up to `step` old-generation entries migrate
//!   per subsequent mutating operation (a batch call pays `step × len`
//!   in one step: `delete_batch` for the batch, `upsert_batch` for each
//!   headroom run). The drain walks the old generation from a cursor
//!   ([`HashTable::walk`]) — nothing is copied — and moves a budget in
//!   runs of up to 64 entries, one `delete_batch` out of it and one
//!   `insert_batch` into the new one per run, so the moves go through the
//!   same prefetching kernels as the workload's own batches.
//!   Lookups and deletes consult both generations, so the
//!   table stays element-wise identical to an `AllAtOnce` twin at every
//!   intermediate state. With `step ≥ 1` the old generation always drains
//!   before the new one can reach its own threshold, so at most two
//!   generations ever exist. This is the bounded-pause design of the
//!   multilevel-table literature (*The Usefulness of Multilevel Hash
//!   Tables*): probe a small fixed number of tables instead of stalling
//!   the operation stream (*Dynamic External Hashing* shows that stall
//!   dominating the dynamic cost model).
//!
//! A doubling and a scheme switch take one path, and only its first step
//! reads the policy. A generation that refuses an entry is rebuilt
//! stop-the-world under either policy.
//!
//! The threshold trigger itself is pure integer math: the `f64` threshold
//! is converted once to Q32 fixed point, and `len + 1 > threshold × cap`
//! is evaluated as a `u128` product — exact at every capacity a growing
//! table can reach (2^32 slots, where growth stops), while `f64`
//! comparisons can misplace the trigger by an entry.
//!
//! # Batched writes: headroom runs
//!
//! A write is the one operation that can grow the table, and a growth
//! step invalidates whatever a batch kernel precomputed. But the trigger
//! is a count: with `h = floor(threshold × capacity) − len` entries of
//! *headroom*, no sequence of `h` writes can cross the threshold — a
//! fresh key uses one entry, a replacement none. So
//! [`HashTable::upsert_batch`], and with it `insert_batch`, its keep-new
//! case, cuts a batch into **headroom runs** of `min(h, remaining)` items.
//! A run pays its policy tick and drain budget once and goes to the
//! current generation's `upsert_batch` (the hash-then-prefetch kernels).
//! While a drain is in flight the run **claims first**: one `delete_batch`
//! of its keys takes their copies out of the draining generation, each
//! found value is folded into its item (which then reports
//! `Replaced(old)`), and only then does the kernel run, so a key that
//! repeats within the run folds onto the claimed value. At `h == 0` the
//! run is the one element that may cross the threshold: as in the
//! single-key `insert`, a replacement check (one probe of each
//! generation) tells whether it is fresh, a fresh key grows the table
//! first, and the next run is cut against the new generation. Growth
//! therefore fires on exactly the element it fires on one key at a time,
//! and outcomes, `len`, `capacity` and the rehash count after a batch
//! equal those of single-key calls. (One exception, for capacity and rehash
//! count only: a cuckoo table pushed past its load limit rebuilds when a
//! kick chain fails, which depends on the slot layout, and paying the
//! drain up front lays slots out in a different order.)
//!
//! # Scheme changes: generations beyond growth
//!
//! The two-generation machinery is scheme-agnostic — nothing about the
//! drain requires the next generation to be a *bigger table of the same
//! scheme*. A table that only grows keeps its scheme. It changes scheme
//! in one of two ways, at the current capacity, moving entries per its
//! [`GrowthPolicy`]; growth afterwards continues in the new scheme:
//!
//! * [`DynamicTable::switch_to`] — an explicit live migration.
//! * The adaptive controller of a table built with
//!   `Some(`[`AdaptiveConfig`]`)` ([`DynamicTable::with_migration`]):
//!   every `check_every` mutating ops the table takes the deltas of its
//!   own counters ([`crate::stats::RuntimeStats`]) since the last check —
//!   lookups, misses, writes — adds its load factor, re-runs the paper's
//!   Figure 8 decision graph against that *observed* profile
//!   ([`crate::profile_choice`]), and calls `switch_to` whenever the
//!   graph disagrees with the current scheme (LP→FP when misses
//!   dominate, back toward LP/RH when hits do, with the chained-budget
//!   fallbacks `profile_choice` already encodes).
//!
//! Cross-scheme generations reuse every invariant of incremental growth:
//! at most two generations, lookups/deletes consult both, the drain is
//! funded by mutating operations, and generation publication/retirement
//! for optimistic readers is unchanged (a retiree's exact byte footprint
//! is whatever its own [`HashTable::memory_bytes`] reports — an FP
//! retiree pins its tag array, a chained one its slab). The factory hook
//! is [`TableFactory::for_scheme`], which [`crate::TableBuilder`]
//! implements; a factory fixed to one table type keeps the default and
//! simply refuses to re-target.

use crate::adaptive::{AdaptiveConfig, AdaptiveController};
use crate::epoch;
use crate::optimistic::ReadView;
use crate::stats::{RuntimeStats, TableStats};
use crate::{
    is_reserved_key, walk_runs, HashTable, InsertOutcome, TableError, TableScheme, WALK_RUN,
};
use std::sync::atomic::{AtomicPtr, Ordering};

/// Builds fresh tables of one scheme at a requested capacity; used by
/// [`DynamicTable`] on every growth step.
pub trait TableFactory: Clone {
    /// The table type this factory builds.
    type Table: HashTable;

    /// Build an empty table with nominal capacity `2^bits`, deriving hash
    /// functions from `seed`.
    fn build(&self, bits: u8, seed: u64) -> Self::Table;

    /// Re-target the factory at `scheme`, keeping every other knob (hash
    /// family, SIMD): the hook the migration engine uses to build a
    /// *different-scheme* next generation. Factories fixed to one concrete
    /// table type return `None` (the default); [`crate::TableBuilder`]'s
    /// boxed factory represents every scheme.
    fn for_scheme(&self, scheme: TableScheme) -> Option<Self> {
        let _ = scheme;
        None
    }

    /// The scheme this factory currently builds (`None` by default, for
    /// factories fixed to one concrete table type). Used to detect
    /// "already the right scheme" before a switch.
    fn scheme(&self) -> Option<TableScheme> {
        None
    }
}

/// How a [`DynamicTable`] rehashes when it crosses its growth threshold.
/// See the [module docs](self) for the trade-off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrowthPolicy {
    /// Stop-the-world: the triggering operation rebuilds the whole table
    /// into a doubled one before proceeding (the paper's §6 model).
    AllAtOnce,
    /// Two-generation migration: the doubling allocates the next
    /// generation, then every mutating operation drains up to `step`
    /// old-generation entries until the old generation is empty; a batch
    /// call pays for its elements in one step (`step × len` per
    /// `delete_batch`, per headroom run of a batched write). `step`
    /// must be ≥ 1 — that rate already guarantees the drain finishes
    /// before the next doubling can trigger, and a run never holds more
    /// inserts than the threshold leaves room for.
    Incremental {
        /// Old-generation entries migrated per operation.
        step: usize,
    },
}

/// Fixed-point bits of the growth-threshold representation (Q32).
const THRESHOLD_FP_BITS: u32 = 32;

/// Most entries a `cap`-slot generation holds before a fresh key must
/// grow it: `floor(threshold × cap)`, with the threshold in Q32 fixed
/// point. The `u128` product cannot overflow, so it is exact for every
/// capacity up to the growth ceiling ([`MAX_BITS`]), where the former
/// `f64` comparison could round the trigger point by an entry.
#[inline]
fn growth_limit(threshold_fp: u64, cap: usize) -> usize {
    ((threshold_fp as u128 * cap as u128) >> THRESHOLD_FP_BITS) as usize
}

/// The trigger `len_after > threshold × cap`, in exact integer form.
#[inline]
fn crosses_threshold(threshold_fp: u64, len_after: usize, cap: usize) -> bool {
    len_after > growth_limit(threshold_fp, cap)
}

/// The draining generation of an in-flight incremental migration, and the
/// only record of what is left to move. The table is boxed so its address
/// stays stable while it drains: the optimistic-read path publishes that
/// address through an [`AtomicPtr`] and probes it without any lock.
struct OldGeneration<T> {
    table: Box<T>,
    /// The [`HashTable::walk`] unit the next drain run starts at: the
    /// first unit the last run visited. Every unit before it is empty,
    /// unless a refused move was restored there (see `migrate_step`).
    cursor: usize,
}

/// A table that doubles its capacity when the load factor would cross a
/// threshold, rehashing entries into a fresh table (new hash function
/// seeds each generation) — in one pause or incrementally, per its
/// [`GrowthPolicy`].
pub struct DynamicTable<F: TableFactory> {
    factory: F,
    /// The current (target) generation: all inserts land here. Boxed so
    /// its address survives generation swaps (see `inner_published`).
    inner: Box<F::Table>,
    /// The current generation's address, republished with `Release` on
    /// every swap; the lock-free read path loads it with `Acquire`
    /// instead of touching the (concurrently rewritten) `inner` field.
    inner_published: AtomicPtr<F::Table>,
    /// The draining generation of an in-flight incremental migration.
    old: Option<OldGeneration<F::Table>>,
    /// Address of the draining generation's table, or null when no
    /// migration is in flight. Same protocol as `inner_published`.
    old_published: AtomicPtr<F::Table>,
    /// Unpublished generations a pinned lock-free reader may still be
    /// probing, each with its [`epoch::stamp`]; freed by the first
    /// mutating operation that finds no pin at or below the stamp.
    retired: Vec<(u64, Box<F::Table>)>,
    bits: u8,
    seed: u64,
    grow_threshold: f64,
    /// Q32 fixed-point form of `grow_threshold` (the trigger comparison
    /// is pure integer math).
    threshold_fp: u64,
    policy: GrowthPolicy,
    /// The adaptive controller's tuning; `None` for a table that only
    /// grows.
    adaptive: Option<AdaptiveConfig>,
    /// Relaxed-atomic lookup, miss, insert and delete counts, shared with
    /// the lock-free read path.
    stats: RuntimeStats,
    /// Cross-scheme migrations begun so far.
    scheme_switches: usize,
    /// The adaptive controller's clock and memory (idle without
    /// `adaptive`).
    controller: AdaptiveController,
    rehash_count: usize,
}

/// Hard ceiling on growth: 2^32 slots, the largest capacity every scheme
/// builds (a chained table's directory has `2^(bits − 1)` entries, so it
/// alone could go one doubling further).
const MAX_BITS: u8 = 32;

/// Refuse a generation of `2^bits` slots beyond [`MAX_BITS`] — before
/// anything for it is allocated or any entry is walked.
fn assert_within_ceiling(bits: u8) {
    assert!(bits <= MAX_BITS, "dynamic table exceeded 2^{MAX_BITS} slots");
}

impl<F: TableFactory> DynamicTable<F> {
    /// Create with initial capacity `2^bits`, growing when an insert would
    /// push `len` beyond `grow_threshold × capacity` (the paper's rehash
    /// thresholds are 0.5, 0.7, 0.9). Growth is stop-the-world
    /// ([`GrowthPolicy::AllAtOnce`]); use [`DynamicTable::with_policy`]
    /// for incremental migration.
    pub fn new(factory: F, bits: u8, seed: u64, grow_threshold: f64) -> Self {
        Self::with_policy(factory, bits, seed, grow_threshold, GrowthPolicy::AllAtOnce)
    }

    /// [`DynamicTable::new`] with an explicit [`GrowthPolicy`].
    pub fn with_policy(
        factory: F,
        bits: u8,
        seed: u64,
        grow_threshold: f64,
        policy: GrowthPolicy,
    ) -> Self {
        assert!(
            grow_threshold > 0.0 && grow_threshold <= 0.99,
            "grow threshold must be in (0, 0.99], got {grow_threshold}"
        );
        if let GrowthPolicy::Incremental { step } = policy {
            assert!(step >= 1, "incremental growth step must be >= 1");
        }
        let inner = Box::new(factory.build(bits, seed));
        let inner_published = AtomicPtr::new(&*inner as *const F::Table as *mut F::Table);
        let threshold_fp = (grow_threshold * (1u64 << THRESHOLD_FP_BITS) as f64).round() as u64;
        Self {
            factory,
            inner,
            inner_published,
            old: None,
            old_published: AtomicPtr::new(std::ptr::null_mut()),
            retired: Vec::new(),
            bits,
            seed,
            grow_threshold,
            threshold_fp,
            policy,
            adaptive: None,
            stats: RuntimeStats::default(),
            scheme_switches: 0,
            controller: AdaptiveController::default(),
            rehash_count: 0,
        }
    }

    /// [`DynamicTable::with_policy`] that also adapts when `adaptive` is
    /// `Some`: the controller re-runs the Figure 8 decision graph against
    /// the observed workload and switches scheme when it disagrees (see
    /// the [module docs](self)).
    pub fn with_migration(
        factory: F,
        bits: u8,
        seed: u64,
        grow_threshold: f64,
        policy: GrowthPolicy,
        adaptive: Option<AdaptiveConfig>,
    ) -> Self {
        Self { adaptive, ..Self::with_policy(factory, bits, seed, grow_threshold, policy) }
    }

    /// The wrapped table (the current generation; during an incremental
    /// migration the draining generation is not reachable through this).
    pub fn inner(&self) -> &F::Table {
        &self.inner
    }

    /// Number of growth steps (started rehashes) so far.
    pub fn rehash_count(&self) -> usize {
        self.rehash_count
    }

    /// The growth threshold.
    pub fn grow_threshold(&self) -> f64 {
        self.grow_threshold
    }

    /// The growth policy.
    pub fn growth_policy(&self) -> GrowthPolicy {
        self.policy
    }

    /// Cross-scheme migrations begun so far (growth doublings are counted
    /// by [`DynamicTable::rehash_count`], which includes these).
    pub fn scheme_switches(&self) -> usize {
        self.scheme_switches
    }

    /// Whether an incremental migration is currently in flight.
    pub fn is_migrating(&self) -> bool {
        self.old.is_some()
    }

    /// Entries still waiting in the draining generation (0 when no
    /// migration is in flight).
    pub fn migration_backlog(&self) -> usize {
        self.old.as_ref().map_or(0, |g| g.table.len())
    }

    /// Fresh keys the table can still take before one would cross the
    /// growth threshold. While this is `n`, no run of `n` writes — fresh
    /// keys or replacements — can trigger growth, which is what lets
    /// [`HashTable::upsert_batch`] hand whole runs to the inner kernel.
    fn headroom(&self) -> usize {
        growth_limit(self.threshold_fp, self.inner.capacity()).saturating_sub(self.len())
    }

    /// Seed for a generation rebuilt at `bits` on retry `attempt`.
    fn generation_seed(&self, bits: u8, attempt: u64) -> u64 {
        self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(bits as u64 + attempt))
    }

    /// Republish the current generation's address for lock-free readers.
    fn publish_inner(&self) {
        self.inner_published
            .store(&*self.inner as *const F::Table as *mut F::Table, Ordering::Release);
    }

    /// Republish the draining generation's address (null when none).
    fn publish_old(&self) {
        let ptr = self
            .old
            .as_ref()
            .map_or(std::ptr::null_mut(), |g| &*g.table as *const F::Table as *mut F::Table);
        self.old_published.store(ptr, Ordering::Release);
    }

    /// Dispose of a generation its caller has just unpublished: stamp it
    /// and drop it here, unless a reader pinned at or below the stamp may
    /// still be probing it (see [`crate::epoch`]). Then it is parked until
    /// a later mutating operation finds the pin gone.
    fn retire(&mut self, table: Box<F::Table>) {
        let stamp = epoch::stamp();
        if epoch::oldest_pin() <= stamp {
            self.retired.push((stamp, table));
        }
    }

    /// Free every parked generation no pinned reader can still reach: the
    /// first step of each mutating operation.
    fn free_retired(&mut self) {
        if !self.retired.is_empty() {
            let oldest = epoch::oldest_pin();
            self.retired.retain(|&(stamp, _)| stamp >= oldest);
        }
    }

    /// End the in-flight migration: unpublish and retire the drained
    /// generation (no-op when none is in flight).
    fn drop_old(&mut self) {
        if let Some(generation) = self.old.take() {
            self.publish_old();
            self.retire(generation.table);
        }
    }

    /// Move to a generation of `2^bits` slots, re-targeting the factory
    /// first when `factory` is given (a cross-scheme switch): the one place
    /// the [`GrowthPolicy`] picks the mechanism. `AllAtOnce` fills it now
    /// ([`DynamicTable::rebuild`]). Incremental growth hands it all inserts
    /// and leaves the old table to drain in place from unit 0, finishing
    /// any earlier drain first so at most two generations ever exist.
    fn begin_generation(&mut self, bits: u8, factory: Option<F>) -> Result<(), TableError> {
        assert_within_ceiling(bits);
        while self.old.is_some() {
            self.migrate_step(usize::MAX)?;
        }
        if let Some(f) = factory {
            self.factory = f;
        }
        if self.policy == GrowthPolicy::AllAtOnce {
            return self.rebuild(bits, 0);
        }
        let fresh = Box::new(self.factory.build(bits, self.generation_seed(bits, 0)));
        let old_table = std::mem::replace(&mut self.inner, fresh);
        self.publish_inner();
        self.old = Some(OldGeneration { table: old_table, cursor: 0 });
        self.publish_old();
        self.bits = bits;
        self.rehash_count += 1;
        Ok(())
    }

    /// Begin a live migration to `scheme` at the current capacity.
    /// Returns `Ok(false)` — without touching the table — when the switch
    /// is impossible or pointless: the factory cannot represent the
    /// scheme, the table already is that scheme, or the capacity is below
    /// the target scheme's minimum (fingerprint groups need `2^4` slots).
    /// The switch moves entries like a doubling does, per the
    /// [`GrowthPolicy`].
    pub fn switch_to(&mut self, scheme: TableScheme) -> Result<bool, TableError> {
        if self.factory.scheme() == Some(scheme) {
            return Ok(false);
        }
        let Some(factory) = self.factory.for_scheme(scheme) else {
            return Ok(false);
        };
        if scheme == TableScheme::Fingerprint && (1usize << self.bits) < crate::GROUP_SLOTS {
            return Ok(false);
        }
        self.begin_generation(self.bits, Some(factory))?;
        self.scheme_switches += 1;
        Ok(true)
    }

    /// Policy hook for `ops` mutating operations (1 from the single-key
    /// paths, the run length from the batch paths): tick the adaptive
    /// controller, if any, and act on its verdict — a switch that starts
    /// also starts the controller's cooldown.
    fn policy_tick(&mut self, ops: u64) -> Result<(), TableError> {
        let Some(cfg) = self.adaptive else {
            return Ok(());
        };
        // `observe` only runs with no drain in flight, when the current
        // generation is the whole table and its load factor the table's.
        let observe = || (self.stats.snapshot(), self.inner.load_factor());
        let verdict = self.controller.tick(&cfg, ops, self.is_migrating(), observe, self.bits);
        if let Some(desired) = verdict {
            if self.switch_to(desired)? {
                self.controller.cooldown_left = cfg.cooldown;
            }
        }
        Ok(())
    }

    /// Migrate up to `budget` old-generation entries, a run of up to
    /// [`WALK_RUN`] at a time: a run walks the draining generation from
    /// its cursor and writes what it met through
    /// [`DynamicTable::write_run`], which claims it out with one
    /// `delete_batch` and puts it into the current generation with one
    /// `upsert_batch` — the hash-and-prefetch kernels, so the run's cache
    /// misses overlap. The cursor then rests on the run's first unit,
    /// which the next walk re-reads from L1 (the [`HashTable::walk`]
    /// contract: no delete moves an entry before the run's first unit).
    /// The budget counts moved entries, so the drain still ends before the
    /// next doubling; it ends when the old generation is empty.
    fn migrate_step(&mut self, budget: usize) -> Result<(), TableError> {
        let mut moves = [(0u64, 0u64); WALK_RUN];
        let mut placed = [Ok(InsertOutcome::Inserted); WALK_RUN];
        let mut left = budget;
        while left > 0 {
            let Some(gen) = self.old.as_mut() else { return Ok(()) };
            let want = left.min(WALK_RUN);
            let (mut n, mut first) = (0, None);
            gen.table.walk(gen.cursor, &mut |unit, key, value| {
                first.get_or_insert(unit);
                moves[n] = (key, value);
                n += 1;
                n < want
            });
            let Some(first) = first else {
                if gen.table.is_empty() {
                    // The workload deleted what was left.
                    self.drop_old();
                    return Ok(());
                }
                // A refused move was restored behind the cursor (or made
                // the table rehash in place): start over at unit 0.
                assert!(gen.cursor > 0, "the draining generation's walk misses its entries");
                gen.cursor = 0;
                continue;
            };
            gen.cursor = first;
            left -= n;
            // Capacity pressure in the new generation (cuckoo cycles) has
            // merged both generations through the stop-the-world fallback;
            // a factory's memory budget left its refused entries where
            // they were and propagates. Entries the run placed stay moved.
            self.write_run(&moves[..n], &|_, v| v, &mut placed[..n]);
            if let Some(e) = placed[..n].iter().find_map(|o| o.err()) {
                return Err(e);
            }
            let Some(gen) = self.old.as_mut() else { return Ok(()) };
            if gen.table.is_empty() {
                self.drop_old();
                return Ok(());
            }
        }
        Ok(())
    }

    /// Stop-the-world rebuild of *everything* (both generations) into a
    /// fresh table of at least `2^start_bits` slots, retrying with fresh
    /// seeds — and eventually more bits — when the rebuild itself fails
    /// (possible for Cuckoo tables at unlucky seeds). This is both the
    /// [`GrowthPolicy::AllAtOnce`] arm of `begin_generation` and every
    /// policy's refusal path. A factory memory budget that cannot hold
    /// the entries propagates as an error, leaving the table untouched —
    /// growing *more* on a budget failure would loop forever while
    /// allocating more memory. Both generations stay untouched until the
    /// swap, so each attempt walks them again; nothing is copied.
    fn rebuild(&mut self, start_bits: u8, start_attempt: u64) -> Result<(), TableError> {
        assert_within_ceiling(start_bits);
        let (mut bits, mut attempt) = (start_bits, start_attempt);
        let bigger = loop {
            let mut bigger = self.factory.build(bits, self.generation_seed(bits, attempt));
            match self.stream_into(&mut bigger) {
                Ok(()) => break bigger,
                Err(e @ TableError::MemoryBudgetExceeded) => return Err(e),
                Err(_) => attempt += 1,
            }
            if attempt.is_multiple_of(3) {
                bits += 1;
                assert_within_ceiling(bits);
            }
        };
        let prev = std::mem::replace(&mut self.inner, Box::new(bigger));
        self.publish_inner();
        self.drop_old();
        self.retire(prev);
        self.bits = bits;
        self.rehash_count += 1;
        Ok(())
    }

    /// Insert both generations into `to` in walk order, one `insert_batch`
    /// per [`walk_runs`] run; a run's first refusal stops it.
    fn stream_into(&self, to: &mut F::Table) -> Result<(), TableError> {
        let mut placed = [Ok(InsertOutcome::Inserted); WALK_RUN];
        walk_runs(self, |run| {
            to.insert_batch(run, &mut placed[..run.len()]);
            placed[..run.len()].iter().find_map(|o| o.err()).map_or(Ok(()), Err)
        })
    }

    /// The incremental drain budget for one operation (0 under
    /// [`GrowthPolicy::AllAtOnce`], which never has an old generation).
    fn step_budget(&self) -> usize {
        match self.policy {
            GrowthPolicy::AllAtOnce => 0,
            GrowthPolicy::Incremental { step } => step,
        }
    }

    /// What `ops` mutating operations owe before they touch the table:
    /// the policy tick and `step × ops` of the incremental drain.
    fn pay(&mut self, ops: usize) -> Result<(), TableError> {
        self.policy_tick(ops as u64)?;
        if self.old.is_some() {
            self.migrate_step(self.step_budget().saturating_mul(ops))?;
        }
        Ok(())
    }

    /// Grow *before* a fresh key crosses the threshold. A replacement
    /// never grows, matching the paper's element-count-based rehash
    /// policy. The replacement check probes each generation directly: it
    /// is not a user lookup, so the runtime counters do not see it.
    fn grow_for(&mut self, key: u64) -> Result<(), TableError> {
        if crosses_threshold(self.threshold_fp, self.len() + 1, self.inner.capacity())
            && !is_reserved_key(key)
            && self.inner.lookup(key).is_none()
            && self.old.as_ref().is_none_or(|g| g.table.lookup(key).is_none())
        {
            self.begin_generation(self.bits + 1, None)?;
        }
        Ok(())
    }

    /// The single-key insert, its tick and drain step paid: grow if the
    /// key would cross the threshold, insert into the current generation
    /// (rebuilding on capacity pressure the threshold missed — it doubles,
    /// as in [`DynamicTable::write_run`]), and only then claim any
    /// draining-generation copy, so a refused insert leaves it in place.
    fn insert_paid(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        self.grow_for(key)?;
        let outcome = loop {
            match self.inner.insert(key, value) {
                Ok(outcome) => break outcome,
                Err(TableError::TableFull | TableError::CuckooFailure) => {
                    self.rebuild(self.bits + 1, 0)?;
                }
                Err(e) => return Err(e),
            }
        };
        Ok(match self.old.as_mut().and_then(|g| g.table.delete(key)) {
            Some(prev) => InsertOutcome::Replaced(prev),
            None => outcome,
        })
    }

    /// Write a paid run that cannot cross the growth threshold through the
    /// current generation's `upsert_batch`. While a drain is in flight,
    /// each [`WALK_RUN`] items claim first: one `delete_batch` takes their
    /// keys' copies out of the draining generation, and each found value is
    /// folded into its item, which reports `Replaced(old)` (claiming after
    /// the kernel could not fold a key that repeats within the run). A
    /// cuckoo cycle's refusal takes the refused item and all after it back
    /// out, claims included, rebuilds, and replays them in order.
    fn write_run(
        &mut self,
        items: &[(u64, u64)],
        combine: &dyn Fn(u64, u64) -> u64,
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        // Filled only while a drain is in flight.
        let (mut keys, mut claims, mut folded);
        let mut from = 0;
        while from < items.len() {
            let (chunk, claimed): (_, &mut [Option<u64>]) = match self.old.as_mut() {
                None => (&items[from..], &mut []),
                Some(gen) => {
                    (keys, claims, folded) =
                        ([0u64; WALK_RUN], [None; WALK_RUN], [(0, 0); WALK_RUN]);
                    let chunk = &items[from..items.len().min(from + WALK_RUN)];
                    let n = chunk.len();
                    for (k, &(key, _)) in keys.iter_mut().zip(chunk) {
                        *k = key;
                    }
                    gen.table.delete_batch(&keys[..n], &mut claims[..n]);
                    for ((f, &(k, v)), c) in folded.iter_mut().zip(chunk).zip(&claims[..n]) {
                        *f = (k, c.map_or(v, |old| combine(old, v)));
                    }
                    (&folded[..n], &mut claims[..n])
                }
            };
            let out = &mut out[from..from + chunk.len()];
            self.inner.upsert_batch(chunk, combine, out);
            let refused = out
                .iter()
                .position(|o| matches!(o, Err(TableError::TableFull | TableError::CuckooFailure)));
            let done = refused.unwrap_or(chunk.len());
            for ((o, c), &(key, _)) in out[..done].iter_mut().zip(&*claimed).zip(chunk) {
                match (*c, *o) {
                    (Some(old), Ok(_)) => {
                        debug_assert!(*o == Ok(InsertOutcome::Inserted), "key in both generations");
                        *o = Ok(InsertOutcome::Replaced(old));
                    }
                    // A memory budget refused the write: the claimed copy
                    // goes back, as if never claimed.
                    (Some(old), Err(_)) => {
                        let gen = self.old.as_mut().expect("claimed from a draining generation");
                        let _ = gen.table.insert(key, old);
                    }
                    (None, _) => {}
                }
            }
            let Some(at) = refused else {
                from += chunk.len();
                continue;
            };
            // The kernel ran on past the refusal. Take those elements
            // back out, newest first, so the refused one and the rest
            // replay in order (a later duplicate of the refused key must
            // replace it, not be replaced by it).
            for (i, (&(key, _), o)) in chunk.iter().zip(&*out).enumerate().skip(at).rev() {
                match *o {
                    Ok(InsertOutcome::Inserted) => {
                        self.inner.delete(key);
                    }
                    Ok(InsertOutcome::Replaced(prev)) => {
                        let restored = self.inner.insert(key, prev);
                        debug_assert!(matches!(restored, Ok(InsertOutcome::Replaced(_))));
                    }
                    Err(_) => {}
                }
                if let (Some(&Some(old)), Some(gen)) = (claimed.get(i), self.old.as_mut()) {
                    let _ = gen.table.insert(key, old);
                }
            }
            // The rebuild merges the (again disjoint) generations. It
            // doubles: a cuckoo refuses only after its cycle has tried
            // `max_rehash_attempts` fresh tables at this size.
            match self.rebuild(self.bits + 1, 0) {
                Ok(()) => from += at,
                Err(e) => {
                    out[at] = Err(e);
                    from += at + 1;
                }
            }
        }
    }
}

/// Second-generation pass of a batch read or delete: run `probe` over the
/// keys whose `out` element is still `None` and write its answers into
/// those elements. Misses are gathered on the stack, a chunk at a time, so
/// the read path allocates nothing. Returns `false` as soon as `probe`
/// does (`out` is then unspecified).
fn retry_misses(
    keys: &[u64],
    out: &mut [Option<u64>],
    mut probe: impl FnMut(&[u64], &mut [Option<u64>]) -> bool,
) -> bool {
    const CHUNK: usize = 64;
    let (mut miss_keys, mut old_vals) = ([0u64; CHUNK], [None; CHUNK]);
    for (kc, oc) in keys.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
        let mut n = 0;
        for (&k, _) in kc.iter().zip(oc.iter()).filter(|(_, o)| o.is_none()) {
            miss_keys[n] = k;
            n += 1;
        }
        if n > 0 && !probe(&miss_keys[..n], &mut old_vals[..n]) {
            return false;
        }
        for (o, &v) in oc.iter_mut().filter(|o| o.is_none()).zip(&old_vals[..n]) {
            *o = v;
        }
    }
    true
}

fn misses_in(out: &[Option<u64>]) -> u64 {
    out.iter().filter(|o| o.is_none()).count() as u64
}

/// Lock-free reads over both generations.
///
/// A growing table is the one place where a scheme's slot allocation *is*
/// replaced: every doubling swaps in a fresh generation and drops the old
/// one. An optimistic reader that loaded an address before the swap could
/// otherwise probe freed memory. Two mechanisms close that hole:
///
/// * Generations are boxed and their addresses published through
///   [`AtomicPtr`]s (`Release` on swap, `SeqCst` on probe), so a reader
///   never reads the concurrently rewritten `inner`/`old` fields.
/// * An unpublished generation is retired through [`crate::epoch`]: it is
///   freed only once no reader is pinned at or below its stamp, and the
///   caller of [`ReadView::lookup_batch_optimistic`] pins before it loads
///   a published address.
impl<F: TableFactory> ReadView for DynamicTable<F> {
    unsafe fn lookup_batch_optimistic(&self, keys: &[u64], out: &mut [Option<u64>]) -> bool {
        // Probe the published current generation, then re-probe the
        // misses against the published draining generation. A swap racing
        // with this probe can make the answers stale or torn — the
        // caller's seqlock validation rejects them — but never unsound.
        // The loads are `SeqCst`, after the caller's `SeqCst` pin (the
        // ordering argument of `crate::epoch`).
        let inner = self.inner_published.load(Ordering::SeqCst);
        // SAFETY: the caller's pin keeps a published generation allocated
        // until it is released, and each generation's own probe upholds
        // the `ReadView` rules under a racing writer.
        if !unsafe { (*inner).lookup_batch_optimistic(keys, out) } {
            return false;
        }
        let old = self.old_published.load(Ordering::SeqCst);
        // SAFETY: as for `inner`; the null check below short-circuits
        // before any call.
        let probe_old =
            |k: &[u64], o: &mut [Option<u64>]| unsafe { (*old).lookup_batch_optimistic(k, o) };
        if !old.is_null() && !retry_misses(keys, out, probe_old) {
            return false;
        }
        // Feed the adaptive controller even when reads bypass the lock: the
        // counters are relaxed atomics, so this never data-races a locked
        // writer. Once per batch, and only for a batch that did not bail
        // (its locked redo counts instead); a batch the caller's
        // validation rejects is counted again by its retry.
        self.stats.record_lookups(keys.len() as u64, misses_in(out));
        true
    }

    fn retired_bytes(&self) -> usize {
        self.retired.iter().map(|(_, t)| t.memory_bytes()).sum()
    }
}

impl<F: TableFactory> HashTable for DynamicTable<F> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        // Reserved keys are inert: no migration step, no growth — the
        // observable behaviour of an erroring insert must not include a
        // capacity change.
        if is_reserved_key(key) {
            return Err(TableError::ReservedKey);
        }
        self.free_retired();
        self.stats.record_inserts(1);
        self.pay(1)?;
        self.insert_paid(key, value)
    }

    fn lookup(&self, key: u64) -> Option<u64> {
        let result = match self.inner.lookup(key) {
            Some(v) => Some(v),
            None => self.old.as_ref().and_then(|g| g.table.lookup(key)),
        };
        self.stats.record_lookups(1, result.is_none() as u64);
        result
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        self.free_retired();
        self.stats.record_deletes(1);
        // A failed policy tick or drain step (factory budget) leaves both
        // generations consistent; the delete itself still proceeds.
        let _ = self.policy_tick(1);
        if self.old.is_some() {
            let _ = self.migrate_step(self.step_budget());
        }
        match self.inner.delete(key) {
            Some(v) => Some(v),
            None => self.old.as_mut().and_then(|g| g.table.delete(key)),
        }
    }

    // Reads and deletes never grow the table, so whole batches delegate
    // straight to the inner table's (prefetching) overrides whenever no
    // migration is in flight; mid-migration they run the two-pass on the
    // new generation and re-probe only the misses against the old one.
    // Writes can grow it, so `upsert_batch` cuts the batch into headroom
    // runs first (see its comment).
    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        // Stats cost per *batch*, not per key: one or two fetch_adds at
        // the end — the ≤ 2%-overhead budget of the shared read path.
        self.inner.lookup_batch(keys, out);
        if let Some(gen) = self.old.as_ref() {
            retry_misses(keys, out, |k, o| {
                gen.table.lookup_batch(k, o);
                true
            });
        }
        self.stats.record_lookups(keys.len() as u64, misses_in(out));
    }

    fn upsert_batch(
        &mut self,
        items: &[(u64, u64)],
        combine: &dyn Fn(u64, u64) -> u64,
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        assert_eq!(items.len(), out.len(), "upsert_batch: items and out lengths differ");
        self.free_retired();
        // Cut the batch into headroom runs (module docs): with `h`
        // entries of headroom no `h` writes can cross the growth
        // threshold, so the inner kernel takes a whole run in one call.
        // At `h == 0` the run is the one element that may cross it.
        let mut at = 0;
        while at < items.len() {
            let end = items.len().min(at + self.headroom().max(1));
            let (run, out) = (&items[at..end], &mut out[at..end]);
            // Reserved keys are inert: they owe no tick and no drain step,
            // and never grow the table.
            let key = run[0].0;
            let ops = run.iter().filter(|&&(k, _)| !is_reserved_key(k)).count();
            if let Err(e) = self.pay(ops) {
                // The drain or a controller's switch met a factory memory
                // budget: the element fails with it, as one key would.
                out[0] = Err(if is_reserved_key(key) { TableError::ReservedKey } else { e });
                at += 1;
                continue;
            }
            at = end;
            self.stats.record_inserts(ops as u64);
            if let Err(e) = self.grow_for(key) {
                out[0] = Err(e);
                continue;
            }
            debug_assert!(run.len() <= self.headroom().max(1), "run longer than its headroom");
            self.write_run(run, combine, out);
        }
    }

    fn delete_batch(&mut self, keys: &[u64], out: &mut [Option<u64>]) {
        assert_eq!(keys.len(), out.len(), "delete_batch: keys and out lengths differ");
        self.free_retired();
        self.stats.record_deletes(keys.len() as u64);
        let _ = self.policy_tick(keys.len() as u64);
        if self.old.is_some() {
            let budget = self.step_budget().saturating_mul(keys.len().max(1));
            let _ = self.migrate_step(budget);
        }
        self.inner.delete_batch(keys, out);
        if let Some(gen) = self.old.as_mut() {
            retry_misses(keys, out, |k, o| {
                gen.table.delete_batch(k, o);
                true
            });
        }
    }

    fn len(&self) -> usize {
        self.inner.len() + self.migration_backlog()
    }

    fn capacity(&self) -> usize {
        // The target generation's capacity: where every entry will live
        // once the drain completes, and what the next trigger compares
        // against — identical to an AllAtOnce twin at every state.
        self.inner.capacity()
    }

    /// Both generations and the parked retirees; the drain keeps no copy
    /// of its own.
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
            + self.old.as_ref().map_or(0, |g| g.table.memory_bytes())
            + self.retired_bytes()
    }

    /// Unit 0 is the current generation, unit 1 the draining one.
    fn walk(&self, from: usize, f: &mut dyn FnMut(usize, u64, u64) -> bool) {
        let old = self.old.as_ref().map(|g| &*g.table);
        for (unit, part) in std::iter::once(&*self.inner).chain(old).enumerate().skip(from) {
            if !crate::walk_part(part, unit, f) {
                return;
            }
        }
    }

    fn display_name(&self) -> String {
        self.inner.display_name()
    }

    fn table_stats(&self) -> Option<TableStats> {
        let mut s = self.stats.snapshot();
        s.rehashes = self.rehash_count as u64;
        s.scheme_switches = self.scheme_switches as u64;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{HashKind, TableBuilder, TableScheme};
    use crate::tests_common::*;
    use crate::{ChainedTable8, MemoryBudget};
    use hashfn::{HashFamily, Murmur};
    use slab_alloc::SlabAllocator;

    /// The one production factory, pinned to a scheme × hash cell.
    fn factory(scheme: TableScheme, hash: HashKind) -> TableBuilder {
        TableBuilder::new(scheme).hash(hash)
    }

    /// The draining generation's `(unit, key)` pairs in the order the
    /// drain reaches them.
    fn drain_order<F: TableFactory>(t: &DynamicTable<F>) -> Vec<(usize, u64)> {
        let gen = t.old.as_ref().expect("a migration is in flight");
        let mut order = Vec::new();
        gen.table.walk(gen.cursor, &mut |unit, k, _| {
            order.push((unit, k));
            true
        });
        order
    }

    #[test]
    fn grows_on_threshold() {
        let mut t =
            DynamicTable::new(factory(TableScheme::LinearProbing, HashKind::Murmur), 4, 1, 0.5);
        assert_eq!(t.capacity(), 16);
        for k in 1..=8u64 {
            t.insert(k, k).unwrap();
        }
        // Eight entries in sixteen slots sit exactly at the threshold.
        assert_eq!(t.capacity(), 16);
        assert_eq!(t.rehash_count(), 0);
        // The 9th key would cross 50% → the table doubles first.
        t.insert(9, 9).unwrap();
        assert_eq!(t.capacity(), 32);
        assert_eq!(t.rehash_count(), 1);
        for k in 1..=9u64 {
            assert_eq!(t.lookup(k), Some(k), "key {k} lost in growth");
        }
    }

    #[test]
    fn replacement_does_not_grow() {
        let mut t =
            DynamicTable::new(factory(TableScheme::LinearProbing, HashKind::Murmur), 4, 1, 0.5);
        for k in 1..=8u64 {
            t.insert(k, k).unwrap();
        }
        let cap = t.capacity();
        // Updating existing keys repeatedly must not trigger growth.
        for _ in 0..100 {
            t.insert(3, 99).unwrap();
        }
        assert_eq!(t.capacity(), cap);
    }

    #[test]
    fn sustained_inserts_grow_repeatedly() {
        let mut t = DynamicTable::new(factory(TableScheme::RobinHood, HashKind::Mult), 4, 7, 0.9);
        for k in 1..=10_000u64 {
            t.insert(k, k * 2).unwrap();
        }
        assert!(t.rehash_count() >= 9, "rehashed {} times", t.rehash_count());
        assert!(t.load_factor() <= 0.9 + 1e-9);
        for k in (1..=10_000u64).step_by(37) {
            assert_eq!(t.lookup(k), Some(k * 2));
        }
    }

    #[test]
    fn cuckoo_dynamic_handles_internal_failures() {
        let mut t = DynamicTable::new(factory(TableScheme::Cuckoo2, HashKind::Murmur), 4, 3, 0.45);
        for k in 1..=5_000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.len(), 5000);
        for k in (1..=5_000u64).step_by(17) {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn chained_factories_track_nominal_capacity() {
        let mut t = DynamicTable::new(factory(TableScheme::Chained24, HashKind::Murmur), 6, 1, 0.5);
        assert_eq!(t.capacity(), 64);
        for k in 1..=200u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.capacity() >= 512, "nominal capacity should have doubled repeatedly");
        for k in 1..=200u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn chained_directory_is_half_nominal() {
        // The documented convention: a `2^bits` nominal capacity gets a
        // `2^(bits-1)` directory. An empty table's footprint is exactly
        // the directory, which makes the invariant observable. `bits = 4`
        // is the regression case: `.max(4)` used to produce a directory
        // *equal* to the nominal capacity there.
        for bits in 2..=8u8 {
            let t8 =
                TableFactory::build(&factory(TableScheme::Chained8, HashKind::Murmur), bits, 1);
            assert_eq!(t8.capacity(), 1 << bits, "H8 nominal at bits {bits}");
            assert_eq!(t8.memory_bytes(), (1usize << (bits - 1)) * 8, "H8 dir at bits {bits}");
            let t24 =
                TableFactory::build(&factory(TableScheme::Chained24, HashKind::Murmur), bits, 1);
            assert_eq!(t24.capacity(), 1 << bits, "H24 nominal at bits {bits}");
            assert_eq!(t24.memory_bytes(), (1usize << (bits - 1)) * 24, "H24 dir at bits {bits}");
        }
    }

    #[test]
    fn model_semantics_preserved_across_growth() {
        let mut t = DynamicTable::new(factory(TableScheme::Quadratic, HashKind::Murmur), 4, 5, 0.7);
        check_against_model_over(&mut t, 4000, 0xD1, 1024);
        assert!(t.rehash_count() >= 5, "the model stream must grow the table");
    }

    #[test]
    fn model_semantics_preserved_across_incremental_growth() {
        for step in [1usize, 4, 64] {
            let mut t = DynamicTable::with_policy(
                factory(TableScheme::Quadratic, HashKind::Murmur),
                4,
                5,
                0.7,
                GrowthPolicy::Incremental { step },
            );
            check_against_model_over(&mut t, 4000, 0xD1, 1024);
            assert!(t.rehash_count() >= 5, "step {step}: the model stream must grow the table");
        }
    }

    #[test]
    #[should_panic(expected = "grow threshold")]
    fn rejects_invalid_threshold() {
        let _ = DynamicTable::new(factory(TableScheme::LinearProbing, HashKind::Murmur), 4, 1, 1.5);
    }

    #[test]
    #[should_panic(expected = "step must be >= 1")]
    fn rejects_zero_migration_step() {
        let _ = DynamicTable::with_policy(
            factory(TableScheme::LinearProbing, HashKind::Murmur),
            4,
            1,
            0.5,
            GrowthPolicy::Incremental { step: 0 },
        );
    }

    #[test]
    fn incremental_and_all_at_once_twins_agree_element_wise() {
        // Drive both policies through an identical mixed stream; every
        // observable must match at every step, including the states where
        // the incremental table holds two generations.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut inc = DynamicTable::with_policy(
            factory(TableScheme::LinearProbing, HashKind::Murmur),
            4,
            9,
            0.7,
            GrowthPolicy::Incremental { step: 1 },
        );
        let mut aao =
            DynamicTable::new(factory(TableScheme::LinearProbing, HashKind::Murmur), 4, 9, 0.7);
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut saw_migration = false;
        for stepno in 0..6000 {
            let key = rng.gen_range(1..=900u64);
            match rng.gen_range(0..10u8) {
                0..=5 => {
                    let v = rng.gen::<u64>() >> 1;
                    assert_eq!(inc.insert(key, v), aao.insert(key, v), "step {stepno}");
                }
                6..=7 => assert_eq!(inc.delete(key), aao.delete(key), "step {stepno}"),
                _ => assert_eq!(inc.lookup(key), aao.lookup(key), "step {stepno}"),
            }
            assert_eq!(inc.len(), aao.len(), "step {stepno}: len");
            assert_eq!(inc.capacity(), aao.capacity(), "step {stepno}: capacity");
            assert_eq!(inc.rehash_count(), aao.rehash_count(), "step {stepno}: rehashes");
            saw_migration |= inc.is_migrating();
        }
        assert!(saw_migration, "step 1 over 900 keys must leave a migration observable");
        assert!(aao.rehash_count() >= 2, "stream must cross at least two generations");
    }

    #[test]
    fn migration_drains_at_step_rate_and_completes() {
        const STEP: usize = 3;
        let mut t = DynamicTable::with_policy(
            factory(TableScheme::LinearProbing, HashKind::Murmur),
            5,
            2,
            0.5,
            GrowthPolicy::Incremental { step: STEP },
        );
        for k in 1..=16u64 {
            t.insert(k, k).unwrap();
        }
        assert!(!t.is_migrating());
        // The 17th insert pays its (empty) drain before it grows.
        t.insert(17, 17).unwrap();
        assert!(t.is_migrating(), "crossing the threshold must start a migration");
        assert_eq!((t.capacity(), t.len(), t.migration_backlog()), (64, 17, 16));
        // The order the drain reaches the draining generation's keys in.
        let order: Vec<u64> = drain_order(&t).into_iter().map(|(_, k)| k).collect();
        let in_old = |t: &DynamicTable<TableBuilder>, k: u64| {
            t.old.as_ref().is_some_and(|g| g.table.lookup(k).is_some())
        };
        // Op `j` removes the key the drain would reach last — a delete
        // (even `j`) or a replacement (odd `j`) of a still-pending key —
        // after its own run moves the next STEP keys.
        let mut op = 0;
        while t.is_migrating() {
            // Mid-drain the table holds both generations, no copy of
            // either, and has retired nothing yet.
            let old_bytes = t.old.as_ref().unwrap().table.memory_bytes();
            assert_eq!(t.memory_bytes(), t.inner.memory_bytes() + old_bytes, "op {op}");
            let backlog = t.migration_backlog();
            let victim = order[order.len() - 1 - op];
            if op % 2 == 0 {
                assert_eq!(t.delete(victim), Some(victim), "op {op}");
            } else {
                assert_eq!(t.insert(victim, victim + 100), Ok(InsertOutcome::Replaced(victim)));
            }
            // Each op moves STEP keys and removes its victim, so the old
            // generation is empty after ceil(16 / (STEP + 1)) = 4 ops; the
            // fifth op's run finds it empty and drops it.
            let fell = backlog - t.migration_backlog();
            if op < 4 {
                assert_eq!(fell, STEP + 1, "op {op}: the run's budget plus its own key");
                let (moved, left) = ((op + 1) * STEP, order.len() - (op + 1));
                for (i, &k) in order.iter().enumerate() {
                    let pending = (moved..left).contains(&i);
                    assert_eq!(in_old(&t, k), pending, "op {op}: key {k} at walk step {i}");
                }
            } else {
                assert_eq!(fell, 0, "op {op}");
            }
            for (i, &k) in order.iter().enumerate() {
                let removed = i >= order.len() - 1 - op;
                let want = match (removed, (order.len() - 1 - i) % 2) {
                    (false, _) => Some(k),
                    (true, 0) => None,
                    (true, _) => Some(k + 100),
                };
                assert_eq!(t.lookup(k), want, "op {op}: key {k} mid-migration");
            }
            op += 1;
            assert!(op < 16, "migration never completed");
        }
        assert_eq!(op, 16usize.div_ceil(STEP + 1) + 1, "the drain ended early or late");
        assert_eq!(t.len(), 17 - 3);
    }

    #[test]
    fn robin_hood_deletes_mid_drain_keep_every_entry() {
        // Backward-shift deletes move entries inside the draining
        // generation, around the cursor the drain resumes at: every op is
        // checked against a model until the drain ends, and no entry may
        // fall behind the cursor (the restart at unit 0 is for refused
        // moves only, and would hide a cursor that skips entries).
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut t = DynamicTable::with_policy(
            factory(TableScheme::RobinHood, HashKind::Murmur),
            8,
            3,
            0.9,
            GrowthPolicy::Incremental { step: 1 },
        );
        let mut model = std::collections::HashMap::new();
        let mut key = 0u64;
        while !t.is_migrating() {
            key += 1;
            t.insert(key, key * 3).unwrap();
            model.insert(key, key * 3);
        }
        assert_eq!(t.migration_backlog(), 230, "0.9 of 256 slots drain one per op");
        let mut rng = StdRng::seed_from_u64(0xB5);
        let mut ops = 0;
        while t.is_migrating() {
            if ops % 3 == 2 {
                key += 1;
                assert_eq!(t.insert(key, key * 3), Ok(InsertOutcome::Inserted), "op {ops}");
                model.insert(key, key * 3);
            } else {
                let victim = rng.gen_range(1..=key + 8);
                assert_eq!(t.delete(victim), model.remove(&victim), "op {ops}: delete {victim}");
            }
            assert_eq!(t.len(), model.len(), "op {ops}");
            for (&k, &v) in &model {
                assert_eq!(t.lookup(k), Some(v), "op {ops}: key {k}");
            }
            if t.is_migrating() {
                let behind = t.migration_backlog() - drain_order(&t).len();
                assert_eq!(behind, 0, "op {ops}: entries behind the drain's cursor");
            }
            ops += 1;
            assert!(ops < 1000, "the drain never ended");
        }
        let mut seen = std::collections::HashMap::new();
        t.for_each(&mut |k, v| assert!(seen.insert(k, v).is_none(), "key {k} twice"));
        assert_eq!(seen, model);
    }

    #[test]
    fn replacing_an_unmigrated_key_reports_old_value() {
        let mut t = DynamicTable::with_policy(
            factory(TableScheme::LinearProbing, HashKind::Murmur),
            4,
            3,
            0.5,
            GrowthPolicy::Incremental { step: 1 },
        );
        for k in 1..=9u64 {
            t.insert(k, k * 10).unwrap();
        }
        assert!(t.is_migrating());
        // Some keys are still in the old generation; replacing any key
        // must report its previous value exactly once.
        for k in 1..=9u64 {
            assert_eq!(t.insert(k, k * 100), Ok(InsertOutcome::Replaced(k * 10)), "key {k}");
        }
        for k in 1..=9u64 {
            assert_eq!(t.lookup(k), Some(k * 100));
        }
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn incremental_cuckoo_survives_generation_failures() {
        // Cuckoo cycles inside the *new* generation force the rebuild
        // escape hatch mid-migration; no entry may be lost.
        let mut t = DynamicTable::with_policy(
            factory(TableScheme::Cuckoo2, HashKind::Murmur),
            4,
            3,
            0.45,
            GrowthPolicy::Incremental { step: 1 },
        );
        for k in 1..=5_000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.len(), 5000);
        for k in (1..=5_000u64).step_by(17) {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn incremental_batches_see_both_generations() {
        let mut t = DynamicTable::with_policy(
            factory(TableScheme::RobinHood, HashKind::Murmur),
            4,
            5,
            0.5,
            GrowthPolicy::Incremental { step: 1 },
        );
        for k in 1..=9u64 {
            t.insert(k, k * 3).unwrap();
        }
        assert!(t.is_migrating());
        let keys: Vec<u64> = (1..=12u64).collect();
        let mut vals = vec![None; keys.len()];
        t.lookup_batch(&keys, &mut vals);
        for (&k, v) in keys.iter().zip(&vals) {
            let expect = if k <= 9 { Some(k * 3) } else { None };
            assert_eq!(*v, expect, "lookup_batch key {k}");
        }
        let mut removed = vec![None; keys.len()];
        t.delete_batch(&keys, &mut removed);
        for (&k, v) in keys.iter().zip(&removed) {
            let expect = if k <= 9 { Some(k * 3) } else { None };
            assert_eq!(*v, expect, "delete_batch key {k}");
        }
        assert_eq!(t.len(), 0);
    }

    /// A chained factory with a fixed byte budget — the configuration
    /// whose budget errors must propagate instead of triggering growth.
    #[derive(Clone)]
    struct BudgetedChained8 {
        budget_bytes: usize,
    }

    impl TableFactory for BudgetedChained8 {
        type Table = ChainedTable8<Murmur>;

        fn build(&self, bits: u8, seed: u64) -> Self::Table {
            ChainedTable8::new(
                bits.saturating_sub(1).max(1),
                HashFamily::from_seed(seed),
                SlabAllocator::new(),
                MemoryBudget::bytes(self.budget_bytes),
                Some(1usize << bits),
            )
        }
    }

    #[test]
    fn memory_budget_errors_propagate_instead_of_growing() {
        // Room for the directory plus ~40 chain entries. The growth
        // threshold (90% of 2^8 = 230) sits far beyond what the budget
        // admits, so the budget error fires first. It used to be treated
        // as capacity pressure — growing (and allocating *more*) forever.
        let factory = BudgetedChained8 { budget_bytes: (1 << 7) * 8 + 40 * 24 };
        for policy in [GrowthPolicy::AllAtOnce, GrowthPolicy::Incremental { step: 4 }] {
            let mut t = DynamicTable::with_policy(factory.clone(), 8, 1, 0.9, policy);
            let mut inserted = 0u64;
            let err = loop {
                match t.insert(inserted + 1, inserted + 1) {
                    Ok(_) => inserted += 1,
                    Err(e) => break e,
                }
                assert!(inserted < 1000, "{policy:?}: budget never enforced");
            };
            assert_eq!(err, TableError::MemoryBudgetExceeded, "{policy:?}");
            assert!(inserted >= 30, "{policy:?}: only {inserted} inserts fit");
            // The failed insert must leave the table fully usable.
            assert_eq!(t.len() as u64, inserted, "{policy:?}");
            for k in 1..=inserted {
                assert_eq!(t.lookup(k), Some(k), "{policy:?}: key {k} lost after budget error");
            }
        }
    }

    #[test]
    fn failed_insert_never_loses_draining_entries() {
        // Mid-migration, a failing insert whose key still sits in the
        // draining generation must leave that entry in place: claiming it
        // before the (fallible) new-generation insert would lose it on
        // the budget-error path. The budget is tuned so the error fires
        // while a migration is in flight (dir 2^7 fits, dir 2^8 leaves
        // room for only ~60 of the ~95 live entries).
        let factory = BudgetedChained8 { budget_bytes: (1 << 7) * 8 + 60 * 24 };
        let mut t =
            DynamicTable::with_policy(factory, 6, 1, 0.5, GrowthPolicy::Incremental { step: 1 });
        let mut key = 0u64;
        let err = loop {
            key += 1;
            if let Err(e) = t.insert(key, key) {
                break e;
            }
            assert!(key < 10_000, "budget never enforced");
        };
        assert_eq!(err, TableError::MemoryBudgetExceeded);
        assert!(t.is_migrating(), "scenario must hit the budget mid-migration");
        let live = key - 1;
        let len_before = t.len();
        // Replacing keys still in the old generation makes the new
        // generation allocate a fresh node — over budget, so it errors.
        // The entry must survive the failed attempt.
        for k in 1..=live {
            match t.insert(k, k + 7000) {
                Ok(crate::InsertOutcome::Replaced(_)) => {}
                Ok(o) => panic!("key {k}: unexpected outcome {o:?}"),
                Err(TableError::MemoryBudgetExceeded) => {}
                Err(e) => panic!("key {k}: unexpected error {e:?}"),
            }
            assert!(t.lookup(k).is_some(), "key {k} lost by a failed replacement");
        }
        assert_eq!(t.len(), len_before, "failed replacements changed len");
    }

    #[test]
    fn a_budget_refusing_a_claimed_write_keeps_its_draining_copy() {
        // The batch claims first: a key's draining copy leaves before the
        // kernel writes it, so a write the budget refuses must put the
        // copy back (the scenario of the single-key test above).
        let factory = BudgetedChained8 { budget_bytes: (1 << 7) * 8 + 60 * 24 };
        let mut t =
            DynamicTable::with_policy(factory, 6, 1, 0.5, GrowthPolicy::Incremental { step: 1 });
        let mut live = 0u64;
        while t.insert(live + 1, live + 1).is_ok() {
            live += 1;
        }
        assert!(t.is_migrating(), "scenario must hit the budget mid-migration");
        // Room for one more entry, which the next write's one-entry drain
        // step takes; then the claimed key cannot be written.
        let moved = (1..=live).find(|&k| t.inner.lookup(k).is_some()).expect("a moved key");
        assert_eq!(t.delete(moved), Some(moved));
        let (_, unmoved) = *drain_order(&t).last().expect("entries left to drain");
        let len = t.len();
        let mut out = [Ok(InsertOutcome::Inserted)];
        t.upsert_batch(&[(unmoved, 5)], &|old, v| old + v, &mut out);
        assert_eq!(out, [Err(TableError::MemoryBudgetExceeded)]);
        assert_eq!(t.lookup(unmoved), Some(unmoved), "the refused write lost its key");
        assert_eq!(t.len(), len);
    }

    #[test]
    fn threshold_trigger_is_exact_integer_math() {
        // For any threshold and capacity the trigger must flip exactly at
        // `floor(threshold_fp · cap / 2^32) + 1` — including the huge
        // capacities where the old `f64` comparison rounds.
        for thr in [0.5f64, 0.7, 0.9, 0.99] {
            let fp = (thr * (1u64 << 32) as f64).round() as u64;
            for bits in [4u8, 20, 39, 40] {
                let cap = 1usize << bits;
                let boundary = ((fp as u128 * cap as u128) >> 32) as usize;
                assert!(
                    !crosses_threshold(fp, boundary, cap),
                    "thr {thr} bits {bits}: fired one entry early"
                );
                assert!(
                    crosses_threshold(fp, boundary + 1, cap),
                    "thr {thr} bits {bits}: missed the trigger"
                );
            }
        }
        // The paper's 50% case stays bit-exact: 2^31 in Q32.
        assert!(!crosses_threshold(1 << 31, 8, 16));
        assert!(crosses_threshold(1 << 31, 9, 16));
    }

    #[test]
    fn retired_generations_accumulate_and_reclaim() {
        let mut t =
            DynamicTable::new(factory(TableScheme::LinearProbing, HashKind::Murmur), 4, 1, 0.5);
        // SAFETY: no writer runs, and `&t` keeps every generation alive.
        let probed = unsafe { t.lookup_batch_optimistic(&[1], &mut [None]) };
        assert!(probed, "an LP generation supports lock-free reads");
        // A reader pinned before the growth keeps every generation it
        // replaces.
        let pin = hold_pin();
        for k in 1..=200u64 {
            t.insert(k, k * 3).unwrap();
        }
        assert!(t.rehash_count() >= 3);
        assert!(t.retired_bytes() > 0, "a pinned reader must keep replaced generations");
        assert!(t.memory_bytes() > t.inner().memory_bytes(), "retired bytes must be counted");
        drop(pin);
        settle(&mut t);
        assert_eq!(t.memory_bytes(), t.inner().memory_bytes());
        // Unpinned, growth frees what it replaces.
        for k in 201..=800u64 {
            t.insert(k, k * 3).unwrap();
        }
        settle(&mut t);
        for k in (1..=800u64).step_by(7) {
            assert_eq!(t.lookup(k), Some(k * 3));
        }
    }

    #[test]
    fn a_pinned_reader_keeps_the_drained_generation_until_it_unpins() {
        let mut t = DynamicTable::with_policy(
            factory(TableScheme::LinearProbing, HashKind::Murmur),
            4,
            3,
            0.5,
            GrowthPolicy::Incremental { step: 1 },
        );
        for k in 1..=9u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.is_migrating(), "the 9th insert must leave a migration in flight");
        let old_bytes = 16 * 16;
        let pin = hold_pin();
        while t.is_migrating() {
            t.delete(ABSENT_KEY);
        }
        // The drain ended with the pin held: the 16-slot generation stays
        // through any number of mutating operations.
        for k in 10..=13u64 {
            assert_eq!(t.retired_bytes(), old_bytes);
            t.insert(k, k).unwrap();
            t.delete(ABSENT_KEY);
        }
        assert_eq!(t.retired_bytes(), old_bytes);
        drop(pin);
        settle(&mut t);
        for k in 1..=13u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn optimistic_lookup_sees_both_generations() {
        let mut t = DynamicTable::with_policy(
            factory(TableScheme::LinearProbing, HashKind::Murmur),
            4,
            3,
            0.5,
            GrowthPolicy::Incremental { step: 1 },
        );
        for k in 1..=9u64 {
            t.insert(k, k * 7).unwrap();
        }
        assert!(t.is_migrating(), "the 9th insert must leave a migration in flight");
        // Quiescent (no racing writer), so the optimistic batch must
        // complete and agree with the locked path.
        let keys: Vec<u64> = (1..=12).collect();
        let mut got = vec![None; keys.len()];
        let before = t.stats.snapshot();
        // SAFETY: no writer runs, and `&t` keeps every generation alive.
        assert!(unsafe { t.lookup_batch_optimistic(&keys, &mut got) });
        let after = t.stats.snapshot();
        assert_eq!(after.lookups - before.lookups, 12, "one count per batch element");
        assert_eq!(after.misses - before.misses, 3, "keys 10..=12 are absent");
        for (&k, v) in keys.iter().zip(&got) {
            assert_eq!(*v, t.lookup(k), "key {k} mid-migration");
        }
    }

    #[test]
    fn unsupported_scheme_disables_dynamic_optimism() {
        let t = DynamicTable::new(factory(TableScheme::Chained8, HashKind::Murmur), 6, 1, 0.5);
        // SAFETY: no writer runs, and `&t` keeps every generation alive.
        let probed = unsafe { t.lookup_batch_optimistic(&[1], &mut [None]) };
        assert!(!probed, "chained inner tables must keep the dynamic wrapper pessimistic");
    }

    /// A builder-backed dynamic table — the only factory whose
    /// generations can change scheme.
    fn builder_table(
        scheme: TableScheme,
        bits: u8,
        policy: GrowthPolicy,
        adaptive: Option<AdaptiveConfig>,
    ) -> DynamicTable<TableBuilder> {
        DynamicTable::with_migration(TableBuilder::new(scheme), bits, 7, 0.9, policy, adaptive)
    }

    #[test]
    fn switch_to_rehomes_contents_incrementally() {
        let mut t = builder_table(
            TableScheme::LinearProbing,
            10,
            GrowthPolicy::Incremental { step: 2 },
            None,
        );
        for k in 1..=500u64 {
            t.insert(k, k * 3).unwrap();
        }
        assert!(t.inner().display_name().starts_with("LP"));
        assert_eq!(t.switch_to(TableScheme::Fingerprint), Ok(true));
        assert!(t.is_migrating(), "an incremental switch must open a draining generation");
        assert!(t.inner().display_name().starts_with("FP"), "new generation must be the target");
        assert_eq!(t.capacity(), 1 << 10, "a switch re-homes at the same capacity");
        assert_eq!(t.scheme_switches(), 1);
        // Every observable stays correct at every drain state.
        let mut model: std::collections::HashMap<u64, u64> =
            (1..=500u64).map(|k| (k, k * 3)).collect();
        let mut key = 500u64;
        while t.is_migrating() {
            key += 1;
            t.insert(key, key * 3).unwrap();
            model.insert(key, key * 3);
            assert_eq!(t.len(), model.len());
            for probe in [1u64, 250, 499, key, key + 1] {
                assert_eq!(t.lookup(probe), model.get(&probe).copied(), "key {probe} mid-drain");
            }
            assert!(key < 2000, "switch drain never completed");
        }
        for (k, v) in &model {
            assert_eq!(t.lookup(*k), Some(*v), "key {k} lost by the switch");
        }
        // Deletes mid-drain must hit the draining generation: switch
        // again and delete a key that has not migrated yet.
        assert_eq!(t.switch_to(TableScheme::RobinHood), Ok(true));
        assert!(t.is_migrating());
        assert_eq!(t.delete(1), Some(3), "delete must reach the draining generation");
        assert_eq!(t.lookup(1), None);
    }

    #[test]
    fn switch_to_all_at_once_is_a_stop_the_world_rebuild() {
        let mut t = builder_table(TableScheme::LinearProbing, 8, GrowthPolicy::AllAtOnce, None);
        for k in 1..=100u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.switch_to(TableScheme::Quadratic), Ok(true));
        assert!(!t.is_migrating(), "all-at-once switches leave no draining generation");
        assert!(t.inner().display_name().starts_with("QP"));
        assert_eq!(t.len(), 100);
        for k in 1..=100u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn switch_to_refuses_pointless_or_infeasible_targets() {
        // Already that scheme.
        let mut t = builder_table(TableScheme::RobinHood, 8, GrowthPolicy::AllAtOnce, None);
        t.insert(1, 1).unwrap();
        assert_eq!(t.switch_to(TableScheme::RobinHood), Ok(false));
        // A fingerprint target below one 16-slot group.
        let mut small = builder_table(TableScheme::LinearProbing, 3, GrowthPolicy::AllAtOnce, None);
        assert_eq!(small.switch_to(TableScheme::Fingerprint), Ok(false));
        // A factory that cannot re-target (one fixed to a table type).
        let mut fixed = DynamicTable::new(BudgetedChained8 { budget_bytes: usize::MAX }, 8, 1, 0.9);
        assert_eq!(fixed.switch_to(TableScheme::Fingerprint), Ok(false));
        assert_eq!(t.scheme_switches() + small.scheme_switches() + fixed.scheme_switches(), 0);
    }

    /// Small controller windows so tests converge in a few hundred ops: at
    /// 100 lookups per mutating op, 16 ops clear the 1 Ki-lookup evidence
    /// floor.
    const TEST_ADAPTIVE: AdaptiveConfig = AdaptiveConfig { check_every: 16, cooldown: 64 };

    #[test]
    fn adaptive_switches_lp_to_fp_when_misses_dominate() {
        let mut t = builder_table(
            TableScheme::LinearProbing,
            10,
            GrowthPolicy::Incremental { step: 8 },
            Some(TEST_ADAPTIVE),
        );
        // Build phase: ~59% load, no lookups yet.
        for k in 1..=600u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.inner().display_name().starts_with("LP"));
        // Probe phase: read-mostly (1 write per 100 lookups) and ~100%
        // miss — the decision graph's static miss-heavy mid-load band,
        // which recommends the fingerprint filter.
        let mut switched_at = None;
        for round in 0..300u64 {
            for i in 0..100u64 {
                assert_eq!(t.lookup(1_000_000 + round * 100 + i), None);
            }
            // The rare mutation that funds controller ticks and drain.
            t.delete(2_000_000 + round);
            if switched_at.is_none() && t.scheme_switches() > 0 {
                switched_at = Some(round);
            }
            if switched_at.is_some() && !t.is_migrating() {
                break;
            }
        }
        assert!(switched_at.is_some(), "controller never reacted to the miss-heavy phase");
        assert!(!t.is_migrating(), "drain never completed");
        assert!(
            t.inner().display_name().starts_with("FP"),
            "miss-heavy reads should land on the fingerprint table, got {}",
            t.inner().display_name()
        );
        for k in (1..=600u64).step_by(29) {
            assert_eq!(t.lookup(k), Some(k), "key {k} lost by the adaptive switch");
        }
        let stats = t.table_stats().expect("dynamic tables report runtime stats");
        assert_eq!(stats.scheme_switches, t.scheme_switches() as u64);
        assert!(stats.miss_ratio() > 0.9, "miss ratio {:.3}", stats.miss_ratio());
    }

    #[test]
    fn adaptive_judges_the_window_not_the_history() {
        // ~29% load: hits keep LP, a miss-heavy window wants something
        // else. A long hit phase must not delay the reaction to misses.
        let mut t = builder_table(
            TableScheme::LinearProbing,
            10,
            GrowthPolicy::Incremental { step: 8 },
            Some(TEST_ADAPTIVE),
        );
        for k in 1..=300u64 {
            t.insert(k, k).unwrap();
        }
        for round in 0..400u64 {
            for i in 0..100u64 {
                let k = 1 + (round * 100 + i) % 300;
                assert_eq!(t.lookup(k), Some(k));
            }
            t.delete(2_000_000 + round);
        }
        assert_eq!(t.scheme_switches(), 0, "the graph says LP for hits at this load");
        let ops = (1..=1000u64).find(|op| {
            for i in 0..100u64 {
                assert_eq!(t.lookup(1_000_000 + op * 100 + i), None);
            }
            t.delete(3_000_000 + op);
            t.scheme_switches() > 0
        });
        let ops = ops.expect("controller never reacted to the miss phase");
        assert!(ops <= 2 * TEST_ADAPTIVE.check_every, "switched {ops} ops into the miss phase");
    }

    #[test]
    fn adaptive_returns_to_lp_when_hits_dominate_at_low_load() {
        let mut t = builder_table(
            TableScheme::Fingerprint,
            10,
            GrowthPolicy::Incremental { step: 8 },
            Some(TEST_ADAPTIVE),
        );
        // ~29% load — the graph's low-load band, where successful reads
        // recommend plain linear probing.
        for k in 1..=300u64 {
            t.insert(k, k * 2).unwrap();
        }
        for round in 0..300u64 {
            for i in 0..100u64 {
                assert_eq!(
                    t.lookup(1 + (round * 100 + i) % 300),
                    Some((1 + (round * 100 + i) % 300) * 2)
                );
            }
            t.delete(2_000_000 + round);
            if t.scheme_switches() > 0 && !t.is_migrating() {
                break;
            }
        }
        assert!(t.scheme_switches() > 0, "controller never reacted to the hit-heavy phase");
        assert!(
            t.inner().display_name().starts_with("LP"),
            "hit-heavy low-load reads should land on LP, got {}",
            t.inner().display_name()
        );
        for k in (1..=300u64).step_by(17) {
            assert_eq!(t.lookup(k), Some(k * 2));
        }
    }

    #[test]
    fn adaptive_respects_cooldown_between_switches() {
        // After a switch the controller must hold still for `cooldown`
        // mutating ops: no verdict at all while the new generation drains
        // and settles.
        let cfg = AdaptiveConfig { check_every: 32, cooldown: 10_000 };
        let mut t = builder_table(
            TableScheme::LinearProbing,
            10,
            GrowthPolicy::Incremental { step: 64 },
            Some(cfg),
        );
        for k in 1..=600u64 {
            t.insert(k, k).unwrap();
        }
        // Miss-heavy burst → one switch.
        for round in 0..200u64 {
            for i in 0..50u64 {
                let _ = t.lookup(1_000_000 + round * 50 + i);
            }
            t.delete(2_000_000 + round);
        }
        assert_eq!(t.scheme_switches(), 1, "cooldown must pin the table after the first switch");
    }

    #[test]
    fn cross_scheme_retirees_account_exact_bytes() {
        let mut t = builder_table(
            TableScheme::LinearProbing,
            10,
            GrowthPolicy::Incremental { step: 4 },
            None,
        );
        for k in 1..=500u64 {
            t.insert(k, k).unwrap();
        }
        let lp_bytes = t.inner().memory_bytes();
        // A reader pinned across the drain keeps the LP generation.
        let pin = hold_pin();
        assert_eq!(t.switch_to(TableScheme::Fingerprint), Ok(true));
        let mut key = 500u64;
        while t.is_migrating() {
            key += 1;
            t.insert(key, key).unwrap();
            assert!(key < 5000, "drain never completed");
        }
        // The drained LP generation is parked, and its exact footprint —
        // an array scheme's bytes depend only on capacity, so the figure
        // is knowable in advance — shows up in the retiree accounting.
        assert_eq!(t.retired_bytes(), lp_bytes, "retired LP generation must be charged exactly");
        assert!(t.memory_bytes() >= t.inner().memory_bytes() + lp_bytes);
        drop(pin);
        settle(&mut t);
        for k in (1..=key).step_by(31) {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn switch_during_growth_drain_finishes_the_growth_first() {
        // A switch landing while a growth migration is still draining
        // must finish that drain stop-the-world before opening the new
        // generation — at most two generations ever exist.
        let mut t = builder_table(
            TableScheme::LinearProbing,
            4,
            GrowthPolicy::Incremental { step: 1 },
            None,
        );
        for k in 1..=15u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.is_migrating(), "the growth drain must still be in flight");
        assert_eq!(t.switch_to(TableScheme::RobinHood), Ok(true));
        assert!(t.inner().display_name().starts_with("RH"));
        for k in 1..=15u64 {
            assert_eq!(t.lookup(k), Some(k), "key {k} lost across growth+switch");
        }
        let mut key = 15u64;
        while t.is_migrating() {
            key += 1;
            t.insert(key, key).unwrap();
            assert!(key < 500, "switch drain never completed");
        }
        for k in 1..=key {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    /// Feed `items` to `batched` in one `insert_batch` and to `single`
    /// key by key; outcomes, `len`, `capacity` and the rehash count must
    /// agree. Returns the outcomes.
    fn insert_both<F: TableFactory>(
        batched: &mut DynamicTable<F>,
        single: &mut DynamicTable<F>,
        items: &[(u64, u64)],
    ) -> Vec<Result<InsertOutcome, TableError>> {
        let out = insert_both_unshaped(batched, single, items);
        assert_eq!(batched.capacity(), single.capacity(), "capacity");
        assert_eq!(batched.rehash_count(), single.rehash_count(), "rehashes");
        out
    }

    /// [`insert_both`] without the capacity and rehash-count comparison.
    fn insert_both_unshaped<F: TableFactory>(
        batched: &mut DynamicTable<F>,
        single: &mut DynamicTable<F>,
        items: &[(u64, u64)],
    ) -> Vec<Result<InsertOutcome, TableError>> {
        let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
        batched.insert_batch(items, &mut out);
        for (i, &(k, v)) in items.iter().enumerate() {
            assert_eq!(out[i], single.insert(k, v), "element {i} (key {k})");
        }
        assert_eq!(batched.len(), single.len(), "len");
        out
    }

    const POLICIES: [GrowthPolicy; 3] = [
        GrowthPolicy::AllAtOnce,
        GrowthPolicy::Incremental { step: 1 },
        GrowthPolicy::Incremental { step: 64 },
    ];

    #[test]
    fn batches_match_single_key_path_across_growth_for_every_scheme() {
        // From 16 slots over a 4096-key universe: seven doublings, and
        // under the incremental policies most batches start mid-drain.
        // Two-way cuckoo gets a threshold under its 50 % load limit, so
        // that its growth too is the threshold's doing (see the cuckoo
        // test below for what holds past the limit).
        for (i, scheme) in TableScheme::ALL.into_iter().enumerate() {
            let threshold = if scheme == TableScheme::Cuckoo2 { 0.45 } else { 0.7 };
            for policy in POLICIES {
                let table = || {
                    let f = factory(scheme, HashKind::Murmur);
                    DynamicTable::with_policy(f, 4, 11, threshold, policy)
                };
                let (mut batched, mut single) = (table(), table());
                check_batch_matches_single_over(&mut batched, &mut single, 0xBA7 + i as u64, 4096);
                assert!(single.rehash_count() >= 5, "{scheme:?} {policy:?}: stream never grew");
            }
        }
    }

    #[test]
    fn a_run_may_end_exactly_at_headroom() {
        for policy in POLICIES {
            let table = || {
                DynamicTable::with_policy(
                    factory(TableScheme::LinearProbing, HashKind::Murmur),
                    4,
                    1,
                    0.5,
                    policy,
                )
            };
            let (mut batched, mut single) = (table(), table());
            assert_eq!(batched.headroom(), 8);
            // Eight fresh keys use the headroom up and not one entry more.
            let fill: Vec<(u64, u64)> = (1..=8u64).map(|k| (k, k)).collect();
            insert_both(&mut batched, &mut single, &fill);
            assert_eq!(
                (batched.headroom(), batched.capacity(), batched.rehash_count()),
                (0, 16, 0)
            );
            // At the threshold a replacement stays put; the fresh key
            // behind it grows the table, and the rest of the batch runs
            // in the new generation's headroom.
            let out = insert_both(&mut batched, &mut single, &[(3, 30), (9, 9), (10, 10), (3, 31)]);
            assert_eq!(out[0], Ok(InsertOutcome::Replaced(3)));
            assert_eq!(out[3], Ok(InsertOutcome::Replaced(30)));
            assert_eq!((batched.capacity(), batched.rehash_count()), (32, 1));
        }
    }

    #[test]
    fn replacements_at_the_threshold_never_grow() {
        let table =
            || DynamicTable::new(factory(TableScheme::RobinHood, HashKind::Murmur), 4, 1, 0.5);
        let (mut batched, mut single) = (table(), table());
        let fill: Vec<(u64, u64)> = (1..=8u64).map(|k| (k, k)).collect();
        insert_both(&mut batched, &mut single, &fill);
        for round in 1..=10u64 {
            let again: Vec<(u64, u64)> = (1..=8u64).map(|k| (k, k + round)).collect();
            let out = insert_both(&mut batched, &mut single, &again);
            assert!(out.iter().all(|o| matches!(o, Ok(InsertOutcome::Replaced(_)))));
        }
        assert_eq!((batched.capacity(), batched.rehash_count()), (16, 0));
    }

    #[test]
    fn a_key_twice_in_one_run_claims_its_draining_copy_once() {
        let table = || {
            DynamicTable::with_policy(
                factory(TableScheme::LinearProbing, HashKind::Murmur),
                6,
                3,
                0.5,
                GrowthPolicy::Incremental { step: 1 },
            )
        };
        let (mut batched, mut single) = (table(), table());
        let fill: Vec<(u64, u64)> = (1..=33u64).map(|k| (k, k * 10)).collect();
        insert_both(&mut batched, &mut single, &fill);
        // The key the drain reaches last outlives the two steps this batch
        // pays for.
        let (_, key) = *drain_order(&batched).last().expect("the 33rd insert opens a migration");
        assert_eq!(batched.old.as_ref().unwrap().table.lookup(key), Some(key * 10));
        let out = insert_both(&mut batched, &mut single, &[(key, 1), (key, 2)]);
        assert_eq!(out, [Ok(InsertOutcome::Replaced(key * 10)), Ok(InsertOutcome::Replaced(1))]);
        assert_eq!(batched.old.as_ref().unwrap().table.lookup(key), None, "copy claimed");
        assert_eq!(batched.lookup(key), Some(2));
        assert_eq!(batched.len(), 33);
    }

    #[test]
    fn reserved_keys_inside_a_run_are_inert() {
        let table =
            || DynamicTable::new(factory(TableScheme::LinearProbing, HashKind::Murmur), 6, 1, 0.5);
        let (mut batched, mut single) = (table(), table());
        let items = [(1, 1), (crate::EMPTY_KEY, 0), (2, 2), (crate::TOMBSTONE_KEY, 0), (1, 3)];
        let out = insert_both(&mut batched, &mut single, &items);
        assert_eq!(out[1], Err(TableError::ReservedKey));
        assert_eq!(out[3], Err(TableError::ReservedKey));
        assert_eq!(out[4], Ok(InsertOutcome::Replaced(1)));
        assert_eq!(batched.len(), 2);
        // They owe no tick and count as no insert, batched or not.
        assert_eq!(batched.table_stats().unwrap().inserts, 3);
        assert_eq!(single.table_stats().unwrap().inserts, 3);
    }

    #[test]
    fn a_cuckoo_failure_inside_a_run_replays_the_rest_in_order() {
        // Two-way cuckoo at a 90 % threshold fails kick chains long before
        // the threshold. Every key comes twice per batch, so whenever the
        // first copy is the one that fails, the second must still replace
        // it (not the other way round) once the rebuild has made room.
        // Outcomes, `len` and contents are compared; capacity is not:
        // which element's kick chain fails is a property of the slot
        // layout, and a batch that pays its drain up front (or runs past
        // a failure and takes those elements back out) lays slots out
        // differently from the one-key path.
        let mut below_threshold_rebuilds = 0;
        for policy in POLICIES {
            let table = || {
                DynamicTable::with_policy(
                    factory(TableScheme::Cuckoo2, HashKind::Murmur),
                    5,
                    3,
                    0.9,
                    policy,
                )
            };
            let (mut batched, mut single) = (table(), table());
            for round in 0..40u64 {
                let keys = round * 12 + 1..=round * 12 + 12;
                let items: Vec<(u64, u64)> =
                    keys.clone().map(|k| (k, k)).chain(keys.map(|k| (k, k + 1))).collect();
                let capacity = batched.capacity();
                let out = insert_both_unshaped(&mut batched, &mut single, &items);
                assert!(out[..12].iter().all(|o| *o == Ok(InsertOutcome::Inserted)));
                for (&(k, _), o) in items[12..].iter().zip(&out[12..]) {
                    assert_eq!(*o, Ok(InsertOutcome::Replaced(k)), "round {round} key {k}");
                }
                // Grown, yet still within the old capacity's limit: not the
                // threshold's doing.
                let limit = growth_limit(batched.threshold_fp, capacity);
                if batched.capacity() > capacity && batched.len() <= limit {
                    below_threshold_rebuilds += 1;
                }
            }
            assert_eq!(batched.len(), 480);
            for k in 1..=480u64 {
                assert_eq!(batched.lookup(k), Some(k + 1), "key {k}");
            }
        }
        assert!(below_threshold_rebuilds > 0, "no run ever met a cuckoo failure");
    }

    /// Linear probing that refuses one key with `CuckooFailure` in every
    /// generation of the factory's `refuses_at` slots — capacity pressure
    /// below the threshold, on demand.
    struct Jinxed(crate::LinearProbing<Murmur>, usize);

    const JINXED_KEY: u64 = 777;

    impl crate::ReadView for Jinxed {}

    impl HashTable for Jinxed {
        fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
            if key == JINXED_KEY && self.0.capacity() == self.1 {
                return Err(TableError::CuckooFailure);
            }
            self.0.insert(key, value)
        }
        fn upsert_batch(
            &mut self,
            items: &[(u64, u64)],
            combine: &dyn Fn(u64, u64) -> u64,
            out: &mut [Result<InsertOutcome, TableError>],
        ) {
            for (item, o) in items.chunks(1).zip(out.chunks_mut(1)) {
                if item[0].0 == JINXED_KEY && self.0.capacity() == self.1 {
                    o[0] = Err(TableError::CuckooFailure);
                } else {
                    self.0.upsert_batch(item, combine, o);
                }
            }
        }
        fn lookup(&self, key: u64) -> Option<u64> {
            self.0.lookup(key)
        }
        fn delete(&mut self, key: u64) -> Option<u64> {
            self.0.delete(key)
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

    #[derive(Clone)]
    struct JinxedFactory {
        refuses_at: usize,
    }

    impl TableFactory for JinxedFactory {
        type Table = Jinxed;

        fn build(&self, bits: u8, seed: u64) -> Jinxed {
            Jinxed(crate::LinearProbing::with_seed(bits, seed), self.refuses_at)
        }
    }

    /// A generation that claims `2^bits` slots and four entries, and holds
    /// nothing: a 2^32-slot table without its 64 GiB. Only what the growth
    /// trigger reads works; a walk or an insert panics.
    struct Colossal(u8);

    impl crate::ReadView for Colossal {}

    impl HashTable for Colossal {
        fn insert(&mut self, _: u64, _: u64) -> Result<InsertOutcome, TableError> {
            panic!("insert into a colossal table");
        }
        fn upsert_batch(
            &mut self,
            _: &[(u64, u64)],
            _: &dyn Fn(u64, u64) -> u64,
            _: &mut [Result<InsertOutcome, TableError>],
        ) {
            panic!("upsert into a colossal table");
        }
        fn lookup(&self, _: u64) -> Option<u64> {
            None
        }
        fn delete(&mut self, _: u64) -> Option<u64> {
            None
        }
        fn len(&self) -> usize {
            4
        }
        fn capacity(&self) -> usize {
            1 << self.0
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn walk(&self, _: usize, _: &mut dyn FnMut(usize, u64, u64) -> bool) {
            panic!("walk of a colossal table");
        }
        fn display_name(&self) -> String {
            "Colossal".into()
        }
    }

    #[derive(Clone)]
    struct ColossalFactory;

    impl TableFactory for ColossalFactory {
        type Table = Colossal;

        fn build(&self, bits: u8, _: u64) -> Colossal {
            assert!(bits <= 32, "factory asked for 2^{bits} slots");
            Colossal(bits)
        }
    }

    #[test]
    #[should_panic(expected = "dynamic table exceeded 2^32 slots")]
    fn doubling_past_the_largest_capacity_panics_before_allocating() {
        // A threshold of 1e-9 puts the trigger at four entries of 2^32
        // slots, so the fifth must double. The default (stop-the-world)
        // growth walks every entry into the table it builds; the ceiling
        // must refuse first.
        let mut t = DynamicTable::new(ColossalFactory, 32, 1, 1e-9);
        let _ = t.insert(1, 1);
    }

    #[test]
    fn a_move_refused_mid_run_rebuilds_without_losing_an_entry() {
        // A 32-slot generation holds the jinxed key; the 64-slot one it
        // drains into refuses it. One op's budget (64) walks the whole
        // generation as one run, with the jinxed key's slot inside it.
        let mut t = DynamicTable::with_policy(
            JinxedFactory { refuses_at: 64 },
            5,
            3,
            0.9,
            GrowthPolicy::Incremental { step: 64 },
        );
        let keys: Vec<u64> = (1..=27u64).chain([JINXED_KEY, 1000]).collect();
        for &k in &keys {
            t.insert(k, k * 10).unwrap();
        }
        let order = drain_order(&t);
        let (slot, _) = *order.iter().find(|&&(_, k)| k == JINXED_KEY).unwrap();
        let (first, last) = (order[0].0, order[order.len() - 1].0);
        assert!(first < slot && slot < last, "slot {slot} is not mid-run ({first}..={last})");
        assert_eq!((t.capacity(), t.rehash_count()), (64, 1));
        // The run refuses the jinxed key; the rebuild fallback merges both
        // generations and retries until a generation takes it: two
        // 64-slot seeds, then 128 slots.
        assert_eq!(t.insert(2000, 20_000), Ok(InsertOutcome::Inserted));
        assert!(!t.is_migrating());
        assert_eq!((t.capacity(), t.rehash_count()), (128, 2), "the rebuild must fire");
        let mut seen = Vec::new();
        t.for_each(&mut |k, v| seen.push((k, v)));
        seen.sort_unstable();
        let mut want: Vec<(u64, u64)> = keys.iter().chain(&[2000]).map(|&k| (k, k * 10)).collect();
        want.sort_unstable();
        assert_eq!(seen, want, "an entry was lost or duplicated");
    }

    #[test]
    fn a_budget_refusing_a_move_mid_run_leaves_the_table_unchanged() {
        // A 32-slot generation (16-entry directory) holds 28 entries in
        // 128 + 28 × 24 = 800 bytes; the 64-slot one (32-entry directory)
        // fits 22 in the same budget. The insert that opens the migration
        // takes one, so the run moving all 28 is refused at its 22nd move.
        let mut t = DynamicTable::with_policy(
            BudgetedChained8 { budget_bytes: 800 },
            5,
            1,
            0.9,
            GrowthPolicy::Incremental { step: 64 },
        );
        for k in 1..=29u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!((t.migration_backlog(), t.len()), (28, 29));
        assert_eq!(t.insert(30, 30), Err(TableError::MemoryBudgetExceeded));
        assert!(t.is_migrating());
        assert_eq!(t.migration_backlog(), 7, "the run's 21 placed moves stay moved");
        assert_eq!(t.len(), 29);
        for k in 1..=30u64 {
            assert_eq!(t.lookup(k), (k < 30).then_some(k), "key {k}");
        }
        // Make room for the seven: one batch deletes seven moved keys (its
        // own drain run is refused again first, and restores again).
        let moved: Vec<u64> =
            (1..=29u64).filter(|&k| t.inner.lookup(k).is_some()).take(7).collect();
        let mut out = [None; 7];
        t.delete_batch(&moved, &mut out);
        assert!(out.iter().zip(&moved).all(|(o, &k)| *o == Some(k)));
        assert_eq!(t.migration_backlog(), 7);
        // A chained restore lands in its own bucket, at or after the
        // cursor; a probing table's can land on a tombstone behind it. Put
        // the cursor past every restored key, as such a restore leaves it:
        // the next operation's drain must restart at unit 0 to find them.
        t.old.as_mut().unwrap().cursor = 1 << 20;
        assert_eq!(t.delete(ABSENT_KEY), None);
        assert!(!t.is_migrating(), "the restart drained the restored keys");
        assert_eq!(t.len(), 22);
        for k in 1..=29u64 {
            assert_eq!(t.lookup(k), (!moved.contains(&k)).then_some(k), "key {k}");
        }
    }

    #[test]
    fn a_failure_inside_a_run_mid_drain_keeps_claims_and_order() {
        let table = || {
            DynamicTable::with_policy(
                JinxedFactory { refuses_at: 32 },
                4,
                5,
                0.5,
                GrowthPolicy::Incremental { step: 1 },
            )
        };
        let (mut batched, mut single) = (table(), table());
        let fill: Vec<(u64, u64)> = (1..=9u64).map(|k| (k, k * 10)).collect();
        insert_both(&mut batched, &mut single, &fill);
        let order = drain_order(&batched);
        assert!(order.len() > 4, "the batch below must not drain everything");
        let (_, unmoved) = order[order.len() - 1];
        // One run, 32 slots: the jinxed key fails in it, after an element
        // whose draining copy must be claimed before the rebuild merges
        // the generations, and before duplicates of both keys.
        let items = [(unmoved, 1), (JINXED_KEY, 2), (JINXED_KEY, 3), (unmoved, 4)];
        assert!(batched.headroom() >= items.len());
        let out = insert_both(&mut batched, &mut single, &items);
        let expect = [
            InsertOutcome::Replaced(unmoved * 10),
            InsertOutcome::Inserted,
            InsertOutcome::Replaced(2),
            InsertOutcome::Replaced(1),
        ];
        assert_eq!(out, expect.map(Ok));
        assert_eq!((batched.capacity(), batched.len()), (64, 10));
        assert_eq!(batched.lookup(unmoved), Some(4));
        assert_eq!(batched.lookup(JINXED_KEY), Some(3));
    }

    #[test]
    fn an_insert_only_stream_counts_no_lookups() {
        // The replacement check of an insert that meets the threshold is
        // not a user lookup: it must not reach the counters the adaptive
        // controller's windows are cut from.
        let mut t =
            DynamicTable::new(factory(TableScheme::LinearProbing, HashKind::Murmur), 4, 1, 0.5);
        for k in 1..=500u64 {
            t.insert(k, k).unwrap();
        }
        let items: Vec<(u64, u64)> = (400..=900u64).map(|k| (k, k)).collect();
        t.insert_batch(&items, &mut vec![Ok(InsertOutcome::Inserted); items.len()]);
        assert!(t.rehash_count() >= 6, "the stream must have met the threshold repeatedly");
        let s = t.table_stats().unwrap();
        assert_eq!((s.lookups, s.misses, s.inserts), (0, 0, 1001));
    }

    #[test]
    fn a_batch_advances_the_adaptive_clock_by_its_length() {
        // `check_every` and `cooldown` are documented in mutating
        // operations: N of them move the controller to the same tick
        // whether they arrive one by one or as one batch.
        let cfg = AdaptiveConfig { check_every: 8, cooldown: 0 };
        let table = || {
            let mut t = builder_table(
                TableScheme::LinearProbing,
                10,
                GrowthPolicy::Incremental { step: 4 },
                Some(cfg),
            );
            t.controller.cooldown_left = 1000;
            t
        };
        let clock = |t: &DynamicTable<TableBuilder>| {
            (t.controller.ops_since_check, t.controller.cooldown_left)
        };
        let (mut batched, mut single) = (table(), table());
        let items: Vec<(u64, u64)> = (1..=100u64).map(|k| (k, k)).collect();
        insert_both(&mut batched, &mut single, &items);
        assert_eq!(clock(&single), (4, 1000 - 96));
        assert_eq!(clock(&batched), clock(&single), "after 100 inserts");
        let keys: Vec<u64> = (1..=99u64).collect();
        batched.delete_batch(&keys, &mut vec![None; keys.len()]);
        for &k in &keys {
            single.delete(k);
        }
        assert_eq!(clock(&single), (7, 1000 - 192));
        assert_eq!(clock(&batched), clock(&single), "after 99 deletes");
    }

    #[test]
    fn runtime_stats_flow_through_the_dynamic_wrapper() {
        let mut t = builder_table(TableScheme::LinearProbing, 8, GrowthPolicy::AllAtOnce, None);
        for k in 1..=50u64 {
            t.insert(k, k).unwrap();
        }
        for k in 1..=100u64 {
            let _ = t.lookup(k);
        }
        t.delete(1);
        let s = t.table_stats().expect("dynamic tables report stats");
        assert_eq!(s.lookups, 100);
        assert_eq!(s.misses, 50);
        assert_eq!(s.inserts, 50);
        assert_eq!(s.deletes, 1);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(s.rehashes, 0);
    }
}
