//! Unified table construction: one builder for the whole
//! scheme × hash × capacity × seed × SIMD × growth grid.
//!
//! A typed constructor per cell (`with_seed`, `with_seed_simd`,
//! `with_hash`, `with_budget`) forces every consumer (workload drivers,
//! figure binaries, the query layer) to re-implement the same dispatch
//! match. [`TableBuilder`] replaces that: describe the table once, then
//! [`TableBuilder::build`] it as a `Box<dyn HashTable>` (static or
//! growing), or hand the builder itself to [`DynamicTable`] — it is the
//! [`TableFactory`] growth and migration run on.
//!
//! ```
//! use sevendim_core::{HashKind, HashTable, TableBuilder, TableScheme};
//!
//! let mut table = TableBuilder::new(TableScheme::RobinHood)
//!     .hash(HashKind::Mult)
//!     .bits(10)
//!     .seed(42)
//!     .build();
//! table.insert(7, 700).unwrap();
//! assert_eq!(table.lookup(7), Some(700));
//! assert_eq!(table.display_name(), "RHMult");
//!
//! // The same description, but growing at the paper's 70% threshold:
//! let growing = TableBuilder::new(TableScheme::RobinHood).bits(4).grow_at(0.7).build();
//! assert_eq!(growing.capacity(), 16);
//! ```
//!
//! The typed constructors on each table remain available (the per-scheme
//! unit tests and the SIMD ablations want concrete types); the builder is
//! the *runtime* grid the query and workload layers drive.

use crate::adaptive::AdaptiveConfig;
use crate::budget::chained_directory_bits;
use crate::chained::{Chained, Directory, Inline, Links};
use crate::decision::{recommend, WorkloadProfile};
use crate::dynamic::{DynamicTable, GrowthPolicy, TableFactory};
use crate::sharded::ShardedTable;
use crate::simd::ProbeKind;
use crate::{
    ChainedTable24, ChainedTable8, Cuckoo, FingerprintTable, HashTable, LinearProbing,
    LinearProbingSoA, MemoryBudget, QuadraticProbing, RobinHood, TableError,
};
use hashfn::{HashFamily, MultAddShift, MultShift, Murmur, Tabulation};
use slab_alloc::SlabAllocator;
use std::path::{Path, PathBuf};

/// What the builder builds: a boxed table that is also [`Send`], so
/// builder-made tables (and the [`ShardedTable`]s wrapping them) can move
/// to and be shared across worker threads.
pub type BoxedTable = Box<dyn HashTable + Send>;

/// The hashing schemes the builder can instantiate — every variant in the
/// study (paper §2), including the SoA layout and the cuckoo arities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TableScheme {
    /// ChainedH8: directory of 8-byte links.
    Chained8,
    /// ChainedH24: 24-byte inline directory entries.
    Chained24,
    /// Linear probing, array-of-structs layout.
    LinearProbing,
    /// Linear probing, struct-of-arrays layout.
    LinearProbingSoA,
    /// Quadratic (triangular) probing.
    Quadratic,
    /// Robin Hood hashing.
    RobinHood,
    /// Cuckoo hashing on two sub-tables.
    Cuckoo2,
    /// Cuckoo hashing on three sub-tables.
    Cuckoo3,
    /// Cuckoo hashing on four sub-tables.
    Cuckoo4,
    /// Bucketized fingerprint probing: 16-slot groups over a 1-byte tag
    /// array, SoA payload (beyond the paper's grid — see
    /// [`crate::FingerprintTable`]).
    Fingerprint,
}

impl TableScheme {
    /// Every scheme, for grid sweeps. Derive scheme lists from this
    /// array instead of enumerating variants by hand, so new schemes
    /// join every sweep automatically.
    pub const ALL: [TableScheme; 10] = [
        TableScheme::Chained8,
        TableScheme::Chained24,
        TableScheme::LinearProbing,
        TableScheme::LinearProbingSoA,
        TableScheme::Quadratic,
        TableScheme::RobinHood,
        TableScheme::Cuckoo2,
        TableScheme::Cuckoo3,
        TableScheme::Cuckoo4,
        TableScheme::Fingerprint,
    ];

    /// Schemes whose probe kernels have a SIMD variant — the cells where
    /// [`TableBuilder::simd`] changes the built table.
    pub fn has_simd_variant(&self) -> bool {
        matches!(
            self,
            TableScheme::LinearProbing | TableScheme::LinearProbingSoA | TableScheme::Fingerprint
        )
    }

    /// Paper-style scheme label (hash-function suffix not included).
    pub fn name(&self) -> &'static str {
        match self {
            TableScheme::Chained8 => "ChainedH8",
            TableScheme::Chained24 => "ChainedH24",
            TableScheme::LinearProbing => "LP",
            TableScheme::LinearProbingSoA => "LPSoA",
            TableScheme::Quadratic => "QP",
            TableScheme::RobinHood => "RH",
            TableScheme::Cuckoo2 => "CuckooH2",
            TableScheme::Cuckoo3 => "CuckooH3",
            TableScheme::Cuckoo4 => "CuckooH4",
            TableScheme::Fingerprint => "FP",
        }
    }
}

/// The hash-function families of the study (paper §3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HashKind {
    /// Multiply-shift.
    Mult,
    /// Multiply-add-shift.
    MultAdd,
    /// Simple tabulation.
    Tab,
    /// Murmur3 64-bit finalizer.
    Murmur,
}

impl HashKind {
    /// Every family, for grid sweeps.
    pub const ALL: [HashKind; 4] =
        [HashKind::Mult, HashKind::MultAdd, HashKind::Tab, HashKind::Murmur];

    /// Paper-style suffix, e.g. `"Mult"`.
    pub fn name(&self) -> &'static str {
        match self {
            HashKind::Mult => "Mult",
            HashKind::MultAdd => "MultAdd",
            HashKind::Tab => "Tab",
            HashKind::Murmur => "Murmur",
        }
    }
}

/// When the durability layer fsyncs the write-ahead log (consumed by the
/// `sevendim-durable` crate; inert configuration data here — `core` has
/// no I/O). See [`TableBuilder::fsync_policy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every group-committed record: by the time a mutation
    /// is acknowledged it is on stable storage. The default, and the only
    /// policy under which the crash-recovery oracle may assume every
    /// acknowledged op survives.
    Always,
    /// `fsync` once every `n` appended records (and always at snapshot
    /// and close): bounded loss window, amortized sync cost.
    EveryN(u64),
    /// Never `fsync` from the mutation path — the OS page cache decides
    /// when bytes hit disk. Snapshot and close still sync. Fastest, and
    /// the loss window is unbounded on power failure (though not on
    /// process crash: appends still reach the kernel before the ack).
    Never,
}

/// Builder for every table in the study. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct TableBuilder {
    scheme: TableScheme,
    hash: HashKind,
    bits: u8,
    seed: u64,
    simd: bool,
    grow_threshold: Option<f64>,
    growth_policy: GrowthPolicy,
    chained_budget: Option<usize>,
    shard_bits: u8,
    optimistic_reads: bool,
    wal_dir: Option<PathBuf>,
    fsync_policy: FsyncPolicy,
    snapshot_every: Option<u64>,
    adaptive: Option<AdaptiveConfig>,
}

/// Growth threshold a [`TableBuilder::adaptive`] build falls back to
/// when [`TableBuilder::grow_at`] was not set: an adaptive table is a
/// [`DynamicTable`] and so can always also grow — 0.85 keeps even the
/// densest target scheme serviceable without forcing early doublings.
pub const DEFAULT_MIGRATION_GROW_AT: f64 = 0.85;

impl TableBuilder {
    /// Start describing a table of `scheme` with the defaults: Mult
    /// hashing, `2^16` slots, seed 0, scalar probing, no growth.
    pub fn new(scheme: TableScheme) -> Self {
        Self {
            scheme,
            hash: HashKind::Mult,
            bits: 16,
            seed: 0,
            simd: false,
            grow_threshold: None,
            growth_policy: GrowthPolicy::AllAtOnce,
            chained_budget: None,
            shard_bits: 0,
            optimistic_reads: true,
            wal_dir: None,
            fsync_policy: FsyncPolicy::Always,
            snapshot_every: None,
            adaptive: None,
        }
    }

    /// Builder preconfigured by the paper's decision graph (Figure 8) for
    /// workload `profile`, with nominal capacity `2^bits` and hash
    /// functions derived from `seed`: the scheme [`profile_choice`] picks,
    /// with Mult. Fingerprint probing gets its SIMD tag scan (the graph
    /// recommends FP *for* that filter; scalar fallback off x86-64) and
    /// ChainedH24 the §4.5 budget for the profile's target fill.
    pub fn for_profile(profile: &WorkloadProfile, bits: u8, seed: u64) -> Self {
        let base = Self::new(profile_choice(profile, bits)).bits(bits).seed(seed);
        match base.scheme {
            TableScheme::Fingerprint => base.simd(true),
            TableScheme::Chained24 => base.chained_budget(target_fill(profile, bits)),
            _ => base,
        }
    }

    /// Change the scheme, keeping everything else.
    pub fn scheme(mut self, scheme: TableScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Hash-function family (default [`HashKind::Mult`]).
    pub fn hash(mut self, hash: HashKind) -> Self {
        self.hash = hash;
        self
    }

    /// Nominal capacity exponent: `2^bits` slots (default 16). Chained
    /// tables get a `2^(bits-1)` directory, the footprint-comparable
    /// convention of §6.
    pub fn bits(mut self, bits: u8) -> Self {
        self.bits = bits;
        self
    }

    /// Seed for hash-function sampling (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Probe with the SIMD kernels where available: AVX2 key scans for
    /// the LP layouts, SSE2 tag scans for the fingerprint scheme (see
    /// [`TableScheme::has_simd_variant`]; other schemes ignore the
    /// toggle). Default off.
    pub fn simd(mut self, on: bool) -> Self {
        self.simd = on;
        self
    }

    /// Wrap the table in a [`DynamicTable`] that doubles when the load
    /// factor would cross `threshold` (the paper's RW thresholds are
    /// 0.5, 0.7, 0.9). Growth is stop-the-world by default; combine with
    /// [`TableBuilder::incremental`] for bounded-pause migration.
    pub fn grow_at(mut self, threshold: f64) -> Self {
        self.grow_threshold = Some(threshold);
        self
    }

    /// Make [`TableBuilder::grow_at`] growth incremental: instead of one
    /// stop-the-world rehash, each doubling opens a second generation and
    /// every subsequent mutating operation migrates up to `step` ≥ 1 old
    /// entries (`step × batch_len` per batch call) until the old
    /// generation drains — see
    /// [`GrowthPolicy::Incremental`](crate::GrowthPolicy). Composes with
    /// [`TableBuilder::shards`]: each shard migrates independently, so
    /// there is no global pause at any point. Without `grow_at` the
    /// policy is inert.
    pub fn incremental(mut self, step: usize) -> Self {
        assert!(step >= 1, "incremental growth step must be >= 1, got {step}");
        self.growth_policy = GrowthPolicy::Incremental { step };
        self
    }

    /// Shard the table into `2^k` independently locked sub-tables routed
    /// by an independent selector hash (see [`ShardedTable`]). Each shard
    /// receives `bits - k` capacity bits, so the total nominal capacity is
    /// unchanged; combined with [`TableBuilder::grow_at`], every shard
    /// grows independently (no stop-the-world rehash). `k = 0` (the
    /// default) builds an unsharded table; `k` up to 8 (256 shards) is
    /// accepted. A fingerprint table additionally needs one 16-slot
    /// group per shard (`bits - k >= 4`, checked at build time).
    pub fn shards(mut self, k: u8) -> Self {
        assert!(k <= 8, "shard bits must be in 0..=8, got {k}");
        self.shard_bits = k;
        self
    }

    /// Convenience form of [`TableBuilder::shards`]: pick a shard count
    /// suited to `threads` concurrent callers — four shards per thread
    /// (so random keys rarely contend on a lock), capped at 256 shards.
    pub fn concurrency(mut self, threads: usize) -> Self {
        let target = threads.max(1).saturating_mul(4);
        let mut k = 0u8;
        while (1usize << k) < target && k < 8 {
            k += 1;
        }
        self.shard_bits = k;
        self
    }

    /// Allow sharded builds to serve pure reads through the lock-free
    /// seqlock path (default on; see the
    /// [sharded module docs](crate::sharded)). Only affects
    /// [`TableBuilder::shards`]/[`TableBuilder::concurrency`] builds —
    /// unsharded tables have no lock to skip. Combined with
    /// [`TableBuilder::grow_at`] or [`TableBuilder::adaptive`], a shard's doubling
    /// or switch may race a lock-free reader; each read call then pins the
    /// global epoch, and a replaced generation is freed once no reader
    /// that could still probe it is pinned (see [`crate::epoch`] for the
    /// protocol and its ordering argument). Turning the knob off restores
    /// lock-only reads.
    pub fn optimistic_reads(mut self, on: bool) -> Self {
        self.optimistic_reads = on;
        self
    }

    /// Apply the §4.5 memory budget to a chained scheme, targeting
    /// `n_target` entries in the `2^bits` open-addressing-equivalent
    /// footprint. [`TableBuilder::try_build`] then fails with
    /// [`TableError::MemoryBudgetExceeded`] when no directory size fits —
    /// the paper's "absent cell". Ignored by non-chained schemes.
    pub fn chained_budget(mut self, n_target: usize) -> Self {
        self.chained_budget = Some(n_target);
        self
    }

    /// Log every mutation to a write-ahead log under `dir` and recover
    /// from it on open. `core` only records the description — the
    /// `sevendim-durable` crate reads it back (via
    /// [`TableBuilder::wal_dir`]) and wraps the built table in its
    /// `DurableTable`; see that crate for the record format, group
    /// commit, and recovery semantics.
    pub fn wal(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// How often the WAL is fsync'd (default [`FsyncPolicy::Always`]).
    /// Inert without [`TableBuilder::wal`].
    pub fn fsync_policy(mut self, policy: FsyncPolicy) -> Self {
        self.fsync_policy = policy;
        self
    }

    /// Let the built table adapt (by default it only grows): every
    /// `cfg.check_every` mutating operations it re-evaluates the paper's
    /// Figure-8 decision graph against the workload it observed, and
    /// switches scheme at the same capacity when the graph disagrees with
    /// the current one. An adaptive build always wraps in a
    /// [`DynamicTable`], even without [`TableBuilder::grow_at`] (growth
    /// then defaults to [`DEFAULT_MIGRATION_GROW_AT`]). Composes with
    /// [`TableBuilder::shards`] (each shard adapts independently) and
    /// [`TableBuilder::incremental`] (a switch drains a bounded number of
    /// entries per mutating op instead of stopping the world). An
    /// explicit switch is [`DynamicTable::switch_to`].
    pub fn adaptive(mut self, cfg: AdaptiveConfig) -> Self {
        self.adaptive = Some(cfg);
        self
    }

    /// Write a snapshot (and truncate the log) after every `records`
    /// logged records, bounding replay work at recovery. Snapshots scan
    /// the live table through `ConcurrentTable::for_each_shared` — one
    /// shard locked at a time — so they never stop the world. `None`
    /// (the default) means snapshot only when asked explicitly. Inert
    /// without [`TableBuilder::wal`].
    pub fn snapshot_every(mut self, records: u64) -> Self {
        assert!(records >= 1, "snapshot_every wants a record count >= 1, got {records}");
        self.snapshot_every = Some(records);
        self
    }

    /// The configured capacity exponent (`2^bits` nominal slots).
    pub fn capacity_bits(&self) -> u8 {
        self.bits
    }

    /// The configured shard-count exponent (`2^k` shards; 0 = unsharded).
    pub fn shard_bits(&self) -> u8 {
        self.shard_bits
    }

    /// The configured growth policy (relevant only with
    /// [`TableBuilder::grow_at`] set).
    pub fn growth_policy(&self) -> GrowthPolicy {
        self.growth_policy
    }

    /// The configured WAL directory ([`TableBuilder::wal`]), if any.
    pub fn wal_dir(&self) -> Option<&Path> {
        self.wal_dir.as_deref()
    }

    /// The configured fsync policy ([`TableBuilder::fsync_policy`]).
    pub fn fsync_kind(&self) -> FsyncPolicy {
        self.fsync_policy
    }

    /// The configured snapshot cadence ([`TableBuilder::snapshot_every`]).
    pub fn snapshot_threshold(&self) -> Option<u64> {
        self.snapshot_every
    }

    /// Paper-style label of the configured cell, e.g. `"RHMult"`.
    pub fn label(&self) -> String {
        format!("{}{}", self.scheme.name(), self.hash.name())
    }

    /// Build the described table: sharded into `2^k` locked sub-tables
    /// when [`TableBuilder::shards`] was set, and/or wrapped in growing
    /// [`DynamicTable`]s when [`TableBuilder::grow_at`] was set (one per
    /// shard — growth is per-shard, never stop-the-world).
    ///
    /// The only *fallible* configuration is a budgeted chained table (see
    /// [`TableBuilder::chained_budget`]); every other valid description
    /// succeeds. Invalid descriptions **panic** — capacity bits outside
    /// `1..=32`, `bits <= shard_bits`, or a fingerprint table with fewer
    /// than one 16-slot group per shard (`bits - shard_bits < 4`) — as
    /// misconfigurations, not runtime failures.
    pub fn try_build(&self) -> Result<BoxedTable, TableError> {
        self.check_fingerprint_groups();
        if self.shard_bits > 0 {
            return Ok(Box::new(self.try_build_sharded()?));
        }
        if self.grow_threshold.is_some() || self.adaptive.is_some() {
            let threshold = self.grow_threshold.unwrap_or(DEFAULT_MIGRATION_GROW_AT);
            let factory = Self { grow_threshold: None, chained_budget: None, ..self.clone() };
            return Ok(Box::new(DynamicTable::with_migration(
                factory,
                self.bits,
                self.seed,
                threshold,
                self.growth_policy,
                self.adaptive,
            )));
        }
        self.build_static()
    }

    /// [`TableBuilder::try_build`], panicking on an infeasible chained
    /// budget — the convenient form for the non-budgeted grid.
    pub fn build(&self) -> BoxedTable {
        self.try_build().expect("table configuration is infeasible (chained memory budget)")
    }

    /// Build the described table as a concrete [`ShardedTable`] — the
    /// form multi-threaded callers want, since the
    /// [`ConcurrentTable`](crate::ConcurrentTable) operations are not
    /// object-safe through `Box<dyn HashTable>`. Works for any
    /// [`TableBuilder::shards`] setting (`k = 0` builds one locked
    /// shard). Each shard gets `bits - k` capacity bits and a distinct
    /// hash-function seed.
    pub fn try_build_sharded(&self) -> Result<ShardedTable<BoxedTable>, TableError> {
        assert!(
            self.bits > self.shard_bits,
            "capacity bits ({}) must exceed shard bits ({})",
            self.bits,
            self.shard_bits
        );
        self.check_fingerprint_groups();
        let n = 1usize << self.shard_bits;
        let shard_template = Self {
            shard_bits: 0,
            bits: self.bits - self.shard_bits,
            // A budgeted chained table splits its §4.5 target evenly.
            chained_budget: self.chained_budget.map(|t| t / n),
            ..self.clone()
        };
        let mut table = ShardedTable::try_new(self.shard_bits, self.seed, |i| {
            shard_template
                .clone()
                .seed(self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)))
                .try_build()
        })?;
        table.set_optimistic_reads(self.optimistic_reads);
        Ok(table)
    }

    /// [`TableBuilder::try_build_sharded`], panicking on an infeasible
    /// chained budget.
    pub fn build_sharded(&self) -> ShardedTable<BoxedTable> {
        self.try_build_sharded().expect("table configuration is infeasible (chained memory budget)")
    }

    /// Panic early (with the builder's numbers, not a shard's) when a
    /// fingerprint description leaves a shard less than one 16-slot
    /// group. Shared by [`TableBuilder::try_build`] and
    /// [`TableBuilder::try_build_sharded`].
    fn check_fingerprint_groups(&self) {
        if self.scheme == TableScheme::Fingerprint {
            assert!(
                self.bits >= self.shard_bits + 4,
                "fingerprint tables need one 16-slot group per shard: capacity bits ({}) must \
                 be at least shard bits ({}) + 4",
                self.bits,
                self.shard_bits
            );
        }
    }

    fn build_static(&self) -> Result<BoxedTable, TableError> {
        match self.hash {
            HashKind::Mult => self.build_with_hash::<MultShift>(),
            HashKind::MultAdd => self.build_with_hash::<MultAddShift>(),
            HashKind::Tab => self.build_with_hash::<Tabulation>(),
            HashKind::Murmur => self.build_with_hash::<Murmur>(),
        }
    }

    fn build_with_hash<H: HashFamily>(&self) -> Result<BoxedTable, TableError> {
        let (bits, seed) = (self.bits, self.seed);
        let kind = if self.simd { ProbeKind::Simd } else { ProbeKind::Scalar };
        Ok(match self.scheme {
            TableScheme::Chained8 => match self.chained_budget {
                Some(n) => Box::new(ChainedTable8::<H>::with_budget(bits, n, seed)?),
                None => Box::new(self.unbudgeted_chained::<H, Links>()),
            },
            TableScheme::Chained24 => match self.chained_budget {
                Some(n) => Box::new(ChainedTable24::<H>::with_budget(bits, n, seed)?),
                None => Box::new(self.unbudgeted_chained::<H, Inline>()),
            },
            TableScheme::LinearProbing => {
                let mut t = LinearProbing::<H>::with_seed(bits, seed);
                t.set_probe_kind(kind);
                Box::new(t)
            }
            TableScheme::LinearProbingSoA => {
                let mut t = LinearProbingSoA::<H>::with_seed(bits, seed);
                t.set_probe_kind(kind);
                Box::new(t)
            }
            TableScheme::Quadratic => Box::new(QuadraticProbing::<H>::with_seed(bits, seed)),
            TableScheme::RobinHood => Box::new(RobinHood::<H>::with_seed(bits, seed)),
            TableScheme::Cuckoo2 => Box::new(Cuckoo::<H, 2>::with_seed(bits, seed)),
            TableScheme::Cuckoo3 => Box::new(Cuckoo::<H, 3>::with_seed(bits, seed)),
            TableScheme::Cuckoo4 => Box::new(Cuckoo::<H, 4>::with_seed(bits, seed)),
            TableScheme::Fingerprint => {
                let mut t = FingerprintTable::<H>::with_seed(bits, seed);
                t.set_probe_kind(kind);
                Box::new(t)
            }
        })
    }

    /// Unbudgeted chained table sized by the dynamic convention of §6: a
    /// `2^(bits-1)` directory tracked against a `2^bits` nominal capacity,
    /// keeping its footprint comparable to the open-addressing schemes.
    fn unbudgeted_chained<H: HashFamily, D: Directory>(&self) -> Chained<H, D> {
        let dir_bits = self.bits.saturating_sub(1).max(1);
        Chained::new(
            dir_bits,
            H::from_seed(self.seed),
            SlabAllocator::new(),
            MemoryBudget::unlimited(),
            Some(1usize << self.bits),
        )
    }
}

/// The table [`TableBuilder::for_profile`] will actually build: the
/// decision graph's recommendation (Figure 8), downgraded when the
/// recommendation cannot be honoured. A chained recommendation whose
/// §4.5 memory budget for a `2^bits` open-addressing-equivalent
/// footprint cannot hold the profile's target fill falls back to
/// `Fingerprint` when the profile sits in the fingerprint table's own
/// band (static, not write-heavy — the miss-filtering regime the graph
/// places FP in) and otherwise to `RobinHood`, the paper's all-rounder.
/// A fingerprint recommendation for a table smaller than one 16-slot
/// group also degrades to `RobinHood`. Panics on capacity bits outside
/// `1..=32`, as the build would.
pub fn profile_choice(profile: &WorkloadProfile, bits: u8) -> TableScheme {
    let fp_feasible = crate::check_capacity_bits(bits) >= crate::GROUP_SLOTS;
    let scheme = recommend(profile);
    if scheme == TableScheme::Fingerprint && !fp_feasible {
        return TableScheme::RobinHood;
    }
    if scheme == TableScheme::Chained24 {
        let budget = MemoryBudget::open_addressing_equivalent(bits);
        if chained_directory_bits::<Inline>(budget, target_fill(profile, bits), bits).is_none() {
            let fp_band = profile.mutability == crate::decision::Mutability::Static
                && profile.write_ratio <= 0.5;
            return if fp_feasible && fp_band {
                TableScheme::Fingerprint
            } else {
                TableScheme::RobinHood
            };
        }
    }
    scheme
}

/// Entries a `2^bits` table holds at `profile`'s load factor — the
/// target fill of a budgeted chained recommendation.
fn target_fill(profile: &WorkloadProfile, bits: u8) -> usize {
    ((1usize << bits) as f64 * profile.load_factor).round() as usize
}

/// A `TableBuilder` is a [`TableFactory`]: [`DynamicTable`] re-invokes it
/// with a larger `bits` (and a fresh seed) on every growth step. Growth
/// builds are always unbudgeted — a table that is allowed to double has,
/// by definition, no fixed §4.5 footprint to budget against — and always
/// unsharded: sharding wraps *around* growth (each shard is its own
/// [`DynamicTable`]), never the other way.
impl TableFactory for TableBuilder {
    type Table = BoxedTable;

    fn build(&self, bits: u8, seed: u64) -> BoxedTable {
        Self {
            bits,
            seed,
            grow_threshold: None,
            chained_budget: None,
            shard_bits: 0,
            ..self.clone()
        }
        .build_static()
        .expect("unbudgeted static build cannot fail")
    }

    /// The same description re-homed onto `scheme` — how
    /// [`DynamicTable::switch_to`] obtains the target generation's
    /// factory. Hash family, seed and SIMD toggle carry over, except that
    /// the fingerprint table always gets its SIMD tag scan, as in
    /// [`TableBuilder::for_profile`].
    fn for_scheme(&self, scheme: TableScheme) -> Option<Self> {
        Some(Self { scheme, simd: self.simd || scheme == TableScheme::Fingerprint, ..self.clone() })
    }

    fn scheme(&self) -> Option<TableScheme> {
        Some(self.scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_common::check_against_model;
    use crate::InsertOutcome;

    #[test]
    fn builds_every_scheme_hash_cell() {
        for scheme in TableScheme::ALL {
            for hash in HashKind::ALL {
                let mut t = TableBuilder::new(scheme).hash(hash).bits(10).seed(3).build();
                assert_eq!(
                    t.display_name(),
                    format!("{}{}", scheme.name(), hash.name()),
                    "label mismatch"
                );
                for k in 1..=100u64 {
                    assert_eq!(t.insert(k, k * 2), Ok(InsertOutcome::Inserted));
                }
                assert_eq!(t.len(), 100);
                assert_eq!(t.lookup(40), Some(80));
                assert_eq!(t.delete(40), Some(80));
                assert_eq!(t.lookup(40), None);
            }
        }
    }

    #[test]
    fn simd_toggle_reaches_simd_capable_schemes() {
        let t = TableBuilder::new(TableScheme::LinearProbing).bits(8).simd(true).build();
        assert_eq!(t.display_name(), "LPMultSIMD");
        let t = TableBuilder::new(TableScheme::LinearProbingSoA).bits(8).simd(true).build();
        assert_eq!(t.display_name(), "LPSoAMultSIMD");
        let t = TableBuilder::new(TableScheme::Fingerprint).bits(8).simd(true).build();
        assert_eq!(t.display_name(), "FPMultSIMD");
        // Schemes without a SIMD kernel ignore the toggle.
        let t = TableBuilder::new(TableScheme::RobinHood).bits(8).simd(true).build();
        assert_eq!(t.display_name(), "RHMult");
        // The toggle changes exactly the cells has_simd_variant names.
        for scheme in TableScheme::ALL {
            let plain = TableBuilder::new(scheme).bits(8).build().display_name();
            let simd = TableBuilder::new(scheme).bits(8).simd(true).build().display_name();
            assert_eq!(plain != simd, scheme.has_simd_variant(), "{scheme:?}");
        }
    }

    #[test]
    fn grow_at_produces_a_doubling_table() {
        let mut t = TableBuilder::new(TableScheme::Quadratic)
            .hash(HashKind::Murmur)
            .bits(4)
            .seed(9)
            .grow_at(0.5)
            .build();
        assert_eq!(t.capacity(), 16);
        for k in 1..=1000u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.capacity() >= 2048, "capacity {} should have doubled repeatedly", t.capacity());
        for k in (1..=1000u64).step_by(13) {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn budgeted_chained_reports_infeasible_cells() {
        // 90% of a 2^10 table cannot fit chained hashing's §4.5 budget.
        let b = TableBuilder::new(TableScheme::Chained24).bits(10).chained_budget(922);
        assert!(matches!(b.try_build(), Err(TableError::MemoryBudgetExceeded)));
        // At 45% it fits.
        let b = TableBuilder::new(TableScheme::Chained24).bits(10).chained_budget(460);
        assert!(b.try_build().is_ok());
    }

    #[test]
    fn for_profile_matches_decision_graph() {
        let read_low = WorkloadProfile {
            load_factor: 0.3,
            successful_ratio: 1.0,
            write_ratio: 0.0,
            dense_keys: false,
            mutability: crate::decision::Mutability::Static,
        };
        assert_eq!(TableBuilder::for_profile(&read_low, 10, 1).build().display_name(), "LPMult");
        let very_full = WorkloadProfile { load_factor: 0.92, ..read_low };
        assert_eq!(
            TableBuilder::for_profile(&very_full, 10, 1).build().display_name(),
            "CuckooH4Mult"
        );
        let miss_heavy = WorkloadProfile { successful_ratio: 0.1, ..read_low };
        assert!(TableBuilder::for_profile(&miss_heavy, 10, 1)
            .build()
            .display_name()
            .starts_with("ChainedH24"));
    }

    #[test]
    #[should_panic(expected = "one 16-slot group per shard")]
    fn fingerprint_rejects_sub_group_shards() {
        let _ = TableBuilder::new(TableScheme::Fingerprint).bits(10).shards(7).try_build();
    }

    #[test]
    #[should_panic(expected = "one 16-slot group per shard")]
    fn fingerprint_rejects_sub_group_capacity() {
        let _ = TableBuilder::new(TableScheme::Fingerprint).bits(3).try_build();
    }

    #[test]
    fn for_profile_degrades_fingerprint_below_one_group() {
        let miss_heavy_mid = WorkloadProfile {
            load_factor: 0.7,
            successful_ratio: 0.0,
            write_ratio: 0.0,
            dense_keys: false,
            mutability: crate::decision::Mutability::Static,
        };
        assert_eq!(profile_choice(&miss_heavy_mid, 10), TableScheme::Fingerprint);
        let t = TableBuilder::for_profile(&miss_heavy_mid, 10, 1).build();
        assert_eq!(t.display_name(), "FPMultSIMD");
        // Below one 16-slot group the recommendation must not panic the
        // build — it degrades to the all-rounder.
        for bits in 1..=3u8 {
            assert_eq!(
                profile_choice(&miss_heavy_mid, bits),
                TableScheme::RobinHood,
                "bits {bits}"
            );
            let t = TableBuilder::for_profile(&miss_heavy_mid, bits, 1).build();
            assert_eq!(t.display_name(), "RHMult");
        }
    }

    #[test]
    #[should_panic(expected = "capacity bits")]
    fn for_profile_rejects_capacity_bits_past_32() {
        // `2^64` slots would overflow the shift sizing the profile.
        let _ = TableBuilder::for_profile(&WorkloadProfile::baseline(), 64, 1);
    }

    #[test]
    fn incremental_growth_matches_all_at_once_through_builder() {
        let base = TableBuilder::new(TableScheme::LinearProbing).bits(4).seed(9).grow_at(0.7);
        assert_eq!(base.growth_policy(), GrowthPolicy::AllAtOnce);
        let inc_desc = base.clone().incremental(2);
        assert_eq!(inc_desc.growth_policy(), GrowthPolicy::Incremental { step: 2 });
        let mut inc = inc_desc.build();
        let mut aao = base.build();
        for k in 1..=2000u64 {
            assert_eq!(inc.insert(k, k), aao.insert(k, k), "insert {k}");
            if k % 3 == 0 {
                assert_eq!(inc.delete(k / 3), aao.delete(k / 3), "delete {}", k / 3);
            }
        }
        assert_eq!(inc.len(), aao.len());
        assert_eq!(inc.capacity(), aao.capacity());
        for k in (1..=2000u64).step_by(7) {
            assert_eq!(inc.lookup(k), aao.lookup(k), "lookup {k}");
        }
    }

    #[test]
    #[should_panic(expected = "step must be >= 1")]
    fn incremental_rejects_zero_step() {
        let _ = TableBuilder::new(TableScheme::LinearProbing).incremental(0);
    }

    #[test]
    fn sharded_incremental_growth_grows_per_shard() {
        let t = TableBuilder::new(TableScheme::LinearProbing)
            .bits(8)
            .seed(3)
            .shards(2)
            .grow_at(0.7)
            .incremental(4)
            .build_sharded();
        let items: Vec<(u64, u64)> = (1..=5000u64).map(|k| (k, k)).collect();
        let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
        use crate::sharded::ConcurrentTable;
        t.insert_batch_shared(&items, &mut out);
        assert!(out.iter().all(|o| o.is_ok()));
        assert_eq!(t.len_shared(), 5000);
        t.for_each_shard(|i, shard| {
            assert!(shard.capacity() > 64, "shard {i} never grew");
            assert!(shard.load_factor() <= 0.7 + 1e-9, "shard {i} over threshold");
        });
        for k in (1..=5000u64).step_by(41) {
            assert_eq!(t.lookup_shared(k), Some(k));
        }
    }

    #[test]
    fn dynamic_builds_keep_model_semantics() {
        let mut t = TableBuilder::new(TableScheme::Cuckoo3)
            .hash(HashKind::Tab)
            .bits(5)
            .seed(2)
            .grow_at(0.6)
            .build();
        check_against_model(&mut t, 3000, 0x60D);
    }

    #[test]
    fn label_matches_display_name_across_grid() {
        for scheme in TableScheme::ALL {
            let b = TableBuilder::new(scheme).hash(HashKind::Murmur).bits(8);
            assert_eq!(b.label(), b.build().display_name());
        }
    }

    #[test]
    fn sharded_build_splits_bits_across_shards() {
        let t = TableBuilder::new(TableScheme::LinearProbing).bits(12).shards(2).build_sharded();
        assert_eq!(t.num_shards(), 4);
        // 4 shards of 2^10 slots — same total nominal capacity.
        assert_eq!(t.capacity(), 1 << 12);
        let boxed = TableBuilder::new(TableScheme::RobinHood).bits(12).shards(2).build();
        assert!(boxed.display_name().starts_with("Sharded4xRH"));
        assert_eq!(boxed.capacity(), 1 << 12);
    }

    #[test]
    fn sharded_build_keeps_model_semantics() {
        let mut t = TableBuilder::new(TableScheme::Quadratic)
            .hash(HashKind::Murmur)
            .bits(10)
            .seed(5)
            .shards(2)
            .build();
        check_against_model(&mut t, 3000, 0x5AA2D);
    }

    #[test]
    fn sharded_growing_build_grows_per_shard() {
        let mut t = TableBuilder::new(TableScheme::LinearProbing)
            .bits(8)
            .seed(3)
            .shards(2)
            .grow_at(0.7)
            .build_sharded();
        for k in 1..=5000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.len(), 5000);
        // Every shard doubled independently past its initial 2^6 slots.
        t.for_each_shard(|i, shard| {
            assert!(shard.capacity() > 64, "shard {i} never grew");
            assert!(shard.load_factor() <= 0.7 + 1e-9, "shard {i} over threshold");
        });
        for k in (1..=5000u64).step_by(41) {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn concurrency_picks_a_power_of_two_shard_count() {
        assert_eq!(TableBuilder::new(TableScheme::LinearProbing).concurrency(1).shard_bits(), 2);
        assert_eq!(TableBuilder::new(TableScheme::LinearProbing).concurrency(4).shard_bits(), 4);
        assert_eq!(TableBuilder::new(TableScheme::LinearProbing).concurrency(999).shard_bits(), 8);
    }

    #[test]
    fn fingerprint_composes_with_growth_and_shards() {
        use crate::sharded::ConcurrentTable;
        // .grow_at: each doubling rebuilds the tag array + SoA payload.
        let mut t = TableBuilder::new(TableScheme::Fingerprint)
            .hash(HashKind::Murmur)
            .bits(5)
            .seed(4)
            .grow_at(0.7)
            .build();
        for k in 1..=4000u64 {
            t.insert(k, k * 2).unwrap();
        }
        assert!(t.capacity() >= 8192, "capacity {} should have doubled repeatedly", t.capacity());
        for k in (1..=4000u64).step_by(29) {
            assert_eq!(t.lookup(k), Some(k * 2));
        }
        // .shards + .grow_at: per-shard growing fingerprint tables.
        let t = TableBuilder::new(TableScheme::Fingerprint)
            .bits(12)
            .seed(9)
            .shards(2)
            .grow_at(0.7)
            .build_sharded();
        let items: Vec<(u64, u64)> = (1..=6000u64).map(|k| (k, k)).collect();
        let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
        t.insert_batch_shared(&items, &mut out);
        assert!(out.iter().all(|o| o.is_ok()));
        assert_eq!(t.len_shared(), 6000);
        t.for_each_shard(|i, shard| {
            assert!(shard.load_factor() <= 0.7 + 1e-9, "shard {i} over threshold");
            assert!(shard.display_name().starts_with("FP"), "shard {i} wrong scheme");
        });
    }

    #[test]
    fn optimistic_knob_controls_sharded_reads_and_retention() {
        use crate::optimistic::ReadView;
        use crate::sharded::ConcurrentTable;
        use crate::tests_common::{hold_pin, settle};
        // Default: optimistic on; growing shards keep a replaced
        // generation only while a reader is pinned.
        let mut t = TableBuilder::new(TableScheme::LinearProbing)
            .bits(8)
            .seed(3)
            .shards(2)
            .grow_at(0.7)
            .build_sharded();
        assert!(t.optimistic_reads());
        let pin = hold_pin();
        for k in 1..=4000u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.retired_bytes() > 0, "a pinned reader must keep replaced generations");
        for k in (1..=4000u64).step_by(13) {
            assert_eq!(t.lookup_shared(k), Some(k));
        }
        drop(pin);
        settle(&mut t);
        // Knob off: lock-only reads, and growth frees what it replaces.
        let mut t = TableBuilder::new(TableScheme::LinearProbing)
            .bits(8)
            .seed(3)
            .shards(2)
            .grow_at(0.7)
            .optimistic_reads(false)
            .build_sharded();
        assert!(!t.optimistic_reads());
        for k in 1..=4000u64 {
            t.insert(k, k).unwrap();
        }
        settle(&mut t);
        for k in (1..=4000u64).step_by(13) {
            assert_eq!(t.lookup_shared(k), Some(k));
        }
        // Static sharded build: optimistic on, nothing ever retired.
        let t = TableBuilder::new(TableScheme::LinearProbing).bits(12).shards(2).build_sharded();
        assert!(t.optimistic_reads());
        assert_eq!(t.retired_bytes(), 0);
    }

    #[test]
    fn migration_knob_wraps_without_grow_at() {
        // An adaptive build is a growing table even without `grow_at`:
        // a static 64-slot table would refuse the 65th key.
        let mut t = TableBuilder::new(TableScheme::LinearProbing)
            .bits(6)
            .adaptive(AdaptiveConfig::default())
            .build();
        for k in 1..=500u64 {
            t.insert(k, k).unwrap();
        }
        // At the fallback threshold (`DEFAULT_MIGRATION_GROW_AT`, 0.85)
        // the 55th, 109th, 218th and 436th keys each double the table.
        assert_eq!(t.capacity(), 1024);
        assert_eq!(t.table_stats().unwrap().rehashes, 4);
    }

    #[test]
    fn sharded_stats_merge_over_shards() {
        use crate::sharded::ConcurrentTable;
        // Growing (DynamicTable-wrapped) shards track runtime stats.
        // Optimistic reads are turned off so the counts are exact: a
        // seqlock-rejected optimistic attempt is counted, and its retry
        // is counted again.
        let t = TableBuilder::new(TableScheme::LinearProbing)
            .bits(8)
            .shards(1)
            .grow_at(0.9)
            .optimistic_reads(false)
            .build_sharded();
        for k in 1..=100u64 {
            t.insert_shared(k, k).unwrap();
        }
        for k in 1..=200u64 {
            let _ = t.lookup_shared(k);
        }
        let stats = t.stats_shared();
        assert_eq!(stats.inserts, 100);
        assert_eq!(stats.lookups, 200);
        assert_eq!(stats.misses, 100);
        assert!((stats.miss_ratio() - 0.5).abs() < 1e-9);
        // ...and the HashTable view reports the same merged snapshot.
        assert_eq!(t.table_stats(), Some(stats));
        // Static shards track nothing — no stats to report.
        let t = TableBuilder::new(TableScheme::LinearProbing).bits(8).shards(1).build_sharded();
        for k in 1..=50u64 {
            t.insert_shared(k, k).unwrap();
        }
        assert_eq!(t.stats_shared(), crate::TableStats::default());
        assert_eq!(t.table_stats(), None);
    }

    #[test]
    fn sharded_chained_budget_splits_target() {
        // 460 keys in a 2^10 budget fit unsharded (see test above); the
        // sharded build must also fit by splitting the target per shard.
        let b = TableBuilder::new(TableScheme::Chained24).bits(10).chained_budget(460).shards(2);
        let t = b.try_build().expect("split budget must stay feasible");
        assert_eq!(t.capacity(), 1 << 10);
    }
}
