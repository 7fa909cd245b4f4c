//! One open-addressing table for every probing scheme that stores its
//! entries in one slot array: linear probing in both layouts, quadratic
//! probing, Robin Hood (paper §2.2–§2.4, §7) and bucketized fingerprint
//! probing (the SIMD follow-on to §7, see [`crate::fingerprint`]).
//!
//! The paper treats slot **layout** and **probe sequence** as independent
//! dimensions, and so does [`OpenAddressing<H, L, S>`]:
//!
//! * [`Layout`] — where keys and values live. [`Aos`] interleaves them as
//!   16-byte [`Pair`]s ("similar to a row layout"); [`Soa`] splits them
//!   into two index-aligned arrays ("similar to column layout"): a probe
//!   touches keys only — twice as many per cache line — but every
//!   *successful* lookup pays a second line for the value (Figure 7 maps
//!   the trade-off). Both cost 16 B per slot.
//! * [`Step`] — where a probe goes next, and which insert and delete rule
//!   keeps that order searchable. [`Linear`] is `h(k, i) = (h'(k) + i) mod
//!   l`: sequential, cache friendly, prone to primary clustering.
//!   [`Triangular`] is the textbook quadratic sequence with
//!   `c1 = c2 = 1/2`, offsets `0, 1, 3, 6, 10, …`, which visits every slot
//!   of a power-of-two table exactly once in `l` probes (CLRS): it trades
//!   locality for scattered collisions. [`Ordered`] is Robin Hood: the
//!   linear order, with every cluster kept sorted by displacement.
//!   [`Grouped`] probes `G`-slot groups in linear order, filtered by a
//!   1-byte tag per slot that the table keeps beside its layout (17 B).
//!
//! [`LinearProbing`](crate::LinearProbing),
//! [`LinearProbingSoA`](crate::LinearProbingSoA),
//! [`QuadraticProbing`](crate::QuadraticProbing),
//! [`RobinHood`](crate::RobinHood) and
//! [`FingerprintTable`](crate::FingerprintTable) are aliases of the five
//! exposed cells; `Soa × Triangular`, `Soa × Ordered` and `Aos × Grouped`
//! exist as types only.
//!
//! # Deletion
//!
//! [`Linear`] and [`Triangular`] deletes leave tombstones, which inserts
//! recycle (first tombstone on the probe path, after confirming the key is
//! absent) and a blocked insert reclaims wholesale by rehashing in place.
//! Linear probing applies the paper's *optimized* rule: a tombstone is
//! placed only if the next slot is occupied, i.e. only when clearing would
//! disconnect a cluster. That shortcut needs every key passing through a
//! slot to continue to the same successor ([`Step::SHARED_SUCCESSOR`]);
//! under triangular probing the successor depends on the iteration at
//! which a key reached the slot, so no local check can prove a chain stays
//! connected and every delete tombstones.
//!
//! [`Step::GROUP`] `> 1` switches a table to a group-by-group mutating
//! probe, the group kernel (below) and the optimized rule per group: a
//! probe stops at the first group holding an empty tag, so a delete clears
//! its slot if the group still holds an empty tag and tombstones it
//! otherwise. Empties and tombstones go into the key array as well as the
//! tag array, so rehashing, reclaiming and `for_each` are the per-slot
//! code.
//!
//! # Robin Hood: the ordered step
//!
//! [`Step::ORDERED`] switches a table to Robin Hood's rules (§2.4; the
//! paper's reasoning is in [`crate::robin_hood`]), decided at compile time
//! at the top of each operation they change:
//!
//! * insert: an entry that meets a resident closer to its own home slot
//!   ("richer") takes the slot and carries the resident onward;
//! * delete: backward shift — a tombstone carries no displacement, so
//!   none is ever placed;
//! * locked lookup: recompute the resident's displacement once per cache
//!   line (every fourth 16-byte slot) and stop when it is richer;
//! * [`HashTable::lookup_probed`]: the same check on every slot, so probe
//!   counts show the exact abort.
//!
//! # One lookup kernel
//!
//! Every lookup of a [`Linear`] or [`Triangular`] table —
//! [`HashTable::lookup`], [`HashTable::lookup_probed`], the batch form —
//! and every lock-free [`ReadView::lookup_batch_optimistic`] is an
//! instantiation of `lookup_kernel`, a free function over raw slot
//! pointers that is bounded by the capacity and generic over how a slot is
//! loaded (`Plain` under `&self` or a lock, `Volatile` when a writer may be
//! racing). The locked and the lock-free read paths therefore differ in one
//! instruction per slot, not in algorithm. The one exception is a
//! [`Linear`] table switched to [`ProbeKind::Simd`]: its locked lookups use
//! the AVX2 scans of [`crate::simd`], which need a borrowed slice and so
//! cannot run against a racing writer. An [`Ordered`] table's locked
//! lookups are the early-abort walks above; its lock-free ones are the
//! plain linear kernel to the first empty slot: every key lies in the
//! contiguous run from its home slot, and a racing writer can leave
//! displacements transiently out of order, so a lock-free probe must not
//! trust them. A [`Grouped`] table's kernel, `lookup_grouped`, has the
//! same load modes and bound; its step is one group of tags.

use crate::optimistic::ReadView;
use crate::simd::{
    prefetch_read, scan_keys, scan_pairs, scan_tags, ProbeKind, ScanOutcome, ScanResult, TagScan,
    EMPTY_TAG, PREFETCH_BATCH, TOMBSTONE_TAG,
};
use crate::{
    check_capacity_bits, home_slot, is_reserved_key, HashTable, InsertOutcome, Pair, TableError,
    EMPTY_KEY, TOMBSTONE_KEY,
};
use hashfn::{HashFamily, HashFn64};
use std::marker::PhantomData;
use std::ops::Deref;

/// How the lookup kernels read a slot.
pub(crate) trait LoadMode {
    /// Whether a writer may be mutating the slots during the probe.
    const RACING: bool;

    /// Read `*p`.
    ///
    /// # Safety
    /// `p` must be aligned and point into a live allocation. Under
    /// [`Plain`] no other thread may be writing `*p`.
    unsafe fn load<T: Copy>(p: *const T) -> T;
}

/// Ordinary loads: the caller holds `&self` or the shard lock.
pub(crate) struct Plain;

/// Volatile loads, for a probe that may race a writer: the compiler may
/// neither elide nor repeat a load, so one comparison sees one value, and
/// the caller's seqlock validation discards whatever was torn.
pub(crate) struct Volatile;

impl LoadMode for Plain {
    const RACING: bool = false;

    #[inline(always)]
    unsafe fn load<T: Copy>(p: *const T) -> T {
        // SAFETY: the caller's contract: `p` is aligned, points into a live
        // allocation, and no other thread is writing `*p`.
        unsafe { p.read() }
    }
}

impl LoadMode for Volatile {
    const RACING: bool = true;

    #[inline(always)]
    unsafe fn load<T: Copy>(p: *const T) -> T {
        // SAFETY: the caller's contract: `p` is aligned and points into a
        // live allocation. A racing writer may make the value stale or
        // torn; the caller's seqlock validation discards such an answer.
        unsafe { p.read_volatile() }
    }
}

/// Seals [`Layout`] and [`Step`]: the lookup kernel's safety rests on what
/// their implementations return, so they all live in this module.
mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Aos {}
    impl Sealed for super::Soa {}
    impl Sealed for super::Linear {}
    impl Sealed for super::Triangular {}
    impl Sealed for super::Ordered {}
    impl<const G: usize> Sealed for super::Grouped<G> {}
}

/// Slot storage of an [`OpenAddressing`] table: `2^bits` key/value slots
/// at 16 B each, allocated once and never moved.
pub trait Layout: Clone + sealed::Sealed {
    /// Pointers to the slot arrays, as the lookup kernel takes them.
    type Raw: Copy;

    /// Infix of the paper-style display name (`""` or `"SoA"`).
    const NAME: &'static str;

    /// `cap` empty slots.
    fn with_capacity(cap: usize) -> Self;

    /// The arrays' base pointers.
    fn raw(&self) -> Self::Raw;

    /// Address of slot `i`'s key.
    ///
    /// # Safety
    /// `raw` must come from [`Layout::raw`] on a live table and `i` must be
    /// below its capacity.
    unsafe fn key_ptr(raw: Self::Raw, i: usize) -> *const u64;

    /// Address of slot `i`'s value.
    ///
    /// # Safety
    /// As [`Layout::key_ptr`].
    unsafe fn value_ptr(raw: Self::Raw, i: usize) -> *const u64;

    /// Slot `i`'s key (or control value).
    fn key(&self, i: usize) -> u64;

    /// Slot `i`'s value.
    fn value(&self, i: usize) -> u64;

    /// Overwrite slot `i`'s key, leaving its value — how a slot is
    /// cleared or tombstoned.
    fn set_key(&mut self, i: usize, key: u64);

    /// Store an entry in slot `i`.
    fn set(&mut self, i: usize, key: u64, value: u64);

    /// Overwrite slot `i`'s value, returning the previous one.
    fn replace_value(&mut self, i: usize, value: u64) -> u64;

    /// Mark every slot empty.
    fn clear(&mut self);

    /// Circular scan from `start` with the SIMD kernels of
    /// [`crate::simd`] (linear probe order only).
    fn scan_simd(&self, start: usize, key: u64) -> ScanResult;
}

/// Array-of-structs layout: one array of interleaved [`Pair`]s.
#[derive(Clone)]
pub struct Aos(Box<[Pair]>);

/// Struct-of-arrays layout: a key array and an index-aligned value array.
#[derive(Clone)]
pub struct Soa {
    keys: Box<[u64]>,
    values: Box<[u64]>,
}

impl Layout for Aos {
    type Raw = *const Pair;
    const NAME: &'static str = "";

    fn with_capacity(cap: usize) -> Self {
        Aos(vec![Pair::empty(); cap].into_boxed_slice())
    }

    fn raw(&self) -> *const Pair {
        self.0.as_ptr()
    }

    #[inline(always)]
    unsafe fn key_ptr(raw: *const Pair, i: usize) -> *const u64 {
        // SAFETY: the caller keeps `i` inside the array `raw` points to.
        unsafe { &raw const (*raw.add(i)).key }
    }

    #[inline(always)]
    unsafe fn value_ptr(raw: *const Pair, i: usize) -> *const u64 {
        // SAFETY: as `key_ptr`.
        unsafe { &raw const (*raw.add(i)).value }
    }

    #[inline(always)]
    fn key(&self, i: usize) -> u64 {
        self.0[i].key
    }

    #[inline(always)]
    fn value(&self, i: usize) -> u64 {
        self.0[i].value
    }

    #[inline(always)]
    fn set_key(&mut self, i: usize, key: u64) {
        self.0[i].key = key;
    }

    #[inline(always)]
    fn set(&mut self, i: usize, key: u64, value: u64) {
        self.0[i] = Pair { key, value };
    }

    #[inline(always)]
    fn replace_value(&mut self, i: usize, value: u64) -> u64 {
        std::mem::replace(&mut self.0[i].value, value)
    }

    fn clear(&mut self) {
        self.0.fill(Pair::empty());
    }

    fn scan_simd(&self, start: usize, key: u64) -> ScanResult {
        scan_pairs(&self.0, start, key, ProbeKind::Simd)
    }
}

impl Layout for Soa {
    type Raw = (*const u64, *const u64);
    const NAME: &'static str = "SoA";

    fn with_capacity(cap: usize) -> Self {
        Soa {
            keys: vec![EMPTY_KEY; cap].into_boxed_slice(),
            values: vec![0; cap].into_boxed_slice(),
        }
    }

    fn raw(&self) -> Self::Raw {
        (self.keys.as_ptr(), self.values.as_ptr())
    }

    #[inline(always)]
    unsafe fn key_ptr(raw: Self::Raw, i: usize) -> *const u64 {
        // SAFETY: the caller keeps `i` inside both arrays.
        unsafe { raw.0.add(i) }
    }

    #[inline(always)]
    unsafe fn value_ptr(raw: Self::Raw, i: usize) -> *const u64 {
        // SAFETY: as `key_ptr`.
        unsafe { raw.1.add(i) }
    }

    #[inline(always)]
    fn key(&self, i: usize) -> u64 {
        self.keys[i]
    }

    #[inline(always)]
    fn value(&self, i: usize) -> u64 {
        self.values[i]
    }

    #[inline(always)]
    fn set_key(&mut self, i: usize, key: u64) {
        self.keys[i] = key;
    }

    #[inline(always)]
    fn set(&mut self, i: usize, key: u64, value: u64) {
        self.keys[i] = key;
        self.values[i] = value;
    }

    #[inline(always)]
    fn replace_value(&mut self, i: usize, value: u64) -> u64 {
        std::mem::replace(&mut self.values[i], value)
    }

    fn clear(&mut self) {
        self.keys.fill(EMPTY_KEY);
    }

    fn scan_simd(&self, start: usize, key: u64) -> ScanResult {
        scan_keys(&self.keys, start, key, ProbeKind::Simd)
    }
}

/// The probe sequence of an [`OpenAddressing`] table. The defaults are
/// the plain linear order.
pub trait Step: Clone + sealed::Sealed {
    /// Prefix of the paper-style display name (`"LP"`, `"QP"`, `"RH"` or
    /// `"FP"` with its group size).
    const NAME: &'static str;

    /// Whether every key that passes through a slot continues to the same
    /// next slot — what makes the clear-if-next-empty delete sound (see
    /// the [module docs](self)).
    const SHARED_SUCCESSOR: bool = false;

    /// Whether clusters are kept sorted by displacement: Robin Hood's
    /// insert, delete and early-abort rules instead of tombstones (see the
    /// [module docs](self)). Only a linear order can be kept sorted.
    const ORDERED: bool = false;

    /// Slots per probe group: 1 for the per-slot steps. Above 1 the table
    /// keeps a tag per slot and probes group by group (see the
    /// [module docs](self)).
    const GROUP: usize = 1;

    /// The (unmasked) slot after `pos`, which was the `i`-th slot examined
    /// (`i` counts from 1). Must visit all `l` slots in `l` steps.
    #[inline(always)]
    fn advance(pos: usize, _i: usize) -> usize {
        pos + 1
    }
}

/// Linear probing: the next slot.
#[derive(Clone, Copy)]
pub struct Linear;

/// Quadratic probing by triangular numbers: offsets 1, 2, 3, … give
/// positions `h + i(i+1)/2`.
#[derive(Clone, Copy)]
pub struct Triangular;

/// Robin Hood: the linear order, with displacement-ordered clusters.
#[derive(Clone, Copy)]
pub struct Ordered;

/// Bucketized fingerprint probing: `G`-slot groups (4, 8, 16 or 32) in
/// linear order, each classified by one scan of its tags.
#[derive(Clone, Copy)]
pub struct Grouped<const G: usize>;

/// The steps with a SIMD probe: [`Linear`] (AVX2 key scans) and
/// [`Grouped`] (SSE2 tag scans). Sealed, as [`Step`] is.
pub trait SimdStep: Step {}

impl SimdStep for Linear {}
impl<const G: usize> SimdStep for Grouped<G> {}

impl Step for Linear {
    const NAME: &'static str = "LP";
    const SHARED_SUCCESSOR: bool = true;
}

impl Step for Triangular {
    const NAME: &'static str = "QP";

    #[inline(always)]
    fn advance(pos: usize, i: usize) -> usize {
        pos.wrapping_add(i)
    }
}

impl Step for Ordered {
    const NAME: &'static str = "RH";
    const SHARED_SUCCESSOR: bool = true;
    const ORDERED: bool = true;
}

impl<const G: usize> Step for Grouped<G> {
    const NAME: &'static str = match G {
        4 => "FPG4",
        8 => "FPG8",
        16 => "FP",
        _ => "FPG32",
    };
    const GROUP: usize = match G {
        4 | 8 | 16 | 32 => G,
        _ => panic!("a probe group holds 4, 8, 16 or 32 slots"),
    };
}

/// Hash bits of a grouped table's fingerprint.
const TAG_BITS: u8 = 7;

/// Entries per 64-byte cache line at 16 bytes per AoS slot: an [`Ordered`]
/// table's locked lookups check the early abort once per this many slots.
const ENTRIES_PER_CACHE_LINE: usize = 4;

/// The lookup kernel of the open-addressing tables: walk `S`'s probe
/// sequence from `home` until `key`, an empty slot, or `mask + 1` slots
/// have been examined. Returns the value if the key was found, and the
/// number of slots examined.
///
/// # Safety
/// `raw` must come from [`Layout::raw`] on a table of `mask + 1` slots
/// that stays allocated for the call, and `home <= mask`. Under
/// [`Volatile`] the slots may be concurrently written — the answer is then
/// only a candidate for the caller's seqlock validation — under [`Plain`]
/// they must not be.
#[inline(always)]
pub(crate) unsafe fn lookup_kernel<L: Layout, S: Step, M: LoadMode>(
    raw: L::Raw,
    mask: usize,
    home: usize,
    key: u64,
) -> (Option<u64>, usize) {
    let mut pos = home;
    let mut examined = 1usize;
    loop {
        // SAFETY: in-bounds — `pos` is `home` or a masked value, so
        // `pos <= mask` whatever the slots hold. Termination — `examined`
        // grows by one per iteration and the loop leaves at `mask + 1`
        // without relying on an empty slot existing. Raced data is only
        // compared and returned, never dereferenced or used as an index.
        let k = unsafe { M::load(L::key_ptr(raw, pos)) };
        if k == key {
            // SAFETY: same slot, same bound.
            return (Some(unsafe { M::load(L::value_ptr(raw, pos)) }), examined);
        }
        if k == EMPTY_KEY || examined > mask {
            return (None, examined);
        }
        pos = S::advance(pos, examined) & mask;
        examined += 1;
    }
}

/// The two-pass batch driver of every open-addressing table: pass 1 runs
/// `prepare` (hash the key, prefetch its home cache line) over a window of
/// [`PREFETCH_BATCH`] items, pass 2 runs `probe` from the precomputed
/// positions — the misses of a whole window are then resolved in parallel
/// by the memory subsystem instead of serially by the probe loop.
///
/// `table` is `&Self` for reads and `&mut Self` for mutations. What
/// `prepare` returns must stay valid across `probe` calls on earlier items
/// of the window (slot writes and in-place rehashes preserve hash function
/// and capacity, so a home slot does).
#[inline(always)]
pub(crate) fn two_pass<T: Deref, I: Copy, P: Copy + Default, O>(
    mut table: T,
    items: &[I],
    out: &mut [O],
    prepare: impl Fn(&T::Target, I) -> P,
    mut probe: impl FnMut(&mut T, I, P) -> O,
) {
    assert_eq!(items.len(), out.len(), "batch: items and out lengths differ");
    let mut prepared = [P::default(); PREFETCH_BATCH];
    for (ic, oc) in items.chunks(PREFETCH_BATCH).zip(out.chunks_mut(PREFETCH_BATCH)) {
        for (p, &item) in prepared.iter_mut().zip(ic) {
            *p = prepare(&table, item);
        }
        for ((o, &item), &p) in oc.iter_mut().zip(ic).zip(&prepared) {
            *o = probe(&mut table, item, p);
        }
    }
}

/// Open addressing over layout `L` and probe sequence `S`, with in-band
/// tombstones or, for [`Ordered`], displacement-ordered clusters. See the
/// [module docs](self).
#[derive(Clone)]
pub struct OpenAddressing<H: HashFn64, L: Layout, S: Step> {
    slots: L,
    /// One control byte per slot when grouped — a 7-bit fingerprint,
    /// [`EMPTY_TAG`] or [`TOMBSTONE_TAG`] — and empty otherwise.
    tags: Box<[u8]>,
    bits: u8,
    mask: usize,
    hash: H,
    len: usize,
    tombstones: usize,
    probe_kind: ProbeKind,
    step: PhantomData<S>,
}

impl<H: HashFamily, L: Layout, S: Step> OpenAddressing<H, L, S> {
    /// Create a table with `2^bits` slots and a hash function drawn from
    /// seed `seed`.
    pub fn with_seed(bits: u8, seed: u64) -> Self {
        Self::with_hash(bits, H::from_seed(seed))
    }
}

impl<H: HashFamily, L: Layout, S: SimdStep> OpenAddressing<H, L, S> {
    /// Like [`OpenAddressing::with_seed`], but probing compares four keys
    /// per step with AVX2 where available (paper §7, "LPAoSMultSIMD" /
    /// "LPSoAMultSIMD"), or 16 tags per SSE2 compare when grouped.
    pub fn with_seed_simd(bits: u8, seed: u64) -> Self {
        let mut t = Self::with_seed(bits, seed);
        t.probe_kind = ProbeKind::Simd;
        t
    }
}

impl<H: HashFn64, L: Layout, S: SimdStep> OpenAddressing<H, L, S> {
    /// Switch between scalar and SIMD probing.
    pub fn set_probe_kind(&mut self, kind: ProbeKind) {
        self.probe_kind = kind;
    }

    /// The probe kind in use.
    pub fn probe_kind(&self) -> ProbeKind {
        self.probe_kind
    }
}

impl<H: HashFn64, S: Step> OpenAddressing<H, Aos, S> {
    /// Direct slot access for statistics and tests.
    pub fn raw_slots(&self) -> &[Pair] {
        &self.slots.0
    }
}

impl<H: HashFn64, S: Step> OpenAddressing<H, Soa, S> {
    /// Direct key-array access for statistics and tests.
    pub fn raw_keys(&self) -> &[u64] {
        &self.slots.keys
    }
}

impl<H: HashFn64, L: Layout, const G: usize> OpenAddressing<H, L, Grouped<G>> {
    /// Direct tag-array access for statistics and tests.
    pub fn raw_tags(&self) -> &[u8] {
        &self.tags
    }
}

impl<H: HashFn64, L: Layout, S: Step> OpenAddressing<H, L, S> {
    /// Create a table with `2^bits` slots using an explicit hash function.
    pub fn with_hash(bits: u8, hash: H) -> Self {
        let cap = check_capacity_bits(bits);
        assert!(cap >= S::GROUP, "capacity 2^{bits} is smaller than one {}-slot group", S::GROUP);
        Self {
            // Tags first: allocation order decides which arrays glibc maps.
            tags: vec![EMPTY_TAG; if S::GROUP > 1 { cap } else { 0 }].into_boxed_slice(),
            slots: L::with_capacity(cap),
            bits,
            mask: cap - 1,
            hash,
            len: 0,
            tombstones: 0,
            probe_kind: ProbeKind::Scalar,
            step: PhantomData,
        }
    }

    /// The hash function in use.
    #[inline]
    pub fn hash_fn(&self) -> &H {
        &self.hash
    }

    /// Number of tombstone slots currently in the table.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// `key`'s home slot, followed when grouped by its fingerprint: the
    /// [`TAG_BITS`] hash bits just below the slot's.
    #[inline(always)]
    fn home(&self, key: u64) -> usize {
        home_slot(&self.hash, key, self.bits + if S::GROUP > 1 { TAG_BITS } else { 0 })
    }

    /// A grouped home's first slot of the home group, and its fingerprint.
    #[inline(always)]
    fn group_home(home: usize) -> (usize, u8) {
        ((home >> TAG_BITS) & !(S::GROUP - 1), (home & ((1 << TAG_BITS) - 1)) as u8)
    }

    /// Pass 1 of the batch operations: hash `key` and prefetch its home
    /// line (of tags, when grouped). Reserved keys hash like any other;
    /// prefetching their (never probed) home line is harmless.
    #[inline(always)]
    fn prepare(&self, key: u64) -> usize {
        let home = self.home(key);
        if S::GROUP > 1 {
            prefetch_read(&self.tags[Self::group_home(home).0]);
        } else {
            // SAFETY: `home <= mask`, inside the slot array.
            prefetch_read(unsafe { L::key_ptr(self.slots.raw(), home) });
        }
        home
    }

    /// Rebuild the table in place (same capacity, same hash function),
    /// dropping all tombstones — the paper's "shrink ... and perform a
    /// rehash anyway" remedy after heavy deletion (§2.2).
    ///
    /// Literally in place: live entries are snapshotted, the *existing*
    /// slot arrays are cleared and refilled. The allocations never move,
    /// so optimistic readers (see [`crate::optimistic`]) holding a pointer
    /// into them stay in-bounds for the table's whole lifetime.
    pub fn rehash_in_place(&mut self) {
        let live: Vec<(u64, u64)> = (0..=self.mask)
            .filter(|&i| !is_reserved_key(self.slots.key(i)))
            .map(|i| (self.slots.key(i), self.slots.value(i)))
            .collect();
        self.slots.clear();
        self.tags.fill(EMPTY_TAG);
        self.len = 0;
        self.tombstones = 0;
        for (k, v) in live {
            // Re-inserting distinct keys into an equally-sized empty table
            // cannot fail or replace.
            let _ = self.insert(k, v);
        }
    }

    /// Blocked-insert remedy: if tombstones exist they are the reason the
    /// probe found no usable slot — drop them all via
    /// [`OpenAddressing::rehash_in_place`] and retry (at most once, since
    /// the rebuilt table is tombstone-free). Only a table genuinely full
    /// of live keys reports [`TableError::TableFull`]. `home` stays valid
    /// across the rehash: capacity and hash function are unchanged.
    fn reclaim_or_full(
        &mut self,
        home: usize,
        key: u64,
        value: u64,
        combine: &impl Fn(u64, u64) -> u64,
    ) -> Result<InsertOutcome, TableError> {
        if self.tombstones == 0 {
            return Err(TableError::TableFull);
        }
        self.rehash_in_place();
        self.upsert_from(home, key, value, combine)
    }

    /// Fold `value` into the live entry at `pos` with `combine`, reporting
    /// the value it held.
    #[inline(always)]
    fn combine_at(
        &mut self,
        pos: usize,
        value: u64,
        combine: &impl Fn(u64, u64) -> u64,
    ) -> InsertOutcome {
        let old = self.slots.value(pos);
        self.slots.replace_value(pos, combine(old, value));
        InsertOutcome::Replaced(old)
    }

    /// The mutating operations' probe: `Ok(slot)` if `key` is present, else
    /// `Err(slot)` where an insert should put it (the first tombstone on
    /// the path if any, else the terminating empty slot), or
    /// `Err(usize::MAX)` if the whole sequence held neither the key, an
    /// empty slot nor a tombstone.
    #[inline]
    fn find(&self, home: usize, key: u64) -> Result<usize, usize> {
        if S::GROUP > 1 {
            return self.find_grouped(home, key);
        }
        if self.probe_kind == ProbeKind::Simd {
            let r = self.slots.scan_simd(home, key);
            return match r.outcome {
                ScanOutcome::FoundKey(pos) => Ok(pos),
                ScanOutcome::FoundEmpty(pos) => Err(r.first_tombstone.unwrap_or(pos)),
                ScanOutcome::Exhausted => Err(r.first_tombstone.unwrap_or(usize::MAX)),
            };
        }
        let mut pos = home;
        let mut first_tombstone = usize::MAX;
        for i in 1..=self.mask + 1 {
            let k = self.slots.key(pos);
            if k == key {
                return Ok(pos);
            }
            if k == EMPTY_KEY {
                return Err(if first_tombstone != usize::MAX { first_tombstone } else { pos });
            }
            if k == TOMBSTONE_KEY && first_tombstone == usize::MAX {
                first_tombstone = pos;
            }
            pos = S::advance(pos, i) & self.mask;
        }
        Err(first_tombstone)
    }

    /// [`OpenAddressing::find`] for a grouped table: group by group from
    /// the home group until a group holding an empty tag.
    fn find_grouped(&self, home: usize, key: u64) -> Result<usize, usize> {
        let (mut base, tag) = Self::group_home(home);
        let mut first_tombstone = usize::MAX;
        for _ in 0..(self.mask + 1) / S::GROUP {
            let scan = scan_tags(&self.tags[base..base + S::GROUP], tag, self.probe_kind);
            let mut m = scan.matches;
            while m != 0 {
                let pos = base + m.trailing_zeros() as usize;
                if self.slots.key(pos) == key {
                    return Ok(pos);
                }
                m &= m - 1;
            }
            if first_tombstone == usize::MAX && scan.tombstones != 0 {
                first_tombstone = base + scan.tombstones.trailing_zeros() as usize;
            }
            if scan.empties != 0 {
                let empty = base + scan.empties.trailing_zeros() as usize;
                return Err(if first_tombstone != usize::MAX { first_tombstone } else { empty });
            }
            base = (base + S::GROUP) & self.mask;
        }
        Err(first_tombstone)
    }

    /// Scan the tags of the group starting at slot `base` for `tag`.
    ///
    /// # Safety
    /// The table must be grouped and `base` a group start; under [`Plain`]
    /// no writer may exist.
    #[inline(always)]
    unsafe fn scan_group<M: LoadMode>(&self, base: usize, tag: u8) -> TagScan {
        // SAFETY: the caller's contract: `S::GROUP` tags from `base` lie
        // inside the tag array, which is never reallocated.
        unsafe {
            let (tags, kind) = (self.tags.as_ptr().add(base), self.probe_kind);
            // Stable Rust has no `[u8; S::GROUP]`: one arm per group size,
            // folded away at compile time.
            match S::GROUP {
                4 => scan_tags(&M::load::<[u8; 4]>(tags.cast()), tag, kind),
                8 => scan_tags(&M::load::<[u8; 8]>(tags.cast()), tag, kind),
                16 => scan_tags(&M::load::<[u8; 16]>(tags.cast()), tag, kind),
                _ => scan_tags(&M::load::<[u8; 32]>(tags.cast()), tag, kind),
            }
        }
    }

    /// The group kernel: probe group by group from `home`'s group until
    /// `key`, a group holding an empty tag, or every group. Returns the
    /// value if found, and the number of *groups* examined: one tag scan is
    /// one step. Under [`Volatile`] a torn tag/key/value combination
    /// implies a racing writer, which the caller's validation detects.
    ///
    /// # Safety
    /// As [`OpenAddressing::lookup_from`], on a grouped table.
    #[inline(always)]
    unsafe fn lookup_grouped<M: LoadMode>(&self, home: usize, key: u64) -> (Option<u64>, usize) {
        let raw = self.slots.raw();
        let (mut base, tag) = Self::group_home(home);
        let groups = (self.mask + 1) / S::GROUP;
        for examined in 1..=groups {
            // SAFETY: in-bounds — `base` is a group start, and `pos` below
            // lies in its group (a scan sets one bit per tag). Termination —
            // the loop is bounded by the group count. Raced data is only
            // compared and returned.
            let scan = unsafe { self.scan_group::<M>(base, tag) };
            let mut m = scan.matches;
            while m != 0 {
                let pos = base + m.trailing_zeros() as usize;
                // SAFETY: see above.
                if unsafe { M::load(L::key_ptr(raw, pos)) } == key {
                    // SAFETY: same slot.
                    return (Some(unsafe { M::load(L::value_ptr(raw, pos)) }), examined);
                }
                m &= m - 1;
            }
            if scan.empties != 0 {
                return (None, examined);
            }
            base = (base + S::GROUP) & self.mask;
        }
        (None, groups)
    }

    /// A lookup's capacity-bounded probe in load mode `M`.
    ///
    /// # Safety
    /// As [`OpenAddressing::lookup_from`].
    #[inline(always)]
    unsafe fn probe<M: LoadMode>(&self, home: usize, key: u64) -> (Option<u64>, usize) {
        // SAFETY: the arrays hold `mask + 1` slots, are never reallocated
        // and live as long as the table; `home` came from `Self::home`, so
        // its slot is `<= mask` and a grouped table's group start in range.
        unsafe {
            if S::GROUP > 1 {
                self.lookup_grouped::<M>(home, key)
            } else {
                lookup_kernel::<L, S, M>(self.slots.raw(), self.mask, home, key)
            }
        }
    }

    /// The mutating kernel: one probe from the precomputed `home` slot
    /// that stores `value` under a fresh `key`, or `combine(old, value)`
    /// over a present one. An insert is the upsert whose combine keeps the
    /// new value.
    fn upsert_from(
        &mut self,
        home: usize,
        key: u64,
        value: u64,
        combine: &impl Fn(u64, u64) -> u64,
    ) -> Result<InsertOutcome, TableError> {
        if is_reserved_key(key) {
            return Err(TableError::ReservedKey);
        }
        if S::ORDERED {
            return self.upsert_ordered(home, key, value, combine);
        }
        if S::GROUP == 1
            && self.probe_kind == ProbeKind::Scalar
            && self.len + self.tombstones < self.mask
        {
            // Hot path — more than one empty slot remains, so the walk
            // must reach one and storing into it cannot take the last
            // probe terminator: no bound and no capacity check per probe.
            // Empty-first ordering: fresh keys dominate insert workloads
            // and usually land in or near their home slot.
            let mut pos = home;
            let mut first_tombstone = usize::MAX;
            for i in 1.. {
                let k = self.slots.key(pos);
                if k == EMPTY_KEY {
                    if first_tombstone != usize::MAX {
                        self.tombstones -= 1;
                        pos = first_tombstone;
                    }
                    self.slots.set(pos, key, value);
                    self.len += 1;
                    return Ok(InsertOutcome::Inserted);
                }
                if k == key {
                    return Ok(self.combine_at(pos, value, combine));
                }
                if k == TOMBSTONE_KEY && first_tombstone == usize::MAX {
                    first_tombstone = pos;
                }
                pos = S::advance(pos, i) & self.mask;
            }
        }
        match self.find(home, key) {
            Ok(pos) => Ok(self.combine_at(pos, value, combine)),
            Err(usize::MAX) => self.reclaim_or_full(home, key, value, combine),
            Err(pos) => {
                let tombstone = match S::GROUP {
                    1 => self.slots.key(pos) == TOMBSTONE_KEY,
                    // The probe loaded the tag's line, not the key's.
                    _ => self.tags[pos] == TOMBSTONE_TAG,
                };
                if tombstone {
                    self.tombstones -= 1;
                } else if self.len + self.tombstones >= self.mask {
                    // Filling the last empty slot would leave no probe
                    // terminator; keep one slot free, as open-addressing
                    // tables must. Tombstones elsewhere in the table are
                    // reclaimable capacity, though: rehash them away and
                    // retry before declaring the table full.
                    return self.reclaim_or_full(home, key, value, combine);
                }
                self.slots.set(pos, key, value);
                if S::GROUP > 1 {
                    self.tags[pos] = Self::group_home(home).1;
                }
                self.len += 1;
                Ok(InsertOutcome::Inserted)
            }
        }
    }

    /// [`HashTable::lookup`] with a precomputed `home` slot, in load mode
    /// `M`. Reserved keys miss without a probe: a slot's control value must
    /// never match.
    ///
    /// # Safety
    /// Under [`Plain`] no writer may exist (the caller holds `&self` in the
    /// ordinary sense). Under [`Volatile`] one may, the table must stay
    /// allocated for the call, and the answer is only a candidate for the
    /// caller's seqlock validation.
    #[inline(always)]
    unsafe fn lookup_from<M: LoadMode>(&self, home: usize, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        if S::ORDERED && !M::RACING {
            return self.find_ordered(home, key).map(|pos| self.slots.value(pos));
        }
        if S::GROUP == 1 && !M::RACING && self.probe_kind == ProbeKind::Simd {
            return match self.slots.scan_simd(home, key).outcome {
                ScanOutcome::FoundKey(pos) => Some(self.slots.value(pos)),
                _ => None,
            };
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { self.probe::<M>(home, key).0 }
    }

    /// [`HashTable::lookup_batch`] in load mode `M`: the locked and the
    /// lock-free batch are this one function.
    ///
    /// # Safety
    /// As [`OpenAddressing::lookup_from`].
    #[inline(always)]
    unsafe fn lookup_batch_in<M: LoadMode>(&self, keys: &[u64], out: &mut [Option<u64>]) {
        two_pass(self, keys, out, Self::prepare, |t, k, home| {
            // SAFETY: the caller's contract, passed through.
            unsafe { t.lookup_from::<M>(home, k) }
        });
    }

    /// [`HashTable::delete`] with a precomputed `home` slot.
    fn delete_from(&mut self, home: usize, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        if S::ORDERED {
            return self.delete_ordered(home, key);
        }
        let pos = self.find(home, key).ok()?;
        let value = self.slots.value(pos);
        // Optimized tombstones (§2.2): only keep the cluster connected when
        // it actually continues past the deleted slot — decidable only
        // where all keys share the slot's successor, or, grouped, where
        // the slot's group holds an empty tag.
        let clear = if S::GROUP > 1 {
            let base = pos & !(S::GROUP - 1);
            self.tags[base..base + S::GROUP].contains(&EMPTY_TAG)
        } else {
            S::SHARED_SUCCESSOR && self.slots.key(S::advance(pos, 1) & self.mask) == EMPTY_KEY
        };
        if clear {
            self.slots.set_key(pos, EMPTY_KEY);
        } else {
            self.slots.set_key(pos, TOMBSTONE_KEY);
            self.tombstones += 1;
        }
        if S::GROUP > 1 {
            self.tags[pos] = if clear { EMPTY_TAG } else { TOMBSTONE_TAG };
        }
        self.len -= 1;
        Some(value)
    }

    /// Linear steps from the home slot of the entry at `pos` to `pos`
    /// (`pos` must hold a live entry).
    #[inline(always)]
    fn distance_from_home(&self, pos: usize) -> usize {
        let key = self.slots.key(pos);
        debug_assert!(!is_reserved_key(key));
        (pos + self.mask + 1 - self.home(key)) & self.mask
    }

    /// [`Ordered`] upsert: Robin Hood's swap chain. The table keeps one
    /// slot empty as the probe terminator; at that fill only present keys
    /// succeed.
    fn upsert_ordered(
        &mut self,
        home: usize,
        key: u64,
        value: u64,
        combine: &impl Fn(u64, u64) -> u64,
    ) -> Result<InsertOutcome, TableError> {
        if self.len >= self.mask {
            return match self.find_ordered(home, key) {
                Some(pos) => Ok(self.combine_at(pos, value, combine)),
                None => Err(TableError::TableFull),
            };
        }
        // Phase 1: look for the key itself (a duplicate is combined) until
        // an empty slot or a richer resident — by the cluster order the key
        // cannot lie beyond either.
        let mut pos = home;
        let mut dist = 0usize;
        loop {
            let k = self.slots.key(pos);
            if k == EMPTY_KEY {
                self.slots.set(pos, key, value);
                self.len += 1;
                return Ok(InsertOutcome::Inserted);
            }
            if k == key {
                return Ok(self.combine_at(pos, value, combine));
            }
            if self.distance_from_home(pos) < dist {
                break;
            }
            pos = (pos + 1) & self.mask;
            dist += 1;
        }
        // Phase 2: the displacement chain. Take the richer resident's slot
        // and carry it onward; carried entries are unique residents, so no
        // more duplicate checks.
        let (mut carried, mut carried_value, mut carried_dist) = (key, value, dist);
        loop {
            let k = self.slots.key(pos);
            if k == EMPTY_KEY {
                self.slots.set(pos, carried, carried_value);
                self.len += 1;
                return Ok(InsertOutcome::Inserted);
            }
            let d = self.distance_from_home(pos);
            if d < carried_dist {
                let v = self.slots.value(pos);
                self.slots.set(pos, carried, carried_value);
                (carried, carried_value, carried_dist) = (k, v, d);
            }
            pos = (pos + 1) & self.mask;
            carried_dist += 1;
        }
    }

    /// [`Ordered`] locked probe with the paper's tuned early abort: scan
    /// like linear probing, but once per cache line compare the resident's
    /// displacement with the probe's and stop when the resident is richer.
    #[inline]
    fn find_ordered(&self, home: usize, key: u64) -> Option<usize> {
        let mut pos = home;
        let mut dist = 0usize;
        loop {
            let k = self.slots.key(pos);
            if k == key {
                return Some(pos);
            }
            if k == EMPTY_KEY {
                return None;
            }
            // Only at cache-line ends (an amortized hash recomputation,
            // §2.4), and only once the probe has scanned a full line:
            // shorter probes end soon anyway, and skipping the check keeps
            // the successful-lookup penalty in the paper's 1–5% band.
            if dist >= ENTRIES_PER_CACHE_LINE
                && pos % ENTRIES_PER_CACHE_LINE == ENTRIES_PER_CACHE_LINE - 1
                && self.distance_from_home(pos) < dist
            {
                return None;
            }
            pos = (pos + 1) & self.mask;
            dist += 1;
        }
    }

    /// [`Ordered`] probe with the exact abort — the resident's
    /// displacement checked on every slot — counting slots examined.
    fn probe_ordered(&self, home: usize, key: u64) -> (Option<u64>, usize) {
        let mut pos = home;
        let mut examined = 1usize;
        loop {
            let k = self.slots.key(pos);
            if k == key {
                return (Some(self.slots.value(pos)), examined);
            }
            if is_reserved_key(k) || self.distance_from_home(pos) < examined - 1 {
                return (None, examined);
            }
            pos = (pos + 1) & self.mask;
            examined += 1;
        }
    }

    /// [`Ordered`] delete by backward shift: pull successors one slot back
    /// until the cluster ends or an entry already sits in its home slot.
    fn delete_ordered(&mut self, home: usize, key: u64) -> Option<u64> {
        let pos = self.find_ordered(home, key)?;
        let value = self.slots.value(pos);
        let mut hole = pos;
        loop {
            let next = (hole + 1) & self.mask;
            let k = self.slots.key(next);
            if is_reserved_key(k) || self.distance_from_home(next) == 0 {
                self.slots.set_key(hole, EMPTY_KEY);
                break;
            }
            self.slots.set(hole, k, self.slots.value(next));
            hole = next;
        }
        self.len -= 1;
        Some(value)
    }
}

impl<H: HashFn64, L: Layout> OpenAddressing<H, L, Ordered> {
    /// Displacement of the entry at `pos`: how far it sits from its home
    /// slot, in probe steps (requires `pos` to hold a live entry).
    #[inline(always)]
    pub fn displacement_at(&self, pos: usize) -> usize {
        self.distance_from_home(pos)
    }

    /// Verify the Robin Hood cluster invariant (test/debug aid).
    ///
    /// Home slots are non-decreasing along every cluster. In displacement
    /// terms, for consecutive occupied slots `prev, pos`:
    /// `home(pos) >= home(prev)` is equivalent to `d(pos) <= d(prev) + 1`.
    /// Additionally, a cluster head (occupied slot whose predecessor is
    /// free) always sits in its home slot, because probes never cross
    /// empty slots.
    pub fn check_invariant(&self) -> Result<(), String> {
        let occupied = |i: usize| !is_reserved_key(self.slots.key(i));
        for pos in (0..=self.mask).filter(|&i| occupied(i)) {
            let prev = (pos + self.mask) & self.mask;
            let d_pos = self.displacement_at(pos);
            if occupied(prev) {
                let d_prev = self.displacement_at(prev);
                if d_pos > d_prev + 1 {
                    return Err(format!(
                        "invariant violated at slot {pos}: d={d_pos} after d={d_prev}"
                    ));
                }
            } else if d_pos != 0 {
                return Err(format!("cluster head at slot {pos} has nonzero displacement {d_pos}"));
            }
        }
        Ok(())
    }
}

impl<H: HashFn64, L: Layout, S: Step> HashTable for OpenAddressing<H, L, S> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        self.upsert_from(self.home(key), key, value, &|_, v| v)
    }

    #[inline]
    fn lookup(&self, key: u64) -> Option<u64> {
        // SAFETY: `&self` — no writer.
        unsafe { self.lookup_from::<Plain>(self.home(key), key) }
    }

    fn lookup_probed(&self, key: u64) -> (Option<u64>, usize) {
        if is_reserved_key(key) {
            return (None, 1);
        }
        if S::ORDERED {
            return self.probe_ordered(self.home(key), key);
        }
        // Always a counting kernel (the AVX2 key scans resolve whole
        // windows, hiding per-slot steps).
        // SAFETY: `&self` — no writer.
        unsafe { self.probe::<Plain>(self.home(key), key) }
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        self.delete_from(self.home(key), key)
    }

    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        // SAFETY: `&self` — no writer.
        unsafe { self.lookup_batch_in::<Plain>(keys, out) }
    }

    fn upsert_batch(
        &mut self,
        items: &[(u64, u64)],
        combine: &dyn Fn(u64, u64) -> u64,
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        let prepare = |t: &Self, (k, _)| t.prepare(k);
        two_pass(self, items, out, prepare, |t, (k, v), home| t.upsert_from(home, k, v, &combine));
    }

    fn delete_batch(&mut self, keys: &[u64], out: &mut [Option<u64>]) {
        two_pass(self, keys, out, Self::prepare, |t, k, home| t.delete_from(home, k));
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }

    fn memory_bytes(&self) -> usize {
        (self.mask + 1) * std::mem::size_of::<Pair>() + self.tags.len()
    }

    fn walk(&self, from: usize, f: &mut dyn FnMut(usize, u64, u64) -> bool) {
        let raw = self.slots.raw();
        for i in from..self.mask + 1 {
            // SAFETY: `i <= mask`, inside the arrays; `&self` — no writer.
            // (Measured: the two bounds checks per slot of the indexed
            // form cost a full scan ~15%.)
            let k = unsafe { Plain::load(L::key_ptr(raw, i)) };
            // SAFETY: same slot.
            if !is_reserved_key(k) && !f(i, k, unsafe { Plain::load(L::value_ptr(raw, i)) }) {
                return;
            }
        }
    }

    fn display_name(&self) -> String {
        let simd = if self.probe_kind == ProbeKind::Simd { "SIMD" } else { "" };
        // FP's names predate the layout infix: FP is SoA by definition.
        format!("{}{}{}{simd}", S::NAME, if S::GROUP > 1 { "" } else { L::NAME }, H::name())
    }
}

/// The slot arrays never move after construction (`rehash_in_place`
/// rebuilds inside the existing allocations), so a lock-free reader's
/// pointers into them stay valid; slot *contents* race and are read
/// volatile — key and value at different instants, but a torn pairing
/// implies a racing writer, which the caller's seqlock validation detects.
impl<H: HashFn64, L: Layout, S: Step> ReadView for OpenAddressing<H, L, S> {
    unsafe fn lookup_batch_optimistic(&self, keys: &[u64], out: &mut [Option<u64>]) -> bool {
        // SAFETY: the caller keeps the table alive and validates.
        unsafe { self.lookup_batch_in::<Volatile>(keys, out) };
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tests_common::*;
    use crate::{FingerprintTable, LinearProbing, LinearProbingSoA, QuadraticProbing, RobinHood};
    use hashfn::{MultShift, Murmur};

    /// Every shared check of [`crate::tests_common`] on one exposed cell:
    /// `seeded` builds it with a seeded hash function, `weak` with the
    /// weak `MultShift::new(1)`, which sends every key below 2^56 to slot
    /// 0 of a 256-slot table; `names` are their display names and
    /// `slot_bytes` the memory each slot costs.
    fn check_cell<T: HashTable, W: HashTable>(
        seeded: impl Fn(u8) -> T,
        weak: impl Fn(u8) -> W,
        names: [&str; 2],
        slot_bytes: usize,
    ) {
        // Shown with a failure's captured output.
        eprintln!("cell {}", names[0]);
        check_roundtrip(&mut seeded(8));
        check_replace_semantics(&mut seeded(8));
        check_reserved_keys(&mut seeded(4));
        check_walk(&mut seeded(8));
        check_against_model(&mut seeded(10), 5000, 0xC0FFEE);
        check_against_model(&mut weak(8), 4000, 0x1234);
        check_batch_matches_single(&mut seeded(9), &mut seeded(9), 0xBA7C);
        assert_eq!(seeded(4).display_name(), names[0]);
        assert_eq!(weak(4).display_name(), names[1]);
        let t = seeded(10);
        assert_eq!((t.capacity(), t.memory_bytes()), (1024, 1024 * slot_bytes), "{}", names[0]);
    }

    fn simd<H: HashFn64, L: Layout, S: SimdStep>(
        mut t: OpenAddressing<H, L, S>,
    ) -> OpenAddressing<H, L, S> {
        t.set_probe_kind(ProbeKind::Simd);
        t
    }

    #[test]
    fn every_exposed_cell_passes_the_shared_checks() {
        let weak = || MultShift::new(1);
        check_cell(
            |b| LinearProbing::<Murmur>::with_seed(b, 42),
            |b| LinearProbing::with_hash(b, weak()),
            ["LPMurmur", "LPMult"],
            16,
        );
        check_cell(
            |b| LinearProbing::<Murmur>::with_seed_simd(b, 42),
            |b| simd(LinearProbing::with_hash(b, weak())),
            ["LPMurmurSIMD", "LPMultSIMD"],
            16,
        );
        check_cell(
            |b| LinearProbingSoA::<Murmur>::with_seed(b, 42),
            |b| LinearProbingSoA::with_hash(b, weak()),
            ["LPSoAMurmur", "LPSoAMult"],
            16,
        );
        check_cell(
            |b| LinearProbingSoA::<Murmur>::with_seed_simd(b, 42),
            |b| simd(LinearProbingSoA::with_hash(b, weak())),
            ["LPSoAMurmurSIMD", "LPSoAMultSIMD"],
            16,
        );
        check_cell(
            |b| QuadraticProbing::<Murmur>::with_seed(b, 42),
            |b| QuadraticProbing::with_hash(b, weak()),
            ["QPMurmur", "QPMult"],
            16,
        );
        check_cell(
            |b| RobinHood::<Murmur>::with_seed(b, 42),
            |b| RobinHood::with_hash(b, weak()),
            ["RHMurmur", "RHMult"],
            16,
        );
        check_cell(
            |b| FingerprintTable::<Murmur>::with_seed(b, 42),
            |b| FingerprintTable::<MultShift>::with_hash(b, weak()),
            ["FPMurmur", "FPMult"],
            17,
        );
        check_cell(
            |b| FingerprintTable::<Murmur>::with_seed_simd(b, 42),
            |b| simd(FingerprintTable::<MultShift>::with_hash(b, weak())),
            ["FPMurmurSIMD", "FPMultSIMD"],
            17,
        );
    }

    /// Soundness rule 2 on a table with **no** empty slot — a state only a
    /// racing writer can produce. Every slot of `t` must already hold a
    /// live key other than `absent`.
    pub(crate) fn assert_saturated_miss_is_bounded<T: HashTable>(t: &T, absent: &[u64]) {
        let mut out = vec![Some(0); absent.len()];
        // SAFETY: no writer exists; the table outlives the call.
        assert!(unsafe { t.lookup_batch_optimistic(absent, &mut out) }, "{}", t.display_name());
        assert!(out.iter().all(Option::is_none), "{}: {out:?}", t.display_name());
    }

    /// Every slot holds a live key; a grouped table's tags are the keys'
    /// fingerprints.
    pub(crate) fn saturated<L: Layout, S: Step>(bits: u8) -> OpenAddressing<MultShift, L, S> {
        let mut t = OpenAddressing::<MultShift, L, S>::with_seed(bits, 3);
        for i in 0..=t.mask {
            let key = 1000 + i as u64;
            t.slots.set_key(i, key);
            if S::GROUP > 1 {
                t.tags[i] = OpenAddressing::<MultShift, L, S>::group_home(t.home(key)).1;
            }
        }
        t
    }

    fn check_saturated<L: Layout, S: Step>() {
        // One group (capacity 2 for the per-slot steps) is the smallest
        // table; 64 slots span several cache lines and groups.
        for bits in [S::GROUP.max(2).trailing_zeros() as u8, 6] {
            let t = saturated::<L, S>(bits);
            let cap = t.capacity();
            for key in [1u64, 7, 999] {
                // SAFETY: `&t` — no writer; the arrays hold `cap` slots.
                let (hit, steps) = unsafe { t.probe::<Volatile>(t.home(key), key) };
                // A saturated miss examines every group (slot) once.
                assert_eq!((hit, steps), (None, cap / S::GROUP), "{}", S::NAME);
            }
            // Reserved keys inside a batch stay inert: they must not match
            // the control values a racing writer may have left behind.
            assert_saturated_miss_is_bounded(&t, &[1, EMPTY_KEY, 7, TOMBSTONE_KEY, 999]);
            // And a resident key is still found, within the bound — except
            // that an ordered table's exact abort trusts a displacement
            // order this hand-filled table lacks, so it may stop early.
            let resident = 1000 + (cap as u64 - 1);
            let (hit, steps) = t.lookup_probed(resident);
            assert!(hit == Some(0) || (S::ORDERED && hit.is_none()), "{}: {hit:?}", S::NAME);
            assert!(steps <= cap);
        }
    }

    #[test]
    fn volatile_kernel_is_capacity_bounded_on_saturated_tables() {
        check_saturated::<Aos, Linear>();
        check_saturated::<Soa, Linear>();
        check_saturated::<Aos, Triangular>();
        check_saturated::<Aos, Ordered>();
        // The unexposed cells ride along: the kernel is generic.
        check_saturated::<Soa, Triangular>();
        check_saturated::<Soa, Ordered>();
        check_saturated::<Soa, Grouped<16>>();
        check_saturated::<Soa, Grouped<4>>();
    }

    #[test]
    fn tombstone_saturated_tables_terminate_too() {
        // No empty slot and no live key either: every slot a tombstone.
        let mut t = OpenAddressing::<MultShift, Aos, Triangular>::with_seed(4, 1);
        for i in 0..=t.mask {
            t.slots.set_key(i, TOMBSTONE_KEY);
        }
        assert_saturated_miss_is_bounded(&t, &[5, TOMBSTONE_KEY]);
        assert_eq!(t.lookup_probed(5), (None, 16));
    }

    #[test]
    fn optimistic_batch_agrees_with_locked_lookups_on_every_alias() {
        fn check<T: HashTable>(mut t: T) {
            for k in 1..=150u64 {
                t.insert(k, k * 3).unwrap();
            }
            for k in (1..=150u64).step_by(4) {
                t.delete(k);
            }
            let keys: Vec<u64> = (0..400u64).chain([EMPTY_KEY, TOMBSTONE_KEY]).collect();
            let mut locked = vec![None; keys.len()];
            t.lookup_batch(&keys, &mut locked);
            let mut optimistic = vec![Some(u64::MAX); keys.len()];
            // SAFETY: no writer exists; the table outlives the call.
            assert!(unsafe { t.lookup_batch_optimistic(&keys, &mut optimistic) });
            assert_eq!(optimistic, locked, "{}", t.display_name());
            for (&k, &v) in keys.iter().zip(&locked) {
                assert_eq!(t.lookup(k), v, "{} key {k}", t.display_name());
                assert_eq!(t.lookup_probed(k).0, v, "{} key {k}", t.display_name());
            }
        }
        check(LinearProbing::<MultShift>::with_seed(8, 1));
        check(LinearProbing::<MultShift>::with_seed_simd(8, 1));
        check(LinearProbingSoA::<MultShift>::with_seed(8, 1));
        check(LinearProbingSoA::<MultShift>::with_seed_simd(8, 1));
        check(QuadraticProbing::<MultShift>::with_seed(8, 1));
        check(RobinHood::<MultShift>::with_seed(8, 1));
        check(FingerprintTable::<MultShift>::with_seed(8, 1));
        check(FingerprintTable::<MultShift>::with_seed_simd(8, 1));
    }

    #[test]
    fn a_walk_resumes_across_robin_hood_backward_shifts() {
        // At α = 0.9 clusters are long, so deleting a run's entries pulls
        // their successors back into the slots the run emptied.
        let mut t = RobinHood::<Murmur>::with_seed(8, 42);
        for k in 1..=230u64 {
            t.insert(k, k * 3).unwrap();
        }
        check_walk_resumes(&mut t, 5);
    }
}
