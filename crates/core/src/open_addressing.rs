//! One open-addressing table for the tombstone-discipline schemes: linear
//! probing in both layouts and quadratic probing (paper §2.2, §2.3, §7).
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
//! * [`Step`] — where a probe goes next. [`Linear`] is
//!   `h(k, i) = (h'(k) + i) mod l`: sequential, cache friendly, prone to
//!   primary clustering. [`Triangular`] is the textbook quadratic sequence
//!   with `c1 = c2 = 1/2`, offsets `0, 1, 3, 6, 10, …`, which visits every
//!   slot of a power-of-two table exactly once in `l` probes (CLRS): it
//!   trades locality for scattered collisions.
//!
//! [`LinearProbing`](crate::LinearProbing),
//! [`LinearProbingSoA`](crate::LinearProbingSoA) and
//! [`QuadraticProbing`](crate::QuadraticProbing) are aliases of the three
//! exposed cells.
//!
//! # Deletion
//!
//! Deletes leave tombstones, which inserts recycle (first tombstone on the
//! probe path, after confirming the key is absent) and a blocked insert
//! reclaims wholesale by rehashing in place. Linear probing applies the
//! paper's *optimized* rule: a tombstone is placed only if the next slot is
//! occupied, i.e. only when clearing would disconnect a cluster. That
//! shortcut needs every key passing through a slot to continue to the same
//! successor ([`Step::SHARED_SUCCESSOR`]); under triangular probing the
//! successor depends on the iteration at which a key reached the slot, so
//! no local check can prove a chain stays connected and every delete
//! tombstones.
//!
//! # One lookup kernel
//!
//! Every lookup of these tables — [`HashTable::lookup`],
//! [`HashTable::lookup_probed`], the batch form, and the lock-free
//! [`ReadView::lookup_batch_optimistic`] — is an instantiation of
//! `lookup_kernel`, a free function over raw slot pointers that is
//! bounded by the capacity and generic over how a slot is loaded
//! (`Plain` under `&self` or a lock, `Volatile` when a writer may be
//! racing). The locked and the lock-free read paths therefore differ in one
//! instruction per slot, not in algorithm. The one exception is a
//! [`Linear`] table switched to [`ProbeKind::Simd`]: its locked lookups
//! use the AVX2 scans of [`crate::simd`], which need a borrowed slice and
//! so cannot run against a racing writer.

use crate::optimistic::ReadView;
use crate::simd::{
    prefetch_read, scan_keys, scan_pairs, ProbeKind, ScanOutcome, ScanResult, PREFETCH_BATCH,
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
        p.read()
    }
}

impl LoadMode for Volatile {
    const RACING: bool = true;

    #[inline(always)]
    unsafe fn load<T: Copy>(p: *const T) -> T {
        p.read_volatile()
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

/// The probe sequence of an [`OpenAddressing`] table.
pub trait Step: Clone + sealed::Sealed {
    /// Prefix of the paper-style display name (`"LP"` or `"QP"`).
    const NAME: &'static str;

    /// Whether every key that passes through a slot continues to the same
    /// next slot — what makes the clear-if-next-empty delete sound (see
    /// the [module docs](self)).
    const SHARED_SUCCESSOR: bool;

    /// The (unmasked) slot after `pos`, which was the `i`-th slot examined
    /// (`i` counts from 1). Must visit all `l` slots in `l` steps.
    fn advance(pos: usize, i: usize) -> usize;
}

/// Linear probing: the next slot.
#[derive(Clone, Copy)]
pub struct Linear;

/// Quadratic probing by triangular numbers: offsets 1, 2, 3, … give
/// positions `h + i(i+1)/2`.
#[derive(Clone, Copy)]
pub struct Triangular;

impl Step for Linear {
    const NAME: &'static str = "LP";
    const SHARED_SUCCESSOR: bool = true;

    #[inline(always)]
    fn advance(pos: usize, _i: usize) -> usize {
        pos + 1
    }
}

impl Step for Triangular {
    const NAME: &'static str = "QP";
    const SHARED_SUCCESSOR: bool = false;

    #[inline(always)]
    fn advance(pos: usize, i: usize) -> usize {
        pos.wrapping_add(i)
    }
}

/// The lookup kernel of the tombstone-discipline schemes: walk `S`'s probe
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
/// of the window (tombstone writes and in-place rehashes preserve hash
/// function and capacity, so a home slot does).
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

/// Open addressing with in-band tombstones over layout `L` and probe
/// sequence `S`. See the [module docs](self).
#[derive(Clone)]
pub struct OpenAddressing<H: HashFn64, L: Layout, S: Step> {
    slots: L,
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

impl<H: HashFamily, L: Layout> OpenAddressing<H, L, Linear> {
    /// Like [`OpenAddressing::with_seed`], but probing compares four keys
    /// per step with AVX2 where available (paper §7, "LPAoSMultSIMD" /
    /// "LPSoAMultSIMD").
    pub fn with_seed_simd(bits: u8, seed: u64) -> Self {
        let mut t = Self::with_seed(bits, seed);
        t.probe_kind = ProbeKind::Simd;
        t
    }
}

impl<H: HashFn64, L: Layout> OpenAddressing<H, L, Linear> {
    /// Switch between scalar and SIMD probing (the SIMD scans exist for
    /// the linear probe order only).
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

impl<H: HashFn64, L: Layout, S: Step> OpenAddressing<H, L, S> {
    /// Create a table with `2^bits` slots using an explicit hash function.
    pub fn with_hash(bits: u8, hash: H) -> Self {
        let cap = check_capacity_bits(bits);
        Self {
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

    #[inline(always)]
    fn home(&self, key: u64) -> usize {
        home_slot(&self.hash, key, self.bits)
    }

    /// Pass 1 of the batch operations: hash `key` and prefetch its home
    /// line. Reserved keys hash like any other; prefetching their (never
    /// probed) home line is harmless.
    #[inline(always)]
    fn prepare(&self, key: u64) -> usize {
        let home = self.home(key);
        // SAFETY: `home <= mask`, inside the slot array.
        prefetch_read(unsafe { L::key_ptr(self.slots.raw(), home) });
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
    ) -> Result<InsertOutcome, TableError> {
        if self.tombstones == 0 {
            return Err(TableError::TableFull);
        }
        self.rehash_in_place();
        self.insert_from(home, key, value)
    }

    /// The mutating operations' probe: `Ok(slot)` if `key` is present, else
    /// `Err(slot)` where an insert should put it (the first tombstone on
    /// the path if any, else the terminating empty slot), or
    /// `Err(usize::MAX)` if the whole sequence held neither the key, an
    /// empty slot nor a tombstone.
    #[inline]
    fn find(&self, home: usize, key: u64) -> Result<usize, usize> {
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

    /// [`HashTable::insert`] with a precomputed `home` slot.
    fn insert_from(
        &mut self,
        home: usize,
        key: u64,
        value: u64,
    ) -> Result<InsertOutcome, TableError> {
        if is_reserved_key(key) {
            return Err(TableError::ReservedKey);
        }
        if self.probe_kind == ProbeKind::Scalar && self.len + self.tombstones < self.mask {
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
                    return Ok(InsertOutcome::Replaced(self.slots.replace_value(pos, value)));
                }
                if k == TOMBSTONE_KEY && first_tombstone == usize::MAX {
                    first_tombstone = pos;
                }
                pos = S::advance(pos, i) & self.mask;
            }
        }
        match self.find(home, key) {
            Ok(pos) => Ok(InsertOutcome::Replaced(self.slots.replace_value(pos, value))),
            Err(usize::MAX) => self.reclaim_or_full(home, key, value),
            Err(pos) => {
                if self.slots.key(pos) == TOMBSTONE_KEY {
                    self.tombstones -= 1;
                } else if self.len + self.tombstones >= self.mask {
                    // Filling the last empty slot would leave no probe
                    // terminator; keep one slot free, as open-addressing
                    // tables must. Tombstones elsewhere in the table are
                    // reclaimable capacity, though: rehash them away and
                    // retry before declaring the table full.
                    return self.reclaim_or_full(home, key, value);
                }
                self.slots.set(pos, key, value);
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
        if !M::RACING && self.probe_kind == ProbeKind::Simd {
            return match self.slots.scan_simd(home, key).outcome {
                ScanOutcome::FoundKey(pos) => Some(self.slots.value(pos)),
                _ => None,
            };
        }
        // SAFETY: the arrays hold `mask + 1` slots, are never reallocated
        // and live as long as the table; `home <= mask`. The kernel is
        // capacity-bounded and dereferences nothing it loaded.
        unsafe { lookup_kernel::<L, S, M>(self.slots.raw(), self.mask, home, key).0 }
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
        let pos = self.find(home, key).ok()?;
        let value = self.slots.value(pos);
        // Optimized tombstones (§2.2): only keep the cluster connected when
        // it actually continues past the deleted slot — decidable only
        // where all keys share the slot's successor.
        if S::SHARED_SUCCESSOR && self.slots.key(S::advance(pos, 1) & self.mask) == EMPTY_KEY {
            self.slots.set_key(pos, EMPTY_KEY);
        } else {
            self.slots.set_key(pos, TOMBSTONE_KEY);
            self.tombstones += 1;
        }
        self.len -= 1;
        Some(value)
    }
}

impl<H: HashFn64, L: Layout, S: Step> HashTable for OpenAddressing<H, L, S> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        self.insert_from(self.home(key), key, value)
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
        // Always the scalar kernel (the SIMD scans resolve whole windows,
        // hiding per-slot steps).
        // SAFETY: as in `lookup_from`, with no writer.
        unsafe { lookup_kernel::<L, S, Plain>(self.slots.raw(), self.mask, self.home(key), key) }
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        self.delete_from(self.home(key), key)
    }

    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        // SAFETY: `&self` — no writer.
        unsafe { self.lookup_batch_in::<Plain>(keys, out) }
    }

    fn insert_batch(
        &mut self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        let prepare = |t: &Self, (k, _)| t.prepare(k);
        two_pass(self, items, out, prepare, |t, (k, v), home| t.insert_from(home, k, v));
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
        (self.mask + 1) * std::mem::size_of::<Pair>()
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        let raw = self.slots.raw();
        for i in 0..self.mask + 1 {
            // SAFETY: `i <= mask`, inside the arrays; `&self` — no writer.
            // (Measured: the two bounds checks per slot of the indexed
            // form cost a full scan ~15%.)
            let k = unsafe { Plain::load(L::key_ptr(raw, i)) };
            if !is_reserved_key(k) {
                // SAFETY: same slot.
                f(k, unsafe { Plain::load(L::value_ptr(raw, i)) });
            }
        }
    }

    fn display_name(&self) -> String {
        let simd = if self.probe_kind == ProbeKind::Simd { "SIMD" } else { "" };
        format!("{}{}{}{simd}", S::NAME, L::NAME, H::name())
    }
}

/// The slot arrays never move after construction (`rehash_in_place`
/// rebuilds inside the existing allocations), so a lock-free reader's
/// pointers into them stay valid; slot *contents* race and are read
/// volatile — key and value at different instants, but a torn pairing
/// implies a racing writer, which the caller's seqlock validation detects.
impl<H: HashFn64, L: Layout, S: Step> ReadView for OpenAddressing<H, L, S> {
    fn supports_optimistic(&self) -> bool {
        true
    }

    unsafe fn lookup_batch_optimistic(&self, keys: &[u64], out: &mut [Option<u64>]) -> bool {
        // SAFETY: the caller keeps the table alive and validates.
        unsafe { self.lookup_batch_in::<Volatile>(keys, out) };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearProbing, LinearProbingSoA, QuadraticProbing};
    use hashfn::MultShift;

    /// Soundness rule 2 on a table with **no** empty slot — a state only a
    /// racing writer can produce. Every slot of `t` must already hold a
    /// live key other than `absent`.
    fn assert_saturated_miss_is_bounded<T: HashTable>(t: &T, absent: &[u64]) {
        let mut out = vec![Some(0); absent.len()];
        // SAFETY: no writer exists; the table outlives the call.
        assert!(unsafe { t.lookup_batch_optimistic(absent, &mut out) }, "{}", t.display_name());
        assert!(out.iter().all(Option::is_none), "{}: {out:?}", t.display_name());
    }

    fn saturated<L: Layout, S: Step>(bits: u8) -> OpenAddressing<MultShift, L, S> {
        let mut t = OpenAddressing::<MultShift, L, S>::with_seed(bits, 3);
        for i in 0..=t.mask {
            t.slots.set_key(i, 1000 + i as u64);
        }
        t
    }

    fn check_saturated<L: Layout, S: Step>() {
        // Capacity 2 is the smallest table; 64 spans several cache lines.
        for bits in [1u8, 6] {
            let t = saturated::<L, S>(bits);
            let cap = t.capacity();
            for key in [1u64, 7, 999] {
                // SAFETY: `&t` — no writer; the arrays hold `cap` slots.
                let (hit, steps) = unsafe {
                    lookup_kernel::<L, S, Volatile>(t.slots.raw(), t.mask, t.home(key), key)
                };
                assert_eq!(hit, None);
                assert_eq!(steps, cap, "{}: a saturated miss examines every slot once", S::NAME);
            }
            // Reserved keys inside a batch stay inert: they must not match
            // the control values a racing writer may have left behind.
            assert_saturated_miss_is_bounded(&t, &[1, EMPTY_KEY, 7, TOMBSTONE_KEY, 999]);
            // And a resident key is still found, within the bound.
            let resident = 1000 + (cap as u64 - 1);
            let (hit, steps) = t.lookup_probed(resident);
            assert_eq!(hit, Some(0));
            assert!(steps <= cap);
        }
    }

    #[test]
    fn volatile_kernel_is_capacity_bounded_on_saturated_tables() {
        check_saturated::<Aos, Linear>();
        check_saturated::<Soa, Linear>();
        check_saturated::<Aos, Triangular>();
        // The unexposed fourth cell rides along: the kernel is generic.
        check_saturated::<Soa, Triangular>();
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
    }
}
