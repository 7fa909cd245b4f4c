//! Bucketized fingerprint hashing (Swiss-table / F14 lineage): the probing
//! scheme the paper's SIMD findings (§7) point at but stop short of.
//!
//! The paper vectorizes *per-slot* linear probing — four 8-byte keys per
//! AVX2 comparison — and finds the win limited by memory traffic: every
//! probe step still drags full key cache lines through the hierarchy.
//! Bucketized fingerprint probing inverts the layout: a contiguous array
//! of **1-byte tags** (a 7-bit fingerprint of each key's hash, with the
//! high bit reserved for the EMPTY/TOMBSTONE control values) is probed
//! **group-at-a-time** — one 16-byte SSE2 comparison classifies sixteen
//! slots (see [`crate::simd::scan_tags`]) — and the 8-byte keys, kept in a
//! struct-of-arrays payload next to their values, are touched only for
//! the (rare) tag matches. An unsuccessful lookup at 87% load reads ~one
//! tag line and usually zero key lines, versus a whole cluster of key
//! lines for LP; this is the bucket-of-candidates idea of multilevel hash
//! tables (multiple candidate slots resolved per probe step) fused with
//! open addressing.
//!
//! # Probe order and deletion
//!
//! Groups are probed linearly and circularly from the key's home group;
//! within a group all slots are candidates at once. A group containing an
//! EMPTY tag terminates the probe (the group-level analogue of LP's empty
//! slot), so deletion follows the paper's *optimized tombstone* rule
//! lifted to groups: clear the slot if its group still contains another
//! EMPTY tag (no probe ever continued past this group), otherwise write a
//! TOMBSTONE. Inserts recycle the first tombstone on their probe path
//! after the duplicate check, and a blocked insert reclaims tombstones by
//! rehashing in place before reporting [`TableError::TableFull`] — the
//! same remedies as LP/QP, so the scheme drops into the shared
//! differential suites unchanged.
//!
//! # Group size
//!
//! `GROUP` is a const parameter (default [`GROUP_SLOTS`] = 16, the size
//! one SSE2 register classifies per instruction). The `ablation_fp`
//! binary sweeps 4/8/16/32 to show why 16 is the sweet spot: smaller
//! groups probe more often, larger ones scan scalar (no single-register
//! compare) and evict more payload per miss.

use crate::open_addressing::{two_pass, LoadMode, Plain, Volatile};
use crate::simd::{prefetch_read, scan_tags, ProbeKind, TagScan, EMPTY_TAG, TOMBSTONE_TAG};
use crate::{
    check_capacity_bits, is_reserved_key, HashTable, InsertOutcome, TableError, EMPTY_KEY,
};
use hashfn::{fold_to_bits, HashFamily, HashFn64};

/// Slots per probe group: what one SSE2 byte-compare classifies.
pub const GROUP_SLOTS: usize = 16;

/// Where a fingerprint probe stopped.
enum Probe {
    /// The key lives in `slot`; `group_empties` is the EMPTY-lane mask
    /// of that slot's group, so delete can apply the tombstone-vs-clear
    /// rule without rescanning the group it just probed.
    Found { slot: usize, group_empties: u32 },
    /// The key is absent; `free` is the slot an insert should take (first
    /// tombstone on the probe path, else the first empty slot of the
    /// terminating group).
    Absent { free: usize },
    /// Every group was scanned without an empty slot (table saturated
    /// with entries and tombstones, key absent).
    Exhausted { first_tombstone: Option<usize> },
}

/// Bucketized open addressing over a 1-byte tag array and an SoA
/// key/value payload. `FPMult` in the builder grid is
/// `FingerprintTable<MultShift>`.
#[derive(Clone)]
pub struct FingerprintTable<H: HashFn64, const GROUP: usize = GROUP_SLOTS> {
    /// One control byte per slot: 7-bit fingerprint, [`EMPTY_TAG`], or
    /// [`TOMBSTONE_TAG`]. Contiguous, so probing touches 1/16th the bytes
    /// of a key scan.
    tags: Box<[u8]>,
    keys: Box<[u64]>,
    values: Box<[u64]>,
    /// `log2` of the slot count.
    bits: u8,
    group_mask: usize,
    hash: H,
    len: usize,
    tombstones: usize,
    probe_kind: ProbeKind,
}

impl<H: HashFamily, const GROUP: usize> FingerprintTable<H, GROUP> {
    /// Create a table with `2^bits` slots and a hash function drawn from
    /// seed `seed` (scalar tag scanning).
    pub fn with_seed(bits: u8, seed: u64) -> Self {
        Self::with_hash(bits, H::from_seed(seed))
    }

    /// Like [`FingerprintTable::with_seed`] with SIMD tag scanning (one
    /// SSE2 compare per 16-slot group on x86-64; scalar elsewhere).
    pub fn with_seed_simd(bits: u8, seed: u64) -> Self {
        let mut t = Self::with_hash(bits, H::from_seed(seed));
        t.probe_kind = ProbeKind::Simd;
        t
    }
}

impl<H: HashFn64, const GROUP: usize> FingerprintTable<H, GROUP> {
    /// Create a table with `2^bits` slots using an explicit hash
    /// function. `bits` must cover at least one group
    /// (`2^bits >= GROUP`), and `GROUP` must be a power of two in
    /// `4..=32`.
    pub fn with_hash(bits: u8, hash: H) -> Self {
        const { assert!(GROUP.is_power_of_two() && GROUP >= 4 && GROUP <= 32) };
        let cap = check_capacity_bits(bits);
        assert!(cap >= GROUP, "capacity 2^{bits} is smaller than one {GROUP}-slot group");
        Self {
            tags: vec![EMPTY_TAG; cap].into_boxed_slice(),
            keys: vec![EMPTY_KEY; cap].into_boxed_slice(),
            values: vec![0; cap].into_boxed_slice(),
            bits,
            group_mask: cap / GROUP - 1,
            hash,
            len: 0,
            tombstones: 0,
            probe_kind: ProbeKind::Scalar,
        }
    }

    /// Switch between scalar and SIMD tag scanning.
    pub fn set_probe_kind(&mut self, kind: ProbeKind) {
        self.probe_kind = kind;
    }

    /// The probe kind in use.
    pub fn probe_kind(&self) -> ProbeKind {
        self.probe_kind
    }

    /// The hash function in use.
    pub fn hash_fn(&self) -> &H {
        &self.hash
    }

    /// Number of tombstone slots currently in the table.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Direct tag-array access for statistics and tests.
    pub fn raw_tags(&self) -> &[u8] {
        &self.tags
    }

    /// Home group and 7-bit fingerprint of `key`: the group comes from
    /// the top hash bits (the crate-wide convention), the fingerprint
    /// from the low 7 — disjoint bit ranges, so tags stay informative
    /// within a group.
    #[inline(always)]
    fn home(&self, key: u64) -> (usize, u8) {
        let h = self.hash.hash(key);
        let group_bits = self.bits - GROUP.trailing_zeros() as u8;
        (fold_to_bits(h, group_bits), (h & 0x7F) as u8)
    }

    /// Pass 1 of the batch operations: hash `key` and prefetch its home
    /// group's tag line (harmless for the never-probed reserved keys).
    #[inline(always)]
    fn prepare(&self, key: u64) -> (usize, u8) {
        let (group, tag) = self.home(key);
        prefetch_read(&self.tags[group * GROUP] as *const u8);
        (group, tag)
    }

    #[inline(always)]
    fn group_scan(&self, group: usize, tag: u8) -> TagScan {
        let base = group * GROUP;
        scan_tags(&self.tags[base..base + GROUP], tag, self.probe_kind)
    }

    /// Probe for `key` group by group from its home group.
    fn probe(&self, home_group: usize, tag: u8, key: u64) -> Probe {
        let mut group = home_group;
        let mut first_tombstone = None;
        for _ in 0..=self.group_mask {
            let base = group * GROUP;
            let scan = self.group_scan(group, tag);
            // Tag matches are candidates; the key array arbitrates (a
            // 7-bit fingerprint false-positives at rate ~2^-7 per
            // occupied slot).
            let mut m = scan.matches;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                if self.keys[base + lane] == key {
                    return Probe::Found { slot: base + lane, group_empties: scan.empties };
                }
                m &= m - 1;
            }
            if first_tombstone.is_none() && scan.tombstones != 0 {
                first_tombstone = Some(base + scan.tombstones.trailing_zeros() as usize);
            }
            if scan.empties != 0 {
                let empty = base + scan.empties.trailing_zeros() as usize;
                return Probe::Absent { free: first_tombstone.unwrap_or(empty) };
            }
            group = (group + 1) & self.group_mask;
        }
        Probe::Exhausted { first_tombstone }
    }

    /// Rebuild the table in place (same capacity, same hash function),
    /// dropping all tombstones — the LP remedy, shared verbatim.
    ///
    /// Literally in place: live entries are snapshotted, the *existing*
    /// tag array is cleared and all three arrays are refilled, so no
    /// allocation ever moves — the in-bounds guarantee optimistic readers
    /// need (see [`crate::optimistic`]).
    pub fn rehash_in_place(&mut self) {
        let live: Vec<(u64, u64)> = self
            .tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t < EMPTY_TAG)
            .map(|(i, _)| (self.keys[i], self.values[i]))
            .collect();
        self.tags.fill(EMPTY_TAG);
        self.keys.fill(EMPTY_KEY);
        self.len = 0;
        self.tombstones = 0;
        for (k, v) in live {
            // Distinct keys into an equally-sized empty table: cannot
            // fail or replace.
            let _ = self.insert(k, v);
        }
    }

    /// Blocked-insert remedy: tombstones are reclaimable capacity —
    /// rehash them away and retry (at most once) before reporting a full
    /// table.
    fn reclaim_or_full(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        if self.tombstones == 0 {
            return Err(TableError::TableFull);
        }
        self.rehash_in_place();
        self.insert(key, value)
    }

    fn place(&mut self, slot: usize, tag: u8, key: u64, value: u64) {
        self.tags[slot] = tag;
        self.keys[slot] = key;
        self.values[slot] = value;
        self.len += 1;
    }

    /// [`HashTable::insert`] with a precomputed home group and fingerprint.
    fn insert_from(
        &mut self,
        (home_group, tag): (usize, u8),
        key: u64,
        value: u64,
    ) -> Result<InsertOutcome, TableError> {
        if is_reserved_key(key) {
            return Err(TableError::ReservedKey);
        }
        match self.probe(home_group, tag, key) {
            Probe::Found { slot, .. } => {
                let old = std::mem::replace(&mut self.values[slot], value);
                Ok(InsertOutcome::Replaced(old))
            }
            Probe::Absent { free } => {
                if self.tags[free] == TOMBSTONE_TAG {
                    self.tombstones -= 1;
                } else if self.len + self.tombstones >= self.tags.len() - 1 {
                    // Keep one empty slot table-wide as the probe
                    // terminator, exactly like the per-slot schemes.
                    return self.reclaim_or_full(key, value);
                }
                self.place(free, tag, key, value);
                Ok(InsertOutcome::Inserted)
            }
            Probe::Exhausted { first_tombstone } => match first_tombstone {
                Some(slot) => {
                    self.tombstones -= 1;
                    self.place(slot, tag, key, value);
                    Ok(InsertOutcome::Inserted)
                }
                None => self.reclaim_or_full(key, value),
            },
        }
    }

    /// The lookup kernel: probe group by group from `home_group` until
    /// `key`, a group with an EMPTY tag, or every group has been scanned.
    /// Returns the value if found, and the number of *groups* examined —
    /// one tag scan is one step, matching what a miss actually costs.
    ///
    /// Tag, key and value are loaded at different instants, so under
    /// [`Volatile`] any torn combination implies a racing writer, which
    /// the caller's seqlock validation detects.
    ///
    /// # Safety
    /// `home_group <= group_mask`. Under [`Volatile`] the arrays may be
    /// concurrently written (the answer is then only a candidate for the
    /// caller's validation); under [`Plain`] they must not be.
    #[inline(always)]
    unsafe fn lookup_kernel<M: LoadMode>(
        &self,
        (home_group, tag): (usize, u8),
        key: u64,
    ) -> (Option<u64>, usize) {
        let (tags, keys, values) = (self.tags.as_ptr(), self.keys.as_ptr(), self.values.as_ptr());
        let mut group = home_group;
        for examined in 1..=self.group_mask + 1 {
            let base = group * GROUP;
            // SAFETY: in-bounds — `group <= group_mask`, so the GROUP tags
            // from `base` lie inside the arrays (none of which is ever
            // reallocated), and `lane < GROUP` because `scan_tags` sets
            // one bit per scanned tag. Termination — the loop is bounded
            // by the group count, not by "some group has an EMPTY".
            // Raced data is only compared and returned.
            let group_tags: [u8; GROUP] = unsafe { M::load(tags.add(base).cast()) };
            let scan = scan_tags(&group_tags, tag, self.probe_kind);
            // Tag matches are candidates; the key array arbitrates.
            let mut m = scan.matches;
            while m != 0 {
                let slot = base + m.trailing_zeros() as usize;
                // SAFETY: `slot < base + GROUP`, see above.
                if unsafe { M::load(keys.add(slot)) } == key {
                    // SAFETY: same slot.
                    return (Some(unsafe { M::load(values.add(slot)) }), examined);
                }
                m &= m - 1;
            }
            if scan.empties != 0 {
                return (None, examined);
            }
            group = (group + 1) & self.group_mask;
        }
        (None, self.group_mask + 1)
    }

    /// [`HashTable::lookup`] with a precomputed home group and fingerprint,
    /// in load mode `M`. Reserved keys miss without a probe.
    ///
    /// # Safety
    /// As [`FingerprintTable::lookup_kernel`]; `home` must come from
    /// [`FingerprintTable::home`].
    #[inline(always)]
    unsafe fn lookup_from<M: LoadMode>(&self, home: (usize, u8), key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { self.lookup_kernel::<M>(home, key).0 }
    }

    /// [`HashTable::lookup_batch`] in load mode `M`: the locked and the
    /// lock-free batch are this one function.
    ///
    /// # Safety
    /// As [`FingerprintTable::lookup_kernel`].
    #[inline(always)]
    unsafe fn lookup_batch_in<M: LoadMode>(&self, keys: &[u64], out: &mut [Option<u64>]) {
        two_pass(self, keys, out, Self::prepare, |t, k, home| {
            // SAFETY: `prepare` returns `home(k)`; the rest is the caller's
            // contract.
            unsafe { t.lookup_from::<M>(home, k) }
        });
    }

    /// [`HashTable::delete`] with a precomputed home group and fingerprint.
    fn delete_from(&mut self, (home_group, tag): (usize, u8), key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        let Probe::Found { slot, group_empties } = self.probe(home_group, tag, key) else {
            return None;
        };
        let value = self.values[slot];
        // Optimized tombstones at group granularity: a group that still
        // has an EMPTY tag never let any probe continue past it (empties
        // only ever appear in groups that already had one), so clearing
        // the slot cannot disconnect later groups. An empty-free group
        // must tombstone. The probe already scanned this group — its
        // EMPTY mask rides along in `Probe::Found`.
        if group_empties != 0 {
            self.tags[slot] = EMPTY_TAG;
        } else {
            self.tags[slot] = TOMBSTONE_TAG;
            self.tombstones += 1;
        }
        self.keys[slot] = EMPTY_KEY;
        self.len -= 1;
        Some(value)
    }
}

impl<H: HashFn64, const GROUP: usize> HashTable for FingerprintTable<H, GROUP> {
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
        // SAFETY: `&self` — no writer.
        unsafe { self.lookup_kernel::<Plain>(self.home(key), key) }
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
        self.tags.len()
    }

    fn memory_bytes(&self) -> usize {
        // 17 B per slot: 1 tag + 8 key + 8 value (vs 16 B/slot for the
        // LP layouts — the tag array is the 6.25% premium that buys
        // group-at-a-time probing).
        self.tags.len() + (self.keys.len() + self.values.len()) * std::mem::size_of::<u64>()
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        for (i, &t) in self.tags.iter().enumerate() {
            if t < EMPTY_TAG {
                f(self.keys[i], self.values[i]);
            }
        }
    }

    fn display_name(&self) -> String {
        let group = if GROUP == GROUP_SLOTS { String::new() } else { format!("G{GROUP}") };
        match self.probe_kind {
            ProbeKind::Scalar => format!("FP{group}{}", H::name()),
            ProbeKind::Simd => format!("FP{group}{}SIMD", H::name()),
        }
    }
}

/// None of the three arrays moves after construction (`rehash_in_place`
/// rebuilds inside the existing allocations), so the lock-free batch is
/// the locked one with volatile loads in the group kernel.
impl<H: HashFn64, const GROUP: usize> crate::optimistic::ReadView for FingerprintTable<H, GROUP> {
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
    use crate::tests_common::*;
    use crate::TOMBSTONE_KEY;
    use hashfn::{MultShift, Murmur};

    fn scalar(bits: u8) -> FingerprintTable<Murmur> {
        FingerprintTable::with_seed(bits, 42)
    }

    fn simd(bits: u8) -> FingerprintTable<Murmur> {
        FingerprintTable::with_seed_simd(bits, 42)
    }

    #[test]
    fn roundtrip_both_kinds() {
        check_roundtrip(&mut scalar(8));
        check_roundtrip(&mut simd(8));
    }

    #[test]
    fn replace_semantics_both_kinds() {
        check_replace_semantics(&mut scalar(8));
        check_replace_semantics(&mut simd(8));
    }

    #[test]
    fn reserved_keys_both_kinds() {
        check_reserved_keys(&mut scalar(4));
        check_reserved_keys(&mut simd(4));
    }

    #[test]
    fn for_each_visits_live_entries() {
        check_for_each(&mut scalar(8));
    }

    #[test]
    fn model_test_scalar() {
        check_against_model(&mut scalar(10), 5000, 0xF1A);
    }

    #[test]
    fn model_test_simd() {
        check_against_model(&mut simd(10), 5000, 0xF1B);
    }

    #[test]
    fn model_test_single_group_table() {
        // 2^4 slots = exactly one 16-slot group: the probe loop's
        // degenerate circular case.
        check_against_model(&mut scalar(4), 3000, 0xF1C);
    }

    #[test]
    fn model_test_non_default_group_sizes() {
        let mut g4: FingerprintTable<Murmur, 4> = FingerprintTable::with_seed(9, 1);
        check_against_model(&mut g4, 4000, 0xF1D);
        let mut g32: FingerprintTable<Murmur, 32> = FingerprintTable::with_seed(9, 2);
        check_against_model(&mut g32, 4000, 0xF1E);
    }

    #[test]
    fn batch_ops_match_single_key_path() {
        check_batch_matches_single(&mut scalar(9), &mut scalar(9), 0xF1AD);
        check_batch_matches_single(&mut simd(9), &mut simd(9), 0xF1AE);
    }

    #[test]
    fn simd_and_scalar_tables_agree_step_by_step() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF00);
        let mut a = scalar(9);
        let mut b = simd(9);
        for step in 0..6000 {
            let k = rng.gen_range(1..300u64);
            match rng.gen_range(0..3u8) {
                0 => assert_eq!(a.insert(k, k), b.insert(k, k), "step {step}"),
                1 => assert_eq!(a.delete(k), b.delete(k), "step {step}"),
                _ => assert_eq!(a.lookup(k), b.lookup(k), "step {step}"),
            }
            assert_eq!(a.len(), b.len(), "step {step}");
        }
        assert_eq!(a.raw_tags(), b.raw_tags(), "kinds must place identically");
    }

    #[test]
    fn tags_are_fingerprints_of_live_keys() {
        let mut t = scalar(8);
        for k in 1..=150u64 {
            t.insert(k, k).unwrap();
        }
        let mut live = 0;
        for (i, &tag) in t.raw_tags().iter().enumerate() {
            if tag < EMPTY_TAG {
                live += 1;
                let (_, expect) = t.home(t.keys[i]);
                assert_eq!(tag, expect, "slot {i} tag is not its key's fingerprint");
            }
        }
        assert_eq!(live, t.len());
    }

    #[test]
    fn delete_clears_in_groups_with_empties_and_tombstones_otherwise() {
        // Multiplier 1 ⇒ home group = top bits ⇒ small keys all hit group
        // 0; fill it completely so deletes must tombstone.
        let mut t: FingerprintTable<MultShift> = FingerprintTable::with_hash(5, MultShift::new(1));
        for k in 1..=16u64 {
            t.insert(k, k).unwrap();
        }
        // Group 0 full: deleting from it must tombstone.
        assert_eq!(t.delete(3), Some(3));
        assert_eq!(t.tombstone_count(), 1);
        assert_eq!(t.raw_tags().iter().filter(|&&x| x == TOMBSTONE_TAG).count(), 1);
        // A half-empty group clears instead.
        let mut t: FingerprintTable<MultShift> = FingerprintTable::with_hash(5, MultShift::new(1));
        t.insert(1, 1).unwrap();
        t.insert(2, 2).unwrap();
        assert_eq!(t.delete(1), Some(1));
        assert_eq!(t.tombstone_count(), 0);
    }

    #[test]
    fn overflow_spills_to_the_next_group_and_stays_reachable() {
        let mut t: FingerprintTable<MultShift> = FingerprintTable::with_hash(6, MultShift::new(1));
        // 20 colliding keys: 16 fill group 0, 4 spill into group 1.
        for k in 1..=20u64 {
            t.insert(k, k * 10).unwrap();
        }
        for k in 1..=20u64 {
            assert_eq!(t.lookup(k), Some(k * 10), "key {k}");
        }
        // Deleting a home-group key tombstones (group 0 is full) and the
        // spilled keys stay reachable across the tombstone.
        assert_eq!(t.delete(5), Some(50));
        for k in (1..=20u64).filter(|&k| k != 5) {
            assert_eq!(t.lookup(k), Some(k * 10), "key {k} after delete");
        }
        // The tombstone is recycled by the next colliding insert.
        assert_eq!(t.insert(21, 210), Ok(InsertOutcome::Inserted));
        assert_eq!(t.tombstone_count(), 0);
    }

    #[test]
    fn rehash_in_place_drops_tombstones() {
        let mut t = scalar(8);
        for k in 1..=200u64 {
            t.insert(k, k).unwrap();
        }
        for k in 1..=100u64 {
            t.delete(k);
        }
        assert!(t.tombstone_count() > 0, "a 78%-full table must tombstone some deletes");
        t.rehash_in_place();
        assert_eq!(t.tombstone_count(), 0);
        assert_eq!(t.len(), 100);
        for k in 101..=200u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn memory_is_17_bytes_per_slot() {
        assert_eq!(scalar(10).memory_bytes(), 1024 * 17);
        assert_eq!(scalar(10).capacity(), 1024);
    }

    #[test]
    fn display_names() {
        assert_eq!(scalar(4).display_name(), "FPMurmur");
        assert_eq!(simd(4).display_name(), "FPMurmurSIMD");
        let t: FingerprintTable<MultShift> = FingerprintTable::with_seed(4, 1);
        assert_eq!(t.display_name(), "FPMult");
        let t: FingerprintTable<MultShift, 8> = FingerprintTable::with_seed(4, 1);
        assert_eq!(t.display_name(), "FPG8Mult");
    }

    #[test]
    #[should_panic(expected = "smaller than one")]
    fn rejects_capacity_below_one_group() {
        let _: FingerprintTable<Murmur> = FingerprintTable::with_seed(2, 1);
    }

    #[test]
    fn fills_to_capacity_minus_one() {
        let mut t = scalar(4); // one 16-slot group
        let mut inserted = 0u64;
        for k in 1..=16u64 {
            match t.insert(k, k) {
                Ok(InsertOutcome::Inserted) => inserted += 1,
                Err(TableError::TableFull) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(inserted, 15, "one slot must stay empty as probe terminator");
        for k in 1..=inserted {
            assert_eq!(t.lookup(k), Some(k));
        }
        assert_eq!(t.lookup(100), None);
        // Delete-then-reinsert at max load reclaims via rehash.
        assert_eq!(t.delete(2), Some(2));
        assert_eq!(t.insert(99, 99), Ok(InsertOutcome::Inserted));
        assert_eq!(t.lookup(99), Some(99));
    }

    #[test]
    fn reserved_keys_flow_through_batches_inert() {
        let mut t = simd(8);
        let items = [(7u64, 70u64), (EMPTY_KEY, 1), (TOMBSTONE_KEY, 2), (8, 80)];
        let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
        t.insert_batch(&items, &mut out);
        assert_eq!(
            out,
            vec![
                Ok(InsertOutcome::Inserted),
                Err(TableError::ReservedKey),
                Err(TableError::ReservedKey),
                Ok(InsertOutcome::Inserted),
            ]
        );
        let keys = [EMPTY_KEY, 7, TOMBSTONE_KEY, 8];
        let mut vals = vec![None; keys.len()];
        t.lookup_batch(&keys, &mut vals);
        assert_eq!(vals, vec![None, Some(70), None, Some(80)]);
    }
}
