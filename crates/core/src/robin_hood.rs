//! Robin Hood hashing on linear probing, tuned as in the paper (§2.4).
//!
//! Robin Hood resolves each collision in favour of the entry that is
//! further from its home slot ("take from the rich, give to the poor"):
//! during insertion, when the incoming entry's displacement exceeds the
//! resident's, they swap and the probe continues with the displaced
//! resident. Total displacement is unchanged versus LP, but clusters
//! become sorted by home slot, which enables early termination of
//! unsuccessful lookups.
//!
//! The paper evaluates several abort criteria and settles on a cheap one:
//! recompute the resident's displacement **once per cache line** (every
//! fourth slot for 16-byte AoS entries) and stop as soon as
//! `d(resident) < i` — by the cluster ordering the key cannot appear
//! further. Checking every slot would cost a hash computation per probe;
//! checking once per line amortizes it to ¼. Deletion uses backward-shift
//! (partial cluster rehash): tombstones are unusable here because they
//! carry no displacement information.

use crate::open_addressing::{lookup_kernel, two_pass, Aos, Linear, Volatile};
use crate::simd::prefetch_read;
use crate::{
    check_capacity_bits, home_slot, is_reserved_key, HashTable, InsertOutcome, Pair, TableError,
};
use hashfn::{HashFamily, HashFn64};

/// Entries per 64-byte cache line at 16 bytes per AoS slot; the "m" of the
/// paper's every-m-th-probe abort check.
pub const ENTRIES_PER_CACHE_LINE: usize = 4;

/// Which early-abort criterion [`HashTable::lookup`] uses on a Robin Hood
/// table. The paper evaluates all three (§2.4) and selects the cache-line
/// check; the rejected ones stay selectable to back that ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RhLookupMode {
    /// The tuned criterion the paper selected: recompute the resident's
    /// displacement once per cache line and stop when it is "richer".
    #[default]
    CacheLine,
    /// Rejected: stop an unsuccessful probe after `dmax` iterations. The
    /// paper found `dmax` "often still too high to obtain significant
    /// improvements over LP" — at high load it can be an order of
    /// magnitude above the average displacement.
    DmaxBound,
    /// Rejected: compare the probe iteration against the resident's
    /// displacement on **every** step. Tightest abort, but a hash
    /// recomputation per probed slot — "prohibitively expensive w.r.t.
    /// runtime and inferior to plain LP in most scenarios".
    CheckedEveryProbe,
}

/// Robin Hood hashing over an AoS slot array.
#[derive(Clone)]
pub struct RobinHood<H: HashFn64> {
    slots: Box<[Pair]>,
    bits: u8,
    mask: usize,
    hash: H,
    len: usize,
    /// Upper bound on the maximum displacement of any entry ever stored.
    /// Maintained monotonically: inserts raise it, deletes do not lower it
    /// (recomputing on delete is exactly the bookkeeping the paper found
    /// impractical, §2.4). Backs [`RhLookupMode::DmaxBound`].
    dmax: usize,
    lookup_mode: RhLookupMode,
}

impl<H: HashFamily> RobinHood<H> {
    /// Create a table with `2^bits` slots and a hash function drawn from
    /// seed `seed`.
    pub fn with_seed(bits: u8, seed: u64) -> Self {
        Self::with_hash(bits, H::from_seed(seed))
    }
}

impl<H: HashFn64> RobinHood<H> {
    /// Create a table with `2^bits` slots using an explicit hash function.
    pub fn with_hash(bits: u8, hash: H) -> Self {
        let cap = check_capacity_bits(bits);
        Self {
            slots: vec![Pair::empty(); cap].into_boxed_slice(),
            bits,
            mask: cap - 1,
            hash,
            len: 0,
            dmax: 0,
            lookup_mode: RhLookupMode::default(),
        }
    }

    /// Choose the lookup abort criterion (default: the paper's tuned
    /// cache-line check).
    pub fn set_lookup_mode(&mut self, mode: RhLookupMode) {
        self.lookup_mode = mode;
    }

    /// The lookup abort criterion in use.
    pub fn lookup_mode(&self) -> RhLookupMode {
        self.lookup_mode
    }

    /// The tracked upper bound on entry displacement (see
    /// [`RhLookupMode::DmaxBound`]).
    pub fn dmax(&self) -> usize {
        self.dmax
    }

    /// The hash function in use.
    #[inline]
    pub fn hash_fn(&self) -> &H {
        &self.hash
    }

    #[inline(always)]
    fn home(&self, key: u64) -> usize {
        home_slot(&self.hash, key, self.bits)
    }

    /// Pass 1 of the batch operations: hash `key` and prefetch its home
    /// line (harmless for the never-probed reserved keys).
    #[inline(always)]
    fn prepare(&self, key: u64) -> usize {
        let home = self.home(key);
        prefetch_read(&self.slots[home] as *const Pair);
        home
    }

    /// Displacement of the entry at `pos`: how far it sits from its home
    /// slot, in probe steps (requires `pos` to hold a live entry).
    #[inline(always)]
    pub fn displacement_at(&self, pos: usize) -> usize {
        debug_assert!(self.slots[pos].is_occupied());
        let home = self.home(self.slots[pos].key);
        (pos + self.mask + 1 - home) & self.mask
    }

    /// Direct slot access for statistics and tests.
    pub fn raw_slots(&self) -> &[Pair] {
        &self.slots
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
        let cap = self.mask + 1;
        for pos in 0..cap {
            if !self.slots[pos].is_occupied() {
                continue;
            }
            let prev = (pos + self.mask) & self.mask;
            let d_pos = self.displacement_at(pos);
            if self.slots[prev].is_occupied() {
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

impl<H: HashFn64> RobinHood<H> {
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
        if self.len >= self.mask {
            // Table would lose its last empty probe terminator. Updates of
            // existing keys are still allowed.
            return match self.lookup_slot_from(home, key) {
                Some(pos) => {
                    let old = std::mem::replace(&mut self.slots[pos].value, value);
                    Ok(InsertOutcome::Replaced(old))
                }
                None => Err(TableError::TableFull),
            };
        }

        let mut pos = home;
        let mut dist = 0usize;
        // Phase 1: search for the key itself (duplicate => replace) until
        // we find an empty slot or a richer resident.
        loop {
            let slot = self.slots[pos];
            if slot.is_empty() {
                self.slots[pos] = Pair { key, value };
                self.len += 1;
                self.dmax = self.dmax.max(dist);
                return Ok(InsertOutcome::Inserted);
            }
            if slot.key == key {
                let old = std::mem::replace(&mut self.slots[pos].value, value);
                return Ok(InsertOutcome::Replaced(old));
            }
            let d_res = self.displacement_at(pos);
            if d_res < dist {
                // Richer resident: by cluster ordering the key cannot be
                // present beyond this point. Take the slot, carry the
                // resident onward.
                break;
            }
            pos = (pos + 1) & self.mask;
            dist += 1;
        }
        // Phase 2: displacement chain — no more duplicate checks needed
        // (carried entries are already unique table residents).
        let mut carried = Pair { key, value };
        let mut carried_dist = dist;
        loop {
            let slot = self.slots[pos];
            if slot.is_empty() {
                self.slots[pos] = carried;
                self.len += 1;
                self.dmax = self.dmax.max(carried_dist);
                return Ok(InsertOutcome::Inserted);
            }
            let d_res = self.displacement_at(pos);
            if d_res < carried_dist {
                self.dmax = self.dmax.max(carried_dist);
                self.slots[pos] = std::mem::replace(&mut carried, slot);
                carried_dist = d_res;
            }
            pos = (pos + 1) & self.mask;
            carried_dist += 1;
        }
    }

    /// [`HashTable::lookup`] with a precomputed `home` slot, dispatching
    /// on the configured [`RhLookupMode`].
    #[inline]
    fn lookup_from(&self, home: usize, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        match self.lookup_mode {
            RhLookupMode::CacheLine => {
                self.lookup_slot_from(home, key).map(|pos| self.slots[pos].value)
            }
            RhLookupMode::DmaxBound => self.lookup_dmax_from(home, key),
            RhLookupMode::CheckedEveryProbe => self.lookup_checked_from(home, key),
        }
    }

    /// [`HashTable::delete`] with a precomputed `home` slot. Always
    /// locates the victim with the exact tuned probe, whatever the lookup
    /// mode — the rejected abort criteria are lookup ablations, not
    /// deletion semantics.
    fn delete_from(&mut self, home: usize, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        let pos = self.lookup_slot_from(home, key)?;
        let value = self.slots[pos].value;
        // Backward shift ("partial cluster rehash"): pull successors one
        // slot back until the cluster ends or an entry already sits at its
        // home slot.
        let mut hole = pos;
        loop {
            let next = (hole + 1) & self.mask;
            let slot = self.slots[next];
            if !slot.is_occupied() || self.displacement_at(next) == 0 {
                self.slots[hole] = Pair::empty();
                break;
            }
            self.slots[hole] = slot;
            hole = next;
        }
        self.len -= 1;
        Some(value)
    }
}

impl<H: HashFn64> HashTable for RobinHood<H> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        self.insert_from(self.home(key), key, value)
    }

    #[inline]
    fn lookup(&self, key: u64) -> Option<u64> {
        self.lookup_from(self.home(key), key)
    }

    fn lookup_probed(&self, key: u64) -> (Option<u64>, usize) {
        if is_reserved_key(key) {
            return (None, 1);
        }
        // Displacement-ordered walk (the CheckedEveryProbe criterion — the
        // exact abort, independent of the tuned lookup mode), counting
        // slots examined.
        let mut pos = self.home(key);
        let mut dist = 0usize;
        let mut steps = 1usize;
        loop {
            let slot = &self.slots[pos];
            if slot.key == key {
                return (Some(slot.value), steps);
            }
            if !slot.is_occupied() || self.displacement_at(pos) < dist {
                return (None, steps);
            }
            pos = (pos + 1) & self.mask;
            dist += 1;
            steps += 1;
        }
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        self.delete_from(self.home(key), key)
    }

    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        two_pass(self, keys, out, Self::prepare, |t, k, home| t.lookup_from(home, k));
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
        self.slots.len() * std::mem::size_of::<Pair>()
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        for p in self.slots.iter().filter(|p| p.is_occupied()) {
            f(p.key, p.value);
        }
    }

    fn display_name(&self) -> String {
        format!("RH{}", H::name())
    }
}

/// Robin Hood never reallocates (backward-shift deletes, no rehash), so
/// the slot array trivially satisfies the in-bounds rule. The optimistic
/// probe is the plain linear scan to the first empty slot — the
/// [`Linear`] lookup kernel shared with linear probing — correct because
/// RH places every key within the contiguous run from its home slot
/// (displacement ordering and the early-abort modes are pure
/// optimizations, unsafe to trust while a racing writer may leave
/// displacements transiently non-monotone, so they are not used here).
impl<H: HashFn64> crate::optimistic::ReadView for RobinHood<H> {
    fn supports_optimistic(&self) -> bool {
        true
    }

    unsafe fn lookup_batch_optimistic(&self, keys: &[u64], out: &mut [Option<u64>]) -> bool {
        let raw = self.slots.as_ptr();
        two_pass(self, keys, out, Self::prepare, |t, k, home| {
            if is_reserved_key(k) {
                return None;
            }
            // SAFETY: `raw` addresses the `mask + 1` slots of an array that
            // is never reallocated and that the caller keeps alive;
            // `home <= mask`. The kernel is capacity-bounded and
            // dereferences nothing it loaded.
            unsafe { lookup_kernel::<Aos, Linear, Volatile>(raw, t.mask, home, k).0 }
        });
        true
    }
}

impl<H: HashFn64> RobinHood<H> {
    /// Lookup body for [`RhLookupMode::DmaxBound`]: stop an unsuccessful
    /// probe after [`RobinHood::dmax`] iterations.
    fn lookup_dmax_from(&self, home: usize, key: u64) -> Option<u64> {
        let mut pos = home;
        let mut dist = 0usize;
        loop {
            let slot = &self.slots[pos];
            if slot.key == key {
                return Some(slot.value);
            }
            if slot.is_empty() || dist >= self.dmax {
                // No entry is displaced further than dmax, so the key
                // cannot be ahead.
                return None;
            }
            pos = (pos + 1) & self.mask;
            dist += 1;
        }
    }

    /// Lookup body for [`RhLookupMode::CheckedEveryProbe`]: compare the
    /// probe iteration against the resident's displacement on every step.
    fn lookup_checked_from(&self, home: usize, key: u64) -> Option<u64> {
        let mut pos = home;
        let mut dist = 0usize;
        loop {
            let slot = &self.slots[pos];
            if slot.key == key {
                return Some(slot.value);
            }
            if slot.is_empty() || self.displacement_at(pos) < dist {
                return None;
            }
            pos = (pos + 1) & self.mask;
            dist += 1;
        }
    }

    /// Core probe with the paper's tuned early abort: full scan like LP,
    /// but once per cache line compare the resident's displacement against
    /// the probe iteration and stop early when the resident is "richer".
    #[inline]
    fn lookup_slot_from(&self, home: usize, key: u64) -> Option<usize> {
        let mut pos = home;
        let mut dist = 0usize;
        loop {
            let slot = &self.slots[pos];
            if slot.key == key {
                return Some(pos);
            }
            if slot.is_empty() {
                return None;
            }
            // Early abort at cache-line ends only (amortized hash
            // recomputation, §2.4) — and only once the probe has scanned a
            // full line: shorter probes terminate imminently anyway, and
            // skipping the check keeps the successful-lookup penalty in
            // the paper's 1–5% band.
            if dist >= ENTRIES_PER_CACHE_LINE
                && pos % ENTRIES_PER_CACHE_LINE == ENTRIES_PER_CACHE_LINE - 1
                && self.displacement_at(pos) < dist
            {
                return None;
            }
            pos = (pos + 1) & self.mask;
            dist += 1;
        }
    }
}

#[cfg(test)]
impl<H: HashFn64> RobinHood<H> {
    /// Test shorthand for [`RhLookupMode::DmaxBound`] without mutating the
    /// table's configured mode.
    fn lookup_dmax(&self, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        self.lookup_dmax_from(self.home(key), key)
    }

    /// Test shorthand for [`RhLookupMode::CheckedEveryProbe`].
    fn lookup_checked(&self, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        self.lookup_checked_from(self.home(key), key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_common::*;
    use hashfn::{MultShift, Murmur};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn table(bits: u8) -> RobinHood<Murmur> {
        RobinHood::with_seed(bits, 42)
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        check_roundtrip(&mut table(8));
    }

    #[test]
    fn map_semantics_replace() {
        check_replace_semantics(&mut table(8));
    }

    #[test]
    fn reserved_keys_rejected() {
        check_reserved_keys(&mut table(4));
    }

    #[test]
    fn displacement_ordering_after_inserts() {
        let mut t = table(8);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            t.insert(rng.gen_range(1..1_000_000), 0).unwrap();
        }
        t.check_invariant().unwrap();
    }

    #[test]
    fn invariant_holds_under_churn() {
        let mut t = table(8);
        let mut rng = StdRng::seed_from_u64(2);
        let mut live: Vec<u64> = Vec::new();
        for step in 0..3000 {
            if (rng.gen_bool(0.6) && t.len() < 220) || live.is_empty() {
                let k = rng.gen_range(1..100_000u64);
                t.insert(k, step).unwrap();
                live.push(k);
            } else {
                let idx = rng.gen_range(0..live.len());
                let k = live.swap_remove(idx);
                t.delete(k);
            }
            if step % 100 == 0 {
                t.check_invariant().unwrap();
            }
        }
        t.check_invariant().unwrap();
    }

    #[test]
    fn robin_hood_swaps_favor_poor_entries() {
        // With multiplier 1: key k << 60 gives home = k (top-4 bits) in a
        // 16-slot table. Build: A at home 0, B at home 0 (displaced to 1),
        // then C with home 1. LP would put C at 2 (displacement 2 with B at
        // its home... actually d(C)=1). In RH, C probes slot 1: d(B at 1)=1
        // vs d(C)=0 → B stays (richer check: 1 < 0 false... B is poorer),
        // C continues to slot 2.
        let mut t: RobinHood<MultShift> = RobinHood::with_hash(4, MultShift::new(1));
        let a = 0x0000_0000_0000_0001u64; // home 0
        let b = 0x0000_0000_0000_0002u64; // home 0
        let c = 0x1000_0000_0000_0001u64; // home 1
        t.insert(a, 1).unwrap(); // slot 0, d=0
        t.insert(b, 2).unwrap(); // slot 1, d=1
        t.insert(c, 3).unwrap();
        // c (d would be 0 at slot 1) must NOT displace b (d=1): b is
        // poorer. c lands at slot 2 with d=1.
        assert_eq!(t.raw_slots()[1].key, b);
        assert_eq!(t.raw_slots()[2].key, c);
        t.check_invariant().unwrap();

        // Now a key with home 0 inserted late: D probes 0 (d(a)=0 vs 0 →
        // equal, continue), 1 (d(b)=1 vs 1 → equal, continue), 2 (d(c)=1 <
        // 2 → c is richer, D takes slot 2, c displaced to 3).
        let d = 0x0000_0000_0000_0003u64; // home 0
        t.insert(d, 4).unwrap();
        assert_eq!(t.raw_slots()[2].key, d);
        assert_eq!(t.raw_slots()[3].key, c);
        t.check_invariant().unwrap();
        for (k, v) in [(a, 1), (b, 2), (c, 3), (d, 4)] {
            assert_eq!(t.lookup(k), Some(v));
        }
    }

    #[test]
    fn unsuccessful_lookup_early_abort_is_safe() {
        // Dense cluster at high load: every miss must return None, never a
        // wrong hit, and (via model test below) never abort a real key.
        let mut t = table(8);
        for k in 1..=230u64 {
            t.insert(k, k).unwrap(); // 90% load factor
        }
        for probe in 1000..2000u64 {
            assert_eq!(t.lookup(probe), None);
        }
        for k in 1..=230u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn backward_shift_delete_leaves_no_tombstones() {
        let mut t = table(6);
        for k in 1..=40u64 {
            t.insert(k, k).unwrap();
        }
        for k in (1..=40u64).step_by(2) {
            assert_eq!(t.delete(k), Some(k));
        }
        // No tombstone state exists in RH at all; invariant must hold and
        // all remaining keys must be found.
        t.check_invariant().unwrap();
        for k in (2..=40u64).step_by(2) {
            assert_eq!(t.lookup(k), Some(k));
        }
        assert_eq!(t.len(), 20);
    }

    #[test]
    fn delete_shifts_wrapped_cluster() {
        let mut t: RobinHood<MultShift> = RobinHood::with_hash(4, MultShift::new(1));
        let base = 0xF000_0000_0000_0000u64; // home 15
        t.insert(base, 1).unwrap(); // slot 15
        t.insert(base + 1, 2).unwrap(); // wraps to 0
        t.insert(base + 2, 3).unwrap(); // slot 1
        assert_eq!(t.delete(base), Some(1));
        // Cluster shifted back across the wrap point.
        assert_eq!(t.raw_slots()[15].key, base + 1);
        assert_eq!(t.raw_slots()[0].key, base + 2);
        assert!(t.raw_slots()[1].is_empty());
        assert_eq!(t.lookup(base + 1), Some(2));
        assert_eq!(t.lookup(base + 2), Some(3));
        t.check_invariant().unwrap();
    }

    #[test]
    fn fills_to_capacity_minus_one() {
        let mut t = table(4);
        let mut inserted = 0u64;
        for k in 1..=16u64 {
            match t.insert(k, k) {
                Ok(InsertOutcome::Inserted) => inserted += 1,
                Err(TableError::TableFull) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(inserted, 15);
        // Updates still possible at the cap.
        assert_eq!(t.insert(1, 99), Ok(InsertOutcome::Replaced(1)));
        assert_eq!(t.insert(999, 1), Err(TableError::TableFull));
    }

    #[test]
    fn for_each_visits_all_live_entries() {
        check_for_each(&mut table(8));
    }

    #[test]
    fn model_test_against_std_hashmap() {
        check_against_model(&mut table(10), 5000, 0xF00D);
    }

    #[test]
    fn model_test_with_weak_hash_function() {
        let mut t: RobinHood<MultShift> = RobinHood::with_hash(8, MultShift::new(1));
        check_against_model(&mut t, 4000, 0x1234);
    }

    #[test]
    fn batch_ops_match_single_key_path() {
        check_batch_matches_single(&mut table(9), &mut table(9), 0x12BA);
    }

    #[test]
    fn lookup_mode_dispatch_agrees_on_hits_and_misses() {
        let mut tuned = table(8);
        for k in 1..=200u64 {
            tuned.insert(k, k + 9).unwrap();
        }
        let mut dmax = tuned.clone();
        dmax.set_lookup_mode(RhLookupMode::DmaxBound);
        let mut checked = tuned.clone();
        checked.set_lookup_mode(RhLookupMode::CheckedEveryProbe);
        assert_eq!(dmax.lookup_mode(), RhLookupMode::DmaxBound);
        for probe in 1..=400u64 {
            let expect = tuned.lookup(probe);
            assert_eq!(dmax.lookup(probe), expect, "dmax mode, key {probe}");
            assert_eq!(checked.lookup(probe), expect, "checked mode, key {probe}");
        }
    }

    #[test]
    fn dmax_bounds_all_displacements() {
        let mut t = table(8);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..220 {
            t.insert(rng.gen_range(1..1_000_000), 0).unwrap();
        }
        let stats = t.displacement_stats();
        assert!(t.dmax() >= stats.max, "dmax {} < observed max {}", t.dmax(), stats.max);
        // And it stays an upper bound through deletions (monotone).
        let keys: Vec<u64> = {
            let mut v = Vec::new();
            t.for_each(&mut |k, _| v.push(k));
            v
        };
        for k in keys.iter().step_by(2) {
            t.delete(*k);
        }
        assert!(t.dmax() >= t.displacement_stats().max);
    }

    #[test]
    fn rejected_lookup_variants_agree_with_tuned_lookup() {
        let mut t = table(8);
        let mut rng = StdRng::seed_from_u64(4);
        let mut live = Vec::new();
        for step in 0..1200 {
            if (rng.gen_bool(0.7) && t.len() < 220) || live.is_empty() {
                let k = rng.gen_range(1..10_000u64);
                // Track only first-time inserts: a replaced key is already
                // in `live`, and double entries would desynchronize the
                // delete bookkeeping below.
                if t.insert(k, k + 5).unwrap() == InsertOutcome::Inserted {
                    live.push(k);
                }
            } else {
                let idx = rng.gen_range(0..live.len());
                t.delete(live.swap_remove(idx));
            }
            // All three lookup flavours must agree on hits and misses.
            let probe = rng.gen_range(1..10_000u64);
            let expect = t.lookup(probe);
            assert_eq!(t.lookup_dmax(probe), expect, "step {step} dmax");
            assert_eq!(t.lookup_checked(probe), expect, "step {step} checked");
        }
        for &k in &live {
            assert_eq!(t.lookup_dmax(k), Some(k + 5));
            assert_eq!(t.lookup_checked(k), Some(k + 5));
        }
    }

    #[test]
    fn optimistic_scan_is_capacity_bounded_on_a_saturated_table() {
        use crate::optimistic::ReadView;
        use crate::{EMPTY_KEY, TOMBSTONE_KEY};
        // Zero empty slots — a state only a racing writer can produce.
        for bits in [1u8, 6] {
            let mut t: RobinHood<MultShift> = RobinHood::with_seed(bits, 3);
            for (i, slot) in t.slots.iter_mut().enumerate() {
                *slot = Pair { key: 1000 + i as u64, value: 0 };
            }
            let keys = [1, EMPTY_KEY, 7, TOMBSTONE_KEY, 999];
            let mut out = [Some(0); 5];
            // SAFETY: no writer exists; the table outlives the call.
            assert!(unsafe { t.lookup_batch_optimistic(&keys, &mut out) });
            assert_eq!(out, [None; 5], "bits {bits}");
        }
    }

    #[test]
    fn dmax_often_far_above_mean_at_high_load() {
        // The paper's footnote: "for high load factor α, dmax can often be
        // an order of magnitude higher than the average displacement" —
        // the reason the dmax abort disappoints.
        let mut t: RobinHood<Murmur> = RobinHood::with_seed(12, 9);
        for k in 1..=(4096u64 * 9 / 10) {
            t.insert(k, k).unwrap();
        }
        let stats = t.displacement_stats();
        assert!(t.dmax() as f64 >= 3.0 * stats.mean, "dmax {} vs mean {}", t.dmax(), stats.mean);
    }
}
