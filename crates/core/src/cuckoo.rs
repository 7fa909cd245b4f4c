//! Cuckoo hashing on `K` sub-tables (paper §2.5).
//!
//! Each of the `K` sub-tables has its own independently sampled hash
//! function; an entry lives in exactly one of its `K` candidate slots.
//! Inserting probes the candidate in sub-table 0 first; if occupied, the
//! resident is kicked out and re-inserted into the *next* sub-table,
//! continuing round-robin ("in iteration i, table j = i mod K is probed")
//! until an empty slot is found or a fixed iteration limit is reached. On
//! limit, the whole table is rehashed with freshly sampled functions: the
//! chain is unwound, and a fresh table of the same size with the new
//! functions takes every entry and is swapped in only if it takes them
//! all. A slot array's functions therefore never change while it holds
//! entries, and a cycle that fails leaves the table as it was.
//!
//! Lookups touch at most `K` slots — constant time independent of load
//! factor, which is why CuckooH4 wins the paper's very-high-load lookup
//! cells — but inserts reorganize aggressively and are the slowest of the
//! open-addressing schemes. The classic capacity thresholds motivate the
//! default `K = 4`: two tables sustain just under 50% load, three ≈ 88%,
//! four ≈ 97% (Fotakis et al.), and the paper needs load factors up to
//! 90%. The `K = 2, 3` variants back the threshold ablation.

use crate::open_addressing::two_pass;
use crate::simd::prefetch_read;
use crate::{check_capacity_bits, is_reserved_key, HashTable, InsertOutcome, Pair, TableError};
use hashfn::HashFamily;
use rand::{rngs::StdRng, SeedableRng};

/// Default bound on kick-chain length before declaring a cycle and
/// rehashing (the paper's "fixed amount of iterations").
pub const DEFAULT_MAX_KICKS: usize = 500;

/// Default number of fresh tables (each with newly drawn hash functions)
/// a cycle tries before an insert gives up with
/// [`TableError::CuckooFailure`].
pub const DEFAULT_MAX_REHASH_ATTEMPTS: usize = 8;

/// Cuckoo hashing over `K` sub-tables stored contiguously.
///
/// `CuckooH4Mult` in the paper is `Cuckoo<MultShift, 4>`; aliases
/// [`CuckooH2`], [`CuckooH3`], [`CuckooH4`] are provided.
pub struct Cuckoo<H: HashFamily, const K: usize> {
    slots: Box<[Pair]>,
    sub_size: usize,
    hashes: [H; K],
    len: usize,
    max_kicks: usize,
    max_rehash_attempts: usize,
    rehash_count: usize,
    rng: StdRng,
    /// Scratch trace of kick-chain positions, so a failed chain can be
    /// unwound to restore the exact pre-insert placement.
    kick_trace: Vec<usize>,
}

/// A key's candidate slot per sub-table, as the batch driver carries it
/// from the prefetch pass to the probe pass (`[usize; K]` has no `Default`
/// for a generic `K`).
#[derive(Clone, Copy)]
struct Candidates<const K: usize>([usize; K]);

impl<const K: usize> Default for Candidates<K> {
    fn default() -> Self {
        Self([0; K])
    }
}

/// Cuckoo hashing on two sub-tables (stable only below ~50% load).
pub type CuckooH2<H> = Cuckoo<H, 2>;
/// Cuckoo hashing on three sub-tables (stable up to ~88% load).
pub type CuckooH3<H> = Cuckoo<H, 3>;
/// Cuckoo hashing on four sub-tables (stable up to ~97% load) — the
/// variant the paper evaluates.
pub type CuckooH4<H> = Cuckoo<H, 4>;

impl<H: HashFamily, const K: usize> Cuckoo<H, K> {
    /// Create a table with roughly `2^bits` total slots, split into `K`
    /// equal sub-tables, hash functions drawn from `seed`.
    ///
    /// For power-of-two `K` the total is exactly `2^bits`; otherwise each
    /// sub-table gets `floor(2^bits / K)` slots (reported by
    /// [`HashTable::capacity`]).
    pub fn with_seed(bits: u8, seed: u64) -> Self {
        assert!(K >= 2, "cuckoo hashing needs at least two sub-tables");
        let requested = check_capacity_bits(bits);
        let sub_size = (requested / K).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let hashes = std::array::from_fn(|_| H::sample(&mut rng));
        Self {
            slots: vec![Pair::empty(); sub_size * K].into_boxed_slice(),
            sub_size,
            hashes,
            len: 0,
            max_kicks: DEFAULT_MAX_KICKS,
            max_rehash_attempts: DEFAULT_MAX_REHASH_ATTEMPTS,
            rehash_count: 0,
            rng,
            kick_trace: Vec::with_capacity(DEFAULT_MAX_KICKS),
        }
    }

    /// Override the kick-chain bound (mostly for tests and ablations).
    pub fn set_max_kicks(&mut self, kicks: usize) {
        self.max_kicks = kicks.max(1);
    }

    /// Override how many fresh tables a cycle tries.
    pub fn set_max_rehash_attempts(&mut self, attempts: usize) {
        self.max_rehash_attempts = attempts;
    }

    /// How many fresh tables cycles have tried (successful or not).
    pub fn rehash_count(&self) -> usize {
        self.rehash_count
    }

    /// Slot of `key` in sub-table `t`.
    ///
    /// The 64-bit hash is mapped to `[0, sub_size)` by the multiply-high
    /// ("fastrange") reduction, which consumes the *top* hash bits — for
    /// power-of-two sub-tables this is exactly the paper's
    /// shift-by-`(64-d)` and it extends seamlessly to the non-power-of-two
    /// sub-tables of `K = 3`.
    #[inline(always)]
    fn slot_of(&self, t: usize, key: u64) -> usize {
        let h = self.hashes[t].hash(key);
        let idx = ((h as u128 * self.sub_size as u128) >> 64) as usize;
        t * self.sub_size + idx
    }

    /// Pass 1 of the batch operations: `key`'s candidate slot in every
    /// sub-table, each prefetched.
    #[inline(always)]
    fn prefetch_candidates(&self, key: u64) -> Candidates<K> {
        Candidates(std::array::from_fn(|t| {
            let slot = self.slot_of(t, key);
            prefetch_read(&self.slots[slot] as *const Pair);
            slot
        }))
    }

    /// Direct slot access for statistics and tests.
    pub fn raw_slots(&self) -> &[Pair] {
        &self.slots
    }

    /// Run a kick chain trying to place `pair`, recording every swap in
    /// `kick_trace`. `None` on success; `Some(displaced)` if the iteration
    /// limit was hit, where `displaced` is whichever entry is currently
    /// without a slot (the table then holds all other entries, and
    /// [`Cuckoo::unwind_kicks`] can restore the pre-chain placement).
    fn try_place(&mut self, mut pair: Pair) -> Option<Pair> {
        self.kick_trace.clear();
        let mut t = 0usize;
        for _ in 0..self.max_kicks {
            let pos = self.slot_of(t, pair.key);
            if !self.slots[pos].is_occupied() {
                self.slots[pos] = pair;
                return None;
            }
            std::mem::swap(&mut pair, &mut self.slots[pos]);
            self.kick_trace.push(pos);
            t = (t + 1) % K;
        }
        Some(pair)
    }

    /// Undo a failed kick chain: replay the recorded swaps in reverse,
    /// leaving the slot array exactly as before `try_place` and returning
    /// the original pair that was being inserted.
    fn unwind_kicks(&mut self, mut displaced: Pair) -> Pair {
        let mut trace = std::mem::take(&mut self.kick_trace);
        for &pos in trace.iter().rev() {
            std::mem::swap(&mut displaced, &mut self.slots[pos]);
        }
        trace.clear();
        self.kick_trace = trace;
        displaced
    }

    /// The cycle of paper §2.5, after the failed chain is unwound: build a
    /// fresh table of the same size whose `K` functions are the next ones
    /// drawn from `rng`, walk every entry and then `pair` into it, and
    /// become it on success — slot array and functions together. A failed
    /// candidate is dropped and the next one drawn, at most
    /// `max_rehash_attempts` times; the untouched table is its own
    /// snapshot, so a slot array's functions never change while it holds
    /// entries. The candidate borrows `kick_trace`, so a cycle allocates
    /// one slot array and nothing else.
    fn rehash(&mut self, pair: Pair) -> Result<(), TableError> {
        for _ in 0..self.max_rehash_attempts {
            self.rehash_count += 1;
            let hashes = std::array::from_fn(|_| H::sample(&mut self.rng));
            let mut fresh = Self {
                slots: vec![Pair::empty(); self.slots.len()].into_boxed_slice(),
                hashes,
                len: self.len + 1,
                rng: self.rng.clone(),
                kick_trace: std::mem::take(&mut self.kick_trace),
                ..*self
            };
            let live = self.slots.iter().filter(|p| p.is_occupied());
            if live.chain([&pair]).all(|&e| fresh.try_place(e).is_none()) {
                *self = fresh;
                return Ok(());
            }
            self.kick_trace = fresh.kick_trace;
        }
        Err(TableError::CuckooFailure)
    }

    /// The write kernel: store `value` under a fresh `key`, or
    /// `combine(old, value)` over a present one. An insert is the upsert
    /// whose combine keeps the new value.
    fn upsert(
        &mut self,
        key: u64,
        value: u64,
        combine: &impl Fn(u64, u64) -> u64,
    ) -> Result<InsertOutcome, TableError> {
        if is_reserved_key(key) {
            return Err(TableError::ReservedKey);
        }
        // Map semantics: check all K candidate slots for the key first.
        for t in 0..K {
            let pos = self.slot_of(t, key);
            let slot = &mut self.slots[pos];
            if slot.key == key {
                let old = slot.value;
                slot.value = combine(old, value);
                return Ok(InsertOutcome::Replaced(old));
            }
        }
        if self.len == self.slots.len() {
            return Err(TableError::TableFull);
        }
        match self.try_place(Pair { key, value }) {
            None => {
                self.len += 1;
                Ok(InsertOutcome::Inserted)
            }
            Some(displaced) => {
                // Cycle detected. Restore the pre-insert placement exactly
                // (by unwinding the recorded kicks), then move to a fresh
                // table; if none takes every entry, the table is untouched
                // and the insert fails cleanly.
                let pair = self.unwind_kicks(displaced);
                debug_assert_eq!(pair.key, key, "unwinding must return the new pair");
                self.rehash(pair).map(|()| InsertOutcome::Inserted)
            }
        }
    }
}

/// A cycle swaps in a whole new slot array (and its functions), which a
/// lock-free reader could still be probing, and kick chains relocate
/// unrelated entries mid-probe. A bare cuckoo therefore keeps the
/// conservative [`ReadView`](crate::optimistic::ReadView) defaults: every
/// shared read goes through the lock. (The paper's cuckoo workloads are
/// insert-heavy, where optimistic reads buy nothing.)
impl<H: HashFamily, const K: usize> crate::optimistic::ReadView for Cuckoo<H, K> {}

impl<H: HashFamily, const K: usize> HashTable for Cuckoo<H, K> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        self.upsert(key, value, &|_, v| v)
    }

    #[inline]
    fn lookup(&self, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        // At most K probes, one per sub-table — the scheme's defining
        // property.
        for t in 0..K {
            let slot = &self.slots[self.slot_of(t, key)];
            if slot.key == key {
                return Some(slot.value);
            }
        }
        None
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        // No tombstones needed: a key has exactly K possible homes.
        for t in 0..K {
            let pos = self.slot_of(t, key);
            if self.slots[pos].key == key {
                let value = self.slots[pos].value;
                self.slots[pos] = Pair::empty();
                self.len -= 1;
                return Some(value);
            }
        }
        None
    }

    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        // Cuckoo is where batching shines brightest: each key has K
        // *independent* candidate lines. The prepare stage hashes the key
        // and prefetches the primary bucket (sub-table 0) *and* every
        // alternate bucket, so the probe's second hop — the alternate
        // probes a primary miss must take — never stalls on a cold line.
        // (A primary-only prefetch would serialize exactly the misses that
        // dominate at high load, where most entries sit in sub-tables
        // 1..K after kick-outs.)
        two_pass(self, keys, out, Self::prefetch_candidates, |t, k, cand| {
            if is_reserved_key(k) {
                return None;
            }
            // Primary bucket first — inserts try sub-table 0 before
            // kicking, so it resolves the majority of hits — then the
            // (already prefetched) alternates.
            cand.0.iter().find_map(|&pos| {
                let slot = &t.slots[pos];
                (slot.key == k).then_some(slot.value)
            })
        });
    }

    fn upsert_batch(
        &mut self,
        items: &[(u64, u64)],
        combine: &dyn Fn(u64, u64) -> u64,
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        // Prefetch-only prepare: a cycle swaps in a fresh table with new
        // functions, so candidate slots prepared before an earlier item's
        // write cannot be trusted by the probe — but warming the K lines
        // each write touches still overlaps the misses of the common
        // no-kick case.
        two_pass(
            self,
            items,
            out,
            |t, (k, _)| t.prefetch_candidates(k),
            |t, (k, v), _| t.upsert(k, v, &combine),
        );
    }

    fn delete_batch(&mut self, keys: &[u64], out: &mut [Option<u64>]) {
        // Deletes never rehash; prefetch all K lines per key, then delete.
        two_pass(self, keys, out, Self::prefetch_candidates, |t, k, _| t.delete(k));
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Pair>()
    }

    fn walk(&self, from: usize, f: &mut dyn FnMut(usize, u64, u64) -> bool) {
        for (i, p) in self.slots.iter().enumerate().skip(from) {
            if p.is_occupied() && !f(i, p.key, p.value) {
                return;
            }
        }
    }

    fn display_name(&self) -> String {
        format!("CuckooH{}{}", K, H::name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_common::*;
    use hashfn::{MultShift, Murmur};

    fn table(bits: u8) -> CuckooH4<Murmur> {
        Cuckoo::with_seed(bits, 42)
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
    fn sub_table_partitioning() {
        let t = table(8); // 256 slots, 4 sub-tables of 64
        assert_eq!(t.capacity(), 256);
        assert_eq!(t.sub_size, 64);
        for tab in 0..4usize {
            for key in [0u64, 1, 99, u64::MAX / 7] {
                let pos = t.slot_of(tab, key);
                assert!(pos >= tab * 64 && pos < (tab + 1) * 64);
            }
        }
    }

    #[test]
    fn k3_capacity_is_floor_divided() {
        let t: CuckooH3<Murmur> = Cuckoo::with_seed(8, 1);
        // 256 / 3 = 85 per sub-table.
        assert_eq!(t.capacity(), 255);
        assert_eq!(t.sub_size, 85);
    }

    #[test]
    fn entries_always_at_one_of_k_candidates() {
        let mut t = table(10);
        for k in 1..=700u64 {
            t.insert(k, k * 3).unwrap();
        }
        let mut found = 0;
        for k in 1..=700u64 {
            let at_candidate = (0..4).any(|tab| {
                let p = t.slots[t.slot_of(tab, k)];
                p.key == k && p.value == k * 3
            });
            assert!(at_candidate, "key {k} not at any candidate slot");
            found += 1;
        }
        assert_eq!(found, 700);
    }

    #[test]
    fn cuckoo4_reaches_90_percent_load() {
        // The paper's reason for choosing K=4: it sustains ≥90% load.
        let mut t = table(10); // 1024 slots
        for k in 1..=922u64 {
            t.insert(k, k).unwrap_or_else(|e| panic!("failed at key {k}: {e}"));
        }
        assert!(t.load_factor() >= 0.90);
        for k in 1..=922u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn cuckoo2_fails_well_before_90_percent() {
        // Two tables become unstable around 50% load; filling to 90% must
        // produce a failure (possibly after internal rehash attempts).
        let mut t: CuckooH2<Murmur> = Cuckoo::with_seed(10, 7);
        t.set_max_rehash_attempts(3);
        let mut failed_at = None;
        for k in 1..=922u64 {
            if t.insert(k, k).is_err() {
                failed_at = Some(k);
                break;
            }
        }
        let failed_at = failed_at.expect("cuckoo-2 should fail before 90% load");
        assert!(
            (failed_at as f64) < 0.75 * 1024.0,
            "cuckoo-2 unexpectedly placed {failed_at} keys"
        );
        // Table is still fully usable after the failure.
        for k in 1..failed_at {
            assert_eq!(t.lookup(k), Some(k), "key {k} lost after failure");
        }
    }

    #[test]
    fn rehash_preserves_entries() {
        let mut t: CuckooH2<MultShift> = Cuckoo::with_seed(6, 3);
        t.set_max_kicks(8); // force cycles early
        let mut inserted = Vec::new();
        for k in 1..=28u64 {
            match t.insert(k, k * 7) {
                Ok(_) => inserted.push(k),
                Err(TableError::CuckooFailure) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        for &k in &inserted {
            assert_eq!(t.lookup(k), Some(k * 7), "key {k} lost");
        }
        assert_eq!(t.len(), inserted.len());
    }

    #[test]
    fn rehash_counter_increments() {
        let mut t: CuckooH2<Murmur> = Cuckoo::with_seed(4, 3);
        t.set_max_kicks(2);
        for k in 1..=12u64 {
            let _ = t.insert(k, k);
        }
        assert!(t.rehash_count() > 0, "tiny table with 2 kicks must rehash");
        // All reported-inserted keys still live (len consistent).
        let mut count = 0;
        t.for_each(&mut |_, _| count += 1);
        assert_eq!(count, t.len());
    }

    #[test]
    fn a_cuckoo_failure_leaves_the_slots_byte_identical() {
        // Every failed candidate is dropped: the refused insert leaves the
        // slot array, and so every entry's place, exactly as it found them.
        let mut t: CuckooH2<MultShift> = Cuckoo::with_seed(8, 11);
        t.set_max_rehash_attempts(2);
        for k in 1..=256u64 {
            let (before, len, rehashes) = (t.raw_slots().to_vec(), t.len(), t.rehash_count());
            match t.insert(k, k * 5) {
                Ok(_) => continue,
                Err(TableError::CuckooFailure) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
            assert_eq!(t.raw_slots(), &before[..], "key {k}: the refusal moved a slot");
            assert_eq!(t.len(), len);
            assert_eq!(t.rehash_count(), rehashes + 2, "both fresh tables were tried");
            assert_eq!(t.lookup(k), None);
            for j in 1..k {
                assert_eq!(t.lookup(j), Some(j * 5), "key {j} lost after the refusal of {k}");
            }
            return;
        }
        panic!("cuckoo-2 at 2 attempts never refused an insert up to full load");
    }

    #[test]
    fn fresh_table_swaps_keep_the_model() {
        // Eight kicks per chain: cycles at the model check's 70 % load, so
        // every model check runs across swapped-in tables, and no cycle
        // refuses.
        for seed in 0..8 {
            let mut t = Cuckoo::<Murmur, 4>::with_seed(8, seed);
            t.set_max_kicks(8);
            check_against_model(&mut t, 10_000, 0x5A9 ^ seed);
            assert!(t.rehash_count() > 0, "seed {seed}: no cycle to test");
        }
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut t = table(6);
        for k in 1..=40u64 {
            t.insert(k, k).unwrap();
        }
        for k in 1..=40u64 {
            assert_eq!(t.delete(k), Some(k));
        }
        assert!(t.is_empty());
        assert!(t.slots.iter().all(|p| !p.is_occupied()));
        for k in 100..=140u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.len(), 41); // keys 100..=140
    }

    #[test]
    fn lookup_probes_at_most_k_tables() {
        // Structural property: lookup only inspects slot_of(t, key); we
        // verify via a miss on a full table returning quickly (no scan).
        let mut t = table(8);
        for k in 1..=200u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.lookup(9999), None);
    }

    #[test]
    fn for_each_visits_all_live_entries() {
        check_walk(&mut table(8));
    }

    #[test]
    fn model_test_against_std_hashmap() {
        check_against_model(&mut table(10), 5000, 0xCCC);
    }

    #[test]
    fn batch_ops_match_single_key_path() {
        check_batch_matches_single(&mut table(9), &mut table(9), 0xC0BA);
        let mut a: CuckooH3<MultShift> = Cuckoo::with_seed(9, 4);
        let mut b: CuckooH3<MultShift> = Cuckoo::with_seed(9, 4);
        check_batch_matches_single(&mut a, &mut b, 0xC3BA);
    }
}
