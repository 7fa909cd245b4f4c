//! Chained hashing (paper §2.1): one table, [`Chained<H, D, A>`], in the
//! paper's two flavours.
//!
//! A key hashes to one directory slot; the slot's bucket is a singly
//! linked chain of 24-byte entries (key, value, link). The flavours differ
//! only in what a slot holds, the [`Directory`]:
//!
//! * [`Links`] — ChainedH8, [`ChainedTable8`]: the textbook layout. A slot
//!   is an 8-byte link and every entry lives in the entry allocator, so
//!   every operation chases at least one link and even collision-free
//!   slots cost an extra cache miss.
//! * [`Inline`] — ChainedH24, [`ChainedTable24`]: a 24-byte slot holds the
//!   bucket's first entry *inline*, buying open-addressing-like latency
//!   when collisions are rare at the price of a 3× wider directory.
//!
//! Every operation is one walk over a bucket: the inline entry, if the
//! directory has one, then the links. Inserts fill an empty inline slot,
//! else replace a match, else append at the tail ("entries are appended
//! to the list"); a delete of an inline entry promotes the first chained
//! one into the slot.
//!
//! The table is generic over the [`EntryAllocator`]; the default
//! [`SlabAllocator`] is the paper's tuned bulk strategy, and
//! [`slab_alloc::BoxedAllocator`] recreates the naive
//! one-`malloc`-per-insert baseline for the allocation ablation.
//!
//! Chained tables enforce an optional [`MemoryBudget`] (§4.5): an insert
//! that would push the paper's footprint — `SLOT_BYTES` per directory slot
//! plus 24 B per allocator-held entry — past the budget fails with
//! [`TableError::MemoryBudgetExceeded`].

use crate::budget::{chained_directory_bits, expected_occupied_slots, CHAIN_ENTRY_BYTES};
use crate::{is_reserved_key, HashTable, InsertOutcome, MemoryBudget, TableError, EMPTY_KEY};
use hashfn::{fold_to_bits, HashFamily, HashFn64};
use slab_alloc::{Entry, EntryAllocator, EntryRef, SlabAllocator};

/// Seals [`Directory`]: the chain walks rely on what its implementations
/// return, so both live in this module.
mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Links {}
    impl Sealed for super::Inline {}
}

/// What a directory slot of a [`Chained`] table holds.
pub trait Directory: sealed::Sealed {
    /// One directory slot.
    type Slot: Copy;

    /// A slot with an empty bucket.
    const EMPTY: Self::Slot;

    /// Bytes per slot, as the paper's footprint counts them.
    const SLOT_BYTES: usize = std::mem::size_of::<Self::Slot>();

    /// Prefix of the paper-style display name.
    const NAME: &'static str;

    /// The slot's inline entry cell, empty (key [`EMPTY_KEY`]) or not;
    /// `None` for [`Links`].
    fn head(slot: &Self::Slot) -> Option<&Entry>;

    /// Mutable access to that cell.
    fn head_mut(slot: &mut Self::Slot) -> Option<&mut Entry>;

    /// The link to the bucket's first allocator-held entry.
    fn first(slot: &Self::Slot) -> Option<EntryRef>;

    /// Mutable access to that link.
    fn first_mut(slot: &mut Self::Slot) -> &mut Option<EntryRef>;

    /// Expected allocator-held entries after hashing `n` keys uniformly
    /// into `dir_len` slots: what the §4.5 budget charges 24 B each.
    fn expected_chained(dir_len: usize, n: usize) -> f64;
}

/// ChainedH8: a slot is a link; every entry lives in the allocator.
pub struct Links;

/// ChainedH24: a slot holds the bucket's first entry inline.
pub struct Inline;

impl Directory for Links {
    type Slot = Option<EntryRef>;
    const EMPTY: Self::Slot = None;
    const NAME: &'static str = "ChainedH8";

    #[inline(always)]
    fn head(_: &Self::Slot) -> Option<&Entry> {
        None
    }

    #[inline(always)]
    fn head_mut(_: &mut Self::Slot) -> Option<&mut Entry> {
        None
    }

    #[inline(always)]
    fn first(slot: &Self::Slot) -> Option<EntryRef> {
        *slot
    }

    #[inline(always)]
    fn first_mut(slot: &mut Self::Slot) -> &mut Option<EntryRef> {
        slot
    }

    fn expected_chained(_dir_len: usize, n: usize) -> f64 {
        n as f64
    }
}

impl Directory for Inline {
    type Slot = Entry;
    const EMPTY: Entry = Entry { key: EMPTY_KEY, value: 0, next: None };
    const NAME: &'static str = "ChainedH24";

    #[inline(always)]
    fn head(slot: &Entry) -> Option<&Entry> {
        Some(slot)
    }

    #[inline(always)]
    fn head_mut(slot: &mut Entry) -> Option<&mut Entry> {
        Some(slot)
    }

    #[inline(always)]
    fn first(slot: &Entry) -> Option<EntryRef> {
        slot.next
    }

    #[inline(always)]
    fn first_mut(slot: &mut Entry) -> &mut Option<EntryRef> {
        &mut slot.next
    }

    /// Inline entries are part of the directory; only the overflow
    /// `n − E[occupied slots]` is chained.
    fn expected_chained(dir_len: usize, n: usize) -> f64 {
        (n as f64 - expected_occupied_slots(dir_len, n)).max(0.0)
    }
}

/// A chained hash table whose directory slots are `D`'s and whose chained
/// entries come from `A`.
pub struct Chained<H: HashFn64, D: Directory, A: EntryAllocator = SlabAllocator> {
    directory: Box<[D::Slot]>,
    dir_bits: u8,
    hash: H,
    alloc: A,
    len: usize,
    /// Entries held by the allocator: all of them behind [`Links`], the
    /// overflow (the paper's "collisions") behind [`Inline`].
    chained: usize,
    nominal_capacity: usize,
    budget: MemoryBudget,
}

/// ChainedH8: a directory of 8-byte links, every entry in the allocator.
pub type ChainedTable8<H, A = SlabAllocator> = Chained<H, Links, A>;

/// ChainedH24: 24-byte directory slots with the first entry inline.
pub type ChainedTable24<H, A = SlabAllocator> = Chained<H, Inline, A>;

impl<H: HashFamily, D: Directory> Chained<H, D, SlabAllocator> {
    /// Unbudgeted table with a `2^dir_bits`-slot directory and a slab
    /// allocator; hash function drawn from `seed`.
    pub fn with_seed(dir_bits: u8, seed: u64) -> Self {
        Self::new(
            dir_bits,
            H::from_seed(seed),
            SlabAllocator::new(),
            MemoryBudget::unlimited(),
            None,
        )
    }

    /// Budgeted table standing in for open addressing with `2^oa_bits`
    /// slots at a target fill of `n_target` entries (paper §4.5): budget is
    /// 110% of the open-addressing footprint, the directory is the largest
    /// power of two that fits, and the slab is pre-sized to the entries it
    /// is expected to hold. Fails if no directory size fits.
    pub fn with_budget(oa_bits: u8, n_target: usize, seed: u64) -> Result<Self, TableError> {
        let budget = MemoryBudget::open_addressing_equivalent(oa_bits);
        let dir_bits = chained_directory_bits::<D>(budget, n_target, oa_bits)
            .ok_or(TableError::MemoryBudgetExceeded)?;
        let chained = D::expected_chained(1 << dir_bits, n_target).ceil() as usize;
        Ok(Self::new(
            dir_bits,
            H::from_seed(seed),
            SlabAllocator::with_capacity(chained),
            budget,
            Some(1usize << oa_bits),
        ))
    }
}

impl<H: HashFn64, D: Directory, A: EntryAllocator> Chained<H, D, A> {
    /// Fully explicit constructor (hash function, allocator, budget,
    /// nominal open-addressing-equivalent capacity).
    pub fn new(
        dir_bits: u8,
        hash: H,
        alloc: A,
        budget: MemoryBudget,
        nominal_capacity: Option<usize>,
    ) -> Self {
        let dir_len = crate::check_capacity_bits(dir_bits);
        Self {
            directory: vec![D::EMPTY; dir_len].into_boxed_slice(),
            dir_bits,
            hash,
            alloc,
            len: 0,
            chained: 0,
            nominal_capacity: nominal_capacity.unwrap_or(dir_len),
            budget,
        }
    }

    /// The hash function in use.
    pub fn hash_fn(&self) -> &H {
        &self.hash
    }

    /// Entries held by the allocator rather than the directory (behind
    /// [`Inline`], the paper's collision count).
    pub fn chained_entries(&self) -> usize {
        self.chained
    }

    /// Actually allocated bytes (directory + allocator capacity).
    pub fn allocated_bytes(&self) -> usize {
        self.directory.len() * D::SLOT_BYTES + self.alloc.memory_bytes()
    }

    /// Entries in the bucket of directory slot `idx`, inline one included
    /// (stats/test aid).
    #[cfg(test)]
    pub fn chain_len(&self, idx: usize) -> usize {
        self.bucket_entries(&self.directory[idx]).count()
    }

    /// The paper's footprint with `chained` allocator-held entries.
    fn footprint(&self, chained: usize) -> usize {
        self.directory.len() * D::SLOT_BYTES + chained * CHAIN_ENTRY_BYTES
    }

    #[inline(always)]
    fn bucket(&self, key: u64) -> usize {
        fold_to_bits(self.hash.hash(key), self.dir_bits)
    }

    /// A bucket's entries in chain order: the inline one, then the links.
    #[inline(always)]
    fn bucket_entries<'a>(&'a self, slot: &'a D::Slot) -> impl Iterator<Item = &'a Entry> {
        let chain = std::iter::successors(D::first(slot).map(|r| self.alloc.get(r)), |e| {
            e.next.map(|r| self.alloc.get(r))
        });
        D::head(slot).filter(|h| h.key != EMPTY_KEY).into_iter().chain(chain)
    }
}

/// Chained tables allocate and free per-entry heap nodes, so a lock-free
/// reader could chase a link into freed memory — no optimistic support;
/// the conservative [`ReadView`](crate::optimistic::ReadView) defaults
/// route every shared read through the lock.
impl<H: HashFn64, D: Directory, A: EntryAllocator> crate::optimistic::ReadView
    for Chained<H, D, A>
{
}

impl<H: HashFn64, D: Directory, A: EntryAllocator> HashTable for Chained<H, D, A> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        if is_reserved_key(key) {
            return Err(TableError::ReservedKey);
        }
        let bucket = self.bucket(key);
        let slot = &mut self.directory[bucket];
        if let Some(head) = D::head_mut(slot) {
            if head.key == EMPTY_KEY {
                // Inline placement costs no extra memory.
                *head = Entry { key, value, next: None };
                self.len += 1;
                return Ok(InsertOutcome::Inserted);
            }
            if head.key == key {
                return Ok(InsertOutcome::Replaced(std::mem::replace(&mut head.value, value)));
            }
        }
        // Walk the chain: replace on match, remember the tail for append.
        let mut tail: Option<EntryRef> = None;
        let mut cur = D::first(slot);
        while let Some(r) = cur {
            if self.alloc.get(r).key == key {
                let e = self.alloc.get_mut(r);
                return Ok(InsertOutcome::Replaced(std::mem::replace(&mut e.value, value)));
            }
            tail = Some(r);
            cur = self.alloc.get(r).next;
        }
        if !self.budget.allows(self.footprint(self.chained + 1)) {
            return Err(TableError::MemoryBudgetExceeded);
        }
        let new_ref = Some(self.alloc.alloc(Entry { key, value, next: None }));
        match tail {
            // Append, as the paper describes; the duplicate walk already
            // brought us to the tail.
            Some(t) => self.alloc.get_mut(t).next = new_ref,
            None => *D::first_mut(&mut self.directory[bucket]) = new_ref,
        }
        self.len += 1;
        self.chained += 1;
        Ok(InsertOutcome::Inserted)
    }

    #[inline]
    fn lookup(&self, key: u64) -> Option<u64> {
        let slot = &self.directory[self.bucket(key)];
        if let Some(head) = D::head(slot) {
            // An empty inline cell holds EMPTY_KEY, which must not match.
            if is_reserved_key(key) {
                return None;
            }
            if head.key == key {
                return Some(head.value);
            }
        }
        let mut cur = D::first(slot);
        while let Some(r) = cur {
            let e = self.alloc.get(r);
            if e.key == key {
                return Some(e.value);
            }
            cur = e.next;
        }
        None
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        let bucket = self.bucket(key);
        let slot = &mut self.directory[bucket];
        if let Some(head) = D::head_mut(slot).filter(|h| h.key == key) {
            let value = head.value;
            // Promote the first chained entry into the directory.
            *head = match head.next {
                Some(r) => {
                    let promoted = *self.alloc.get(r);
                    self.alloc.free(r);
                    self.chained -= 1;
                    promoted
                }
                None => Inline::EMPTY,
            };
            self.len -= 1;
            return Some(value);
        }
        let mut prev: Option<EntryRef> = None;
        let mut cur = D::first(slot);
        while let Some(r) = cur {
            let e = *self.alloc.get(r);
            if e.key == key {
                match prev {
                    Some(p) => self.alloc.get_mut(p).next = e.next,
                    None => *D::first_mut(slot) = e.next,
                }
                self.alloc.free(r);
                self.len -= 1;
                self.chained -= 1;
                return Some(e.value);
            }
            prev = Some(r);
            cur = e.next;
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.nominal_capacity
    }

    fn memory_bytes(&self) -> usize {
        self.footprint(self.chained)
    }

    fn walk(&self, from: usize, f: &mut dyn FnMut(usize, u64, u64) -> bool) {
        for (i, slot) in self.directory.iter().enumerate().skip(from) {
            for e in self.bucket_entries(slot) {
                if !f(i, e.key, e.value) {
                    return;
                }
            }
        }
    }

    fn display_name(&self) -> String {
        format!("{}{}", D::NAME, H::name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_common::*;
    use hashfn::{MultShift, Murmur};
    use slab_alloc::BoxedAllocator;

    fn t8(bits: u8) -> ChainedTable8<Murmur> {
        ChainedTable8::with_seed(bits, 42)
    }

    fn t24(bits: u8) -> ChainedTable24<Murmur> {
        ChainedTable24::with_seed(bits, 42)
    }

    /// Unbudgeted `2^bits`-slot table over `alloc`.
    fn over<H: HashFn64, D: Directory, A: EntryAllocator>(
        bits: u8,
        h: H,
        a: A,
    ) -> Chained<H, D, A> {
        Chained::new(bits, h, a, MemoryBudget::unlimited(), None)
    }

    /// Multiplier 1: keys below 2^60 land in bucket 0 of any directory.
    fn one_bucket<D: Directory>() -> Chained<MultShift, D> {
        over(4, MultShift::new(1), SlabAllocator::new())
    }

    #[test]
    fn h8_roundtrip() {
        check_roundtrip(&mut t8(8));
    }

    #[test]
    fn h24_roundtrip() {
        check_roundtrip(&mut t24(8));
    }

    #[test]
    fn h8_replace_semantics() {
        check_replace_semantics(&mut t8(8));
    }

    #[test]
    fn h24_replace_semantics() {
        check_replace_semantics(&mut t24(8));
    }

    #[test]
    fn h8_reserved_keys() {
        check_reserved_keys(&mut t8(4));
    }

    #[test]
    fn h24_reserved_keys() {
        check_reserved_keys(&mut t24(4));
    }

    #[test]
    fn h8_for_each() {
        check_walk(&mut t8(8));
    }

    #[test]
    fn h24_for_each() {
        check_walk(&mut t24(8));
    }

    #[test]
    fn a_walk_resumes_as_overflow_entries_move_inline() {
        // Ten entries per bucket of a 4-slot inline directory: deleting a
        // bucket's inline entry promotes an overflow entry into it.
        let mut t = t24(2);
        for k in 1..=40u64 {
            t.insert(k, k * 3).unwrap();
        }
        check_walk_resumes(&mut t, 3);
    }

    #[test]
    fn h8_model_test() {
        check_against_model(&mut t8(6), 5000, 0xAA);
    }

    #[test]
    fn h24_model_test() {
        check_against_model(&mut t24(6), 5000, 0xBB);
    }

    #[test]
    fn h8_model_test_with_boxed_allocator() {
        let mut t: ChainedTable8<Murmur, BoxedAllocator> =
            over(6, Murmur::with_seed(1), BoxedAllocator::new());
        check_against_model(&mut t, 3000, 0xCD);
    }

    #[test]
    fn h24_model_test_with_boxed_allocator() {
        let mut t: ChainedTable24<Murmur, BoxedAllocator> =
            over(6, Murmur::with_seed(1), BoxedAllocator::new());
        check_against_model(&mut t, 3000, 0xCC);
    }

    #[test]
    fn chains_hold_many_entries_per_bucket() {
        // Load factor > 1 is legal for chained tables.
        fn check<D: Directory>(mut t: Chained<Murmur, D>) {
            for k in 1..=160u64 {
                t.insert(k, k).unwrap();
            }
            assert_eq!(t.len(), 160);
            assert!(t.load_factor() > 1.0);
            for k in 1..=160u64 {
                assert_eq!(t.lookup(k), Some(k));
            }
            let total: usize = (0..16).map(|b| t.chain_len(b)).sum();
            assert_eq!(total, 160);
        }
        check(t8(4)); // 16 buckets
        check(t24(4));
    }

    #[test]
    fn h24_inlines_first_entry() {
        let mut t: ChainedTable24<MultShift> = one_bucket();
        t.insert(1, 10).unwrap();
        assert_eq!(t.chained_entries(), 0, "first entry must be inline");
        t.insert(2, 20).unwrap();
        assert_eq!(t.chained_entries(), 1, "second entry must chain");
        assert_eq!(t.lookup(1), Some(10));
        assert_eq!(t.lookup(2), Some(20));
    }

    #[test]
    fn h24_delete_promotes_chained_entry() {
        let mut t: ChainedTable24<MultShift> = one_bucket();
        t.insert(1, 10).unwrap(); // inline
        t.insert(2, 20).unwrap(); // chained
        t.insert(3, 30).unwrap(); // chained
        assert_eq!(t.delete(1), Some(10));
        // Entry 2 promoted inline; 3 still chained behind it.
        assert_eq!(t.chained_entries(), 1);
        assert_eq!(t.lookup(2), Some(20));
        assert_eq!(t.lookup(3), Some(30));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn h8_append_preserves_insertion_order() {
        let mut t: ChainedTable8<MultShift> = one_bucket();
        for k in 1..=4u64 {
            t.insert(k, k).unwrap();
        }
        let mut order = Vec::new();
        t.for_each(&mut |k, _| order.push(k));
        assert_eq!(order, vec![1, 2, 3, 4], "appended order expected");
    }

    #[test]
    fn budget_enforced_at_insert_time() {
        // Budget for oa_bits = 8 (256 slots · 16 B · 1.1 = 4505 B);
        // H8 with dir 2^8: 2048 B directory ⇒ room for (4505-2048)/24 = 102
        // entries.
        let mut t: ChainedTable8<Murmur> = ChainedTable8::with_budget(8, 100, 1).unwrap();
        let mut placed = 0u64;
        let err = loop {
            match t.insert(placed + 1, 0) {
                Ok(_) => placed += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, TableError::MemoryBudgetExceeded);
        assert_eq!(placed, 102);
        // Deleting frees budget again.
        assert_eq!(t.delete(1), Some(0));
        assert!(t.insert(10_000, 0).is_ok());
    }

    #[test]
    fn budgeted_construction_fails_at_high_load() {
        // §4.5 / §5: at 90% of the open-addressing capacity, no chained
        // variant fits the 110% budget.
        let n = (1usize << 12) * 9 / 10;
        assert!(ChainedTable8::<Murmur>::with_budget(12, n, 1).is_err());
        assert!(ChainedTable24::<Murmur>::with_budget(12, n, 1).is_err());
    }

    #[test]
    fn footprint_accounting_matches_paper_formulas() {
        let mut t8 = t8(10);
        for k in 1..=100u64 {
            t8.insert(k, k).unwrap();
        }
        assert_eq!(t8.memory_bytes(), 1024 * 8 + 100 * 24);

        let mut t24 = t24(10);
        for k in 1..=100u64 {
            t24.insert(k, k).unwrap();
        }
        assert_eq!(t24.memory_bytes(), 1024 * 24 + t24.chained_entries() * 24);
    }

    #[test]
    fn nominal_capacity_reflects_oa_equivalent() {
        let t = ChainedTable8::<Murmur>::with_budget(10, 256, 1).unwrap();
        assert_eq!(t.capacity(), 1024);
        // Load factor is relative to the open-addressing equivalent.
        assert_eq!(t.load_factor(), 0.0);
    }
}
