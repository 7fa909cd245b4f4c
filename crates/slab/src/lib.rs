//! Bulk entry allocation for chained hash tables (paper §2.1).
//!
//! The paper found entry allocation to be *the* key factor for chained
//! hashing insert performance: one `malloc` per insert cost up to an order
//! of magnitude versus bulk allocation. This crate provides the slab
//! strategy the paper settled on — entries live consecutively in large
//! chunks, freed entries go on an intrusive free list for reuse — plus a
//! deliberately naive [`BoxedAllocator`] used by the benchmark harness as
//! the "one allocation per insert" baseline for the ablation experiment.
//!
//! Entries are addressed by [`EntryRef`] (a 64-bit index) rather than raw
//! pointers. An index is the same width as the pointer the C++ original
//! stored (8 bytes), dereferences with the same single indirection, and
//! keeps the implementation in safe Rust; footprint arithmetic against the
//! paper is unchanged.

#![deny(unsafe_code)]

use std::num::NonZeroU64;

/// Reference to a slab entry: a 1-based index packed in a `NonZeroU64`, so
/// `Option<EntryRef>` is exactly 8 bytes — the size of the C++ pointer it
/// stands in for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EntryRef(NonZeroU64);

impl EntryRef {
    #[inline(always)]
    fn from_index(idx: usize) -> Self {
        // +1: index 0 becomes the non-zero value 1.
        Self(NonZeroU64::new(idx as u64 + 1).expect("index + 1 is non-zero"))
    }

    #[inline(always)]
    fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

/// A chained-hash-table entry: key, value, and optional next link.
///
/// 24 bytes, matching the paper's entry footprint (key 8 B + value 8 B +
/// pointer 8 B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    pub key: u64,
    pub value: u64,
    pub next: Option<EntryRef>,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 24);

/// Allocation strategy for chain entries.
///
/// Implemented by [`SlabAllocator`] (the paper's tuned strategy) and
/// [`BoxedAllocator`] (the naive per-entry baseline).
pub trait EntryAllocator {
    /// Allocate an entry, returning its reference.
    fn alloc(&mut self, entry: Entry) -> EntryRef;
    /// Return an entry to the allocator for reuse.
    fn free(&mut self, r: EntryRef);
    /// Read an entry.
    fn get(&self, r: EntryRef) -> &Entry;
    /// Mutate an entry.
    fn get_mut(&mut self, r: EntryRef) -> &mut Entry;
    /// Number of live (allocated, not freed) entries.
    fn live(&self) -> usize;
    /// Bytes owned by the allocator (capacity-based, including free-list
    /// slack and per-allocation metadata where applicable).
    fn memory_bytes(&self) -> usize;
}

/// Slab allocator: entries are stored consecutively in power-of-two-sized
/// chunks; freed entries form an intrusive free list threaded through the
/// `next` field.
///
/// Chunked storage (rather than one `Vec`) keeps *stable* entry addresses —
/// no reallocation ever moves a live entry — mirroring the C++ original
/// where pointers into the slab must stay valid, and avoiding latency
/// spikes from huge `memcpy`s during growth.
pub struct SlabAllocator {
    chunks: Vec<Box<[Entry]>>,
    /// Slots used in the last chunk.
    bump: usize,
    free_head: Option<EntryRef>,
    live: usize,
    free_len: usize,
    chunk_len: usize,
    /// `log2(chunk_len)`: an index splits into chunk and offset by a shift
    /// and a mask, never a division.
    chunk_shift: u32,
}

impl SlabAllocator {
    /// Default entries per chunk (64 Ki entries = 1.5 MiB).
    pub const DEFAULT_CHUNK_LEN: usize = 1 << 16;

    /// Create an empty slab with the default chunk size.
    pub fn new() -> Self {
        Self::with_chunk_len(Self::DEFAULT_CHUNK_LEN)
    }

    /// Create an empty slab with `chunk_len` entries per chunk
    /// (rounded up to a power of two, minimum 8).
    pub fn with_chunk_len(chunk_len: usize) -> Self {
        let chunk_len = chunk_len.max(8).next_power_of_two();
        Self {
            chunks: Vec::new(),
            bump: 0,
            free_head: None,
            live: 0,
            free_len: 0,
            chunk_len,
            chunk_shift: chunk_len.trailing_zeros(),
        }
    }

    /// Pre-allocate room for `n` entries up front ("bulk-allocate many (or
    /// up to all) entries in one large array" — paper §2.1). Useful when
    /// the final table size is known, as in the WORM workload.
    pub fn with_capacity(n: usize) -> Self {
        if n == 0 {
            return Self::new();
        }
        let chunk_len = n.next_power_of_two().max(8);
        let mut slab = Self::with_chunk_len(chunk_len);
        slab.grow();
        slab
    }

    fn grow(&mut self) {
        let filler = Entry { key: 0, value: 0, next: None };
        self.chunks.push(vec![filler; self.chunk_len].into_boxed_slice());
        self.bump = 0;
    }

    #[inline(always)]
    fn split(&self, idx: usize) -> (usize, usize) {
        (idx >> self.chunk_shift, idx & (self.chunk_len - 1))
    }

    /// Entries currently on the free list.
    pub fn free_list_len(&self) -> usize {
        self.free_len
    }
}

impl Default for SlabAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl EntryAllocator for SlabAllocator {
    #[inline]
    fn alloc(&mut self, entry: Entry) -> EntryRef {
        self.live += 1;
        if let Some(r) = self.free_head {
            self.free_head = self.get(r).next;
            self.free_len -= 1;
            *self.get_mut(r) = entry;
            return r;
        }
        if self.chunks.is_empty() || self.bump == self.chunk_len {
            self.grow();
        }
        let idx = (self.chunks.len() - 1) * self.chunk_len + self.bump;
        self.bump += 1;
        let r = EntryRef::from_index(idx);
        *self.get_mut(r) = entry;
        r
    }

    #[inline]
    fn free(&mut self, r: EntryRef) {
        debug_assert!(self.live > 0);
        self.live -= 1;
        let head = self.free_head;
        let e = self.get_mut(r);
        e.key = 0;
        e.value = 0;
        e.next = head;
        self.free_head = Some(r);
        self.free_len += 1;
    }

    #[inline(always)]
    fn get(&self, r: EntryRef) -> &Entry {
        let (c, i) = self.split(r.index());
        &self.chunks[c][i]
    }

    #[inline(always)]
    fn get_mut(&mut self, r: EntryRef) -> &mut Entry {
        let (c, i) = self.split(r.index());
        &mut self.chunks[c][i]
    }

    fn live(&self) -> usize {
        self.live
    }

    fn memory_bytes(&self) -> usize {
        self.chunks.len() * self.chunk_len * std::mem::size_of::<Entry>()
    }
}

/// Naive allocator: one `Box` per entry — the paper's "one malloc call per
/// insertion" baseline. Exists purely so the ablation benchmark can
/// reproduce the order-of-magnitude gap; do not use it for real workloads.
pub struct BoxedAllocator {
    entries: Vec<Option<Box<Entry>>>,
    free: Vec<usize>,
    live: usize,
}

/// Approximate per-allocation metadata overhead of a general-purpose
/// malloc (size class header/rounding), counted so the footprint
/// comparison in the ablation mirrors the paper's "less malloc metadata"
/// point.
const MALLOC_OVERHEAD: usize = 16;

impl BoxedAllocator {
    /// Create an empty allocator.
    pub fn new() -> Self {
        Self { entries: Vec::new(), free: Vec::new(), live: 0 }
    }
}

impl Default for BoxedAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl EntryAllocator for BoxedAllocator {
    fn alloc(&mut self, entry: Entry) -> EntryRef {
        self.live += 1;
        // A fresh heap allocation per insert, like `new` in the C++ naive
        // variant. The indirection table only translates EntryRef -> Box.
        let boxed = Some(Box::new(entry));
        let idx = if let Some(idx) = self.free.pop() {
            self.entries[idx] = boxed;
            idx
        } else {
            self.entries.push(boxed);
            self.entries.len() - 1
        };
        EntryRef::from_index(idx)
    }

    fn free(&mut self, r: EntryRef) {
        debug_assert!(self.live > 0);
        self.live -= 1;
        // Drop the Box => a real `free` call.
        self.entries[r.index()] = None;
        self.free.push(r.index());
    }

    fn get(&self, r: EntryRef) -> &Entry {
        self.entries[r.index()].as_deref().expect("use after free")
    }

    fn get_mut(&mut self, r: EntryRef) -> &mut Entry {
        self.entries[r.index()].as_deref_mut().expect("use after free")
    }

    fn live(&self) -> usize {
        self.live
    }

    fn memory_bytes(&self) -> usize {
        self.live * (std::mem::size_of::<Entry>() + MALLOC_OVERHEAD)
            + self.entries.capacity() * std::mem::size_of::<Option<Box<Entry>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(k: u64) -> Entry {
        Entry { key: k, value: k * 10, next: None }
    }

    #[test]
    fn option_entry_ref_is_pointer_sized() {
        assert_eq!(std::mem::size_of::<Option<EntryRef>>(), 8);
    }

    #[test]
    fn alloc_get_roundtrip() {
        let mut slab = SlabAllocator::new();
        let refs: Vec<EntryRef> = (0..100).map(|k| slab.alloc(entry(k))).collect();
        for (k, &r) in refs.iter().enumerate() {
            assert_eq!(slab.get(r).key, k as u64);
            assert_eq!(slab.get(r).value, k as u64 * 10);
        }
        assert_eq!(slab.live(), 100);
    }

    #[test]
    fn free_list_reuses_slots() {
        let mut slab = SlabAllocator::with_chunk_len(8);
        let a = slab.alloc(entry(1));
        let b = slab.alloc(entry(2));
        slab.free(a);
        slab.free(b);
        assert_eq!(slab.free_list_len(), 2);
        assert_eq!(slab.live(), 0);
        // LIFO reuse: most recently freed first.
        let c = slab.alloc(entry(3));
        assert_eq!(c, b);
        let d = slab.alloc(entry(4));
        assert_eq!(d, a);
        assert_eq!(slab.free_list_len(), 0);
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn grows_across_chunks_with_stable_refs() {
        // 10 rounds up to 16: the shift-and-mask split relies on it.
        for chunk_len in [8, 10] {
            let mut slab = SlabAllocator::with_chunk_len(chunk_len);
            let refs: Vec<EntryRef> = (0..1000).map(|k| slab.alloc(entry(k))).collect();
            // All refs remain valid after many chunk growths.
            for (k, &r) in refs.iter().enumerate() {
                assert_eq!(slab.get(r).key, k as u64);
            }
            assert!(slab.memory_bytes() >= 1000 * 24);
        }
    }

    #[test]
    fn with_capacity_preallocates_one_chunk() {
        let slab = SlabAllocator::with_capacity(1000);
        assert_eq!(slab.memory_bytes(), 1024 * 24);
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn mutation_via_get_mut() {
        let mut slab = SlabAllocator::new();
        let r = slab.alloc(entry(7));
        slab.get_mut(r).value = 99;
        assert_eq!(slab.get(r).value, 99);
    }

    #[test]
    fn next_links_survive_allocation() {
        let mut slab = SlabAllocator::with_chunk_len(8);
        let a = slab.alloc(entry(1));
        let b = slab.alloc(Entry { key: 2, value: 20, next: Some(a) });
        // Allocate enough to force new chunks.
        for k in 3..200 {
            slab.alloc(entry(k));
        }
        assert_eq!(slab.get(b).next, Some(a));
        assert_eq!(slab.get(slab.get(b).next.unwrap()).key, 1);
    }

    #[test]
    fn boxed_allocator_roundtrip() {
        let mut a = BoxedAllocator::new();
        let r1 = a.alloc(entry(5));
        let r2 = a.alloc(entry(6));
        assert_eq!(a.get(r1).key, 5);
        assert_eq!(a.get(r2).key, 6);
        a.free(r1);
        assert_eq!(a.live(), 1);
        let r3 = a.alloc(entry(7));
        assert_eq!(a.get(r3).key, 7);
        assert_eq!(a.live(), 2);
    }

    #[test]
    fn boxed_allocator_counts_malloc_overhead() {
        let mut a = BoxedAllocator::new();
        for k in 0..10 {
            a.alloc(entry(k));
        }
        assert!(a.memory_bytes() >= 10 * (24 + 16));
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn boxed_use_after_free_panics() {
        let mut a = BoxedAllocator::new();
        let r = a.alloc(entry(1));
        a.free(r);
        let _ = a.get(r);
    }
}
