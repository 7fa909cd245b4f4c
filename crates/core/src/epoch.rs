//! Epoch-based reclamation of retired generations.
//!
//! A [`DynamicTable`](crate::DynamicTable) replaces whole generations:
//! every doubling and cross-scheme switch unpublishes a table and later
//! drops it. Lock-free readers
//! ([`ReadView::lookup_batch_optimistic`](crate::ReadView::lookup_batch_optimistic))
//! load a generation's address without any lock, so a generation may only
//! be freed once no reader can still hold that address. This module keeps
//! that promise with one global epoch and a static table of reader slots:
//!
//! * A reader **pins** before its optimistic attempts (`pin`): it claims
//!   a free slot by a CAS from 0 to the current epoch, first trying the
//!   slot it used last, otherwise scanning from slot 0. The returned
//!   `Guard` frees the slot on return or unwind. When all [`SLOTS`] are
//!   busy, `pin` returns `None` and the caller reads under its locks.
//! * A writer that unpublishes a generation **stamps** it (`stamp`): the
//!   epoch's old value, bumped by one. The generation may be freed as soon
//!   as no slot is pinned at or below its stamp (`oldest_pin`), which
//!   the writer checks at once and again on later mutating operations.
//!   Writers never wait, and readers never free, so a pinned reader that
//!   blocks on a lock held by a writer cannot deadlock with it.
//!
//! Nothing here allocates: the slots are a `static` array, and the only
//! per-thread state is a `const`-initialised `Cell` with no destructor,
//! so a thread's first pin registers nothing.
//!
//! # Why a freed generation is never probed
//!
//! The reader does: load the epoch `e` (`SeqCst`), CAS its slot from 0 to
//! `e` (`SeqCst`), raise the scan bound `HIGH` past its slot (`SeqCst`),
//! then load published generation pointers (`SeqCst`). The writer does:
//! unpublish the generation (a `Release` store of its replacement), bump
//! the epoch (`SeqCst` `fetch_add`, returning the stamp `s`), issue a
//! `SeqCst` fence, then load `HIGH` and every slot below it (`Acquire`).
//! Take a reader whose pointer load returned the unpublished address:
//!
//! 1. That load reads a value older than the unpublishing store, which
//!    happens before the writer's fence; a `SeqCst` load coherence-ordered
//!    before a store that happens before a `SeqCst` fence precedes that
//!    fence in the single total order `S`. The reader's CAS and `HIGH`
//!    access come earlier in the same thread, so they precede the fence
//!    in `S` as well.
//! 2. The writer's loads of `HIGH` and of the slot happen after the fence,
//!    so they cannot read values older than `SeqCst` writes that precede
//!    the fence in `S`: the writer sees `HIGH` past the slot and the slot
//!    holding `e`, or a later value. Those come only after the reader is
//!    done: the `Release` store that frees the slot, and any later claim,
//!    a read-modify-write that continues that store's release sequence. So
//!    the writer's `Acquire` load of either synchronises with the release,
//!    and the reader's probes happen before the free.
//! 3. If `e > s`, the reader's epoch load read the writer's bump or a
//!    later one in the epoch's chain of read-modify-writes, so the
//!    unpublishing store happens before that load and before the pointer
//!    load, which must then return the replacement, not the old address.
//!    So `e ≤ s`, and the writer keeps the generation.
//!
//! A writer that finds a pin at or below the stamp parks the generation
//! and checks again on the shard's next mutating operation, behind a
//! fresh fence, so the argument holds for every check.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// Readers that can be pinned at once. A reader that finds every slot
/// busy reads under the locks instead.
pub const SLOTS: usize = 256;

/// One reader slot: 0 when free, else the epoch its reader pinned at. A
/// cache line each, so readers on different cores never share one.
#[repr(align(64))]
struct Slot(AtomicU64);

/// The global epoch. It starts at 1, so no pin is ever 0.
static EPOCH: AtomicU64 = AtomicU64::new(1);

static PINS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];

/// One past the highest slot ever claimed: the range writers scan. Slots
/// are claimed lowest-free-first, so it stays at the peak number of
/// concurrent readers.
static HIGH: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The slot this thread claimed last, tried first by its next pin.
    static LAST: Cell<usize> = const { Cell::new(0) };
}

/// A claimed reader slot, released on drop (also on unwind).
pub(crate) struct Guard {
    slot: &'static Slot,
}

impl Drop for Guard {
    fn drop(&mut self) {
        // `Release`: every read this reader made happens before a writer's
        // `Acquire` load that sees the slot free.
        self.slot.0.store(0, Ordering::Release);
    }
}

/// Pin the current epoch: claim a free slot, trying the one this thread
/// used last and then every slot from 0. `None` when all [`SLOTS`] are
/// busy; the caller must then read under its locks.
pub(crate) fn pin() -> Option<Guard> {
    let epoch = EPOCH.load(Ordering::SeqCst);
    let last = LAST.get();
    let at = std::iter::once(last).chain((0..SLOTS).filter(|&i| i != last));
    for i in at {
        if let Some(guard) = claim(i, epoch) {
            LAST.set(i);
            return Some(guard);
        }
    }
    None
}

/// Claim slot `i` at `epoch` if it is free.
fn claim(i: usize, epoch: u64) -> Option<Guard> {
    let slot = &PINS[i];
    // A plain load first: a busy slot costs no exclusive cache line.
    if slot.0.load(Ordering::Relaxed) != 0 {
        return None;
    }
    slot.0.compare_exchange(0, epoch, Ordering::SeqCst, Ordering::Relaxed).ok()?;
    if HIGH.load(Ordering::SeqCst) <= i {
        HIGH.fetch_max(i + 1, Ordering::SeqCst);
    }
    Some(Guard { slot })
}

/// Stamp a generation its writer has just unpublished: bump the epoch
/// and return its old value. A reader pinned above the stamp pinned after
/// the unpublishing store and cannot reach the generation.
pub(crate) fn stamp() -> u64 {
    EPOCH.fetch_add(1, Ordering::SeqCst)
}

/// The lowest epoch any reader is pinned at (`u64::MAX` when none is): a
/// generation stamped below it may be freed. Starts with the `SeqCst`
/// fence the module's ordering argument needs.
pub(crate) fn oldest_pin() -> u64 {
    fence(Ordering::SeqCst);
    let high = HIGH.load(Ordering::SeqCst);
    PINS[..high]
        .iter()
        .map(|s| s.0.load(Ordering::Acquire))
        .filter(|&e| e != 0)
        .min()
        .unwrap_or(u64::MAX)
}
