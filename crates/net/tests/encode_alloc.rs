//! The server's reply codec allocates nothing of its own: a response is
//! encoded in place at the end of the output buffer, so once that buffer
//! has room, answering a frame is allocation-free.
//!
//! This binary installs a counting global allocator, so it holds exactly
//! one test: the count is per thread, but a lone test keeps the harness
//! quiet around it as well.

use sevendim_core::{InsertOutcome, TableError};
use sevendim_net::protocol::{decode_response, encode_response, Response, HEADER_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while thread-locals are torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a `const`-initialised thread-local
// `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn encoding_plain_responses_into_a_reserved_buffer_allocates_nothing() {
    const FRAMES: usize = 10_000;
    let shapes = [
        Response::Get(Some(7)),
        Response::Get(None),
        Response::Put(Ok(InsertOutcome::Inserted)),
        Response::Put(Ok(InsertOutcome::Replaced(8))),
        Response::Put(Err(TableError::TableFull)),
        Response::Del(Some(9)),
        Response::Del(None),
    ];
    // The longest plain answer is a status byte and a value.
    let mut out = Vec::with_capacity(FRAMES * (HEADER_LEN + 9));
    let before = allocations();
    for i in 0..FRAMES {
        encode_response(i as u64, &shapes[i % shapes.len()], &mut out);
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "{FRAMES} encoded responses allocated {allocated} times");

    let mut rest = &out[..];
    for i in 0..FRAMES {
        let (id, resp, used) = decode_response(rest).expect("valid").expect("complete");
        assert_eq!((id, &resp), (i as u64, &shapes[i % shapes.len()]));
        rest = &rest[used..];
    }
    assert!(rest.is_empty());
}
