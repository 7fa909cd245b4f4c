//! Ablation: slab vs per-entry allocation for chained hashing (§2.1).
//!
//! The paper reports that a naive allocator — "one malloc call per
//! insertion, and one free call per delete" — costs chained hashing up to
//! an order of magnitude versus slab (bulk) allocation, plus footprint
//! overhead from fragmentation and allocator metadata. This binary runs
//! both directory cells of the one chained table — `Links` (ChainedH8) and
//! `Inline` (ChainedH24) — over each allocator side by side, first for a
//! build-only phase, then for a delete/insert churn phase that stresses
//! the free-and-reallocate path, and prints the slowdowns.

use bench::parse_args;
use hashfn::{HashFamily, MultShift};
use metrics::{bytes_to_mb, Throughput};
use sevendim_core::chained::{Chained, Directory, Inline, Links};
use sevendim_core::{HashTable, MemoryBudget};
use slab_alloc::{BoxedAllocator, EntryAllocator, SlabAllocator};
use workloads::Distribution;

fn main() {
    let args = parse_args(std::env::args());
    let (_, medium, _) = args.scale.capacity_bits();
    let bits = args.log2_capacity.unwrap_or(medium);
    let n = ((1usize << bits) as f64 * 0.45) as usize;
    let sets = Distribution::Sparse.generate_with_misses(n, n, 42);
    println!(
        "Allocation ablation — ChainedH8/H24 with slab vs one-Box-per-entry, \
         {n} sparse inserts then {n} delete/insert churn pairs, directory 2^{}\n",
        bits - 1
    );
    println!(
        "{:<24} {:>13} {:>13} {:>10} {:>9} {:>9}",
        "table", "build M/s", "churn M/s", "alloc MB", "build x", "churn x"
    );

    // Slab allocators are pre-sized: "bulk-allocate many (or up to all)
    // entries in one large array" — that is the strategy under test.
    let (keys, fresh) = (&sets.inserts[..], &sets.misses[..]);
    let slab8 = run::<Links, _>(bits, SlabAllocator::with_capacity(n), keys, fresh);
    let boxed8 = run::<Links, _>(bits, BoxedAllocator::new(), keys, fresh);
    let slab24 = run::<Inline, _>(bits, SlabAllocator::with_capacity(n), keys, fresh);
    let boxed24 = run::<Inline, _>(bits, BoxedAllocator::new(), keys, fresh);

    report("ChainedH8Mult (slab)", &slab8, &slab8);
    report("ChainedH8Mult (boxed)", &boxed8, &slab8);
    report("ChainedH24Mult (slab)", &slab24, &slab24);
    report("ChainedH24Mult (boxed)", &boxed24, &slab24);

    println!(
        "\nExpected pattern (paper §2.1): slab beats per-entry allocation, \
         most visibly under churn (every delete is a free, every insert a \
         malloc); the paper saw up to 10x with its allocator. Slab also \
         avoids per-allocation metadata and fragmentation."
    );
}

struct Out {
    build: Throughput,
    churn: Throughput,
    bytes: usize,
}

/// Build `inserts` into a `2^(bits-1)`-slot table with directory `D` over
/// `alloc`, then churn: delete an old key, insert a fresh one — a
/// free+malloc pair per iteration in the naive allocator.
fn run<D: Directory, A: EntryAllocator>(bits: u8, alloc: A, inserts: &[u64], fresh: &[u64]) -> Out {
    let mut table: Chained<MultShift, D, A> =
        Chained::new(bits - 1, MultShift::from_seed(1), alloc, MemoryBudget::unlimited(), None);
    let build = Throughput::measure(inserts.len() as u64, || {
        for &k in inserts {
            table.insert(k, k).expect("unbudgeted insert");
        }
    });
    let churn = Throughput::measure(2 * inserts.len() as u64, || {
        for (&old, &new) in inserts.iter().zip(fresh) {
            table.delete(old);
            table.insert(new, new).expect("unbudgeted insert");
        }
    });
    Out { build, churn, bytes: table.allocated_bytes() }
}

fn report(label: &str, out: &Out, baseline: &Out) {
    println!(
        "{label:<24} {:>13.2} {:>13.2} {:>10.1} {:>8.2}x {:>8.2}x",
        out.build.m_ops_per_sec(),
        out.churn.m_ops_per_sec(),
        bytes_to_mb(out.bytes),
        baseline.build.m_ops_per_sec() / out.build.m_ops_per_sec(),
        baseline.churn.m_ops_per_sec() / out.churn.m_ops_per_sec(),
    );
}
