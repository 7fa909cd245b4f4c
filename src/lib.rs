//! # seven-dim-hashing
//!
//! A faithful, from-scratch Rust reproduction of
//! *"A Seven-Dimensional Analysis of Hashing Methods and its Implications
//! on Query Processing"* (Richter, Alvarez, Dittrich; PVLDB 9(3), 2015).
//!
//! The paper studies hash tables for 64-bit integer keys along seven
//! dimensions — data distribution, load factor, dataset size, read/write
//! ratio, un/successful lookup ratio, hashing scheme, and hash function —
//! plus memory layout (AoS/SoA) and SIMD probing. This workspace
//! implements every scheme and hash function in the study, the workload
//! generators, the measurement harness that regenerates each figure, and
//! the paper's decision graph as an executable API.
//!
//! ## Crate map
//!
//! | Module (re-export) | Crate | Contents |
//! |---|---|---|
//! | [`hash`] | `hashfn` | Multiply-shift, multiply-add-shift, tabulation, Murmur3 finalizer; quality statistics |
//! | [`tables`] | `sevendim-core` | ChainedH8/H24, LP (AoS + SoA, scalar + AVX2), QP, RH, CuckooH2/3/4, bucketized fingerprint (FP, SSE2 tag scans); growing wrapper; sharded concurrent wrapper; displacement/cluster stats; Figure 8 decision graph |
//! | [`workload`] | `workloads` | dense/sparse/grid distributions; WORM and RW runners |
//! | [`measure`] | `metrics` | throughput, multi-seed statistics, latency histograms, figure-shaped report tables |
//! | [`ops`] | `query` | hash join, group-by aggregation |
//! | [`net`] | `sevendim-net` | networked KV service: epoll event loop, `7DKV` binary protocol, pipelined client (Linux) |
//! | [`durable`] | `sevendim-durable` | durability: group-committed `7DWL` write-ahead log, non-stop snapshots, crash recovery |
//!
//! ## Quick start
//!
//! Construction goes through one [`TableBuilder`](prelude::TableBuilder)
//! (scheme × hash × capacity × seed × SIMD × growth), and every table
//! speaks the batch-first [`HashTable`](prelude::HashTable) trait:
//! `lookup_batch` / `insert_batch` / `delete_batch` are element-wise
//! identical to the single-key calls, but the open-addressing tables
//! overlap the cache misses of a whole batch via software prefetching.
//!
//! ```
//! use seven_dim_hashing::prelude::*;
//!
//! // A Robin Hood table with multiply-shift hashing: 2^10 slots.
//! let mut table = TableBuilder::new(TableScheme::RobinHood)
//!     .hash(HashKind::Mult)
//!     .bits(10)
//!     .seed(42)
//!     .build();
//! table.insert(17, 1700).unwrap();
//! assert_eq!(table.lookup(17), Some(1700));
//!
//! // Probes arrive in bulk in query processing — issue them in bulk:
//! let keys = [17u64, 18, 19];
//! let mut values = [None; 3];
//! table.lookup_batch(&keys, &mut values);
//! assert_eq!(values, [Some(1700), None, None]);
//!
//! // Ask the paper's decision graph what to use for a write-heavy index:
//! let profile = WorkloadProfile {
//!     load_factor: 0.7,
//!     successful_ratio: 0.9,
//!     write_ratio: 0.8,
//!     dense_keys: false,
//!     mutability: Mutability::Dynamic,
//! };
//! assert_eq!(recommend(&profile), TableScheme::Quadratic);
//! let index = TableBuilder::for_profile(&profile, 16, 42)
//!     .grow_at(0.7)       // double at 70% load …
//!     .incremental(8)     // … migrating ≤ 8 entries per op, no rehash pause
//!     .build();
//! assert_eq!(index.display_name(), "QPMult");
//!
//! // Scale the same description across threads: 2^2 independently locked
//! // shards, each its own growing table (no stop-the-world rehash), with
//! // batch routing by radix partition. `&self` batch ops via ConcurrentTable.
//! let sharded = TableBuilder::new(TableScheme::RobinHood)
//!     .bits(12)
//!     .shards(2)
//!     .grow_at(0.7)
//!     .build_sharded();
//! sharded.insert_shared(17, 1700).unwrap();
//! assert_eq!(sharded.lookup_shared(17), Some(1700));
//! assert_eq!(sharded.display_name(), "Sharded4xRHMult");
//! ```

pub use hashfn as hash;
pub use metrics as measure;
pub use query as ops;
pub use sevendim_core as tables;
pub use sevendim_durable as durable;
pub use sevendim_net as net;
pub use workloads as workload;

/// The names you need for day-to-day use: every table, every hash
/// function, the workload types, and the decision graph.
pub mod prelude {
    pub use hashfn::{
        HashFamily, HashFn64, MultAddShift, MultAddShift64, MultShift, Murmur, Tabulation,
    };
    pub use metrics::{LatencyHistogram, ReportTable, SeedStats, Series, Throughput};
    pub use query::{
        group_aggregate, group_aggregate_parallel, group_average, hash_join, hash_join_parallel,
        AggFn,
    };
    pub use sevendim_core::cuckoo::{CuckooH2, CuckooH3, CuckooH4};
    pub use sevendim_core::{
        decision::Mutability, recommend, AdaptiveConfig, BoxedTable, ChainedTable24, ChainedTable8,
        ConcurrentTable, Cuckoo, DynamicTable, FingerprintTable, FsyncPolicy, GrowthPolicy,
        HashKind, HashTable, InsertOutcome, LinearProbing, LinearProbingSoA, QuadraticProbing,
        ReadView, RobinHood, ShardedTable, TableBuilder, TableError, TableScheme, TableStats,
        WorkloadProfile,
    };
    pub use sevendim_durable::{DurableSharded, DurableTable, RecoveryReport, WalError};
    #[cfg(target_os = "linux")]
    pub use sevendim_net::{KvServer, KvServerBuilder, ServerHandle, ServerStats};
    // The client and full wire protocol are portable; the protocol
    // module stays namespaced (`seven_dim_hashing::net::protocol`) so
    // its `Op`/`Request` names don't shadow user types on glob import.
    pub use sevendim_net::KvClient;
    pub use workloads::{Distribution, RwConfig, RwStream, WormConfig, WormKeys};
}

/// README's Rust examples, compiled and run as doctests so they cannot
/// drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_links_all_crates() {
        let mut t: LinearProbing<Murmur> = LinearProbing::with_seed(8, 1);
        t.insert(1, 2).unwrap();
        assert_eq!(t.lookup(1), Some(2));
        let keys = Distribution::Dense.generate(10, 1);
        assert_eq!(keys.len(), 10);
        let tp = Throughput { ops: 1_000_000, nanos: 1_000_000_000 };
        assert!((tp.m_ops_per_sec() - 1.0).abs() < 1e-12);
    }
}
