//! Durability for the hashing grid: a group-committed write-ahead log,
//! non-stop snapshots, and crash recovery — ROADMAP item 3.
//!
//! The paper's tables are in-memory artifacts; a production KV system
//! must survive restart. This crate wraps any
//! [`ConcurrentTable`](sevendim_core::ConcurrentTable) in a
//! [`DurableTable`] that logs every mutation that takes effect to a
//! `7DWL` record stream ([`record`]) before acknowledging it,
//! snapshots the live table
//! without stopping the world ([`snapshot`] + the shard-at-a-time
//! `for_each_shared` iterator), and on reopen replays exactly the
//! acknowledged prefix — stopping at the first truncated or damaged
//! frame, never past it ([`replay_into`]).
//!
//! Everything is `std::fs` on top of the workspace's own checksum
//! discipline (salted [`fmix64`](hashfn::Murmur::fmix64) chains, as in
//! the `7DKV` wire protocol) — no external dependencies, matching the
//! offline workspace rule.
//!
//! # Knobs
//!
//! Configuration rides on [`TableBuilder`](sevendim_core::TableBuilder):
//! `.wal(dir)` turns durability on, `.fsync_policy(...)` picks the
//! [`FsyncPolicy`](sevendim_core::FsyncPolicy) durability/throughput
//! trade, `.snapshot_every(n)` bounds recovery replay. The whole
//! scheme × hash × shards × growth grid composes underneath.
//!
//! ```
//! use sevendim_core::{ConcurrentTable, TableBuilder, TableScheme};
//! use sevendim_durable::DurableTable;
//!
//! let dir = std::env::temp_dir().join(format!("sevendim-wal-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let builder = TableBuilder::new(TableScheme::LinearProbing).bits(12).shards(2).wal(&dir);
//!
//! let (table, _) = DurableTable::open(&builder).unwrap();
//! table.insert_shared(7, 700).unwrap();
//! table.delete_shared(7).unwrap();
//! table.insert_shared(8, 800).unwrap();
//! drop(table); // "crash"
//!
//! let (table, report) = DurableTable::open(&builder).unwrap();
//! assert_eq!(report.replayed_ops, 3);
//! assert_eq!(table.lookup_shared(7), None);
//! assert_eq!(table.lookup_shared(8), Some(800));
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod record;
pub mod snapshot;
pub mod storage;
pub mod table;

pub use record::{
    decode_record, encode_record, WalError, WalOp, WalRecord, MAX_RECORD_PAYLOAD,
    RECORD_HEADER_LEN, WAL_MAGIC, WAL_VERSION,
};
pub use storage::{FileWal, GatedWal, MemWal, MemWalState, WalFile, WalWriter};
pub use table::{
    replay_into, CommitStats, DurableSharded, DurableTable, RecoveryReport, SnapshotStats,
};
