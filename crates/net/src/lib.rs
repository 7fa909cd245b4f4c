//! Networked KV front end for the sharded hash tables: a hand-rolled
//! epoll event loop serving a length-prefixed binary protocol.
//!
//! The paper's batched probe kernels (`lookup_batch` and friends) exist
//! because memory-level parallelism needs *groups* of keys; a network
//! front end is where such groups come from in a real system. This
//! crate closes that loop:
//!
//! * [`protocol`] — the `7DKV` wire format: checksummed 24-byte
//!   headers, `GET`/`PUT`/`DEL`/`BATCH` frames, streaming decode with
//!   typed errors.
//! * `sys` (Linux) — the crate's only unsafe code (every other module
//!   is compiled under `deny(unsafe_code)`): raw `epoll` + `pipe2` +
//!   `SO_REUSEPORT` socket FFI (the workspace builds offline, so no
//!   `libc` crate), plus the one shared `EINTR` retry policy.
//! * `conn`/`server` (Linux) — a **thread-per-core**, level-triggered
//!   event loop fleet over non-blocking sockets: one worker per core
//!   (knob: [`KvServer::builder`]`.threads(n)`), each with its own
//!   epoll instance, wake pipe, `SO_REUSEPORT` listener and
//!   connections, all serving one shared table. The kernel spreads new
//!   connections over the listeners by flow hash — statistically, so a
//!   handful of long-lived connections may share a worker.
//!   Pipelined frames that accumulate in a connection's read buffer
//!   are split into runs of the same opcode and executed through
//!   [`ConcurrentTable`](sevendim_core::ConcurrentTable)'s prefetching
//!   batch calls, so wire pipelining turns directly into table MLP —
//!   and GET runs ride the seqlock optimistic read path, which is what
//!   lets N workers scale reads without shard mutex contention.
//!   Mutations go through the table's `*_deferred` calls and a worker
//!   pays one `flush_shared` per turn of its loop — read and execute
//!   every ready connection, flush once, then write — so over a logged
//!   table several connections share one device wait, and over an
//!   in-memory one nothing changes.
//!   Per-connection output queues are bounded: past the high
//!   watermark the server stops reading that socket until the queue
//!   drains (backpressure lands on the slow peer, not on server
//!   memory).
//! * [`client`] — a blocking [`KvClient`] with both one-shot calls and
//!   explicit `enqueue`/`flush`/`recv` pipelining.
//!
//! ```no_run
//! use sevendim_net::{KvClient, KvServer};
//! use sevendim_core::{TableBuilder, TableScheme};
//! use std::sync::Arc;
//!
//! let table = TableBuilder::new(TableScheme::LinearProbing)
//!     .bits(16)
//!     .shards(3)
//!     .optimistic_reads(true)
//!     .build_sharded();
//! // One worker event loop per core by default; pin the count with
//! // the builder (correctness is identical at any worker count).
//! let server = KvServer::builder().threads(2).spawn("127.0.0.1:0", Arc::new(table))?;
//! let mut client = KvClient::connect(server.addr())?;
//! client.put(7, 42)?;
//! assert_eq!(client.get(7)?, Some(42));
//! let stats = server.shutdown()?;
//! assert!(stats.frames >= 2);
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod client;
#[cfg(target_os = "linux")]
mod conn;
pub mod protocol;
#[cfg(target_os = "linux")]
mod server;
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys;

pub use client::KvClient;
#[cfg(target_os = "linux")]
pub use conn::{WBUF_HIGH, WBUF_LOW};
#[cfg(target_os = "linux")]
pub use server::{KvServer, KvServerBuilder, ServerHandle, ServerStats, DRAIN_TIMEOUT};
