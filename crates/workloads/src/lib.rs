//! Workload generation and drivers for the seven-dimensional hashing study.
//!
//! Three ingredients, mirroring the paper's methodology (§4):
//!
//! * [`dist`] — the three key distributions: **dense** (`1..=n`),
//!   **sparse** (uniform random 64-bit), and **grid** (every byte in
//!   `1..=14`, the "IP address"-like distribution), plus disjoint miss-key
//!   generation for unsuccessful lookups. Keys are always shuffled before
//!   insertion (§4.3).
//! * [`worm`] — the write-once-read-many driver (§5): build a table to a
//!   target load factor, then probe it with a controlled fraction of
//!   unsuccessful lookups.
//! * [`rw`] — the read-write driver (§6): a long random operation stream
//!   with the paper's ratios (insert:delete 4:1 within updates,
//!   successful:unsuccessful 3:1 within lookups) over a growing table.

#![deny(unsafe_code)]

pub mod dist;
pub mod rw;
pub mod worm;

pub use dist::{grid_key, Distribution, KeySets};
pub use rw::{RwConfig, RwOp, RwStream};
pub use worm::{WormConfig, WormKeys};
