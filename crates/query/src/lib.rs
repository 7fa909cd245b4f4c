//! Query-processing operators over the study's hash tables.
//!
//! The paper's motivation (§1) is that hash tables are the building block
//! of join processing, grouping, and point queries, and that picking the
//! right 〈scheme, hash function〉 should be a *white box* decision. This
//! crate implements the operators over any [`sevendim_core::HashTable`].
//! Point queries need no operator of their own: the table the paper's
//! Figure 8 decision graph picks for a workload is
//! [`TableBuilder::for_profile`](sevendim_core::TableBuilder::for_profile)`(..).build()`.
//!
//! * [`join`] — PK–FK equi-join (build + probe), the paper's "join
//!   processing" use case, sequential and radix-partitioned parallel.
//! * [`aggregate`] — hash grouping with SUM/MIN/MAX/COUNT/AVERAGE, the
//!   paper's "aggregates" use case, sequential and thread-partial
//!   parallel.

#![deny(unsafe_code)]

pub mod aggregate;
pub mod join;

pub use aggregate::{group_aggregate, group_aggregate_parallel, group_average, AggFn};
pub use join::{hash_join, hash_join_parallel, JoinOutput};
