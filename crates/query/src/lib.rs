//! Query-processing operators over the study's hash tables.
//!
//! The paper's motivation (§1) is that hash tables are the building block
//! of join processing, grouping, and point queries, and that picking the
//! right 〈scheme, hash function〉 should be a *white box* decision. This
//! crate closes the loop: classic single-threaded operators implemented
//! over any [`sevendim_core::HashTable`], plus a [`index::PointIndex`]
//! whose physical representation is chosen by the paper's Figure 8
//! decision graph.
//!
//! * [`join`] — PK–FK equi-join (build + probe), the paper's "join
//!   processing" use case, sequential and radix-partitioned parallel.
//! * [`aggregate`] — hash grouping with SUM/MIN/MAX/COUNT/AVERAGE, the
//!   paper's "aggregates" use case, sequential and thread-partial
//!   parallel.
//! * [`index`] — a point-query index dispatched through
//!   [`sevendim_core::decision::recommend`].

#![deny(unsafe_code)]

pub mod aggregate;
pub mod index;
pub mod join;

pub use aggregate::{group_aggregate, group_aggregate_parallel, group_average, AggFn};
pub use index::PointIndex;
pub use join::{hash_join, hash_join_parallel, JoinOutput};
