//! Hash grouping and aggregation (paper §1, §4: "aggregate operations
//! like AVERAGE, SUM, MIN, MAX, and COUNT").
//!
//! A group-by over `(group_key, value)` tuples maintains one running
//! aggregate per group in a hash table: each tuple costs one upsert — find
//! its group or the slot for a new one, then fold — which is why the
//! paper's indexing workload "resembles very closely" aggregation, and why
//! the scheme/function choice transfers directly.

use sevendim_core::{
    walk_runs, BoxedTable, HashTable, InsertOutcome, TableBuilder, TableError, WALK_RUN,
};

/// The distributive aggregates the paper lists (AVERAGE is algebraic and
/// handled by [`group_average`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFn {
    /// Sum of values per group (wrapping on overflow).
    Sum,
    /// Minimum value per group.
    Min,
    /// Maximum value per group.
    Max,
    /// Tuples per group.
    Count,
}

impl AggFn {
    fn init(&self, value: u64) -> u64 {
        match self {
            AggFn::Sum | AggFn::Min | AggFn::Max => value,
            AggFn::Count => 1,
        }
    }

    /// Merge a partial aggregate into a running aggregate. All four
    /// functions are commutative semigroup folds, so
    /// `merge(fold(a), fold(b)) == fold(a ++ b)` — the algebraic fact
    /// both [`group_aggregate`] (each row is the one-row partial
    /// `init(value)`) and the parallel [`group_aggregate_parallel`]
    /// (per-thread partials) rest on. For COUNT the partial is itself a
    /// count, hence addition rather than increment.
    pub fn merge(&self, acc: u64, partial: u64) -> u64 {
        match self {
            AggFn::Sum | AggFn::Count => acc.wrapping_add(partial),
            AggFn::Min => acc.min(partial),
            AggFn::Max => acc.max(partial),
        }
    }
}

/// Rows per vectorized group-by chunk: the length of the stack arrays
/// that carry a chunk's upserts and their outcomes (2 KiB together), so
/// the operator keeps no scratch on the heap.
pub const AGG_BATCH: usize = 64;

/// Group `rows` by key and fold each group with `f`, using `table` as the
/// aggregation state. Returns `(group_key, aggregate)` pairs in
/// unspecified order.
///
/// Vectorized execution: rows are consumed in [`AGG_BATCH`]-sized chunks.
/// Each chunk becomes one [`HashTable::upsert_batch`] of `(key,
/// init(value))` folded with [`AggFn::merge`] — one probe per row that
/// finds the group or the slot for a new one — so the state-table cache
/// misses of a whole chunk overlap instead of serializing: the
/// access-pattern restructuring the paper argues query processing is
/// really about (§1, §4). The only allocation is the returned `Vec`.
pub fn group_aggregate<T: HashTable>(
    table: &mut T,
    rows: &[(u64, u64)],
    f: AggFn,
) -> Result<Vec<(u64, u64)>, TableError> {
    assert!(table.is_empty(), "group_aggregate expects a fresh state table");
    fold_rows(table, rows, f)?;
    let mut out = Vec::with_capacity(table.len());
    table.for_each(&mut |k, v| out.push((k, v)));
    Ok(out)
}

/// The vectorized fold of [`group_aggregate`]: one `upsert_batch` of `(key,
/// init(value))` per [`AGG_BATCH`]-row chunk, stopping at the first
/// refusal.
fn fold_rows<T: HashTable + ?Sized>(
    table: &mut T,
    rows: &[(u64, u64)],
    f: AggFn,
) -> Result<(), TableError> {
    let merge = |acc, partial| f.merge(acc, partial);
    let mut items = [(0u64, 0u64); AGG_BATCH];
    let mut outcomes = [Ok(InsertOutcome::Inserted); AGG_BATCH];
    for chunk in rows.chunks(AGG_BATCH) {
        let (items, outcomes) = (&mut items[..chunk.len()], &mut outcomes[..chunk.len()]);
        for (item, &(key, value)) in items.iter_mut().zip(chunk) {
            *item = (key, f.init(value));
        }
        table.upsert_batch(items, &merge, outcomes);
        if let Some(e) = outcomes.iter().find_map(|o| o.err()) {
            return Err(e);
        }
    }
    Ok(())
}

/// Parallel group-by: split `rows` into `threads` contiguous chunks, fold
/// each chunk into a thread-local state table the way [`group_aggregate`]
/// does (no sharing, no locks), then walk each thread's table into one
/// result table in [`walk_runs`] runs, one [`HashTable::upsert_batch`]
/// each, folding with [`AggFn::merge`]. No partial is copied out of its
/// table.
///
/// This is the standard two-phase parallel aggregation: it is exact for
/// every [`AggFn`] because all four are commutative semigroup folds —
/// `merge(fold(a), fold(b)) == fold(a ++ b)` — so how the rows are split
/// cannot change the result. `builder` describes the state tables, and
/// every thread builds its own at the **full** described capacity: the
/// chunks are contiguous row ranges, not key partitions, so any chunk
/// can contain every group — a shrunken local table would overflow on
/// inputs the sequential path handles. Memory is therefore up to
/// `threads ×` the sequential table (the classic space cost of
/// partial-aggregate parallelism); each local table is freed once it is
/// merged, and thread-local tables are unsharded — locking a private
/// table buys nothing. Output order is unspecified, like
/// [`group_aggregate`].
pub fn group_aggregate_parallel(
    builder: &TableBuilder,
    rows: &[(u64, u64)],
    f: AggFn,
    threads: usize,
) -> Result<Vec<(u64, u64)>, TableError> {
    let threads = threads.clamp(1, rows.len().max(1));
    if threads == 1 {
        let mut table = builder.try_build()?;
        return group_aggregate(&mut table, rows, f);
    }
    let local_builder = builder.clone().shards(0);
    let chunk_len = rows.len().div_ceil(threads);
    let locals: Vec<Result<BoxedTable, TableError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .chunks(chunk_len)
            .map(|chunk| {
                let local_builder = &local_builder;
                scope.spawn(move || {
                    let mut local = local_builder.try_build()?;
                    fold_rows(&mut local, chunk, f)?;
                    Ok(local)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("aggregate thread panicked")).collect()
    });
    let merge = |acc, partial| f.merge(acc, partial);
    let mut outcomes = [Ok(InsertOutcome::Inserted); WALK_RUN];
    let mut table = builder.try_build()?;
    for local in locals {
        walk_runs(&*local?, |run| {
            let outcomes = &mut outcomes[..run.len()];
            table.upsert_batch(run, &merge, outcomes);
            outcomes.iter().find_map(|o| o.err()).map_or(Ok(()), Err)
        })?;
    }
    let mut out = Vec::with_capacity(table.len());
    table.for_each(&mut |k, v| out.push((k, v)));
    Ok(out)
}

/// AVERAGE per group: algebraic over (SUM, COUNT), maintained in two state
/// tables of the same scheme. Returns `(group_key, average)` pairs.
pub fn group_average<T: HashTable>(
    sum_table: &mut T,
    count_table: &mut T,
    rows: &[(u64, u64)],
) -> Result<Vec<(u64, f64)>, TableError> {
    let sums = group_aggregate(sum_table, rows, AggFn::Sum)?;
    let _counts = group_aggregate(count_table, rows, AggFn::Count)?;
    Ok(sums
        .into_iter()
        .map(|(k, sum)| {
            let count = count_table.lookup(k).expect("count exists for every group");
            (k, sum as f64 / count as f64)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashfn::{MultShift, Murmur};
    use sevendim_core::{ChainedTable8, LinearProbing, QuadraticProbing};
    use std::collections::HashMap;

    fn sample_rows() -> Vec<(u64, u64)> {
        // 40 groups, values with collisions and repeats.
        (0..1000u64).map(|i| (i % 40 + 1, i * 3 % 97)).collect()
    }

    fn reference(rows: &[(u64, u64)], f: AggFn) -> HashMap<u64, u64> {
        let mut m: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in rows {
            m.entry(k)
                .and_modify(|acc| *acc = f.merge(*acc, f.init(v)))
                .or_insert_with(|| f.init(v));
        }
        m
    }

    #[test]
    fn all_aggregates_match_reference() {
        let rows = sample_rows();
        for f in [AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count] {
            let expect = reference(&rows, f);
            let mut t: LinearProbing<MultShift> = LinearProbing::with_seed(8, 1);
            let got: HashMap<u64, u64> =
                group_aggregate(&mut t, &rows, f).unwrap().into_iter().collect();
            assert_eq!(got, expect, "{f:?}");
        }
    }

    #[test]
    fn schemes_agree_on_results() {
        let rows = sample_rows();
        let expect = reference(&rows, AggFn::Sum);
        let mut qp: QuadraticProbing<Murmur> = QuadraticProbing::with_seed(8, 2);
        let got: HashMap<u64, u64> =
            group_aggregate(&mut qp, &rows, AggFn::Sum).unwrap().into_iter().collect();
        assert_eq!(got, expect);
        let mut ch: ChainedTable8<Murmur> = ChainedTable8::with_seed(6, 3);
        let got: HashMap<u64, u64> =
            group_aggregate(&mut ch, &rows, AggFn::Sum).unwrap().into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn average_is_sum_over_count() {
        let rows = vec![(1u64, 10u64), (1, 20), (2, 5), (1, 30), (2, 15)];
        let mut sums: LinearProbing<MultShift> = LinearProbing::with_seed(4, 1);
        let mut counts: LinearProbing<MultShift> = LinearProbing::with_seed(4, 2);
        let mut avgs = group_average(&mut sums, &mut counts, &rows).unwrap();
        avgs.sort_by_key(|&(k, _)| k);
        assert_eq!(avgs.len(), 2);
        assert_eq!(avgs[0].0, 1);
        assert!((avgs[0].1 - 20.0).abs() < 1e-9);
        assert_eq!(avgs[1].0, 2);
        assert!((avgs[1].1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let mut t: LinearProbing<MultShift> = LinearProbing::with_seed(4, 1);
        assert!(group_aggregate(&mut t, &[], AggFn::Sum).unwrap().is_empty());
    }

    #[test]
    fn parallel_aggregate_matches_reference_for_any_thread_count() {
        use sevendim_core::TableScheme;
        let rows = sample_rows();
        for f in [AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count] {
            let expect = reference(&rows, f);
            for scheme in [TableScheme::LinearProbing, TableScheme::RobinHood] {
                let builder = TableBuilder::new(scheme).bits(10).seed(2);
                for threads in [1, 2, 3, 4, 8] {
                    let got: HashMap<u64, u64> =
                        group_aggregate_parallel(&builder, &rows, f, threads)
                            .unwrap()
                            .into_iter()
                            .collect();
                    assert_eq!(got, expect, "{f:?} {scheme:?} x{threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_aggregate_succeeds_wherever_sequential_does() {
        // Regression: every contiguous chunk can contain *all* groups, so
        // per-thread tables must not be shrunk by the thread count — this
        // input fits the sequential table exactly and used to overflow
        // the parallel path's 1/P-sized locals with TableFull.
        use sevendim_core::TableScheme;
        let rows: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i % 500 + 1, 1)).collect();
        let builder = TableBuilder::new(TableScheme::LinearProbing).bits(10).seed(7);
        let expect = reference(&rows, AggFn::Count);
        let got: HashMap<u64, u64> = group_aggregate_parallel(&builder, &rows, AggFn::Count, 8)
            .expect("parallel must handle what sequential handles")
            .into_iter()
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn parallel_aggregate_accepts_sharded_builder_descriptions() {
        // A sharded description drops into the parallel operator: locals
        // are built unsharded (private tables need no locks) instead of
        // tripping the shard-bits/capacity-bits assertion.
        use sevendim_core::TableScheme;
        let rows = sample_rows();
        let builder = TableBuilder::new(TableScheme::RobinHood).bits(10).seed(3).shards(3);
        let expect = reference(&rows, AggFn::Sum);
        let got: HashMap<u64, u64> =
            group_aggregate_parallel(&builder, &rows, AggFn::Sum, 8).unwrap().into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn parallel_aggregate_handles_empty_and_tiny_inputs() {
        use sevendim_core::TableScheme;
        let builder = TableBuilder::new(TableScheme::LinearProbing).bits(8);
        assert!(group_aggregate_parallel(&builder, &[], AggFn::Sum, 8).unwrap().is_empty());
        let rows = vec![(1u64, 5u64), (1, 7)];
        let out = group_aggregate_parallel(&builder, &rows, AggFn::Sum, 8).unwrap();
        assert_eq!(out, vec![(1, 12)]);
    }

    #[test]
    fn sum_wraps_instead_of_panicking() {
        let rows = vec![(1u64, u64::MAX - 3), (1, 10)];
        let mut t: LinearProbing<MultShift> = LinearProbing::with_seed(4, 1);
        let out = group_aggregate(&mut t, &rows, AggFn::Sum).unwrap();
        assert_eq!(out, vec![(1, 6)]);
    }

    #[test]
    fn groups_straddling_chunk_boundaries_merge_correctly() {
        // Every group reappears in every AGG_BATCH-sized chunk, and the
        // number of distinct keys exceeds one chunk — so a chunk both
        // folds into groups earlier chunks made and makes new ones.
        let rows: Vec<(u64, u64)> = (0..4096u64).map(|i| (i % 150 + 1, i)).collect();
        for f in [AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count] {
            let expect = reference(&rows, f);
            let mut t: LinearProbing<Murmur> = LinearProbing::with_seed(9, 4);
            let got: HashMap<u64, u64> =
                group_aggregate(&mut t, &rows, f).unwrap().into_iter().collect();
            assert_eq!(got, expect, "{f:?}");
        }
    }

    #[test]
    fn all_distinct_keys_degenerate_to_plain_inserts() {
        let rows: Vec<(u64, u64)> = (1..=500u64).map(|k| (k, k * 2)).collect();
        let mut t: LinearProbing<Murmur> = LinearProbing::with_seed(10, 5);
        let out = group_aggregate(&mut t, &rows, AggFn::Count).unwrap();
        assert_eq!(out.len(), 500);
        assert!(out.iter().all(|&(_, c)| c == 1));
    }
}
