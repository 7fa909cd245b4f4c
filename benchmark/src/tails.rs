//! The two passes every workload closes with, on its own data: an
//! analytic pass (join its probe stream against its resident set,
//! aggregate the stream) and a persist-and-recover pass (log its writes,
//! replay the log). On `mem_worm` the first and on `kv_durable` the
//! second is the workload itself; elsewhere they are the same operation
//! at that workload's sizes, so every workload reports every metric.

use crate::common::{kernel_builder, mops, stack, Checker};
use crate::gen::value_of;
use crate::paced_wal::PacedWal;
use crate::stats::median;
use crate::trace::Tracer;
use query::{group_aggregate, hash_join, AggFn};
use sevendim_core::{
    BoxedTable, ConcurrentTable, FsyncPolicy, InsertOutcome, ShardedTable, TableScheme,
};
use sevendim_durable::{replay_into, DurableTable};
use std::time::Duration;

/// Inputs of the analytic pass, all made during set-up.
pub struct QueryInput {
    /// Build side: the resident set as `(key, version-0 value)`.
    pub r: Vec<(u64, u64)>,
    /// Probe side: `(key, position)`, resident keys matching.
    pub s: Vec<(u64, u64)>,
    /// How many of `s` have a partner in `r`.
    pub matches: usize,
    /// `s` regrouped as `(group key, position)`: the group is `key mod
    /// groups`, and its key is that number scrambled — group keys as
    /// sparse as every other key here, not the dense small integers
    /// multiply-shift hashing is known to be moody about.
    pub rows: Vec<(u64, u64)>,
    /// Distinct groups among `rows`.
    pub distinct_groups: usize,
}

impl QueryInput {
    /// `r` are resident tuples; `s_keys` the probe stream, aggregated
    /// into one group per `rows_per_group` rows. That ratio sets the
    /// size of the aggregation's state table, and a table about the size
    /// of the L2 makes the number a lottery: which of a repetition's
    /// fresh pages collide in the cache moved it by 30-40 % between
    /// repetitions. So a workload picks a ratio that puts its table
    /// clearly outside the L2 (the issue's 32 MiB table, scaled) or
    /// clearly inside.
    pub fn new(r: Vec<(u64, u64)>, s_keys: &[u64], rows_per_group: u64) -> Self {
        let groups = (s_keys.len() as u64 / rows_per_group).max(1);
        let s: Vec<(u64, u64)> = s_keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let matches = s_keys.iter().filter(|&&k| crate::gen::is_resident(k)).count();
        let mut seen = vec![false; groups as usize];
        let mut distinct_groups = 0;
        let rows: Vec<(u64, u64)> = s
            .iter()
            .map(|&(k, i)| {
                let group = k % groups;
                distinct_groups += !std::mem::replace(&mut seen[group as usize], true) as usize;
                (crate::gen::fmix64(group) >> 1, i)
            })
            .collect();
        Self { r, s, matches, rows, distinct_groups }
    }
}

/// Capacity bits of a table holding `entries` at a load of at most 0.625.
pub fn bits_for(entries: usize) -> u8 {
    let slots = (entries as f64 / 0.625).ceil() as usize;
    slots.max(16).next_power_of_two().trailing_zeros() as u8
}

/// Tuples a timed query should cover: a smaller query is run several
/// times and the median taken, or a few milliseconds of noise decide it.
const STEADY_TUPLES: usize = 4 << 20;

/// How often to run something of `size` so that it covers `steady`:
/// an odd count from 1 to 9.
pub fn times_for(size: usize, steady: usize) -> usize {
    (steady / size.max(1)).clamp(1, 9) | 1
}

/// `join_mops` and `agg_mops`: `query::hash_join` of R and S and
/// `query::group_aggregate` of S, each on a fresh linear-probing table,
/// each call timed from outside and its whole output checked.
pub fn query_pass(q: &QueryInput, seed: u64, tr: &mut Tracer, ck: &mut Checker) -> (f64, f64) {
    let (n_join, n_agg) = (tr.name("query.hash_join"), tr.name("query.group_aggregate"));
    let join_tuples = q.r.len() + q.s.len();
    let mut join_mops = Vec::new();
    for i in 0..times_for(join_tuples, STEADY_TUPLES) {
        let mut table: BoxedTable =
            kernel_builder(TableScheme::LinearProbing, bits_for(q.r.len()), seed).build();
        let span = tr.begin(n_join, None, i as u32);
        let joined = hash_join(&mut table, &q.r, &q.s);
        join_mops.push(mops(join_tuples, tr.end(span)));
        drop(table);
        match joined {
            Ok(out) => {
                ck.fact("join rows", out.rows.len() as u64, q.matches as u64);
                ck.fact("join misses", out.probe_misses as u64, (q.s.len() - q.matches) as u64);
                // Probe order is kept, so a row's probe payload says which
                // tuple of S it came from; its build payload is the value.
                for &(k, build, probe) in &out.rows {
                    let from_s = q.s.get(probe as usize).map(|t| t.0);
                    ck.op("join row", (Some(build), from_s), (Some(value_of(k, 0)), Some(k)));
                }
                ck.attempted += out.probe_misses as u64;
            }
            Err(e) => ck.error("hash_join", e),
        }
    }

    let groups = q.distinct_groups.max(1);
    let mut agg_mops = Vec::new();
    for i in 0..times_for(q.rows.len(), STEADY_TUPLES) {
        let mut table: BoxedTable =
            kernel_builder(TableScheme::LinearProbing, bits_for(groups), seed ^ 1).build();
        let span = tr.begin(n_agg, None, i as u32);
        let agg = group_aggregate(&mut table, &q.rows, AggFn::Sum);
        agg_mops.push(mops(q.rows.len(), tr.end(span)));
        match agg {
            Ok(out) => {
                ck.attempted += q.rows.len() as u64;
                ck.fact("aggregate groups", out.len() as u64, q.distinct_groups as u64);
                let sum = |it: &mut dyn Iterator<Item = u64>| it.fold(0u64, u64::wrapping_add);
                let got = sum(&mut out.iter().map(|&(_, v)| v));
                ck.fact("aggregate total", got, sum(&mut q.rows.iter().map(|&(_, v)| v)));
            }
            Err(e) => ck.error("group_aggregate", e),
        }
    }
    (median(&join_mops), median(&agg_mops))
}

impl crate::common::Flip for (Option<u64>, Option<u64>) {
    fn flipped(self) -> Self {
        (self.0.flipped(), self.1)
    }
}

/// Ops a timed replay should cover; a shorter log is replayed several
/// times, each into a fresh stack, and the median taken.
const STEADY_REPLAY_OPS: usize = 1 << 20;

/// `recover_mops`: replay `log` into a fresh stack of `bits`, timed, then
/// check the recovered table against `model` — every `(key, value it
/// must hold or None)` — and against the live count.
pub fn recover_and_check(
    log: &[u8],
    logged_ops: u64,
    bits: u8,
    seed: u64,
    model: &mut dyn Iterator<Item = (u64, Option<u64>)>,
    tr: &mut Tracer,
    ck: &mut Checker,
) -> f64 {
    let n_replay = tr.name("durable.replay_into");
    let mut replay_mops = Vec::new();
    let mut recovered = None;
    for i in 0..times_for(logged_ops as usize, STEADY_REPLAY_OPS) {
        let fresh: ShardedTable<BoxedTable> = stack(bits, seed);
        let span = tr.begin(n_replay, None, i as u32);
        let report = replay_into(log, &fresh, 0);
        replay_mops.push(mops(report.replayed_ops as usize, tr.end(span)));
        ck.fact("replayed ops", report.replayed_ops, logged_ops);
        ck.fact("log tail", (!report.clean() || report.truncated_tail_bytes > 0) as u64, 0);
        recovered = Some(fresh);
    }
    let recovered = recovered.expect("at least one replay");
    let mut live = 0;
    for (key, want) in model {
        live += want.is_some() as u64;
        ck.op("recovered", recovered.lookup_shared(key), want);
    }
    ck.fact("recovered entries", recovered.len_shared() as u64, live);
    median(&replay_mops)
}

/// `wal_bytes_per_op` and `recover_mops` where the workload itself has no
/// log: insert `items` through a `DurableTable` over the stack on a free
/// device in calls of `batch`, then replay that log.
pub fn durable_pass(
    items: &[(u64, u64)],
    batch: usize,
    bits: u8,
    seed: u64,
    tr: &mut Tracer,
    ck: &mut Checker,
) -> (f64, f64) {
    let n_insert = tr.name("durable.insert_batch");
    let wal = PacedWal::new(Duration::ZERO);
    let table =
        DurableTable::with_wal(stack(bits, seed), Box::new(wal.clone()), FsyncPolicy::Always);
    let mut out = vec![Ok(InsertOutcome::Inserted); batch];
    for (i, chunk) in items.chunks(batch).enumerate() {
        let span = tr.begin(n_insert, None, i as u32);
        table.insert_batch_shared(chunk, &mut out[..chunk.len()]);
        tr.end(span);
        ck.fresh_inserts(&out[..chunk.len()]);
    }
    drop(table);
    let bytes_per_op = wal.appended_bytes() as f64 / items.len() as f64;
    let mut model = items.iter().map(|&(k, v)| (k, Some(v)));
    let recover =
        recover_and_check(&wal.synced_prefix(), items.len() as u64, bits, seed, &mut model, tr, ck);
    (bytes_per_op, recover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{KeySpace, ProbeGen, SplitMix64};

    fn resident(space: &KeySpace, n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| space.resident(i)).map(|k| (k, value_of(k, 0))).collect()
    }

    #[test]
    fn small_work_is_repeated_an_odd_number_of_times() {
        assert_eq!(times_for(4 << 20, 4 << 20), 1);
        assert_eq!(times_for(5 << 20, 4 << 20), 1);
        assert_eq!(times_for(2 << 20, 4 << 20), 3);
        assert_eq!(times_for(1 << 20, 4 << 20), 5);
        assert_eq!(times_for(100, 4 << 20), 9);
        assert_eq!(times_for(0, 4 << 20), 9);
    }

    #[test]
    fn bits_hold_the_entries_below_the_load_limit() {
        assert_eq!(bits_for(2_500_000), 22);
        assert_eq!(bits_for(32_768), 16);
        assert_eq!(bits_for(1), 4);
        assert!(40_000.0 / ((1u64 << bits_for(40_000)) as f64) <= 0.625);
    }

    #[test]
    fn query_pass_checks_every_row_and_total() {
        let space = KeySpace::new(11);
        let mut s_keys = Vec::new();
        let hits = ProbeGen::new(SplitMix64::new(1), space, 50).fill(0..3000, &mut s_keys, 5000);
        let q = QueryInput::new(resident(&space, 3000), &s_keys, 4);
        assert_eq!(q.matches, hits);
        assert!(q.distinct_groups > 1000 && q.distinct_groups <= 1250);
        let (mut tr, mut ck) = (Tracer::new(false), Checker::new(None));
        let (join, agg) = query_pass(&q, 5, &mut tr, &mut ck);
        assert!(join > 0.0 && agg > 0.0);
        // Small inputs are run nine times over: 5000 probe tuples and 5000
        // aggregated rows each time.
        assert_eq!((ck.attempted, ck.failed), (90_000, 0), "{:?}", ck.first_failure);

        // A wrong build payload is one failed row.
        let mut bad = QueryInput::new(resident(&space, 3000), &s_keys, 4);
        let probed = bad.r.iter().position(|t| s_keys.contains(&t.0)).unwrap();
        bad.r[probed].1 ^= 1;
        let mut ck = Checker::new(None);
        query_pass(&bad, 5, &mut tr, &mut ck);
        assert!(ck.failed >= 1);
    }

    #[test]
    fn durable_pass_counts_log_bytes_and_recovers_everything() {
        let items = resident(&KeySpace::new(2), 1000);
        let (mut tr, mut ck) = (Tracer::new(false), Checker::new(None));
        let (bytes, recover) = durable_pass(&items, 100, 12, 3, &mut tr, &mut ck);
        // Ten records of 100 puts: a 28-byte header, a 4-byte count and
        // 17 bytes per put.
        assert_eq!(bytes, (10 * (28 + 4) + 1000 * 17) as f64 / 1000.0);
        assert!(recover > 0.0);
        assert_eq!((ck.attempted, ck.failed), (2000, 0), "{:?}", ck.first_failure);
    }

    #[test]
    fn a_lost_write_fails_recovery() {
        let items = resident(&KeySpace::new(2), 100);
        let wal = PacedWal::new(Duration::ZERO);
        let table =
            DurableTable::with_wal(stack(10, 1), Box::new(wal.clone()), FsyncPolicy::Always);
        for &(k, v) in &items[..99] {
            table.insert_shared(k, v).unwrap();
        }
        drop(table);
        let (mut tr, mut ck) = (Tracer::new(false), Checker::new(None));
        let mut model = items.iter().map(|&(k, v)| (k, Some(v)));
        recover_and_check(&wal.synced_prefix(), 100, 10, 1, &mut model, &mut tr, &mut ck);
        // The missing op in each of the nine replays of so short a log,
        // the missing entry and the short table.
        assert_eq!(ck.failed, 9 + 2);
    }
}
