//! Crash-recovery differential oracle: randomized mutation streams,
//! torn at arbitrary byte offsets, replayed and proven element-wise
//! identical to a `HashMap` twin driven to the same acknowledged prefix.
//!
//! The durability contract under test (see `sevendim_durable`):
//!
//! * every acknowledged mutation group is one `7DWL` record holding
//!   exactly the ops that *took effect* (a refused insert or a delete
//!   of an absent key never enters the log), appended and fsynced per
//!   policy before the group is acknowledged;
//! * recovery replays whole records only, in log order, and stops at
//!   the first truncated or damaged frame — never past it;
//! * a record torn mid-group-commit contributes **none** of its ops
//!   (a group is all-or-nothing on disk, exactly as it was in memory).
//!
//! Which yields the oracle: for *any* tear offset `t` into the log —
//! record boundary or mid-frame — the recovered table must equal a
//! `HashMap` twin that applied exactly the groups whose record ends at
//! or before `t`, counting only the ops each group acknowledged as
//! effective. The grid is the full `all_schemes()` ×
//! {unsharded, sharded} × {fixed-capacity, incremental growth} lattice,
//! fed through [`MemWal`] fault injection; a second suite repeats the
//! story on real files — physical `truncate(2)` tears, flipped bytes,
//! and snapshot + reopen — via [`DurableTable::open`]; a third runs
//! four concurrent writers, blocking and deferred, whose batches share
//! groups, and holds the log they leave to the same tears and flips.

mod tests_common;

use rand::{rngs::StdRng, Rng, SeedableRng};
use seven_dim_hashing::durable::{
    decode_record, encode_record, replay_into, MemWal, RecoveryReport, WalOp,
};
use seven_dim_hashing::prelude::*;
use std::collections::HashMap;
use tests_common::all_schemes;

/// Distinct keys per stream (keys `2..2+UNIVERSE`, clear of the
/// reserved sentinels up at `u64::MAX`).
const UNIVERSE: u64 = 150;

/// Acknowledged mutation groups per stream (singles and batches mixed,
/// so the log holds both one-op and many-op records).
const GROUPS: usize = 160;

/// One op as the *client* observed it: what was asked, and whether the
/// table acknowledged it as taking effect. Only effective ops enter the
/// log (a refused insert or a missed delete is never logged), so only
/// they count toward the replayable stream.
#[derive(Clone, Copy)]
enum AckedOp {
    Put { key: u64, value: u64, ok: bool },
    Del { key: u64, ok: bool },
}

impl AckedOp {
    /// Whether this op took effect — i.e. whether it is in the log.
    fn effective(&self) -> bool {
        match *self {
            AckedOp::Put { ok, .. } | AckedOp::Del { ok, .. } => ok,
        }
    }
}

/// One group commit: the ops it carried and the log offset its record
/// ends at. A tear at `byte_end` or later preserves the whole group; a
/// tear before it erases the whole group.
struct AckedGroup {
    byte_end: usize,
    ops: Vec<AckedOp>,
}

fn apply_to_twin(twin: &mut HashMap<u64, u64>, ops: &[AckedOp]) {
    for op in ops {
        match *op {
            AckedOp::Put { key, value, ok } => {
                if ok {
                    twin.insert(key, value);
                }
            }
            AckedOp::Del { key, .. } => {
                twin.remove(&key);
            }
        }
    }
}

/// Drive one durable table through a random stream of singles and
/// batches, recording each group's ops + record-end offset.
fn run_stream(table: &dyn ConcurrentTable, wal: &MemWal, seed: u64) -> Vec<AckedGroup> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut groups = Vec::with_capacity(GROUPS);
    let key = |rng: &mut StdRng| rng.gen_range(2..2 + UNIVERSE);
    for _ in 0..GROUPS {
        let ops = match rng.gen_range(0..10u8) {
            // Single put (the common case — exercises one-op records).
            0..=4 => {
                let (k, v) = (key(&mut rng), rng.gen::<u64>() >> 1);
                let ok = table.insert_shared(k, v).is_ok();
                vec![AckedOp::Put { key: k, value: v, ok }]
            }
            // Single delete.
            5..=6 => {
                let k = key(&mut rng);
                let ok = table.delete_shared(k).is_some();
                vec![AckedOp::Del { key: k, ok }]
            }
            // Batch put: one group commit, one multi-op record — the
            // all-or-nothing tear target.
            7..=8 => {
                let items: Vec<(u64, u64)> =
                    (0..rng.gen_range(2..8usize)).map(|_| (key(&mut rng), rng.gen())).collect();
                let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
                table.insert_batch_shared(&items, &mut out);
                items
                    .iter()
                    .zip(&out)
                    .map(|(&(key, value), r)| AckedOp::Put { key, value, ok: r.is_ok() })
                    .collect()
            }
            // Batch delete.
            _ => {
                let keys: Vec<u64> = (0..rng.gen_range(2..6usize)).map(|_| key(&mut rng)).collect();
                let mut out = vec![None; keys.len()];
                table.delete_batch_shared(&keys, &mut out);
                keys.iter()
                    .zip(&out)
                    .map(|(&key, r)| AckedOp::Del { key, ok: r.is_some() })
                    .collect()
            }
        };
        groups.push(AckedGroup { byte_end: wal.len(), ops });
    }
    groups
}

/// The twin for a tear at `t`, plus how many *effective* (= logged)
/// ops survive.
fn twin_at(groups: &[AckedGroup], t: usize) -> (HashMap<u64, u64>, u64) {
    let mut twin = HashMap::new();
    let mut surviving_ops = 0u64;
    for g in groups.iter().take_while(|g| g.byte_end <= t) {
        apply_to_twin(&mut twin, &g.ops);
        surviving_ops += g.ops.iter().filter(|op| op.effective()).count() as u64;
    }
    (twin, surviving_ops)
}

/// Element-wise equality in both directions: every twin entry present,
/// every universe key absent from the twin absent from the table.
fn assert_matches_twin(table: &dyn ConcurrentTable, twin: &HashMap<u64, u64>, context: &str) {
    assert_eq!(table.len_shared(), twin.len(), "{context}: len");
    for k in 2..2 + UNIVERSE {
        assert_eq!(table.lookup_shared(k), twin.get(&k).copied(), "{context}: key {k}");
    }
}

/// The reference replayer: what [`replay_into`] did before it gathered
/// ops into runs — every logged op applied on its own, in log order,
/// through the single-key calls.
fn replay_op_at_a_time(
    bytes: &[u8],
    table: &dyn ConcurrentTable,
    covered_seq: u64,
) -> RecoveryReport {
    let mut report = RecoveryReport { last_seq: covered_seq, ..Default::default() };
    let mut at = 0usize;
    loop {
        report.valid_prefix_bytes = at as u64;
        match decode_record(&bytes[at..]) {
            Ok(None) => {
                report.truncated_tail_bytes = (bytes.len() - at) as u64;
                return report;
            }
            Ok(Some((rec, used))) => {
                for (i, op) in rec.ops.iter().enumerate() {
                    let seq = rec.seq.wrapping_add(i as u64);
                    if seq <= covered_seq {
                        report.skipped_ops += 1;
                        continue;
                    }
                    match *op {
                        WalOp::Put { key, value } => drop(table.insert_shared(key, value)),
                        WalOp::Del { key } => drop(table.delete_shared(key)),
                    }
                    report.replayed_ops += 1;
                    report.last_seq = report.last_seq.max(seq);
                }
                report.records += 1;
                at += used;
            }
            Err(e) => {
                report.tail_error = Some(e);
                return report;
            }
        }
    }
}

fn sorted_entries(table: &dyn ConcurrentTable) -> Vec<(u64, u64)> {
    let mut entries = Vec::with_capacity(table.len_shared());
    table.for_each_shared(&mut |k, v| entries.push((k, v)));
    entries.sort_unstable();
    entries
}

/// [`replay_into`] a fresh table built from `builder`, and prove the
/// batched replay indistinguishable from the op-at-a-time reference on a
/// second fresh table: same contents, and every [`RecoveryReport`] field
/// the same (compared through `Debug`, which prints them all, the typed
/// tail error included).
fn replay_checked(
    builder: &TableBuilder,
    bytes: &[u8],
    covered_seq: u64,
    context: &str,
) -> (ShardedTable<BoxedTable>, RecoveryReport) {
    let (fresh, reference) = (builder.build_sharded(), builder.build_sharded());
    let report = replay_into(bytes, &fresh, covered_seq);
    let expect = replay_op_at_a_time(bytes, &reference, covered_seq);
    assert_eq!(format!("{report:?}"), format!("{expect:?}"), "{context}: report vs reference");
    assert_eq!(sorted_entries(&fresh), sorted_entries(&reference), "{context}: table vs reference");
    (fresh, report)
}

/// The builder grid: every scheme × {unsharded, 4-way sharded} ×
/// {fixed capacity, incremental growth from a deliberately small table}.
fn grid() -> Vec<(TableBuilder, String)> {
    let mut cells = Vec::new();
    for (i, scheme) in all_schemes().into_iter().enumerate() {
        for shard_bits in [0u8, 2] {
            for growth in [false, true] {
                let mut b = TableBuilder::new(scheme).hash(HashKind::Murmur).seed(7 + i as u64);
                b = if growth { b.bits(6).grow_at(0.7).incremental(8) } else { b.bits(10) };
                b = b.shards(shard_bits);
                let label = format!(
                    "{scheme:?}/shards={}/growth={}",
                    1u32 << shard_bits,
                    if growth { "incremental" } else { "off" }
                );
                cells.push((b, label));
            }
        }
    }
    cells
}

/// Replay `bytes[..t]` into a fresh table built from `builder` and
/// check it against the twin for that tear.
fn check_tear(
    builder: &TableBuilder,
    bytes: &[u8],
    groups: &[AckedGroup],
    t: usize,
    label: &str,
) -> RecoveryReport {
    let context = format!("{label} tear@{t}");
    let (fresh, report) = replay_checked(builder, &bytes[..t], 0, &context);
    let (twin, surviving_ops) = twin_at(groups, t);
    assert!(
        report.clean(),
        "{context}: truncation must be a clean stop, got {:?}",
        report.tail_error
    );
    assert_eq!(report.replayed_ops, surviving_ops, "{context}: replayed ops");
    let last_end = groups.iter().map(|g| g.byte_end).filter(|&e| e <= t).max().unwrap_or(0);
    assert_eq!(report.truncated_tail_bytes, (t - last_end) as u64, "{context}: torn tail bytes");
    assert_matches_twin(&fresh, &twin, &context);
    report
}

/// The headline oracle: for every grid cell, tear the in-memory log at
/// record boundaries **and** arbitrary mid-record offsets, and prove
/// recovery lands exactly on the acknowledged-group prefix.
#[test]
fn torn_log_recovers_exactly_the_acknowledged_prefix_across_the_grid() {
    for (cell, (builder, label)) in grid().into_iter().enumerate() {
        let wal = MemWal::new();
        let durable = seven_dim_hashing::durable::DurableTable::with_wal(
            builder.build_sharded(),
            Box::new(wal.clone()),
            FsyncPolicy::Always,
        );
        let groups = run_stream(&durable, &wal, 0xA11C_E000 + cell as u64);
        drop(durable);
        let bytes = wal.bytes();
        let total = bytes.len();
        assert_eq!(groups.last().unwrap().byte_end, total, "{label}: boundary bookkeeping");

        let mut rng = StdRng::seed_from_u64(0x7EA5 + cell as u64);
        // Exact boundaries (empty log, mid-stream, one-before-full,
        // full) plus a dozen arbitrary offsets — most land mid-record.
        let mut tears = vec![0, groups[GROUPS / 2].byte_end, groups[GROUPS - 2].byte_end, total];
        tears.extend((0..12).map(|_| rng.gen_range(1..total)));
        for t in tears {
            check_tear(&builder, &bytes, &groups, t, &label);
        }

        // A full-length replay is a perfect recovery: every group, no
        // torn tail, and it matches the *live* table it was logged from.
        let report = check_tear(&builder, &bytes, &groups, total, &label);
        assert_eq!(report.truncated_tail_bytes, 0, "{label}: full replay leaves no tail");
    }
}

/// Corruption (bit flips), as opposed to truncation: replay must stop
/// at the damaged record — reporting the damage — and still equal the
/// twin of the groups wholly before the flipped byte.
#[test]
fn corrupted_log_stops_at_the_damaged_record_and_reports_it() {
    for (cell, (builder, label)) in grid().into_iter().enumerate() {
        let wal = MemWal::new();
        let durable = seven_dim_hashing::durable::DurableTable::with_wal(
            builder.build_sharded(),
            Box::new(wal.clone()),
            FsyncPolicy::Always,
        );
        let groups = run_stream(&durable, &wal, 0xBAD0 + cell as u64);
        drop(durable);
        let bytes = wal.bytes();

        let mut rng = StdRng::seed_from_u64(0xF11B + cell as u64);
        for _ in 0..4 {
            let p = rng.gen_range(0..bytes.len());
            let mut bad = bytes.clone();
            bad[p] ^= 1 << rng.gen_range(0..8u8);
            let context = format!("{label} flip@{p}");
            let (fresh, report) = replay_checked(&builder, &bad, 0, &context);
            let (twin, surviving_ops) = twin_at(&groups, p);
            // The flip either fails a checksum (tail_error) or inflates
            // a declared length past the buffer (a truncated-tail stop);
            // silently decoding damaged bytes is the one forbidden move.
            assert!(
                report.tail_error.is_some() || report.truncated_tail_bytes > 0,
                "{context}: damage went unnoticed"
            );
            assert_eq!(report.replayed_ops, surviving_ops, "{context}: replayed ops");
            assert_matches_twin(&fresh, &twin, &context);
        }
    }
}

/// Encode `records` (each a group commit) back to back, numbering ops
/// from 1.
fn encode_log(records: &[Vec<WalOp>]) -> Vec<u8> {
    let (mut bytes, mut seq) = (Vec::new(), 1u64);
    for ops in records {
        encode_record(seq, ops, &mut bytes);
        seq += ops.len() as u64;
    }
    bytes
}

/// A small growing stack: two shards from 16 slots each, so runs also
/// cross growth steps and shard boundaries.
fn small_growing() -> TableBuilder {
    TableBuilder::new(TableScheme::LinearProbing).bits(5).shards(1).grow_at(0.7).incremental(4)
}

const fn put(key: u64, value: u64) -> WalOp {
    WalOp::Put { key, value }
}

const fn del(key: u64) -> WalOp {
    WalOp::Del { key }
}

/// Runs are cut where the op kind changes, and only there or at 256 ops:
/// put → del → put of one key must come out as the last put, whether the
/// three share a record or straddle records, and a `covered_seq` landing
/// mid-record must skip exactly the ops at or before it.
#[test]
fn batched_replay_keeps_per_key_order_within_and_across_records() {
    let b = small_growing();
    // Inside one record, between other keys' ops.
    let one =
        encode_log(&[vec![put(5, 1), put(9, 1), del(5), del(8), put(5, 2), put(5, 3), del(9)]]);
    let (t, report) = replay_checked(&b, &one, 0, "one record");
    assert_eq!(sorted_entries(&t), [(5, 3)]);
    assert_eq!((report.records, report.replayed_ops, report.last_seq), (1, 7, 7));
    // The same ops as one record each, then as ragged records: a run
    // gathers across record boundaries, a kind change still cuts it.
    let ops = [put(5, 1), put(9, 1), del(5), del(8), put(5, 2), put(5, 3), del(9)];
    let each = encode_log(&ops.iter().map(|&op| vec![op]).collect::<Vec<_>>());
    let (t, report) = replay_checked(&b, &each, 0, "record per op");
    assert_eq!(sorted_entries(&t), [(5, 3)]);
    assert_eq!((report.records, report.replayed_ops), (7, 7));
    let ragged = encode_log(&[ops[..3].to_vec(), ops[3..4].to_vec(), ops[4..].to_vec()]);
    let (t, _) = replay_checked(&b, &ragged, 0, "ragged records");
    assert_eq!(sorted_entries(&t), [(5, 3)]);
    // `covered_seq` inside the middle of a record: every split point.
    for covered in 0..=8u64 {
        let (t, report) = replay_checked(&b, &one, covered, &format!("covered_seq {covered}"));
        assert_eq!(report.skipped_ops, covered.min(7));
        assert_eq!(report.replayed_ops, 7 - covered.min(7));
        assert_eq!(report.last_seq, covered.max(7));
        // Skipping the first put of 5 changes nothing; skipping past the
        // last one leaves 5 absent.
        let five = t.lookup_shared(5);
        assert_eq!(five, if covered >= 6 { None } else { Some(3) }, "covered_seq {covered}");
    }
}

/// Runs longer than the 256-op window: a long stretch of puts with keys
/// recurring inside it, a long stretch of deletes, and the tail after
/// them, in records that do not divide the window.
#[test]
fn batched_replay_matches_reference_across_run_windows() {
    let mut rng = StdRng::seed_from_u64(0x256);
    let mut ops: Vec<WalOp> = (0..700).map(|i| put(rng.gen_range(2..200u64), i)).collect();
    ops.extend((0..300).map(|_| del(rng.gen_range(2..200u64))));
    ops.extend((0..10u64).flat_map(|i| [put(i + 2, 9000 + i), del(i + 3)]));
    let records: Vec<Vec<WalOp>> = ops.chunks(7).map(<[WalOp]>::to_vec).collect();
    let bytes = encode_log(&records);
    for covered in [0, 255, 256, 699, 700, 1019] {
        let (_, report) = replay_checked(&small_growing(), &bytes, covered, "long runs");
        assert_eq!(report.replayed_ops, 1020 - covered);
        assert!(report.clean());
    }
}

/// Every tear offset and every single-byte flip of a multi-record log:
/// ops of the records decoded before the stop are applied — the pending
/// run is flushed, not dropped — and nothing after it is.
#[test]
fn batched_replay_matches_reference_at_every_tear_and_flip() {
    let b = small_growing();
    let records = vec![
        vec![put(2, 1), put(3, 1), put(4, 1)],
        vec![put(5, 1)],
        vec![put(2, 2), del(3), del(9)],
        vec![del(4)],
        vec![put(3, 3), put(6, 1), put(7, 1), put(8, 1)],
        vec![put(9, 1), del(2)],
        vec![put(2, 4)],
    ];
    let bytes = encode_log(&records);
    let mut ends = Vec::new();
    for ops in &records {
        let mut one = Vec::new();
        encode_record(1, ops, &mut one);
        ends.push(ends.last().copied().unwrap_or(0) + one.len());
    }
    assert_eq!(*ends.last().unwrap(), bytes.len());
    let ops_before = |offset: usize| -> u64 {
        records
            .iter()
            .zip(&ends)
            .filter(|(_, &end)| end <= offset)
            .map(|(r, _)| r.len() as u64)
            .sum()
    };
    for t in 0..=bytes.len() {
        let (_, report) = replay_checked(&b, &bytes[..t], 0, &format!("tear@{t}"));
        assert!(report.clean(), "tear@{t}: truncation is a clean stop");
        assert_eq!(report.replayed_ops, ops_before(t), "tear@{t}");
    }
    for p in 0..bytes.len() {
        for bit in [0u8, 7] {
            let mut bad = bytes.clone();
            bad[p] ^= 1 << bit;
            let (_, report) = replay_checked(&b, &bad, 0, &format!("flip@{p}.{bit}"));
            assert!(
                report.tail_error.is_some() || report.truncated_tail_bytes > 0,
                "flip@{p}.{bit}: damage went unnoticed"
            );
            assert_eq!(report.replayed_ops, ops_before(p), "flip@{p}.{bit}");
        }
    }
}

/// Decode a whole, undamaged log into its records: each one's ops (all
/// effective, or they would not be there) and the offset it ends at.
fn logged_groups(bytes: &[u8]) -> Vec<AckedGroup> {
    let (mut groups, mut at) = (Vec::new(), 0);
    while let Some((rec, used)) = decode_record(&bytes[at..]).expect("an undamaged log") {
        at += used;
        let ops = rec.ops.iter().map(|op| match *op {
            WalOp::Put { key, value } => AckedOp::Put { key, value, ok: true },
            WalOp::Del { key } => AckedOp::Del { key, ok: true },
        });
        groups.push(AckedGroup { byte_end: at, ops: ops.collect() });
    }
    assert_eq!(at, bytes.len(), "the log ends on a record boundary");
    groups
}

/// What one concurrent writer saw: every effective put by its (unique)
/// value with the synced length of the log read right after the put was
/// acknowledged, and how many of its calls had an effect.
#[derive(Default)]
struct WriterLog {
    acked_puts: Vec<(u64, usize)>,
    effective_calls: u64,
}

/// One writer of the concurrent oracle: random singles and batches over
/// a key range all writers share, a third of them through the
/// `*_deferred` calls with the `flush_shared` sometimes left until
/// several are owed.
fn concurrent_writer(
    table: &DurableSharded,
    wal: &MemWal,
    writer: u64,
    rounds: usize,
) -> WriterLog {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE + writer);
    let mut log = WriterLog::default();
    // Puts applied through a deferred call and not yet flushed.
    let mut unflushed: Vec<u64> = Vec::new();
    let mut owed = false;
    let mut stamp = 0u64;
    let mut fresh_value = || {
        stamp += 1;
        writer << 32 | stamp
    };
    for _ in 0..rounds {
        let n = rng.gen_range(1..6usize);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(2..26u64)).collect();
        let deferred = rng.gen_range(0..3u8) == 0;
        if rng.gen_range(0..3u8) > 0 {
            let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, fresh_value())).collect();
            let mut out = vec![Ok(InsertOutcome::Inserted); n];
            if deferred {
                owed |= table.insert_batch_deferred(&items, &mut out);
            } else if n == 1 {
                out[0] = table.insert_shared(items[0].0, items[0].1);
            } else {
                table.insert_batch_shared(&items, &mut out);
            }
            let effective = items.iter().zip(&out).filter(|(_, r)| r.is_ok()).map(|(&(_, v), _)| v);
            let before = unflushed.len();
            unflushed.extend(effective);
            log.effective_calls += u64::from(unflushed.len() > before);
        } else {
            let mut out = vec![None; n];
            if deferred {
                owed |= table.delete_batch_deferred(&keys, &mut out);
            } else if n == 1 {
                out[0] = table.delete_shared(keys[0]);
            } else {
                table.delete_batch_shared(&keys, &mut out);
            }
            log.effective_calls += u64::from(out.iter().any(Option::is_some));
        }
        if deferred && rng.gen_range(0..2u8) == 0 {
            continue; // leave the flush owed: the next one covers this batch too
        }
        if owed {
            table.flush_shared();
            owed = false;
        }
        // Acknowledged: a crash from here on must keep every one of them.
        let synced = wal.synced_len();
        log.acked_puts.extend(unflushed.drain(..).map(|v| (v, synced)));
    }
    table.flush_shared();
    let synced = wal.synced_len();
    log.acked_puts.extend(unflushed.drain(..).map(|v| (v, synced)));
    log
}

/// Four writers, one table, one log: batches of different threads share
/// groups, and same-key races are settled by the ordering lock. The log
/// they leave must *be* the order their ops were applied in (a full
/// replay equals the live table), hold one record per effective call,
/// have had every put inside its synced prefix by the time the put was
/// acknowledged — and survive every tear and flip like a one-writer log.
#[test]
fn concurrent_writers_share_groups_and_the_log_is_their_apply_order() {
    const WRITERS: u64 = 4;
    let builder = small_growing();
    let wal = MemWal::new();
    let durable = seven_dim_hashing::durable::DurableTable::with_wal(
        builder.build_sharded(),
        Box::new(wal.clone()),
        FsyncPolicy::Always,
    );
    let logs: Vec<WriterLog> = std::thread::scope(|scope| {
        let writers: Vec<_> = (1..=WRITERS)
            .map(|w| {
                let (durable, wal) = (&durable, &wal);
                scope.spawn(move || concurrent_writer(durable, wal, w, 36))
            })
            .collect();
        writers.into_iter().map(|h| h.join().expect("a writer panicked")).collect()
    });
    let (stats, live) = (durable.commit_stats(), sorted_entries(&durable));
    assert_eq!(durable.committed_seq() + 1, durable.next_seq(), "everything applied is committed");
    assert_eq!(wal.syncs(), stats.groups, "one sync per group");
    drop(durable);
    let bytes = wal.bytes();
    let groups = logged_groups(&bytes);

    // One record per call that had an effect, however the calls grouped.
    let effective_calls: u64 = logs.iter().map(|l| l.effective_calls).sum();
    assert_eq!((stats.records, groups.len() as u64), (effective_calls, effective_calls));
    assert!(stats.groups <= stats.records);
    assert_eq!(stats.ops, groups.iter().map(|g| g.ops.len() as u64).sum::<u64>());

    // Log order is apply order: replaying it rebuilds the live table,
    // same-key races between writers included.
    let (replayed, _) = replay_checked(&builder, &bytes, 0, "concurrent, whole log");
    assert_eq!(sorted_entries(&replayed), live, "full replay vs the live table");

    // Every put was in the synced prefix when it was acknowledged, and
    // each writer's puts are logged in the order it made them.
    let mut logged_at = HashMap::new();
    let mut last_stamp = HashMap::new();
    for g in &groups {
        for op in &g.ops {
            if let AckedOp::Put { value, .. } = *op {
                assert!(logged_at.insert(value, g.byte_end).is_none(), "{value:#x} logged twice");
                let newest = last_stamp.entry(value >> 32).or_insert(0);
                assert!(value > *newest, "writer {}: puts logged out of order", value >> 32);
                *newest = value;
            }
        }
    }
    let acked = logs.iter().flat_map(|l| &l.acked_puts);
    assert_eq!(acked.clone().count(), logged_at.len(), "every logged put was acknowledged");
    for &(value, synced) in acked {
        assert!(logged_at[&value] <= synced, "{value:#x} acknowledged before it was synced");
    }

    // The multi-writer stream under the one-writer fault checks: every
    // tear offset, and a flipped bit in every third byte.
    for t in 0..=bytes.len() {
        check_tear(&builder, &bytes, &groups, t, "concurrent");
    }
    for p in (0..bytes.len()).step_by(3) {
        let mut bad = bytes.clone();
        bad[p] ^= 1 << (p % 8);
        let context = format!("concurrent flip@{p}");
        let (fresh, report) = replay_checked(&builder, &bad, 0, &context);
        let (twin, surviving_ops) = twin_at(&groups, p);
        assert!(
            report.tail_error.is_some() || report.truncated_tail_bytes > 0,
            "{context}: damage went unnoticed"
        );
        assert_eq!(report.replayed_ops, surviving_ops, "{context}: replayed ops");
        assert_matches_twin(&fresh, &twin, &context);
    }
}

/// The same story on real files through [`DurableTable::open`]: crash
/// (drop), physically truncate the segment's tail at an arbitrary
/// offset, reopen, and land on the acknowledged prefix; then flip a
/// byte instead and watch recovery stop *and* say so.
#[test]
fn reopen_after_physical_tail_damage_recovers_the_acknowledged_prefix() {
    let base = std::env::temp_dir().join(format!("sevendim-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for (i, scheme) in all_schemes().into_iter().enumerate() {
        let dir = base.join(format!("tear-{scheme:?}"));
        let builder = TableBuilder::new(scheme)
            .hash(HashKind::Mult)
            .bits(10)
            .shards(2)
            .seed(3 + i as u64)
            .wal(&dir);
        let (durable, report) = DurableTable::open(&builder).expect("open fresh");
        assert!(report.clean());
        // Mutate, tracking each group's end offset in the (sole, fresh)
        // segment file via its length — `FsyncPolicy::Always` is the
        // default, so the file length *is* the acknowledged boundary.
        let seg = dir.join("wal.000001.log");
        let mut rng = StdRng::seed_from_u64(0xD15C + i as u64);
        let mut groups: Vec<AckedGroup> = Vec::new();
        for _ in 0..40 {
            let (k, v) = (rng.gen_range(2..2 + UNIVERSE), rng.gen::<u64>() >> 1);
            let ok = durable.insert_shared(k, v).is_ok();
            let byte_end = std::fs::metadata(&seg).expect("segment exists").len() as usize;
            groups.push(AckedGroup { byte_end, ops: vec![AckedOp::Put { key: k, value: v, ok }] });
        }
        drop(durable); // crash

        // Physically tear the tail mid-record and reopen.
        let total = groups.last().unwrap().byte_end;
        let t = rng.gen_range(1..total);
        let f = std::fs::OpenOptions::new().write(true).open(&seg).expect("reopen segment");
        f.set_len(t as u64).expect("truncate");
        drop(f);
        let (recovered, report) = DurableTable::open(&builder).expect("reopen torn");
        let (twin, surviving_ops) = twin_at(&groups, t);
        let context = format!("{scheme:?} file-tear@{t}");
        assert!(report.clean(), "{context}: truncation is a clean stop");
        assert_eq!(report.replayed_ops, surviving_ops, "{context}: replayed ops");
        assert_matches_twin(&recovered, &twin, &context);
        drop(recovered);

        // Now flip a byte inside the surviving prefix: reopen must stop
        // at the damaged record and *report* it (`clean()` is false).
        if t > 1 {
            let p = rng.gen_range(0..t - 1);
            let mut bytes = std::fs::read(&seg).expect("read segment");
            bytes[p] ^= 0x40;
            std::fs::write(&seg, &bytes).expect("write damage");
            let (recovered, report) = DurableTable::open(&builder).expect("reopen corrupt");
            let (twin, surviving_ops) = twin_at(&groups, p);
            let context = format!("{scheme:?} file-flip@{p}");
            assert!(
                !report.clean() || report.truncated_tail_bytes > 0,
                "{context}: damage went unnoticed"
            );
            assert_eq!(report.replayed_ops, surviving_ops, "{context}: replayed ops");
            assert_matches_twin(&recovered, &twin, &context);
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

/// Snapshot + reopen end-to-end: a snapshot taken mid-stream (while the
/// table keeps mutating afterwards) bounds replay to the post-snapshot
/// suffix, prunes old segments, and recovery still equals the twin of
/// *every* acknowledged op.
#[test]
fn snapshot_bounds_replay_and_reopen_matches_the_full_twin() {
    let base = std::env::temp_dir().join(format!("sevendim-oracle-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for (i, scheme) in all_schemes().into_iter().enumerate() {
        let dir = base.join(format!("snap-{scheme:?}"));
        let builder = TableBuilder::new(scheme)
            .hash(HashKind::Murmur)
            .bits(10)
            .shards(2)
            .seed(11 + i as u64)
            .wal(&dir);
        let (durable, _) = DurableTable::open(&builder).expect("open fresh");
        let mut twin = HashMap::new();
        let mut rng = StdRng::seed_from_u64(0x5A9 + i as u64);
        // Returns how many of the `n` ops took effect — only those are
        // logged, so only those can replay.
        let mut mutate = |durable: &DurableSharded, twin: &mut HashMap<u64, u64>, n: usize| {
            let mut effective = 0u64;
            for _ in 0..n {
                let k = rng.gen_range(2..2 + UNIVERSE);
                if rng.gen_range(0..4u8) == 0 {
                    effective += u64::from(durable.delete_shared(k).is_some());
                    twin.remove(&k);
                } else {
                    let v = rng.gen::<u64>() >> 1;
                    if durable.insert_shared(k, v).is_ok() {
                        twin.insert(k, v);
                        effective += 1;
                    }
                }
            }
            effective
        };
        mutate(&durable, &mut twin, 60);
        let stats = durable.snapshot_now().expect("snapshot");
        assert_eq!(stats.entries, twin.len(), "{scheme:?}: snapshot scanned the live table");
        let tail_ops = mutate(&durable, &mut twin, 40);
        drop(durable); // crash after post-snapshot traffic

        let (recovered, report) = DurableTable::open(&builder).expect("reopen");
        let context = format!("{scheme:?} snapshot+reopen");
        assert!(report.clean(), "{context}: {:?}", report.tail_error);
        assert_eq!(report.snapshot_entries, stats.entries as u64, "{context}: snapshot loaded");
        assert_eq!(report.replayed_ops, tail_ops, "{context}: replay bounded to the suffix");
        assert_matches_twin(&recovered, &twin, &context);
    }
    std::fs::remove_dir_all(&base).ok();
}
