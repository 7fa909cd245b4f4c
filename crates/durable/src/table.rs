//! [`DurableTable`]: a write-ahead-logged wrapper around any
//! [`ConcurrentTable`], with recovery-on-open and non-stop snapshots.
//!
//! # Logging
//!
//! A mutation is two steps, **stage** and **commit**, and holds no lock
//! across the device wait.
//!
//! *Stage.* Under a short **ordering lock** the mutation applies its ops
//! to the wrapped table, appends the ones that *took effect* to the
//! staging buffer — cut off as one batch, which will be one `7DWL`
//! record, the all-or-nothing unit recovery sees — and takes a
//! **ticket**: the sequence number of its last op. Apply and stage share
//! the lock, so stage order = apply order = log order: two racing PUTs to
//! one key replay in the order they were applied, not some other order.
//! Logging *after* the apply, and only on success, is what keeps replay
//! honest: a refused insert ([`TableError::TableFull`] on a
//! fixed-capacity build) or a delete of an absent key never enters the
//! log, so recovery — which rebuilds from a snapshot whose slot layout
//! differs from the original table — can never turn an acknowledged
//! refusal into a phantom mutation.
//!
//! *Commit.* Whoever needs a ticket committed and finds the log at rest
//! takes it and is the **leader**: it swaps out *everything* staged,
//! encodes one record per staged batch, hands them to the [`WalFile`] in
//! one `append` and at most one `sync` (as the [`FsyncPolicy`] says,
//! counting every record), publishes the **committed** sequence number
//! and wakes every waiter it covers. Whoever arrives while a group is
//! being logged sleeps, and rides the next group. A writer alone leads
//! every group it is in and pays what it always paid; two writers share
//! a sync — the leader's *closing rule* ([`ClosingRule`], which the KV
//! server's worker also keeps, over its connections) holds a group open,
//! for at most half of what a group costs, for a writer that rode one of
//! the last two groups and has not staged again.
//!
//! The blocking calls ([`ConcurrentTable::insert_shared`],
//! `delete_shared`, `*_batch_shared`) are stage + wait for my ticket, so
//! by the time a caller sees an outcome the op is logged as the policy
//! asks. [`ConcurrentTable::insert_batch_deferred`] /
//! `delete_batch_deferred` are the stage alone and
//! [`ConcurrentTable::flush_shared`] the wait alone — for everything
//! staged before it was called, by anyone — for a caller (the KV
//! server's worker) that has several batches in hand and wants one
//! device wait for the lot. There is one pipeline: the blocking calls
//! are built from the same two halves.
//!
//! WAL I/O failure **fail-stops the whole table**: a failed append may
//! leave a torn record at the end of the log, and since recovery never
//! replays past a tear, nothing appended after it could ever be
//! recovered. The failing leader raises a sticky `wal_failed` flag
//! before it returns the log; it and every waiter of its group panic
//! without acknowledging, later stagers panic before they touch the
//! table, and `sync` and snapshots return [`WalError::FailStopped`]. A
//! leader that *unwinds* (a `WalFile` that panics) raises the flag and
//! wakes its followers the same way — nobody stays parked behind a dead
//! leader. Pretending otherwise (returning `Ok` without durability, or
//! inventing a `TableError`) would corrupt the recovery contract.
//!
//! # Reads and crashes
//!
//! Reads never touch either lock — `lookup_shared` and friends go
//! straight to the wrapped table, so the lock-free seqlock read path
//! stays lock-free. The price is stated here rather than hidden: an op
//! is visible to readers from the moment it is *applied*, which is
//! before it is *committed*, so a reader may observe a value that a
//! crash in that window then un-happens (**read uncommitted, with
//! respect to crashes**; the writer itself is never told "done" before
//! the commit). A reader that must not act on such a value reads
//! [`DurableTable::next_seq`] after its lookup and waits until
//! [`DurableTable::committed_seq`] has passed it — the fence — or simply
//! calls `flush_shared`. The other direction is also allowed: a crash
//! may *keep* an op whose writer was never acknowledged (its record
//! reached the device, the acknowledgement did not get out).
//!
//! # Snapshots never stop the world
//!
//! A snapshot rotates the log from the leader's side (takes the log when
//! it is at rest: fsync, note `covered_seq` — the last *logged* sequence
//! number — open a fresh segment, return it), then scans the table
//! through [`ConcurrentTable::for_each_shared`] — one shard locked at a
//! time, both generations of a mid-growth shard included, exactly the
//! incremental-drain iteration growth itself uses — while writers keep
//! staging, and committing to the new segment. The scan may therefore
//! observe effects of ops numbered *after* `covered_seq`, logged or
//! still only staged; that is sound because recovery replays every
//! logged op with `seq > covered_seq` in log order on top of the
//! snapshot, and per-key last-writer-wins makes the replayed tail
//! converge to the true final state regardless of which tail effects the
//! scan happened to catch. So a snapshot never misses an acknowledged op
//! (acknowledged means logged, and logged ops are covered or replayed),
//! but it may contain an unacknowledged one: an op the scan caught that
//! a crash then kept from ever being logged.
//!
//! # Recovery
//!
//! [`DurableTable::open`] loads the snapshot (if any), then replays
//! every surviving segment in order, skipping ops the snapshot already
//! covers, and **stops at the first bad checksum or truncated frame —
//! never replaying past it**. A truncated tail (the normal crash
//! artifact) is a clean stop; a checksum failure is reported in the
//! [`RecoveryReport`] so callers can distinguish "crashed mid-append"
//! from "disk ate my log". Either way the new epoch appends to a *fresh*
//! segment, so damaged bytes are never appended after.
//!
//! Replay is **batched**: [`replay_into`] gathers consecutive puts (or
//! consecutive deletes) across records into runs of up to 256 and applies
//! each with one `insert_batch_shared` / `delete_batch_shared`, cutting a
//! run where the op kind changes and flushing the pending one when
//! decoding stops — so per-key order is the log's, the ops of every
//! record decoded before a tear or a bad checksum are applied, and
//! recovery runs on the same batch kernels the write path does.
//!
//! A dirty recovery also **quarantines the damage before accepting new
//! appends** — the "never replay past it" rule would otherwise eat the
//! new epoch: the next open would stop at the same damaged record and
//! never reach the younger segments holding this epoch's acknowledged,
//! fsync'd mutations. So the damaged segment is copied aside as
//! `wal.NNNNNN.log.corrupt` (post-mortem material), truncated in place
//! to its last whole valid record, and any younger segments — history
//! past the damage, unreachable by contract — are renamed aside as
//! `wal.NNNNNN.log.orphaned`. Subsequent recoveries then replay the
//! clean prefix and continue straight into the new epoch's segments.

use crate::record::{decode_record, WalError, WalOp};
use crate::snapshot;
use crate::storage::{FileWal, WalFile, WalWriter};
use sevendim_core::{
    BoxedTable, Closing, ClosingRule, ConcurrentTable, FsyncPolicy, InsertOutcome, ShardedTable,
    TableBuilder, TableError,
};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The durable table the KV server serves: a WAL in front of the
/// sharded dynamic table grid.
pub type DurableSharded = DurableTable<ShardedTable<BoxedTable>>;

/// What recovery found and did. Returned by [`DurableTable::open`] and
/// [`replay_into`].
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Entries loaded from the snapshot.
    pub snapshot_entries: u64,
    /// Valid records decoded from the log tail.
    pub records: u64,
    /// Ops re-applied (sequence numbers past the snapshot).
    pub replayed_ops: u64,
    /// Ops skipped because the snapshot already covered them.
    pub skipped_ops: u64,
    /// Highest sequence number reflected in the recovered table.
    pub last_seq: u64,
    /// Bytes of truncated tail discarded (a partial final record — the
    /// normal artifact of a crash mid-append).
    pub truncated_tail_bytes: u64,
    /// Bytes that decoded as whole, valid records — the prefix replay
    /// actually consumed. For a single stream this is the offset where
    /// the truncated tail or the damage begins; for a multi-segment
    /// recovery it is the sum of the segments' valid prefixes.
    pub valid_prefix_bytes: u64,
    /// First checksum/decode error met, if any. Replay stopped there;
    /// nothing after it was applied.
    pub tail_error: Option<WalError>,
}

impl RecoveryReport {
    /// True when the log ended cleanly (at EOF or a truncated final
    /// frame) rather than at damaged bytes.
    pub fn clean(&self) -> bool {
        self.tail_error.is_none()
    }

    fn absorb(&mut self, other: RecoveryReport) {
        self.records += other.records;
        self.replayed_ops += other.replayed_ops;
        self.skipped_ops += other.skipped_ops;
        self.last_seq = self.last_seq.max(other.last_seq);
        self.truncated_tail_bytes += other.truncated_tail_bytes;
        self.valid_prefix_bytes += other.valid_prefix_bytes;
        if self.tail_error.is_none() {
            self.tail_error = other.tail_error;
        }
    }
}

/// Longest run of consecutive same-kind ops replay applies with one
/// batch call: long enough that every shard of a sharded table gets a
/// sub-batch the prefetching kernels can overlap, short enough that the
/// ignored outcomes fit a stack array.
const REPLAY_RUN: usize = 256;

/// Replay's pending run: consecutive logged ops of one kind, gathered
/// across record boundaries. At most one of the two is non-empty.
#[derive(Default)]
struct ReplayRun {
    puts: Vec<(u64, u64)>,
    dels: Vec<u64>,
}

impl ReplayRun {
    fn push<T: ConcurrentTable + ?Sized>(&mut self, op: WalOp, table: &T) {
        match op {
            WalOp::Put { key, value } => {
                if !self.dels.is_empty() {
                    self.flush(table);
                }
                self.puts.push((key, value));
            }
            WalOp::Del { key } => {
                if !self.puts.is_empty() {
                    self.flush(table);
                }
                self.dels.push(key);
            }
        }
        if self.puts.len() + self.dels.len() == REPLAY_RUN {
            self.flush(table);
        }
    }

    /// Apply the pending run. Outcomes are ignored (see [`replay_into`]).
    fn flush<T: ConcurrentTable + ?Sized>(&mut self, table: &T) {
        if !self.puts.is_empty() {
            let mut out = [Ok(InsertOutcome::Inserted); REPLAY_RUN];
            table.insert_batch_shared(&self.puts, &mut out[..self.puts.len()]);
            self.puts.clear();
        }
        if !self.dels.is_empty() {
            let mut out = [None; REPLAY_RUN];
            table.delete_batch_shared(&self.dels, &mut out[..self.dels.len()]);
            self.dels.clear();
        }
    }
}

/// Decode `bytes` as a `7DWL` record stream and apply every op with
/// `seq > covered_seq` to `table`, in order, stopping at the first
/// truncated or damaged frame. This is the whole recovery kernel — the
/// crash-recovery oracle drives it directly over torn byte streams.
///
/// Ops reach the table in **runs**: consecutive puts (or consecutive
/// deletes), across record boundaries, are gathered up to 256
/// (`REPLAY_RUN`) and applied with one `insert_batch_shared` /
/// `delete_batch_shared`, so replay gets the sharded fan-out and the
/// prefetching batch kernels instead of one lock, one virtual call and
/// one cache miss per logged op. A run is flushed when the op kind
/// changes and when decoding stops — at the end of the stream or at a
/// torn or damaged frame — and the batch calls are element-wise
/// identical to their single-key forms, so the table sees exactly the
/// ops of every whole valid record before the stop, in log order.
///
/// Replay outcomes are deliberately ignored: the log holds only ops
/// that *took effect* originally (a refused insert or a not-found
/// delete is never logged), so there is no original failure for replay
/// to reproduce. One caveat for growth-disabled builds reopened at the
/// same capacity: the snapshot a tail replays onto stores live keys
/// only (no tombstones), so the rebuilt table is never more loaded than
/// the original was at the same point — a put that succeeded originally
/// finds room on replay too.
pub fn replay_into<T: ConcurrentTable + ?Sized>(
    bytes: &[u8],
    table: &T,
    covered_seq: u64,
) -> RecoveryReport {
    let mut report = RecoveryReport { last_seq: covered_seq, ..Default::default() };
    let mut run = ReplayRun::default();
    let mut at = 0usize;
    loop {
        report.valid_prefix_bytes = at as u64;
        match decode_record(&bytes[at..]) {
            Ok(None) => {
                report.truncated_tail_bytes = (bytes.len() - at) as u64;
                break;
            }
            Ok(Some((rec, used))) => {
                for (i, &op) in rec.ops.iter().enumerate() {
                    let seq = rec.seq.wrapping_add(i as u64);
                    if seq <= covered_seq {
                        report.skipped_ops += 1;
                        continue;
                    }
                    run.push(op, table);
                    report.replayed_ops += 1;
                    report.last_seq = report.last_seq.max(seq);
                }
                report.records += 1;
                at += used;
            }
            Err(e) => {
                report.tail_error = Some(e);
                break;
            }
        }
    }
    run.flush(table);
    report
}

fn segment_name(no: u64) -> String {
    format!("wal.{no:06}.log")
}

/// `wal.NNNNNN.log` files in `dir`, sorted by segment number.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(no) = name.strip_prefix("wal.").and_then(|s| s.strip_suffix(".log")) else {
            continue;
        };
        if let Ok(no) = no.parse::<u64>() {
            segs.push((no, entry.path()));
        }
    }
    segs.sort_unstable_by_key(|&(no, _)| no);
    Ok(segs)
}

/// `path` plus a quarantine suffix: `wal.000003.log` → `wal.000003.log.corrupt`.
/// Neither suffix matches [`list_segments`], so quarantined files drop
/// out of replay, pruning, and segment numbering.
fn quarantine_name(path: &Path, tag: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".");
    name.push(tag);
    PathBuf::from(name)
}

/// A dirty recovery stopped at damaged bytes inside `segs[idx]`, whose
/// first `valid_prefix` bytes decoded as whole valid records. Keep the
/// evidence (copy the damaged segment aside as `.corrupt`), truncate it
/// in place to the valid prefix, and rename every younger segment aside
/// as `.orphaned` — they are history past the damage, which the
/// recovery contract refuses to replay. Leaving any of this in the
/// replay path would stall every future recovery at this same spot,
/// silently eating the new epoch's acknowledged, fsync'd segments.
fn quarantine_damage(
    segs: &[(u64, PathBuf)],
    idx: usize,
    valid_prefix: u64,
) -> Result<(), WalError> {
    let path = &segs[idx].1;
    fs::copy(path, quarantine_name(path, "corrupt"))?;
    let file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_prefix)?;
    file.sync_all()?;
    for (_, younger) in &segs[idx + 1..] {
        fs::rename(younger, quarantine_name(younger, "orphaned"))?;
    }
    Ok(())
}

/// Survives-poison lock (one panicking thread must not wedge the log).
/// Sound for every mutex here: each update leaves its data valid at every
/// step, and what a panicking leader may have left *in the file* is the
/// fail-stop flag's business, not the mutex's.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A writer, as the closing rule knows it: one number per thread, handed
/// out the first time the thread stages.
type WriterId = u64;

fn writer_id() -> WriterId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: WriterId = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

/// Batches applied to the table, in apply order: the staged ones waiting
/// for a leader, or the group a leader is logging.
#[derive(Default)]
struct Batches {
    ops: Vec<WalOp>,
    /// Where each batch ends in `ops`. A batch becomes one record.
    cuts: Vec<usize>,
    /// The threads whose batches these are, each once.
    writers: Vec<WriterId>,
}

/// What the ordering lock guards.
struct Stage {
    staged: Batches,
    /// Sequence number the next staged op gets: the next ticket.
    next_seq: u64,
}

/// The log and everything only a leader touches. It sits in
/// [`Commit::log`] while nobody leads and travels with the [`Lead`] that
/// took it, so no lock is held across the device wait.
struct LogState {
    writer: WalWriter,
    seg_no: u64,
    records_since_snapshot: u64,
    /// The group being logged. Closing a group swaps this with
    /// [`Stage::staged`], so the two sets of buffers take turns and a
    /// steady state allocates nothing.
    group: Batches,
    /// Who rode the last two groups, and what logging a group has cost:
    /// its append and its sync, if the policy asked for one.
    rule: ClosingRule<WriterId>,
}

impl LogState {
    fn new(writer: WalWriter, seg_no: u64) -> Self {
        Self {
            writer,
            seg_no,
            records_since_snapshot: 0,
            group: Batches::default(),
            rule: ClosingRule::default(),
        }
    }
}

/// What the commit lock guards.
struct Commit {
    /// The log, while nobody leads: whoever takes it is the leader.
    log: Option<LogState>,
    /// Threads asleep on [`Core::log_returned`]. A leader with nobody to
    /// wake — every group of a lone writer — skips the wake-up, which is
    /// a system call whether or not anyone is listening.
    sleepers: usize,
    stats: CommitStats,
}

/// Counters of the commit pipeline, from [`DurableTable::commit_stats`].
/// `records / groups` is how many batches share one device wait.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Groups logged: one `append` and at most one `sync` each.
    pub groups: u64,
    /// Records logged: one per batch that had an effect.
    pub records: u64,
    /// Ops logged.
    pub ops: u64,
    /// Groups whose leader waited out the closing rule's whole bound for
    /// a writer that did not come.
    pub waits_expired: u64,
}

struct Core<T> {
    inner: T,
    dir: Option<PathBuf>,
    snapshot_every: Option<u64>,
    /// The **ordering lock**: a mutation applies to `inner` and stages
    /// its effective ops under it, so stage order = apply order = log
    /// order. Short: never held across log I/O.
    stage: Mutex<Stage>,
    /// The **commit lock**: hands the log to one leader at a time and
    /// guards what leaders publish. Short: a leader takes the log *out*
    /// and does its I/O with no lock held.
    commit: Mutex<Commit>,
    /// Signalled, with `commit`, whenever a leader returns the log:
    /// followers re-check their ticket, the next leader steps up.
    log_returned: Condvar,
    /// Last sequence number logged as the policy asks. Stored (`Release`)
    /// by the leader under `commit` after its append and sync returned;
    /// an `Acquire` load that sees `s` therefore happens after every op
    /// up to `s` reached the device.
    committed: AtomicU64,
    /// Serializes snapshot bodies (explicit and background).
    snap_mutex: Mutex<()>,
    /// Set while a background snapshot is queued or running, so the
    /// write path spawns at most one.
    snap_pending: AtomicBool,
    snapshots_taken: AtomicU64,
    /// Sticky fail-stop flag: set when a leader's append fails or a
    /// leader unwinds, either of which may leave torn bytes at the end of
    /// the log. Set before the log is returned, so everyone that wakes —
    /// the group's waiters, the next stager, `sync`, a snapshot — sees it
    /// and refuses to go on: recovery stops at the tear, so anything
    /// logged after it would be acknowledged yet lost.
    wal_failed: AtomicBool,
}

/// The leader's side of the pipeline: the log, out of [`Commit::log`]
/// until this drops. The drop is the one place a leader publishes — it
/// advances `committed` over the group it logged, returns the log and
/// wakes everybody — so a leader that fails or *unwinds* wakes its
/// followers exactly as one that succeeds does, only with the fail-stop
/// flag up and `committed` where it was.
struct Lead<'a, T> {
    core: &'a Core<T>,
    /// `Some` until the drop.
    log: Option<LogState>,
    /// The group this leader logged, to be published.
    logged: Option<Logged>,
}

struct Logged {
    /// Ticket of the group's last op.
    through: u64,
    records: u64,
    ops: u64,
    expired: bool,
}

impl<T> Lead<'_, T> {
    fn log(&mut self) -> &mut LogState {
        self.log.as_mut().expect("held until the drop")
    }

    /// Log one group, in three steps. *Close it*: swap out everything
    /// staged — at once, or, for a leader that is itself a writer
    /// (`closing_for`), when the [closing rule](ClosingRule) says so — its
    /// writers are threads, and a thread has come once it has staged. The
    /// wait is a `yield_now` loop, not a timed sleep: its bound is a
    /// fraction of one device wait, shorter than a timer can keep.
    /// *Log it*: one record per batch, one `append`, at most one `sync`,
    /// no lock held. *Note the outcome* for the drop to publish. Returns
    /// whether the snapshot cadence has come due; an `Err` has
    /// fail-stopped the table.
    fn log_group(&mut self, closing_for: Option<WriterId>) -> Result<bool, WalError> {
        let Lead { core, log, logged } = self;
        let log = log.as_mut().expect("held until the drop");
        let mut opened = None;
        let (through, expired) = loop {
            let mut s = lock(&core.stage);
            let verdict = closing_for.map_or(Closing::Close, |me| {
                let waited = opened.map_or(Duration::ZERO, |o: Instant| o.elapsed());
                let came = |w: &WriterId| *w == me || s.staged.writers.contains(w);
                log.rule.closing(came, waited)
            });
            if verdict == Closing::Wait {
                drop(s);
                opened.get_or_insert_with(Instant::now);
                std::thread::yield_now();
                continue;
            }
            std::mem::swap(&mut s.staged, &mut log.group);
            break (s.next_seq - 1, verdict == Closing::Expired);
        };
        let records = log.group.cuts.len() as u64;
        if records == 0 {
            return Ok(false);
        }
        let started = Instant::now();
        if let Err(e) = log.writer.log_group(&log.group.ops, &log.group.cuts) {
            core.wal_failed.store(true, Ordering::SeqCst);
            return Err(e.into());
        }
        debug_assert_eq!(log.writer.next_seq() - 1, through, "tickets are log sequence numbers");
        log.records_since_snapshot += records;
        *logged = Some(Logged { through, records, ops: log.group.ops.len() as u64, expired });
        log.rule.flushed(log.group.writers.drain(..), started.elapsed());
        log.group.ops.clear();
        log.group.cuts.clear();
        Ok(core.dir.is_some()
            && core.snapshot_every.is_some_and(|every| log.records_since_snapshot >= every))
    }
}

impl<T> Drop for Lead<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.core.wal_failed.store(true, Ordering::SeqCst);
        }
        let mut c = lock(&self.core.commit);
        if let Some(g) = self.logged.take() {
            self.core.committed.store(g.through, Ordering::Release);
            c.stats.groups += 1;
            c.stats.records += g.records;
            c.stats.ops += g.ops;
            c.stats.waits_expired += u64::from(g.expired);
        }
        c.log = self.log.take();
        let sleepers = c.sleepers;
        drop(c);
        if sleepers > 0 {
            self.core.log_returned.notify_all();
        }
    }
}

/// Outcome of one snapshot pass.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotStats {
    /// Every op with `seq <= covered_seq` is reflected in the file.
    pub covered_seq: u64,
    /// Entries written.
    pub entries: usize,
}

impl<T: ConcurrentTable> Core<T> {
    fn new(inner: T, dir: Option<PathBuf>, snapshot_every: Option<u64>, log: LogState) -> Self {
        let next_seq = log.writer.next_seq();
        Self {
            inner,
            dir,
            snapshot_every,
            stage: Mutex::new(Stage { staged: Batches::default(), next_seq }),
            commit: Mutex::new(Commit {
                log: Some(log),
                sleepers: 0,
                stats: CommitStats::default(),
            }),
            log_returned: Condvar::new(),
            committed: AtomicU64::new(next_seq - 1),
            snap_mutex: Mutex::new(()),
            snap_pending: AtomicBool::new(false),
            snapshots_taken: AtomicU64::new(0),
            wal_failed: AtomicBool::new(false),
        }
    }

    /// Run a mutation under the ordering lock and stage the ops it says
    /// took effect as one batch — one record to come. Returns the
    /// mutation's own result and the batch's **ticket**, the sequence
    /// number of its last op (`None` when nothing took effect: there is
    /// nothing to wait for). Refuses on a fail-stopped table: an op
    /// applied now could never be logged.
    fn stage<R>(&self, mutate: impl FnOnce(&T, &mut Vec<WalOp>) -> R) -> (R, Option<u64>) {
        let mut s = lock(&self.stage);
        if self.wal_failed.load(Ordering::SeqCst) {
            panic!("{}", WalError::FailStopped);
        }
        let before = s.staged.ops.len();
        let result = mutate(&self.inner, &mut s.staged.ops);
        let end = s.staged.ops.len();
        if end == before {
            return (result, None);
        }
        s.staged.cuts.push(end);
        let me = writer_id();
        if !s.staged.writers.contains(&me) {
            s.staged.writers.push(me);
        }
        s.next_seq += (end - before) as u64;
        (result, Some(s.next_seq - 1))
    }

    /// Block until `ticket` is committed. Whoever finds its ticket
    /// uncommitted and the log at rest takes the log and **leads**: every
    /// batch staged by then — its own among them, since no earlier leader
    /// is left to have taken it — goes out as one group. Everybody else
    /// sleeps until a leader returns the log and looks again, so a ticket
    /// staged while a group was being logged rides the next one. Returns
    /// whether this call led a group that found a snapshot due.
    ///
    /// Panics, acknowledging nothing, when the ticket's group (or any
    /// before it) failed to log.
    fn commit_through(&self, ticket: u64) -> bool {
        let mut snapshot_due = false;
        // `committed` is looked at under the lock leaders publish under,
        // or a leader's wake-up could slip by unseen.
        let mut c = lock(&self.commit);
        while self.committed.load(Ordering::Acquire) < ticket {
            if self.wal_failed.load(Ordering::SeqCst) {
                panic!("{}", WalError::FailStopped);
            }
            let Some(log) = c.log.take() else {
                c = self.sleep_until_log_returned(c);
                continue;
            };
            drop(c);
            let mut lead = Lead { core: self, log: Some(log), logged: None };
            let led = lead.log_group(Some(writer_id()));
            drop(lead); // publishes, or wakes the failed group's other waiters
            match led {
                Ok(due) => snapshot_due |= due,
                Err(e) => panic!("WAL append failed — cannot acknowledge unlogged mutations: {e}"),
            }
            c = lock(&self.commit);
        }
        snapshot_due
    }

    /// Take the leader's side as soon as nobody holds it — for the
    /// callers that are not waiting on a ticket: `sync`, snapshot
    /// rotation, the final sync of a drop.
    fn lead_when_free(&self) -> Result<Lead<'_, T>, WalError> {
        let mut c = lock(&self.commit);
        loop {
            if self.wal_failed.load(Ordering::SeqCst) {
                return Err(WalError::FailStopped);
            }
            if let Some(log) = c.log.take() {
                return Ok(Lead { core: self, log: Some(log), logged: None });
            }
            c = self.sleep_until_log_returned(c);
        }
    }

    fn sleep_until_log_returned<'a>(
        &self,
        mut c: MutexGuard<'a, Commit>,
    ) -> MutexGuard<'a, Commit> {
        c.sleepers += 1;
        c = self.log_returned.wait(c).unwrap_or_else(|poisoned| poisoned.into_inner());
        c.sleepers -= 1;
        c
    }

    /// Log whatever is staged, then fsync regardless of policy.
    fn sync(&self) -> Result<(), WalError> {
        let mut lead = self.lead_when_free()?;
        lead.log_group(None)?;
        Ok(lead.log().writer.sync()?)
    }

    fn snapshot(&self) -> Result<SnapshotStats, WalError> {
        let _serialize = lock(&self.snap_mutex);
        let dir = self.dir.as_deref().ok_or(WalError::SnapshotUnavailable)?;
        // Rotate from the leader's side, so no group is mid-append: the
        // snapshot covers exactly what is *logged*. Ops staged but not
        // yet logged number past `covered_seq` and land in the new
        // segment; they are already applied, so the scan below may see
        // them, and replaying them over it changes nothing.
        let (covered_seq, new_seg) = {
            let mut lead = self.lead_when_free()?;
            let log = lead.log();
            log.writer.sync()?;
            let covered_seq = log.writer.next_seq() - 1;
            let new_seg = log.seg_no + 1;
            let file = FileWal::create(&dir.join(segment_name(new_seg)))?;
            log.writer.swap_file(Box::new(file));
            log.seg_no = new_seg;
            log.records_since_snapshot = 0;
            (covered_seq, new_seg)
        };
        // Scan with the log returned: writers keep committing to the new
        // segment; the capture locks one shard at a time. A shard
        // mid-migration contributes both of its generations (see
        // `ConcurrentTable::for_each_shared`), so a snapshot taken during
        // a live growth or scheme switch is still complete.
        let mut entries = Vec::with_capacity(self.inner.len_shared());
        self.inner.for_each_shared(&mut |k, v| entries.push((k, v)));
        snapshot::write(dir, covered_seq, &entries)?;
        // Old segments are fully covered by the published snapshot.
        for (no, path) in list_segments(dir)? {
            if no < new_seg {
                let _ = fs::remove_file(path);
            }
        }
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        Ok(SnapshotStats { covered_seq, entries: entries.len() })
    }
}

/// A [`ConcurrentTable`] whose every mutation is group-committed to a
/// write-ahead log before it is acknowledged. See the [module
/// docs](self) for the logging, read-vs-crash, snapshot, and recovery
/// contracts.
pub struct DurableTable<T: ConcurrentTable> {
    core: Arc<Core<T>>,
    snap_thread: Mutex<Option<JoinHandle<()>>>,
}

impl<T: ConcurrentTable> fmt::Debug for DurableTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableTable")
            .field("dir", &self.core.dir)
            .field("len", &self.core.inner.len_shared())
            .field("snapshots_taken", &self.core.snapshots_taken.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl DurableTable<ShardedTable<BoxedTable>> {
    /// Open (or create) the durable table a [`TableBuilder`] describes.
    ///
    /// The builder must carry [`TableBuilder::wal`]; its directory is
    /// created if missing, the snapshot (if any) is loaded, every
    /// surviving log segment is replayed per the recovery contract, and
    /// a fresh segment is opened for this epoch's appends. The table
    /// itself is `builder.build_sharded()` — the whole
    /// scheme × hash × shards × growth grid composes with durability.
    ///
    /// # Panics
    ///
    /// When the builder has no WAL directory — that is a
    /// misconfiguration, not a runtime condition.
    pub fn open(builder: &TableBuilder) -> Result<(Self, RecoveryReport), WalError> {
        let dir = builder
            .wal_dir()
            .expect("DurableTable::open wants a builder with .wal(dir) set")
            .to_path_buf();
        fs::create_dir_all(&dir)?;
        let inner = builder.build_sharded();
        let mut report = RecoveryReport::default();

        let mut covered_seq = 0u64;
        if let Some((cov, entries)) = snapshot::load(&dir)? {
            covered_seq = cov;
            report.snapshot_entries = entries.len() as u64;
            report.last_seq = cov;
            let mut out = Vec::new();
            let mut refused = 0u64;
            for chunk in entries.chunks(1024) {
                out.clear();
                out.resize(chunk.len(), Ok(InsertOutcome::Inserted));
                inner.insert_batch_shared(chunk, &mut out);
                refused += out.iter().filter(|r| r.is_err()).count() as u64;
            }
            if refused > 0 {
                return Err(WalError::SnapshotRestore { failed: refused });
            }
        }

        let segs = list_segments(&dir)?;
        let mut damage = None;
        for (idx, (_, path)) in segs.iter().enumerate() {
            let bytes = fs::read(path)?;
            let part = replay_into(&bytes, &inner, covered_seq);
            let dirty = !part.clean();
            let valid_prefix = part.valid_prefix_bytes;
            report.absorb(part);
            if dirty {
                // Never replay past the first bad checksum — later
                // segments are younger than the damage.
                damage = Some((idx, valid_prefix));
                break;
            }
        }
        if let Some((idx, valid_prefix)) = damage {
            quarantine_damage(&segs, idx, valid_prefix)?;
        }

        let seg_no = segs.last().map_or(1, |&(no, _)| no + 1);
        let file = FileWal::create(&dir.join(segment_name(seg_no)))?;
        let writer = WalWriter::new(Box::new(file), report.last_seq + 1, builder.fsync_kind());
        let core = Core::new(
            inner,
            Some(dir),
            builder.snapshot_threshold(),
            LogState::new(writer, seg_no),
        );
        Ok((Self { core: Arc::new(core), snap_thread: Mutex::new(None) }, report))
    }
}

impl<T: ConcurrentTable + 'static> DurableTable<T> {
    /// Wrap `inner` with logging into an arbitrary [`WalFile`] — the
    /// fault-injection entry point (a [`MemWal`](crate::MemWal) here
    /// lets tests tear the byte stream at any offset). No directory, so
    /// [`DurableTable::snapshot_now`] is unavailable.
    pub fn with_wal(inner: T, wal: Box<dyn WalFile>, policy: FsyncPolicy) -> Self {
        let core = Core::new(inner, None, None, LogState::new(WalWriter::new(wal, 1, policy), 0));
        Self { core: Arc::new(core), snap_thread: Mutex::new(None) }
    }

    /// The wrapped table (reads may also just use the
    /// [`ConcurrentTable`] methods on `self`, which delegate).
    pub fn inner(&self) -> &T {
        &self.core.inner
    }

    /// Sequence number the next op to take effect will get: the next
    /// ticket. Everything below it is applied; see
    /// [`DurableTable::committed_seq`] for how much of that is logged.
    pub fn next_seq(&self) -> u64 {
        lock(&self.core.stage).next_seq
    }

    /// Last sequence number logged as the [`FsyncPolicy`] asks — under
    /// [`FsyncPolicy::Always`], on stable storage. Ops numbered above it
    /// (up to [`DurableTable::next_seq`]) are applied, and visible to
    /// readers, but a crash now would lose them: this is the fence for a
    /// reader that must not act on a value a crash could un-happen (see
    /// "Reads and crashes" in the [module docs](self)).
    pub fn committed_seq(&self) -> u64 {
        self.core.committed.load(Ordering::Acquire)
    }

    /// What the commit pipeline has done in this epoch.
    pub fn commit_stats(&self) -> CommitStats {
        lock(&self.core.commit).stats
    }

    /// Snapshots completed by this handle (explicit + background).
    pub fn snapshots_taken(&self) -> u64 {
        self.core.snapshots_taken.load(Ordering::Relaxed)
    }

    /// Log whatever is applied but not yet logged, then fsync regardless
    /// of policy.
    pub fn sync(&self) -> Result<(), WalError> {
        self.core.sync()
    }

    /// Take a snapshot *now*, blocking until it is published and the old
    /// segments are pruned. Mutations from other threads proceed
    /// throughout (the log rotation takes the leader's turn, briefly).
    pub fn snapshot_now(&self) -> Result<SnapshotStats, WalError> {
        self.core.snapshot()
    }

    /// Wait for any in-flight background snapshot to finish.
    #[cfg(test)]
    pub fn join_background_snapshot(&self) {
        if let Some(h) = lock(&self.snap_thread).take() {
            let _ = h.join();
        }
    }

    /// The wait half of a blocking mutation, and all of `flush_shared`:
    /// block until `ticket` is committed, then — if this call led the
    /// group that brought the snapshot cadence due — hand a snapshot to
    /// a background thread.
    fn await_ticket(&self, ticket: Option<u64>) {
        let Some(ticket) = ticket else { return };
        if !self.core.commit_through(ticket) {
            return;
        }
        if self
            .core
            .snap_pending
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return; // one at a time
        }
        let core = Arc::clone(&self.core);
        let handle = std::thread::spawn(move || {
            let _ = core.snapshot();
            core.snap_pending.store(false, Ordering::Release);
        });
        let mut slot = lock(&self.snap_thread);
        if let Some(prev) = slot.take() {
            let _ = prev.join();
        }
        *slot = Some(handle);
    }

    fn stage_puts(
        &self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) -> Option<u64> {
        let put_all = |t: &T, ops: &mut Vec<WalOp>| {
            t.insert_batch_shared(items, out);
            let effective = items.iter().zip(out.iter()).filter(|&(_, r)| r.is_ok());
            ops.extend(effective.map(|(&(key, value), _)| WalOp::Put { key, value }));
        };
        self.core.stage(put_all).1
    }

    fn stage_dels(&self, keys: &[u64], out: &mut [Option<u64>]) -> Option<u64> {
        let delete_all = |t: &T, ops: &mut Vec<WalOp>| {
            t.delete_batch_shared(keys, out);
            let effective = keys.iter().zip(out.iter()).filter(|&(_, r)| r.is_some());
            ops.extend(effective.map(|(&key, _)| WalOp::Del { key }));
        };
        self.core.stage(delete_all).1
    }
}

/// Every blocking mutation is *stage, then wait for my ticket*; the
/// `*_deferred` forms are the stage alone and [`flush_shared`] the wait
/// alone, for a caller that wants one wait for many batches.
///
/// [`flush_shared`]: ConcurrentTable::flush_shared
impl<T: ConcurrentTable + 'static> ConcurrentTable for DurableTable<T> {
    fn insert_shared(&self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        let (out, ticket) = self.core.stage(|t, ops| {
            let out = t.insert_shared(key, value);
            ops.extend(out.is_ok().then_some(WalOp::Put { key, value }));
            out
        });
        self.await_ticket(ticket);
        out
    }

    fn lookup_shared(&self, key: u64) -> Option<u64> {
        self.core.inner.lookup_shared(key)
    }

    fn delete_shared(&self, key: u64) -> Option<u64> {
        let (out, ticket) = self.core.stage(|t, ops| {
            let out = t.delete_shared(key);
            ops.extend(out.map(|_| WalOp::Del { key }));
            out
        });
        self.await_ticket(ticket);
        out
    }

    fn lookup_batch_shared(&self, keys: &[u64], out: &mut [Option<u64>]) {
        self.core.inner.lookup_batch_shared(keys, out)
    }

    fn insert_batch_shared(
        &self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        let ticket = self.stage_puts(items, out);
        self.await_ticket(ticket);
    }

    fn delete_batch_shared(&self, keys: &[u64], out: &mut [Option<u64>]) {
        let ticket = self.stage_dels(keys, out);
        self.await_ticket(ticket);
    }

    fn insert_batch_deferred(
        &self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) -> bool {
        self.stage_puts(items, out).is_some()
    }

    fn delete_batch_deferred(&self, keys: &[u64], out: &mut [Option<u64>]) -> bool {
        self.stage_dels(keys, out).is_some()
    }

    fn flush_shared(&self) {
        let last_ticket = lock(&self.core.stage).next_seq - 1;
        self.await_ticket(Some(last_ticket));
    }

    fn len_shared(&self) -> usize {
        self.core.inner.len_shared()
    }

    fn for_each_shared(&self, f: &mut dyn FnMut(u64, u64)) {
        self.core.inner.for_each_shared(f)
    }

    fn stats_shared(&self) -> sevendim_core::TableStats {
        self.core.inner.stats_shared()
    }
}

impl<T: ConcurrentTable> Drop for DurableTable<T> {
    fn drop(&mut self) {
        if let Some(h) = lock(&self.snap_thread).take() {
            let _ = h.join();
        }
        // Best-effort: log what a `*_deferred` caller never flushed, then
        // a final sync. Callers who must *know* call
        // [`DurableTable::sync`] themselves. A fail-stopped table does
        // neither — its log already ends in (possibly torn) failed bytes.
        let _ = self.core.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{GatedWal, MemWal};
    use sevendim_core::TableScheme;
    use std::collections::HashMap;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sevendim-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn builder(dir: &Path) -> TableBuilder {
        TableBuilder::new(TableScheme::LinearProbing).bits(12).shards(2).wal(dir)
    }

    #[test]
    fn mutations_survive_reopen() {
        let dir = tmp_dir("reopen");
        let b = builder(&dir);
        {
            let (t, report) = DurableTable::open(&b).unwrap();
            assert_eq!(report.replayed_ops, 0);
            for i in 0..100u64 {
                t.insert_shared(i, i * 10).unwrap();
            }
            t.delete_shared(7).unwrap();
        }
        let (t, report) = DurableTable::open(&b).unwrap();
        assert_eq!(report.replayed_ops, 101);
        assert!(report.clean());
        assert_eq!(t.len_shared(), 99);
        assert_eq!(t.lookup_shared(3), Some(30));
        assert_eq!(t.lookup_shared(7), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_prunes_segments_and_bounds_replay() {
        let dir = tmp_dir("snapshot");
        let b = builder(&dir);
        {
            let (t, _) = DurableTable::open(&b).unwrap();
            for i in 0..50u64 {
                t.insert_shared(i, i).unwrap();
            }
            let stats = t.snapshot_now().unwrap();
            assert_eq!(stats.covered_seq, 50);
            assert_eq!(stats.entries, 50);
            // Ops after the snapshot land in the fresh segment.
            t.insert_shared(1000, 1).unwrap();
            assert_eq!(t.snapshots_taken(), 1);
        }
        // Only the post-rotation segments remain.
        let segs = list_segments(&dir).unwrap();
        assert!(segs.iter().all(|&(no, _)| no >= 2), "pre-snapshot segment must be pruned");
        let (t, report) = DurableTable::open(&b).unwrap();
        assert_eq!(report.snapshot_entries, 50);
        assert_eq!(report.replayed_ops, 1, "only the tail past the snapshot replays");
        assert_eq!(t.len_shared(), 51);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_stops_cleanly_and_reopen_appends_fresh() {
        let dir = tmp_dir("torn");
        let b = builder(&dir);
        {
            let (t, _) = DurableTable::open(&b).unwrap();
            for i in 0..20u64 {
                t.insert_shared(i, i + 1).unwrap();
            }
        }
        // Tear mid-record: chop 5 bytes off the only segment.
        let seg = list_segments(&dir).unwrap().pop().unwrap().1;
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();
        let (t, report) = DurableTable::open(&b).unwrap();
        assert!(report.clean(), "truncation is a clean stop, not an error");
        assert_eq!(report.replayed_ops, 19, "the torn final record must not phantom-replay");
        assert!(report.truncated_tail_bytes > 0);
        assert_eq!(t.lookup_shared(19), None);
        // The new epoch logs into a *new* segment; the next reopen sees
        // both and still lands on the right state.
        t.insert_shared(19, 20).unwrap();
        drop(t);
        let (t, report) = DurableTable::open(&b).unwrap();
        assert_eq!(t.len_shared(), 20);
        assert!(report.clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tail_is_reported_and_never_replayed_past() {
        let dir = tmp_dir("corrupt-tail");
        let b = builder(&dir);
        let boundary;
        {
            let (t, _) = DurableTable::open(&b).unwrap();
            for i in 0..10u64 {
                t.insert_shared(i, i).unwrap();
            }
            t.sync().unwrap();
            boundary = fs::read(&list_segments(&dir).unwrap()[0].1).unwrap().len();
            for i in 10..20u64 {
                t.insert_shared(i, i).unwrap();
            }
        }
        let seg = list_segments(&dir).unwrap().remove(0).1;
        let mut bytes = fs::read(&seg).unwrap();
        bytes[boundary + 10] ^= 0xFF; // damage the 11th record
        fs::write(&seg, &bytes).unwrap();
        let (t, report) = DurableTable::open(&b).unwrap();
        assert!(!report.clean());
        assert_eq!(report.replayed_ops, 10, "replay must stop at the first bad checksum");
        assert_eq!(t.len_shared(), 10);
        assert!(t.lookup_shared(15).is_none(), "nothing past the damage may leak in");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirty_recovery_truncates_damage_so_the_next_epoch_survives() {
        let dir = tmp_dir("quarantine");
        let b = builder(&dir);
        let boundary;
        {
            let (t, _) = DurableTable::open(&b).unwrap();
            for i in 0..10u64 {
                t.insert_shared(i, i).unwrap();
            }
            t.sync().unwrap();
            boundary = fs::read(&list_segments(&dir).unwrap()[0].1).unwrap().len();
            for i in 10..20u64 {
                t.insert_shared(i, i).unwrap();
            }
        }
        // Disk damage inside the 11th record.
        let seg = list_segments(&dir).unwrap().remove(0).1;
        let mut bytes = fs::read(&seg).unwrap();
        bytes[boundary + 10] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        // Dirty recovery: stops at the damage, quarantines it, and the
        // new epoch accepts fresh acknowledged mutations.
        {
            let (t, report) = DurableTable::open(&b).unwrap();
            assert!(!report.clean());
            assert_eq!(t.len_shared(), 10);
            for i in 100..120u64 {
                t.insert_shared(i, i).unwrap();
            }
        }
        // The damaged original is kept for post-mortem; the segment
        // itself is truncated to its last whole valid record.
        assert!(quarantine_name(&seg, "corrupt").exists(), "evidence copy must exist");
        assert_eq!(fs::read(&seg).unwrap().len(), boundary, "truncated to the valid prefix");
        // The *next* recovery replays straight through into the new
        // epoch. Without the quarantine it would stop at the old damage
        // again and silently lose 20 acknowledged, fsync'd inserts.
        let (t, report) = DurableTable::open(&b).unwrap();
        assert!(report.clean(), "damage was quarantined: {:?}", report.tail_error);
        assert_eq!(t.len_shared(), 30);
        assert_eq!(t.lookup_shared(110), Some(110));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirty_recovery_orphans_segments_younger_than_the_damage() {
        let dir = tmp_dir("orphan");
        let b = builder(&dir);
        {
            let (t, _) = DurableTable::open(&b).unwrap();
            for i in 0..10u64 {
                t.insert_shared(i, i).unwrap();
            }
        }
        {
            // Second epoch: segment 2 gets its own records.
            let (t, _) = DurableTable::open(&b).unwrap();
            for i in 10..20u64 {
                t.insert_shared(i, i).unwrap();
            }
        }
        // Damage the FIRST record of segment 1: nothing from segment 1
        // survives, and segment 2 — younger than the damage — must not
        // replay either (the contract never replays past damage).
        let seg1 = dir.join(segment_name(1));
        let mut bytes = fs::read(&seg1).unwrap();
        bytes[10] ^= 0xFF;
        fs::write(&seg1, &bytes).unwrap();
        let (t, report) = DurableTable::open(&b).unwrap();
        assert!(!report.clean());
        assert_eq!(t.len_shared(), 0, "nothing before the damage, nothing after it");
        assert!(quarantine_name(&dir.join(segment_name(2)), "orphaned").exists());
        assert!(!dir.join(segment_name(2)).exists(), "orphaned segment left the replay path");
        drop(t);
        // The quarantine holds: reopening again is clean and identical.
        let (t, report) = DurableTable::open(&b).unwrap();
        assert!(report.clean());
        assert_eq!(t.len_shared(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// [`WalFile`] that dies after a fixed number of appends, leaving
    /// two thirds of the last one behind — a tear inside a record, the
    /// failure the fail-stop flag exists for. It dies with an error, or
    /// (`panics`) by unwinding through the leader that called it.
    struct FailingWal {
        inner: GatedWal,
        appends_left: usize,
        panics: bool,
    }

    impl WalFile for FailingWal {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            if self.appends_left == 0 {
                let _ = self.inner.append(&bytes[..bytes.len() * 2 / 3]);
                assert!(!self.panics, "injected append panic");
                return Err(std::io::Error::other("injected append failure"));
            }
            self.appends_left -= 1;
            self.inner.append(bytes)
        }

        fn sync(&mut self) -> std::io::Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn wal_append_failure_fail_stops_the_table() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let inner = builder(Path::new("/unused")).build_sharded();
        let gated = GatedWal::new();
        let mem = gated.mem().clone();
        let wal = FailingWal { inner: gated, appends_left: 3, panics: false };
        let t = DurableTable::with_wal(inner, Box::new(wal), FsyncPolicy::Always);
        for i in 0..3u64 {
            t.insert_shared(i, i).unwrap();
        }
        // The 4th append tears (part of a record lands) and panics...
        let torn = catch_unwind(AssertUnwindSafe(|| t.insert_shared(3, 3)));
        assert!(torn.is_err(), "append failure must panic, not acknowledge");
        // ...and every later mutation fail-stops too, before it touches
        // the table — a valid record after the tear would be
        // acknowledged yet unrecoverable.
        let len_at_tear = mem.len();
        let after = catch_unwind(AssertUnwindSafe(|| t.insert_shared(4, 4)));
        assert!(after.is_err(), "fail-stopped table must refuse new mutations");
        let deleted = catch_unwind(AssertUnwindSafe(|| t.delete_shared(0)));
        assert!(deleted.is_err());
        assert!(matches!(t.sync(), Err(WalError::FailStopped)));
        assert_eq!(mem.len(), len_at_tear, "no bytes may follow the tear");
        drop(t);
        // What's on disk recovers to exactly the acknowledged prefix,
        // with the torn half-record as a clean truncated-tail stop.
        let recovered = builder(Path::new("/unused")).build_sharded();
        let report = replay_into(&mem.bytes(), &recovered, 0);
        assert!(report.clean());
        assert_eq!(report.replayed_ops, 3);
        assert!(report.truncated_tail_bytes > 0, "the torn bytes are a truncated tail");
        assert_eq!(recovered.len_shared(), 3);
    }

    /// A group fails with two waiters on it — its leader and a follower
    /// — while an earlier group's writer is already acknowledged. Writer 1
    /// is parked in its sync (the gate) while writers 2 and 3 stage, so
    /// the two share the next group, whose append is the one that dies.
    fn failed_group_wakes_every_waiter(panics: bool) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let gated = GatedWal::new();
        let mem = gated.mem().clone();
        let wal = FailingWal { inner: gated.clone(), appends_left: 1, panics };
        let inner = builder(Path::new("/unused")).build_sharded();
        let t = DurableTable::with_wal(inner, Box::new(wal), FsyncPolicy::Always);
        gated.hold();
        let outcomes: Vec<bool> = std::thread::scope(|scope| {
            let first = scope.spawn(|| t.insert_shared(1, 1).is_ok());
            gated.wait_parked();
            let rest: Vec<_> = [2u64, 3]
                .into_iter()
                .map(|k| {
                    let t = &t;
                    scope.spawn(move || catch_unwind(AssertUnwindSafe(|| t.insert_shared(k, k))))
                })
                .collect();
            while t.next_seq() < 4 {
                std::thread::yield_now(); // until both have staged
            }
            gated.release();
            assert!(first.join().unwrap(), "the group before the failure is acknowledged");
            // Joining is the assertion that nobody is left parked.
            rest.into_iter().map(|h| h.join().unwrap().is_ok()).collect()
        });
        assert_eq!(outcomes, [false, false], "every waiter of the failed group panics");
        assert_eq!((t.committed_seq(), t.next_seq()), (1, 4));
        let len_at_tear = mem.len();
        let after = catch_unwind(AssertUnwindSafe(|| t.insert_shared(4, 4)));
        assert!(after.is_err(), "nothing is acknowledged after the failure");
        assert!(matches!(t.sync(), Err(WalError::FailStopped)));
        assert_eq!(t.commit_stats().groups, 1);
        drop(t);
        assert_eq!(mem.len(), len_at_tear, "no bytes may follow the tear");
        // The tear fell inside the failed group's second record, so its
        // first is whole: a crash may keep a batch nobody was told about
        // — never half of one, and never lose one somebody was.
        let recovered = builder(Path::new("/unused")).build_sharded();
        let report = replay_into(&mem.bytes(), &recovered, 0);
        assert!(report.clean() && report.truncated_tail_bytes > 0);
        assert_eq!((report.replayed_ops, recovered.lookup_shared(1)), (2, Some(1)));
        assert!(recovered.lookup_shared(2).is_some() != recovered.lookup_shared(3).is_some());
    }

    #[test]
    fn append_failure_under_two_writers_panics_leader_and_follower() {
        failed_group_wakes_every_waiter(false);
    }

    #[test]
    fn a_leader_that_unwinds_fail_stops_and_leaves_no_thread_parked() {
        failed_group_wakes_every_waiter(true);
    }

    #[test]
    fn a_writer_that_stops_coming_costs_two_bounded_waits() {
        let mem = MemWal::new();
        let inner = builder(Path::new("/unused")).build_sharded();
        let t = DurableTable::with_wal(inner, Box::new(mem.clone()), FsyncPolicy::Always);
        std::thread::scope(|scope| scope.spawn(|| t.insert_shared(1, 1).unwrap()).join().unwrap());
        assert_eq!(t.commit_stats().waits_expired, 0, "the first group expects nobody");
        // The departed writer rode one of the last two groups twice more.
        for (i, expired) in [(2u64, 1), (3, 2), (4, 2), (5, 2)] {
            t.insert_shared(i, i).unwrap();
            assert_eq!(t.commit_stats().waits_expired, expired, "after insert {i}");
        }
        let want = CommitStats { groups: 5, records: 5, ops: 5, waits_expired: 2 };
        assert_eq!(t.commit_stats(), want);
        assert_eq!(mem.syncs(), 5);
    }

    /// Keys of the puts in `bytes`, which must decode to the end.
    fn logged_keys(bytes: &[u8]) -> Vec<u64> {
        let (mut keys, mut at) = (Vec::new(), 0);
        while let Some((rec, used)) = decode_record(&bytes[at..]).unwrap() {
            keys.extend(rec.ops.iter().map(|op| match *op {
                WalOp::Put { key, .. } | WalOp::Del { key } => key,
            }));
            at += used;
        }
        keys
    }

    #[test]
    fn writers_staged_during_a_sync_share_the_next_one() {
        let gated = GatedWal::new();
        let mem = gated.mem().clone();
        let inner = builder(Path::new("/unused")).build_sharded();
        let t = DurableTable::with_wal(inner, Box::new(gated.clone()), FsyncPolicy::Always);
        // What a writer checks the moment it is acknowledged: its key is
        // in the prefix a crash would keep.
        let acked = |key: u64| {
            let synced = &mem.bytes()[..mem.synced_len()];
            assert!(logged_keys(synced).contains(&key), "{key} acknowledged before its sync");
        };
        gated.hold();
        let staged = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            let (t, acked, staged) = (&t, &acked, &staged);
            // Writer 1 leads the first group and parks in its sync.
            scope.spawn(move || {
                t.insert_shared(1, 1).unwrap();
                acked(1);
            });
            gated.wait_parked();
            // Writers 2 and 3 stage behind it, then wait for their turn.
            for key in [2u64, 3] {
                scope.spawn(move || {
                    let mut out = [Ok(InsertOutcome::Inserted)];
                    assert!(t.insert_batch_deferred(&[(key, key)], &mut out), "a flush is owed");
                    assert_eq!(t.lookup_shared(key), Some(key), "applied before it is logged");
                    staged.wait();
                    t.flush_shared();
                    acked(key);
                });
            }
            staged.wait();
            assert_eq!((t.committed_seq(), t.next_seq()), (0, 4), "applied, nothing committed");
            assert_eq!((mem.syncs(), mem.synced_len()), (0, 0));
            gated.release();
        });
        // One more sync covered both; its leader waited out the bound for
        // writer 1, which had ridden the group before and did not return.
        let want = CommitStats { groups: 2, records: 3, ops: 3, waits_expired: 1 };
        assert_eq!(t.commit_stats(), want);
        assert_eq!((mem.syncs(), t.committed_seq()), (2, 3));
        let mut keys = logged_keys(&mem.bytes());
        keys[1..].sort_unstable(); // writers 2 and 3 staged in either order
        assert_eq!(keys, [1, 2, 3]);
    }

    #[test]
    fn dropping_the_table_logs_what_was_deferred_and_never_flushed() {
        let mem = MemWal::new();
        let inner = builder(Path::new("/unused")).build_sharded();
        let t = DurableTable::with_wal(inner, Box::new(mem.clone()), FsyncPolicy::Never);
        let mut out = [None];
        assert!(!t.delete_batch_deferred(&[9], &mut out), "a miss stages nothing");
        let mut out = [Ok(InsertOutcome::Inserted); 2];
        assert!(t.insert_batch_deferred(&[(1, 1), (2, 2)], &mut out));
        assert!(mem.is_empty());
        drop(t);
        assert_eq!(logged_keys(&mem.bytes()), [1, 2]);
        assert_eq!(mem.synced_len(), mem.len(), "the final sync covers it");
    }

    #[test]
    fn refused_ops_never_enter_the_log() {
        // 2^4 slots, growth off: linear probing holds at most 15 live
        // entries (one slot always stays empty).
        let small = || TableBuilder::new(TableScheme::LinearProbing).bits(4).seed(5);
        let mem = MemWal::new();
        let t = DurableTable::with_wal(
            small().build_sharded(),
            Box::new(mem.clone()),
            FsyncPolicy::Always,
        );
        let mut twin = HashMap::new();
        let mut acked = 0u64;
        for key in 0..40u64 {
            match t.insert_shared(key, key + 1) {
                Ok(_) => {
                    twin.insert(key, key + 1);
                    acked += 1;
                }
                Err(TableError::TableFull) => {}
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        }
        assert!(twin.len() < 40, "the table must have refused some inserts");
        // A batch straddling full: the successful subset (replacements
        // of live keys) logs, the refused remainder doesn't.
        let items: Vec<(u64, u64)> = (0..40u64).map(|k| (k, k * 2)).collect();
        let mut out = vec![Ok(InsertOutcome::Inserted); items.len()];
        t.insert_batch_shared(&items, &mut out);
        for (&(k, v), r) in items.iter().zip(&out) {
            if r.is_ok() {
                twin.insert(k, v);
                acked += 1;
            }
        }
        drop(t);
        // Replay rebuilds from scratch, so its slot layout (and load at
        // each step) differs from the original's: had refusals been
        // logged, replay could admit one and diverge from the
        // acknowledged history. Logging only effects makes that
        // impossible by construction.
        let recovered = small().build_sharded();
        let report = replay_into(&mem.bytes(), &recovered, 0);
        assert!(report.clean());
        assert_eq!(report.replayed_ops, acked, "only acknowledged effects are in the log");
        assert_eq!(recovered.len_shared(), twin.len());
        for (&k, &v) in &twin {
            assert_eq!(recovered.lookup_shared(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn snapshot_too_big_for_the_reopened_table_is_an_error() {
        let dir = tmp_dir("snap-restore");
        let big = TableBuilder::new(TableScheme::LinearProbing).bits(10).seed(5).wal(&dir);
        {
            let (t, _) = DurableTable::open(&big).unwrap();
            for i in 0..100u64 {
                t.insert_shared(i, i).unwrap();
            }
            t.snapshot_now().unwrap();
        }
        // Reopen with 2^4 slots and growth off: the snapshot's 100
        // entries cannot all fit, and silently dropping the overflow
        // would be data loss with `report.clean()` still true.
        let small = TableBuilder::new(TableScheme::LinearProbing).bits(4).seed(5).wal(&dir);
        match DurableTable::open(&small) {
            Err(WalError::SnapshotRestore { failed }) => assert!(failed > 0),
            other => panic!("expected SnapshotRestore, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_snapshot_triggers_on_cadence() {
        let dir = tmp_dir("bg-snap");
        let b = builder(&dir).snapshot_every(10);
        let (t, _) = DurableTable::open(&b).unwrap();
        for i in 0..25u64 {
            t.insert_shared(i, i).unwrap();
        }
        t.join_background_snapshot();
        assert!(t.snapshots_taken() >= 1, "cadence of 10 over 25 records must snapshot");
        drop(t);
        let (t, report) = DurableTable::open(&b).unwrap();
        assert_eq!(t.len_shared(), 25);
        assert!(report.snapshot_entries > 0);
        assert!(report.replayed_ops < 25, "the snapshot must bound the replayed tail");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn memwal_replay_matches_hashmap_twin() {
        let inner = builder(Path::new("/unused")).build_sharded();
        let mem = MemWal::new();
        let t = DurableTable::with_wal(inner, Box::new(mem.clone()), FsyncPolicy::Always);
        let mut twin = HashMap::new();
        let mut effective = 0u64;
        for i in 0..200u64 {
            let key = i % 50;
            if i % 3 == 0 {
                // A delete of an absent key takes no effect and is not
                // logged; only hits count toward the replayable stream.
                effective += u64::from(t.delete_shared(key).is_some());
                twin.remove(&key);
            } else {
                t.insert_shared(key, i).unwrap();
                twin.insert(key, i);
                effective += 1;
            }
        }
        let recovered = builder(Path::new("/unused")).build_sharded();
        let report = replay_into(&mem.bytes(), &recovered, 0);
        assert!(report.clean());
        assert_eq!(report.replayed_ops, effective);
        assert_eq!(recovered.len_shared(), twin.len());
        for (&k, &v) in &twin {
            assert_eq!(recovered.lookup_shared(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn snapshot_during_concurrent_writes_converges() {
        let dir = tmp_dir("concurrent-snap");
        let b = builder(&dir);
        let (t, _) = DurableTable::open(&b).unwrap();
        let t = Arc::new(t);
        for i in 0..500u64 {
            t.insert_shared(i, i).unwrap();
        }
        let writer = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 500..1000u64 {
                    t.insert_shared(i, i).unwrap();
                }
            })
        };
        // Snapshot while the writer runs: rotation + scan overlap live
        // mutations.
        t.snapshot_now().unwrap();
        writer.join().unwrap();
        drop(Arc::try_unwrap(t).map_err(|_| "writer still holds the table").unwrap());
        let (t, report) = DurableTable::open(&b).unwrap();
        assert!(report.clean());
        assert_eq!(t.len_shared(), 1000, "snapshot + tail replay must converge to all writes");
        for i in (0..1000u64).step_by(97) {
            assert_eq!(t.lookup_shared(i), Some(i));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_mid_scheme_switch_is_complete_and_recovers() {
        use sevendim_core::AdaptiveConfig;
        let dir = tmp_dir("switch-snap");
        // One shard, 256 slots at ~59% load, step-1 drain: once the
        // adaptive controller re-targets the scheme, the migration stays
        // in flight for hundreds of mutating ops — plenty of window to
        // snapshot a two-generation shard.
        let b = TableBuilder::new(TableScheme::LinearProbing)
            .bits(8)
            .wal(&dir)
            .incremental(1)
            .adaptive(AdaptiveConfig { check_every: 16, cooldown: 64 });
        {
            let (t, _) = DurableTable::open(&b).unwrap();
            for k in 1..=150u64 {
                t.insert_shared(k, k * 7).unwrap();
            }
            // Miss-heavy read phase (1 write per 100 reads) pushes the
            // observed profile into the static miss-filtering band — the
            // controller switches the shard onto the fingerprint table.
            let mut switched = false;
            for round in 0..300u64 {
                for i in 0..100u64 {
                    assert_eq!(t.lookup_shared(1_000_000 + round * 100 + i), None);
                }
                t.delete_shared(2_000_000 + round);
                if t.stats_shared().scheme_switches > 0 {
                    switched = true;
                    break;
                }
            }
            assert!(switched, "adaptive controller never switched schemes");
            // Snapshot while the drain is still in flight: the capture
            // must cover both generations of the migrating shard.
            let stats = t.snapshot_now().unwrap();
            assert_eq!(stats.entries, 150, "snapshot missed draining-generation entries");
            t.insert_shared(500, 1).unwrap();
        }
        let (t, report) = DurableTable::open(&b).unwrap();
        assert_eq!(report.snapshot_entries, 150);
        assert!(report.clean());
        assert_eq!(t.len_shared(), 151);
        for k in 1..=150u64 {
            assert_eq!(t.lookup_shared(k), Some(k * 7), "key {k} lost across switch + snapshot");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
