//! [`DurableTable`]: a write-ahead-logged wrapper around any
//! [`ConcurrentTable`], with recovery-on-open and non-stop snapshots.
//!
//! # Write path
//!
//! Every mutation takes the log mutex, applies the ops to the wrapped
//! table, appends one group-commit record holding exactly the ops that
//! *took effect* (framed and fsync'd per the [`FsyncPolicy`]), and only
//! then returns — so by the time a caller sees an outcome, the op is in
//! the log, and the log order **is** the apply order (apply and append
//! share one critical section, so two racing PUTs to one key replay in
//! the order they were applied, not some other order). Logging *after*
//! the apply, and only on success, is what keeps replay honest: a
//! refused insert ([`TableError::TableFull`] on a fixed-capacity build)
//! or a delete of an absent key never enters the log, so recovery —
//! which rebuilds from a snapshot whose slot layout differs from the
//! original table — can never turn an acknowledged refusal into a
//! phantom mutation. Reads never touch the mutex — `lookup_shared` and
//! friends go straight to the wrapped table, so the lock-free seqlock
//! read path stays lock-free.
//!
//! WAL I/O failure on the write path **fail-stops the whole table**: a
//! failed append may leave a torn record at the end of the log, and
//! since recovery never replays past a tear, nothing appended after it
//! could ever be recovered. The failing thread flips a sticky
//! `wal_failed` flag *before* panicking, and every mutation checks it
//! under the log lock — so threads that survive the panic (the log
//! `lock()` deliberately recovers from poisoning) panic too instead of
//! appending valid-looking records beyond the tear. Pretending otherwise
//! (returning `Ok` without durability, or inventing a `TableError`)
//! would corrupt the recovery contract.
//!
//! # Snapshots never stop the world
//!
//! A snapshot rotates the log (brief log-lock hold: fsync, note
//! `covered_seq`, open a fresh segment), then scans the table through
//! [`ConcurrentTable::for_each_shared`] — one shard locked at a time,
//! both generations of a mid-growth shard included, exactly the
//! incremental-drain iteration growth itself uses — while writers keep
//! logging to the new segment. The scan may therefore observe effects of
//! ops logged *after* `covered_seq`; that is sound because recovery
//! replays every op with `seq > covered_seq` in log order on top of the
//! snapshot, and per-key last-writer-wins makes the replayed tail
//! converge to the true final state regardless of which tail effects the
//! scan happened to catch.
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
    BoxedTable, ConcurrentTable, EntrySnapshot, FsyncPolicy, InsertOutcome, ShardedTable,
    TableBuilder, TableError,
};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

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
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct LogState {
    writer: WalWriter,
    seg_no: u64,
    records_since_snapshot: u64,
    /// The mutation paths gather their effective ops here, so a commit
    /// allocates nothing while it holds the log mutex.
    ops: Vec<WalOp>,
}

struct Core<T> {
    inner: T,
    dir: Option<PathBuf>,
    snapshot_every: Option<u64>,
    log: Mutex<LogState>,
    /// Serializes snapshot bodies (explicit and background).
    snap_mutex: Mutex<()>,
    /// Set while a background snapshot is queued or running, so the
    /// write path spawns at most one.
    snap_pending: AtomicBool,
    snapshots_taken: AtomicU64,
    /// Sticky fail-stop flag: set (under the log lock) when a WAL
    /// append fails, possibly leaving torn bytes at the end of the log.
    /// Every mutation/sync/snapshot checks it under the log lock, so a
    /// thread that recovers the poisoned mutex after the panic can
    /// never append a valid record past the tear (recovery stops at the
    /// tear — anything after it would be acknowledged yet lost).
    wal_failed: AtomicBool,
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
    fn snapshot(&self) -> Result<SnapshotStats, WalError> {
        let _serialize = lock(&self.snap_mutex);
        let dir = self.dir.as_deref().ok_or(WalError::SnapshotUnavailable)?;
        // Rotate under the log lock: everything logged so far is also
        // applied (same critical section), so `covered_seq` is exact.
        let (covered_seq, new_seg) = {
            let mut log = lock(&self.log);
            if self.wal_failed.load(Ordering::Relaxed) {
                return Err(WalError::FailStopped);
            }
            log.writer.sync()?;
            let covered_seq = log.writer.next_seq() - 1;
            let new_seg = log.seg_no + 1;
            let file = FileWal::create(&dir.join(segment_name(new_seg)))?;
            log.writer.swap_file(Box::new(file));
            log.seg_no = new_seg;
            log.records_since_snapshot = 0;
            (covered_seq, new_seg)
        };
        // Scan with no log lock held: writers keep committing to the new
        // segment; the capture locks one shard at a time. A shard
        // mid-migration contributes both of its generations (see
        // `ConcurrentTable::for_each_shared`), so a snapshot taken during
        // a live growth or scheme switch is still complete.
        let entries = EntrySnapshot::pairs_of_shared(&self.inner);
        snapshot::write(dir, covered_seq, entries.as_slice())?;
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
/// docs](self) for the write-path, snapshot, and recovery contracts.
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
        let core = Core {
            inner,
            dir: Some(dir),
            snapshot_every: builder.snapshot_threshold(),
            log: Mutex::new(LogState {
                writer,
                seg_no,
                records_since_snapshot: 0,
                ops: Vec::new(),
            }),
            snap_mutex: Mutex::new(()),
            snap_pending: AtomicBool::new(false),
            snapshots_taken: AtomicU64::new(0),
            wal_failed: AtomicBool::new(false),
        };
        Ok((Self { core: Arc::new(core), snap_thread: Mutex::new(None) }, report))
    }
}

impl<T: ConcurrentTable + 'static> DurableTable<T> {
    /// Wrap `inner` with logging into an arbitrary [`WalFile`] — the
    /// fault-injection entry point (a [`MemWal`](crate::MemWal) here
    /// lets tests tear the byte stream at any offset). No directory, so
    /// [`DurableTable::snapshot_now`] is unavailable.
    pub fn with_wal(inner: T, wal: Box<dyn WalFile>, policy: FsyncPolicy) -> Self {
        let core = Core {
            inner,
            dir: None,
            snapshot_every: None,
            log: Mutex::new(LogState {
                writer: WalWriter::new(wal, 1, policy),
                seg_no: 0,
                records_since_snapshot: 0,
                ops: Vec::new(),
            }),
            snap_mutex: Mutex::new(()),
            snap_pending: AtomicBool::new(false),
            snapshots_taken: AtomicU64::new(0),
            wal_failed: AtomicBool::new(false),
        };
        Self { core: Arc::new(core), snap_thread: Mutex::new(None) }
    }

    /// The wrapped table (reads may also just use the
    /// [`ConcurrentTable`] methods on `self`, which delegate).
    pub fn inner(&self) -> &T {
        &self.core.inner
    }

    /// Sequence number the next mutation will get.
    pub fn next_seq(&self) -> u64 {
        lock(&self.core.log).writer.next_seq()
    }

    /// Records group-committed so far in this epoch.
    pub fn records_logged(&self) -> u64 {
        lock(&self.core.log).writer.records()
    }

    /// Snapshots completed by this handle (explicit + background).
    pub fn snapshots_taken(&self) -> u64 {
        self.core.snapshots_taken.load(Ordering::Relaxed)
    }

    /// Force an fsync of the log regardless of policy.
    pub fn sync(&self) -> Result<(), WalError> {
        let mut log = lock(&self.core.log);
        if self.core.wal_failed.load(Ordering::Relaxed) {
            return Err(WalError::FailStopped);
        }
        Ok(log.writer.sync()?)
    }

    /// Take a snapshot *now*, blocking until it is published and the old
    /// segments are pruned. Mutations from other threads proceed
    /// throughout (only the brief log rotation holds the log lock).
    pub fn snapshot_now(&self) -> Result<SnapshotStats, WalError> {
        self.core.snapshot()
    }

    /// Wait for any in-flight background snapshot to finish.
    pub fn join_background_snapshot(&self) {
        if let Some(h) = lock(&self.snap_thread).take() {
            let _ = h.join();
        }
    }

    /// Take the log lock for one mutation, honoring the fail-stop flag:
    /// after an append failure the log may end in torn bytes, and any
    /// record appended past them would be acknowledged yet unrecoverable
    /// (replay stops at the tear), so a fail-stopped table refuses every
    /// further mutation — including from threads that survive the
    /// original panic through the poison-recovering [`lock`]. The guard
    /// comes back with `ops` empty, for the mutation to fill.
    fn begin(&self) -> MutexGuard<'_, LogState> {
        let mut log = lock(&self.core.log);
        if self.core.wal_failed.load(Ordering::Relaxed) {
            panic!("{}", WalError::FailStopped);
        }
        log.ops.clear();
        log
    }

    /// Log the ops that took effect (the mutation gathered them in
    /// `log.ops`) — still inside the critical section their apply ran in
    /// — then hand off to the snapshot cadence. An append failure flips
    /// the sticky `wal_failed` flag *before* panicking (flag store and
    /// flag check both happen under the log lock, so the ordering is
    /// free), fail-stopping the whole table.
    fn commit(&self, mut log: MutexGuard<'_, LogState>) {
        let LogState { writer, ops, records_since_snapshot, .. } = &mut *log;
        if !ops.is_empty() {
            if let Err(e) = writer.log(ops) {
                self.core.wal_failed.store(true, Ordering::Relaxed);
                panic!("WAL append failed — cannot acknowledge unlogged mutations: {e}");
            }
            *records_since_snapshot += 1;
        }
        self.maybe_snapshot(log);
    }

    /// Called with the log lock still held (mutation applied, record
    /// logged): decide whether the snapshot cadence fired, and if so
    /// hand the work to a background thread.
    fn maybe_snapshot(&self, log: MutexGuard<'_, LogState>) {
        let due = self.core.dir.is_some()
            && self.core.snapshot_every.is_some_and(|every| log.records_since_snapshot >= every);
        drop(log);
        if !due {
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
}

impl<T: ConcurrentTable + 'static> ConcurrentTable for DurableTable<T> {
    fn insert_shared(&self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        let mut log = self.begin();
        let out = self.core.inner.insert_shared(key, value);
        log.ops.extend(out.is_ok().then_some(WalOp::Put { key, value }));
        self.commit(log);
        out
    }

    fn lookup_shared(&self, key: u64) -> Option<u64> {
        self.core.inner.lookup_shared(key)
    }

    fn delete_shared(&self, key: u64) -> Option<u64> {
        let mut log = self.begin();
        let out = self.core.inner.delete_shared(key);
        log.ops.extend(out.map(|_| WalOp::Del { key }));
        self.commit(log);
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
        if items.is_empty() {
            return self.core.inner.insert_batch_shared(items, out);
        }
        let mut log = self.begin();
        self.core.inner.insert_batch_shared(items, out);
        let effective = items.iter().zip(out.iter()).filter(|&(_, r)| r.is_ok());
        log.ops.extend(effective.map(|(&(key, value), _)| WalOp::Put { key, value }));
        self.commit(log);
    }

    fn delete_batch_shared(&self, keys: &[u64], out: &mut [Option<u64>]) {
        if keys.is_empty() {
            return self.core.inner.delete_batch_shared(keys, out);
        }
        let mut log = self.begin();
        self.core.inner.delete_batch_shared(keys, out);
        let effective = keys.iter().zip(out.iter()).filter(|&(_, r)| r.is_some());
        log.ops.extend(effective.map(|(&key, _)| WalOp::Del { key }));
        self.commit(log);
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
        // Best-effort final sync: callers who must *know* call
        // [`DurableTable::sync`] themselves. A fail-stopped table skips
        // it — the log already ends in (possibly torn) failed bytes.
        if !self.core.wal_failed.load(Ordering::Relaxed) {
            let _ = lock(&self.core.log).writer.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemWal;
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

    /// [`WalFile`] that dies after a fixed number of appends, leaving a
    /// torn half-record behind — the failure the fail-stop flag exists
    /// for.
    struct FailingWal {
        inner: MemWal,
        appends_left: usize,
    }

    impl WalFile for FailingWal {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            if self.appends_left == 0 {
                let _ = self.inner.append(&bytes[..bytes.len() / 2]);
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
        let mem = MemWal::new();
        let wal = FailingWal { inner: mem.clone(), appends_left: 3 };
        let t = DurableTable::with_wal(inner, Box::new(wal), FsyncPolicy::Always);
        for i in 0..3u64 {
            t.insert_shared(i, i).unwrap();
        }
        // The 4th append tears (half a record lands) and panics...
        let torn = catch_unwind(AssertUnwindSafe(|| t.insert_shared(3, 3)));
        assert!(torn.is_err(), "append failure must panic, not acknowledge");
        // ...and every later mutation fail-stops too, even though
        // `lock()` recovers the poisoned mutex — a valid record after
        // the tear would be acknowledged yet unrecoverable.
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
        use sevendim_core::{AdaptiveConfig, MigrationPolicy};
        let dir = tmp_dir("switch-snap");
        // One shard, 256 slots at ~59% load, step-1 drain: once the
        // adaptive controller re-targets the scheme, the migration stays
        // in flight for hundreds of mutating ops — plenty of window to
        // snapshot a two-generation shard.
        let b = TableBuilder::new(TableScheme::LinearProbing)
            .bits(8)
            .wal(&dir)
            .incremental(1)
            .migration(MigrationPolicy::Adaptive(AdaptiveConfig {
                check_every: 8,
                min_lookups: 32,
                cooldown: 64,
            }));
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
