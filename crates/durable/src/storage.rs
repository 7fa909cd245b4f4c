//! WAL storage: the [`WalFile`] sink abstraction, its real
//! ([`FileWal`]) and in-memory fault-injection ([`MemWal`], and
//! [`GatedWal`] whose `sync` a test can hold) backends, and the
//! group-committing [`WalWriter`] that frames batches into records and
//! decides when to fsync.
//!
//! `WalFile` exists for exactly one reason beyond `File`: the
//! crash-recovery oracle needs to *observe* the byte stream an
//! acknowledged prefix produced, then tear it at arbitrary offsets
//! (mid-record, mid-group-commit) and prove recovery stops cleanly.
//! [`MemWal`] hands the test a shared handle onto the raw bytes plus the
//! sync history, so "what was on disk at the crash" is a slice the test
//! can truncate and corrupt at will.

use crate::record::{encode_record, WalOp};
use sevendim_core::FsyncPolicy;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

/// An append-only record sink. Implementations must make `append`
/// all-or-nothing *in memory* (a short write is an error), but bytes are
/// only promised durable after `sync` returns.
pub trait WalFile: Send {
    /// Append `bytes` at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Block until every appended byte is on stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// The real thing: an append-mode [`File`], `fsync` via
/// [`File::sync_data`].
pub struct FileWal {
    file: File,
}

impl FileWal {
    /// Create `path` (truncating any previous content) for appending.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        Ok(Self { file })
    }
}

impl WalFile for FileWal {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Shared view into a [`MemWal`]'s history.
#[derive(Default)]
pub struct MemWalState {
    /// Every appended byte, in order.
    pub bytes: Vec<u8>,
    /// Length of the synced prefix (what "survives the crash" under
    /// [`FsyncPolicy::Always`] semantics).
    pub synced_len: usize,
    /// How many times `sync` ran.
    pub syncs: u64,
}

/// In-memory [`WalFile`] for fault injection: clones share one buffer,
/// so a test keeps a handle while a `WalWriter` (or a whole
/// `DurableTable`) writes through the other.
#[derive(Clone, Default)]
pub struct MemWal {
    state: Arc<Mutex<MemWalState>>,
}

impl MemWal {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the appended bytes.
    pub fn bytes(&self) -> Vec<u8> {
        self.lock().bytes.clone()
    }

    /// Total appended length.
    pub fn len(&self) -> usize {
        self.lock().bytes.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of the synced prefix.
    pub fn synced_len(&self) -> usize {
        self.lock().synced_len
    }

    /// Number of `sync` calls so far — the group-commit tests assert
    /// fsyncs are amortized per *batch*, not per op.
    pub fn syncs(&self) -> u64 {
        self.lock().syncs
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemWalState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl WalFile for MemWal {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.lock().bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut s = self.lock();
        s.synced_len = s.bytes.len();
        s.syncs += 1;
        Ok(())
    }
}

/// A [`MemWal`] behind a gate, for tests of who waits for whose sync:
/// while the gate is held, `sync` parks until it is released, and
/// [`GatedWal::wait_parked`] tells the test — without sleeping — that a
/// committer has reached the device wait. Clones share the log and the
/// gate.
#[derive(Clone, Default)]
pub struct GatedWal {
    mem: MemWal,
    gate: Arc<(Mutex<Gate>, Condvar)>,
}

#[derive(Default)]
struct Gate {
    held: bool,
    parked: usize,
}

impl GatedWal {
    /// A fresh, empty log with the gate open.
    pub fn new() -> Self {
        Self::default()
    }

    /// The log behind the gate: its bytes, synced prefix and sync count.
    pub fn mem(&self) -> &MemWal {
        &self.mem
    }

    /// Close the gate: every `sync` from now on parks until
    /// [`GatedWal::release`].
    pub fn hold(&self) {
        self.lock().held = true;
    }

    /// Open the gate and let every parked `sync` through.
    pub fn release(&self) {
        self.lock().held = false;
        self.gate.1.notify_all();
    }

    /// Block until a `sync` is parked at the gate.
    pub fn wait_parked(&self) {
        let mut g = self.lock();
        while g.parked == 0 {
            g = self.gate.1.wait(g).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Gate> {
        self.gate.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl WalFile for GatedWal {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.mem.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut g = self.lock();
        g.parked += 1;
        self.gate.1.notify_all();
        while g.held {
            g = self.gate.1.wait(g).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        g.parked -= 1;
        drop(g);
        self.mem.sync()
    }
}

/// Frames ops into `7DWL` records, appends them to a [`WalFile`], and
/// applies the [`FsyncPolicy`]. One [`WalWriter::log_group`] call is one
/// group commit: however many batches it carries — one record each, so a
/// batch stays the all-or-nothing unit recovery sees — they cost one
/// `append` and at most one fsync. That is the same amortization
/// `conn.rs` gets from run-segmenting a pipelined connection into batch
/// calls, taken one step further: across callers.
pub struct WalWriter {
    file: Box<dyn WalFile>,
    next_seq: u64,
    policy: FsyncPolicy,
    records_since_sync: u64,
    records: u64,
    scratch: Vec<u8>,
}

impl WalWriter {
    /// Wrap `file`, numbering the next logged op `next_seq`.
    pub fn new(file: Box<dyn WalFile>, next_seq: u64, policy: FsyncPolicy) -> Self {
        Self { file, next_seq, policy, records_since_sync: 0, records: 0, scratch: Vec::new() }
    }

    /// Commit `ops` as one record: a group of one batch. Returns the
    /// sequence number of the first op (they number consecutively from
    /// there). An empty batch appends nothing.
    pub fn log(&mut self, ops: &[WalOp]) -> io::Result<u64> {
        self.log_group(ops, &[ops.len()])
    }

    /// Group-commit `ops`, cut into batches: batch `i` is
    /// `ops[cuts[i - 1]..cuts[i]]` (from 0 for the first) and becomes one
    /// record. The records are encoded back to back, handed to the file
    /// in **one** `append`, and followed by at most **one** `sync` —
    /// [`FsyncPolicy::EveryN`] counts every record of the group and syncs
    /// once if the count reached `n`. Returns the sequence number of the
    /// first op. Empty batches, and so empty groups, append nothing.
    pub fn log_group(&mut self, ops: &[WalOp], cuts: &[usize]) -> io::Result<u64> {
        let first = self.next_seq;
        self.scratch.clear();
        let (mut start, mut seq, mut records) = (0, first, 0);
        for &end in cuts {
            if end > start {
                encode_record(seq, &ops[start..end], &mut self.scratch);
                seq += (end - start) as u64;
                records += 1;
            }
            start = end;
        }
        if records == 0 {
            return Ok(first);
        }
        self.file.append(&self.scratch)?;
        self.next_seq = seq;
        self.records += records;
        self.records_since_sync += records;
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.records_since_sync >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        Ok(first)
    }

    /// Force an fsync regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.records_since_sync = 0;
        self.file.sync()
    }

    /// Sequence number the next logged op will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records appended through this writer.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Swap in a fresh segment file (after syncing the old one — the
    /// caller does that as part of snapshot rotation).
    pub fn swap_file(&mut self, file: Box<dyn WalFile>) {
        self.file = file;
        self.records_since_sync = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::decode_record;

    #[test]
    fn group_commit_amortizes_fsync_per_batch() {
        let mem = MemWal::new();
        let mut w = WalWriter::new(Box::new(mem.clone()), 1, FsyncPolicy::Always);
        let batch: Vec<WalOp> = (0..100).map(|i| WalOp::Put { key: i, value: i }).collect();
        assert_eq!(w.log(&batch).unwrap(), 1);
        assert_eq!(mem.syncs(), 1, "one batch = one record = one fsync");
        assert_eq!(w.next_seq(), 101, "ops number consecutively inside the group");
        assert_eq!(mem.synced_len(), mem.len());
        let (rec, used) = decode_record(&mem.bytes()).unwrap().unwrap();
        assert_eq!(used, mem.len());
        assert_eq!(rec.ops.len(), 100);
    }

    #[test]
    fn every_n_policy_syncs_on_cadence() {
        let mem = MemWal::new();
        let mut w = WalWriter::new(Box::new(mem.clone()), 1, FsyncPolicy::EveryN(3));
        for i in 0..7 {
            w.log(&[WalOp::Del { key: i }]).unwrap();
        }
        assert_eq!(mem.syncs(), 2, "7 records at EveryN(3) = syncs after records 3 and 6");
        w.sync().unwrap();
        assert_eq!(mem.syncs(), 3);
        assert_eq!(mem.synced_len(), mem.len());
    }

    #[test]
    fn never_policy_still_syncs_on_demand() {
        let mem = MemWal::new();
        let mut w = WalWriter::new(Box::new(mem.clone()), 1, FsyncPolicy::Never);
        w.log(&[WalOp::Put { key: 1, value: 2 }]).unwrap();
        assert_eq!(mem.syncs(), 0);
        w.sync().unwrap();
        assert_eq!(mem.syncs(), 1);
    }

    #[test]
    fn a_group_is_one_record_per_batch_one_append_and_one_sync() {
        // Counts the `append` calls on top of what `MemWal` records.
        struct Counting(MemWal, Arc<Mutex<u64>>);
        impl WalFile for Counting {
            fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
                *self.1.lock().unwrap() += 1;
                self.0.append(bytes)
            }
            fn sync(&mut self) -> io::Result<()> {
                self.0.sync()
            }
        }
        let (mem, appends) = (MemWal::new(), Arc::new(Mutex::new(0)));
        let file = Counting(mem.clone(), Arc::clone(&appends));
        let mut w = WalWriter::new(Box::new(file), 1, FsyncPolicy::Always);
        let ops: Vec<WalOp> = (0..6).map(|key| WalOp::Del { key }).collect();
        // Batches of 2, 0, 3 and 1 ops: the empty one leaves no record.
        assert_eq!(w.log_group(&ops, &[2, 2, 5, 6]).unwrap(), 1);
        assert_eq!((*appends.lock().unwrap(), mem.syncs(), w.records()), (1, 1, 3));
        assert_eq!(w.next_seq(), 7);
        // Byte for byte what three single-batch commits write.
        let twin = MemWal::new();
        let mut one_by_one = WalWriter::new(Box::new(twin.clone()), 1, FsyncPolicy::Always);
        for batch in [&ops[..2], &ops[2..5], &ops[5..]] {
            one_by_one.log(batch).unwrap();
        }
        assert_eq!(mem.bytes(), twin.bytes());
        assert_eq!(twin.syncs(), 3);
    }

    #[test]
    fn every_n_counts_each_record_of_a_group_and_syncs_at_most_once() {
        let mem = MemWal::new();
        let mut w = WalWriter::new(Box::new(mem.clone()), 1, FsyncPolicy::EveryN(3));
        let ops: Vec<WalOp> = (0..8).map(|key| WalOp::Del { key }).collect();
        w.log_group(&ops[..2], &[1, 2]).unwrap();
        assert_eq!(mem.syncs(), 0, "two records are under the cadence");
        w.log_group(&ops[2..], &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(mem.syncs(), 1, "eight records in two groups: one sync, not two");
        assert_eq!(mem.synced_len(), mem.len());
        w.log(&ops[..1]).unwrap();
        assert_eq!(mem.syncs(), 1, "the count restarts after a sync");
    }

    #[test]
    fn gated_sync_parks_until_released() {
        let wal = GatedWal::new();
        wal.hold();
        let mut dev = wal.clone();
        dev.append(b"abc").unwrap();
        std::thread::scope(|scope| {
            let syncing = scope.spawn(move || dev.sync().unwrap());
            wal.wait_parked();
            assert_eq!((wal.mem().syncs(), wal.mem().synced_len()), (0, 0));
            wal.release();
            syncing.join().unwrap();
        });
        assert_eq!((wal.mem().syncs(), wal.mem().synced_len()), (1, 3));
    }

    #[test]
    fn empty_groups_append_nothing() {
        let mem = MemWal::new();
        let mut w = WalWriter::new(Box::new(mem.clone()), 5, FsyncPolicy::Always);
        assert_eq!(w.log(&[]).unwrap(), 5);
        assert!(mem.is_empty());
        assert_eq!(w.next_seq(), 5);
        assert_eq!(mem.syncs(), 0, "an empty group must not pay an fsync");
    }
}
