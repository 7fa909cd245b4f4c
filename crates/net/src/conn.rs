//! Per-connection state machine: buffered frame decoding, run-segmented
//! batch execution, and backpressured response writing.
//!
//! Each connection owns a non-blocking socket plus two byte buffers:
//!
//! * **Read side** — readable events append bytes to `rbuf`; complete
//!   frames are decoded off the front. Pipelined requests accumulate
//!   here, and that accumulation is the batching opportunity: all frames
//!   decoded in one pass are split into maximal **runs of the same
//!   opcode** and each run is executed through the table's prefetching
//!   batch API ([`ConcurrentTable::lookup_batch_shared`] /
//!   `insert_batch_shared` / `delete_batch_shared`). Run segmentation —
//!   not sorting — is what preserves the wire contract: a `PUT` followed
//!   by a `GET` of the same key must observe the `PUT`, so frames are
//!   never reordered, only grouped where adjacent. The ops of a `BATCH`
//!   frame go through the same run executor ([`execute_runs`]).
//! * **Durability** — mutations go through the table's `*_deferred`
//!   calls, which apply at once and say whether a flush is **owed**
//!   before the batch may be acknowledged (a logging table; an
//!   in-memory table never owes one). A connection that is owed a flush
//!   is **held**: its encoded answers stay in `wbuf` — no socket write,
//!   no `EPOLLOUT` interest, no close, no further reads — until the
//!   worker's turn has called [`ConcurrentTable::flush_shared`] and
//!   [released](Connection::release) it. That one flush covers every
//!   connection the turn holds, including those it briefly waited for
//!   because they rode the worker's recent flushes. A connection that is
//!   owed nothing never notices any of this.
//! * **Write side** — responses are encoded in place at the end of
//!   `wbuf`, in frame order (no per-frame buffer: the header is
//!   back-patched once the payload is written), and flushed
//!   opportunistically. Partial writes keep their offset;
//!   `EAGAIN` arms `EPOLLOUT`; `EINTR` retries. The queue is **bounded**:
//!   once more than [`WBUF_HIGH`] bytes are pending, the connection
//!   stops reading (its `EPOLLIN` interest is dropped) and stops
//!   decoding, so a slow-reading client stalls only itself — its
//!   requests queue in *its* socket, not in server memory. Reading
//!   resumes once the queue drains below [`WBUF_LOW`].
//!
//! A protocol error (bad magic, bad checksum, oversized length, …)
//! closes the connection: framing is unrecoverable after the first
//! malformed byte, and closing is the only honest reply.

use crate::protocol::{
    decode_request, encode_response, Op, OpResponse, ProtoError, Request, Response,
};
use sevendim_core::{ConcurrentTable, InsertOutcome};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};

use crate::sys::{retry_eintr, EPOLLIN, EPOLLOUT};

/// Stop reading a connection once this many response bytes are pending.
pub const WBUF_HIGH: usize = 256 * 1024;

/// Resume reading once the pending responses drop below this.
pub const WBUF_LOW: usize = 32 * 1024;

/// Per-event read cap: after this many bytes the loop moves on to other
/// connections (level-triggered epoll re-reports the rest).
const READ_BUDGET: usize = 256 * 1024;

/// Why a connection ended.
#[derive(Debug)]
pub(crate) enum Close {
    /// Peer closed its write side (normal end of conversation).
    Eof,
    /// Peer spoke garbage; the typed reason.
    Protocol(ProtoError),
    /// Transport error.
    Io(io::Error),
}

/// Plain frames queue up to this many before they are executed, which
/// bounds the queue and re-checks backpressure at that interval.
const MAX_QUEUED: usize = 1024;

/// Reusable buffers one run is gathered into and answered from.
#[derive(Default)]
struct RunScratch {
    keys: Vec<u64>,
    values: Vec<Option<u64>>,
    items: Vec<(u64, u64)>,
    outcomes: Vec<Result<InsertOutcome, sevendim_core::TableError>>,
}

/// One connection's request execution: the plain (`GET`/`PUT`/`DEL`)
/// frames decoded but not yet executed, as the [`Op`]s they carry, so
/// that adjacent frames of one kind share one batch call.
#[derive(Default)]
struct Executor {
    /// Request ids of the queued frames, index-aligned with `ops`.
    ids: Vec<u64>,
    ops: Vec<Op>,
    run: RunScratch,
    /// Some answer encoded so far may not leave before the table has
    /// been flushed. The connection takes the flag when it pumps.
    owed: bool,
}

impl Executor {
    /// Take one decoded frame and encode into `out` whatever responses
    /// fall due. A plain frame queues behind its neighbours; a `BATCH`
    /// first answers the queue (responses leave in frame order), then
    /// executes its own ops.
    fn frame(
        &mut self,
        id: u64,
        req: Request,
        table: &dyn ConcurrentTable,
        out: &mut Vec<u8>,
        stats: &mut PumpStats,
    ) {
        stats.frames += 1;
        let op = match req {
            Request::Get(k) => Op::Get(k),
            Request::Put(k, v) => Op::Put(k, v),
            Request::Del(k) => Op::Del(k),
            Request::Batch(ops) => {
                self.finish(table, out, stats);
                stats.ops += ops.len() as u64;
                let mut results = Vec::with_capacity(ops.len());
                self.owed |= execute_runs(table, &ops, &mut self.run, |r| results.push(r));
                encode_response(id, &Response::Batch(results), out);
                return;
            }
        };
        self.ids.push(id);
        self.ops.push(op);
        if self.ops.len() >= MAX_QUEUED {
            self.finish(table, out, stats);
        }
    }

    /// Execute the queued frames and encode one response per frame.
    fn finish(&mut self, table: &dyn ConcurrentTable, out: &mut Vec<u8>, stats: &mut PumpStats) {
        stats.ops += self.ops.len() as u64;
        let mut ids = self.ids.iter();
        self.owed |= execute_runs(table, &self.ops, &mut self.run, |r| {
            let id = *ids.next().expect("one id per queued op");
            let response = match r {
                OpResponse::Get(v) => Response::Get(v),
                OpResponse::Put(o) => Response::Put(o),
                OpResponse::Del(v) => Response::Del(v),
            };
            encode_response(id, &response, out);
        });
        self.ids.clear();
        self.ops.clear();
    }
}

/// Counters one pump reports up to the server's totals.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PumpStats {
    /// Request frames answered.
    pub frames: u64,
    /// Table operations executed (a `BATCH` frame counts its ops).
    pub ops: u64,
}

pub(crate) struct Connection {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Start of the unwritten suffix of `wbuf`.
    wstart: usize,
    /// True while backpressure has reading suspended.
    paused: bool,
    /// The peer half-closed its write side: no more requests are
    /// coming, but buffered frames still get answered and pending
    /// responses still drain before the connection closes.
    peer_eof: bool,
    /// `wbuf` holds answers to mutations the table has not flushed yet:
    /// nothing is written until the worker, having flushed, calls
    /// [`Connection::release`] — which it does before its turn ends, so
    /// a connection is never held into the next turn.
    held: bool,
    /// The epoll interest mask currently registered for this fd (the
    /// server syncs it against [`Connection::interest`] after each
    /// event).
    pub registered: u32,
    /// The worker turn that last stepped this connection (the server's
    /// closing rule asks whether a recent writer came this turn).
    pub stepped: u64,
    exec: Executor,
}

impl Connection {
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wstart: 0,
            paused: false,
            peer_eof: false,
            held: false,
            registered: EPOLLIN,
            stepped: 0,
            exec: Executor::default(),
        }
    }

    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Response bytes queued but not yet written (the server's shutdown
    /// drain keeps flushing until this reaches zero).
    pub(crate) fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wstart
    }

    /// Whether the connection waits for the worker's flush.
    pub fn held(&self) -> bool {
        self.held
    }

    /// The table has been flushed since this connection was held: its
    /// answers may leave. The caller follows up with a writable
    /// [`Connection::handle`], which writes them and — if decoding had
    /// stopped at [`WBUF_HIGH`] — decodes on as the buffer drains, which
    /// may hold the connection again.
    pub fn release(&mut self) {
        self.held = false;
    }

    /// The interest mask this connection currently wants.
    pub fn interest(&self) -> u32 {
        let mut mask = 0;
        if !self.paused && !self.peer_eof {
            mask |= EPOLLIN;
        }
        if self.pending_out() > 0 {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Drive the connection after an epoll event (or after an unpause):
    /// read what's available, decode/execute/encode, flush what fits.
    pub fn handle(
        &mut self,
        readable: bool,
        writable: bool,
        table: &dyn ConcurrentTable,
        stats: &mut PumpStats,
    ) -> Result<(), Close> {
        debug_assert!(!self.held, "a held connection is released before it is stepped again");
        if writable {
            self.flush()?;
        }
        if readable && !self.paused && !self.peer_eof {
            self.fill_rbuf()?;
        }
        self.pump(table, stats)?;
        // EOF acts only after the pump: bytes the peer sent before
        // half-closing are decoded and answered (a poisoned tail still
        // surfaces as its protocol error above), and queued responses
        // finish draining through later writable events.
        if self.peer_eof && self.pending_out() == 0 {
            return Err(Close::Eof);
        }
        Ok(())
    }

    /// Read up to [`READ_BUDGET`] bytes into `rbuf`.
    fn fill_rbuf(&mut self) -> Result<(), Close> {
        let mut chunk = [0u8; 16 * 1024];
        let mut taken = 0;
        while taken < READ_BUDGET {
            match retry_eintr(|| self.stream.read(&mut chunk)) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    taken += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(Close::Io(e)),
            }
        }
        Ok(())
    }

    /// Decode, execute, and encode as much of `rbuf` as backpressure
    /// allows, then flush and update the pause state.
    fn pump(&mut self, table: &dyn ConcurrentTable, stats: &mut PumpStats) -> Result<(), Close> {
        let mut consumed = 0;
        while self.pending_out() < WBUF_HIGH {
            match decode_request(&self.rbuf[consumed..]) {
                Ok(Some((id, req, used))) => {
                    consumed += used;
                    self.exec.frame(id, req, table, &mut self.wbuf, stats);
                }
                Ok(None) => break,
                Err(e) => {
                    // Answer everything decoded before the poison so the
                    // peer can match responses to requests, then close.
                    // The close cannot wait for the worker's flush, so
                    // this pays its own before the answers leave.
                    self.exec.finish(table, &mut self.wbuf, stats);
                    if std::mem::take(&mut self.exec.owed) {
                        table.flush_shared();
                    }
                    let _ = self.flush();
                    return Err(Close::Protocol(e));
                }
            }
        }
        self.exec.finish(table, &mut self.wbuf, stats);
        if consumed > 0 {
            self.rbuf.drain(..consumed);
        }
        self.held = std::mem::take(&mut self.exec.owed);
        if !self.held {
            self.flush()?;
        }
        self.paused = if self.paused {
            self.pending_out() >= WBUF_LOW
        } else {
            self.pending_out() > WBUF_HIGH
        };
        Ok(())
    }

    /// Write as much of `wbuf` as the socket accepts right now.
    fn flush(&mut self) -> Result<(), Close> {
        while self.wstart < self.wbuf.len() {
            let (stream, pending) = (&mut self.stream, &self.wbuf[self.wstart..]);
            match retry_eintr(|| stream.write(pending)) {
                Ok(0) => return Err(Close::Io(io::ErrorKind::WriteZero.into())),
                Ok(n) => self.wstart += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(Close::Io(e)),
            }
        }
        if self.wstart == self.wbuf.len() {
            self.wbuf.clear();
            self.wstart = 0;
        } else if self.wstart > 64 * 1024 {
            // Keep the queue from creeping: drop the written prefix once
            // it outweighs a socket buffer.
            self.wbuf.drain(..self.wstart);
            self.wstart = 0;
        }
        Ok(())
    }
}

/// Which of the three batch calls an op belongs to.
fn kind(op: &Op) -> u8 {
    match op {
        Op::Get(_) => 0,
        Op::Put(..) => 1,
        Op::Del(_) => 2,
    }
}

/// Execute `ops` in order, cut into maximal runs of one kind: each run
/// is one call into the table's batch API, and every op's answer goes
/// to `emit`, in op order. The one place the server turns a request
/// stream into table calls — top-level frames and the ops of a `BATCH`
/// both come through here. Mutations take the table's `*_deferred`
/// calls; the return says whether any of them owes a flush, in which case
/// no emitted answer may reach the peer before
/// [`ConcurrentTable::flush_shared`] has run.
fn execute_runs(
    table: &dyn ConcurrentTable,
    ops: &[Op],
    s: &mut RunScratch,
    mut emit: impl FnMut(OpResponse),
) -> bool {
    let mut owed = false;
    let mut i = 0;
    while i < ops.len() {
        let k = kind(&ops[i]);
        let mut j = i + 1;
        while j < ops.len() && kind(&ops[j]) == k {
            j += 1;
        }
        let run = &ops[i..j];
        match run[0] {
            Op::Get(_) => {
                s.keys.clear();
                s.keys.extend(run.iter().map(|op| match op {
                    Op::Get(key) => *key,
                    _ => unreachable!("run of GETs"),
                }));
                s.values.clear();
                s.values.resize(run.len(), None);
                table.lookup_batch_shared(&s.keys, &mut s.values);
                s.values.iter().for_each(|v| emit(OpResponse::Get(*v)));
            }
            Op::Put(..) => {
                s.items.clear();
                s.items.extend(run.iter().map(|op| match op {
                    Op::Put(key, value) => (*key, *value),
                    _ => unreachable!("run of PUTs"),
                }));
                s.outcomes.clear();
                s.outcomes.resize(run.len(), Ok(InsertOutcome::Inserted));
                owed |= table.insert_batch_deferred(&s.items, &mut s.outcomes);
                s.outcomes.iter().for_each(|o| emit(OpResponse::Put(*o)));
            }
            Op::Del(_) => {
                s.keys.clear();
                s.keys.extend(run.iter().map(|op| match op {
                    Op::Del(key) => *key,
                    _ => unreachable!("run of DELs"),
                }));
                s.values.clear();
                s.values.resize(run.len(), None);
                owed |= table.delete_batch_deferred(&s.keys, &mut s.values);
                s.values.iter().for_each(|v| emit(OpResponse::Del(*v)));
            }
        }
        i = j;
    }
    owed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::decode_response;
    use sevendim_core::{TableBuilder, TableError, TableScheme};
    use std::sync::Mutex;

    fn table() -> Box<dyn ConcurrentTable> {
        Box::new(TableBuilder::new(TableScheme::LinearProbing).bits(8).shards(1).build_sharded())
    }

    #[test]
    fn batch_ops_execute_in_order_with_run_segmentation() {
        // PUT then GET of the same key inside one batch must observe the
        // PUT — segmentation may group, never reorder.
        let ops = vec![
            Op::Put(1, 10),
            Op::Put(2, 20),
            Op::Get(1),
            Op::Get(99),
            Op::Del(2),
            Op::Get(2),
            Op::Put(1, 11),
            Op::Get(1),
        ];
        let mut results = Vec::new();
        execute_runs(&*table(), &ops, &mut RunScratch::default(), |r| results.push(r));
        assert_eq!(
            results,
            vec![
                OpResponse::Put(Ok(InsertOutcome::Inserted)),
                OpResponse::Put(Ok(InsertOutcome::Inserted)),
                OpResponse::Get(Some(10)),
                OpResponse::Get(None),
                OpResponse::Del(Some(20)),
                OpResponse::Get(None),
                OpResponse::Put(Ok(InsertOutcome::Replaced(10))),
                OpResponse::Get(Some(11)),
            ]
        );
    }

    /// A table that logs every batch call it receives as `(kind, len)`.
    struct Recording(Box<dyn ConcurrentTable>, Mutex<Vec<(char, usize)>>);

    impl Recording {
        fn log(&self, kind: char, len: usize) {
            self.1.lock().expect("not poisoned").push((kind, len));
        }
    }

    impl ConcurrentTable for Recording {
        fn insert_shared(&self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
            self.0.insert_shared(key, value)
        }
        fn lookup_shared(&self, key: u64) -> Option<u64> {
            self.0.lookup_shared(key)
        }
        fn delete_shared(&self, key: u64) -> Option<u64> {
            self.0.delete_shared(key)
        }
        fn lookup_batch_shared(&self, keys: &[u64], out: &mut [Option<u64>]) {
            self.log('G', keys.len());
            self.0.lookup_batch_shared(keys, out)
        }
        fn insert_batch_shared(
            &self,
            items: &[(u64, u64)],
            out: &mut [Result<InsertOutcome, TableError>],
        ) {
            self.log('P', items.len());
            self.0.insert_batch_shared(items, out)
        }
        fn delete_batch_shared(&self, keys: &[u64], out: &mut [Option<u64>]) {
            self.log('D', keys.len());
            self.0.delete_batch_shared(keys, out)
        }
        fn len_shared(&self) -> usize {
            self.0.len_shared()
        }
        fn for_each_shared(&self, f: &mut dyn FnMut(u64, u64)) {
            self.0.for_each_shared(f)
        }
    }

    #[test]
    fn run_boundaries_split_on_kind_and_isolate_batches() {
        let frames = vec![
            (1, Request::Get(1)),
            (2, Request::Get(2)),
            (3, Request::Put(1, 1)),
            (4, Request::Batch(vec![])),
            (5, Request::Batch(vec![Op::Get(1), Op::Get(3), Op::Del(1)])),
            (6, Request::Del(1)),
            (7, Request::Del(2)),
        ];
        let table = Recording(table(), Mutex::new(Vec::new()));
        let (mut exec, mut out, mut stats) =
            (Executor::default(), Vec::new(), PumpStats::default());
        for (id, req) in frames {
            exec.frame(id, req, &table, &mut out, &mut stats);
        }
        exec.finish(&table, &mut out, &mut stats);
        // Adjacent same-kind frames share a call; a BATCH neither joins
        // its neighbours' runs nor lets them join across it.
        let calls = table.1.into_inner().expect("not poisoned");
        assert_eq!(calls, vec![('G', 2), ('P', 1), ('G', 2), ('D', 1), ('D', 2)]);
        assert_eq!((stats.frames, stats.ops), (7, 8));
        // One response per frame, in frame order.
        let mut ids = Vec::new();
        let mut rest = &out[..];
        while let Some((id, _, used)) = decode_response(rest).expect("valid response bytes") {
            ids.push(id);
            rest = &rest[used..];
        }
        assert_eq!(ids, (1..=7).collect::<Vec<u64>>());
    }
}
