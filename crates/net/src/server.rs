//! The thread-per-core epoll server: N workers, each running its own
//! event loop over one shared [`ConcurrentTable`].
//!
//! One worker per core (default `std::thread::available_parallelism()`,
//! knob [`KvServerBuilder::threads`]); each worker owns its epoll
//! instance, its wake pipe, its listener and its connections —
//! **per-connection state never migrates across workers**, so the hot
//! path has no cross-worker synchronization at all. The only shared
//! object is the table, whose seqlock optimistic reads
//! ([`lookup_batch_shared`]) are what let N workers serve GET traffic
//! without shard mutex contention.
//!
//! [`lookup_batch_shared`]: sevendim_core::ConcurrentTable::lookup_batch_shared
//!
//! **Accept:** every worker binds its own `SO_REUSEPORT` listener on the
//! one port ([`sys::reuseport_listener`]) and the kernel hashes each
//! incoming flow to one of them — no acceptor thread, no hand-off, no
//! shared accept state. The balancing is statistical, not exact: a
//! handful of long-lived connections may land on the same worker while
//! another idles; many short or many concurrent connections spread
//! evenly.
//!
//! **A turn** is what a worker does with one `epoll_wait` return, in
//! three steps: *read and execute* every ready connection (mutations go
//! through the table's `*_deferred` calls, and a connection whose answers
//! are owed a durability flush **holds** them in its buffer instead of
//! writing them); *flush once*
//! ([`flush_shared`](sevendim_core::ConcurrentTable::flush_shared), if
//! anybody is held) for everything the turn staged; then *write* every
//! held connection — and again, while any of them staged more as its
//! buffer drained. Over a table that owes nothing (every in-memory
//! table) nobody is ever held and a turn is exactly the read-execute-
//! write per connection it always was.
//!
//! Over a logged table the turn is what makes one device wait cover
//! several connections. The commit pipeline merges writers on
//! *different* threads, but `SO_REUSEPORT` placement is a coin toss — of
//! 200 two-connection, two-worker servers probed, 107 had both
//! connections on one worker — and two connections on one worker are one
//! writer to the table, so the pipeline has nobody to wait for. Their
//! windows rarely arrive in one `epoll_wait`: the first is staged and
//! flushed while the second is still on its way, and the second pays a
//! device wait of its own. So the worker keeps the table's
//! [closing rule](sevendim_core::ClosingRule) too, with its connections as
//! the writers: before a turn that holds answers flushes, it waits for
//! every **rider** — a connection held in either of the worker's last two
//! flushes — that is still open, still reading and not yet stepped this
//! turn, stepping whatever turns ready meanwhile, for at most half of what
//! its flushes have been costing. A rider that stops coming is forgotten
//! after two flushes; one connection per worker never waits. The turn
//! also makes a `DEL` run followed by a `PUT` run one wait instead of two.
//!
//! **Stats** are per-worker [`WorkerCounters`] — plain `AtomicU64`s
//! bumped with `Relaxed` stores by their owning worker only, so the hot
//! path never bounces a shared cache line between workers.
//! [`ServerHandle::stats`] aggregates them on demand; see its docs for
//! the exact consistency guarantee.
//!
//! **Shutdown** is graceful: each worker stops accepting, answers every
//! frame it has already received, and flushes all buffered responses
//! (bounded by [`DRAIN_TIMEOUT`]) before exiting — a pipelined client
//! that saw its requests reach the server gets every response, then a
//! clean EOF.

use crate::conn::{Close, Connection, PumpStats};
use crate::protocol::ProtoError;
use crate::sys::{
    self, retry_eintr, Epoll, EpollEvent, WakePipe, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT,
};
use sevendim_core::{Closing, ClosingRule, ConcurrentTable};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// How long a shutting-down worker keeps flushing buffered responses
/// before closing connections as-is (default for
/// [`KvServerBuilder::drain_timeout`]). Generous: a live peer drains a
/// socket buffer in microseconds; only a stalled peer runs the clock.
/// The wait is spent *blocked* in `epoll_wait` with a deadline-derived
/// timeout, not polling — see [`ServerStats::drain_rounds`].
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Counters the server accumulates, returned by [`ServerHandle::stats`]
/// (live snapshot) and [`ServerHandle::shutdown`] (final totals) so
/// tests can assert on server-side behavior (e.g. "the malformed frame
/// closed exactly one connection").
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Request frames answered (a `BATCH` counts once).
    pub frames: u64,
    /// Table operations executed (a `BATCH` counts its ops).
    pub ops: u64,
    /// Connections closed because the peer broke the protocol.
    pub protocol_closes: u64,
    /// Connections closed by I/O errors (reset, write-zero, …).
    pub io_closes: u64,
    /// `epoll_wait` rounds spent in the shutdown drain loop. Each round
    /// *blocks* until a parked connection turns writable or the drain
    /// deadline passes, so even a peer that never reads costs a handful
    /// of rounds, not a busy-spin — tests bound this number.
    pub drain_rounds: u64,
    /// Durability flushes the workers' turns paid: one per turn that held
    /// answers, plus one per round of answers staged while the held ones
    /// drained. Always 0 over a table that owes no flush.
    pub flushes: u64,
    /// Turns that waited out the closing rule's whole bound for a recent
    /// connection that did not come, then flushed without it.
    pub flush_waits_expired: u64,
    /// The most recent protocol violation, for diagnostics and tests.
    pub last_protocol_error: Option<ProtoError>,
    /// The most recent I/O close kind, for diagnostics.
    pub last_io_error: Option<io::ErrorKind>,
    /// Runtime statistics of the served table (merged over shards via
    /// [`ConcurrentTable::stats_shared`]): lookup, miss, insert and delete
    /// counts, and — when the table grows or adapts
    /// ([`DynamicTable`](sevendim_core::DynamicTable)) — rehash and
    /// scheme-switch counts. All zeros for tables that do not track
    /// runtime stats. Only filled on the aggregate [`ServerHandle::stats`]
    /// snapshot, not in [`ServerHandle::stats_per_worker`] (the table is
    /// shared, not per-worker).
    pub table: sevendim_core::TableStats,
}

/// One worker's counters. Every counter is written by exactly one
/// worker thread with `Relaxed` atomics (no shared contended counters
/// on the hot path — aggregation pays the cross-core traffic, not the
/// serving path) and read by anyone through
/// [`WorkerCounters::snapshot`]. The `last_*` diagnostics sit behind a
/// mutex because they only change on the cold close path.
#[derive(Default)]
struct WorkerCounters {
    accepted: AtomicU64,
    frames: AtomicU64,
    ops: AtomicU64,
    protocol_closes: AtomicU64,
    io_closes: AtomicU64,
    drain_rounds: AtomicU64,
    flushes: AtomicU64,
    flush_waits_expired: AtomicU64,
    last_protocol_error: Mutex<Option<ProtoError>>,
    last_io_error: Mutex<Option<io::ErrorKind>>,
}

impl WorkerCounters {
    fn record_pump(&self, pump: &PumpStats) {
        if pump.frames > 0 {
            self.frames.fetch_add(pump.frames, Ordering::Relaxed);
        }
        if pump.ops > 0 {
            self.ops.fetch_add(pump.ops, Ordering::Relaxed);
        }
    }

    fn record_close(&self, close: &Close) {
        match close {
            Close::Eof => {}
            Close::Protocol(e) => {
                self.protocol_closes.fetch_add(1, Ordering::Relaxed);
                *self.last_protocol_error.lock().expect("not poisoned") = Some(*e);
            }
            Close::Io(e) => {
                self.io_closes.fetch_add(1, Ordering::Relaxed);
                *self.last_io_error.lock().expect("not poisoned") = Some(e.kind());
            }
        }
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            protocol_closes: self.protocol_closes.load(Ordering::Relaxed),
            io_closes: self.io_closes.load(Ordering::Relaxed),
            drain_rounds: self.drain_rounds.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            flush_waits_expired: self.flush_waits_expired.load(Ordering::Relaxed),
            last_protocol_error: *self.last_protocol_error.lock().expect("not poisoned"),
            last_io_error: *self.last_io_error.lock().expect("not poisoned"),
            table: Default::default(),
        }
    }
}

/// The networked KV server: a thread-per-core epoll fleet serving a
/// [`ConcurrentTable`] over the `7DKV` wire protocol.
pub struct KvServer;

impl KvServer {
    /// Bind `addr` and spawn the server with default settings (one
    /// worker per core). Pass port 0 to let the OS pick; the actual
    /// address is [`ServerHandle::addr`].
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        table: Arc<dyn ConcurrentTable>,
    ) -> io::Result<ServerHandle> {
        Self::builder().spawn(addr, table)
    }

    /// Configure worker count and drain deadline before spawning.
    pub fn builder() -> KvServerBuilder {
        KvServerBuilder::default()
    }
}

/// Configuration for [`KvServer`]: worker thread count and drain
/// deadline.
#[derive(Clone, Debug)]
pub struct KvServerBuilder {
    threads: usize,
    drain_timeout: Duration,
}

impl Default for KvServerBuilder {
    fn default() -> Self {
        Self { threads: 0, drain_timeout: DRAIN_TIMEOUT }
    }
}

impl KvServerBuilder {
    /// Number of worker event loops. `0` (the default) means one per
    /// core (`std::thread::available_parallelism()`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// How long shutdown keeps flushing buffered responses to slow
    /// peers before closing them as-is (default [`DRAIN_TIMEOUT`]).
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Bind one `SO_REUSEPORT` listener per worker on `addr`, spawn the
    /// workers, and return the owner handle. The first error (a bind
    /// refused, an fd limit reached, a thread that would not start) is
    /// returned as it is; workers already started are shut down by the
    /// partial handle's drop.
    ///
    /// Any table serves: an `Arc<DurableSharded>` coerces to
    /// `Arc<dyn ConcurrentTable>`, and then every PUT/DEL a client sees
    /// acknowledged was committed to the WAL *before* its response frame
    /// was written — the worker applies through the table's
    /// `insert_batch_deferred`/`delete_batch_deferred`, holds the encoded
    /// answers, and lets them leave only after `flush_shared` (which
    /// logs and fsyncs per policy) has returned: one flush for all the
    /// connections of one turn of the worker's loop.
    pub fn spawn<A: ToSocketAddrs>(
        self,
        addr: A,
        table: Arc<dyn ConcurrentTable>,
    ) -> io::Result<ServerHandle> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        };
        // The first bind may use port 0; every subsequent listener joins
        // the concrete port the kernel assigned.
        let first = sys::reuseport_listener(addr)?;
        let local = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..threads {
            listeners.push(sys::reuseport_listener(local)?);
        }
        let mut handle = ServerHandle {
            addr: local,
            shutdown: Arc::new(AtomicBool::new(false)),
            wakes: Vec::new(),
            counters: Vec::new(),
            joins: Vec::new(),
            table: Arc::clone(&table),
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            let epoll = Epoll::new()?;
            let wake = Arc::new(WakePipe::new()?);
            epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
            epoll.add(wake.read_fd(), EPOLLIN, TOKEN_WAKE)?;
            let mut worker = Worker {
                epoll,
                wake: Arc::clone(&wake),
                listener: Some(listener),
                table: Arc::clone(&table),
                conns: HashMap::new(),
                held: Vec::new(),
                turn: 0,
                rule: ClosingRule::default(),
                counters: Arc::new(WorkerCounters::default()),
                drain_timeout: self.drain_timeout,
            };
            handle.wakes.push(wake);
            handle.counters.push(Arc::clone(&worker.counters));
            let flag = Arc::clone(&handle.shutdown);
            handle.joins.push(
                std::thread::Builder::new()
                    .name(format!("kv-worker-{i}"))
                    .spawn(move || worker.run(&flag))?,
            );
        }
        Ok(handle)
    }
}

/// Everything a worker thread owns, plus the shared pieces it leans on.
struct Worker {
    epoll: Epoll,
    wake: Arc<WakePipe>,
    /// This worker's own listener; `None` once shutdown has closed it.
    listener: Option<TcpListener>,
    table: Arc<dyn ConcurrentTable>,
    conns: HashMap<RawFd, Connection>,
    /// Connections of the current turn whose answers wait for the
    /// turn's flush ([`Worker::release_held`]). Empty between turns, and
    /// always empty over a table that owes no flush.
    held: Vec<RawFd>,
    /// Turns so far: a connection stepped in this one carries it in
    /// [`Connection::stepped`].
    turn: u64,
    /// Which connections rode this worker's last two flushes, and what a
    /// flush costs ([`Worker::wait_for_riders`]).
    rule: ClosingRule<RawFd>,
    counters: Arc<WorkerCounters>,
    drain_timeout: Duration,
}

/// Owner handle for a running server. Dropping it shuts the server
/// down; [`ServerHandle::shutdown`] does the same but returns the final
/// aggregated [`ServerStats`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wakes: Vec<Arc<WakePipe>>,
    counters: Vec<Arc<WorkerCounters>>,
    joins: Vec<JoinHandle<io::Result<()>>>,
    table: Arc<dyn ConcurrentTable>,
}

impl ServerHandle {
    /// The address the server is actually listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of worker event loops serving connections.
    pub fn threads(&self) -> usize {
        self.counters.len()
    }

    /// A live aggregate snapshot of every worker's counters.
    ///
    /// **Consistency guarantee:** each individual counter is exact — no
    /// increment is ever torn or lost (workers bump them with `Relaxed`
    /// atomic adds, this method reads with `Relaxed` loads). The
    /// snapshot as a whole is *not* a consistent cut: counters keep
    /// moving while they are read, so e.g. `ops` may already include a
    /// batch whose `frames` increment is not yet visible. Monotonicity
    /// holds per counter across repeated calls. After
    /// [`ServerHandle::shutdown`] returns (worker threads joined, which
    /// synchronizes-with their final writes), the numbers are the exact
    /// final totals.
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for snap in self.stats_per_worker() {
            total.accepted += snap.accepted;
            total.frames += snap.frames;
            total.ops += snap.ops;
            total.protocol_closes += snap.protocol_closes;
            total.io_closes += snap.io_closes;
            total.drain_rounds += snap.drain_rounds;
            total.flushes += snap.flushes;
            total.flush_waits_expired += snap.flush_waits_expired;
            // "Last" across workers is arbitrary (no global clock on the
            // cold path); any worker's most recent error is reported.
            total.last_protocol_error = snap.last_protocol_error.or(total.last_protocol_error);
            total.last_io_error = snap.last_io_error.or(total.last_io_error);
        }
        total.table = self.table.stats_shared();
        total
    }

    /// Per-worker snapshots, index-aligned with the worker threads.
    /// Same consistency guarantee as [`ServerHandle::stats`].
    pub fn stats_per_worker(&self) -> Vec<ServerStats> {
        self.counters.iter().map(|c| c.snapshot()).collect()
    }

    /// Stop every worker (each drains its buffered responses first) and
    /// return the final aggregated counters.
    pub fn shutdown(mut self) -> io::Result<ServerStats> {
        self.signal();
        let mut first_err = None;
        for join in self.joins.drain(..) {
            match join.join().expect("kv server thread panicked") {
                Ok(()) => {}
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(self.stats()),
        }
    }

    fn signal(&self) {
        self.shutdown.store(true, Ordering::Release);
        for wake in &self.wakes {
            wake.wake();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.joins.is_empty() {
            self.signal();
            for join in self.joins.drain(..) {
                let _ = join.join();
            }
        }
    }
}

impl Worker {
    fn run(&mut self, shutdown: &AtomicBool) -> io::Result<()> {
        let mut events = [EpollEvent::default(); 256];
        loop {
            let n = self.epoll.wait(&mut events, -1)?;
            self.turn += 1;
            self.dispatch(&events[..n]);
            if !self.held.is_empty() {
                self.wait_for_riders(&mut events, shutdown)?;
            }
            self.release_held(false);
            if shutdown.load(Ordering::Acquire) {
                self.drain_connections();
                return Ok(());
            }
        }
    }

    fn dispatch(&mut self, events: &[EpollEvent]) {
        for ev in events {
            // Copy out of the (possibly packed) event record.
            let (token, ready) = ({ ev.data }, { ev.events });
            match token {
                TOKEN_WAKE => self.wake.drain(),
                TOKEN_LISTENER => self.accept_ready(),
                _ => self.conn_ready(token as RawFd, ready),
            }
        }
    }

    /// The [closing rule](ClosingRule) at the worker, before a turn that
    /// holds answers flushes: while a rider — a connection held in one of
    /// the last two flushes — is still open, still reading and not yet
    /// stepped this turn, and the turn has waited less than half of what a
    /// flush costs, step whatever is ready meanwhile (`epoll_wait` without
    /// blocking; a held connection keeps its events for the next turn) and
    /// yield. The bound is a fraction of one device wait, shorter than a
    /// timer can keep. Shutdown ends the wait at once.
    fn wait_for_riders(
        &mut self,
        events: &mut [EpollEvent],
        shutdown: &AtomicBool,
    ) -> io::Result<()> {
        let mut opened = None;
        while !shutdown.load(Ordering::Acquire) {
            let waited = opened.map_or(Duration::ZERO, |o: Instant| o.elapsed());
            let (conns, turn) = (&self.conns, self.turn);
            let came = |fd: &RawFd| {
                conns.get(fd).is_none_or(|c| c.stepped == turn || c.interest() & EPOLLIN == 0)
            };
            match self.rule.closing(came, waited) {
                Closing::Close => break,
                Closing::Expired => {
                    self.counters.flush_waits_expired.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Closing::Wait => {}
            }
            opened.get_or_insert_with(Instant::now);
            let n = self.epoll.wait(events, 0)?;
            self.dispatch(&events[..n]);
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Accept every pending connection on this worker's listener
    /// (level-triggered: stop at `EAGAIN`, the kernel re-reports
    /// anything left).
    fn accept_ready(&mut self) {
        // Take the listener out for the duration so `register` can
        // borrow `self` mutably; it goes straight back.
        let Some(listener) = self.listener.take() else { return };
        loop {
            match retry_eintr(|| listener.accept()) {
                Ok((stream, _)) => self.register(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient per-connection failures (e.g. the peer reset
                // between ready and accept) must not kill the loop.
                Err(_) => break,
            }
        }
        self.listener = Some(listener);
    }

    /// Register a new connection with this worker's epoll; one that
    /// cannot be registered is dropped, which closes it.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Latency over throughput for small pipelined frames.
        let _ = stream.set_nodelay(true);
        let conn = Connection::new(stream);
        let fd = conn.fd();
        if self.epoll.add(fd, conn.registered, fd as u64).is_ok() {
            self.conns.insert(fd, conn);
            self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The second half of a turn: **one** durability flush for every
    /// mutation the turn's connections staged, then the held answers
    /// leave — each held connection is released and stepped again as
    /// writable ([`Worker::conn_ready`], or [`Worker::drain_flush`] when
    /// `draining` for shutdown). A connection that had
    /// stopped decoding at `WBUF_HIGH` decodes on as its buffer drains
    /// and may stage again, so this repeats until nobody is held: no
    /// connection is left waiting for an event that will not come. Every
    /// flush tells the closing rule whom it covered and what it cost.
    /// Nothing at all happens over a table that owes no flush.
    fn release_held(&mut self, draining: bool) {
        while !self.held.is_empty() {
            let started = Instant::now();
            self.table.flush_shared();
            let flushed = self.held.len();
            self.rule.flushed(self.held.iter().copied(), started.elapsed());
            self.counters.flushes.fetch_add(1, Ordering::Relaxed);
            for i in 0..flushed {
                let fd = self.held[i];
                let Some(conn) = self.conns.get_mut(&fd) else { continue };
                conn.release();
                if draining {
                    self.drain_flush(fd);
                } else {
                    self.conn_ready(fd, EPOLLOUT);
                }
            }
            self.held.drain(..flushed);
        }
    }

    /// Drive one connection's state machine and re-sync its interest.
    fn conn_ready(&mut self, fd: RawFd, ready: u32) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return; // already closed earlier in this batch
        };
        if conn.held() {
            return; // ready while the turn waits for its riders: next turn
        }
        conn.stepped = self.turn;
        // Error/hangup conditions surface through the read path: the
        // next `read(2)` reports EOF or the real errno.
        let readable = ready & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0;
        let writable = ready & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0;
        let mut pump = PumpStats::default();
        let result = conn.handle(readable, writable, &*self.table, &mut pump);
        self.counters.record_pump(&pump);
        match result {
            // Held: this turn's flush comes back to it, and whatever it
            // wants then is what gets registered.
            Ok(()) if conn.held() => self.held.push(fd),
            Ok(()) => {
                let want = conn.interest();
                if want != conn.registered {
                    if self.epoll.modify(fd, want, fd as u64).is_ok() {
                        conn.registered = want;
                    } else {
                        self.close(fd); // kernel lost track of it: drop
                    }
                }
            }
            Err(close) => {
                self.counters.record_close(&close);
                self.close(fd);
            }
        }
    }

    fn close(&mut self, fd: RawFd) {
        // Dropping the connection closes the socket, which also removes
        // it from the epoll set; the explicit delete just keeps the
        // interest list tight if anything else holds the fd open.
        let _ = self.epoll.delete(fd);
        self.conns.remove(&fd);
    }

    /// Graceful shutdown: answer every frame already received, then
    /// keep flushing until every connection's response queue is empty
    /// (or [`DRAIN_TIMEOUT`] passes). No new bytes are read — shutdown
    /// answers what the server has, not what peers keep sending.
    fn drain_connections(&mut self) {
        // Stop accepting first: close the listener (new peers get
        // refused) and deregister it so pending connects stop waking the
        // level-triggered loop.
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        // One pass to decode + answer buffered request bytes and flush
        // what fits; connections that finish close immediately.
        for fd in self.conns.keys().copied().collect::<Vec<_>>() {
            self.drain_flush(fd);
        }
        self.release_held(true);
        let deadline = Instant::now() + self.drain_timeout;
        let mut events = [EpollEvent::default(); 256];
        while !self.conns.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break; // stalled peers: close with responses undelivered
            }
            // Block in epoll_wait for the remaining budget: a parked
            // EPOLLOUT connection wakes us the moment the peer reads,
            // and a peer that never reads costs exactly one sleep to
            // the deadline — never a busy-poll. `drain_rounds` is the
            // audited proof.
            self.counters.drain_rounds.fetch_add(1, Ordering::Relaxed);
            let n = match self
                .epoll
                .wait(&mut events, left.as_millis().clamp(1, i32::MAX as u128) as i32)
            {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in &events[..n] {
                let token = { ev.data };
                match token {
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_LISTENER => {}
                    _ => self.drain_flush(token as RawFd),
                }
            }
            self.release_held(true);
        }
    }

    /// One drain step for one connection: pump leftovers (no reads),
    /// flush, close when empty, and park on `EPOLLOUT` otherwise.
    fn drain_flush(&mut self, fd: RawFd) {
        let Some(conn) = self.conns.get_mut(&fd) else { return };
        let mut pump = PumpStats::default();
        let result = conn.handle(false, true, &*self.table, &mut pump);
        let (pending, registered, held) = (conn.pending_out(), conn.registered, conn.held());
        self.counters.record_pump(&pump);
        match result {
            Ok(()) if held => self.held.push(fd),
            Ok(()) if pending == 0 => self.close(fd),
            Ok(()) => {
                if registered != EPOLLOUT {
                    if self.epoll.modify(fd, EPOLLOUT, fd as u64).is_ok() {
                        self.conns.get_mut(&fd).expect("still present").registered = EPOLLOUT;
                    } else {
                        self.close(fd);
                    }
                }
            }
            Err(close) => {
                self.counters.record_close(&close);
                self.close(fd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, encode_request, Request, Response};
    use crate::KvClient;
    use sevendim_core::{BoxedTable, FsyncPolicy, ShardedTable, TableBuilder, TableScheme};
    use sevendim_durable::{replay_into, DurableTable, GatedWal};
    use std::io::{Read as _, Write as _};

    fn table() -> Arc<dyn ConcurrentTable> {
        Arc::new(
            TableBuilder::new(TableScheme::LinearProbing)
                .bits(10)
                .shards(2)
                .optimistic_reads(true)
                .build_sharded(),
        )
    }

    #[test]
    fn builder_defaults_resolve_to_auto_and_per_core_threads() {
        let b = KvServer::builder();
        assert_eq!(b.threads, 0);
        let handle = b.spawn("127.0.0.1:0", table()).expect("spawn");
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(handle.threads(), cores);
        handle.shutdown().expect("shutdown");
    }

    #[test]
    fn spawn_reports_a_port_it_cannot_share_as_addr_in_use() {
        // A plain listener never joined a reuseport group, so no worker
        // can bind beside it — and the caller must hear exactly that.
        let holder = TcpListener::bind("127.0.0.1:0").expect("bind");
        let err = KvServer::builder()
            .threads(2)
            .spawn(holder.local_addr().expect("addr"), table())
            .err()
            .expect("the port is taken");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
    }

    #[test]
    fn serves_requests_across_multiple_workers() {
        let handle = KvServer::builder().threads(3).spawn("127.0.0.1:0", table()).expect("spawn");
        assert_eq!(handle.threads(), 3);
        let mut clients: Vec<KvClient> =
            (0..4).map(|_| KvClient::connect(handle.addr()).expect("connect")).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            let k = 100 + i as u64;
            assert!(c.put(k, k * 2).expect("put").is_ok());
            assert_eq!(c.get(k).expect("get"), Some(k * 2));
        }
        // All four clients hit the same table regardless of which
        // worker owns their socket.
        assert_eq!(clients[0].get(103).expect("get"), Some(206));
        drop(clients);
        let stats = handle.shutdown().expect("shutdown");
        assert_eq!(stats.accepted, 4);
        assert_eq!(stats.frames, 9);
        assert_eq!(stats.protocol_closes, 0);
    }

    #[test]
    fn live_stats_snapshot_advances_without_shutdown() {
        let handle = KvServer::builder().threads(2).spawn("127.0.0.1:0", table()).expect("spawn");
        assert_eq!(handle.stats().frames, 0);
        let mut client = KvClient::connect(handle.addr()).expect("connect");
        assert!(client.put(1, 10).expect("put").is_ok());
        assert_eq!(client.get(1).expect("get"), Some(10));
        // The worker records a pump's counters *after* flushing its
        // responses, so a client that saw both replies may still be a
        // beat ahead of the snapshot — poll briefly instead of assuming
        // a cut (that non-guarantee is exactly the documented contract).
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.stats().frames < 2 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let live = handle.stats();
        assert_eq!(live.frames, 2);
        assert_eq!(live.ops, 2);
        assert_eq!(live.accepted, 1);
        // Per-worker snapshots sum to the aggregate.
        let per: u64 = handle.stats_per_worker().iter().map(|s| s.frames).sum();
        assert_eq!(per, 2);
        drop(client);
        let stats = handle.shutdown().expect("shutdown");
        assert_eq!(stats.frames, 2);
    }

    #[test]
    fn server_keeps_serving_through_a_live_scheme_switch() {
        use sevendim_core::AdaptiveConfig;
        // One shard, 256 slots at ~59% load, step-1 drain: the adaptive
        // switch stays in flight for hundreds of ops once triggered.
        let table: Arc<dyn ConcurrentTable> = Arc::new(
            TableBuilder::new(TableScheme::LinearProbing)
                .bits(8)
                .incremental(1)
                .adaptive(AdaptiveConfig { check_every: 16, cooldown: 64 })
                .build_sharded(),
        );
        let handle = KvServer::builder().threads(1).spawn("127.0.0.1:0", table).expect("spawn");
        let mut client = KvClient::connect(handle.addr()).expect("connect");
        for k in 1..=150u64 {
            assert!(client.put(k, k * 3).expect("put").is_ok());
        }
        // Miss-heavy reads with a trickle of writes: the controller
        // re-targets the scheme and the drain proceeds — all while the
        // same connection keeps being served.
        let mut switched = false;
        for round in 0..300u64 {
            for i in 0..100u64 {
                assert_eq!(client.get(1_000_000 + round * 100 + i).expect("get"), None);
            }
            assert!(client.put(200_000 + round, round).expect("put").is_ok());
            if handle.stats().table.scheme_switches > 0 {
                switched = true;
                break;
            }
        }
        assert!(switched, "server table never switched schemes");
        // Every pre-switch entry still answers, mid- or post-drain.
        for k in (1..=150u64).step_by(7) {
            assert_eq!(client.get(k).expect("get"), Some(k * 3), "key {k}");
        }
        drop(client);
        let stats = handle.shutdown().expect("shutdown");
        assert!(stats.table.scheme_switches >= 1);
        assert!(stats.table.lookups > 0, "table stats must flow into ServerStats");
        assert!(stats.table.miss_ratio() > 0.5, "the counts must have tracked the miss phase");
        assert_eq!(stats.protocol_closes, 0);
        assert_eq!(stats.io_closes, 0);
    }

    #[test]
    fn durable_server_recovers_acknowledged_mutations_after_restart() {
        let dir = std::env::temp_dir().join(format!("sevendim-net-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let builder = TableBuilder::new(TableScheme::LinearProbing)
            .bits(10)
            .shards(2)
            .optimistic_reads(true)
            .wal(&dir);
        let (durable, report) = DurableTable::open(&builder).expect("open");
        assert!(report.clean());
        let handle =
            KvServer::builder().threads(2).spawn("127.0.0.1:0", Arc::new(durable)).expect("spawn");
        let mut client = KvClient::connect(handle.addr()).expect("connect");
        for i in 0..50u64 {
            assert!(client.put(i, i * 3).expect("put").is_ok());
        }
        assert_eq!(client.del(7).expect("del"), Some(21));
        drop(client);
        handle.shutdown().expect("shutdown");
        // Every response the client saw was logged before it was
        // written: a fresh "process" replays the log to the same map.
        let (reopened, report) = DurableTable::open(&builder).expect("reopen");
        assert!(report.clean());
        assert_eq!(report.replayed_ops, 51);
        assert_eq!(reopened.len_shared(), 49);
        assert_eq!(reopened.lookup_shared(7), None);
        assert_eq!(reopened.lookup_shared(11), Some(33));
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A logged table on a [`GatedWal`], `FsyncPolicy::Always`: the
    /// tests below hold its sync to see who waits for it.
    fn gated_durable() -> (Arc<DurableTable<ShardedTable<BoxedTable>>>, GatedWal) {
        let wal = GatedWal::new();
        let inner = TableBuilder::new(TableScheme::LinearProbing).bits(10).shards(2);
        let durable = DurableTable::with_wal(
            inner.build_sharded(),
            Box::new(wal.clone()),
            FsyncPolicy::Always,
        );
        (Arc::new(durable), wal)
    }

    /// Frames for `PUT key -> key * 10`, ids from `first_id`, back to back.
    fn put_frames(first_id: u64, keys: impl Iterator<Item = u64>) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (i, key) in keys.enumerate() {
            encode_request(first_id + i as u64, &Request::Put(key, key * 10), &mut bytes);
        }
        bytes
    }

    /// Read until `n` answers have arrived or the peer closed: their ids.
    fn read_answers(stream: &mut TcpStream, n: usize) -> Vec<u64> {
        let (mut buf, mut ids) = (Vec::new(), Vec::new());
        let mut chunk = [0u8; 16 * 1024];
        while ids.len() < n {
            match stream.read(&mut chunk).expect("read") {
                0 => break,
                got => buf.extend_from_slice(&chunk[..got]),
            }
            let mut at = 0;
            while let Some((id, resp, used)) = decode_response(&buf[at..]).expect("valid answer") {
                assert!(matches!(resp, Response::Put(Ok(_))), "answer {id}: {resp:?}");
                ids.push(id);
                at += used;
            }
            buf.drain(..at);
        }
        ids
    }

    fn nothing_to_read(stream: &mut TcpStream) -> bool {
        stream.set_nonblocking(true).expect("nonblocking");
        let got = stream.read(&mut [0u8; 64]);
        stream.set_nonblocking(false).expect("blocking");
        matches!(got, Err(e) if e.kind() == io::ErrorKind::WouldBlock)
    }

    /// The keys the bytes a crash would keep replay to.
    fn recovered_keys(wal: &GatedWal) -> Vec<u64> {
        let synced = &wal.mem().bytes()[..wal.mem().synced_len()];
        let fresh = table();
        assert!(replay_into(synced, &*fresh, 0).clean());
        let mut pairs = Vec::with_capacity(fresh.len_shared());
        fresh.for_each_shared(&mut |k, v| pairs.push((k, v)));
        pairs.sort_unstable();
        assert!(pairs.iter().all(|&(k, v)| v == k * 10), "{pairs:?}");
        pairs.into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn a_put_is_answered_only_after_its_sync_returns() {
        let (durable, wal) = gated_durable();
        let handle =
            KvServer::builder().threads(1).spawn("127.0.0.1:0", durable.clone()).expect("spawn");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        wal.hold();
        stream.write_all(&put_frames(1, 5..6)).expect("send");
        wal.wait_parked();
        // Applied — a reader sees it — but not committed, so not answered.
        assert_eq!(durable.lookup_shared(5), Some(50));
        assert_eq!((durable.committed_seq(), durable.next_seq()), (0, 2));
        assert!(nothing_to_read(&mut stream), "answered while its sync was held");
        wal.release();
        assert_eq!(read_answers(&mut stream, 1), [1]);
        assert_eq!((durable.committed_seq(), recovered_keys(&wal)), (1, vec![5]));
        drop(stream);
        handle.shutdown().expect("shutdown");
    }

    #[test]
    fn connections_of_one_turn_share_one_sync() {
        let (durable, wal) = gated_durable();
        let handle =
            KvServer::builder().threads(1).spawn("127.0.0.1:0", durable.clone()).expect("spawn");
        let connect = || TcpStream::connect(handle.addr()).expect("connect");
        let (mut a, mut b, mut c) = (connect(), connect(), connect());
        wal.hold();
        a.write_all(&put_frames(1, 1..2)).expect("send");
        wal.wait_parked();
        // The one worker is in A's device wait: B's and C's windows are
        // both in their sockets by the time it next asks epoll.
        b.write_all(&put_frames(1, 10..13)).expect("send");
        c.write_all(&put_frames(1, 20..23)).expect("send");
        wal.release();
        assert_eq!(read_answers(&mut a, 1), [1]);
        assert_eq!(read_answers(&mut b, 3), [1, 2, 3]);
        assert_eq!(read_answers(&mut c, 3), [1, 2, 3]);
        let stats = durable.commit_stats();
        assert_eq!((stats.groups, stats.records, stats.ops), (2, 3, 7), "{stats:?}");
        assert_eq!(wal.mem().syncs(), 2, "B and C cost one sync together");
        drop((a, b, c));
        handle.shutdown().expect("shutdown");
    }

    #[test]
    fn connections_of_one_worker_share_a_sync_when_the_second_window_comes_late() {
        const HOLD: Duration = Duration::from_millis(30);
        let (durable, wal) = gated_durable();
        let handle =
            KvServer::builder().threads(1).spawn("127.0.0.1:0", durable.clone()).expect("spawn");
        let connect = || {
            let stream = TcpStream::connect(handle.addr()).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            stream
        };
        let (mut a, mut b) = (connect(), connect());
        let counted =
            |stats: ServerStats| (wal.mem().syncs(), durable.commit_stats().groups, stats.flushes);
        // Round 1: a first flush held for HOLD, then one for both windows
        // that came in meanwhile. Both connections are riders now, and the
        // running mean of a flush is about 7/8 of HOLD, so a turn waits
        // for a rider for up to about 7/16 of HOLD.
        wal.hold();
        a.write_all(&put_frames(1, 1..2)).expect("send");
        wal.wait_parked();
        a.write_all(&put_frames(2, 2..3)).expect("send");
        b.write_all(&put_frames(1, 10..11)).expect("send");
        let held = Instant::now();
        while held.elapsed() < HOLD {
            std::thread::yield_now();
        }
        wal.release();
        assert_eq!(read_answers(&mut a, 2), [1, 2]);
        assert_eq!(read_answers(&mut b, 1), [1]);
        assert_eq!(counted(handle.stats()), (2, 2, 2));
        // Round 2: A's window is staged before B's is even sent. Flushing
        // at once would leave B's to pay a sync of its own; the turn waits
        // for its rider instead.
        let before = durable.next_seq();
        a.write_all(&put_frames(3, 3..4)).expect("send");
        while durable.next_seq() == before {
            std::thread::yield_now();
        }
        b.write_all(&put_frames(2, 11..12)).expect("send");
        assert_eq!(read_answers(&mut a, 1), [3]);
        assert_eq!(read_answers(&mut b, 1), [2]);
        assert_eq!(counted(handle.stats()), (3, 3, 3), "one sync for both windows");
        assert_eq!(handle.stats().flush_waits_expired, 0);
        // B falls silent: A's next two windows wait for it, each for at
        // most half a flush, and the third does not.
        for (id, expired) in [(4u64, 1), (5, 2), (6, 2)] {
            let sent = Instant::now();
            a.write_all(&put_frames(id, id..id + 1)).expect("send");
            assert_eq!(read_answers(&mut a, 1), [id]);
            assert!(sent.elapsed() < 2 * HOLD, "window {id} waited {:?}", sent.elapsed());
            assert_eq!(handle.stats().flush_waits_expired, expired, "after window {id}");
        }
        drop((a, b));
        let stats = handle.shutdown().expect("shutdown");
        assert_eq!(counted(stats), (6, 6, 6));
        assert_eq!(stats.flush_waits_expired, 2);
        assert_eq!(recovered_keys(&wal), [1, 2, 3, 4, 5, 6, 10, 11]);
    }

    #[test]
    fn a_pipeline_deeper_than_the_write_buffer_is_answered_in_full() {
        let (durable, _wal) = gated_durable();
        let handle =
            KvServer::builder().threads(1).spawn("127.0.0.1:0", durable.clone()).expect("spawn");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        // Many times `WBUF_HIGH` of answers, and more than the socket
        // buffers between the two ends hold: with nobody reading, the
        // worker stops decoding with held answers at the high-water mark
        // and requests still unread.
        const PUTS: usize = 200_000;
        let flood = put_frames(1, (0..PUTS as u64).map(|i| 1 + i % 512));
        let mut tx = stream.try_clone().expect("clone");
        let ids = std::thread::scope(|scope| {
            scope.spawn(move || tx.write_all(&flood).expect("send"));
            // Only read once the worker has stopped making progress.
            let mut answered = 0;
            loop {
                std::thread::sleep(Duration::from_millis(50));
                let now = handle.stats().frames;
                if now == answered && now > 0 {
                    break;
                }
                answered = now;
            }
            read_answers(&mut stream, PUTS)
        });
        assert!(ids.iter().copied().eq(1..=PUTS as u64), "{} answers", ids.len());
        assert_eq!(durable.commit_stats().ops, PUTS as u64);
        assert_eq!(durable.committed_seq(), PUTS as u64);
        drop(stream);
        let stats = handle.shutdown().expect("shutdown");
        assert_eq!((stats.frames, stats.io_closes), (PUTS as u64, 0));
    }

    #[test]
    fn puts_before_a_poisoned_frame_are_synced_then_answered_then_closed() {
        let (durable, wal) = gated_durable();
        let handle =
            KvServer::builder().threads(1).spawn("127.0.0.1:0", durable.clone()).expect("spawn");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut bytes = put_frames(1, 1..4);
        bytes.extend_from_slice(&[0xFF; 24]); // no magic: the connection must close
        wal.hold();
        stream.write_all(&bytes).expect("send");
        wal.wait_parked();
        assert!(nothing_to_read(&mut stream), "the closing path must flush before it writes");
        wal.release();
        assert_eq!(read_answers(&mut stream, 4), [1, 2, 3], "three answers, then the close");
        assert_eq!(recovered_keys(&wal), [1, 2, 3]);
        let stats = handle.shutdown().expect("shutdown");
        assert_eq!((stats.protocol_closes, stats.frames), (1, 3));
    }

    #[test]
    fn shutdown_with_answers_held_delivers_them_and_the_log_has_every_op() {
        let (durable, wal) = gated_durable();
        let handle =
            KvServer::builder().threads(1).spawn("127.0.0.1:0", durable.clone()).expect("spawn");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        wal.hold();
        // One segment, one read: the worker has all fifty when it parks.
        stream.write_all(&put_frames(1, 1..51)).expect("send");
        wal.wait_parked();
        let stats = std::thread::scope(|scope| {
            let stopping = scope.spawn(|| handle.shutdown().expect("shutdown"));
            wal.release();
            assert_eq!(read_answers(&mut stream, 51), (1..=50).collect::<Vec<u64>>());
            stopping.join().expect("shutdown thread")
        });
        assert_eq!((stats.frames, stats.io_closes), (50, 0));
        assert_eq!(recovered_keys(&wal), (1..=50).collect::<Vec<u64>>());
    }

    #[test]
    fn drain_of_a_stalled_reader_blocks_in_epoll_instead_of_spinning() {
        use crate::sys::set_recv_buffer;

        let handle = KvServer::builder()
            .threads(1)
            .drain_timeout(Duration::from_millis(300))
            .spawn("127.0.0.1:0", table())
            .expect("spawn");
        // A peer with a deliberately tiny receive window pipelines far
        // more GETs than the kernel buffers hold and never reads a
        // byte: the server answers until `WBUF_HIGH` backpressure parks
        // the connection on EPOLLOUT with responses still pending.
        let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
        set_recv_buffer(stream.as_raw_fd(), 4096).expect("SO_RCVBUF");
        stream.set_nonblocking(true).expect("nonblocking");
        let mut frame = Vec::new();
        encode_request(1, &Request::Get(42), &mut frame);
        // 200k frames ≈ 6.4 MiB of requests → 6.6 MiB of responses:
        // past anything sndbuf autotuning can swallow, so backpressure
        // *must* engage and leave responses pending at shutdown.
        let flood: Vec<u8> = frame.iter().copied().cycle().take(frame.len() * 200_000).collect();
        let (mut sent, mut stalls) = (0, 0);
        while sent < flood.len() && stalls < 40 {
            match (&stream).write(&flood[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // The server stopped reading — backpressure engaged,
                    // which is exactly the state the test wants.
                    stalls += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("flood write: {e}"),
            }
        }
        // Let the worker answer until backpressure parks it — its frame
        // count stops moving — before draining. (A fixed sleep here let a
        // slow host shut down a worker that was still catching up, with
        // nothing pending yet.)
        let mut answered = handle.stats().frames;
        loop {
            std::thread::sleep(Duration::from_millis(50));
            let now = handle.stats().frames;
            if now == answered {
                break;
            }
            answered = now;
        }
        let started = Instant::now();
        let stats = handle.shutdown().expect("shutdown");
        let waited = started.elapsed();
        drop(stream);
        // The drain waited out (most of) its budget for the stalled
        // peer, honoring the shrunken knob rather than the 5 s default…
        assert!(waited >= Duration::from_millis(200), "gave up early: {waited:?}");
        assert!(waited < Duration::from_secs(3), "drain_timeout knob ignored: {waited:?}");
        // …while *sleeping* in epoll_wait: a busy-poll would rack up
        // tens of thousands of rounds in 300 ms of zero-window peer.
        assert!(stats.drain_rounds >= 1, "peer never parked on EPOLLOUT");
        assert!(stats.drain_rounds <= 16, "drain busy-spun: {} rounds", stats.drain_rounds);
    }

    #[test]
    fn single_worker_still_works_end_to_end() {
        let handle = KvServer::builder().threads(1).spawn("127.0.0.1:0", table()).expect("spawn");
        let mut client = KvClient::connect(handle.addr()).expect("connect");
        assert!(client.put(5, 55).expect("put").is_ok());
        assert_eq!(client.del(5).expect("del"), Some(55));
        assert_eq!(client.get(5).expect("get"), None);
        drop(client);
        let stats = handle.shutdown().expect("shutdown");
        assert_eq!(stats.frames, 3);
    }
}
