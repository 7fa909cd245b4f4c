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
use sevendim_core::ConcurrentTable;
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
    /// The most recent protocol violation, for diagnostics and tests.
    pub last_protocol_error: Option<ProtoError>,
    /// The most recent I/O close kind, for diagnostics.
    pub last_io_error: Option<io::ErrorKind>,
    /// Runtime statistics of the served table (merged over shards via
    /// [`ConcurrentTable::stats_shared`]): lookup/miss/write counts, the
    /// miss-ratio EWMA, probe-length samples, and — when the table runs
    /// a [`MigrationPolicy`](sevendim_core::MigrationPolicy) — rehash
    /// and scheme-switch counts. All zeros for tables that do not track
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
    /// acknowledged was group-committed to the WAL *before* its response
    /// frame was encoded — the worker calls the table's
    /// `insert_batch_shared`/`delete_batch_shared` (which apply, log and
    /// fsync per policy) and only then builds the responses.
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
            for ev in &events[..n] {
                // Copy out of the (possibly packed) event record.
                let (token, ready) = ({ ev.data }, { ev.events });
                match token {
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    _ => self.conn_ready(token as RawFd, ready),
                }
            }
            if shutdown.load(Ordering::Acquire) {
                self.drain_connections();
                return Ok(());
            }
        }
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

    /// Drive one connection's state machine and re-sync its interest.
    fn conn_ready(&mut self, fd: RawFd, ready: u32) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return; // already closed earlier in this batch
        };
        // Error/hangup conditions surface through the read path: the
        // next `read(2)` reports EOF or the real errno.
        let readable = ready & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0;
        let writable = ready & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0;
        let mut pump = PumpStats::default();
        let result = conn.handle(readable, writable, &*self.table, &mut pump);
        self.counters.record_pump(&pump);
        match result {
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
        }
    }

    /// One drain step for one connection: pump leftovers (no reads),
    /// flush, close when empty, and park on `EPOLLOUT` otherwise.
    fn drain_flush(&mut self, fd: RawFd) {
        let Some(conn) = self.conns.get_mut(&fd) else { return };
        let mut pump = PumpStats::default();
        let result = conn.handle(false, true, &*self.table, &mut pump);
        let (pending, registered) = (conn.pending_out(), conn.registered);
        self.counters.record_pump(&pump);
        match result {
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
    use crate::KvClient;
    use sevendim_core::{TableBuilder, TableScheme};
    use sevendim_durable::DurableTable;

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
        use sevendim_core::{AdaptiveConfig, MigrationPolicy};
        // One shard, 256 slots at ~59% load, step-1 drain: the adaptive
        // switch stays in flight for hundreds of ops once triggered.
        let table: Arc<dyn ConcurrentTable> = Arc::new(
            TableBuilder::new(TableScheme::LinearProbing)
                .bits(8)
                .incremental(1)
                .migration(MigrationPolicy::Adaptive(AdaptiveConfig {
                    check_every: 8,
                    min_lookups: 32,
                    cooldown: 64,
                }))
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
        assert!(stats.table.miss_ewma > 0.5, "EWMA must have tracked the miss phase");
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
        // Every response the client saw was logged before it was even
        // encoded: a fresh "process" replays the log to the same map.
        let (reopened, report) = DurableTable::open(&builder).expect("reopen");
        assert!(report.clean());
        assert_eq!(report.replayed_ops, 51);
        assert_eq!(reopened.len_shared(), 49);
        assert_eq!(reopened.lookup_shared(7), None);
        assert_eq!(reopened.lookup_shared(11), Some(33));
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_of_a_stalled_reader_blocks_in_epoll_instead_of_spinning() {
        use crate::protocol::{encode_request, Request};
        use crate::sys::set_recv_buffer;
        use std::io::Write as _;

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
        // Let the worker finish answering and park before draining.
        std::thread::sleep(Duration::from_millis(150));
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
