//! Load generator for the networked KV service.
//!
//! ```text
//! cargo run --release -p bench --bin kv_loadgen -- --scale smoke --json
//! ```
//!
//! Spawns an in-process `KvServer` (or targets `--addr host:port`),
//! then drives it from `--conns` client threads, each keeping
//! `--pipeline` requests in flight over one socket. Two panels:
//!
//! * **get** — 100% `GET` over a preloaded key space (every lookup
//!   hits), the panel that shows how far wire pipelining carries the
//!   table's batched probe kernels;
//! * **mixed** — `--get-ratio`% `GET` / rest `PUT` over the same keys,
//!   the service-shaped analogue of the paper's RW mix.
//!
//! Arrival is **open-loop** when `--rate` is set: each request has a
//! scheduled arrival time on a fixed grid and its latency is measured
//! from that *schedule*, not from the send — a stalled server makes
//! queued requests' latencies grow, instead of silently slowing the
//! arrival rate (coordinated omission). `--rate 0` (default) is closed
//! loop: the pipeline refills as responses return and latency is
//! measured from enqueue.
//!
//! Per-worker latencies land in private `LatencyHistogram`s and are
//! merged for reporting (`LatencyHistogram::merged` — identical to one
//! histogram recording every sample). `--json` additionally writes
//! `BENCH_net.json` (schema v4: stamped with `schema_version`,
//! `server_threads`, and `warmup_ops`) for trend tracking.
//!
//! Every measured window is preceded by an **untimed warm-up**: the
//! preload plus a few thousand throwaway ops in the measured panel's
//! own shape (same connections, pipeline depth, and mix), so first-use
//! costs — connection setup, buffer allocation, table page faults,
//! branch warm-up in the event loop — land outside the clock. Fresh
//! servers (the main run and every sweep point) each get their own
//! warm-up; without it the sweep's low-thread points carried the whole
//! cold start and the scaling curve was skewed. The server's own op
//! counter cross-checks the bookkeeping at shutdown: the sum of
//! preload, warm-up, and panel ops must account for every op served,
//! proving the measured panels counted only their own windows.
//!
//! `--server-threads N` sets the in-process server's worker count
//! (default: one per core) and the ceiling of the **thread sweep
//! panel**: the GET workload re-run against fresh servers at 1, 2, 4, …
//! worker threads, charting how throughput scales as more cores run
//! the seqlock read path. On a 1-core host the sweep still prints (the
//! curve is flat there — correctness, not scaling) with the same
//! caveat `scale_threads` uses.

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("kv_loadgen needs Linux (the server is epoll-based)");
    std::process::exit(2);
}

#[cfg(target_os = "linux")]
fn main() {
    linux::main()
}

#[cfg(target_os = "linux")]
mod linux {
    use metrics::LatencyHistogram;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sevendim_core::{ConcurrentTable, TableBuilder, TableScheme};
    use sevendim_net::protocol::{Op, Request};
    use sevendim_net::{KvClient, KvServer, ServerHandle};
    use std::collections::VecDeque;
    use std::io::Write as _;
    use std::net::SocketAddr;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Most client connections (threads) the generator will drive; more
    /// is a config error, not a bigger benchmark.
    const MAX_CONNS: usize = 1024;

    /// Deepest per-connection pipeline. Past a few thousand in-flight
    /// frames the client's deferred `recv` can deadlock against the
    /// server's write-side backpressure (both socket buffers full, the
    /// server paused on `WBUF_HIGH`, the client blocked in `flush`) —
    /// reject the config instead of hanging.
    const MAX_PIPELINE: usize = 4096;

    /// Sanity ceiling for `--server-threads` (the sweep spawns a fresh
    /// server per point).
    const MAX_SERVER_THREADS: usize = 256;

    /// Untimed throwaway ops per connection before each measured
    /// window. A thousand per connection is enough to fault in the
    /// client/server buffers and run every event-loop path a few
    /// hundred times; it is deliberately *not* scaled with `--ops` so
    /// smoke runs stay quick.
    const WARMUP_OPS_PER_CONN: usize = 1000;

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Scale {
        Smoke,
        Default,
        Paper,
    }

    struct Args {
        scale: Scale,
        conns: Option<usize>,
        pipeline: Option<usize>,
        ops: Option<usize>,
        keys: Option<usize>,
        /// GET percentage of the mixed panel, 0..=100.
        get_ratio: u32,
        /// Open-loop arrival rate in ops/s across all connections
        /// (0 = closed loop).
        rate: u64,
        /// Worker event loops for the in-process server (None = one per
        /// core) and the ceiling of the thread-sweep panel.
        server_threads: Option<usize>,
        json: bool,
        addr: Option<String>,
    }

    impl Args {
        fn conns(&self) -> usize {
            self.conns.unwrap_or(match self.scale {
                Scale::Smoke => 2,
                Scale::Default => 4,
                Scale::Paper => 16,
            })
        }

        fn pipeline(&self) -> usize {
            self.pipeline.unwrap_or(match self.scale {
                Scale::Smoke => 16,
                Scale::Default => 64,
                Scale::Paper => 128,
            })
        }

        /// Resolved server worker count: the flag, or one per core.
        fn server_threads(&self) -> usize {
            self.server_threads.unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            })
        }

        fn ops(&self) -> usize {
            self.ops.unwrap_or(match self.scale {
                Scale::Smoke => 40_000,
                Scale::Default => 400_000,
                Scale::Paper => 10_000_000,
            })
        }

        fn keys(&self) -> usize {
            self.keys
                .unwrap_or(match self.scale {
                    Scale::Smoke => 10_000,
                    Scale::Default => 100_000,
                    Scale::Paper => 1_000_000,
                })
                .max(1)
        }
    }

    fn parse_args(argv: impl IntoIterator<Item = String>) -> Args {
        let mut args = Args {
            scale: Scale::Default,
            conns: None,
            pipeline: None,
            ops: None,
            keys: None,
            get_ratio: 80,
            rate: 0,
            server_threads: None,
            json: false,
            addr: None,
        };
        let mut it = argv.into_iter();
        let _bin = it.next();
        while let Some(flag) = it.next() {
            let mut value_for =
                |flag: &str| it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
            match flag.as_str() {
                "--scale" => {
                    args.scale = match value_for("--scale").as_str() {
                        "smoke" => Scale::Smoke,
                        "default" => Scale::Default,
                        "paper" => Scale::Paper,
                        v => usage(&format!("unknown scale '{v}'")),
                    }
                }
                "--conns" => args.conns = Some(parse_num(&value_for("--conns"), "--conns")),
                "--pipeline" => {
                    args.pipeline = Some(parse_num(&value_for("--pipeline"), "--pipeline"))
                }
                "--ops" => args.ops = Some(parse_num(&value_for("--ops"), "--ops")),
                "--keys" => args.keys = Some(parse_num(&value_for("--keys"), "--keys")),
                "--get-ratio" => {
                    let r = parse_num(&value_for("--get-ratio"), "--get-ratio");
                    if r > 100 {
                        usage("--get-ratio is a percentage (0..=100)");
                    }
                    args.get_ratio = r as u32;
                }
                "--rate" => args.rate = parse_num(&value_for("--rate"), "--rate") as u64,
                "--server-threads" => {
                    args.server_threads =
                        Some(parse_num(&value_for("--server-threads"), "--server-threads"))
                }
                "--json" => args.json = true,
                "--addr" => args.addr = Some(value_for("--addr")),
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        validate(&args);
        args
    }

    /// Reject configs that would hang or thrash instead of measuring:
    /// zero connections or pipeline depth never make progress, an
    /// oversized pipeline deadlocks against server backpressure, and an
    /// absurd rate cannot be scheduled on a nanosecond grid.
    fn validate(args: &Args) {
        if let Some(c) = args.conns {
            if c == 0 {
                usage("--conns must be >= 1 (zero connections generate no load)");
            }
            if c > MAX_CONNS {
                usage(&format!("--conns must be <= {MAX_CONNS} (one thread per connection)"));
            }
        }
        if let Some(p) = args.pipeline {
            if p == 0 {
                usage("--pipeline must be >= 1 (an empty pipeline never completes)");
            }
            if p > MAX_PIPELINE {
                usage(&format!(
                    "--pipeline must be <= {MAX_PIPELINE} (deeper deadlocks against \
                     server write backpressure)"
                ));
            }
        }
        if let Some(o) = args.ops {
            if o == 0 {
                usage("--ops must be >= 1");
            }
        }
        if let Some(t) = args.server_threads {
            if t == 0 || t > MAX_SERVER_THREADS {
                usage(&format!("--server-threads must be in 1..={MAX_SERVER_THREADS}"));
            }
        }
        if (1_000_000_000u64 * args.conns() as u64).checked_div(args.rate) == Some(0) {
            usage("--rate too high: per-connection arrival interval rounds to 0 ns");
        }
    }

    fn parse_num(v: &str, flag: &str) -> usize {
        v.parse().unwrap_or_else(|_| usage(&format!("{flag} must be an integer")))
    }

    fn usage(err: &str) -> ! {
        if !err.is_empty() {
            eprintln!("error: {err}");
        }
        eprintln!(
            "usage: kv_loadgen [--scale smoke|default|paper] [--conns N] [--pipeline N] \
             [--ops N] [--keys N] [--get-ratio PCT] [--rate OPS_PER_SEC] \
             [--server-threads N] [--addr HOST:PORT] [--json]"
        );
        std::process::exit(if err.is_empty() { 0 } else { 2 })
    }

    struct PanelResult {
        name: &'static str,
        ops: u64,
        elapsed: Duration,
        hist: LatencyHistogram,
    }

    impl PanelResult {
        fn mops(&self) -> f64 {
            self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
        }
    }

    /// One worker: a windowed pipeline of `depth` requests over one
    /// connection, with open-loop scheduling when `interval_ns > 0`.
    fn worker(
        addr: SocketAddr,
        ops: usize,
        depth: usize,
        keys: u64,
        get_ratio: u32,
        interval_ns: u64,
        seed: u64,
    ) -> std::io::Result<LatencyHistogram> {
        let mut client = KvClient::connect(addr)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hist = LatencyHistogram::new();
        let mut inflight: VecDeque<(u64, u64)> = VecDeque::with_capacity(depth); // (id, sched_ns)
        let start = Instant::now();
        for i in 0..ops {
            // Open loop: request i is *due* at i·interval regardless of
            // server progress; if we're early, wait for the schedule.
            let sched_ns = i as u64 * interval_ns;
            if interval_ns > 0 {
                let now = start.elapsed().as_nanos() as u64;
                if sched_ns > now {
                    std::thread::sleep(Duration::from_nanos(sched_ns - now));
                }
            }
            if inflight.len() >= depth {
                client.flush()?;
                let (id, sched) = inflight.pop_front().expect("inflight is non-empty");
                let (got, _resp) = client.recv()?;
                debug_assert_eq!(got, id, "server answers FIFO");
                hist.record(start.elapsed().as_nanos() as u64 - sched);
            }
            let key = rng.gen_range(0..keys);
            let req = if rng.gen_range(0..100u32) < get_ratio {
                Request::Get(key)
            } else {
                Request::Put(key, i as u64)
            };
            let sched = if interval_ns > 0 { sched_ns } else { start.elapsed().as_nanos() as u64 };
            let id = client.enqueue(&req);
            inflight.push_back((id, sched));
        }
        client.flush()?;
        while let Some((id, sched)) = inflight.pop_front() {
            let (got, _resp) = client.recv()?;
            debug_assert_eq!(got, id, "server answers FIFO");
            hist.record(start.elapsed().as_nanos() as u64 - sched);
        }
        Ok(hist)
    }

    fn run_panel(
        name: &'static str,
        addr: SocketAddr,
        args: &Args,
        get_ratio: u32,
        total_ops: usize,
        rate: u64,
    ) -> PanelResult {
        let conns = args.conns();
        let per_worker = total_ops.div_ceil(conns);
        let keys = args.keys() as u64;
        let depth = args.pipeline();
        // The global arrival rate splits evenly across connections.
        let interval_ns = (1_000_000_000u64 * conns as u64).checked_div(rate).unwrap_or(0);
        let start = Instant::now();
        let workers: Vec<_> = (0..conns)
            .map(|w| {
                std::thread::spawn(move || {
                    worker(
                        addr,
                        per_worker,
                        depth,
                        keys,
                        get_ratio,
                        interval_ns,
                        0xC0FFEE + w as u64,
                    )
                })
            })
            .collect();
        let hists: Vec<LatencyHistogram> = workers
            .into_iter()
            .map(|h| h.join().expect("worker panicked").expect("worker I/O failed"))
            .collect();
        let elapsed = start.elapsed();
        PanelResult {
            name,
            ops: (per_worker * conns) as u64,
            elapsed,
            hist: LatencyHistogram::merged(&hists),
        }
    }

    /// The untimed warm-up burst: the measured panels' own shape (same
    /// connections, pipeline depth, and mixed GET/PUT ratio), result
    /// thrown away. Returns the op count it issued so the shutdown
    /// accounting can prove it stayed outside every measured window.
    fn warmup(addr: SocketAddr, args: &Args) -> u64 {
        let total = args.conns() * WARMUP_OPS_PER_CONN;
        // Always closed loop: the warm-up exists to exercise code paths,
        // not to honor the measured panels' arrival schedule.
        run_panel("warmup", addr, args, args.get_ratio, total, 0).ops
    }

    /// Preload every key so the GET panel always hits, using `BATCH`
    /// frames (also warms the server's batch path).
    fn preload(addr: SocketAddr, keys: u64) -> std::io::Result<()> {
        let mut client = KvClient::connect(addr)?;
        let mut ops = Vec::with_capacity(1024);
        for chunk_start in (0..keys).step_by(1024) {
            ops.clear();
            for k in chunk_start..(chunk_start + 1024).min(keys) {
                ops.push(Op::Put(k, k.wrapping_mul(3)));
            }
            let results = client.batch(&ops)?;
            assert_eq!(results.len(), ops.len(), "preload batch answered fully");
        }
        Ok(())
    }

    fn fmt_us(nanos: u64) -> String {
        format!("{:.1}", nanos as f64 / 1000.0)
    }

    /// A fresh in-process server for `args`' workload: LP × Mult sharded
    /// table sized to hold the key space at <= 70% load, optimistic
    /// reads on (the GET panels should take the seqlock path), `threads`
    /// worker event loops.
    fn spawn_server(args: &Args, threads: usize) -> ServerHandle {
        let keys = args.keys();
        let slots = (keys as f64 / 0.7).ceil() as usize;
        let bits = (slots.next_power_of_two().trailing_zeros() as u8).max(8);
        let table = TableBuilder::new(TableScheme::LinearProbing)
            .bits(bits)
            .concurrency(args.conns().max(threads))
            .optimistic_reads(true)
            .build_sharded();
        let table: Arc<dyn ConcurrentTable> = Arc::new(table);
        KvServer::builder().threads(threads).spawn("127.0.0.1:0", table).expect("spawn server")
    }

    struct SweepPoint {
        threads: usize,
        mops: f64,
        p50_ns: u64,
        p99_ns: u64,
    }

    /// Worker counts for the sweep: 1, 2, 4, … up to `max`, always
    /// including `max` itself. At least two points even on a 1-core
    /// host, so the panel exists everywhere (flat curve = correctness
    /// evidence, not scaling evidence).
    fn sweep_points(max: usize) -> Vec<usize> {
        let top = max.max(2);
        let mut points = Vec::new();
        let mut t = 1;
        while t < top {
            points.push(t);
            t *= 2;
        }
        points.push(top);
        points
    }

    /// The thread-sweep panel: the GET workload re-run against a fresh
    /// server (own table, own preload) per worker count. Skipped when
    /// `--addr` targets an external server we can't respawn.
    fn run_sweep(args: &Args) -> Vec<SweepPoint> {
        let keys = args.keys() as u64;
        sweep_points(args.server_threads())
            .into_iter()
            .map(|threads| {
                let handle = spawn_server(args, threads);
                preload(handle.addr(), keys).expect("sweep preload");
                // Untimed warm-up per point: each fresh server pays its
                // cold start *before* its measured window, so the
                // low-thread points no longer carry setup skew.
                let warmed = warmup(handle.addr(), args);
                let panel = run_panel("get", handle.addr(), args, 100, args.ops(), args.rate);
                let stats = handle.shutdown().expect("sweep server shutdown");
                assert_eq!(stats.protocol_closes, 0, "loadgen speaks the protocol");
                assert_eq!(
                    stats.ops,
                    keys + warmed + panel.ops,
                    "sweep point at {threads} threads: measured window op accounting"
                );
                SweepPoint {
                    threads,
                    mops: panel.mops(),
                    p50_ns: panel.hist.p50(),
                    p99_ns: panel.hist.p99(),
                }
            })
            .collect()
    }

    /// Open file descriptors of this process, for the leak check: after
    /// every server and client is shut down the count must return to
    /// its startup value (worker epolls, wake pipes, listeners, and
    /// accepted sockets all closed).
    fn count_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").map(|d| d.count()).unwrap_or(0)
    }

    pub fn main() {
        let fds_at_start = count_fds();
        let args = parse_args(std::env::args());
        let keys = args.keys();

        // In-process server unless --addr points elsewhere.
        let mut server = None;
        let addr: SocketAddr = match &args.addr {
            Some(a) => a.parse().unwrap_or_else(|_| usage("--addr must be HOST:PORT")),
            None => {
                let handle = spawn_server(&args, args.server_threads());
                let a = handle.addr();
                server = Some(handle);
                a
            }
        };

        println!(
            "kv_loadgen — {} conns × pipeline {}, {} ops/panel, {} keys, {}, \
             {} server threads",
            args.conns(),
            args.pipeline(),
            args.ops(),
            keys,
            if args.rate == 0 {
                "closed loop".to_string()
            } else {
                format!("open loop at {} ops/s", args.rate)
            },
            args.server_threads(),
        );

        preload(addr, keys as u64).expect("preload");
        let warmed = warmup(addr, &args);

        let panels = [
            run_panel("get", addr, &args, 100, args.ops(), args.rate),
            run_panel("mixed", addr, &args, args.get_ratio, args.ops(), args.rate),
        ];

        println!(
            "\n{:<8} {:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "panel", "ops", "M ops/s", "mean us", "p50 us", "p99 us", "max us"
        );
        for p in &panels {
            println!(
                "{:<8} {:>10} {:>8.2} {:>10} {:>10} {:>10} {:>10}",
                p.name,
                p.ops,
                p.mops(),
                format!("{:.1}", p.hist.mean_nanos() / 1000.0),
                fmt_us(p.hist.p50()),
                fmt_us(p.hist.p99()),
                fmt_us(p.hist.max_nanos()),
            );
        }

        // The main in-process server is done before the sweep spawns its
        // own; an external --addr server can't be respawned per point,
        // so the sweep is skipped there.
        if let Some(handle) = server.take() {
            let stats = handle.shutdown().expect("server shutdown");
            assert_eq!(stats.protocol_closes, 0, "loadgen speaks the protocol");
            // Regression guard for the warm-up fix: the server's total
            // op count must be exactly preload + warm-up + the two
            // measured panels — the panels counted nothing but their
            // own windows, and the warm-up stayed outside them.
            let measured: u64 = panels.iter().map(|p| p.ops).sum();
            assert_eq!(
                stats.ops,
                keys as u64 + warmed + measured,
                "measured window op accounting (preload {keys} + warmup {warmed} + panels)"
            );
            println!(
                "clean shutdown: {} conns, {} frames, {} ops served \
                 ({} preload + {} warmup + {} measured)",
                stats.accepted, stats.frames, stats.ops, keys, warmed, measured
            );
        }

        let sweep = if args.addr.is_none() { run_sweep(&args) } else { Vec::new() };
        if !sweep.is_empty() {
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            println!("\nserver-thread sweep — GET panel:");
            println!(
                "{:<8} {:>8} {:>8} {:>10} {:>10}",
                "threads", "M ops/s", "speedup", "p50 us", "p99 us"
            );
            let base = sweep[0].mops;
            for pt in &sweep {
                println!(
                    "{:<8} {:>8.2} {:>7.2}x {:>10} {:>10}",
                    pt.threads,
                    pt.mops,
                    if base > 0.0 { pt.mops / base } else { 0.0 },
                    fmt_us(pt.p50_ns),
                    fmt_us(pt.p99_ns),
                );
            }
            let top = sweep.last().expect("sweep is non-empty").threads;
            if cores < top {
                println!(
                    "(host has {cores} core(s) — points above {cores} threads oversubscribe \
                     and show correctness, not scaling)"
                );
            }
        }

        if args.json {
            let mut out =
                String::from("{\n  \"bench\": \"kv_loadgen\",\n  \"schema_version\": 4,\n");
            out.push_str(&format!(
                "  \"conns\": {}, \"pipeline\": {}, \"keys\": {}, \"rate\": {},\n  \
                 \"server_threads\": {}, \"warmup_ops\": {},\n  \
                 \"panels\": [\n",
                args.conns(),
                args.pipeline(),
                keys,
                args.rate,
                args.server_threads(),
                warmed,
            ));
            for (i, p) in panels.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"name\": \"{}\", \"ops\": {}, \"secs\": {:.6}, \"mops\": {:.4}, \
                     \"mean_ns\": {:.0}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}{}\n",
                    p.name,
                    p.ops,
                    p.elapsed.as_secs_f64(),
                    p.mops(),
                    p.hist.mean_nanos(),
                    p.hist.p50(),
                    p.hist.p99(),
                    p.hist.max_nanos(),
                    if i + 1 < panels.len() { "," } else { "" },
                ));
            }
            out.push_str("  ],\n  \"sweep\": [\n");
            for (i, pt) in sweep.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"threads\": {}, \"mops\": {:.4}, \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
                    pt.threads,
                    pt.mops,
                    pt.p50_ns,
                    pt.p99_ns,
                    if i + 1 < sweep.len() { "," } else { "" },
                ));
            }
            out.push_str("  ]\n}\n");
            let mut f = std::fs::File::create("BENCH_net.json").expect("create BENCH_net.json");
            f.write_all(out.as_bytes()).expect("write BENCH_net.json");
            println!("\nwrote BENCH_net.json");
        }

        // Every worker thread has joined by now; any fd delta is a leak
        // in the server/client lifecycle.
        let fds_at_end = count_fds();
        assert_eq!(fds_at_end, fds_at_start, "file descriptors leaked across server lifecycles");
        println!("no leaked fds ({fds_at_end} open, same as at startup)");
    }
}
