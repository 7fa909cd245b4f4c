//! What the two loopback workloads share: a phase of requests with the
//! answers the model expects, and the closed-loop window that sends it.
//!
//! A window is sent whole with one `flush` and then drained, so the
//! client's own `write` calls are amortised over the window — unlike
//! `kv_loadgen`, which flushes per request and measures mostly that.

use crate::common::Checker;
use crate::trace::Tracer;
use sevendim_core::ConcurrentTable;
use sevendim_net::protocol::{Op, OpResponse, Request, Response};
use sevendim_net::{KvClient, KvServer, ServerHandle};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Requests in the order they are sent, and what each must answer. The
/// model is applied while the phase is generated, during set-up, so the
/// timed path only compares.
#[derive(Default)]
pub struct Phase {
    pub ops: Vec<Op>,
    pub want: Vec<OpResponse>,
}

impl Phase {
    pub fn push(&mut self, (op, want): (Op, OpResponse)) {
        self.ops.push(op);
        self.want.push(want);
    }

    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.ops.iter().map(|op| match *op {
            Op::Get(k) | Op::Del(k) | Op::Put(k, _) => k,
        })
    }
}

pub fn request(op: Op) -> Request {
    match op {
        Op::Get(k) => Request::Get(k),
        Op::Put(k, v) => Request::Put(k, v),
        Op::Del(k) => Request::Del(k),
    }
}

fn answer(resp: Response) -> Option<OpResponse> {
    match resp {
        Response::Get(v) => Some(OpResponse::Get(v)),
        Response::Put(r) => Some(OpResponse::Put(r)),
        Response::Del(v) => Some(OpResponse::Del(v)),
        Response::Batch(_) => None,
    }
}

/// Span names of the client side of a window.
#[derive(Clone, Copy)]
pub struct ClientSpans {
    window: u16,
    enqueue: u16,
    flush: u16,
    recv: u16,
}

impl ClientSpans {
    pub fn register(tr: &mut Tracer) -> Self {
        Self {
            window: tr.name("net.client.window"),
            enqueue: tr.name("net.client.enqueue"),
            flush: tr.name("net.client.flush"),
            recv: tr.name("net.client.recv"),
        }
    }
}

/// What the timed windows of a phase took.
pub struct Windows {
    /// Sum of the timed rounds' durations.
    pub wall_ns: u64,
    /// Round trip of each timed window — send to last answer — round by
    /// round and, within a round, connection by connection.
    pub window_us: Vec<f64>,
    /// Operations in the timed windows.
    pub ops: usize,
}

/// Send one phase per connection in closed-loop rounds: every
/// connection enqueues a window of `window` frames and flushes it once,
/// then every connection's window is drained and checked. With one
/// connection a round is one window. With two, both always have a
/// window in flight at once, so the server's workers meet on every
/// round — and neither connection can run ahead and starve the other,
/// which on two cores made tail latency a coin toss between two
/// scheduling regimes. The first `warmup` rounds run and are checked but
/// are neither timed nor traced.
pub fn run_windows(
    clients: &mut [KvClient],
    phases: &[&Phase],
    window: usize,
    warmup: usize,
    spans: ClientSpans,
    tr: &mut Tracer,
    ck: &mut Checker,
) -> Windows {
    assert_eq!(clients.len(), phases.len());
    let tracing = tr.enabled();
    let rounds = phases[0].ops.len().div_ceil(window);
    let mut got: Vec<Vec<OpResponse>> = vec![Vec::with_capacity(window); clients.len()];
    let mut sent = vec![Instant::now(); clients.len()];
    let mut out =
        Windows { wall_ns: 0, window_us: Vec::with_capacity(rounds * clients.len()), ops: 0 };
    'rounds: for round in 0..rounds {
        let timed = round >= warmup;
        let slice = |phase: &Phase| round * window..((round + 1) * window).min(phase.ops.len());
        tr.set_enabled(tracing && timed);
        let whole = tr.begin(spans.window, None, round as u32);
        for (c, (client, phase)) in clients.iter_mut().zip(phases).enumerate() {
            sent[c] = Instant::now();
            let part = tr.begin(spans.enqueue, Some(&whole), round as u32);
            for &op in &phase.ops[slice(phase)] {
                client.enqueue(&request(op));
            }
            tr.end(part);
            let part = tr.begin(spans.flush, Some(&whole), round as u32);
            let flushed = client.flush();
            tr.end(part);
            if let Err(e) = flushed {
                ck.error("flush", e);
                break 'rounds;
            }
        }
        for (c, (client, phase)) in clients.iter_mut().zip(phases).enumerate() {
            let frames = slice(phase).len();
            got[c].clear();
            let part = tr.begin(spans.recv, Some(&whole), round as u32);
            let drained = (0..frames).try_for_each(|_| {
                let (_, resp) = client.recv()?;
                got[c].push(answer(resp).ok_or_else(|| io::Error::other("a BATCH answer"))?);
                Ok::<(), io::Error>(())
            });
            tr.end(part);
            if let Err(e) = drained {
                ck.error("recv", e);
                break 'rounds;
            }
            if timed {
                out.window_us.push(sent[c].elapsed().as_nanos() as f64 / 1e3);
                out.ops += frames;
            }
        }
        let ns = tr.end(whole);
        if timed {
            out.wall_ns += ns;
        }
        for (got, phase) in got.iter().zip(phases) {
            for (&g, &w) in got.iter().zip(&phase.want[slice(phase)]) {
                ck.op("answer", g, w);
            }
        }
    }
    tr.set_enabled(tracing);
    out
}

/// A loopback server over `table` with `workers` event loops.
pub fn serve(table: Arc<dyn ConcurrentTable>, workers: usize) -> io::Result<ServerHandle> {
    KvServer::builder().threads(workers).spawn("127.0.0.1:0", table)
}

/// Stop the server and check it closed no connection on an error.
pub fn stop(server: ServerHandle, ck: &mut Checker) -> (u64, u64) {
    match server.shutdown() {
        Ok(stats) => {
            ck.fact("connections closed on a protocol error", stats.protocol_closes, 0);
            ck.fact("connections closed on an I/O error", stats.io_closes, 0);
            (stats.frames, stats.ops)
        }
        Err(e) => {
            ck.error("server shutdown", e);
            (0, 0)
        }
    }
}
