//! A blocking client for the `7DKV` protocol, with explicit pipelining.
//!
//! Two usage levels:
//!
//! * **Convenience** — [`KvClient::get`] / [`put`](KvClient::put) /
//!   [`del`](KvClient::del) / [`batch`](KvClient::batch): one
//!   request/response round trip, response identity verified.
//! * **Pipelined** — [`KvClient::enqueue`] any number of requests,
//!   [`flush`](KvClient::flush) them in one write, then
//!   [`recv`](KvClient::recv) responses in order. The server answers
//!   strictly FIFO per connection, so request ids come back in enqueue
//!   order — the load generator and the differential oracle both lean
//!   on this to keep hundreds of requests in flight per socket.
//!
//! The client is deliberately blocking (`std::net::TcpStream`): all
//! event-loop machinery lives server-side, and test code stays
//! straight-line. Callers that pipeline deeply enough to fill both
//! socket buffers should interleave `recv` with `enqueue`/`flush`
//! (as `benchmark/src/workloads/kv.rs` does, a window at a time), as with
//! any windowed protocol.

use crate::protocol::{
    batch_request_len, decode_response, encode_request, Op, OpResponse, Request, Response,
    MAX_BATCH_OPS, MAX_PAYLOAD_LEN,
};
use sevendim_core::{InsertOutcome, TableError};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connection to a [`KvServer`](crate::KvServer).
pub struct KvClient {
    stream: TcpStream,
    /// Encoded-but-unflushed requests.
    wbuf: Vec<u8>,
    /// Received-but-undecoded response bytes.
    rbuf: Vec<u8>,
    /// Consumed prefix of `rbuf`.
    rstart: usize,
    next_id: u64,
}

impl KvClient {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self { stream, wbuf: Vec::new(), rbuf: Vec::new(), rstart: 0, next_id: 1 })
    }

    /// Encode a request into the outgoing buffer (no I/O yet) and
    /// return its request id.
    pub fn enqueue(&mut self, req: &Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        encode_request(id, req, &mut self.wbuf);
        id
    }

    /// Write every enqueued request to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// Block until the next pipelined response arrives and return it
    /// with its request id.
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        loop {
            if let Some((id, resp, used)) = decode_response(&self.rbuf[self.rstart..])? {
                self.rstart += used;
                if self.rstart == self.rbuf.len() {
                    self.rbuf.clear();
                    self.rstart = 0;
                } else if self.rstart > 64 * 1024 {
                    self.rbuf.drain(..self.rstart);
                    self.rstart = 0;
                }
                return Ok((id, resp));
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    ))
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// One full round trip, verifying the response matches the request.
    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        let id = self.enqueue(req);
        self.flush()?;
        let (got, resp) = self.recv()?;
        if got != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {got} for request {id} (pipeline out of sync)"),
            ));
        }
        Ok(resp)
    }

    /// Look up `key`.
    pub fn get(&mut self, key: u64) -> io::Result<Option<u64>> {
        match self.round_trip(&Request::Get(key))? {
            Response::Get(v) => Ok(v),
            other => Err(mismatch("GET", &other)),
        }
    }

    /// Insert or replace `key`.
    pub fn put(&mut self, key: u64, value: u64) -> io::Result<Result<InsertOutcome, TableError>> {
        match self.round_trip(&Request::Put(key, value))? {
            Response::Put(r) => Ok(r),
            other => Err(mismatch("PUT", &other)),
        }
    }

    /// Delete `key`, returning the value it held.
    pub fn del(&mut self, key: u64) -> io::Result<Option<u64>> {
        match self.round_trip(&Request::Del(key))? {
            Response::Del(v) => Ok(v),
            other => Err(mismatch("DEL", &other)),
        }
    }

    /// Execute `ops` server-side as one frame; results come back in op
    /// order. More than [`MAX_BATCH_OPS`] ops, or a request longer than
    /// [`MAX_PAYLOAD_LEN`] bytes, is refused with
    /// [`io::ErrorKind::InvalidInput`] before anything is encoded or sent.
    pub fn batch(&mut self, ops: &[Op]) -> io::Result<Vec<OpResponse>> {
        let len = batch_request_len(ops);
        if ops.len() > MAX_BATCH_OPS || len > MAX_PAYLOAD_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "a batch of {} ops is a {len}-byte request; the limits are \
                     {MAX_BATCH_OPS} ops and {MAX_PAYLOAD_LEN} bytes",
                    ops.len()
                ),
            ));
        }
        match self.round_trip(&Request::Batch(ops.to_vec()))? {
            Response::Batch(r) => Ok(r),
            other => Err(mismatch("BATCH", &other)),
        }
    }

    /// Bytes currently enqueued but not flushed (for pacing deep
    /// pipelines).
    pub fn queued_bytes(&self) -> usize {
        self.wbuf.len()
    }
}

fn mismatch(wanted: &str, got: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected a {wanted} response, got {got:?} (pipeline out of sync)"),
    )
}
