//! Wire format of the KV service: length-prefixed, checksummed binary
//! frames.
//!
//! Every message — request or response — is one **frame**: a fixed
//! 24-byte header followed by `payload_len` payload bytes. All integers
//! are little-endian.
//!
//! ```text
//! offset  size  field        notes
//! 0       4     magic        b"7DKV"
//! 4       1     version      PROTOCOL_VERSION (1)
//! 5       1     opcode       request 0x01..=0x04; response = request | 0x80
//! 6       2     flags        reserved, must be zero
//! 8       8     request_id   echoed verbatim in the response
//! 16      4     payload_len  <= MAX_PAYLOAD_LEN
//! 20      4     checksum     mix of header bytes 0..20 (see below)
//! ```
//!
//! The checksum covers every other header byte through a salted
//! [`Murmur::fmix64`] chain, so any single corrupted header byte —
//! including a corrupted length, which would otherwise desynchronize the
//! stream — is rejected before a single payload byte is trusted.
//! `payload_len` is validated against [`MAX_PAYLOAD_LEN`] *before* any
//! allocation: a hostile header cannot make the peer reserve gigabytes.
//!
//! # Payload encodings
//!
//! | opcode | request payload | response payload |
//! |---|---|---|
//! | `GET` (0x01) | key `u64` | status `u8` (1 = found + value `u64`, 0 = miss) |
//! | `PUT` (0x02) | key `u64`, value `u64` | tag `u8`: 0 inserted; 1 replaced + old value `u64`; 2 failed + error code `u8` |
//! | `DEL` (0x03) | key `u64` | status `u8` (1 = deleted + old value `u64`, 0 = absent) |
//! | `BATCH` (0x04) | count `u32`, then per op: sub-opcode `u8` + that op's request payload | count `u32`, then per op: sub-opcode `u8` + that op's response payload |
//!
//! Decoding is **streaming**: [`decode_request`] / [`decode_response`]
//! take the unconsumed byte buffer and return `Ok(None)` while a frame is
//! still incomplete, `Ok(Some((id, frame, consumed)))` for one complete
//! frame, and a typed [`ProtoError`] for anything malformed. A decode
//! error is not recoverable mid-stream (framing is lost), so peers close
//! the connection on the first one.

use hashfn::Murmur;
use sevendim_core::{InsertOutcome, TableError};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"7DKV";

/// Wire-format revision carried in every header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 24;

/// Upper bound on `payload_len`, small enough that a hostile header
/// cannot trigger an unbounded allocation. A `BATCH` request meets two
/// bounds: its payload fits here (at most 61,680 `PUT`s or 116,508
/// `GET`s/`DEL`s), and it carries at most [`MAX_BATCH_OPS`] ops, so that
/// its answer fits here too.
pub const MAX_PAYLOAD_LEN: usize = 1 << 20;

/// Most ops one `BATCH` request may carry: an answer takes at most 10
/// bytes per op after the 4-byte count, so any batch of this many ops is
/// answered within [`MAX_PAYLOAD_LEN`] (104,857).
pub const MAX_BATCH_OPS: usize = (MAX_PAYLOAD_LEN - 4) / 10;

/// Salt folded into the header checksum so it is not any table's hash.
const CHECKSUM_SALT: u64 = 0x7D1A_B0B5_90AC_C371;

/// Response opcodes set this bit on the request opcode.
const RESPONSE_BIT: u8 = 0x80;

const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_DEL: u8 = 0x03;
const OP_BATCH: u8 = 0x04;

/// Why a frame (or stream position) was rejected. Any of these closes
/// the connection: after a framing error the stream offset is garbage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Reserved flags bits were set.
    BadFlags(u16),
    /// Header checksum mismatch (any corrupted header byte lands here).
    BadChecksum { expected: u32, got: u32 },
    /// Declared `payload_len` exceeds [`MAX_PAYLOAD_LEN`].
    OversizedPayload(usize),
    /// A `BATCH` request declares more than [`MAX_BATCH_OPS`] ops.
    OversizedBatch(usize),
    /// Opcode outside the known set (for the decoded direction).
    BadOpcode(u8),
    /// Structurally invalid payload (wrong size, truncated batch, bad
    /// status byte, unknown error code, …).
    Malformed(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadFlags(bits) => write!(f, "reserved flags set: {bits:#06x}"),
            ProtoError::BadChecksum { expected, got } => {
                write!(f, "header checksum mismatch: expected {expected:#010x}, got {got:#010x}")
            }
            ProtoError::OversizedPayload(len) => {
                write!(f, "declared payload of {len} bytes exceeds the {MAX_PAYLOAD_LEN} cap")
            }
            ProtoError::OversizedBatch(count) => {
                write!(f, "batch of {count} ops exceeds the {MAX_BATCH_OPS} cap")
            }
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for std::io::Error {
    fn from(e: ProtoError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// One operation inside a [`Request::Batch`] frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Point lookup.
    Get(u64),
    /// Insert-or-replace `(key, value)`.
    Put(u64, u64),
    /// Delete, reporting the removed value.
    Del(u64),
}

/// A decoded request frame body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get(u64),
    /// Insert-or-replace `(key, value)`.
    Put(u64, u64),
    /// Delete, reporting the removed value.
    Del(u64),
    /// A client-delimited group of operations, answered by one
    /// [`Response::Batch`] with results in op order.
    Batch(Vec<Op>),
}

/// The response to one [`Op`] of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpResponse {
    /// `GET` result.
    Get(Option<u64>),
    /// `PUT` result ([`InsertOutcome`] or the table's refusal).
    Put(Result<InsertOutcome, TableError>),
    /// `DEL` result (the removed value, if any).
    Del(Option<u64>),
}

/// A decoded response frame body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// `GET` result.
    Get(Option<u64>),
    /// `PUT` result.
    Put(Result<InsertOutcome, TableError>),
    /// `DEL` result.
    Del(Option<u64>),
    /// Per-op results of a `BATCH`, in op order.
    Batch(Vec<OpResponse>),
}

/// Header checksum: a salted `fmix64` chain over the 20 checksummed
/// bytes, folded to 32 bits. Not cryptographic — it exists to catch
/// corruption and desynchronized framing, not an adversary with a
/// calculator.
fn header_checksum(h: &[u8]) -> u32 {
    debug_assert_eq!(h.len(), HEADER_LEN - 4);
    let a = u64::from_le_bytes(h[0..8].try_into().expect("8-byte slice"));
    let b = u64::from_le_bytes(h[8..16].try_into().expect("8-byte slice"));
    let c = u32::from_le_bytes(h[16..20].try_into().expect("4-byte slice")) as u64;
    let mixed = Murmur::fmix64(a ^ Murmur::fmix64(b ^ Murmur::fmix64(c ^ CHECKSUM_SALT)));
    (mixed ^ (mixed >> 32)) as u32
}

/// Start a frame at the end of `out`: a header whose opcode, length and
/// checksum are zero until [`finish_frame`] patches them, once the
/// payload has been appended after it. Returns the frame's offset.
fn begin_frame(request_id: u64, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4] = PROTOCOL_VERSION;
    header[8..16].copy_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&header);
    start
}

/// Close the frame [`begin_frame`] opened at `start`: everything after
/// its header is the payload.
fn finish_frame(start: usize, opcode: u8, out: &mut [u8]) {
    let len = out.len() - start - HEADER_LEN;
    assert!(len <= MAX_PAYLOAD_LEN, "payload of {len} bytes exceeds cap");
    let header = &mut out[start..start + HEADER_LEN];
    header[5] = opcode;
    header[16..20].copy_from_slice(&(len as u32).to_le_bytes());
    let sum = header_checksum(&header[..HEADER_LEN - 4]);
    header[20..24].copy_from_slice(&sum.to_le_bytes());
}

/// Append one frame (header + payload) to `out`.
fn encode_frame(opcode: u8, request_id: u64, payload: &[u8], out: &mut Vec<u8>) {
    let start = begin_frame(request_id, out);
    out.extend_from_slice(payload);
    finish_frame(start, opcode, out);
}

fn op_request_payload(op: &Op, payload: &mut Vec<u8>) {
    match *op {
        Op::Get(k) | Op::Del(k) => payload.extend_from_slice(&k.to_le_bytes()),
        Op::Put(k, v) => {
            payload.extend_from_slice(&k.to_le_bytes());
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Payload bytes of a `BATCH` request carrying `ops`.
pub(crate) fn batch_request_len(ops: &[Op]) -> usize {
    let op_len = |op: &Op| match op {
        Op::Get(_) | Op::Del(_) => 1 + 8,
        Op::Put(..) => 1 + 16,
    };
    4 + ops.iter().map(op_len).sum::<usize>()
}

fn op_code(op: &Op) -> u8 {
    match op {
        Op::Get(_) => OP_GET,
        Op::Put(..) => OP_PUT,
        Op::Del(_) => OP_DEL,
    }
}

/// Append one encoded request frame to `out`.
pub fn encode_request(request_id: u64, req: &Request, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    let opcode = match req {
        Request::Get(k) => {
            payload.extend_from_slice(&k.to_le_bytes());
            OP_GET
        }
        Request::Put(k, v) => {
            payload.extend_from_slice(&k.to_le_bytes());
            payload.extend_from_slice(&v.to_le_bytes());
            OP_PUT
        }
        Request::Del(k) => {
            payload.extend_from_slice(&k.to_le_bytes());
            OP_DEL
        }
        Request::Batch(ops) => {
            payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                payload.push(op_code(op));
                op_request_payload(op, &mut payload);
            }
            OP_BATCH
        }
    };
    encode_frame(opcode, request_id, &payload, out);
}

/// Error codes a `PUT` failure travels as.
fn table_error_code(e: TableError) -> u8 {
    match e {
        TableError::TableFull => 1,
        TableError::ReservedKey => 2,
        TableError::MemoryBudgetExceeded => 3,
        TableError::CuckooFailure => 4,
    }
}

fn table_error_from_code(code: u8) -> Result<TableError, ProtoError> {
    Ok(match code {
        1 => TableError::TableFull,
        2 => TableError::ReservedKey,
        3 => TableError::MemoryBudgetExceeded,
        4 => TableError::CuckooFailure,
        _ => return Err(ProtoError::Malformed("unknown table-error code")),
    })
}

fn encode_value_status(value: Option<u64>, payload: &mut Vec<u8>) {
    match value {
        Some(v) => {
            payload.push(1);
            payload.extend_from_slice(&v.to_le_bytes());
        }
        None => payload.push(0),
    }
}

fn encode_put_result(result: &Result<InsertOutcome, TableError>, payload: &mut Vec<u8>) {
    match result {
        Ok(InsertOutcome::Inserted) => payload.push(0),
        Ok(InsertOutcome::Replaced(old)) => {
            payload.push(1);
            payload.extend_from_slice(&old.to_le_bytes());
        }
        Err(e) => {
            payload.push(2);
            payload.push(table_error_code(*e));
        }
    }
}

/// Append one encoded response frame to `out`. The payload is written
/// in place after the header, which is patched once its length is known:
/// nothing is allocated beyond what `out` grows by.
pub fn encode_response(request_id: u64, resp: &Response, out: &mut Vec<u8>) {
    let start = begin_frame(request_id, out);
    let opcode = match resp {
        Response::Get(v) => {
            encode_value_status(*v, out);
            OP_GET
        }
        Response::Put(r) => {
            encode_put_result(r, out);
            OP_PUT
        }
        Response::Del(v) => {
            encode_value_status(*v, out);
            OP_DEL
        }
        Response::Batch(ops) => {
            out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                match op {
                    OpResponse::Get(v) => {
                        out.push(OP_GET);
                        encode_value_status(*v, out);
                    }
                    OpResponse::Put(r) => {
                        out.push(OP_PUT);
                        encode_put_result(r, out);
                    }
                    OpResponse::Del(v) => {
                        out.push(OP_DEL);
                        encode_value_status(*v, out);
                    }
                }
            }
            OP_BATCH
        }
    };
    finish_frame(start, opcode | RESPONSE_BIT, out);
}

/// A validated frame header (its payload may still be in flight).
struct Header {
    opcode: u8,
    request_id: u64,
    payload_len: usize,
}

/// Validate the fixed header at the start of `buf`. `Ok(None)` = fewer
/// than [`HEADER_LEN`] bytes so far. Every field is checked *here*,
/// before any payload byte is read or any buffer sized from
/// `payload_len`.
fn decode_header(buf: &[u8]) -> Result<Option<Header>, ProtoError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let magic: [u8; 4] = buf[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    if buf[4] != PROTOCOL_VERSION {
        return Err(ProtoError::BadVersion(buf[4]));
    }
    let flags = u16::from_le_bytes(buf[6..8].try_into().expect("2-byte slice"));
    if flags != 0 {
        return Err(ProtoError::BadFlags(flags));
    }
    let expected = header_checksum(&buf[0..HEADER_LEN - 4]);
    let got = u32::from_le_bytes(buf[20..24].try_into().expect("4-byte slice"));
    if expected != got {
        return Err(ProtoError::BadChecksum { expected, got });
    }
    let payload_len = u32::from_le_bytes(buf[16..20].try_into().expect("4-byte slice")) as usize;
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(ProtoError::OversizedPayload(payload_len));
    }
    Ok(Some(Header {
        opcode: buf[5],
        request_id: u64::from_le_bytes(buf[8..16].try_into().expect("8-byte slice")),
        payload_len,
    }))
}

/// A strict little-endian reader over one frame's payload.
struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(ProtoError::Malformed("payload shorter than declared"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let end = self.pos + 4;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(ProtoError::Malformed("payload shorter than declared"))?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let end = self.pos + 8;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(ProtoError::Malformed("payload shorter than declared"))?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// Every payload byte must be consumed: trailing garbage is as
    /// malformed as a truncation.
    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after payload"))
        }
    }
}

/// Decode one complete request frame from the front of `buf`.
///
/// Returns `Ok(None)` while the frame is incomplete,
/// `Ok(Some((request_id, request, consumed_bytes)))` for one complete
/// frame, or the typed error that must close the connection.
pub fn decode_request(buf: &[u8]) -> Result<Option<(u64, Request, usize)>, ProtoError> {
    let Some(header) = decode_header(buf)? else { return Ok(None) };
    let total = HEADER_LEN + header.payload_len;
    if buf.len() < total {
        return Ok(None);
    }
    let mut r = PayloadReader::new(&buf[HEADER_LEN..total]);
    let req = match header.opcode {
        OP_GET => Request::Get(r.u64()?),
        OP_PUT => Request::Put(r.u64()?, r.u64()?),
        OP_DEL => Request::Del(r.u64()?),
        OP_BATCH => {
            let count = r.u32()? as usize;
            if count > MAX_BATCH_OPS {
                return Err(ProtoError::OversizedBatch(count));
            }
            // Cap the pre-allocation by what the payload could possibly
            // hold (9 bytes is the smallest op) — a hostile count cannot
            // reserve more than the already-bounded payload implies.
            let mut ops = Vec::with_capacity(count.min(header.payload_len / 9 + 1));
            for _ in 0..count {
                ops.push(match r.u8()? {
                    OP_GET => Op::Get(r.u64()?),
                    OP_PUT => Op::Put(r.u64()?, r.u64()?),
                    OP_DEL => Op::Del(r.u64()?),
                    op => return Err(ProtoError::BadOpcode(op)),
                });
            }
            Request::Batch(ops)
        }
        op => return Err(ProtoError::BadOpcode(op)),
    };
    r.finish()?;
    Ok(Some((header.request_id, req, total)))
}

fn decode_value_status(r: &mut PayloadReader<'_>) -> Result<Option<u64>, ProtoError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        _ => Err(ProtoError::Malformed("bad value status byte")),
    }
}

fn decode_put_result(
    r: &mut PayloadReader<'_>,
) -> Result<Result<InsertOutcome, TableError>, ProtoError> {
    match r.u8()? {
        0 => Ok(Ok(InsertOutcome::Inserted)),
        1 => Ok(Ok(InsertOutcome::Replaced(r.u64()?))),
        2 => Ok(Err(table_error_from_code(r.u8()?)?)),
        _ => Err(ProtoError::Malformed("bad put outcome tag")),
    }
}

/// Decode one complete response frame from the front of `buf` (see
/// [`decode_request`] for the streaming contract).
pub fn decode_response(buf: &[u8]) -> Result<Option<(u64, Response, usize)>, ProtoError> {
    let Some(header) = decode_header(buf)? else { return Ok(None) };
    let total = HEADER_LEN + header.payload_len;
    if buf.len() < total {
        return Ok(None);
    }
    let mut r = PayloadReader::new(&buf[HEADER_LEN..total]);
    let resp = match header.opcode {
        op if op == OP_GET | RESPONSE_BIT => Response::Get(decode_value_status(&mut r)?),
        op if op == OP_PUT | RESPONSE_BIT => Response::Put(decode_put_result(&mut r)?),
        op if op == OP_DEL | RESPONSE_BIT => Response::Del(decode_value_status(&mut r)?),
        op if op == OP_BATCH | RESPONSE_BIT => {
            let count = r.u32()? as usize;
            let mut ops = Vec::with_capacity(count.min(header.payload_len / 2 + 1));
            for _ in 0..count {
                ops.push(match r.u8()? {
                    OP_GET => OpResponse::Get(decode_value_status(&mut r)?),
                    OP_PUT => OpResponse::Put(decode_put_result(&mut r)?),
                    OP_DEL => OpResponse::Del(decode_value_status(&mut r)?),
                    op => return Err(ProtoError::BadOpcode(op)),
                });
            }
            Response::Batch(ops)
        }
        op => return Err(ProtoError::BadOpcode(op)),
    };
    r.finish()?;
    Ok(Some((header.request_id, resp, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        encode_request(7, &req, &mut buf);
        let (id, decoded, consumed) =
            decode_request(&buf).expect("valid frame").expect("complete frame");
        assert_eq!(id, 7);
        assert_eq!(decoded, req);
        assert_eq!(consumed, buf.len());
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = Vec::new();
        encode_response(99, &resp, &mut buf);
        let (id, decoded, consumed) =
            decode_response(&buf).expect("valid frame").expect("complete frame");
        assert_eq!(id, 99);
        assert_eq!(decoded, resp);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_request(Request::Get(0));
        roundtrip_request(Request::Get(u64::MAX));
        roundtrip_request(Request::Put(3, 4));
        roundtrip_request(Request::Del(11));
        roundtrip_request(Request::Batch(vec![]));
        roundtrip_request(Request::Batch(vec![Op::Get(1), Op::Put(2, 3), Op::Del(4)]));
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_response(Response::Get(None));
        roundtrip_response(Response::Get(Some(u64::MAX)));
        roundtrip_response(Response::Put(Ok(InsertOutcome::Inserted)));
        roundtrip_response(Response::Put(Ok(InsertOutcome::Replaced(17))));
        for e in [
            TableError::TableFull,
            TableError::ReservedKey,
            TableError::MemoryBudgetExceeded,
            TableError::CuckooFailure,
        ] {
            roundtrip_response(Response::Put(Err(e)));
        }
        roundtrip_response(Response::Del(Some(5)));
        roundtrip_response(Response::Batch(vec![
            OpResponse::Get(None),
            OpResponse::Put(Ok(InsertOutcome::Inserted)),
            OpResponse::Del(Some(12)),
        ]));
    }

    #[test]
    fn incomplete_frames_wait_for_more_bytes() {
        let mut buf = Vec::new();
        encode_request(1, &Request::Put(8, 9), &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                decode_request(&buf[..cut]).expect("prefixes are never errors"),
                None,
                "prefix of {cut} bytes must ask for more"
            );
        }
    }

    #[test]
    fn every_header_corruption_is_rejected() {
        let mut buf = Vec::new();
        encode_request(42, &Request::Get(1234), &mut buf);
        for i in 0..HEADER_LEN {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let err = decode_request(&bad).expect_err("a corrupted header byte slipped through");
            match i {
                0..=3 => assert!(matches!(err, ProtoError::BadMagic(_)), "byte {i}: {err:?}"),
                4 => assert!(matches!(err, ProtoError::BadVersion(_)), "byte {i}: {err:?}"),
                6 | 7 => assert!(matches!(err, ProtoError::BadFlags(_)), "byte {i}: {err:?}"),
                _ => {
                    assert!(matches!(err, ProtoError::BadChecksum { .. }), "byte {i}: {err:?}")
                }
            }
        }
    }

    #[test]
    fn oversized_declared_payload_is_rejected_before_buffering() {
        // Hand-build a header declaring a payload over the cap, with a
        // *correct* checksum — only the length bound may reject it.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(PROTOCOL_VERSION);
        buf.push(OP_GET);
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&((MAX_PAYLOAD_LEN as u32) + 1).to_le_bytes());
        let sum = header_checksum(&buf[0..HEADER_LEN - 4]);
        buf.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_request(&buf),
            Err(ProtoError::OversizedPayload(MAX_PAYLOAD_LEN + 1)),
            "oversized length must be rejected from the header alone"
        );
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        let mut buf = Vec::new();
        encode_frame(0x7E, 1, &[], &mut buf);
        assert_eq!(decode_request(&buf), Err(ProtoError::BadOpcode(0x7E)));
        assert_eq!(decode_response(&buf), Err(ProtoError::BadOpcode(0x7E)));
        // A *response* opcode is not a valid *request* and vice versa.
        let mut buf = Vec::new();
        encode_response(1, &Response::Get(None), &mut buf);
        assert!(matches!(decode_request(&buf), Err(ProtoError::BadOpcode(_))));
        let mut buf = Vec::new();
        encode_request(1, &Request::Get(1), &mut buf);
        assert!(matches!(decode_response(&buf), Err(ProtoError::BadOpcode(_))));
    }

    #[test]
    fn truncated_batch_and_trailing_bytes_are_malformed() {
        // Batch that declares 3 ops but carries 1.
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.push(OP_GET);
        payload.extend_from_slice(&5u64.to_le_bytes());
        let mut buf = Vec::new();
        encode_frame(OP_BATCH, 1, &payload, &mut buf);
        assert!(matches!(decode_request(&buf), Err(ProtoError::Malformed(_))));
        // GET payload with trailing garbage.
        let mut payload = Vec::new();
        payload.extend_from_slice(&5u64.to_le_bytes());
        payload.push(0xFF);
        let mut buf = Vec::new();
        encode_frame(OP_GET, 1, &payload, &mut buf);
        assert_eq!(
            decode_request(&buf),
            Err(ProtoError::Malformed("trailing bytes after payload"))
        );
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        encode_request(1, &Request::Put(10, 100), &mut buf);
        encode_request(2, &Request::Get(10), &mut buf);
        encode_request(3, &Request::Del(10), &mut buf);
        let mut offset = 0;
        let mut ids = Vec::new();
        while let Some((id, _, used)) = decode_request(&buf[offset..]).expect("valid stream") {
            ids.push(id);
            offset += used;
        }
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(offset, buf.len());
    }

    #[test]
    fn a_batch_is_capped_where_its_answer_still_fits_a_frame() {
        let ops = |n| Request::Batch(vec![Op::Get(1); n]);
        let mut buf = Vec::new();
        encode_request(1, &ops(MAX_BATCH_OPS + 1), &mut buf);
        assert!(buf.len() - HEADER_LEN <= MAX_PAYLOAD_LEN, "the request itself is legal");
        assert_eq!(decode_request(&buf), Err(ProtoError::OversizedBatch(MAX_BATCH_OPS + 1)));
        buf.clear();
        encode_request(1, &ops(MAX_BATCH_OPS), &mut buf);
        assert!(decode_request(&buf).expect("at the cap is legal").is_some());
        // The longest answer per op, for every op, still fits.
        buf.clear();
        encode_response(
            1,
            &Response::Batch(vec![OpResponse::Get(Some(7)); MAX_BATCH_OPS]),
            &mut buf,
        );
        assert_eq!(buf.len(), HEADER_LEN + 4 + 10 * MAX_BATCH_OPS);
        assert!(buf.len() - HEADER_LEN <= MAX_PAYLOAD_LEN);
    }

    /// A hex dump, whitespace ignored.
    fn hex(dump: &str) -> Vec<u8> {
        let digits: Vec<u8> = dump.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| {
                u8::from_str_radix(std::str::from_utf8(pair).expect("ascii"), 16).expect("hex")
            })
            .collect()
    }

    /// Encode `resp` after bytes already in the buffer: the frame must be
    /// `golden` byte for byte, the bytes before it must be untouched (so
    /// a header patched at the wrong offset shows), and the frame must
    /// decode back to `resp`. Golden dumps are spaced as magic, version,
    /// opcode, flags, request id, payload length, checksum, payload.
    fn assert_golden(id: u64, resp: Response, golden: &str) {
        let before = [0xA5u8; 13];
        let mut out = before.to_vec();
        encode_response(id, &resp, &mut out);
        assert_eq!(out[..before.len()], before, "{resp:?} overwrote earlier bytes");
        assert_eq!(out[before.len()..], hex(golden)[..], "{resp:?} changed on the wire");
        let (got_id, got, used) =
            decode_response(&out[before.len()..]).expect("valid frame").expect("complete frame");
        assert_eq!((got_id, used), (id, out.len() - before.len()));
        assert_eq!(got, resp);
    }

    #[test]
    fn get_responses_keep_their_bytes() {
        assert_golden(
            1,
            Response::Get(Some(0x0123_4567_89ab_cdef)),
            "37444b56 01 81 0000 0100000000000000 09000000 cbd8da2a 01efcdab8967452301",
        );
        assert_golden(
            2,
            Response::Get(None),
            "37444b56 01 81 0000 0200000000000000 01000000 9612dbe1 00",
        );
    }

    #[test]
    fn put_responses_keep_their_bytes() {
        assert_golden(
            3,
            Response::Put(Ok(InsertOutcome::Inserted)),
            "37444b56 01 82 0000 0300000000000000 01000000 15e6cf0d 00",
        );
        assert_golden(
            4,
            Response::Put(Ok(InsertOutcome::Replaced(0x1122_3344_5566_7788))),
            "37444b56 01 82 0000 0400000000000000 09000000 e61f35e6 018877665544332211",
        );
        for (id, e, golden) in [
            (
                5,
                TableError::TableFull,
                "37444b56 01 82 0000 0500000000000000 02000000 af586054 0201",
            ),
            (
                6,
                TableError::ReservedKey,
                "37444b56 01 82 0000 0600000000000000 02000000 075f97a3 0202",
            ),
            (
                7,
                TableError::MemoryBudgetExceeded,
                "37444b56 01 82 0000 0700000000000000 02000000 11317b24 0203",
            ),
            (
                8,
                TableError::CuckooFailure,
                "37444b56 01 82 0000 0800000000000000 02000000 41c82873 0204",
            ),
        ] {
            assert_golden(id, Response::Put(Err(e)), golden);
        }
    }

    #[test]
    fn del_responses_keep_their_bytes() {
        assert_golden(
            9,
            Response::Del(Some(42)),
            "37444b56 01 83 0000 0900000000000000 09000000 0bffe7ba 012a00000000000000",
        );
        assert_golden(
            10,
            Response::Del(None),
            "37444b56 01 83 0000 0a00000000000000 01000000 3305632c 00",
        );
    }

    #[test]
    fn batch_responses_keep_their_bytes() {
        assert_golden(
            11,
            Response::Batch(vec![]),
            "37444b56 01 84 0000 0b00000000000000 04000000 10c36c26 00000000",
        );
        assert_golden(
            u64::MAX,
            Response::Batch(vec![
                OpResponse::Get(Some(7)),
                OpResponse::Get(None),
                OpResponse::Put(Ok(InsertOutcome::Inserted)),
                OpResponse::Put(Ok(InsertOutcome::Replaced(8))),
                OpResponse::Put(Err(TableError::ReservedKey)),
                OpResponse::Del(Some(9)),
                OpResponse::Del(None),
            ]),
            "37444b56 01 84 0000 ffffffffffffffff 2b000000 de18a0f0 07000000 \
             01 01 0700000000000000  01 00  02 00  02 01 0800000000000000  02 02 02 \
             03 01 0900000000000000  03 00",
        );
    }

    #[test]
    fn checksum_depends_on_every_covered_field() {
        // Two headers differing only in request id must have different
        // checksums (the id is inside the covered range).
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_request(1, &Request::Get(7), &mut a);
        encode_request(2, &Request::Get(7), &mut b);
        assert_ne!(a[20..24], b[20..24]);
    }
}
