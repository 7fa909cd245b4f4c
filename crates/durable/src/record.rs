//! The `7DWL` write-ahead-log record frame: length-prefixed, doubly
//! checksummed, streaming-decodable.
//!
//! The framing reuses the `7DKV` wire-protocol discipline
//! (`crates/net/src/protocol.rs`): a fixed little-endian header whose
//! final word is a salted [`Murmur::fmix64`]-chain checksum over the
//! preceding header bytes, validated *before* any header field is
//! trusted; a declared payload length bounded by a hard cap so a corrupt
//! length can never trigger an over-allocation or an unbounded wait; and
//! a streaming decode that returns `Ok(None)` while the buffer holds
//! only a prefix of a frame. On top of that the WAL adds a second
//! checksum over the payload itself — a record sitting on disk for weeks
//! deserves more scrutiny than a frame that lived microseconds on a
//! socket.
//!
//! One record is one *batch*: every operation a single
//! `insert_batch_shared`/`delete_batch_shared` call carries is framed
//! together, amortizing the header — the same run-segmenting economy the
//! network layer applies to wire frames — and recovered together or not
//! at all. A *group commit* is one or more records, of one or more
//! callers, appended at once and fsync'd once (see `table`'s "Logging").
//!
//! ```text
//! offset  size  field
//!      0     4  magic "7DWL"
//!      4     1  version (1)
//!      5     1  reserved (0)
//!      6     2  flags (0; reserved)          little-endian u16
//!      8     8  seq of the first op          little-endian u64
//!     16     4  payload length               little-endian u32
//!     20     4  payload checksum             little-endian u32
//!     24     4  header checksum over 0..24   little-endian u32
//!     28     …  payload: op count (u32), then per op
//!               PUT: 0x01, key u64, value u64   (17 bytes)
//!               DEL: 0x02, key u64              ( 9 bytes)
//! ```
//!
//! Decode order is the recovery contract: magic/version/flags, then the
//! header checksum, then the length bound, then — only once the whole
//! frame is buffered — the payload checksum, then the ops. A truncated
//! tail therefore parses as `Ok(None)` (a clean stop), while any flipped
//! bit in header or payload surfaces as a typed [`WalError`] *before* a
//! single op from the damaged record can replay.

use hashfn::Murmur;
use std::fmt;

/// Magic bytes opening every WAL record.
pub const WAL_MAGIC: [u8; 4] = *b"7DWL";

/// Current record-format version.
pub const WAL_VERSION: u8 = 1;

/// Fixed header length in bytes.
pub const RECORD_HEADER_LEN: usize = 28;

/// Hard cap on a record's payload. A record is one batch call's worth
/// of ops (17 bytes each), so even pathological batches sit
/// far below this; a corrupt length field past the cap is rejected from
/// the (checksum-validated) header alone.
pub const MAX_RECORD_PAYLOAD: usize = 1 << 26;

const OP_PUT: u8 = 0x01;
const OP_DEL: u8 = 0x02;

/// Salts for the two fmix64 checksum chains. Distinct from the `7DKV`
/// socket salt so a stray protocol frame can never validate as a WAL
/// record (or vice versa), and distinct from each other so the payload
/// checksum landing in the header can't cancel itself out.
const HEADER_SALT: u64 = 0x7D1F_55A3_C83B_96E5;
const PAYLOAD_SALT: u64 = 0x7D2E_1B09_D4F7_63A1;

/// One logged mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// `insert_shared(key, value)`.
    Put {
        /// The inserted key.
        key: u64,
        /// The inserted value.
        value: u64,
    },
    /// `delete_shared(key)`.
    Del {
        /// The deleted key.
        key: u64,
    },
}

/// One decoded record — one batch: `ops[i]` has sequence number
/// `seq + i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Sequence number of the first op in the record.
    pub seq: u64,
    /// The ops, in commit order.
    pub ops: Vec<WalOp>,
}

/// Everything that can be wrong with bytes claiming to be WAL state.
/// Recovery treats every variant the same way — stop, never replay past
/// it — but a typed error makes tests (and post-mortems) precise.
#[derive(Debug)]
pub enum WalError {
    /// First four bytes are not `7DWL`.
    BadMagic([u8; 4]),
    /// Unknown record-format version.
    BadVersion(u8),
    /// Reserved flag bits set.
    BadFlags(u16),
    /// Header checksum mismatch: the header itself is damaged.
    BadHeaderChecksum {
        /// Checksum recomputed from the header bytes.
        expected: u32,
        /// Checksum stored in the record.
        got: u32,
    },
    /// Payload checksum mismatch: the ops are damaged.
    BadPayloadChecksum {
        /// Checksum recomputed from the payload bytes.
        expected: u32,
        /// Checksum stored in the record header.
        got: u32,
    },
    /// Declared payload length exceeds [`MAX_RECORD_PAYLOAD`].
    OversizedRecord(usize),
    /// Unknown op tag inside a checksum-valid payload.
    BadOpcode(u8),
    /// Structurally invalid payload (truncated op, trailing bytes).
    Malformed(&'static str),
    /// Snapshot file failed validation.
    SnapshotCorrupt(&'static str),
    /// A valid snapshot was read but some of its entries could not be
    /// reinserted into the rebuilt table (typically: the builder was
    /// reopened with a smaller capacity and growth disabled). Proceeding
    /// would silently drop recovered data.
    SnapshotRestore {
        /// Entries the rebuilt table refused.
        failed: u64,
    },
    /// Snapshots need a directory-backed WAL (see `DurableTable::open`).
    SnapshotUnavailable,
    /// An earlier WAL append failed, possibly leaving torn bytes at the
    /// end of the log. The table is fail-stopped: appending anything
    /// after the tear would be unrecoverable (replay stops at the tear),
    /// so no further mutations, syncs, or snapshots are accepted.
    FailStopped,
    /// Underlying file I/O failed.
    Io(std::io::Error),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::BadMagic(m) => write!(f, "bad WAL magic {m:02x?}"),
            WalError::BadVersion(v) => write!(f, "unsupported WAL record version {v}"),
            WalError::BadFlags(bits) => write!(f, "reserved WAL flag bits set: {bits:#06x}"),
            WalError::BadHeaderChecksum { expected, got } => {
                write!(
                    f,
                    "WAL header checksum mismatch (expected {expected:#010x}, got {got:#010x})"
                )
            }
            WalError::BadPayloadChecksum { expected, got } => {
                write!(
                    f,
                    "WAL payload checksum mismatch (expected {expected:#010x}, got {got:#010x})"
                )
            }
            WalError::OversizedRecord(n) => {
                write!(f, "WAL record declares {n}-byte payload (cap {MAX_RECORD_PAYLOAD})")
            }
            WalError::BadOpcode(op) => write!(f, "unknown WAL opcode {op:#04x}"),
            WalError::Malformed(why) => write!(f, "malformed WAL payload: {why}"),
            WalError::SnapshotCorrupt(why) => write!(f, "corrupt snapshot: {why}"),
            WalError::SnapshotRestore { failed } => {
                write!(
                    f,
                    "{failed} snapshot entr{} refused by the rebuilt table \
                     (reopened with a smaller capacity and growth disabled?)",
                    if *failed == 1 { "y" } else { "ies" }
                )
            }
            WalError::SnapshotUnavailable => {
                write!(f, "snapshots need a directory-backed WAL (DurableTable::open)")
            }
            WalError::FailStopped => {
                write!(f, "WAL fail-stopped by an earlier append failure")
            }
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

fn fold32(mixed: u64) -> u32 {
    (mixed ^ (mixed >> 32)) as u32
}

/// Checksum over the first 24 header bytes (everything before the
/// checksum field itself — including the payload checksum, so damage to
/// *that* field is caught here too).
fn header_checksum(h: &[u8]) -> u32 {
    debug_assert_eq!(h.len(), RECORD_HEADER_LEN - 4);
    let a = u64::from_le_bytes(h[0..8].try_into().expect("8-byte slice"));
    let b = u64::from_le_bytes(h[8..16].try_into().expect("8-byte slice"));
    let c = u64::from_le_bytes(h[16..24].try_into().expect("8-byte slice"));
    fold32(Murmur::fmix64(a ^ Murmur::fmix64(b ^ Murmur::fmix64(c ^ HEADER_SALT))))
}

/// fmix64 chain over the payload in 8-byte little-endian words (final
/// word zero-padded; unambiguous because the length seeds the chain).
fn payload_checksum(payload: &[u8]) -> u32 {
    let mut acc = Murmur::fmix64(PAYLOAD_SALT ^ payload.len() as u64);
    let mut words = payload.chunks_exact(8);
    for w in &mut words {
        acc = Murmur::fmix64(acc ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        acc = Murmur::fmix64(acc ^ u64::from_le_bytes(last));
    }
    fold32(acc)
}

/// Append one encoded record framing `ops` (first op numbered `seq`) to
/// `out`. An empty `ops` slice encodes a valid, zero-op record.
pub fn encode_record(seq: u64, ops: &[WalOp], out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(4 + ops.len() * 17);
    payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match *op {
            WalOp::Put { key, value } => {
                payload.push(OP_PUT);
                payload.extend_from_slice(&key.to_le_bytes());
                payload.extend_from_slice(&value.to_le_bytes());
            }
            WalOp::Del { key } => {
                payload.push(OP_DEL);
                payload.extend_from_slice(&key.to_le_bytes());
            }
        }
    }
    assert!(payload.len() <= MAX_RECORD_PAYLOAD, "batch exceeds the record payload cap");
    let start = out.len();
    out.extend_from_slice(&WAL_MAGIC);
    out.push(WAL_VERSION);
    out.push(0); // reserved
    out.extend_from_slice(&0u16.to_le_bytes()); // flags
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload_checksum(&payload).to_le_bytes());
    let sum = header_checksum(&out[start..start + RECORD_HEADER_LEN - 4]);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Decode one record from the front of `buf`.
///
/// Returns `Ok(None)` while `buf` holds only a prefix of a record (the
/// truncated-tail case recovery treats as a clean stop), and
/// `Ok(Some((record, consumed)))` for a complete valid record. Never
/// reads past `buf`, never allocates from an unvalidated length.
pub fn decode_record(buf: &[u8]) -> Result<Option<(WalRecord, usize)>, WalError> {
    if buf.len() < RECORD_HEADER_LEN {
        return Ok(None);
    }
    let h = &buf[..RECORD_HEADER_LEN];
    if h[0..4] != WAL_MAGIC {
        return Err(WalError::BadMagic(h[0..4].try_into().expect("4-byte slice")));
    }
    if h[4] != WAL_VERSION {
        return Err(WalError::BadVersion(h[4]));
    }
    let flags = u16::from_le_bytes(h[6..8].try_into().expect("2-byte slice"));
    if flags != 0 {
        return Err(WalError::BadFlags(flags));
    }
    let expected = header_checksum(&h[..RECORD_HEADER_LEN - 4]);
    let got = u32::from_le_bytes(h[24..28].try_into().expect("4-byte slice"));
    if expected != got {
        return Err(WalError::BadHeaderChecksum { expected, got });
    }
    // Header fields are trustworthy from here on.
    let payload_len = u32::from_le_bytes(h[16..20].try_into().expect("4-byte slice")) as usize;
    if payload_len > MAX_RECORD_PAYLOAD {
        return Err(WalError::OversizedRecord(payload_len));
    }
    let total = RECORD_HEADER_LEN + payload_len;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = &buf[RECORD_HEADER_LEN..total];
    let expected = payload_checksum(payload);
    let got = u32::from_le_bytes(h[20..24].try_into().expect("4-byte slice"));
    if expected != got {
        return Err(WalError::BadPayloadChecksum { expected, got });
    }
    let seq = u64::from_le_bytes(h[8..16].try_into().expect("8-byte slice"));
    if payload.len() < 4 {
        return Err(WalError::Malformed("payload shorter than its op count"));
    }
    let count = u32::from_le_bytes(payload[0..4].try_into().expect("4-byte slice")) as usize;
    // Capacity from the *byte* budget, not the count field: a buggy
    // writer could claim u32::MAX ops in a short (checksum-valid)
    // payload, and 9 bytes is the smallest op.
    let mut ops = Vec::with_capacity(count.min(payload.len() / 9));
    let mut at = 4usize;
    for _ in 0..count {
        let tag = *payload.get(at).ok_or(WalError::Malformed("truncated op tag"))?;
        at += 1;
        match tag {
            OP_PUT => {
                let end = at.checked_add(16).filter(|&e| e <= payload.len());
                let end = end.ok_or(WalError::Malformed("truncated PUT op"))?;
                let key = u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
                let value = u64::from_le_bytes(payload[at + 8..end].try_into().expect("8 bytes"));
                ops.push(WalOp::Put { key, value });
                at = end;
            }
            OP_DEL => {
                let end = at.checked_add(8).filter(|&e| e <= payload.len());
                let end = end.ok_or(WalError::Malformed("truncated DEL op"))?;
                let key = u64::from_le_bytes(payload[at..end].try_into().expect("8 bytes"));
                ops.push(WalOp::Del { key });
                at = end;
            }
            other => return Err(WalError::BadOpcode(other)),
        }
    }
    if at != payload.len() {
        return Err(WalError::Malformed("trailing bytes after ops"));
    }
    Ok(Some((WalRecord { seq, ops }, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Put { key: 1, value: 100 },
            WalOp::Del { key: u64::MAX },
            WalOp::Put { key: 0, value: 0 },
        ]
    }

    #[test]
    fn records_round_trip() {
        for ops in [vec![], vec![WalOp::Put { key: 9, value: 90 }], sample_ops()] {
            let mut buf = Vec::new();
            encode_record(42, &ops, &mut buf);
            let (rec, used) = decode_record(&buf).expect("valid").expect("complete");
            assert_eq!(used, buf.len());
            assert_eq!(rec, WalRecord { seq: 42, ops });
        }
    }

    #[test]
    fn truncation_at_every_offset_is_a_clean_stop() {
        let mut buf = Vec::new();
        encode_record(7, &sample_ops(), &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                decode_record(&buf[..cut]).expect("prefixes are never errors"),
                None,
                "prefix of {cut} bytes must ask for more, not error or phantom-decode"
            );
        }
    }

    #[test]
    fn every_header_corruption_is_rejected() {
        let mut buf = Vec::new();
        encode_record(3, &sample_ops(), &mut buf);
        for i in 0..RECORD_HEADER_LEN {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let err = decode_record(&bad).expect_err("a corrupted header byte slipped through");
            match i {
                0..=3 => assert!(matches!(err, WalError::BadMagic(_)), "byte {i}: {err}"),
                4 => assert!(matches!(err, WalError::BadVersion(_)), "byte {i}: {err}"),
                6 | 7 => assert!(matches!(err, WalError::BadFlags(_)), "byte {i}: {err}"),
                _ => {
                    assert!(matches!(err, WalError::BadHeaderChecksum { .. }), "byte {i}: {err}")
                }
            }
        }
    }

    #[test]
    fn every_payload_corruption_is_rejected() {
        let mut buf = Vec::new();
        encode_record(3, &sample_ops(), &mut buf);
        for i in RECORD_HEADER_LEN..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[i] ^= 1 << bit;
                let err = decode_record(&bad)
                    .expect_err("a corrupted payload bit slipped through the checksum");
                assert!(
                    matches!(err, WalError::BadPayloadChecksum { .. }),
                    "byte {i} bit {bit}: {err}"
                );
            }
        }
    }

    /// Re-stamp both checksums of a hand-edited frame so only the edit
    /// itself can be the reason for rejection.
    fn restamp(buf: &mut [u8]) {
        let payload = payload_checksum(&buf[RECORD_HEADER_LEN..]);
        buf[20..24].copy_from_slice(&payload.to_le_bytes());
        let header = header_checksum(&buf[..RECORD_HEADER_LEN - 4]);
        buf[24..28].copy_from_slice(&header.to_le_bytes());
    }

    #[test]
    fn oversized_declared_payload_is_rejected_from_the_header() {
        let mut buf = Vec::new();
        encode_record(1, &[], &mut buf);
        buf[16..20].copy_from_slice(&((MAX_RECORD_PAYLOAD as u32) + 1).to_le_bytes());
        let sum = header_checksum(&buf[..RECORD_HEADER_LEN - 4]);
        buf[24..28].copy_from_slice(&sum.to_le_bytes());
        assert!(
            matches!(decode_record(&buf), Err(WalError::OversizedRecord(n)) if n == MAX_RECORD_PAYLOAD + 1),
            "oversized length must be rejected before waiting for its bytes"
        );
    }

    #[test]
    fn checksum_valid_structural_damage_is_malformed() {
        // Unknown opcode.
        let mut buf = Vec::new();
        encode_record(1, &[WalOp::Del { key: 5 }], &mut buf);
        buf[RECORD_HEADER_LEN + 4] = 0x7E;
        restamp(&mut buf);
        assert!(matches!(decode_record(&buf), Err(WalError::BadOpcode(0x7E))));

        // Count claims more ops than the payload carries.
        let mut buf = Vec::new();
        encode_record(1, &[WalOp::Del { key: 5 }], &mut buf);
        buf[RECORD_HEADER_LEN..RECORD_HEADER_LEN + 4].copy_from_slice(&9u32.to_le_bytes());
        restamp(&mut buf);
        assert!(matches!(decode_record(&buf), Err(WalError::Malformed(_))));

        // Trailing bytes after the last op.
        let mut buf = Vec::new();
        encode_record(1, &[WalOp::Del { key: 5 }], &mut buf);
        let cut = buf.len();
        buf.push(0xAB);
        buf[16..20].copy_from_slice(&((cut + 1 - RECORD_HEADER_LEN) as u32).to_le_bytes());
        restamp(&mut buf);
        assert!(matches!(
            decode_record(&buf),
            Err(WalError::Malformed("trailing bytes after ops"))
        ));
    }

    #[test]
    fn pipelined_records_decode_in_sequence() {
        let mut buf = Vec::new();
        encode_record(1, &[WalOp::Put { key: 1, value: 10 }], &mut buf);
        encode_record(2, &sample_ops(), &mut buf);
        encode_record(5, &[WalOp::Del { key: 1 }], &mut buf);
        let mut offset = 0;
        let mut seqs = Vec::new();
        while let Some((rec, used)) = decode_record(&buf[offset..]).expect("valid stream") {
            seqs.push(rec.seq);
            offset += used;
        }
        assert_eq!(seqs, vec![1, 2, 5]);
        assert_eq!(offset, buf.len());
    }

    proptest! {
        /// Arbitrary bytes never panic the decoder, never over-read, and
        /// only ever yield a record by actually passing both checksums.
        fn arbitrary_bytes_never_overread(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            if let Ok(Some((_, used))) = decode_record(&bytes) {
                prop_assert!(used <= bytes.len());
            }
        }

        /// Random op sequences round-trip exactly, and every single-byte
        /// corruption anywhere in the frame is detected.
        fn random_records_round_trip_and_reject_corruption(
            seq in any::<u64>(),
            raw in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..24),
            poke in any::<u16>(),
        ) {
            let ops: Vec<WalOp> = raw
                .iter()
                .map(|&(tag, key, value)| if tag & 1 == 0 {
                    WalOp::Put { key, value }
                } else {
                    WalOp::Del { key }
                })
                .collect();
            let mut buf = Vec::new();
            encode_record(seq, &ops, &mut buf);
            let (rec, used) = decode_record(&buf).expect("valid").expect("complete");
            prop_assert_eq!(used, buf.len());
            prop_assert_eq!(rec.seq, seq);
            prop_assert_eq!(rec.ops, ops);

            let mut bad = buf.clone();
            let i = poke as usize % bad.len();
            bad[i] ^= 1u8 << ((poke >> 8) & 7);
            prop_assert!(
                decode_record(&bad).is_err(),
                "flipping a bit of byte {} went undetected", i
            );
        }
    }
}
