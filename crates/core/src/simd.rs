//! Vectorized probe kernels for linear probing (paper §7).
//!
//! The paper studies SIMD key comparison on AVX2: four 8-byte keys per
//! 256-bit register. For the SoA layout, keys are densely packed and load
//! directly; for AoS, keys sit interleaved with values and must be
//! *gathered* (`_mm256_i64gather_epi64`, stride 2) — which the paper found
//! expensive on Haswell and which still carries a cost today, giving
//! SoA+SIMD its edge on lookups.
//!
//! Every kernel performs a **circular scan** from a start slot for the
//! first occurrence of either the target key or an [`EMPTY_KEY`] slot
//! (whichever comes first in probe order) while remembering the first
//! [`TOMBSTONE_KEY`] encountered before the stop position — exactly the
//! information a linear-probing lookup *and* insert need, so one kernel
//! serves both.
//!
//! All kernels exist in a scalar and an AVX2 form with identical
//! observable behaviour (property-tested against each other); dispatch is
//! runtime feature detection, so the crate runs on any target.

use crate::{Pair, EMPTY_KEY, TOMBSTONE_KEY};

/// Control byte of a free slot in a fingerprint tag array (high bit set,
/// so it can never equal a 7-bit fingerprint — see
/// [`crate::FingerprintTable`]).
pub const EMPTY_TAG: u8 = 0x80;

/// Control byte of a deleted slot in a fingerprint tag array.
pub const TOMBSTONE_TAG: u8 = 0xFE;

/// Where a circular scan stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanOutcome {
    /// The target key was found at this slot.
    FoundKey(usize),
    /// An empty slot was found first at this slot (key absent).
    FoundEmpty(usize),
    /// The whole table was scanned without hitting the key or an empty
    /// slot (possible only when every slot is occupied or a tombstone).
    Exhausted,
}

/// Result of a probe scan: the stopping condition plus the first tombstone
/// passed on the way (insert candidates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanResult {
    /// Stop condition.
    pub outcome: ScanOutcome,
    /// First tombstone slot encountered strictly before the stop position,
    /// in probe order.
    pub first_tombstone: Option<usize>,
}

/// The prefetch distance of the batched table operations (see
/// [`crate::HashTable::lookup_batch`]): while a batch kernel probes item
/// `i`, it has already hashed items `i + 1 ..= i + PREFETCH_BATCH` and
/// prefetched their lines, and it prepares item `i + PREFETCH_BATCH`
/// just before that probe. A distance, not a window: the prefetches
/// stay in flight from a batch's first item to its last.
///
/// Sized to cover memory latency with independent in-flight misses
/// without overflowing the line-fill buffers (~10–16 outstanding loads on
/// contemporary x86-64) or evicting its own prefetches. On a 2^22-slot
/// table holding 2.5 M keys, probed in 256-key batches on a 2-vCPU x86-64
/// VM (medians of twelve runs), distances of 12 and 24 made the bare
/// linear-probing kernel and the sharded stack slower than 16 on inserts,
/// hits and misses; 8 matched 16 on misses and was slower on hits and
/// inserts.
pub const PREFETCH_BATCH: usize = 16;

/// Best-effort prefetch of the cache line holding `*p` into all cache
/// levels.
///
/// On x86-64 this is `_mm_prefetch(T0)` — part of baseline SSE, which the
/// `x86_64` target guarantees statically, so unlike the AVX2 kernels it
/// needs no runtime dispatch. Everywhere else it is a no-op: a prefetch
/// is a pure hint and may always be dropped.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHh never faults and has no architectural effect on
    // program state; any address, valid or not, is permitted.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// `true` when the AVX2 kernels are usable on this machine.
#[inline]
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------

/// Scalar circular scan over a dense key array (SoA layout).
pub fn scan_keys_scalar(keys: &[u64], start: usize, target: u64) -> ScanResult {
    debug_assert!(target < TOMBSTONE_KEY, "cannot scan for reserved keys");
    debug_assert!(keys.len().is_power_of_two(), "table length must be a power of two");
    let len = keys.len();
    let mut first_tombstone = None;
    for step in 0..len {
        let pos = (start + step) & (len - 1);
        let k = keys[pos];
        if k == target {
            return ScanResult { outcome: ScanOutcome::FoundKey(pos), first_tombstone };
        }
        if k == EMPTY_KEY {
            return ScanResult { outcome: ScanOutcome::FoundEmpty(pos), first_tombstone };
        }
        if k == TOMBSTONE_KEY && first_tombstone.is_none() {
            first_tombstone = Some(pos);
        }
    }
    ScanResult { outcome: ScanOutcome::Exhausted, first_tombstone }
}

/// Scalar circular scan over interleaved pairs (AoS layout).
pub fn scan_pairs_scalar(slots: &[Pair], start: usize, target: u64) -> ScanResult {
    debug_assert!(target < TOMBSTONE_KEY, "cannot scan for reserved keys");
    debug_assert!(slots.len().is_power_of_two(), "table length must be a power of two");
    let len = slots.len();
    let mut first_tombstone = None;
    for step in 0..len {
        let pos = (start + step) & (len - 1);
        let k = slots[pos].key;
        if k == target {
            return ScanResult { outcome: ScanOutcome::FoundKey(pos), first_tombstone };
        }
        if k == EMPTY_KEY {
            return ScanResult { outcome: ScanOutcome::FoundEmpty(pos), first_tombstone };
        }
        if k == TOMBSTONE_KEY && first_tombstone.is_none() {
            first_tombstone = Some(pos);
        }
    }
    ScanResult { outcome: ScanOutcome::Exhausted, first_tombstone }
}

// ---------------------------------------------------------------------
// AVX2 kernels (x86_64 only; callers go through the dispatchers below)
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// State threaded through segment scans: lowest-position tombstone
    /// seen so far (in scan order).
    struct TombTracker {
        first: Option<usize>,
    }

    impl TombTracker {
        #[inline(always)]
        fn note(&mut self, pos: usize) {
            if self.first.is_none() {
                self.first = Some(pos);
            }
        }
    }

    /// Scan a straight (non-wrapping) segment `[from, to)` of dense keys.
    /// Returns the stop (position, is_key) if the target or an empty slot
    /// occurs in the segment.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `from <= to <= keys.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn scan_keys_segment(
        keys: &[u64],
        from: usize,
        to: usize,
        target: u64,
        tombs: &mut TombTracker,
    ) -> Option<(usize, bool)> {
        let v_target = _mm256_set1_epi64x(target as i64);
        let v_empty = _mm256_set1_epi64x(EMPTY_KEY as i64);
        let v_tomb = _mm256_set1_epi64x(TOMBSTONE_KEY as i64);
        let base = keys.as_ptr();
        let mut i = from;
        while i + 4 <= to {
            // SAFETY: `i + 4 <= to <= keys.len()`, so the four lanes are
            // inside `keys`; the unaligned load needs no alignment, and
            // AVX2 is enabled for this function.
            let lanes = unsafe { _mm256_loadu_si256(base.add(i) as *const __m256i) };
            let m_key =
                _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(lanes, v_target))) as u32;
            let m_empty =
                _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(lanes, v_empty))) as u32;
            let m_tomb =
                _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(lanes, v_tomb))) as u32;
            let stop = m_key | m_empty;
            if stop != 0 {
                let lane = stop.trailing_zeros() as usize;
                // Tombstones strictly before the stop lane.
                let before = m_tomb & ((1u32 << lane) - 1);
                if before != 0 {
                    tombs.note(i + before.trailing_zeros() as usize);
                }
                return Some((i + lane, m_key >> lane & 1 == 1));
            }
            if m_tomb != 0 {
                tombs.note(i + m_tomb.trailing_zeros() as usize);
            }
            i += 4;
        }
        // Scalar tail (< 4 slots).
        while i < to {
            // SAFETY: `i < to <= keys.len()`.
            let k = unsafe { *keys.get_unchecked(i) };
            if k == target {
                return Some((i, true));
            }
            if k == EMPTY_KEY {
                return Some((i, false));
            }
            if k == TOMBSTONE_KEY {
                tombs.note(i);
            }
            i += 1;
        }
        None
    }

    /// Full circular SoA scan.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `start < keys.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan_keys(keys: &[u64], start: usize, target: u64) -> ScanResult {
        let mut tombs = TombTracker { first: None };
        // SAFETY: the caller guarantees AVX2 and `start < keys.len()`, so
        // both segments lie inside `keys`.
        let hit = unsafe { scan_keys_segment(keys, start, keys.len(), target, &mut tombs) }
            .or_else(|| unsafe { scan_keys_segment(keys, 0, start, target, &mut tombs) });
        finish(hit, tombs.first)
    }

    /// Scan a straight segment of AoS pairs, gathering keys with stride 2.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `from <= to <= slots.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn scan_pairs_segment(
        slots: &[Pair],
        from: usize,
        to: usize,
        target: u64,
        tombs: &mut TombTracker,
    ) -> Option<(usize, bool)> {
        let v_target = _mm256_set1_epi64x(target as i64);
        let v_empty = _mm256_set1_epi64x(EMPTY_KEY as i64);
        let v_tomb = _mm256_set1_epi64x(TOMBSTONE_KEY as i64);
        // Keys live at even u64 offsets of the pair array.
        let base = slots.as_ptr() as *const i64;
        let stride = _mm256_setr_epi64x(0, 2, 4, 6);
        let mut i = from;
        while i + 4 <= to {
            let idx = _mm256_add_epi64(_mm256_set1_epi64x(2 * i as i64), stride);
            // Gather four keys from slots[i..i+4] ("gather-scatter vector
            // addressing", §7 — the expensive part of AoS SIMD).
            // SAFETY: `i + 4 <= to <= slots.len()`, so every gathered key
            // (u64 offset `2 * j` for `j` in `i..i + 4`) is inside `slots`;
            // AVX2 is enabled for this function.
            let lanes = unsafe { _mm256_i64gather_epi64::<8>(base, idx) };
            let m_key =
                _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(lanes, v_target))) as u32;
            let m_empty =
                _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(lanes, v_empty))) as u32;
            let m_tomb =
                _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(lanes, v_tomb))) as u32;
            let stop = m_key | m_empty;
            if stop != 0 {
                let lane = stop.trailing_zeros() as usize;
                let before = m_tomb & ((1u32 << lane) - 1);
                if before != 0 {
                    tombs.note(i + before.trailing_zeros() as usize);
                }
                return Some((i + lane, m_key >> lane & 1 == 1));
            }
            if m_tomb != 0 {
                tombs.note(i + m_tomb.trailing_zeros() as usize);
            }
            i += 4;
        }
        while i < to {
            // SAFETY: `i < to <= slots.len()`.
            let k = unsafe { slots.get_unchecked(i).key };
            if k == target {
                return Some((i, true));
            }
            if k == EMPTY_KEY {
                return Some((i, false));
            }
            if k == TOMBSTONE_KEY {
                tombs.note(i);
            }
            i += 1;
        }
        None
    }

    /// Full circular AoS scan.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `start < slots.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan_pairs(slots: &[Pair], start: usize, target: u64) -> ScanResult {
        let mut tombs = TombTracker { first: None };
        // SAFETY: the caller guarantees AVX2 and `start < slots.len()`, so
        // both segments lie inside `slots`.
        let hit = unsafe { scan_pairs_segment(slots, start, slots.len(), target, &mut tombs) }
            .or_else(|| unsafe { scan_pairs_segment(slots, 0, start, target, &mut tombs) });
        finish(hit, tombs.first)
    }

    fn finish(hit: Option<(usize, bool)>, first_tombstone: Option<usize>) -> ScanResult {
        let outcome = match hit {
            Some((pos, true)) => ScanOutcome::FoundKey(pos),
            Some((pos, false)) => ScanOutcome::FoundEmpty(pos),
            None => ScanOutcome::Exhausted,
        };
        ScanResult { outcome, first_tombstone }
    }
}

// ---------------------------------------------------------------------
// Tag-array kernels (bucketized fingerprint probing, Swiss-table style)
// ---------------------------------------------------------------------

/// One group's worth of tag comparisons, as lane bitmasks (bit `i` set ⇔
/// `tags[i]` matched). A single [`scan_tags`] call answers everything a
/// bucketized probe step needs: candidate slots for the fingerprint,
/// whether the group terminates the probe (any empty), and reusable
/// tombstone slots for inserts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TagScan {
    /// Lanes whose tag equals the probed fingerprint.
    pub matches: u32,
    /// Lanes holding [`EMPTY_TAG`].
    pub empties: u32,
    /// Lanes holding [`TOMBSTONE_TAG`].
    pub tombstones: u32,
}

/// Scalar reference kernel: compare every tag of one group against
/// `tag` and the two control bytes. Groups up to 32 tags are supported
/// (the masks are `u32`).
pub fn scan_tags_scalar(tags: &[u8], tag: u8) -> TagScan {
    debug_assert!(tags.len() <= 32, "tag groups are at most 32 slots");
    debug_assert!(tag < EMPTY_TAG, "fingerprints are 7-bit (high bit clear)");
    let mut scan = TagScan::default();
    for (i, &t) in tags.iter().enumerate() {
        if t == tag {
            scan.matches |= 1 << i;
        } else if t == EMPTY_TAG {
            scan.empties |= 1 << i;
        } else if t == TOMBSTONE_TAG {
            scan.tombstones |= 1 << i;
        }
    }
    scan
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::*;
    use std::arch::x86_64::*;

    /// 16 tag comparisons in three instructions each: broadcast, byte
    /// compare, `movemask`. SSE2 is part of the x86-64 baseline, so —
    /// unlike the AVX2 key kernels — no runtime feature detection is
    /// needed.
    ///
    /// # Safety
    /// `tags` must have at least 16 readable bytes (guaranteed by the
    /// caller's slice length check).
    #[inline]
    pub unsafe fn scan_tags16(tags: &[u8], tag: u8) -> TagScan {
        debug_assert!(tags.len() >= 16);
        // SAFETY: the caller guarantees 16 readable bytes; the unaligned
        // load needs no alignment.
        let lanes = unsafe { _mm_loadu_si128(tags.as_ptr() as *const __m128i) };
        // SAFETY: SSE2 is part of the x86-64 baseline.
        let m = |needle: u8| unsafe {
            _mm_movemask_epi8(_mm_cmpeq_epi8(lanes, _mm_set1_epi8(needle as i8))) as u32
        };
        TagScan { matches: m(tag), empties: m(EMPTY_TAG), tombstones: m(TOMBSTONE_TAG) }
    }
}

/// Scan one fingerprint group with the requested probe kind.
///
/// The SIMD path covers the canonical 16-slot group on x86-64 (one SSE2
/// `movemask` per control byte); other group sizes and other targets fall
/// back to the scalar kernel with identical observable behaviour.
#[inline]
pub fn scan_tags(tags: &[u8], tag: u8, kind: ProbeKind) -> TagScan {
    #[cfg(target_arch = "x86_64")]
    if kind == ProbeKind::Simd && tags.len() == 16 {
        // SAFETY: the slice is exactly 16 bytes; SSE2 is statically
        // guaranteed on x86_64.
        return unsafe { sse2::scan_tags16(tags, tag) };
    }
    let _ = kind;
    scan_tags_scalar(tags, tag)
}

// ---------------------------------------------------------------------
// Dispatchers
// ---------------------------------------------------------------------

/// How a probing table scans its slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// One key comparison per loop iteration.
    Scalar,
    /// Four key comparisons per step via AVX2 (falls back to scalar where
    /// unavailable — use [`simd_available`] to check what you got).
    Simd,
}

/// Circular SoA key scan with the requested probe kind.
#[inline]
pub fn scan_keys(keys: &[u64], start: usize, target: u64, kind: ProbeKind) -> ScanResult {
    #[cfg(target_arch = "x86_64")]
    if kind == ProbeKind::Simd && simd_available() && start < keys.len() {
        // SAFETY: AVX2 availability and the start slot just checked.
        return unsafe { avx2::scan_keys(keys, start, target) };
    }
    let _ = kind;
    scan_keys_scalar(keys, start, target)
}

/// Circular AoS pair scan with the requested probe kind.
#[inline]
pub fn scan_pairs(slots: &[Pair], start: usize, target: u64, kind: ProbeKind) -> ScanResult {
    #[cfg(target_arch = "x86_64")]
    if kind == ProbeKind::Simd && simd_available() && start < slots.len() {
        // SAFETY: AVX2 availability and the start slot just checked.
        return unsafe { avx2::scan_pairs(slots, start, target) };
    }
    let _ = kind;
    scan_pairs_scalar(slots, start, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn to_pairs(keys: &[u64]) -> Vec<Pair> {
        keys.iter().map(|&k| Pair { key: k, value: k.wrapping_mul(3) }).collect()
    }

    #[test]
    fn scalar_scan_finds_key_before_empty() {
        let keys = vec![5, 7, TOMBSTONE_KEY, 9, EMPTY_KEY, 11, EMPTY_KEY, 1];
        let r = scan_keys_scalar(&keys, 0, 9);
        assert_eq!(r.outcome, ScanOutcome::FoundKey(3));
        assert_eq!(r.first_tombstone, Some(2));
        // Starting past the key: wraps and sees empty first.
        let r = scan_keys_scalar(&keys, 4, 9);
        assert_eq!(r.outcome, ScanOutcome::FoundEmpty(4));
        assert_eq!(r.first_tombstone, None);
    }

    #[test]
    fn scalar_scan_wraps() {
        let keys = vec![42, EMPTY_KEY, 1, 2, 3, 5, 6, 7];
        let r = scan_keys_scalar(&keys, 5, 42);
        assert_eq!(r.outcome, ScanOutcome::FoundKey(0));
        let r = scan_keys_scalar(&keys, 5, 99);
        assert_eq!(r.outcome, ScanOutcome::FoundEmpty(1));
    }

    #[test]
    fn scalar_scan_exhausted_reports_tombstone() {
        let keys = vec![1, TOMBSTONE_KEY, 2, TOMBSTONE_KEY];
        let r = scan_keys_scalar(&keys, 2, 99);
        assert_eq!(r.outcome, ScanOutcome::Exhausted);
        assert_eq!(r.first_tombstone, Some(3), "first tombstone in scan order from 2");
    }

    #[test]
    fn simd_dispatch_matches_scalar_on_randomized_tables() {
        if !simd_available() {
            eprintln!("AVX2 unavailable; dispatch test degenerates to scalar-vs-scalar");
        }
        let mut rng = StdRng::seed_from_u64(0x51AD);
        for trial in 0..500 {
            let bits = rng.gen_range(2..9);
            let len = 1usize << bits;
            let keys: Vec<u64> = (0..len)
                .map(|_| match rng.gen_range(0..10) {
                    0..=1 => EMPTY_KEY,
                    2 => TOMBSTONE_KEY,
                    _ => rng.gen_range(0..32u64),
                })
                .collect();
            let pairs = to_pairs(&keys);
            for _ in 0..16 {
                let start = rng.gen_range(0..len);
                let target = rng.gen_range(0..32u64);
                let expect = scan_keys_scalar(&keys, start, target);
                assert_eq!(
                    scan_keys(&keys, start, target, ProbeKind::Simd),
                    expect,
                    "SoA trial {trial} start {start} target {target} keys {keys:?}"
                );
                assert_eq!(
                    scan_pairs(&pairs, start, target, ProbeKind::Simd),
                    expect,
                    "AoS trial {trial} start {start} target {target} keys {keys:?}"
                );
                assert_eq!(scan_pairs_scalar(&pairs, start, target), expect);
            }
        }
    }

    #[test]
    fn simd_handles_unaligned_starts_and_tails() {
        // Table of 32 with stop conditions placed at every offset relative
        // to the 4-lane blocking.
        for stop_pos in 0..32usize {
            for start in 0..32usize {
                let mut keys = vec![1u64; 32];
                keys[stop_pos] = EMPTY_KEY;
                let expect = scan_keys_scalar(&keys, start, 7);
                assert_eq!(
                    scan_keys(&keys, start, 7, ProbeKind::Simd),
                    expect,
                    "stop {stop_pos} start {start}"
                );
                let pairs = to_pairs(&keys);
                assert_eq!(scan_pairs(&pairs, start, 7, ProbeKind::Simd), expect);
            }
        }
    }

    #[test]
    fn tag_scan_classifies_every_lane() {
        let mut tags = [0x11u8; 16];
        tags[0] = 0x42;
        tags[3] = EMPTY_TAG;
        tags[7] = TOMBSTONE_TAG;
        tags[9] = 0x42;
        tags[15] = EMPTY_TAG;
        for kind in [ProbeKind::Scalar, ProbeKind::Simd] {
            let s = scan_tags(&tags, 0x42, kind);
            assert_eq!(s.matches, (1 << 0) | (1 << 9), "{kind:?}");
            assert_eq!(s.empties, (1 << 3) | (1 << 15), "{kind:?}");
            assert_eq!(s.tombstones, 1 << 7, "{kind:?}");
        }
    }
    #[test]
    fn tag_scan_simd_matches_scalar_on_randomized_groups() {
        let mut rng = StdRng::seed_from_u64(0x7A6);
        for trial in 0..2000 {
            let tags: Vec<u8> = (0..16)
                .map(|_| match rng.gen_range(0..8u8) {
                    0 => EMPTY_TAG,
                    1 => TOMBSTONE_TAG,
                    _ => rng.gen_range(0..8u8), // tiny range => many matches
                })
                .collect();
            let tag = rng.gen_range(0..8u8);
            let expect = scan_tags_scalar(&tags, tag);
            assert_eq!(scan_tags(&tags, tag, ProbeKind::Simd), expect, "trial {trial} {tags:?}");
        }
    }

    #[test]
    fn tag_scan_non_16_groups_use_the_scalar_path() {
        for len in [4usize, 8, 32] {
            let mut tags = vec![0x05u8; len];
            tags[len - 1] = EMPTY_TAG;
            tags[len / 2] = TOMBSTONE_TAG;
            let expect = scan_tags_scalar(&tags, 0x05);
            assert_eq!(scan_tags(&tags, 0x05, ProbeKind::Simd), expect, "len {len}");
            assert_eq!(scan_tags(&tags, 0x05, ProbeKind::Scalar), expect, "len {len}");
        }
    }

    #[test]
    fn tombstone_before_stop_is_tracked_across_blocks() {
        let mut keys = vec![1u64; 16];
        keys[1] = TOMBSTONE_KEY;
        keys[9] = TOMBSTONE_KEY;
        keys[13] = EMPTY_KEY;
        for kind in [ProbeKind::Scalar, ProbeKind::Simd] {
            let r = scan_keys(&keys, 0, 7, kind);
            assert_eq!(r.outcome, ScanOutcome::FoundEmpty(13));
            assert_eq!(r.first_tombstone, Some(1), "kind {kind:?}");
            // Starting at 8: tombstone at 9 comes first in scan order.
            let r = scan_keys(&keys, 8, 7, kind);
            assert_eq!(r.first_tombstone, Some(9));
        }
    }

    #[test]
    fn a_start_past_the_end_wraps_like_the_scalar_scan() {
        // The AVX2 kernels scan `start..len` then `0..start`, so a start
        // past the end would read outside the slice; the safe dispatchers
        // send it to the scalar scan, which wraps it into range.
        let mut keys = vec![1u64; 16];
        keys[5] = 7;
        keys[12] = EMPTY_KEY;
        let pairs = to_pairs(&keys);
        for start in [16, 16 + 6, 1000] {
            let expect = scan_keys_scalar(&keys, start, 7);
            assert_eq!(scan_keys(&keys, start, 7, ProbeKind::Simd), expect, "start {start}");
            assert_eq!(scan_pairs(&pairs, start, 7, ProbeKind::Simd), expect, "start {start}");
        }
    }
}
