//! Displacement and cluster statistics for open-addressing tables.
//!
//! The paper reasons about performance through two structural quantities:
//!
//! * **Displacement** (§2.2): how many probe steps an entry sits from its
//!   home slot. Total displacement predicts successful-lookup cost; its
//!   *variance* is what Robin Hood minimizes; its *maximum* bounds
//!   worst-case probes.
//! * **Clusters** (§2.2, §5): maximal runs of non-empty slots (circular).
//!   Unsuccessful LP lookups scan to the end of a cluster, so cluster
//!   length distribution predicts miss cost; the paper's discussion of
//!   primary clustering and of Mult's arithmetic-progression behaviour on
//!   dense keys is directly observable here.
//!
//! The statistics functions work on raw slot arrays so they apply to every
//! probing scheme; each table exposes convenience methods.
//!
//! # Offline vs. runtime statistics
//!
//! [`DisplacementStats`] / [`ClusterStats`] are *offline*: they walk the
//! whole slot array and are meant for analysis, not the hot path. The
//! second half of this module is the *runtime* side: [`RuntimeStats`] is
//! four relaxed-atomic counters (lookups, misses, inserts, deletes) cheap
//! enough to update from the shared read path, and [`TableStats`] is its
//! point-in-time snapshot. The difference between two snapshots, with the
//! load factor, is the observed profile the adaptive migration controller
//! in [`crate::adaptive`] feeds back into the paper's Figure 8 decision
//! graph.

use crate::open_addressing::{Aos, OpenAddressing, Step};
use crate::Pair;
use hashfn::HashFn64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Summary of entry displacements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DisplacementStats {
    /// Live entries measured.
    pub entries: usize,
    /// Sum of displacements (the paper's "total displacement").
    pub total: u64,
    /// Mean displacement.
    pub mean: f64,
    /// Maximum displacement (the `dmax` of §2.4).
    pub max: usize,
    /// Population variance of displacement — the quantity Robin Hood
    /// hashing minimizes relative to LP.
    pub variance: f64,
}

/// Summary of occupied-slot clusters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterStats {
    /// Number of maximal non-empty runs (tombstones count as non-empty —
    /// they connect clusters, which is exactly their cost).
    pub clusters: usize,
    /// Longest cluster.
    pub max_len: usize,
    /// Mean cluster length.
    pub mean_len: f64,
    /// Non-empty slots (entries + tombstones).
    pub non_empty: usize,
    /// Tombstone slots.
    pub tombstones: usize,
}

/// Compute displacement statistics given each entry's displacement via
/// `disp(slot_index, key)`.
pub fn displacement_stats_with<F>(slots: &[Pair], mut disp: F) -> DisplacementStats
where
    F: FnMut(usize, u64) -> usize,
{
    let mut total = 0u64;
    let mut max = 0usize;
    let mut entries = 0usize;
    let mut sum_sq = 0f64;
    for (i, p) in slots.iter().enumerate() {
        if p.is_occupied() {
            let d = disp(i, p.key);
            total += d as u64;
            max = max.max(d);
            entries += 1;
            sum_sq += (d as f64) * (d as f64);
        }
    }
    let mean = if entries == 0 { 0.0 } else { total as f64 / entries as f64 };
    let variance = if entries == 0 { 0.0 } else { sum_sq / entries as f64 - mean * mean };
    DisplacementStats { entries, total, mean, max, variance }
}

/// Compute cluster statistics over a circular slot array.
pub fn cluster_stats(slots: &[Pair]) -> ClusterStats {
    let len = slots.len();
    let non_empty_flags: Vec<bool> = slots.iter().map(|p| !p.is_empty()).collect();
    let non_empty = non_empty_flags.iter().filter(|&&b| b).count();
    let tombstones = slots.iter().filter(|p| p.is_tombstone()).count();
    if non_empty == len {
        // One cluster covering the whole (pathological) table.
        return ClusterStats {
            clusters: 1,
            max_len: len,
            mean_len: len as f64,
            non_empty,
            tombstones,
        };
    }
    // Start scanning from an empty slot so circular clusters are not split.
    let start = non_empty_flags.iter().position(|&b| !b).unwrap_or(0);
    let mut clusters = 0usize;
    let mut max_len = 0usize;
    let mut run = 0usize;
    for step in 0..len {
        let pos = (start + step) % len;
        if non_empty_flags[pos] {
            run += 1;
        } else if run > 0 {
            clusters += 1;
            max_len = max_len.max(run);
            run = 0;
        }
    }
    if run > 0 {
        clusters += 1;
        max_len = max_len.max(run);
    }
    let mean_len = if clusters == 0 { 0.0 } else { non_empty as f64 / clusters as f64 };
    ClusterStats { clusters, max_len, mean_len, non_empty, tombstones }
}

impl<H: HashFn64, S: Step> OpenAddressing<H, Aos, S> {
    /// Displacement statistics, where displacement is the number of probe
    /// steps of `S` from the home slot to the entry's position (the linear
    /// distance under linear probing and Robin Hood, triangular steps under
    /// quadratic). Robin Hood's total and mean match an LP table with the
    /// same contents; its variance and max are smaller.
    pub fn displacement_stats(&self) -> DisplacementStats {
        let slots = self.raw_slots();
        let mask = slots.len() - 1;
        let bits = slots.len().trailing_zeros() as u8;
        displacement_stats_with(slots, |target, k| {
            let mut pos = crate::home_slot(self.hash_fn(), k, bits);
            // Follow the probe sequence until we reach the slot.
            for i in 1..=mask + 1 {
                if pos == target {
                    return i - 1;
                }
                pos = S::advance(pos, i) & mask;
            }
            unreachable!("entry not on its own probe sequence");
        })
    }

    /// Cluster statistics.
    pub fn cluster_stats(&self) -> ClusterStats {
        cluster_stats(self.raw_slots())
    }
}

/// Point-in-time snapshot of a table's runtime signals, taken with
/// [`RuntimeStats::snapshot`] (or aggregated across shards /
/// generations). Every field is a lifetime total; the adaptive controller
/// judges the difference between two snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Single-key lookups plus batch lookup elements observed.
    pub lookups: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Insert operations (single-key and batch elements).
    pub inserts: u64,
    /// Delete operations (single-key and batch elements).
    pub deletes: u64,
    /// Generations (growth doublings and scheme switches) this table has
    /// begun, from [`crate::DynamicTable::rehash_count`].
    pub rehashes: u64,
    /// Cross-scheme migrations the migration engine has begun.
    pub scheme_switches: u64,
}

impl TableStats {
    /// Lifetime miss ratio (`misses / lookups`), 0 when nothing was looked
    /// up yet.
    pub fn miss_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups as f64
        }
    }

    /// Combine two snapshots (e.g. across shards): every field adds.
    pub fn merge(&self, other: &TableStats) -> TableStats {
        TableStats {
            lookups: self.lookups + other.lookups,
            misses: self.misses + other.misses,
            inserts: self.inserts + other.inserts,
            deletes: self.deletes + other.deletes,
            rehashes: self.rehashes + other.rehashes,
            scheme_switches: self.scheme_switches + other.scheme_switches,
        }
    }
}

/// Relaxed-atomic runtime counters, updatable from `&self` on the shared
/// read path (the seqlock optimistic path included — these are plain
/// monotonic counters, not part of any protected snapshot).
///
/// Cost model: a batch lookup pays one `fetch_add`, two when it missed,
/// per *batch*; a single-key lookup pays the same per op. Nothing here is
/// sequenced against table contents — `Relaxed` everywhere — so a
/// snapshot taken under concurrent readers may see `lookups` and `misses`
/// a few records apart. The signals are statistical inputs to a
/// controller with hysteresis; that imprecision is acceptable by design.
#[derive(Debug, Default)]
pub struct RuntimeStats {
    lookups: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
}

// A per-reader stripe of these counters wants one cache line per reader.
const _: () = assert!(std::mem::size_of::<RuntimeStats>() <= 64);

impl RuntimeStats {
    /// Record `n` lookups of which `misses` found nothing.
    #[inline]
    pub fn record_lookups(&self, n: u64, misses: u64) {
        self.lookups.fetch_add(n, Ordering::Relaxed);
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Record `n` insert operations.
    #[inline]
    pub fn record_inserts(&self, n: u64) {
        self.inserts.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` delete operations.
    #[inline]
    pub fn record_deletes(&self, n: u64) {
        self.deletes.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot the counters (`rehashes` and `scheme_switches` are the
    /// owning table's to fill in).
    pub fn snapshot(&self) -> TableStats {
        TableStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            ..TableStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashTable, LinearProbing, QuadraticProbing, RobinHood, EMPTY_KEY, TOMBSTONE_KEY};
    use hashfn::{MultShift, Murmur};

    fn pair(k: u64) -> Pair {
        Pair { key: k, value: 0 }
    }

    #[test]
    fn cluster_stats_empty_table() {
        let slots = vec![Pair::empty(); 8];
        let s = cluster_stats(&slots);
        assert_eq!(s.clusters, 0);
        assert_eq!(s.max_len, 0);
        assert_eq!(s.non_empty, 0);
    }

    #[test]
    fn cluster_stats_counts_runs() {
        // Layout: [K K _ K _ _ T K]: circular run 7,0,1 (len 3), run 3 (1),
        // run 6 is tombstone-connected to 7: positions 6,7 wrap with 0,1.
        let mut slots = vec![Pair::empty(); 8];
        slots[0] = pair(1);
        slots[1] = pair(2);
        slots[3] = pair(3);
        slots[6] = Pair { key: TOMBSTONE_KEY, value: 0 };
        slots[7] = pair(4);
        let s = cluster_stats(&slots);
        // Runs: {6,7,0,1} (tombstone joins) and {3}.
        assert_eq!(s.clusters, 2);
        assert_eq!(s.max_len, 4);
        assert_eq!(s.non_empty, 5);
        assert_eq!(s.tombstones, 1);
        assert!((s.mean_len - 2.5).abs() < 1e-9);
    }

    #[test]
    fn cluster_stats_full_table() {
        let slots = vec![pair(9); 8];
        let s = cluster_stats(&slots);
        assert_eq!(s.clusters, 1);
        assert_eq!(s.max_len, 8);
    }

    #[test]
    fn displacement_zero_for_perfect_placement() {
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(8, MultShift::default());
        // Dense keys + Mult: nearly collision-free placement.
        for k in 1..=64u64 {
            t.insert(k, k).unwrap();
        }
        let s = t.displacement_stats();
        assert_eq!(s.entries, 64);
        assert!(s.mean < 0.5, "dense+Mult should be near-perfect, mean {}", s.mean);
    }

    #[test]
    fn lp_and_rh_have_equal_total_displacement() {
        // §2.4: RH does not change total displacement versus LP, only its
        // distribution.
        let h = Murmur::with_seed(7);
        let mut lp = LinearProbing::with_hash(10, h);
        let mut rh = RobinHood::with_hash(10, h);
        let mut x = 1u64;
        for _ in 0..900 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = x >> 4;
            lp.insert(k, 0).unwrap();
            rh.insert(k, 0).unwrap();
        }
        let sl = lp.displacement_stats();
        let sr = rh.displacement_stats();
        assert_eq!(sl.entries, sr.entries);
        assert_eq!(sl.total, sr.total, "RH must preserve total displacement");
        assert!(
            sr.variance <= sl.variance,
            "RH variance {} must not exceed LP variance {}",
            sr.variance,
            sl.variance
        );
        assert!(sr.max <= sl.max, "RH max {} vs LP max {}", sr.max, sl.max);
    }

    #[test]
    fn qp_displacement_counts_probe_steps() {
        let mut t: QuadraticProbing<MultShift> = QuadraticProbing::with_hash(4, MultShift::new(1));
        for k in 1..=4u64 {
            t.insert(k, k).unwrap();
        }
        // Keys at offsets 0, 1, 3, 6 → displacements 0, 1, 2, 3 steps.
        let s = t.displacement_stats();
        assert_eq!(s.entries, 4);
        assert_eq!(s.total, 1 + 2 + 3);
        assert_eq!(s.max, 3);
    }

    #[test]
    fn stats_ignore_control_slots() {
        let slots = vec![
            Pair { key: TOMBSTONE_KEY, value: 0 },
            pair(5),
            Pair { key: EMPTY_KEY, value: 0 },
            pair(6),
        ];
        let s = displacement_stats_with(&slots, |_, _| 2);
        assert_eq!(s.entries, 2);
        assert_eq!(s.total, 4);
        assert_eq!(s.max, 2);
        assert!((s.variance - 0.0).abs() < 1e-12);
    }

    #[test]
    fn runtime_stats_count_every_record_and_give_the_lifetime_ratio() {
        let rs = RuntimeStats::default();
        rs.record_lookups(10, 3);
        rs.record_lookups(0, 0);
        rs.record_inserts(4);
        rs.record_deletes(1);
        let s = rs.snapshot();
        let expect =
            TableStats { lookups: 10, misses: 3, inserts: 4, deletes: 1, ..TableStats::default() };
        assert_eq!(s, expect);
        assert!((s.miss_ratio() - 0.3).abs() < 1e-12);
        assert_eq!(TableStats::default().miss_ratio(), 0.0, "no lookups, no ratio");
    }

    #[test]
    fn table_stats_merge_sums_every_field() {
        let stats = |[lookups, misses, inserts, deletes, rehashes, scheme_switches]: [u64; 6]| {
            TableStats { lookups, misses, inserts, deletes, rehashes, scheme_switches }
        };
        let m = stats([300, 30, 5, 1, 2, 1]).merge(&stats([100, 90, 7, 3, 1, 0]));
        assert_eq!(m, stats([400, 120, 12, 4, 3, 1]));
        assert!((m.miss_ratio() - 0.3).abs() < 1e-12, "the merged ratio is lookup-weighted");
        assert_eq!(TableStats::default().merge(&TableStats::default()), TableStats::default());
    }
}
