//! The paper's decision graph (Figure 8), executable.
//!
//! Section 8 condenses the whole study into a practitioner's decision
//! graph. This module encodes it as a pure function so a query optimizer
//! (or a test) can ask: *given this workload profile, which hash table
//! should I build?* The edges below map one-to-one onto the paper's
//! inline conclusions:
//!
//! * §5.1: at load factors < 50%, `LPMult` "is the way to go if most
//!   queries are successful (≥ 50%), and ChainedH24 must be considered
//!   otherwise".
//! * §5.2: Mult over Murmur throughout ("no hash table is the absolute
//!   best using Murmur"); for inserts "QP seems to be the best option in
//!   general", except dense keys + Mult where LP wins; for lookups "RH
//!   seems to be an excellent all-rounder unless the hash table is
//!   expected to be very full [→ CuckooH4, from ~80%] or the amount of
//!   unsuccessful queries is rather large [→ ChainedH24, memory
//!   permitting]".
//! * §6: "in a write-heavy workload, quadratic probing looks as the best
//!   option in general"; chained and cuckoo "should be avoided for
//!   write-heavy workloads".
//!
//! One edge extends the paper's graph: bucketized fingerprint probing
//! ([`crate::FingerprintTable`], a scheme the study predates) takes the
//! static miss-heavy band between chained hashing's memory ceiling and
//! cuckoo's very-high-load regime — a miss there is rejected by one
//! 16-slot tag comparison without touching the key array, which is
//! exactly the cluster-scanning cost RH's early abort only mitigates.
//!
//! The graph answers in [`TableScheme`]s and only ever names six of them:
//! `Chained24`, `LinearProbing`, `Quadratic`, `RobinHood`, `Cuckoo4` and
//! `Fingerprint`. Every answer means that scheme *with Mult* (§5.2, "Mult
//! governs over Murmur"), which [`TableBuilder::for_profile`] applies.
//!
//! [`TableBuilder::for_profile`]: crate::TableBuilder::for_profile

use crate::TableScheme;

/// Is the table static once built (OLAP/WORM) or continuously updated
/// (OLTP/RW)?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutability {
    /// Write-once-read-many: built, then only probed.
    Static,
    /// Read-write with growth: inserts/deletes interleaved with lookups.
    Dynamic,
}

/// A point in the paper's requirements space, dimensions 1–5.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadProfile {
    /// Planned load factor α = n/l (for chained candidates this is the
    /// memory-equivalent α of §4.5).
    pub load_factor: f64,
    /// Fraction of lookups expected to find their key (1.0 = all hit).
    pub successful_ratio: f64,
    /// Fraction of operations that are writes (inserts/deletes); lookups
    /// make up the rest. `> 0.5` is the paper's "write-heavy".
    pub write_ratio: f64,
    /// Whether keys are densely packed integers (auto-increment style) —
    /// the distribution where Mult turns LP near-perfect.
    pub dense_keys: bool,
    /// Static (WORM) or dynamic (RW) usage.
    pub mutability: Mutability,
}

impl WorkloadProfile {
    /// A static, all-successful, half-full, sparse-key profile — a neutral
    /// starting point to tweak.
    pub fn baseline() -> Self {
        Self {
            load_factor: 0.5,
            successful_ratio: 1.0,
            write_ratio: 0.0,
            dense_keys: false,
            mutability: Mutability::Static,
        }
    }
}

/// Walk the decision graph of Figure 8.
///
/// Returns the scheme the paper's evidence recommends for `p`. Thresholds
/// (50% load, 50% successful, 70%/80%/90% load, write-heavy) are the ones
/// printed in the figure and the inline conclusions.
pub fn recommend(p: &WorkloadProfile) -> TableScheme {
    let write_heavy = p.write_ratio > 0.5;

    // Low load factor: collisions are rare, code simplicity dominates
    // (§5.1). The successful/unsuccessful ratio picks between LP and
    // chained; writes don't change the picture because LP inserts at low
    // load are in-place and cheap.
    if p.load_factor < 0.5 {
        return if p.successful_ratio >= 0.5 || write_heavy {
            TableScheme::LinearProbing
        } else {
            TableScheme::Chained24
        };
    }

    // High load, write-heavy: §6's conclusion — QP in general; the dense
    // exception favours LP because Mult lays dense keys out contiguously
    // and LP then extends runs instead of scattering them (§5.2).
    if write_heavy {
        return if p.dense_keys { TableScheme::LinearProbing } else { TableScheme::Quadratic };
    }

    // High load, read-mostly.
    if p.mutability == Mutability::Dynamic {
        // The table keeps growing: insert cost still matters. Up to 70%
        // the three LP-family schemes tie (§6, Fig. 5a–b) — prefer LP on
        // dense keys, RH otherwise for its lookup robustness. Beyond 70%,
        // QP's collision scattering wins (§6, Fig. 5c).
        if p.load_factor <= 0.7 {
            return if p.dense_keys { TableScheme::LinearProbing } else { TableScheme::RobinHood };
        }
        return TableScheme::Quadratic;
    }

    // Static read-only table at ≥50% load (the WORM lookup cells of
    // Fig. 6).
    if p.successful_ratio < 0.5 {
        // Unsuccessful-heavy. ChainedH24 is the overall winner while its
        // memory budget holds (≤ ~50% equivalent load, §4.5); past that
        // the constant-probe schemes take over: CuckooH4 from ~80% load,
        // and in between the fingerprint table's tag filter — a miss is
        // rejected by one group comparison without touching key lines,
        // which beats even RH's cache-line early abort.
        if p.load_factor <= 0.5 {
            return TableScheme::Chained24;
        }
        return if p.load_factor >= 0.8 { TableScheme::Cuckoo4 } else { TableScheme::Fingerprint };
    }

    // Successful-heavy static reads: RH is the all-rounder; at very high
    // load CuckooH4's flat probe count wins (§5.2, "from a load factor of
    // 80% on, CuckooH4 clearly surpasses the other methods"); on dense
    // keys up to ~70% LP matches RH with simpler code.
    if p.load_factor >= 0.9 {
        return TableScheme::Cuckoo4;
    }
    if p.dense_keys && p.load_factor <= 0.7 {
        return TableScheme::LinearProbing;
    }
    TableScheme::RobinHood
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(
        load_factor: f64,
        successful_ratio: f64,
        write_ratio: f64,
        dense_keys: bool,
        mutability: Mutability,
    ) -> WorkloadProfile {
        WorkloadProfile { load_factor, successful_ratio, write_ratio, dense_keys, mutability }
    }

    #[test]
    fn low_load_successful_reads_pick_lp() {
        // §5.1 conclusion, verbatim case.
        let p = profile(0.25, 1.0, 0.0, false, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::LinearProbing);
        let p = profile(0.45, 0.5, 0.0, true, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::LinearProbing);
    }

    #[test]
    fn low_load_unsuccessful_reads_pick_chained() {
        let p = profile(0.35, 0.25, 0.0, false, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::Chained24);
        let p = profile(0.25, 0.0, 0.0, true, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::Chained24);
    }

    #[test]
    fn write_heavy_high_load_picks_qp() {
        // §6 conclusion.
        let p = profile(0.7, 1.0, 0.8, false, Mutability::Dynamic);
        assert_eq!(recommend(&p), TableScheme::Quadratic);
        let p = profile(0.9, 0.5, 0.6, false, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::Quadratic);
    }

    #[test]
    fn write_heavy_dense_picks_lp() {
        // §5.2: dense + Mult is LP's best case, 45M vs 35M ins/s over QP.
        let p = profile(0.9, 1.0, 0.8, true, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::LinearProbing);
    }

    #[test]
    fn very_full_static_reads_pick_cuckoo() {
        // §5.2: "from a load factor of 80% on, CuckooH4 clearly surpasses".
        let p = profile(0.9, 1.0, 0.0, false, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::Cuckoo4);
        let p = profile(0.85, 0.25, 0.0, false, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::Cuckoo4);
    }

    #[test]
    fn mid_load_static_reads_pick_rh() {
        // Fig. 6: RH dominates the 50–70% successful-lookup cells.
        let p = profile(0.7, 0.75, 0.1, false, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::RobinHood);
    }

    #[test]
    fn mid_load_miss_heavy_static_reads_pick_fingerprint() {
        // Unsuccessful-heavy past chained hashing's budget: the tag
        // filter rejects misses without touching key lines.
        let p = profile(0.7, 0.0, 0.0, false, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::Fingerprint);
        let p = profile(0.6, 0.25, 0.0, true, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::Fingerprint);
        // Below 50% load chained still wins; at 80%+ cuckoo takes over.
        let p = profile(0.45, 0.0, 0.0, false, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::Chained24);
        let p = profile(0.85, 0.0, 0.0, false, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::Cuckoo4);
    }

    #[test]
    fn unsuccessful_heavy_at_half_load_picks_chained() {
        let p = profile(0.5, 0.25, 0.0, false, Mutability::Static);
        assert_eq!(recommend(&p), TableScheme::Chained24);
    }

    #[test]
    fn dynamic_read_mostly_tracks_load() {
        let p = profile(0.5, 0.9, 0.2, false, Mutability::Dynamic);
        assert_eq!(recommend(&p), TableScheme::RobinHood);
        let p = profile(0.5, 0.9, 0.2, true, Mutability::Dynamic);
        assert_eq!(recommend(&p), TableScheme::LinearProbing);
        let p = profile(0.9, 0.9, 0.2, false, Mutability::Dynamic);
        assert_eq!(recommend(&p), TableScheme::Quadratic);
    }

    #[test]
    fn total_over_the_whole_requirements_space() {
        // The graph must produce an answer for every profile — no panics,
        // no unreachable corners (dimensionality sweep).
        let mut seen = std::collections::HashSet::new();
        for lf in [0.1, 0.25, 0.45, 0.5, 0.65, 0.7, 0.8, 0.9, 0.99] {
            for sr in [0.0, 0.25, 0.5, 0.75, 1.0] {
                for wr in [0.0, 0.2, 0.5, 0.6, 1.0] {
                    for dense in [false, true] {
                        for m in [Mutability::Static, Mutability::Dynamic] {
                            let p = profile(lf, sr, wr, dense, m);
                            seen.insert(recommend(&p));
                        }
                    }
                }
            }
        }
        // Every recommendation class is reachable.
        assert_eq!(seen.len(), 6, "unreachable recommendations: {seen:?}");
    }

    #[test]
    fn baseline_profile_is_sensible() {
        assert_eq!(recommend(&WorkloadProfile::baseline()), TableScheme::RobinHood);
    }
}
