//! Memory budgets for chained hashing (paper §4.5).
//!
//! Load factor is meaningless for chained tables (it can exceed 1), so the
//! paper compares them *memory-wise*: when facing open addressing at load
//! factor α on `l = 2^bits` slots, a chained table may use at most **110%**
//! of the open-addressing footprint (`16 B · l`), holding the same `n = α·l`
//! elements. The directory is then sized as the largest power of two that
//! fits the budget together with the expected chain entries — which is how
//! the paper arrives at a `2^30` or `2^29`-slot directory for ChainedH8 and
//! `2^29` for ChainedH24 against `l = 2^30`, and why both variants drop out
//! of the ≥70% load-factor experiments entirely.

use crate::chained::Directory;

/// A byte limit a chained table must respect (or `unlimited`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryBudget {
    limit: Option<usize>,
}

/// Bytes per open-addressing slot (one 16-byte key/value [`crate::Pair`]).
pub const OPEN_ADDRESSING_SLOT_BYTES: usize = 16;

/// Bytes per chained entry (key + value + link).
pub const CHAIN_ENTRY_BYTES: usize = 24;

/// The paper's headroom for chained tables: 110% of the open-addressing
/// footprint.
pub const CHAINED_HEADROOM_NUM: usize = 110;
/// Denominator of [`CHAINED_HEADROOM_NUM`].
pub const CHAINED_HEADROOM_DEN: usize = 100;

impl MemoryBudget {
    /// No limit.
    pub const fn unlimited() -> Self {
        Self { limit: None }
    }

    /// An explicit byte limit.
    pub const fn bytes(limit: usize) -> Self {
        Self { limit: Some(limit) }
    }

    /// The budget granted to a chained table standing in for an
    /// open-addressing table of `2^bits` slots: `1.1 · 16 B · 2^bits`.
    pub fn open_addressing_equivalent(bits: u8) -> Self {
        let oa = (1usize << bits) * OPEN_ADDRESSING_SLOT_BYTES;
        Self::bytes(oa * CHAINED_HEADROOM_NUM / CHAINED_HEADROOM_DEN)
    }

    /// Whether `bytes` fits the budget.
    #[inline]
    pub fn allows(&self, bytes: usize) -> bool {
        match self.limit {
            None => true,
            Some(limit) => bytes <= limit,
        }
    }

    /// The limit, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }
}

/// Expected number of *occupied directory slots* after hashing `n` keys
/// uniformly into a directory of `d` slots: `d · (1 − (1 − 1/d)^n)`.
///
/// Used to estimate how many ChainedH24 entries overflow into the slab.
pub fn expected_occupied_slots(d: usize, n: usize) -> f64 {
    if d == 0 {
        return 0.0;
    }
    let d = d as f64;
    let n = n as f64;
    // (1 - 1/d)^n via exp/ln for numerical stability at large d.
    d * (1.0 - ((1.0 - 1.0 / d).ln() * n).exp())
}

/// Largest power-of-two directory (as a bit count, capped at `max_bits`)
/// for a chained table with directory `D` holding `n_target` entries
/// within `budget`.
///
/// The footprint is `D::SLOT_BYTES` per directory slot plus 24 B per
/// entry the allocator is expected to hold
/// ([`Directory::expected_chained`]): all `n_target` for
/// [`Links`](crate::chained::Links) (`8·2^b + 24·n_target`), only the
/// overflow `n − E[occupied slots]` for
/// [`Inline`](crate::chained::Inline), whose inline entries come with the
/// directory. The directory wants to be as large as possible to shorten
/// chains. Returns the largest fitting `b ≥ 4`, or `None` if even `b = 4`
/// cannot fit.
pub fn chained_directory_bits<D: Directory>(
    budget: MemoryBudget,
    n_target: usize,
    max_bits: u8,
) -> Option<u8> {
    let Some(limit) = budget.limit() else { return Some(max_bits) };
    (4..=max_bits).rev().find(|&b| {
        let chained = D::expected_chained(1 << b, n_target) * CHAIN_ENTRY_BYTES as f64;
        (1usize << b) * D::SLOT_BYTES + chained.ceil() as usize <= limit
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chained::{Inline, Links};

    #[test]
    fn budget_allows_boundary() {
        let b = MemoryBudget::bytes(100);
        assert!(b.allows(100));
        assert!(!b.allows(101));
        assert!(MemoryBudget::unlimited().allows(usize::MAX));
    }

    #[test]
    fn open_addressing_equivalent_is_110_percent() {
        let b = MemoryBudget::open_addressing_equivalent(20);
        // 2^20 slots * 16 B = 16 MiB; 110% = 16 MiB * 1.1.
        assert_eq!(b.limit(), Some((1usize << 20) * 16 * 110 / 100));
    }

    #[test]
    fn expected_occupancy_sane() {
        // n == d: ~63.2% of slots occupied (1 - 1/e).
        let occ = expected_occupied_slots(1 << 16, 1 << 16);
        let frac = occ / (1 << 16) as f64;
        assert!((frac - 0.632).abs() < 0.01, "got {frac}");
        // n << d: almost all keys get their own slot.
        let occ = expected_occupied_slots(1 << 16, 100);
        assert!((occ - 100.0).abs() < 1.0);
        assert_eq!(expected_occupied_slots(0, 5), 0.0);
    }

    #[test]
    fn chained8_directory_matches_paper_cases() {
        // Paper: l = 2^30, budget 17.6 GB.
        // α = 25% and 35%: full-size directory 2^30 fits
        //   (8·2^30 + 24·0.25·2^30 = 14·2^30 ≤ 17.6·2^30).
        // α = 45%: must halve to 2^29
        //   (8 + 10.8 = 18.8 > 17.6, but 4 + 10.8 = 14.8 fits).
        let l_bits = 30u8;
        let budget = MemoryBudget::open_addressing_equivalent(l_bits);
        let l = 1usize << l_bits;
        assert_eq!(chained_directory_bits::<Links>(budget, l / 4, l_bits), Some(30));
        assert_eq!(chained_directory_bits::<Links>(budget, l * 35 / 100, l_bits), Some(30));
        assert_eq!(chained_directory_bits::<Links>(budget, l * 45 / 100, l_bits), Some(29));
    }

    #[test]
    fn chained24_directory_matches_paper_case() {
        // Paper: ChainedH24 directory is 2^29 for l = 2^30
        // (24·2^30 = 24 GB alone would exceed the 17.6 GB budget).
        let budget = MemoryBudget::open_addressing_equivalent(30);
        let l = 1usize << 30;
        for alpha_pct in [25usize, 35, 45] {
            let bits = chained_directory_bits::<Inline>(budget, l * alpha_pct / 100, 30);
            assert_eq!(bits, Some(29), "α = {alpha_pct}%");
        }
    }

    #[test]
    fn chained_under_high_load_cannot_fit() {
        // §4.5: chained holds at most ~0.73·l entries under the budget.
        // At α = 90% no directory size works for H8:
        // even a tiny directory needs 24·0.9·l = 21.6·l > 17.6·l.
        let budget = MemoryBudget::open_addressing_equivalent(20);
        let l = 1usize << 20;
        assert_eq!(chained_directory_bits::<Links>(budget, l * 9 / 10, 20), None);
        assert_eq!(chained_directory_bits::<Inline>(budget, l * 9 / 10, 20), None);
        // And ~0.7·l is right at the edge: 24·0.7 = 16.8 ≤ 17.6 only with a
        // small directory.
        let bits = chained_directory_bits::<Links>(budget, l * 7 / 10, 20).unwrap();
        assert!(bits < 20);
    }

    #[test]
    fn unlimited_budget_uses_max_directory() {
        assert_eq!(chained_directory_bits::<Links>(MemoryBudget::unlimited(), 1000, 22), Some(22));
        assert_eq!(chained_directory_bits::<Inline>(MemoryBudget::unlimited(), 1000, 22), Some(22));
    }
}
