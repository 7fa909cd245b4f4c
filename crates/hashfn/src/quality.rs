//! Statistical quality measurement for hash functions.
//!
//! The paper's §4.4 and §5.2 reason about hash *quality* (robustness across
//! input distributions) versus *speed*. This module provides the
//! measurement side: bucket-occupancy chi-square statistics, collision
//! counting against the binomial expectation, and avalanche tests. It is
//! the measurement behind this module's own §5.2 hash-quality tests (Mult
//! spreads dense keys super-uniformly, Murmur randomizes them, Murmur and
//! Tab avalanche where Mult does not); nothing outside them calls it.

use crate::{fold_to_bits, HashFn64};

/// Bucket-occupancy statistics of hashing `keys` into a `2^bits`-slot table.
#[derive(Clone, Debug, PartialEq)]
pub struct BucketStats {
    /// Number of buckets (`2^bits`).
    pub buckets: usize,
    /// Number of keys hashed.
    pub keys: usize,
    /// Pearson chi-square statistic against the uniform expectation.
    ///
    /// For a good hash and `keys >> buckets` this concentrates around
    /// `buckets - 1` (the degrees of freedom).
    pub chi_square: f64,
    /// Maximum bucket occupancy.
    pub max_bucket: usize,
    /// Number of empty buckets.
    pub empty_buckets: usize,
    /// Pairwise collisions: Σ c_i·(c_i−1)/2 over bucket counts `c_i`.
    pub pairwise_collisions: u64,
}

impl BucketStats {
    /// Expected pairwise collisions for a truly uniform hash:
    /// `C(keys, 2) / buckets`.
    pub fn expected_pairwise_collisions(&self) -> f64 {
        let n = self.keys as f64;
        n * (n - 1.0) / 2.0 / self.buckets as f64
    }

    /// Ratio of observed to expected pairwise collisions (1.0 = ideal).
    pub fn collision_ratio(&self) -> f64 {
        let e = self.expected_pairwise_collisions();
        if e == 0.0 {
            if self.pairwise_collisions == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.pairwise_collisions as f64 / e
        }
    }

    /// Chi-square normalized by its degrees of freedom (≈1.0 for a good
    /// hash; values ≫ 1 indicate clumping, ≪ 1 super-uniformity — which
    /// Mult exhibits on dense keys).
    pub fn chi_square_per_dof(&self) -> f64 {
        self.chi_square / (self.buckets.saturating_sub(1).max(1) as f64)
    }
}

/// Hash every key into a `2^bits`-bucket table and collect [`BucketStats`].
pub fn bucket_stats<H: HashFn64>(h: &H, keys: &[u64], bits: u8) -> BucketStats {
    assert!(bits <= 28, "quality sweeps above 2^28 buckets are not supported");
    let buckets = 1usize << bits;
    let mut counts = vec![0u32; buckets];
    for &k in keys {
        counts[fold_to_bits(h.hash(k), bits)] += 1;
    }
    let expected = keys.len() as f64 / buckets as f64;
    let mut chi_square = 0.0;
    let mut max_bucket = 0usize;
    let mut empty = 0usize;
    let mut pairwise = 0u64;
    for &c in &counts {
        let c = c as usize;
        let diff = c as f64 - expected;
        chi_square += diff * diff / expected;
        max_bucket = max_bucket.max(c);
        if c == 0 {
            empty += 1;
        }
        pairwise += (c as u64) * (c as u64).saturating_sub(1) / 2;
    }
    BucketStats {
        buckets,
        keys: keys.len(),
        chi_square,
        max_bucket,
        empty_buckets: empty,
        pairwise_collisions: pairwise,
    }
}

/// Mean avalanche probability: flipping input bit `i` should flip each
/// output bit with probability 1/2. Returns the mean absolute deviation
/// from 0.5 over all (input, output) bit pairs — 0 is perfect mixing.
///
/// Multiply-shift famously fails this (low output bits barely react),
/// Murmur and tabulation pass. Used by tests and the hash-quality bench.
pub fn avalanche_bias<H: HashFn64>(h: &H, samples: &[u64]) -> f64 {
    let mut flip_counts = [[0u32; 64]; 64];
    for &x in samples {
        let base = h.hash(x);
        for (in_bit, row) in flip_counts.iter_mut().enumerate() {
            let flipped = h.hash(x ^ (1u64 << in_bit));
            let delta = base ^ flipped;
            for (out_bit, count) in row.iter_mut().enumerate() {
                if (delta >> out_bit) & 1 == 1 {
                    *count += 1;
                }
            }
        }
    }
    let n = samples.len() as f64;
    let mut total_dev = 0.0;
    for row in &flip_counts {
        for &c in row {
            total_dev += (c as f64 / n - 0.5).abs();
        }
    }
    total_dev / (64.0 * 64.0)
}

/// Avalanche bias restricted to the top `bits` output bits — the ones hash
/// tables in this workspace actually consume. Multiply-shift is much
/// better here than its full-width bias suggests.
#[cfg(test)]
pub fn avalanche_bias_top_bits<H: HashFn64>(h: &H, samples: &[u64], bits: u8) -> f64 {
    assert!((1..=64).contains(&bits));
    let mut flip_counts = vec![[0u32; 64]; bits as usize];
    for &x in samples {
        let base = h.hash(x);
        for in_bit in 0..64 {
            let flipped = h.hash(x ^ (1u64 << in_bit));
            let delta = base ^ flipped;
            for (j, row) in flip_counts.iter_mut().enumerate() {
                let out_bit = 63 - j;
                if (delta >> out_bit) & 1 == 1 {
                    row[in_bit] += 1;
                }
            }
        }
    }
    let n = samples.len() as f64;
    let mut total_dev = 0.0;
    for row in &flip_counts {
        for &c in row {
            total_dev += (c as f64 / n - 0.5).abs();
        }
    }
    total_dev / (bits as f64 * 64.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashFamily, MultShift, Murmur, Tabulation};
    use rand::{Rng, SeedableRng};

    fn sparse_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen::<u64>()).collect()
    }

    #[test]
    fn uniform_keys_give_unit_collision_ratio() {
        let keys = sparse_keys(1 << 16, 1);
        for ratio in [
            bucket_stats(&MultShift::from_seed(2), &keys, 10).collision_ratio(),
            bucket_stats(&Murmur::from_seed(2), &keys, 10).collision_ratio(),
            bucket_stats(&Tabulation::from_seed(2), &keys, 10).collision_ratio(),
        ] {
            assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn mult_on_dense_keys_is_super_uniform() {
        // Paper §5.2: Mult turns dense keys into an approximate arithmetic
        // progression — *fewer* collisions than a random function.
        let keys: Vec<u64> = (1..=(1u64 << 16)).collect();
        let stats = bucket_stats(&MultShift::from_seed(3), &keys, 10);
        // An arithmetic progression fills buckets almost perfectly evenly:
        // the chi-square statistic collapses far below the ≈1.0 per degree
        // of freedom a truly random function yields.
        assert!(
            stats.chi_square_per_dof() < 0.2,
            "expected super-uniform occupancy, got chi²/dof {}",
            stats.chi_square_per_dof()
        );
        assert!(stats.collision_ratio() < 1.0);
        assert_eq!(stats.empty_buckets, 0);
    }

    #[test]
    fn murmur_randomizes_dense_keys() {
        let keys: Vec<u64> = (1..=(1u64 << 16)).collect();
        let stats = bucket_stats(&Murmur::canonical(), &keys, 10);
        assert!((0.9..1.1).contains(&stats.collision_ratio()));
        assert!((0.8..1.25).contains(&stats.chi_square_per_dof()));
    }

    #[test]
    fn identity_like_hash_fails_chi_square() {
        // A pathological member: multiplier 1 maps dense keys to the low
        // buckets only (top bits of small keys are all zero).
        let h = MultShift::new(1);
        let keys: Vec<u64> = (1..=4096u64).collect();
        let stats = bucket_stats(&h, &keys, 10);
        assert!(stats.chi_square_per_dof() > 100.0);
        assert_eq!(stats.max_bucket, 4096); // everything in bucket 0
    }

    #[test]
    fn avalanche_ranking_murmur_beats_mult() {
        let samples = sparse_keys(256, 9);
        let mult = avalanche_bias(&MultShift::from_seed(1), &samples);
        let murmur = avalanche_bias(&Murmur::from_seed(1), &samples);
        let tab = avalanche_bias(&Tabulation::from_seed(1), &samples);
        assert!(murmur < 0.05, "murmur bias {murmur}");
        assert!(tab < 0.05, "tabulation bias {tab}");
        // Multiply-shift's full-width avalanche is far worse (low bits).
        assert!(mult > murmur * 2.0, "mult {mult} vs murmur {murmur}");
    }

    #[test]
    fn mult_top_bits_are_usable() {
        let samples = sparse_keys(256, 10);
        let top = avalanche_bias_top_bits(&MultShift::from_seed(4), &samples, 16);
        let full = avalanche_bias(&MultShift::from_seed(4), &samples);
        assert!(top < full, "top-bit bias {top} should beat full-width {full}");
    }

    #[test]
    fn expected_collisions_formula() {
        let stats = BucketStats {
            buckets: 1024,
            keys: 2048,
            chi_square: 0.0,
            max_bucket: 0,
            empty_buckets: 0,
            pairwise_collisions: 0,
        };
        let expect = 2048.0 * 2047.0 / 2.0 / 1024.0;
        assert!((stats.expected_pairwise_collisions() - expect).abs() < 1e-9);
    }
}
