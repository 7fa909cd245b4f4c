//! Seeded input generation: the benchmark's own splitmix64, index-drawn
//! key spaces with exact hit ratios, the value function the oracle
//! checks against, and the input digest.
//!
//! Nothing here depends on the `workloads` or `rand` crates, so a later
//! change to either cannot move the benchmark's inputs.

/// `splitmix64`: the whole benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// A generator for one named stream of one repetition: streams with
    /// different `(seed, stream, rep)` are independent.
    pub fn for_stream(seed: u64, stream: u64, rep: u64) -> Self {
        Self(fmix64(seed ^ fmix64(stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ fmix64(rep))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`) by multiply-high; the bias is below
    /// `n / 2^64`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The Murmur3 finalizer, written out here so the oracle and the digest
/// do not move with `hashfn`.
pub fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

const M62: u64 = (1 << 62) - 1;

/// A key space: a seeded bijection from an index below `2^62` to a
/// 63-bit key whose lowest bit says which side of the table it is on.
/// Resident keys are odd and absent keys are even, so distinct indices
/// give distinct keys, a resident key is never absent, and whether a
/// lookup must hit is readable from the key itself.
#[derive(Clone, Copy, Debug)]
pub struct KeySpace {
    offset: u64,
}

impl KeySpace {
    pub fn new(seed: u64) -> Self {
        Self { offset: fmix64(seed ^ 0x6B65_7973_7061_6365) & M62 }
    }

    /// Every step is a bijection of the 62-bit domain (add, xor with a
    /// right shift, multiply by an odd constant), so the whole is.
    fn scramble(&self, index: u64) -> u64 {
        debug_assert!(index <= M62);
        let mut x = index.wrapping_add(self.offset) & M62;
        x ^= x >> 31;
        x = x.wrapping_mul(0x9FB2_1C65_1E98_DF25) & M62;
        x ^= x >> 29;
        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93) & M62;
        x ^ (x >> 32)
    }

    /// The resident (odd) key of `index`.
    pub fn resident(&self, index: u64) -> u64 {
        self.scramble(index) << 1 | 1
    }

    /// The absent (even) key of `index`.
    pub fn absent(&self, index: u64) -> u64 {
        self.scramble(index) << 1
    }
}

/// Whether the oracle expects `key` to be found, provided it is live.
pub fn is_resident(key: u64) -> bool {
    key & 1 == 1
}

/// The value every workload stores under `key` at its `version`-th
/// write, so an answer is checkable from the key alone.
pub fn value_of(key: u64, version: u32) -> u64 {
    fmix64(key ^ (version as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// A probe stream with exactly `hit_pct` percent hits in every aligned
/// block of 100 keys, at random positions within the block. A hit is
/// the resident key of a uniform index in the live range given with
/// each call; a miss is the absent key of a uniform index. The block
/// carries over between calls, so the ratio is exact over the whole
/// stream however it is cut into batches.
pub struct ProbeGen {
    rng: SplitMix64,
    space: KeySpace,
    hit_pct: u32,
    block: [bool; 100],
    pos: usize,
}

impl ProbeGen {
    pub fn new(rng: SplitMix64, space: KeySpace, hit_pct: u32) -> Self {
        assert!(hit_pct <= 100);
        Self { rng, space, hit_pct, block: [false; 100], pos: 100 }
    }

    /// Draw the next probe: whether it is a hit, and its index — in
    /// `live` for a hit, anywhere below `2^40` for a miss.
    pub fn draw(&mut self, live: std::ops::Range<u64>) -> (bool, u64) {
        assert!(live.start < live.end);
        if self.pos == 100 {
            for (i, b) in self.block.iter_mut().enumerate() {
                *b = (i as u32) < self.hit_pct;
            }
            for i in (1..100).rev() {
                self.block.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
            self.pos = 0;
        }
        let hit = self.block[self.pos];
        self.pos += 1;
        let index = if hit {
            live.start + self.rng.below(live.end - live.start)
        } else {
            self.rng.below(1 << 40)
        };
        (hit, index)
    }

    /// The key of a draw.
    pub fn key(&self, (hit, index): (bool, u64)) -> u64 {
        if hit {
            self.space.resident(index)
        } else {
            self.space.absent(index)
        }
    }

    /// Append `len` keys to `out`; hits fall in `live`. Returns the
    /// number of hits appended.
    pub fn fill(&mut self, live: std::ops::Range<u64>, out: &mut Vec<u64>, len: usize) -> usize {
        let mut hits = 0;
        for _ in 0..len {
            let probe = self.draw(live.clone());
            hits += probe.0 as usize;
            out.push(self.key(probe));
        }
        hits
    }
}

/// Order-sensitive digest of an input stream: two runs that print the
/// same digest saw the same inputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Digest(u64);

impl Digest {
    pub fn add(&mut self, x: u64) {
        self.0 = fmix64(self.0 ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }

    pub fn add_all(&mut self, xs: &[u64]) {
        for &x in xs {
            self.add(x);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let mut a = SplitMix64::for_stream(7, 1, 0);
        let mut b = SplitMix64::for_stream(7, 1, 0);
        let mut c = SplitMix64::for_stream(7, 2, 0);
        let mut d = SplitMix64::for_stream(7, 1, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| d.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs of the reference splitmix64 seeded with 0.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn key_space_is_injective_and_parity_separates_sides() {
        let space = KeySpace::new(3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..50_000u64 {
            let (r, a) = (space.resident(i), space.absent(i));
            assert!(is_resident(r) && !is_resident(a));
            assert!(r < 1 << 63);
            assert!(seen.insert(r) && seen.insert(a));
        }
        assert_ne!(KeySpace::new(4).resident(0), space.resident(0));
    }

    #[test]
    fn probe_hit_ratio_is_exact_per_block_however_the_stream_is_cut() {
        let space = KeySpace::new(1);
        for pct in [0, 50, 90, 100] {
            let mut gen = ProbeGen::new(SplitMix64::new(9), space, pct);
            let mut out = Vec::new();
            let mut hits = 0;
            for _ in 0..10 {
                hits += gen.fill(10..1000, &mut out, 70);
                hits += gen.fill(10..1000, &mut out, 30);
            }
            assert_eq!(out.len(), 1000);
            assert_eq!(hits, 10 * pct as usize);
            for block in out.chunks(100) {
                assert_eq!(block.iter().filter(|&&k| is_resident(k)).count(), pct as usize);
            }
        }
    }

    #[test]
    fn probe_hits_stay_in_the_live_range() {
        let space = KeySpace::new(5);
        let live: std::collections::HashSet<u64> = (100..200).map(|i| space.resident(i)).collect();
        let mut out = Vec::new();
        ProbeGen::new(SplitMix64::new(2), space, 100).fill(100..200, &mut out, 250);
        assert_eq!(out.len(), 250);
        assert!(out.iter().all(|k| live.contains(k)));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add_all(&[1, 2, 3]);
        b.add_all(&[1, 3, 2]);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.add_all(&[1, 2, 3]);
        assert_eq!(a.value(), c.value());
    }
}
