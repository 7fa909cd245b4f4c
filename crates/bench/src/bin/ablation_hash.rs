//! Ablation: what one hash costs, per function class (§3, §4.4).
//!
//! The paper counts instructions: Mult is one multiply and one shift;
//! Murmur's finalizer two multiplies plus xors and shifts; MultAdd without
//! native 128-bit arithmetic "two multiplications, six additions, plus
//! logical ANDs and shifts"; tabulation eight table loads. Its speed
//! ranking is Mult < Murmur < MultAdd64 ≲ Tab. `MultAdd` is the same
//! function over native `u128`, which the paper's machine lacked.
//!
//! Each function hashes the same sparse keys, folded to a `2^bits` bucket
//! index the way a table would use them. The key array has the small
//! capacity's length, so it stays in cache and the time is the function's;
//! the stream cycles over it until `--probes` hashes have been taken.

use bench::parse_args;
use hashfn::{
    fold_to_bits, HashFamily, MultAddShift, MultAddShift64, MultShift, Murmur, Tabulation,
};
use metrics::Throughput;
use std::hint::black_box;
use workloads::Distribution;

fn main() {
    let args = parse_args(std::env::args());
    let (small, _, _) = args.scale.capacity_bits();
    let bits = args.log2_capacity.unwrap_or(small);
    let seeds = args.seed_list();
    let hashes = args.probe_count();
    println!("Hash-function cost — {hashes} hashes over 2^{bits} sparse keys\n");
    println!("{:<10} {:>14} {:>10}", "function", "M hashes/s", "ns/hash");
    row::<MultShift>(bits, hashes, &seeds);
    row::<Murmur>(bits, hashes, &seeds);
    row::<MultAddShift>(bits, hashes, &seeds);
    row::<MultAddShift64>(bits, hashes, &seeds);
    row::<Tabulation>(bits, hashes, &seeds);
    println!(
        "\nPaper's ranking (§4.4): Mult < Murmur < MultAdd64 ≲ Tab in ns/hash. \
         Native-u128 MultAdd has no counterpart there; where a widening \
         multiply is one instruction it can undercut Murmur."
    );
}

fn row<H: HashFamily>(bits: u8, hashes: usize, seeds: &[u64]) {
    let mut total = Throughput { ops: 0, nanos: 0 };
    for &seed in seeds {
        let keys = Distribution::Sparse.generate(1 << bits, seed);
        let h = H::from_seed(seed);
        let tp = Throughput::measure(hashes as u64, || {
            let mut acc = 0usize;
            for &k in keys.iter().cycle().take(hashes) {
                acc ^= fold_to_bits(h.hash(black_box(k)), bits);
            }
            black_box(acc);
        });
        total = total.merge(&tp);
    }
    let mops = total.m_ops_per_sec();
    println!("{:<10} {:>14.1} {:>10.2}", H::name(), mops, 1e3 / mops);
}
