//! Ablation: what Robin Hood's tuning actually buys (§2.4, §5.2).
//!
//! Three claims to verify against plain LP with identical contents:
//!
//! 1. total displacement is unchanged, but variance and maximum shrink;
//! 2. successful lookups pay a small penalty (paper: "often within
//!    1–5%");
//! 3. unsuccessful lookups at high load factors improve substantially
//!    (paper: "up to more than a factor 4");
//! 4. the *rejected* abort criteria of §2.4 — the `dmax` bound and the
//!    checked-every-probe variant — underperform the tuned cache-line
//!    check, reproducing why the paper discarded them. The library keeps
//!    only the tuned criterion; the two rejected ones are local functions
//!    here, over the table's slots and displacements.

use bench::{parse_args, worm_cell_with};
use hashfn::MultShift;
use sevendim_core::{home_slot, HashTable, LinearProbing, RobinHood};
use workloads::{Distribution, WormConfig};

type Rh = RobinHood<MultShift>;

/// Rejected criterion: stop an unsuccessful probe after `dmax` steps — no
/// entry sits further from its home slot. The paper found `dmax` "often
/// still too high to obtain significant improvements over LP".
fn lookup_dmax_bound(t: &Rh, dmax: usize, key: u64) -> Option<u64> {
    let slots = t.raw_slots();
    let mask = slots.len() - 1;
    let mut pos = home_slot(t.hash_fn(), key, mask.count_ones() as u8);
    for _ in 0..=dmax {
        let slot = slots[pos];
        if slot.key == key {
            return Some(slot.value);
        }
        if slot.is_empty() {
            return None;
        }
        pos = (pos + 1) & mask;
    }
    None
}

/// Rejected criterion: compare the probe's displacement with the
/// resident's on **every** step. The tightest abort (the one
/// `lookup_probed` counts), but a hash recomputation per probed slot —
/// "prohibitively expensive w.r.t. runtime and inferior to plain LP in
/// most scenarios".
fn lookup_checked(t: &Rh, key: u64) -> Option<u64> {
    let slots = t.raw_slots();
    let mask = slots.len() - 1;
    let mut pos = home_slot(t.hash_fn(), key, mask.count_ones() as u8);
    let mut dist = 0usize;
    loop {
        let slot = slots[pos];
        if slot.key == key {
            return Some(slot.value);
        }
        if slot.is_empty() || t.displacement_at(pos) < dist {
            return None;
        }
        pos = (pos + 1) & mask;
        dist += 1;
    }
}

/// One row of claim 4 over a table that maps each of `sets.inserts` to
/// itself: `lookup` must find every inserted key and miss every absent one
/// (so all three criteria agree on both streams); the row is the miss
/// stream's throughput.
fn criterion_row(name: &str, sets: &workloads::KeySets, lookup: impl Fn(u64) -> Option<u64>) {
    for &k in &sets.inserts {
        assert_eq!(lookup(k), Some(k), "{name}: hit stream, key {k}");
    }
    let mut hits = 0u64;
    let t = metrics::Throughput::measure(sets.misses.len() as u64, || {
        for &k in &sets.misses {
            if lookup(k).is_some() {
                hits += 1;
            }
        }
    });
    assert_eq!(hits, 0, "{name}: miss stream must not hit");
    println!("  {name:<32} {:>10.2} M lookups/s", t.m_ops_per_sec());
}

fn main() {
    let args = parse_args(std::env::args());
    let (_, medium, _) = args.scale.capacity_bits();
    let bits = args.log2_capacity.unwrap_or(medium);
    let seeds = args.seed_list();

    println!("Robin Hood ablation — capacity 2^{bits}, sparse keys\n");

    // Claim 1: displacement statistics at 90% load.
    let keys = Distribution::Sparse.generate(((1usize << bits) as f64 * 0.9) as usize, 7);
    let mut lp: LinearProbing<MultShift> = LinearProbing::with_seed(bits, 3);
    let mut rh: RobinHood<MultShift> = RobinHood::with_seed(bits, 3);
    for &k in &keys {
        lp.insert(k, k).unwrap();
        rh.insert(k, k).unwrap();
    }
    let sl = lp.displacement_stats();
    let sr = rh.displacement_stats();
    println!("displacement @90% load   {:>12} {:>12}", "LPMult", "RHMult");
    println!("  total                  {:>12} {:>12}", sl.total, sr.total);
    println!("  mean                   {:>12.2} {:>12.2}", sl.mean, sr.mean);
    println!("  max                    {:>12} {:>12}", sl.max, sr.max);
    println!("  variance               {:>12.1} {:>12.1}", sl.variance, sr.variance);
    assert_eq!(sl.total, sr.total, "RH must preserve total displacement");
    println!();

    // Claims 2 & 3: lookup throughput across load factors and miss rates.
    println!(
        "{:<6} {:<14} {:>12} {:>12} {:>10}",
        "lf%", "unsuccessful%", "LPMult", "RHMult", "RH/LP"
    );
    for &lf in &[0.5, 0.7, 0.9] {
        let cfg = WormConfig {
            capacity_bits: bits,
            load_factor: lf,
            dist: Distribution::Sparse,
            probes: args.probe_count(),
            seed: 0,
        };
        let lp_out = worm_cell_with(
            |s| Ok::<_, sevendim_core::TableError>(LinearProbing::<MultShift>::with_seed(bits, s)),
            &cfg,
            &seeds,
        );
        let rh_out = worm_cell_with(
            |s| Ok::<_, sevendim_core::TableError>(RobinHood::<MultShift>::with_seed(bits, s)),
            &cfg,
            &seeds,
        );
        for (i, &(pct, lp_v)) in lp_out.lookup_mops.iter().enumerate() {
            let (_, rh_v) = rh_out.lookup_mops[i];
            let (lp_v, rh_v) = (lp_v.unwrap(), rh_v.unwrap());
            println!(
                "{:<6.0} {:<14} {:>12.2} {:>12.2} {:>9.2}x",
                lf * 100.0,
                pct,
                lp_v,
                rh_v,
                rh_v / lp_v
            );
        }
    }
    println!(
        "\nExpected pattern (paper): RH ≈ LP at 0% unsuccessful (small penalty), \
         RH pulls ahead as load factor and miss rate grow — up to >4× at 90%/100%."
    );

    // Claim 4: the rejected abort criteria, measured head-to-head on
    // all-unsuccessful probes at 90% load.
    println!("\nabort-criterion ablation — 100% unsuccessful lookups @90% load:");
    let n = ((1usize << bits) as f64 * 0.9) as usize;
    let sets = workloads::Distribution::Sparse.generate_with_misses(n, args.probe_count(), 13);
    let mut rh: RobinHood<MultShift> = RobinHood::with_seed(bits, 5);
    for &k in &sets.inserts {
        rh.insert(k, k).unwrap();
    }
    // The table only ever grew, and a Robin Hood insert never moves an
    // entry closer to its home slot, so the largest displacement now is the
    // largest any entry ever had: the monotone bound the criterion tracks.
    let stats = rh.displacement_stats();
    let dmax = stats.max;
    // The paper's footnote: at high load dmax "can often be an order of
    // magnitude higher than the average displacement" (a core test,
    // `dmax_often_far_above_mean_at_high_load`, asserts it at 2^12).
    println!("  table dmax = {dmax}, mean displacement = {:.1}", stats.mean);
    criterion_row("tuned (cache-line check)", &sets, |k| rh.lookup(k));
    criterion_row("dmax bound (rejected)", &sets, |k| lookup_dmax_bound(&rh, dmax, k));
    criterion_row("checked every probe (rejected)", &sets, |k| lookup_checked(&rh, k));
    println!(
        "  (paper §2.4: dmax is 'often still too high'; per-probe checks are \
         'prohibitively expensive'; the cache-line check wins.)"
    );
}
