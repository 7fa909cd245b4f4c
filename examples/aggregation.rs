//! Hash aggregation — GROUP BY over the study's tables (paper §1, §4).
//!
//! ```text
//! cargo run --release --example aggregation [n_rows] [n_groups]
//! ```
//!
//! Computes `SELECT region, SUM(amount), MIN(amount), MAX(amount),
//! COUNT(*), AVG(amount) FROM sales GROUP BY region` with a hash table as
//! the aggregation state, then cross-checks every aggregate against a
//! scalar re-computation. The SUM is then timed into four state tables —
//! bare, growing, growing incrementally, and sharded — one
//! `state <label> <ns/row>` row each.

use seven_dim_hashing::prelude::*;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_rows: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000_000);
    let n_groups: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);

    // Synthetic sales: group keys are dense region ids (the paper's dense
    // distribution — exactly what GROUP BY on a dictionary-encoded column
    // produces), values are amounts.
    let rows: Vec<(u64, u64)> = (0..n_rows as u64)
        .map(|i| {
            let region = Murmur::fmix64(i) % n_groups + 1;
            let amount = (i * 37) % 10_000;
            (region, amount)
        })
        .collect();

    let mut bits = 1u8;
    while (1usize << bits) < (n_groups as usize) * 2 {
        bits += 1;
    }
    println!("{n_rows} rows into {n_groups} groups, state table 2^{bits} slots\n");

    println!("{:<14} {:>10} {:>14}", "aggregate", "groups", "M rows/s");
    for agg in [AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count] {
        let mut state: LinearProbing<MultShift> = LinearProbing::with_seed(bits, 7);
        let t0 = Instant::now();
        let result = group_aggregate(&mut state, &rows, agg).expect("aggregate");
        let dt = t0.elapsed();
        verify(&rows, &result, agg);
        println!(
            "{:<14} {:>10} {:>14.1}",
            format!("{agg:?}"),
            result.len(),
            n_rows as f64 / dt.as_secs_f64() / 1e6
        );
    }

    // AVERAGE is algebraic: SUM/COUNT over two state tables.
    let mut sums: RobinHood<MultShift> = RobinHood::with_seed(bits, 8);
    let mut counts: RobinHood<MultShift> = RobinHood::with_seed(bits, 9);
    let t0 = Instant::now();
    let avgs = group_average(&mut sums, &mut counts, &rows).expect("average");
    let dt = t0.elapsed();
    println!("{:<14} {:>10} {:>14.1}", "Avg", avgs.len(), n_rows as f64 / dt.as_secs_f64() / 1e6);
    let (k, v) = avgs.iter().find(|(k, _)| *k == 1).expect("group 1 exists");
    println!("\nspot check: AVG(amount) for region {k} = {v:.2}");

    // The same SUM into the state tables an aggregation of unknown
    // cardinality reaches for (LP, Mult): bare; growing, at a size where
    // it never has to; growing incrementally from 64x smaller; and
    // growing incrementally over four shards. Every wrapper writes each
    // row through its inner tables' `upsert_batch`, one probe per row.
    let lp = || TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Mult).seed(7);
    let small = bits.saturating_sub(6).max(4);
    let states = [
        ("bare", lp().bits(bits)),
        ("grow_at(0.7)", lp().bits(bits).grow_at(0.7)),
        ("grow_at(0.7).incremental(64)", lp().bits(small).grow_at(0.7).incremental(64)),
        (
            "grow_at(0.7).incremental(64).shards(2)",
            lp().bits(bits).grow_at(0.7).incremental(64).shards(2),
        ),
    ];
    println!("\n{:<44} {:>8}", "SUM state table", "ns/row");
    for (label, builder) in states {
        let mut state = builder.build();
        let t0 = Instant::now();
        let result = group_aggregate(&mut state, &rows, AggFn::Sum).expect("aggregate");
        let dt = t0.elapsed();
        verify(&rows, &result, AggFn::Sum);
        println!("state {label:<38} {:>8.1}", dt.as_secs_f64() * 1e9 / n_rows as f64);
    }
}

fn verify(rows: &[(u64, u64)], result: &[(u64, u64)], agg: AggFn) {
    use std::collections::HashMap;
    let mut expect: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in rows {
        expect
            .entry(k)
            .and_modify(|acc| {
                *acc = match agg {
                    AggFn::Sum => acc.wrapping_add(v),
                    AggFn::Min => (*acc).min(v),
                    AggFn::Max => (*acc).max(v),
                    AggFn::Count => *acc + 1,
                }
            })
            .or_insert(match agg {
                AggFn::Count => 1,
                _ => v,
            });
    }
    assert_eq!(result.len(), expect.len(), "{agg:?}: group count");
    for &(k, v) in result {
        assert_eq!(expect.get(&k), Some(&v), "{agg:?}: group {k}");
    }
}
