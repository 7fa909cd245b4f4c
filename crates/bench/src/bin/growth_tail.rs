//! Latency tails of growing tables: stop-the-world vs incremental rehash.
//!
//! ```text
//! cargo run --release -p bench --bin growth_tail -- --scale default
//! ```
//!
//! The paper's §6 read-write experiment reports *mean* throughput of
//! growing tables — a lens that cannot see the growth stalls at all: one
//! stop-the-world rehash of millions of entries moves a 10⁶-op mean by a
//! rounding error while stalling one unlucky insert for tens of
//! milliseconds. This binary runs the same growing RW stream (update-heavy
//! so the table doubles several times, sized so the final generation is
//! out of cache) under [`GrowthPolicy::AllAtOnce`] and
//! [`GrowthPolicy::Incremental`] and reports what the mean hides:
//!
//! * **growth-phase insert latency** (p50/p99/max): inserts that paid for
//!   growth — the rehash-triggering insert under AllAtOnce, every insert
//!   executed while a migration was in flight under Incremental;
//! * **all-insert latency** (p99/max): the tail of the whole stream;
//! * **throughput**: total ops over wall clock — the cost of draining a
//!   bounded number of old-generation entries per operation, which should
//!   stay within a few percent of the stop-the-world run.
//!
//! Per-op latencies are recorded with [`metrics::LatencyHistogram`]
//! (log-linear buckets, ≤ 12.5% error). The stream executes through the
//! single-key API: per-op latency needs per-op boundaries.
//!
//! A stream's "growth max" under AllAtOnce is one sample, its last
//! doubling, and swings from run to run. Beside it each scheme reports
//! the **median doubling pause**: [`PAUSES`] fresh tables of that
//! doubling's size, each filled to its threshold and timed over the one
//! insert that doubles it.

use bench::{emit, grid_builder, parse_args};
use hashfn::Murmur;
use metrics::{LatencyHistogram, ReportTable, Series, Throughput};
use sevendim_core::{
    DynamicTable, GrowthPolicy, HashKind, HashTable, InsertOutcome, TableBuilder, TableScheme,
};
use std::time::Instant;
use workloads::{
    rw::{run_chunk_instrumented, RwStream},
    RwConfig,
};

const GROW_THRESHOLD: f64 = 0.7;

/// Policies compared: the paper's stop-the-world model and two drain
/// rates (a small step bounds each op tightly; a larger one amortizes
/// the per-op bookkeeping better).
const POLICIES: [(&str, GrowthPolicy); 3] = [
    ("AllAtOnce", GrowthPolicy::AllAtOnce),
    ("Incr(step=8)", GrowthPolicy::Incremental { step: 8 }),
    ("Incr(step=64)", GrowthPolicy::Incremental { step: 64 }),
];

/// Compared under Mult.
const SCHEMES: [TableScheme; 2] = [TableScheme::LinearProbing, TableScheme::RobinHood];

struct CellOut {
    growth: LatencyHistogram,
    all_inserts: LatencyHistogram,
    mops: f64,
    rehashes: usize,
    final_capacity: usize,
}

/// Run one growing RW stream through
/// [`run_chunk_instrumented`], classifying each insert as growth-phase
/// when a rehash fired during it or a migration is in flight after it.
fn run_cell(factory: TableBuilder, policy: GrowthPolicy, cfg: RwConfig) -> CellOut {
    // Initial size: smallest power of two keeping the initial load under
    // the growth threshold (the rule `rw_cell` uses).
    let mut bits = 10u8;
    while (cfg.initial_keys as f64) > GROW_THRESHOLD * (1u64 << bits) as f64 {
        bits += 1;
    }
    let mut table =
        DynamicTable::with_policy(factory, bits, cfg.seed ^ 0xD14_7AB1E, GROW_THRESHOLD, policy);
    let mut stream = RwStream::new(cfg);
    for k in stream.initial_keys() {
        table.insert(k, k).expect("prepopulation failed");
    }
    let mut growth = LatencyHistogram::new();
    let mut all_inserts = LatencyHistogram::new();
    let mut last_rehashes = table.rehash_count();
    let mut total: Option<Throughput> = None;
    const CHUNK: usize = 1 << 13;
    while let Some(chunk) = stream.next_chunk(CHUNK) {
        let t = run_chunk_instrumented(&mut table, &chunk, |table, nanos| {
            all_inserts.record(nanos);
            if table.is_migrating() || table.rehash_count() != last_rehashes {
                growth.record(nanos);
            }
            last_rehashes = table.rehash_count();
        })
        .expect("RW stream failed");
        total = Some(match total {
            None => t,
            Some(acc) => acc.merge(&t),
        });
    }
    CellOut {
        growth,
        all_inserts,
        mops: total.map(|t| t.m_ops_per_sec()).unwrap_or(0.0),
        rehashes: table.rehash_count(),
        final_capacity: table.capacity(),
    }
}

/// Stop-the-world doublings timed per scheme for the median pause.
const PAUSES: u64 = 12;

/// The median, in nanoseconds, of [`PAUSES`] stop-the-world doublings of
/// a `2^bits`-slot table: each a fresh table (and seed) filled just under
/// its growth threshold in one batch, then timed per single-key insert
/// until one doubles it.
fn median_doubling_pause(factory: &TableBuilder, bits: u8) -> u64 {
    let below = (GROW_THRESHOLD * (1u64 << bits) as f64) as u64 - 1;
    let fill: Vec<(u64, u64)> = (1..below).map(|i| (Murmur::fmix64(i), i)).collect();
    let mut out = vec![Ok(InsertOutcome::Inserted); fill.len()];
    let mut pauses: Vec<u64> = (0..PAUSES)
        .map(|rep| {
            let mut table = DynamicTable::new(factory.clone(), bits, 0x9A05E ^ rep, GROW_THRESHOLD);
            table.insert_batch(&fill, &mut out);
            assert_eq!(table.rehash_count(), 0, "the fill must stay under the threshold");
            (below..)
                .find_map(|i| {
                    let t0 = Instant::now();
                    table.insert(Murmur::fmix64(i), i).expect("insert");
                    (table.rehash_count() == 1).then(|| t0.elapsed().as_nanos() as u64)
                })
                .expect("the threshold is reached")
        })
        .collect();
    pauses.sort_unstable();
    pauses[pauses.len() / 2]
}

fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

fn main() {
    let args = parse_args(std::env::args());
    let cfg = RwConfig {
        initial_keys: args.scale.rw_initial_keys(),
        operations: args.op_count(),
        // Update-heavy (inserts:deletes = 4:1, no lookups): the stream
        // that actually grows the table.
        update_pct: 100,
        seed: 0x9077,
    };
    println!(
        "Growth-tail comparison — RW stream of {} ops over {} initial keys, \
         growing at {:.0}% (threshold), 100% updates\n",
        cfg.operations,
        cfg.initial_keys,
        GROW_THRESHOLD * 100.0
    );

    let ticks: Vec<String> = ["growth p50", "growth p99", "growth max", "all p99", "all max"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for scheme in SCHEMES {
        let factory = grid_builder(scheme, HashKind::Mult);
        let mut panel = ReportTable::new(
            format!("growth_tail — {} insert latency", factory.label()),
            "policy",
            ticks.clone(),
            "µs",
        );
        let mut tp = ReportTable::new(
            format!("growth_tail — {} stream throughput", factory.label()),
            "policy",
            vec!["M ops/s".into(), "rehashes".into(), "final slots".into()],
            "mixed",
        );
        let mut headline: Vec<(String, u64, f64)> = Vec::new();
        let mut last_doubling = 0;
        for &(name, policy) in &POLICIES {
            let out = run_cell(factory.clone(), policy, cfg);
            if policy == GrowthPolicy::AllAtOnce {
                // The stream's last doubling ends at its final capacity.
                last_doubling = out.final_capacity.trailing_zeros() as u8 - 1;
            }
            panel.push(Series::new(
                name,
                vec![
                    Some(micros(out.growth.p50())),
                    Some(micros(out.growth.p99())),
                    Some(micros(out.growth.max_nanos())),
                    Some(micros(out.all_inserts.p99())),
                    Some(micros(out.all_inserts.max_nanos())),
                ],
            ));
            tp.push(Series::new(
                name,
                vec![Some(out.mops), Some(out.rehashes as f64), Some(out.final_capacity as f64)],
            ));
            headline.push((name.to_string(), out.growth.p99(), out.mops));
        }
        emit(&panel, args.csv);
        emit(&tp, args.csv);
        // The acceptance numbers: growth-phase p99 ratio and throughput
        // ratio of each incremental policy against stop-the-world.
        let (_, aao_p99, aao_mops) = headline[0].clone();
        for (name, p99, mops) in headline.iter().skip(1) {
            let ratio = if *p99 > 0 { aao_p99 as f64 / *p99 as f64 } else { f64::INFINITY };
            println!(
                "{}: growth-phase p99 {:.1}x lower than AllAtOnce, throughput {:.1}% of AllAtOnce",
                name,
                ratio,
                100.0 * mops / aao_mops
            );
        }
        let pause = median_doubling_pause(&factory, last_doubling);
        println!(
            "AllAtOnce: median doubling pause {:.1} ms over {PAUSES} doublings of 2^{last_doubling} \
             slots (\"growth max\" is one)",
            pause as f64 / 1e6
        );
        println!();
    }
}
