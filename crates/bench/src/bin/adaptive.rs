//! Adaptive self-tuning table under a phase-shifting workload.
//!
//! ```text
//! cargo run --release -p bench --bin adaptive -- --scale default
//! ```
//!
//! The paper's Figure 8 decision graph picks one scheme per *workload
//! profile* — but a long-lived index does not get one profile. This
//! binary runs the canonical shift the graph cares about:
//!
//! * **Phase A (build)**: pure inserts to ~62% load — the write-heavy
//!   regime where linear probing's cheap inserts win;
//! * **Phase B (probe)**: ~98.4% negative lookups + ~1.6% updates — the
//!   static miss-heavy mid-load band where Fig. 8 answers *fingerprint
//!   probing* (LP's miss probes must scan to the end of a run; FP
//!   rejects a 16-slot group per SIMD tag compare).
//!
//! A static table must commit to one side of that shift. The adaptive
//! table ([`DynamicTable::with_migration`] with `Some(CONTROLLER)`)
//! starts as LPMult, judges each window of its own counters (miss ratio,
//! write ratio — both deltas since the last check — and load factor),
//! re-runs the decision graph
//! online, and live-migrates to FPMult at the first check of phase B —
//! draining ≤ `step` old-generation entries per mutating op, never
//! blocking lookups. Reported per table:
//!
//! * per-phase and end-to-end throughput (single-key API: the phase
//!   boundary and per-op mutation latency need per-op boundaries);
//! * mutation latency p50/p99/max — for the adaptive table also split
//!   into *steady* and *migrating* ops, the cost of draining inline;
//! * for the adaptive table: when the switch fired and how long the
//!   drain ran (the `completed live migration` line is grepped by CI).
//!
//! Every row — static twins included — runs inside the same
//! [`DynamicTable`] wrapper, so the comparison isolates the *scheme
//! decision*, not the wrapper's bookkeeping. The drain step is chosen
//! for throughput (a short migration window: mid-migration misses must
//! probe both generations), which concentrates drain work on < 1% of
//! mutations — the whole-stream mutation p99 stays at steady state and
//! the drain cost shows up only in the max and the migrating-only
//! split. `growth_tail` covers the opposite corner (small steps, tight
//! per-op bounds). Run on one core, the adaptive end-to-end win is the
//! *area* between the LP and FP miss-probe curves minus one table's
//! worth of drain work; tiny smoke runs keep the table in cache where
//! LP misses are cheap, so the margin appears at `--scale default` and
//! above.

use bench::{emit, parse_args};
use metrics::{LatencyHistogram, ReportTable, Series, Throughput};
use sevendim_core::{
    AdaptiveConfig, DynamicTable, GrowthPolicy, HashTable, TableBuilder, TableScheme,
};
use std::time::Instant;

/// Phase B issues one update per this many ops (~3.1% writes: below the
/// controller's 5% static/dynamic boundary, enough mutating ops to tick
/// the policy and pay the drain).
const MUTATE_EVERY: usize = 32;

/// Old-generation entries drained per mutating op during a migration.
/// Coarse on purpose: at phase B's write rate a fine step would stretch
/// the double-probing migration window across most of the stream (and
/// at `--scale default` never finish). This bounds the window to < 1%
/// of mutations; the per-op latency story for small steps is
/// `growth_tail`'s.
const DRAIN_STEP: usize = 1024;

/// Build-phase target load factor: inside Fig. 8's (0.5, 0.8) band where
/// the miss-heavy static answer is fingerprint probing.
const TARGET_LOAD: f64 = 0.62;

/// The controller re-evaluates every 64 *mutating* ops = every 2048
/// stream ops at phase B's 1/32 write rate, a window of 1984 lookups —
/// above the controller's 1 Ki-lookup evidence floor, which keeps phase A
/// (zero lookups) from producing a verdict at all.
const CONTROLLER: AdaptiveConfig = AdaptiveConfig { check_every: 64, cooldown: 4096 };

/// Static twins: every scheme the decision graph could have frozen.
const STATICS: [TableScheme; 6] = [
    TableScheme::LinearProbing,
    TableScheme::Quadratic,
    TableScheme::RobinHood,
    TableScheme::Cuckoo4,
    TableScheme::Fingerprint,
    TableScheme::Chained24,
];

/// splitmix64: a bijection on u64, so present keys (`mix(i)`) and absent
/// keys (`mix(PRESENT_MAX + j)`) are distinct and disjoint by input range.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn key_at(i: u64) -> u64 {
    let mut x = i;
    loop {
        let k = mix(x);
        // 0 and u64::MAX are reserved sentinels in the open-addressing
        // tables; remix far outside the workload's input range.
        if k != 0 && k != u64::MAX {
            return k;
        }
        x = x.wrapping_add(0xF00D_0000_0000_0000);
    }
}

struct Workload {
    bits: u8,
    present: u64,
    probe_ops: usize,
}

impl Workload {
    fn from_scale(initial_keys: usize, probe_ops: usize) -> Workload {
        // Size capacity from the scale's key count, then take the key
        // count *from* the capacity so the load lands on TARGET_LOAD
        // regardless of rounding to a power of two.
        let mut bits = 10u8;
        while (initial_keys as f64) > 0.8 * (1u64 << bits) as f64 {
            bits += 1;
        }
        // Rounded down to a controller window so phase A ends exactly on
        // a check boundary: the first phase-B verdict then sees a pure
        // probe-phase window (3.1% writes → Static) instead of a stale
        // tail of build inserts tipping it over the 5% boundary.
        let present = (TARGET_LOAD * (1u64 << bits) as f64) as u64 / CONTROLLER.check_every
            * CONTROLLER.check_every;
        Workload { bits, present, probe_ops }
    }
}

struct PhaseOut {
    build: Throughput,
    probe: Throughput,
    mutations: LatencyHistogram,
}

impl PhaseOut {
    fn end_to_end_mops(&self) -> f64 {
        self.build.merge(&self.probe).m_ops_per_sec()
    }
}

/// Drive both phases through the single-key API. `on_mutation` sees the
/// table *after* each phase-B update plus that update's latency — the
/// adaptive run uses it to classify steady vs migrating ops.
fn run_phases<T: HashTable + ?Sized>(
    table: &mut T,
    w: &Workload,
    mut on_mutation: impl FnMut(&mut T, u64),
) -> PhaseOut {
    let start = Instant::now();
    for i in 0..w.present {
        table.insert(key_at(i), i).expect("build phase insert failed");
    }
    let build = Throughput::new(w.present, start.elapsed());

    let mut mutations = LatencyHistogram::new();
    let mut hits = 0u64;
    let start = Instant::now();
    for op in 0..w.probe_ops {
        if op % MUTATE_EVERY == MUTATE_EVERY - 1 {
            let i = (op / MUTATE_EVERY) as u64 % w.present;
            let t0 = Instant::now();
            table.insert(key_at(i), op as u64).expect("probe phase update failed");
            let nanos = t0.elapsed().as_nanos() as u64;
            mutations.record(nanos);
            on_mutation(table, nanos);
        } else {
            // Negative probe: inputs beyond the present range stay
            // absent (splitmix64 is a bijection).
            hits += table.lookup(key_at(w.present + op as u64)).is_some() as u64;
        }
    }
    assert_eq!(hits, 0, "absent-key stream produced hits");
    PhaseOut { build, probe: Throughput::new(w.probe_ops as u64, start.elapsed()), mutations }
}

struct AdaptiveDetail {
    switch_at_op: Option<usize>,
    drain_done_at_op: Option<usize>,
    drain_done_at: Option<Instant>,
    steady: LatencyHistogram,
    migrating: LatencyHistogram,
    from_to: Option<(String, String)>,
}

fn run_adaptive(w: &Workload) -> (PhaseOut, AdaptiveDetail) {
    let factory = TableBuilder::new(TableScheme::LinearProbing);
    let mut table = DynamicTable::with_migration(
        factory,
        w.bits,
        0xADA9_71FE,
        0.9, // growth is not this bench's story; the switch keeps the same bits
        GrowthPolicy::Incremental { step: DRAIN_STEP },
        Some(CONTROLLER),
    );
    let source = table.inner().display_name();
    let mut detail = AdaptiveDetail {
        switch_at_op: None,
        drain_done_at_op: None,
        drain_done_at: None,
        steady: LatencyHistogram::new(),
        migrating: LatencyHistogram::new(),
        from_to: None,
    };
    let mut mutation_no = 0usize;
    let out = run_phases(&mut table, w, |t, nanos| {
        mutation_no += 1;
        let op = mutation_no * MUTATE_EVERY; // stream position of this update
        if t.scheme_switches() > 0 && detail.switch_at_op.is_none() {
            detail.switch_at_op = Some(op);
        }
        if detail.switch_at_op.is_some() && detail.drain_done_at_op.is_none() {
            detail.migrating.record(nanos);
            if !t.is_migrating() {
                detail.drain_done_at_op = Some(op);
                detail.drain_done_at = Some(Instant::now());
            }
        } else {
            detail.steady.record(nanos);
        }
    });
    if table.scheme_switches() > 0 {
        detail.from_to = Some((source, table.inner().display_name()));
    }
    (out, detail)
}

fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

fn main() {
    let args = parse_args(std::env::args());
    let w = Workload::from_scale(args.scale.rw_initial_keys(), args.op_count());
    println!(
        "Adaptive migration — build {} keys into 2^{} slots ({:.0}% load), then {} probe ops \
         ({:.1}% negative lookups, {:.1}% updates)\n",
        w.present,
        w.bits,
        100.0 * w.present as f64 / (1u64 << w.bits) as f64,
        w.probe_ops,
        100.0 * (MUTATE_EVERY - 1) as f64 / MUTATE_EVERY as f64,
        100.0 / MUTATE_EVERY as f64,
    );

    let ticks: Vec<String> =
        ["build M/s", "probe M/s", "total M/s", "mut p50 µs", "mut p99 µs", "mut max µs"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let mut panel = ReportTable::new("adaptive — phase-shift workload", "table", ticks, "mixed");
    let row = |label: &str, out: &PhaseOut| {
        Series::new(
            label,
            vec![
                Some(out.build.m_ops_per_sec()),
                Some(out.probe.m_ops_per_sec()),
                Some(out.end_to_end_mops()),
                Some(micros(out.mutations.p50())),
                Some(micros(out.mutations.p99())),
                Some(micros(out.mutations.max_nanos())),
            ],
        )
    };

    let (adaptive_out, detail) = run_adaptive(&w);
    // run_phases has just returned: "now" is the probe phase's end to
    // within microseconds, good enough for the tail-throughput split.
    let probe_end = Instant::now();
    let adaptive_label = match &detail.from_to {
        Some((from, to)) => format!("Adaptive({from}->{to})"),
        None => "Adaptive(no switch)".to_string(),
    };
    panel.push(row(&adaptive_label, &adaptive_out));

    let mut static_rows: Vec<(String, f64)> = Vec::new();
    for scheme in STATICS {
        // Same wrapper (growth threshold far above the workload's load),
        // so the static rows pay the identical per-op bookkeeping.
        let builder = TableBuilder::new(scheme)
            .bits(w.bits)
            .seed(0xADA9_71FE)
            .simd(scheme == TableScheme::Fingerprint)
            .grow_at(0.9)
            .incremental(DRAIN_STEP);
        let mut table = match builder.try_build() {
            Ok(t) => t,
            Err(e) => {
                println!("{}: skipped ({e})", scheme.name());
                continue;
            }
        };
        let out = run_phases(table.as_mut(), &w, |_, _| {});
        panel.push(row(&format!("{}Mult", scheme.name()), &out));
        static_rows.push((format!("{}Mult", scheme.name()), out.end_to_end_mops()));
    }
    emit(&panel, args.csv);

    // The acceptance lines: did a live migration complete, what did the
    // drain cost, and does the adaptive table beat every static twin
    // end-to-end?
    match (&detail.from_to, detail.switch_at_op) {
        (Some((from, to)), Some(at)) => {
            let drained = match detail.drain_done_at_op {
                Some(done) => format!("drain finished {} ops later", done - at),
                None => "drain still in flight at stream end".to_string(),
            };
            println!(
                "adaptive: completed live migration {from} -> {to} at probe op {at} ({drained})"
            );
            let steady_p99 = detail.steady.p99().max(1);
            println!(
                "adaptive: whole-stream mutation p99 {:.2} µs = {:.1}x steady-state p99 \
                 (drain-bearing ops: {:.2} µs p99, {} of {} mutations)",
                micros(adaptive_out.mutations.p99()),
                adaptive_out.mutations.p99() as f64 / steady_p99 as f64,
                micros(detail.migrating.p99()),
                detail.migrating.count(),
                adaptive_out.mutations.count(),
            );
            if let (Some(done), Some(done_at)) = (detail.drain_done_at_op, detail.drain_done_at) {
                let tail_ops = (w.probe_ops - done) as u64;
                let tail = Throughput::new(tail_ops, probe_end.duration_since(done_at));
                println!(
                    "adaptive: post-drain tail {:.2} M ops/s over the last {} ops \
                     (convergence to the static target)",
                    tail.m_ops_per_sec(),
                    tail_ops
                );
            }
        }
        _ => println!("adaptive: no migration triggered (stream too short for the controller)"),
    }
    let total = adaptive_out.end_to_end_mops();
    for (name, mops) in &static_rows {
        println!("adaptive vs {name}: {:.1}% end-to-end", 100.0 * total / mops);
    }
}
