//! `mem_worm`: the paper's write-once-read-many workload and its
//! implications on query processing, in-process on one thread.
//!
//! The stack is pre-sized far above the 4 MiB L2, so memory-level
//! parallelism shows. Build the resident set 256 keys a call, probe it in
//! 256-key batches at 100 %, 50 % and 0 % hits, then join R with S and
//! aggregate S, each on a fresh linear-probing table. `net` and `durable`
//! do nothing here but the closing persist-and-recover pass.

use super::{Rep, Shape};
use crate::common::*;
use crate::gen::{value_of, Digest, KeySpace, ProbeGen, SplitMix64};
use crate::stats::percentile;
use crate::tails::{durable_pass, query_pass, QueryInput};
use crate::trace::Tracer;
use sevendim_core::{ConcurrentTable, InsertOutcome};
use std::time::Instant;

/// Keys per table call.
pub const BATCH: usize = 256;

/// Full-scale sizes. The issue sized this workload at 2^24 slots, 10 M
/// resident keys and 3 x 16 M probes; the contract's time cap (92 runs
/// in under an hour) leaves 2^22 slots, 2.5 M keys and 3 x 1 M probes
/// per repetition: 64 MiB, still 16 times the L2.
pub fn shape(scale: Scale) -> Shape {
    Shape {
        bits: scale.bits(22),
        resident: scale.of(2_500_000, BATCH),
        reads: scale.of(1_048_576, BATCH),
        batch: BATCH,
        // 1 M rows into 262 144 groups: an 8 MiB state table, twice the L2.
        rows_per_group: 4,
    }
}

/// Entries the persist-and-recover pass logs.
fn logged(scale: Scale, resident: usize) -> usize {
    resident.min(scale.of(524_288, BATCH))
}

const HIT_PCTS: [u32; 3] = [100, 50, 0];

pub fn rep(cfg: &RunCfg, rep: u64, tr: &mut Tracer, ck: &mut Checker) -> Rep {
    let sh = shape(cfg.scale);
    let (n_insert, n_lookup) =
        (tr.name("core.sharded.insert_batch_shared"), tr.name("core.sharded.lookup_batch_shared"));

    // Set-up: inputs from the seed, the empty pre-sized stack.
    let t_setup = Instant::now();
    let space = KeySpace::new(SplitMix64::for_stream(cfg.seed, 1, rep).next_u64());
    let r: Vec<(u64, u64)> =
        (0..sh.resident as u64).map(|i| space.resident(i)).map(|k| (k, value_of(k, 0))).collect();
    let mut digest = Digest::default();
    r.iter().for_each(|&(k, _)| digest.add(k));
    let probes: Vec<Vec<u64>> = HIT_PCTS
        .iter()
        .map(|&pct| {
            let rng = SplitMix64::for_stream(cfg.seed, 2 + pct as u64, rep);
            let mut keys = Vec::new();
            ProbeGen::new(rng, space, pct).fill(0..sh.resident as u64, &mut keys, sh.reads);
            digest.add_all(&keys);
            keys
        })
        .collect();
    let table = stack(sh.bits, cfg.seed ^ rep);
    let query = QueryInput::new(r, &probes[1], sh.rows_per_group);
    let r = &query.r;
    let setup_s = t_setup.elapsed().as_secs_f64();

    // Build.
    let mut outcomes = vec![Ok(InsertOutcome::Inserted); BATCH];
    let mut insert_us = Vec::with_capacity(r.len() / BATCH + 1);
    let mut build_ns = 0;
    for (i, chunk) in r.chunks(BATCH).enumerate() {
        let span = tr.begin(n_insert, None, i as u32);
        table.insert_batch_shared(chunk, &mut outcomes[..chunk.len()]);
        let ns = tr.end(span);
        build_ns += ns;
        insert_us.push(ns as f64 / 1e3);
        ck.fresh_inserts(&outcomes[..chunk.len()]);
    }
    ck.fact("entries after build", table.len_shared() as u64, r.len() as u64);

    // Probe.
    let mut found = vec![None; BATCH];
    let mut lookup_us = Vec::with_capacity(3 * sh.reads / BATCH + 3);
    let mut probe_ns = 0;
    for keys in &probes {
        for (i, chunk) in keys.chunks(BATCH).enumerate() {
            let span = tr.begin(n_lookup, None, i as u32);
            table.lookup_batch_shared(chunk, &mut found[..chunk.len()]);
            let ns = tr.end(span);
            probe_ns += ns;
            lookup_us.push(ns as f64 / 1e3);
            ck.lookups(chunk, &found[..chunk.len()]);
        }
    }
    let probed = 3 * sh.reads;
    let bytes = bytes_per_entry(&table);
    drop(table);

    let (join, agg) = query_pass(&query, cfg.seed ^ rep, tr, ck);
    let log = &r[..logged(cfg.scale, r.len())];
    let (wal_bytes, recover) = durable_pass(log, BATCH, sh.bits, cfg.seed ^ rep, tr, ck);

    let mut e = [0.0; END_TO_END.len()];
    e[SETUP_S] = setup_s;
    e[READ_MOPS] = mops(probed, probe_ns);
    e[WRITE_MOPS] = mops(r.len(), build_ns);
    e[MIXED_MOPS] = mops(r.len() + probed, build_ns + probe_ns);
    e[JOIN_MOPS] = join;
    e[AGG_MOPS] = agg;
    e[RTT_P50_US] = percentile(&mut lookup_us, 0.5);
    e[BYTES_PER_ENTRY] = bytes;
    e[WAL_BYTES_PER_OP] = wal_bytes;
    e[RECOVER_MOPS] = recover;
    Rep {
        e2e: e,
        tails_us: [percentile(&mut lookup_us, 0.99), percentile(&mut insert_us, 0.99)],
        input_digest: digest.value(),
        ops: vec![
            ("inserts", r.len() as u64),
            ("lookups", probed as u64),
            ("join_tuples", (r.len() + query.s.len()) as u64),
            ("agg_rows", query.rows.len() as u64),
            ("logged", log.len() as u64),
        ],
        samples: vec![
            ("rtt_us", lookup_us.len() as u64),
            ("write_batch_us", insert_us.len() as u64),
        ],
        extras: Vec::new(),
        threads: 1,
    }
}
