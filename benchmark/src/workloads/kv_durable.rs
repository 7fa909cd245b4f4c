//! `kv_durable`: a loopback `KvServer` with two workers over a
//! write-ahead-logged stack, `FsyncPolicy::Always`, on a device whose
//! every sync costs a fixed 200 us ([`PacedWal`]).
//!
//! The only workload where `durable` works: the commit protocol and the
//! device wait dominate, table and codec are noise. Two connections (one
//! on a one-core host) driven in rounds by one generator thread, each
//! sending closed-loop windows of 16 frames: four windows of PUTs of
//! fresh keys, then one of DELs of its oldest; every 64th window is 16
//! GETs checked against the model. A read phase
//! of GET windows follows — reads pass through the durable wrapper and
//! must not wait for anybody's sync. Afterwards the synced prefix of the
//! log is replayed into a fresh stack and compared with the model of
//! acknowledged writes.

use super::kv::{run_windows, serve, stop, ClientSpans, Phase};
use super::{Rep, Shape};
use crate::common::*;
use crate::gen::{value_of, Digest, KeySpace, ProbeGen, SplitMix64};
use crate::paced_wal::PacedWal;
use crate::stats::percentile;
use crate::tails::{bits_for, query_pass, recover_and_check, QueryInput};
use crate::trace::Tracer;
use sevendim_core::{ConcurrentTable, FsyncPolicy, InsertOutcome};
use sevendim_durable::DurableTable;
use sevendim_net::protocol::{Op, OpResponse};
use sevendim_net::KvClient;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WINDOW: usize = 16;
pub const SYNC_COST: Duration = Duration::from_micros(200);
const WORKERS: usize = 2;
const START_BITS: u8 = 16;
const GET_EVERY: usize = 64;
const READ_HIT_PCT: u32 = 90;

/// Windows per connection. The issue sized the write phase at 62 500;
/// at one 200 us sync per window that is 25 s, and the time cap leaves
/// 2 560 per repetition.
fn write_windows(scale: Scale) -> usize {
    scale.of(2_560, GET_EVERY)
}

fn read_windows(scale: Scale) -> usize {
    scale.of(4_096, 1)
}

pub fn shape(scale: Scale) -> Shape {
    let resident = 2 * final_counts(write_windows(scale)).live() as usize;
    Shape {
        bits: bits_for(resident),
        resident,
        reads: 2 * read_windows(scale) * WINDOW,
        batch: WINDOW,
        // 65 536 rows into 1 024 groups: in cache, as on `kv_cached`.
        rows_per_group: 64,
    }
}

fn region(conn: usize) -> u64 {
    (conn as u64) << 40
}

/// Keys a connection has put and deleted so far: it puts its region's
/// indices in order and deletes the oldest, so `deleted..put` is live.
#[derive(Clone, Copy, Default)]
struct Counts {
    put: u64,
    deleted: u64,
    gets: u64,
}

impl Counts {
    fn live(&self) -> u64 {
        self.put - self.deleted
    }
}

/// The write phase of one connection, and where it leaves the model.
fn write_phase(
    space: &KeySpace,
    conn: usize,
    windows: usize,
    rng: &mut SplitMix64,
) -> (Phase, Counts) {
    let mut phase = Phase::default();
    let mut c = Counts::default();
    let key = |index: u64| space.resident(region(conn) + index);
    let mut mutation_windows = 0;
    for w in 0..windows {
        if w % GET_EVERY == GET_EVERY - 1 {
            for _ in 0..WINDOW {
                let index = rng.below(c.put);
                let want = (index >= c.deleted).then(|| value_of(key(index), 0));
                phase.push((Op::Get(key(index)), OpResponse::Get(want)));
            }
            c.gets += WINDOW as u64;
        } else if mutation_windows % 5 == 4 {
            for _ in 0..WINDOW {
                let k = key(c.deleted);
                phase.push((Op::Del(k), OpResponse::Del(Some(value_of(k, 0)))));
                c.deleted += 1;
            }
            mutation_windows += 1;
        } else {
            for _ in 0..WINDOW {
                let k = key(c.put);
                phase.push((
                    Op::Put(k, value_of(k, 0)),
                    OpResponse::Put(Ok(InsertOutcome::Inserted)),
                ));
                c.put += 1;
            }
            mutation_windows += 1;
        }
    }
    (phase, c)
}

fn final_counts(windows: usize) -> Counts {
    write_phase(&KeySpace::new(0), 0, windows, &mut SplitMix64::new(0)).1
}

pub fn rep(cfg: &RunCfg, rep: u64, tr: &mut Tracer, ck: &mut Checker) -> Rep {
    let conns = cfg.threads;
    let (n_write, n_read) = (write_windows(cfg.scale), read_windows(cfg.scale));
    let spans = ClientSpans::register(tr);

    // Set-up: both phases of every connection with the model's answers,
    // the durable stack, the server, the connections.
    let t_setup = Instant::now();
    let space = KeySpace::new(SplitMix64::for_stream(cfg.seed, 1, rep).next_u64());
    let mut digest = Digest::default();
    let mut counts = Counts::default();
    let phases: Vec<(Phase, Phase)> = (0..conns)
        .map(|conn| {
            let mut rng = SplitMix64::for_stream(cfg.seed, 10 + conn as u64, rep);
            let (writes, c) = write_phase(&space, conn, n_write, &mut rng);
            counts = c;
            let mut gen = ProbeGen::new(rng, space, READ_HIT_PCT);
            let mut reads = Phase::default();
            for _ in 0..n_read * WINDOW {
                let probe = gen.draw(region(conn) + c.deleted..region(conn) + c.put);
                let k = gen.key(probe);
                reads.push((Op::Get(k), OpResponse::Get(probe.0.then(|| value_of(k, 0)))));
            }
            writes.keys().chain(reads.keys()).for_each(|k| digest.add(k));
            (writes, reads)
        })
        .collect();
    let survivors = |conn: usize| {
        (counts.deleted..counts.put)
            .map(move |i| space.resident(region(conn) + i))
            .map(|k| (k, value_of(k, 0)))
    };
    let r: Vec<(u64, u64)> = (0..conns).flat_map(survivors).collect();
    let s_keys: Vec<u64> = phases[0].1.keys().collect();
    let query = QueryInput::new(r, &s_keys, shape(cfg.scale).rows_per_group);

    let wal = PacedWal::new(SYNC_COST);
    let bits = cfg.scale.bits(START_BITS);
    let table = Arc::new(DurableTable::with_wal(
        stack(bits, cfg.seed ^ rep),
        Box::new(wal.clone()),
        FsyncPolicy::Always,
    ));
    let started = serve(table.clone(), WORKERS).and_then(|server| {
        let clients: std::io::Result<Vec<KvClient>> =
            (0..conns).map(|_| KvClient::connect(server.addr())).collect();
        Ok((server, clients?))
    });
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut e = [0.0; END_TO_END.len()];
    e[SETUP_S] = setup_s;
    let mutations = conns as u64 * (counts.put + counts.deleted);
    let reads = conns * n_read * WINDOW;
    let mut samples = Vec::new();
    let mut extras = Vec::new();
    let mut tails_us = [f64::NAN; 2];
    match started {
        Err(e) => ck.error("server start", e),
        Ok((server, mut clients)) => {
            let (writes, gets): (Vec<&Phase>, Vec<&Phase>) =
                phases.iter().map(|(w, r)| (w, r)).unzip();
            let mut wrote = run_windows(&mut clients, &writes, WINDOW, 0, spans, tr, ck);
            let mut read = run_windows(&mut clients, &gets, WINDOW, 0, spans, tr, ck);
            drop(clients);
            stop(server, ck);
            e[WRITE_MOPS] = mops(mutations as usize, wrote.wall_ns);
            e[READ_MOPS] = mops(read.ops, read.wall_ns);
            e[MIXED_MOPS] = mops(wrote.ops + read.ops, wrote.wall_ns + read.wall_ns);
            // A connection's acknowledgement times, minus its GET rounds.
            let is_mutation = |&(i, _): &(usize, &f64)| (i / conns) % GET_EVERY != GET_EVERY - 1;
            let mut ack_us: Vec<f64> =
                wrote.window_us.iter().enumerate().filter(is_mutation).map(|(_, &us)| us).collect();
            wrote.window_us.clear();
            e[RTT_P50_US] = percentile(&mut read.window_us, 0.5);
            tails_us = [percentile(&mut read.window_us, 0.99), percentile(&mut ack_us, 0.99)];
            samples = vec![
                ("rtt_us", read.window_us.len() as u64),
                ("write_batch_us", ack_us.len() as u64),
            ];
            extras = vec![
                ("durable.syncs_per_kop", wal.syncs() as f64 * 1e3 / mutations as f64),
                ("durable.ack_p50_us", percentile(&mut ack_us, 0.5)),
                ("durable.ack_p99_us", tails_us[1]),
            ];
        }
    }
    ck.fact("entries at the end", table.len_shared() as u64, query.r.len() as u64);
    e[BYTES_PER_ENTRY] = bytes_per_entry(table.inner());
    drop(table);

    e[WAL_BYTES_PER_OP] = wal.appended_bytes() as f64 / mutations as f64;
    let mut model = (0..conns).flat_map(|conn| {
        (0..counts.put).map(move |i| {
            let k = space.resident(region(conn) + i);
            (k, (i >= counts.deleted).then(|| value_of(k, 0)))
        })
    });
    e[RECOVER_MOPS] = recover_and_check(
        &wal.synced_prefix(),
        mutations,
        bits,
        cfg.seed ^ rep,
        &mut model,
        tr,
        ck,
    );
    (e[JOIN_MOPS], e[AGG_MOPS]) = query_pass(&query, cfg.seed ^ rep, tr, ck);
    Rep {
        e2e: e,
        tails_us,
        input_digest: digest.value(),
        ops: vec![
            ("puts", conns as u64 * counts.put),
            ("dels", conns as u64 * counts.deleted),
            ("checked_gets", conns as u64 * counts.gets),
            ("read_gets", reads as u64),
            ("replayed", mutations),
            ("join_tuples", (query.r.len() + query.s.len()) as u64),
            ("agg_rows", query.rows.len() as u64),
        ],
        samples,
        extras,
        threads: conns,
    }
}
