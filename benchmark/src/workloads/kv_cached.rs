//! `kv_cached`: a loopback `KvServer` with one worker and one client
//! connection over a table that fits the L2.
//!
//! The table is cheap here, so the `7DKV` codec, the syscalls, the run
//! segmentation and the event loop do most of the work. Windows of 256
//! against windows of 1 separate per-byte cost from per-wakeup cost.
//! Phases, each after an untimed warm-up: `get_w256` (GETs at 90 %
//! hits), `mix_w256` (80 % GET, 20 % overwriting PUT), `rtt_w1` (GETs
//! one at a time), `write_w256` (128 DELs then 128 PUTs putting them
//! back, so the table stays its size).

use super::kv::{run_windows, serve, stop, ClientSpans, Phase};
use super::{Rep, Shape};
use crate::common::*;
use crate::gen::{value_of, Digest, KeySpace, ProbeGen, SplitMix64};
use crate::stats::percentile;
use crate::tails::{durable_pass, query_pass, QueryInput};
use crate::trace::Tracer;
use sevendim_core::{ConcurrentTable, InsertOutcome};
use sevendim_net::protocol::{Op, OpResponse};
use sevendim_net::KvClient;
use std::sync::Arc;
use std::time::Instant;

pub const WINDOW: usize = 256;
const HIT_PCT: u32 = 90;
/// Untimed windows before each phase (the issue's 100 k ops, scaled).
const WARMUP_WINDOWS: usize = 16;
const WARMUP_SINGLES: usize = 512;

/// Full-scale sizes. The issue sized the phases at 64 M, 32 M and 1 M
/// ops; the time cap leaves 1 M, 512 k and 8 k per repetition. The
/// resident set is the issue's: 32 768 keys in 2^16 slots, 1 MiB.
pub fn shape(scale: Scale) -> Shape {
    Shape {
        bits: scale.bits(16),
        resident: scale.of(32_768, 256),
        reads: scale.of(1_048_576, WINDOW),
        batch: WINDOW,
        // 131 072 rows into 2 048 groups: a 64 KiB state table, in cache
        // like everything else here.
        rows_per_group: 64,
    }
}

struct Sizes {
    mix: usize,
    singles: usize,
    writes: usize,
}

fn sizes(scale: Scale) -> Sizes {
    Sizes {
        mix: scale.of(524_288, WINDOW),
        singles: scale.of(8_192, 64),
        writes: scale.of(262_144, WINDOW),
    }
}

/// The resident keys and the version each is at.
struct Model {
    space: KeySpace,
    version: Vec<u32>,
}

impl Model {
    fn key(&self, index: u64) -> u64 {
        self.space.resident(index)
    }

    fn value(&self, index: u64) -> u64 {
        value_of(self.key(index), self.version[index as usize])
    }

    fn get(&self, gen: &mut ProbeGen) -> (Op, OpResponse) {
        let probe = gen.draw(0..self.version.len() as u64);
        let want = probe.0.then(|| self.value(probe.1));
        (Op::Get(gen.key(probe)), OpResponse::Get(want))
    }

    fn overwrite(&mut self, index: u64) -> (Op, OpResponse) {
        let old = self.value(index);
        self.version[index as usize] += 1;
        (
            Op::Put(self.key(index), self.value(index)),
            OpResponse::Put(Ok(InsertOutcome::Replaced(old))),
        )
    }

    fn delete(&self, index: u64) -> (Op, OpResponse) {
        (Op::Del(self.key(index)), OpResponse::Del(Some(self.value(index))))
    }

    fn put_back(&mut self, index: u64) -> (Op, OpResponse) {
        self.version[index as usize] += 1;
        (Op::Put(self.key(index), self.value(index)), OpResponse::Put(Ok(InsertOutcome::Inserted)))
    }
}

pub fn rep(cfg: &RunCfg, rep: u64, tr: &mut Tracer, ck: &mut Checker) -> Rep {
    let (sh, sz) = (shape(cfg.scale), sizes(cfg.scale));
    let spans = ClientSpans::register(tr);
    let n = sh.resident as u64;

    // Set-up: the phases with the model's answers, the loaded stack, the
    // server and the connection.
    let t_setup = Instant::now();
    let space = KeySpace::new(SplitMix64::for_stream(cfg.seed, 1, rep).next_u64());
    let mut model = Model { space, version: vec![0; sh.resident] };
    let r: Vec<(u64, u64)> = (0..n).map(|i| (model.key(i), model.value(i))).collect();
    let stream = |id| SplitMix64::for_stream(cfg.seed, id, rep);
    let mut gets = Phase::default();
    let mut gen = ProbeGen::new(stream(2), space, HIT_PCT);
    for _ in 0..WARMUP_WINDOWS * WINDOW + sh.reads {
        gets.push(model.get(&mut gen));
    }
    let mut mix = Phase::default();
    let mut pick = stream(3);
    for _ in 0..WARMUP_WINDOWS * WINDOW + sz.mix {
        mix.push(if pick.below(5) == 0 {
            model.overwrite(pick.below(n))
        } else {
            model.get(&mut gen)
        });
    }
    let mut singles = Phase::default();
    for _ in 0..WARMUP_SINGLES + sz.singles {
        singles.push(model.get(&mut gen));
    }
    let mut writes = Phase::default();
    let half = WINDOW as u64 / 2;
    for w in 0..(WARMUP_WINDOWS * WINDOW + sz.writes) as u64 / WINDOW as u64 {
        let first = w * half;
        (0..half).for_each(|i| writes.push(model.delete((first + i) % n)));
        (0..half).for_each(|i| writes.push(model.put_back((first + i) % n)));
    }
    let mut digest = Digest::default();
    for phase in [&gets, &mix, &singles, &writes] {
        phase.keys().for_each(|k| digest.add(k));
    }
    // A probe side this size keeps the join's output inside the cache, as
    // its build side is: a million rows of output would time the allocator.
    let s_keys: Vec<u64> = gets.keys().take(sh.reads.min(1 << 17)).collect();
    let query = QueryInput::new(r, &s_keys, sh.rows_per_group);

    let table = Arc::new(stack(sh.bits, cfg.seed ^ rep));
    let mut outcomes = vec![Ok(InsertOutcome::Inserted); 256];
    for chunk in query.r.chunks(256) {
        table.insert_batch_shared(chunk, &mut outcomes[..chunk.len()]);
        ck.fresh_inserts(&outcomes[..chunk.len()]);
    }
    let connected = serve(table.clone(), 1).and_then(|server| {
        let client = KvClient::connect(server.addr())?;
        Ok((server, client))
    });
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut e = [0.0; END_TO_END.len()];
    let mut samples = Vec::new();
    let mut tails_us = [f64::NAN; 2];
    match connected {
        Err(e) => ck.error("server start", e),
        Ok((server, client)) => {
            let conn = &mut [client];
            // (the connection closes with the server, at `stop`)
            let got = run_windows(conn, &[&gets], WINDOW, WARMUP_WINDOWS, spans, tr, ck);
            e[READ_MOPS] = mops(got.ops, got.wall_ns);
            let mixed = run_windows(conn, &[&mix], WINDOW, WARMUP_WINDOWS, spans, tr, ck);
            e[MIXED_MOPS] = mops(mixed.ops, mixed.wall_ns);
            let mut one = run_windows(conn, &[&singles], 1, WARMUP_SINGLES, spans, tr, ck);
            e[RTT_P50_US] = percentile(&mut one.window_us, 0.5);
            tails_us[0] = percentile(&mut one.window_us, 0.99);
            let mut wrote = run_windows(conn, &[&writes], WINDOW, WARMUP_WINDOWS, spans, tr, ck);
            e[WRITE_MOPS] = mops(wrote.ops, wrote.wall_ns);
            tails_us[1] = percentile(&mut wrote.window_us, 0.99);
            samples = vec![
                ("rtt_us", one.window_us.len() as u64),
                ("write_batch_us", wrote.window_us.len() as u64),
            ];
            stop(server, ck);
        }
    }
    ck.fact("entries at the end", table.len_shared() as u64, n);
    e[SETUP_S] = setup_s;
    e[BYTES_PER_ENTRY] = bytes_per_entry(&table);
    drop(table);

    (e[JOIN_MOPS], e[AGG_MOPS]) = query_pass(&query, cfg.seed ^ rep, tr, ck);
    (e[WAL_BYTES_PER_OP], e[RECOVER_MOPS]) =
        durable_pass(&query.r, WINDOW, sh.bits, cfg.seed ^ rep, tr, ck);
    Rep {
        e2e: e,
        tails_us,
        input_digest: digest.value(),
        ops: vec![
            ("get_w256", sh.reads as u64),
            ("mix_w256", sz.mix as u64),
            ("rtt_w1", sz.singles as u64),
            ("write_w256", sz.writes as u64),
            ("join_tuples", (query.r.len() + query.s.len()) as u64),
            ("agg_rows", query.rows.len() as u64),
            ("logged", query.r.len() as u64),
        ],
        samples,
        extras: Vec::new(),
        threads: 1,
    }
}
