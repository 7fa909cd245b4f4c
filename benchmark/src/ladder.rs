//! The traced run: a stream of the workload's shape pushed through each
//! rung in turn — probe kernel, `core::dynamic`, the sharded stack locked
//! and optimistic, `DurableTable`, the `7DKV` codec with no socket, the
//! loopback server — then the workload itself, with a span around every
//! call into a layer.
//!
//! Layers are measured from outside only, by timing calls into public
//! functions; spans inside the program are a later issue. Every `*_ns`
//! is per operation. A rung's delta is its ns/op minus the rung beneath.

use crate::common::*;
use crate::gen::{value_of, Digest, KeySpace, ProbeGen, SplitMix64};
use crate::paced_wal::PacedWal;
use crate::report::repeat_for;
use crate::stats::{median, percentile};
use crate::tails::{bits_for, QueryInput};
use crate::trace::Tracer;
use crate::workloads::kv::{request, run_windows, serve, stop, ClientSpans, Phase};
use crate::workloads::{kv_durable, mem_rw, Shape, Workload};
use crate::{host, OUT_DIR};
use hashfn::{HashFamily, HashFn64, MultShift, Murmur, Tabulation};
use query::{group_aggregate, hash_join, hash_join_parallel, AggFn};
use sevendim_core::optimistic::ReadView;
use sevendim_core::{
    BoxedTable, ConcurrentTable, FsyncPolicy, HashTable, InsertOutcome, TableError, TableScheme,
};
use sevendim_durable::{encode_record, DurableTable, FileWal, WalFile, WalOp};
use sevendim_net::protocol::{
    decode_request, decode_response, encode_request, encode_response, Op, OpResponse, Request,
    Response,
};
use sevendim_net::KvClient;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

const fn ns(name: &'static str) -> MetricDef {
    layer(name, "ns", Better::Lower)
}

const fn us(name: &'static str) -> MetricDef {
    layer(name, "us", Better::Lower)
}

/// The per-layer metrics, named `module.part.metric`, in the order
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: [MetricDef; 84] = [
    ns("hashfn.mult_ns"),
    ns("hashfn.murmur_ns"),
    ns("hashfn.tab_ns"),
    ns("core.kernel.insert_ns"),
    ns("core.kernel.lookup_hit_ns"),
    ns("core.kernel.lookup_half_ns"),
    ns("core.kernel.lookup_miss_ns"),
    ns("core.kernel.delete_ns"),
    layer("core.kernel.probes_per_hit", "count", Better::Lower),
    layer("core.kernel.probes_per_miss", "count", Better::Lower),
    ns("core.kernel.fp.lookup_hit_ns"),
    ns("core.kernel.fp.lookup_miss_ns"),
    ns("core.kernel.fp.insert_ns"),
    ns("core.kernel.rh.lookup_hit_ns"),
    ns("core.kernel.rh.lookup_miss_ns"),
    ns("core.kernel.rh.insert_ns"),
    ns("core.kernel.qp.lookup_hit_ns"),
    ns("core.kernel.qp.lookup_miss_ns"),
    ns("core.kernel.qp.insert_ns"),
    ns("core.kernel.cuckoo4.lookup_hit_ns"),
    ns("core.kernel.cuckoo4.lookup_miss_ns"),
    ns("core.kernel.cuckoo4.insert_ns"),
    ns("core.kernel.chained24.lookup_hit_ns"),
    ns("core.kernel.chained24.lookup_miss_ns"),
    ns("core.kernel.chained24.insert_ns"),
    ns("core.dynamic.lookup_hit_ns"),
    ns("core.dynamic.lookup_miss_ns"),
    ns("core.dynamic.insert_ns"),
    ns("core.dynamic.grow_insert_ns"),
    layer("core.dynamic.overhead_ratio", "ratio", Better::Lower),
    layer("core.dynamic.rehashes", "count", Better::Lower),
    us("core.dynamic.max_write_batch_us"),
    ns("core.sharded.locked_lookup_hit_ns"),
    ns("core.sharded.locked_lookup_miss_ns"),
    ns("core.sharded.opt_lookup_hit_ns"),
    ns("core.sharded.opt_lookup_miss_ns"),
    layer("core.sharded.opt_vs_locked_ratio", "ratio", Better::Lower),
    ns("core.sharded.single_lookup_ns"),
    ns("core.sharded.insert_ns"),
    ns("core.sharded.delete_ns"),
    layer("core.sharded.scale_2t_ratio", "ratio", Better::Higher),
    layer("core.sharded.retired_bytes", "B", Better::Lower),
    ns("query.join_ns_per_tuple"),
    ns("query.naive_join_ns_per_tuple"),
    layer("query.join_vs_naive_ratio", "ratio", Better::Lower),
    ns("query.agg_ns_per_row"),
    layer("query.join_parallel_2t_mops", "Mtuples/s", Better::Higher),
    ns("net.protocol.encode_request_ns"),
    ns("net.protocol.decode_request_ns"),
    ns("net.protocol.encode_response_ns"),
    ns("net.protocol.decode_response_ns"),
    ns("net.protocol.batch_encode_ns"),
    layer("net.protocol.bytes_per_get", "B", Better::Lower),
    ns("net.client.enqueue_ns"),
    us("net.client.flush_us_per_window"),
    ns("net.client.recv_ns"),
    ns("net.server.loopback_get_ns"),
    ns("net.server.delta_ns"),
    ns("net.server.batch_frame_ns"),
    layer("net.server.ops_per_frame", "count", Better::Higher),
    layer("net.server.w1_vs_w256_ratio", "ratio", Better::Lower),
    us("net.server.open_p50_us"),
    us("net.server.open_p99_us"),
    us("net.server.open_late_max_us"),
    layer("net.server.open_achieved_ratio", "ratio", Better::Higher),
    ns("durable.commit_cpu_ns"),
    layer("durable.always_1w_mops", "Mops/s", Better::Higher),
    layer("durable.always_2w_mops", "Mops/s", Better::Higher),
    layer("durable.group_ratio_2w", "ratio", Better::Higher),
    layer("durable.syncs_per_kop", "count", Better::Lower),
    ns("durable.replay_ns"),
    ns("durable.lookup_delta_ns"),
    us("durable.ack_p50_us"),
    us("durable.ack_p99_us"),
    ns("durable.file_append_ns"),
    us("durable.file_sync_p50_us"),
    us("durable.file_sync_p99_us"),
    layer("durable.snapshot_s", "s", Better::Lower),
    layer("durable.open_s", "s", Better::Lower),
    us("e2e.rtt_p99_us"),
    us("e2e.write_batch_p99_us"),
    ns("host.cpu_ns_per_op"),
    layer("host.peak_rss_mib", "MiB", Better::Lower),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
];

pub struct LadderOut {
    /// Median over the passes of every per-layer metric.
    pub layers: Vec<(MetricDef, f64)>,
    pub ck: Checker,
    pub tracer: Tracer,
    pub input_digest: u64,
    pub threads: usize,
    pub ops: Vec<(&'static str, u64)>,
    pub pass_seconds: Vec<f64>,
}

/// Whole passes of the ladder until the time budget is used, like the
/// untraced run's repetitions.
pub fn run(workload: &Workload, cfg: &RunCfg) -> LadderOut {
    let mut tr = Tracer::new(true);
    let mut ck = Checker::new(cfg.flip_check);
    let (mut passes, pass_seconds) =
        repeat_for(cfg.seconds, |n| pass(workload, cfg, n, &mut tr, &mut ck));
    let layers = PER_LAYER
        .iter()
        .map(|def| {
            let values: Vec<f64> = passes.iter().map(|p| p.values.get(def.name)).collect();
            (*def, median(&values))
        })
        .collect();
    let first = passes.swap_remove(0);
    LadderOut {
        layers,
        ck,
        tracer: tr,
        input_digest: first.input_digest,
        threads: cfg.threads,
        ops: first.ops,
        pass_seconds,
    }
}

/// Metric values by name. A value never set reads as NaN, which makes
/// the run incorrect rather than silently short.
#[derive(Default)]
struct Values(Vec<(String, f64)>);

impl Values {
    fn set(&mut self, name: impl Into<String>, v: f64) {
        let name = name.into();
        debug_assert!(PER_LAYER.iter().any(|d| d.name == name), "{name} is not registered");
        self.0.push((name, v));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| n == name).map_or(f64::NAN, |&(_, v)| v)
    }
}

struct Pass {
    values: Values,
    input_digest: u64,
    ops: Vec<(&'static str, u64)>,
}

/// The stream of one pass: the workload's resident set and probe keys
/// at each hit ratio, all from the seed.
struct Inputs {
    space: KeySpace,
    r: Vec<(u64, u64)>,
    hit: Vec<u64>,
    half: Vec<u64>,
    miss: Vec<u64>,
    seed: u64,
}

impl Inputs {
    fn new(cfg: &RunCfg, sh: &Shape, ops: usize, pass: u64) -> (Self, u64) {
        let space = KeySpace::new(SplitMix64::for_stream(cfg.seed, 101, pass).next_u64());
        let n = sh.resident as u64;
        let r: Vec<(u64, u64)> =
            (0..n).map(|i| space.resident(i)).map(|k| (k, value_of(k, 0))).collect();
        let mut digest = Digest::default();
        let mut stream = |pct: u32| {
            let rng = SplitMix64::for_stream(cfg.seed, 102 + pct as u64, pass);
            let mut keys = Vec::new();
            ProbeGen::new(rng, space, pct).fill(0..n, &mut keys, ops);
            digest.add_all(&keys);
            keys
        };
        let (hit, half, miss) = (stream(100), stream(50), stream(0));
        (Self { space, r, hit, half, miss, seed: cfg.seed ^ pass }, digest.value())
    }

    /// Keys no rung has inserted: index `i` beyond the resident set.
    fn fresh(&self, from: u64, n: usize) -> Vec<(u64, u64)> {
        let base = (1u64 << 41) + from;
        (base..base + n as u64)
            .map(|i| self.space.resident(i))
            .map(|k| (k, value_of(k, 0)))
            .collect()
    }
}

/// Time `call` over `items` in calls of `batch`, one span each; `check`
/// sees each call's answers outside its span. Returns ns per item and
/// the longest call in microseconds.
fn timed_calls<I, O: Clone>(
    (tr, ck): (&mut Tracer, &mut Checker),
    name: &str,
    items: &[I],
    (batch, blank): (usize, O),
    mut call: impl FnMut(&[I], &mut [O]),
    check: impl Fn(&mut Checker, &[I], &[O]),
) -> (f64, f64) {
    let id = tr.name(name);
    let mut answers = vec![blank; batch];
    let (mut total, mut longest) = (0, 0);
    for (i, chunk) in items.chunks(batch).enumerate() {
        let answers = &mut answers[..chunk.len()];
        let span = tr.begin(id, None, i as u32);
        call(chunk, answers);
        let ns = tr.end(span);
        total += ns;
        longest = longest.max(ns);
        check(ck, chunk, answers);
    }
    (total as f64 / items.len() as f64, longest as f64 / 1e3)
}

/// [`timed_calls`] for lookups of version-0 keys: ns per key.
fn lookups(
    tc: (&mut Tracer, &mut Checker),
    name: &str,
    keys: &[u64],
    batch: usize,
    call: impl FnMut(&[u64], &mut [Option<u64>]),
) -> f64 {
    timed_calls(tc, name, keys, (batch, None), call, Checker::lookups).0
}

type Outcome = Result<InsertOutcome, TableError>;

/// [`timed_calls`] for inserts of fresh keys: ns per key and the longest
/// call in microseconds.
fn inserts(
    tc: (&mut Tracer, &mut Checker),
    name: &str,
    items: &[(u64, u64)],
    batch: usize,
    call: impl FnMut(&[(u64, u64)], &mut [Outcome]),
) -> (f64, f64) {
    let blank = Ok(InsertOutcome::Inserted);
    timed_calls(tc, name, items, (batch, blank), call, |ck, _, got| ck.fresh_inserts(got))
}

/// [`timed_calls`] for deletes of live version-0 keys: ns per key.
fn deletes(
    tc: (&mut Tracer, &mut Checker),
    name: &str,
    keys: &[u64],
    batch: usize,
    call: impl FnMut(&[u64], &mut [Option<u64>]),
) -> f64 {
    timed_calls(tc, name, keys, (batch, None), call, Checker::deletes).0
}

/// What every rung of a pass reads.
struct In<'a> {
    workload: &'a Workload,
    cfg: &'a RunCfg,
    sh: Shape,
    inp: Inputs,
    pass: u64,
}

/// Where every rung records: spans, checks, metric values.
struct Out<'a> {
    tr: &'a mut Tracer,
    ck: &'a mut Checker,
    v: Values,
}

fn pass(workload: &Workload, cfg: &RunCfg, pass: u64, tr: &mut Tracer, ck: &mut Checker) -> Pass {
    let sh = (workload.shape)(cfg.scale);
    // Keys each rung's measurement reads or writes.
    let ops = sh.reads.min(cfg.scale.of(1 << 19, 256));
    let (inp, input_digest) = Inputs::new(cfg, &sh, ops, pass);
    let i = In { workload, cfg, sh, inp, pass };
    let mut o = Out { tr, ck, v: Values::default() };

    hash_functions(&i, &mut o);
    let kernel_hit = kernel(&i, &mut o);
    other_schemes(&i, &mut o);
    dynamic(&i, &mut o, kernel_hit);
    let sharded_hit = sharded(&i, &mut o);
    durable_in_process(&i, &mut o, sharded_hit);
    durable_files(&i, &mut o);
    queries(&i, &mut o);
    let codec_ns = codec(&i, &mut o);
    loopback(&i, &mut o, codec_ns);
    let ops = the_workload_itself(&i, &mut o);
    Pass { values: o.v, input_digest, ops }
}

fn hash_functions(i: &In, o: &mut Out) {
    let (inp, sh, tr, v) = (&i.inp, &i.sh, &mut *o.tr, &mut o.v);
    fn time<H: HashFn64>(h: H, name: &str, keys: &[u64], batch: usize, tr: &mut Tracer) -> f64 {
        let id = tr.name(name);
        let mut total = 0;
        for (i, chunk) in keys.chunks(batch).enumerate() {
            let span = tr.begin(id, None, i as u32);
            black_box(chunk.iter().fold(0, |acc, &k| acc ^ h.hash(black_box(k))));
            total += tr.end(span);
        }
        total as f64 / keys.len() as f64
    }
    let (keys, b) = (&inp.hit, sh.batch);
    v.set("hashfn.mult_ns", time(MultShift::from_seed(inp.seed), "hashfn.mult", keys, b, tr));
    v.set("hashfn.murmur_ns", time(Murmur::from_seed(inp.seed), "hashfn.murmur", keys, b, tr));
    v.set("hashfn.tab_ns", time(Tabulation::from_seed(inp.seed), "hashfn.tab", keys, b, tr));
}

/// The raw linear-probing kernel. Returns its hit ns/op, the base the
/// wrappers' overhead is measured against.
fn kernel(i: &In, o: &mut Out) -> f64 {
    let (inp, sh, tr, ck, v) = (&i.inp, &i.sh, &mut *o.tr, &mut *o.ck, &mut o.v);
    let mut t: BoxedTable = kernel_builder(TableScheme::LinearProbing, sh.bits, inp.seed).build();
    let b = sh.batch;
    let (ins, _) =
        inserts((tr, ck), "core.kernel.insert_batch", &inp.r, b, |c, o| t.insert_batch(c, o));
    v.set("core.kernel.insert_ns", ins);
    let mut look =
        |keys| lookups((tr, ck), "core.kernel.lookup_batch", keys, b, |c, o| t.lookup_batch(c, o));
    let (hit, half, miss) = (look(&inp.hit), look(&inp.half), look(&inp.miss));
    v.set("core.kernel.lookup_hit_ns", hit);
    v.set("core.kernel.lookup_half_ns", half);
    v.set("core.kernel.lookup_miss_ns", miss);
    // Exact probe counts, over the same keys whatever the time budget.
    let probes = |keys: &[u64]| {
        let sample = &keys[..keys.len().min(1 << 16)];
        sample.iter().map(|&k| t.lookup_probed(k).1).sum::<usize>() as f64 / sample.len() as f64
    };
    v.set("core.kernel.probes_per_hit", probes(&inp.hit));
    v.set("core.kernel.probes_per_miss", probes(&inp.miss));
    let doomed: Vec<u64> =
        inp.r.iter().take(inp.hit.len().min(inp.r.len() / 2)).map(|t| t.0).collect();
    let del =
        deletes((tr, ck), "core.kernel.delete_batch", &doomed, b, |c, o| t.delete_batch(c, o));
    v.set("core.kernel.delete_ns", del);
    hit
}

fn other_schemes(i: &In, o: &mut Out) {
    let (inp, sh, tr, ck, v) = (&i.inp, &i.sh, &mut *o.tr, &mut *o.ck, &mut o.v);
    use TableScheme::*;
    let schemes = [
        (Fingerprint, "fp"),
        (RobinHood, "rh"),
        (Quadratic, "qp"),
        (Cuckoo4, "cuckoo4"),
        (Chained24, "chained24"),
    ];
    for (scheme, short) in schemes {
        let mut t: BoxedTable = kernel_builder(scheme, sh.bits, inp.seed).build();
        let span = format!("core.kernel.{short}");
        let b = sh.batch;
        let ins = inserts((tr, ck), &span, &inp.r, b, |c, o| t.insert_batch(c, o)).0;
        v.set(format!("{span}.insert_ns"), ins);
        let hit = lookups((tr, ck), &span, &inp.hit, b, |c, o| t.lookup_batch(c, o));
        v.set(format!("{span}.lookup_hit_ns"), hit);
        let miss = lookups((tr, ck), &span, &inp.miss, b, |c, o| t.lookup_batch(c, o));
        v.set(format!("{span}.lookup_miss_ns"), miss);
    }
}

/// Capacity bits a growing table starts from.
fn start_bits(cfg: &RunCfg, sh: &Shape) -> u8 {
    cfg.scale.bits(16).min(sh.bits)
}

fn dynamic(i: &In, o: &mut Out, kernel_hit: f64) {
    let (inp, sh, cfg) = (&i.inp, &i.sh, i.cfg);
    let (tr, ck, v) = (&mut *o.tr, &mut *o.ck, &mut o.v);
    let grows = |bits| {
        kernel_builder(TableScheme::LinearProbing, bits, inp.seed)
            .grow_at(0.7)
            .incremental(64)
            .build()
    };
    let b = sh.batch;
    let mut t: BoxedTable = grows(sh.bits);
    let (ins, _) =
        inserts((tr, ck), "core.dynamic.insert_batch", &inp.r, b, |c, o| t.insert_batch(c, o));
    v.set("core.dynamic.insert_ns", ins);
    let hit =
        lookups((tr, ck), "core.dynamic.lookup_batch", &inp.hit, b, |c, o| t.lookup_batch(c, o));
    v.set("core.dynamic.lookup_hit_ns", hit);
    v.set(
        "core.dynamic.lookup_miss_ns",
        lookups((tr, ck), "core.dynamic.lookup_batch", &inp.miss, b, |c, o| t.lookup_batch(c, o)),
    );
    v.set("core.dynamic.overhead_ratio", hit / kernel_hit);
    drop(t);
    let mut t: BoxedTable = grows(start_bits(cfg, sh));
    let (ins, longest) =
        inserts((tr, ck), "core.dynamic.grow_insert_batch", &inp.r, b, |c, o| t.insert_batch(c, o));
    v.set("core.dynamic.grow_insert_ns", ins);
    v.set("core.dynamic.max_write_batch_us", longest);
    v.set("core.dynamic.rehashes", t.table_stats().map_or(0, |s| s.rehashes) as f64);
}

/// The stack. Returns its optimistic hit ns/op.
fn sharded(i: &In, o: &mut Out) -> f64 {
    let (inp, sh, cfg, pass) = (&i.inp, &i.sh, i.cfg, i.pass);
    let (tr, ck, v) = (&mut *o.tr, &mut *o.ck, &mut o.v);
    let b = sh.batch;
    let mut t = stack(sh.bits, inp.seed);
    let (ins, _) = inserts((tr, ck), "core.sharded.insert_batch_shared", &inp.r, b, |c, o| {
        t.insert_batch_shared(c, o)
    });
    v.set("core.sharded.insert_ns", ins);
    let opt = "core.sharded.lookup_batch_shared.optimistic";
    let opt_hit = lookups((tr, ck), opt, &inp.hit, b, |c, o| t.lookup_batch_shared(c, o));
    v.set("core.sharded.opt_lookup_hit_ns", opt_hit);
    v.set(
        "core.sharded.opt_lookup_miss_ns",
        lookups((tr, ck), opt, &inp.miss, b, |c, o| t.lookup_batch_shared(c, o)),
    );
    // One span per `batch` single-key calls: a span around each would
    // cost as much as the call.
    let singles = &inp.hit[..inp.hit.len().min(1 << 16)];
    let single = lookups((tr, ck), "core.sharded.lookup_shared", singles, b, |c, o| {
        for (o, &k) in o.iter_mut().zip(c) {
            *o = t.lookup_shared(k);
        }
    });
    v.set("core.sharded.single_lookup_ns", single);
    t.set_optimistic_reads(false);
    let locked = "core.sharded.lookup_batch_shared.locked";
    let locked_hit = lookups((tr, ck), locked, &inp.hit, b, |c, o| t.lookup_batch_shared(c, o));
    v.set("core.sharded.locked_lookup_hit_ns", locked_hit);
    v.set(
        "core.sharded.locked_lookup_miss_ns",
        lookups((tr, ck), locked, &inp.miss, b, |c, o| t.lookup_batch_shared(c, o)),
    );
    v.set("core.sharded.opt_vs_locked_ratio", opt_hit / locked_hit);
    let doomed: Vec<u64> =
        inp.r.iter().take(inp.hit.len().min(inp.r.len() / 2)).map(|t| t.0).collect();
    v.set(
        "core.sharded.delete_ns",
        deletes((tr, ck), "core.sharded.delete_batch_shared", &doomed, b, |c, o| {
            t.delete_batch_shared(c, o)
        }),
    );
    drop(t);

    // What growing to this size leaves retired (kept for lock-free readers).
    let t = stack(start_bits(cfg, sh), inp.seed);
    inserts((tr, ck), "core.sharded.grow_insert_batch_shared", &inp.r, b, |c, o| {
        t.insert_batch_shared(c, o)
    });
    v.set("core.sharded.retired_bytes", t.retired_bytes() as f64);
    drop(t);

    // The read/write mix on two threads against one, an eighth the size.
    let small = RunCfg { scale: Scale(cfg.scale.0 * 8), flip_check: None, ..cfg.clone() };
    let mut mixed = |threads| mem_rw::run(&small, pass, threads, tr, ck).e2e[MIXED_MOPS];
    let (two, one) = (mixed(cfg.threads), mixed(1));
    v.set("core.sharded.scale_2t_ratio", two / one);
    opt_hit
}

/// 16-op batches, as a window of the durable workload commits them.
const COMMIT_BATCH: usize = kv_durable::WINDOW;

fn durable_in_process(i: &In, o: &mut Out, sharded_hit: f64) {
    let (inp, sh, cfg, pass) = (&i.inp, &i.sh, i.cfg, i.pass);
    let (tr, ck, v) = (&mut *o.tr, &mut *o.ck, &mut o.v);
    // Reads pass through; writes commit to a free device.
    let free = PacedWal::new(Duration::ZERO);
    let t = DurableTable::with_wal(
        stack(sh.bits, inp.seed),
        Box::new(free.clone()),
        FsyncPolicy::Always,
    );
    let b = sh.batch;
    inserts((tr, ck), "durable.insert_batch_shared.load", &inp.r, b, |c, o| {
        t.insert_batch_shared(c, o)
    });
    let hit = lookups((tr, ck), "durable.lookup_batch_shared", &inp.hit, b, |c, o| {
        t.lookup_batch_shared(c, o)
    });
    v.set("durable.lookup_delta_ns", hit - sharded_hit);
    let fresh = inp.fresh(0, inp.hit.len().min(1 << 17));
    let (logged, _) =
        inserts((tr, ck), "durable.insert_batch_shared", &fresh, COMMIT_BATCH, |c, o| {
            t.insert_batch_shared(c, o)
        });
    drop(t);
    let bare = stack(sh.bits, inp.seed);
    inserts((tr, ck), "core.sharded.insert_batch_shared", &inp.r, b, |c, o| {
        bare.insert_batch_shared(c, o)
    });
    let (plain, _) =
        inserts((tr, ck), "core.sharded.insert_batch_shared.w16", &fresh, COMMIT_BATCH, |c, o| {
            bare.insert_batch_shared(c, o)
        });
    drop(bare);
    v.set("durable.commit_cpu_ns", logged - plain);

    // Replay of that log into a fresh stack.
    let log = free.synced_prefix();
    let logged_ops = (inp.r.len() + fresh.len()) as u64;
    let mut model = inp.r.iter().chain(&fresh).map(|&(k, val)| (k, Some(val)));
    let mops =
        crate::tails::recover_and_check(&log, logged_ops, sh.bits, inp.seed, &mut model, tr, ck);
    v.set("durable.replay_ns", 1e3 / mops);

    // The commit protocol on the paced device: one writer, then two.
    let batches = cfg.scale.of(512, 1);
    let mut paced = |writers: usize| {
        let wal = PacedWal::new(kv_durable::SYNC_COST);
        let t =
            DurableTable::with_wal(stack(16, inp.seed), Box::new(wal.clone()), FsyncPolicy::Always);
        let id = tr.name("durable.insert_batch_shared.paced");
        let start = Barrier::new(writers);
        let done: Vec<(Instant, Instant, Checker, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    let items = inp.fresh((1 + w as u64) << 32, batches * COMMIT_BATCH);
                    let (t, start, mut tr, mut ck) = (&t, &start, tr.fork(), Checker::new(None));
                    scope.spawn(move || {
                        let mut outcomes = vec![Ok(InsertOutcome::Inserted); COMMIT_BATCH];
                        start.wait();
                        let started = Instant::now();
                        for (i, chunk) in items.chunks(COMMIT_BATCH).enumerate() {
                            let span = tr.begin(id, None, i as u32);
                            t.insert_batch_shared(chunk, &mut outcomes);
                            tr.end(span);
                            ck.fresh_inserts(&outcomes);
                        }
                        (started, Instant::now(), ck, tr)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a writer panicked")).collect()
        });
        let wall = done.iter().map(|d| d.1).max().expect("a writer")
            - done.iter().map(|d| d.0).min().expect("a writer");
        for (_, _, writer_ck, writer_tr) in done {
            ck.absorb(writer_ck);
            tr.absorb(writer_tr);
        }
        mops_of(writers * batches * COMMIT_BATCH, wall)
    };
    let (one, two) = (paced(1), paced(cfg.threads));
    v.set("durable.always_1w_mops", one);
    v.set("durable.always_2w_mops", two);
    v.set("durable.group_ratio_2w", two / one);

    // Acknowledgement times and syncs per op over the wire: the durable
    // workload itself, a quarter the size.
    let small = RunCfg { scale: Scale(cfg.scale.0 * 4), flip_check: None, ..cfg.clone() };
    let rep = kv_durable::rep(&small, pass, tr, ck);
    for (name, value) in rep.extras {
        v.set(name, value);
    }
}

fn mops_of(ops: usize, wall: Duration) -> f64 {
    mops(ops, wall.as_nanos() as u64)
}

/// A scratch directory inside the checkout, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str, pass: u64) -> std::io::Result<Self> {
        let dir = Path::new(OUT_DIR).join(format!("tmp-{tag}-{}-{pass}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The real-file numbers: this sandbox's disk, not the protocol.
fn durable_files(i: &In, o: &mut Out) {
    let (inp, cfg, pass) = (&i.inp, i.cfg, i.pass);
    let (tr, ck, v) = (&mut *o.tr, &mut *o.ck, &mut o.v);
    let measured = (|| -> Result<[f64; 5], Box<dyn std::error::Error>> {
        let dir = ScratchDir::new("wal", pass)?;
        let mut file = FileWal::create(&dir.0.join("probe.log"))?;
        let ops: Vec<WalOp> = inp
            .r
            .iter()
            .take(COMMIT_BATCH)
            .map(|&(key, value)| WalOp::Put { key, value })
            .collect();
        let mut record = Vec::new();
        encode_record(1, &ops, &mut record);
        let (n_append, n_sync) = (tr.name("durable.file.append"), tr.name("durable.file.sync"));
        let appends = cfg.scale.of(4096, 1);
        let mut total = 0;
        for i in 0..appends {
            let span = tr.begin(n_append, None, i as u32);
            file.append(&record)?;
            total += tr.end(span);
        }
        let mut sync_us = Vec::new();
        for i in 0..cfg.scale.of(128, 1).max(8) {
            file.append(&record)?;
            let span = tr.begin(n_sync, None, i as u32);
            file.sync()?;
            sync_us.push(tr.end(span) as f64 / 1e3);
        }
        drop(file);

        // A snapshot of n entries, then n more logged ops, then reopen.
        let n = inp.r.len().min(cfg.scale.of(131_072, 256));
        let snap_dir = ScratchDir::new("snap", pass)?;
        let builder =
            stack_builder(bits_for(n), inp.seed).wal(&snap_dir.0).fsync_policy(FsyncPolicy::Never);
        let (t, _) = DurableTable::open(&builder)?;
        let load = "durable.insert_batch_shared.file";
        inserts((tr, ck), load, &inp.r[..n], 256, |c, o| t.insert_batch_shared(c, o));
        let span = tr.begin_named("durable.snapshot_now");
        let snap = t.snapshot_now()?;
        let snapshot_s = tr.end(span) as f64 / 1e9;
        ck.fact("snapshot entries", snap.entries as u64, n as u64);
        let more = inp.fresh(1 << 36, n);
        inserts((tr, ck), load, &more, 256, |c, o| t.insert_batch_shared(c, o));
        drop(t);
        let span = tr.begin_named("durable.open");
        let (t, report) = DurableTable::open(&builder)?;
        let open_s = tr.end(span) as f64 / 1e9;
        ck.fact("snapshot entries loaded", report.snapshot_entries, n as u64);
        ck.fact("log ops replayed", report.replayed_ops, n as u64);
        ck.fact("entries after reopen", t.len_shared() as u64, 2 * n as u64);
        let append_ns = total as f64 / appends as f64;
        Ok([
            append_ns,
            percentile(&mut sync_us, 0.5),
            percentile(&mut sync_us, 0.99),
            snapshot_s,
            open_s,
        ])
    })();
    match measured {
        Ok([append, p50, p99, snapshot_s, open_s]) => {
            v.set("durable.file_append_ns", append);
            v.set("durable.file_sync_p50_us", p50);
            v.set("durable.file_sync_p99_us", p99);
            v.set("durable.snapshot_s", snapshot_s);
            v.set("durable.open_s", open_s);
        }
        Err(e) => ck.error("durable files", e),
    }
}

/// A textbook join, what anyone would write: a slot array indexed by
/// `key % capacity`, linear probing, one tuple at a time.
fn naive_join(build: &[(u64, u64)], probe: &[(u64, u64)]) -> Vec<(u64, u64, u64)> {
    let capacity = (build.len() * 2).next_power_of_two();
    let mut slots: Vec<Option<(u64, u64)>> = vec![None; capacity];
    for &(k, payload) in build {
        let mut at = (k % capacity as u64) as usize;
        while slots[at].is_some() {
            at = (at + 1) % capacity;
        }
        slots[at] = Some((k, payload));
    }
    let mut rows = Vec::new();
    for &(k, payload) in probe {
        let mut at = (k % capacity as u64) as usize;
        while let Some((held, build_payload)) = slots[at] {
            if held == k {
                rows.push((k, build_payload, payload));
                break;
            }
            at = (at + 1) % capacity;
        }
    }
    rows
}

fn queries(i: &In, o: &mut Out) {
    let (inp, tr, ck, v) = (&i.inp, &mut *o.tr, &mut *o.ck, &mut o.v);
    let q = QueryInput::new(inp.r.clone(), &inp.half, i.sh.rows_per_group);
    let tuples = (q.r.len() + q.s.len()) as f64;
    let builder = kernel_builder(TableScheme::LinearProbing, bits_for(q.r.len()), inp.seed);

    let mut table = builder.build();
    let span = tr.begin_named("query.hash_join");
    let joined = hash_join(&mut table, &q.r, &q.s);
    let join_ns = tr.end(span) as f64;
    drop(table);
    let rows = joined.map(|out| out.rows).unwrap_or_default();
    ck.fact("join rows", rows.len() as u64, q.matches as u64);
    v.set("query.join_ns_per_tuple", join_ns / tuples);

    let span = tr.begin_named("query.naive_join");
    let naive = naive_join(&q.r, &q.s);
    let naive_ns = tr.end(span) as f64;
    ck.fact("the naive join agrees", (naive == rows) as u64, 1);
    v.set("query.naive_join_ns_per_tuple", naive_ns / tuples);
    v.set("query.join_vs_naive_ratio", join_ns / naive_ns);

    let span = tr.begin_named("query.hash_join_parallel");
    let parallel = hash_join_parallel(&builder, &q.r, &q.s, 2);
    let parallel_ns = tr.end(span);
    ck.fact(
        "parallel join rows",
        parallel.map_or(0, |out| out.rows.len()) as u64,
        q.matches as u64,
    );
    v.set("query.join_parallel_2t_mops", mops(tuples as usize, parallel_ns));

    let mut table =
        kernel_builder(TableScheme::LinearProbing, bits_for(q.distinct_groups), inp.seed).build();
    let span = tr.begin_named("query.group_aggregate");
    let groups = group_aggregate(&mut table, &q.rows, AggFn::Sum);
    let agg_ns = tr.end(span) as f64;
    ck.fact("aggregate groups", groups.map_or(0, |g| g.len()) as u64, q.distinct_groups as u64);
    v.set("query.agg_ns_per_row", agg_ns / q.rows.len() as f64);
}

/// The `7DKV` codec with no socket: each step alone over the hit
/// stream, then the whole path a GET takes — encode, decode, execute on
/// the stack, encode, decode — a window at a time. Returns that path's
/// ns per GET.
fn codec(i: &In, o: &mut Out) -> f64 {
    let (inp, sh, tr, ck, v) = (&i.inp, &i.sh, &mut *o.tr, &mut *o.ck, &mut o.v);
    let keys = &inp.hit;
    let n = keys.len() as f64;
    let table = stack(sh.bits, inp.seed);
    inserts((tr, ck), "core.sharded.insert_batch_shared", &inp.r, sh.batch, |c, o| {
        table.insert_batch_shared(c, o)
    });
    let names = [
        "net.codec.window",
        "net.protocol.encode_request",
        "net.protocol.decode_request",
        "core.sharded.lookup_batch_shared.optimistic",
        "net.protocol.encode_response",
        "net.protocol.decode_response",
    ]
    .map(|name| tr.name(name));
    let n_batch = tr.name("net.protocol.encode_request.batch");
    let mut totals = [0u64; 6];
    let (mut wire, mut back) = (Vec::new(), Vec::new());
    let mut decoded = Vec::with_capacity(sh.batch);
    let mut found = vec![None; sh.batch];
    let (mut bytes, mut batch_ns) = (0, 0);
    for (w, chunk) in keys.chunks(sh.batch).enumerate() {
        let w = w as u32;
        let whole = tr.begin(names[0], None, w);
        wire.clear();
        let part = tr.begin(names[1], Some(&whole), w);
        for (i, &k) in chunk.iter().enumerate() {
            encode_request(i as u64, &Request::Get(k), &mut wire);
        }
        totals[1] += tr.end(part);
        decoded.clear();
        let part = tr.begin(names[2], Some(&whole), w);
        let mut at = 0;
        while let Ok(Some((_, Request::Get(k), used))) = decode_request(&wire[at..]) {
            decoded.push(k);
            at += used;
        }
        totals[2] += tr.end(part);
        let found = &mut found[..decoded.len()];
        let part = tr.begin(names[3], Some(&whole), w);
        table.lookup_batch_shared(&decoded, found);
        totals[3] += tr.end(part);
        back.clear();
        let part = tr.begin(names[4], Some(&whole), w);
        for (i, &value) in found.iter().enumerate() {
            encode_response(i as u64, &Response::Get(value), &mut back);
        }
        totals[4] += tr.end(part);
        let part = tr.begin(names[5], Some(&whole), w);
        let (mut at, mut i) = (0, 0);
        while let Ok(Some((_, Response::Get(value), used))) = decode_response(&back[at..]) {
            found[i] = value;
            (at, i) = (at + used, i + 1);
        }
        totals[5] += tr.end(part);
        totals[0] += tr.end(whole);
        ck.fact("frames through the codec", i as u64, chunk.len() as u64);
        ck.lookups(chunk, found);
        bytes += wire.len() + back.len();

        let ops: Vec<Op> = chunk.iter().map(|&k| Op::Get(k)).collect();
        wire.clear();
        let span = tr.begin(n_batch, None, w);
        encode_request(w as u64, &Request::Batch(ops), &mut wire);
        batch_ns += tr.end(span);
    }
    v.set("net.protocol.encode_request_ns", totals[1] as f64 / n);
    v.set("net.protocol.decode_request_ns", totals[2] as f64 / n);
    v.set("net.protocol.encode_response_ns", totals[4] as f64 / n);
    v.set("net.protocol.decode_response_ns", totals[5] as f64 / n);
    v.set("net.protocol.batch_encode_ns", batch_ns as f64 / n);
    v.set("net.protocol.bytes_per_get", bytes as f64 / n);
    totals[0] as f64 / n
}

/// Open-loop target: 200 k ops/s in bursts of 16, one every 80 us.
const OPEN_BURST: usize = 16;
const OPEN_PERIOD: Duration = Duration::from_micros(80);

fn loopback(i: &In, o: &mut Out, codec_ns: f64) {
    let (inp, sh, cfg) = (&i.inp, &i.sh, i.cfg);
    let (tr, ck, v) = (&mut *o.tr, &mut *o.ck, &mut o.v);
    let table = std::sync::Arc::new(stack(sh.bits, inp.seed));
    inserts((tr, ck), "core.sharded.insert_batch_shared", &inp.r, sh.batch, |c, o| {
        table.insert_batch_shared(c, o)
    });
    let spans = ClientSpans::register(tr);
    let mut gets = Phase::default();
    for &k in &inp.hit {
        gets.push((Op::Get(k), OpResponse::Get(Some(value_of(k, 0)))));
    }
    let connected =
        serve(table, 1).and_then(|server| Ok((KvClient::connect(server.addr())?, server)));
    let (mut client, server) = match connected {
        Ok(pair) => pair,
        Err(e) => return ck.error("server start", e),
    };
    let before = |tr: &Tracer, name| tr.totals(name).map_or(0, |t| t.total_ns);
    let base = ["net.client.enqueue", "net.client.flush", "net.client.recv"].map(|n| before(tr, n));

    // Windows of the workload's size.
    let warmup = 16.min(gets.ops.len() / sh.batch / 4);
    let windows =
        run_windows(std::slice::from_mut(&mut client), &[&gets], sh.batch, warmup, spans, tr, ck);
    let per_op = |name, base: u64| (before(tr, name) - base) as f64 / windows.ops as f64;
    v.set("net.client.enqueue_ns", per_op("net.client.enqueue", base[0]));
    v.set("net.client.recv_ns", per_op("net.client.recv", base[2]));
    let flush_ns = (before(tr, "net.client.flush") - base[1]) as f64;
    v.set("net.client.flush_us_per_window", flush_ns / windows.window_us.len() as f64 / 1e3);
    let windowed = windows.wall_ns as f64 / windows.ops as f64;
    v.set("net.server.loopback_get_ns", windowed);
    v.set("net.server.delta_ns", windowed - codec_ns);

    // One frame at a time.
    let singles = Phase {
        ops: gets.ops[..cfg.scale.of(4096, 64)].to_vec(),
        want: gets.want[..cfg.scale.of(4096, 64)].to_vec(),
    };
    let warmup = singles.ops.len() / 8;
    let one = run_windows(std::slice::from_mut(&mut client), &[&singles], 1, warmup, spans, tr, ck);
    v.set("net.server.w1_vs_w256_ratio", one.wall_ns as f64 / one.ops as f64 / windowed);

    // The same GETs as one BATCH frame per window.
    let n_batch = tr.name("net.client.batch");
    let mut batch_ns = 0;
    for (w, (ops, want)) in gets.ops.chunks(sh.batch).zip(gets.want.chunks(sh.batch)).enumerate() {
        let span = tr.begin(n_batch, None, w as u32);
        let answered = client.batch(ops);
        batch_ns += tr.end(span);
        match answered {
            Ok(got) => got.iter().zip(want).for_each(|(&g, &w)| ck.op("batch answer", g, w)),
            Err(e) => return ck.error("batch frame", e),
        }
    }
    v.set("net.server.batch_frame_ns", batch_ns as f64 / gets.ops.len() as f64);

    // Open loop: each burst is due on a schedule and timed from when it
    // was due, so a stall counts against every burst it delays.
    let bursts = cfg.scale.of(6250, 1).min(gets.ops.len() / OPEN_BURST);
    let n_burst = tr.name("net.client.open_burst");
    let (mut latency_us, mut late_max) = (Vec::with_capacity(bursts * OPEN_BURST), Duration::ZERO);
    let started = Instant::now();
    'bursts: for (b, (ops, want)) in
        gets.ops.chunks(OPEN_BURST).zip(gets.want.chunks(OPEN_BURST)).take(bursts).enumerate()
    {
        let due = started + OPEN_PERIOD * b as u32;
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        late_max = late_max.max(due.elapsed());
        let span = tr.begin(n_burst, None, b as u32);
        ops.iter().for_each(|&op| {
            client.enqueue(&request(op));
        });
        let mut answered = client.flush();
        for &w in want {
            match answered.and_then(|()| client.recv()) {
                Ok((_, Response::Get(value))) => {
                    ck.op("open-loop answer", OpResponse::Get(value), w)
                }
                Ok(_) => ck.error("open loop", "not a GET answer"),
                Err(e) => {
                    ck.error("open loop", e);
                    break 'bursts;
                }
            }
            latency_us.push(due.elapsed().as_nanos() as f64 / 1e3);
            answered = Ok(());
        }
        tr.end(span);
    }
    let achieved = mops_of(latency_us.len(), started.elapsed());
    let target = OPEN_BURST as f64 / OPEN_PERIOD.as_secs_f64() / 1e6;
    v.set("net.server.open_achieved_ratio", achieved / target);
    v.set("net.server.open_late_max_us", late_max.as_nanos() as f64 / 1e3);
    if !latency_us.is_empty() {
        v.set("net.server.open_p50_us", percentile(&mut latency_us, 0.5));
        v.set("net.server.open_p99_us", percentile(&mut latency_us, 0.99));
    }
    drop(client);
    let (frames, ops) = stop(server, ck);
    v.set("net.server.ops_per_frame", ops as f64 / frames.max(1) as f64);
}

/// The top rung: the workload's own repetition, untraced and then
/// traced on the same inputs. Their ratio is the tracing overhead.
fn the_workload_itself(i: &In, o: &mut Out) -> Vec<(&'static str, u64)> {
    let (workload, cfg, pass) = (i.workload, i.cfg, i.pass);
    let (tr, ck, v) = (&mut *o.tr, &mut *o.ck, &mut o.v);
    let cfg = RunCfg { flip_check: None, ..cfg.clone() };
    let started = Instant::now();
    (workload.rep)(&cfg, pass, &mut Tracer::new(false), ck);
    let untraced = started.elapsed();
    let (cpu, started) = (host::cpu_ns(), Instant::now());
    let rep = (workload.rep)(&cfg, pass, tr, ck);
    let traced = started.elapsed();
    let ops: u64 = rep.ops.iter().map(|&(_, n)| n).sum();
    v.set("e2e.rtt_p99_us", rep.tails_us[0]);
    v.set("e2e.write_batch_p99_us", rep.tails_us[1]);
    v.set("trace.overhead_ratio", traced.as_secs_f64() / untraced.as_secs_f64());
    v.set("host.cpu_ns_per_op", (host::cpu_ns() - cpu) as f64 / ops as f64);
    v.set("host.peak_rss_mib", host::peak_rss_mib());
    rep.ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_naive_join_is_a_join() {
        let build = [(1, 10), (17, 20), (33, 30)];
        let probe = [(17, 0), (2, 1), (33, 2), (1, 3)];
        assert_eq!(naive_join(&build, &probe), vec![(17, 20, 0), (33, 30, 2), (1, 10, 3)]);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().chain(&END_TO_END).map(|d| d.name).collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len() + END_TO_END.len());
        assert!(PER_LAYER.len() <= 128);
    }

    /// A smoke-scale pass sets every registered metric to a number and
    /// fails no check.
    #[test]
    fn a_pass_reports_every_per_layer_metric() {
        for workload in &crate::workloads::ALL {
            let cfg = RunCfg {
                seed: 5,
                seconds: 0.001,
                scale: Scale::SMOKE,
                threads: host::generator_threads(),
                flip_check: None,
            };
            let name = workload.name;
            let out = run(workload, &cfg);
            assert_eq!(out.ck.failed, 0, "{name}: {:?}", out.ck.first_failure);
            for (def, value) in &out.layers {
                assert!(value.is_finite(), "{name}: {} is {value}", def.name);
            }
            assert!(out.tracer.totals("net.client.window").is_some_and(|t| t.count > 0));
        }
    }
}
