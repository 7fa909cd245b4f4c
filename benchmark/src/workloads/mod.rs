//! The four workloads. Each exposes `shape` (its sizes at a scale) and
//! `rep` (one repetition: set up from the seed, run fixed op counts,
//! check every answer, return the end-to-end values).

pub mod kv;
pub mod kv_cached;
pub mod kv_durable;
pub mod mem_rw;
pub mod mem_worm;

use crate::common::{Checker, E2e, RunCfg, Scale};
use crate::trace::Tracer;

/// The sizes that make a workload's stream what it is. The traced run
/// pushes a stream of this shape through every rung of the ladder.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Capacity bits of the stack at the workload's steady size.
    pub bits: u8,
    /// Resident keys at that size.
    pub resident: usize,
    /// Keys of one read phase.
    pub reads: usize,
    /// Keys per table call, and frames per network window.
    pub batch: usize,
    /// Rows of the probe stream aggregated into one group (see
    /// `QueryInput::new`).
    pub rows_per_group: u64,
}

/// What one repetition measured.
pub struct Rep {
    pub e2e: E2e,
    /// The two demoted tail latencies: `rtt_p99_us` and
    /// `write_batch_p99_us`, reported per layer as `e2e.*`.
    pub tails_us: [f64; 2],
    pub input_digest: u64,
    /// Fixed op counts of the repetition, by phase.
    pub ops: Vec<(&'static str, u64)>,
    /// Samples behind each percentile.
    pub samples: Vec<(&'static str, u64)>,
    /// Per-layer numbers only this workload's own run can supply.
    pub extras: Vec<(&'static str, f64)>,
    /// Generator threads or connections actually used.
    pub threads: usize,
}

/// A workload: its name, why it is here (one line, for
/// `BENCHMARK.json`), its sizes at a scale, and one repetition of it.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: fn(Scale) -> Shape,
    pub rep: fn(&RunCfg, u64, &mut Tracer, &mut Checker) -> Rep,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "mem_worm",
        why: "in-process, 1 thread, table far above L2: build, probe at 100/50/0 % hits, join and aggregate; probe kernels and the sharded read wrappers do the work",
        shape: mem_worm::shape,
        rep: mem_worm::rep,
    },
    Workload {
        name: "mem_rw",
        why: "in-process, 2 threads on one growing table, 25 % updates: tombstones, incremental doubling, retired generations and shard write locks do the work",
        shape: mem_rw::shape,
        rep: mem_rw::rep,
    },
    Workload {
        name: "kv_cached",
        why: "loopback server, 1 worker, 1 connection, table inside L2, windows of 256 and of 1: codec, syscalls, run segmentation and the event loop do the work",
        shape: kv_cached::shape,
        rep: kv_cached::rep,
    },
    Workload {
        name: "kv_durable",
        why: "loopback server, 2 workers over a write-ahead-logged table on a fixed-cost device, windows of 16: the commit protocol and the device wait do the work",
        shape: kv_durable::shape,
        rep: kv_durable::rep,
    },
];
