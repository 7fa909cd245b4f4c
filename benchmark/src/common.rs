//! What every workload shares: the metric registry, the run
//! configuration, the served table, and the oracle's bookkeeping.

use crate::gen::{is_resident, value_of};
use sevendim_core::{
    BoxedTable, ConcurrentTable, HashKind, HashTable, InsertOutcome, ShardedTable, TableBuilder,
    TableError, TableScheme,
};

/// Which way a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before it
    /// counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

/// Indices into a repetition's end-to-end values.
pub const SETUP_S: usize = 0;
pub const READ_MOPS: usize = 1;
pub const WRITE_MOPS: usize = 2;
pub const MIXED_MOPS: usize = 3;
pub const JOIN_MOPS: usize = 4;
pub const AGG_MOPS: usize = 5;
pub const RTT_P50_US: usize = 6;
pub const BYTES_PER_ENTRY: usize = 7;
pub const WAL_BYTES_PER_OP: usize = 8;
pub const RECOVER_MOPS: usize = 9;

/// Bound of every metric that is a time or a rate. The issue asked for
/// 10 % (20 % on the 99th percentiles), but on this shared two-core VM
/// ten runs of identical code spread 5-12 % on every timed metric
/// whatever is measured — in or out of cache, one thread or two — and
/// drift by as much again between sets of runs (see the README). The
/// contract wants each spread within its bound, and below a third of it
/// if possible, and caps a bound at a quarter.
const TIMED: f64 = 0.25;

/// Bound of a metric that is a count of bytes: it repeats exactly.
const COUNTED: f64 = 0.01;

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
/// Every workload reports every one (see the README's cell table for
/// what each means where). The issue's other two, `rtt_p99_us` and
/// `write_batch_p99_us`, spread 21-23 % over ten identical runs — too
/// close to the cap to stand behind a bound — and are per-layer
/// diagnostics (`e2e.*`), as the issue rules for a metric that cannot
/// meet its bound.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Better::Lower, TIMED),
    e2e("read_mops", "Mops/s", Better::Higher, TIMED),
    e2e("write_mops", "Mops/s", Better::Higher, TIMED),
    e2e("mixed_mops", "Mops/s", Better::Higher, TIMED),
    e2e("join_mops", "Mtuples/s", Better::Higher, TIMED),
    e2e("agg_mops", "Mrows/s", Better::Higher, TIMED),
    e2e("rtt_p50_us", "us", Better::Lower, TIMED),
    e2e("bytes_per_entry", "B", Better::Lower, COUNTED),
    e2e("wal_bytes_per_op", "B", Better::Lower, COUNTED),
    e2e("recover_mops", "Mops/s", Better::Higher, TIMED),
];

pub type E2e = [f64; END_TO_END.len()];

/// `--scale`: every op count is the full count divided by this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    pub const FULL: Scale = Scale(1);
    pub const SMOKE: Scale = Scale(64);

    pub fn name(self) -> &'static str {
        if self == Scale::FULL {
            "full"
        } else {
            "smoke"
        }
    }

    /// `full / divisor`, kept a multiple of `unit` and at least `unit`.
    pub fn of(self, full: usize, unit: usize) -> usize {
        ((full / self.0 as usize) / unit).max(1) * unit
    }

    /// Table capacity bits scaled with the entry count they hold.
    pub fn bits(self, full: u8) -> u8 {
        full - self.0.trailing_zeros() as u8
    }
}

#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Repetitions start while less than this much time has passed.
    pub seconds: f64,
    pub scale: Scale,
    /// Generator threads or connections: `min(nproc, 2)`.
    pub threads: usize,
    /// Fault injection for the oracle's own test: corrupt the expected
    /// value of this check (counted from 0).
    pub flip_check: Option<u64>,
}

/// The served configuration: what "the stack" means everywhere — 8
/// shards, each a growing `DynamicTable` over linear probing with
/// multiply-shift hashing, lock-free reads on.
pub fn stack(bits: u8, seed: u64) -> ShardedTable<BoxedTable> {
    stack_builder(bits, seed).build_sharded()
}

pub fn stack_builder(bits: u8, seed: u64) -> TableBuilder {
    TableBuilder::new(TableScheme::LinearProbing)
        .hash(HashKind::Mult)
        .bits(bits)
        .seed(seed)
        .concurrency(2)
        .grow_at(0.7)
        .incremental(64)
        .optimistic_reads(true)
}

/// The raw probe kernel: one fixed-capacity table, no wrapper.
pub fn kernel_builder(scheme: TableScheme, bits: u8, seed: u64) -> TableBuilder {
    TableBuilder::new(scheme).hash(HashKind::Mult).bits(bits).seed(seed)
}

/// Bytes the table owns (retired generations are in `memory_bytes`,
/// once) per live entry.
pub fn bytes_per_entry(table: &ShardedTable<BoxedTable>) -> f64 {
    table.memory_bytes() as f64 / table.len_shared().max(1) as f64
}

pub fn mops(ops: usize, ns: u64) -> f64 {
    ops as f64 * 1e3 / ns.max(1) as f64
}

/// The model oracle's tally. Every answer the program gives is checked
/// against what the model says it must be; nothing is sampled.
#[derive(Clone, Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    flip_check: Option<u64>,
}

impl Checker {
    pub fn new(flip_check: Option<u64>) -> Self {
        Self { flip_check, ..Default::default() }
    }

    /// A checker for another thread, folded back in with
    /// [`Checker::absorb`]. The first fork takes the injected fault with
    /// it, counted from where this checker stands.
    pub fn fork(&mut self) -> Checker {
        Checker::new(self.flip_check.take().and_then(|f| f.checked_sub(self.attempted)))
    }

    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    #[cold]
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// One operation whose answer was `got` and must be `want`.
    #[inline]
    pub fn op<T: PartialEq + std::fmt::Debug + Flip>(&mut self, what: &str, got: T, want: T) {
        let want = if self.flip_check == Some(self.attempted) { want.flipped() } else { want };
        self.attempted += 1;
        if got != want {
            self.fail(|| format!("{what}: got {got:?}, the model says {want:?}"));
        }
    }

    /// A whole-phase fact (a count, a sum): no operation of its own, so
    /// it adds to `failed` only.
    pub fn fact(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.fail(|| format!("{what}: got {got}, the model says {want}"));
        }
    }

    /// An operation that could not be carried out at all.
    pub fn error(&mut self, what: &str, err: impl std::fmt::Display) {
        self.attempted += 1;
        self.fail(|| format!("{what}: {err}"));
    }

    /// Lookups of keys whose residents all hold their version-0 value.
    pub fn lookups(&mut self, keys: &[u64], got: &[Option<u64>]) {
        for (&k, &g) in keys.iter().zip(got) {
            self.op("lookup", g, is_resident(k).then(|| value_of(k, 0)));
        }
    }

    /// Inserts of fresh keys: each must report `Inserted`.
    pub fn fresh_inserts(&mut self, got: &[Result<InsertOutcome, TableError>]) {
        for &g in got {
            self.op("insert", g, Ok(InsertOutcome::Inserted));
        }
    }

    /// Deletes of live version-0 keys: each must return the value.
    pub fn deletes(&mut self, keys: &[u64], got: &[Option<u64>]) {
        for (&k, &g) in keys.iter().zip(got) {
            self.op("delete", g, Some(value_of(k, 0)));
        }
    }
}

/// How the fault-injection test corrupts an expected answer.
pub trait Flip {
    fn flipped(self) -> Self;
}

impl Flip for Option<u64> {
    fn flipped(self) -> Self {
        Some(self.map_or(0, |v| v ^ 1))
    }
}

impl Flip for Result<InsertOutcome, TableError> {
    fn flipped(self) -> Self {
        match self {
            Ok(InsertOutcome::Inserted) => Ok(InsertOutcome::Replaced(0)),
            _ => Ok(InsertOutcome::Inserted),
        }
    }
}

impl Flip for sevendim_net::protocol::OpResponse {
    fn flipped(self) -> Self {
        use sevendim_net::protocol::OpResponse::*;
        match self {
            Get(v) => Get(v.flipped()),
            Put(r) => Put(r.flipped()),
            Del(v) => Del(v.flipped()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_keeps_units_and_bits() {
        assert_eq!(Scale::FULL.of(2_500_000, 256), 2_499_840);
        assert_eq!(Scale::SMOKE.of(2_097_152, 256), 32_768);
        assert_eq!(Scale::SMOKE.of(100, 256), 256);
        assert_eq!(Scale::SMOKE.bits(22), 16);
        assert_eq!(Scale::FULL.bits(22), 22);
    }

    #[test]
    fn checker_counts_and_flips_exactly_one() {
        let mut ck = Checker::new(Some(1));
        ck.op("a", Some(1u64), Some(1));
        ck.op("b", Some(2u64), Some(2)); // the flipped one
        ck.op("c", None::<u64>, None);
        assert_eq!((ck.attempted, ck.failed), (3, 1));
        assert!(ck.first_failure.as_deref().unwrap().starts_with("b:"));
        let mut other = Checker::new(None);
        other.error("io", "boom");
        other.fact("count", 3, 4);
        ck.absorb(other);
        assert_eq!((ck.attempted, ck.failed), (4, 3));
    }

    #[test]
    fn the_stack_is_eight_growing_shards_with_lock_free_reads() {
        let t = stack(12, 1);
        assert_eq!(t.num_shards(), 8);
        assert!(t.optimistic_reads());
        for i in 0..10_000u64 {
            t.insert_shared(i * 2 + 1, i).unwrap();
        }
        assert_eq!(t.len_shared(), 10_000);
        assert!(t.capacity() > 1 << 12, "the stack must grow");
        assert!(bytes_per_entry(&t) >= 16.0);
    }
}
