//! The read-write (RW) workload (paper §6).
//!
//! A long stream of operations in random order over a growing table:
//!
//! * a configurable **update percentage** (the x-axis of Figure 5) splits
//!   operations into updates and lookups;
//! * updates are inserts and deletes at **4:1** (20% deletions, all
//!   successful);
//! * lookups are successful and unsuccessful at **3:1** (25% misses).
//!
//! The paper runs 1000 M operations starting from 16 M keys (≈47% initial
//! load). Both sizes are configurable here; the defaults are scaled to
//! laptop budgets and the figure binaries accept `--scale paper`.
//!
//! The stream is produced in chunks by [`RwStream`], which maintains the
//! live-key model (what's inserted and not yet deleted) so that delete
//! targets and successful-lookup keys are always valid *at their position
//! in the stream*. Execution therefore measures pure table work.
//!
//! Fresh insert keys come from the Murmur finalizer applied to a counter —
//! a bijection, so keys never repeat — placing the RW key distribution in
//! the paper's "sparse" regime (§6 presents sparse only). Miss keys come
//! from a disjoint counter region.

use hashfn::Murmur;
use metrics::Throughput;
use rand::{rngs::StdRng, Rng, SeedableRng};
use sevendim_core::{HashTable, InsertOutcome, TableError};

/// One operation of the RW stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RwOp {
    /// Insert a fresh key (never seen before).
    Insert(u64),
    /// Delete a key currently in the table (always successful).
    Delete(u64),
    /// Look up a key currently in the table (must hit).
    LookupHit(u64),
    /// Look up a key never inserted (must miss).
    LookupMiss(u64),
}

/// Configuration of an RW run.
#[derive(Clone, Copy, Debug)]
pub struct RwConfig {
    /// Keys inserted before the measured stream starts (paper: 16 M).
    pub initial_keys: usize,
    /// Operations in the measured stream (paper: 1000 M).
    pub operations: usize,
    /// Percentage of operations that are updates (Figure 5 sweeps
    /// 0, 5, 25, 50, 75, 100).
    pub update_pct: u8,
    /// Seed for the operation mix.
    pub seed: u64,
}

impl RwConfig {
    /// The update percentages on Figure 5's x-axis.
    pub const UPDATE_PCTS: [u8; 6] = [0, 5, 25, 50, 75, 100];
}

/// Generates the operation stream chunk by chunk while tracking the
/// live-key model.
pub struct RwStream {
    cfg: RwConfig,
    rng: StdRng,
    /// Keys currently in the table (model).
    live: Vec<u64>,
    /// Counter for fresh insert keys (bijectively mixed).
    next_insert: u64,
    /// Counter for never-inserted miss keys.
    next_miss: u64,
    generated: usize,
}

/// Insert keys come from mixing counters in `[0, 2^62)`; miss keys from
/// `[2^62, 2^63)` — disjoint by construction, and the Murmur finalizer is
/// a bijection, so the two key populations can never collide.
const MISS_REGION: u64 = 1 << 62;

/// Escape region for counters whose mixed key is illegal: finalizer
/// inputs in `[3·2^62, 2^64)`, strictly above every `counter + 1` a
/// stream can produce (`≤ 2^63`), so escape keys can never collide with
/// any regular key — the finalizer is a bijection over disjoint input
/// ranges.
const ESCAPE_REGION: u64 = 0b11 << 62;

/// Whether a mixed key is usable as a table key (nonzero, not a reserved
/// control value).
#[inline]
fn key_is_legal(k: u64) -> bool {
    k != 0 && k < u64::MAX - 1
}

/// Map a counter to a fresh key: the Murmur finalizer over `counter + 1`
/// (a bijection, so keys never repeat), with a **provably disjoint**
/// escape for the three counters whose mixed key is illegal (the unique
/// preimages of `0`, `u64::MAX - 1`, and `u64::MAX`).
///
/// Each illegal output identifies its one bad counter, so retrying on a
/// per-output lane of [`ESCAPE_REGION`] (stride 3 keeps the lanes
/// disjoint) stays injective over all counters; the escape inputs sit
/// above every regular `counter + 1`, so the retried keys cannot collide
/// with any other counter's key. The previous escape re-mixed
/// `k ^ CONST`, whose preimage could be another counter (breaking the
/// keys-never-repeat guarantee) or itself illegal.
fn fresh_key(counter: u64) -> u64 {
    // Disjointness needs `counter + 1 < ESCAPE_REGION`: the finalizer
    // input must sit strictly below every escape input.
    debug_assert!(counter + 1 < ESCAPE_REGION, "counter {counter:#x} reaches the escape region");
    let k = Murmur::fmix64(counter.wrapping_add(1));
    if key_is_legal(k) {
        return k;
    }
    let lane = match k {
        0 => 0u64,
        k if k == u64::MAX - 1 => 1,
        _ => 2,
    };
    let mut j = lane;
    loop {
        let k = Murmur::fmix64(ESCAPE_REGION + j);
        if key_is_legal(k) {
            return k;
        }
        j += 3;
    }
}

impl RwStream {
    /// Create a stream for `cfg`. Call [`RwStream::initial_keys`] first to
    /// pre-populate the table, then [`RwStream::next_chunk`] repeatedly.
    pub fn new(cfg: RwConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x8B_1005_77EA),
            cfg,
            live: Vec::new(),
            next_insert: 0,
            next_miss: MISS_REGION,
            generated: 0,
        }
    }

    /// The keys to insert before measurement begins (also recorded in the
    /// live model).
    pub fn initial_keys(&mut self) -> Vec<u64> {
        let keys: Vec<u64> = (0..self.cfg.initial_keys)
            .map(|_| {
                let k = fresh_key(self.next_insert);
                self.next_insert += 1;
                k
            })
            .collect();
        self.live.extend_from_slice(&keys);
        keys
    }

    /// Operations remaining in the configured stream.
    pub fn remaining(&self) -> usize {
        self.cfg.operations - self.generated
    }

    /// Current live-key count in the model.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Produce the next chunk of at most `max_len` operations, or `None`
    /// when the stream is exhausted.
    pub fn next_chunk(&mut self, max_len: usize) -> Option<Vec<RwOp>> {
        if self.remaining() == 0 {
            return None;
        }
        let len = max_len.min(self.remaining());
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let op = self.gen_op();
            ops.push(op);
        }
        self.generated += len;
        Some(ops)
    }

    fn gen_op(&mut self) -> RwOp {
        let is_update = self.rng.gen_range(0..100u8) < self.cfg.update_pct;
        if is_update {
            // Insert : delete = 4 : 1.
            if self.rng.gen_range(0..5u8) < 4 || self.live.is_empty() {
                let k = fresh_key(self.next_insert);
                self.next_insert += 1;
                self.live.push(k);
                RwOp::Insert(k)
            } else {
                let idx = self.rng.gen_range(0..self.live.len());
                let k = self.live.swap_remove(idx);
                RwOp::Delete(k)
            }
        } else {
            // Successful : unsuccessful = 3 : 1.
            if self.rng.gen_range(0..4u8) < 3 && !self.live.is_empty() {
                let idx = self.rng.gen_range(0..self.live.len());
                RwOp::LookupHit(self.live[idx])
            } else {
                let k = fresh_key(self.next_miss);
                self.next_miss += 1;
                RwOp::LookupMiss(k)
            }
        }
    }
}

/// The three table entry points an [`RwOp`] can map to; lookups collapse
/// hits and misses because both are reads.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Insert,
    Delete,
    Lookup,
}

fn kind_of(op: &RwOp) -> OpKind {
    match op {
        RwOp::Insert(_) => OpKind::Insert,
        RwOp::Delete(_) => OpKind::Delete,
        RwOp::LookupHit(_) | RwOp::LookupMiss(_) => OpKind::Lookup,
    }
}

/// Scratch buffers reused across [`run_chunk`] runs so the measured loop
/// never allocates.
struct RunBuffers {
    items: Vec<(u64, u64)>,
    outcomes: Vec<Result<InsertOutcome, TableError>>,
    keys: Vec<u64>,
    values: Vec<Option<u64>>,
}

/// Execute a chunk against a table, verifying every operation's outcome
/// against the model's expectation. Returns the chunk throughput.
///
/// The stream is executed through the batch API: maximal runs of
/// same-kind operations (both lookup flavours count as one kind) become
/// one `*_batch` call each. Batches preserve element order and are
/// semantically identical to the single-key loop, and operations of
/// *different* kinds are never reordered — a `LookupHit` of a key
/// inserted earlier in the same chunk still sees it — so the executed
/// stream is exactly the generated one. The paper's RW mix yields long
/// lookup runs at low update percentages (where batching pays most) and
/// short runs when updates dominate, mirroring how a real engine can only
/// batch between write barriers.
pub fn run_chunk<T: HashTable>(table: &mut T, ops: &[RwOp]) -> Result<Throughput, TableError> {
    let mut failure = Ok(());
    let mut checksum = 0u64;
    let mut buf = RunBuffers {
        items: Vec::with_capacity(ops.len()),
        outcomes: Vec::with_capacity(ops.len()),
        keys: Vec::with_capacity(ops.len()),
        values: Vec::with_capacity(ops.len()),
    };
    let throughput = Throughput::measure(ops.len() as u64, || {
        let mut start = 0usize;
        while start < ops.len() {
            let kind = kind_of(&ops[start]);
            let mut end = start + 1;
            while end < ops.len() && kind_of(&ops[end]) == kind {
                end += 1;
            }
            let run = &ops[start..end];
            if let Err(e) = execute_run(table, kind, run, &mut buf, &mut checksum) {
                failure = Err(e);
                return;
            }
            start = end;
        }
    });
    std::hint::black_box(checksum);
    failure.map(|()| throughput)
}

/// [`run_chunk`] with per-operation latency instrumentation: the chunk
/// executes through the single-key API — per-op latency needs per-op
/// boundaries, so batching is off by construction — and every **insert**
/// reports its wall-clock latency (nanoseconds) to `observe_insert`,
/// together with a post-operation view of the table. Inserts are the
/// class that pays for growth (a rehash stalls exactly one insert under
/// stop-the-world growth, a bounded drain under incremental growth), so
/// the simplest observer is a histogram —
/// `|_, nanos| hist.record(nanos)` — while the `growth_tail` bench uses
/// the table view to classify growth-phase inserts. Model expectations
/// are verified like [`run_chunk`]'s (debug builds); the returned
/// [`Throughput`] covers all operations of the chunk.
pub fn run_chunk_instrumented<T: HashTable>(
    table: &mut T,
    ops: &[RwOp],
    mut observe_insert: impl FnMut(&T, u64),
) -> Result<Throughput, TableError> {
    let mut failure = Ok(());
    let mut checksum = 0u64;
    let throughput = Throughput::measure(ops.len() as u64, || {
        for op in ops {
            match *op {
                RwOp::Insert(k) => {
                    let start = std::time::Instant::now();
                    let r = table.insert(k, k);
                    let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    observe_insert(table, nanos);
                    if let Err(e) = r {
                        failure = Err(e);
                        return;
                    }
                }
                RwOp::Delete(k) => {
                    let v = table.delete(k);
                    debug_assert!(v.is_some(), "delete of live key {k} missed");
                    if let Some(v) = v {
                        checksum ^= v;
                    }
                }
                RwOp::LookupHit(k) => {
                    let v = table.lookup(k);
                    debug_assert!(v.is_some(), "lookup of live key {k} missed");
                    if let Some(v) = v {
                        checksum ^= v;
                    }
                }
                RwOp::LookupMiss(k) => {
                    let v = table.lookup(k);
                    debug_assert!(v.is_none(), "phantom hit for {k}");
                    if let Some(v) = v {
                        checksum ^= v;
                    }
                }
            }
        }
    });
    std::hint::black_box(checksum);
    failure.map(|()| throughput)
}

fn execute_run<T: HashTable>(
    table: &mut T,
    kind: OpKind,
    run: &[RwOp],
    buf: &mut RunBuffers,
    checksum: &mut u64,
) -> Result<(), TableError> {
    match kind {
        OpKind::Insert => {
            buf.items.clear();
            buf.items.extend(run.iter().map(|op| match *op {
                RwOp::Insert(k) => (k, k),
                _ => unreachable!("run segmentation is per kind"),
            }));
            buf.outcomes.clear();
            buf.outcomes.resize(run.len(), Ok(InsertOutcome::Inserted));
            table.insert_batch(&buf.items, &mut buf.outcomes);
            if let Some(e) = buf.outcomes.iter().find_map(|o| o.err()) {
                return Err(e);
            }
        }
        OpKind::Delete => {
            buf.keys.clear();
            buf.keys.extend(run.iter().map(|op| match *op {
                RwOp::Delete(k) => k,
                _ => unreachable!("run segmentation is per kind"),
            }));
            buf.values.clear();
            buf.values.resize(run.len(), None);
            table.delete_batch(&buf.keys, &mut buf.values);
            for (op, v) in run.iter().zip(&buf.values) {
                debug_assert!(v.is_some(), "delete of live key missed: {op:?}");
                let _ = (op, v);
            }
        }
        OpKind::Lookup => {
            buf.keys.clear();
            buf.keys.extend(run.iter().map(|op| match *op {
                RwOp::LookupHit(k) | RwOp::LookupMiss(k) => k,
                _ => unreachable!("run segmentation is per kind"),
            }));
            buf.values.clear();
            buf.values.resize(run.len(), None);
            table.lookup_batch(&buf.keys, &mut buf.values);
            for (op, v) in run.iter().zip(&buf.values) {
                match op {
                    RwOp::LookupHit(k) => {
                        debug_assert!(v.is_some(), "lookup of live key {k} missed");
                        let _ = k;
                    }
                    RwOp::LookupMiss(k) => {
                        debug_assert!(v.is_none(), "phantom hit for {k}");
                        let _ = k;
                    }
                    _ => unreachable!("run segmentation is per kind"),
                }
                if let Some(v) = v {
                    *checksum ^= v;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevendim_core::{DynamicTable, HashTable, TableBuilder, TableScheme};
    use std::collections::HashSet;

    fn cfg(update_pct: u8) -> RwConfig {
        RwConfig { initial_keys: 1000, operations: 20_000, update_pct, seed: 5 }
    }

    #[test]
    fn fresh_keys_are_distinct_and_legal() {
        let mut seen = HashSet::new();
        for c in 0..100_000u64 {
            let k = fresh_key(c);
            assert!(k != 0 && k < u64::MAX - 1);
            assert!(seen.insert(k), "duplicate fresh key at counter {c}");
        }
    }

    #[test]
    fn reserved_value_escape_is_injective_and_legal() {
        // The finalizer is a bijection, so exactly three counters map to
        // illegal keys: the preimages of 0, u64::MAX - 1, and u64::MAX.
        // Their escapes must be legal, mutually distinct, and distinct
        // from every regular key (we check a sample plus the escaped
        // counters' neighbours, and prove the rest by input-range
        // disjointness: escape inputs are ≥ 3·2^62, regular inputs are
        // counter + 1 ≤ 2^63).
        let bad_counters: Vec<u64> = [0u64, u64::MAX - 1, u64::MAX]
            .into_iter()
            .map(|bad| Murmur::fmix64_inverse(bad).wrapping_sub(1))
            .collect();
        let mut seen = HashSet::new();
        for c in 0..100_000u64 {
            assert!(seen.insert(fresh_key(c)));
        }
        for &c in &bad_counters {
            // These counters sit far outside any real stream region, but
            // the escape must hold wherever they appear.
            if c >= ESCAPE_REGION {
                continue; // outside the counter space streams may use
            }
            let k = fresh_key(c);
            assert!(key_is_legal(k), "escape for counter {c:#x} produced illegal key {k:#x}");
            assert!(seen.insert(k), "escape for counter {c:#x} collided with a regular key");
            // Neighbouring counters keep their regular (bijective) keys.
            assert!(key_is_legal(fresh_key(c.wrapping_add(1))));
            assert!(key_is_legal(fresh_key(c.wrapping_sub(1))));
        }
        // The escape region really is disjoint from every regular
        // finalizer input a stream can produce.
        const { assert!(ESCAPE_REGION > 1 << 63) };
    }

    #[test]
    fn instrumented_chunk_records_insert_latencies() {
        let mut s = RwStream::new(cfg(50));
        let mut table =
            DynamicTable::new(TableBuilder::new(TableScheme::LinearProbing), 11, 3, 0.7);
        for k in s.initial_keys() {
            table.insert(k, k).unwrap();
        }
        let mut hist = metrics::LatencyHistogram::new();
        let mut total_ops = 0u64;
        let mut inserts = 0u64;
        while let Some(chunk) = s.next_chunk(4096) {
            inserts += chunk.iter().filter(|op| matches!(op, RwOp::Insert(_))).count() as u64;
            let t =
                run_chunk_instrumented(&mut table, &chunk, |_, nanos| hist.record(nanos)).unwrap();
            total_ops += t.ops;
        }
        assert_eq!(total_ops, 20_000);
        assert_eq!(hist.count(), inserts, "one latency sample per insert");
        assert!(inserts > 0);
        assert!(hist.max_nanos() > 0);
        assert!(hist.p99() >= hist.p50());
        assert_eq!(table.len(), s.live_len());
    }

    #[test]
    fn op_mix_matches_configured_ratios() {
        let mut s = RwStream::new(cfg(50));
        let _ = s.initial_keys();
        let ops = s.next_chunk(20_000).unwrap();
        let (mut ins, mut del, mut hit, mut miss) = (0f64, 0f64, 0f64, 0f64);
        for op in &ops {
            match op {
                RwOp::Insert(_) => ins += 1.0,
                RwOp::Delete(_) => del += 1.0,
                RwOp::LookupHit(_) => hit += 1.0,
                RwOp::LookupMiss(_) => miss += 1.0,
            }
        }
        let n = ops.len() as f64;
        // 50% updates, split 4:1 → 40% inserts, 10% deletes;
        // 50% lookups, split 3:1 → 37.5% hits, 12.5% misses.
        assert!((ins / n - 0.40).abs() < 0.02, "inserts {}", ins / n);
        assert!((del / n - 0.10).abs() < 0.02, "deletes {}", del / n);
        assert!((hit / n - 0.375).abs() < 0.02, "hits {}", hit / n);
        assert!((miss / n - 0.125).abs() < 0.02, "misses {}", miss / n);
    }

    #[test]
    fn zero_update_pct_is_pure_lookups() {
        let mut s = RwStream::new(cfg(0));
        let _ = s.initial_keys();
        let ops = s.next_chunk(5000).unwrap();
        assert!(ops.iter().all(|op| matches!(op, RwOp::LookupHit(_) | RwOp::LookupMiss(_))));
    }

    #[test]
    fn hundred_update_pct_has_no_lookups() {
        let mut s = RwStream::new(cfg(100));
        let _ = s.initial_keys();
        let ops = s.next_chunk(5000).unwrap();
        assert!(ops.iter().all(|op| matches!(op, RwOp::Insert(_) | RwOp::Delete(_))));
    }

    #[test]
    fn stream_is_deterministic() {
        let collect = || {
            let mut s = RwStream::new(cfg(25));
            let _ = s.initial_keys();
            let mut all = Vec::new();
            while let Some(chunk) = s.next_chunk(777) {
                all.extend(chunk);
            }
            all
        };
        let a = collect();
        let b = collect();
        assert_eq!(a.len(), 20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn model_consistency_under_execution() {
        // Execute the full stream against a growing table in debug mode:
        // every Delete/LookupHit must hit, every LookupMiss must miss
        // (enforced by debug_assert! inside run_chunk).
        let mut s = RwStream::new(cfg(50));
        let mut table =
            DynamicTable::new(TableBuilder::new(TableScheme::LinearProbing), 11, 3, 0.7);
        for k in s.initial_keys() {
            table.insert(k, k).unwrap();
        }
        let mut total_ops = 0u64;
        while let Some(chunk) = s.next_chunk(4096) {
            let t = run_chunk(&mut table, &chunk).unwrap();
            total_ops += t.ops;
        }
        assert_eq!(total_ops, 20_000);
        assert_eq!(table.len(), s.live_len());
    }

    #[test]
    fn chunking_respects_remaining() {
        let mut s =
            RwStream::new(RwConfig { initial_keys: 10, operations: 100, update_pct: 25, seed: 1 });
        let _ = s.initial_keys();
        assert_eq!(s.next_chunk(64).unwrap().len(), 64);
        assert_eq!(s.remaining(), 36);
        assert_eq!(s.next_chunk(64).unwrap().len(), 36);
        assert!(s.next_chunk(64).is_none());
    }
}
