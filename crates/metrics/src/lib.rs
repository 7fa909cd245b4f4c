//! Measurement harness for the hashing study.
//!
//! The paper reports throughput in **millions of operations per second**
//! (insertions/sec, lookups/sec — Figures 2, 4, 5, 7), memory footprints
//! in MB (Figures 3, 5d–f), and averages each data point over three
//! seeded runs with a variance check (§4.2). This crate provides exactly
//! those pieces: wall-clock timing, throughput conversion, multi-seed
//! aggregation, and plain-text/CSV report tables the benchmark binaries
//! print in the shape of the paper's figures.
//!
//! Beyond the paper's mean-throughput lens, [`LatencyHistogram`] records
//! per-operation latency distributions (p50/p99/max) — the instrument
//! that makes growth stalls of dynamic tables visible at all (a 100 ms
//! rehash barely moves a mean over 10⁶ ops, but owns the tail).

#![deny(unsafe_code)]

pub mod latency;
pub mod report;

pub use latency::LatencyHistogram;
pub use report::{ReportTable, Series};

use std::time::{Duration, Instant};

/// Time a closure, returning its result and the elapsed wall-clock time.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// A throughput measurement: `ops` operations in `elapsed` time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Throughput {
    /// Operations performed.
    pub ops: u64,
    /// Elapsed time in nanoseconds.
    pub nanos: u128,
}

impl Throughput {
    /// Construct from an op count and a duration.
    pub fn new(ops: u64, elapsed: Duration) -> Self {
        Self { ops, nanos: elapsed.as_nanos() }
    }

    /// Time a closure that performs `ops` operations.
    pub fn measure(ops: u64, f: impl FnOnce()) -> Self {
        let ((), elapsed) = time(f);
        Self::new(ops, elapsed)
    }

    /// Millions of operations per second — the unit on every figure's
    /// y-axis.
    pub fn m_ops_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            return f64::INFINITY;
        }
        (self.ops as f64) / (self.nanos as f64 / 1e9) / 1e6
    }

    /// Merge two measurements of the same kind (summing work and time).
    pub fn merge(&self, other: &Throughput) -> Throughput {
        Throughput { ops: self.ops + other.ops, nanos: self.nanos + other.nanos }
    }
}

/// Mean/stddev aggregation over per-seed samples — the paper's "average of
/// three independent runs" with its variance analysis (§4.2).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeedStats {
    /// One sample per seed.
    pub samples: Vec<f64>,
}

impl SeedStats {
    /// Start empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    pub fn push(&mut self, sample: f64) {
        self.samples.push(sample);
    }

    /// Arithmetic mean (0 for no samples).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }

    /// Coefficient of variation (stddev / mean); the paper found this
    /// "very insignificant" across its runs — we report it so EXPERIMENTS
    /// can make the same claim honestly.
    pub fn cv(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            0.0
        } else {
            self.stddev() / mean
        }
    }
}

/// Bytes → the MB unit used in the paper's memory plots (10^6 bytes, as in
/// "16 GB" for 2^30 × 16 B ≈ 17.2 × 10^9 — the paper rounds in decimal
/// units).
pub fn bytes_to_mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let t = Throughput { ops: 50_000_000, nanos: 1_000_000_000 };
        assert!((t.m_ops_per_sec() - 50.0).abs() < 1e-9);
        let t = Throughput { ops: 1, nanos: 0 };
        assert!(t.m_ops_per_sec().is_infinite());
    }

    #[test]
    fn throughput_measure_counts_time() {
        let t = Throughput::measure(100, || std::thread::sleep(Duration::from_millis(5)));
        assert!(t.nanos >= 5_000_000);
        assert_eq!(t.ops, 100);
    }

    #[test]
    fn throughput_merge() {
        let a = Throughput { ops: 10, nanos: 100 };
        let b = Throughput { ops: 30, nanos: 300 };
        assert_eq!(a.merge(&b), Throughput { ops: 40, nanos: 400 });
    }

    #[test]
    fn seed_stats() {
        let mut s = SeedStats::new();
        for v in [10.0, 12.0, 14.0] {
            s.push(v);
        }
        assert!((s.mean() - 12.0).abs() < 1e-9);
        assert!((s.stddev() - (8.0f64 / 3.0).sqrt()).abs() < 1e-9);
        assert!(s.cv() > 0.0 && s.cv() < 0.2);
    }

    #[test]
    fn seed_stats_degenerate() {
        let s = SeedStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.cv(), 0.0);
        let mut one = SeedStats::new();
        one.push(5.0);
        assert_eq!(one.mean(), 5.0);
        assert_eq!(one.stddev(), 0.0);
    }

    #[test]
    fn mb_conversion() {
        assert!((bytes_to_mb(16_000_000) - 16.0).abs() < 1e-9);
    }
}
