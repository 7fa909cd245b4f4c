//! Scheme × hash-function dispatch, multi-seed measurement and the panel
//! grid the WORM figures share.
//!
//! This module turns a `(TableScheme, HashKind)` pair into a concrete
//! table, drives the WORM or RW workload against it, and averages
//! throughput over the configured seeds (§4.2: three independent runs per
//! data point). [`worm_grid`] runs one figure's series × load-factor cells
//! and renders them as the paper's insertion and lookup panels.

use metrics::{ReportTable, SeedStats, Series, Throughput};
use sevendim_core::{DynamicTable, HashKind, HashTable, TableBuilder, TableError, TableScheme};
use workloads::{
    rw::{run_chunk, RwStream},
    worm::{run_cell, WormKeys},
    RwConfig, WormConfig,
};

/// Multi-seed WORM result for one cell of a figure.
#[derive(Clone, Debug)]
pub struct WormCellOut {
    /// Insert throughput (M ops/s), `None` if the table could not hold
    /// the keys (e.g. chained hashing beyond its memory budget).
    pub insert_mops: Option<f64>,
    /// Lookup throughput per unsuccessful percentage.
    pub lookup_mops: Vec<(u8, Option<f64>)>,
    /// Memory footprint after the build (bytes, last seed).
    pub memory_bytes: Option<usize>,
    /// Coefficient of variation of insert throughput across seeds (§4.2
    /// variance check).
    pub insert_cv: f64,
}

/// Run a WORM cell against tables produced by `build_table` (seed →
/// table), averaging over `seeds`. The generic entry point behind
/// [`worm_cell`]; figure 7 uses it directly for the AoS/SoA/SIMD variants
/// that sit outside the main scheme grid.
pub fn worm_cell_with<T: HashTable>(
    mut build_table: impl FnMut(u64) -> Result<T, TableError>,
    cfg: &WormConfig,
    seeds: &[u64],
) -> WormCellOut {
    let mut insert = SeedStats::new();
    let mut lookups: Vec<(u8, SeedStats)> = Vec::new();
    let mut memory = None;
    for (i, &seed) in seeds.iter().enumerate() {
        let cfg = WormConfig { seed, ..*cfg };
        let keys = WormKeys::prepare(&cfg);
        let mut table = match build_table(seed ^ 0x7AB1E) {
            Ok(t) => t,
            Err(_) => {
                return WormCellOut {
                    insert_mops: None,
                    lookup_mops: cfg_pcts(&keys),
                    memory_bytes: None,
                    insert_cv: 0.0,
                }
            }
        };
        match run_cell(&mut table, &keys) {
            Ok((build, per_pct)) => {
                insert.push(build.m_ops_per_sec());
                if lookups.is_empty() {
                    lookups = per_pct.iter().map(|(pct, _)| (*pct, SeedStats::new())).collect();
                }
                for ((_, stats), (_, t)) in lookups.iter_mut().zip(per_pct.iter()) {
                    stats.push(t.m_ops_per_sec());
                }
                if i == seeds.len() - 1 {
                    memory = Some(table.memory_bytes());
                }
            }
            Err(_) => {
                // Ran out of budget/capacity mid-build: cell is absent,
                // exactly like the paper's removed chained curves.
                return WormCellOut {
                    insert_mops: None,
                    lookup_mops: cfg_pcts(&keys),
                    memory_bytes: None,
                    insert_cv: 0.0,
                };
            }
        }
    }
    WormCellOut {
        insert_mops: Some(insert.mean()),
        insert_cv: insert.cv(),
        lookup_mops: lookups.into_iter().map(|(pct, s)| (pct, Some(s.mean()))).collect(),
        memory_bytes: memory,
    }
}

fn cfg_pcts(keys: &WormKeys) -> Vec<(u8, Option<f64>)> {
    keys.probe_streams.iter().map(|(pct, _, _)| (*pct, None)).collect()
}

/// The [`TableBuilder`] of one `(scheme, hash)` grid position; its
/// [`TableBuilder::label`] is the series label.
///
/// The fingerprint scheme is built with its SSE2 tag scan: group
/// probing *is* the scheme (the scalar fallback only exists for non-x86
/// targets), whereas the LP layouts stay scalar here because SIMD key
/// scanning is its own dimension (Figure 7).
pub fn grid_builder(scheme: TableScheme, h: HashKind) -> TableBuilder {
    TableBuilder::new(scheme).hash(h).simd(scheme == TableScheme::Fingerprint)
}

/// Run one WORM cell for a `(scheme, hash)` pair, averaging over `seeds`.
///
/// One [`TableBuilder`] covers the whole grid — chained schemes get the
/// §4.5 memory budget applied (an infeasible budget makes the cell
/// absent, matching the paper's removed chained curves at high load).
pub fn worm_cell(scheme: TableScheme, h: HashKind, cfg: &WormConfig, seeds: &[u64]) -> WormCellOut {
    let mut builder = grid_builder(scheme, h).bits(cfg.capacity_bits);
    if matches!(scheme, TableScheme::Chained8 | TableScheme::Chained24) {
        builder = builder.chained_budget(cfg.n_keys());
    }
    worm_cell_with(|s| builder.clone().seed(s).try_build(), cfg, seeds)
}

/// The cells of one WORM figure at one key distribution and capacity:
/// a series per table, a cell per load factor.
pub struct WormGrid {
    labels: Vec<String>,
    load_factors: Vec<f64>,
    /// `cells[series][load factor]`.
    cells: Vec<Vec<WormCellOut>>,
}

/// Measure `cell(series, load factor)` for every series × load factor.
pub fn worm_grid(
    labels: Vec<String>,
    load_factors: &[f64],
    mut cell: impl FnMut(usize, f64) -> WormCellOut,
) -> WormGrid {
    let cells = (0..labels.len())
        .map(|series| load_factors.iter().map(|&lf| cell(series, lf)).collect())
        .collect();
    WormGrid { labels, load_factors: load_factors.to_vec(), cells }
}

impl WormGrid {
    /// One panel: a series per table, its values drawn from that table's
    /// row of cells.
    fn report(
        &self,
        title: String,
        x_name: &str,
        ticks: Vec<String>,
        unit: &str,
        values: impl Fn(&[WormCellOut]) -> Vec<Option<f64>>,
    ) -> ReportTable {
        let mut panel = ReportTable::new(title, x_name, ticks, unit);
        for (label, row) in self.labels.iter().zip(&self.cells) {
            panel.push(Series::new(label.as_str(), values(row)));
        }
        panel
    }

    /// One panel with the load factor on the x axis and `value` of each
    /// cell on the y axis.
    pub fn panel(
        &self,
        title: String,
        unit: &str,
        value: impl Fn(&WormCellOut) -> Option<f64>,
    ) -> ReportTable {
        let ticks = self.load_factors.iter().map(|lf| format!("{:.0}", lf * 100.0)).collect();
        self.report(title, "load factor %", ticks, unit, |row| row.iter().map(&value).collect())
    }

    /// The paper's throughput panels: insertions over the load factor,
    /// then one lookup panel per load factor over the unsuccessful-query
    /// percentage, titled `"{prefix}lookups at N% load factor"`.
    pub fn throughput_panels(&self, insert_title: String, prefix: &str) -> Vec<ReportTable> {
        let mut panels = vec![self.panel(insert_title, "M inserts/s", |c| c.insert_mops)];
        for (li, lf) in self.load_factors.iter().enumerate() {
            let title = format!("{prefix}lookups at {:.0}% load factor", lf * 100.0);
            let ticks = self.cells[0][li].lookup_mops.iter().map(|(p, _)| p.to_string()).collect();
            panels.push(self.report(title, "unsuccessful %", ticks, "M lookups/s", |row| {
                row[li].lookup_mops.iter().map(|&(_, v)| v).collect()
            }));
        }
        panels
    }
}

/// RW result for one cell of Figure 5.
#[derive(Clone, Debug)]
pub struct RwCellOut {
    /// Overall throughput across the stream (M ops/s).
    pub mops: f64,
    /// Final memory footprint (bytes).
    pub memory_bytes: usize,
    /// Growth rehashes performed.
    pub rehashes: usize,
}

/// Run one RW cell (scheme × hash × growth threshold).
///
/// The [`TableBuilder`] doubles as the [`DynamicTable`]'s factory: every
/// growth step re-invokes it with one more capacity bit and a fresh seed.
pub fn rw_cell(
    scheme: TableScheme,
    h: HashKind,
    grow_threshold: f64,
    cfg: RwConfig,
) -> Result<RwCellOut, TableError> {
    // Initial size: the paper starts 16 M keys in a 2^25 table ≈ 47% load;
    // generalized: the smallest power of two that keeps the initial load
    // under the growth threshold.
    let mut bits = 10u8;
    while (cfg.initial_keys as f64) > grow_threshold * (1u64 << bits) as f64 {
        bits += 1;
    }
    let factory = grid_builder(scheme, h);
    let mut stream = RwStream::new(cfg);
    let mut table = DynamicTable::new(factory, bits, cfg.seed ^ 0xD14_7AB1E, grow_threshold);
    for k in stream.initial_keys() {
        table.insert(k, k)?;
    }
    let mut total: Option<Throughput> = None;
    const CHUNK: usize = 1 << 16;
    while let Some(chunk) = stream.next_chunk(CHUNK) {
        let t = run_chunk(&mut table, &chunk)?;
        total = Some(match total {
            None => t,
            Some(acc) => acc.merge(&t),
        });
    }
    Ok(RwCellOut {
        mops: total.map(|t| t.m_ops_per_sec()).unwrap_or(0.0),
        memory_bytes: table.memory_bytes(),
        rehashes: table.rehash_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Distribution;

    fn tiny_cfg() -> WormConfig {
        WormConfig {
            capacity_bits: 10,
            load_factor: 0.5,
            dist: Distribution::Sparse,
            probes: 2000,
            seed: 0,
        }
    }

    #[test]
    fn worm_cell_produces_all_pcts() {
        let out = worm_cell(TableScheme::LinearProbing, HashKind::Mult, &tiny_cfg(), &[1, 2]);
        assert!(out.insert_mops.unwrap() > 0.0);
        assert_eq!(out.lookup_mops.len(), 5);
        assert!(out.lookup_mops.iter().all(|(_, v)| v.unwrap() > 0.0));
        assert_eq!(out.memory_bytes, Some(1024 * 16));
    }

    #[test]
    fn chained_cell_absent_at_high_load() {
        let cfg = WormConfig { load_factor: 0.9, ..tiny_cfg() };
        let out = worm_cell(TableScheme::Chained24, HashKind::Mult, &cfg, &[1]);
        assert!(out.insert_mops.is_none(), "chained must not fit 90% load");
        assert!(out.lookup_mops.iter().all(|(_, v)| v.is_none()));
    }

    #[test]
    fn all_pairs_run_at_fifty_percent() {
        for scheme in TableScheme::ALL {
            for h in HashKind::ALL {
                let out = worm_cell(scheme, h, &tiny_cfg(), &[3]);
                let label = grid_builder(scheme, h).label();
                assert!(out.insert_mops.is_some(), "{label} failed at 50% load");
            }
        }
    }

    #[test]
    fn rw_cell_runs_all_schemes() {
        let cfg = RwConfig { initial_keys: 2000, operations: 20_000, update_pct: 50, seed: 1 };
        for scheme in TableScheme::ALL {
            let out = rw_cell(scheme, HashKind::Mult, 0.7, cfg).unwrap();
            assert!(out.mops > 0.0, "{:?}", scheme);
            assert!(out.memory_bytes > 0);
        }
    }

    #[test]
    fn labels_match_paper_naming() {
        let label = |scheme, h| grid_builder(scheme, h).label();
        assert_eq!(label(TableScheme::Chained24, HashKind::Murmur), "ChainedH24Murmur");
        assert_eq!(label(TableScheme::Cuckoo4, HashKind::Mult), "CuckooH4Mult");
        assert_eq!(label(TableScheme::Fingerprint, HashKind::Mult), "FPMult");
    }
}
