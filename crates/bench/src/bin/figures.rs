//! The paper's figures: `figures <2..8|all> [FLAGS]`.
//!
//! * **2** — WORM at low load factors (25/35/45 %), large capacity: the
//!   two chained variants against linear probing under dense/grid/sparse
//!   keys. One insertion panel per distribution (x = load factor) and one
//!   lookup panel per distribution × load factor (x = unsuccessful-query
//!   percentage).
//! * **3** — memory footprint of the Figure 2 tables. LP's is the
//!   directory alone; the chained variants pay per entry and per
//!   collision, so ChainedH24 under Mult shrinks visibly on dense keys.
//! * **4** — Figure 2's grid at high load factors (50/70/90 %) over every
//!   open-addressing scheme; ChainedH24 fits its §4.5 memory budget at
//!   50 % only and renders as `-` beyond, as in the paper.
//! * **5** — the read-write workload: a long stream over growing tables
//!   (sparse keys), update percentage 0…100 at growth thresholds
//!   50/70/90 %. Updates split insert:delete 4:1, lookups hit:miss 3:1.
//! * **6** — the absolute-best-performer matrix: for every capacity
//!   (S/M/L) × distribution × load factor, which Mult-driven table wins
//!   insertions and each lookup column ("no hash table is the absolute
//!   best using Murmur").
//! * **7** — layout (AoS vs SoA) and SIMD probing for LPMult at medium
//!   capacity; without AVX2 the SIMD variants run scalar and the heading
//!   says so.
//! * **8** — the decision graph against measurements: a recommendation
//!   "holds" when it reaches 85 % of the best measured candidate — the
//!   graph trades a little peak performance for robustness, and the
//!   paper's own winners differ by less than that in adjacent cells.

use bench::{
    cli::usage, emit, grid_builder, parse_args, rw_cell, worm_cell, worm_cell_with, worm_grid,
    Args, RwCellOut, WormCellOut, WormGrid,
};
use hashfn::MultShift;
use metrics::{bytes_to_mb, ReportTable, Series};
use sevendim_core::{
    decision::{recommend, Mutability, WorkloadProfile},
    simd::simd_available,
    HashKind::{self, Mult, Murmur},
    HashTable, LinearProbing, LinearProbingSoA,
    TableScheme::{
        self, Chained24, Chained8, Cuckoo4, Fingerprint, LinearProbing as LP, Quadratic as QP,
        RobinHood as RH,
    },
};
use workloads::{Distribution, RwConfig, WormConfig};

const LOW: [f64; 3] = [0.25, 0.35, 0.45];
const HIGH: [f64; 3] = [0.50, 0.70, 0.90];

/// A WORM throughput figure over the scheme grid at the large capacity.
struct WormSpec {
    fig: u8,
    regime: &'static str,
    load_factors: [f64; 3],
    schemes: &'static [TableScheme],
}

const FIG2: WormSpec =
    WormSpec { fig: 2, regime: "low", load_factors: LOW, schemes: &[Chained8, Chained24, LP] };
const FIG4: WormSpec = WormSpec {
    fig: 4,
    regime: "high",
    load_factors: HIGH,
    schemes: &[Chained24, Cuckoo4, LP, QP, RH],
};
const FIG5_SCHEMES: [TableScheme; 5] = [Cuckoo4, LP, QP, RH, Chained24];
const FIG8_CANDIDATES: [TableScheme; 6] = [Chained24, Cuckoo4, LP, QP, RH, Fingerprint];

type Table = (TableScheme, HashKind);

/// Each scheme under the two hash functions the paper's figures keep
/// (§4.4 narrows the four down to Mult and Murmur).
fn both_hashes(schemes: &[TableScheme]) -> Vec<Table> {
    schemes.iter().flat_map(|&s| [(s, Mult), (s, Murmur)]).collect()
}

fn worm_cfg(bits: u8, load_factor: f64, dist: Distribution, probes: usize) -> WormConfig {
    WormConfig { capacity_bits: bits, load_factor, dist, probes, seed: 0 }
}

/// `tables` × `load_factors` through [`worm_cell`] at one distribution
/// and capacity.
fn scheme_grid(
    tables: &[Table],
    load_factors: &[f64],
    dist: Distribution,
    bits: u8,
    probes: usize,
    seeds: &[u64],
) -> WormGrid {
    let labels = tables.iter().map(|&(scheme, h)| grid_builder(scheme, h).label()).collect();
    worm_grid(labels, load_factors, |t, lf| {
        worm_cell(tables[t].0, tables[t].1, &worm_cfg(bits, lf, dist, probes), seeds)
    })
}

/// One distribution's panels of Figure 2 or 4: insertions, then lookups
/// per load factor.
fn worm_panels(spec: &WormSpec, dist: Distribution, bits: u8, args: &Args) -> Vec<ReportTable> {
    let head = format!("Fig {} — {} distribution — ", spec.fig, dist.name());
    scheme_grid(
        &both_hashes(spec.schemes),
        &spec.load_factors,
        dist,
        bits,
        args.probe_count(),
        &args.seed_list(),
    )
    .throughput_panels(format!("{head}insertions"), &head)
}

fn worm_figure(spec: &WormSpec, args: &Args) {
    let bits = args.log2_capacity.unwrap_or(args.scale.capacity_bits().2);
    println!(
        "Figure {} — WORM, {} load factors, capacity 2^{bits} \
         ({} probes/stream, {} seed(s))\n",
        spec.fig,
        spec.regime,
        args.probe_count(),
        args.seed_list().len()
    );
    for dist in Distribution::ALL {
        for panel in worm_panels(spec, dist, bits, args) {
            emit(&panel, args.csv);
        }
    }
}

fn fig3(args: &Args) {
    // Footprint is a property of the built table, not of probe streams:
    // keep the probe phase minimal.
    let probes = args.probes.unwrap_or(1000).min(1000);
    let bits = args.log2_capacity.unwrap_or(args.scale.capacity_bits().2);
    println!("Figure 3 — memory footprint, capacity 2^{bits}\n");
    for dist in Distribution::ALL {
        let grid = scheme_grid(
            &both_hashes(FIG2.schemes),
            &FIG2.load_factors,
            dist,
            bits,
            probes,
            &args.seed_list()[..1],
        );
        let title = format!("Fig 3 — {} distribution — memory usage", dist.name());
        emit(&grid.panel(title, "MB", |c| c.memory_bytes.map(bytes_to_mb)), args.csv);
        if dist == Distribution::Dense {
            println!(
                "(paper shows dense only: it produces the largest footprint \
                 differences; sparse/grid follow for completeness)\n"
            );
        }
    }
}

fn fig5(args: &Args) {
    let ops = args.op_count();
    let initial = args.scale.rw_initial_keys();
    println!(
        "Figure 5 — RW workload: {ops} ops from {initial} initial keys, sparse, \
         insert:delete 4:1, hit:miss 3:1\n"
    );
    let ticks: Vec<String> = RwConfig::UPDATE_PCTS.iter().map(|p| p.to_string()).collect();
    for threshold in HIGH {
        let panel = |what, unit| {
            let at = threshold * 100.0;
            let title = format!("Fig 5 — growing at {at:.0}% load factor — {what}");
            ReportTable::new(title, "update %", ticks.clone(), unit)
        };
        let mut perf = panel("throughput", "M ops/s");
        let mut mem = panel("memory", "MB");
        for (scheme, h) in both_hashes(&FIG5_SCHEMES) {
            // The paper keeps chained hashing only where its footprint
            // stays comparable: the 50% threshold.
            let include = scheme != Chained24 || threshold <= 0.5;
            let cells: Vec<_> = RwConfig::UPDATE_PCTS
                .iter()
                .map(|&update_pct| {
                    let cfg = RwConfig {
                        initial_keys: initial,
                        operations: ops,
                        update_pct,
                        seed: 0xF15,
                    };
                    include.then(|| rw_cell(scheme, h, threshold, cfg).ok()).flatten()
                })
                .collect();
            let label = grid_builder(scheme, h).label();
            let column = |value: fn(&RwCellOut) -> f64| {
                Series::new(label.as_str(), cells.iter().map(|c| c.as_ref().map(value)).collect())
            };
            perf.push(column(|c| c.mops));
            mem.push(column(|c| bytes_to_mb(c.memory_bytes)));
        }
        emit(&perf, args.csv);
        emit(&mem, args.csv);
    }
}

fn fig6(args: &Args) {
    let (s, m, l) = args.scale.capacity_bits();
    let seeds = args.seed_list();
    println!(
        "Figure 6 — absolute best performers (Mult candidates), \
         capacities S=2^{s} M=2^{m} L=2^{l}\n"
    );
    println!(
        "{:<8} {:<6} {:<4} | {:<22} | per-unsuccessful-% lookup winners",
        "dist", "lf%", "cap", "insert winner"
    );
    println!("{}", "-".repeat(110));

    // Figure 4's schemes; ChainedH24Mult drops out where its memory
    // budget does not hold the keys.
    let candidates: Vec<Table> = FIG4.schemes.iter().map(|&scheme| (scheme, Mult)).collect();
    for dist in Distribution::ALL {
        for lf in HIGH {
            for (cap_name, bits) in [("S", s), ("M", m), ("L", l)] {
                let panels =
                    scheme_grid(&candidates, &[lf], dist, bits, args.probe_count(), &seeds)
                        .throughput_panels(String::new(), "");
                let (inserts, lookups) = (&panels[0], &panels[1]);
                let insert_winner = match inserts.winner_at(0) {
                    Some((label, v)) => format!("{label} ({v:.0} M/s)"),
                    None => "-".to_string(),
                };
                let lookup_winners: Vec<String> = (lookups.x_ticks.iter().enumerate())
                    .map(|(i, pct)| match lookups.winner_at(i) {
                        Some((label, v)) => format!("{pct}%:{label}({v:.0})"),
                        None => format!("{pct}%:-"),
                    })
                    .collect();
                println!(
                    "{:<8} {:<6.0} {:<4} | {:<22} | {}",
                    dist.name(),
                    lf * 100.0,
                    cap_name,
                    insert_winner,
                    lookup_winners.join("  ")
                );
            }
        }
    }
    println!(
        "\nExpected pattern (paper): QP wins most insert cells (LP on dense), \
         RH dominates mid-load lookups, CuckooH4 takes 90%-load cells, \
         ChainedH24 the 100%-unsuccessful column at 50% load."
    );
}

/// A Figure 7 cell: a concrete LP layout built by `build(bits, seed)`.
fn layout_cell<T: HashTable>(
    build: fn(u8, u64) -> T,
    cfg: &WormConfig,
    seeds: &[u64],
) -> WormCellOut {
    worm_cell_with(|seed| Ok(build(cfg.capacity_bits, seed)), cfg, seeds)
}

fn fig7(args: &Args) {
    let bits = args.log2_capacity.unwrap_or(args.scale.capacity_bits().1);
    let seeds = args.seed_list();
    println!(
        "Figure 7 — layout & SIMD for LPMult, capacity 2^{bits}, sparse keys \
         (AVX2 {})\n",
        if simd_available() { "available" } else { "NOT available — SIMD variants run scalar" }
    );
    // The four variants are concrete types, outside the builder's grid.
    let labels = ["LPAoSMult", "LPAoSMultSIMD", "LPSoAMult", "LPSoAMultSIMD"];
    let grid = worm_grid(labels.map(String::from).to_vec(), &HIGH, |variant, lf| {
        let cfg = worm_cfg(bits, lf, Distribution::Sparse, args.probe_count());
        match variant {
            0 => layout_cell(LinearProbing::<MultShift>::with_seed, &cfg, &seeds),
            1 => layout_cell(LinearProbing::<MultShift>::with_seed_simd, &cfg, &seeds),
            2 => layout_cell(LinearProbingSoA::<MultShift>::with_seed, &cfg, &seeds),
            _ => layout_cell(LinearProbingSoA::<MultShift>::with_seed_simd, &cfg, &seeds),
        }
    });
    for panel in grid.throughput_panels("Fig 7(a) — insertions".to_string(), "Fig 7 — ") {
        emit(&panel, args.csv);
    }
    println!(
        "Expected pattern (paper): AoS wins inserts (gap narrowing with load); \
         AoS wins successful-heavy lookups; SoA+SIMD best for lookups overall; \
         SIMD hurts inserts at low load, helps from ~75% on."
    );
}

/// Static read profiles are scored by WORM lookup throughput at the
/// profile's load factor and hit ratio; dynamic profiles by RW stream
/// throughput.
fn fig8(args: &Args) {
    let bits = args.log2_capacity.unwrap_or(args.scale.capacity_bits().1);
    let seeds = args.seed_list();
    println!("Figure 8 — decision-graph validation at capacity 2^{bits}\n");
    println!("{:<44} {:<16} {:<22} verdict", "profile", "recommended", "measured best");
    println!("{}", "-".repeat(100));

    let mut held = Vec::new();

    // Static, read-only profiles: (load factor, successful ratio, dense).
    for (lf, succ, dense) in [
        (0.35, 1.0, false),
        (0.35, 0.25, false),
        (0.50, 1.0, true),
        (0.50, 0.25, false),
        (0.70, 1.0, false),
        (0.70, 0.0, false),
        (0.90, 1.0, false),
        (0.90, 0.25, false),
    ] {
        let profile = WorkloadProfile {
            load_factor: lf,
            successful_ratio: succ,
            write_ratio: 0.0,
            dense_keys: dense,
            mutability: Mutability::Static,
        };
        let dist = if dense { Distribution::Dense } else { Distribution::Sparse };
        let unsuccessful_pct = ((1.0 - succ) * 100.0).round() as u8;
        let cfg = worm_cfg(bits, lf, dist, args.probe_count());
        let label = format!(
            "static lf={lf:.2} successful={:.0}% {}",
            succ * 100.0,
            if dense { "dense" } else { "sparse" }
        );
        held.push(fig8_row(&label, &profile, |scheme| {
            let out = worm_cell(scheme, Mult, &cfg, &seeds);
            out.lookup_mops.iter().find(|(p, _)| *p == unsuccessful_pct).and_then(|(_, v)| *v)
        }));
    }

    // Dynamic profiles scored by RW throughput: (update %, threshold).
    for (update_pct, threshold) in [(75u8, 0.5f64), (75, 0.9), (25, 0.7), (5, 0.7)] {
        let profile = WorkloadProfile {
            load_factor: threshold,
            successful_ratio: 0.75,
            write_ratio: update_pct as f64 / 100.0,
            dense_keys: false,
            mutability: Mutability::Dynamic,
        };
        let cfg = RwConfig {
            initial_keys: args.scale.rw_initial_keys(),
            operations: args.op_count() / 4,
            update_pct,
            seed: 0xF16,
        };
        let label = format!("dynamic updates={update_pct}% grow-at={threshold:.1}");
        held.push(fig8_row(&label, &profile, |scheme| {
            rw_cell(scheme, Mult, threshold, cfg).ok().map(|o| o.mops)
        }));
    }

    let agree = held.iter().filter(|&&ok| ok).count();
    println!("\n{agree}/{} profiles: recommendation within 85% of measured best", held.len());
}

/// Print one profile's row — the graph's recommendation against the best
/// `score` among the candidates — and return whether the recommendation
/// held.
fn fig8_row(
    label: &str,
    profile: &WorkloadProfile,
    score: impl Fn(TableScheme) -> Option<f64>,
) -> bool {
    // The graph's answers mean Mult (§5.2), and so do the measured cells.
    let name = |s: TableScheme| grid_builder(s, Mult).label();
    let rec = recommend(profile);
    let scores: Vec<(TableScheme, Option<f64>)> =
        FIG8_CANDIDATES.iter().map(|&scheme| (scheme, score(scheme))).collect();
    let best =
        scores.iter().filter_map(|&(c, v)| v.map(|v| (c, v))).max_by(|a, b| a.1.total_cmp(&b.1));
    let rec_score = scores.iter().find(|(c, _)| *c == rec).and_then(|&(_, v)| v);
    let (verdict, best_str) = match (best, rec_score) {
        (Some((bc, bv)), Some(rv)) => {
            let best_str = format!("{} ({bv:.1} M/s; rec {rv:.1})", name(bc));
            (if rv >= 0.85 * bv { "OK" } else { "MISS" }, best_str)
        }
        (Some((bc, bv)), None) => ("MISS(rec absent)", format!("{} ({bv:.1} M/s)", name(bc))),
        _ => ("no data", "-".to_string()),
    };
    println!("{label:<44} {:<16} {best_str:<22} {verdict}", name(rec));
    verdict == "OK"
}

fn figure(id: u8) -> Option<fn(&Args)> {
    let run: fn(&Args) = match id {
        2 => |args| worm_figure(&FIG2, args),
        3 => fig3,
        4 => |args| worm_figure(&FIG4, args),
        5 => fig5,
        6 => fig6,
        7 => fig7,
        8 => fig8,
        _ => return None,
    };
    Some(run)
}

/// The figures `which` names: one id, or `all` for 2 through 8.
fn select(which: &str) -> Option<Vec<fn(&Args)>> {
    match which {
        "all" => (2..=8).map(figure).collect(),
        id => Some(vec![figure(id.parse().ok()?)?]),
    }
}

fn main() {
    let mut argv = std::env::args();
    let bin = argv.next().unwrap_or_default();
    let which = argv.next().unwrap_or_else(|| usage("name a figure: 2..8 or all"));
    let figures = select(&which).unwrap_or_else(|| usage(&format!("unknown figure '{which}'")));
    let args = parse_args(std::iter::once(bin).chain(argv));
    for run in figures {
        run(&args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_figure_resolves_and_nothing_else_does() {
        assert!((2..=8).all(|id| figure(id).is_some()));
        assert!(figure(1).is_none() && figure(9).is_none());
        assert_eq!(select("all").map(|figures| figures.len()), Some(7));
        assert_eq!(select("4").map(|figures| figures.len()), Some(1));
        assert!(select("fig4").is_none() && select("").is_none() && select("--csv").is_none());
    }

    #[test]
    fn fig2_and_fig4_yield_the_papers_panel_grid() {
        let args = Args { probes: Some(200), seeds: Some(1), ..Args::default() };
        let pcts = ["0", "25", "50", "75", "100"];
        for (spec, lf_ticks) in [(&FIG2, ["25", "35", "45"]), (&FIG4, ["50", "70", "90"])] {
            let series: Vec<String> = both_hashes(spec.schemes)
                .iter()
                .map(|&(scheme, h)| grid_builder(scheme, h).label())
                .collect();
            let mut panels = 0;
            for dist in Distribution::ALL {
                let grid = worm_panels(spec, dist, 8, &args);
                let head = format!("Fig {} — {} distribution — ", spec.fig, dist.name());
                assert_eq!(grid.len(), 4, "1 insert + 3 lookup panels");
                assert_eq!(grid[0].title, format!("{head}insertions"));
                assert_eq!(grid[0].x_ticks, lf_ticks);
                for (panel, lf) in grid[1..].iter().zip(lf_ticks) {
                    assert_eq!(panel.title, format!("{head}lookups at {lf}% load factor"));
                    assert_eq!(panel.x_ticks, pcts);
                }
                for panel in &grid {
                    let labels: Vec<&str> = panel.series.iter().map(|s| s.label.as_str()).collect();
                    assert_eq!(labels, series);
                }
                panels += grid.len();
            }
            assert_eq!(panels, 12, "3 distributions x (1 insert + 3 lookup panels)");
        }
        // The paper's high-load panels lose the chained curves: absent, not zero.
        let sparse = worm_panels(&FIG4, Distribution::Sparse, 8, &args);
        assert_eq!(sparse[0].series[0].label, "ChainedH24Mult");
        assert_eq!(sparse[0].series[0].values[2], None, "ChainedH24 cannot hold 90% load");
        assert!(sparse[0].series[4].values.iter().all(|v| v.is_some()), "LPMult always fits");
    }
}
