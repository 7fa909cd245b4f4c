//! Regenerates the paper's figures and the policy ablations.
//!
//! `figures <2..8|all>` prints the paper's figures; `ablation_alloc`,
//! `ablation_cuckoo`, `ablation_fp` and `ablation_rh` each vary one design
//! choice the paper fixes; `growth_tail` (stop-the-world vs incremental
//! growth) and `adaptive` (static vs adaptive scheme) compare two
//! policies. This library holds what they share: the scale configuration
//! and flag parser ([`cli`]), and the scheme × hash-function dispatch,
//! multi-seed averaging and panel grid ([`runner`]).
//!
//! Measuring the served stack — threads, the network path, durability —
//! is not this crate's job: `benchmark/` at the repository root does that,
//! end to end and per layer.
//!
//! ```text
//! cargo run --release -p bench --bin figures -- 4 --scale default
//! cargo run --release -p bench --bin figures -- 7 --log2-capacity 20 --seeds 3
//! ```

pub mod cli;
pub mod runner;

pub use cli::{parse_args, Args, Scale};
pub use runner::{
    grid_builder, rw_cell, worm_cell, worm_cell_with, worm_grid, RwCellOut, WormCellOut, WormGrid,
};

/// Print a report panel as text, plus CSV when requested.
pub fn emit(table: &metrics::ReportTable, csv: bool) {
    println!("{}", table.to_text());
    if csv {
        println!("{}", table.to_csv());
    }
}
