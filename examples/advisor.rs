//! Hash-table advisor: the paper's decision graph as a CLI.
//!
//! ```text
//! cargo run --release --example advisor -- \
//!     --load-factor 0.7 --successful 0.9 --writes 0.6 --dense --dynamic
//! ```
//!
//! Prints the recommended table plus the rationale (which edge of the
//! paper's Figure 8 fired), then builds the index
//! `TableBuilder::for_profile` dispatches on the recommendation and
//! demonstrates it on a small key set. Without
//! arguments, prints the full decision surface as a grid.

use seven_dim_hashing::prelude::*;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print_decision_surface();
        return;
    }

    let mut p = WorkloadProfile::baseline();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut num = |name: &str| -> f64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric value"))
        };
        match flag.as_str() {
            "--load-factor" => p.load_factor = num("--load-factor"),
            "--successful" => p.successful_ratio = num("--successful"),
            "--writes" => p.write_ratio = num("--writes"),
            "--dense" => p.dense_keys = true,
            "--dynamic" => p.mutability = Mutability::Dynamic,
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: advisor [--load-factor F] [--successful F] [--writes F] \
                     [--dense] [--dynamic]"
                );
                std::process::exit(2);
            }
        }
    }

    let choice = recommend(&p);
    println!("profile: {p:?}");
    println!("recommendation: {}\n", label(choice));
    println!("rationale:");
    print_rationale(&p, choice);

    // Build the index the recommendation implies and show it working.
    let mut idx = TableBuilder::for_profile(&p, 16, 42).build();
    let n = ((1usize << 16) as f64 * p.load_factor) as u64;
    for k in 1..=n {
        idx.insert(k, k * 3).expect("insert");
    }
    println!(
        "\nbuilt {} with {} entries ({:.1} MB); lookup(42) = {:?}",
        idx.display_name(),
        idx.len(),
        idx.memory_bytes() as f64 / 1e6,
        idx.lookup(42)
    );
}

/// The paper-style name of a recommendation: the graph's answers mean
/// Mult, the builder's default hash.
fn label(scheme: TableScheme) -> String {
    TableBuilder::new(scheme).label()
}

fn print_rationale(p: &WorkloadProfile, choice: TableScheme) {
    if p.load_factor < 0.5 {
        println!("  - load factor < 50%: collisions are rare, simplicity wins (§5.1)");
        if p.successful_ratio >= 0.5 || p.write_ratio > 0.5 {
            println!("  - lookups mostly succeed: LP scans stop at the key (§5.1)");
        } else {
            println!(
                "  - lookups mostly miss: LP must scan whole clusters; chained \
                 answers from short lists (§5.1)"
            );
        }
    } else if p.write_ratio > 0.5 {
        println!("  - write-heavy at ≥50% load: insert cost dominates (§6)");
        if p.dense_keys {
            println!("  - dense keys + Mult lay out contiguously: LP extends runs (§5.2)");
        } else {
            println!("  - QP scatters collisions instead of growing clusters (§5.2, §6)");
        }
    } else {
        println!("  - read-mostly at ≥50% load: lookup cost dominates (§5.2)");
        if p.load_factor >= 0.8 {
            println!(
                "  - very full table: cuckoo's ≤4 probes beat scanning clusters \
                 (§5.2, from ~80% load)"
            );
        } else if p.successful_ratio < 0.5 {
            println!(
                "  - miss-heavy: chained under budget at ≤50% load; past that, the \
                 fingerprint table rejects misses from its tag array without \
                 touching key lines"
            );
        } else {
            println!("  - RH is the paper's all-rounder in the 50–80% band (Fig. 6)");
        }
    }
    println!("  => {}", label(choice));
}

fn print_decision_surface() {
    println!("Decision surface (static workloads, sparse keys):\n");
    println!("{:<14} successful lookups →", "");
    print!("{:<14}", "load factor ↓");
    for s in [0.0, 0.25, 0.5, 0.75, 1.0] {
        print!(" {:>16}", format!("{:.0}%", s * 100.0));
    }
    println!();
    for lf in [0.25, 0.35, 0.45, 0.5, 0.7, 0.8, 0.9] {
        print!("{:<14}", format!("{:.0}%", lf * 100.0));
        for s in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let p = WorkloadProfile {
                load_factor: lf,
                successful_ratio: s,
                write_ratio: 0.0,
                dense_keys: false,
                mutability: Mutability::Static,
            };
            print!(" {:>16}", label(recommend(&p)));
        }
        println!();
    }
    println!("\n(write-heavy dynamic workloads: QPMult everywhere except dense keys → LPMult)");
    println!("run with flags to evaluate one profile: --load-factor 0.7 --successful 0.9 ...");
}
