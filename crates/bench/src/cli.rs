//! Scale configuration and a dependency-free argument parser for the
//! figure and ablation binaries.
//!
//! The paper's capacities are 2^16 (small, 1 MB), 2^27 (medium, 2 GB) and
//! 2^30 (large, 16 GB), with 100 M-scale probe streams and 1000 M-op RW
//! runs on a 192 GB server. The `default` scale reproduces the *shape* of
//! every figure within laptop budgets; `paper` uses the original sizes
//! (bring RAM and patience); `smoke` exists for CI. Every knob can be
//! overridden individually (`--log2-capacity`, `--probes`, `--ops`,
//! `--seeds`).

/// Preset experiment sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long sanity run (CI).
    Smoke,
    /// Laptop-sized reproduction of every figure's shape.
    Default,
    /// The paper's original sizes (2^30 large tables, 16 GB+ RAM).
    Paper,
}

impl Scale {
    fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Capacity exponents `(small, medium, large)`.
    pub fn capacity_bits(&self) -> (u8, u8, u8) {
        match self {
            Scale::Smoke => (12, 14, 16),
            Scale::Default => (16, 19, 22),
            Scale::Paper => (16, 27, 30),
        }
    }

    /// Lookups per probe stream.
    pub fn probes(&self) -> usize {
        match self {
            Scale::Smoke => 20_000,
            Scale::Default => 400_000,
            Scale::Paper => 100_000_000,
        }
    }

    /// Operations in an RW stream.
    pub fn rw_operations(&self) -> usize {
        match self {
            Scale::Smoke => 100_000,
            Scale::Default => 4_000_000,
            Scale::Paper => 1_000_000_000,
        }
    }

    /// Initial keys before an RW stream (paper: 16 M ≈ 47% load).
    pub fn rw_initial_keys(&self) -> usize {
        match self {
            Scale::Smoke => 10_000,
            Scale::Default => 500_000,
            Scale::Paper => 16_000_000,
        }
    }

    /// Independent seeded repetitions per data point (paper: 3).
    pub fn seeds(&self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Default => 2,
            Scale::Paper => 3,
        }
    }
}

/// Parsed command line of a figure binary.
#[derive(Clone, Debug)]
pub struct Args {
    /// Preset scale.
    pub scale: Scale,
    /// Override: capacity exponent used by single-capacity figures.
    pub log2_capacity: Option<u8>,
    /// Override: probe-stream length.
    pub probes: Option<usize>,
    /// Override: RW operation count.
    pub ops: Option<usize>,
    /// Override: number of seeds.
    pub seeds: Option<usize>,
    /// Also print CSV blocks after the text tables.
    pub csv: bool,
}

impl Args {
    /// Effective seeds list (0-based seeds mixed into workload seeds).
    pub fn seed_list(&self) -> Vec<u64> {
        let n = self.seeds.unwrap_or_else(|| self.scale.seeds());
        (0..n as u64).map(|i| 0xBA5E_u64 + 7919 * i).collect()
    }

    /// Effective probe count.
    pub fn probe_count(&self) -> usize {
        self.probes.unwrap_or_else(|| self.scale.probes())
    }

    /// Effective RW op count.
    pub fn op_count(&self) -> usize {
        self.ops.unwrap_or_else(|| self.scale.rw_operations())
    }
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: Scale::Default,
            log2_capacity: None,
            probes: None,
            ops: None,
            seeds: None,
            csv: false,
        }
    }
}

/// Parse `std::env::args`-style arguments. Unknown flags, a zero count and
/// a capacity exponent outside `1..=32` abort with a usage message (better
/// to fail than to silently mis-measure).
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Args {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    let _bin = it.next();
    while let Some(flag) = it.next() {
        let mut value_for =
            |flag: &str| it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--scale" => {
                let v = value_for("--scale");
                args.scale =
                    Scale::parse(&v).unwrap_or_else(|| usage(&format!("unknown scale '{v}'")));
            }
            "--log2-capacity" => {
                args.log2_capacity = Some(
                    value_for("--log2-capacity")
                        .parse()
                        .ok()
                        .filter(|bits| (1..=32).contains(bits))
                        .unwrap_or_else(|| usage("--log2-capacity must be an integer in 1..=32")),
                )
            }
            "--probes" => args.probes = Some(positive(&value_for("--probes"), "--probes")),
            "--ops" => args.ops = Some(positive(&value_for("--ops"), "--ops")),
            "--seeds" => args.seeds = Some(positive(&value_for("--seeds"), "--seeds")),
            "--csv" => args.csv = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    args
}

/// A count flag's value: zero seeds, probes or ops would print a table of
/// zeros rather than a measurement.
fn positive(value: &str, flag: &str) -> usize {
    value
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| usage(&format!("{flag} must be a positive integer")))
}

/// Print `err` (if any) and the usage line, then exit: 2 on an error, 0
/// for `--help`.
pub fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: figures <2..8|all> [FLAGS] | <ablation_*|growth_tail|adaptive> [FLAGS]\n\
         FLAGS: [--scale smoke|default|paper] [--log2-capacity N] [--probes N] [--ops N] \
         [--seeds N] [--csv]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        std::iter::once("bin".to_string()).chain(s.iter().map(|s| s.to_string())).collect()
    }

    #[test]
    fn defaults() {
        let a = parse_args(argv(&[]));
        assert_eq!(a.scale, Scale::Default);
        assert!(!a.csv);
        assert_eq!(a.seed_list().len(), Scale::Default.seeds());
    }

    #[test]
    fn parses_all_flags() {
        let a = parse_args(argv(&[
            "--scale",
            "smoke",
            "--log2-capacity",
            "18",
            "--probes",
            "1000",
            "--ops",
            "5000",
            "--seeds",
            "4",
            "--csv",
        ]));
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.log2_capacity, Some(18));
        assert_eq!(a.probe_count(), 1000);
        assert_eq!(a.op_count(), 5000);
        assert_eq!(a.seed_list().len(), 4);
        assert!(a.csv);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Smoke.probes() < Scale::Default.probes());
        assert!(Scale::Default.probes() < Scale::Paper.probes());
        let (s, m, l) = Scale::Default.capacity_bits();
        assert!(s < m && m < l);
    }

    #[test]
    fn seed_lists_are_distinct() {
        let a = parse_args(argv(&["--seeds", "3"]));
        let seeds = a.seed_list();
        assert_eq!(seeds.len(), 3);
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds[1], seeds[2]);
    }
}
