//! The layer ladder: this repository's one benchmark.
//!
//! ```text
//! ladder run [--workload <name>] --seed <u64> [--seconds <s>] [--trace [0|1]] [--scale full|smoke]
//! ladder compare <a.json> <b.json> [--bounds BENCHMARK.json]
//! ladder manifest
//! ```
//!
//! `run` generates every input from the seed, runs each workload in
//! whole repetitions of fixed op counts until `--seconds` have passed,
//! checks every answer against a model, prints every metric by name with
//! its unit, writes `benchmark/out/result.json` (and `trace.json` when
//! traced), and ends its output with one JSON object per workload. It
//! exits non-zero if any operation failed. `manifest` prints the
//! `BENCHMARK.json` this code stands for. See `benchmark/README.md`.

mod common;
mod compare;
mod gen;
mod host;
mod json;
mod ladder;
mod paced_wal;
mod report;
mod stats;
mod tails;
mod trace;
mod workloads;

use common::{MetricDef, RunCfg, Scale, END_TO_END};
use json::Json;
use report::WorkloadResult;
use std::path::Path;
use std::process::ExitCode;
use workloads::Workload;

/// Where results go, relative to the directory the command runs in (the
/// root of a checkout).
pub const OUT_DIR: &str = "benchmark/out";

/// Seconds one run measures: what `BENCHMARK.json` tells the driver to
/// pass as `--seconds`, and the default without it.
const RUN_SECONDS: u32 = 15;

/// The command `BENCHMARK.json` names; the driver appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

const USAGE: &str = "usage: ladder run [--workload <name>] --seed <u64> [--seconds <s>] \
[--trace [0|1]] [--scale full|smoke]\n       ladder compare <a.json> <b.json> [--bounds <BENCHMARK.json>]\n       ladder manifest";

struct RunArgs {
    workload: Option<&'static Workload>,
    trace: bool,
    cfg: RunCfg,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        trace: false,
        cfg: RunCfg {
            seed: 0,
            seconds: RUN_SECONDS as f64,
            scale: Scale::FULL,
            threads: host::generator_threads(),
            flip_check: None,
        },
    };
    let mut seed = None;
    let mut seconds = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} wants {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = workloads::ALL.iter().find(|w| w.name == name);
                out.workload = Some(known.ok_or(format!("no workload named {name}"))?);
            }
            "--seed" => {
                seed = Some(value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--scale" => {
                out.cfg.scale = match value("full or smoke")?.as_str() {
                    "full" => Scale::FULL,
                    "smoke" => Scale::SMOKE,
                    other => return Err(format!("--scale is full or smoke, not {other}")),
                }
            }
            "--trace" => {
                out.trace = match it.next_if(|v| !v.starts_with("--")).map(String::as_str) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace is 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    out.cfg.seed = seed.ok_or("--seed is required: the inputs come from it")?;
    // At smoke scale one repetition is the whole run unless told otherwise.
    out.cfg.seconds =
        seconds.unwrap_or(if out.cfg.scale == Scale::FULL { RUN_SECONDS as f64 } else { 0.001 });
    Ok(out)
}

fn write_file(name: &str, body: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(Path::new(OUT_DIR).join(name), body)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run(args)?;
    let chosen: Vec<&Workload> = match args.workload {
        Some(one) => vec![one],
        None => workloads::ALL.iter().collect(),
    };
    let results: Vec<WorkloadResult> = chosen
        .into_iter()
        .map(|workload| {
            let r = if args.trace {
                report::run_traced(workload, &args.cfg)
            } else {
                report::run_end_to_end(workload, &args.cfg)
            };
            r.print();
            r
        })
        .collect();

    let mut stamp = host::stamp();
    stamp.push(("seed".into(), Json::Str(args.cfg.seed.to_string())));
    stamp.push(("scale".into(), Json::Str(args.cfg.scale.name().into())));
    stamp.push(("seconds".into(), Json::Num(args.cfg.seconds)));
    let workloads = results.iter().map(|r| (r.name.to_string(), r.to_json())).collect();
    stamp.push(("workloads".into(), Json::Obj(workloads)));
    let name = if args.trace { "result.traced.json" } else { "result.json" };
    write_file(name, &Json::Obj(stamp).to_pretty())
        .map_err(|e| format!("{OUT_DIR}/{name}: {e}"))?;
    if args.trace {
        let traces = results
            .iter()
            .filter_map(|r| Some((r.name.to_string(), r.tracer.as_ref()?.to_json())))
            .collect();
        write_file("trace.json", &Json::Obj(traces).to_line())
            .map_err(|e| format!("{OUT_DIR}/trace.json: {e}"))?;
    }

    for r in &results {
        println!("{}", r.driver_line());
    }
    Ok(if results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json`, from the same registry the runs report by.
fn manifest() -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let metric = |def: &MetricDef| {
        let mut fields = vec![
            ("name".to_string(), Json::Str(def.name.into())),
            ("unit".to_string(), Json::Str(def.unit.into())),
            ("better".to_string(), Json::Str(def.better.as_str().into())),
        ];
        fields.extend(def.bound.map(|b| ("bound".to_string(), Json::Num(b))));
        Json::Obj(fields)
    };
    let workloads = workloads::ALL
        .iter()
        .map(|w| {
            Json::object([("name", Json::Str(w.name.into())), ("why", Json::Str(w.why.into()))])
        })
        .collect();
    Json::object([
        ("command", strings(&COMMAND)),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(metric).collect())),
        ("per_layer", Json::Arr(ladder::PER_LAYER.iter().map(metric).collect())),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("expected a subcommand".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ladder: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_s_command_line() {
        let a = parse_run(&args("--workload kv_cached --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("kv_cached"));
        assert!(a.trace);
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.scale), (7, 10.0, Scale::FULL));
        let a = parse_run(&args("--seed 1 --trace 0")).unwrap();
        assert!(!a.trace && a.workload.is_none());
        assert_eq!(a.cfg.seconds, RUN_SECONDS as f64);
        assert!(parse_run(&args("--seed 1 --trace --scale smoke")).unwrap().trace);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            "",
            "--seed x",
            "--seed 1 --workload nope",
            "--seed 1 --seconds 0",
            "--seed 1 --frobnicate",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    /// The committed `BENCHMARK.json` is what `ladder manifest` prints.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(committed, manifest());
        for w in &workloads::ALL {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let widest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[common::SETUP_S].bound, Some(widest), "set-up has the largest bound");
        assert!(widest <= 0.25);
    }

    /// The oracle's own test: corrupt one expected value and the run
    /// must report exactly one failed operation and not be correct.
    #[test]
    fn one_flipped_expectation_is_one_failed_op() {
        for workload in &workloads::ALL {
            let name = workload.name;
            let mut cfg = parse_run(&args("--seed 3 --scale smoke")).unwrap().cfg;
            let clean = report::run_end_to_end(workload, &cfg);
            assert_eq!(clean.failed, 0, "{name}: {:?}", clean.first_failure);
            assert!(clean.correct() && clean.attempted > 1000);
            cfg.flip_check = Some(100);
            let flipped = report::run_end_to_end(workload, &cfg);
            assert_eq!(flipped.failed, 1, "{name}: {:?}", flipped.first_failure);
            assert!(!flipped.correct());
            assert!(flipped.driver_line().contains("\"correct\":false"));
            assert_eq!(flipped.input_digest, clean.input_digest);
        }
    }
}
