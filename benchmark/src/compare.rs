//! `compare <a.json> <b.json>`: judge result file `b` against baseline
//! `a`, one row per (workload, end-to-end metric), by the bounds in
//! `BENCHMARK.json`.
//!
//! A metric has `regressed` when `b` is worse than `a` by more than its
//! bound. It is `unresolved` when either side's own repetitions spread
//! (first to third quartile, as a share of the median) wider than the
//! bound — unless every repetition of `b` reads better than every one of
//! `a`, which no spread can explain away. Otherwise it is `ok`.

use crate::json::Json;
use crate::stats::iqr_share;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

struct Row {
    workload: String,
    metric: String,
    unit: String,
    base: f64,
    new: f64,
    bound: f64,
    spread: f64,
    verdict: Verdict,
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds_of(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("the bounds file has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("an end_to_end metric has no {k}"));
            Ok(Bound {
                name: field("name")?.as_str().ok_or("name is not a string")?.to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

fn reps_of(metric: &Json) -> Vec<f64> {
    metric
        .get("reps")
        .and_then(Json::as_array)
        .map_or(Vec::new(), |reps| reps.iter().filter_map(Json::as_f64).collect())
}

fn judge(base: f64, new: f64, a_reps: &[f64], b_reps: &[f64], b: &Bound) -> (f64, Verdict) {
    let spread_of = |reps: &[f64]| if reps.len() >= 2 { iqr_share(reps) } else { 0.0 };
    let spread = spread_of(a_reps).max(spread_of(b_reps));
    let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
    let worse_by = if b.lower_is_better { new - base } else { base - new } / base.abs();
    let clear_win = !a_reps.is_empty()
        && !b_reps.is_empty()
        && b_reps.iter().all(|&x| a_reps.iter().all(|&y| better(x, y)));
    let verdict = if spread > b.bound && !clear_win {
        Verdict::Unresolved
    } else if worse_by > b.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (spread, verdict)
}

fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<Vec<Row>, String> {
    let bounds = bounds_of(benchmark)?;
    let workloads = |j: &Json| j.get("workloads").and_then(Json::as_object).map(<[_]>::to_vec);
    let a_w = workloads(a).ok_or("the first file has no workloads")?;
    let b_w = workloads(b).ok_or("the second file has no workloads")?;
    let mut rows = Vec::new();
    for (name, a_res) in &a_w {
        let Some((_, b_res)) = b_w.iter().find(|(n, _)| n == name) else { continue };
        for bound in &bounds {
            let metric = |res: &Json| res.get("metrics").and_then(|m| m.get(&bound.name)).cloned();
            let (Some(am), Some(bm)) = (metric(a_res), metric(b_res)) else { continue };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64);
            let (Some(base), Some(new)) = (value(&am), value(&bm)) else { continue };
            let (spread, verdict) = judge(base, new, &reps_of(&am), &reps_of(&bm), bound);
            rows.push(Row {
                workload: name.clone(),
                metric: bound.name.clone(),
                unit: am.get("unit").and_then(Json::as_str).unwrap_or("").to_string(),
                base,
                new,
                bound: bound.bound,
                spread,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    Ok(rows)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let (files, bounds) = match args {
        [a, b] => ((a, b), "BENCHMARK.json"),
        [a, b, flag, path] if flag == "--bounds" => ((a, b), path.as_str()),
        _ => return Err("compare wants two result files".into()),
    };
    let rows = compare(&load(files.0)?, &load(files.1)?, &load(bounds)?)?;
    println!(
        "{:<11} {:<19} {:>12} {:>12} {:<10} {:>7} {:>6} {:>7}  verdict",
        "workload", "metric", "base", "new", "unit", "new/base", "bound", "spread"
    );
    for r in &rows {
        println!(
            "{:<11} {:<19} {:>12.4} {:>12.4} {:<10} {:>7.3} {:>5.0}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.unit,
            r.new / r.base,
            r.bound * 100.0,
            r.spread * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (regressed, unresolved) = (count(Verdict::Regressed), count(Verdict::Unresolved));
    println!("{} ok, {regressed} regressed, {unresolved} unresolved", count(Verdict::Ok));
    Ok(if regressed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool) -> Bound {
        Bound { name: "m".into(), lower_is_better, bound: 0.10 }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        let higher = bound(false);
        assert_eq!(judge(100.0, 95.0, &steady, &steady, &higher).1, Verdict::Ok);
        assert_eq!(judge(100.0, 85.0, &steady, &steady, &higher).1, Verdict::Regressed);
        assert_eq!(judge(100.0, 150.0, &steady, &steady, &higher).1, Verdict::Ok);
        let lower = bound(true);
        assert_eq!(judge(100.0, 105.0, &steady, &steady, &lower).1, Verdict::Ok);
        assert_eq!(judge(100.0, 115.0, &steady, &steady, &lower).1, Verdict::Regressed);
        assert_eq!(judge(100.0, 50.0, &steady, &steady, &lower).1, Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_rep_wins() {
        let noisy = [80.0, 100.0, 120.0, 140.0];
        let higher = bound(false);
        assert_eq!(judge(110.0, 100.0, &noisy, &noisy, &higher).1, Verdict::Unresolved);
        let all_better = [150.0, 170.0, 190.0, 210.0];
        assert_eq!(judge(110.0, 180.0, &noisy, &all_better, &higher).1, Verdict::Ok);
    }

    #[test]
    fn compares_matching_cells_of_two_result_files() {
        let benchmark = Json::parse(
            r#"{"end_to_end":[{"name":"read_mops","unit":"Mops/s","better":"higher","bound":0.1},
                {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        let file = |read: f64, setup: f64| {
            Json::parse(&format!(
                r#"{{"workloads":{{"mem_worm":{{"metrics":{{
                    "read_mops":{{"value":{read},"unit":"Mops/s","reps":[{read},{read}]}},
                    "setup_s":{{"value":{setup},"unit":"s","reps":[{setup},{setup}]}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let rows = compare(&file(10.0, 1.0), &file(8.0, 1.1), &benchmark).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].metric.as_str(), rows[0].verdict), ("read_mops", Verdict::Regressed));
        assert_eq!((rows[1].metric.as_str(), rows[1].verdict), ("setup_s", Verdict::Ok));
        assert!(compare(&file(1.0, 1.0), &Json::parse(r#"{"workloads":{}}"#).unwrap(), &benchmark)
            .is_err());
    }
}
