//! Running a workload to its time budget and reporting it: the metric
//! lines a person reads, `out/result.json`, and the one-line JSON object
//! the driver reads.

use crate::common::*;
use crate::json::Json;
use crate::ladder;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Rep, Workload};
use std::time::Instant;

/// Everything one workload's run produced.
pub struct WorkloadResult {
    pub name: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub input_digest: u64,
    pub threads: usize,
    pub ops: Vec<(&'static str, u64)>,
    pub samples: Vec<(&'static str, u64)>,
    /// End-to-end values of every repetition (untraced run).
    pub reps: Vec<E2e>,
    /// Wall time of each repetition, set-up and checking included.
    pub rep_seconds: Vec<f64>,
    /// Per-layer values (traced run), in registry order.
    pub layers: Vec<(MetricDef, f64)>,
    pub tracer: Option<Tracer>,
}

/// Run `one(number)` again and again — a repetition of a workload, a
/// pass of the ladder — until the next would not end within `seconds`,
/// going by the last; one always runs. Returns what each returned and
/// how long each took.
pub fn repeat_for<T>(seconds: f64, mut one: impl FnMut(u64) -> T) -> (Vec<T>, Vec<f64>) {
    let started = Instant::now();
    let (mut done, mut took) = (Vec::new(), Vec::new());
    loop {
        let rep_started = Instant::now();
        done.push(one(done.len() as u64));
        let last = rep_started.elapsed().as_secs_f64();
        took.push(last);
        if started.elapsed().as_secs_f64() + last > seconds {
            return (done, took);
        }
    }
}

/// The untraced run: whole repetitions of fixed op counts until the
/// time budget is used, each from its own inputs.
pub fn run_end_to_end(workload: &Workload, cfg: &RunCfg) -> WorkloadResult {
    let mut tr = Tracer::new(false);
    let mut ck = Checker::new(cfg.flip_check);
    let (reps, rep_seconds): (Vec<Rep>, _) =
        repeat_for(cfg.seconds, |rep| (workload.rep)(cfg, rep, &mut tr, &mut ck));
    let first = &reps[0];
    WorkloadResult {
        name: workload.name,
        traced: false,
        attempted: ck.attempted,
        failed: ck.failed,
        first_failure: ck.first_failure,
        input_digest: first.input_digest,
        threads: first.threads,
        ops: first.ops.clone(),
        samples: first.samples.clone(),
        reps: reps.iter().map(|r| r.e2e).collect(),
        rep_seconds,
        layers: Vec::new(),
        tracer: None,
    }
}

/// The traced run: the workload's stream through every rung.
pub fn run_traced(workload: &Workload, cfg: &RunCfg) -> WorkloadResult {
    let out = ladder::run(workload, cfg);
    WorkloadResult {
        name: workload.name,
        traced: true,
        attempted: out.ck.attempted,
        failed: out.ck.failed,
        first_failure: out.ck.first_failure,
        input_digest: out.input_digest,
        threads: out.threads,
        ops: out.ops,
        samples: Vec::new(),
        reps: Vec::new(),
        rep_seconds: out.pass_seconds,
        layers: out.layers,
        tracer: Some(out.tracer),
    }
}

impl WorkloadResult {
    /// Each end-to-end metric's median over the repetitions.
    pub fn end_to_end(&self) -> Vec<(MetricDef, f64)> {
        END_TO_END
            .iter()
            .enumerate()
            .map(|(i, def)| (*def, median(&self.reps.iter().map(|r| r[i]).collect::<Vec<_>>())))
            .collect()
    }

    fn metrics(&self) -> Vec<(MetricDef, f64)> {
        if self.traced {
            self.layers.clone()
        } else {
            self.end_to_end()
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics().iter().all(|(_, v)| v.is_finite())
    }

    /// The object the driver reads from the last line of output.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics()
            .into_iter()
            .map(|(def, v)| {
                let m =
                    Json::object([("value", Json::Num(v)), ("unit", Json::Str(def.unit.into()))]);
                (def.name.to_string(), m)
            })
            .collect();
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    }

    pub fn to_json(&self) -> Json {
        let counts = |items: &[(&'static str, u64)]| {
            Json::Obj(items.iter().map(|&(k, n)| (k.to_string(), Json::Num(n as f64))).collect())
        };
        let metrics = self
            .metrics()
            .into_iter()
            .enumerate()
            .map(|(i, (def, v))| {
                let mut m = vec![
                    ("value".to_string(), Json::Num(v)),
                    ("unit".to_string(), Json::Str(def.unit.into())),
                    ("better".to_string(), Json::Str(def.better.as_str().into())),
                ];
                if !self.traced {
                    let per_rep = self.reps.iter().map(|r| Json::Num(r[i])).collect();
                    m.push(("reps".to_string(), Json::Arr(per_rep)));
                }
                (def.name.to_string(), Json::Obj(m))
            })
            .collect();
        Json::object([
            ("traced", Json::Bool(self.traced)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            ("first_failure", self.first_failure.clone().map_or(Json::Null, Json::Str)),
            ("input_digest", Json::Str(format!("{:016x}", self.input_digest))),
            ("threads", Json::Num(self.threads as f64)),
            ("repetitions", Json::Num(self.rep_seconds.len() as f64)),
            (
                "repetition_seconds",
                Json::Arr(self.rep_seconds.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("op_counts", counts(&self.ops)),
            ("sample_counts", counts(&self.samples)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, for a person.
    pub fn print(&self) {
        let kind = if self.traced { "traced" } else { "untraced" };
        println!("== {} ({kind}, {} thread(s)) ==", self.name, self.threads);
        println!(
            "input_digest {:016x}  ops_attempted {}  ops_failed {}  repetitions {} of {:.2} s",
            self.input_digest,
            self.attempted,
            self.failed,
            self.rep_seconds.len(),
            median(&self.rep_seconds)
        );
        let list = |items: &[(&'static str, u64)]| {
            items.iter().map(|(k, n)| format!("{k}={n}")).collect::<Vec<_>>().join(" ")
        };
        println!("op counts per repetition: {}", list(&self.ops));
        if !self.samples.is_empty() {
            println!("samples per percentile: {}", list(&self.samples));
        }
        if let Some(why) = &self.first_failure {
            println!("FIRST FAILURE: {why}");
        }
        for (def, v) in self.metrics() {
            println!("{:<40} {:>16.4} {}", def.name, v, def.unit);
        }
    }
}
