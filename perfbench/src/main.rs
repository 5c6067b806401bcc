//! `perfbench`: the repository benchmark (see README.md next to this
//! package's manifest).
//!
//! ```text
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//! perfbench daemon --cache-dir DIR
//! ```
//!
//! `run` executes one workload in this process and prints one JSON
//! summary as its last stdout line; `--out` receives the detailed report
//! (and, when traced, the spans). `daemon` is the synthesis daemon the
//! `serve-mixed` workload starts as a child process.

mod batch;
mod catalog;
mod gen;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{catalog, MetricSpec};
use tacos_report::Json;
use trace::Tracer;

/// Command-line options of `perfbench run`.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, one of those `BENCHMARK.json` lists.
    pub workload: String,
    /// Input seed (drives the `serve-mixed` trace).
    pub seed: u64,
    /// Measuring time; passes repeat until it is used up.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for the report, spans and scratch files.
    pub out: PathBuf,
}

/// A metric value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The figure as measured.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: usize,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, Value>,
    /// Operations attempted in timed passes.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness violations; any entry fails the run.
    pub failures: Vec<String>,
    /// Workload facts worth recording (seed, key counts, caps, ...).
    pub info: Vec<(&'static str, Json)>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records metric `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(catalog().has(name), "{name} is not catalogued");
        self.metrics.insert(name, Value { value, samples });
    }

    /// Records a correctness violation.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = &catalog().workloads;
    if !workloads.contains(&workload) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of: {})",
            workloads.join(", ")
        ));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
    match opts.workload.as_str() {
        "mesh-allgather" => batch::run_gather(opts),
        "hetero-allreduce" => batch::run_hetero(opts),
        "serve-mixed" => serve::run(opts),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn metric_json(spec: &MetricSpec, v: Value) -> Json {
    Json::obj([
        ("value", Json::Num(v.value)),
        ("unit", spec.unit.as_str().into()),
        ("better", spec.better.as_str().into()),
        ("samples", (v.samples as u64).into()),
        ("exact", Json::Bool(spec.exact)),
    ])
}

/// Writes the detailed report and spans; returns the summary line.
fn report(opts: &Options, outcome: &Outcome) -> Result<String, String> {
    let cat = catalog();
    let specs = if opts.trace {
        &cat.per_layer
    } else {
        &cat.end_to_end
    };
    let mut summary = BTreeMap::new();
    let mut detail = BTreeMap::new();
    for spec in specs {
        let v = match outcome.metrics.get(spec.name.as_str()) {
            Some(v) => *v,
            // A layer this workload does not reach did no work.
            None if opts.trace => Value {
                value: 0.0,
                samples: 0,
            },
            None => return Err(format!("end-to-end metric {} was not measured", spec.name)),
        };
        if !v.value.is_finite() {
            return Err(format!("metric {} is not finite", spec.name));
        }
        summary.insert(
            spec.name.clone(),
            Json::obj([
                ("value", Json::Num(v.value)),
                ("unit", spec.unit.as_str().into()),
            ]),
        );
        detail.insert(spec.name.clone(), metric_json(spec, v));
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let mut info: BTreeMap<String, Json> = outcome
        .info
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    if let Some(tracer) = &outcome.tracer {
        let path = opts.out.join(format!("{stem}.spans.jsonl"));
        std::fs::write(&path, tracer.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        info.insert(
            "spans_file".into(),
            path.display().to_string().as_str().into(),
        );
    }
    let correct = outcome.failures.is_empty();
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let full = Json::obj([
        ("workload", opts.workload.as_str().into()),
        ("seed", opts.seed.into()),
        ("seconds", opts.seconds.into()),
        ("trace", Json::Bool(opts.trace)),
        ("correct", Json::Bool(correct)),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("error_rate", error_rate.into()),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("metrics", Json::Obj(detail)),
        ("info", Json::Obj(info)),
    ]);
    let path = opts.out.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{full}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", Json::Obj(summary)),
    ])
    .to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("daemon") => return serve::daemon_main(&args[1..]),
        Some("run") => parse_options(&args[1..]).and_then(|opts| {
            let mut outcome = run(&opts)?;
            if opts.trace {
                let rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
                outcome.set("error_rate", rate, outcome.attempted as usize);
            }
            for failure in &outcome.failures {
                eprintln!("perfbench: check failed: {failure}");
            }
            let line = report(&opts, &outcome)?;
            Ok((line, outcome.failures.is_empty()))
        }),
        _ => Err("usage: perfbench run --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n       perfbench daemon --cache-dir DIR".into()),
    };
    match result {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Raw samples as a JSON array, for the detailed report.
pub fn floats(samples: &[f64]) -> Json {
    Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect())
}

/// Peak resident set size of process `pid` (`self` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}
