//! `tacos` — command-line topology-aware collective algorithm synthesizer.
//!
//! Mirrors the paper's artifact: feed it a topology and a collective,
//! get back a synthesized algorithm and its predicted performance. Whole
//! evaluation campaigns run from declarative scenario files instead of
//! flags:
//!
//! ```text
//! tacos --topology mesh:3x3 --collective all-reduce --size 64MB
//! tacos --topology dragonfly:5x4 --collective all-gather --size 1GB \
//!       --algo ring --simulate --json
//! tacos scenario expand scenarios/size_sweep.toml
//! tacos scenario run scenarios/size_sweep.toml
//! ```

use std::process::ExitCode;

use tacos_baselines::{BaselineAlgorithm, IdealBound};
use tacos_collective::Collective;
use tacos_core::{Synthesizer, SynthesizerConfig};
use tacos_report::{fmt_f64, Json, Table};
use tacos_scenario::{parse_baseline, parse_pattern, parse_size, parse_topology};
use tacos_sim::Simulator;
use tacos_topology::{Bandwidth, LinkSpec, Time};

/// How a failure should be presented: usage mistakes get the USAGE block
/// appended; runtime failures (a bad scenario file, failed points) print
/// only their message so it isn't buried under 35 lines of flag help.
#[derive(Debug, PartialEq)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => m,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: tacos [options]
       tacos scenario run <file.toml> [scenario options]
       tacos scenario expand <file.toml>
       tacos scenario diff <a.csv> <b.csv> [--tol 1e-9]
       tacos serve [serve options]
       tacos serve-bench <file.toml> [serve-bench options]
       tacos chaos [--seed N] [--quiet]
       tacos lint [--fix-baseline] [--stats] [--root DIR]

single-point options:
  --topology SPEC    ring:N | fc:N | mesh:RxC | torus:XxY[xZ] | hypercube:XxYxZ |
                     switch:N[:dD] | switch2d:RxC | rfs:RxFxS | dragonfly:GxP | dgx1
  --collective P     all-gather | reduce-scatter | all-reduce (default) |
                     all-to-all | gather[:ROOT] | scatter[:ROOT] | broadcast[:ROOT]
  --size BYTES       e.g. 1GB, 64MB, 1KB (default 64MB)
  --chunks K         chunking factor per NPU (default 1)
  --algo A           tacos (default) | ring | ring-uni | direct | rhd | dbt |
                     multitree | taccl
  --alpha US         link latency in microseconds (default 0.5)
  --bw GBPS          link bandwidth in GB/s (default 50)
  --seed N           RNG seed (default 42)
  --attempts N       best-of-N randomized synthesis (default 1)
  --simulate         additionally run the congestion-aware simulator
  --json             machine-readable output
  --export-json F    write the full algorithm (transfers) as JSON to file F
  --export-xml F     write the algorithm as MSCCL-style XML to file F

scenario options (override the file's [run] table):
  --threads N        worker threads (0 = all cores)
  --cache DIR        algorithm cache directory
  --no-cache         disable the algorithm cache
  --output STEM      write STEM.csv / STEM.json result artifacts
  --quick            run the scenario's [quick] reduced grid
  --quiet            suppress per-point progress on stderr

scenario diff options:
  --tol T            numeric tolerance for cell comparison (default 1e-9)

serve options (synthesis-as-a-service daemon; line-delimited JSON over TCP):
  --addr HOST:PORT   listen address (default 127.0.0.1:7440; port 0 = ephemeral)
  --workers N        synthesis worker threads (default 2)
  --queue-depth N    admission queue: waiting syntheses before requests are
                     rejected (default 32)
  --cache-dir DIR    persist the warm cache to DIR on shutdown/checkpoint and
                     reload it on start (matcher-version checked)
  --deadline-ms MS   default per-request deadline (requests may override)
  --checkpoint-every SECS
                     also persist the warm cache every SECS seconds
                     (crash-safe: temp file + fsync + atomic rename)
  --max-line-bytes N cap on one request line; longer lines get a typed
                     error and the connection closes (default 1048576)
  --idle-timeout-secs SECS
                     close connections idle longer than SECS (0 = never;
                     default 300)
  --max-connections N
                     concurrent connection cap; excess connections get a
                     typed 'rejected' with retry_after_ms (default 256)
  --retry-after-ms MS
                     backoff hint attached to rejected responses (default 100)
  --warm-max-entries N
                     cap on resident warm-cache entries; least-recently-used
                     entries are evicted on insert (default 0 = unbounded)
  --warm-max-bytes B cap on approximate warm-cache bytes, e.g. 64MB
                     (default 0 = unbounded); caps also apply to reloads
  --faults SPEC      deterministic fault injection for chaos testing, e.g.
                     panic@3,stall@1:50,conn-delay@2:20,checkpoint-abort@2
  --quiet            suppress daemon notices on stderr

serve-bench options (replay a scenario grid against a running daemon):
  --addr HOST:PORT   daemon address (default 127.0.0.1:7440)
  --concurrency LIST comma-separated client counts to measure (default 1,4)
  --deadline-ms MS   attach a deadline to every replayed request
  --retries N        retry budget per rejected request, with exponential
                     backoff honoring the daemon's retry_after_ms (default 3)
  --output FILE      write the JSON report to FILE (default BENCH_PR9.json)
  --quick            replay the scenario's [quick] reduced grid

chaos options (drive a private daemon through a seeded fault plan and
assert its operational invariants; nonzero exit on any violation):
  --seed N           fault-plan seed (default 1); each seed is deterministic
  --quiet            only print the final verdict

lint options (repo-native static analysis: lock-order deadlock detection,
panic-path audit, unsafe hygiene, design rules; nonzero exit on any
finding not absorbed by lint.baseline):
  --root DIR         workspace root to scan (default .)
  --fix-baseline     rewrite lint.baseline from the current findings
  --stats            also print the one-line lint-stats summary";

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("scenario") => return scenario_command(&args[1..]),
        Some("serve") => return serve_command(&args[1..]),
        Some("serve-bench") => return serve_bench_command(&args[1..]),
        Some("chaos") => return chaos_command(&args[1..]),
        Some("lint") => return lint_command(&args[1..]),
        _ => {}
    }
    // Legacy single-point mode: most failures are flag mistakes, so they
    // keep the usage text.
    run_single_point(args).map_err(CliError::Usage)
}

/// `tacos scenario run|expand <file.toml> [options]` and
/// `tacos scenario diff <a.csv> <b.csv> [--tol T]`.
fn scenario_command(args: &[String]) -> Result<(), CliError> {
    let action = args.first().ok_or_else(|| {
        CliError::Usage("scenario needs a subcommand: run | expand | diff".into())
    })?;
    if action == "diff" {
        return scenario_diff(&args[1..]);
    }
    let file = args
        .get(1)
        .ok_or_else(|| CliError::Usage(format!("scenario {action} needs a <file.toml>")))?;
    if !matches!(action.as_str(), "run" | "expand") {
        return Err(CliError::Usage(format!(
            "unknown scenario subcommand '{action}' (expected run | expand | diff)"
        )));
    }
    let full_spec = tacos_scenario::ScenarioSpec::from_file(file)
        .map_err(|e| CliError::Runtime(e.to_string()))?;

    let mut it = args.iter().skip(2);
    let mut run_only_flags: Vec<&str> = Vec::new();
    let mut quick = false;
    let mut threads: Option<usize> = None;
    let mut cache: Option<Option<String>> = None;
    let mut output: Option<String> = None;
    let mut quiet = false;
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        run_only_flags.push(match arg.as_str() {
            "--threads" => {
                threads = Some(
                    take("--threads")?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?,
                );
                "--threads"
            }
            "--cache" => {
                cache = Some(Some(take("--cache")?));
                "--cache"
            }
            "--no-cache" => {
                cache = Some(None);
                "--no-cache"
            }
            "--output" => {
                output = Some(take("--output")?);
                "--output"
            }
            "--quick" => {
                quick = true;
                "--quick"
            }
            "--quiet" => {
                quiet = true;
                "--quiet"
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown scenario argument '{other}'"
                )))
            }
        });
    }
    if action == "expand" {
        if let Some(flag) = run_only_flags.first() {
            return Err(CliError::Usage(format!(
                "{flag} only applies to 'scenario run'; 'scenario expand' is a dry run"
            )));
        }
    }
    if quick && full_spec.quick.is_none() {
        return Err(CliError::Runtime(format!(
            "--quick: scenario '{}' declares no [quick] section",
            full_spec.name
        )));
    }
    let mut spec = if quick {
        full_spec.quick_spec().clone()
    } else {
        full_spec
    };
    if let Some(n) = threads {
        spec.run.threads = n;
    }
    if let Some(c) = cache {
        spec.run.cache = c;
    }
    if let Some(stem) = output {
        spec.output = Some(stem);
    }
    if quiet {
        spec.run.quiet = true;
    }

    match action.as_str() {
        "expand" => {
            let points =
                tacos_scenario::expand(&spec).map_err(|e| CliError::Runtime(e.to_string()))?;
            println!("scenario : {} ({} points)", spec.name, points.len());
            if !spec.description.is_empty() {
                println!("about    : {}", spec.description);
            }
            let training = spec.evaluation.is_training();
            let mut header = vec!["#", "topology"];
            if training {
                header.push("model");
            }
            header.extend(["without", "link"]);
            if !training {
                header.extend(["collective", "size"]);
            }
            header.extend(["chunks", "algo", "seed", "attempts", "cheap"]);
            let mut t = Table::new(header);
            for p in &points {
                let mut row = vec![p.index.to_string(), p.topology.clone()];
                if training {
                    row.push(p.model.clone().unwrap_or_default());
                }
                row.extend([p.without_links.label(), p.link.to_string()]);
                if !training {
                    row.extend([p.collective.clone(), p.size_label.clone()]);
                }
                row.extend([
                    p.chunks.to_string(),
                    p.algo.clone(),
                    p.seed.to_string(),
                    p.attempts.to_string(),
                    if p.prefer_cheap_links { "on" } else { "off" }.into(),
                ]);
                t.row(row);
            }
            print!("{t}");
            Ok(())
        }
        "run" => {
            // Ctrl-C stops claiming new points; finished work is still
            // flushed to the CSV/JSON artifacts before exiting nonzero.
            tacos_core::shutdown::install();
            let summary =
                tacos_scenario::run(&spec).map_err(|e| CliError::Runtime(e.to_string()))?;
            let mut t = Table::new(vec![
                "#",
                "point",
                "npus",
                "time",
                "GB/s",
                "eff",
                "transfers",
                "cache",
            ]);
            for r in &summary.records {
                match &r.result {
                    Ok(m) => t.row(vec![
                        r.point.index.to_string(),
                        r.point.label(),
                        m.num_npus.to_string(),
                        format!("{}", m.collective_time),
                        m.bandwidth_gbps.map(fmt_f64).unwrap_or_else(|| "-".into()),
                        format!("{:.1}%", m.efficiency * 100.0),
                        m.transfers.to_string(),
                        match m.cache {
                            Some(tacos_core::CacheOutcome::Hit) => "hit".into(),
                            Some(tacos_core::CacheOutcome::Miss) => "miss".into(),
                            None => "off".into(),
                        },
                    ]),
                    // Timed-out points are not failures (the summary and
                    // exit code treat them separately); don't print a row
                    // a log grep for FAILED would catch.
                    Err(e) => t.row(vec![
                        r.point.index.to_string(),
                        r.point.label(),
                        "-".into(),
                        if e.starts_with(tacos_scenario::TIMED_OUT)
                            || e == tacos_scenario::INTERRUPTED
                        {
                            e.clone()
                        } else {
                            format!("FAILED: {e}")
                        },
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]),
                };
            }
            print!("{t}");
            println!(
                "{} points: {} generated, {} cache hits, {} failed, {} timed out, \
                 {} interrupted in {:.2}s",
                summary.records.len(),
                summary.generated,
                summary.cache_hits,
                summary.failed,
                summary.timed_out,
                summary.interrupted,
                summary.elapsed.as_secs_f64()
            );
            if let Some(stem) = &spec.output {
                if summary.has_timeline() {
                    eprintln!(
                        "(results written to {stem}.csv, {stem}.json, and {stem}.timeline.csv)"
                    );
                } else {
                    eprintln!("(results written to {stem}.csv and {stem}.json)");
                }
            }
            if summary.failed > 0 {
                return Err(CliError::Runtime(format!(
                    "{} of {} points failed",
                    summary.failed,
                    summary.records.len()
                )));
            }
            if summary.interrupted > 0 {
                return Err(CliError::Runtime(format!(
                    "interrupted: {} of {} points not executed (partial results kept)",
                    summary.interrupted,
                    summary.records.len()
                )));
            }
            Ok(())
        }
        _ => unreachable!("subcommand validated above"),
    }
}

/// `tacos serve [options]`: the synthesis-as-a-service daemon. Blocks
/// until SIGINT/SIGTERM or a client `shutdown` op, then drains workers
/// and persists the warm cache.
fn serve_command(args: &[String]) -> Result<(), CliError> {
    let mut config = tacos_serve::DaemonConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--addr" => config.addr = take("--addr")?,
            "--workers" => {
                config.workers = take("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?
            }
            "--queue-depth" => {
                config.queue_depth = take("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("bad --queue-depth: {e}"))?
            }
            "--cache-dir" => config.cache_dir = Some(take("--cache-dir")?.into()),
            "--deadline-ms" => {
                config.default_deadline_ms = Some(
                    take("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("bad --deadline-ms: {e}"))?,
                )
            }
            "--checkpoint-every" => {
                let secs: u64 = take("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                if secs == 0 {
                    return Err(CliError::Usage(
                        "--checkpoint-every must be at least 1 second".into(),
                    ));
                }
                config.checkpoint_every = Some(std::time::Duration::from_secs(secs));
            }
            "--max-line-bytes" => {
                config.max_line_bytes = take("--max-line-bytes")?
                    .parse()
                    .map_err(|e| format!("bad --max-line-bytes: {e}"))?
            }
            "--idle-timeout-secs" => {
                let secs: u64 = take("--idle-timeout-secs")?
                    .parse()
                    .map_err(|e| format!("bad --idle-timeout-secs: {e}"))?;
                config.idle_timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
            }
            "--max-connections" => {
                config.max_connections = take("--max-connections")?
                    .parse()
                    .map_err(|e| format!("bad --max-connections: {e}"))?
            }
            "--retry-after-ms" => {
                config.retry_after_ms = take("--retry-after-ms")?
                    .parse()
                    .map_err(|e| format!("bad --retry-after-ms: {e}"))?
            }
            "--warm-max-entries" => {
                config.warm_limits.max_entries = take("--warm-max-entries")?
                    .parse()
                    .map_err(|e| format!("bad --warm-max-entries: {e}"))?
            }
            "--warm-max-bytes" => {
                config.warm_limits.max_bytes = parse_size(&take("--warm-max-bytes")?)
                    .map_err(|e| format!("bad --warm-max-bytes: {e}"))?
                    .as_u64()
            }
            "--faults" => {
                config.faults = tacos_serve::FaultPlan::parse(&take("--faults")?)
                    .map_err(|e| format!("bad --faults: {e}"))?
            }
            "--quiet" => config.quiet = true,
            other => return Err(CliError::Usage(format!("unknown serve argument '{other}'"))),
        }
    }

    tacos_core::shutdown::install();
    let quiet = config.quiet;
    let handle = tacos_serve::Daemon::spawn(config)
        .map_err(|e| CliError::Runtime(format!("failed to start daemon: {e}")))?;
    if !quiet {
        eprintln!(
            "tacos serve: listening on {} (line-delimited JSON; Ctrl-C to stop)",
            handle.addr()
        );
    }
    // SIGINT/SIGTERM and the `shutdown` op both end up in one wake-up.
    tacos_core::shutdown::wait();
    let stats = handle.stats();
    handle
        .stop()
        .map_err(|e| CliError::Runtime(format!("failed to persist warm cache: {e}")))?;
    if !quiet {
        eprintln!(
            "tacos serve: stopped after {} requests ({} cache hits, {} synthesized, \
             {} deduplicated, {} rejected, {} evicted, {} worker restarts, {} checkpoints)",
            stats.requests,
            stats.cache_hits,
            stats.synthesized,
            stats.deduplicated,
            stats.rejected,
            stats.evictions,
            stats.worker_restarts,
            stats.checkpoints
        );
    }
    Ok(())
}

/// `tacos serve-bench <file.toml> [options]`: replay a scenario grid as
/// a request trace against a running daemon and record throughput and
/// latency percentiles per concurrency level.
fn serve_bench_command(args: &[String]) -> Result<(), CliError> {
    let file = args
        .first()
        .ok_or_else(|| CliError::Usage("serve-bench needs a <file.toml> trace scenario".into()))?;
    let mut config = tacos_serve::BenchConfig::default();
    let mut output = String::from("BENCH_PR9.json");
    let mut quick = false;
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--addr" => config.addr = take("--addr")?,
            "--concurrency" => {
                config.concurrency = take("--concurrency")?
                    .split(',')
                    .map(|v| v.trim().parse::<usize>())
                    .collect::<Result<Vec<usize>, _>>()
                    .map_err(|e| format!("bad --concurrency: {e}"))?;
                if config.concurrency.is_empty() {
                    return Err(CliError::Usage(
                        "--concurrency needs at least one level".into(),
                    ));
                }
            }
            "--deadline-ms" => {
                config.deadline_ms = Some(
                    take("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("bad --deadline-ms: {e}"))?,
                )
            }
            "--retries" => {
                config.retries = take("--retries")?
                    .parse()
                    .map_err(|e| format!("bad --retries: {e}"))?
            }
            "--output" => output = take("--output")?,
            "--quick" => quick = true,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown serve-bench argument '{other}'"
                )))
            }
        }
    }

    let full_spec = tacos_scenario::ScenarioSpec::from_file(file)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    if quick && full_spec.quick.is_none() {
        return Err(CliError::Runtime(format!(
            "--quick: scenario '{}' declares no [quick] section",
            full_spec.name
        )));
    }
    let spec = if quick {
        full_spec.quick_spec().clone()
    } else {
        full_spec
    };

    let report = tacos_serve::bench::run(&spec, &config).map_err(CliError::Runtime)?;
    let mut t = Table::new(vec![
        "clients", "requests", "wall s", "req/s", "p50 ms", "p95 ms", "p99 ms", "ok", "hits",
        "dedup", "rejected", "retried", "deadline", "errors", "warm", "evicted",
    ]);
    if let Some(levels) = report.get("levels").and_then(Json::as_array) {
        for level in levels {
            let cell = |key: &str| -> String {
                match level.get(key) {
                    Some(Json::Num(v)) => fmt_f64(*v),
                    Some(Json::Uint(v)) => v.to_string(),
                    _ => "-".into(),
                }
            };
            t.row(vec![
                cell("concurrency"),
                cell("requests"),
                cell("wall_s"),
                cell("throughput_rps"),
                cell("p50_ms"),
                cell("p95_ms"),
                cell("p99_ms"),
                cell("ok"),
                cell("cache_hits"),
                cell("deduplicated"),
                cell("rejected"),
                cell("retried"),
                cell("deadline"),
                cell("errors"),
                cell("warm_entries"),
                cell("evictions"),
            ]);
        }
    }
    print!("{t}");
    std::fs::write(&output, format!("{report}\n"))
        .map_err(|e| CliError::Runtime(format!("failed to write {output}: {e}")))?;
    eprintln!("(bench report written to {output})");
    Ok(())
}

/// `tacos chaos [--seed N] [--quiet]`: spawn a private daemon under a
/// seeded fault plan and assert the operational invariants — exactly one
/// typed response per request, worker panics contained to their flight,
/// torn checkpoints salvaged, oversized lines bounded, overload
/// recoverable. Nonzero exit on the first violated invariant.
fn chaos_command(args: &[String]) -> Result<(), CliError> {
    let mut options = tacos_serve::ChaosOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("missing value for --seed".into()))?;
                options.seed = v
                    .parse()
                    .map_err(|e| CliError::Usage(format!("bad --seed: {e}")))?;
            }
            "--quiet" => options.quiet = true,
            other => return Err(CliError::Usage(format!("unknown chaos argument '{other}'"))),
        }
    }
    let report = tacos_serve::chaos::run(&options).map_err(|violation| {
        CliError::Runtime(format!("chaos (seed {}): {violation}", options.seed))
    })?;
    println!(
        "tacos chaos: seed {} passed — {} invariants held under plan '{}'",
        report.seed,
        report.passed.len(),
        report.plan
    );
    Ok(())
}

/// `tacos lint [--fix-baseline] [--stats] [--root DIR]`: run the
/// repo-native static analyses. Exit is nonzero when any finding is not
/// absorbed by `lint.baseline`, so CI can gate on it directly.
fn lint_command(args: &[String]) -> Result<(), CliError> {
    let mut root = std::path::PathBuf::from(".");
    let mut fix = false;
    let mut stats = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("missing value for --root".into()))?;
                root = std::path::PathBuf::from(v);
            }
            "--fix-baseline" => fix = true,
            "--stats" => stats = true,
            other => return Err(CliError::Usage(format!("unknown lint argument '{other}'"))),
        }
    }
    let opts = tacos_lint::Options::new(root);
    if fix {
        let n = tacos_lint::fix_baseline(&opts).map_err(CliError::Runtime)?;
        println!("tacos lint: baseline rewritten with {n} grandfathered finding(s)");
        return Ok(());
    }
    let outcome = tacos_lint::run(&opts).map_err(CliError::Runtime)?;
    print!("{}", tacos_lint::render_report(&outcome));
    if stats {
        println!("{}", tacos_lint::render_stats(&outcome));
    }
    if outcome.findings.is_empty() {
        Ok(())
    } else {
        Err(CliError::Runtime(format!(
            "{} lint finding(s) — fix them, add `// lint: allow(rule, \"reason\")` where \
             justified, or (for pre-existing debt only) run `tacos lint --fix-baseline`",
            outcome.findings.len()
        )))
    }
}

/// `tacos scenario diff <a.csv> <b.csv> [--tol T]`: column-aware compare
/// of two shaped result sets; mismatches print and exit nonzero.
fn scenario_diff(args: &[String]) -> Result<(), CliError> {
    let a = args
        .first()
        .ok_or_else(|| CliError::Usage("scenario diff needs <a.csv> <b.csv>".into()))?;
    let b = args
        .get(1)
        .ok_or_else(|| CliError::Usage("scenario diff needs <a.csv> <b.csv>".into()))?;
    let mut tol = 1e-9f64;
    let mut it = args.iter().skip(2);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tol" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("missing value for --tol".into()))?;
                tol = v
                    .parse()
                    .map_err(|e| CliError::Usage(format!("bad --tol: {e}")))?;
                if !tol.is_finite() || tol < 0.0 {
                    return Err(CliError::Usage("--tol must be a finite value >= 0".into()));
                }
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown scenario diff argument '{other}'"
                )))
            }
        }
    }
    let report =
        tacos_scenario::diff_csv_files(a, b, tol).map_err(|e| CliError::Runtime(e.to_string()))?;
    if report.is_match() {
        println!("{report}");
        Ok(())
    } else {
        Err(CliError::Runtime(report.to_string()))
    }
}

fn run_single_point(args: &[String]) -> Result<(), String> {
    let mut topology_spec = String::from("mesh:3x3");
    let mut pattern = String::from("all-reduce");
    let mut size = String::from("64MB");
    let mut algo = String::from("tacos");
    let mut alpha_us = 0.5f64;
    let mut bw_gbps = 50.0f64;
    let mut seed = 42u64;
    let mut attempts = 1usize;
    let mut chunks = 1usize;
    let mut simulate = false;
    let mut json = false;
    let mut export_json: Option<String> = None;
    let mut export_xml: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--topology" => topology_spec = take("--topology")?,
            "--collective" => pattern = take("--collective")?,
            "--size" => size = take("--size")?,
            "--algo" => algo = take("--algo")?,
            "--alpha" => {
                alpha_us = take("--alpha")?
                    .parse()
                    .map_err(|e| format!("bad --alpha: {e}"))?
            }
            "--bw" => {
                bw_gbps = take("--bw")?
                    .parse()
                    .map_err(|e| format!("bad --bw: {e}"))?
            }
            "--seed" => {
                seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--attempts" => {
                attempts = take("--attempts")?
                    .parse()
                    .map_err(|e| format!("bad --attempts: {e}"))?
            }
            "--chunks" => {
                chunks = take("--chunks")?
                    .parse()
                    .map_err(|e| format!("bad --chunks: {e}"))?
            }
            "--simulate" => simulate = true,
            "--json" => json = true,
            "--export-json" => export_json = Some(take("--export-json")?),
            "--export-xml" => export_xml = Some(take("--export-xml")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }

    let spec = LinkSpec::new(Time::from_micros(alpha_us), Bandwidth::gbps(bw_gbps));
    let topo = parse_topology(&topology_spec, spec)?;
    let size = parse_size(&size)?;
    let pattern = parse_pattern(&pattern, topo.num_npus())?;
    let collective = Collective::with_chunking(pattern, topo.num_npus(), chunks.max(1), size)
        .map_err(|e| e.to_string())?;

    let started = std::time::Instant::now();
    let algorithm = match algo.as_str() {
        "tacos" => {
            let config = SynthesizerConfig::default()
                .with_seed(seed)
                .with_attempts(attempts.max(1));
            Synthesizer::new(config)
                .synthesize(&topo, &collective)
                .map_err(|e| e.to_string())?
                .into_algorithm()
        }
        name => {
            let kind = parse_baseline(name, seed)?;
            BaselineAlgorithm::new(kind)
                .generate(&topo, &collective)
                .map_err(|e| e.to_string())?
        }
    };
    let synth_time = started.elapsed();

    let sim_report = if simulate || algorithm.planned_time().is_none() {
        Some(
            Simulator::new()
                .simulate(&topo, &algorithm)
                .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };
    let collective_time = sim_report
        .as_ref()
        .map(|r| r.collective_time())
        .unwrap_or_else(|| algorithm.collective_time());
    let bandwidth_gbps = if collective_time.is_zero() {
        f64::INFINITY
    } else {
        size.as_u64() as f64 / collective_time.as_secs_f64() / 1e9
    };
    let ideal = IdealBound::new(&topo);
    let efficiency = ideal.efficiency(pattern, size, collective_time);

    if let Some(path) = &export_json {
        std::fs::write(path, tacos_collective::export::to_json(&algorithm))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("(algorithm JSON written to {path})");
    }
    if let Some(path) = &export_xml {
        std::fs::write(path, tacos_collective::export::to_msccl_xml(&algorithm))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("(MSCCL-style XML written to {path})");
    }
    if json {
        let out = Json::obj([
            ("topology", Json::Str(topo.name().into())),
            ("num_npus", (topo.num_npus() as u64).into()),
            ("num_links", (topo.num_links() as u64).into()),
            ("collective", Json::Str(pattern.short_name().into())),
            ("size_bytes", size.as_u64().into()),
            ("algorithm", Json::Str(algorithm.name().into())),
            ("transfers", (algorithm.len() as u64).into()),
            ("collective_time_ps", collective_time.as_ps().into()),
            ("bandwidth_gbps", bandwidth_gbps.into()),
            ("efficiency_vs_ideal", efficiency.into()),
            ("synthesis_seconds", synth_time.as_secs_f64().into()),
        ]);
        println!("{out}");
    } else {
        println!("topology   : {topo}");
        println!("collective : {pattern} of {size} ({chunks} chunk(s)/NPU)");
        println!(
            "algorithm  : {} ({} transfers)",
            algorithm.name(),
            algorithm.len()
        );
        println!("synthesis  : {:.3}s", synth_time.as_secs_f64());
        let mut t = Table::new(vec!["metric", "value"]);
        t.row(vec!["collective time".into(), format!("{collective_time}")]);
        t.row(vec![
            "bandwidth".into(),
            format!("{} GB/s", fmt_f64(bandwidth_gbps)),
        ]);
        t.row(vec![
            "efficiency vs ideal".into(),
            format!("{:.1}%", efficiency * 100.0),
        ]);
        if let Some(r) = &sim_report {
            t.row(vec![
                "avg link utilization".into(),
                format!("{:.1}%", r.average_utilization() * 100.0),
            ]);
            t.row(vec!["messages simulated".into(), r.messages().to_string()]);
        }
        print!("{t}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacos_baselines::BaselineKind;
    use tacos_collective::CollectivePattern;
    use tacos_topology::ByteSize;

    #[test]
    fn parse_sizes() {
        assert_eq!(parse_size("1GB").unwrap(), ByteSize::gb(1));
        assert_eq!(parse_size("64MB").unwrap(), ByteSize::mb(64));
        assert_eq!(parse_size("1KB").unwrap(), ByteSize::kb(1));
        assert_eq!(parse_size("512").unwrap(), ByteSize::bytes(512));
        assert_eq!(parse_size("2GiB").unwrap(), ByteSize::gib(2));
        assert!(parse_size("abc").is_err());
    }

    #[test]
    fn parse_topologies() {
        let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
        assert_eq!(parse_topology("ring:8", spec).unwrap().num_npus(), 8);
        assert_eq!(parse_topology("mesh:3x3", spec).unwrap().num_npus(), 9);
        assert_eq!(parse_topology("torus:2x2x2", spec).unwrap().num_npus(), 8);
        assert_eq!(parse_topology("fc:4", spec).unwrap().num_npus(), 4);
        assert_eq!(parse_topology("switch:4:d2", spec).unwrap().num_links(), 8);
        assert_eq!(parse_topology("rfs:2x4x8", spec).unwrap().num_npus(), 64);
        assert_eq!(
            parse_topology("dragonfly:5x4", spec).unwrap().num_npus(),
            20
        );
        assert_eq!(parse_topology("dgx1", spec).unwrap().num_npus(), 8);
        assert!(parse_topology("blob:3", spec).is_err());
        assert!(parse_topology("mesh:3", spec).is_err());
    }

    #[test]
    fn parse_patterns_and_baselines() {
        assert_eq!(
            parse_pattern("ar", 4).unwrap(),
            CollectivePattern::AllReduce
        );
        assert_eq!(
            parse_pattern("all-gather", 4).unwrap(),
            CollectivePattern::AllGather
        );
        assert_eq!(
            parse_pattern("a2a", 4).unwrap(),
            CollectivePattern::AllToAll
        );
        assert_eq!(
            parse_pattern("gather:2", 4).unwrap(),
            CollectivePattern::Gather {
                root: tacos_topology::NpuId::new(2)
            }
        );
        assert_eq!(
            parse_pattern("scatter", 4).unwrap(),
            CollectivePattern::Scatter {
                root: tacos_topology::NpuId::new(0)
            }
        );
        assert!(parse_pattern("gather:9", 4).is_err());
        assert!(parse_pattern("frobnicate", 4).is_err());
        assert!(matches!(
            parse_baseline("ring", 0).unwrap(),
            BaselineKind::Ring
        ));
        assert!(matches!(
            parse_baseline("taccl", 9).unwrap(),
            BaselineKind::TacclLike(_)
        ));
        assert!(parse_baseline("magic", 0).is_err());
    }

    fn temp_file(tag: &str, contents: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("tacos-cli-{tag}-{}.toml", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn scenario_expand_and_run_end_to_end() {
        let path = temp_file(
            "ok",
            r#"
[scenario]
name = "cli-test"
[sweep]
topology = ["ring:4"]
collective = ["all-gather"]
size = ["4MB"]
algo = ["ring"]
[run]
cache = false
"#,
        );
        let p = path.to_str().unwrap().to_string();
        run(&["scenario".into(), "expand".into(), p.clone()]).unwrap();
        run(&["scenario".into(), "run".into(), p, "--quiet".into()]).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_scenario_file_is_a_readable_error() {
        // Syntax error: the message must carry a line number, not a panic.
        let path = temp_file("bad", "[scenario]\nname = \"x\"\nbad = ");
        let err = run(&[
            "scenario".into(),
            "run".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap_err();
        assert!(err.message().contains("line 3"), "got: {err}");
        let _ = std::fs::remove_file(&path);

        // Invalid spec: readable validation message.
        let path = temp_file(
            "inval",
            "[scenario]\nname = \"x\"\n[sweep]\ntopology = [\"blob:3\"]",
        );
        let err = run(&[
            "scenario".into(),
            "run".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap_err();
        assert!(
            err.message().contains("unknown topology kind"),
            "got: {err}"
        );
        let _ = std::fs::remove_file(&path);

        // Missing file: IO error with the path, still no panic.
        let err = run(&[
            "scenario".into(),
            "run".into(),
            "/nonexistent/scenario.toml".into(),
        ])
        .unwrap_err();
        assert!(
            err.message().contains("/nonexistent/scenario.toml"),
            "got: {err}"
        );
    }

    #[test]
    fn scenario_run_exits_nonzero_on_point_failure_but_keeps_finished_rows() {
        let dir = std::env::temp_dir().join(format!("tacos-cli-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stem = dir.join("out").display().to_string();
        // rhd needs a power-of-two NPU count: one of the two points fails.
        let path = temp_file(
            "fail",
            r#"
[scenario]
name = "cli-fail"
[sweep]
topology = ["ring:3"]
collective = ["all-reduce"]
size = ["3MB"]
algo = ["ring", "rhd"]
[run]
cache = false
"#,
        );
        let err = run(&[
            "scenario".into(),
            "run".into(),
            path.to_str().unwrap().into(),
            "--quiet".into(),
            "--output".into(),
            stem.clone(),
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "got: {err:?}");
        assert!(err.message().contains("1 of 2 points failed"), "got: {err}");
        // The completed point still landed in the artifacts.
        let csv = std::fs::read_to_string(format!("{stem}.csv")).unwrap();
        assert_eq!(csv.lines().count(), 1 + 2);
        assert!(csv
            .lines()
            .any(|l| l.contains(",ring,") && l.ends_with(',')));
        assert!(std::path::Path::new(&format!("{stem}.json")).exists());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_usage_errors() {
        assert!(run(&["scenario".into()]).is_err());
        assert!(run(&["scenario".into(), "frobnicate".into(), "x.toml".into()]).is_err());
        assert!(run(&["scenario".into(), "diff".into(), "only-one.csv".into()]).is_err());
    }

    #[test]
    fn scenario_quick_runs_the_reduced_grid() {
        let path = temp_file(
            "quick",
            r#"
[scenario]
name = "cli-quick"
[sweep]
topology = ["ring:4", "ring:8"]
collective = ["all-gather"]
size = ["4MB"]
algo = ["ring"]
[quick]
topology = ["ring:4"]
[run]
cache = false
"#,
        );
        let p = path.to_str().unwrap().to_string();
        run(&[
            "scenario".into(),
            "run".into(),
            p.clone(),
            "--quick".into(),
            "--quiet".into(),
        ])
        .unwrap();
        // Without a [quick] section the flag is a readable error.
        let plain = temp_file(
            "noquick",
            "[scenario]\nname = \"x\"\n[sweep]\ntopology = [\"ring:4\"]\n",
        );
        let err = run(&[
            "scenario".into(),
            "run".into(),
            plain.to_str().unwrap().into(),
            "--quick".into(),
        ])
        .unwrap_err();
        assert!(
            err.message().contains("declares no [quick] section"),
            "got: {err}"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&plain);
    }

    #[test]
    fn scenario_diff_compares_result_sets() {
        let dir = std::env::temp_dir().join(format!("tacos-cli-diff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        std::fs::write(&a, "scenario,point,bandwidth_gbps\ns,0,50\n").unwrap();
        std::fs::write(&b, "scenario,point,bandwidth_gbps\ns,0,50.0000000001\n").unwrap();
        // Within the default tolerance: match, exit zero.
        run(&[
            "scenario".into(),
            "diff".into(),
            a.display().to_string(),
            b.display().to_string(),
        ])
        .unwrap();
        // With a zero tolerance the same pair mismatches, nonzero exit,
        // readable report.
        let err = run(&[
            "scenario".into(),
            "diff".into(),
            a.display().to_string(),
            b.display().to_string(),
            "--tol".into(),
            "0".into(),
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)));
        assert!(err.message().contains("result sets differ"), "got: {err}");
        assert!(err.message().contains("bandwidth_gbps"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_expand_rejects_run_only_flags() {
        let path = temp_file(
            "expandflags",
            "[scenario]\nname = \"x\"\n[sweep]\ntopology = [\"ring:4\"]\n",
        );
        let p = path.to_str().unwrap().to_string();
        let err = run(&[
            "scenario".into(),
            "expand".into(),
            p.clone(),
            "--quiet".into(),
        ])
        .unwrap_err();
        assert!(
            err.message().contains("only applies to 'scenario run'"),
            "got: {err}"
        );
        run(&["scenario".into(), "expand".into(), p]).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn end_to_end_tacos_run() {
        run(&[
            "--topology".into(),
            "mesh:3x3".into(),
            "--collective".into(),
            "all-gather".into(),
            "--size".into(),
            "9MB".into(),
            "--json".into(),
        ])
        .unwrap();
    }

    #[test]
    fn end_to_end_baseline_run_with_sim() {
        run(&[
            "--topology".into(),
            "ring:8".into(),
            "--algo".into(),
            "ring".into(),
            "--size".into(),
            "8MB".into(),
            "--simulate".into(),
        ])
        .unwrap();
    }
}
