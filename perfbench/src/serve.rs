//! The `serve-mixed` workload: a synthesis daemon in a child process,
//! driven by two closed-loop connections replaying the seeded trace.
//!
//! Each pass replays the trace and ends with a timed `checkpoint`; the
//! daemon is then stopped and restarted on that snapshot, and the
//! restart (spawn to first `ping` reply) is one `setup_s` sample.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use tacos_collective::export::from_compact;
use tacos_core::WarmLimits;
use tacos_report::Json;
use tacos_serve::{Daemon, DaemonConfig, SNAPSHOT_FILE};

use crate::gen::{self, ServeTrace, Step};
use crate::stats::{median, percentile};
use crate::trace::{self_time_ns, Span, SpanId, Tracer};
use crate::{floats, Options, Outcome};

/// Warm-cache entry cap, well below the trace's distinct-key count.
const WARM_CAP: u64 = 16;
/// Daemon synthesis workers.
const WORKERS: usize = 2;
/// Timed passes an untraced run makes at least.
const MIN_PASSES: usize = 3;
/// Restarts on the snapshot after each pass; each is a `setup_s` sample.
/// The first connection waits for the daemon's accept poll, so single
/// samples scatter by up to a poll interval.
const RESTARTS: usize = 3;
/// How long any one reply may take before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// `perfbench daemon`: runs the daemon until a `shutdown` op arrives or
/// stdin closes (the benchmark process that started it is gone).
/// Prints `<addr> <seconds Daemon::spawn took>` once it listens.
pub fn daemon_main(args: &[String]) -> ExitCode {
    match daemon(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

fn daemon(args: &[String]) -> Result<(), String> {
    let cache_dir = match args {
        [flag, dir] if flag == "--cache-dir" => PathBuf::from(dir),
        _ => return Err("usage: perfbench daemon --cache-dir DIR".into()),
    };
    let config = DaemonConfig {
        addr: "127.0.0.1:0".into(),
        quiet: true,
        cache_dir: Some(cache_dir),
        workers: WORKERS,
        warm_limits: WarmLimits {
            max_entries: WARM_CAP,
            max_bytes: 0,
        },
        ..DaemonConfig::default()
    };
    let started = Instant::now();
    let handle = Daemon::spawn(config).map_err(|e| format!("cannot start: {e}"))?;
    let reload_s = started.elapsed().as_secs_f64();
    println!("{} {reload_s}", handle.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    // EOF on stdin means the parent died without a shutdown op. The
    // reader thread blocks in read(2) and ends with the process.
    let orphaned = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&orphaned);
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        flag.store(true, Ordering::SeqCst);
    });
    while !handle.stop_requested() && !orphaned.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
    }
    handle
        .stop()
        .map(|_| ())
        .map_err(|e| format!("cannot persist the warm cache: {e}"))
}

/// One line-delimited JSON connection. Unlike `tacos_serve::Client` it
/// sets a read timeout, so a hung daemon fails the run instead of
/// stalling it, and it returns raw reply lines for parsing after a pass.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn call(&mut self, request: &str) -> Result<String, String> {
        let mut line = String::with_capacity(request.len() + 1);
        line.push_str(request);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn call_json(&mut self, request: &str, status: &str) -> Result<Json, String> {
        let reply = self.call(request)?;
        let json = Json::parse(reply.trim()).map_err(|e| format!("bad reply: {e}"))?;
        match json.get("status").and_then(Json::as_str) {
            Some(s) if s == status => Ok(json),
            _ => Err(format!("{request} answered {}", reply.trim())),
        }
    }
}

/// A running daemon child; killed and reaped on drop if still alive.
struct DaemonProc {
    child: Child,
    control: Conn,
    /// Held so the child sees EOF if this process dies.
    _stdin: ChildStdin,
    /// Seconds `Daemon::spawn` took inside the child.
    reload_s: f64,
}

impl DaemonProc {
    /// Starts a daemon on `cache_dir`; returns it with the seconds from
    /// spawn to the first `ping` reply.
    fn start(cache_dir: &Path) -> Result<(DaemonProc, f64), String> {
        let started = Instant::now();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let ready = rx.recv_timeout(REPLY_TIMEOUT);
        let connected = ready
            .map_err(|_| "the daemon did not report its address".to_string())
            .and_then(|line| {
                let mut fields = line.split_whitespace();
                let addr = fields.next().ok_or("the daemon exited before listening")?;
                let reload_s = fields
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("no spawn time on the daemon's first line")?;
                Ok((Conn::connect(addr)?, reload_s))
            });
        let (control, reload_s) = match connected {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut proc = DaemonProc {
            child,
            control,
            _stdin: stdin,
            reload_s,
        };
        proc.control.call_json(r#"{"op":"ping"}"#, "pong")?;
        Ok((proc, started.elapsed().as_secs_f64()))
    }

    fn addr(&self) -> Result<String, String> {
        self.control
            .writer
            .peer_addr()
            .map(|a| a.to_string())
            .map_err(|e| e.to_string())
    }

    fn stats(&mut self) -> Result<Json, String> {
        self.control.call_json(r#"{"op":"stats"}"#, "stats")
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn stop(mut self) -> Result<(), String> {
        self.control
            .call_json(r#"{"op":"shutdown"}"#, "shutting_down")?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("daemon did not stop after shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Removes the daemon's cache directory on every exit path.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Which request a sample answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Asked {
    /// Index into the key set.
    Key(usize),
    /// Burst `b` of pass `p`.
    Burst(u32, usize),
}

/// One request's client-side record; the reply is examined after the
/// pass.
struct Sample {
    asked: Asked,
    include_algorithm: bool,
    latency_ms: f64,
    reply: Result<String, String>,
}

/// Replays one connection's share of the trace.
fn replay(
    addr: &str,
    trace: &ServeTrace,
    conn: usize,
    pass: u32,
    barrier: &Barrier,
    tracer: &Tracer,
    parent: SpanId,
) -> (Vec<Sample>, Vec<Span>) {
    let mut link = Conn::connect(addr);
    let mut samples = Vec::with_capacity(trace.conns[conn].len());
    let mut spans = Vec::new();
    let mut send = |asked: Asked, line: &str, include_algorithm: bool| {
        let start_ns = tracer.now_ns();
        let t0 = Instant::now();
        let reply = match &mut link {
            Ok(c) => c.call(line),
            Err(e) => Err(e.clone()),
        };
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (true, Some(parent)) = (tracer.enabled(), parent.index()) {
            spans.push(Span {
                name: "serve.request",
                start_ns,
                end_ns: tracer.now_ns(),
                parent: Some(parent),
                pass,
            });
        }
        samples.push(Sample {
            asked,
            include_algorithm,
            latency_ms,
            reply,
        });
    };
    for step in &trace.conns[conn] {
        // Both connections reach every meeting point, failed or not, so
        // neither waits forever at the barrier.
        match step {
            Step::Request(req) => send(Asked::Key(req.key), &req.line, req.include_algorithm),
            Step::Burst(b) => {
                barrier.wait();
                send(Asked::Burst(pass, *b), &gen::burst_line(pass, *b), false);
            }
            Step::Meet => {
                barrier.wait();
            }
        }
    }
    (samples, spans)
}

/// Counter deltas of one pass, from `stats` before and after it.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    cache_hits: u64,
    synthesized: u64,
    deduplicated: u64,
    rejected: u64,
    worker_restarts: u64,
    evictions: u64,
    resident_bytes: u64,
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats.get(name).and_then(Json::as_u64).unwrap_or(0)
}

fn delta(before: &Json, after: &Json) -> Counters {
    let d = |name| counter(after, name).saturating_sub(counter(before, name));
    Counters {
        cache_hits: d("cache_hits"),
        synthesized: d("synthesized"),
        deduplicated: d("deduplicated"),
        rejected: d("rejected"),
        worker_restarts: d("worker_restarts"),
        evictions: d("evictions"),
        resident_bytes: counter(after, "resident_bytes"),
    }
}

/// Latencies of one pass, split by how the daemon answered.
#[derive(Debug, Default)]
struct Split {
    all: Vec<f64>,
    hit: Vec<f64>,
    export_hit: Vec<f64>,
    miss: Vec<f64>,
    synth_wait: Vec<f64>,
    overhead: Vec<f64>,
    ok: u64,
}

/// Everything recorded about one pass.
struct PassRecord {
    pass_s: f64,
    replay_s: f64,
    checkpoint_s: f64,
    snapshot_bytes: u64,
    counters: Counters,
    split: Split,
    traced: bool,
}

/// Cross-pass correctness state: each key's reported time and payload.
#[derive(Default)]
struct Seen {
    time_ps: HashMap<Asked, u64>,
    payload: HashMap<Asked, String>,
}

/// Examines a pass's replies (outside every timed region).
fn examine(samples: Vec<Sample>, seen: &mut Seen, out: &mut Outcome, split: &mut Split) {
    for s in samples {
        out.attempted += 1;
        let reply = match s.reply {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.fail(format!("{:?}: {e}", s.asked));
                continue;
            }
        };
        // The schedule is cut out before parsing: `Json::parse` rescans
        // the rest of the input for every character of a string, which
        // is quadratic in a multi-megabyte payload.
        let (reply, payload) = split_payload(&reply);
        let json = match Json::parse(reply.trim()) {
            Ok(j) => j,
            Err(e) => {
                out.failed += 1;
                out.fail(format!("{:?}: unparseable reply: {e}", s.asked));
                continue;
            }
        };
        if json.get("status").and_then(Json::as_str) != Some("ok") {
            // Rejected, deadline-expired and failed requests all count.
            out.failed += 1;
            continue;
        }
        split.ok += 1;
        let flag = |k| json.get(k).and_then(Json::as_bool).unwrap_or(false);
        let time_ps = json.get("collective_time_ps").and_then(Json::as_u64);
        let synthesis_ms = json
            .get("synthesis_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let ideal = json.get("algorithm").and_then(Json::as_str) == Some("ideal");
        match (time_ps, seen.time_ps.get(&s.asked)) {
            (None, _) => out.fail(format!("{:?}: no collective_time_ps", s.asked)),
            (Some(t), Some(&first)) if t != first => out.fail(format!(
                "{:?}: collective_time_ps {t} after {first}",
                s.asked
            )),
            (Some(t), _) => {
                seen.time_ps.insert(s.asked, t);
            }
        }
        if s.include_algorithm {
            check_payload(&json, payload, s.asked, seen, out);
        }
        split.all.push(s.latency_ms);
        if flag("cache_hit") {
            if s.include_algorithm {
                split.export_hit.push(s.latency_ms);
            } else {
                split.hit.push(s.latency_ms);
            }
        } else if !flag("deduplicated") && !ideal {
            split.miss.push(s.latency_ms);
            split.synth_wait.push(synthesis_ms);
            split.overhead.push(s.latency_ms - synthesis_ms);
        }
    }
}

/// An exported schedule must parse, match the reply's transfer count,
/// and be byte-identical every time its key is served.
fn check_payload(
    json: &Json,
    payload: Option<Result<String, String>>,
    asked: Asked,
    seen: &mut Seen,
    out: &mut Outcome,
) {
    let text = match payload {
        Some(Ok(text)) => text,
        Some(Err(e)) => return out.fail(format!("{asked:?}: bad algorithm_compact: {e}")),
        None => {
            return out.fail(format!(
                "{asked:?}: include_algorithm reply has no schedule"
            ))
        }
    };
    match seen.payload.get(&asked) {
        Some(first) if *first == text => {}
        Some(_) => out.fail(format!("{asked:?}: exported schedule changed")),
        None => {
            let transfers = json.get("transfers").and_then(Json::as_u64);
            match from_compact(&text) {
                Ok(algo) if Some(algo.len() as u64) == transfers => {}
                Ok(algo) => out.fail(format!(
                    "{asked:?}: exported schedule has {} transfers, reply says {transfers:?}",
                    algo.len()
                )),
                Err(e) => out.fail(format!("{asked:?}: exported schedule does not parse: {e}")),
            }
            seen.payload.insert(asked, text);
        }
    }
}

/// Splits the `algorithm_compact` string out of a reply line: returns
/// the line with an empty string in its place, and the decoded schedule
/// text if the field is present.
fn split_payload(reply: &str) -> (String, Option<Result<String, String>>) {
    const FIELD: &str = "\"algorithm_compact\":\"";
    let Some(at) = reply.find(FIELD) else {
        return (reply.to_string(), None);
    };
    let body = at + FIELD.len();
    let mut text = String::new();
    let mut chars = reply[body..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                let rest = format!("{}{}", &reply[..body], &reply[body + i..]);
                return (rest, Some(Ok(text)));
            }
            '\\' => match chars.next().map(|(_, e)| e) {
                Some('n') => text.push('\n'),
                Some('t') => text.push('\t'),
                Some('r') => text.push('\r'),
                Some(e @ ('"' | '\\' | '/')) => text.push(e),
                other => {
                    let e = format!("unsupported escape {other:?}");
                    return (reply.to_string(), Some(Err(e)));
                }
            },
            c => text.push(c),
        }
    }
    (reply.to_string(), Some(Err("unterminated string".into())))
}

/// One pass: replay on two connections, then a timed checkpoint.
fn run_pass(
    daemon: &mut DaemonProc,
    cache_dir: &Path,
    trace: &ServeTrace,
    pass: u32,
    tr: &mut Tracer,
    seen: &mut Seen,
    out: &mut Outcome,
) -> Result<PassRecord, String> {
    let addr = daemon.addr()?;
    let before = daemon.stats()?;
    let span = tr.open("serve.pass", SpanId::ROOT, pass);
    let barrier = Barrier::new(2);
    let started = Instant::now();
    let replies = {
        let tracer = &*tr;
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|conn| {
                    let (addr, barrier) = (&addr, &barrier);
                    s.spawn(move || replay(addr, trace, conn, pass, barrier, tracer, span))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("replay threads do not panic"))
                .collect::<Vec<_>>()
        })
    };
    let replay_s = started.elapsed().as_secs_f64();
    let checkpoint = tr.open("warm.checkpoint", span, pass);
    let t0 = Instant::now();
    daemon
        .control
        .call_json(r#"{"op":"checkpoint"}"#, "checkpointed")?;
    let checkpoint_s = t0.elapsed().as_secs_f64();
    tr.close(checkpoint);
    let pass_s = started.elapsed().as_secs_f64();
    tr.close(span);
    out.attempted += 1;

    let after = daemon.stats()?;
    let counters = delta(&before, &after);
    let snapshot_bytes = std::fs::metadata(cache_dir.join(SNAPSHOT_FILE))
        .map(|m| m.len())
        .map_err(|e| format!("no snapshot after checkpoint: {e}"))?;
    let mut split = Split::default();
    for (samples, spans) in replies {
        examine(samples, seen, out, &mut split);
        tr.absorb(spans);
    }
    for (what, n) in [
        ("hits", counters.cache_hits),
        ("misses", counters.synthesized),
        ("evictions", counters.evictions),
        ("deduplications", counters.deduplicated),
    ] {
        if n == 0 {
            out.fail(format!("pass {pass} saw no {what}"));
        }
    }
    Ok(PassRecord {
        pass_s,
        replay_s,
        checkpoint_s,
        snapshot_bytes,
        counters,
        split,
        traced: tr.enabled(),
    })
}

/// Runs `serve-mixed`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let trace = gen::generate(opts.seed);
    let cache_dir = TempDir(opts.out.join(format!("serve-cache-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&cache_dir.0);
    let mut out = Outcome::default();
    let mut tr = Tracer::new(false, Instant::now());
    let mut seen = Seen::default();

    // Cold start, then an untimed warm-up pass that fills the cache the
    // first timed pass restarts on.
    let (mut daemon, _) = DaemonProc::start(&cache_dir.0)?;
    let mut attempted = 0;
    run_pass(
        &mut daemon,
        &cache_dir.0,
        &trace,
        u32::MAX,
        &mut tr,
        &mut seen,
        &mut out,
    )?;
    let mut setups = Vec::new();
    let mut reloads = Vec::new();
    // Peak RSS of each daemon that served a timed pass.
    let mut peak_rss = Vec::new();
    let mut passes: Vec<PassRecord> = Vec::new();
    let started = Instant::now();
    for pass in 0u32.. {
        if pass > 0 {
            peak_rss.push(daemon.peak_rss_mb()?);
        }
        for _ in 0..RESTARTS {
            daemon.stop()?;
            let (next, setup_s) = DaemonProc::start(&cache_dir.0)?;
            daemon = next;
            setups.push(setup_s);
            reloads.push(daemon.reload_s);
        }
        if pass == 0 {
            // Only timed passes count towards attempted/failed.
            attempted = out.attempted;
            out.attempted = 0;
            out.failed = 0;
        }
        let enough = |passes: &[PassRecord]| {
            let traced = passes.iter().filter(|p| p.traced).count();
            if opts.trace {
                traced >= 2 && passes.len() - traced >= 2
            } else {
                passes.len() >= MIN_PASSES
            }
        };
        if enough(&passes) && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        tr.set_enabled(opts.trace && pass % 2 == 1);
        passes.push(run_pass(
            &mut daemon,
            &cache_dir.0,
            &trace,
            pass,
            &mut tr,
            &mut seen,
            &mut out,
        )?);
    }
    daemon.stop()?;
    tr.set_enabled(opts.trace);

    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.pass_s)
        .collect();
    out.set("pass_s", median(&untraced), untraced.len());
    out.set("setup_s", median(&setups), setups.len());
    out.set("peak_rss_mb", median(&peak_rss), peak_rss.len());
    out.info.extend([
        ("setup_s_samples", floats(&setups)),
        ("peak_rss_mb_samples", floats(&peak_rss)),
        ("pass_s_samples", floats(&untraced)),
        ("trace_seed", trace.seed.into()),
        ("distinct_keys", (trace.distinct_keys as u64).into()),
        ("burst_keys_per_pass", (gen::BURSTS as u64).into()),
        (
            "requests_per_pass",
            ((trace.requests().count() + 2 * gen::BURSTS) as u64).into(),
        ),
        ("warm_max_entries", WARM_CAP.into()),
        ("workers", (WORKERS as u64).into()),
        ("connections", 2u64.into()),
        ("warm_up_requests", attempted.into()),
    ]);
    if opts.trace {
        layers(&passes, &reloads, &untraced, &mut tr, &mut out)?;
        out.tracer = Some(tr);
    }
    Ok(out)
}

/// Per-layer metrics over the traced passes.
fn layers(
    passes: &[PassRecord],
    reloads: &[f64],
    untraced: &[f64],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let traced: Vec<&PassRecord> = passes.iter().filter(|p| p.traced).collect();
    let n = traced.len();
    let pool = |f: fn(&Split) -> &Vec<f64>| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|p| f(&p.split).iter().copied())
            .collect()
    };
    let p50 = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    let all = pool(|s| &s.all);
    let sum = |f: fn(&Counters) -> u64| -> u64 { traced.iter().map(|p| f(&p.counters)).sum() };
    let per_pass = |f: fn(&PassRecord) -> f64| -> f64 {
        median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let rps: Vec<f64> = traced
        .iter()
        .map(|p| p.split.ok as f64 / p.replay_s)
        .collect();
    out.set("serve.rps", median(&rps), n);
    out.set("serve.p50_ms", median(&all), all.len());
    out.set("serve.p99_ms", percentile(&all, 99.0)?, all.len());
    let hit = pool(|s| &s.hit);
    let export_hit = pool(|s| &s.export_hit);
    let miss = pool(|s| &s.miss);
    out.set("serve.hit_ms", p50(hit.clone()), hit.len());
    out.set(
        "serve.export_hit_ms",
        p50(export_hit.clone()),
        export_hit.len(),
    );
    out.set("serve.miss_ms", p50(miss.clone()), miss.len());
    out.set(
        "serve.synth_wait_ms",
        p50(pool(|s| &s.synth_wait)),
        miss.len(),
    );
    out.set("serve.overhead_ms", p50(pool(|s| &s.overhead)), miss.len());
    let dedup = sum(|c| c.deduplicated);
    let synthesized = sum(|c| c.synthesized);
    let hits = sum(|c| c.cache_hits);
    out.set(
        "serve.dedup_ratio",
        dedup as f64 / (dedup + synthesized).max(1) as f64,
        n,
    );
    out.set("serve.rejected", sum(|c| c.rejected) as f64, n);
    out.set(
        "serve.worker_restarts",
        sum(|c| c.worker_restarts) as f64,
        n,
    );
    out.set(
        "warm.hit_ratio",
        hits as f64 / (hits + synthesized + dedup).max(1) as f64,
        n,
    );
    out.set(
        "warm.evictions",
        per_pass(|p| p.counters.evictions as f64),
        n,
    );
    out.set(
        "warm.resident_bytes",
        per_pass(|p| p.counters.resident_bytes as f64),
        n,
    );
    out.set("warm.checkpoint_s", per_pass(|p| p.checkpoint_s), n);
    out.set(
        "warm.snapshot_bytes",
        per_pass(|p| p.snapshot_bytes as f64),
        n,
    );
    out.set("warm.reload_s", median(reloads), reloads.len());
    let spans = tr.spans();
    let self_s: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "serve.pass")
        .map(|(i, _)| self_time_ns(spans, i) as f64 * 1e-9)
        .collect();
    out.set("pass.self_s", median(&self_s), self_s.len());
    out.set(
        "trace.overhead_s",
        per_pass(|p| p.pass_s) - median(untraced),
        n,
    );
    out.info.push(("spans", (spans.len() as u64).into()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_cut_out_and_decoded() {
        let line = r#"{"algorithm":"tacos","algorithm_compact":"a b\nc\\d\"e","transfers":3}"#;
        let (rest, payload) = split_payload(line);
        assert_eq!(
            rest,
            r#"{"algorithm":"tacos","algorithm_compact":"","transfers":3}"#
        );
        assert_eq!(payload, Some(Ok("a b\nc\\d\"e".to_string())));
        assert_eq!(split_payload(r#"{"a":1}"#).1, None);
        assert!(matches!(
            split_payload(r#"{"algorithm_compact":"x\u0041"}"#).1,
            Some(Err(_))
        ));
    }
}
