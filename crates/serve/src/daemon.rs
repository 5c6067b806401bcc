//! The serving daemon: accept loop, bounded worker pool, single-flight
//! deduplication, and warm-cache persistence.
//!
//! Threading model (std only — no async runtime). Every wait on the
//! request path wakes on its event, not on a polling tick:
//!
//! * one **accept thread** blocks in [`TcpListener::accept`], enforces
//!   the connection cap (over-cap clients get one typed `rejected` line
//!   with a retry hint), and spawns a connection thread per client;
//! * **connection threads** parse request lines through a bounded line
//!   reader (oversized lines get a typed `error` and the connection is
//!   closed — a client cannot make the daemon buffer unbounded input),
//!   serve warm-cache hits inline, and otherwise wait on a
//!   [`Flight`](tacos_core::Flight) — one flight per cache key, so N
//!   concurrent identical requests cost exactly one synthesis. Idle
//!   connections past the timeout are closed with a typed `error`;
//! * a **bounded worker pool** executes synthesis jobs. Admission is a
//!   [`std::sync::mpsc::sync_channel`] of configurable depth: when it is
//!   full the leader's `try_send` fails and every waiter on that flight
//!   receives a typed `rejected` response instead of queueing unbounded
//!   work. An idle worker blocks on the channel and takes a job the
//!   moment it is sent. A **supervisor thread** starts the pool, sleeps
//!   until a dying worker wakes it, respawns workers killed by a
//!   synthesis panic (the panic fails only its own flight) and counts
//!   the restarts in `stats`;
//! * an optional **checkpoint thread** persists the warm cache every
//!   `--checkpoint-every` seconds through the same atomic
//!   temp+fsync+rename path as shutdown, so a SIGKILL loses at most one
//!   interval of entries.
//!
//! [`DaemonHandle::stop`] (after `SIGINT` via [`tacos_core::shutdown`],
//! or a `shutdown` op) sets the stop flag and wakes every thread on its
//! own event: closing the job channel releases idle workers, an unpark
//! releases the supervisor and checkpointer, and one loopback connection
//! to the bound port releases the blocking `accept`. Only connection
//! threads still notice the flag on a tick — their [`READ_POLL`] read
//! timeout, which the idle-timeout check needs anyway. The warm cache
//! is persisted on the way out.
//!
//! All of the failure paths above are exercised deterministically by
//! [`crate::FaultPlan`] (the `--faults` flag) and asserted by
//! `tacos chaos`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use tacos_baselines::{BaselineAlgorithm, IdealBound};
use tacos_collective::algorithm::CollectiveAlgorithm;
use tacos_collective::{export::to_compact, Collective};
use tacos_core::{
    AlgorithmCache, FlightEntry, InFlightRegistry, SynthesisScratch, Synthesizer,
    SynthesizerConfig, WarmCache, WarmEntry, WarmLimits,
};
use tacos_scenario::{parse_pattern, parse_size, parse_topology, Mechanism};
use tacos_sim::{SimConfig, Simulator};
use tacos_topology::{Time, Topology};

use crate::faults::{FaultPlan, INJECTED_FAULT};
use crate::protocol::{OkBody, Op, Request, Response, StatsBody};

/// File name of the warm-cache snapshot inside `--cache-dir`.
pub const SNAPSHOT_FILE: &str = "warm.tacos-cache";

/// Bound on the waits that also re-check the stop flag: an idle
/// worker's channel receive, the accept-error backoff, and the slices
/// of an injected stall.
const POLL: Duration = Duration::from_millis(25);

/// Read timeout on client connections; bounds shutdown latency and is
/// the tick of the idle-timeout check.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long [`DaemonHandle::stop`] tries to connect to its own listener
/// to wake the accept thread.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Per-connection line buffers shrink back to this capacity after each
/// request, so one large (but admissible) request doesn't pin its peak
/// allocation for the life of the connection.
const LINE_HIGH_WATER: usize = 16 * 1024;

/// Daemon configuration (the `tacos serve` flags).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; port 0 binds an ephemeral port (the bound
    /// address is reported by [`DaemonHandle::addr`]).
    pub addr: String,
    /// Synthesis worker threads.
    pub workers: usize,
    /// Admission-control queue depth: syntheses that may wait for a
    /// worker before new ones are rejected.
    pub queue_depth: usize,
    /// Directory for the warm-cache snapshot; `None` disables
    /// persistence.
    pub cache_dir: Option<PathBuf>,
    /// Default per-request deadline applied when a request does not
    /// carry its own `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
    /// Persist the warm cache at this interval (needs `cache_dir`);
    /// `None` checkpoints only on `checkpoint` ops and shutdown.
    pub checkpoint_every: Option<Duration>,
    /// Maximum request-line length; longer lines get a typed `error`
    /// and the connection is closed.
    pub max_line_bytes: usize,
    /// Close connections idle for this long; `None` never times out.
    pub idle_timeout: Option<Duration>,
    /// Maximum concurrent client connections; excess connections get
    /// one typed `rejected` line and are closed.
    pub max_connections: usize,
    /// The `retry_after_ms` hint attached to `rejected` responses.
    pub retry_after_ms: u64,
    /// Deterministic fault-injection schedule (the `--faults` flag);
    /// empty for a real daemon.
    pub faults: FaultPlan,
    /// Warm-cache residency bounds (`--warm-max-entries` /
    /// `--warm-max-bytes`); zero fields mean unbounded, the original
    /// behavior. Applied to snapshot reloads too.
    pub warm_limits: WarmLimits,
    /// Suppress stderr notices (cache load/persist messages).
    pub quiet: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:7440".into(),
            workers: 2,
            queue_depth: 32,
            cache_dir: None,
            default_deadline_ms: None,
            checkpoint_every: None,
            max_line_bytes: 1 << 20,
            idle_timeout: Some(Duration::from_secs(300)),
            max_connections: 256,
            retry_after_ms: 100,
            faults: FaultPlan::none(),
            warm_limits: WarmLimits::default(),
            quiet: false,
        }
    }
}

/// What a flight resolves to for everyone waiting on it.
#[derive(Debug, Clone)]
enum FlightOutcome {
    /// Synthesis finished; the entry is also in the warm cache now.
    Done {
        entry: Arc<WarmEntry>,
        synthesis_ms: f64,
    },
    /// Synthesis failed (or panicked).
    Failed(String),
    /// Admission control refused the job before it ran.
    Rejected(String),
}

/// One unit of work for the worker pool. `index` is the 1-based enqueue
/// sequence number — the coordinate [`FaultPlan`] faults are keyed by.
struct Job {
    index: u64,
    key: String,
    topo: Topology,
    collective: Collective,
    mechanism: Mechanism,
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    synthesized: AtomicU64,
    deduplicated: AtomicU64,
    rejected: AtomicU64,
    deadline_expired: AtomicU64,
    errors: AtomicU64,
    worker_restarts: AtomicU64,
    checkpoints: AtomicU64,
    /// High-water gauge: the most bytes any connection's line buffer
    /// has held.
    line_buffer_peak: AtomicU64,
}

/// Decrements a liveness counter when its scope ends — however the
/// scope ends, including a panic unwinding through it — and then wakes
/// the thread watching that counter, if any.
struct AliveGuard<'a> {
    count: &'a AtomicUsize,
    watcher: Option<Thread>,
}

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Ordering::Relaxed);
        if let Some(watcher) = &self.watcher {
            watcher.unpark();
        }
    }
}

struct ServerState {
    warm: WarmCache,
    inflight: InFlightRegistry<FlightOutcome>,
    counters: Counters,
    stop: AtomicBool,
    /// `None` once shutdown has begun and the channel is closed.
    jobs: Mutex<Option<mpsc::SyncSender<Job>>>,
    /// Enqueue sequence for jobs (fault-plan coordinate).
    job_seq: AtomicU64,
    /// Accept sequence for connections (fault-plan coordinate).
    conn_seq: AtomicU64,
    /// Attempt sequence for checkpoints (fault-plan coordinate).
    checkpoint_seq: AtomicU64,
    /// Currently-running worker threads; the supervisor respawns up to
    /// `target_workers`.
    live_workers: AtomicUsize,
    target_workers: usize,
    /// Currently-open client connections (the `max_connections` gauge).
    live_conns: AtomicUsize,
    queue_depth: usize,
    cache_dir: Option<PathBuf>,
    default_deadline_ms: Option<u64>,
    max_line_bytes: usize,
    idle_timeout: Option<Duration>,
    max_connections: usize,
    retry_after_ms: u64,
    faults: FaultPlan,
    quiet: bool,
}

impl ServerState {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn notice(&self, msg: &str) {
        if !self.quiet {
            eprintln!("tacos serve: {msg}");
        }
    }

    fn snapshot_path(&self) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|d| d.join(SNAPSHOT_FILE))
    }

    /// One checkpoint attempt: persists the warm cache atomically, or —
    /// when the fault plan aborts this attempt — tears the write halfway
    /// through the temp file, proving the snapshot at the final path
    /// survives untouched.
    fn persist(&self) -> io::Result<usize> {
        let Some(path) = self.snapshot_path() else {
            return Ok(0);
        };
        let attempt = self.checkpoint_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if self.faults.checkpoint_aborts(attempt) {
            self.warm.save_interrupted_to(&path)?;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("{INJECTED_FAULT} checkpoint {attempt} aborted mid-write"),
            ));
        }
        let written = self.warm.save_to(path)?;
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(written)
    }

    fn stats(&self) -> StatsBody {
        let c = &self.counters;
        StatsBody {
            requests: c.requests.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            synthesized: c.synthesized.load(Ordering::Relaxed),
            deduplicated: c.deduplicated.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            worker_restarts: c.worker_restarts.load(Ordering::Relaxed),
            checkpoints: c.checkpoints.load(Ordering::Relaxed),
            warm_entries: self.warm.len() as u64,
            evictions: self.warm.evictions(),
            resident_bytes: self.warm.resident_bytes(),
            line_buffer_peak_bytes: c.line_buffer_peak.load(Ordering::Relaxed),
        }
    }
}

/// A running daemon. Dropping the handle leaves the threads running;
/// call [`DaemonHandle::stop`] for a graceful, cache-persisting exit.
pub struct Daemon;

/// Handle to a spawned daemon: bound address, stop control, stats.
pub struct DaemonHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Removes `warm.tmp.*` checkpoint debris from `dir`, returning how
/// many files went away. Snapshot writes go to a uniquely named temp
/// file that is only renamed over [`SNAPSHOT_FILE`] on success — a
/// crash (or an injected `checkpoint-abort`) mid-write leaves the torn
/// temp behind forever. Sweeping at spawn time is safe: no workers are
/// running yet, the live snapshot never matches the temp prefix, and
/// any concurrent daemon on the same directory would be using fresh
/// temp names of its own (pid + sequence).
fn sweep_checkpoint_debris(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if name.starts_with("warm.tmp.") && std::fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

impl Daemon {
    /// Binds the listen socket, loads any warm-cache snapshot, and
    /// starts the accept loop, worker pool, worker supervisor, and (when
    /// configured) the periodic checkpoint thread.
    ///
    /// A snapshot written by a different matcher version — or one that
    /// is not a snapshot at all — is reported as a notice and ignored
    /// (cold start). A *torn* snapshot with a valid header is salvaged:
    /// the valid prefix of entries is loaded and a notice says how many.
    pub fn spawn(config: DaemonConfig) -> io::Result<DaemonHandle> {
        let warm = match &config.cache_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let swept = sweep_checkpoint_debris(dir);
                if swept > 0 && !config.quiet {
                    eprintln!(
                        "tacos serve: removed {swept} stale checkpoint temp file(s) from {}",
                        dir.display()
                    );
                }
                let path = dir.join(SNAPSHOT_FILE);
                if path.exists() {
                    match WarmCache::load_from_with_limits(&path, config.warm_limits) {
                        Ok(report) => {
                            if !config.quiet {
                                if report.salvaged {
                                    eprintln!(
                                        "tacos serve: salvaged {} of {} cached algorithms from \
                                         torn snapshot {} ({})",
                                        report.entries_loaded,
                                        report.entries_expected,
                                        path.display(),
                                        report.detail.as_deref().unwrap_or("no detail"),
                                    );
                                } else {
                                    eprintln!(
                                        "tacos serve: loaded {} cached algorithms from {}{}",
                                        report.entries_loaded,
                                        path.display(),
                                        if report.entries_evicted > 0 {
                                            format!(
                                                " ({} trimmed to the cache caps)",
                                                report.entries_evicted
                                            )
                                        } else {
                                            String::new()
                                        }
                                    );
                                }
                            }
                            report.cache
                        }
                        Err(e) => {
                            if !config.quiet {
                                eprintln!("tacos serve: {e}");
                            }
                            WarmCache::with_limits(config.warm_limits)
                        }
                    }
                } else {
                    WarmCache::with_limits(config.warm_limits)
                }
            }
            None => WarmCache::with_limits(config.warm_limits),
        };

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let queue_depth = config.queue_depth.max(1);
        let target_workers = config.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));

        let state = Arc::new(ServerState {
            warm,
            inflight: InFlightRegistry::new(),
            counters: Counters::default(),
            stop: AtomicBool::new(false),
            jobs: Mutex::new(Some(tx)),
            job_seq: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            checkpoint_seq: AtomicU64::new(0),
            live_workers: AtomicUsize::new(0),
            target_workers,
            live_conns: AtomicUsize::new(0),
            queue_depth,
            cache_dir: config.cache_dir.clone(),
            default_deadline_ms: config.default_deadline_ms,
            max_line_bytes: config.max_line_bytes.max(64),
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections.max(1),
            retry_after_ms: config.retry_after_ms,
            faults: config.faults.clone(),
            quiet: config.quiet,
        });

        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let supervisor = {
            let state = Arc::clone(&state);
            let rx = Arc::clone(&rx);
            let workers = Arc::clone(&workers);
            thread::spawn(move || supervisor_loop(&state, &rx, &workers))
        };

        let checkpointer = match (config.checkpoint_every, &config.cache_dir) {
            (Some(every), Some(_)) => {
                let state = Arc::clone(&state);
                Some(thread::spawn(move || checkpoint_loop(&state, every)))
            }
            (Some(_), None) => {
                if !config.quiet {
                    eprintln!("tacos serve: --checkpoint-every needs --cache-dir; ignoring");
                }
                None
            }
            _ => None,
        };

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let state = Arc::clone(&state);
            let conns = Arc::clone(&conns);
            thread::spawn(move || accept_loop(&listener, &state, &conns))
        };

        Ok(DaemonHandle {
            state,
            addr,
            accept: Some(accept),
            supervisor: Some(supervisor),
            checkpointer,
            workers,
            conns,
        })
    }
}

impl DaemonHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a stop has been requested (a client `shutdown` op or a
    /// previous trigger); the owner should then call
    /// [`DaemonHandle::stop`].
    pub fn stop_requested(&self) -> bool {
        self.state.stopping()
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> StatsBody {
        self.state.stats()
    }

    /// Stops the daemon: wakes and joins the accept loop, supervisor,
    /// workers, checkpointer, and connection threads, then persists the
    /// warm cache. Returns the number of entries written (0 without a
    /// cache directory).
    pub fn stop(mut self) -> io::Result<usize> {
        self.state.stop.store(true, Ordering::Relaxed);
        // Closing the channel wakes idle workers: their receive returns
        // `Disconnected` once the queue is drained.
        self.state
            .jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        for parked in [&self.supervisor, &self.checkpointer].into_iter().flatten() {
            parked.thread().unpark();
        }
        if let Some(accept) = self.accept.take() {
            self.join_accept(accept);
        }
        // The supervisor first, so nothing respawns while we drain.
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for w in workers {
            let _ = w.join();
        }
        if let Some(checkpointer) = self.checkpointer.take() {
            let _ = checkpointer.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for c in conns {
            let _ = c.join();
        }
        let persisted = self.state.persist()?;
        if persisted > 0 {
            self.state
                .notice(&format!("persisted {persisted} cached algorithms"));
        }
        Ok(persisted)
    }

    /// Wakes the accept thread out of its blocking `accept` with one
    /// loopback connection (the loop checks the stop flag after every
    /// accept) and joins it. If that connection cannot be made while the
    /// thread still runs, the thread is left detached instead, so `stop`
    /// cannot hang on it.
    fn join_accept(&self, accept: JoinHandle<()>) {
        accept.thread().unpark(); // cuts an accept-error backoff short
        let wake = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT);
        match wake {
            Err(e) if !accept.is_finished() => self.state.notice(&format!(
                "could not wake the accept thread ({e}); leaving it detached"
            )),
            _ => {
                let _ = accept.join();
            }
        }
    }
}

/// The address a loopback connection reaches a listener bound to
/// `bound` at: `bound` itself, or loopback in the same address family
/// when the listener is on the unspecified address (`0.0.0.0`, `[::]`).
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

fn spawn_worker(
    state: &Arc<ServerState>,
    rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
    supervisor: &Thread,
) -> JoinHandle<()> {
    // Counted before the thread exists so the supervisor never sees a
    // just-spawned worker as missing.
    state.live_workers.fetch_add(1, Ordering::Relaxed);
    let state = Arc::clone(state);
    let rx = Arc::clone(rx);
    let supervisor = supervisor.clone();
    thread::spawn(move || {
        let _alive = AliveGuard {
            count: &state.live_workers,
            watcher: Some(supervisor),
        };
        worker_loop(&state, &rx);
    })
}

/// Starts the worker pool and keeps it at full strength: a synthesis
/// panic kills its worker thread (deliberately — the replacement gets
/// pristine scratch state), the dying worker's [`AliveGuard`] wakes this
/// thread, and it respawns the worker and counts the restart.
fn supervisor_loop(
    state: &Arc<ServerState>,
    rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let me = thread::current();
    workers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .extend((0..state.target_workers).map(|_| spawn_worker(state, rx, &me)));
    loop {
        // Woken by a dying worker or by `stop`; a spurious wakeup only
        // costs one pass over the checks below.
        thread::park();
        if state.stopping() {
            return;
        }
        let live = state.live_workers.load(Ordering::Relaxed);
        if live < state.target_workers {
            let missing = state.target_workers - live;
            state
                .counters
                .worker_restarts
                .fetch_add(missing as u64, Ordering::Relaxed);
            state.notice(&format!(
                "worker died; respawning {missing} (pool target {})",
                state.target_workers
            ));
            let mut guard = workers.lock().unwrap_or_else(PoisonError::into_inner);
            // Reap the corpses so the handle list tracks live threads.
            let mut i = 0;
            while i < guard.len() {
                if guard.get(i).is_some_and(|w| w.is_finished()) {
                    let _ = guard.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            for _ in 0..missing {
                guard.push(spawn_worker(state, rx, &me));
            }
        }
    }
}

/// Persists the warm cache every `every`, parked in between; `stop`
/// unparks it, so shutdown is never blocked on a checkpoint interval.
fn checkpoint_loop(state: &Arc<ServerState>, every: Duration) {
    loop {
        let deadline = Instant::now() + every;
        loop {
            if state.stopping() {
                return;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            thread::park_timeout(left);
        }
        match state.persist() {
            Ok(written) => {
                if written > 0 {
                    state.notice(&format!("checkpoint: persisted {written} entries"));
                }
            }
            Err(e) => state.notice(&format!("checkpoint failed: {e}")),
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let accepted = listener.accept();
        // `stop` sets the flag before it wakes this thread with a
        // loopback connection, which must not be served.
        if state.stopping() {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                let conn_index = state.conn_seq.fetch_add(1, Ordering::Relaxed) + 1;
                if state.live_conns.load(Ordering::Relaxed) >= state.max_connections {
                    state.counters.requests.fetch_add(1, Ordering::Relaxed);
                    state.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    let response = Response::Rejected(
                        None,
                        state.retry_after_ms,
                        format!(
                            "connection limit reached ({} connections); retry later",
                            state.max_connections
                        ),
                    );
                    let _ = stream.write_all(response.line().as_bytes());
                    let _ = stream.flush();
                    continue; // dropping the stream closes it
                }
                state.live_conns.fetch_add(1, Ordering::Relaxed);
                let state = Arc::clone(state);
                let handle = thread::spawn(move || connection_loop(stream, &state, conn_index));
                conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handle);
            }
            Err(e) => {
                state.notice(&format!("accept error: {e}"));
                // Back off so a lasting error (out of file descriptors,
                // say) cannot spin this loop; `stop` unparks it.
                thread::park_timeout(POLL);
            }
        }
    }
}

/// What one bounded-line read attempt produced.
enum ReadEvent {
    /// A complete line (without its newline) is in the buffer.
    Line,
    /// The peer closed the connection.
    Eof,
    /// The read timed out with no complete line; check stop/idle state.
    Idle,
    /// The line exceeded the cap before its newline arrived.
    TooLong,
    /// Unrecoverable I/O error.
    Failed,
}

/// Reads toward the next newline into `buf`, never holding more than
/// `max` bytes — the fix for the unbounded `read_line` the daemon
/// originally used, where one malicious line could grow the buffer
/// without limit.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
) -> ReadEvent {
    let (found_newline, consumed) = {
        let available = match reader.fill_buf() {
            Ok([]) => {
                // EOF; a final unterminated line still gets served.
                return if buf.is_empty() {
                    ReadEvent::Eof
                } else {
                    ReadEvent::Line
                };
            }
            Ok(bytes) => bytes,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return ReadEvent::Idle;
            }
            Err(_) => return ReadEvent::Failed,
        };
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                buf.extend_from_slice(&available[..pos]); // lint: allow(panic, "pos came from position() on this slice")
                (true, pos + 1)
            }
            None => {
                buf.extend_from_slice(available);
                (false, available.len())
            }
        }
    };
    reader.consume(consumed);
    if buf.len() > max {
        return ReadEvent::TooLong;
    }
    if found_newline {
        ReadEvent::Line
    } else {
        // Partial data: return to the caller instead of looping so the
        // idle clock gets checked — a client trickling bytes forever
        // must not starve the timeout. The caller re-enters with the
        // same buffer, so nothing is lost; buffered bytes make the next
        // fill_buf return immediately.
        ReadEvent::Idle
    }
}

/// After rejecting an oversized line, discard whatever the client is
/// still sending (bounded by time and bytes) so the typed `error`
/// response reaches it before the close — an immediate close while the
/// peer is mid-send turns into a RST that discards our response.
fn drain_rejected_line(reader: &mut BufReader<TcpStream>) {
    const DRAIN_BUDGET_BYTES: usize = 64 << 20;
    let deadline = Instant::now() + Duration::from_millis(250);
    let mut drained = 0usize;
    while Instant::now() < deadline && drained < DRAIN_BUDGET_BYTES {
        let consumed = match reader.fill_buf() {
            Ok([]) => return,
            Ok(bytes) => bytes.len(),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        reader.consume(consumed);
        drained += consumed;
    }
}

fn connection_loop(stream: TcpStream, state: &Arc<ServerState>, conn_index: u64) {
    let _alive = AliveGuard {
        count: &state.live_conns,
        watcher: None,
    };
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let response_delay = state.faults.conn_delay(conn_index);
    let mut reader = BufReader::new(stream);
    // One reusable buffer per connection, shrunk back to a high-water
    // mark after each request so a single large request doesn't pin its
    // peak allocation for the connection's lifetime.
    let mut buf: Vec<u8> = Vec::new();
    let mut last_request = Instant::now();
    loop {
        let event = read_bounded_line(&mut reader, &mut buf, state.max_line_bytes);
        let held = buf.len() as u64;
        let peak = &state.counters.line_buffer_peak;
        if held > peak.load(Ordering::Relaxed) {
            peak.fetch_max(held, Ordering::Relaxed);
        }
        match event {
            ReadEvent::Line => {
                {
                    let line = String::from_utf8_lossy(&buf);
                    let trimmed = line.trim();
                    if !trimmed.is_empty() {
                        let response = handle_line(state, trimmed);
                        if let Some(delay) = response_delay {
                            thread::sleep(delay); // lint: allow(design, "injected per-connection response delay, a deliberate chaos fault")
                        }
                        if writer.write_all(response.line().as_bytes()).is_err()
                            || writer.flush().is_err()
                        {
                            return;
                        }
                    }
                }
                buf.clear();
                if buf.capacity() > LINE_HIGH_WATER {
                    buf.shrink_to(LINE_HIGH_WATER);
                }
                last_request = Instant::now();
            }
            ReadEvent::Idle => {
                if state.stopping() {
                    return;
                }
                // Partial lines deliberately do not reset the clock: a
                // client trickling bytes forever is exactly what the
                // timeout is for.
                if let Some(idle) = state.idle_timeout {
                    if last_request.elapsed() >= idle {
                        state.counters.errors.fetch_add(1, Ordering::Relaxed);
                        let response = Response::Error(
                            None,
                            format!("connection idle for {} s; closing", idle.as_secs().max(1)),
                        );
                        let _ = writer.write_all(response.line().as_bytes());
                        let _ = writer.flush();
                        return;
                    }
                }
            }
            ReadEvent::TooLong => {
                state.counters.requests.fetch_add(1, Ordering::Relaxed);
                state.counters.errors.fetch_add(1, Ordering::Relaxed);
                let response = Response::Error(
                    None,
                    format!(
                        "request line exceeds {} bytes; closing connection",
                        state.max_line_bytes
                    ),
                );
                if writer.write_all(response.line().as_bytes()).is_ok() && writer.flush().is_ok() {
                    drain_rejected_line(&mut reader);
                }
                return;
            }
            ReadEvent::Eof | ReadEvent::Failed => return,
        }
    }
}

fn handle_line(state: &Arc<ServerState>, line: &str) -> Response {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => {
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            return Response::Error(None, e);
        }
    };
    match req.op {
        Op::Ping => Response::Pong(req.id),
        Op::Stats => Response::Stats(req.id, state.stats()),
        Op::Checkpoint => match state.snapshot_path() {
            Some(_) => match state.persist() {
                Ok(n) => Response::Checkpointed(req.id, n as u64),
                Err(e) => {
                    state.counters.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error(req.id, format!("checkpoint failed: {e}"))
                }
            },
            None => {
                state.counters.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(req.id, "daemon started without --cache-dir".into())
            }
        },
        Op::Shutdown => {
            state.stop.store(true, Ordering::Relaxed);
            // Wakes an owner blocked in `tacos_core::shutdown::wait`.
            tacos_core::shutdown::trigger();
            Response::ShuttingDown(req.id)
        }
        Op::Synthesize => match synthesize(state, &req) {
            Ok(response) => response,
            Err(e) => {
                state.counters.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(req.id, e)
            }
        },
    }
}

fn synthesize(state: &Arc<ServerState>, req: &Request) -> Result<Response, String> {
    let topo = parse_topology(&req.topology, req.link.to_spec())?;
    let pattern = parse_pattern(&req.collective, topo.num_npus())?;
    let size = parse_size(&req.size)?;

    let mut config = SynthesizerConfig::default();
    if let Some(seed) = req.seed {
        config = config.with_seed(seed);
    }
    if let Some(attempts) = req.attempts {
        config = config.with_attempts(attempts);
    }
    if let Some(on) = req.prefer_cheap_links {
        config = config.with_prefer_cheap_links(on);
    }
    let mechanism = Mechanism::parse(&req.mechanism, &config)?;

    if mechanism == Mechanism::Ideal {
        // The theoretical bound is a closed-form computation: answer
        // inline, no worker, no cache.
        let ideal = IdealBound::new(&topo);
        let time = ideal.collective_time(pattern, size);
        return Ok(Response::Ok(
            req.id,
            ok_body(
                req,
                &topo,
                size.as_u64(),
                time,
                0,
                "ideal",
                None,
                false,
                false,
                0.0,
            ),
        ));
    }

    let chunks = match &mechanism {
        Mechanism::Tacos(m) => m.chunks.unwrap_or(req.chunks),
        _ => req.chunks,
    };
    let collective = Collective::with_chunking(pattern, topo.num_npus(), chunks, size)
        .map_err(|e| e.to_string())?;
    let key = match &mechanism {
        Mechanism::Tacos(m) => {
            let synth = Synthesizer::new(m.config.clone());
            AlgorithmCache::key_with_tag("tacos", &synth, &topo, &collective)
        }
        Mechanism::Baseline(kind) => AlgorithmCache::key_for_generator(
            &req.mechanism,
            &topo,
            &collective,
            kind.seed().unwrap_or(0),
        ),
        Mechanism::Ideal => unreachable!("handled above"), // lint: allow(panic, "Ideal returned early above; a new variant is a compile error first")
    };

    if let Some(entry) = state.warm.get(&key) {
        state.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        return Ok(Response::Ok(
            req.id,
            entry_body(
                req,
                &topo,
                size.as_u64(),
                &entry,
                mechanism.name(),
                true,
                false,
                0.0,
            ),
        ));
    }

    let mut deduplicated = false;
    let flight = match state.inflight.begin(&key) {
        FlightEntry::Leader(flight) => {
            let job = Job {
                index: state.job_seq.fetch_add(1, Ordering::Relaxed) + 1,
                key: key.clone(),
                topo: topo.clone(),
                collective,
                mechanism: mechanism.clone(),
            };
            enum Admission {
                Accepted,
                QueueFull,
                Closed,
            }
            let send = state
                .jobs
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ref()
                .map(|tx| match tx.try_send(job) {
                    Ok(()) => Admission::Accepted,
                    Err(mpsc::TrySendError::Full(_)) => Admission::QueueFull,
                    Err(mpsc::TrySendError::Disconnected(_)) => Admission::Closed,
                });
            match send {
                Some(Admission::Accepted) => {}
                Some(Admission::QueueFull) => state.inflight.complete(
                    &key,
                    FlightOutcome::Rejected(format!(
                        "admission queue full ({} waiting syntheses); retry later",
                        state.queue_depth
                    )),
                ),
                Some(Admission::Closed) | None => state.inflight.complete(
                    &key,
                    FlightOutcome::Failed("daemon is shutting down".into()),
                ),
            }
            flight
        }
        FlightEntry::Follower(flight) => {
            deduplicated = true;
            flight
        }
    };

    let outcome = match req.deadline_ms.or(state.default_deadline_ms) {
        Some(ms) => {
            match flight.wait_timeout(Duration::from_millis(ms)) {
                Some(outcome) => outcome,
                None => {
                    state
                        .counters
                        .deadline_expired
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(Response::Deadline(
                    req.id,
                    format!("deadline of {ms} ms expired; synthesis continues and will warm the cache"),
                ));
                }
            }
        }
        None => loop {
            if let Some(outcome) = flight.wait_timeout(READ_POLL) {
                break outcome;
            }
            if state.stopping() {
                return Err("daemon is shutting down".into());
            }
        },
    };

    match outcome {
        FlightOutcome::Done {
            entry,
            synthesis_ms,
        } => {
            if deduplicated {
                state.counters.deduplicated.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Response::Ok(
                req.id,
                entry_body(
                    req,
                    &topo,
                    size.as_u64(),
                    &entry,
                    mechanism.name(),
                    false,
                    deduplicated,
                    synthesis_ms,
                ),
            ))
        }
        FlightOutcome::Failed(msg) => Err(msg),
        FlightOutcome::Rejected(msg) => {
            state.counters.rejected.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Rejected(req.id, state.retry_after_ms, msg))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn entry_body(
    req: &Request,
    topo: &Topology,
    size_bytes: u64,
    entry: &WarmEntry,
    algorithm: &str,
    cache_hit: bool,
    deduplicated: bool,
    synthesis_ms: f64,
) -> OkBody {
    let compact = req.include_algorithm.then(|| to_compact(&entry.algo));
    ok_body(
        req,
        topo,
        size_bytes,
        entry.time,
        entry.algo.len() as u64,
        algorithm,
        compact,
        cache_hit,
        deduplicated,
        synthesis_ms,
    )
}

#[allow(clippy::too_many_arguments)]
fn ok_body(
    _req: &Request,
    topo: &Topology,
    size_bytes: u64,
    time: Time,
    transfers: u64,
    algorithm: &str,
    algorithm_compact: Option<String>,
    cache_hit: bool,
    deduplicated: bool,
    synthesis_ms: f64,
) -> OkBody {
    let bandwidth_gbps = if time.is_zero() {
        f64::INFINITY
    } else {
        size_bytes as f64 / time.as_secs_f64() / 1e9
    };
    OkBody {
        cache_hit,
        deduplicated,
        collective_time_ps: time.as_ps(),
        bandwidth_gbps,
        synthesis_ms,
        transfers,
        num_npus: topo.num_npus() as u64,
        algorithm: algorithm.into(),
        algorithm_compact,
    }
}

fn worker_loop(state: &Arc<ServerState>, rx: &Arc<Mutex<mpsc::Receiver<Job>>>) {
    let mut scratch = SynthesisScratch::new();
    loop {
        // Idle workers queue on the receiver lock; the one holding it
        // blocks on the channel and takes the next job the moment it is
        // sent.
        let job = {
            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv_timeout(POLL)
        };
        match job {
            Ok(job) => {
                if run_job(state, job, &mut scratch) {
                    // The job panicked: this thread dies so its
                    // replacement starts with pristine scratch state;
                    // the supervisor respawns and counts it.
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if state.stopping() {
                    return;
                }
            }
            // `stop` dropped the sender.
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Runs one synthesis job; returns `true` when the job panicked and the
/// worker thread should die (the flight is already completed either way
/// — a panic fails only its own flight, never a waiter).
fn run_job(state: &Arc<ServerState>, job: Job, scratch: &mut SynthesisScratch) -> bool {
    let Job {
        index,
        key,
        topo,
        collective,
        mechanism,
    } = job;
    let (stall, injected_panic) = state.faults.job_fault(index);
    if let Some(stall) = stall {
        // Stop-checked slices so an injected stall cannot hang shutdown.
        let deadline = Instant::now() + stall;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || state.stopping() {
                break;
            }
            thread::sleep(left.min(POLL)); // lint: allow(design, "injected job stall, a deliberate chaos fault")
        }
    }
    let started = Instant::now();
    let generated = catch_unwind(AssertUnwindSafe(|| {
        if injected_panic {
            panic!("{INJECTED_FAULT} synthesis panic on job {index}"); // lint: allow(panic, "deliberate chaos fault, caught by the catch_unwind below")
        }
        generate(&topo, &collective, &mechanism, scratch)
    }));
    let synthesis_ms = started.elapsed().as_secs_f64() * 1e3;
    match generated {
        Ok(Ok((algo, time))) => {
            let entry = state.warm.insert(key.clone(), WarmEntry { time, algo });
            state.counters.synthesized.fetch_add(1, Ordering::Relaxed);
            state.inflight.complete(
                &key,
                FlightOutcome::Done {
                    entry,
                    synthesis_ms,
                },
            );
            false
        }
        Ok(Err(msg)) => {
            state.inflight.complete(&key, FlightOutcome::Failed(msg));
            false
        }
        Err(_) => {
            state.inflight.complete(
                &key,
                FlightOutcome::Failed(
                    "synthesis panicked; the worker thread was restarted — see daemon stderr"
                        .into(),
                ),
            );
            true
        }
    }
}

/// Generates the algorithm and its completion time — synthesized
/// schedules carry a planned time; baseline schedules are simulated,
/// matching the scenario runner's semantics.
fn generate(
    topo: &Topology,
    collective: &Collective,
    mechanism: &Mechanism,
    scratch: &mut SynthesisScratch,
) -> Result<(CollectiveAlgorithm, Time), String> {
    let algo = match mechanism {
        Mechanism::Tacos(m) => Synthesizer::new(m.config.clone())
            .synthesize_with(topo, collective, scratch)
            .map_err(|e| e.to_string())?
            .into_algorithm(),
        Mechanism::Baseline(kind) => BaselineAlgorithm::new(kind.clone())
            .generate(topo, collective)
            .map_err(|e| e.to_string())?,
        Mechanism::Ideal => return Err("ideal mechanism is answered inline".into()),
    };
    let time = match algo.planned_time() {
        Some(time) => time,
        // Only the time is read: skip recording busy intervals.
        None => Simulator::with_config(SimConfig::default().with_record_intervals(false))
            .simulate(topo, &algo)
            .map_err(|e| e.to_string())?
            .collective_time(),
    };
    Ok((algo, time))
}

#[cfg(test)]
mod tests {
    use super::wake_addr;

    #[test]
    fn wake_addr_maps_the_unspecified_address_to_loopback_of_its_family() {
        for (bound, wake) in [
            ("0.0.0.0:7440", "127.0.0.1:7440"),
            ("[::]:7440", "[::1]:7440"),
            ("10.1.2.3:7440", "10.1.2.3:7440"),
            ("[::1]:7440", "[::1]:7440"),
        ] {
            assert_eq!(
                wake_addr(bound.parse().unwrap()),
                wake.parse().unwrap(),
                "{bound}"
            );
        }
    }
}
