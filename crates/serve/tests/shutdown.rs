//! Shutdown and wake-up paths of a live daemon: `stop` returns whatever
//! its threads are blocked in, and a worker killed by a panic is
//! respawned as soon as it dies. Every step that could hang runs under a
//! watchdog that only detects hangs; none bounds latency tightly.

use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use tacos_report::Json;
use tacos_serve::{Client, Daemon, DaemonConfig, DaemonHandle, FaultPlan};

const WATCHDOG: Duration = Duration::from_secs(10);

/// Runs `f` on its own thread and returns its result, failing the test
/// if it has not finished within [`WATCHDOG`].
fn within_watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("{what} did not finish within {WATCHDOG:?}"))
}

fn spawn(addr: &str, workers: usize, faults: FaultPlan) -> DaemonHandle {
    Daemon::spawn(DaemonConfig {
        addr: addr.into(),
        workers,
        faults,
        quiet: true,
        ..DaemonConfig::default()
    })
    .expect("daemon starts")
}

/// Stops the daemon under the watchdog, then checks the listener is
/// really gone: an accept thread left running would still hold it.
fn stop(handle: DaemonHandle) {
    let port = handle.addr().port();
    within_watchdog("stop()", move || handle.stop()).expect("stop");
    assert!(
        TcpStream::connect(("127.0.0.1", port)).is_err(),
        "the listener on port {port} outlived stop()"
    );
}

fn status(r: &Json) -> Option<&str> {
    r.get("status").and_then(Json::as_str)
}

fn synth_line(seed: u64) -> String {
    format!(r#"{{"topology":"mesh:2x2","collective":"all-gather","size":"1MB","seed":{seed}}}"#)
}

#[test]
fn an_idle_loopback_daemon_stops() {
    stop(spawn("127.0.0.1:0", 2, FaultPlan::none()));
}

#[test]
fn an_idle_daemon_on_the_unspecified_address_stops() {
    // The wake-up connection must go to loopback: `0.0.0.0` is not a
    // connectable destination everywhere.
    let handle = spawn("0.0.0.0:0", 2, FaultPlan::none());
    assert!(handle.addr().ip().is_unspecified());
    stop(handle);
}

#[test]
fn a_daemon_with_an_idle_client_connection_stops() {
    let handle = spawn("127.0.0.1:0", 2, FaultPlan::none());
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    let pong = client.call(r#"{"op":"ping"}"#).expect("ping");
    assert_eq!(status(&pong), Some("pong"));
    stop(handle);
    // The connection thread noticed the stop and closed its end.
    assert!(client.call(r#"{"op":"ping"}"#).is_err());
}

#[test]
fn a_daemon_whose_only_worker_is_stalled_stops() {
    // Job 1 stalls far longer than the watchdog: `stop` must cut the
    // stall short rather than wait it out.
    let handle = spawn("127.0.0.1:0", 1, FaultPlan::none().with_stall(1, 600_000));
    let addr = handle.addr().to_string();
    let (sent_tx, sent_rx) = mpsc::channel();
    let caller = thread::spawn(move || {
        let mut client = Client::connect(&addr).expect("connect");
        let _ = sent_tx.send(());
        // Answered either way: a late synthesis or a shutdown error.
        let _ = client.call(&synth_line(1));
    });
    sent_rx.recv_timeout(WATCHDOG).expect("client connected");
    // Give the request time to reach the worker; stop holds either way.
    thread::sleep(Duration::from_millis(100));
    stop(handle);
    within_watchdog("the stalled caller", move || caller.join()).expect("caller thread");
}

#[test]
fn a_panicked_worker_is_respawned_and_the_next_miss_synthesizes() {
    // One worker, and job 1 panics: the next miss can only be answered
    // by the replacement worker.
    let handle = spawn("127.0.0.1:0", 1, FaultPlan::none().with_panic(1));
    let addr = handle.addr().to_string();
    let (failed, next) = within_watchdog("the two requests", move || {
        let mut client = Client::connect(&addr).expect("connect");
        let failed = client.call(&synth_line(1)).expect("panicked request");
        let next = client.call(&synth_line(2)).expect("next miss");
        (failed, next)
    });
    assert_eq!(status(&failed), Some("error"), "{failed:?}");
    assert!(
        failed
            .get("reason")
            .and_then(Json::as_str)
            .is_some_and(|r| r.contains("panicked")),
        "{failed:?}"
    );
    assert_eq!(status(&next), Some("ok"), "{next:?}");
    assert_eq!(next.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert!(next.get("transfers").and_then(Json::as_u64).unwrap_or(0) > 0);
    let stats = handle.stats();
    assert_eq!(
        (stats.worker_restarts, stats.synthesized),
        (1, 1),
        "{stats:?}"
    );
    stop(handle);
}
