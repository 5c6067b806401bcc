//! Cooperative process shutdown: a flag set by SIGINT/SIGTERM, checked
//! between units of work.
//!
//! Long-running commands — `tacos scenario run` between grid points,
//! `tacos serve` between requests — must not die mid-write when the user
//! hits Ctrl-C: partial CSV rows should be flushed, the warm cache
//! persisted, artifacts finalized. The std-only way is a process-global
//! [`requested`] flag that an async-signal-safe handler sets and the work
//! loops poll at their natural boundaries.
//!
//! [`install`] registers the handler (idempotent); [`trigger`] sets the
//! flag programmatically (the daemon's `shutdown` op, tests); [`reset`]
//! clears it (tests only — a real process exits after shutting down).
//! [`wait`] blocks until the flag is set, for an owner thread with
//! nothing to do in between: on Unix the handler and [`trigger`] write a
//! byte to a self-pipe that [`wait`] reads, so it wakes at once instead
//! of polling.
//!
//! A **second** SIGINT/SIGTERM forces an immediate `_exit(130)`: the
//! first signal asks for a graceful drain, and if that drain hangs — a
//! stuck checkpoint, a wedged worker — the operator's second Ctrl-C must
//! always win over the daemon's cleanup.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Exit code for a forced (second-signal) exit: 128 + SIGINT.
const FORCED_EXIT_CODE: i32 = 130;

/// Whether a shutdown was requested (signal received or [`trigger`]ed).
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Requests a shutdown programmatically — same effect as SIGINT.
pub fn trigger() {
    if !SHUTDOWN.swap(true, Ordering::Relaxed) {
        wake::notify();
    }
}

/// Blocks until a shutdown is requested (signal received or
/// [`trigger`]ed); returns at once if one already was.
pub fn wait() {
    wake::wait();
}

/// Clears the flag. Test-only in spirit: real processes exit.
pub fn reset() {
    SHUTDOWN.store(false, Ordering::Relaxed);
}

/// Installs the SIGINT/SIGTERM handler (idempotent, safe to call from
/// multiple subcommands). On non-Unix targets this is a no-op and only
/// [`trigger`] can request shutdown.
pub fn install() {
    #[cfg(unix)]
    install_unix();
}

/// The self-pipe behind [`wait`]: the signal handler and [`trigger`]
/// write one byte to it on the first request, and [`wait`] blocks
/// reading it. `read(2)` and `write(2)` are async-signal-safe, which a
/// mutex or condition variable is not.
#[cfg(unix)]
mod wake {
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::Once;

    extern "C" {
        // SAFETY: these declarations match `pipe(2)`, `read(2)` and
        // `write(2)` — an `int[2]` out-parameter; an fd, a byte buffer
        // and its length, returning a signed byte count — in every libc
        // that std links on Unix.
        fn pipe(fds: *mut i32) -> i32;
        fn read(fd: i32, buf: *mut u8, len: usize) -> isize;
        fn write(fd: i32, buf: *const u8, len: usize) -> isize;
    }

    /// The pipe's ends, `-1` until it is created.
    static READ_FD: AtomicI32 = AtomicI32::new(-1);
    static WRITE_FD: AtomicI32 = AtomicI32::new(-1);

    /// Creates the pipe once; on failure [`wait`] reports it.
    pub(super) fn open() {
        static OPEN: Once = Once::new();
        OPEN.call_once(|| {
            let mut fds = [-1i32; 2];
            // SAFETY: `fds` is a valid, writable `int[2]` for the call.
            if unsafe { pipe(fds.as_mut_ptr()) } == 0 {
                WRITE_FD.store(fds[1], Ordering::Release);
                READ_FD.store(fds[0], Ordering::Release);
            }
        });
    }

    /// Writes one wake-up byte if the pipe exists. Async-signal-safe: an
    /// atomic load and one `write(2)`; a failed write is ignored, since
    /// the flag is already set and a waiter re-checks it.
    pub(super) fn notify() {
        let fd = WRITE_FD.load(Ordering::Acquire);
        if fd >= 0 {
            let byte = 1u8;
            // SAFETY: `fd` is the pipe's write end, open for the process
            // lifetime, and `byte` is a valid one-byte buffer.
            unsafe { write(fd, &byte, 1) };
        }
    }

    /// Blocks until [`requested`](super::requested), re-checking after
    /// every byte read.
    ///
    /// # Panics
    /// Panics if the pipe could not be created (out of file
    /// descriptors), rather than spin or block forever.
    pub(super) fn wait() {
        open();
        let fd = READ_FD.load(Ordering::Acquire);
        assert!(fd >= 0, "shutdown: cannot create the wake-up pipe");
        // The pipe exists before the first check, so a request landing
        // after the check writes a byte this read sees.
        while !super::requested() {
            let mut byte = 0u8;
            // SAFETY: `fd` is the pipe's read end, open for the process
            // lifetime, and `byte` is a valid one-byte buffer. A signal
            // interrupting the read (`EINTR`) just loops.
            unsafe { read(fd, &mut byte, 1) };
        }
    }
}

/// Without signals only [`trigger`] requests a shutdown, so it unparks
/// the one owner thread blocked in [`wait`].
#[cfg(not(unix))]
mod wake {
    use std::sync::atomic::{fence, Ordering};
    use std::sync::OnceLock;
    use std::thread::{self, Thread};

    static WAITER: OnceLock<Thread> = OnceLock::new();

    pub(super) fn notify() {
        // Pairs with the fence in `wait`: either this sees the waiter or
        // the waiter sees the flag set before it.
        fence(Ordering::SeqCst);
        if let Some(waiter) = WAITER.get() {
            waiter.unpark();
        }
    }

    pub(super) fn wait() {
        WAITER.get_or_init(thread::current);
        fence(Ordering::SeqCst);
        while !super::requested() {
            thread::park();
        }
    }
}

/// The handler's decision logic, separated from the handler so it can
/// be unit-tested: returns `true` when the signal is a repeat and the
/// process should force-exit instead of (still) draining gracefully.
fn on_signal() -> bool {
    // `swap` makes the first/second distinction race-free even if two
    // signals land back to back on different threads.
    SHUTDOWN.swap(true, Ordering::Relaxed)
}

#[cfg(unix)]
fn install_unix() {
    // Setting an atomic is async-signal-safe, and so is `_exit` (it
    // skips atexit handlers and Rust destructors by design — that is
    // the point of a forced exit). `signal(2)` suffices — no siginfo,
    // no masking — and keeps this std-only (libc is already linked by
    // std on Unix).
    // SAFETY: the handler body is async-signal-safe — one relaxed atomic
    // swap, then either one `write(2)` to the wake-up pipe or, on the
    // repeat-signal path, `_exit`; both are on POSIX's async-signal-safe
    // list, and `_exit` never returns. No allocation, no locks, no Rust
    // runtime machinery runs in signal context.
    unsafe extern "C" fn handler(_sig: i32) {
        if !on_signal() {
            wake::notify();
        } else {
            // SAFETY: `_exit(2)` matches this declared signature (takes an
            // exit code, never returns) in every libc that std links.
            extern "C" {
                fn _exit(code: i32) -> !;
            }
            _exit(FORCED_EXIT_CODE)
        }
    }
    extern "C" {
        // SAFETY: `signal(2)`'s ABI matches this declaration — int plus a
        // `void (*)(int)` handler pointer, returning the previous handler
        // as a word — in every libc that std links on Unix.
        fn signal(signum: i32, handler: unsafe extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    wake::open();
    // SAFETY: `handler` is async-signal-safe (above) and stays valid for
    // the process lifetime (a plain fn item); SIGINT/SIGTERM are valid
    // signal numbers, so the calls cannot fault.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trip() {
        // One test owns the global flag end-to-end (no other test in this
        // binary touches it) so parallel test scheduling cannot race it.
        reset();
        assert!(!requested());
        trigger();
        assert!(requested());
        reset();
        assert!(!requested());
        // Installing the OS handler must not itself set the flag.
        install();
        install();
        assert!(!requested());

        // First signal: request a graceful drain. Second: force-exit.
        assert!(!on_signal(), "first signal drains gracefully");
        assert!(requested());
        assert!(on_signal(), "second signal forces an exit");
        assert!(on_signal(), "and so does every signal after");
        reset();

        // `wait` returns at once on a set flag, and wakes on a trigger
        // from another thread.
        trigger();
        wait();
        reset();
        let waiter = std::thread::spawn(wait);
        trigger();
        waiter.join().expect("wait returns after trigger");
        reset();
    }
}
