#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `perfbench` package with
the release profile into $CARGO_TARGET_DIR (default `.bench_build`),
runs the workload in a process of its own, and passes that process's
one-line JSON summary through as the last line of stdout. Build output
and diagnostics go to stderr. The detailed report, with provenance
added, is written to `.bench_out/<workload>-seed<N>-trace<T>.json`.

Exits nonzero without printing a summary if the build or the run fails;
a run whose correctness checks fail prints its summary with
`"correct": false` and exits nonzero.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["mesh-allgather", "hetero-allreduce", "serve-mixed"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the sources the benchmark builds: a commit stand-in
    for checkouts that are not git repositories."""
    h = hashlib.sha256()
    files = []
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d != "target"]
            files += [os.path.join(dirpath, f) for f in filenames
                      if f.endswith((".rs", ".toml", ".py", ".lock"))]
    files += [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance():
    return {
        # Only a repository rooted here names this tree's commit.
        "commit": (command_output(["git", "rev-parse", "HEAD"])
                   if os.path.exists(os.path.join(ROOT, ".git")) else None),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "build_profile": "release (lto = thin, debug = false; perfbench/Cargo.toml)",
    }


def run(exe, args):
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    # A session of its own, so a timeout kills the daemon child as well.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # Set-ups, a warm-up pass and the last pass's overshoot come on top
    # of the measured seconds.
    timeout = 3 * args.seconds + 120
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{args.workload} did not finish within {timeout:.0f} s")
        return None, 1
    finally:
        # Reap anything left in the session (the daemon on a crash).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    return (lines[-1] if lines else None), proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    exe = build()
    if exe is None:
        return 1
    summary, code = run(exe, args)
    if summary is None:
        log(f"{args.workload} failed with exit code {code} and no summary")
        return 1
    try:
        result = json.loads(summary)
    except ValueError:
        log(f"unparseable summary: {summary[:200]}")
        return 1

    report = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    try:
        with open(report) as f:
            detail = json.load(f)
        detail["provenance"] = provenance()
        with open(report, "w") as f:
            json.dump(detail, f, indent=1, sort_keys=True)
            f.write("\n")
    except (OSError, ValueError) as e:
        log(f"cannot add provenance to {report}: {e}")
        return 1

    print(summary, flush=True)
    if code != 0 or result.get("correct") is not True:
        log(f"{args.workload}: correctness checks failed (see {report})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
