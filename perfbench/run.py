#!/usr/bin/env python3
"""Host-time benchmark of the simulator stack: build, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload zoo-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the simulator's
libraries from src/ plus the driver) into .bench_build/perfbench; later
calls rebuild incrementally. The workload then runs in a child process
with a pinned environment, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
(--trace 0) report the end-to-end metrics, traced runs (--trace 1) the
per-layer metrics, and write their spans under .bench_build/spans/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("zoo-cold", "design-sweep", "chip-4096", "fleet")
# The workload process must finish well inside the 180 s run limit.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    """Configure once, then build @targets; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))


def pinned_env(threads):
    """The caller's environment without any ASCEND_* knob, plus the
    thread count: an inherited cache dir, surrogate switch, trace path,
    stats flag, fault profile or chip-sim grain cannot change a run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ASCEND_")}
    env["ASCEND_THREADS"] = str(threads)
    return env


def source_identity():
    """git revision if the checkout has one, plus a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        rev = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the output checks' self-tests")
    args = ap.parse_args()

    if args.self_test:
        build(["perfbench_checks_test"])
        sys.exit(subprocess.run([str(BUILD / "perfbench_checks_test")]).returncode)
    if not args.workload:
        fail("--workload is required")
    build(["perfbench"])

    # zoo-cold, design-sweep and chip-4096 run at 4 threads (fewer if
    # the host has fewer CPUs); the fleet engine is serial by design.
    nproc = len(os.sched_getaffinity(0))
    threads = 1 if args.workload == "fleet" else min(4, nproc)
    rev, digest = source_identity()
    SPANS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(SPANS)]
    # A SIGTERM to this wrapper must not orphan the workload process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    t0 = time.monotonic_ns()
    child = subprocess.Popen(cmd + ["--t0-ns", str(t0)], cwd=ROOT,
                             env=pinned_env(threads), stdout=subprocess.PIPE,
                             text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        fail(f"{args.workload} exited with code {child.returncode}")

    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
             f"{sorted(want.items())}")
    info = {"workload": args.workload, "seed": args.seed, "threads": threads,
            "nproc": nproc, "build_type": BUILD_TYPE, "git_rev": rev,
            "src_digest": digest}
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
