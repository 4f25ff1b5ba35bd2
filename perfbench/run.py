#!/usr/bin/env python3
"""melb end-to-end benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ (the melb library plus the
melb_perfbench driver, Release) into .bench_build/perfbench, then:

  --trace 0  times set-up (median of several process starts) and repeats the
             workload for --seconds, reporting the end-to-end metrics;
  --trace 1  runs the layer pass plus one untraced and one traced iteration
             and reports the per-layer metrics and the tracing overhead.

Every output is checked against its known answer (analysis.py); a mismatch
raises error_rate and makes the exit code 1. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The lines before
it record the host, the workload and every metric with its unit.

Workloads: ya4-sym-ddd, sweep-lb, zoo-n3 (in BENCHMARK.json) and ya4-hash (by
hand only; README.md says why). --seed is the sweep-lb campaign seed; the
other three are exhaustive and ignore it.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKERS = 4             # per workload, never more than the host's CPUs
SETUP_PROBES = 31       # process starts timed per run for setup_s
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175    # the whole invocation, build excluded


def host_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    """Configure once, then build incrementally. Returns the driver path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "check").is_dir():
        raise SystemExit(f"perfbench: no melb source tree at {ROOT} "
                         "(run from a full checkout)")
    jobs = str(host_cpus())
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "melb_perfbench"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return BUILD / "melb_perfbench"


def parse_records(text):
    return [json.loads(line) for line in text.splitlines() if line.startswith("{")]


def spawn(binary, args, timeout):
    """Runs the driver to completion; returns (records, monotonic ns at spawn)."""
    t0 = time.monotonic_ns()
    proc = subprocess.run([str(binary)] + args, capture_output=True, text=True,
                          timeout=max(timeout, 1))
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: driver exited {proc.returncode}: {proc.stderr.strip()}")
    return parse_records(proc.stdout), t0


def setup_seconds(records, t0):
    """Process start (spawn) to the first call into the layer under test."""
    first_call = analysis.of_kind(records, "setup")[0]["first_call_ns"]
    return (first_call - t0) / 1e9


def fmt(value):
    return f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(analysis.WORKLOADS))
    parser.add_argument("--seed", type=int, default=analysis.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests (no build)")
    args = parser.parse_args(argv)
    if args.self_test:
        import unittest
        suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
        return 0 if unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful() else 1
    if args.workload is None:
        parser.error("--workload is required")

    host = {"nproc": host_cpus(), "cpu": cpu_model(), "loadavg": os.getloadavg(),
            "commit": git_commit(), "python": platform.python_version()}
    binary = build()
    started = time.monotonic()
    work = BUILD / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workers = min(WORKERS, host["nproc"])
    base = ["--workload", args.workload, "--work", str(work), "--seed", str(args.seed),
            "--workers", str(workers)]

    def remaining():
        return RUN_DEADLINE_S - (time.monotonic() - started)

    setup_samples = []
    for _ in range(SETUP_PROBES):
        records, t0 = spawn(binary, base + ["--mode", "setup"], remaining())
        setup_samples.append(setup_seconds(records, t0))
    mode = "trace" if args.trace else "run"
    records, t0 = spawn(binary, base + ["--mode", mode, "--seconds", str(args.seconds)],
                        remaining())
    setup_samples.append(setup_seconds(records, t0))
    built = analysis.of_kind(records, "build")[0]
    host.update(build_type=built["build_type"], compiler=built["compiler"])

    info = analysis.WORKLOADS[args.workload]
    verdict = analysis.evaluate(args.workload, records, args.seed)
    print(f"# melb perfbench: workload {args.workload}, trace {args.trace}, "
          f"seed {args.seed}" + ("" if info["seeded"] else " (ignored: exhaustive, seedless)"))
    print("host " + json.dumps(host, sort_keys=True))
    print(f"why: {info['why']}")
    print(f"sizes: {info['sizes']}")
    if args.trace:
        spans_path = analysis.of_kind(records, "spans")[0]["path"]
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]
        metrics = analysis.per_layer(records, spans)
        units = analysis.PER_LAYER_UNITS
        print(f"spans: {spans_path}")
        for name, value in metrics.items():
            print(f"  {name:26} {fmt(value):>14} {units[name]}")
    else:
        metrics, extra, notes = analysis.end_to_end(args.workload, records, setup_samples)
        units = analysis.UNITS
        shown = dict(metrics, **extra, error_rate=verdict.error_rate)
        for name, value in shown.items():
            note = notes.get(name, "")
            print(f"  {name:16} {fmt(value):>14} {units[name]:5} {note}")
    print(f"known answers: {verdict.attempted - verdict.failed}/{verdict.attempted} items "
          f"match, error_rate {verdict.error_rate:g}")
    for mismatch in verdict.mismatches[:20]:
        print(f"  MISMATCH {mismatch}")
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if verdict.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
