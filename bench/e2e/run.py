#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of record (bench/e2e).

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or any checkout of it). The first call
configures and builds the library and the bench under .bench_build/e2e
(incremental afterwards), then runs one workload and prints, as the last
line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The bench's own lines ("metric <name>
<value> <unit>", gates) are echoed above it, and its full JSON is kept
(--out, default .bench_build/e2e/runs/).

    python3 bench/e2e/run.py --smoke [--bin <e2e_bench>]

runs every workload at smoke size, untraced and traced, and fails unless
every gate holds, every BENCHMARK.json metric is emitted with its unit, and
the traced run's digest equals the untraced one.

Only the Python 3 standard library is used. Exit codes: 0 when a result was
printed (its "correct" field carries the gates' verdict), 2 for bad usage or
a checkout without the library sources, 3 when the build or the run failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SMOKE_BUDGET_S = 30


class Failure(Exception):
    """A build or run failure: reported on stderr, exit code 3."""


def run_command(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout
    and always waits for it, so no child outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failure(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err


def build():
    """Configures (once) and builds e2e_bench; returns its path."""
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "ab") as log:
        for step in steps:
            remaining = max(1.0, deadline - time.monotonic())
            code, _, _ = run_command(step, remaining, stdout=log,
                                     stderr=subprocess.STDOUT, env=env)
            if code != 0:
                raise Failure(f"build step failed ({code}), see {log_path}: "
                              + " ".join(step))
    return BUILD / "e2e_bench"


def run_bench(binary, workload, seed, seconds, trace, smoke, out):
    """Runs one workload; echoes its stdout and returns its report JSON."""
    out.parent.mkdir(parents=True, exist_ok=True)
    work = BUILD / "work" / f"{workload}-{os.getpid()}"
    trace_out = out.with_name(f"trace_{workload}.json")
    cmd = [str(binary), f"workload={workload}", f"seed={seed}",
           f"seconds={seconds}", f"trace={int(trace)}", f"smoke={int(smoke)}",
           f"out={out}", f"trace_out={trace_out}", f"work={work}"]
    if out.exists():
        out.unlink()
    code, stdout, _ = run_command(cmd, RUN_TIMEOUT_S, cwd=ROOT,
                                  stdout=subprocess.PIPE)
    sys.stdout.write(stdout.decode(errors="replace"))
    sys.stdout.flush()
    if not out.exists():
        raise Failure(f"{workload}: e2e_bench exited {code} without a report")
    report = json.loads(out.read_text())
    if code != 0 and report.get("correct", False):
        raise Failure(f"{workload}: e2e_bench exited {code}")
    return report


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def select_metrics(report, wanted):
    """The report's values for each wanted {name, unit}; raises on a
    missing metric or a unit mismatch."""
    chosen = {}
    for metric in wanted:
        got = report["metrics"].get(metric["name"])
        if got is None or got["value"] is None:
            raise Failure(f"metric {metric['name']} missing from the report")
        if got["unit"] != metric["unit"]:
            raise Failure(f"metric {metric['name']} has unit {got['unit']}, "
                          f"BENCHMARK.json says {metric['unit']}")
        chosen[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    return chosen


def smoke(binary):
    """Every workload at smoke size, untraced and traced, every gate on."""
    benchmark = load_benchmark()
    start = time.monotonic()
    problems = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        digests = {}
        for trace in (False, True):
            out = BUILD / "smoke" / f"{workload}-trace{int(trace)}.json"
            report = run_bench(binary, workload, 1, 1, trace, True, out)
            label = f"{workload} trace={int(trace)}"
            if not report["correct"]:
                problems.append(f"{label}: a correctness gate failed")
            wanted = benchmark["per_layer" if trace else "end_to_end"]
            try:
                select_metrics(report, wanted)
            except Failure as e:
                problems.append(f"{label}: {e}")
            digests[trace] = report.get("digest")
        if digests[False] is None or digests[False] != digests[True]:
            problems.append(f"{workload}: traced digest {digests[True]} != "
                            f"untraced {digests[False]}")
    elapsed = time.monotonic() - start
    if elapsed > SMOKE_BUDGET_S:
        problems.append(f"smoke took {elapsed:.1f}s, budget {SMOKE_BUDGET_S}s")
    for p in problems:
        print(f"SMOKE FAILURE: {p}", file=sys.stderr)
    print(f"smoke {'ok' if not problems else 'FAILED'} in {elapsed:.1f}s")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="where to keep the bench's full JSON report")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin", type=Path, help="a prebuilt e2e_bench")
    args = parser.parse_args()
    # A terminated run.py still stops (and waits for) the build or the bench
    # it started: SystemExit unwinds through run_command's cleanup.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print(f"bench/e2e needs the library sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        binary = args.bin.resolve() if args.bin else build()
        if args.smoke:
            return smoke(binary)
        benchmark = load_benchmark()
        names = [w["name"] for w in benchmark["workloads"]]
        if args.workload not in names:
            print(f"--workload must be one of {', '.join(names)}", file=sys.stderr)
            return 2
        if args.seed < 0:
            print("--seed must be >= 0", file=sys.stderr)
            return 2
        seconds = args.seconds or benchmark["run_seconds"]
        out = args.out or (BUILD / "runs" /
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        report = run_bench(binary, args.workload, args.seed, seconds,
                           bool(args.trace), False, out.resolve())
        wanted = benchmark["per_layer" if args.trace else "end_to_end"]
        result = {
            "correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": select_metrics(report, wanted),
        }
    except Failure as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
