"""The wtb benchmark: one workload, one seed, a closed loop of `wtb` runs.

    python3 wtbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports nothing installed and
writes only under wtbench/ (a scratch directory it removes on exit). It
builds the workload's instance from the seed (see workloads.py), then runs
`python -m wtbound.cli ...` as a fresh process, one at a time with no
overlap (one client, closed loop), for S seconds, checking every answer.
Right before each `wtb` process it runs `python reference.py`, a fixed
amount of Python that shares no code with the package.

With --trace 0 the last stdout line holds the end-to-end metrics:
  wall_ref     wall time of one `wtb` process (spawn to exit) divided by that
               of the reference process run just before it; median of the run
  sets_per_ref collection lines / wall_ref
  peak_rss_mb  median peak resident memory of the `wtb` process (wait4)
  setup_s      median time to start an interpreter and import wtbound.cli
With --trace 1 it holds the per-layer metrics of one extra traced run (see
tracer.py) after the same timed loop. A run fails on a non-zero exit, a
wrong answer, or output bytes that differ from the first run of the seed;
`attempted` and `failed` count runs. The line before the last records the
seed, the instance sizes, sample counts, the Python version, the commit and
the CPU count, so every ratio has its base, and every wall time measured
in seconds (`wall_s_samples`, `reference_s_samples`).

Why a ratio and not seconds: on a shared 2-vCPU host the same `wtb bound`
took 2.4 to 4.9 s within ten minutes, its CPU time tracking its wall time,
in slow and fast episodes of 30 s and more. Over ten seeds of 25 s runs the
quartile spread of the per-run median wall time reached 0.24 of its median
(0.25 for the per-run minimum), at the limit of any bound the benchmark may
set. The reference process slows down with `wtb` in those episodes, so the
ratio spreads less; baseline.json records both spreads.

The benchmark's own tests: python3 -m pytest wtbench
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
MIN_SAMPLES = 3
BUDGET_S = 170.0  # every child is killed by then, so the benchmark ends within 180 s

# name -> (unit, better); BENCHMARK.json lists the same names
END_TO_END = {
    "wall_ref": ("ref", "lower"),
    "sets_per_ref": ("1/ref", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
PER_LAYER = {
    "flow.max_flow.calls": ("count", "lower"),
    "flow.max_flow_s": ("s", "lower"),
    "flow.augmenting_paths": ("count", "lower"),
    "flow.flows_per_set": ("ratio", "lower"),
    "graph.split_and_sink.calls": ("count", "lower"),
    "graph.split_and_sink_s": ("s", "lower"),
    "cuts.mincut_capacity.calls": ("count", "lower"),
    "cuts.mincut_capacity_s": ("s", "lower"),
    "cuts.primary_min_cut.calls": ("count", "lower"),
    "cuts.primary_min_cut_s": ("s", "lower"),
    "wiretap.preprocess.self_s": ("s", "lower"),
    "wiretap.preprocess.sets_in": ("count", "higher"),
    "wiretap.preprocess.sets_kept": ("count", "higher"),
    "wiretap.partition_classes.self_s": ("s", "lower"),
    "wiretap.class_hasse.self_s": ("s", "lower"),
    "wiretap.compute_bound.self_s": ("s", "lower"),
    "wiretap.dominates.calls": ("count", "lower"),
    "wiretap.dominates_s": ("s", "lower"),
    "fileio.parse_network_s": ("s", "lower"),
    "fileio.parse_collection.self_s": ("s", "lower"),
    "oracle.enumerate_min_cuts.calls": ("count", "lower"),
    "oracle.enumerate_min_cuts_s": ("s", "lower"),
    "oracle.cross_check.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout


def spawn(argv: list[str], cwd: Path, env: dict[str, str], stdout_path: Path, deadline: float):
    """Run one child to exit, killing it at `deadline` (a perf_counter value).

    Returns (exit code, wall seconds, peak RSS in MB, stdout).
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except RunTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, stdout_path.read_text()


def timed(argv: list[str], cwd: Path, env: dict[str, str], deadline: float) -> float:
    """Wall time of a child that must succeed; its output is discarded."""
    code, wall, _, _ = spawn(argv, cwd, env, cwd / "discarded.txt", deadline)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    return wall


def measure_setup(env: dict[str, str], cwd: Path, deadline: float) -> list[float]:
    """Wall times of a fresh interpreter importing wtbound.cli."""
    argv = [sys.executable, "-c", "import wtbound.cli"]
    timed(argv, cwd, env, deadline)  # writes the bytecode caches
    return [timed(argv, cwd, env, deadline) for _ in range(SETUP_SAMPLES)]


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from the traced run's spans and counters.

    A name's `_s` is the time inside its outermost calls, `.self_s` that
    time minus the time of the traced calls it made directly.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter[str] = Counter()
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        own[name] += end - start - child_time[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total[name] += end - start
    counts = trace["counts"]
    values = {}
    for metric in PER_LAYER:
        if metric.endswith(".calls"):
            values[metric] = calls[metric[: -len(".calls")]]
        elif metric.endswith(".self_s"):
            values[metric] = own[metric[: -len(".self_s")]]
        elif metric.endswith("_s") and not metric.startswith("trace."):
            values[metric] = total[metric[: -len("_s")]]
        else:
            values[metric] = counts.get(metric, 0)
    values["cli.self_s"] = own["cli.main"]
    kept = counts.get("wiretap.preprocess.sets_kept", 0)
    values["flow.flows_per_set"] = calls["flow.max_flow"] / kept if kept else 0.0
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "wtbound" / "cli.py").is_file():
        print(f"wtbench: no package at {SRC / 'wtbound'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")

    deadline = time.perf_counter() + BUDGET_S
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH_DIR))
    try:
        inst = workloads.build(args.workload, args.seed, work)
        setup_times = measure_setup(env, work, deadline)
        cli_argv = [sys.executable, "-m", "wtbound.cli", *inst.argv]
        reference_argv = [sys.executable, str(BENCH_DIR / "reference.py")]

        first: list[bytes] = []  # output bytes of the first run, which every run must repeat

        def run_checked(argv: list[str]):
            code, wall, rss, out = spawn(argv, work, env, work / "stdout.txt", deadline)
            dot = inst.dot.read_text() if inst.dot and inst.dot.exists() else None
            problems = workloads.check(inst, code, out, dot)
            output = (out + "\0" + (dot or "")).encode()
            if not first:
                first.append(output)
            elif output != first[0]:
                problems.append("output differs from the first run of this seed")
            for p in problems:
                print(f"wtbench: {args.workload} seed {args.seed}: {p}", file=sys.stderr)
            return not problems, wall, rss

        walls, references, rss_mb = [], [], []
        attempted = failed = 0
        started = time.perf_counter()
        while True:
            reference = timed(reference_argv, work, env, deadline)
            ok, wall, rss = run_checked(cli_argv)
            attempted += 1
            failed += not ok
            walls.append(wall)
            references.append(reference)
            rss_mb.append(rss)
            elapsed = time.perf_counter() - started
            if len(walls) >= MIN_SAMPLES and elapsed + (wall + reference) / 2 >= args.seconds:
                break
            if time.perf_counter() + wall + reference > deadline:
                break

        if args.trace:
            spans_path = work / "spans.json"
            tracer = str(BENCH_DIR / "tracer.py")
            traced_argv = [sys.executable, tracer, str(spans_path), *inst.argv]
            ok, traced_wall, _ = run_checked(traced_argv)
            attempted += 1
            failed += not ok
            trace = json.loads(spans_path.read_text()) if spans_path.exists() else {
                "spans": [], "counts": {}, "absent": []}
            values = layer_metrics(trace, traced_wall, statistics.median(walls))
        else:
            trace = None
            wall_ref = statistics.median(w / r for w, r in zip(walls, references))
            values = {
                "wall_ref": wall_ref,
                "sets_per_ref": inst.sizes["sets"] / wall_ref,
                "peak_rss_mb": statistics.median(rss_mb),
                "setup_s": statistics.median(setup_times),
            }
        table = PER_LAYER if args.trace else END_TO_END
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()}

        context = {
            "workload": args.workload,
            "seed": args.seed,
            "instance": inst.sizes,
            "samples": {"wall_ref": len(walls), "setup_s": len(setup_times)},
            "wall_s_median": statistics.median(walls),
            "wall_s_samples": walls,
            "reference_s_samples": references,
            "setup_s_samples": setup_times,
            "absent": trace["absent"] if trace else [],
            "python": platform.python_version(),
            "commit": commit(),
            "source_sha256": source_digest(),
            "nproc": os.cpu_count(),
        }
        print(json.dumps({"context": context}))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
