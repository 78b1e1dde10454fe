"""Benchmark of twarrow: time to a trustworthy verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout it sits in and builds
nothing, since ``src/`` is put on the path.  Workloads, metrics and the
reasons for them are in ``bench/README.md``.

With ``--trace 0`` it measures the end-to-end metrics: set-up time from
several fresh processes, then a fixed number of passes over the
workload, ``--seconds`` divided by the workload's pass time at the
baseline, so that two commits do the same work.  With ``--trace 1`` it
runs one untraced and one traced pass, each in a fresh process, and
reports the per-layer metrics.  Every verdict is checked against its
known answer.  Human-readable lines come first; the last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "workloads.py"
BUDGET_S = 170  # a run ends within 180 s
# wall time of one pass at the baseline commit
NOMINAL_PASS_S = {"suite-cold": 12.0, "lift-search": 12.0, "oracle-sweep": 10.0}
SETUP_SAMPLES = 5
SUITE_CHECKS = 11
# the console-script entry point of ``twarrow``
SUITE_ENTRY = "import sys; from twarrow.cli import main; sys.exit(main())"
CHECK_LINE = re.compile(r"^(?:ok |FAIL) (\S+)\s+([0-9.]+)s", re.M)
# workloads whose ops are timed one by one, with op latency percentiles
OPS_TIMED = {"oracle-sweep"}

UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s",
         "peak_rss_mb": "MB"}
LAYER_UNITS = {"self_s": "s", "cpu_s": "s", "overhead_s": "s",
               "keys_per_class": "ratio", "face_calls_per_hom": "ratio",
               "found_frac": "ratio", "face_calls_per_call": "ratio",
               "solved_frac": "ratio"}


class RunFailed(Exception):
    """A child process failed or ran out of time; the run has no result."""


class Runner:
    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + BUDGET_S
        path = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ, PYTHONPATH=src if not path
                        else src + os.pathsep + path)
        self._files = 0

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed(f"out of time after {BUDGET_S} s")
        return left

    def spawn(self, cmd, stdout):
        """Run a child to its end; returns (exit status, wall seconds,
        resource usage).  ``wait4`` blocks without polling, so the wall
        time is not rounded up to a polling interval."""
        timeout = self.remaining()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=stdout)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def worker(self, mode: str, passes: int) -> tuple[dict, float]:
        """A fresh ``workloads.py`` process: its result and wall time."""
        self._files += 1
        out = self.tmp / f"{mode}-{self._files}.json"
        cmd = [sys.executable, str(WORKER), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--passes", str(passes), "--out", str(out)]
        status, wall, _ = self.spawn(cmd, sys.stderr)
        if status != 0:
            raise RunFailed(f"{mode} worker exited with {status}")
        with open(out) as fh:
            return json.load(fh), wall

    def setup_s(self) -> float:
        """Median, over fresh processes, of interpreter start, importing
        the package and building the inputs."""
        return statistics.median(self.worker("setup", self.passes())[1]
                                 for _ in range(SETUP_SAMPLES))

    def passes(self) -> int:
        nominal = NOMINAL_PASS_S[self.args.workload]
        return max(2, round(self.args.seconds / nominal))

    def suite(self, *extra: str, report: Path | None = None) -> dict:
        """One ``twarrow suite`` in a fresh process, as users run it."""
        cmd = [sys.executable, "-c", SUITE_ENTRY, "suite",
               "--seed", str(self.args.seed), *extra]
        if report is not None:
            cmd += ["--report", str(report)]
        log = self.tmp / "suite-stdout.txt"
        with open(log, "w") as fh:
            status, wall, usage = self.spawn(cmd, fh)
        lines = CHECK_LINE.findall(log.read_text())
        return {"status": status, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024,
                "names": [name for name, _ in lines],
                "laps_ms": [float(secs) * 1e3 for _, secs in lines]}


# -- statistics --------------------------------------------------------


def tail(samples) -> tuple[float, float]:
    """(level, value) of the highest percentile, at most p99, that has at
    least ten samples beyond it; nearest rank."""
    xs = sorted(samples)
    n = len(xs)
    level = min(0.99, max(n - 10, 1) / n)
    return level, xs[math.ceil(level * n) - 1]


def unit_lines(passes) -> list[str]:
    """Median lap of each unit over the passes."""
    laps: dict[str, list[float]] = {}
    for p in passes:
        for name, lap in zip(p["names"], p["laps_ms"]):
            laps.setdefault(name, []).append(lap)
    return [f"  unit {name:<43} {statistics.median(v):>14.6g} ms"
            for name, v in laps.items()]


def latency_lines(passes) -> list[str]:
    """op_p50_ms and op_p99_ms, where ops are timed one by one."""
    laps = [x for p in passes for x in p["laps_ms"]]
    level, p99 = tail(laps)
    return [f"  {'op_p50_ms':<48} {statistics.median(laps):>14.6g} ms",
            f"  {'op_p99_ms':<48} {p99:>14.6g} ms "
            f"(p{100 * level:.4g} of {len(laps)} ops)"]


def end_to_end(passes, rss_mb, setup) -> dict:
    return {
        "setup_s": setup,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "ops_per_s": statistics.median(p["ops"] / p["wall_s"]
                                       for p in passes),
        "peak_rss_mb": rss_mb,
    }


# -- the two kinds of run ----------------------------------------------


def plain_suite(run: Runner, setup: float):
    passes, first = [], None
    for k in range(run.passes()):
        report = run.tmp / f"report-{k}.json"
        p = run.suite(report=report)
        text = report.read_bytes() if report.exists() else b""
        first = text if first is None else first
        failed = SUITE_CHECKS
        if p["status"] == 0 and text == first:
            checks = json.loads(text)["checks"]
            if len(checks) == SUITE_CHECKS:
                failed = sum(not c["ok"] for c in checks)
        passes.append({**p, "ops": SUITE_CHECKS, "failed": failed})
    # the negative control must fail the suite
    control = run.suite("--checks", "pivot-certificates", "--inject",
                        "flat-q1")
    attempted = SUITE_CHECKS * len(passes) + 1
    failed = sum(p["failed"] for p in passes) + (control["status"] != 1)
    metrics = end_to_end(passes, max(p["rss_mb"] for p in passes), setup)
    # these are the times the suite prints, inflated by its thread pool
    return attempted, failed, metrics, unit_lines(passes)


def plain_worker(run: Runner, setup: float):
    res = run.worker("plain", run.passes())[0]
    passes = res["passes"]
    metrics = end_to_end(passes, res["maxrss_mb"], setup)
    lines = latency_lines(passes) if run.args.workload in OPS_TIMED \
        else unit_lines(passes)
    return (sum(p["ops"] for p in passes), sum(p["failed"] for p in passes),
            metrics, lines)


def traced(run: Runner):
    """An untraced and a traced pass, each in a fresh process, so neither
    finds the other's caches warm."""
    ref = run.worker("plain", 1)[0]["passes"][0]
    res = run.worker("traced", 1)[0]
    got = res["passes"][0]
    metrics = dict(res["metrics"])
    check_cpu = {}
    if run.args.workload == "suite-cold":
        check_cpu = {n: c / 1e3 for n, c in zip(ref["names"], ref["cpu_ms"])}
    for name in res["checks"]:
        metrics[f"cli.check.{name}.cpu_s"] = check_cpu.get(name, 0.0)
    metrics["trace.overhead_s"] = got["wall_s"] - ref["wall_s"]
    same = got["verdicts"] == ref["verdicts"]
    if not same:
        print("traced verdicts differ from the untraced ones", file=sys.stderr)
    failed = got["failed"] if same else got["ops"]
    return got["ops"], failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(NOMINAL_PASS_S),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "twarrow" / "__init__.py").is_file():
        print(f"no twarrow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds}, trace {args.trace}, "
          f"python {platform.python_version()}, cpus {os.cpu_count()}")
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        run = Runner(args, Path(tmp))
        try:
            if args.trace:
                attempted, failed, metrics = traced(run)
                units = {k: LAYER_UNITS.get(k.rsplit(".", 1)[1], "count")
                         for k in metrics}
            else:
                setup = run.setup_s()
                body = plain_suite if args.workload == "suite-cold" \
                    else plain_worker
                attempted, failed, metrics, lines = body(run, setup)
                units = UNITS
                print(f"passes {run.passes()}", *lines, sep="\n")
        except RunFailed as e:
            print(f"run failed: {e}", file=sys.stderr)
            return 1
    for name in sorted(metrics):
        print(f"  {name:<48} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
