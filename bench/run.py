"""Benchmark of jflow's simulate, report and geodesic-probe commands.

    python3 bench/run.py --workload torus-limit --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the directory holding src/jflow
and scenarios/).  Every measured operation is one jflow command in a
fresh interpreter, one child at a time, and its artifacts go through the
independent checks of checks.py; an operation fails when the command
exits non-zero or a check rejects its output.

--trace 0 measures the end-to-end metrics.  After one discarded warm-up
child it repeats whole rounds of [SETUP_PROBES set-up probes, full run]
while the next round still fits into --seconds, and reports medians:
  setup_s      launch of a fresh interpreter to the first call into the
               workload's work (imports, config, backend, problem)
  wall_s       the whole command as the jflow console script runs it,
               launch to exit, artifacts written
  peak_rss_mb  peak resident memory of that process
--trace 1 repeats rounds of [untraced run, traced run] instead and
reports the per-layer metrics of layers.py, medians over the traced runs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files, the bytecode
cache of the children and the span files go under bench/work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import checks
import layers

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "work")
CHILD = os.path.join(BENCH, "child.py")
# What the installed `jflow` console script runs.  `python -m jflow` ran
# the torus flow 10-15 % slower in 6 of 7 alternating pairs.
CONSOLE_SCRIPT = "import sys; from jflow.cli import main; sys.exit(main())"

# The whole benchmark process ends within this many seconds.
DEADLINE_S = 170.0
# Set-up probes per round: a probe costs about a tenth of a full run on
# the flow workloads, so several keep the set-up median from resting on
# a handful of samples.
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    command: str
    config: str  # relative to the checkout root
    first_work: str  # "module.function" where set-up ends
    check: Callable[[str, dict], list]


def _check_sphere_report(outdir: str, cfg: dict) -> list:
    return (checks.check_sphere_limit(outdir, cfg)
            + checks.check_margins(outdir, cfg)
            + checks.check_probes(outdir, cfg))


WORKLOADS = {
    "torus-limit": Workload("simulate", "scenarios/torus.cfg",
                            "flow.run_flow", checks.check_torus_limit),
    "sphere-report": Workload("report", "scenarios/report.cfg",
                              "flow.run_flow", _check_sphere_report),
    "sphere-probe": Workload("geodesic-probe", "bench/sphere-probe.cfg",
                             "geodesic.geodesic_path", checks.check_probes),
}


def child_env() -> dict:
    """Environment pinned for steady timings, whatever the caller sets."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "JFLOW_LOG")}
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        # bytecode is cached, in a tree of the benchmark's own
        "PYTHONPYCACHEPREFIX": os.path.join(WORK, "pycache"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


@dataclass
class Child:
    code: int
    start: float
    wall_s: float
    peak_rss_mb: float
    output: str


class Runner:
    def __init__(self, name: str, seed: int, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        self.cfg = checks.read_config(os.path.join(ROOT, self.workload.config))
        self.outdir = os.path.join(WORK, "out", name)
        self.log = os.path.join(WORK, f"{name}.log")
        self.attempted = 0
        self.failures = []

    def jflow_args(self) -> list:
        return [self.workload.command, "--config", self.workload.config,
                "--out", self.outdir, "--seed", str(self.seed)]

    def spawn(self, argv: list) -> Child:
        """One child, timed from launch to reaped, killed at the deadline."""
        with open(self.log, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.log, encoding="utf-8", errors="replace") as log:
            output = log.read()
        return Child(proc.returncode, start, end - start,
                     usage.ru_maxrss / 1024.0, output)

    def _record(self, what: str, errors: list) -> bool:
        self.attempted += 1
        if errors:
            self.failures.append(f"{what}: " + "; ".join(errors))
        return not errors

    def full_run(self, traced_spans: str | None = None) -> tuple:
        """One command to its end; returns (child, passed checks)."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        if traced_spans is None:
            argv = [sys.executable, "-c", CONSOLE_SCRIPT] + self.jflow_args()
        else:
            argv = [sys.executable, CHILD, "trace", traced_spans, "--"] \
                + self.jflow_args()
        child = self.spawn(argv)
        if child.code != 0:
            errors = [f"exit code {child.code}: {child.output.strip()[-400:]}"]
        else:
            try:
                errors = self.workload.check(self.outdir, self.cfg)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"artifacts unreadable: {exc!r}"]
        return child, self._record("traced run" if traced_spans else "run",
                                   errors)

    def setup_argv(self) -> list:
        return [sys.executable, CHILD, "setup", self.workload.first_work,
                "--"] + self.jflow_args()

    def setup_probe(self) -> float | None:
        child = self.spawn(self.setup_argv())
        reached = [line for line in child.output.splitlines()
                   if line.startswith("REACHED ")]
        if child.code != 0 or len(reached) != 1:
            self._record("setup probe", [f"exit code {child.code}, first "
                                         f"call not reached: "
                                         f"{child.output.strip()[-400:]}"])
            return None
        self._record("setup probe", [])
        return float(reached[0].split()[1]) - child.start

    def bytes_written(self) -> int:
        return sum(os.path.getsize(os.path.join(self.outdir, f))
                   for f in os.listdir(self.outdir))


def _rounds(seconds: float, deadline: float, one_round) -> None:
    """Whole rounds, as many as fit in `seconds`; always at least one."""
    start = time.perf_counter()
    longest = 0.0
    done = 0
    while done == 0 or (time.perf_counter() - start + longest <= seconds
                        and time.perf_counter() + longest < deadline):
        began = time.perf_counter()
        one_round()
        longest = max(longest, time.perf_counter() - began)
        done += 1


def _show(name: str, samples: list, unit: str) -> None:
    print(f"  {name} samples ({len(samples)}): "
          + " ".join(f"{v:.4f}" for v in samples) + f" {unit}")


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics: rounds of [SETUP_PROBES set-up probes, full run]."""
    setup, wall, rss = [], [], []

    def one_round():
        values = [runner.setup_probe() for _ in range(SETUP_PROBES)]
        child, _ = runner.full_run()
        setup.extend(v for v in values if v is not None)
        if child.code == 0:  # timed even when a check fails
            wall.append(child.wall_s)
            rss.append(child.peak_rss_mb)

    _rounds(seconds, runner.deadline, one_round)
    if not setup or not wall:
        return {}
    _show("setup_s", setup, "s")
    _show("wall_s", wall, "s")
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(wall), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def trace(runner: Runner, seconds: float) -> dict:
    """Per-layer metrics: rounds of [untraced run, traced run]."""
    spans_path = os.path.join(WORK, "trace", f"{runner.name}.spans.json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    runs, untraced, traced = [], [], []
    spans = {}

    def one_round():
        plain, _ = runner.full_run()
        child, _ = runner.full_run(traced_spans=spans_path)
        if plain.code != 0 or child.code != 0:
            return
        untraced.append(plain.wall_s)
        traced.append(child.wall_s)
        with open(spans_path, encoding="utf-8") as handle:
            spans.update(json.load(handle))
        runs.append(layers.from_trace(spans, runner.bytes_written()))

    _rounds(seconds, runner.deadline, one_round)
    if not runs:
        return {}
    metrics = layers.combine(runs, untraced, traced)
    print(f"self time per layer (last traced run, {len(spans['spans'])} spans "
          f"in {os.path.relpath(spans_path, ROOT)}):")
    for layer, value in layers.self_times(spans["spans"]).items():
        print(f"  {layer:<12} {value:9.4f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    for needed in ("src/jflow/cli.py", WORKLOADS[args.workload].config):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"bench: {needed} not found under {ROOT}; run from a "
                  f"jflow source checkout", file=sys.stderr)
            return 2
    os.makedirs(WORK, exist_ok=True)

    runner = Runner(args.workload, args.seed, deadline)
    # Discarded warm-up: a set-up probe loads every module the command
    # loads, which fills the bytecode cache and the page cache.
    runner.spawn(runner.setup_argv())
    metrics = (trace if args.trace else measure)(runner, args.seconds)
    if not metrics:
        print("bench: no operation completed:\n" + "\n".join(runner.failures),
              file=sys.stderr)
        return 1

    for line in runner.failures:
        print(f"FAILED {line}")
    print(f"{args.workload} seed {args.seed}: {runner.attempted} attempted, "
          f"{len(runner.failures)} failed")
    for name, entry in metrics.items():
        shown = "missing" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {name:<34} {shown:>12} {entry['unit']}")
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
