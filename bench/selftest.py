"""Show that every output check can fail.

    python3 bench/selftest.py

Runs each workload's command once (seed 1), checks that its real
artifacts pass, then corrupts copies of them one way at a time and
checks that the matching check rejects each copy with the expected
message.  Exits 1 if an untouched artifact fails or a corrupted one
passes.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import time

import numpy as np

import checks
import run


def _edit_json(name, edit):
    def apply(outdir):
        path = os.path.join(outdir, name)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        edit(payload)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return apply


def _edit_csv(name, edit):
    def apply(outdir):
        path = os.path.join(outdir, name)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        fields = list(rows[0])
        edit(rows)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    return apply


def _bump_phi(state):
    state["phi"][5] += 1e-6


def _energy_rise(workload):
    # twice the round-off rise the check allows between rows 2 and 3
    cfg = checks.read_config(os.path.join(run.ROOT,
                                          run.WORKLOADS[workload].config))

    def edit(rows):
        energy = float(rows[2]["E"])
        allowed = float(checks.energy_rise_allowed(np.array([energy]), cfg)[0])
        rows[3]["E"] = repr(energy + 2.0 * allowed)
    return edit


def _suspect(rows):
    rows[-1]["suspect"] = "1"


def _dent(rows):
    # raise one interior node: its second difference turns negative
    mid = len(rows) // 2
    rows[mid]["value"] = repr(float(rows[mid]["value"]) + 1e-3)


def _drop_last(rows):
    rows.pop()


def _shift_t(rows):
    rows[3]["t"] = repr(float(rows[3]["t"]) + 1e-3)


def _alter_margin(report):
    report["condition_margins"]["class_positivity"] += 1e-6


def _not_converged(state):
    state["converged"] = False


CASES = {
    "torus-limit": [
        ("perturbed phi", _edit_json("final_state.json", _bump_phi),
         "torus: rebuilt residual"),
        ("energy rise",
         _edit_csv("trajectory.csv", _energy_rise("torus-limit")),
         "trajectory: E rises at row 3"),
        ("suspect row", _edit_csv("trajectory.csv", _suspect),
         "trajectory: 1 suspect rows"),
        ("not converged", _edit_json("final_state.json", _not_converged),
         "final_state: converged is False"),
    ],
    "sphere-report": [
        ("perturbed phi", _edit_json("final_state.json", _bump_phi),
         "sphere: limit density off collocation"),
        ("altered margin", _edit_json("hypothesis_report.json", _alter_margin),
         "margins: class_positivity"),
        ("energy rise",
         _edit_csv("trajectory.csv", _energy_rise("sphere-report")),
         "trajectory: E rises at row 3"),
        ("negative second difference", _edit_csv("probe_1.csv", _dent),
         "probe_1: second difference"),
        ("missing node", _edit_csv("probe_0.csv", _drop_last),
         "probe_0: 16 rows, expected 17"),
    ],
    "sphere-probe": [
        ("negative second difference", _edit_csv("probe_1.csv", _dent),
         "probe_1: second difference"),
        ("missing node", _edit_csv("probe_0.csv", _drop_last),
         "probe_0: 32 rows, expected 33"),
        ("non-uniform t", _edit_csv("probe_2.csv", _shift_t),
         "probe_2: t is not uniform"),
    ],
}


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    bad = 0
    for name, cases in CASES.items():
        runner = run.Runner(name, seed=1, deadline=time.perf_counter() + 600)
        child, _ = runner.full_run()
        errors = runner.workload.check(runner.outdir, runner.cfg)
        if child.code != 0 or errors:
            print(f"FAIL {name}: real artifacts rejected (exit {child.code}): "
                  f"{errors}")
            bad += 1
            continue
        print(f"ok   {name}: real artifacts pass")
        for label, corrupt, expected in cases:
            copy = os.path.join(run.WORK, "selftest", name,
                                label.replace(" ", "-"))
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(runner.outdir, copy)
            corrupt(copy)
            errors = runner.workload.check(copy, runner.cfg)
            if any(expected in e for e in errors):
                print(f"ok   {name}: {label} rejected ({errors[0]})")
            else:
                print(f"FAIL {name}: {label} not rejected as expected "
                      f"({expected!r}); errors: {errors}")
                bad += 1
    print(f"selftest: {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
