import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jflow.cli import main
from jflow.config import (CONFIG_KEYS, _parse_optional_float, build_backend,
                          build_reference, load_config)

FAST_TORUS = """
geometry.kind = torus
geometry.size = 64
reference.scale = 2.0
reference.offset_family = sine
reference.offset_amplitude = 0.6
flow.t_max = 0.5
flow.residual_target = 1e-9
flow.log_every = 10
"""

FAST_SPHERE = """
geometry.kind = sphere
geometry.size = 64
reference.scale = 1.0
flow.t_max = 0.3
flow.residual_target = 1e-9
geodesic.nodes = 9
geodesic.pairs = 2
geodesic.amplitude = 0.4
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read(outdir, name):
    with open(os.path.join(outdir, name), "rb") as fh:
        return fh.read()


def test_help_embeds_config_reference(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "flow.residual_target" in out
    assert "output.directory" in out
    assert "simulate" in out and "geodesic-probe" in out


def test_simulate_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, FAST_TORUS)
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == ["config.effective.cfg", "final_state.json",
                     "functional_report.json", "trajectory.csv"]
    first_line = read(out, "trajectory.csv").decode().split("\n", 1)[0]
    assert first_line == ("t,dt,E,dE_dt_measured,dE_dt_predicted,rhs_min,"
                          "rhs_max,lambda_max,floor_constant,residual,suspect")
    state = json.loads(read(out, "final_state.json"))
    assert state["converged"] is False
    assert state["reason"] == "t_max"


def test_simulate_plot_flag_adds_svgs(tmp_path):
    cfg = write_cfg(tmp_path, FAST_TORUS)
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", cfg, "--out", out,
                 "--plot", "svg"]) == 0
    listing = os.listdir(out)
    assert "energy.svg" in listing and "residual.svg" in listing
    assert read(out, "energy.svg").startswith(b"<svg")


def test_rerun_from_effective_config_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, FAST_TORUS)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    echoed = os.path.join(out1, "config.effective.cfg")
    assert main(["simulate", "--config", echoed, "--out", out2]) == 0
    for name in ("trajectory.csv", "final_state.json",
                 "functional_report.json"):
        assert read(out1, name) == read(out2, name)


def test_config_error_exit_2_with_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "geometry.kine = torus\n")
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "offending line: geometry.kine = torus" in err
    # options are argparse's: one it does not know exits 2 with its usage
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--threads", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err


def test_log_every_zero_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_TORUS + "flow.log_every = 0\n")
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "offending line: flow.log_every = 0" in err


@pytest.mark.parametrize("value", ["0", "-0.2"])
def test_cfl_safety_not_positive_is_config_error(tmp_path, capsys, value):
    # zero used to crash on a zero-length step, negative to stall (exit 3)
    cfg = write_cfg(tmp_path, FAST_TORUS + f"flow.cfl_safety = {value}\n")
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"offending line: flow.cfl_safety = {value}" in err


@pytest.mark.parametrize("kind, entry", [
    ("torus", "geometry.size = 6"),
    ("sphere", "geometry.size = 12"),
    ("sphere", "geometry.s_max = 0.5"),
])
def test_backend_range_errors_are_config_errors(tmp_path, capsys, kind, entry):
    # the backend's own range check, reported on the line of the key at fault
    base = {"torus": FAST_TORUS, "sphere": FAST_SPHERE}[kind]
    cfg = write_cfg(tmp_path, base + entry + "\n")
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"offending line: {entry}" in err


@pytest.mark.parametrize("entry", ["geodesic.nodes = 2",
                                   "hypotheses.epsilon = -0.1"])
def test_report_rejects_check_keys_before_the_flow(tmp_path, capsys, entry):
    cfg = write_cfg(tmp_path, FAST_SPHERE + "geodesic.enabled = true\n"
                    + entry + "\n")
    out = tmp_path / "run"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"offending line: {entry}" in err
    assert not out.exists()


@pytest.mark.parametrize("command, entry", [
    ("geodesic-probe", "geodesic.nodes = 2"),
    ("check-cone", "hypotheses.epsilon = -0.1"),
])
def test_check_subcommands_reject_their_keys(tmp_path, capsys, command, entry):
    cfg = write_cfg(tmp_path, FAST_SPHERE + entry + "\n")
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"offending line: {entry}" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [
    key for key, spec in CONFIG_KEYS.items()
    if spec.parse in (float, _parse_optional_float)])
def test_non_finite_float_is_config_error(tmp_path, capsys, key, value):
    # each float key once ran on, stalled or failed later on such a value
    entry = f"{key} = {value}"
    cfg = write_cfg(tmp_path, FAST_TORUS + entry + "\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"offending line: {entry}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("level", [None, "info", "DEBUG"])
def test_jflow_log_prints_info_lines_to_stderr(tmp_path, capsys,
                                               monkeypatch, level):
    cfg = write_cfg(tmp_path, FAST_TORUS)
    out = str(tmp_path / "run")
    if level is None:
        monkeypatch.delenv("JFLOW_LOG", raising=False)
    else:
        monkeypatch.setenv("JFLOW_LOG", level)
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    lines = capsys.readouterr().err.splitlines()
    if level is None:
        assert lines == []
        return
    assert lines[0].startswith("INFO flow: converged=False reason=t_max ")
    assert lines[1:] == [
        f"INFO wrote {os.path.join(out, name)}"
        for name in ("trajectory.csv", "final_state.json",
                     "functional_report.json")]


def run_fresh(code):
    """Run python code in a fresh interpreter that imports jflow from src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    subprocess.run([sys.executable, "-c", code],
                   env=dict(os.environ, PYTHONPATH=src), check=True)


def test_cli_import_leaves_scipy_interpolate_unloaded(tmp_path):
    # scipy is a test dependency only: neither the import nor a whole
    # geodesic-probe run may load any part of it
    cfg = write_cfg(tmp_path, FAST_SPHERE)
    code = (
        "import sys\n"
        "def scipy_loaded():\n"
        "    return sorted(name for name in sys.modules\n"
        "                  if name == 'scipy' or name.startswith('scipy.'))\n"
        "import jflow.cli\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        f"assert jflow.cli.main(['geodesic-probe', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "assert not scipy_loaded(), scipy_loaded()\n")
    run_fresh(code)
    assert (tmp_path / "run" / "probe_summary.json").exists()


def test_records_are_named_tuples_and_only_two_dataclasses_remain():
    # FlowProblem validates in __post_init__ and FlowStats counts in place;
    # every other record is a NamedTuple, so the CLI's import generates no
    # record methods, and a trajectory row's field order is its CSV header
    code = (
        "import dataclasses, inspect, sys\n"
        "import jflow.cli\n"
        "from jflow.flow import MonitorRecord\n"
        "from jflow.reports import TRAJECTORY_HEADER\n"
        "found = {f'{obj.__module__}.{obj.__qualname__}'\n"
        "         for name, mod in list(sys.modules.items())\n"
        "         if name == 'jflow' or name.startswith('jflow.')\n"
        "         for obj in vars(mod).values()\n"
        "         if inspect.isclass(obj) and dataclasses.is_dataclass(obj)}\n"
        "assert found == {'jflow.flow.FlowProblem', 'jflow.flow.FlowStats'}, "
        "sorted(found)\n"
        "assert TRAJECTORY_HEADER.split(',') == list(MonitorRecord._fields)\n")
    run_fresh(code)


@pytest.mark.parametrize("command, text", [
    ("geodesic-probe", FAST_SPHERE),
    ("report", FAST_SPHERE + "geodesic.enabled = true\n"),
    ("functionals", FAST_SPHERE + "functionals.family = random\n"),
    ("simulate", FAST_TORUS),
], ids=("geodesic-probe", "report", "functionals", "torus-simulate"))
def test_no_command_loads_numpy_random(tmp_path, command, text):
    # seeded potentials come from the standard library's generator, and
    # importing numpy.random alone costs several MB of resident memory;
    # JFLOW_LOG lines are plain prints, so logging stays unloaded too.
    # The torus offset is a density, so no Fourier solve loads numpy.fft
    cfg = write_cfg(tmp_path, text)
    unloaded = "".join(f"assert {name!r} not in sys.modules, {name!r}\n"
                       for name in ("numpy.random", "logging", "numpy.fft"))
    code = (
        "import sys\n"
        "import jflow.cli\n"
        + unloaded
        + f"assert jflow.cli.main([{command!r}, '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'run')!r}]) == 0\n"
        + unloaded)
    run_fresh(code)
    assert any((tmp_path / "run").iterdir())


def test_main_freezes_the_collector_only_when_it_owns_the_process(tmp_path):
    cfg = write_cfg(tmp_path, FAST_TORUS)
    frozen = gc.get_freeze_count()
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "in-process")]) == 0
    assert gc.get_freeze_count() == frozen
    # argv None: the command owns its interpreter, as the jflow script does
    code = (
        "import gc, sys\n"
        "from jflow.cli import main\n"
        f"sys.argv = ['jflow', 'simulate', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'script')!r}]\n"
        "assert gc.get_freeze_count() == 0\n"
        "assert main() == 0\n"
        "assert gc.get_freeze_count() > 0, gc.get_freeze_count()\n")
    run_fresh(code)
    assert (tmp_path / "script" / "final_state.json").exists()


def test_geodesic_probe_on_torus_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "geometry.kind = torus\ngeometry.size = 64\n")
    out = str(tmp_path / "run")
    assert main(["geodesic-probe", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "offending line: geometry.kind = torus" in err


def test_report_probe_on_torus_is_rejected_before_the_flow(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_TORUS + "geodesic.enabled = true\n")
    out = tmp_path / "run"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "offending line: geometry.kind = torus" in err
    assert not out.exists()


@pytest.mark.parametrize("entry", ["seed = -1", "geodesic.pairs = 0"])
def test_probe_count_and_seed_bounds_are_config_errors(tmp_path, capsys,
                                                       entry):
    # a negative seed used to crash in the random generator, zero pairs to
    # write an empty summary
    cfg = write_cfg(tmp_path, FAST_SPHERE + entry + "\n")
    out = tmp_path / "run"
    assert main(["geodesic-probe", "--config", cfg, "--out", str(out)]) == 2
    assert f"offending line: {entry}" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_obeys_the_seed_bound(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_SPHERE)
    out = tmp_path / "run"
    assert main(["geodesic-probe", "--config", cfg, "--out", str(out),
                 "--seed", "-1"]) == 2
    assert "offending line: --seed -1" in capsys.readouterr().err
    assert not out.exists()


def test_geodesic_probe_with_negative_amplitude(tmp_path):
    cfg = write_cfg(tmp_path, FAST_SPHERE + "geodesic.amplitude = -0.4\n")
    out = str(tmp_path / "run")
    assert main(["geodesic-probe", "--config", cfg, "--out", out]) == 0
    summary = json.loads(read(out, "probe_summary.json"))
    assert len(summary) == 2


def test_step_stalled_exit_3(tmp_path, capsys):
    text = FAST_TORUS + "flow.method = rk4\nflow.cfl_safety = 5.0\n" \
        "flow.dt_min = 1.0\nflow.t_max = 10.0\n"
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", cfg, "--out", out]) == 3
    assert "step stalled" in capsys.readouterr().err
    # the run up to the stall leaves its trajectory and counters behind
    state = json.loads(read(out, "final_state.json"))
    assert state["converged"] is False and state["reason"] == "stalled"
    assert state["stats"]["rejected_positivity"] \
        + state["stats"]["rejected_energy"] > 0
    rows = read(out, "trajectory.csv").decode().splitlines()
    assert len(rows) >= 2
    assert float(rows[-1].split(",")[0]) == state["t"]


def test_nonconvergence_exit_4_still_writes(tmp_path, capsys):
    text = FAST_TORUS + "flow.require_convergence = true\n"
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", cfg, "--out", out]) == 4
    assert "non-convergence" in capsys.readouterr().err
    # partial artifacts are on disk before the failure escalates
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert os.path.exists(os.path.join(out, "final_state.json"))


def test_report_exit_4_still_writes_its_checks(tmp_path, capsys):
    # neither the cone check nor the probes read the flow's result, so an
    # unconverged report writes both before it exits 4
    text = FAST_SPHERE + "geodesic.enabled = true\n" \
        "flow.require_convergence = true\n"
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "run")
    assert main(["report", "--config", cfg, "--out", out]) == 4
    assert "non-convergence" in capsys.readouterr().err
    assert json.loads(read(out, "final_state.json"))["converged"] is False
    listing = set(os.listdir(out))
    assert {"trajectory.csv", "final_state.json", "functional_report.json",
            "hypothesis_report.json", "probe_summary.json"} <= listing


def test_unwritable_output_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_TORUS)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    out = str(blocker / "nested")
    assert main(["simulate", "--config", cfg, "--out", out]) == 1
    assert "cannot write outputs" in capsys.readouterr().err


def test_functionals_subcommand_seed_override(tmp_path):
    text = "geometry.kind = sphere\ngeometry.size = 64\n" \
        "functionals.family = random\nfunctionals.amplitude = 0.4\n"
    cfg = write_cfg(tmp_path, text)
    outs = {}
    for tag, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        out = str(tmp_path / tag)
        assert main(["functionals", "--config", cfg, "--out", out,
                     "--seed", seed]) == 0
        outs[tag] = read(out, "functional_report.json")
    assert outs["a"] == outs["b"]
    assert outs["a"] != outs["c"]


def test_check_cone_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, "geometry.kind = sphere\ngeometry.size = 64\n")
    out = str(tmp_path / "run")
    assert main(["check-cone", "--config", cfg, "--out", out]) == 0
    payload = json.loads(read(out, "hypothesis_report.json"))
    assert payload["passes"]["class_positivity"] is False
    assert payload["epsilon"] == 0.1


def test_geodesic_probe_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, FAST_SPHERE)
    # two runs of one config write the same bytes
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["geodesic-probe", "--config", cfg, "--out", out1]) == 0
    assert main(["geodesic-probe", "--config", cfg, "--out", out2]) == 0
    names1 = sorted(os.listdir(out1))
    assert names1 == ["config.effective.cfg", "probe_0.csv", "probe_1.csv",
                      "probe_summary.json"]
    for name in ("probe_0.csv", "probe_1.csv", "probe_summary.json"):
        assert read(out1, name) == read(out2, name)
    summary = json.loads(read(out1, "probe_summary.json"))
    assert isinstance(summary, list) and len(summary) == 2
    assert all(entry["nodes"] == 9 for entry in summary)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("command, scenario", [
    ("simulate", "torus.cfg"), ("simulate", "sphere.cfg"),
    ("report", "report.cfg")])
def test_shipped_scenario_runs_clean(tmp_path, command, scenario):
    out = str(tmp_path / "run")
    assert main([command, "--config", str(SCENARIOS / scenario),
                 "--out", out]) == 0
    state = json.loads(read(out, "final_state.json"))
    assert state["converged"] is True
    assert state["suspect_steps"] == 0


def test_shipped_torus_scenario_steps_implicitly(tmp_path):
    # torus.cfg runs rosenbrock: about 140 steps where RK4 takes about
    # 16,500, none rejected, to the limit that RK4 reaches
    scenario = SCENARIOS / "torus.cfg"
    cfg = load_config(str(scenario))
    target = cfg.get("flow.residual_target")
    rk4_cfg = write_cfg(tmp_path, scenario.read_text() + "flow.method = rk4\n")
    states = {}
    for method, path in (("rosenbrock", str(scenario)), ("rk4", rk4_cfg)):
        out = str(tmp_path / method)
        assert main(["simulate", "--config", path, "--out", out]) == 0
        states[method] = json.loads(read(out, "final_state.json"))
    state = states["rosenbrock"]
    assert state["converged"] is True and state["suspect_steps"] == 0
    stats = state["stats"]
    assert stats["rejected_positivity"] == stats["rejected_energy"] \
        == stats["rejected_error"] == stats["rejected_dominance"] == 0
    assert state["step_count"] < 1000
    assert states["rk4"]["step_count"] > 10000

    # h = 1 + D^2 phi / (4 delta^2), the density of the limit metric
    backend = build_backend(cfg)
    omega = build_reference(cfg, backend).density
    c = -state["minus_nc"]

    def density(phi):
        phi = np.asarray(phi)
        second = np.roll(phi, -1) - 2.0 * phi + np.roll(phi, 1)
        return 1.0 + second / (4.0 * backend.spacing**2)

    h = density(state["phi"])
    assert np.max(np.abs(omega / h - c)) < target
    assert np.max(np.abs(h - density(states["rk4"]["phi"]))) < target


def test_report_subcommand_runs_enabled_sections(tmp_path):
    text = FAST_SPHERE + "geodesic.enabled = true\n"
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / "run")
    assert main(["report", "--config", cfg, "--out", out]) == 0
    listing = set(os.listdir(out))
    assert {"trajectory.csv", "final_state.json", "functional_report.json",
            "hypothesis_report.json", "probe_summary.json",
            "config.effective.cfg"} <= listing


def test_report_sets_up_its_geometry_once(tmp_path, monkeypatch):
    # the flow, the cone check and the probes share one backend and form
    calls = {"build_backend": 0, "build_reference": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, original in (("build_backend", build_backend),
                           ("build_reference", build_reference)):
        monkeypatch.setattr(f"jflow.cli.{name}", counted(name, original))
    cfg = write_cfg(tmp_path, FAST_SPHERE + "geodesic.enabled = true\n")
    out = str(tmp_path / "run")
    assert main(["report", "--config", cfg, "--out", out]) == 0
    assert "probe_summary.json" in os.listdir(out)
    assert calls == {"build_backend": 1, "build_reference": 1}
