import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from jflow import (
    FlowProblem,
    build_metric,
    convexity_probe,
    flow_rhs,
    functional_report,
    geodesic_path,
    named_potential,
    properness_hypotheses,
    random_kahler_potential,
    run_flow,
)
from jflow.reports import (
    TRAJECTORY_HEADER,
    final_state_json,
    functional_report_json,
    hypothesis_report_json,
    probe_csv,
    probe_report_json,
    svg_line_plot,
    trajectory_csv,
)

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "jflow" / "schemas"


@pytest.fixture(scope="module")
def torus_result(request):
    from jflow import make_backend
    from oracles import hessian_offset_potential
    b = make_backend("torus", size=64)
    x = b.x
    psi = hessian_offset_potential(b, 0.6 * np.sin(2 * np.pi * x))
    density = 2.0 + b.complex_hessian(psi)[..., 0, 0]
    omega = b.form(density[:, None, None])
    return b, omega, run_flow(FlowProblem(backend=b, omega=omega, t_max=0.5,
                                          log_every=5))


def test_trajectory_csv_shape(torus_result):
    _, _, result = torus_result
    text = trajectory_csv(result.records)
    lines = text.strip().split("\n")
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == len(result.records) + 1
    first = lines[1].split(",")
    assert len(first) == 11
    # the first row has no previous slope to difference against
    assert first[3] == "nan"
    assert set(line.split(",")[-1] for line in lines[1:]) <= {"0", "1"}
    # full-precision floats round trip
    assert float(lines[2].split(",")[2]) == result.records[1].E


def test_trajectory_csv_deterministic(torus_result):
    _, _, result = torus_result
    assert trajectory_csv(result.records) == trajectory_csv(result.records)


def test_trajectory_csv_writes_suspect_flags_as_digits(torus_result):
    # the flag is written as 1 or 0 by its value's type, whatever the
    # record's annotations say; every other cell is a full-precision float
    _, _, result = torus_result
    row = result.records[-1]._replace(suspect=True)
    rows = [row, row._replace(suspect=False)]
    lines = trajectory_csv(rows).split("\n")
    assert lines[1].endswith(",1")
    assert lines[2].endswith(",0")
    names = TRAJECTORY_HEADER.split(",")[:-1]
    assert lines[1].split(",")[:-1] == [repr(float(getattr(row, name)))
                                        for name in names]


def test_probe_csv_endpoint_cells(sphere128):
    pa = np.zeros(sphere128.grid_shape)
    pb = named_potential(sphere128, "translation", amplitude=1.0)
    rep = convexity_probe(sphere128, "j_tilde",
                          geodesic_path(sphere128, pa, pb, 9))
    text = probe_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "t,value,second_difference"
    assert len(lines) == 10
    assert lines[1].endswith(",")
    assert lines[-1].endswith(",")
    mid = lines[2].split(",")
    assert len(mid) == 3
    assert float(mid[2]) == rep.second_differences[0]


def test_functional_report_schema(torus64, rng):
    phi = random_kahler_potential(torus64, rng, 0.4)
    rep = functional_report(torus64, phi, torus64.base_form())
    payload = json.loads(functional_report_json(rep))
    with open(SCHEMA_DIR / "functional_report.schema.json") as fh:
        schema = json.load(fh)
    jsonschema.validate(payload, schema)
    assert sorted(payload) == sorted(schema["required"])


def test_hypothesis_report_schema(sphere64):
    rep = properness_hypotheses(sphere64, 0.1, 0.2,
                                omega=sphere64.base_form())
    payload = json.loads(hypothesis_report_json(rep))
    with open(SCHEMA_DIR / "hypothesis_report.schema.json") as fh:
        schema = json.load(fh)
    jsonschema.validate(payload, schema)
    assert payload["passes"]["class_positivity"] is False
    assert set(payload["condition_margins"]) == set(payload["passes"])


def test_final_state_payload(torus_result):
    _, _, result = torus_result
    payload = json.loads(final_state_json(result))
    assert sorted(payload) == [
        "converged", "grid_shape", "kappa", "minus_nc", "phi", "reason",
        "residual", "rhs_spread", "sigma_mean", "stats", "step_count",
        "subsolution_margin", "suspect_steps", "t"]
    assert payload["grid_shape"] == [64]
    assert len(payload["phi"]) == 64
    assert payload["minus_nc"] == -2.0
    assert payload["suspect_steps"] == 0
    assert payload["stats"] == {
        "metric_builds": result.stats.metric_builds,
        "rejected_dominance": result.stats.rejected_dominance,
        "rejected_energy": result.stats.rejected_energy,
        "rejected_error": result.stats.rejected_error,
        "rejected_positivity": result.stats.rejected_positivity,
        "rhs_evaluations": result.stats.rhs_evaluations,
        "steps_at_cap": result.stats.steps_at_cap}
    back = np.array(payload["phi"])
    assert np.array_equal(back, result.state.phi)
    # kappa: the volume-weighted mean of the final right-hand side
    b, omega, _ = torus_result
    rhs = flow_rhs(b, result.state.phi, omega, result.problem.level)
    chi = build_metric(b, b.base_form(), result.state.phi)
    dens = chi.density * b.weights
    assert abs(payload["kappa"] - np.sum(rhs * dens) / np.sum(dens)) <= 1e-14
    assert abs(payload["rhs_spread"] - (rhs.max() - rhs.min())) <= 1e-14
    assert payload["rhs_spread"] == result.records[-1].rhs_max \
        - result.records[-1].rhs_min


def test_probe_report_payload(sphere128):
    pa = np.zeros(sphere128.grid_shape)
    pb = named_potential(sphere128, "translation", amplitude=1.0)
    rep = convexity_probe(sphere128, "entropy",
                          geodesic_path(sphere128, pa, pb, 9))
    payload = json.loads(probe_report_json(rep))
    assert payload["functional_id"] == "entropy"
    assert payload["nodes"] == 9
    assert payload["min_second_difference"] == rep.min_second_difference
    assert payload["t_at_min"] == rep.t_at_min


def test_svg_plot_structure():
    xs = [0.0, 1.0, 2.0, 3.0]
    svg = svg_line_plot([("energy", xs, [3.0, 2.0, 1.5, 1.4]),
                         ("residual", xs, [1.0, 0.5, 0.2, 0.1])],
                        title="decay")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "decay" in texts
    assert "energy" in texts and "residual" in texts


def test_svg_plot_skips_non_finite_points():
    svg = svg_line_plot([("one", [0.0, 1.0, 2.0],
                          [math.nan, 1.0, 2.0])], title="t")
    root = ET.fromstring(svg)
    poly = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(poly) == 1
    assert len(poly[0].attrib["points"].split()) == 2


def test_svg_plot_deterministic():
    series = [("a", [0.0, 1.0], [0.5, 0.25])]
    assert svg_line_plot(series, "x") == svg_line_plot(series, "x")
