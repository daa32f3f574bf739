from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jflow import ConfigError, GeometryError, parse_config, reference_page
from jflow.config import (CONFIG_KEYS, ScenarioConfig, _parse_bool,
                          _parse_optional_float, build_backend, build_problem,
                          build_reference, initial_potential, load_config)
from jflow.geometry import SphereBackend, TorusBackend


def test_empty_text_yields_defaults():
    cfg = parse_config("")
    for key, spec in CONFIG_KEYS.items():
        assert cfg.get(key) == spec.default
    assert cfg.line("geometry.kind") is None


def test_round_trip_through_render():
    cfg = parse_config("geometry.kind = sphere\nflow.t_max = 2.5\nseed = 9\n")
    again = parse_config(cfg.render())
    assert again.values == cfg.values


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# a value that survives one config line: no comment mark, no line break,
# no surrounding blanks
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                              blacklist_characters="#"),
                max_size=24).filter(lambda text: text == text.strip())
_BY_PARSER = {int: st.integers(), float: _FLOATS, str: _TEXT,
              _parse_bool: st.booleans(),
              _parse_optional_float: st.none() | _FLOATS}


def _admissible(spec):
    """Values of a bounded int or float key that satisfy its bound."""
    op, limit = spec.bound
    if spec.parse is int:
        return st.integers(min_value=limit + (op == ">"))
    return st.floats(min_value=limit, exclude_min=op == ">", allow_nan=False,
                     allow_infinity=False)


def _key_values(spec):
    if spec.choices:
        return st.sampled_from(spec.choices)
    if spec.bound:
        return _admissible(spec)
    return _BY_PARSER[spec.parse]


@settings(max_examples=100, deadline=None, database=None)
@given(st.fixed_dictionaries(
    {key: _key_values(spec) for key, spec in CONFIG_KEYS.items()}))
def test_render_parse_round_trip_every_key(values):
    again = parse_config(ScenarioConfig(values=values).render()).values
    assert again == values
    assert all(type(again[key]) is type(values[key]) for key in values)


# --- table bounds -------------------------------------------------------------

_BOUNDED = [key for key, spec in CONFIG_KEYS.items() if spec.bound]
_ADMITS = {">=": lambda value, limit: value >= limit,
           ">": lambda value, limit: value > limit}


def _first_outside(spec):
    """The limit itself for a strict bound, else the next value below it."""
    op, limit = spec.bound
    if op == ">":
        return spec.parse(limit)
    if spec.parse is int:
        return limit - 1
    return float(np.nextafter(float(limit), -np.inf))


def test_bounded_keys_are_the_range_rules():
    assert {key: CONFIG_KEYS[key].bound for key in _BOUNDED} == {
        "geometry.s_max": (">", 1),
        "reference.scale": (">", 0), "flow.cfl_safety": (">", 0),
        "flow.log_every": (">=", 1), "geodesic.nodes": (">=", 3),
        "geodesic.pairs": (">=", 1), "hypotheses.epsilon": (">=", 0),
        "seed": (">=", 0)}


@pytest.mark.parametrize("key", _BOUNDED)
def test_default_satisfies_bound(key):
    spec = CONFIG_KEYS[key]
    assert _ADMITS[spec.bound[0]](spec.default, spec.bound[1])


@pytest.mark.parametrize("key", _BOUNDED)
def test_first_value_outside_bound_is_rejected_on_its_line(key):
    spec = CONFIG_KEYS[key]
    outside = [_first_outside(spec)] + [np.nan] * (spec.parse is float)
    for value in outside:
        raw = f"{key} = {value!r}"
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.line == raw
        assert spec.bound[0] in str(err.value)


FLOAT_KEYS = [key for key, spec in CONFIG_KEYS.items()
              if spec.parse in (float, _parse_optional_float)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_rejected_on_its_line(key, value):
    raw = f"{key} = {value}"
    with pytest.raises(ConfigError) as err:
        parse_config(f"seed = 3\n{raw}")
    assert err.value.line == raw
    assert key in str(err.value)


@pytest.mark.parametrize("key", _BOUNDED)
def test_bound_line_shows_in_reference_page(key):
    op, limit = CONFIG_KEYS[key].bound
    line = next(entry for entry in reference_page().splitlines()
                if entry.startswith(key + " "))
    assert line.endswith(f"(must be {op} {limit})")


@settings(max_examples=25, deadline=None, database=None)
@given(st.data())
@pytest.mark.parametrize("key", _BOUNDED)
def test_admissible_values_round_trip(key, data):
    value = data.draw(_admissible(CONFIG_KEYS[key]))
    values = dict(parse_config("").values, **{key: value})
    assert parse_config(ScenarioConfig(values=values).render()).values == values


def test_comments_and_blanks_ignored():
    text = """
    # a scenario
    geometry.kind = sphere   # inline remark
    geometry.size = 96

    flow.require_convergence = true
    """
    cfg = parse_config(text)
    assert cfg.get("geometry.kind") == "sphere"
    assert cfg.get("geometry.size") == 96
    assert cfg.get("flow.require_convergence") is True
    assert "geometry.size = 96" in cfg.line("geometry.size")


def test_unknown_key_carries_offending_line():
    # functionals.path_steps and geometry.dim are keys that configs written
    # before the path quadrature became exact, or while the torus took any
    # dimension, still carry
    for line in ("geometry.sise = 12", "functionals.path_steps = 32",
                 "geometry.dim = 1"):
        with pytest.raises(ConfigError) as err:
            parse_config(f"seed = 3\n{line}")
        assert "unknown configuration key" in str(err.value)
        assert err.value.line == line


def test_bad_value_carries_offending_line():
    with pytest.raises(ConfigError) as err:
        parse_config("geometry.size = many")
    assert "geometry.size" in str(err.value)
    assert err.value.line == "geometry.size = many"


def test_bad_choice_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("geometry.kind = plane")
    assert "one of" in str(err.value)


def test_bad_boolean_rejected():
    with pytest.raises(ConfigError):
        parse_config("functionals.enabled = maybe")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("geometry.size 128")
    assert err.value.line == "geometry.size 128"


def test_optional_level_parses_auto():
    assert parse_config("flow.c = auto").get("flow.c") is None
    assert parse_config("flow.c = 2.0").get("flow.c") == 2.0


def test_reference_page_covers_every_key():
    page = reference_page()
    for key, spec in CONFIG_KEYS.items():
        assert key in page
        assert spec.help.split()[0] in page
    assert "torus, sphere" in page
    assert "rk4, rosenbrock" in page


def test_reference_doc_matches_generated_page():
    # docs/config-reference.md is reference_page()'s output; regenerate it
    # whenever a key, default or help text changes
    doc = Path(__file__).resolve().parents[1] / "docs" / "config-reference.md"
    assert doc.read_text(encoding="utf-8") == reference_page()


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("geometry.size = 48\n")
    assert load_config(str(path)).get("geometry.size") == 48


# --- builders ----------------------------------------------------------------

def test_build_backend_kinds():
    sphere = build_backend(parse_config(
        "geometry.kind = sphere\ngeometry.size = 64\ngeometry.s_max = 8.0"))
    assert isinstance(sphere, SphereBackend)
    assert sphere.grid_shape == (64,)
    torus = build_backend(parse_config("geometry.size = 16"))
    assert isinstance(torus, TorusBackend)
    assert torus.grid_shape == (16,)


def test_build_backend_validation():
    with pytest.raises(ConfigError):
        build_backend(parse_config("geometry.size = 2"))
    with pytest.raises(ConfigError):
        build_backend(parse_config("geometry.kind = sphere\ngeometry.size = 8"))


def test_build_reference_scaled_with_exact_offset():
    cfg = parse_config(
        "reference.scale = 2.0\n"
        "reference.offset_family = sine\n"
        "reference.offset_amplitude = 0.6\n")
    backend = build_backend(cfg)
    omega = build_reference(cfg, backend)
    # a mean-zero density offset, taken as it is: on the periodic line it
    # is already a discrete Hessian
    s = np.sin(2 * np.pi * backend.x)
    assert np.array_equal(omega.matrices[..., 0, 0], 2.0 + 0.6 * (s - s.mean()))
    from jflow import level_constant
    assert abs(level_constant(backend, omega) - 2.0) < 1e-13


def test_build_reference_rejects_bad_scale():
    with pytest.raises(ConfigError) as err:
        cfg = parse_config("reference.scale = -1.0")
        build_reference(cfg, build_backend(cfg))
    assert err.value.line == "reference.scale = -1.0"


def test_build_reference_offset_needs_torus_line():
    cfg = parse_config(
        "geometry.kind = sphere\n"
        "reference.offset_family = sine\n"
        "reference.offset_amplitude = 0.3\n")
    backend = build_backend(cfg)
    with pytest.raises(ConfigError) as err:
        build_reference(cfg, backend)
    assert "offset_family" in (err.value.line or "")


def test_build_reference_offset_keeps_positivity():
    cfg = parse_config(
        "reference.scale = 1.0\n"
        "reference.offset_family = sine\n"
        "reference.offset_amplitude = 1.5\n")
    backend = build_backend(cfg)
    with pytest.raises(ConfigError):
        build_reference(cfg, backend)


def test_build_problem_rejects_log_every_below_one():
    with pytest.raises(ConfigError) as err:
        cfg = parse_config("flow.log_every = 0")
        backend = build_backend(cfg)
        omega = build_reference(cfg, backend)
        build_problem(cfg, backend, omega)
    assert err.value.line == "flow.log_every = 0"


def test_build_problem_carries_settings():
    cfg = parse_config("flow.t_max = 3.0\nflow.residual_target = 1e-4\n"
                       "flow.cfl_safety = 0.33\nflow.log_every = 5")
    backend = build_backend(cfg)
    problem = build_problem(cfg, backend, build_reference(cfg, backend))
    assert problem.t_max == 3.0
    assert problem.residual_target == 1e-4
    assert problem.cfl_safety == 0.33
    assert problem.log_every == 5


def test_initial_potential_family_errors_map_to_config():
    cfg = parse_config("flow.initial_family = translation")
    backend = build_backend(cfg)  # torus: no translation family
    with pytest.raises(ConfigError):
        initial_potential(cfg, backend)


def test_initial_potential_seeded_random_is_stable():
    cfg = parse_config("flow.initial_family = random\nseed = 4")
    backend = build_backend(cfg)
    a = initial_potential(cfg, backend)
    b = initial_potential(cfg, backend)
    assert np.array_equal(a, b)
