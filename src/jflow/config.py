"""Scenario configuration: parse, validate, echo.

The format is one ``key = value`` per line with ``#`` comments.  Every
key lives in the table below, which is the single source of truth for
names, types, defaults, admissible ranges and help text; the parser
enforces the ranges and rejects every non-finite float value, and the
CLI help and the effective config echoed next to run outputs are both
generated from the table.  The echo
re-parses to the same configuration, which is what makes runs
reproducible from their own output directory.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

from .fields import ConfigError, GeometryError
from .flow import FLOW_METHODS, FlowProblem
from .geodesic import FUNCTIONAL_IDS
from .geometry import GeometryBackend, TorusBackend, make_backend
from .potentials import FAMILY_NAMES, named_potential


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_optional_float(text: str):
    if text == "auto":
        return None
    return float(text)


def _render(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_OFFSET_FAMILIES = ("zero", "sine", "cosine", "bump")
_BOUND_TESTS = {">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class ConfigKey:
    parse: Callable[[str], object]
    default: object
    help: str
    choices: tuple = ()
    bound: tuple = ()  # lower bound, e.g. (">=", 3)


CONFIG_KEYS: dict[str, ConfigKey] = {
    "geometry.kind": ConfigKey(str, "torus", "backend geometry",
                               choices=("torus", "sphere")),
    "geometry.size": ConfigKey(int, 128, "grid points"),
    "geometry.s_max": ConfigKey(float, 12.0,
                                "sphere chart truncation in the s variable",
                                bound=(">", 1)),
    "reference.scale": ConfigKey(float, 2.0,
                                 "reference form = scale * chi0 (+ offset)",
                                 bound=(">", 0)),
    "reference.offset_family": ConfigKey(
        str, "zero", "mean-zero density offset added to the reference form "
        "(torus only)", choices=_OFFSET_FAMILIES),
    "reference.offset_amplitude": ConfigKey(float, 0.0,
                                            "amplitude of the density offset"),
    "reference.offset_wavenumber": ConfigKey(int, 1,
                                             "wavenumber of the density offset"),
    "flow.c": ConfigKey(_parse_optional_float, None,
                        "level constant; auto = cohomological value"),
    "flow.t_max": ConfigKey(float, 10.0, "flow time horizon"),
    "flow.residual_target": ConfigKey(float, 1e-6,
                                      "sup-norm critical-equation residual "
                                      "declaring convergence"),
    "flow.cfl_safety": ConfigKey(float, 0.2,
                                 "fraction of the diffusion step bound "
                                 "(rosenbrock: of its first step only)",
                                 bound=(">", 0)),
    "flow.dt_min": ConfigKey(float, 1e-12,
                             "step underflow threshold (StepStalled)"),
    "flow.method": ConfigKey(str, "rk4", "time integrator",
                             choices=FLOW_METHODS),
    "flow.log_every": ConfigKey(int, 10,
                                "record every k-th accepted step",
                                bound=(">=", 1)),
    "flow.require_convergence": ConfigKey(
        _parse_bool, False, "exit 4 when the flow ends above its residual "
        "target instead of reporting the partial run"),
    "flow.initial_family": ConfigKey(str, "zero", "initial potential family",
                                     choices=FAMILY_NAMES),
    "flow.initial_amplitude": ConfigKey(float, 0.1,
                                        "initial potential amplitude"),
    "flow.initial_wavenumber": ConfigKey(int, 1,
                                         "initial potential wavenumber"),
    "functionals.enabled": ConfigKey(_parse_bool, True,
                                     "emit a functional report"),
    "functionals.family": ConfigKey(
        str, "sine", "potential evaluated by the functionals subcommand",
        choices=FAMILY_NAMES),
    "functionals.amplitude": ConfigKey(float, 0.1,
                                       "amplitude for functionals.family"),
    "functionals.wavenumber": ConfigKey(int, 1,
                                        "wavenumber for functionals.family"),
    "geodesic.enabled": ConfigKey(_parse_bool, False,
                                  "run the geodesic convexity probe"),
    "geodesic.functional": ConfigKey(str, "j_tilde", "functional to probe",
                                     choices=FUNCTIONAL_IDS),
    "geodesic.nodes": ConfigKey(int, 33, "path samples per geodesic",
                                bound=(">=", 3)),
    "geodesic.pairs": ConfigKey(int, 4, "random endpoint pairs to probe",
                                bound=(">=", 1)),
    "geodesic.amplitude": ConfigKey(float, 0.5,
                                    "amplitude of random endpoints"),
    "hypotheses.enabled": ConfigKey(_parse_bool, True,
                                    "emit a hypothesis report"),
    "hypotheses.epsilon": ConfigKey(float, 0.1,
                                    "positivity slack in the checked "
                                    "conditions", bound=(">=", 0)),
    "hypotheses.alpha_lower_bound": ConfigKey(
        float, 0.2, "lower bound fed to the invariant-based condition"),
    "output.directory": ConfigKey(str, "out", "where reports are written"),
    "seed": ConfigKey(int, 0, "random seed for generated potentials, drawn "
                      "from the standard library's Mersenne Twister, so the "
                      "draws do not depend on the numpy version",
                      bound=(">=", 0)),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Effective (fully defaulted) configuration plus line provenance."""

    values: dict
    lines: dict = field(default_factory=dict)

    def get(self, key: str):
        return self.values[key]

    def line(self, key: str) -> str | None:
        return self.lines.get(key)

    def render(self) -> str:
        out = ["# effective configuration; re-runnable as-is"]
        for key in CONFIG_KEYS:
            out.append(f"{key} = {_render(self.values[key])}")
        return "\n".join(out) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    values = {key: spec.default for key, spec in CONFIG_KEYS.items()}
    lines: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", line=raw)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}", line=raw)
        spec = CONFIG_KEYS[key]
        try:
            parsed = spec.parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}", line=raw) from exc
        if spec.choices and parsed not in spec.choices:
            raise ConfigError(
                f"{key} must be one of {', '.join(spec.choices)}", line=raw)
        check_bound(key, parsed, line=raw)
        if isinstance(parsed, float) and not math.isfinite(parsed):
            raise ConfigError(f"{key} must be a finite number", line=raw)
        values[key] = parsed
        lines[key] = raw
    return ScenarioConfig(values=values, lines=lines)


def check_bound(key: str, value, line: str) -> None:
    """Reject a value outside the key's table bound, naming its line."""
    bound = CONFIG_KEYS[key].bound
    # nan compares false, so it fails every bound
    if bound and not _BOUND_TESTS[bound[0]](value, bound[1]):
        raise ConfigError(f"{key} must be {bound[0]} {bound[1]}", line=line)


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def reference_page() -> str:
    """Generated key reference: names, defaults, help, ranges."""
    out = ["# Configuration reference", "",
           "One `key = value` per line; `#` starts a comment. "
           "Unknown keys are rejected.", ""]
    width = max(len(k) for k in CONFIG_KEYS)
    for key, spec in CONFIG_KEYS.items():
        entry = f"{key:<{width}}  default {_render(spec.default)!s:<8}  {spec.help}"
        if spec.choices:
            entry += f" (one of: {', '.join(spec.choices)})"
        if spec.bound:
            entry += f" (must be {spec.bound[0]} {spec.bound[1]})"
        out.append(entry)
    return "\n".join(out) + "\n"


def build_backend(cfg: ScenarioConfig) -> GeometryBackend:
    """The configured backend; a grid it calls too coarse is a config error."""
    kind = cfg.get("geometry.kind")
    params = {"s_max": cfg.get("geometry.s_max")} if kind == "sphere" else {}
    try:
        return make_backend(kind, size=cfg.get("geometry.size"), **params)
    except GeometryError as exc:
        raise ConfigError(str(exc), line=cfg.line("geometry.size")) from exc


def build_reference(cfg: ScenarioConfig, backend: GeometryBackend):
    """The reference form omega = scale chi0 + amplitude (s - mean s), s the
    offset family.  On the periodic line every mean-zero density is a
    discrete Hessian, so the offset keeps omega in the class of scale chi0."""
    scale = cfg.get("reference.scale")
    base = backend.base_form()
    family = cfg.get("reference.offset_family")
    amplitude = cfg.get("reference.offset_amplitude")
    if family == "zero" or amplitude == 0.0:
        return backend.form(scale * base.matrices)
    if not isinstance(backend, TorusBackend):
        raise ConfigError(
            "reference.offset_family needs the torus backend; the sphere "
            "takes plain chi0 multiples",
            line=cfg.line("reference.offset_family"))
    offset = named_potential(backend, family, 1.0,
                             cfg.get("reference.offset_wavenumber"))
    offset = amplitude * (offset - offset.mean())
    form = backend.form(scale * base.matrices + offset[:, None, None])
    if not form.kahler:
        raise ConfigError(
            "reference offset makes the form lose positivity",
            line=cfg.line("reference.offset_amplitude"))
    return form


def build_problem(cfg: ScenarioConfig, backend: GeometryBackend,
                  omega) -> FlowProblem:
    return FlowProblem(
        backend=backend, omega=omega, c=cfg.get("flow.c"),
        t_max=cfg.get("flow.t_max"),
        residual_target=cfg.get("flow.residual_target"),
        cfl_safety=cfg.get("flow.cfl_safety"),
        dt_min=cfg.get("flow.dt_min"), method=cfg.get("flow.method"),
        log_every=cfg.get("flow.log_every"))


def initial_potential(cfg: ScenarioConfig, backend: GeometryBackend):
    try:
        return named_potential(
            backend, cfg.get("flow.initial_family"),
            cfg.get("flow.initial_amplitude"),
            cfg.get("flow.initial_wavenumber"), seed=cfg.get("seed"))
    except GeometryError as exc:
        raise ConfigError(str(exc), line=cfg.line("flow.initial_family")) from exc
