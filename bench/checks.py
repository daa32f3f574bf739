"""Output checks for the benchmark workloads, computed apart from jflow.

Nothing here imports jflow.  The grid formulas of both reduced
geometries are written out again from their documented construction, so
a check compares the program's artifacts against an independent
computation or against a property the method must have, never against a
second call into the program.  Every check returns a list of failure
messages; an empty list means the artifact passed.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

# Geodesic convexity: the probed functional's second difference along a
# geodesic may dip below zero only by round-off.
CONVEXITY_FLOOR = -1e-6
# Uniform-t probe nodes: spacing agrees with 1/(nodes - 1) to this much.
T_TOL = 1e-12
# Cone margins are closed-form grid arithmetic; both sides are exact up to
# a few roundings.
MARGIN_TOL = 1e-12
# Newton collocation stops at this defect, relative to the omega density.
COLLOCATION_TOL = 1e-13
# The flow accepts a step while E rises by at most
# E_TOL_REL * |E| + E_TOL_ABS, a round-off allowance (the defaults of
# jflow.flow.FlowProblem, which no config key sets).  Logged rows are at
# most flow.log_every accepted steps apart.
E_TOL_REL = 1e-9
E_TOL_ABS = 1e-12
LOG_EVERY_DEFAULT = 10


def read_config(path: str) -> dict:
    """key = value lines with # comments, values kept as strings."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    return values


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# --- independent grid formulas ------------------------------------------

def torus_density(phi: np.ndarray) -> np.ndarray:
    """h = 1 + D^2 phi / (4 delta^2) on the periodic unit line."""
    delta = 1.0 / phi.size
    lap = np.roll(phi, -1) - 2.0 * phi + np.roll(phi, 1)
    return 1.0 + lap / (4.0 * delta * delta)


def torus_sine_omega(size: int, scale: float, amplitude: float,
                     wavenumber: int) -> np.ndarray:
    """scale + amplitude (sin 2 pi k x - mean) at x = j / size."""
    wave = np.sin(2.0 * np.pi * wavenumber * np.arange(size) / size)
    return scale + amplitude * (wave - wave.mean())


class SphereGrid:
    """Moment grid of the circle-invariant sphere, uniform in m."""

    def __init__(self, size: int, s_max: float):
        self.size = size
        self.m_lo = max(0.5 / size, 1.0 / (1.0 + np.exp(s_max)))
        self.delta = (1.0 - 2.0 * self.m_lo) / (size - 1)
        self.m = self.m_lo + self.delta * np.arange(size)
        self.rho0 = self.m * (1.0 - self.m)
        half = self.m[:-1] + 0.5 * self.delta
        self.rho0_half = half * (1.0 - half)
        self.weights = np.pi * self.delta / self.rho0
        self.theta0 = self.m - self.m.mean()

    def hessian(self, phi: np.ndarray) -> np.ndarray:
        """Conservative flux form rho0 d/dm (rho0 dphi/dm), zero end flux."""
        flux = self.rho0_half * np.diff(phi) / self.delta
        div = np.concatenate([[flux[0]], np.diff(flux), [-flux[-1]]])
        return self.rho0 * div / self.delta

    def action(self, phi: np.ndarray) -> np.ndarray:
        """X phi = rho0 dphi/dm, central inside, one-sided at the ends."""
        d = np.empty_like(phi)
        d[1:-1] = phi[2:] - phi[:-2]
        d[0] = -3.0 * phi[0] + 4.0 * phi[1] - phi[2]
        d[-1] = 3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]
        return self.rho0 * d / (2.0 * self.delta)


def _dense(apply_fn, size: int) -> np.ndarray:
    return np.column_stack([apply_fn(e) for e in np.eye(size)])


def sphere_collocation(grid: SphereGrid, rho_omega: np.ndarray,
                       c: float, max_iter: int = 40):
    """Newton solve of the discrete critical system with a level shift.

    Unknowns (phi, kappa):
        (c + kappa + theta0 + X phi)(rho0 + M phi) = rho_omega,
        sum(weights * phi) = 0.
    Returns (limit density rho0 + M phi, kappa, final defect).
    """
    size = grid.size
    hess = _dense(grid.hessian, size)
    action = _dense(grid.action, size)
    scale = max(1.0, float(np.abs(rho_omega).max()))
    phi = np.zeros(size)
    kappa = 0.0
    defect_norm = np.inf
    for _ in range(max_iter):
        rho = grid.rho0 + hess @ phi
        level = c + kappa + grid.theta0 + action @ phi
        defect = level * rho - rho_omega
        gauge = float(grid.weights @ phi)
        defect_norm = max(float(np.abs(defect).max()), abs(gauge))
        if defect_norm < COLLOCATION_TOL * scale:
            break
        jac = np.zeros((size + 1, size + 1))
        jac[:size, :size] = rho[:, None] * action + level[:, None] * hess
        jac[:size, size] = rho
        jac[size, :size] = grid.weights
        update = np.linalg.solve(jac, np.concatenate([-defect, [-gauge]]))
        phi += update[:size]
        kappa += float(update[size])
    return grid.rho0 + hess @ phi, kappa, defect_norm


# --- artifact checks ----------------------------------------------------

def check_final_state(outdir: str, size: int) -> list[str]:
    state = _load_json(os.path.join(outdir, "final_state.json"))
    errors = []
    if state.get("converged") is not True:
        errors.append(f"final_state: converged is {state.get('converged')!r}")
    if state.get("suspect_steps") != 0:
        errors.append(f"final_state: {state.get('suspect_steps')} suspect steps")
    if len(state.get("phi", [])) != size:
        errors.append(f"final_state: phi has {len(state.get('phi', []))} "
                      f"entries, expected {size}")
    return errors


def energy_rise_allowed(energy: np.ndarray, cfg: dict) -> np.ndarray:
    """Largest round-off rise of E from each logged row to the next."""
    steps = int(cfg.get("flow.log_every", LOG_EVERY_DEFAULT))
    return steps * (E_TOL_REL * np.abs(energy) + E_TOL_ABS)


def check_trajectory(outdir: str, cfg: dict) -> list[str]:
    """E does not increase between logged rows beyond round-off; no row
    is flagged suspect."""
    rows = _read_csv(os.path.join(outdir, "trajectory.csv"))
    if len(rows) < 2:
        return [f"trajectory: only {len(rows)} rows"]
    energy = np.array([float(r["E"]) for r in rows])
    errors = []
    rises = np.flatnonzero(np.diff(energy)
                           > energy_rise_allowed(energy[:-1], cfg))
    if rises.size:
        k = int(rises[0])
        errors.append(f"trajectory: E rises at row {k + 1} "
                      f"({float(energy[k])!r} -> {float(energy[k + 1])!r}), "
                      f"{rises.size} rises in all")
    suspect = sum(r["suspect"] != "0" for r in rows)
    if suspect:
        errors.append(f"trajectory: {suspect} suspect rows")
    return errors


def check_torus_limit(outdir: str, cfg: dict) -> list[str]:
    """Rebuild h from phi and compare 2h with the closed-form omega."""
    size = int(cfg["geometry.size"])
    errors = check_final_state(outdir, size) + check_trajectory(outdir, cfg)
    if errors:
        return errors
    phi = np.array(_load_json(os.path.join(outdir, "final_state.json"))["phi"])
    h = torus_density(phi)
    omega = torus_sine_omega(size, float(cfg["reference.scale"]),
                             float(cfg["reference.offset_amplitude"]),
                             int(cfg["reference.offset_wavenumber"]))
    # c = mean(omega) / mean(1) = scale; at the limit omega / h = c.
    c = float(cfg["reference.scale"])
    target = float(cfg["flow.residual_target"])
    residual = float(np.abs(omega / h - c).max())
    gap = float(np.abs(c * h - omega).max())
    if not residual < target:
        errors.append(f"torus: rebuilt residual max|omega/h - c| = "
                      f"{residual:.3e} not below target {target:.1e}")
    if not gap <= target * float(h.max()):
        errors.append(f"torus: max|c h - omega| = {gap:.3e} above "
                      f"target * max h = {target * float(h.max()):.3e}")
    return errors


def check_sphere_limit(outdir: str, cfg: dict) -> list[str]:
    """Limit density against an independent collocation solve.

    A sup residual r of the trace equation moves the density by about r
    relative to itself, so the tolerance is r_target * max density.
    """
    size = int(cfg["geometry.size"])
    errors = check_final_state(outdir, size) + check_trajectory(outdir, cfg)
    if errors:
        return errors
    grid = SphereGrid(size, float(cfg.get("geometry.s_max", "12.0")))
    scale = float(cfg.get("reference.scale", "2.0"))
    rho_omega = scale * grid.rho0
    # c is the class ratio of omega against rho0, i.e. the scale itself.
    rho_col, _, defect = sphere_collocation(grid, rho_omega, scale)
    if not defect < COLLOCATION_TOL * max(1.0, float(rho_omega.max())):
        return [f"sphere: collocation stalled at defect {defect:.3e}"]
    phi = np.array(_load_json(os.path.join(outdir, "final_state.json"))["phi"])
    gap = float(np.abs(grid.rho0 + grid.hessian(phi) - rho_col).max())
    tol = float(cfg["flow.residual_target"]) * float(rho_col.max())
    if not gap < tol:
        errors.append(f"sphere: limit density off collocation by "
                      f"{gap:.3e} (tolerance {tol:.1e})")
    return errors


def expected_margins(cfg: dict) -> dict:
    """Hand arithmetic for the sphere's properness margins (n = 1, r = 2)."""
    grid = SphereGrid(int(cfg["geometry.size"]),
                      float(cfg.get("geometry.s_max", "12.0")))
    eps = float(cfg.get("hypotheses.epsilon", "0.1"))
    alpha = float(cfg.get("hypotheses.alpha_lower_bound", "0.2"))
    min_theta = grid.m_lo - 0.5
    return {
        "alpha_bound": 2.0 * alpha - eps,
        "level_claim": eps - 2.0 + min_theta,
        "class_positivity": (eps + min_theta - 2.0) * float(grid.rho0.max()),
    }


def check_margins(outdir: str, cfg: dict) -> list[str]:
    report = _load_json(os.path.join(outdir, "hypothesis_report.json"))
    margins = report.get("condition_margins", {})
    errors = []
    for name, want in expected_margins(cfg).items():
        got = margins.get(name)
        if got is None or not abs(got - want) <= MARGIN_TOL * max(1.0, abs(want)):
            errors.append(f"margins: {name} = {got!r}, hand arithmetic "
                          f"gives {want!r}")
    return errors


def check_probes(outdir: str, cfg: dict) -> list[str]:
    """Each pair: `nodes` rows at uniform t, convex up to round-off."""
    pairs = int(cfg["geodesic.pairs"])
    nodes = int(cfg["geodesic.nodes"])
    errors = []
    summary = _load_json(os.path.join(outdir, "probe_summary.json"))
    if len(summary) != pairs:
        errors.append(f"probes: summary lists {len(summary)} pairs, "
                      f"expected {pairs}")
    for k in range(pairs):
        rows = _read_csv(os.path.join(outdir, f"probe_{k}.csv"))
        if len(rows) != nodes:
            errors.append(f"probe_{k}: {len(rows)} rows, expected {nodes}")
            continue
        ts = np.array([float(r["t"]) for r in rows])
        if not np.allclose(ts, np.linspace(0.0, 1.0, nodes),
                           rtol=0.0, atol=T_TOL):
            errors.append(f"probe_{k}: t is not uniform on [0, 1]")
        values = np.array([float(r["value"]) for r in rows])
        second = np.diff(values, 2)
        worst = float(second.min())
        if not worst >= CONVEXITY_FLOOR:
            errors.append(f"probe_{k}: second difference {worst:.3e} below "
                          f"{CONVEXITY_FLOOR:.0e}")
        if k < len(summary):
            # the summary must report the minimum the values imply
            reported = summary[k].get("min_second_difference")
            if reported is None or not abs(reported - worst) <= 1e-9 * max(1.0, abs(worst)):
                errors.append(f"probe_{k}: summary minimum {reported!r} does "
                              f"not match the values ({worst!r})")
    return errors
