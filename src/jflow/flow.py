"""Time integration of the trace flow with a-priori monitors.

The flow is phi_t = c + theta(chi_phi) - omega / chi_phi, on the
one-dimensional geometries where a form is its density and the trace of
omega against chi_phi is their ratio.
`run_flow` is the one driver: it starts from a potential, steps, records
the trajectory and returns a `FlowResult`.  Estimates that hold for the
continuous flow are checked at every accepted step: the initial range of
the right-hand side must sandwich all later values, and the trace of
omega stays below its initial maximum plus the oscillation of theta.
Violations beyond tolerance mark a step `suspect` but never abort the
run; discretization can transiently violate continuous-time bounds near
the stability limit.  The energy E = int sigma^2 dV is nonincreasing by
construction, since a step that raises it is rejected.

Explicit RK4 stepping (the default) caps the step by
cfl_safety * spacing^2 / (chart stiffness bound).  The linearly implicit
method `rosenbrock` (RODAS3 of Sandu et al., Atmos. Environ. 31, 1997:
order three, L-stable, with the exact Jacobian) has no such cap: its
embedded second-order solution gives a local error estimate, and a
standard controller sets the step from it.
J is tridiagonal, periodic on the torus line, since both backends are
the same flux line (`GeometryBackend`), so each step forms the bands of
I - (dt/2) J from the backend's constant stencil bands and factorises
them once, in O(N), for all four stages; a step whose banded matrix is
not strictly row diagonally dominant is rejected and halved.  With every
method a step is rejected, and the step size halved, when positivity
fails anywhere or E increases beyond round-off tolerance.

One kernel serves every geometry, and a stage is its unit of work.
`GeometryBackend.stage` takes the potential's half-cell fluxes once and
gives the checked raw metric density and theta from them; the kernel
adds the trace lam = omega / chi, sigma = theta - lam and the
right-hand side c + sigma, so the stage carries its one rhs.  The
stepping methods, the stiffness cap, the Jacobian's bands, the energy
and the trajectory row read the stage with the backend's raw
operations, and so does `flow_rhs`.  These raw operations are the
geometry's only bodies: the functionals and geodesics call them too,
and the public `theta_of`, `trace_with` and `integrate` wrap them.  An
accepted state's row (`MonitorRecord`) is its diagnostics: the monitors
read it, and so do the final residual and rhs spread.  The stage of an
accepted state, built for its energy and row, serves the next step's
stiffness cap and first stage, and a rejected attempt reuses it as
well, so an accepted RK4 step builds four stages, a RODAS3 step three
and a RODAS3 attempt rejected for its error estimate two.
`FlowResult.stats` counts the builds, the right-hand sides (one per
built stage), the rejections by cause and the steps whose size the
stiffness cap set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fields import (
    ConfigError,
    HermitianFormField,
    NotKahlerError,
    ScalarField,
    StepStalled,
)
from .cone import subsolution_margin
from .functionals import level_constant
from .geometry import GeometryBackend

FLOW_METHODS = ("rk4", "rosenbrock")

# RODAS3's diagonal coefficient: every stage solves with I - gamma dt J.
ROSENBROCK_GAMMA = 0.5
# Bound on the sup norm of RODAS3's local error estimate, in units of phi.
ROSENBROCK_TOL = 1e-5
# An accepted step may raise the energy E by at most
# ENERGY_TOL_REL * |E| + ENERGY_TOL_ABS.
ENERGY_TOL_REL = 1e-9
ENERGY_TOL_ABS = 1e-12
# RK4 grows the step by GROWTH_FACTOR after GROWTH_EVERY accepted steps
# in a row.
GROWTH_EVERY = 10
GROWTH_FACTOR = 1.2


@dataclass(frozen=True)
class FlowProblem:
    """A configured flow: geometry, target form, and stepping policy."""

    backend: GeometryBackend
    omega: HermitianFormField
    c: float | None = None
    t_max: float = 10.0
    residual_target: float = 1e-6
    cfl_safety: float = 0.2
    dt_min: float = 1e-12
    dt_init: float | None = None
    method: str = "rk4"
    log_every: int = 1
    max_steps: int | None = None
    snapshot_count: int = 33

    def __post_init__(self):
        if self.method not in FLOW_METHODS:
            raise ConfigError(f"unknown flow method {self.method!r}")
        if self.log_every < 1:
            raise ConfigError("log_every must be at least 1")
        if not self.cfl_safety > 0:
            raise ConfigError("cfl_safety must be positive")
        self.omega.require_kahler("flow target form")
        if self.omega.grid_shape != self.backend.grid_shape:
            raise ConfigError("omega does not live on the backend grid")

    @property
    def level(self) -> float:
        if self.c is not None:
            return float(self.c)
        return level_constant(self.backend, self.omega)


class FlowState(NamedTuple):
    phi: np.ndarray
    t: float
    dt: float
    step_count: int
    accepted_streak: int


class MonitorRecord(NamedTuple):
    """One trajectory row; field order matches the CSV column order."""

    t: float
    dt: float
    E: float
    dE_dt_measured: float
    dE_dt_predicted: float
    rhs_min: float
    rhs_max: float
    lambda_max: float
    floor_constant: float
    residual: float
    suspect: bool


@dataclass
class FlowStats:
    """Deterministic counters of one run of the flow.

    metric_builds counts the positivity-checked stages the kernel built,
    rhs_evaluations the right-hand sides they carry (the initial range
    included): a stage takes its rhs once, so the two are equal unless a
    build failed its positivity check.  rejected_error counts the
    attempts whose local error estimate exceeded ROSENBROCK_TOL,
    rejected_dominance the rosenbrock attempts whose I - gamma dt J was
    not strictly row diagonally dominant, and steps_at_cap the accepted
    steps whose size the stiffness cap set rather than the step-size
    history or t_max (never, for rosenbrock).
    """

    rhs_evaluations: int = 0
    metric_builds: int = 0
    rejected_positivity: int = 0
    rejected_energy: int = 0
    rejected_error: int = 0
    rejected_dominance: int = 0
    steps_at_cap: int = 0


class FlowResult(NamedTuple):
    """A finished run.

    kappa is the volume-weighted mean of the final right-hand side: the
    rate at which a limit potential would drift while its metric stays
    put.  theta integrates to zero against every metric's volume, so at
    a limit kappa is round-off on both geometries, and it checks that
    conservation.  residual and rhs_spread, rhs_max - rhs_min, are read
    from the final state's row, which is always the last one recorded.
    """

    problem: FlowProblem
    state: FlowState
    records: list[MonitorRecord]
    converged: bool
    reason: str
    subsolution_margin: float
    sigma_mean: float
    minus_nc: float
    kappa: float
    stats: FlowStats
    snapshots: list[tuple[float, np.ndarray]]

    @property
    def residual(self) -> float:
        return self.records[-1].residual

    @property
    def rhs_spread(self) -> float:
        return self.records[-1].rhs_max - self.records[-1].rhs_min

    @property
    def suspect_steps(self) -> int:
        return sum(1 for r in self.records if r.suspect)


class _Stage(NamedTuple):
    """One potential's flow stage: its checked raw metric, theta, the
    trace lam = omega / chi, sigma = theta - lam and rhs = c + sigma."""

    chi: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    sigma: np.ndarray
    rhs: np.ndarray


class _NotDominant(Exception):
    """I - gamma dt J is not strictly row diagonally dominant, so the
    unpivoted banded solve cannot be trusted at this step size."""


class _ImplicitSolver:
    """I - gamma dt J, given as bands (lower, diagonal, upper),
    factorised once in O(N) for all four RODAS3 stages.

    On the sphere the matrix is tridiagonal, for Thomas's algorithm.  On
    the torus line lower[0] and upper[-1] are the periodic corners;
    Sherman-Morrison folds them into a rank-one correction of Thomas.
    Thomas does not pivot, so the matrix must be strictly row diagonally
    dominant, corners included; that is checked before any division by a
    pivot.  It holds for every dt small enough, as the matrix tends to I.
    """

    def __init__(self, bands: np.ndarray, periodic: bool):
        lower, diagonal, upper = bands
        self.periodic = periodic
        if not np.all(np.abs(diagonal) > np.abs(lower) + np.abs(upper)):
            raise _NotDominant
        lower, diagonal, upper = lower.tolist(), diagonal.tolist(), upper.tolist()
        if periodic:
            # A = T + u v^T with u = (g, 0, ..., 0, upper[-1]) and
            # v = (1, 0, ..., 0, lower[0] / g), g = -diagonal[0]
            g = -diagonal[0]
            self.corner = lower[0] / g
            diagonal[0] -= g
            diagonal[-1] -= upper[-1] * self.corner
        self.upper = upper
        self.ratios = ratios = [0.0] * len(diagonal)
        self.pivots = pivots = diagonal
        for i in range(1, len(diagonal)):
            ratios[i] = lower[i] / pivots[i - 1]
            pivots[i] -= ratios[i] * upper[i - 1]
        if periodic:
            u = [0.0] * len(diagonal)
            u[0], u[-1] = g, upper[-1]
            self.z = np.array(self._thomas(u))
            self.denominator = 1.0 + self.z[0] + self.corner * self.z[-1]

    def _thomas(self, x: list) -> list:
        """T^{-1} x, overwriting x."""
        ratios, pivots, upper = self.ratios, self.pivots, self.upper
        for i in range(1, len(x)):
            x[i] -= ratios[i] * x[i - 1]
        x[-1] /= pivots[-1]
        for i in range(len(x) - 2, -1, -1):
            x[i] = (x[i] - upper[i] * x[i + 1]) / pivots[i]
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = rhs.tolist()
        y = np.array(self._thomas(x))
        if self.periodic:
            return y - ((y[0] + self.corner * y[-1]) / self.denominator) * self.z
        return y


class _Kernel:
    """The flow's stages, and the Jacobian, energy and trajectory row at
    each of them."""

    def __init__(self, backend: GeometryBackend, omega: HermitianFormField,
                 c: float):
        self.backend = backend
        self.om = backend.raw_form(omega)
        self.c = c
        self.stats = FlowStats()

    def _stage(self, phi: np.ndarray) -> _Stage:
        self.stats.metric_builds += 1
        chi, theta = self.backend.stage(phi, "flow stage")
        lam = self.backend.trace(chi, self.om)
        sigma = theta - lam
        self.stats.rhs_evaluations += 1
        return _Stage(chi, theta, lam, sigma, self.c + sigma)

    @cached_property
    def _bands(self) -> tuple[np.ndarray, np.ndarray]:
        return self.backend.jacobian_bands()

    def jacobian_bands(self, stage) -> np.ndarray:
        """d rhs/d phi, d theta/d phi + diag(omega/rho^2) d rho/d phi,
        as the backend's rows (lower, diagonal, upper)."""
        d_rho, d_theta = self._bands
        return d_rho * (self.om / stage.chi**2) + d_theta

    def implicit_bands(self, stage, gamma_dt: float) -> np.ndarray:
        """The bands of I - gamma_dt J, rounded as np.eye(n) - gamma_dt * J
        rounds them."""
        bands = self.jacobian_bands(stage)
        bands *= -gamma_dt
        bands[1] += 1.0
        return bands

    def energy(self, stage) -> float:
        """E = int sigma^2 dV at the stage."""
        return self.backend.integral(stage.sigma * stage.sigma, stage.chi)

    def record(self, state: FlowState, stage, E: float, measured: float,
               limits=(-np.inf, np.inf, np.inf)) -> MonitorRecord:
        """The trajectory row of `state`, whose stage is `stage` and energy
        E, and whose measured energy slope is `measured`.  limits =
        (rhs floor, rhs ceiling, trace bound): a row whose rhs range or
        trace maximum leaves them is suspect."""
        chi, theta, lam, sigma, rhs = stage
        rhs_min, rhs_max = float(rhs.min()), float(rhs.max())
        lambda_max = float(lam.max())
        rhs_floor, rhs_ceiling, lambda_bound = limits
        return MonitorRecord(
            t=state.t, dt=state.dt, E=E, dE_dt_measured=measured,
            dE_dt_predicted=-2.0 * self.backend.dissipation(sigma, chi,
                                                            self.om),
            rhs_min=rhs_min, rhs_max=rhs_max, lambda_max=lambda_max,
            floor_constant=float((chi / self.om).min()),
            residual=max(rhs_max, -rhs_min),
            suspect=(rhs_min < rhs_floor or rhs_max > rhs_ceiling
                     or lambda_max > lambda_bound))


def flow_rhs(backend: GeometryBackend, phi, omega, c: float) -> ScalarField:
    """c + theta(chi_phi) - omega / chi_phi."""
    values = backend.check_field(phi, "potential")
    return _Kernel(backend, omega, c)._stage(values).rhs


def _advance(kernel, phi: np.ndarray, stage, dt: float) -> np.ndarray:
    """One RK4 step from phi, whose kernel stage is `stage`."""
    k1 = stage.rhs
    k2 = kernel._stage(phi + 0.5 * dt * k1).rhs
    k3 = kernel._stage(phi + 0.5 * dt * k2).rhs
    k4 = kernel._stage(phi + dt * k3).rhs
    return phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rosenbrock(kernel, phi: np.ndarray, stage,
                dt: float) -> tuple[np.ndarray, float]:
    """One RODAS3 step from phi, whose kernel stage is `stage`, and the sup
    norm of its local error estimate.

    In U-form, with S the solve by I - (dt/2) J and f(psi) = (dt/2) F(psi):
    U1 = S f(phi), U2 = S (f(phi) + 2 U1),
    U3 = S (f(phi + 2 U1) + (U1 - U2) / 2),
    U4 = S (f(phi + 2 U1 + U3) + (U1 - U2) / 2 - 4 U3 / 3), and
    phi' = phi + 2 U1 + U3 + U4.  The estimate is U4, phi' minus the
    embedded second-order solution.  F is invariant under constant shifts,
    so J 1 = 0, and a constant F gives U3 = U4 = 0: a uniform shift of
    phi passes with no estimated error.
    """
    gamma_dt = ROSENBROCK_GAMMA * dt
    solver = _ImplicitSolver(kernel.implicit_bands(stage, gamma_dt),
                             kernel.backend.periodic)
    f0 = gamma_dt * stage.rhs
    u1 = solver.solve(f0)
    u2 = solver.solve(f0 + 2.0 * u1)
    carry = 0.5 * (u1 - u2)
    phi2 = phi + 2.0 * u1
    u3 = solver.solve(gamma_dt * kernel._stage(phi2).rhs + carry)
    phi3 = phi2 + u3
    u4 = solver.solve(gamma_dt * kernel._stage(phi3).rhs + carry
                      - (4.0 / 3.0) * u3)
    return phi3 + u4, float(np.abs(u4).max())


def _error_factor(error: float) -> float:
    """Step-size factor from a second-order local error estimate: 0.9
    (tol / error)^(1/3), clamped to [0.2, 5]."""
    if error == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * np.cbrt(ROSENBROCK_TOL / error)))


def _explicit_cap(problem: FlowProblem, kernel, stage) -> float:
    """The explicit step's stiffness cap cfl_safety spacing^2 / stiffness."""
    return problem.cfl_safety * problem.backend.spacing**2 \
        / problem.backend.stiffness(stage.chi, kernel.om)


def _retry(problem: FlowProblem, state: FlowState, stage, dt: float):
    """The rejected attempt's outcome: the same state and stage, to be
    tried again with step dt."""
    if dt < problem.dt_min:
        raise StepStalled(
            f"step size underflow at t = {state.t:.6g} "
            f"(dt = {dt:.3e} < dt_min = {problem.dt_min:.3e})")
    return state._replace(dt=dt, accepted_streak=0), stage, None


def _attempt_step(problem: FlowProblem, kernel, state: FlowState, stage,
                  energy: float) -> tuple[FlowState, object, float | None]:
    """One trial step from `state`, whose kernel stage is `stage` and
    energy `energy`.

    Returns (state, stage, E) of the accepted new state, or, on
    rejection, the state with its step cut, the same stage and None.
    """
    stats = kernel.stats
    implicit = problem.method == "rosenbrock"
    cap = np.inf if implicit else _explicit_cap(problem, kernel, stage)
    dt = min(state.dt, cap)
    lands_on_end = state.t + dt >= problem.t_max
    if lands_on_end:
        dt = problem.t_max - state.t
    try:
        if implicit:
            trial, error = _rosenbrock(kernel, state.phi, stage, dt)
            # an estimate over tolerance rejects the attempt before its
            # stage is built
            if error > ROSENBROCK_TOL:
                stats.rejected_error += 1
                return _retry(problem, state, stage, dt * _error_factor(error))
        else:
            trial = _advance(kernel, state.phi, stage, dt)
        trial_stage = kernel._stage(trial)
    except NotKahlerError:
        stats.rejected_positivity += 1
        return _retry(problem, state, stage, 0.5 * dt)
    except _NotDominant:
        stats.rejected_dominance += 1
        return _retry(problem, state, stage, 0.5 * dt)
    E = kernel.energy(trial_stage)
    if not (E <= energy + (ENERGY_TOL_REL * abs(energy) + ENERGY_TOL_ABS)):
        stats.rejected_energy += 1
        return _retry(problem, state, stage, 0.5 * dt)
    if implicit:
        streak, next_dt = 0, dt * _error_factor(error)
    else:
        if cap <= state.dt and not lands_on_end:
            stats.steps_at_cap += 1
        streak, next_dt = state.accepted_streak + 1, dt
        if streak >= GROWTH_EVERY:
            streak, next_dt = 0, dt * GROWTH_FACTOR
    new = FlowState(phi=trial,
                    t=problem.t_max if lands_on_end else state.t + dt,
                    dt=next_dt,
                    step_count=state.step_count + 1,
                    accepted_streak=streak)
    return new, trial_stage, E


def _start(problem: FlowProblem, kernel, phi0) -> tuple[FlowState, object]:
    """The initial state and its kernel stage."""
    backend = problem.backend
    if phi0 is None:
        phi = np.zeros(backend.grid_shape)
    else:
        phi = backend.check_field(phi0, "initial potential").copy()
    stage = kernel._stage(phi)
    # the explicit cap also starts rosenbrock, which alone may exceed it
    cap = _explicit_cap(problem, kernel, stage)
    dt = cap if problem.dt_init is None else problem.dt_init
    if problem.method != "rosenbrock":
        dt = min(dt, cap)
    return FlowState(phi=phi, t=0.0, dt=dt, step_count=0,
                     accepted_streak=0), stage


def run_flow(problem: FlowProblem, phi0=None) -> FlowResult:
    """Integrate until the critical-equation residual meets its target.

    Per accepted step the monitors are evaluated (always, regardless of
    log_every): right-hand-side sandwich against the initial range and
    the trace bound; energy monotonicity and positivity are enforced by
    rejecting the step.  A row outside tolerance is flagged suspect; the
    run continues.  Every log_every-th accepted step is recorded, and so
    is the final state, whether or not log_every thins it out.  A step
    size that falls below dt_min raises StepStalled carrying the run up
    to its last accepted state as its `result`, with reason "stalled".
    """
    backend = problem.backend
    level = problem.level
    kernel = _Kernel(backend, problem.omega, level)
    state, stage = _start(problem, kernel, phi0)

    margin = subsolution_margin(backend.base_form(), problem.omega, level,
                                backend._theta0)
    min_theta0 = float(backend._theta0.min())

    energy = kernel.energy(stage)
    record = kernel.record(state, stage, energy, float("nan"))
    records = [record]
    keep = True
    snapshots = [(0.0, state.phi.copy())]
    snap_stride = 1

    sandwich_tol = 1e-6 + 10.0 * backend.spacing**2
    rhs_floor = record.rhs_min - sandwich_tol
    rhs_ceiling = record.rhs_max + sandwich_tol
    lambda_max0 = record.lambda_max
    prev_t = 0.0
    converged = record.residual < problem.residual_target
    reason = "residual" if converged else "t_max"
    theta_max_running = float(stage.theta.max())

    stalled = None
    while not converged and state.t < problem.t_max:
        if problem.max_steps is not None and state.step_count >= problem.max_steps:
            reason = "max_steps"
            break
        try:
            state, stage, E = _attempt_step(problem, kernel, state, stage,
                                            energy)
        except StepStalled as exc:
            stalled, reason = exc, "stalled"
            break
        if E is None:
            continue

        theta_max_running = max(theta_max_running, float(stage.theta.max()))
        lambda_bound = lambda_max0 + max(0.0, theta_max_running - min_theta0) \
            + sandwich_tol
        record = kernel.record(state, stage, E,
                               (E - energy) / (state.t - prev_t),
                               (rhs_floor, rhs_ceiling, lambda_bound))
        keep = state.step_count % problem.log_every == 0
        if keep:
            records.append(record)
        energy = E
        prev_t = state.t

        if state.step_count % snap_stride == 0:
            snapshots.append((state.t, state.phi.copy()))
            if len(snapshots) > 2 * problem.snapshot_count:
                snapshots = snapshots[::2]
                snap_stride *= 2

        if record.residual < problem.residual_target:
            converged = True
            reason = "residual"
    # stage and record belong to the final state from here on
    if not keep:
        records.append(record)
    if snapshots[-1][0] < state.t:
        snapshots.append((state.t, state.phi.copy()))

    dens = backend.raw_volume_density(stage.chi)
    volume = float(np.sum(dens))
    sigma_mean = float(np.sum(stage.sigma * dens)) / volume

    result = FlowResult(
        problem=problem, state=state, records=records, converged=converged,
        reason=reason, subsolution_margin=margin, sigma_mean=sigma_mean,
        minus_nc=-level, kappa=float(np.sum(stage.rhs * dens)) / volume,
        stats=kernel.stats, snapshots=snapshots)
    if stalled is not None:
        stalled.result = result
        raise stalled
    return result
