"""Time integration of the trace flow with a-priori monitors.

The flow is phi_t = (1/n)(n c + theta(chi_phi) - tr(chi_phi^{-1} omega)).
Estimates that hold for the continuous flow are enforced as runtime
monitors: the initial range of the right-hand side must sandwich all
later values, the trace of omega stays below its initial maximum plus
the oscillation of theta, and the energy E = int sigma^2 dV is
nonincreasing.  Monitor violations beyond tolerance mark a step
`suspect` but never abort the run; discretization can transiently
violate continuous-time bounds near the stability limit.

Explicit RK4 stepping (the default) caps the step by
cfl_safety * spacing^2 / (chart stiffness bound).  The linearly implicit
method `rosenbrock` (ROS2 of Verwer, Spee, Blom and Hundsdorfer, with the
exact Jacobian, on the one-dimensional geometries) has no such cap: its
embedded first-order solution gives a local error estimate, and a
standard controller sets the step from it.  With every method a step is
rejected, and the step size halved, when positivity fails anywhere or E
increases beyond round-off tolerance.

One kernel serves every geometry.  The backend builds each stage from
its own stencils: the checked raw metric of `GeometryBackend.metric`
(the density when n = 1, the matrix stack otherwise), which the
functionals and the geodesics build through the same call, and theta;
`rhs`, `stiffness`, `jacobian` and `diagnostics` take that stage and
the backend's raw `trace` and `integral`, and so do `flow_rhs` and
`linearized_operator`.  The stage of an accepted state, built for its
diagnostics, serves the next step's stiffness cap and first stage, and a
rejected attempt reuses it as well, so an accepted RK4 step builds four
stages and a ROS2 step two.  `FlowResult.stats`
counts the builds, the right-hand-side evaluations, the rejections by
cause and the steps whose size the stiffness cap set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .fields import (
    ConfigError,
    HermitianFormField,
    NotKahlerError,
    ScalarField,
    StepStalled,
)
from .cone import relative_spectrum, subsolution_margin
from .functionals import level_constant, _values
from .geometry import GeometryBackend, theta_of

FLOW_METHODS = ("rk4", "rosenbrock")

# ROS2's diagonal coefficient 1 + 1/sqrt(2), which makes the method L-stable.
ROS2_GAMMA = 1.0 + 1.0 / np.sqrt(2.0)
# Bound on the sup norm of ROS2's local error estimate, in units of phi.
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
        if self.method == "rosenbrock" and self.backend.n != 1:
            raise ConfigError(
                "flow.method = rosenbrock needs a one-dimensional geometry "
                "(the torus line or the sphere)")
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

    def energy_budget(self, current: float) -> float:
        return ENERGY_TOL_REL * abs(current) + ENERGY_TOL_ABS


@dataclass(frozen=True)
class FlowState:
    phi: np.ndarray
    t: float
    dt: float
    step_count: int
    accepted_streak: int
    rhs_range_initial: tuple[float, float]


@dataclass(frozen=True)
class MonitorRecord:
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
    rhs_evaluations the right-hand sides taken for stepping (the initial
    range included), rejected_error the attempts whose local error
    estimate exceeded ROSENBROCK_TOL, and steps_at_cap the accepted steps
    whose size the stiffness cap set rather than the step-size history or
    t_max (never, for rosenbrock).
    """

    rhs_evaluations: int = 0
    metric_builds: int = 0
    rejected_positivity: int = 0
    rejected_energy: int = 0
    rejected_error: int = 0
    steps_at_cap: int = 0


@dataclass
class FlowResult:
    """A finished run.

    kappa is the volume-weighted mean of the final right-hand side: the
    rate at which a limit potential drifts while its metric stays put
    (O(spacing^2) on the sphere).  rhs_spread is rhs_max - rhs_min there,
    the residual with that drift taken out.
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
    rhs_spread: float
    stats: FlowStats
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)

    @property
    def residual(self) -> float:
        return self.records[-1].residual

    @property
    def suspect_steps(self) -> int:
        return sum(1 for r in self.records if r.suspect)


@dataclass(frozen=True)
class _Diagnostics:
    rhs: np.ndarray
    sigma: np.ndarray
    E: float
    dissipation: float
    residual: float
    lambda_max: float
    floor_constant: float
    rhs_min: float
    rhs_max: float
    theta_max: float


class _Kernel:
    """The flow's right-hand side, stiffness cap, Jacobian and diagnostics
    at a raw stage (chi, theta) that the backend builds and checks."""

    def __init__(self, backend: GeometryBackend, omega: HermitianFormField,
                 c: float):
        self.backend = backend
        self.omega = omega
        self.om = backend.raw_form(omega)
        self.n = backend.n
        self.nc = backend.n * c
        self.stats = FlowStats()

    def _stage(self, phi: np.ndarray):
        self.stats.metric_builds += 1
        return self.backend.stage(phi)

    def rhs(self, stage) -> np.ndarray:
        self.stats.rhs_evaluations += 1
        chi, theta = stage
        rhs = self.nc + theta - self.backend.trace(chi, self.om)
        return rhs if self.n == 1 else rhs / self.n

    def stiffness(self, stage) -> float:
        return self.backend.stiffness(stage[0], self.om)

    @cached_property
    def _operators(self) -> tuple[np.ndarray, np.ndarray]:
        """d rho/d phi and d theta/d phi (n == 1) as dense matrices, probed
        column by column through the backend's affine stencils."""
        b, basis = self.backend, np.eye(self.backend.grid_shape[0])
        return (np.column_stack([b.complex_hessian(e)[:, 0, 0] for e in basis]),
                np.column_stack([b.vector_field_action(e) for e in basis]))

    def jacobian(self, stage, out: np.ndarray | None = None) -> np.ndarray:
        """d rhs/d phi (n == 1): d theta/d phi + diag(omega/rho^2) d rho/d phi,
        written into `out` when one is given."""
        d_rho, d_theta = self._operators
        out = np.multiply(d_rho, (self.om / stage[0]**2)[:, None], out=out)
        out += d_theta
        return out

    @cached_property
    def _matrix(self) -> np.ndarray:
        size = self.backend.grid_shape[0]
        return np.empty((size, size))

    def implicit_matrix(self, stage, gamma_dt: float) -> np.ndarray:
        """I - gamma_dt J, built in one buffer the kernel owns and overwrites
        on every call.  Rounds as np.eye(n) - gamma_dt * J does, up to the
        signs of zeros off the diagonal."""
        matrix = self.jacobian(stage, out=self._matrix)
        matrix *= -gamma_dt
        matrix.ravel()[::matrix.shape[0] + 1] += 1.0
        return matrix

    def diagnostics(self, stage) -> _Diagnostics:
        chi, theta = stage
        lam = self.backend.trace(chi, self.om)
        sigma = theta - lam
        rhs = self.nc + sigma if self.n == 1 else (self.nc + sigma) / self.n
        energy = self.backend.integral(sigma * sigma, chi)
        dissipation = -(2.0 / self.n) * self.backend.dissipation(sigma, chi, self.om)
        if self.n == 1:
            floor = float((chi / self.om).min())
        else:
            floor = float(relative_spectrum(chi, self.omega).smallest().min())
        return _Diagnostics(
            rhs=rhs, sigma=sigma, E=energy, dissipation=dissipation,
            residual=float(np.abs(lam - self.nc - theta).max()),
            lambda_max=float(lam.max()), floor_constant=floor,
            rhs_min=float(rhs.min()), rhs_max=float(rhs.max()),
            # theta is the scalar 0 where the geometry has no vector field
            theta_max=float(theta.max()) if self.backend.has_vector_field else 0.0)


def _make_kernel(problem: FlowProblem) -> _Kernel:
    return _Kernel(problem.backend, problem.omega, problem.level)


def flow_rhs(backend: GeometryBackend, phi, omega, c: float) -> ScalarField:
    """(1/n)(n c + theta(chi_phi) - tr(chi_phi^{-1} omega))."""
    values = backend.check_field(_values(phi), "potential")
    return _Kernel(backend, omega, c).rhs(backend.stage(values))


@dataclass(frozen=True)
class LinearizedOperator:
    """Coefficients of the flow linearization around a state.

    apply(psi) = (1/n)(<coefficients, complex_hessian(psi)> + X(psi)).
    max_coefficient is the chart-level stiffness bound used for step
    control (it absorbs the chart factors relating the stored Hessian to
    grid second differences).
    """

    backend: GeometryBackend
    coefficients: np.ndarray
    max_coefficient: float

    def apply(self, psi) -> ScalarField:
        values = self.backend.check_field(_values(psi), "test field")
        hess = self.backend.complex_hessian(values)
        second = np.einsum("...ij,...ij->...", self.coefficients, hess)
        return (second + self.backend.vector_field_action(values)) / self.backend.n


def linearized_operator(backend: GeometryBackend, phi,
                        omega: HermitianFormField) -> LinearizedOperator:
    values = backend.check_field(_values(phi), "potential")
    chi = backend.metric(values, "linearized operator")
    om = backend.raw_form(omega)
    if backend.n == 1:
        coeff = (om / chi**2)[:, None, None]
    else:
        inv = np.linalg.inv(chi)
        coeff = inv @ om @ inv
    return LinearizedOperator(backend=backend, coefficients=coeff,
                              max_coefficient=backend.stiffness(chi, om))


def _advance(kernel, phi: np.ndarray, stage, dt: float) -> np.ndarray:
    """One RK4 step from phi, whose kernel stage is `stage`."""
    k1 = kernel.rhs(stage)
    k2 = kernel.rhs(kernel._stage(phi + 0.5 * dt * k1))
    k3 = kernel.rhs(kernel._stage(phi + 0.5 * dt * k2))
    k4 = kernel.rhs(kernel._stage(phi + dt * k3))
    return phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rosenbrock(kernel, phi: np.ndarray, stage,
                dt: float) -> tuple[np.ndarray, float]:
    """One ROS2 step from phi, whose kernel stage is `stage`, and the sup
    norm of its local error estimate.

    (I - gamma dt J) k1 = F(phi), (I - gamma dt J) k2 = F(phi + dt k1) - 2 k1,
    phi' = phi + dt (3 k1 + k2) / 2.  The estimate is phi' minus the
    embedded first-order solution phi + dt k1.  F is invariant under
    constant shifts, so J 1 = 0 and a constant drift passes through k1
    and k2 with no estimated error.
    """
    matrix = kernel.implicit_matrix(stage, ROS2_GAMMA * dt)
    k1 = np.linalg.solve(matrix, kernel.rhs(stage))
    k2 = np.linalg.solve(
        matrix, kernel.rhs(kernel._stage(phi + dt * k1)) - 2.0 * k1)
    error = 0.5 * dt * float(np.abs(k1 + k2).max())
    return phi + 1.5 * dt * k1 + 0.5 * dt * k2, error


def _error_factor(error: float) -> float:
    """Step-size factor from a first-order local error estimate: 0.9
    (tol / error)^(1/2), clamped to [0.2, 5]."""
    if error == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * np.sqrt(ROSENBROCK_TOL / error)))


def _retry(problem: FlowProblem, state: FlowState, stage, dt: float):
    """The rejected attempt's outcome: the same state and stage, to be
    tried again with step dt."""
    if dt < problem.dt_min:
        raise StepStalled(
            f"step size underflow at t = {state.t:.6g} "
            f"(dt = {dt:.3e} < dt_min = {problem.dt_min:.3e})")
    return replace(state, dt=dt, accepted_streak=0), stage, None


def _attempt_step(problem: FlowProblem, kernel, state: FlowState, stage,
                  energy: float) -> tuple[FlowState, object, _Diagnostics | None]:
    """One trial step from `state`, whose kernel stage is `stage`.

    Returns (state, stage, diagnostics) of the accepted new state, or, on
    rejection, the state with its step cut, the same stage and None.
    """
    stats = kernel.stats
    implicit = problem.method == "rosenbrock"
    if implicit:
        cap = np.inf
    else:
        cap = problem.cfl_safety * problem.backend.spacing**2 \
            / kernel.stiffness(stage)
    dt = min(state.dt, cap)
    lands_on_end = state.t + dt >= problem.t_max
    if lands_on_end:
        dt = problem.t_max - state.t
    error = 0.0
    try:
        if implicit:
            trial, error = _rosenbrock(kernel, state.phi, stage, dt)
        else:
            trial = _advance(kernel, state.phi, stage, dt)
        trial_stage = kernel._stage(trial)
        diag = kernel.diagnostics(trial_stage)
    except NotKahlerError:
        stats.rejected_positivity += 1
        return _retry(problem, state, stage, 0.5 * dt)
    if error > ROSENBROCK_TOL:
        stats.rejected_error += 1
        return _retry(problem, state, stage, dt * _error_factor(error))
    if not (diag.E <= energy + problem.energy_budget(energy)):
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
                    accepted_streak=streak,
                    rhs_range_initial=state.rhs_range_initial)
    return new, trial_stage, diag


def step(problem: FlowProblem, state: FlowState) -> FlowState:
    """Public single-step entry point; see run_flow for the monitored loop."""
    kernel = _make_kernel(problem)
    stage = kernel._stage(state.phi)
    energy = kernel.diagnostics(stage).E
    new_state, _, _ = _attempt_step(problem, kernel, state, stage, energy)
    return new_state


def _start(problem: FlowProblem, kernel, phi0) -> tuple[FlowState, object]:
    """The initial state and its kernel stage."""
    backend = problem.backend
    if phi0 is None:
        phi = np.zeros(backend.grid_shape)
    else:
        phi = backend.check_field(_values(phi0), "initial potential").copy()
    stage = kernel._stage(phi)
    rhs0 = kernel.rhs(stage)
    # the explicit cap also starts rosenbrock, which alone may exceed it
    cap = problem.cfl_safety * backend.spacing**2 / kernel.stiffness(stage)
    dt = cap if problem.dt_init is None else problem.dt_init
    if problem.method != "rosenbrock":
        dt = min(dt, cap)
    state = FlowState(phi=phi, t=0.0, dt=dt, step_count=0, accepted_streak=0,
                      rhs_range_initial=(float(rhs0.min()), float(rhs0.max())))
    return state, stage


def initial_state(problem: FlowProblem, phi0=None) -> FlowState:
    return _start(problem, _make_kernel(problem), phi0)[0]


def run_flow(problem: FlowProblem, phi0=None) -> FlowResult:
    """Integrate until the critical-equation residual meets its target.

    Per accepted step the monitors are evaluated (always, regardless of
    log_every): right-hand-side sandwich against the initial range, the
    trace bound, energy monotonicity, and the positivity floor.  A row
    outside tolerance is flagged suspect; the run continues.
    """
    backend = problem.backend
    kernel = _make_kernel(problem)
    state, stage = _start(problem, kernel, phi0)

    theta0 = theta_of(backend, np.zeros(backend.grid_shape))
    margin = subsolution_margin(backend.base_form(), problem.omega,
                                problem.level, theta0)
    min_theta0 = float(theta0.min())

    sandwich_tol = 1e-6 + 10.0 * backend.spacing**2
    rhs_lo, rhs_hi = state.rhs_range_initial

    diag = kernel.diagnostics(stage)
    lambda_max0 = diag.lambda_max
    records = [MonitorRecord(
        t=0.0, dt=state.dt, E=diag.E, dE_dt_measured=float("nan"),
        dE_dt_predicted=diag.dissipation, rhs_min=diag.rhs_min,
        rhs_max=diag.rhs_max, lambda_max=diag.lambda_max,
        floor_constant=diag.floor_constant, residual=diag.residual,
        suspect=False)]
    snapshots = [(0.0, state.phi.copy())]
    snap_stride = 1

    energy = diag.E
    prev_t = 0.0
    converged = diag.residual < problem.residual_target
    reason = "residual" if converged else "t_max"
    theta_max_running = diag.theta_max

    while not converged and state.t < problem.t_max:
        if problem.max_steps is not None and state.step_count >= problem.max_steps:
            reason = "max_steps"
            break
        state, stage, trial = _attempt_step(problem, kernel, state, stage,
                                            energy)
        if trial is None:
            continue
        diag = trial

        theta_max_running = max(theta_max_running, diag.theta_max)
        lambda_bound = lambda_max0 + max(0.0, theta_max_running - min_theta0) \
            + sandwich_tol
        suspect = (
            diag.rhs_min < rhs_lo - sandwich_tol
            or diag.rhs_max > rhs_hi + sandwich_tol
            or diag.lambda_max > lambda_bound
            or diag.E > energy + problem.energy_budget(energy)
        )

        measured = (diag.E - energy) / (state.t - prev_t)
        record = MonitorRecord(
            t=state.t, dt=state.dt, E=diag.E, dE_dt_measured=measured,
            dE_dt_predicted=diag.dissipation, rhs_min=diag.rhs_min,
            rhs_max=diag.rhs_max, lambda_max=diag.lambda_max,
            floor_constant=diag.floor_constant, residual=diag.residual,
            suspect=suspect)
        keep = (state.step_count % problem.log_every == 0)
        if keep:
            records.append(record)
        energy = diag.E
        prev_t = state.t

        if state.step_count % snap_stride == 0:
            snapshots.append((state.t, state.phi.copy()))
            if len(snapshots) > 2 * problem.snapshot_count:
                snapshots = snapshots[::2]
                snap_stride *= 2

        if diag.residual < problem.residual_target:
            converged = True
            reason = "residual"
            if not keep:
                records.append(record)
            break
    # diag is the diagnostics of the final state from here on, and record
    # that state's row, thinned out or not.
    if not converged and records[-1].t < state.t:
        records.append(record)
    if snapshots[-1][0] < state.t:
        snapshots.append((state.t, state.phi.copy()))

    dens = backend.raw_volume_density(stage[0])
    volume = float(np.sum(dens))
    sigma_mean = float(np.sum(diag.sigma * dens)) / volume

    return FlowResult(
        problem=problem, state=state, records=records, converged=converged,
        reason=reason, subsolution_margin=margin, sigma_mean=sigma_mean,
        minus_nc=-backend.n * problem.level,
        kappa=float(np.sum(diag.rhs * dens)) / volume,
        rhs_spread=diag.rhs_max - diag.rhs_min, stats=kernel.stats,
        snapshots=snapshots)
