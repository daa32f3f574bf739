"""Explicit time integration of the trace flow with a-priori monitors.

The flow is phi_t = (1/n)(n c + theta(chi_phi) - tr(chi_phi^{-1} omega)).
Estimates that hold for the continuous flow are enforced as runtime
monitors: the initial range of the right-hand side must sandwich all
later values, the trace of omega stays below its initial maximum plus
the oscillation of theta, and the energy E = int sigma^2 dV is
nonincreasing.  Monitor violations beyond tolerance mark a step
`suspect` but never abort the run; discretization can transiently
violate continuous-time bounds near the stability limit.

Stepping is explicit (RK4 by default) with the step capped by
cfl_safety * spacing^2 / (chart stiffness bound).  A step is rejected,
and the step size halved, when positivity fails anywhere or E increases
beyond round-off tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .fields import (
    ConfigError,
    DEFAULT_POSITIVITY_FLOOR,
    HermitianFormField,
    NotKahlerError,
    PotentialField,
    ScalarField,
    StepStalled,
)
from .cone import relative_spectrum, subsolution_margin
from .functionals import level_constant, _values
from .geometry import (
    GeometryBackend,
    SphereBackend,
    TorusBackend,
    build_metric,
    theta_of,
    trace_with,
)

FLOW_METHODS = ("rk4", "euler")


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
    e_tol_rel: float = 1e-9
    e_tol_abs: float = 1e-12
    growth_every: int = 10
    growth_factor: float = 1.2
    log_every: int = 1
    max_steps: int | None = None
    snapshot_count: int = 33

    def __post_init__(self):
        if self.method == "semi_implicit":
            raise ConfigError(
                "flow.method = semi_implicit is a declared stub; "
                "use rk4 or euler")
        if self.method not in FLOW_METHODS:
            raise ConfigError(f"unknown flow method {self.method!r}")
        if self.log_every < 1:
            raise ConfigError("log_every must be at least 1")
        self.omega.require_kahler("flow target form")
        if self.omega.grid_shape != self.backend.grid_shape:
            raise ConfigError("omega does not live on the backend grid")

    @property
    def level(self) -> float:
        if self.c is not None:
            return float(self.c)
        return level_constant(self.backend, self.omega)

    def energy_budget(self, current: float) -> float:
        return self.e_tol_rel * abs(current) + self.e_tol_abs


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
class FlowResult:
    problem: FlowProblem
    state: FlowState
    records: list[MonitorRecord]
    converged: bool
    reason: str
    subsolution_margin: float
    sigma_mean: float
    minus_nc: float
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


class _GenericKernel:
    """Backend-agnostic kernel built from the public geometry operations."""

    def __init__(self, backend: GeometryBackend, omega: HermitianFormField,
                 c: float):
        self.backend = backend
        self.omega = omega
        self.nc = backend.n * c
        self.n = backend.n

    def _metric(self, phi: np.ndarray) -> HermitianFormField:
        chi = build_metric(self.backend, self.backend.base_form(), phi)
        return chi.require_kahler("flow step")

    def rhs(self, phi: np.ndarray) -> np.ndarray:
        chi = self._metric(phi)
        lam = trace_with(chi, self.omega)
        theta = theta_of(self.backend, phi)
        return (self.nc + theta - lam) / self.n

    def stiffness(self, phi: np.ndarray) -> float:
        return self.backend.cfl_coefficient(self._metric(phi), self.omega)

    def diagnostics(self, phi: np.ndarray) -> _Diagnostics:
        b = self.backend
        chi = self._metric(phi)
        lam = trace_with(chi, self.omega)
        theta = theta_of(b, phi)
        sigma = theta - lam
        rhs = (self.nc + sigma) / self.n
        dens = b.volume_density(chi)
        energy = float(np.sum(sigma * sigma * dens))
        grad_sq = b.dissipation_integrand(sigma, chi, self.omega)
        dissipation = -(2.0 / self.n) * float(np.sum(grad_sq * dens))
        floor = float(relative_spectrum(chi.matrices, self.omega).smallest().min())
        return _Diagnostics(
            rhs=rhs, sigma=sigma, E=energy, dissipation=dissipation,
            residual=float(np.abs(lam - self.nc - theta).max()),
            lambda_max=float(lam.max()), floor_constant=floor,
            rhs_min=float(rhs.min()), rhs_max=float(rhs.max()),
            theta_max=float(theta.max()))


class _SphereKernel:
    """Fused circle-invariant kernel; identical math to the generic path."""

    def __init__(self, backend: SphereBackend, omega: HermitianFormField,
                 c: float):
        self.backend = backend
        self.nc = c
        self.rho0 = backend.rho0
        self.mprime = backend.mprime
        self.mph = backend.mprime_half
        self.delta = backend.delta
        self.weights = backend.weights
        self.theta0 = backend.theta_base()
        self.om = omega.density
        self.floor = DEFAULT_POSITIVITY_FLOOR

    def _density(self, phi: np.ndarray) -> np.ndarray:
        flux = self.mph * np.diff(phi) / self.delta
        div = np.empty_like(phi)
        div[0] = flux[0]
        div[1:-1] = flux[1:] - flux[:-1]
        div[-1] = -flux[-1]
        rho = self.rho0 + self.mprime * div / self.delta
        if rho.min() <= self.floor:
            raise NotKahlerError("flow step left the positive cone")
        return rho

    def _dm(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        d2 = 2.0 * self.delta
        out[1:-1] = (values[2:] - values[:-2]) / d2
        out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / d2
        out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / d2
        return out

    def rhs(self, phi: np.ndarray) -> np.ndarray:
        rho = self._density(phi)
        theta = self.theta0 + self.mprime * self._dm(phi)
        return self.nc + theta - self.om / rho

    def stiffness(self, phi: np.ndarray) -> float:
        rho = self._density(phi)
        return float((self.om * self.mprime**2 / rho**2).max())

    def diagnostics(self, phi: np.ndarray) -> _Diagnostics:
        rho = self._density(phi)
        lam = self.om / rho
        theta = self.theta0 + self.mprime * self._dm(phi)
        sigma = theta - lam
        rhs = self.nc + sigma
        dens = rho * self.weights
        energy = float(np.sum(sigma * sigma * dens))
        dsig = self.mprime * self._dm(sigma)
        dissipation = -2.0 * float(np.sum(dsig * dsig * self.om / rho * self.weights))
        return _Diagnostics(
            rhs=rhs, sigma=sigma, E=energy, dissipation=dissipation,
            residual=float(np.abs(lam - self.nc - theta).max()),
            lambda_max=float(lam.max()),
            floor_constant=float((rho / self.om).min()),
            rhs_min=float(rhs.min()), rhs_max=float(rhs.max()),
            theta_max=float(theta.max()))


class _TorusLineKernel:
    """Fused one-dimensional periodic kernel (theta vanishes identically)."""

    def __init__(self, backend: TorusBackend, omega: HermitianFormField,
                 c: float):
        self.backend = backend
        self.nc = c
        self.h0 = backend.base_form().density
        self.delta = backend.deltas[0]
        self.weight = backend.weights
        self.om = omega.density
        self.floor = DEFAULT_POSITIVITY_FLOOR

    def _density(self, phi: np.ndarray) -> np.ndarray:
        lap = (np.roll(phi, -1) - 2.0 * phi + np.roll(phi, 1)) / self.delta**2
        h = self.h0 + 0.25 * lap
        if h.min() <= self.floor:
            raise NotKahlerError("flow step left the positive cone")
        return h

    def rhs(self, phi: np.ndarray) -> np.ndarray:
        return self.nc - self.om / self._density(phi)

    def stiffness(self, phi: np.ndarray) -> float:
        h = self._density(phi)
        return float((0.25 * self.om / h**2).max())

    def diagnostics(self, phi: np.ndarray) -> _Diagnostics:
        h = self._density(phi)
        lam = self.om / h
        sigma = -lam
        rhs = self.nc + sigma
        energy = float(np.sum(sigma * sigma * h) * self.weight)
        dsig = (np.roll(sigma, -1) - np.roll(sigma, 1)) / (2.0 * self.delta)
        dissipation = -0.5 * float(np.sum(dsig * dsig * self.om / h) * self.weight)
        return _Diagnostics(
            rhs=rhs, sigma=sigma, E=energy, dissipation=dissipation,
            residual=float(np.abs(lam - self.nc).max()),
            lambda_max=float(lam.max()),
            floor_constant=float((h / self.om).min()),
            rhs_min=float(rhs.min()), rhs_max=float(rhs.max()),
            theta_max=0.0)


def _make_kernel(problem: FlowProblem):
    backend, omega, c = problem.backend, problem.omega, problem.level
    if isinstance(backend, SphereBackend):
        return _SphereKernel(backend, omega, c)
    if isinstance(backend, TorusBackend) and backend.n == 1:
        return _TorusLineKernel(backend, omega, c)
    return _GenericKernel(backend, omega, c)


def flow_rhs(backend: GeometryBackend, phi, omega, c: float) -> ScalarField:
    """(1/n)(n c + theta(chi_phi) - tr(chi_phi^{-1} omega))."""
    values = backend.check_field(_values(phi), "potential")
    chi = build_metric(backend, backend.base_form(), values)
    chi.require_kahler("flow right-hand side")
    lam = trace_with(chi, omega)
    return (backend.n * c + theta_of(backend, values) - lam) / backend.n


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
    chi = build_metric(backend, backend.base_form(), values)
    chi.require_kahler("linearized operator")
    if backend.n == 1:
        coeff = (omega.matrices / chi.matrices**2)
    else:
        inv = np.linalg.inv(chi.matrices)
        coeff = inv @ omega.matrices @ inv
    return LinearizedOperator(
        backend=backend, coefficients=coeff,
        max_coefficient=backend.cfl_coefficient(chi, omega))


def _advance(kernel, phi: np.ndarray, dt: float, method: str) -> np.ndarray:
    if method == "euler":
        return phi + dt * kernel.rhs(phi)
    k1 = kernel.rhs(phi)
    k2 = kernel.rhs(phi + 0.5 * dt * k1)
    k3 = kernel.rhs(phi + 0.5 * dt * k2)
    k4 = kernel.rhs(phi + dt * k3)
    return phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _attempt_step(problem: FlowProblem, kernel, state: FlowState,
                  energy: float) -> tuple[FlowState, bool, _Diagnostics | None]:
    """One trial step.  Returns (state, accepted, diagnostics-at-new-state)."""
    cap = problem.cfl_safety * problem.backend.spacing**2 / kernel.stiffness(state.phi)
    dt = min(state.dt, cap)
    lands_on_end = state.t + dt >= problem.t_max
    if lands_on_end:
        dt = problem.t_max - state.t
    try:
        trial = _advance(kernel, state.phi, dt, problem.method)
        diag = kernel.diagnostics(trial)
        ok = diag.E <= energy + problem.energy_budget(energy)
    except NotKahlerError:
        ok = False
    if not ok:
        halved = dt * 0.5
        if halved < problem.dt_min:
            raise StepStalled(
                f"step size underflow at t = {state.t:.6g} "
                f"(dt = {halved:.3e} < dt_min = {problem.dt_min:.3e})")
        return replace(state, dt=halved, accepted_streak=0), False, None
    streak = state.accepted_streak + 1
    next_dt = dt
    if streak >= problem.growth_every:
        next_dt = dt * problem.growth_factor
        streak = 0
    new = FlowState(phi=trial,
                    t=problem.t_max if lands_on_end else state.t + dt,
                    dt=next_dt,
                    step_count=state.step_count + 1,
                    accepted_streak=streak,
                    rhs_range_initial=state.rhs_range_initial)
    return new, True, diag


def step(problem: FlowProblem, state: FlowState) -> FlowState:
    """Public single-step entry point; see run_flow for the monitored loop."""
    kernel = _make_kernel(problem)
    energy = kernel.diagnostics(state.phi).E
    new_state, _, _ = _attempt_step(problem, kernel, state, energy)
    return new_state


def initial_state(problem: FlowProblem, phi0=None) -> FlowState:
    backend = problem.backend
    if phi0 is None:
        phi = np.zeros(backend.grid_shape)
    else:
        phi = backend.check_field(_values(phi0), "initial potential").copy()
    kernel = _make_kernel(problem)
    rhs0 = kernel.rhs(phi)
    cap = problem.cfl_safety * backend.spacing**2 / kernel.stiffness(phi)
    dt = cap if problem.dt_init is None else min(problem.dt_init, cap)
    return FlowState(phi=phi, t=0.0, dt=dt, step_count=0, accepted_streak=0,
                     rhs_range_initial=(float(rhs0.min()), float(rhs0.max())))


def run_flow(problem: FlowProblem, phi0=None) -> FlowResult:
    """Integrate until the critical-equation residual meets its target.

    Per accepted step the monitors are evaluated (always, regardless of
    log_every): right-hand-side sandwich against the initial range, the
    trace bound, energy monotonicity, and the positivity floor.  A row
    outside tolerance is flagged suspect; the run continues.
    """
    backend = problem.backend
    kernel = _make_kernel(problem)
    state = initial_state(problem, phi0)

    theta0 = theta_of(backend, np.zeros(backend.grid_shape))
    margin = subsolution_margin(backend.base_form(), problem.omega,
                                problem.level, theta0)
    min_theta0 = float(theta0.min())

    sandwich_tol = 1e-6 + 10.0 * backend.spacing**2
    rhs_lo, rhs_hi = state.rhs_range_initial

    diag = kernel.diagnostics(state.phi)
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
        state, accepted, diag = _attempt_step(problem, kernel, state, energy)
        if not accepted:
            continue

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
    if not converged and records[-1].t < state.t:
        final = kernel.diagnostics(state.phi)
        records.append(MonitorRecord(
            t=state.t, dt=state.dt, E=final.E,
            dE_dt_measured=(final.E - energy) / max(state.t - prev_t, 1e-300),
            dE_dt_predicted=final.dissipation, rhs_min=final.rhs_min,
            rhs_max=final.rhs_max, lambda_max=final.lambda_max,
            floor_constant=final.floor_constant, residual=final.residual,
            suspect=False))
    if snapshots[-1][0] < state.t:
        snapshots.append((state.t, state.phi.copy()))

    final_diag = kernel.diagnostics(state.phi)
    chi = build_metric(backend, backend.base_form(), state.phi)
    dens = backend.volume_density(chi)
    sigma_mean = float(np.sum(final_diag.sigma * dens)) / float(np.sum(dens))

    return FlowResult(
        problem=problem, state=state, records=records, converged=converged,
        reason=reason, subsolution_margin=margin, sigma_mean=sigma_mean,
        minus_nc=-backend.n * problem.level, snapshots=snapshots)
