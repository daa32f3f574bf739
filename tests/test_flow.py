from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jflow import (
    ConfigError,
    FlowProblem,
    GeometryError,
    StepStalled,
    build_metric,
    flow_rhs,
    make_backend,
    random_kahler_potential,
    run_flow,
    theta_of,
    trace_with,
)
import oracles
from jflow.flow import FlowState, _Kernel, _start
from jflow.geometry import GeometryBackend, SphereBackend


def torus_target_form(backend, amplitude=0.3, scale=2.0):
    # density scale * (1 + amplitude sin(2 pi x)): an exact-class form
    x = backend.x
    offset = scale * amplitude * np.sin(2.0 * np.pi * x)
    psi = oracles.hessian_offset_potential(backend, offset)
    density = scale + backend.complex_hessian(psi)[..., 0, 0]
    return backend.form(density[:, None, None])


def _make_kernel(problem):
    return _Kernel(problem.backend, problem.omega, problem.level)


def _row(kernel, stage):
    """The kernel's trajectory row of a stage, at t = 0 with no slope."""
    state = FlowState(phi=None, t=0.0, dt=1.0, step_count=0, accepted_streak=0)
    return kernel.record(state, stage, kernel.energy(stage), float("nan"))


# --- right-hand side ---------------------------------------------------------

def test_rhs_vanishes_at_matched_reference(torus64):
    omega = torus64.form(2.0 * torus64.base_form().matrices)
    rhs = flow_rhs(torus64, np.zeros(64), omega, 2.0)
    assert np.array_equal(rhs, np.zeros(64))


def test_rhs_sphere_reference_is_moment_window(sphere128):
    rhs = flow_rhs(sphere128, np.zeros(sphere128.grid_shape),
                   sphere128.base_form(), 1.0)
    theta0 = theta_of(sphere128, np.zeros(sphere128.grid_shape))
    assert np.allclose(rhs, theta0, atol=1e-14)
    assert rhs.min() > -0.5
    assert rhs.max() < 0.5


def test_rhs_closed_form_torus(torus128, rng):
    phi = random_kahler_potential(torus128, rng, 0.5)
    omega = torus_target_form(torus128)
    c = 2.0
    chi = build_metric(torus128, torus128.base_form(), phi)
    want = c - trace_with(chi, omega.matrices)
    got = flow_rhs(torus128, phi, omega, c)
    assert np.abs(got - want).max() < 1e-13
    assert np.array_equal(flow_rhs(torus128, phi, omega.matrices, c), got)


def test_rhs_and_linearization_refuse_non_finite_potentials(
        torus64, sphere64):
    # the kernel linearizes at a built stage, so the stage's check refuses
    # a non-finite potential for the rhs and the Jacobian alike
    for b in (torus64, sphere64):
        phi = np.zeros(b.grid_shape)
        phi.flat[5] = np.nan
        with pytest.raises(GeometryError):
            flow_rhs(b, phi, b.base_form(), 1.0)


# --- linearization -----------------------------------------------------------

def dense_jacobian(bands):
    """A dense matrix from its bands (lower, diagonal, upper): row i's
    entries in columns i - 1, i and i + 1, mod N."""
    lower, diagonal, upper = bands
    size = diagonal.size
    rows = np.arange(size)
    dense = np.zeros((size, size))
    dense[rows, rows - 1] = lower
    dense[rows, rows] = diagonal
    dense[rows, (rows + 1) % size] = upper
    return dense


def test_linearized_sign_is_dissipative(torus64):
    # Rayleigh quotient on the lowest mode at the reference state
    x = torus64.x
    psi = np.sin(2 * np.pi * x)
    kernel = _Kernel(torus64, torus64.base_form(), 1.0)
    jac = dense_jacobian(kernel.jacobian_bands(kernel._stage(np.zeros(64))))
    pairing = np.sum(psi * (jac @ psi) * torus64.weights)
    assert pairing < -1.0


# --- problem validation ------------------------------------------------------

@pytest.mark.parametrize("cfl_safety", [0.0, -0.2])
def test_cfl_safety_must_be_positive(torus64, cfl_safety):
    with pytest.raises(ConfigError):
        FlowProblem(backend=torus64, omega=torus64.base_form(),
                    cfl_safety=cfl_safety)


def test_unknown_method_rejected(torus64):
    for method in ("leapfrog", "semi_implicit"):
        with pytest.raises(ConfigError):
            FlowProblem(backend=torus64, omega=torus64.base_form(),
                        method=method)


def test_omega_grid_must_match(torus64, torus128):
    with pytest.raises(ConfigError):
        FlowProblem(backend=torus64, omega=torus128.base_form())


def test_level_defaults_to_class_ratio(torus64):
    omega = torus64.form(2.0 * torus64.base_form().matrices)
    assert FlowProblem(backend=torus64, omega=omega).level == 2.0
    assert FlowProblem(backend=torus64, omega=omega, c=3.5).level == 3.5


# --- stepping ----------------------------------------------------------------

def test_initial_state_caps_dt(torus64):
    omega = torus64.base_form()
    problem = FlowProblem(backend=torus64, omega=omega, cfl_safety=0.3)
    st, _ = _start(problem, _make_kernel(problem), None)
    assert st.dt <= 0.3 * torus64.spacing**2 / 0.25 + 1e-15
    tiny = FlowProblem(backend=torus64, omega=omega, dt_init=1e-9)
    assert _start(tiny, _make_kernel(tiny), None)[0].dt == 1e-9


def test_single_step_advances(torus64):
    omega = torus_target_form(torus64)
    problem = FlowProblem(backend=torus64, omega=omega)
    st0, _ = _start(problem, _make_kernel(problem), None)
    st1 = run_flow(replace(problem, max_steps=1)).state
    assert st1.t > 0.0
    assert st1.step_count == 1
    assert not np.array_equal(st1.phi, st0.phi)


def test_stalled_step_raises(torus64):
    # rk4 far above its stability cap: the energy monitor rejects the
    # step and the halved size immediately underflows the floor
    omega = torus_target_form(torus64)
    problem = FlowProblem(backend=torus64, omega=omega, method="rk4",
                          cfl_safety=5.0, dt_min=1.0, t_max=10.0)
    with pytest.raises(StepStalled) as info:
        run_flow(problem)
    # the exception carries the run up to its last accepted state
    result = info.value.result
    assert not result.converged and result.reason == "stalled"
    assert result.state.step_count == len(result.records) - 1
    assert result.records[-1].t == result.state.t
    assert result.stats.rejected_positivity \
        + result.stats.rejected_energy > 0


# --- monitored runs ----------------------------------------------------------

def test_already_critical_converges_without_stepping(torus64):
    omega = torus64.form(2.0 * torus64.base_form().matrices)
    result = run_flow(FlowProblem(backend=torus64, omega=omega))
    assert result.converged
    assert result.reason == "residual"
    assert result.state.step_count == 0
    assert result.residual == 0.0
    assert len(result.records) == 1
    assert result.minus_nc == -2.0


def test_flow_run_monitors_stay_clean(torus128):
    omega = torus_target_form(torus128)
    problem = FlowProblem(backend=torus128, omega=omega, t_max=0.2,
                          cfl_safety=0.4)
    result = run_flow(problem)
    records = result.records
    assert len(records) > 10
    assert result.suspect_steps == 0
    energies = [r.E for r in records]
    assert all(b < a for a, b in zip(energies[:-1], energies[1:]))
    lo, hi = records[0].rhs_min, records[0].rhs_max
    tol = 1e-6 + 10.0 * torus128.spacing**2
    for r in records:
        assert r.rhs_min >= lo - tol
        assert r.rhs_max <= hi + tol
    # the measured energy slope tracks the dissipation prediction
    for r in records[1:]:
        assert r.dE_dt_measured <= 0.0
        assert abs(r.dE_dt_measured - r.dE_dt_predicted) <= \
            0.05 * abs(r.dE_dt_predicted) + 1e-9


def test_flow_floor_tracks_trace_bound(torus128):
    omega = torus_target_form(torus128)
    result = run_flow(FlowProblem(backend=torus128, omega=omega, t_max=0.05))
    for r in result.records:
        assert r.floor_constant > 0.0
        # n = 1: the positivity floor is the reciprocal of the trace peak
        assert abs(r.floor_constant * r.lambda_max - 1.0) < 1e-12


def test_flow_gauge_shift_commutes(torus64, rng):
    omega = torus_target_form(torus64)
    phi0 = random_kahler_potential(torus64, rng, 0.2)
    problem = FlowProblem(backend=torus64, omega=omega, max_steps=20,
                          t_max=1.0)
    plain = run_flow(problem, phi0)
    lifted = run_flow(problem, phi0 + 3.0)
    assert plain.state.step_count == lifted.state.step_count
    assert np.abs((lifted.state.phi - plain.state.phi) - 3.0).max() < 1e-12


def test_flow_reaches_target_density(torus64):
    omega = torus_target_form(torus64)
    problem = FlowProblem(backend=torus64, omega=omega, t_max=40.0,
                          residual_target=1e-5, cfl_safety=0.45)
    result = run_flow(problem)
    assert result.converged and result.reason == "residual"
    assert result.residual <= 1e-5
    chi = build_metric(torus64, torus64.base_form(), result.state.phi)
    target = omega.matrices[..., 0, 0] / 2.0
    assert np.abs(chi.matrices[..., 0, 0] - target).max() < 1e-5
    assert abs(result.sigma_mean - result.minus_nc) < 1e-4
    assert result.subsolution_margin > 0.0


def test_flow_max_steps_reason(torus64):
    omega = torus_target_form(torus64)
    result = run_flow(FlowProblem(backend=torus64, omega=omega, max_steps=5,
                                  t_max=50.0))
    assert not result.converged
    assert result.reason == "max_steps"
    assert result.state.step_count == 5


def test_flow_log_thinning_and_final_row(torus64):
    omega = torus_target_form(torus64)
    problem = FlowProblem(backend=torus64, omega=omega, t_max=0.2,
                          log_every=50)
    result = run_flow(problem)
    assert len(result.records) < result.state.step_count
    # the last row always reflects the final state, and its own last step
    last = result.records[-1]
    assert last.t == result.state.t
    assert last.dE_dt_measured < 0.0
    assert abs(last.dE_dt_measured - last.dE_dt_predicted) \
        <= 0.05 * abs(last.dE_dt_predicted)


def test_flow_converging_on_a_thinned_step_keeps_its_row(torus64):
    problem = FlowProblem(backend=torus64, omega=torus_target_form(torus64),
                          method="rosenbrock", t_max=60.0,
                          residual_target=1e-6)
    full = run_flow(problem)
    steps = full.state.step_count
    assert full.converged and steps > 2
    # steps % (steps - 1) == 1: log_every thins out the converging step
    result = run_flow(replace(problem, log_every=steps - 1))
    assert result.converged and result.state.step_count == steps
    assert [r.t for r in result.records] == \
        [full.records[k].t for k in (0, steps - 1, steps)]
    assert result.records[-1].t == result.state.t
    assert result.records[-1] == full.records[-1]
    assert result.residual < problem.residual_target


def test_flow_snapshot_budget(torus64):
    omega = torus_target_form(torus64)
    problem = FlowProblem(backend=torus64, omega=omega, t_max=2.0,
                          snapshot_count=8)
    result = run_flow(problem)
    assert result.state.step_count > 40
    assert len(result.snapshots) <= 2 * 8 + 2
    assert result.snapshots[0][0] == 0.0
    assert result.snapshots[-1][0] == result.state.t


def test_sphere_flow_short_run_clean(sphere64):
    problem = FlowProblem(backend=sphere64, omega=sphere64.base_form(),
                          t_max=0.5, cfl_safety=0.4)
    result = run_flow(problem)
    assert result.suspect_steps == 0
    energies = [r.E for r in result.records]
    assert energies[-1] < energies[0]
    # the flow carries the moment window with it: rhs stays in (-1/2, 1/2)
    for r in result.records:
        assert -0.5 < r.rhs_min <= r.rhs_max < 0.5


# --- the kernel, its stages and run counters ----------------------------------

def _stencil_potential(values, spacing):
    # scaled so every stage stays well inside the positive cone
    return np.asarray(values) * (0.25 * spacing**2)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(8, 257).flatmap(
    lambda n: hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3))))
def test_periodic_fluxes_match_roll(phi):
    # cell k - 1/2 runs from node k - 1 to node k, and on the torus line
    # cell N - 1/2 is cell -1/2 again
    b = make_backend("torus", size=len(phi))
    want = (0.5 / b.spacing) * (phi - np.roll(phi, 1))
    assert np.array_equal(b._fluxes(phi), np.append(want, want[0]))
    # a stack of rows: fluxes along the trailing axis only
    grid = np.stack([phi, 2.0 * phi, phi[::-1]])
    want = (0.5 / b.spacing) * (grid - np.roll(grid, 1, -1))
    assert np.array_equal(b._fluxes(grid),
                          np.concatenate((want, want[:, :1]), axis=-1))


# Distinct entries give every flux a nonzero value, the end fluxes of the
# sphere stencil included, so a wrong end row cannot hide behind a flat
# draw; the fixed example checks one such draw on every run.
@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(8, 257).flatmap(
    lambda n: hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0),
                         unique=True)))
@example(np.random.default_rng(3).uniform(-1.0, 1.0, 40))
def test_kernel_stencils_match_roll_and_diff(raw):
    # Each line's density is its node factor times the flux difference,
    # and its frame derivative the flux mean: on the torus line both
    # factors are 1/2 and the fluxes wrap around, on the sphere they are
    # m (1 - m) and no flux passes the ends, and there X and theta are
    # the flux mean too
    b = make_backend("torus", size=len(raw))
    kernel = _Kernel(b, b.base_form(), 1.0)
    phi = _stencil_potential(raw, b.spacing)
    flux = (0.5 / b.spacing) * (np.roll(phi, -1) - phi)
    h = 1.0 + (0.5 / b.spacing) * (flux - np.roll(flux, 1))
    stage = kernel._stage(phi)
    assert np.array_equal(stage.chi, h)
    sigma = -(kernel.om / h)
    flux = (0.5 / b.spacing) * (np.roll(sigma, -1) - sigma)
    grad = 0.5 * (flux + np.roll(flux, 1))
    want = -2.0 * float(np.sum(grad * grad * kernel.om / h * b.weights))
    assert _row(kernel, stage).dE_dt_predicted == want
    if len(raw) < 16:  # the sphere's coarsest grid
        return
    b = make_backend("sphere", size=len(raw))
    kernel = _Kernel(b, b.base_form(), 1.0)
    phi = _stencil_potential(raw, b.spacing)
    flux = (b.mprime_half / b.delta) * np.diff(phi)
    div = np.concatenate(([flux[0]], flux[1:] - flux[:-1], [-flux[-1]]))
    ends = np.concatenate(([0.0], flux, [0.0]))
    stage = kernel._stage(phi)
    rho, theta = stage.chi, stage.theta
    assert np.array_equal(rho, b.rho0 + (b.mprime / b.delta) * div)
    assert np.array_equal(theta, (b.m - np.mean(b.m))
                          + 0.5 * (ends[1:] + ends[:-1]))
    sigma = theta - kernel.om / rho
    flux = np.concatenate(([0.0], (b.mprime_half / b.delta) * np.diff(sigma),
                           [0.0]))
    grad = 0.5 * (flux[1:] + flux[:-1])
    want = -2.0 * float(np.sum(grad * grad * kernel.om / rho * b.weights))
    assert _row(kernel, stage).dE_dt_predicted == want


def _relative_gap(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.abs(got - want).max()) / max(float(np.abs(want).max()),
                                                 1e-300)


@pytest.mark.parametrize("geometry", ["torus", "sphere"])
def test_kernel_matches_oracle(geometry, torus128, sphere128):
    rng = np.random.default_rng(7)
    if geometry == "torus":
        b, omega = torus128, torus_target_form(torus128)
    else:
        b, omega = sphere128, sphere128.base_form()
    c = FlowProblem(backend=b, omega=omega).level
    for _ in range(3):
        phi = random_kahler_potential(b, rng, 0.5)
        want = oracles.flow_kernel_outputs(b, omega, c, phi)
        kernel = _Kernel(b, omega, c)
        stage = kernel._stage(phi)
        for name in ("sigma", "rhs"):
            assert _relative_gap(getattr(stage, name), want[name]) <= 1e-12, name
        assert _relative_gap(b.stiffness(stage.chi, kernel.om),
                             want["stiffness"]) <= 1e-12
        row = _row(kernel, stage)
        got = {"E": row.E, "dissipation": row.dE_dt_predicted,
               "residual": row.residual, "lambda_max": row.lambda_max,
               "floor_constant": row.floor_constant, "rhs_min": row.rhs_min,
               "rhs_max": row.rhs_max, "theta_max": float(stage.theta.max())}
        for name, value in got.items():
            assert _relative_gap(value, want[name]) <= 1e-12, name
        assert not row.suspect


@pytest.mark.parametrize("method, builds_per_step", [("rk4", 4)])
def test_stage_builds_per_accepted_step(torus64, method, builds_per_step):
    # one start-up build; the stage of an accepted state's row serves the
    # next step
    result = run_flow(FlowProblem(backend=torus64, omega=torus_target_form(torus64),
                                  method=method, t_max=0.02))
    stats, steps = result.stats, result.state.step_count
    assert steps > 100
    assert stats.rejected_positivity == stats.rejected_energy == 0
    assert stats.metric_builds == builds_per_step * steps + 1
    assert stats.rhs_evaluations == builds_per_step * steps + 1
    # growth steps run into the cap; the last step is cut to land on t_max
    assert 0 < stats.steps_at_cap < steps


@pytest.mark.parametrize("method, fluxes_per_step", [("rk4", 5),
                                                     ("rosenbrock", 4)])
def test_flux_passes_per_accepted_step(sphere64, method, fluxes_per_step):
    # each stage takes its fluxes once, and the row's dissipation once
    # more: an RK4 step builds four stages and a RODAS3 step three.
    # Start-up takes two: its stage and the first row
    passes = []
    fluxes = GeometryBackend._fluxes

    def counted(self, phi):
        passes.append(1)
        return fluxes(self, phi)

    problem = FlowProblem(backend=sphere64, omega=sphere64.base_form(),
                          method=method, max_steps=40, t_max=1e3)
    with mock.patch.object(GeometryBackend, "_fluxes", counted):
        result = run_flow(problem)
    stats = result.stats
    assert result.state.step_count == 40
    assert stats.rejected_positivity == stats.rejected_energy \
        == stats.rejected_error == stats.rejected_dominance == 0
    assert len(passes) == fluxes_per_step * 40 + 2


def test_rejected_attempts_rebuild_nothing(torus64):
    # a cap above the stability limit: growing steps are rejected for energy
    result = run_flow(FlowProblem(backend=torus64, omega=torus_target_form(torus64),
                                  cfl_safety=1.0, t_max=0.2))
    stats, steps = result.stats, result.state.step_count
    rejected = stats.rejected_positivity + stats.rejected_energy
    assert stats.rejected_energy > 0
    assert stats.metric_builds <= 4 * (steps + rejected) + 1


# --- the kernel's exact Jacobian on the one-dimensional geometries -------------

@st.composite
def _jacobian_case(draw):
    """A one-dimensional backend, a random Kahler target omega, its flow
    kernel, a random Kahler potential phi and the generator drawn from."""
    geometry = draw(st.sampled_from(["torus", "sphere"]))
    b = make_backend(geometry, size=draw(st.integers(16, 96)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = random_kahler_potential(b, rng, draw(st.floats(0.05, 1.0)))
    omega = b.form(draw(st.floats(0.5, 3.0))
                   * build_metric(b, b.base_form(), psi).matrices)
    phi = random_kahler_potential(b, rng, draw(st.floats(0.05, 1.0)))
    kernel = _Kernel(b, omega, FlowProblem(backend=b, omega=omega).level)
    return b, omega, kernel, phi, rng


@settings(max_examples=40, deadline=None, database=None)
@given(_jacobian_case())
def test_kernel_jacobian_matches_finite_differences(case):
    b, _, kernel, phi, rng = case
    psi = random_kahler_potential(b, rng, 0.5)
    h = 1e-6
    fd = (kernel._stage(phi + h * psi).rhs
          - kernel._stage(phi - h * psi).rhs) / (2.0 * h)
    jac = dense_jacobian(kernel.jacobian_bands(kernel._stage(phi)))
    assert _relative_gap(jac @ psi, fd) <= 1e-6


@settings(max_examples=40, deadline=None, database=None)
@given(_jacobian_case(), st.floats(-10.0, 10.0))
def test_kernel_is_blind_to_constant_shifts(case, shift):
    b, _, kernel, phi, _ = case
    jac = dense_jacobian(kernel.jacobian_bands(kernel._stage(phi)))
    scale = float(np.abs(jac).max())
    assert float(np.abs(jac @ np.ones(b.grid_shape)).max()) <= 1e-13 * scale
    # F(phi + a) = F(phi) up to the rounding of phi + a, which the
    # second differences amplify by about the Jacobian's size
    moved = kernel._stage(phi + shift).rhs - kernel._stage(phi).rhs
    bound = 1e-14 * scale * (abs(shift) + float(np.abs(phi).max()))
    assert float(np.abs(moved).max()) <= bound


@settings(max_examples=40, deadline=None, database=None)
@given(_jacobian_case())
def test_kernel_jacobian_is_banded_with_nonnegative_off_diagonals(case):
    # the structure an unpivoted banded solve of I - gamma dt J rests on:
    # J is periodic tridiagonal on the torus line and tridiagonal on the
    # sphere, and every off-diagonal entry is >= 0
    b, _, kernel, phi, _ = case
    jac = dense_jacobian(kernel.jacobian_bands(kernel._stage(phi)))
    size = jac.shape[0]
    rows = np.arange(size)
    off_diagonal = np.zeros_like(jac, dtype=bool)
    band = np.zeros_like(jac, dtype=bool)
    if isinstance(b, SphereBackend):
        off_diagonal[rows[1:], rows[:-1]] = off_diagonal[rows[:-1], rows[1:]] = True
    else:
        off_diagonal[rows, (rows + 1) % size] = True
        off_diagonal[rows, (rows - 1) % size] = True
    band |= off_diagonal
    band[rows, rows] = True
    assert np.all(jac[~band] == 0.0)
    assert np.all(jac[off_diagonal] >= 0.0)
