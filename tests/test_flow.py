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
    linearized_operator,
    make_backend,
    random_kahler_potential,
    run_flow,
    theta_of,
    trace_with,
)
import oracles
from jflow.flow import _Diagnostics, _Kernel, initial_state, step
from jflow.geometry import SphereBackend, _periodic_neighbours
from jflow.potentials import hessian_offset_potential, named_potential


def torus_target_form(backend, amplitude=0.3, scale=2.0):
    # density scale * (1 + amplitude sin(2 pi x)): an exact-class form
    x = backend.axes[0]
    offset = scale * amplitude * np.sin(2.0 * np.pi * x)
    psi = hessian_offset_potential(backend, offset)
    from jflow import complex_hessian
    density = scale + complex_hessian(backend, psi)[..., 0, 0]
    return backend.form(density[:, None, None])


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
        torus64, sphere64, torus2d):
    for b in (torus64, sphere64, torus2d):
        phi = np.zeros(b.grid_shape)
        phi.flat[5] = np.nan
        with pytest.raises(GeometryError):
            flow_rhs(b, phi, b.base_form(), 1.0)
        with pytest.raises(GeometryError):
            linearized_operator(b, phi, b.base_form())


# --- linearization -----------------------------------------------------------

def test_linearized_matches_directional_difference(torus128, sphere128, rng):
    h = 1e-6
    for b in (torus128, sphere128):
        omega = b.base_form()
        phi = random_kahler_potential(b, rng, 0.4)
        psi = random_kahler_potential(b, rng, 0.4)
        op = linearized_operator(b, phi, omega)
        got = op.apply(psi)
        fd = (flow_rhs(b, phi + h * psi, omega, 1.0)
              - flow_rhs(b, phi - h * psi, omega, 1.0)) / (2.0 * h)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(got - fd).max() < 1e-5 * scale


def test_linearized_stiffness_bound_matches_backend(torus64, sphere64, rng):
    for b in (torus64, sphere64):
        phi = random_kahler_potential(b, rng, 0.3)
        omega = b.base_form()
        op = linearized_operator(b, phi, omega)
        want = oracles.flow_kernel_outputs(b, omega, 1.0, phi)["stiffness"]
        assert _relative_gap(op.max_coefficient, want) <= 1e-12


def test_linearized_sign_is_dissipative(torus64):
    # Rayleigh quotient on the lowest mode at the reference state
    x = torus64.axes[0]
    psi = np.sin(2 * np.pi * x)
    op = linearized_operator(torus64, np.zeros(64), torus64.base_form())
    pairing = np.sum(psi * op.apply(psi) * torus64.weights)
    assert pairing < -1.0


# --- problem validation ------------------------------------------------------

def test_rosenbrock_needs_a_one_dimensional_kernel(torus64, sphere64, torus2d):
    for b in (torus64, sphere64):
        assert FlowProblem(backend=b, omega=b.base_form(),
                           method="rosenbrock").method == "rosenbrock"
    with pytest.raises(ConfigError):
        FlowProblem(backend=torus2d, omega=torus2d.base_form(),
                    method="rosenbrock")


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
    st = initial_state(problem)
    assert st.dt <= 0.3 * torus64.spacing**2 / 0.25 + 1e-15
    tiny = FlowProblem(backend=torus64, omega=omega, dt_init=1e-9)
    assert initial_state(tiny).dt == 1e-9


def test_single_step_advances(torus64):
    omega = torus_target_form(torus64)
    problem = FlowProblem(backend=torus64, omega=omega)
    st0 = initial_state(problem)
    st1 = step(problem, st0)
    assert st1.t > 0.0
    assert st1.step_count == 1
    assert not np.array_equal(st1.phi, st0.phi)


def test_stalled_step_raises(torus64):
    # rk4 far above its stability cap: the energy monitor rejects the
    # step and the halved size immediately underflows the floor
    omega = torus_target_form(torus64)
    problem = FlowProblem(backend=torus64, omega=omega, method="rk4",
                          cfl_safety=5.0, dt_min=1.0, t_max=10.0)
    with pytest.raises(StepStalled):
        run_flow(problem)


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
    lo, hi = result.state.rhs_range_initial
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


def test_flow_snapshot_budget(torus64):
    omega = torus_target_form(torus64)
    problem = FlowProblem(backend=torus64, omega=omega, t_max=2.0,
                          snapshot_count=8)
    result = run_flow(problem)
    assert result.state.step_count > 40
    assert len(result.snapshots) <= 2 * 8 + 2
    assert result.snapshots[0][0] == 0.0
    assert result.snapshots[-1][0] == result.state.t


def _torus2d_problem(**settings):
    b = make_backend("torus", dim=2, size=16)
    omega = b.form(2.0 * b.base_form().matrices)
    return FlowProblem(backend=b, omega=omega, **settings)


def test_torus2d_flow_reaches_target_metric():
    problem = _torus2d_problem(t_max=10.0, residual_target=1e-6,
                               cfl_safety=0.45)
    b = problem.backend
    result = run_flow(problem, named_potential(b, "sine", 0.05))
    assert result.converged and result.reason == "residual"
    assert result.suspect_steps == 0
    chi = build_metric(b, b.base_form(), result.state.phi)
    target = problem.omega.matrices / problem.level
    assert np.abs(chi.matrices - target).max() <= 1e-6


def test_torus2d_flow_dissipation_identity():
    # E falls on every step; each secant slope is within 15 % of the
    # trapezoid of its two rows' predicted dissipation (an O(spacing^2)
    # gap: 8.7 % at 16 x 16, 14.9 % at 12 x 12)
    problem = _torus2d_problem(t_max=0.05, log_every=1)
    result = run_flow(problem, named_potential(problem.backend, "sine", 0.05))
    rows = result.records
    assert result.state.t == 0.05 and len(rows) > 10
    assert result.suspect_steps == 0
    for prev, row in zip(rows[:-1], rows[1:]):
        assert row.E < prev.E
        trapezoid = 0.5 * (prev.dE_dt_predicted + row.dE_dt_predicted)
        assert abs(row.dE_dt_measured - trapezoid) <= 0.15 * abs(trapezoid)


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
@given(st.integers(3, 257).flatmap(
    lambda n: hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3))))
def test_periodic_neighbours_match_roll(phi):
    up, down = _periodic_neighbours(phi)
    assert np.array_equal(up, np.roll(phi, -1))
    assert np.array_equal(down, np.roll(phi, 1))
    grid = np.stack([phi, 2.0 * phi, phi[::-1]])
    for axis in (0, 1):
        up, down = _periodic_neighbours(grid, axis)
        assert np.array_equal(up, np.roll(grid, -1, axis))
        assert np.array_equal(down, np.roll(grid, 1, axis))


# Distinct entries give every flux a nonzero value, the end fluxes of the
# sphere stencil included, so a wrong end row cannot hide behind a flat
# draw; the fixed example checks one such draw on every run.
@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(8, 257).flatmap(
    lambda n: hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0),
                         unique=True)))
@example(np.random.default_rng(3).uniform(-1.0, 1.0, 40))
def test_kernel_stencils_match_roll_and_diff(raw):
    b = make_backend("torus", size=len(raw))
    kernel = _Kernel(b, b.base_form(), 1.0)
    phi = _stencil_potential(raw, b.spacing)
    lap = (np.roll(phi, -1) - 2.0 * phi + np.roll(phi, 1)) / b.spacing**2
    h = 1.0 + 0.25 * lap
    stage = kernel._stage(phi)
    assert np.array_equal(stage[0], h)
    sigma = -(kernel.om / h)
    dsig = (np.roll(sigma, -1) - np.roll(sigma, 1)) / (2.0 * b.spacing)
    want = -0.5 * float(np.sum(dsig * dsig * kernel.om / h) * b.weights)
    assert kernel.diagnostics(stage).dissipation == want
    if len(raw) < 16:  # the sphere's coarsest grid
        return
    b = make_backend("sphere", size=len(raw))
    kernel = _Kernel(b, b.base_form(), 1.0)
    phi = _stencil_potential(raw, b.spacing)
    flux = b.mprime_half * np.diff(phi) / b.delta
    div = np.concatenate(([flux[0]], flux[1:] - flux[:-1], [-flux[-1]]))
    rho, _ = kernel._stage(phi)
    assert np.array_equal(rho, b.rho0 + b.mprime * div / b.delta)


def _relative_gap(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.abs(got - want).max()) / max(float(np.abs(want).max()),
                                                 1e-300)


@pytest.mark.parametrize("geometry", ["torus", "sphere", "torus2d"])
def test_kernel_matches_oracle(geometry, torus128, sphere128):
    rng = np.random.default_rng(7)
    if geometry == "torus":
        b, omega = torus128, torus_target_form(torus128)
    elif geometry == "sphere":
        b, omega = sphere128, sphere128.base_form()
    else:
        # an anisotropic base and a target with off-diagonal entries
        b = make_backend("torus", dim=2, size=[12, 16],
                         base_matrix=[[1.0, 0.3], [0.3, 0.8]])
        psi = random_kahler_potential(b, rng, 0.5)
        omega = b.form(1.5 * build_metric(b, b.base_form(), psi).matrices)
    c = FlowProblem(backend=b, omega=omega).level
    for _ in range(3):
        phi = random_kahler_potential(b, rng, 0.5)
        want = oracles.flow_kernel_outputs(b, omega, c, phi)
        kernel = _Kernel(b, omega, c)
        stage = kernel._stage(phi)
        assert _relative_gap(kernel.rhs(stage), want["rhs"]) <= 1e-12
        assert _relative_gap(kernel.stiffness(stage), want["stiffness"]) <= 1e-12
        diag = kernel.diagnostics(stage)
        for name in _Diagnostics.__dataclass_fields__:
            assert _relative_gap(getattr(diag, name), want[name]) <= 1e-12, name


@pytest.mark.parametrize("method, builds_per_step", [("rk4", 4)])
def test_stage_builds_per_accepted_step(torus64, method, builds_per_step):
    # one start-up build; the diagnostics' stage serves the next step
    result = run_flow(FlowProblem(backend=torus64, omega=torus_target_form(torus64),
                                  method=method, t_max=0.02))
    stats, steps = result.stats, result.state.step_count
    assert steps > 100
    assert stats.rejected_positivity == stats.rejected_energy == 0
    assert stats.metric_builds == builds_per_step * steps + 1
    assert stats.rhs_evaluations == builds_per_step * steps + 1
    # growth steps run into the cap; the last step is cut to land on t_max
    assert 0 < stats.steps_at_cap < steps


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
def test_kernel_jacobian_matches_linearized_operator(case):
    b, omega, kernel, phi, _ = case
    jac = kernel.jacobian(kernel._stage(phi))
    op = linearized_operator(b, phi, omega)
    columns = np.column_stack([op.apply(e) for e in np.eye(b.grid_shape[0])])
    assert _relative_gap(jac, columns) <= 1e-12


@settings(max_examples=40, deadline=None, database=None)
@given(_jacobian_case())
def test_kernel_jacobian_matches_finite_differences(case):
    b, _, kernel, phi, rng = case
    psi = random_kahler_potential(b, rng, 0.5)
    h = 1e-6
    fd = (kernel.rhs(kernel._stage(phi + h * psi))
          - kernel.rhs(kernel._stage(phi - h * psi))) / (2.0 * h)
    assert _relative_gap(kernel.jacobian(kernel._stage(phi)) @ psi, fd) <= 1e-6


@settings(max_examples=40, deadline=None, database=None)
@given(_jacobian_case(), st.floats(-10.0, 10.0))
def test_kernel_is_blind_to_constant_shifts(case, shift):
    b, _, kernel, phi, _ = case
    jac = kernel.jacobian(kernel._stage(phi))
    scale = float(np.abs(jac).max())
    assert float(np.abs(jac @ np.ones(b.grid_shape)).max()) <= 1e-13 * scale
    # F(phi + a) = F(phi) up to the rounding of phi + a, which the
    # second differences amplify by about the Jacobian's size
    moved = kernel.rhs(kernel._stage(phi + shift)) - kernel.rhs(kernel._stage(phi))
    bound = 1e-14 * scale * (abs(shift) + float(np.abs(phi).max()))
    assert float(np.abs(moved).max()) <= bound


@settings(max_examples=40, deadline=None, database=None)
@given(_jacobian_case())
def test_kernel_jacobian_is_banded_with_nonnegative_off_diagonals(case):
    # the structure an unpivoted banded solve of I - gamma dt J rests on:
    # J is periodic tridiagonal on the torus line and tridiagonal plus the
    # one-sided end fills (0, 2) and (N-1, N-3) on the sphere, and every
    # off-diagonal entry but those fills is >= 0
    b, _, kernel, phi, _ = case
    jac = kernel.jacobian(kernel._stage(phi))
    size = jac.shape[0]
    rows = np.arange(size)
    off_diagonal = np.zeros_like(jac, dtype=bool)
    band = np.zeros_like(jac, dtype=bool)
    if isinstance(b, SphereBackend):
        off_diagonal[rows[1:], rows[:-1]] = off_diagonal[rows[:-1], rows[1:]] = True
        band[[0, size - 1], [2, size - 3]] = True
    else:
        off_diagonal[rows, (rows + 1) % size] = True
        off_diagonal[rows, (rows - 1) % size] = True
    band |= off_diagonal
    band[rows, rows] = True
    assert np.all(jac[~band] == 0.0)
    assert np.all(jac[off_diagonal] >= 0.0)
