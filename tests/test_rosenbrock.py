"""The linearly implicit RODAS3 method (flow.method = rosenbrock).

Criteria 2-4 of the acceptance gate run here for rosenbrock at RK4's
bounds; the gate itself stays on RK4.  Criterion 1's secant-against-
tangent comparison measures the time step once steps are large, so the
dissipation check below compares each secant slope with the mean, over
its interval, of a quadratic through the predicted dissipation of three
neighbouring rows instead.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from jflow import (
    FlowProblem,
    NotKahlerError,
    StepStalled,
    build_metric,
    make_backend,
    random_kahler_potential,
    run_flow,
)
from jflow.flow import (
    FLOW_METHODS,
    ROSENBROCK_GAMMA,
    _advance,
    _attempt_step,
    _ImplicitSolver,
    _Kernel,
    _rosenbrock,
    _start,
)
from test_acceptance import limit_density, torus_reference
from test_flow import (_jacobian_case, _make_kernel, dense_jacobian,
                       torus_target_form)


def _reference(b):
    return torus_reference(b) if b.name == "torus" else b.base_form()


@pytest.fixture(scope="module")
def limits():
    # each geometry flowed to its limit from a cold and a random start
    out = {}
    for kind, target, t_max, seed in (("torus", 1e-6, 500.0, 3),
                                      ("sphere", 1.7e-5, 5000.0, 11)):
        b = make_backend(kind, size=128)
        om = _reference(b)
        problem = FlowProblem(backend=b, omega=om, t_max=t_max,
                              residual_target=target, method="rosenbrock")
        phi0 = random_kahler_potential(b, np.random.default_rng(seed),
                                       amplitude=0.4)
        out[kind] = b, om, run_flow(problem), run_flow(problem, phi0=phi0)
    return out


def test_sandwich_on_random_starts():
    # criterion 2: rhs(t) inside the initial envelope, 10 starts each
    rng = np.random.default_rng(42)
    for kind in ("torus", "sphere"):
        b = make_backend(kind, size=64)
        om = _reference(b)
        tol = 1e-6 + 10.0 * b.spacing ** 2
        for _ in range(10):
            phi0 = random_kahler_potential(b, rng, amplitude=0.4)
            res = run_flow(FlowProblem(backend=b, omega=om, t_max=0.5,
                                       log_every=1, method="rosenbrock"),
                           phi0=phi0)
            lo = res.records[0].rhs_min - tol
            hi = res.records[0].rhs_max + tol
            assert all(r.rhs_min >= lo for r in res.records)
            assert all(r.rhs_max <= hi for r in res.records)
            assert res.suspect_steps == 0


def test_limits_match_references(limits):
    # criterion 3: omega / c on the torus, the collocation oracle on the
    # sphere
    b, om, first, _ = limits["torus"]
    assert first.converged
    assert np.max(np.abs(limit_density(b, first) - om.density / 2.0)) < 1e-6

    sb, som, sfirst, _ = limits["sphere"]
    assert sfirst.converged
    phi_col, kappa, col_residual = oracles.sphere_collocation(
        sb, som.density, 1.0)
    assert col_residual < 1e-10
    rho_col = build_metric(sb, sb.base_form(), phi_col).density
    assert np.max(np.abs(limit_density(sb, sfirst) - rho_col)) < 1e-5
    # theta integrates to zero against every metric's volume, so the
    # limit does not drift and the oracle needs no level shift: both are
    # round-off, and the final right-hand side, of zero mean, straddles 0
    assert abs(sfirst.kappa) < 1e-14
    assert abs(kappa) < 1e-14
    assert sfirst.residual <= sfirst.rhs_spread


def test_limit_uniqueness(limits):
    # criterion 4: a cold and a random start reach the same metric
    for kind in ("torus", "sphere"):
        b, _, first, second = limits[kind]
        assert second.converged
        gap = np.max(np.abs(limit_density(b, first)
                            - limit_density(b, second)))
        assert gap < 1e-5, kind


def _interval_mean(times, values, lo, hi):
    """The mean over [lo, hi] of the quadratic through (times, values)."""
    antiderivative = np.polyint(np.polyfit(np.asarray(times) - lo, values, 2))
    return np.polyval(antiderivative, hi - lo) / (hi - lo)


def test_dissipation_matches_quadratic_of_predictions():
    # each row's secant slope against the mean, over its interval, of the
    # quadratic through the predicted dE/dt at the interval's two rows and
    # the nearer neighbouring row, within 1 %.  The trapezoid rule's own
    # O(dt^2) error reaches 1.2 % at RODAS3's step sizes
    for kind in ("torus", "sphere"):
        for size in (256, 512):
            b = make_backend(kind, size=size)
            res = run_flow(FlowProblem(backend=b, omega=_reference(b),
                                       t_max=0.05, log_every=1,
                                       method="rosenbrock"))
            rows = res.records
            assert res.state.t == 0.05 and res.suspect_steps == 0
            assert len(rows) >= 3
            t = [r.t for r in rows]
            for i in range(1, len(rows)):
                before = t[i - 1] - t[i - 2] if i >= 2 else np.inf
                after = t[i + 1] - t[i] if i + 1 < len(rows) else np.inf
                third = i - 2 if before < after else i + 1
                picked = [rows[j] for j in (i - 1, i, third)]
                mean = _interval_mean([r.t for r in picked],
                                      [r.dE_dt_predicted for r in picked],
                                      t[i - 1], t[i])
                assert abs(rows[i].dE_dt_measured - mean) \
                    <= 0.01 * abs(mean), (kind, size, t[i])


def test_single_step_has_local_order_three(torus64):
    # one RODAS3 step against RK4 with 1000 substeps: each halving of dt
    # cuts the gap by at least 6
    kernel = _make_kernel(FlowProblem(backend=torus64,
                                      omega=torus_target_form(torus64),
                                      method="rosenbrock"))
    phi0 = np.zeros(torus64.grid_shape)
    stage = kernel._stage(phi0)
    gaps = []
    for dt in (2e-3, 1e-3, 5e-4, 2.5e-4):
        ros, _ = _rosenbrock(kernel, phi0, stage, dt)
        phi = phi0
        for _ in range(1000):
            phi = _advance(kernel, phi, kernel._stage(phi), dt / 1000)
        gaps.append(float(np.abs(ros - phi).max()))
    ratios = [a / b for a, b in zip(gaps[:-1], gaps[1:])]
    assert min(ratios) >= 6.0, ratios


def test_single_step_local_error_is_fourth_order(torus64):
    # RODAS3 has order three, so its local error is O(dt^4): against RK4
    # with 1000 substeps each halving of dt cuts the gap by at least 10
    # (16 in the limit)
    kernel = _make_kernel(FlowProblem(backend=torus64,
                                      omega=torus_target_form(torus64),
                                      method="rosenbrock"))
    phi0 = np.zeros(torus64.grid_shape)
    stage = kernel._stage(phi0)
    gaps = []
    for dt in (4e-3, 2e-3, 1e-3, 5e-4):
        ros, _ = _rosenbrock(kernel, phi0, stage, dt)
        phi = phi0
        for _ in range(1000):
            phi = _advance(kernel, phi, kernel._stage(phi), dt / 1000)
        gaps.append(float(np.abs(ros - phi).max()))
    ratios = [a / b for a, b in zip(gaps[:-1], gaps[1:])]
    assert min(ratios) >= 10.0, ratios


def test_error_estimate_is_third_order(torus64):
    # the estimate U4 is the gap to the embedded second-order solution,
    # O(dt^3): each halving of dt cuts it by at least 6 (8 in the limit)
    kernel = _make_kernel(FlowProblem(backend=torus64,
                                      omega=torus_target_form(torus64),
                                      method="rosenbrock"))
    phi0 = np.zeros(torus64.grid_shape)
    stage = kernel._stage(phi0)
    errors = [_rosenbrock(kernel, phi0, stage, dt)[1]
              for dt in (4e-3, 2e-3, 1e-3, 5e-4)]
    ratios = [a / b for a, b in zip(errors[:-1], errors[1:])]
    assert min(ratios) >= 6.0, ratios


def test_large_steps_damp_the_nyquist_mode():
    # L-stability: from a converged state at N = 64, one step at dt = 1e2
    # or 1e4 shrinks a 1e-9 sawtooth perturbation, mean removed, below
    # 1e-2 of its size
    bump = 1e-9 * (-1.0) ** np.arange(64)
    for kind, target in (("torus", 1e-8), ("sphere", 7e-5)):
        b = make_backend(kind, size=64)
        problem = FlowProblem(backend=b, omega=_reference(b), t_max=500.0,
                              residual_target=target, method="rosenbrock")
        result = run_flow(problem)
        assert result.converged
        kernel, phi = _make_kernel(problem), result.state.phi
        for dt in (1e2, 1e4):
            base, _ = _rosenbrock(kernel, phi, kernel._stage(phi), dt)
            moved, _ = _rosenbrock(kernel, phi + bump,
                                   kernel._stage(phi + bump), dt)
            left = moved - base
            left -= left.mean()
            assert np.abs(left).max() < 1e-2 * 1e-9, (kind, dt)


@st.composite
def _implicit_case(draw):
    """A Jacobian case (a random Kahler target and stage on the torus line
    or the sphere, N = 16-96) and a step dt from 1e-6 to 100."""
    b, omega, kernel, phi, rng = draw(_jacobian_case())
    return b, kernel, phi, 10.0 ** draw(st.floats(-6.0, 2.0))


def _probed_implicit_matrix(b, kernel, stage, gamma_dt):
    # np.eye(N) - gamma_dt J, J probed column by column through the public
    # stencils
    basis = np.eye(b.grid_shape[0])
    d_rho = np.column_stack([b.complex_hessian(e)[:, 0, 0] for e in basis])
    d_theta = np.column_stack([b.vector_field_action(e) for e in basis])
    jac = d_theta + (kernel.om / stage[0]**2)[:, None] * d_rho
    return basis - gamma_dt * jac, jac


@settings(max_examples=60, deadline=None, database=None)
@given(_implicit_case())
def test_implicit_bands_equal_the_probed_matrix(case):
    # every band of I - gamma dt J, periodic corners included,
    # equals the probed dense matrix's entry exactly, and the matrix has
    # no entry outside them
    b, kernel, phi, dt = case
    stage = kernel._stage(phi)
    gamma_dt = ROSENBROCK_GAMMA * dt
    want, jac = _probed_implicit_matrix(b, kernel, stage, gamma_dt)
    assert np.array_equal(dense_jacobian(kernel.jacobian_bands(stage)), jac)
    got = dense_jacobian(kernel.implicit_bands(stage, gamma_dt))
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None, database=None)
@given(_implicit_case())
def test_banded_stages_match_the_dense_solve(case):
    # U1 and U2 of one RODAS3 step against np.linalg.solve on the probed
    # matrix A, to 1e-12 of |A| |U|: at dt = 100, A's condition number
    # reaches 1e7, and the dense solve itself then errs by about 1e-11
    # of |U| against a solution refined in extended precision
    b, kernel, phi, dt = case
    stage = kernel._stage(phi)
    gamma_dt = ROSENBROCK_GAMMA * dt
    matrix, _ = _probed_implicit_matrix(b, kernel, stage, gamma_dt)
    scale = float(np.abs(matrix).sum(axis=1).max())
    solver = _ImplicitSolver(kernel.implicit_bands(stage, gamma_dt),
                             b.periodic)
    f0 = gamma_dt * stage.rhs
    u1 = solver.solve(f0)
    checks = [(f0, u1), (f0 + 2.0 * u1, solver.solve(f0 + 2.0 * u1))]
    for rhs, k in checks:
        dense = np.linalg.solve(matrix, rhs)
        assert np.abs(k - dense).max() <= 1e-12 * scale * np.abs(dense).max()


def _spiked_sphere_start(b, node, factor):
    """A sphere potential whose density is factor times the base density
    at `node` and a constant fraction of it elsewhere: the flux-form
    Hessian inverted by two cumulative sums."""
    offset = b.rho0 * ((factor - 1.0) * (np.arange(b.size) == node)
                       - (factor - 1.0) / b.size)
    flux = np.cumsum(offset * b.delta / b.mprime)[:-1]
    return np.concatenate(([0.0], np.cumsum(flux * b.delta / b.mprime_half)))


def test_dominance_failure_is_rejected_and_halved(sphere64):
    # at about 40 times the base density the advective entry of J's lower
    # band outweighs the diffusive one, so I - gamma dt J loses diagonal
    # dominance at a large step; the attempt is counted and halved
    phi0 = _spiked_sphere_start(sphere64, 32, 40.0)
    problem = FlowProblem(backend=sphere64, omega=sphere64.base_form(),
                          method="rosenbrock", dt_init=1.0, t_max=50.0)
    kernel = _make_kernel(problem)
    state, stage = _start(problem, kernel, phi0)
    assert stage[0][32] / sphere64.rho0[32] == pytest.approx(40.0 - 39.0 / 64)
    assert dense_jacobian(kernel.jacobian_bands(stage))[32, 31] < 0.0
    retried, same_stage, energy = _attempt_step(problem, kernel, state, stage,
                                                kernel.energy(stage))
    assert energy is None and same_stage is stage
    assert retried.dt == 0.5 * state.dt
    stats = kernel.stats
    assert stats.rejected_dominance == 1
    assert stats.rejected_positivity == stats.rejected_energy \
        == stats.rejected_error == 0
    try:
        result = run_flow(problem, phi0)
    except StepStalled:
        return
    assert result.stats.rejected_dominance > 0
    assert result.state.step_count > 0


def test_error_estimate_sets_the_step(sphere64):
    # an oversized first step is rejected on its error estimate, not
    # capped; each stage carries its right-hand side, an accepted step
    # builds three stages and an error-rejected attempt two (its trial's
    # stage is never built, and its first stage is the state's own), and
    # no step is at the stiffness cap
    problem = FlowProblem(backend=sphere64, omega=sphere64.base_form(),
                          method="rosenbrock", dt_init=10.0, t_max=1.0)
    result = run_flow(problem)
    stats, steps = result.stats, result.state.step_count
    assert stats.rejected_error > 0
    assert stats.rejected_positivity == stats.rejected_energy == 0
    assert stats.steps_at_cap == 0
    builds = 3 * steps + 2 * stats.rejected_error + 1
    assert stats.rhs_evaluations == stats.metric_builds == builds
    assert result.suspect_steps == 0
    # the controller grows the step well past the explicit cap
    cap = problem.cfl_safety * sphere64.spacing ** 2 / 0.25
    assert max(r.dt for r in result.records) > 100.0 * cap


def test_error_estimate_ignores_the_drift_mode(sphere64):
    # F = const: J 1 = 0 gives U1 = dt F / 2 and U2 = 3 dt F / 2, so U3 and
    # the estimate U4 are zero up to the rounding of the solves
    kernel = _make_kernel(FlowProblem(backend=sphere64,
                                      omega=sphere64.base_form(),
                                      method="rosenbrock"))
    phi = random_kahler_potential(sphere64, np.random.default_rng(1), 0.3)
    stage = kernel._stage(phi)._replace(
        rhs=np.full(sphere64.grid_shape, 0.25))
    kernel._stage = lambda phi: stage
    trial, error = _rosenbrock(kernel, phi, stage, 0.1)
    assert error <= 1e-14
    assert np.abs(trial - (phi + 0.1 * 0.25)).max() <= 1e-14


@settings(max_examples=30, deadline=None, database=None)
@given(method=st.sampled_from(FLOW_METHODS),
       geometry=st.sampled_from(["torus", "sphere"]),
       seed=st.integers(0, 2**32 - 1),
       margin=st.floats(0.01, 0.5))
def test_positivity_loss_becomes_a_halving(method, geometry, seed, margin):
    # random Kahler starts close to the cone's edge and oversized steps:
    # cfl_safety lifts the explicit cap that clips dt_init.  The run
    # returns or stalls; every positivity loss is counted as a rejection
    b = make_backend(geometry, size=64)
    omega = torus_target_form(b) if geometry == "torus" else b.base_form()
    phi0 = random_kahler_potential(b, np.random.default_rng(seed), 10.0,
                                   margin=margin)
    problem = FlowProblem(backend=b, omega=omega, method=method,
                          dt_init=10.0, cfl_safety=20.0, max_steps=4,
                          t_max=50.0)
    build = _Kernel._stage
    losses = []

    def counted(self, phi):
        try:
            return build(self, phi)
        except NotKahlerError:
            losses.append(phi)
            raise

    with mock.patch.object(_Kernel, "_stage", counted):
        try:
            result = run_flow(problem, phi0)
        except StepStalled:
            return
    assert result.stats.rejected_positivity == len(losses)


def test_rosenbrock_positivity_loss_is_retried():
    # RODAS3 keeps random smooth starts positive even at dt = 10; a density
    # peaked to 3.7 times its mean makes the linearized step overshoot
    b = make_backend("torus", size=64)
    raw = random_kahler_potential(b, np.random.default_rng(1), 1.0)
    density = np.exp(2.0 * raw / np.abs(raw).max())
    phi0 = oracles.hessian_offset_potential(b, density / density.mean() - 1.0)
    result = run_flow(FlowProblem(backend=b, omega=torus_target_form(b),
                                  method="rosenbrock", dt_init=10.0,
                                  t_max=50.0), phi0)
    assert result.stats.rejected_positivity > 0
    assert result.converged and result.suspect_steps == 0
