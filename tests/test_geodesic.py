import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import make_interp_spline

from jflow import (
    ConvexityLost,
    FUNCTIONAL_IDS,
    FlowProblem,
    GeometryError,
    NotKahlerError,
    SymplecticPotential,
    UnsupportedBackend,
    aubin_i,
    aubin_j,
    build_metric,
    convexity_probe,
    entropy,
    geodesic_path,
    geodesic_residual,
    integrate,
    j_flow,
    j_hat,
    j_tilde,
    k_energy,
    k_energy_modified,
    legendre_inverse,
    legendre_transform,
    named_potential,
    random_kahler_potential,
    run_flow,
)
from jflow.geodesic import TAIL_SLIVER, _moment_derivative, _Quintic
from jflow.geometry import SphereBackend


def round_chart_dual(backend):
    m = backend.m
    return m * np.log(m) + (1.0 - m) * np.log1p(-m)


def chord(phi_a, phi_b, nodes):
    return [(1.0 - t) * phi_a + t * phi_b for t in np.linspace(0.0, 1.0, nodes)]


# --- quintic spline ----------------------------------------------------------

@settings(max_examples=40, deadline=None, database=None)
@given(size=st.integers(16, 257), two_columns=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_quintic_matches_scipy_spline(size, two_columns, seed):
    # the spline of make_interp_spline(m, y, k=5): values and the first two
    # derivatives at the nodes, between them and across both boundary gaps
    m = SphereBackend(size).m
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((size, 2) if two_columns else size)
    y += np.sin(rng.uniform(1.0, 9.0) * m)[(slice(None),) + (None,) * (y.ndim - 1)]
    gap = np.linspace(TAIL_SLIVER * m[0], m[0], 7)
    x = np.concatenate([gap, m, 0.5 * (m[1:] + m[:-1]), 1.0 - gap])
    oracle = make_interp_spline(m, y, k=5)
    # one row per column, each evaluated at every x
    columns = 2 if two_columns else 1
    spline = _Quintic(m, y, np.eye(columns))
    h = m[1] - m[0]
    for nu, got in enumerate(spline(np.tile(x, (columns, 1)), 0, 1, 2)):
        want = oracle(x, nu).reshape(x.size, columns).T
        assert got.shape == want.shape
        # Relative to the size a nu-th derivative of data this large can
        # reach on this grid: both evaluations round at that scale.
        scale = max(np.abs(want).max(), np.abs(y).max() / h**nu)
        assert np.abs(got - want).max() <= 1e-12 * scale


@settings(max_examples=40, deadline=None, database=None)
@given(size=st.integers(16, 257), rows=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_spline_rows_match_weighted_columns(size, rows, seed):
    # each row's spline, with the weights folded into its coefficients
    # once, evaluated at that row's own points, is the weighted sum of the
    # two column splines evaluated there
    m = SphereBackend(size).m
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((size, 2)) + np.sin(rng.uniform(1.0, 9.0) * m)[:, None]
    weights = rng.uniform(-2.0, 2.0, (rows, 2))
    x = rng.uniform(TAIL_SLIVER * m[0], 1.0 - TAIL_SLIVER * m[0], (rows, 2 * size))
    x[:, :size] = m
    # the two column splines, as rows of identity weights, each evaluated
    # at every row's points
    columns = _Quintic(m, y, np.eye(2))(np.tile(x.ravel(), (2, 1)), 0, 1, 2)
    h = m[1] - m[0]
    data = np.abs(np.einsum("ij,rj->ri", y, weights)).max()
    for nu, (got, col) in enumerate(zip(_Quintic(m, y, weights)(x, 0, 1, 2),
                                        columns)):
        want = np.einsum("jrk,rj->rk", col.reshape((2,) + x.shape), weights)
        assert got.shape == want.shape == x.shape
        scale = max(np.abs(want).max(), data / h**nu)
        assert np.abs(got - want).max() <= 1e-12 * scale


def test_paired_endpoint_transform_matches_legendre_transform(sphere128, rng,
                                                              monkeypatch):
    # geodesic_path transforms both endpoints in one two-row solve; each
    # row is the public one-row transform of that endpoint up to round-off
    import jflow.geodesic as geodesic
    paired = []
    transform_rows = geodesic._transform_rows

    def spy(sphere, phis):
        paired.append(transform_rows(sphere, phis))
        return paired[-1]

    monkeypatch.setattr(geodesic, "_transform_rows", spy)
    for _ in range(3):
        pa = random_kahler_potential(sphere128, rng, 0.5)
        pb = random_kahler_potential(sphere128, rng, 0.5)
        paired.clear()
        geodesic_path(sphere128, pa, pb, 5)
        ends = paired[0]
        assert ends.shape == (2, 128)
        for row, phi in zip(ends, (pa, pb)):
            want = legendre_transform(sphere128, phi).values
            assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max()


def test_probe_path_is_blas_free_with_a_small_cache(monkeypatch):
    # the spline fit and the solves call no dense solver, and what the fit
    # caches per grid is the N x N inverse and O(N) local tables, not the
    # 6N x N values-to-Taylor map
    import jflow.geodesic as geodesic

    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra on the probe path")

    for name in ("solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    geodesic._quintic_fit.cache_clear()
    b = SphereBackend(80)
    rng = np.random.default_rng(80)
    path = geodesic_path(b, random_kahler_potential(b, rng, 0.5),
                         random_kahler_potential(b, rng, 0.5), 9)
    assert convexity_probe(b, "j_tilde", path).values.shape == (9,)
    assert geodesic._quintic_fit.cache_info().currsize == 1
    # the buffers behind the arrays count, not only their views
    cached = geodesic._quintic_fit(b.m.tobytes())
    assert max((arr if arr.base is None else arr.base).size
               for arr in cached) <= b.size**2


# --- transform ---------------------------------------------------------------

def test_reference_dual_closed_form(sphere128):
    u = legendre_transform(sphere128, np.zeros(sphere128.grid_shape))
    assert u.convex
    assert np.abs(u.values - round_chart_dual(sphere128)).max() < 1e-12


def test_constant_shift_moves_dual_oppositely(sphere128, rng):
    phi = random_kahler_potential(sphere128, rng, 0.3)
    u = legendre_transform(sphere128, phi)
    shifted = legendre_transform(sphere128, phi + 2.5)
    assert np.abs((shifted.values + 2.5) - u.values).max() < 1e-10


def test_translation_dual_is_linear_tilt(sphere256):
    # chart translation by a tilts the dual by -a m exactly
    a = 1.0
    phi = named_potential(sphere256, "translation", amplitude=a)
    u = legendre_transform(sphere256, phi)
    want = round_chart_dual(sphere256) - a * sphere256.m
    assert np.abs(u.values - want).max() < 1e-8


def test_round_trip_random_potentials(sphere256, rng):
    for amp in (0.3, 0.5):
        phi = random_kahler_potential(sphere256, rng, amp)
        back = legendre_inverse(sphere256, legendre_transform(sphere256, phi))
        assert np.abs(back - phi).max() < 1e-9


@settings(max_examples=30, deadline=None, database=None)
@given(size=st.integers(64, 256), seed=st.integers(0, 2**32 - 1),
       amplitude=st.floats(0.0, 0.5, exclude_min=True))
def test_round_trip_on_random_grids(size, seed, amplitude):
    # the round trip is exact up to the quintic's interpolation error,
    # largest at the end nodes, whose roots lie in the boundary gaps where
    # the end pieces are extrapolated: in one run of 2,000 random draws it
    # reached 815 spacing^4 (8.8e-6 at N = 98), and exceeded the fixed
    # draws' 1e-9 above in 908 of them.  The bound is not always met: at
    # N = 232, seed 1000576510, amplitude 0.29838423918060997 the error
    # is 9.15e-7 at node 231, 2,652 spacing^4 against 2e3 (about 1 draw in
    # 2,000, so a run of 30 fresh draws fails about once in 70 runs)
    b = SphereBackend(size)
    phi = random_kahler_potential(b, np.random.default_rng(seed), amplitude)
    back = legendre_inverse(b, legendre_transform(b, phi))
    assert np.abs(back - phi).max() < 2e3 * b.delta**4


def test_round_trip_translation_family(sphere256):
    phi = named_potential(sphere256, "translation", amplitude=2.0)
    back = legendre_inverse(sphere256, legendre_transform(sphere256, phi))
    assert np.abs(back - phi).max() < 1e-12


def test_forward_transform_leaves_chart():
    # a steep translation pushes the sup into the unresolved moment tail;
    # the grid must be fine enough that positivity itself still holds
    from jflow import make_backend
    b = make_backend("sphere", size=512)
    phi = named_potential(b, "translation", amplitude=8.0)
    from jflow import kahler_margin
    assert kahler_margin(b, phi) > -1.0
    with pytest.raises(ConvexityLost):
        legendre_transform(b, phi)


def test_inverse_transform_slope_out_of_range(sphere128):
    u = round_chart_dual(sphere128) + 7.0 * sphere128.m
    with pytest.raises(ConvexityLost):
        legendre_inverse(sphere128, u)


def _reported_ranges(message):
    """The gradient range and the targets a ConvexityLost message names."""
    numbers = [float(v) for v in re.findall(r"-?\d+\.\d{8}", message)]
    assert len(numbers) == 4, message
    return numbers[:2], numbers[2:]


def test_both_directions_report_the_failing_row_and_its_range():
    # Row 1 of each two-row solve leaves the chart: the message names the
    # direction, that row, its gradient's range at the bracket ends and
    # the targets that range fails to cover
    import jflow.geodesic as geodesic
    b = SphereBackend(512)
    steep = named_potential(b, "translation", amplitude=8.0)
    with pytest.raises(ConvexityLost) as lost:
        geodesic_path(b, np.zeros(b.grid_shape), steep, 3)
    message = str(lost.value)
    assert message.startswith("legendre transform: ")
    assert "row 1's " in message
    (lo, hi), targets = _reported_ranges(message)
    assert targets == [round(b.m[0], 8), round(b.m[-1], 8)]
    assert lo > targets[0] or hi < targets[1]

    b = SphereBackend(128)
    bracket = np.array([TAIL_SLIVER * b.m_lo, 1.0 - TAIL_SLIVER * b.m_lo])
    deviations = np.stack([np.zeros(b.size), 7.0 * b.m], axis=1)
    with pytest.raises(ConvexityLost) as lost:
        geodesic._inverse_rows(b, deviations, np.eye(2))
    message = str(lost.value)
    assert message.startswith("inverse legendre transform: ")
    assert "row 1's " in message
    got, targets = _reported_ranges(message)
    # u = u0 + 7 m has slope log(x / (1 - x)) + 7
    want = np.log(bracket) - np.log1p(-bracket) + 7.0
    assert np.abs(np.array(got) - want).max() <= 2e-8
    assert np.abs(np.array(targets) - b.s[[0, -1]]).max() <= 1e-8
    assert got[0] > targets[0]


def test_inverse_converges_in_few_solver_evaluations(sphere128, rng,
                                                    monkeypatch):
    import jflow.geodesic as geodesic
    calls = []
    solve = geodesic._solve_monotone

    def counting(func, *args):
        def counted(x):
            calls.append(1)
            return func(x)
        return solve(counted, *args)

    u = legendre_transform(sphere128, random_kahler_potential(sphere128, rng, 0.5))
    monkeypatch.setattr(geodesic, "_solve_monotone", counting)
    legendre_inverse(sphere128, u)
    assert 0 < len(calls) <= 10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_transform_refuses_non_finite_and_non_kahler_potentials(sphere64, rng):
    for bad in (np.nan, np.inf):
        phi = np.zeros(sphere64.grid_shape)
        phi[5] = bad
        with pytest.raises(GeometryError):
            legendre_transform(sphere64, phi)
    with pytest.raises(NotKahlerError, match="legendre transform"):
        legendre_transform(sphere64, rng.normal(size=sphere64.grid_shape))


def test_inverse_shape_checked(sphere128):
    with pytest.raises(GeometryError):
        legendre_inverse(sphere128, np.zeros(7))


def test_torus_is_refused(torus64, rng):
    phi = random_kahler_potential(torus64, rng, 0.2)
    with pytest.raises(UnsupportedBackend):
        legendre_transform(torus64, phi)
    with pytest.raises(UnsupportedBackend):
        legendre_inverse(torus64, np.zeros(64))
    with pytest.raises(UnsupportedBackend):
        geodesic_path(torus64, phi, phi, 5)
    with pytest.raises(UnsupportedBackend):
        geodesic_residual(torus64, [phi, phi, phi])
    with pytest.raises(UnsupportedBackend):
        convexity_probe(torus64, "entropy", [phi, phi, phi])


def test_symplectic_potential_convexity_flag():
    assert SymplecticPotential.from_values([0.0, 0.0, 0.0]).convex
    bent = SymplecticPotential.from_values([0.0, 1.0, 0.0])
    assert not bent.convex
    assert bent.second_differences()[0] == -2.0
    with pytest.raises(GeometryError):
        SymplecticPotential.from_values([0.0, np.nan])


# --- geodesics ---------------------------------------------------------------

def test_path_endpoints_reproduce(sphere256):
    pa = np.zeros(sphere256.grid_shape)
    pb = named_potential(sphere256, "translation", amplitude=1.0)
    path = geodesic_path(sphere256, pa, pb, 5)
    assert len(path) == 5
    assert np.abs(path[0] - pa).max() < 1e-9
    assert np.abs(path[-1] - pb).max() < 1e-9


def test_path_matches_per_node_inverse(sphere128, rng):
    pa = random_kahler_potential(sphere128, rng, 0.5)
    pb = random_kahler_potential(sphere128, rng, 0.5)
    path = geodesic_path(sphere128, pa, pb, 17)
    ua = legendre_transform(sphere128, pa).values
    ub = legendre_transform(sphere128, pb).values
    for t, phi_t in zip(np.linspace(0.0, 1.0, 17), path):
        want = legendre_inverse(sphere128, (1.0 - t) * ua + t * ub)
        assert np.abs(phi_t - want).max() <= 1e-12


def test_path_needs_two_samples(sphere128):
    with pytest.raises(GeometryError):
        geodesic_path(sphere128, np.zeros(sphere128.grid_shape),
                      np.zeros(sphere128.grid_shape), 1)


def test_path_is_affine_in_the_dual_variable(sphere128):
    pa = np.zeros(sphere128.grid_shape)
    pb = named_potential(sphere128, "translation", amplitude=1.0)
    path = geodesic_path(sphere128, pa, pb, 17)
    ua = legendre_transform(sphere128, pa).values
    ub = legendre_transform(sphere128, pb).values
    um = legendre_transform(sphere128, path[8]).values
    assert np.abs(um - 0.5 * (ua + ub)).max() < 1e-10
    # and genuinely curved on the chart side
    assert np.abs(path[8] - 0.5 * (pa + pb)).max() > 1e-2


def test_constant_endpoints_give_constant_path(sphere128):
    path = geodesic_path(sphere128, np.zeros(sphere128.grid_shape),
                         np.full(sphere128.grid_shape, 2.0), 7)
    for t, p in zip(np.linspace(0.0, 1.0, 7), path):
        assert np.abs(p - 2.0 * t).max() < 1e-9


def test_residual_decays_with_node_count(sphere256):
    pa = np.zeros(sphere256.grid_shape)
    pb = named_potential(sphere256, "translation", amplitude=1.0)
    res = {n: geodesic_residual(sphere256, geodesic_path(sphere256, pa, pb, n))
           for n in (9, 17, 33)}
    assert res[33] < 1e-4
    assert res[9] / res[17] > 3.5
    assert res[17] / res[33] > 3.5


def test_residual_flags_non_geodesic(sphere256):
    pa = np.zeros(sphere256.grid_shape)
    pb = named_potential(sphere256, "translation", amplitude=1.0)
    path = geodesic_path(sphere256, pa, pb, 17)
    geo = geodesic_residual(sphere256, path)
    lin = geodesic_residual(sphere256, chord(pa, pb, 17))
    assert lin > 100.0 * geo
    # the stacked residual is the node-by-node one, bit for bit, with X
    # as m (1 - m) times the central moment derivative
    dt = 1.0 / 16

    def action(f):
        return sphere256.mprime * _moment_derivative(f, sphere256.delta)

    worst = max(np.abs(
        (path[k + 1] - 2.0 * path[k] + path[k - 1]) / dt**2
        - action((path[k + 1] - path[k - 1]) / (2.0 * dt))**2
        / sphere256.metric(path[k], "node")).max() for k in range(1, 16))
    assert geo == worst


def test_residual_refuses_non_kahler_nodes(sphere64):
    # the chord's interior nodes are not Kahler: dividing by their density
    # would give a finite residual (253.8 here) that means nothing
    bump = -3.0 * np.sin(4.0 * np.pi * sphere64.m)
    with pytest.raises(NotKahlerError, match="geodesic residual"):
        geodesic_residual(sphere64, chord(0.0 * bump, bump, 5))


def test_residual_needs_three_nodes(sphere128):
    z = np.zeros(sphere128.grid_shape)
    with pytest.raises(GeometryError):
        geodesic_residual(sphere128, [z, z])


# --- convexity probes --------------------------------------------------------

def test_functional_id_roster():
    assert FUNCTIONAL_IDS == ("entropy", "i", "j", "k_energy",
                              "k_energy_modified", "mean",
                              "j_flow", "j_hat", "j_tilde")


def test_probe_rejects_unknown_id(sphere128):
    z = np.zeros(sphere128.grid_shape)
    with pytest.raises(GeometryError):
        convexity_probe(sphere128, "volume", [z, z, z])
    with pytest.raises(GeometryError):
        convexity_probe(sphere128, "entropy", [z, z])


def test_probe_report_alignment(sphere128):
    pa = np.zeros(sphere128.grid_shape)
    pb = named_potential(sphere128, "translation", amplitude=1.0)
    path = geodesic_path(sphere128, pa, pb, 9)
    rep = convexity_probe(sphere128, "j_tilde", path)
    assert rep.functional_id == "j_tilde"
    assert np.array_equal(rep.ts, np.linspace(0.0, 1.0, 9))
    assert rep.values.shape == (9,)
    assert rep.second_differences.shape == (7,)
    k = int(np.argmin(rep.second_differences))
    assert rep.min_second_difference == rep.second_differences[k]
    assert rep.t_at_min == rep.ts[k + 1]


def _scalar_functional(functional_id, backend, phi, omega):
    if functional_id == "mean":
        return integrate(backend, phi) / backend.volume
    if functional_id == "k_energy_modified":
        return k_energy_modified(backend, phi)[1]
    if functional_id in ("j_hat", "j_tilde", "j_flow"):
        return SCALARS[functional_id](backend, omega, phi)
    return SCALARS[functional_id](backend, phi)


SCALARS = {"i": aubin_i, "j": aubin_j, "entropy": entropy,
           "k_energy": k_energy, "j_hat": j_hat, "j_tilde": j_tilde,
           "j_flow": j_flow}


@pytest.mark.parametrize("functional_id", FUNCTIONAL_IDS)
def test_probe_walk_matches_scalar_functionals(functional_id, sphere64, rng):
    # one stacked walk of the path gives every node the bits of the public
    # scalar functional at that node, with the default and another omega
    pa = random_kahler_potential(sphere64, rng, 0.5)
    pb = random_kahler_potential(sphere64, rng, 0.5)
    path = geodesic_path(sphere64, pa, pb, 7)
    omega = build_metric(sphere64, sphere64.base_form(),
                         random_kahler_potential(sphere64, rng, 0.3))
    for om in (None, omega):
        rep = convexity_probe(sphere64, functional_id, path, om)
        want = [_scalar_functional(functional_id, sphere64, phi,
                                   sphere64.base_form() if om is None else om)
                for phi in path]
        assert np.array_equal(rep.values, np.array(want))


def test_probe_refuses_non_kahler_nodes(sphere64):
    # one stacked metric check per walk node still names its context
    bump = -3.0 * np.sin(4.0 * np.pi * sphere64.m)
    for functional_id, context in (("j_tilde", "path quadrature node"),
                                   ("i", "aubin energies"),
                                   ("entropy", "entropy")):
        with pytest.raises(NotKahlerError, match=context):
            convexity_probe(sphere64, functional_id, chord(0.0 * bump, bump, 5))


def test_mean_is_linear_along_chords(sphere256):
    pa = named_potential(sphere256, "translation", amplitude=-2.0)
    pb = named_potential(sphere256, "translation", amplitude=2.0)
    rep = convexity_probe(sphere256, "mean", chord(pa, pb, 17))
    assert np.abs(rep.second_differences).max() < 1e-12


def test_j_tilde_convex_along_geodesics(sphere128):
    pa = np.zeros(sphere128.grid_shape)
    pb = named_potential(sphere128, "translation", amplitude=1.0)
    path = geodesic_path(sphere128, pa, pb, 17)
    rep = convexity_probe(sphere128, "j_tilde", path)
    assert rep.min_second_difference >= -1e-6


def test_chord_concavity_for_weak_reference_form(sphere256):
    # along the straight chart chord between opposite translations the
    # j_tilde Hessian loses to the velocity cross term once the
    # reference form is small: convexity is a geodesic statement, not a
    # chord statement
    pa = named_potential(sphere256, "translation", amplitude=-2.0)
    pb = named_potential(sphere256, "translation", amplitude=2.0)
    path = chord(pa, pb, 17)
    weak = 0.05 * sphere256.base_form().matrices
    rep = convexity_probe(sphere256, "j_tilde", path, omega=weak)
    assert rep.min_second_difference < -1e-3
    # the probe reports rather than rejects
    assert rep.values.shape == (17,)


def test_chord_concavity_of_modified_k_energy(sphere256):
    pa = named_potential(sphere256, "translation", amplitude=-2.0)
    pb = named_potential(sphere256, "translation", amplitude=2.0)
    rep = convexity_probe(sphere256, "k_energy_modified", chord(pa, pb, 17))
    assert rep.min_second_difference < -1e-2


def test_flow_limit_minimizes_descent_potential(sphere64, rng):
    problem = FlowProblem(backend=sphere64, omega=sphere64.base_form(),
                          t_max=40.0, residual_target=1e-4, cfl_safety=0.45)
    result = run_flow(problem)
    assert result.converged
    phi_star = result.state.phi - result.state.phi.mean()
    base = j_flow(sphere64, sphere64.base_form(), phi_star)
    for _ in range(3):
        psi = random_kahler_potential(sphere64, rng, 0.3)
        psi = psi - psi.mean()
        for eps in (0.05, -0.05):
            moved = j_flow(sphere64, sphere64.base_form(), phi_star + eps * psi)
            assert moved - base > 1e-6
