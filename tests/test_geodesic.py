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
    convexity_probe,
    geodesic_path,
    geodesic_residual,
    j_flow,
    legendre_inverse,
    legendre_transform,
    named_potential,
    random_kahler_potential,
    run_flow,
)
from jflow.geodesic import TAIL_SLIVER, _Quintic
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
    spline = _Quintic(m, y)
    h = m[1] - m[0]
    for nu, got in enumerate(spline(x, 0, 1, 2)):
        want = oracle(x, nu)
        assert got.shape == want.shape
        # Relative to the size a nu-th derivative of data this large can
        # reach on this grid: both evaluations round at that scale.
        scale = max(np.abs(want).max(), np.abs(y).max() / h**nu)
        assert np.abs(got - want).max() <= 1e-12 * scale


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
    geo = geodesic_residual(sphere256, geodesic_path(sphere256, pa, pb, 17))
    lin = geodesic_residual(sphere256, chord(pa, pb, 17))
    assert lin > 100.0 * geo


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
