import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jflow import (
    GeometryError,
    ShapeMismatchError,
    UnsupportedBackend,
    build_metric,
    complex_hessian,
    integrate,
    make_backend,
    ricci_form,
    theta_of,
    trace_with,
    volume,
)
from jflow.geometry import SphereBackend, TorusBackend


def test_make_backend_dispatch_and_validation():
    assert isinstance(make_backend("torus", size=16), TorusBackend)
    assert isinstance(make_backend(" Sphere ", size=32), SphereBackend)
    with pytest.raises(UnsupportedBackend):
        make_backend("klein_bottle")
    with pytest.raises(GeometryError):
        make_backend("torus", size=4)
    with pytest.raises(GeometryError):
        make_backend("sphere", size=8)
    with pytest.raises(GeometryError):
        make_backend("torus", size=16, bogus=1)
    with pytest.raises(GeometryError):
        make_backend("torus", dim=2, size=(16, 16, 16))


@pytest.mark.parametrize("s_max", [1.0, 0.5, float("nan")])
def test_sphere_s_max_must_exceed_one(s_max):
    # nan used to build a backend whose s_max is nan
    with pytest.raises(GeometryError):
        SphereBackend(32, s_max=s_max)


def test_torus_base_matrix_validation():
    with pytest.raises(GeometryError):
        TorusBackend(16, base_matrix=np.array([[-1.0]]))
    with pytest.raises(ShapeMismatchError):
        TorusBackend(16, base_matrix=np.eye(2))
    b = TorusBackend((16, 16), base_matrix=np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert b.base_form().kahler


# --- complex Hessian -------------------------------------------------------

def test_hessian_of_zero_is_zero(torus64, sphere64):
    for b in (torus64, sphere64):
        assert np.array_equal(complex_hessian(b, np.zeros(b.grid_shape)),
                              np.zeros(b.grid_shape + (b.n, b.n)))


def test_torus_sine_hessian_matches_symbolic(torus128):
    # quarter of the real second derivative, symbolic oracle via sympy
    a, x = 0.3, sp.symbols("x")
    expr = sp.Rational(1, 4) * sp.diff(a * sp.sin(2 * sp.pi * x), x, 2)
    oracle = sp.lambdify(x, expr, "numpy")(torus128.axes[0])
    got = complex_hessian(torus128, a * np.sin(2 * np.pi * torus128.axes[0]))
    err = np.abs(got[..., 0, 0] - oracle).max()
    # second-order stencil: constant measured well below 40 * spacing^2
    assert err < 40.0 * torus128.spacing**2
    assert err > 0  # the bound is doing work, not vacuous


def test_torus_2d_mixed_partials_match_symbolic():
    x1s, x2s = sp.symbols("x1 x2")
    expr = sp.sin(2 * sp.pi * x1s) * sp.sin(4 * sp.pi * x2s)
    errs = {}
    for size in (24, 48):
        b = make_backend("torus", dim=2, size=size)
        x1, x2 = b.coords()
        phi = np.sin(2 * np.pi * x1) * np.sin(4 * np.pi * x2)
        hess = complex_hessian(b, phi)
        for (i, j), sym in (((0, 0), (x1s, x1s)), ((0, 1), (x1s, x2s)),
                            ((1, 1), (x2s, x2s))):
            oracle = sp.lambdify((x1s, x2s),
                                 sp.diff(expr, *sym) / 4, "numpy")(x1, x2)
            errs[(i, j, size)] = np.abs(hess[..., i, j] - oracle).max()
        assert np.array_equal(hess[..., 0, 1], hess[..., 1, 0])
    for i, j in ((0, 0), (0, 1), (1, 1)):
        # second-order stencil: quartering the spacing constant
        assert errs[(i, j, 48)] < 800.0 / 48**2
        assert errs[(i, j, 24)] / errs[(i, j, 48)] > 3.5


def test_hessian_shape_mismatch_rejected(torus64):
    with pytest.raises(ShapeMismatchError):
        complex_hessian(torus64, np.zeros(32))


@settings(max_examples=50, deadline=None, database=None)
@given(st.integers(16, 96), st.integers(16, 96), st.integers(0, 2**32 - 1))
def test_hessian_total_mass_exactly_zero(size, other, seed):
    # discrete cohomology: the Hessian of anything integrates to zero.  phi
    # is normal noise, so its end entries differ: equal ones would hide a
    # wrong end row of the sphere's flux divergence
    rng = np.random.default_rng(seed)
    for b in (make_backend("torus", size=size),
              make_backend("torus", dim=2, size=[size, other]),
              make_backend("sphere", size=size)):
        phi = rng.normal(size=b.grid_shape)
        mass = np.sum(np.einsum("...ii->...", complex_hessian(b, phi))
                      * b.weights)
        assert abs(mass) < 1e-12 * max(1.0, np.abs(phi).max() / b.spacing**2)


def test_hessian_self_adjoint(sphere64, torus64, rng):
    for b in (sphere64, torus64):
        u = rng.normal(size=b.grid_shape)
        v = rng.normal(size=b.grid_shape)
        left = np.sum(u * complex_hessian(b, v)[..., 0, 0] * b.weights)
        right = np.sum(v * complex_hessian(b, u)[..., 0, 0] * b.weights)
        assert abs(left - right) < 1e-9 * max(1.0, abs(left))


# --- build_metric ----------------------------------------------------------

def test_build_metric_identity_case(torus64):
    chi = build_metric(torus64, torus64.base_form(), np.zeros(64))
    assert np.array_equal(chi.matrices, torus64.base_form().matrices)
    assert chi.kahler


def test_build_metric_positivity_flag_follows_closed_form(torus128):
    # density 1 - a pi^2 sin(2 pi x): positive iff a pi^2 < 1
    x = torus128.axes[0]
    for a, expect in ((0.9 / np.pi**2, True), (1.1 / np.pi**2, False)):
        chi = build_metric(torus128, torus128.base_form(),
                           a * np.sin(2 * np.pi * x))
        assert chi.kahler is expect


# --- trace_with ------------------------------------------------------------

def test_trace_self_is_dimension(torus2d, sphere64):
    for b in (torus2d, sphere64):
        base = b.base_form()
        assert np.allclose(trace_with(base, base), float(b.n), rtol=1e-14)


def test_trace_diagonal_case():
    chi = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
    omega = np.broadcast_to(np.diag([3.0, 5.0]), (3, 2, 2)).copy()
    from jflow import HermitianFormField
    t = trace_with(HermitianFormField.from_matrices(chi), omega)
    assert np.allclose(t, 8.0, rtol=1e-15)


def test_trace_torus_closed_form(torus128):
    # amplitude kept under 1/pi^2 so the density stays positive
    x = torus128.axes[0]
    phi = 0.05 * np.sin(2 * np.pi * x)
    chi = build_metric(torus128, torus128.base_form(), phi)
    omega = torus128.form(2.0 * torus128.base_form().matrices)
    got = trace_with(chi, omega)
    oracle = 2.0 / (1.0 - 0.05 * np.pi**2 * np.sin(2 * np.pi * x))
    assert np.abs(got - oracle).max() < 40.0 * torus128.spacing**2


def test_trace_requires_positive_metric(torus64):
    x = torus64.axes[0]
    degenerate = build_metric(torus64, torus64.base_form(),
                              np.sin(2 * np.pi * x))
    assert not degenerate.kahler
    from jflow import NotKahlerError
    with pytest.raises(NotKahlerError):
        trace_with(degenerate, torus64.base_form())


def test_trace_arithmetic_geometric_inequality(torus2d, rng):
    # tr(chi^{-1} omega) >= n (det omega / det chi)^{1/n}
    b = rng.normal(size=torus2d.grid_shape + (2, 2))
    omega = b @ np.swapaxes(b, -1, -2) + 0.2 * np.eye(2)
    phi = 0.01 * np.sin(2 * np.pi * torus2d.coords()[0])
    chi = build_metric(torus2d, torus2d.base_form(), phi)
    lhs = trace_with(chi, omega)
    rhs = 2.0 * np.sqrt(np.linalg.det(omega) / chi.det())
    assert np.all(lhs >= rhs - 1e-12)


# --- theta ------------------------------------------------------------------

def test_theta_zero_on_torus_for_any_potential(torus64, rng):
    assert np.array_equal(theta_of(torus64, rng.normal(size=64)), np.zeros(64))


def test_theta_base_is_centered_moment(sphere128):
    theta0 = theta_of(sphere128, np.zeros(sphere128.grid_shape))
    # the moment function minus its average; average over the round volume
    # is the arithmetic mean because rho0 * weights is constant
    assert np.allclose(theta0, sphere128.m - 0.5, atol=1e-14)
    assert abs(theta0.min() + 0.5) < 2.0 * sphere128.m_lo
    assert abs(theta0.max() - 0.5) < 2.0 * sphere128.m_lo
    assert abs(integrate(sphere128, theta0)) < 1e-10


def test_theta_additivity_exact(sphere128, rng):
    phi = rng.normal(size=sphere128.grid_shape)
    psi = rng.normal(size=sphere128.grid_shape)
    lhs = theta_of(sphere128, phi + psi) - theta_of(sphere128, phi)
    rhs = sphere128.vector_field_action(psi)
    # linear in phi; only rounding separates the two evaluation orders
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


def test_moment_identity_x_theta_is_x_squared(sphere256):
    # X(theta(chi_phi)) = |X|^2_{chi_phi} = density of chi_phi, here at
    # a smooth deformation; flow-trajectory version lives in acceptance
    m = sphere256.m
    phi = 0.3 * np.sin(np.pi * m)
    chi = build_metric(sphere256, sphere256.base_form(), phi)
    lhs = sphere256.vector_field_action(theta_of(sphere256, phi))
    err = np.abs(lhs - chi.density).max()
    assert err < 10.0 * sphere256.spacing**2


# --- ricci -----------------------------------------------------------------

def test_ricci_flat_torus_exactly_zero(torus64):
    assert np.array_equal(ricci_form(torus64, torus64.base_form()),
                          np.zeros((64, 1, 1)))


def test_ricci_round_sphere_exact(sphere128):
    ric = ricci_form(sphere128, sphere128.base_form())
    assert np.array_equal(ric[..., 0, 0], 2.0 * sphere128.rho0)


def test_ricci_conformal_torus_matches_symbolic(torus128):
    # chi density e^{u}: Ric = -(1/4) (log det chi)'' = -(1/4) u''
    x = torus128.axes[0]
    xs = sp.symbols("x")
    u_expr = sp.Rational(1, 5) * sp.cos(2 * sp.pi * xs)
    u = sp.lambdify(xs, u_expr, "numpy")(x)
    chi = torus128.form(np.exp(u)[:, None, None])
    oracle = sp.lambdify(xs, -sp.diff(u_expr, xs, 2) / 4, "numpy")(x)
    got = ricci_form(torus128, chi)[..., 0, 0]
    assert np.abs(got - oracle).max() < 40.0 * torus128.spacing**2


def test_ricci_class_level_constant(sphere128):
    from jflow import level_constant
    ric = ricci_form(sphere128, sphere128.base_form())
    assert abs(level_constant(sphere128, ric) - 2.0) < 1e-12


# --- integration -----------------------------------------------------------

def test_volume_normalization(torus64, torus2d, sphere128):
    assert abs(volume(torus64) - 1.0) < 1e-12
    assert abs(volume(torus2d) - 1.0) < 1e-12
    assert abs(volume(sphere128) - np.pi) < 1e-10 * np.pi


def test_integrate_odd_symmetry(torus64):
    f = np.sin(2 * np.pi * torus64.axes[0])
    assert abs(integrate(torus64, f)) < 1e-13


def test_cohomology_invariance_of_volume(torus64, sphere128, rng):
    from jflow import random_kahler_potential
    for b, rel in ((torus64, 1e-12), (sphere128, 1e-8)):
        phi = random_kahler_potential(b, rng, 0.4)
        chi = build_metric(b, b.base_form(), phi)
        assert abs(volume(b, chi) - volume(b)) < rel * volume(b)


def test_volume_attribute_matches_reference_integral(torus64, torus2d,
                                                     sphere128):
    # both backends expose the total reference volume as a plain float
    for b in (torus64, torus2d, sphere128):
        assert b.volume == pytest.approx(volume(b), rel=1e-12)
    scaled = TorusBackend((16, 16), base_matrix=np.diag([2.0, 1.5]))
    assert scaled.volume == pytest.approx(3.0, rel=1e-12)


def test_sphere_weights_positive_and_tail_reported(sphere128):
    assert np.all(sphere128.weights > 0)
    assert sphere128.tail_bound == 2.0 * np.pi * sphere128.m_lo
    assert sphere128.tail_bound < 1e-1


def test_sphere_grid_symmetric_about_half(sphere128):
    m = sphere128.m
    assert np.allclose(m + m[::-1], 1.0, atol=1e-15)
    assert sphere128.m_lo == m[0]
