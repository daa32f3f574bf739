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
    integrate,
    make_backend,
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
    with pytest.raises(GeometryError, match="dim"):
        # the torus is the periodic line; it takes no dimension
        make_backend("torus", dim=2, size=16)


@pytest.mark.parametrize("s_max", [1.0, 0.5, float("nan")])
def test_sphere_s_max_must_exceed_one(s_max):
    # nan used to build a backend whose s_max is nan
    with pytest.raises(GeometryError):
        SphereBackend(32, s_max=s_max)


# --- complex Hessian -------------------------------------------------------

def test_hessian_of_zero_is_zero(torus64, sphere64):
    for b in (torus64, sphere64):
        assert np.array_equal(b.complex_hessian(np.zeros(b.grid_shape)),
                              np.zeros(b.grid_shape + (b.n, b.n)))


def test_torus_sine_hessian_matches_symbolic(torus128):
    # quarter of the real second derivative, symbolic oracle via sympy
    a, x = 0.3, sp.symbols("x")
    expr = sp.Rational(1, 4) * sp.diff(a * sp.sin(2 * sp.pi * x), x, 2)
    oracle = sp.lambdify(x, expr, "numpy")(torus128.x)
    got = torus128.complex_hessian(a * np.sin(2 * np.pi * torus128.x))
    err = np.abs(got[..., 0, 0] - oracle).max()
    # second-order stencil: constant measured well below 40 * spacing^2
    assert err < 40.0 * torus128.spacing**2
    assert err > 0  # the bound is doing work, not vacuous


def test_hessian_shape_mismatch_rejected(torus64):
    with pytest.raises(ShapeMismatchError):
        torus64.complex_hessian(np.zeros(32))


@settings(max_examples=50, deadline=None, database=None)
@given(st.integers(16, 96), st.integers(0, 2**32 - 1))
def test_hessian_total_mass_exactly_zero(size, seed):
    # discrete cohomology: the Hessian of anything integrates to zero.  phi
    # is normal noise, so its end entries differ: equal ones would hide a
    # wrong end row of the sphere's flux divergence
    rng = np.random.default_rng(seed)
    for b in (make_backend("torus", size=size),
              make_backend("sphere", size=size)):
        phi = rng.normal(size=b.grid_shape)
        mass = np.sum(b.complex_hessian(phi)[..., 0, 0] * b.weights)
        assert abs(mass) < 1e-12 * max(1.0, np.abs(phi).max() / b.spacing**2)


def test_hessian_self_adjoint(sphere64, torus64, rng):
    for b in (sphere64, torus64):
        u = rng.normal(size=b.grid_shape)
        v = rng.normal(size=b.grid_shape)
        left = np.sum(u * b.complex_hessian(v)[..., 0, 0] * b.weights)
        right = np.sum(v * b.complex_hessian(u)[..., 0, 0] * b.weights)
        assert abs(left - right) < 1e-9 * max(1.0, abs(left))


# --- build_metric ----------------------------------------------------------

def test_build_metric_identity_case(torus64):
    chi = build_metric(torus64, torus64.base_form(), np.zeros(64))
    assert np.array_equal(chi.matrices, torus64.base_form().matrices)
    assert chi.kahler


def test_build_metric_positivity_flag_follows_closed_form(torus128):
    # density 1 - a pi^2 sin(2 pi x): positive iff a pi^2 < 1
    x = torus128.x
    for a, expect in ((0.9 / np.pi**2, True), (1.1 / np.pi**2, False)):
        chi = build_metric(torus128, torus128.base_form(),
                           a * np.sin(2 * np.pi * x))
        assert chi.kahler is expect


# --- trace_with ------------------------------------------------------------

def test_trace_self_is_dimension(torus64, sphere64):
    for b in (torus64, sphere64):
        base = b.base_form()
        assert np.allclose(trace_with(base, base), float(b.n), rtol=1e-14)


def test_trace_diagonal_case():
    # one-dimensional forms: the trace is the ratio of the densities
    from jflow import HermitianFormField
    chi = np.array([1.0, 2.0, 4.0])[:, None, None]
    omega = np.array([3.0, 5.0, 8.0])[:, None, None]
    t = trace_with(HermitianFormField.from_matrices(chi), omega)
    assert np.array_equal(t, [3.0, 2.5, 2.0])
    # the geometries are one-dimensional, so a 2 x 2 stack is refused
    flat = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
    with pytest.raises(UnsupportedBackend):
        trace_with(HermitianFormField.from_matrices(flat), flat)


def test_trace_torus_closed_form(torus128):
    # amplitude kept under 1/pi^2 so the density stays positive
    x = torus128.x
    phi = 0.05 * np.sin(2 * np.pi * x)
    chi = build_metric(torus128, torus128.base_form(), phi)
    omega = torus128.form(2.0 * torus128.base_form().matrices)
    got = trace_with(chi, omega)
    oracle = 2.0 / (1.0 - 0.05 * np.pi**2 * np.sin(2 * np.pi * x))
    assert np.abs(got - oracle).max() < 40.0 * torus128.spacing**2


def test_trace_requires_positive_metric(torus64):
    x = torus64.x
    degenerate = build_metric(torus64, torus64.base_form(),
                              np.sin(2 * np.pi * x))
    assert not degenerate.kahler
    from jflow import NotKahlerError
    with pytest.raises(NotKahlerError):
        trace_with(degenerate, torus64.base_form())


def test_trace_arithmetic_geometric_inequality(rng):
    # tr(chi^{-1} omega) >= n (det omega / det chi)^{1/n}, on a backend-free
    # 24 x 24 stack of 2 x 2 forms, with the trace of the relative spectrum
    from jflow import HermitianFormField, relative_spectrum
    b = rng.normal(size=(24, 24, 2, 2))
    omega = b @ np.swapaxes(b, -1, -2) + 0.2 * np.eye(2)
    a = rng.normal(size=(24, 24, 2, 2))
    chi = HermitianFormField.from_matrices(
        0.1 * a @ np.swapaxes(a, -1, -2) + np.eye(2))
    lhs = relative_spectrum(omega, chi).trace()
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


@settings(max_examples=60, deadline=None, database=None)
@given(size=st.integers(16, 512), rows=st.integers(2, 4),
       amplitude=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_theta_integrates_to_zero_against_every_volume(size, rows, amplitude,
                                                       seed):
    # X and the flux-form Hessian are a summation-by-parts pair, so
    # sum_i theta_i rho_i w_i telescopes to zero for every phi: only the
    # rounding of the terms is left, here against sup |theta| vol(chi),
    # for one row and for each row of a stack alike
    from jflow import random_kahler_potential
    backend = make_backend("sphere", size=size)
    rng = np.random.default_rng(seed)
    phis = np.stack([random_kahler_potential(backend, rng, amplitude)
                     for _ in range(rows)])
    chi = build_metric(backend, backend.base_form(), phis[0])
    theta = theta_of(backend, phis[0])
    assert abs(integrate(backend, theta, chi)) \
        <= 1e-15 * float(np.abs(theta).max()) * volume(backend, chi)
    theta = backend.theta(phis)
    vol = backend.metric(phis, "stack") * backend.weights
    assert np.all(np.abs(np.sum(theta * vol, axis=-1))
                  <= 1e-15 * np.abs(theta).max(axis=-1) * np.sum(vol, axis=-1))


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
    assert np.array_equal(torus64.ricci_form(torus64.base_form()),
                          np.zeros((64, 1, 1)))


def test_ricci_round_sphere_exact(sphere128):
    ric = sphere128.ricci_form(sphere128.base_form())
    assert np.array_equal(ric[..., 0, 0], 2.0 * sphere128.rho0)


def test_ricci_conformal_torus_matches_symbolic(torus128):
    # chi density e^{u}: Ric = -(1/4) (log det chi)'' = -(1/4) u''
    x = torus128.x
    xs = sp.symbols("x")
    u_expr = sp.Rational(1, 5) * sp.cos(2 * sp.pi * xs)
    u = sp.lambdify(xs, u_expr, "numpy")(x)
    chi = torus128.form(np.exp(u)[:, None, None])
    oracle = sp.lambdify(xs, -sp.diff(u_expr, xs, 2) / 4, "numpy")(x)
    got = torus128.ricci_form(chi)[..., 0, 0]
    assert np.abs(got - oracle).max() < 40.0 * torus128.spacing**2


def test_ricci_class_level_constant(sphere128):
    from jflow import level_constant
    ric = sphere128.ricci_form(sphere128.base_form())
    assert abs(level_constant(sphere128, ric) - 2.0) < 1e-12


# --- integration -----------------------------------------------------------

def test_volume_normalization(torus64, sphere128):
    assert abs(volume(torus64) - 1.0) < 1e-12
    assert abs(volume(sphere128) - np.pi) < 1e-10 * np.pi


def test_integrate_odd_symmetry(torus64):
    f = np.sin(2 * np.pi * torus64.x)
    assert abs(integrate(torus64, f)) < 1e-13


def test_cohomology_invariance_of_volume(torus64, sphere128, rng):
    from jflow import random_kahler_potential
    for b, rel in ((torus64, 1e-12), (sphere128, 1e-8)):
        phi = random_kahler_potential(b, rng, 0.4)
        chi = build_metric(b, b.base_form(), phi)
        assert abs(volume(b, chi) - volume(b)) < rel * volume(b)


def test_volume_attribute_matches_reference_integral(torus64, sphere128):
    # both backends expose the total reference volume as a plain float
    for b in (torus64, sphere128):
        assert b.volume == pytest.approx(volume(b), rel=1e-12)


def test_sphere_weights_positive_and_tail_reported(sphere128):
    assert np.all(sphere128.weights > 0)
    assert sphere128.tail_bound == 2.0 * np.pi * sphere128.m_lo
    assert sphere128.tail_bound < 1e-1


def test_sphere_grid_symmetric_about_half(sphere128):
    m = sphere128.m
    assert np.allclose(m + m[::-1], 1.0, atol=1e-15)
    assert sphere128.m_lo == m[0]


# --- stacks of fields ---------------------------------------------------------

@settings(max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(["sphere", "torus"]),
       size=st.integers(16, 96), rows=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_raw_operators_match_row_by_row(kind, size, rows, seed):
    # The raw operators act along the trailing grid axis: a stack of
    # potentials on a leading axis gets, row for row, the bits each
    # potential gets alone, and no stencil reaches across rows.
    from jflow import random_kahler_potential
    backend = make_backend(kind, size=size)
    rng = np.random.default_rng(seed)
    phis = np.stack([random_kahler_potential(backend, rng, 0.4)
                     for _ in range(rows)])
    om = backend.raw_form(build_metric(backend, backend.base_form(),
                                       random_kahler_potential(backend, rng, 0.3)))
    chi = backend.metric(phis, "stack")
    alone = [backend.metric(phi, "row") for phi in phis]
    assert chi.shape == (rows,) + alone[0].shape
    assert np.array_equal(chi, np.stack(alone))
    theta = np.broadcast_to(backend.theta(phis), phis.shape)
    assert np.array_equal(theta, np.stack(
        [np.broadcast_to(backend.theta(phi), phi.shape) for phi in phis]))
    assert np.array_equal(backend.trace(chi, om),
                          np.stack([backend.trace(c, om) for c in alone]))


@settings(max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(["sphere", "torus"]),
       size=st.integers(16, 96), rows=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_stage_is_metric_and_theta_bit_for_bit(kind, size, rows, seed):
    # stage takes phi's fluxes once and gives metric's and theta's bits,
    # for one row and for a stack, and its positivity check names the
    # context it was given
    from jflow import NotKahlerError, random_kahler_potential
    backend = make_backend(kind, size=size)
    rng = np.random.default_rng(seed)
    phis = np.stack([random_kahler_potential(backend, rng, 0.4)
                     for _ in range(rows)])
    for phi in (phis[0], phis):
        chi, theta = backend.stage(phi, "stage")
        assert np.array_equal(chi, backend.metric(phi, "metric"))
        assert np.array_equal(theta, backend.theta(phi))
    bad = 50.0 * backend.spacing**2 * rng.normal(size=backend.grid_shape)
    for phi in (bad, np.stack([phis[0], bad])):
        with pytest.raises(NotKahlerError, match="stage sample"):
            backend.stage(phi, "stage sample")


@settings(max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(["sphere", "torus"]),
       size=st.integers(16, 96), seed=st.integers(0, 2**32 - 1))
def test_public_helpers_equal_their_raw_bodies(kind, size, seed):
    # Each public helper wraps one raw operation of the backend, bit for
    # bit, and extremal_residual, on the raw path, equals its composition
    # of the public helpers, written out here.
    from jflow import (NotKahlerError, extremal_residual,
                       random_kahler_potential)
    backend = make_backend(kind, size=size)
    rng = np.random.default_rng(seed)
    phi = random_kahler_potential(backend, rng, 0.4)
    chi = build_metric(backend, backend.base_form(), phi)
    omega = build_metric(backend, backend.base_form(),
                         random_kahler_potential(backend, rng, 0.3))
    rho, om = backend.raw_form(chi), backend.raw_form(omega)
    values = rng.normal(size=backend.grid_shape)

    assert np.array_equal(rho, backend.metric(phi, "raw"))
    assert np.array_equal(theta_of(backend, phi), np.broadcast_to(
        backend.theta(phi), backend.grid_shape))
    assert integrate(backend, values, chi) == backend.integral(values, rho)
    assert integrate(backend, values) == backend.integral(
        values, backend.raw_form(backend.base_form()))
    assert volume(backend, chi) == float(
        np.sum(backend.raw_volume_density(rho)))
    assert np.array_equal(trace_with(chi, omega), backend.trace(rho, om))
    assert np.array_equal(backend.ricci_form(chi)[..., 0, 0],
                          backend._ricci(rho))

    curv = trace_with(chi, backend.ricci_form(chi))
    mean = integrate(backend, curv, chi) / volume(backend, chi)
    assert np.array_equal(extremal_residual(backend, phi),
                          curv - mean - theta_of(backend, phi))

    bad = 50.0 * backend.spacing**2 * rng.normal(size=backend.grid_shape)
    with pytest.raises(NotKahlerError, match="extremal residual"):
        extremal_residual(backend, bad)


@pytest.mark.parametrize("kind", ["sphere", "torus"])
def test_stacked_metric_check_names_its_context(kind, rng):
    # one non-Kahler row among Kahler ones fails the whole stacked check
    from jflow import NotKahlerError, random_kahler_potential
    backend = make_backend(kind, size=32)
    good = random_kahler_potential(backend, rng, 0.3)
    bad = 50.0 * backend.spacing**2 * rng.normal(size=backend.grid_shape)
    with pytest.raises(NotKahlerError, match="stacked sample"):
        backend.metric(np.stack([good, bad, good]), "stacked sample")
