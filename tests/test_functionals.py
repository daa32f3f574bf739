import numpy as np
import pytest

import oracles
from jflow import (
    GeometryError,
    NotKahlerError,
    ShapeMismatchError,
    aubin_i,
    aubin_j,
    build_metric,
    entropy,
    extremal_residual,
    functional_report,
    integrate,
    j_flow,
    j_hat,
    j_tilde,
    k_energy,
    k_energy_modified,
    level_constant,
    make_backend,
    random_kahler_potential,
    scalar_curvature,
    sigma_energy,
    volume,
)
from jflow import functionals
from jflow.functionals import aubin_ij, theta_path_term


# --- level constant ---------------------------------------------------------

def test_level_constant_reference_is_one(torus64, sphere128):
    for b in (torus64, sphere128):
        assert level_constant(b, b.base_form()) == 1.0


def test_level_constant_scales_linearly(torus64):
    omega = torus64.form(2.0 * torus64.base_form().matrices)
    assert level_constant(torus64, omega) == 2.0


def test_level_constant_exact_for_offset_density(torus128):
    # adding an exact Hessian to the form moves mass around but not the class
    x = torus128.x
    psi = oracles.hessian_offset_potential(torus128,
                                           0.6 * np.sin(2 * np.pi * x))
    density = 2.0 + complex_hessian_density(torus128, psi)
    omega = torus128.form(density[:, None, None])
    assert abs(level_constant(torus128, omega) - 2.0) < 1e-13


def complex_hessian_density(backend, psi):
    return backend.complex_hessian(psi)[..., 0, 0]


def test_level_constant_representative_independent(sphere128, torus128, rng):
    for b in (sphere128, torus128):
        phi = random_kahler_potential(b, rng, 0.4)
        chi = build_metric(b, b.base_form(), phi)
        got = level_constant(b, b.base_form(), chi)
        assert abs(got - 1.0) < 1e-8


# --- Aubin energies ---------------------------------------------------------

def test_aubin_zero_potential(torus64, sphere64):
    for b in (torus64, sphere64):
        assert aubin_i(b, np.zeros(b.grid_shape)) == 0.0
        assert aubin_j(b, np.zeros(b.grid_shape)) == 0.0


def test_aubin_sine_closed_form(torus128):
    # I = a^2 pi^2 / 2 and J = I / 2 for phi = a sin(2 pi x) on the line
    a = 0.02
    phi = a * np.sin(2 * np.pi * torus128.x)
    i_val = aubin_i(torus128, phi)
    j_val = aubin_j(torus128, phi)
    # stencil symbol error: (2 pi)^4 / 96 * spacing^2 per unit a^2
    assert abs(i_val - a * a * np.pi**2 / 2) < 20.0 * torus128.spacing**2 * a * a
    assert abs(j_val - a * a * np.pi**2 / 4) < 10.0 * torus128.spacing**2 * a * a
    # the halving is a property of the discrete quadrature, not the limit
    assert abs(i_val - 2.0 * j_val) < 1e-13 * max(1.0, i_val)


def test_aubin_path_formula_cross_check(torus128, sphere128, rng):
    for b in (torus128, sphere128):
        phi = random_kahler_potential(b, rng, 0.5)
        energies = aubin_ij(b, phi)
        assert energies.path_defect < 1e-10 * max(1.0, abs(energies.I))
        assert energies.i_minus_j == energies.I - energies.J


def test_aubin_inequalities_random(torus64, sphere64, rng):
    for b in (torus64, sphere64):
        for _ in range(10):
            phi = random_kahler_potential(b, rng, 0.6)
            energies = aubin_ij(b, phi)
            n = b.n
            assert energies.J >= -1e-10
            assert energies.I >= energies.J - 1e-10
            assert energies.I <= (n + 1) * energies.J + 1e-10
            assert energies.i_minus_j >= energies.I / (n + 1) - 1e-10


def test_aubin_rejects_degenerate_endpoint(torus64):
    x = torus64.x
    with pytest.raises(NotKahlerError):
        aubin_i(torus64, np.sin(2 * np.pi * x))
    with pytest.raises(NotKahlerError):
        aubin_j(torus64, np.sin(2 * np.pi * x))


def test_path_rule_exact_to_degree_n_plus_one():
    # the path integrands have degree at most n + 1 = 2 in t; Simpson's
    # rule is exact to degree 3
    from jflow.functionals import SIMPSON_NODES, SIMPSON_WEIGHTS
    t, w = np.array(SIMPSON_NODES), np.array(SIMPSON_WEIGHTS)
    assert t[0] == 0.0 and t[-1] == 1.0
    for degree in range(4):
        assert abs(np.dot(w, t**degree) - 1.0 / (degree + 1)) < 1e-15


def test_path_rule_matches_numpy_polynomial_rule():
    # the 3-node Gauss-Lobatto rule numpy.polynomial gives (roots of P_2',
    # weights from P_2), bit for bit
    from jflow.functionals import SIMPSON_NODES, SIMPSON_WEIGHTS
    p = np.polynomial.legendre.Legendre.basis(2)
    x = np.concatenate([[-1.0], np.sort(p.deriv().roots().real), [1.0]])
    w = 2.0 / (3 * 2 * p(x) ** 2)
    assert np.array_equal(SIMPSON_NODES, 0.5 * (x + 1.0))
    assert np.array_equal(SIMPSON_WEIGHTS, 0.5 * w)


def test_path_functionals_match_simpson_oracle(sphere128, torus128, rng):
    # one Simpson panel is exact on each segment, so 33-node composite
    # Simpson agrees with it to round-off on both geometries
    for b in (sphere128, torus128):
        for _ in range(3):
            phi = random_kahler_potential(b, rng, 0.5)
            psi = random_kahler_potential(b, rng, 0.3)
            omega = build_metric(b, b.base_form(), psi)
            want = oracles.simpson_path_functionals(b, omega.matrices, phi)
            got = {"j_hat": j_hat(b, omega, phi),
                   "j_tilde": j_tilde(b, omega, phi),
                   "aubin_j": aubin_j(b, phi)}
            for name, value in got.items():
                assert abs(value - want[name]) <= 1e-13 * abs(want[name]), name


# --- j_hat / j_tilde / j_flow -----------------------------------------------

def test_j_hat_zero_potential(torus64, sphere64):
    for b in (torus64, sphere64):
        assert j_hat(b, b.base_form(), np.zeros(b.grid_shape)) == 0.0


def test_j_hat_against_reference_form_identity(torus128, sphere128, rng):
    # with omega = chi0 the integrand collapses to the I-J path density
    for b, tol in ((torus128, 0.0), (sphere128, 1e-12)):
        phi = random_kahler_potential(b, rng, 0.5)
        jh = j_hat(b, b.base_form(), phi)
        path = aubin_ij(b, phi).i_minus_j_path
        assert abs(jh - path) <= tol * max(1.0, abs(path))


def test_path_independence_of_quadrature(torus128, sphere128, rng):
    for b in (torus128, sphere128):
        for _ in range(3):
            phi = random_kahler_potential(b, rng, 0.5)
            mid = 0.5 * random_kahler_potential(b, rng, 0.3)
            direct = j_tilde(b, b.base_form(), phi)
            detour = j_tilde(b, b.base_form(), phi, waypoints=[mid])
            assert abs(direct - detour) < 1e-7


def test_torus_symmetry_coupling_vanishes(torus64, rng):
    phi = random_kahler_potential(torus64, rng, 0.5)
    omega = torus64.base_form()
    assert theta_path_term(torus64, phi) == 0.0
    assert j_tilde(torus64, omega, phi) == j_hat(torus64, omega, phi)
    assert j_flow(torus64, omega, phi) == j_hat(torus64, omega, phi)


def test_sphere_coupling_separates_the_three(sphere64, rng):
    phi = random_kahler_potential(sphere64, rng, 0.5)
    omega = sphere64.base_form()
    coupling = theta_path_term(sphere64, phi)
    assert coupling != 0.0
    assert np.isclose(j_tilde(sphere64, omega, phi) -
                      j_flow(sphere64, omega, phi), 2.0 * coupling)


# --- entropy ----------------------------------------------------------------

def test_entropy_zero_at_reference(torus64, sphere64):
    for b in (torus64, sphere64):
        assert entropy(b, np.zeros(b.grid_shape)) == 0.0


def test_entropy_nonnegative_random(torus64, sphere64, rng):
    for b in (torus64, sphere64):
        for _ in range(5):
            phi = random_kahler_potential(b, rng, 0.7)
            assert entropy(b, phi) >= -1e-8


def test_entropy_matches_line_quadrature(torus128):
    # build a potential whose discrete density is exactly 1 + b sin(2 pi x);
    # periodic trapezoid quadrature of a smooth density converges spectrally,
    # so grid 128 already agrees with the adaptive oracle to near round-off
    b_amp = 0.3
    x = torus128.x
    psi = oracles.hessian_offset_potential(torus128,
                                           b_amp * np.sin(2 * np.pi * x))
    got = entropy(torus128, psi)
    want = oracles.entropy_line_density(b_amp)
    assert abs(got - want) < 1e-12


def test_entropy_quadratic_scaling(torus128):
    x = torus128.x
    psi = oracles.hessian_offset_potential(torus128,
                                           0.2 * np.sin(2 * np.pi * x))
    vals = [entropy(torus128, a * psi) for a in (1e-3, 5e-4)]
    order = np.log2(vals[0] / vals[1])
    assert abs(order - 2.0) < 0.05


# --- K-energies -------------------------------------------------------------

def test_k_energy_zero_at_reference(torus64, sphere64):
    for b in (torus64, sphere64):
        mu, mu_tilde = k_energy_modified(b, np.zeros(b.grid_shape))
        assert mu == 0.0
        assert mu_tilde == 0.0


def test_k_energy_flat_model_is_entropy(torus64, rng):
    # vanishing reference curvature: the curvature correction drops out
    phi = random_kahler_potential(torus64, rng, 0.5)
    assert k_energy(torus64, phi) == entropy(torus64, phi)
    mu, mu_tilde = k_energy_modified(torus64, phi)
    assert mu == mu_tilde == entropy(torus64, phi)
    assert mu >= -1e-8


def test_k_energy_first_variation_matches_residual(sphere128, rng):
    phi = random_kahler_potential(sphere128, rng, 0.4)
    psi = random_kahler_potential(sphere128, rng, 0.4)
    chi = build_metric(sphere128, sphere128.base_form(), phi)
    predicted = -integrate(sphere128, psi * extremal_residual(sphere128, phi),
                           chi)
    measured = oracles.directional_difference(
        lambda p: k_energy_modified(sphere128, p)[1], phi, psi, 1e-4)
    assert abs(measured - predicted) < 1e-3 * max(1.0, abs(predicted))


@pytest.mark.parametrize("amplitude", [0.25, 0.1])
def test_sphere_energies_match_the_toric_closed_form(amplitude):
    # mu, mu_tilde and E = int phi vol_0 - J against their continuum values
    # in symplectic coordinates: second order, with the error falling by 4
    # per halving of the grid
    a, tau = amplitude, 2.0 * np.pi

    def phi(m):
        return a * (np.sin(tau * m) / tau + m * m / 2.0)

    want = oracles.toric_energies(
        phi, lambda m: a * (np.cos(tau * m) + m),
        lambda m: a * (1.0 - tau * np.sin(tau * m)))
    errors = []
    for n in (128, 256, 512):
        b = make_backend("sphere", size=n)
        p = phi(b.m)
        mu, mu_tilde = k_energy_modified(b, p)
        error = np.array([mu - want["k_energy"],
                          mu_tilde - want["k_energy_modified"],
                          integrate(b, p) - aubin_j(b, p) - want["monge_ampere"]])
        assert np.all(np.abs(error) * n**2 <= [1.5, 1.5, 0.05]), (n, error)
        errors.append(error)
    for coarse, fine in zip(errors, errors[1:]):
        assert np.all(np.abs(coarse / fine - 4.0) <= 0.05), coarse / fine


def test_scalar_curvature_round_reference(sphere128):
    chi = sphere128.base_form()
    r = scalar_curvature(sphere128, chi)
    assert np.allclose(r, 4.0, atol=1e-11)


def test_extremal_residual_reference_is_minus_moment(sphere128):
    # R(chi0) is constant, so the residual reduces to -theta0
    from jflow import theta_of
    zeros = np.zeros(sphere128.grid_shape)
    res = extremal_residual(sphere128, zeros)
    assert np.abs(res + theta_of(sphere128, zeros)).max() < 1e-10


# --- sigma energy -----------------------------------------------------------

def test_sigma_energy_reference_values(torus64):
    b = torus64
    sigma, e_val = sigma_energy(b, np.zeros(b.grid_shape), b.base_form())
    assert np.array_equal(sigma, -np.ones(b.grid_shape))
    assert abs(e_val - volume(b)) < 1e-12


def test_sigma_energy_sphere_reference(sphere128):
    from jflow import theta_of
    zeros = np.zeros(sphere128.grid_shape)
    theta0 = theta_of(sphere128, zeros)
    sigma, e_val = sigma_energy(sphere128, zeros, sphere128.base_form())
    assert np.abs(sigma - (theta0 - 1.0)).max() < 1e-14
    want = integrate(sphere128, (theta0 - 1.0) ** 2)
    assert abs(e_val - want) < 1e-12


def test_sigma_energy_shift_invariant(torus64, sphere64, rng):
    for b in (torus64, sphere64):
        phi = random_kahler_potential(b, rng, 0.5)
        _, e0 = sigma_energy(b, phi, b.base_form())
        _, e1 = sigma_energy(b, phi + 3.7, b.base_form())
        assert abs(e0 - e1) < 1e-10 * max(1.0, e0)
        assert e0 >= 0.0


# --- report -----------------------------------------------------------------

def test_functional_report_fields(torus64, rng):
    phi = random_kahler_potential(torus64, rng, 0.4)
    rep = functional_report(torus64, phi, torus64.base_form())
    d = rep._asdict()
    assert sorted(d) == sorted([
        "c", "I", "J", "j_hat", "j_tilde", "entropy", "k_energy",
        "k_energy_modified", "E"])
    assert d["c"] == 1.0
    # vanishing vector field collapses the modified pair onto the plain one
    assert d["j_tilde"] == d["j_hat"]
    assert d["k_energy_modified"] == d["k_energy"]
    assert d["I"] >= d["J"] >= 0.0


def _random_target(b, rng):
    psi = random_kahler_potential(b, rng, 0.3)
    return build_metric(b, b.base_form(), psi)


def _count_calls(monkeypatch, backend, *names):
    """A list that grows by one at each call of any of the backend
    methods `names`."""
    calls = []

    def counting(original):
        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(backend, name, counting(getattr(backend, name)))
    return calls


@pytest.mark.parametrize("name", ["sphere128", "torus128"])
def test_functional_report_builds_one_metric_per_node(name, request, rng,
                                                      monkeypatch):
    # one walk of 3 Simpson nodes, plus I, the entropy and E at phi
    # itself; a stage builds its metric without calling metric
    b = request.getfixturevalue(name)
    phi = random_kahler_potential(b, rng, 0.4)
    omega = _random_target(b, rng)
    calls = _count_calls(monkeypatch, b, "metric", "stage")
    functional_report(b, phi, omega)
    assert len(functionals.SIMPSON_NODES) <= len(calls) <= 6


@pytest.mark.parametrize("name", ["sphere128", "torus128"])
def test_theta_taken_only_by_functionals_that_read_it(name, request, rng,
                                                      monkeypatch):
    # aubin_j, aubin_ij and j_hat never read M_theta, so their walks take
    # no theta_t (and so build no stage, which takes one); j_tilde takes it
    # once per node, functional_report once more for E, each time through
    # theta or a stage
    b = request.getfixturevalue(name)
    phi = random_kahler_potential(b, rng, 0.4)
    waypoint = random_kahler_potential(b, rng, 0.3)
    omega = _random_target(b, rng)
    nodes = len(functionals.SIMPSON_NODES)
    calls = _count_calls(monkeypatch, b, "theta", "stage")
    for call, want in (
            (lambda: aubin_j(b, phi), 0),
            (lambda: aubin_j(b, phi, [waypoint]), 0),
            (lambda: aubin_ij(b, phi), 0),
            (lambda: j_hat(b, omega, phi), 0),
            (lambda: j_hat(b, omega, phi, [waypoint]), 0),
            (lambda: j_tilde(b, omega, phi), nodes),
            (lambda: j_tilde(b, omega, phi, [waypoint]), 2 * nodes),
            (lambda: functional_report(b, phi, omega), nodes + 1)):
        calls.clear()
        call()
        assert len(calls) == want


@pytest.mark.parametrize("name", ["sphere128", "torus128"])
def test_functional_report_matches_standalone_and_oracle(name, request, rng):
    b = request.getfixturevalue(name)
    for _ in range(2):
        phi = random_kahler_potential(b, rng, 0.5)
        omega = _random_target(b, rng)
        rep = functional_report(b, phi, omega)
        mu, mu_tilde = k_energy_modified(b, phi)
        standalone = {
            "c": level_constant(b, omega), "I": aubin_i(b, phi),
            "J": aubin_j(b, phi), "j_hat": j_hat(b, omega, phi),
            "j_tilde": j_tilde(b, omega, phi), "entropy": entropy(b, phi),
            "k_energy": k_energy(b, phi), "k_energy_modified": mu_tilde,
            "E": sigma_energy(b, phi, omega)[1]}
        assert mu == standalone["k_energy"]
        for key, want in standalone.items():
            got = getattr(rep, key)
            assert abs(got - want) <= 1e-13 * abs(want), key
        # the functionals that the report leaves out, against 33-node Simpson
        want = oracles.simpson_path_functionals(b, omega.matrices, phi)
        got = {"j_flow": j_flow(b, omega, phi),
               "theta_path_term": theta_path_term(b, phi),
               "i_minus_j_path": aubin_ij(b, phi).i_minus_j_path}
        for key, value in got.items():
            assert abs(value - want[key]) <= 1e-13 * abs(want[key]), key


def test_functional_report_respects_explicit_level(sphere64, rng):
    phi = random_kahler_potential(sphere64, rng, 0.3)
    rep = functional_report(sphere64, phi, sphere64.base_form(), c=2.5)
    assert rep.c == 2.5


# --- input checks -----------------------------------------------------------

@pytest.mark.parametrize("shape", [(16, 1, 1), (33, 1, 1), (1, 1, 1)])
def test_forms_off_the_grid_are_rejected(shape):
    # a form on another grid must not reach the pointwise trace, where it
    # would fail without naming the form or broadcast into a number
    b = make_backend("sphere", size=32)
    phi = 0.5 * random_kahler_potential(b, np.random.default_rng(1), 0.5)
    omega = np.ones(shape)
    for call in (lambda: j_hat(b, omega, phi),
                 lambda: j_tilde(b, omega, phi),
                 lambda: sigma_energy(b, phi, omega),
                 lambda: functional_report(b, phi, omega)):
        with pytest.raises(ShapeMismatchError):
            call()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_potentials_raise(torus64, sphere64, bad):
    for b in (torus64, sphere64):
        phi = np.zeros(b.grid_shape)
        phi.flat[5] = bad
        omega = b.base_form()
        for call in (lambda: aubin_i(b, phi), lambda: aubin_j(b, phi),
                     lambda: entropy(b, phi), lambda: j_tilde(b, omega, phi),
                     lambda: sigma_energy(b, phi, omega),
                     lambda: functional_report(b, phi, omega)):
            with pytest.raises(GeometryError):
                call()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_metric_is_refused(torus64):
    # finite, but its fluxes overflow to +-inf in alternate cells, so the
    # metric is +-inf at alternate nodes
    phi = 1e308 * (-1.0) ** np.arange(64)
    omega = torus64.base_form()
    for call in (lambda: aubin_i(torus64, phi), lambda: entropy(torus64, phi),
                 lambda: sigma_energy(torus64, phi, omega)):
        with pytest.raises(GeometryError):
            call()
    # a constant, however large, has no flux: its metric is the base form
    phi = np.full(torus64.grid_shape, -1e308)
    assert aubin_i(torus64, phi) == entropy(torus64, phi) == 0.0
    assert sigma_energy(torus64, phi, omega)[1] == 1.0


def test_non_kahler_potentials_name_their_context(torus64, sphere64, rng):
    # grid-scale noise: its Hessian dwarfs the reference form, both signs
    for b in (torus64, sphere64):
        phi = rng.normal(size=b.grid_shape)
        omega = b.base_form()
        for call, context in (
                (lambda: aubin_i(b, phi), "aubin energies"),
                (lambda: aubin_j(b, phi), "path quadrature node"),
                (lambda: entropy(b, phi), "entropy"),
                (lambda: j_tilde(b, omega, phi), "path quadrature node"),
                (lambda: sigma_energy(b, phi, omega), "sigma energy"),
                (lambda: functional_report(b, phi, omega),
                 "path quadrature node")):
            with pytest.raises(NotKahlerError, match=context):
                call()
