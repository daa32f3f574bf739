import numpy as np
import pytest

import oracles
from jflow import (
    GeometryError,
    HermitianFormField,
    NotKahlerError,
    classify_margin,
    properness_hypotheses,
    relative_spectrum,
    subsolution_margin,
    theta_of,
)


def constant_form(grid_shape, matrix):
    mats = np.broadcast_to(np.asarray(matrix, float),
                           grid_shape + (2, 2)).copy()
    return HermitianFormField.from_matrices(mats)


# --- relative spectrum -------------------------------------------------------

def test_spectrum_of_form_against_itself(torus2d, sphere64):
    for b in (torus2d, sphere64):
        base = b.base_form()
        spec = relative_spectrum(base, base)
        assert np.allclose(spec.eigenvalues, 1.0, atol=1e-12)
        assert spec.n == b.n
    one_d = relative_spectrum(sphere64.base_form(), sphere64.base_form())
    assert one_d.reconstruction_error == 0.0


def test_spectrum_matches_quadratic_formula(rng):
    grid = (12, 8)
    raws = rng.normal(size=grid + (2, 2))
    chis = raws @ np.swapaxes(raws, -1, -2) + 0.5 * np.eye(2)
    raws2 = rng.normal(size=grid + (2, 2))
    omegas = raws2 @ np.swapaxes(raws2, -1, -2) + 0.3 * np.eye(2)
    spec = relative_spectrum(omegas, HermitianFormField.from_matrices(chis))
    for idx in ((0, 0), (3, 5), (11, 7)):
        want = oracles.eigenvalues_2x2(chis[idx], omegas[idx])
        assert np.allclose(spec.eigenvalues[idx], want, atol=1e-10)
    # ascending order everywhere
    assert np.all(np.diff(spec.eigenvalues, axis=-1) >= 0.0)


def test_spectrum_scale_covariance(torus2d, rng):
    raw = rng.normal(size=torus2d.grid_shape + (2, 2))
    omega = raw @ np.swapaxes(raw, -1, -2) + 0.4 * np.eye(2)
    base = torus2d.base_form()
    spec = relative_spectrum(omega, base)
    doubled = relative_spectrum(2.0 * omega, base)
    assert np.allclose(doubled.eigenvalues, 2.0 * spec.eigenvalues, rtol=1e-12)
    half_metric = torus2d.form(0.5 * base.matrices)
    rescaled = relative_spectrum(omega, half_metric)
    assert np.allclose(rescaled.eigenvalues, 2.0 * spec.eigenvalues, rtol=1e-11)


def test_spectrum_input_validation(torus2d, torus64):
    base = torus2d.base_form()
    with pytest.raises(GeometryError):
        relative_spectrum(np.eye(2), base)
    sick = constant_form(torus2d.grid_shape, np.diag([1.0, -1.0]))
    with pytest.raises(NotKahlerError):
        relative_spectrum(base, sick)


# --- subsolution margin ------------------------------------------------------

def test_margin_diagonal_closed_form(torus2d):
    chi = torus2d.base_form()
    omega = constant_form(torus2d.grid_shape, np.diag([0.7, 1.9]))
    theta = np.full(torus2d.grid_shape, 0.25)
    margin = subsolution_margin(chi, omega, 1.0, theta)
    # n c + theta - mu_max with constant data
    assert abs(margin - (2.0 + 0.25 - 1.9)) < 1e-13


def test_margin_reference_values(torus64, sphere128):
    zeros_t = np.zeros(torus64.grid_shape)
    assert subsolution_margin(torus64.base_form(), torus64.base_form(),
                              1.0, zeros_t) == 1.0
    theta0 = theta_of(sphere128, np.zeros(sphere128.grid_shape))
    margin = subsolution_margin(sphere128.base_form(), sphere128.base_form(),
                                1.0, theta0)
    # n = 1 leaves no retained eigenvalues: margin = c + min theta0
    assert abs(margin - (0.5 + sphere128.m_lo)) < 1e-13


def test_margin_linear_in_level(torus2d, rng):
    raw = rng.normal(size=torus2d.grid_shape + (2, 2))
    omega = raw @ np.swapaxes(raw, -1, -2) + 0.3 * np.eye(2)
    theta = np.zeros(torus2d.grid_shape)
    chi = torus2d.base_form()
    m0 = subsolution_margin(chi, omega, 0.8, theta)
    m1 = subsolution_margin(chi, omega, 1.3, theta)
    # slope is exactly n
    assert abs((m1 - m0) - 2 * 0.5) < 1e-12


def test_margin_boundary_crossing(torus2d):
    chi = torus2d.base_form()
    omega = constant_form(torus2d.grid_shape, 1.2 * np.eye(2))
    theta = np.zeros(torus2d.grid_shape)
    assert classify_margin(subsolution_margin(chi, omega, 0.6, theta)) == "boundary"
    assert classify_margin(subsolution_margin(chi, omega, 0.6 + 1e-6, theta)) == "strict"
    assert classify_margin(subsolution_margin(chi, omega, 0.6 - 1e-6, theta)) == "violated"


def test_margin_theta_shape_checked(torus2d):
    with pytest.raises(GeometryError):
        subsolution_margin(torus2d.base_form(), torus2d.base_form(), 1.0,
                           np.zeros(7))


def test_classify_margin_tolerance():
    assert classify_margin(1e-6) == "strict"
    assert classify_margin(-1e-6) == "violated"
    assert classify_margin(5e-10) == "boundary"
    assert classify_margin(-5e-10) == "boundary"
    assert classify_margin(5e-10, tol=1e-12) == "strict"


def test_margin_agrees_with_minor_check(rng):
    # pointwise verdicts against the determinant-minor characterization
    hits = 0
    for _ in range(50):
        raw = rng.normal(size=(2, 2))
        chi_m = raw @ raw.T + 0.4 * np.eye(2)
        raw2 = rng.normal(size=(2, 2))
        om_m = raw2 @ raw2.T + 0.2 * np.eye(2)
        c = float(rng.uniform(0.2, 1.2))
        t = float(rng.uniform(-0.4, 0.4))
        chi = HermitianFormField.from_matrices(chi_m[None])
        margin = subsolution_margin(chi, om_m[None], c, np.array([t]))
        if abs(margin) <= 1e-9:
            continue
        assert (margin > 0) == oracles.wedge_positive_2x2(chi_m, om_m, c, t)
        hits += 1
    assert hits >= 45


# --- properness hypotheses ---------------------------------------------------

def test_hypotheses_flat_reference_exact_margins(torus64):
    rep = properness_hypotheses(torus64, epsilon=0.1, alpha_lower_bound=0.2)
    m = rep.condition_margins
    # n = 1, vanishing curvature and moment: every margin is elementary
    assert abs(m["alpha_bound"] - 0.3) < 1e-15
    assert m["class_positivity"] == 0.1
    assert m["combined_positivity"] == 0.1
    assert m["level_claim"] == 0.1
    assert all(rep.passes.values())
    assert rep.c == 0.1
    assert rep.min_theta == 0.0
    assert rep.n == 1


def test_hypotheses_alpha_margin_without_slack(torus64):
    rep = properness_hypotheses(torus64, epsilon=0.0, alpha_lower_bound=0.25)
    assert abs(rep.condition_margins["alpha_bound"] - 0.5) < 1e-15
    # epsilon = 0 zeroes the flat-side margins: boundary, not a pass
    assert rep.condition_margins["class_positivity"] == 0.0
    assert rep.passes["class_positivity"] is False


def test_hypotheses_positive_curvature_blocks_class_condition(sphere128):
    rep = properness_hypotheses(sphere128, epsilon=0.1, alpha_lower_bound=0.2)
    assert rep.passes["alpha_bound"] is True
    assert rep.passes["class_positivity"] is False
    assert rep.condition_margins["class_positivity"] < -0.5
    # reference curvature level on the round model
    assert abs(rep.c - (0.1 - 2.0)) < 1e-12


def test_hypotheses_epsilon_sign_checked(torus64):
    # nan used to pass the sign check and give nan margins, inf infinite ones
    for epsilon in (-0.1, float("nan"), float("inf")):
        with pytest.raises(GeometryError, match="epsilon"):
            properness_hypotheses(torus64, epsilon=epsilon,
                                  alpha_lower_bound=0.2)


def test_hypotheses_optional_subsolution_entry(sphere64):
    base = sphere64.base_form()
    rep = properness_hypotheses(sphere64, 0.1, 0.2, omega=base)
    theta0 = theta_of(sphere64, np.zeros(sphere64.grid_shape))
    want = subsolution_margin(base, base, rep.c, theta0)
    assert rep.condition_margins["subsolution_with_omega"] == want
    bare = properness_hypotheses(sphere64, 0.1, 0.2)
    assert "subsolution_with_omega" not in bare.condition_margins


def test_hypotheses_report_round_trip(torus64):
    rep = properness_hypotheses(torus64, 0.1, 0.2)
    d = rep.to_dict()
    assert sorted(d) == ["alpha_lower_bound", "c", "condition_margins",
                         "epsilon", "min_theta", "n", "passes"]
    assert d["passes"]["level_claim"] is True
