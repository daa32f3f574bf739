import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from jflow import (
    FAMILY_NAMES,
    GeometryError,
    HermitianFormField,
    NormalStream,
    Normalization,
    build_metric,
    integrate,
    kahler_margin,
    named_potential,
    normalize,
    random_kahler_potential,
    relative_spectrum,
    scale_to_kahler,
)
import oracles


def test_normalize_mean_zero(torus64, sphere128, rng):
    for b in (torus64, sphere128):
        phi = rng.normal(size=b.grid_shape) + 2.0
        out = normalize(b, phi)
        assert abs(integrate(b, out)) < 1e-10 * b.volume
        again = normalize(b, out)
        assert np.abs(again - out).max() < 1e-13


def test_normalize_sup_zero(torus64, rng):
    phi = rng.normal(size=64)
    out = normalize(torus64, phi, Normalization.SUP_ZERO)
    assert out.max() == 0.0
    assert np.array_equal(normalize(torus64, out, Normalization.SUP_ZERO), out)


def test_normalize_rejects_unknown_mode(torus64):
    with pytest.raises(GeometryError):
        normalize(torus64, np.zeros(64), "loud")


def test_kahler_margin_closed_form(torus128):
    # hessian of a sin(2 pi x) has extreme value a (2 pi)^2 / 4 = a pi^2
    a = 0.05
    phi = a * np.sin(2 * np.pi * torus128.x)
    got = kahler_margin(torus128, phi)
    assert abs(got + a * np.pi**2) < 40.0 * torus128.spacing**2
    assert kahler_margin(torus128, np.zeros(128)) == 0.0


def test_kahler_margin_threshold_is_minus_one(torus128):
    x = torus128.x
    safe = 0.9 / np.pi**2 * np.sin(2 * np.pi * x)
    broken = 1.1 / np.pi**2 * np.sin(2 * np.pi * x)
    assert kahler_margin(torus128, safe) > -1.0
    assert kahler_margin(torus128, broken) < -1.0
    assert build_metric(torus128, torus128.base_form(), safe).kahler
    assert not build_metric(torus128, torus128.base_form(), broken).kahler


def test_scale_to_kahler_respects_margin(torus128, sphere128, rng):
    for b in (torus128, sphere128):
        raw = rng.normal(size=b.grid_shape)
        for amplitude in (0.1, 5.0, 500.0):
            scaled = scale_to_kahler(b, raw, amplitude, margin=0.5)
            assert kahler_margin(b, scaled) >= -0.5 - 1e-12


def test_scale_to_kahler_keeps_small_amplitudes(torus64):
    phi = 0.01 * np.sin(2 * np.pi * torus64.x)
    out = scale_to_kahler(torus64, phi, 1.0)
    assert np.array_equal(out, phi)


def test_kahler_margin_against_generalized_eigh():
    # a sheared base: base^-1 H is not symmetric, so the margin must come
    # from the generalized problem H v = mu B v at each node; checked on a
    # backend-free stack of 2 x 2 forms, where kahler_margin's spectrum
    # is n-dimensional
    raw = np.random.default_rng(0).normal(size=(16 * 16, 2, 2))
    hess = raw + np.swapaxes(raw, -1, -2)
    shear = np.array([[1.0, 0.6], [0.6, 3.0]])
    base = HermitianFormField.from_matrices(
        np.broadcast_to(shear, hess.shape).copy())
    want = min(scipy.linalg.eigh(h, shear, eigvals_only=True)[0]
               for h in hess)
    got = float(relative_spectrum(hess, base).smallest().min())
    assert abs(got - want) < 1e-12


@settings(max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(["sphere", "torus"]),
       amplitude=st.floats(-50.0, 50.0),
       seed=st.integers(0, 2**32 - 1))
def test_scale_to_kahler_bounds_signed_amplitudes(sphere64, torus64, kind,
                                                  amplitude, seed):
    b = {"sphere": sphere64, "torus": torus64}[kind]
    raw = np.random.default_rng(seed).normal(size=b.grid_shape)
    scaled = scale_to_kahler(b, raw, amplitude, margin=0.5)
    assert kahler_margin(b, scaled) >= -0.5 - 1e-12
    assert build_metric(b, b.base_form(), scaled).kahler
    low = kahler_margin(b, np.copysign(1.0, amplitude) * raw)
    if abs(amplitude) * -low <= 0.5:  # unshrunk: amplitude * raw to the bit
        assert np.array_equal(scaled, amplitude * raw)


def test_random_potentials_always_kahler(torus64, sphere64, rng):
    for b in (torus64, sphere64):
        for _ in range(5):
            phi = random_kahler_potential(b, rng, amplitude=2.0)
            assert build_metric(b, b.base_form(), phi).kahler


def test_random_potentials_deterministic_per_seed(sphere64):
    a = random_kahler_potential(sphere64, np.random.default_rng(11), 0.5)
    b = random_kahler_potential(sphere64, np.random.default_rng(11), 0.5)
    c = random_kahler_potential(sphere64, np.random.default_rng(12), 0.5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normal_stream_is_pinned():
    # every seeded potential jflow draws, and so every probe artifact,
    # comes from this stream: a Python release that changes random.gauss
    # fails here instead of moving the artifacts silently
    stream = NormalStream(0)
    assert [stream.standard_normal() for _ in range(4)] == [
        0.9417154046806644, -1.3965781047011498, -0.6797144480784211,
        0.3705035674606598]


def test_named_random_family_repeats_per_seed(torus64, sphere64):
    for b in (torus64, sphere64):
        a = named_potential(b, "random", amplitude=0.3, seed=5)
        assert np.array_equal(
            a, random_kahler_potential(b, NormalStream(5), 0.3))
        assert np.array_equal(
            a, named_potential(b, "random", amplitude=0.3, seed=5))
        assert not np.array_equal(
            a, named_potential(b, "random", amplitude=0.3, seed=6))


def test_family_roster():
    assert FAMILY_NAMES == ("zero", "sine", "cosine", "bump", "translation",
                            "random")


def test_named_families_torus(torus64):
    assert np.array_equal(named_potential(torus64, "zero"), np.zeros(64))
    x = torus64.x
    sine = named_potential(torus64, "sine", amplitude=0.3, wavenumber=2)
    assert np.abs(sine - 0.3 * np.sin(4 * np.pi * x)).max() < 1e-15
    cosine = named_potential(torus64, "cosine", amplitude=0.3)
    assert np.abs(cosine - 0.3 * np.cos(2 * np.pi * x)).max() < 1e-15
    bump = named_potential(torus64, "bump", amplitude=0.2)
    assert abs(bump.mean()) < 1e-13  # centered profile


def test_named_families_sphere(sphere64):
    m = sphere64.m
    sine = named_potential(sphere64, "sine", amplitude=0.4)
    assert np.abs(sine - 0.4 * np.sin(np.pi * m)).max() < 1e-15
    tr = named_potential(sphere64, "translation", amplitude=1.5)
    want = np.log1p((np.exp(1.5) - 1.0) * m)
    assert np.abs(tr - want).max() < 1e-15


def test_translation_refused_on_torus(torus64):
    with pytest.raises(GeometryError):
        named_potential(torus64, "translation", amplitude=1.0)


def test_unknown_family_rejected(torus64, sphere64):
    for b in (torus64, sphere64):
        with pytest.raises(GeometryError):
            named_potential(b, "vortex")


def test_hessian_offset_round_trip(torus128):
    # the torus stencil against the oracle's Fourier inverse of it: exact
    # at grid level, not merely consistent
    x = torus128.x
    offset = 0.4 * np.sin(2 * np.pi * x) + 0.1 * np.cos(6 * np.pi * x)
    psi = oracles.hessian_offset_potential(torus128, offset)
    got = torus128.complex_hessian(psi)[..., 0, 0]
    assert np.abs(got - offset).max() < 1e-12
