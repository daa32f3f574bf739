"""Named potential families and random Kahler potentials.

Families are closed-form expressions evaluated on the backend grid, so
the same name produces consistent functions across resolutions; that is
what makes grid-refinement measurements meaningful.
"""

from __future__ import annotations

import math
import random
from typing import Protocol

import numpy as np

from .fields import GeometryError, Normalization, ScalarField
from .geometry import GeometryBackend, SphereBackend, TorusBackend, integrate


def normalize(backend: GeometryBackend, phi,
              mode: Normalization = Normalization.MEAN_ZERO) -> ScalarField:
    values = backend.check_field(np.asarray(phi, dtype=float), "potential")
    if mode == Normalization.MEAN_ZERO:
        return values - integrate(backend, values) / backend.volume
    if mode == Normalization.SUP_ZERO:
        return values - values.max()
    raise GeometryError(f"unknown normalization {mode!r}")


def kahler_margin(backend: GeometryBackend, phi) -> float:
    """Most negative eigenvalue of the Hessian of phi relative to chi0.

    Values above -1 mean chi0 + hessian(phi) is still positive; the
    margin is what amplitude scaling has to respect.
    """
    hess = backend._complex_hessian(backend.check_field(phi, "potential"))
    return float(backend.trace(backend._base_raw, hess).min())


def scale_to_kahler(backend: GeometryBackend, phi, amplitude: float,
                    margin: float = 0.5) -> ScalarField:
    """amplitude * phi, shrunk if needed so the metric keeps the margin.

    The returned potential has relative Hessian eigenvalues >= -(1 -
    margin), so build_metric never rejects it.  Scaling is by the
    Hessian eigenvalue, not the sup norm: a small oscillatory potential
    can already break positivity.  The shrink applies to |amplitude|
    times sign(amplitude) * phi, so a negative amplitude is bounded too.
    """
    values = math.copysign(1.0, amplitude) * np.asarray(phi, dtype=float)
    low = kahler_margin(backend, values)
    scale = abs(amplitude)
    if low < 0 and scale * abs(low) > 1.0 - margin:
        scale = (1.0 - margin) / abs(low)
    return scale * values


class NormalSource(Protocol):
    """What random_kahler_potential draws from: one standard normal per
    call, as NormalStream and numpy's Generator both give."""

    def standard_normal(self) -> float: ...


class NormalStream(random.Random):
    """Seeded standard normals from the standard library's Mersenne Twister.

    jflow draws every seeded potential it makes from this stream, so the
    draws do not depend on the numpy version and no command loads
    numpy.random.
    """

    def standard_normal(self) -> float:
        return self.gauss(0.0, 1.0)


def random_kahler_potential(backend: GeometryBackend,
                            rng: NormalSource,
                            amplitude: float = 0.5,
                            modes: int = 4,
                            margin: float = 0.5) -> ScalarField:
    """Band-limited random potential, guaranteed Kahler by construction."""
    if isinstance(backend, SphereBackend):
        m = backend.m
        raw = np.zeros_like(m)
        for k in range(1, modes + 1):
            raw += rng.standard_normal() * np.sin(np.pi * k * m)
            raw += rng.standard_normal() * np.cos(np.pi * k * m)
    else:
        x = backend.x
        raw = np.zeros_like(x)
        for k in range(1, modes + 1):
            raw += rng.standard_normal() * np.sin(2.0 * np.pi * k * x)
            raw += rng.standard_normal() * np.cos(2.0 * np.pi * k * x)
    return scale_to_kahler(backend, raw, amplitude, margin)


def _torus_family(backend: TorusBackend, name: str, amplitude: float,
                  wavenumber: int) -> ScalarField:
    x = backend.x
    if name == "zero":
        return np.zeros(backend.grid_shape)
    if name == "sine":
        return amplitude * np.sin(2.0 * np.pi * wavenumber * x)
    if name == "cosine":
        return amplitude * np.cos(2.0 * np.pi * wavenumber * x)
    if name == "bump":
        # Periodic bump: von Mises profile, mean removed.
        prof = np.exp(np.cos(2.0 * np.pi * x) * wavenumber)
        return amplitude * (prof / prof.mean() - 1.0)
    raise GeometryError(f"unknown torus potential family {name!r}")


def _sphere_family(backend: SphereBackend, name: str, amplitude: float,
                   wavenumber: int) -> ScalarField:
    m = backend.m
    if name == "zero":
        return np.zeros(backend.grid_shape)
    if name == "sine":
        return amplitude * np.sin(np.pi * wavenumber * m)
    if name == "cosine":
        return amplitude * np.cos(np.pi * wavenumber * m)
    if name == "bump":
        return amplitude * np.exp(-((m - 0.5) * 4.0 * wavenumber) ** 2)
    if name == "translation":
        # Pullback of the base metric under the moment translation flow;
        # stays Kahler for any amplitude above -1 of e^a - 1.
        return np.log1p((np.exp(amplitude) - 1.0) * m)
    raise GeometryError(f"unknown sphere potential family {name!r}")


FAMILY_NAMES = ("zero", "sine", "cosine", "bump", "translation", "random")


def named_potential(backend: GeometryBackend, name: str,
                    amplitude: float = 0.1, wavenumber: int = 1,
                    seed: int = 0) -> ScalarField:
    """Evaluate a named closed-form family on the backend grid."""
    if name == "random":
        return random_kahler_potential(
            backend, NormalStream(seed), amplitude)
    if isinstance(backend, SphereBackend):
        return _sphere_family(backend, name, amplitude, wavenumber)
    if isinstance(backend, TorusBackend):
        if name == "translation":
            raise GeometryError(
                "the translation family needs a vector field; "
                "the torus reduction has none")
        return _torus_family(backend, name, amplitude, wavenumber)
    raise GeometryError(f"no potential families for backend {backend.name!r}")

