"""Legendre duality and geodesic paths for invariant sphere potentials.

In the rotation-invariant reduction, a metric chi_phi corresponds to a
convex symplectic potential u(m) on the moment interval, and the
geodesic equation

    phi_dd = (X phi_d)^2 / rho_chi

linearizes: a path of potentials is a geodesic exactly when the dual
path u_t is affine in t.  That duality is what this module implements;
convexity probing of energy functionals rides on top of it.

The torus reduction admits only constant invariant potentials, so every
entry point refuses torus backends with UnsupportedBackend.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable, Sequence

import numpy as np

from .fields import (ConvexityLost, GeometryError, HermitianFormField,
                     ScalarField, UnsupportedBackend)
from .functionals import (_values, aubin_i, aubin_j, entropy, j_flow, j_hat,
                          j_tilde, k_energy, k_energy_modified)
from .geometry import GeometryBackend, SphereBackend, integrate

# Root tolerance in the moment variable for both transform directions.
LEGENDRE_TOL = 1e-10

# Fraction of the unsampled boundary gap kept out of the root bracket.
# Roots live in the open moment interval, and their excursion past the
# grid is bounded by the gap itself, so data is never extrapolated
# farther than the gap width.  A sup pinned into the last sliver of the
# gap has left the resolvable chart and raises ConvexityLost.
TAIL_SLIVER = 1e-3


def _require_sphere(backend: GeometryBackend) -> SphereBackend:
    if not isinstance(backend, SphereBackend):
        raise UnsupportedBackend(
            "geodesics need the moment-interval reduction; on the torus the "
            "invariant potentials are the constants and every path is trivial")
    return backend


@dataclass(frozen=True)
class SymplecticPotential:
    """u(m) on the backend moment grid, with its convexity verdict.

    ``convex`` records whether every discrete second difference of the
    values is nonnegative, which is what positivity of the dual metric
    looks like on this side of the transform.
    """

    values: np.ndarray
    convex: bool

    @classmethod
    def from_values(cls, values: np.ndarray) -> "SymplecticPotential":
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise GeometryError("symplectic potential contains non-finite entries")
        convex = bool(np.all(np.diff(values, 2) >= 0.0))
        return cls(values=values, convex=convex)

    def second_differences(self) -> np.ndarray:
        return np.diff(self.values, 2)


def _bspline_basis(t: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    """Dense Cox-de Boor table B[i, j] = B_j(x_i) of the degree-k B-splines
    on knots t.  Points left of t[k] or right of t[-k-1] take the
    polynomial of the end piece, so the end pieces extrapolate."""
    n = t.size - k - 1
    cell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    basis = (np.arange(t.size - 1) == cell[:, None]).astype(float)
    for d in range(1, k + 1):
        j = np.arange(t.size - d - 1)
        # A zero-width support only ever meets a zero basis function.
        spans = (t[j + d] - t[j], t[j + d + 1] - t[j + 1])
        inv = [np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)
               for s in spans]
        basis = ((x[:, None] - t[j]) * inv[0] * basis[:, :-1]
                 + (t[j + d + 1] - x[:, None]) * inv[1] * basis[:, 1:])
    return basis


@lru_cache(maxsize=4)
def _quintic_fit(grid: bytes) -> np.ndarray:
    """Map from values on the grid m to the Taylor coefficients, at every
    node, of their quintic not-a-knot interpolating spline.

    The knots are m[0] and m[-1] six times each with m[3:-3] between, the
    spline interpolates at every node, and the end pieces extend past the
    grid as polynomials.  Row 6 i + d of the map gives the d-th derivative
    over d! at m[i], of the piece right of m[i] (left of it at the last
    node).  Read-only, since every fit on this grid shares it.
    """
    m = np.frombuffer(grid)
    k = 5
    t = np.r_[(m[0],) * (k + 1), m[3:-3], (m[-1],) * (k + 1)]
    # Derivative nu of the spline with B-spline coefficients c is
    # _bspline_basis(t[nu:-nu], k - nu, x) @ diff @ c.
    diff = np.eye(m.size)
    taylor = []
    for nu in range(k + 1):
        if nu:
            deg, prev = k - nu + 1, t[nu - 1:t.size - nu + 1]
            width = prev[deg + 1:-1] - prev[1:-deg - 1]
            diff = deg * np.diff(diff, axis=0) / width[:, None]
        taylor.append(_bspline_basis(t[nu:t.size - nu], k - nu, m) @ diff
                      / factorial(nu))
    # c solves the collocation system _bspline_basis(t, k, m) @ c = values.
    taylor = np.stack(taylor, axis=1).reshape(-1, m.size)
    fit = np.linalg.solve(_bspline_basis(t, k, m).T, taylor.T).T
    fit.flags.writeable = False
    return fit


class _Quintic:
    """Quintic not-a-knot interpolating spline of values on the grid m.

    The spline of _quintic_fit, extrapolation into the boundary gaps
    included, kept as its Taylor polynomial at every node: expanding at
    the nodes rather than only at the knots keeps |x - node| within a
    cell, and with it the round-off of the high-order terms.  ``values``
    holds one column per trailing index, and evaluation at x returns
    arrays of shape x.shape + values.shape[1:].
    """

    def __init__(self, m: np.ndarray, values: np.ndarray):
        self.nodes = np.asarray(m, dtype=float)
        fit = _quintic_fit(self.nodes.tobytes())
        values = np.asarray(values, dtype=float)
        taylor = (fit @ values.reshape(m.size, -1)).reshape(m.size, 6, -1)
        # Degree last, so one gather per evaluation fetches whole polynomials.
        self.coef = np.ascontiguousarray(np.moveaxis(taylor, 1, -1)).reshape(
            m.size, *values.shape[1:], 6)

    def __call__(self, x: np.ndarray, *orders: int) -> list[np.ndarray]:
        """The derivatives of the given orders (0 is the value) at x."""
        node = np.clip(np.searchsorted(self.nodes, x, side="right") - 1,
                       0, self.nodes.size - 1)
        coef = self.coef[node]
        dx = (x - self.nodes[node]).reshape(
            node.shape + (1,) * (coef.ndim - node.ndim - 1))
        out = []
        for nu in orders:
            # Horner on the nu-th derivative of sum_d coef[..., d] dx^d.
            acc = coef[..., 5] * (factorial(5) // factorial(5 - nu))
            for d in range(4, nu - 1, -1):
                acc = acc * dx + coef[..., d] * (factorial(d) // factorial(d - nu))
            out.append(acc)
        return out


def _solve_monotone(func: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                    lo: float, hi: float, x0: np.ndarray, targets: np.ndarray,
                    tol: float) -> np.ndarray:
    """Componentwise root of func(x).value = target on a common bracket.

    Safeguarded Newton from x0: a component is done once its Newton
    correction is below tol / 100 or its bracket is narrower than tol.
    Other iterates that leave their bracket fall back to bisection, so
    convergence only needs the bracket to hold a sign change.  Callers
    check the bracket before calling.
    """
    lo_arr = np.full(targets.shape, lo, dtype=float)
    hi_arr = np.full(targets.shape, hi, dtype=float)
    x = np.broadcast_to(np.asarray(x0, dtype=float), targets.shape)
    for _ in range(200):
        value, slope = func(x)
        f = value - targets
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / slope
        usable = (slope > 0.0) & np.isfinite(newton)
        # Tested before the bracket update: a converged iterate lands on
        # the end of its own bracket and would fail the strict test below.
        settled = usable & (np.abs(newton - x) < 0.01 * tol)
        lo_arr = np.where(f <= 0.0, x, lo_arr)
        hi_arr = np.where(f > 0.0, x, hi_arr)
        inside = usable & (newton > lo_arr) & (newton < hi_arr)
        x_new = np.where(settled | inside, newton, 0.5 * (lo_arr + hi_arr))
        if np.all(settled | (hi_arr - lo_arr < tol)):
            return x_new
        x = x_new
    raise GeometryError("moment root refinement failed to reach tolerance")


def _base_symplectic(backend: SphereBackend) -> np.ndarray:
    # Closed-form dual of the round chart potential.
    m = backend.m
    return m * np.log(m) + (1.0 - m) * np.log1p(-m)


def legendre_transform(backend: GeometryBackend, phi) -> SymplecticPotential:
    """u(m) = sup_s (m s - f(s)) for the total chart potential f = f0 + phi.

    The sup sits where the deformed moment m + X(phi) equals the target,
    so the transform reduces to a monotone solve per grid node.  Roots
    may run into the unsampled gap between the grid and the true
    interval ends; a sup that needs even the last TAIL_SLIVER of that
    gap is pinned against the truncation boundary and raises
    ConvexityLost.
    """
    sphere = _require_sphere(backend)
    values = sphere.check_field(_values(phi), "potential")
    sphere.metric(values, "legendre transform")
    m = sphere.m
    # Quintic interpolation keeps the end-derivative error well under the
    # round-trip tolerance.
    spline = _Quintic(m, values)

    def moment(x):
        rho0 = x * (1.0 - x)
        first, second = spline(x, 1, 2)
        return (x + rho0 * first,
                1.0 + (1.0 - 2.0 * x) * first + rho0 * second)

    lo = TAIL_SLIVER * sphere.m_lo
    hi = 1.0 - lo
    image_lo = moment(np.array([lo]))[0][0]
    image_hi = moment(np.array([hi]))[0][0]
    if image_lo > m[0] or image_hi < m[-1]:
        raise ConvexityLost(
            "legendre sup attained at the s-truncation boundary: moment image "
            f"[{image_lo:.8f}, {image_hi:.8f}] does not cover the grid")
    # The round chart's sup sits at the grid node itself.
    m_star = _solve_monotone(moment, lo, hi, m, m, LEGENDRE_TOL)
    s_star = np.log(m_star) - np.log1p(-m_star)
    u = m * s_star + np.log1p(-m_star) - spline(m_star, 0)[0]
    return SymplecticPotential.from_values(u)


def _inverse_rows(sphere: SphereBackend, deviations: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """Chart potentials of u0 + deviations @ w for each row w of weights.

    ``deviations`` holds one column per symplectic potential, as its
    deviation from the round-chart dual u0 on the grid.  A spline fit is
    linear in its data, so the columns share one fit and each row's
    spline is the weighted sum of the column splines.  Every row solves
    u'(m) = s in one monotone solve; rows come back in weight order.
    """
    m = sphere.m
    columns = _Quintic(m, deviations)

    def deviation(x, *orders):
        return [np.sum(d * weights[:, None, :], axis=-1)
                for d in columns(x, *orders)]

    def slope(x):
        rho0 = x * (1.0 - x)
        first, second = deviation(x, 1, 2)
        return (np.log(x) - np.log1p(-x) + first, 1.0 / rho0 + second)

    lo = TAIL_SLIVER * sphere.m_lo
    hi = 1.0 - lo
    targets = sphere.s
    rows = len(weights)
    if np.any(slope(np.full((rows, 1), lo))[0] > targets[0]) or \
            np.any(slope(np.full((rows, 1), hi))[0] < targets[-1]):
        raise ConvexityLost(
            "inverse legendre slope range does not cover the chart: the sup "
            "is attained at the s-truncation boundary")
    # The round chart's root for s_i is the grid node m_i itself.
    m_star = _solve_monotone(slope, lo, hi, m,
                             np.broadcast_to(targets, (rows, m.size)),
                             LEGENDRE_TOL)
    u_star = (m_star * np.log(m_star) + (1.0 - m_star) * np.log1p(-m_star)
              + deviation(m_star, 0)[0])
    return m_star * targets - u_star - sphere.f0


def legendre_inverse(backend: GeometryBackend,
                     u: SymplecticPotential | np.ndarray) -> ScalarField:
    """Chart potential phi with legendre_transform(phi) = u.

    Solves u'(m) = s per grid node (monotone Newton with bisection
    fallback, tolerance LEGENDRE_TOL in m) and evaluates
    phi(s) = m* s - u(m*) - f0(s).  Only the deviation of u from the
    round-chart dual is interpolated, so the log-singular part of u' at
    the interval ends is handled exactly and roots may sit anywhere in
    the open moment interval, boundary gap included, short of the last
    TAIL_SLIVER of it.
    """
    sphere = _require_sphere(backend)
    uv = u.values if isinstance(u, SymplecticPotential) else np.asarray(u, dtype=float)
    if uv.shape != sphere.grid_shape:
        raise GeometryError(
            f"symplectic potential shape {uv.shape} does not match grid "
            f"{sphere.grid_shape}")
    deviation = (uv - _base_symplectic(sphere))[:, None]
    return _inverse_rows(sphere, deviation, np.ones((1, 1)))[0]


def geodesic_path(backend: GeometryBackend, phi_a, phi_b,
                  steps: int) -> list[ScalarField]:
    """Potentials along the geodesic from phi_a to phi_b.

    ``steps`` is the number of samples returned, at uniform t in [0, 1];
    the path is affine between the endpoint symplectic potentials, which
    is what solves the geodesic equation in this reduction.  All samples
    are solved together, and every sample is positivity-checked.
    """
    sphere = _require_sphere(backend)
    if steps < 2:
        raise GeometryError("a geodesic path needs at least its two endpoints")
    u0 = _base_symplectic(sphere)
    ends = np.stack([legendre_transform(sphere, phi_a).values - u0,
                     legendre_transform(sphere, phi_b).values - u0], axis=1)
    ts = np.linspace(0.0, 1.0, steps)
    rows = _inverse_rows(sphere, ends, np.stack([1.0 - ts, ts], axis=1))
    for phi_t in rows:
        sphere.metric(phi_t, "geodesic sample")
    return list(rows)


def geodesic_residual(backend: GeometryBackend,
                      path: Sequence) -> float:
    """Sup norm of phi_dd - (X phi_d)^2 / rho over interior path nodes.

    Time derivatives are central differences at the path's own node
    spacing, so for an exact geodesic this decays like the square of
    the grid and node spacings together.  Every interior node must be
    Kahler, as on every other geodesic entry point.
    """
    sphere = _require_sphere(backend)
    if len(path) < 3:
        raise GeometryError("residual needs at least three path nodes")
    arr = np.stack([sphere.check_field(_values(p), "path node") for p in path])
    dt = 1.0 / (len(path) - 1)
    worst = 0.0
    for k in range(1, len(path) - 1):
        accel = (arr[k + 1] - 2.0 * arr[k] + arr[k - 1]) / dt**2
        vel = (arr[k + 1] - arr[k - 1]) / (2.0 * dt)
        rho = sphere.metric(arr[k], "geodesic residual")
        residual = accel - sphere.vector_field_action(vel)**2 / rho
        worst = max(worst, float(np.abs(residual).max()))
    return worst


def _mean_value(backend, phi, omega):
    return integrate(backend, _values(phi)) / backend.volume


_OMEGA_FREE = {
    "i": lambda b, phi, om: aubin_i(b, phi),
    "j": lambda b, phi, om: aubin_j(b, phi),
    "entropy": lambda b, phi, om: entropy(b, phi),
    "k_energy": lambda b, phi, om: k_energy(b, phi),
    "k_energy_modified": lambda b, phi, om: k_energy_modified(b, phi)[1],
    "mean": _mean_value,
}

_OMEGA_BOUND = {
    "j_hat": lambda b, phi, om: j_hat(b, om, phi),
    "j_tilde": lambda b, phi, om: j_tilde(b, om, phi),
    "j_flow": lambda b, phi, om: j_flow(b, om, phi),
}

FUNCTIONAL_IDS = tuple(sorted(_OMEGA_FREE) + sorted(_OMEGA_BOUND))


@dataclass(frozen=True)
class ProbeReport:
    """Functional values along a path and their raw second differences.

    ``second_differences[k]`` belongs to the interior node ``ts[k + 1]``;
    values are not rescaled by the node spacing, matching how the
    convexity thresholds are stated.
    """

    functional_id: str
    ts: np.ndarray
    values: np.ndarray
    second_differences: np.ndarray

    @property
    def min_second_difference(self) -> float:
        return float(self.second_differences.min())

    @property
    def t_at_min(self) -> float:
        return float(self.ts[1 + int(np.argmin(self.second_differences))])


def convexity_probe(backend: GeometryBackend, functional_id: str,
                    path: Sequence, omega=None) -> ProbeReport:
    """Evaluate a named functional along a path and report convexity.

    The probe reports raw second differences, negative ones included;
    it never rejects a path for failing to be convex.  ``omega``
    defaults to the base form and must be positive for the functionals
    that pair against it.
    """
    sphere = _require_sphere(backend)
    if len(path) < 3:
        raise GeometryError("a convexity probe needs at least three path nodes")
    if functional_id in _OMEGA_FREE:
        fn = _OMEGA_FREE[functional_id]
        om = omega
    elif functional_id in _OMEGA_BOUND:
        fn = _OMEGA_BOUND[functional_id]
        if omega is None:
            om = sphere.base_form()
        elif isinstance(omega, HermitianFormField):
            om = omega
        else:
            om = sphere.form(np.asarray(omega, dtype=float))
        om.require_kahler(f"{functional_id} probe reference")
    else:
        raise GeometryError(
            f"unknown functional id {functional_id!r}; expected one of "
            f"{', '.join(FUNCTIONAL_IDS)}")
    ts = np.linspace(0.0, 1.0, len(path))
    values = np.array([fn(sphere, _values(p), om) for p in path])
    return ProbeReport(functional_id=functional_id, ts=ts, values=values,
                       second_differences=np.diff(values, 2))
