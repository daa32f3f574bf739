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

from functools import lru_cache, partial
from math import factorial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .fields import (ConvexityLost, GeometryError, HermitianFormField,
                     ScalarField, UnsupportedBackend)
from .functionals import (_aubin_i_rows, _aubin_j_rows, _entropy_rows,
                          _j_flow_rows, _j_hat_rows, _j_tilde_rows,
                          _k_energy_rows)
from .geometry import GeometryBackend, SphereBackend

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


class SymplecticPotential(NamedTuple):
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


def _local_taylor(t: np.ndarray, cell: np.ndarray, x: np.ndarray,
                  k: int) -> np.ndarray:
    """Taylor coefficients at each x[i] of the k + 1 degree-k B-splines on
    knots t that are nonzero on the knot cell [t[cell[i]], t[cell[i] + 1]].

    out[d, i, l] is the degree-d coefficient at x[i] of B_{cell[i]-k+l}.
    The Cox-de Boor recurrence runs on polynomials in x' - x[i], so a
    point outside its cell takes the polynomial of that cell, and every
    knot difference it divides by spans the cell, which must have
    positive width.
    """
    poly = np.zeros((1, x.size, k + 1))  # (B-spline, point, degree)
    poly[0, :, 0] = 1.0
    for p in range(1, k + 1):
        # Degree p - 1 B-spline l spans knots lo[l] to hi[l] and, at degree
        # p, feeds B-splines l (through hi - x') and l + 1 (through x' - lo).
        knot = cell + np.arange(p)[:, None]
        lo, hi = t[knot - p + 1], t[knot + 1]
        term = poly / (hi - lo)[..., None]
        # term times x' - x[i]
        shifted = np.zeros_like(term)
        shifted[..., 1:] = term[..., :-1]
        poly = np.zeros((p + 1,) + term.shape[1:])
        poly[1:] += (x - lo)[..., None] * term + shifted
        poly[:-1] += (hi - x)[..., None] * term - shifted
    return np.ascontiguousarray(poly.transpose(2, 1, 0))


def _banded_inverse(a: np.ndarray, width: int) -> np.ndarray:
    """Inverse of a, with no entry more than width off the diagonal.

    Gauss-Jordan elimination without pivoting, on rows: for a totally
    positive matrix, such as a B-spline collocation matrix, every pivot
    is positive and the elimination is stable (de Boor and Pinkus 1977),
    and it fills in nothing outside the band.
    """
    n = a.shape[0]
    work = np.concatenate([a, np.eye(n)], axis=1)
    for p in range(n):
        row = work[p]
        row /= row[p]
        below = work[p + 1:p + 1 + width]
        below -= below[:, p, None] * row
    for p in range(n - 1, 0, -1):
        above = work[max(p - width, 0):p]
        above -= above[:, p, None] * work[p]
    return work[:, n:].copy()


@lru_cache(maxsize=4)
def _quintic_fit(grid: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What fitting a quintic not-a-knot interpolating spline on the grid
    m takes: (support, local, inverse).

    The knots are m[0] and m[-1] six times each with m[3:-3] between, the
    spline interpolates at every node, and the end pieces extend past the
    grid as polynomials.  At node i, B-splines support[i, 0..5] are the
    ones nonzero on the piece right of m[i] (left of it at the last
    node), and local[d, i, l] is the degree-d Taylor coefficient at m[i]
    of B-spline support[i, l].  inverse is the inverse of the collocation
    matrix, whose row i holds local[0, i] in the columns support[i]: it
    maps values at the nodes to B-spline coefficients.  inverse holds
    N^2 entries and the rest 42 N, so the cache is O(N^2) per grid.  No
    BLAS or LAPACK call builds it.  Read-only, since every fit on this
    grid shares it.
    """
    m = np.frombuffer(grid)
    k = 5
    t = np.r_[(m[0],) * (k + 1), m[3:-3], (m[-1],) * (k + 1)]
    cell = np.clip(np.searchsorted(t, m, side="right") - 1, k, m.size - 1)
    support = cell[:, None] - k + np.arange(k + 1)
    local = _local_taylor(t, cell, m, k)
    collocation = np.zeros((m.size, m.size))
    np.put_along_axis(collocation, support, local[0], axis=1)
    # Row i's nonzeros start at column cell[i] - 5, between i - 5 and i.
    inverse = _banded_inverse(collocation, k)
    for arr in (support, local, inverse):
        arr.flags.writeable = False
    return support, local, inverse


def _horner(coef: np.ndarray, dx: np.ndarray, orders) -> list[np.ndarray]:
    """The derivatives of the given orders of sum_d coef[d] dx^d at dx."""
    out = []
    for nu in orders:
        acc = coef[5] * (factorial(5) // factorial(5 - nu))
        for d in range(4, nu - 1, -1):
            acc = acc * dx + coef[d] * (factorial(d) // factorial(d - nu))
        out.append(acc)
    return out


class _Quintic:
    """Quintic not-a-knot interpolating splines on the grid m, one per row
    of weights: row r is sum_j weights[r, j] times the spline of column j
    of values (of values itself, if it is one column).

    The spline of _quintic_fit, extrapolation into the boundary gaps
    included, kept as its Taylor polynomial at every node: expanding at
    the nodes rather than only at the knots keeps |x - node| within a
    cell, and with it the round-off of the high-order terms.  Fitting
    takes the cached inverse times the values (O(N^2) per column), then,
    node by node, the local Taylor coefficients against the six B-spline
    coefficients there (O(N)), and then the weighted sums of the columns,
    as einsum and elementwise products: no BLAS call and no dense map.
    ``coef[d]`` holds the degree-d coefficients, row by row and within a
    row node by node.  Called at x of shape (rows, points), row r of x
    is evaluated on spline r, so each Horner term is one gathered array.
    """

    def __init__(self, m: np.ndarray, values: np.ndarray, weights: np.ndarray):
        self.nodes = np.asarray(m, dtype=float)
        size = self.nodes.size
        support, local, inverse = _quintic_fit(self.nodes.tobytes())
        bspline = np.einsum("ij,j...->i...", inverse,
                            np.asarray(values, dtype=float))
        columns = np.einsum("dil,il...->di...", local, bspline[support])
        self.coef = np.einsum("dij,rj->dri", columns.reshape(6, size, -1),
                              weights).reshape(6, -1)
        # Row r's node i sits at r N + i of the flattened (row, node) axis.
        self.offset = size * np.arange(len(weights))[:, None]

    def __call__(self, x: np.ndarray, *orders: int) -> list[np.ndarray]:
        """The derivatives of the given orders (0 is the value) at x."""
        # The last node at or left of x, else the first: counting the
        # nodes after the first that are <= x needs no clip.
        node = np.searchsorted(self.nodes[1:], x, side="right")
        coef = self.coef.take(node + self.offset, axis=1)
        return _horner(coef, x - self.nodes[node], orders)


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


def _round_dual(x: np.ndarray) -> np.ndarray:
    """u0(x) = x log x + (1 - x) log(1 - x), the round chart's dual."""
    return x * np.log(x) + (1.0 - x) * np.log1p(-x)


def _logit(x: np.ndarray) -> np.ndarray:
    """u0'(x) = log x - log(1 - x), the chart variable s at moment x."""
    return np.log(x) - np.log1p(-x)


def _conjugate(sphere: SphereBackend, gradient, target: np.ndarray,
               rows: int, direction: str) -> np.ndarray:
    """The roots x, of shape (rows, target.size), of gradient(x) = target.

    gradient(x), at x of shape (rows, points), gives row r's monotone
    function and its derivative at row r's points; target rises with
    the grid.  The bracket is [TAIL_SLIVER m_lo, 1 - TAIL_SLIVER
    m_lo]: a row whose gradient there does not cover the target has its
    sup pinned against the s-truncation boundary, and raises
    ConvexityLost naming the direction and that row's range.
    """
    lo = TAIL_SLIVER * sphere.m_lo
    hi = 1.0 - lo
    ends = gradient(np.tile([lo, hi], (rows, 1)))[0]
    short = (ends[:, 0] > target[0]) | (ends[:, 1] < target[-1])
    if short.any():
        r = int(np.argmax(short))
        raise ConvexityLost(
            f"{direction}: sup attained at the s-truncation boundary: row "
            f"{r}'s gradient range [{ends[r, 0]:.8f}, {ends[r, 1]:.8f}] "
            f"does not cover its targets [{target[0]:.8f}, {target[-1]:.8f}]")
    # The round chart's root for the i-th target is the grid node m_i.
    return _solve_monotone(gradient, lo, hi, sphere.m,
                           np.broadcast_to(target, (rows, target.size)),
                           LEGENDRE_TOL)


def _transform_rows(sphere: SphereBackend, phis: np.ndarray) -> np.ndarray:
    """The legendre_transform values of each row of phis, in one solve.

    Each row is a potential on the grid, already shape-checked; all of
    them are positivity-checked in one stacked metric check, fitted in
    one spline fit and solved in one monotone solve of m + X(phi) = m_i.
    """
    sphere.metric(phis, "legendre transform")
    m = sphere.m
    # Quintic interpolation keeps the end-derivative error well under the
    # round-trip tolerance.
    spline = _Quintic(m, phis.T, np.eye(len(phis)))

    def moment(x):
        rho0 = x * (1.0 - x)
        first, second = spline(x, 1, 2)
        return (x + rho0 * first,
                1.0 + (1.0 - 2.0 * x) * first + rho0 * second)

    m_star = _conjugate(sphere, moment, m, len(phis), "legendre transform")
    return m * _logit(m_star) + np.log1p(-m_star) - spline(m_star, 0)[0]


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
    values = sphere.check_field(phi, "potential")
    return SymplecticPotential.from_values(_transform_rows(sphere, values[None])[0])


def _inverse_rows(sphere: SphereBackend, deviations: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """Chart potentials of u0 + sum_j w[j] deviations[:, j] for each row w
    of weights.

    ``deviations`` holds one column per symplectic potential, as its
    deviation from the round-chart dual u0 on the grid.  A spline fit is
    linear in its data, so the columns share one fit, and each row's
    spline, the weighted sum of the column splines, is formed once,
    before the solve.  Every row solves u'(m) = s in one monotone solve;
    rows come back in weight order.
    """
    deviation = _Quintic(sphere.m, deviations, weights)

    def slope(x):
        first, second = deviation(x, 1, 2)
        return (_logit(x) + first, 1.0 / (x * (1.0 - x)) + second)

    m_star = _conjugate(sphere, slope, sphere.s, len(weights),
                        "inverse legendre transform")
    u_star = _round_dual(m_star) + deviation(m_star, 0)[0]
    return m_star * sphere.s - u_star - sphere.f0


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

    The error of the round trip legendre_inverse(legendre_transform(phi))
    scales like delta^5 at nodes 3 to N - 4 (delta the moment spacing)
    and like delta^4 at the end nodes, whose roots lie in the boundary
    gaps, where the quintic spline extrapolates its end pieces.  The
    constants vary by draw: over random_kahler_potential draws (N = 64
    to 256, amplitude up to 0.5) the error reached 2.7e4 delta^5 at node
    N - 4 and 2,652 delta^4 at node N - 1, both at N = 232.
    """
    sphere = _require_sphere(backend)
    uv = u.values if isinstance(u, SymplecticPotential) else np.asarray(u, dtype=float)
    if uv.shape != sphere.grid_shape:
        raise GeometryError(
            f"symplectic potential shape {uv.shape} does not match grid "
            f"{sphere.grid_shape}")
    deviation = (uv - _round_dual(sphere.m))[:, None]
    return _inverse_rows(sphere, deviation, np.ones((1, 1)))[0]


def geodesic_path(backend: GeometryBackend, phi_a, phi_b,
                  steps: int) -> list[ScalarField]:
    """Potentials along the geodesic from phi_a to phi_b.

    ``steps`` is the number of samples returned, at uniform t in [0, 1];
    the path is affine between the endpoint symplectic potentials, which
    is what solves the geodesic equation in this reduction.  All samples
    are solved together, and every sample is positivity-checked, in one
    stacked metric check.
    """
    sphere = _require_sphere(backend)
    if steps < 2:
        raise GeometryError("a geodesic path needs at least its two endpoints")
    ends = _transform_rows(sphere, np.stack([
        sphere.check_field(phi_a, "potential"),
        sphere.check_field(phi_b, "potential")])) - _round_dual(sphere.m)
    ts = np.linspace(0.0, 1.0, steps)
    rows = _inverse_rows(sphere, ends.T, np.stack([1.0 - ts, ts], axis=1))
    sphere.metric(rows, "geodesic sample")
    return list(rows)


def _moment_derivative(phi: np.ndarray, delta: float) -> np.ndarray:
    """d(phi)/dm along the trailing axis: central inside, one-sided
    three-point at the ends.

    Times m (1 - m) it is X(phi) to O(delta^3) at the end nodes, where
    the flux mean of the flow's X is only O(delta^2), and that keeps the
    geodesic residual second order up to the poles.
    """
    # Indexed through the transposes, where the trailing axis leads: the
    # end nodes of one field stay scalars.
    out = np.empty_like(phi)
    p, o = phi.T, out.T
    o[1:-1] = (p[2:] - p[:-2]) / (2.0 * delta)
    o[0] = (-3.0 * p[0] + 4.0 * p[1] - p[2]) / (2.0 * delta)
    o[-1] = (3.0 * p[-1] - 4.0 * p[-2] + p[-3]) / (2.0 * delta)
    return out


def geodesic_residual(backend: GeometryBackend,
                      path: Sequence) -> float:
    """Sup norm of phi_dd - (X phi_d)^2 / rho over interior path nodes.

    Time derivatives are central differences at the path's own node
    spacing, and X is m (1 - m) times _moment_derivative, so for an
    exact geodesic this decays like the square of the grid and node
    spacings together.  Every interior node must be
    Kahler, as on every other geodesic entry point; all of them are
    checked, and their residuals taken, on one stack.
    """
    sphere = _require_sphere(backend)
    if len(path) < 3:
        raise GeometryError("residual needs at least three path nodes")
    arr = np.stack([sphere.check_field(p, "path node") for p in path])
    dt = 1.0 / (len(path) - 1)
    accel = (arr[2:] - 2.0 * arr[1:-1] + arr[:-2]) / dt**2
    vel = (arr[2:] - arr[:-2]) / (2.0 * dt)
    rho = sphere.metric(arr[1:-1], "geodesic residual")
    residual = accel - (sphere.mprime
                        * _moment_derivative(vel, sphere.delta))**2 / rho
    return float(np.abs(residual).max())


def _mean_rows(backend, phis):
    vol0 = backend.raw_volume_density(backend._base_raw)
    return np.sum(phis * vol0, axis=-1) / backend.volume


# The probed functionals, each on a stack of potentials (one per row).
_OMEGA_FREE = {
    "i": _aubin_i_rows,
    "j": _aubin_j_rows,
    "entropy": _entropy_rows,
    "k_energy": lambda b, phis: _k_energy_rows(b, phis)[0],
    "k_energy_modified": lambda b, phis: _k_energy_rows(b, phis)[1],
    "mean": _mean_rows,
}

_OMEGA_BOUND = {
    "j_hat": _j_hat_rows,
    "j_tilde": _j_tilde_rows,
    "j_flow": _j_flow_rows,
}

FUNCTIONAL_IDS = tuple(sorted(_OMEGA_FREE) + sorted(_OMEGA_BOUND))


class ProbeReport(NamedTuple):
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

    The path is walked in one stacked pass: the functional is evaluated
    at every node in one call, on the stack of node potentials, so
    shared set-up such as the level constant c(omega) is done once per
    probe.  Each node's value is the one the public scalar functional
    gives it.  The probe reports raw second differences, negative ones
    included; it never rejects a path for failing to be convex.
    ``omega`` defaults to the base form and must be positive for the
    functionals that pair against it.
    """
    sphere = _require_sphere(backend)
    if len(path) < 3:
        raise GeometryError("a convexity probe needs at least three path nodes")
    if functional_id in _OMEGA_FREE:
        evaluate = _OMEGA_FREE[functional_id]
    elif functional_id in _OMEGA_BOUND:
        if omega is None:
            om = sphere.base_form()
        elif isinstance(omega, HermitianFormField):
            om = omega
        else:
            om = sphere.form(np.asarray(omega, dtype=float))
        om.require_kahler(f"{functional_id} probe reference")
        evaluate = partial(_OMEGA_BOUND[functional_id], omega=om)
    else:
        raise GeometryError(
            f"unknown functional id {functional_id!r}; expected one of "
            f"{', '.join(FUNCTIONAL_IDS)}")
    ts = np.linspace(0.0, 1.0, len(path))
    values = evaluate(sphere, np.stack([sphere.check_field(p, "path node")
                                        for p in path]))
    return ProbeReport(functional_id=functional_id, ts=ts, values=values,
                       second_differences=np.diff(values, 2))
