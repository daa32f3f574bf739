"""Reduced geometries and the discrete operators acting on them.

Two backends are provided.

``TorusBackend`` works on a periodic grid over the line ``[0, 1)``.
Potentials depend on the real part of the complex coordinate only, so
the complex Hessian is one quarter of the second derivative, built from
central differences.  These are exactly self-adjoint against the
uniform cell weights, which makes the discrete cohomology statements
(total Hessian mass zero, symmetry of the induced bilinear forms)
identities rather than approximations.

``SphereBackend`` works on the circle-invariant reduction of the round
sphere.  Fields live on a grid that is uniform in the moment coordinate
``m = e^s / (1 + e^s)``; metric coefficients are stored in the invariant
coframe ``dz / z``, where the reference density is ``m (1 - m)``.  The
complex Hessian is discretized in flux form with zero boundary flux, so
summing it against the quadrature weights telescopes to exactly zero and
the operator is exactly self-adjoint.  Both properties are load-bearing
for the energy bookkeeping downstream.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    DEFAULT_POSITIVITY_FLOOR,
    GeometryError,
    HermitianFormField,
    NotKahlerError,
    ScalarField,
    ShapeMismatchError,
    UnsupportedBackend,
)


def _periodic_neighbours(values: np.ndarray):
    """The periodic neighbours of every node along the trailing axis:
    np.roll(values, -1, -1) and np.roll(values, 1, -1), as views of one
    copy padded with a wrapped node at each end."""
    padded = np.concatenate((values[..., -1:], values, values[..., :1]),
                            axis=-1)
    return padded[..., 2:], padded[..., :-2]


def _periodic_central(values: np.ndarray, delta: float) -> np.ndarray:
    up, down = _periodic_neighbours(values)
    return (up - down) / (2.0 * delta)


def _periodic_second(values: np.ndarray, delta: float) -> np.ndarray:
    up, down = _periodic_neighbours(values)
    return (up - 2.0 * values + down) / delta**2


class GeometryBackend:
    """Common interface; concrete backends fill in the chart-level ops.

    Both geometries are one-dimensional (``n``, the complex dimension, is
    the constant 1), so a form is a (*grid, 1, 1) matrix stack and its raw
    array is its density.  Internal consumers (the flow kernel, the
    functionals, the geodesics) work on raw arrays, and ``raw_form``
    unwraps a form, checking its shape against the grid.  Each geometric
    operation has one body, a raw one; the public helpers (``complex_hessian``,
    ``ricci_form`` here, and ``theta_of``, ``trace_with``, ``integrate`` and
    ``volume`` below) check their arguments and wrap it.  metric, theta,
    stage and trace act on the trailing grid axis, so each also takes a
    stack of fields on leading axes and gives each row the bits it would
    get alone; the reductions take one field.  The raw operations:

        metric(phi, context)   chi0 + _complex_hessian(phi), checked finite
                               and positive at every node of every row
                               (NotKahlerError names context)
        theta(phi)             theta0 + X(phi); the scalar 0 on the torus
        stage(phi)             (metric(phi, "flow stage"), theta(phi))
        trace(chi, om)         om / chi at every node; a staticmethod
        _ricci(chi)            the Ricci density of chi
        raw_volume_density(chi)
                               chi * weights: a density is its own
                               determinant
        integral(values, chi)  the integral of values against vol(chi)
        stiffness(chi, om)     the explicit step's stiffness bound
        dissipation(sigma, chi, om)
                               the integral of |d sigma|^2 om / chi^2
                               against vol(chi)
    """

    name: str
    n = 1
    grid_shape: tuple[int, ...]
    spacing: float
    weights: np.ndarray | float
    tail_bound: float
    _base_raw: np.ndarray

    def base_form(self) -> HermitianFormField:
        raise NotImplementedError

    def complex_hessian(self, phi: ScalarField) -> np.ndarray:
        hess = self._complex_hessian(self.check_field(phi, "potential"))
        return hess[..., None, None]

    def vector_field_action(self, phi: ScalarField) -> ScalarField:
        raise NotImplementedError

    def ricci_form(self, chi: HermitianFormField) -> np.ndarray:
        rho = self.raw_form(chi.require_kahler("ricci form"))
        return self._ricci(rho)[..., None, None]

    def metric(self, phi: np.ndarray, context: str) -> np.ndarray:
        chi = self._base_raw + self._complex_hessian(phi)
        if not np.isfinite(chi).all():
            raise NotKahlerError(f"{context} requires a finite form")
        least = chi.min()
        if not least > DEFAULT_POSITIVITY_FLOOR:
            raise NotKahlerError(f"{context} requires a positive form "
                                 f"(least eigenvalue {least:.3e})")
        return chi

    def theta(self, phi: np.ndarray) -> np.ndarray | float:
        raise NotImplementedError

    def stage(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
        return self.metric(phi, "flow stage"), self.theta(phi)

    @staticmethod
    def trace(chi: np.ndarray, om: np.ndarray) -> np.ndarray:
        return om / chi

    def stiffness(self, chi: np.ndarray, om: np.ndarray) -> float:
        raise NotImplementedError

    def jacobian_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """d(Hessian density)/d phi and d theta/d phi, each as
        rows (lower, diagonal, upper, fill) of length N: row i's entries
        in columns i - 1, i and i + 1 (mod N on the torus line, zero past
        the ends on the sphere), and the one-sided fills at (0, 2) in
        fill[0] and at (N - 1, N - 3) in fill[-1].  Each entry is the
        stencil's own value on a unit column, bit for bit."""
        raise NotImplementedError

    def dissipation(self, sigma: np.ndarray, chi: np.ndarray,
                    om: np.ndarray) -> float:
        raise NotImplementedError

    def raw_form(self, form: HermitianFormField | np.ndarray) -> np.ndarray:
        mats = (form.matrices if isinstance(form, HermitianFormField)
                else np.asarray(form, dtype=float))
        want = self.grid_shape + (1, 1)
        if mats.shape != want:
            raise ShapeMismatchError(
                f"form has shape {mats.shape}, expected {want}")
        return mats[..., 0, 0]

    def check_field(self, values: np.ndarray, label: str = "field") -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != self.grid_shape:
            raise ShapeMismatchError(
                f"{label} has shape {values.shape}, expected {self.grid_shape}")
        return values

    def form(self, matrices: np.ndarray) -> HermitianFormField:
        self.raw_form(matrices)  # checks the shape against the grid
        return HermitianFormField.from_matrices(matrices)

    def raw_volume_density(self, chi: np.ndarray) -> np.ndarray:
        return chi * self.weights

    def integral(self, values: np.ndarray | float, chi: np.ndarray) -> float:
        """The integral of values against the volume of the raw metric chi;
        values = 1.0 gives the volume."""
        return float(np.sum(values * self.raw_volume_density(chi)))


class TorusBackend(GeometryBackend):
    """Flat periodic geometry on the line ``[0, 1)``.

    The background form is the constant density 1.  The first Chern class
    vanishes, there is no symmetry vector field, and the moment function
    is identically zero.
    """

    name = "torus"
    tail_bound = 0.0
    volume = 1.0

    def __init__(self, size: int):
        size = int(size)
        if size < 8:
            raise GeometryError(f"torus grid too coarse: {size}")
        self.size = size
        self.grid_shape = (size,)
        self.delta = self.spacing = self.weights = 1.0 / size
        self.x = np.arange(size) / size
        self._base = HermitianFormField.from_matrices(np.ones((size, 1, 1)))
        self._base_raw = self.raw_form(self._base)

    def base_form(self) -> HermitianFormField:
        return self._base

    def _complex_hessian(self, phi: np.ndarray) -> np.ndarray:
        """A quarter of the second difference, along the trailing axis."""
        return 0.25 * _periodic_second(phi, self.delta)

    def jacobian_bands(self) -> tuple[np.ndarray, np.ndarray]:
        # _periodic_second on a unit column: up - 2 values + down is 1, -2, 1
        stencil = np.array([1.0, -2.0, 1.0, 0.0]) / self.delta**2
        hessian = np.repeat((0.25 * stencil)[:, None], self.size, axis=1)
        return hessian, np.zeros_like(hessian)

    def vector_field_action(self, phi: ScalarField) -> ScalarField:
        return np.zeros_like(self.check_field(phi, "potential"))

    def _ricci(self, rho: np.ndarray) -> np.ndarray:
        return -self._complex_hessian(np.log(rho))

    def theta(self, phi) -> float:
        # theta vanishes identically
        return 0.0

    def stiffness(self, chi, om) -> float:
        return float((0.25 * om / chi**2).max())

    def dissipation(self, sigma, chi, om) -> float:
        dsig = _periodic_central(sigma, self.delta)
        return 0.25 * float(np.sum(dsig * dsig * om / chi) * self.weights)


class SphereBackend(GeometryBackend):
    """Circle-invariant reduction of the round sphere, total area ``pi``.

    ``s = log |z|^2`` on the open chart, ``m = e^s / (1 + e^s)`` the
    moment coordinate with range ``(0, 1)``.  Grid nodes are uniform in
    ``m`` and symmetric about ``1/2``; truncation keeps ``m`` in
    ``[m_lo, 1 - m_lo]`` where ``m_lo`` is set by ``s_max``, never
    finer than half a cell.  ``tail_bound`` is the reference mass of the
    two excluded polar caps.

    Metric coefficients are stored in the coframe ``dz / z``: the round
    background is ``rho0 = m (1 - m)``.  The symmetry generator acts as
    ``d/ds = m (1 - m) d/dm``.
    """

    name = "sphere"

    def __init__(self, size: int, s_max: float = 12.0):
        size = int(size)
        if size < 16:
            raise GeometryError(f"sphere grid too coarse: {size}")
        if not s_max > 1.0:  # nan fails too
            raise GeometryError("s_max must exceed 1")
        self.size = size
        self.s_max = float(s_max)
        m_lo = max(0.5 / size, 1.0 / (1.0 + np.exp(self.s_max)))
        self.m_lo = float(m_lo)
        self.delta = (1.0 - 2.0 * self.m_lo) / (size - 1)
        self.m = self.m_lo + self.delta * np.arange(size)
        self.grid_shape = (size,)
        self.spacing = self.delta
        self.mprime = self.m * (1.0 - self.m)
        self.rho0 = self._base_raw = self.mprime
        m_half = self.m[:-1] + 0.5 * self.delta
        self.mprime_half = m_half * (1.0 - m_half)
        self.weights = np.pi * self.delta / self.mprime
        self.s = np.log(self.m / (1.0 - self.m))
        self.f0 = -np.log(1.0 - self.m)
        self.tail_bound = 2.0 * np.pi * self.m_lo
        self.volume = np.pi * self.delta * size
        mbar = float(np.mean(self.m))
        self._theta0 = self.m - mbar
        self._base = HermitianFormField.from_matrices(self.rho0[:, None, None])

    def base_form(self) -> HermitianFormField:
        return self._base

    def _moment_derivative(self, phi: np.ndarray) -> np.ndarray:
        """d(phi)/dm: central inside, one-sided three-point at the ends."""
        # Along the trailing axis, indexed through the transposes, where
        # it leads: the end nodes of one field stay scalars.
        out = np.empty_like(phi)
        p, o = phi.T, out.T
        o[1:-1] = (p[2:] - p[:-2]) / (2.0 * self.delta)
        o[0] = (-3.0 * p[0] + 4.0 * p[1] - p[2]) / (2.0 * self.delta)
        o[-1] = (3.0 * p[-1] - 4.0 * p[-2] + p[-3]) / (2.0 * self.delta)
        return out

    def _complex_hessian(self, phi: np.ndarray) -> np.ndarray:
        """The flux-form Hessian density, zero flux through both ends,
        along the trailing axis (transposed as in _moment_derivative)."""
        flux = self.mprime_half * (phi[..., 1:] - phi[..., :-1]) / self.delta
        div = np.empty_like(phi)
        f, d = flux.T, div.T
        d[0] = f[0]
        d[1:-1] = f[1:] - f[:-1]
        d[-1] = -f[-1]
        return self.mprime * div / self.delta

    def jacobian_bands(self) -> tuple[np.ndarray, np.ndarray]:
        # _complex_hessian on a unit column: the flux mprime_half (+-1) /
        # delta enters div through the cells on either side of the node
        flux = self.mprime_half / self.delta
        div = np.zeros((4, self.size))
        div[0, 1:] = flux
        div[2, :-1] = flux
        div[1, 1:-1] = -flux[1:] - flux[:-1]
        div[1, 0], div[1, -1] = -flux[0], -flux[-1]
        # _moment_derivative on a unit column: the numerators' coefficients
        numer = np.zeros((4, self.size))
        numer[0, 1:-1], numer[2, 1:-1] = -1.0, 1.0
        numer[1:, 0] = -3.0, 4.0, -1.0
        numer[:2, -1], numer[3, -1] = (-4.0, 3.0), 1.0
        return (self.mprime * div / self.delta,
                self.mprime * (numer / (2.0 * self.delta)))

    def vector_field_action(self, phi: ScalarField) -> ScalarField:
        """X(phi) = m (1 - m) d(phi)/dm, d/dm as in _moment_derivative."""
        return self.mprime * self._moment_derivative(
            self.check_field(phi, "potential"))

    def _ricci(self, rho: np.ndarray) -> np.ndarray:
        # Curvature of the background is known in closed form, so only the
        # relative density log(rho / rho0) passes through the Hessian; it
        # is smooth up to the truncation boundary where the flux vanishes.
        return 2.0 * self.rho0 - self._complex_hessian(np.log(rho / self.rho0))

    def theta(self, phi) -> np.ndarray:
        return self._theta0 + self.mprime * self._moment_derivative(phi)

    def stiffness(self, rho, om) -> float:
        return float((om * self.mprime**2 / rho**2).max())

    def dissipation(self, sigma, rho, om) -> float:
        dsig = self.mprime * self._moment_derivative(sigma)
        return float(np.sum(dsig * dsig * om / rho * self.weights))


def complex_hessian(backend: GeometryBackend, phi: ScalarField) -> np.ndarray:
    return backend.complex_hessian(phi)


def build_metric(backend: GeometryBackend, base: HermitianFormField,
                 phi: ScalarField) -> HermitianFormField:
    """The deformed form ``base + complex_hessian(phi)``, flagged (not
    refused, as by ``backend.metric``) where it is not positive."""
    hess = backend._complex_hessian(backend.check_field(phi, "potential"))
    rho = backend.raw_form(base) + hess
    return HermitianFormField.from_matrices(rho[..., None, None])


def trace_with(chi: HermitianFormField,
               omega: HermitianFormField | np.ndarray) -> ScalarField:
    """Pointwise trace of ``omega`` against ``chi``: tr(chi^{-1} omega)."""
    mats = omega.matrices if isinstance(omega, HermitianFormField) else np.asarray(omega)
    chi.require_kahler("trace")
    if mats.shape != chi.matrices.shape:
        raise ShapeMismatchError(
            f"cannot trace shape {mats.shape} against {chi.matrices.shape}")
    return GeometryBackend.trace(chi.density, mats[..., 0, 0])


def theta_of(backend: GeometryBackend, phi: ScalarField) -> ScalarField:
    """Moment function along the deformation: theta0 + X(phi), on the grid."""
    theta = backend.theta(backend.check_field(phi, "potential"))
    return np.broadcast_to(theta, backend.grid_shape).copy()


def ricci_form(backend: GeometryBackend, chi: HermitianFormField) -> np.ndarray:
    return backend.ricci_form(chi)


def integrate(backend: GeometryBackend, values: ScalarField,
              chi: HermitianFormField | None = None) -> float:
    """Integral of ``values`` against the volume of ``chi`` (base if omitted)."""
    rho = backend._base_raw if chi is None else backend.raw_form(chi)
    return backend.integral(backend.check_field(values, "integrand"), rho)


def volume(backend: GeometryBackend, chi: HermitianFormField | None = None) -> float:
    return integrate(backend, np.ones(backend.grid_shape), chi)


def make_backend(kind: str, **params) -> GeometryBackend:
    kind = kind.strip().lower()
    if kind == "torus":
        size = int(params.pop("size", 256))
        if params:
            raise GeometryError(f"unknown torus parameters: {sorted(params)}")
        return TorusBackend(size)
    if kind == "sphere":
        size = int(params.pop("size", 256))
        s_max = float(params.pop("s_max", 12.0))
        if params:
            raise GeometryError(f"unknown sphere parameters: {sorted(params)}")
        return SphereBackend(size, s_max=s_max)
    raise UnsupportedBackend(f"unknown geometry kind: {kind!r}")
