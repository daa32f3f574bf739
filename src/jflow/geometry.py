"""Reduced geometries and the discrete operators acting on them.

Two backends are provided.

``TorusBackend`` works on a periodic grid over ``[0, 1)^n``.  Potentials
depend on the real parts of the complex coordinates only, so the complex
Hessian is one quarter of the real Hessian, built from central
differences.  Central differences commute and are exactly self-adjoint
against the uniform cell weights, which makes the discrete cohomology
statements (total Hessian mass zero, symmetry of the induced bilinear
forms) identities rather than approximations.

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


def _periodic_neighbours(values: np.ndarray, axis: int = 0):
    """The periodic neighbours of every node along `axis`: np.roll(values,
    -1, axis) and np.roll(values, 1, axis), as views of one copy padded
    with a wrapped node at each end."""
    if axis:
        up, down = _periodic_neighbours(values.swapaxes(0, axis))
        return up.swapaxes(0, axis), down.swapaxes(0, axis)
    padded = np.concatenate((values[-1:], values, values[:1]))
    return padded[2:], padded[:-2]


def _periodic_central(values: np.ndarray, axis: int, delta: float) -> np.ndarray:
    up, down = _periodic_neighbours(values, axis)
    return (up - down) / (2.0 * delta)


def _periodic_second(values: np.ndarray, axis: int, delta: float) -> np.ndarray:
    up, down = _periodic_neighbours(values, axis)
    return (up - 2.0 * values + down) / delta**2


class GeometryBackend:
    """Common interface; concrete backends fill in the chart-level ops.

    Internal consumers (the flow kernel, the functionals, the geodesics)
    work on raw arrays: a form is its density when ``n == 1``, else its
    matrix stack, and ``raw_form`` unwraps one, checking its shape
    against the grid.  ``_complex_hessian`` is the raw body of
    ``complex_hessian``.  The raw operations:

        metric(phi, context)   chi0 + complex_hessian(phi), checked finite
                               and positive (NotKahlerError names context)
        theta(phi)             theta0 + X(phi); the scalar 0 on the torus
        stage(phi)             (metric(phi, "flow stage"), theta(phi))
        det(chi), trace(chi, om)
                               det chi and tr(chi^{-1} om) at every node
        integral(values, chi)  the integral of values against vol(chi)
        stiffness(chi, om)     the explicit step's stiffness bound
        dissipation(sigma, chi, om)
                               the integral of |d sigma|^2, contracted
                               through chi^{-1} omega chi^{-1}, against
                               vol(chi)
    """

    name: str
    n: int
    grid_shape: tuple[int, ...]
    spacing: float
    weights: np.ndarray | float
    has_vector_field: bool
    tail_bound: float
    _base_raw: np.ndarray

    def base_form(self) -> HermitianFormField:
        raise NotImplementedError

    def complex_hessian(self, phi: ScalarField) -> np.ndarray:
        hess = self._complex_hessian(self.check_field(phi, "potential"))
        return hess[..., None, None] if self.n == 1 else hess

    def theta_base(self) -> ScalarField:
        raise NotImplementedError

    def vector_field_action(self, phi: ScalarField) -> ScalarField:
        raise NotImplementedError

    def ricci_form(self, chi: HermitianFormField) -> np.ndarray:
        raise NotImplementedError

    def metric(self, phi: np.ndarray, context: str) -> np.ndarray:
        chi = self._base_raw + self._complex_hessian(phi)
        if not np.isfinite(chi).all():
            raise NotKahlerError(f"{context} requires a finite form")
        least = chi.min() if self.n == 1 else np.linalg.eigvalsh(chi)[..., 0].min()
        if not least > DEFAULT_POSITIVITY_FLOOR:
            raise NotKahlerError(f"{context} requires a positive form "
                                 f"(least eigenvalue {least:.3e})")
        return chi

    def theta(self, phi: np.ndarray) -> np.ndarray | float:
        raise NotImplementedError

    def stage(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
        return self.metric(phi, "flow stage"), self.theta(phi)

    def det(self, chi: np.ndarray) -> np.ndarray:
        return chi if self.n == 1 else np.linalg.det(chi)

    def trace(self, chi: np.ndarray, om: np.ndarray) -> np.ndarray:
        if self.n == 1:
            return om / chi
        return np.einsum("...ii->...", np.linalg.solve(chi, om))

    def stiffness(self, chi: np.ndarray, om: np.ndarray) -> float:
        raise NotImplementedError

    def dissipation(self, sigma: np.ndarray, chi: np.ndarray,
                    om: np.ndarray) -> float:
        raise NotImplementedError

    def raw_form(self, form: HermitianFormField | np.ndarray) -> np.ndarray:
        mats = (form.matrices if isinstance(form, HermitianFormField)
                else np.asarray(form, dtype=float))
        want = self.grid_shape + (self.n, self.n)
        if mats.shape != want:
            raise ShapeMismatchError(
                f"form has shape {mats.shape}, expected {want}")
        return mats[..., 0, 0] if self.n == 1 else mats

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
        return self.det(chi) * self.weights

    def integral(self, values: np.ndarray, chi: np.ndarray) -> float:
        """The integral of values against the volume of the raw metric chi."""
        return float(np.sum(values * self.raw_volume_density(chi)))

    def volume_density(self, chi: HermitianFormField | None = None) -> np.ndarray:
        chi = self.base_form() if chi is None else chi
        return self.raw_volume_density(self.raw_form(chi))


class TorusBackend(GeometryBackend):
    """Flat periodic geometry on ``[0, 1)^n``.

    The background form is a constant positive matrix ``base_matrix``
    (identity by default).  The first Chern class vanishes, there is no
    symmetry vector field, and the moment function is identically zero.
    """

    name = "torus"
    has_vector_field = False
    tail_bound = 0.0

    def __init__(self, shape: tuple[int, ...] | int,
                 base_matrix: np.ndarray | None = None):
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(int(k) for k in shape)
        if any(k < 8 for k in shape):
            raise GeometryError(f"torus grid too coarse: {shape}")
        self.grid_shape = shape
        self.n = len(shape)
        self.deltas = tuple(1.0 / k for k in shape)
        self.spacing = max(self.deltas)
        self.weights = float(np.prod(self.deltas))
        self.axes = [np.arange(k) / k for k in shape]
        if base_matrix is None:
            base_matrix = np.eye(self.n)
        base_matrix = np.asarray(base_matrix, dtype=float)
        if base_matrix.shape != (self.n, self.n):
            raise ShapeMismatchError(
                f"base matrix has shape {base_matrix.shape}, "
                f"expected {(self.n, self.n)}")
        base_matrix = 0.5 * (base_matrix + base_matrix.T)
        if np.linalg.eigvalsh(base_matrix)[0] <= 0:
            raise GeometryError("base matrix must be positive definite")
        self.base_matrix = base_matrix
        self._base_det = float(np.linalg.det(base_matrix))
        # total reference volume: the cell is the unit cube
        self.volume = self._base_det
        self._base = HermitianFormField.from_matrices(
            np.broadcast_to(base_matrix, shape + (self.n, self.n)).copy())
        self._base_raw = self.raw_form(self._base)

    def coords(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes, indexing="ij"))

    def base_form(self) -> HermitianFormField:
        return self._base

    def _complex_hessian(self, phi: np.ndarray) -> np.ndarray:
        """A quarter of the real Hessian, raw: a density when n == 1."""
        if self.n == 1:
            return 0.25 * _periodic_second(phi, 0, self.deltas[0])
        hess = np.empty(self.grid_shape + (self.n, self.n))
        for k in range(self.n):
            hess[..., k, k] = _periodic_second(phi, k, self.deltas[k])
            for l in range(k + 1, self.n):
                mixed = _periodic_central(
                    _periodic_central(phi, k, self.deltas[k]), l, self.deltas[l])
                hess[..., k, l] = mixed
                hess[..., l, k] = mixed
        return 0.25 * hess

    def theta_base(self) -> ScalarField:
        return np.zeros(self.grid_shape)

    def vector_field_action(self, phi: ScalarField) -> ScalarField:
        self.check_field(phi, "potential")
        return np.zeros(self.grid_shape)

    def _gradient(self, phi: np.ndarray) -> np.ndarray:
        return np.stack([_periodic_central(phi, k, delta)
                         for k, delta in enumerate(self.deltas)], axis=-1)

    def gradient(self, phi: ScalarField) -> np.ndarray:
        return self._gradient(self.check_field(phi, "potential"))

    def ricci_form(self, chi: HermitianFormField) -> np.ndarray:
        chi.require_kahler("ricci form")
        log_ratio = np.log(chi.det() / self._base_det)
        return -self.complex_hessian(log_ratio)

    def theta(self, phi) -> float:
        # theta vanishes identically
        return 0.0

    def stiffness(self, chi, om) -> float:
        if self.n == 1:
            return float((0.25 * om / chi**2).max())
        inv = np.linalg.inv(chi)
        coeff = np.einsum("...ii->...", inv @ om @ inv) / (4.0 * self.n)
        return float(coeff.max())

    def dissipation(self, sigma, chi, om) -> float:
        if self.n == 1:
            dsig = _periodic_central(sigma, 0, self.deltas[0])
            return 0.25 * float(np.sum(dsig * dsig * om / chi) * self.weights)
        v = np.linalg.solve(chi, self._gradient(sigma)[..., None])[..., 0]
        return self.integral(
            0.25 * np.einsum("...i,...ij,...j->...", v, om, v), chi)


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
    n = 1
    has_vector_field = True

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
        out = np.empty_like(phi)
        out[1:-1] = (phi[2:] - phi[:-2]) / (2.0 * self.delta)
        out[0] = (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / (2.0 * self.delta)
        out[-1] = (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * self.delta)
        return out

    def moment_derivative(self, phi: ScalarField) -> ScalarField:
        """d(phi)/dm: central inside, one-sided three-point at the ends."""
        return self._moment_derivative(self.check_field(phi, "potential"))

    def _complex_hessian(self, phi: np.ndarray) -> np.ndarray:
        """The flux-form Hessian density, zero flux through both ends."""
        flux = self.mprime_half * (phi[1:] - phi[:-1]) / self.delta
        div = np.empty_like(phi)
        div[0] = flux[0]
        div[1:-1] = flux[1:] - flux[:-1]
        div[-1] = -flux[-1]
        return self.mprime * div / self.delta

    def theta_base(self) -> ScalarField:
        return self._theta0.copy()

    def vector_field_action(self, phi: ScalarField) -> ScalarField:
        return self.mprime * self.moment_derivative(phi)

    def ricci_form(self, chi: HermitianFormField) -> np.ndarray:
        # Curvature of the background is known in closed form, so only the
        # relative density log(rho / rho0) passes through the Hessian; it
        # is smooth up to the truncation boundary where the flux vanishes.
        chi.require_kahler("ricci form")
        log_ratio = np.log(chi.density / self.rho0)
        ric = 2.0 * self.rho0 - self._complex_hessian(log_ratio)
        return ric[:, None, None]

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
    """The deformed form ``base + complex_hessian(phi)``, positivity-checked."""
    if base.grid_shape != backend.grid_shape or base.n != backend.n:
        raise ShapeMismatchError("base form does not match backend grid")
    matrices = base.matrices + backend.complex_hessian(phi)
    return HermitianFormField.from_matrices(matrices)


def trace_with(chi: HermitianFormField,
               omega: HermitianFormField | np.ndarray) -> ScalarField:
    """Pointwise trace of ``omega`` against ``chi``: tr(chi^{-1} omega)."""
    mats = omega.matrices if isinstance(omega, HermitianFormField) else np.asarray(omega)
    chi.require_kahler("trace")
    if mats.shape != chi.matrices.shape:
        raise ShapeMismatchError(
            f"cannot trace shape {mats.shape} against {chi.matrices.shape}")
    if chi.n == 1:
        return mats[..., 0, 0] / chi.matrices[..., 0, 0]
    solved = np.linalg.solve(chi.matrices, mats)
    return np.einsum("...ii->...", solved)


def theta_of(backend: GeometryBackend, phi: ScalarField) -> ScalarField:
    """Moment function along the deformation: theta0 + X(phi)."""
    return backend.theta_base() + backend.vector_field_action(phi)


def ricci_form(backend: GeometryBackend, chi: HermitianFormField) -> np.ndarray:
    return backend.ricci_form(chi)


def integrate(backend: GeometryBackend, values: ScalarField,
              chi: HermitianFormField | None = None) -> float:
    """Integral of ``values`` against the volume of ``chi`` (base if omitted)."""
    values = backend.check_field(values, "integrand")
    return float(np.sum(values * backend.volume_density(chi)))


def volume(backend: GeometryBackend, chi: HermitianFormField | None = None) -> float:
    return float(np.sum(backend.volume_density(chi)))


def make_backend(kind: str, **params) -> GeometryBackend:
    kind = kind.strip().lower()
    if kind == "torus":
        dim = int(params.pop("dim", 1))
        size = params.pop("size", 256)
        base_matrix = params.pop("base_matrix", None)
        if params:
            raise GeometryError(f"unknown torus parameters: {sorted(params)}")
        if isinstance(size, int):
            shape = (size,) * dim
        else:
            shape = tuple(size)
            if len(shape) != dim:
                raise GeometryError(
                    f"size {shape} does not match dim {dim}")
        return TorusBackend(shape, base_matrix=base_matrix)
    if kind == "sphere":
        size = int(params.pop("size", 256))
        s_max = float(params.pop("s_max", 12.0))
        if params:
            raise GeometryError(f"unknown sphere parameters: {sorted(params)}")
        return SphereBackend(size, s_max=s_max)
    raise UnsupportedBackend(f"unknown geometry kind: {kind!r}")
