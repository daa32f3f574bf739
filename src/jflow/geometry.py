"""Reduced geometries and the discrete operators acting on them.

Both backends are one flux line: the same one-dimensional stencils with
different data.  A potential phi on N nodes has a half-cell flux in the
cell between each pair of neighbouring nodes,

    f_(i+1/2) = half_(i+1/2) (phi_(i+1) - phi_i) / delta,

and the complex Hessian density at node i is the node factor times the
flux difference, node_i (f_(i+1/2) - f_(i-1/2)) / delta.  The derivative
of phi along the frame is the node mean of the same two fluxes,
(f_(i+1/2) + f_(i-1/2)) / 2; the symmetry field X acts on phi by it.

``TorusBackend`` works on a periodic grid over the line ``[0, 1)``.
Potentials depend on the real part of the complex coordinate only, so
the complex Hessian is one quarter of the second derivative: half and
node factor are both 1/2, and the line closes on itself.  There is no
symmetry field, so theta is 0.

``SphereBackend`` works on the circle-invariant reduction of the round
sphere.  Fields live on a grid that is uniform in the moment coordinate
``m = e^s / (1 + e^s)``; metric coefficients are stored in the invariant
coframe ``dz / z``, where the reference density is ``m (1 - m)``.  The
half-cell factors are m (1 - m) at the cell midpoints and the node
factor m (1 - m) at the node, with zero flux past both ends, and
theta = m - mean(m) + X phi.

On either line the Hessian summed against the quadrature weights
telescopes to exactly zero, and the Hessian is exactly self-adjoint.  X
and the Hessian are a summation-by-parts pair under the same weights, so
theta integrates to zero against the volume of every metric:
sum_i theta_i rho_i w_i = 0 for every phi, up to round-off.  Both
properties are load-bearing for the energy bookkeeping downstream, and
the second makes the discrete critical equation solvable, so the flow
converges to machine-level residuals on both geometries.
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


def _flux_mean(flux: np.ndarray) -> np.ndarray:
    """The derivative along the frame: each node's flux mean."""
    return 0.5 * (flux[..., 1:] + flux[..., :-1])


class GeometryBackend:
    """One flux line; the concrete backends supply its data.

    Both geometries are one-dimensional (``n``, the complex dimension, is
    the constant 1), so a form is a (*grid, 1, 1) matrix stack and its raw
    array is its density.  Internal consumers (the flow kernel, the
    functionals, the geodesics) work on raw arrays, and ``raw_form``
    unwraps a form, checking its shape against the grid.  Each geometric
    operation has one body, a raw one, here; the public helpers
    (``complex_hessian``, ``vector_field_action``, ``ricci_form`` here,
    and ``theta_of``, ``trace_with``, ``integrate`` and ``volume`` below)
    check their arguments and wrap it.  metric, theta, stage and trace act
    on the trailing grid axis, so each also takes a stack of fields on
    leading axes and gives each row the bits it would get alone; the
    reductions take one field.  The raw operations:

        metric(phi, context)   chi0 + _complex_hessian(phi), checked finite
                               and positive at every node of every row
                               (NotKahlerError names context)
        theta(phi)             theta0 + X(phi)
        stage(phi, context)    (metric(phi, context), theta(phi)), bit for
                               bit, from one pass over phi's fluxes
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

    Each backend gives its line's data: ``periodic`` (the line closes on
    itself), the half-cell and node factors (through ``_line``), theta0,
    the symmetry field's coefficient (X is that times the frame
    derivative, so 0 on the torus) and the base form's Ricci density.
    """

    name: str
    n = 1
    grid_shape: tuple[int, ...]
    size: int
    spacing: float
    delta: float
    weights: np.ndarray | float
    tail_bound: float
    periodic: bool
    _base: HermitianFormField
    _base_raw: np.ndarray
    _theta0: np.ndarray
    _symmetry: float
    _ricci0: np.ndarray | float

    def _line(self, half: np.ndarray, node: np.ndarray | float) -> None:
        """Set the flux line from its half-cell and node factors.

        half holds one factor per cell between neighbouring nodes: N of
        them on a periodic line, the last for the cell from node N - 1 to
        node 0, and N - 1 on an open one.  The stencils index the N + 1
        cells k - 1/2, k = 0..N, around the nodes, so the cells past the
        ends of an open line get factor 0 and their fluxes vanish.
        """
        size = self.size
        if self.periodic:
            self._pad = np.r_[size - 1, 0:size, 0]
            cells = np.r_[half[-1], half]
        else:
            self._pad = np.r_[0, 0:size, size - 1]
            cells = np.r_[0.0, half, 0.0]
        self._flux_factor = cells / self.delta
        self._node = node
        self._div_factor = node / self.delta

    def base_form(self) -> HermitianFormField:
        return self._base

    def _fluxes(self, phi: np.ndarray) -> np.ndarray:
        """The N + 1 half-cell fluxes of phi along the trailing axis, one
        per cell k - 1/2 from node k - 1 to node k.  An open line repeats
        its end nodes, so the cells past its ends see no difference."""
        # take, unlike phi[..., pad], keeps the rows C-contiguous, so the
        # reductions over the grid axis sum each row as they sum it alone
        padded = np.take(phi, self._pad, axis=-1)
        return self._flux_factor * (padded[..., 1:] - padded[..., :-1])

    def _difference(self, flux: np.ndarray) -> np.ndarray:
        """The Hessian density: the node factor times each node's flux
        difference."""
        return self._div_factor * (flux[..., 1:] - flux[..., :-1])

    def _action(self, flux: np.ndarray) -> np.ndarray:
        """X: the symmetry coefficient times the frame derivative."""
        return self._symmetry * _flux_mean(flux)

    def _complex_hessian(self, phi: np.ndarray) -> np.ndarray:
        return self._difference(self._fluxes(phi))

    def complex_hessian(self, phi: ScalarField) -> np.ndarray:
        hess = self._complex_hessian(self.check_field(phi, "potential"))
        return hess[..., None, None]

    def vector_field_action(self, phi: ScalarField) -> ScalarField:
        return self._action(self._fluxes(self.check_field(phi, "potential")))

    def _ricci(self, rho: np.ndarray) -> np.ndarray:
        # Only the relative density log(rho / rho0) passes through the
        # Hessian; the base form's own curvature is known in closed form.
        relative = np.log(rho / self._base_raw)
        return self._ricci0 - self._complex_hessian(relative)

    def ricci_form(self, chi: HermitianFormField) -> np.ndarray:
        rho = self.raw_form(chi.require_kahler("ricci form"))
        return self._ricci(rho)[..., None, None]

    def _metric_from(self, flux: np.ndarray, context: str) -> np.ndarray:
        chi = self._base_raw + self._difference(flux)
        if not np.isfinite(chi).all():
            raise NotKahlerError(f"{context} requires a finite form")
        least = chi.min()
        if not least > DEFAULT_POSITIVITY_FLOOR:
            raise NotKahlerError(f"{context} requires a positive form "
                                 f"(least eigenvalue {least:.3e})")
        return chi

    def _theta_from(self, flux: np.ndarray) -> np.ndarray:
        return self._theta0 + self._action(flux)

    def metric(self, phi: np.ndarray, context: str) -> np.ndarray:
        return self._metric_from(self._fluxes(phi), context)

    def theta(self, phi: np.ndarray) -> np.ndarray:
        return self._theta_from(self._fluxes(phi))

    def stage(self, phi: np.ndarray,
              context: str) -> tuple[np.ndarray, np.ndarray]:
        """(metric(phi, context), theta(phi)) from one pass over the
        fluxes."""
        flux = self._fluxes(phi)
        return self._metric_from(flux, context), self._theta_from(flux)

    @staticmethod
    def trace(chi: np.ndarray, om: np.ndarray) -> np.ndarray:
        return om / chi

    def stiffness(self, chi: np.ndarray, om: np.ndarray) -> float:
        return float((om * self._node**2 / chi**2).max())

    def jacobian_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """d(Hessian density)/d phi and d theta/d phi, each as rows
        (lower, diagonal, upper) of length N: row i's entries in columns
        i - 1, i and i + 1, mod N on a periodic line, where lower[0] and
        upper[-1] are the corners; on an open line they are 0.  Each
        entry is the stencil's own value on a unit column, bit for bit."""
        # A unit column at node i has flux factor(i - 1/2) in the cell on
        # its left and -factor(i + 1/2) in the cell on its right.
        left, right = self._flux_factor[:-1], self._flux_factor[1:]
        hessian = self._div_factor * np.stack((left, -(left + right), right))
        action = np.stack((-left, left - right, right))
        return hessian, self._symmetry * (0.5 * action)

    def dissipation(self, sigma: np.ndarray, chi: np.ndarray,
                    om: np.ndarray) -> float:
        grad = _flux_mean(self._fluxes(sigma))
        return float(np.sum(grad * grad * om / chi * self.weights))

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
    is identically zero.  Half-cell and node factors are both 1/2, so the
    Hessian density is a quarter of the second difference.
    """

    name = "torus"
    periodic = True
    tail_bound = 0.0
    volume = 1.0
    _symmetry = _ricci0 = 0.0

    def __init__(self, size: int):
        size = int(size)
        if size < 8:
            raise GeometryError(f"torus grid too coarse: {size}")
        self.size = size
        self.grid_shape = (size,)
        self.delta = self.spacing = self.weights = 1.0 / size
        self.x = np.arange(size) / size
        self._theta0 = np.zeros(size)
        self._base = HermitianFormField.from_matrices(np.ones((size, 1, 1)))
        self._base_raw = self.raw_form(self._base)
        self._line(np.full(size, 0.5), 0.5)


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
    ``d/ds = m (1 - m) d/dm``, discretized as the flux mean, and the
    background's Ricci density is ``2 rho0``.
    """

    name = "sphere"
    periodic = False
    _symmetry = 1.0

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
        self._theta0 = self.m - float(np.mean(self.m))
        self._ricci0 = 2.0 * self.rho0
        self._base = HermitianFormField.from_matrices(self.rho0[:, None, None])
        self._line(self.mprime_half, self.mprime)


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
    return backend.theta(backend.check_field(phi, "potential"))


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
