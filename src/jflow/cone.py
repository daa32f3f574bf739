"""Pointwise subsolution checking and class-level hypothesis margins.

The subsolution condition is checked in its eigenvalue form: with
mu_1 <= ... <= mu_n the eigenvalues of omega relative to chi' at a
point, the wedge positivity condition is equivalent to

    n c + theta(p) - sum_{i != k} mu_i(p) > 0   for every k, p,

and the binding index is always the one dropping the smallest
eigenvalue, so the margin reduces to a single min scan.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .fields import GeometryError, HermitianFormField, NotKahlerError
from .functionals import level_constant
from .geometry import GeometryBackend, ricci_form, theta_of

MARGIN_CLASSIFY_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-10
# grid points sampled by the spectrum reconstruction check
RECONSTRUCTION_CHECK_POINTS = 16


@dataclass(frozen=True)
class RelativeSpectrum:
    """Sorted generalized eigenvalues of a form relative to a metric."""

    eigenvalues: np.ndarray  # (*grid, n), ascending
    reconstruction_error: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]

    def trace(self) -> np.ndarray:
        return self.eigenvalues.sum(axis=-1)

    def smallest(self) -> np.ndarray:
        return self.eigenvalues[..., 0]

    def largest(self) -> np.ndarray:
        return self.eigenvalues[..., -1]


def relative_spectrum(omega, chi_prime: HermitianFormField) -> RelativeSpectrum:
    """Eigenvalues of omega relative to chi_prime at every grid point.

    Solved through a Cholesky congruence; a reconstruction spot check on
    sampled points guards against silent factorization trouble.
    """
    chi_prime.require_kahler("relative spectrum")
    mats = omega.matrices if isinstance(omega, HermitianFormField) else np.asarray(omega, float)
    if mats.shape != chi_prime.matrices.shape:
        raise GeometryError(
            f"cannot relate shape {mats.shape} to {chi_prime.matrices.shape}")
    if chi_prime.n == 1:
        eig = mats[..., 0, 0] / chi_prime.matrices[..., 0, 0]
        return RelativeSpectrum(eigenvalues=eig[..., None],
                                reconstruction_error=0.0)

    chol = np.linalg.cholesky(chi_prime.matrices)
    half = np.linalg.solve(chol, mats)
    congruent = np.linalg.solve(chol, np.swapaxes(half, -1, -2))
    congruent = 0.5 * (congruent + np.swapaxes(congruent, -1, -2))
    eig, vecs = np.linalg.eigh(congruent)

    flat_idx = np.arange(int(np.prod(chi_prime.grid_shape)))
    sample = flat_idx[:: max(1, len(flat_idx) // RECONSTRUCTION_CHECK_POINTS)]
    n = chi_prime.n
    chol_flat = chol.reshape(-1, n, n)[sample]
    eig_flat = eig.reshape(-1, n)[sample]
    vec_flat = vecs.reshape(-1, n, n)[sample]
    om_flat = mats.reshape(-1, n, n)[sample]
    rebuilt = chol_flat @ (vec_flat * eig_flat[:, None, :]) @ np.swapaxes(vec_flat, -1, -2) @ np.swapaxes(chol_flat, -1, -2)
    err = float(np.abs(rebuilt - om_flat).max())
    scale = max(1.0, float(np.abs(om_flat).max()))
    if err > RECONSTRUCTION_TOL * scale:
        raise GeometryError(f"spectrum reconstruction check failed: {err:.3e}")
    return RelativeSpectrum(eigenvalues=eig, reconstruction_error=err)


def subsolution_margin(chi_prime: HermitianFormField, omega, c: float,
                       theta: np.ndarray) -> float:
    """min over points and indices of n c + theta - sum_{i != k} mu_i."""
    spectrum = relative_spectrum(omega, chi_prime)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != chi_prime.grid_shape:
        raise GeometryError(
            f"theta shape {theta.shape} does not match grid {chi_prime.grid_shape}")
    partial = spectrum.trace() - spectrum.smallest()
    margin = chi_prime.n * c + theta - partial
    return float(margin.min())


def classify_margin(margin: float, tol: float = MARGIN_CLASSIFY_TOL) -> str:
    """Three-way verdict keeping the boundary case visible."""
    if margin > tol:
        return "strict"
    if margin < -tol:
        return "violated"
    return "boundary"


@dataclass(frozen=True)
class HypothesisReport:
    condition_margins: dict[str, float]
    passes: dict[str, bool]
    epsilon: float
    alpha_lower_bound: float
    min_theta: float
    c: float
    n: int

    def to_dict(self) -> dict:
        return asdict(self)


def properness_hypotheses(backend: GeometryBackend, epsilon: float,
                          alpha_lower_bound: float,
                          chi_prime: HermitianFormField | None = None,
                          omega: HermitianFormField | None = None) -> HypothesisReport:
    """Margins for the three properness conditions plus the derived claim.

    Conditions, as margins (pass iff margin > 0 exactly):
      alpha_bound          (n+1)/n * alpha_lower_bound - epsilon
      class_positivity     min eigenvalue of (epsilon + min theta) chi'
                           minus the curvature representative
      combined_positivity  min eigenvalue of (-n r + min theta + epsilon) chi'
                           + (n-1) * curvature representative, where r is
                           the level constant of the curvature class
      level_claim          n (epsilon - r) + min theta, meaningful when
                           class_positivity holds

    When an explicit omega is supplied, its subsolution margin against
    chi' at c = epsilon - r is reported as well.
    """
    epsilon = float(epsilon)
    if not 0.0 <= epsilon < np.inf:  # nan and inf fail too
        raise GeometryError("epsilon must be finite and nonnegative")
    alpha_lower_bound = float(alpha_lower_bound)
    n = backend.n
    chi_prime = backend.base_form() if chi_prime is None else chi_prime
    chi_prime.require_kahler("properness hypotheses")

    theta0 = theta_of(backend, np.zeros(backend.grid_shape))
    min_theta = float(theta0.min())
    ric0 = ricci_form(backend, backend.base_form())
    r = level_constant(backend, ric0)
    c_theorem = epsilon - r

    margins = {
        "alpha_bound": (n + 1) / n * alpha_lower_bound - epsilon,
        "class_positivity": HermitianFormField.from_matrices(
            (epsilon + min_theta) * chi_prime.matrices - ric0).min_eigenvalue,
        "combined_positivity": HermitianFormField.from_matrices(
            (-n * r + min_theta + epsilon) * chi_prime.matrices
            + (n - 1) * ric0).min_eigenvalue,
        "level_claim": n * c_theorem + min_theta,
    }
    if omega is not None:
        margins["subsolution_with_omega"] = subsolution_margin(
            chi_prime, omega, c_theorem, theta0)
    passes = {name: margin > 0.0 for name, margin in margins.items()}
    return HypothesisReport(
        condition_margins=margins,
        passes=passes,
        epsilon=epsilon,
        alpha_lower_bound=alpha_lower_bound,
        min_theta=min_theta,
        c=c_theorem,
        n=n,
    )
