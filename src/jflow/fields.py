"""Field containers and the error hierarchy shared by every module.

A scalar field is a plain ``numpy`` array over the backend's grid.  Form
fields carry an ``(*grid, n, n)`` stack of Hermitian matrices in the
backend's chart together with a cached positivity verdict, so that
downstream code never re-runs an eigenvalue sweep just to ask "is this
still a metric".
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

ScalarField = np.ndarray

# Relative eigenvalue floor below which a form stops counting as Kahler.
DEFAULT_POSITIVITY_FLOOR = 1e-10


class GeometryError(ValueError):
    """Base class for geometric-consistency failures."""


class ShapeMismatchError(GeometryError):
    """Fields defined on different grids were combined."""


class NotKahlerError(GeometryError):
    """An operation required a positive form and got a degenerate one."""


class UnsupportedBackend(GeometryError):
    """The requested construction is not defined on this geometry."""


class ConvexityLost(GeometryError):
    """A Legendre transform left the convex range of the chart."""


class StepStalled(RuntimeError):
    """Time stepping could not make progress above the minimum step size.

    run_flow attaches the run up to the stall as ``result``: a FlowResult
    with ``converged`` false and reason ``"stalled"``.
    """

    result = None


class ConfigError(ValueError):
    """A run configuration failed validation.

    ``line`` carries the offending ``key = value`` text when the failure
    can be pinned to a single entry.
    """

    def __init__(self, message: str, line: str | None = None):
        super().__init__(message)
        self.line = line


class NonConvergence(RuntimeError):
    """A run that was required to converge finished above its residual target."""


class Normalization(str, Enum):
    MEAN_ZERO = "mean_zero"
    SUP_ZERO = "sup_zero"


def _require_finite(values: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(values)):
        raise GeometryError(f"{label} contains non-finite entries")


class HermitianFormField(NamedTuple):
    """Stack of Hermitian matrices in the backend chart.

    ``kahler`` records whether every eigenvalue cleared ``min_eigenvalue
    > DEFAULT_POSITIVITY_FLOOR`` at construction time; the flag is
    trusted afterwards.
    """

    matrices: np.ndarray
    kahler: bool
    min_eigenvalue: float

    @classmethod
    def from_matrices(cls, matrices: np.ndarray) -> "HermitianFormField":
        matrices = np.asarray(matrices, dtype=float)
        if matrices.ndim < 2 or matrices.shape[-1] != matrices.shape[-2]:
            raise ShapeMismatchError(
                f"expected (*grid, n, n) matrix stack, got shape {matrices.shape}")
        _require_finite(matrices, "form field")
        # Symmetrize exactly so self-adjointness is a property, not a hope.
        matrices = 0.5 * (matrices + np.swapaxes(matrices, -1, -2))
        n = matrices.shape[-1]
        if n == 1:
            min_eig = float(matrices[..., 0, 0].min())
        else:
            min_eig = float(np.linalg.eigvalsh(matrices)[..., 0].min())
        return cls(matrices=matrices, kahler=min_eig > DEFAULT_POSITIVITY_FLOOR,
                   min_eigenvalue=min_eig)

    @property
    def n(self) -> int:
        return self.matrices.shape[-1]

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.matrices.shape[:-2]

    @property
    def density(self) -> np.ndarray:
        """The single matrix entry, for one-dimensional backends."""
        if self.n != 1:
            raise UnsupportedBackend("density is only defined for n == 1")
        return self.matrices[..., 0, 0]

    def require_kahler(self, context: str = "operation") -> "HermitianFormField":
        if not self.kahler:
            raise NotKahlerError(
                f"{context} requires a positive form "
                f"(minimum eigenvalue {self.min_eigenvalue:.3e})")
        return self

    def det(self) -> np.ndarray:
        if self.n == 1:
            return self.matrices[..., 0, 0].copy()
        return np.linalg.det(self.matrices)
